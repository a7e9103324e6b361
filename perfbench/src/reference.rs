//! The benchmark's own reference computations, made apart from the
//! program's analysis code so that a check compares two derivations.

use badabing_core::outcome::{ExperimentLog, Outcome};
use badabing_wire::control::ReportRecord;

/// The loss-only experiment log over a session's fetched report: a
/// probe is congested iff fewer than `train` of its packets arrived, and
/// an experiment counts only when its 2 or 3 recorded slots are
/// contiguous (the §3 geometry).
pub fn loss_log(
    records: &[ReportRecord],
    train: u8,
    n_slots: u64,
    slot_secs: f64,
) -> ExperimentLog {
    let mut by_exp: std::collections::BTreeMap<u64, Vec<&ReportRecord>> = Default::default();
    for r in records {
        by_exp.entry(r.experiment).or_default().push(r);
    }
    let mut log = ExperimentLog::new(n_slots, slot_secs);
    for (exp, mut probes) in by_exp {
        probes.sort_by_key(|r| r.slot);
        let n = probes.len();
        let contiguous = probes.windows(2).all(|w| w[1].slot == w[0].slot + 1);
        if !(n == 2 || n == 3) || !contiguous {
            continue;
        }
        let mut states = [false; 3];
        for (s, r) in states.iter_mut().zip(&probes) {
            *s = r.received.min(train) < train;
        }
        log.push(Outcome {
            id: exp,
            start_slot: probes[0].slot,
            probes: n as u8,
            states,
        });
    }
    log
}
