//! `sim-web`: single-threaded BADABING replicates at p = 0.3 over the
//! paper's 900 s horizon with Harpoon-like web traffic on the standard
//! dumbbell. One round is one replicate on its own seed; the unit of
//! work is one simulated second. Exercises `sim`, `tcp`, `traffic`,
//! `probe` and `core`; never `wire` or `live`.

use crate::probes;
use crate::trace::Tracer;
use crate::{median, Checks, Metrics, Mix, RoundOut, Sample, Timed, Workload};
use badabing_core::config::BadabingConfig;
use badabing_core::detector::CongestionDetector;
use badabing_core::estimator::Estimates;
use badabing_core::validate::Validation;
use badabing_probe::badabing::BadabingHarness;
use badabing_sim::packet::FlowId;
use badabing_sim::topology::Dumbbell;
use badabing_stats::rng::seeded;
use badabing_traffic::web::{attach_web, WebConfig};
use std::time::Instant;

/// The paper's measurement horizon, simulated seconds.
const HORIZON_SECS: f64 = 900.0;
/// The warm-up replicate's horizon.
const WARMUP_SECS: f64 = 30.0;
/// The warm-up replicate's seed, the same in every run: the cost of a
/// short stretch of web traffic varies by a quarter from seed to seed,
/// and `setup_s` should compare runs, not seeds.
const WARMUP_SEED: u64 = 1;
/// In-flight slack simulated past the horizon before analysis.
const SLACK_SECS: f64 = 1.0;
/// Simulated seconds per timed sample. The first sample also holds the
/// replicate's construction and the last one the remainder of the run
/// and the whole analysis, so the samples cover the replicate.
const CHUNK_SECS: f64 = 30.0;
const P: f64 = 0.3;
const PROBE_FLOW: FlowId = FlowId(0xFFFF_0000);
const WEB_FLOW_BASE: u32 = 1 << 16;
/// How many binomial standard deviations #01 may stray from #10.
const SYMMETRY_SIGMAS: f64 = 5.0;

struct Replicate {
    estimates: Estimates,
    validation: Validation,
    f_true: f64,
    d_true: f64,
    events: u64,
    monitor_peak_bytes: usize,
    samples: Vec<Sample>,
}

fn replicate(seed: u64, horizon: f64, tr: &mut Tracer) -> Replicate {
    let mut samples = Vec::new();
    let mut t0 = Instant::now();
    let mut cpu0 = probes::process_cpu();
    let cfg = BadabingConfig::paper_default(P);
    let n_slots = (horizon / cfg.slot_secs).round() as u64;
    let mut db = Dumbbell::standard();
    attach_web(
        &mut db,
        WebConfig::paper_default(),
        WEB_FLOW_BASE,
        seeded(seed, "web"),
    );
    let harness = BadabingHarness::attach(&mut db, cfg, n_slots, PROBE_FLOW, seeded(seed, "probe"));
    // Run in chunks of simulated time; every chunk but the last closes
    // a timed sample.
    let total = horizon + SLACK_SECS;
    let open = tr.enter("sim.run");
    let mut done = 0.0;
    while done + 2.0 * CHUNK_SECS <= total {
        done += CHUNK_SECS;
        db.run_for(done);
        let cpu = probes::process_cpu();
        samples.push((CHUNK_SECS, t0.elapsed(), cpu - cpu0));
        (t0, cpu0) = (Instant::now(), cpu);
    }
    db.run_for(total);
    tr.exit(open);
    let truth = tr.time("sim.truth", || db.ground_truth(horizon));
    let obs = tr.time("probe.observations", || harness.observations(&db.sim));
    let (log, _report) = tr.time("core.assemble", || {
        CongestionDetector::new(&cfg).assemble(&obs, n_slots, cfg.slot_secs)
    });
    let (estimates, validation) = tr.time("core.fold", || {
        (Estimates::from_log(&log), Validation::from_log(&log))
    });
    let monitor_peak_bytes = db.monitor().borrow().peak_bytes();
    let events = db.sim.dispatched();
    drop((db, harness));
    samples.push((total - done, t0.elapsed(), probes::process_cpu() - cpu0));
    Replicate {
        estimates,
        validation,
        f_true: truth.frequency(),
        d_true: truth.mean_duration_secs(),
        events,
        monitor_peak_bytes,
        samples,
    }
}

fn d_hat(e: &Estimates) -> Option<f64> {
    e.duration_secs_improved()
        .or_else(|| e.duration_secs_basic())
}

pub struct SimWeb {
    seed: u64,
    warmup: Option<Estimates>,
    events: u64,
    sim_secs: f64,
    monitor_peak_bytes: usize,
    /// The last round's replicate, until it is verified.
    kept: Option<(u64, u64, Replicate)>,
    /// D^ / D per replicate.
    d_ratios: Vec<f64>,
}

impl SimWeb {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            warmup: None,
            events: 0,
            sim_secs: 0.0,
            monitor_peak_bytes: 0,
            kept: None,
            d_ratios: Vec::new(),
        }
    }

    fn replicate_seed(&self, round: u64) -> u64 {
        Mix::new(self.seed, round).next_u64()
    }
}

impl Workload for SimWeb {
    fn rounds_per_second(&self) -> f64 {
        0.2
    }

    /// A short replicate on [`WARMUP_SEED`]. Every set-up replays that
    /// seed, so their estimates must agree bit for bit.
    fn setup(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        let seed = WARMUP_SEED;
        let open = tr.enter("setup");
        let r = replicate(seed, WARMUP_SECS, tr);
        tr.exit(open);
        if let Some(first) = &self.warmup {
            checks.check(*first == r.estimates, || {
                format!(
                    "sim-web seed {seed}: same-seed replicates differ: {first:?} vs {:?}",
                    r.estimates
                )
            });
        }
        self.warmup = Some(r.estimates);
    }

    fn round(&mut self, round: u64, tr: &mut Tracer, _checks: &mut Checks) -> RoundOut {
        let seed = self.replicate_seed(round);
        let open = tr.enter("replicate");
        let mut r = replicate(seed, HORIZON_SECS, tr);
        tr.exit(open);
        self.events += r.events;
        self.sim_secs += HORIZON_SECS + SLACK_SECS;
        self.monitor_peak_bytes = self.monitor_peak_bytes.max(r.monitor_peak_bytes);
        let samples = std::mem::take(&mut r.samples);
        self.kept = Some((round, seed, r));
        RoundOut {
            work: HORIZON_SECS + SLACK_SECS,
            attempted: 1,
            failed: 0,
            samples,
        }
    }

    fn verify(&mut self, checks: &mut Checks) {
        let Some((round, seed, r)) = self.kept.take() else {
            return;
        };
        let f_hat = r.estimates.frequency();
        let d = d_hat(&r.estimates);
        let v = &r.validation;
        println!(
            "replicate {round} seed {seed}: {} events, F {:.5} F^ {} D {:.4}s D^ {} n01 {} n10 {} validation(0.5) {}",
            r.events,
            r.f_true,
            f_hat.map_or("-".into(), |f| format!("{f:.5}")),
            r.d_true,
            d.map_or("-".into(), |d| format!("{d:.4}s")),
            v.n01,
            v.n10,
            if v.passes(0.5) { "pass" } else { "fail" },
        );
        checks.check(
            f_hat.is_some_and(|f| r.f_true > 0.0 && f / r.f_true >= 0.5 && f / r.f_true <= 2.0),
            || {
                format!(
                    "sim-web seed {seed}: F^ {f_hat:?} not within 2x of truth {}",
                    r.f_true
                )
            },
        );
        // §5.4: under the model 01 and 10 are equally likely, so given
        // their sum n, #01 is Binomial(n, 1/2). Forbidden patterns must
        // not occur.
        let n = (v.n01 + v.n10) as f64;
        checks.check(
            (v.n01 as f64 - v.n10 as f64).abs() <= SYMMETRY_SIGMAS * n.sqrt(),
            || {
                format!(
                    "sim-web seed {seed}: 01/10 asymmetry beyond {SYMMETRY_SIGMAS} sigma: {v:?}"
                )
            },
        );
        checks.check(v.violations() == 0, || {
            format!("sim-web seed {seed}: forbidden patterns: {v:?}")
        });
        match d {
            Some(d) if r.d_true > 0.0 => self.d_ratios.push(d / r.d_true),
            _ => checks.check(false, || {
                format!(
                    "sim-web seed {seed}: no duration estimate ({d:?}) or no truth ({})",
                    r.d_true
                )
            }),
        }
    }

    fn layers(&mut self, tr: &Tracer, timed: &Timed, out: &mut Metrics) {
        let per_rep = |name: &str| -> Vec<f64> {
            tr.durations(name, "replicate")
                .iter()
                .map(|d| d.as_secs_f64())
                .collect()
        };
        let run = per_rep("sim.run");
        out.put("sim.run_s", median(&run));
        out.put("sim.events_per_work", self.events as f64 / self.sim_secs);
        out.put(
            "sim.ns_per_event",
            run.iter().sum::<f64>() * 1e9 / self.events as f64,
        );
        out.put(
            "sim.monitor_peak_kib",
            self.monitor_peak_bytes as f64 / 1024.0,
        );
        out.put("sim.truth_ms", median(&per_rep("sim.truth")) * 1e3);
        out.put(
            "probe.observations_ms",
            median(&per_rep("probe.observations")) * 1e3,
        );
        out.put("core.assemble_ms", median(&per_rep("core.assemble")) * 1e3);
        out.put("core.fold_us", median(&per_rep("core.fold")) * 1e6);
        let work = timed.work();
        out.put("alloc.per_work", timed.allocs.0 as f64 / work);
        out.put("alloc.bytes_per_work", timed.allocs.1 as f64 / work);
    }

    /// D^ runs high (see README); single replicates can land past 2x
    /// truth, so the factor-of-two check applies to the run's median.
    fn finish(&mut self, checks: &mut Checks) {
        let m = median(&self.d_ratios);
        checks.check((0.5..=2.0).contains(&m), || {
            format!("sim-web: median D^/D {m:.3} not within 2x")
        });
    }
}
