//! The repository benchmark: one seeded workload per process, timed
//! from outside the program's layers.
//!
//! ```text
//! perfbench --workload sim-web|live-ingest|live-fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! A run does a fixed number of rounds of seeded work: `--seconds` times
//! the workload's rounds per second, so that a run lasts about
//! `--seconds` on an undisturbed host. The workload is set up
//! [`SETUPS`] times, spread evenly through the run; each set-up replaces
//! the previous one, and the first comes before the first round. Every
//! set-up and round is followed by the workload's correctness checks,
//! which run outside the timed samples and the allocation counts. The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`, the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`. See `README.md` beside this file for what each workload
//! and metric is.

mod live_fleet;
mod live_ingest;
mod probes;
mod reference;
mod sim_web;
mod trace;

use badabing_stats::summary;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: probes::CountingAlloc = probes::CountingAlloc;

/// Set-ups per run; `setup_s` is their median. They are spread through
/// the run because the host's speed moves in phases of seconds: set-ups
/// made back to back all land in one phase.
pub const SETUPS: usize = 15;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// SplitMix64: the benchmark's own generator, so its inputs depend on
/// `--seed` alone and not on the program's random streams.
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut m = Mix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        m.next_u64();
        m
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// Quantile of non-empty samples, linearly interpolated.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    summary::quantile(values, q).expect("quantile of no samples")
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Correctness bookkeeping: failed checks are counted (the first few
/// printed), and a run is correct only if none failed.
#[derive(Default)]
pub struct Checks {
    failures: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
            if self.failures <= 10 {
                eprintln!("CHECK FAILED: {}", what());
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.failures == 0
    }
}

/// One timed sample: units of work, wall time, process CPU time.
pub type Sample = (f64, Duration, Duration);

/// What one round of a workload did.
pub struct RoundOut {
    /// Units of work completed (the `work_per_s` numerator).
    pub work: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Finer samples the round timed itself, covering the whole round;
    /// empty makes the whole round one sample.
    pub samples: Vec<Sample>,
}

/// A workload as the driver runs it.
pub trait Workload {
    /// Rounds per second of `--seconds`: a run does a fixed number of
    /// rounds, sized so that it lasts about `--seconds` on an
    /// undisturbed 2-core host.
    fn rounds_per_second(&self) -> f64;
    /// Build everything the timed rounds need, including a warm-up.
    /// Called [`SETUPS`] times; each call replaces the previous set-up.
    fn setup(&mut self, tr: &mut Tracer, checks: &mut Checks);
    /// One round of fixed work, `round` counting from 0.
    fn round(&mut self, round: u64, tr: &mut Tracer, checks: &mut Checks) -> RoundOut;
    /// The checks against the benchmark's own reference computations
    /// over what the last set-up or round kept; they run outside the
    /// timed sample and the allocation counts.
    fn verify(&mut self, checks: &mut Checks);
    /// Per-layer metrics from the traced run, given the timed phase.
    fn layers(&mut self, tr: &Tracer, timed: &Timed, out: &mut Metrics);
    /// Tear down after the last round.
    fn finish(&mut self, checks: &mut Checks);
}

/// The timed phase as the driver saw it.
pub struct Timed {
    pub setups: Vec<Duration>,
    pub rounds: u64,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    /// Allocations and bytes requested during the rounds (traced runs).
    pub allocs: (u64, u64),
}

impl Timed {
    pub fn work(&self) -> f64 {
        self.samples.iter().map(|s| s.0).sum()
    }

    pub fn wall(&self) -> Duration {
        self.samples.iter().map(|s| s.1).sum()
    }

    /// Work per wall second: the median of the samples' rates, so a
    /// slow phase of the host moves it only if it covers most of the
    /// run.
    pub fn work_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .samples
            .iter()
            .map(|(w, wall, _)| w / wall.as_secs_f64())
            .collect();
        median(&rates)
    }

    /// Process CPU microseconds per unit of work: the median over the
    /// samples.
    pub fn cpu_us_per_work(&self) -> f64 {
        let per: Vec<f64> = self
            .samples
            .iter()
            .map(|(w, _, cpu)| cpu.as_secs_f64() * 1e6 / w)
            .collect();
        median(&per)
    }
}

/// The per-layer metrics every traced run prints, with their units. A
/// workload that bypasses a layer reports that layer's measured zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.run_s", "s"),
    ("sim.events_per_work", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.monitor_peak_kib", "KiB"),
    ("sim.truth_ms", "ms"),
    ("probe.observations_ms", "ms"),
    ("core.assemble_ms", "ms"),
    ("core.fold_us", "us"),
    ("wire.encode_ns_per_probe", "ns"),
    ("wire.decode_ns_per_probe", "ns"),
    ("live.send_ns_per_probe", "ns"),
    ("live.recv_cpu_us_per_probe", "us"),
    ("live.send_cpu_us_per_probe", "us"),
    ("live.datagrams_per_recv_syscall", "count"),
    ("control.estimate_lag_p50_us", "us"),
    ("control.estimate_lag_p99_us", "us"),
    ("control.fetch_report_ms", "ms"),
    ("control.handshake_us", "us"),
    ("control.fetch_report_us", "us"),
    ("control.fleet_estimate_ms", "ms"),
    ("control.fetch_vt_p50_ms", "ms"),
    ("control.fetch_vt_p99_ms", "ms"),
    ("control.driver_cpu_us_per_session", "us"),
    ("receiver.datagrams_per_session", "count"),
    ("receiver.mem_peak_kib", "KiB"),
    ("receiver.server_cpu_us_per_session", "us"),
    ("alloc.per_work", "count"),
    ("alloc.bytes_per_work", "B"),
    ("trace.work_per_s", "1/s"),
];

/// The end-to-end metrics every untraced run prints.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("cpu_us_per_work", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The `metrics` object over `names`, in their order; a name no one
    /// put reads 0.
    fn json(&self, names: &[(&str, &str)]) -> String {
        let mut s = String::from("{");
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self
                .0
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

fn drive(w: &mut dyn Workload, args: &Args, tr: &mut Tracer, checks: &mut Checks) -> Timed {
    let rounds = ((args.seconds * w.rounds_per_second()).round() as u64).max(1);
    let mut timed = Timed {
        setups: Vec::with_capacity(SETUPS),
        rounds,
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        allocs: (0, 0),
    };
    let allocs0 = probes::allocations();
    for round in 0..rounds {
        // Set-up k comes before round k * rounds / SETUPS.
        while timed.setups.len() < SETUPS
            && timed.setups.len() as u64 * rounds / SETUPS as u64 <= round
        {
            let t0 = Instant::now();
            w.setup(tr, checks);
            timed.setups.push(t0.elapsed());
            w.verify(checks);
        }
        probes::count_allocations(tr.is_on());
        let t0 = Instant::now();
        let cpu0 = probes::process_cpu();
        let out = w.round(round, tr, checks);
        if out.samples.is_empty() {
            let cpu = probes::process_cpu() - cpu0;
            timed.samples.push((out.work, t0.elapsed(), cpu));
        } else {
            timed.samples.extend(out.samples);
        }
        probes::count_allocations(false);
        timed.attempted += out.attempted;
        timed.failed += out.failed;
        w.verify(checks);
    }
    let allocs1 = probes::allocations();
    timed.allocs = (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1);
    w.finish(checks);
    timed
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload sim-web|live-ingest|live-fleet --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "sim-web" => Box::new(sim_web::SimWeb::new(args.seed)),
        "live-ingest" => Box::new(live_ingest::LiveIngest::new(args.seed)),
        "live-fleet" => Box::new(live_fleet::LiveFleet::new(args.seed)),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new(args.trace, args.seed);
    let mut checks = Checks::default();
    let timed = drive(w.as_mut(), &args, &mut tr, &mut checks);

    let mut metrics = Metrics::default();
    if args.trace {
        w.layers(&tr, &timed, &mut metrics);
        metrics.put("trace.work_per_s", timed.work_per_s());
        let path = PathBuf::from(format!("perfbench/out/spans-{}.tsv", args.workload));
        if let Err(e) = tr.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[spans written to {}]", path.display());
    } else {
        let setup: Vec<f64> = timed.setups.iter().map(Duration::as_secs_f64).collect();
        metrics.put("setup_s", median(&setup));
        metrics.put("work_per_s", timed.work_per_s());
        metrics.put("cpu_us_per_work", timed.cpu_us_per_work());
        metrics.put(
            "peak_rss_mib",
            probes::peak_rss_bytes() as f64 / (1u64 << 20) as f64,
        );
    }
    let rates: Vec<f64> = timed
        .samples
        .iter()
        .map(|(w, wall, _)| w / wall.as_secs_f64())
        .collect();
    println!(
        "[{}: {} rounds, {:.1} units of work in {:.2}s; work/s over {} samples: q1 {:.6} median {:.6} q3 {:.6}]",
        args.workload,
        timed.rounds,
        timed.work(),
        timed.wall().as_secs_f64(),
        rates.len(),
        quantile(&rates, 0.25),
        quantile(&rates, 0.5),
        quantile(&rates, 0.75),
    );
    let setups: Vec<String> = timed
        .setups
        .iter()
        .map(|d| format!("{:.4}", d.as_secs_f64()))
        .collect();
    println!("[set-ups, s: {}]", setups.join(" "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.ok(),
        timed.attempted,
        timed.failed,
        metrics.json(if args.trace { PER_LAYER } else { END_TO_END })
    );
}
