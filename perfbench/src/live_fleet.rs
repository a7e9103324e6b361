//! `live-fleet`: rounds of 2 048 concurrent short sessions through one
//! server over the seeded FaultNet (0.5% loss and 200 µs jitter on every
//! link). A round opens every session (SYN), sends each a small probe
//! burst with a heartbeat behind it as the drain barrier, asks one
//! fleet-scope `EstimateRequest`, then FINs and fetches every chunked
//! report. The unit of work is one session completed, SYN to the last
//! report chunk.
//!
//! The virtual network is seeded from `--seed` and every round replays
//! the same seed, so every round's virtual-time story must repeat
//! exactly; that is one of the checks.

use crate::probes;
use crate::reference::loss_log;
use crate::trace::Tracer;
use crate::{median, quantile, Checks, Metrics, Mix, RoundOut, Timed, Workload};
use badabing_core::estimator::Estimates;
use badabing_live::control::{ControlClient, ControlConfig};
use badabing_live::faultnet::{FaultNet, LinkFaults};
use badabing_live::provider::Provider;
use badabing_live::receiver::{start_server, PressurePolicy, ServerConfig, SessionEnd};
use badabing_metrics::Registry;
use badabing_wire::control::{EstimateScope, ReportRecord, SessionParams};
use badabing_wire::ProbeHeader;
use std::net::{IpAddr, SocketAddr};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: u32 = 2048;
/// Two-slot experiments per session.
const EXPERIMENTS: u64 = 4;
const TRAIN: u8 = 3;
const PACKET_BYTES: usize = 256;
const SLOT_NS: u64 = 1_000_000;
const LOSS: f64 = 0.005;
const JITTER: Duration = Duration::from_micros(200);
/// One heartbeat wait: the control plane's retransmit base.
const HEARTBEAT_WAIT: Duration = Duration::from_millis(25);
const GLOBAL_BUDGET_BYTES: usize = 256 << 20;
/// Probe loss may stray this many binomial standard deviations from the
/// configured rate before the check fails.
const LOSS_SIGMAS: f64 = 5.0;

fn addr(s: &str) -> SocketAddr {
    s.parse().expect("static address")
}

fn session_id(i: u32) -> u32 {
    0x4000_0000 + i
}

/// What one round observed that must repeat exactly in every replay.
#[derive(PartialEq, Debug)]
struct Replay {
    fleet: Estimates,
    fetch_vt_ns: Vec<u64>,
    packets_accepted: u64,
    completed: u32,
}

/// Host-side observations of one round (CPU in traced runs only).
#[derive(Default)]
struct Host {
    recv_datagrams: u64,
    mem_peak_bytes: usize,
    server_cpu: Duration,
    driver_cpu: Duration,
}

impl Host {
    fn add(&mut self, other: Host) {
        self.recv_datagrams += other.recv_datagrams;
        self.mem_peak_bytes = self.mem_peak_bytes.max(other.mem_peak_bytes);
        self.server_cpu += other.server_cpu;
        self.driver_cpu += other.driver_cpu;
    }
}

/// What a round fetched, kept for the checks against the benchmark's
/// own fold.
struct Fetched {
    fleet: Estimates,
    reports: Vec<Vec<ReportRecord>>,
    sent: u64,
    accepted: u64,
}

pub struct LiveFleet {
    net_seed: u64,
    driver_tid: u32,
    first: Option<Replay>,
    fetch_vt_ns: Vec<u64>,
    host: Host,
    fetched: Option<Fetched>,
}

impl LiveFleet {
    pub fn new(seed: u64) -> Self {
        Self {
            net_seed: Mix::new(seed, 0xF1EE7).next_u64(),
            driver_tid: probes::current_tid(),
            first: None,
            fetch_vt_ns: Vec::new(),
            host: Host::default(),
            fetched: None,
        }
    }

    /// One full replay of the seeded fleet scenario; what it fetched is
    /// kept for [`Workload::verify`].
    fn replay(&mut self, tr: &mut Tracer, checks: &mut Checks) -> (Replay, Host) {
        let traced = tr.is_on();
        let driver0 = if traced {
            probes::split_cpu(self.driver_tid).0
        } else {
            Duration::ZERO
        };
        let net = FaultNet::new(self.net_seed);
        let mild = LinkFaults::uniform_loss(LOSS).with_jitter(JITTER);
        let recv = addr("10.0.0.1:9000");
        let probe_src = addr("10.0.0.3:7000");
        let ctl_ip: IpAddr = "10.0.0.2".parse().expect("static address");
        net.set_faults(probe_src, recv, mild.clone());
        for i in 0..SESSIONS {
            let ctl = SocketAddr::new(ctl_ip, 10_000 + i as u16);
            net.set_faults(ctl, recv, mild.clone());
            net.set_faults(recv, ctl, mild.clone());
        }
        let provider = Provider::Fault(net.clone());
        let clock = provider.clock();
        let metrics = Arc::new(Registry::new("perfbench"));
        let server = start_server(ServerConfig {
            provider: provider.clone(),
            idle_timeout: Some(Duration::from_secs(120)),
            metrics: Some(metrics.clone()),
            global_budget_bytes: Some(GLOBAL_BUDGET_BYTES),
            on_pressure: PressurePolicy::Reject,
            ..ServerConfig::any(recv, SESSIONS as usize + 16)
        })
        .expect("start the fleet server");
        let params = SessionParams {
            n_slots: 2 * EXPERIMENTS,
            slot_ns: SLOT_NS,
            probe_packets: TRAIN,
            packet_bytes: PACKET_BYTES as u32,
            p: 0.3,
            improved: true,
        };

        // Open the whole fleet before any session sends a probe.
        let mut clients = Vec::with_capacity(SESSIONS as usize);
        for i in 0..SESSIONS {
            let mut cfg = ControlConfig::new(recv);
            cfg.provider = provider.clone();
            cfg.bind = Some(SocketAddr::new(ctl_ip, 10_000 + i as u16));
            let client = ControlClient::connect(cfg, None).expect("bind a control socket");
            let ok = tr.time("control.handshake", || {
                client.handshake(session_id(i), params)
            });
            checks.check(ok.is_ok(), || {
                format!("live-fleet: session {i} refused: {ok:?}")
            });
            clients.push(client);
        }

        // Per session: experiment j probes slots (2j, 2j+1) with TRAIN
        // packets each, then a heartbeat drains the burst.
        let probe_sock = net.bind(probe_src).expect("bind the probe socket");
        let mut buf = [0u8; PACKET_BYTES];
        let mut sent = 0u64;
        for (i, client) in clients.iter().enumerate() {
            let id = session_id(i as u32);
            for j in 0..EXPERIMENTS {
                for slot in [2 * j, 2 * j + 1] {
                    for idx in 0..TRAIN {
                        ProbeHeader {
                            session: id,
                            experiment: j,
                            slot,
                            seq: slot * u64::from(TRAIN) + u64::from(idx),
                            send_ns: clock.now().as_nanos() as u64,
                            idx,
                            probe_len: TRAIN,
                        }
                        .encode_into(&mut buf);
                        probe_sock.send_to(&buf, recv).expect("send a probe");
                        sent += 1;
                    }
                }
            }
            let acked = (1..=8).any(|seq| {
                client
                    .heartbeat(id, seq, HEARTBEAT_WAIT)
                    .expect("heartbeat io")
            });
            checks.check(acked, || {
                format!("live-fleet: session {i} heartbeat never acked")
            });
        }

        let fleet = tr.time("control.fleet_estimate", || {
            clients[0].fetch_estimate(session_id(0), EstimateScope::Fleet)
        });
        let fleet = match fleet {
            Ok(f) => {
                checks.check(f.sessions == SESSIONS, || {
                    format!("live-fleet: fleet estimate merged {} sessions", f.sessions)
                });
                f.estimates
            }
            Err(e) => {
                checks.check(false, || {
                    format!("live-fleet: fleet estimate failed: {e:?}")
                });
                Estimates::default()
            }
        };

        // FIN and fetch every report; the fetch latency is read on the
        // virtual clock.
        let probes_per_session = 2 * EXPERIMENTS;
        let mut fetch_vt_ns = Vec::with_capacity(SESSIONS as usize);
        let mut reports = Vec::with_capacity(SESSIONS as usize);
        let mut accepted = 0u64;
        for (i, client) in clients.iter().enumerate() {
            let t0 = clock.now();
            let got = tr.time("control.fetch_report", || {
                client.fetch_report(
                    session_id(i as u32),
                    probes_per_session,
                    probes_per_session * u64::from(TRAIN),
                )
            });
            fetch_vt_ns.push((clock.now() - t0).as_nanos() as u64);
            match got {
                Ok((summary, records)) => {
                    accepted += summary.packets;
                    reports.push(records);
                }
                Err(e) => checks.check(false, || {
                    format!("live-fleet: session {i} stranded mid-fetch: {e:?}")
                }),
            }
        }
        self.fetched = Some(Fetched {
            fleet,
            reports,
            sent,
            accepted,
        });

        // The closing acks are fire-and-forget: wait, outside the
        // virtual world, until the server has retired every session.
        let completed = metrics.counter("sessions_completed");
        net.unenrolled(|| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while completed.get() < u64::from(SESSIONS) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let mut host = Host::default();
        if traced {
            let (driver1, server) = probes::split_cpu(self.driver_tid);
            host.server_cpu = server;
            host.driver_cpu = driver1 - driver0;
        }
        let report = server.stop();
        let done = report
            .sessions
            .iter()
            .filter(|s| s.end == SessionEnd::Completed)
            .count();
        checks.check(done == SESSIONS as usize, || {
            format!("live-fleet: {done} of {SESSIONS} sessions completed")
        });
        host.recv_datagrams = metrics.counter("recv_datagrams").get();
        host.mem_peak_bytes = report.mem_peak_bytes;
        let replay = Replay {
            fleet,
            fetch_vt_ns,
            packets_accepted: accepted,
            completed: done as u32,
        };
        (replay, host)
    }

    fn check_replay(&mut self, r: Replay, checks: &mut Checks) {
        match &self.first {
            Some(first) => checks.check(*first == r, || {
                "live-fleet: a same-seed replay took a different virtual-time course".into()
            }),
            None => self.first = Some(r),
        }
    }
}

impl Workload for LiveFleet {
    fn rounds_per_second(&self) -> f64 {
        2.0
    }

    /// One whole round as the warm-up.
    fn setup(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        let open = tr.enter("setup");
        let (r, _) = self.replay(tr, checks);
        tr.exit(open);
        self.check_replay(r, checks);
    }

    fn round(&mut self, _round: u64, tr: &mut Tracer, checks: &mut Checks) -> RoundOut {
        let open = tr.enter("round");
        let (r, host) = self.replay(tr, checks);
        tr.exit(open);
        self.host.add(host);
        if self.fetch_vt_ns.is_empty() {
            self.fetch_vt_ns = r.fetch_vt_ns.clone();
        }
        let completed = r.completed;
        self.check_replay(r, checks);
        RoundOut {
            work: f64::from(completed),
            attempted: u64::from(SESSIONS),
            failed: u64::from(SESSIONS - completed),
            samples: Vec::new(),
        }
    }

    fn layers(&mut self, tr: &Tracer, timed: &Timed, out: &mut Metrics) {
        let sessions = f64::from(SESSIONS) * timed.rounds as f64;
        let timed_spans = |name: &str| -> Vec<f64> {
            tr.durations(name, "round")
                .iter()
                .map(|d| d.as_secs_f64())
                .collect()
        };
        out.put(
            "control.handshake_us",
            median(&timed_spans("control.handshake")) * 1e6,
        );
        out.put(
            "control.fetch_report_us",
            median(&timed_spans("control.fetch_report")) * 1e6,
        );
        out.put(
            "control.fleet_estimate_ms",
            median(&timed_spans("control.fleet_estimate")) * 1e3,
        );
        let vt: Vec<f64> = self.fetch_vt_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        out.put("control.fetch_vt_p50_ms", quantile(&vt, 0.5));
        out.put("control.fetch_vt_p99_ms", quantile(&vt, 0.99));
        out.put(
            "control.driver_cpu_us_per_session",
            self.host.driver_cpu.as_secs_f64() * 1e6 / sessions,
        );
        out.put(
            "receiver.datagrams_per_session",
            self.host.recv_datagrams as f64 / sessions,
        );
        out.put(
            "receiver.mem_peak_kib",
            self.host.mem_peak_bytes as f64 / 1024.0,
        );
        out.put(
            "receiver.server_cpu_us_per_session",
            self.host.server_cpu.as_secs_f64() * 1e6 / sessions,
        );
        out.put("alloc.per_work", timed.allocs.0 as f64 / sessions);
        out.put("alloc.bytes_per_work", timed.allocs.1 as f64 / sessions);
    }

    /// The fleet estimate must equal the merge of the benchmark's own
    /// per-session folds over the fetched reports, and the measured
    /// probe loss must lie within a binomial bound of the configured
    /// rate.
    fn verify(&mut self, checks: &mut Checks) {
        let Some(Fetched {
            fleet,
            reports,
            sent,
            accepted,
        }) = self.fetched.take()
        else {
            return;
        };
        let mut merged = Estimates::default();
        for records in &reports {
            let log = loss_log(records, TRAIN, 2 * EXPERIMENTS, SLOT_NS as f64 / 1e9);
            merged.merge(&Estimates::from_log(&log));
        }
        checks.check(fleet == merged, || {
            format!("live-fleet: fleet estimate {fleet:?} is not the merge {merged:?}")
        });
        let lost = sent - accepted.min(sent);
        let expect = sent as f64 * LOSS;
        let sigma = (sent as f64 * LOSS * (1.0 - LOSS)).sqrt();
        checks.check((lost as f64 - expect).abs() <= LOSS_SIGMAS * sigma, || {
            format!("live-fleet: {lost} of {sent} probes lost, expected {expect:.0} ± {sigma:.1}")
        });
    }

    fn finish(&mut self, _checks: &mut Checks) {}
}
