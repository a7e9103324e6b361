//! `live-ingest`: one closed-loop sender on real loopback against
//! `start_server` with one drain thread. Each round opens [`SESSIONS`]
//! sessions — half on the paper's 600-byte probes, half on the smallest
//! probe the header allows — and sends each [`BURSTS`] seeded bursts of
//! two-slot experiments, some of whose trains are deliberately sent
//! short. Every burst ends with a session `EstimateRequest`, which is
//! also the drain barrier; every session ends with FIN and a chunked
//! report fetch. The unit of work is one probe datagram accepted by the
//! receiver.

use crate::probes;
use crate::reference::loss_log;
use crate::trace::Tracer;
use crate::{median, quantile, Checks, Metrics, Mix, RoundOut, Timed, Workload};
use badabing_core::estimator::Estimates;
use badabing_live::batch_io::{BatchSender, IoMode};
use badabing_live::control::{ControlClient, ControlConfig};
use badabing_live::receiver::{start_server, ServerConfig, ServerHandle};
use badabing_metrics::Registry;
use badabing_wire::control::{EstimateScope, ReportRecord, SessionParams};
use badabing_wire::{ProbeHeader, HEADER_BYTES};
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 4;
const BURSTS: usize = 24;
/// Two-slot experiments per burst, drawn uniformly from this range.
const BURST_EXPERIMENTS: (u64, u64) = (48, 80);
const TRAIN: u8 = 3;
/// Chance that a slot's train is sent one packet short.
const SHORT_TRAIN: f64 = 0.1;
const SLOT_NS: u64 = 5_000_000;
/// Probe sizes, one per session: the paper's 600 bytes and the bare
/// header.
const PROBE_BYTES: [usize; SESSIONS] = [600, HEADER_BYTES, 600, HEADER_BYTES];
/// `sendmmsg` batch size.
const SEND_BATCH: usize = 64;
/// The control clients' first retransmit timeout. Loopback loses
/// nothing, so a retransmit only answers a stall of the host. Replies
/// carry no request id, so the late reply to a retransmitted
/// `EstimateRequest` would be taken as the answer to the session's next
/// one, and every later estimate check of the session would fail.
const RETRY_BASE: Duration = Duration::from_secs(1);

/// One session's seeded input: per burst, per experiment, whether each
/// of its two slots is sent short.
struct Plan {
    bursts: Vec<Vec<[bool; 2]>>,
}

impl Plan {
    fn new(mix: &mut Mix) -> Self {
        let bursts = (0..BURSTS)
            .map(|_| {
                let n = mix.range(BURST_EXPERIMENTS.0, BURST_EXPERIMENTS.1);
                (0..n)
                    .map(|_| [mix.chance(SHORT_TRAIN), mix.chance(SHORT_TRAIN)])
                    .collect()
            })
            .collect();
        Plan { bursts }
    }

    fn experiments(&self) -> u64 {
        self.bursts.iter().map(|b| b.len() as u64).sum()
    }
}

/// The counters the benchmark expects from its own generator.
#[derive(Default, Clone, Copy, Debug, PartialEq)]
struct Expected {
    experiments: u64,
    z_sum: u64,
    r: u64,
    s: u64,
    n01: u64,
    n10: u64,
}

impl Expected {
    fn add(&mut self, short: [bool; 2]) {
        self.experiments += 1;
        self.z_sum += u64::from(short[0]);
        self.r += u64::from(short[0] || short[1]);
        self.s += u64::from(short[0] != short[1]);
        self.n01 += u64::from(!short[0] && short[1]);
        self.n10 += u64::from(short[0] && !short[1]);
    }

    fn matches(&self, e: &Estimates) -> bool {
        e.experiments == self.experiments
            && e.basic_experiments == self.experiments
            && e.extended_experiments == 0
            && e.z_sum == self.z_sum
            && e.r == self.r
            && e.s == self.s
            && e.n01 == self.n01
            && e.n10 == self.n10
            && e.outcomes_malformed == 0
    }
}

/// One open session of a round.
struct Session {
    id: u32,
    params: SessionParams,
    client: ControlClient,
    expected: Expected,
    /// Probe datagrams sent so far.
    sent: u64,
    /// The last estimate the receiver replied with.
    last: Option<Estimates>,
}

/// A running server with the benchmark's sender bound to it.
struct Rig {
    server: ServerHandle,
    metrics: Arc<Registry>,
    target: SocketAddr,
    sock: UdpSocket,
    sender: BatchSender,
}

impl Rig {
    fn start() -> Self {
        let metrics = Arc::new(Registry::new("perfbench"));
        let local: SocketAddr = "127.0.0.1:0".parse().expect("static address");
        let server = start_server(ServerConfig {
            metrics: Some(metrics.clone()),
            ..ServerConfig::any(local, 2 * SESSIONS)
        })
        .expect("start the ingest server");
        let target = server.local_addr();
        let sock = UdpSocket::bind(local).expect("bind the probe socket");
        sock.connect(target).expect("connect the probe socket");
        Rig {
            server,
            metrics,
            target,
            sock,
            sender: BatchSender::new(SEND_BATCH, IoMode::Auto),
        }
    }
}

impl Rig {
    /// Stop the server; returns its datagrams and receive syscalls over
    /// its whole life, which the drain loop publishes as it exits.
    fn stop(self) -> (u64, u64) {
        self.server.stop();
        (
            self.metrics.counter("recv_datagrams").get(),
            self.metrics.counter("recv_syscalls").get(),
        )
    }
}

/// What the timed phase accumulates for the per-layer metrics.
#[derive(Default)]
struct Tally {
    datagrams: u64,
    /// Driver-thread and server-thread CPU over the rounds.
    cpu: (Duration, Duration),
    /// Datagrams and receive syscalls over every server's life.
    recv: (u64, u64),
}

/// A session's fetched report, kept for the check against the
/// benchmark's own fold.
struct Fetched {
    id: u32,
    params: SessionParams,
    last: Option<Estimates>,
    records: Vec<ReportRecord>,
}

pub struct LiveIngest {
    seed: u64,
    driver_tid: u32,
    epoch: Instant,
    next_session: u32,
    rig: Option<Rig>,
    tally: Tally,
    fetched: Vec<Fetched>,
    /// The last burst sent on each probe size, kept for the decode
    /// timing.
    kept: Vec<(Vec<u8>, usize)>,
}

impl LiveIngest {
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            driver_tid: probes::current_tid(),
            epoch: Instant::now(),
            next_session: 1,
            rig: None,
            tally: Tally::default(),
            fetched: Vec::new(),
            kept: Vec::new(),
        }
    }

    fn retire(&mut self, rig: Rig) {
        let (datagrams, syscalls) = rig.stop();
        self.tally.recv.0 += datagrams;
        self.tally.recv.1 += syscalls;
    }

    /// Encode and send one burst of session `id`; returns the datagrams
    /// sent.
    fn send_burst(
        &mut self,
        tr: &mut Tracer,
        id: u32,
        size: usize,
        first_exp: u64,
        burst: &[[bool; 2]],
        buf: &mut Vec<u8>,
    ) -> u64 {
        let open = tr.enter("wire.encode");
        let count: usize = burst
            .iter()
            .flatten()
            .map(|&short| usize::from(if short { TRAIN - 1 } else { TRAIN }))
            .sum();
        buf.resize(count * size, 0);
        let mut dgrams = buf.chunks_exact_mut(size);
        for (k, short) in burst.iter().enumerate() {
            let exp = first_exp + k as u64;
            for (half, &is_short) in short.iter().enumerate() {
                let slot = 2 * exp + half as u64;
                let packets = if is_short { TRAIN - 1 } else { TRAIN };
                for idx in 0..packets {
                    ProbeHeader {
                        session: id,
                        experiment: exp,
                        slot,
                        seq: slot * u64::from(TRAIN) + u64::from(idx),
                        send_ns: self.epoch.elapsed().as_nanos() as u64,
                        idx,
                        probe_len: TRAIN,
                    }
                    .encode_into(dgrams.next().expect("sized for the burst"));
                }
            }
        }
        tr.exit(open);
        let rig = self.rig.as_mut().expect("set up");
        let open = tr.enter("live.send");
        let mut off = 0;
        while off < count {
            off += rig
                .sender
                .send_segments(&rig.sock, &buf[off * size..], size, count - off)
                .expect("send a probe train on loopback");
        }
        tr.exit(open);
        count as u64
    }

    /// One round: open the sessions, run their bursts interleaved, FIN
    /// them. Returns (datagrams accepted, operations attempted, failed).
    fn run_round(&mut self, round: u64, tr: &mut Tracer, checks: &mut Checks) -> (u64, u64, u64) {
        let mut mix = Mix::new(self.seed, round);
        let plans: Vec<Plan> = (0..SESSIONS).map(|_| Plan::new(&mut mix)).collect();
        let target = self.rig.as_ref().expect("set up").target;
        let mut attempted = 0u64;
        let mut failed = 0u64;

        let mut sessions = Vec::with_capacity(SESSIONS);
        for (s, plan) in plans.iter().enumerate() {
            let id = self.next_session;
            self.next_session += 1;
            let params = SessionParams {
                n_slots: 2 * plan.experiments(),
                slot_ns: SLOT_NS,
                probe_packets: TRAIN,
                packet_bytes: PROBE_BYTES[s] as u32,
                p: 0.5,
                improved: false,
            };
            let mut cfg = ControlConfig::new(target);
            cfg.retry_base = RETRY_BASE;
            cfg.retry_cap = RETRY_BASE;
            let client = ControlClient::connect(cfg, None).expect("bind a control socket");
            attempted += 1;
            let ok = tr.time("control.handshake", || client.handshake(id, params));
            if ok.is_err() {
                failed += 1;
            }
            checks.check(ok.is_ok(), || {
                format!("live-ingest: session {id} refused: {ok:?}")
            });
            sessions.push(Session {
                id,
                params,
                client,
                expected: Expected::default(),
                sent: 0,
                last: None,
            });
        }

        let mut buf = Vec::new();
        let mut first_exp = [0u64; SESSIONS];
        for b in 0..BURSTS {
            for s in 0..SESSIONS {
                let burst = &plans[s].bursts[b];
                let id = sessions[s].id;
                let size = PROBE_BYTES[s];
                let sent = self.send_burst(tr, id, size, first_exp[s], burst, &mut buf);
                first_exp[s] += burst.len() as u64;
                attempted += sent;
                let session = &mut sessions[s];
                session.sent += sent;
                for short in burst {
                    session.expected.add(*short);
                }
                attempted += 1;
                let reply = tr.time("control.estimate", || {
                    session.client.fetch_estimate(id, EstimateScope::Session)
                });
                match reply {
                    Ok(r) => {
                        let expected = &session.expected;
                        checks.check(expected.matches(&r.estimates), || {
                            format!(
                                "live-ingest: session {id} estimate {:?} does not match the generator's {expected:?}",
                                r.estimates
                            )
                        });
                        session.last = Some(r.estimates);
                    }
                    Err(e) => {
                        failed += 1;
                        checks.check(false, || format!("live-ingest: estimate failed: {e:?}"));
                    }
                }
                if b == BURSTS - 1 && tr.is_on() {
                    self.kept.retain(|(_, sz)| *sz != size);
                    self.kept.push((buf.clone(), size));
                }
            }
        }

        let mut accepted = 0u64;
        for Session {
            id,
            params,
            client,
            sent,
            last,
            ..
        } in sessions
        {
            attempted += 1;
            let got = tr.time("control.fetch_report", || {
                client.fetch_report(id, params.n_slots, sent)
            });
            match got {
                Ok((summary, records)) => {
                    accepted += summary.packets.min(sent);
                    failed += sent - summary.packets.min(sent);
                    checks.check(summary.packets == sent && summary.duplicates == 0, || {
                        format!(
                            "live-ingest: session {id} accepted {} of {sent} probes",
                            summary.packets
                        )
                    });
                    self.fetched.push(Fetched {
                        id,
                        params,
                        last,
                        records,
                    });
                }
                Err(e) => {
                    failed += 1 + sent;
                    checks.check(false, || format!("live-ingest: report fetch failed: {e:?}"));
                }
            }
        }
        (accepted, attempted, failed)
    }
}

impl Workload for LiveIngest {
    fn rounds_per_second(&self) -> f64 {
        8.0
    }

    /// Stop the previous server, start a fresh server and sender, then
    /// one whole round as the warm-up.
    fn setup(&mut self, tr: &mut Tracer, checks: &mut Checks) {
        if let Some(old) = self.rig.take() {
            self.retire(old);
        }
        let open = tr.enter("setup");
        self.rig = Some(Rig::start());
        self.run_round(u64::MAX, tr, checks);
        tr.exit(open);
    }

    fn round(&mut self, round: u64, tr: &mut Tracer, checks: &mut Checks) -> RoundOut {
        let cpu0 = if tr.is_on() {
            probes::split_cpu(self.driver_tid)
        } else {
            Default::default()
        };
        let open = tr.enter("round");
        let (accepted, attempted, failed) = self.run_round(round, tr, checks);
        tr.exit(open);
        if tr.is_on() {
            let cpu = probes::split_cpu(self.driver_tid);
            self.tally.cpu.0 += cpu.0 - cpu0.0;
            self.tally.cpu.1 += cpu.1.saturating_sub(cpu0.1);
        }
        self.tally.datagrams += accepted;
        RoundOut {
            work: accepted as f64,
            attempted,
            failed,
            samples: Vec::new(),
        }
    }

    fn layers(&mut self, tr: &Tracer, timed: &Timed, out: &mut Metrics) {
        let n = self.tally.datagrams as f64;
        let per_probe_ns = |name: &str| tr.total(name, "round").as_secs_f64() * 1e9 / n;
        out.put("wire.encode_ns_per_probe", per_probe_ns("wire.encode"));
        out.put("live.send_ns_per_probe", per_probe_ns("live.send"));

        // Decode, timed apart, over the kept bursts of both probe sizes.
        const PASSES: usize = 200;
        let mut decoded = 0u64;
        let t0 = Instant::now();
        for _ in 0..PASSES {
            for (buf, size) in &self.kept {
                for dgram in buf.chunks_exact(*size) {
                    let h = ProbeHeader::decode(std::hint::black_box(dgram));
                    decoded += u64::from(std::hint::black_box(h).is_ok());
                }
            }
        }
        let decode = t0.elapsed();
        out.put(
            "wire.decode_ns_per_probe",
            decode.as_secs_f64() * 1e9 / decoded.max(1) as f64,
        );

        let (driver, server) = self.tally.cpu;
        out.put("live.recv_cpu_us_per_probe", server.as_secs_f64() * 1e6 / n);
        out.put("live.send_cpu_us_per_probe", driver.as_secs_f64() * 1e6 / n);
        let (datagrams, syscalls) = self.tally.recv;
        out.put(
            "live.datagrams_per_recv_syscall",
            datagrams as f64 / syscalls.max(1) as f64,
        );
        let lag: Vec<f64> = tr
            .durations("control.estimate", "round")
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        out.put("control.estimate_lag_p50_us", quantile(&lag, 0.5));
        out.put("control.estimate_lag_p99_us", quantile(&lag, 0.99));
        let fetch: Vec<f64> = tr
            .durations("control.fetch_report", "round")
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        out.put("control.fetch_report_ms", median(&fetch));
        let (allocs, bytes) = timed.allocs;
        out.put("alloc.per_work", allocs as f64 / n);
        out.put("alloc.bytes_per_work", bytes as f64 / n);
    }

    /// At FIN the last online estimate must equal `Estimates::from_log`
    /// over the fetched report, folded by the benchmark's own reference.
    fn verify(&mut self, checks: &mut Checks) {
        for Fetched {
            id,
            params,
            last,
            records,
        } in self.fetched.drain(..)
        {
            let fold = Estimates::from_log(&loss_log(
                &records,
                TRAIN,
                params.n_slots,
                params.slot_ns as f64 / 1e9,
            ));
            checks.check(last.as_ref() == Some(&fold), || {
                format!("live-ingest: session {id} online estimate {last:?} is not the report fold {fold:?}")
            });
        }
    }

    fn finish(&mut self, _checks: &mut Checks) {
        if let Some(rig) = self.rig.take() {
            self.retire(rig);
        }
    }
}
