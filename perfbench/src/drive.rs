//! The load driver both regimes share: the wire, a measured phase, the
//! closed and open loops (each taking the regime's own step), and timed
//! router builds. Only the step differs between the single-threaded
//! workloads (inject, one scheduler round, drain) and the pull workload
//! (one `MtRouter::run` over a chunk).

use crate::checks::Egress;
use crate::feed::Feed;
use crate::stats::{ns_u32, Clock, OpenStats};
use routebricks::packet::Packet;
use routebricks::telemetry::MetricsSnapshot;
use std::time::Instant;

/// Saturation-phase window: throughput is a statistic over these.
pub const SAT_WINDOW_NS: u64 = 50_000_000;

/// The wire state shared by every phase of a run.
pub struct Wire<'a> {
    /// Seeded frames and arrival gaps.
    pub feed: &'a Feed,
    /// Checks and counts every drained frame.
    pub egress: Egress,
    /// Frames offered so far (also the next frame's index).
    pub offered: u64,
}

/// What one measured phase saw. Ticks are timestamp-counter ticks; the
/// step fills every field it can observe and leaves the rest 0.
#[derive(Debug)]
pub struct Phase {
    /// Wall time of the phase.
    pub ns: u64,
    /// Frames delivered in the phase.
    pub pkts: u64,
    /// Generator: putting frames on the wire.
    pub inject_ticks: u64,
    /// Inside the router call: the `run_quantum` round, or `MtRouter::run`.
    pub step_ticks: u64,
    /// Scheduler quanta: equal to `step_ticks` single-threaded; under a
    /// regime, the worker's quanta as its Cycles telemetry counts them.
    pub sched_ticks: u64,
    /// Harness: taking and checking egress.
    pub drain_ticks: u64,
    /// Scheduler quanta run, and those that found no work.
    pub quanta: u64,
    pub empty: u64,
    /// Driver counters (`RunStats` / `MtReport`).
    pub pushes: u64,
    pub batch_calls: u64,
    pub doorbells: u64,
    pub desc_stalls: u64,
    pub credit_stalls: u64,
    /// Cycles-telemetry rows (traced blocks only).
    pub snap: MetricsSnapshot,
    /// Per-window delivered packets/s and Gbit/s (closed loop).
    pub pps: Vec<f64>,
    pub gbps: Vec<f64>,
    /// Latency and generator lag (open loop).
    pub lat: OpenStats,
}

impl Phase {
    /// Adds another closed-loop phase's totals, rows and windows.
    pub fn absorb(&mut self, o: Phase) {
        self.ns += o.ns;
        self.pkts += o.pkts;
        self.inject_ticks += o.inject_ticks;
        self.step_ticks += o.step_ticks;
        self.sched_ticks += o.sched_ticks;
        self.drain_ticks += o.drain_ticks;
        self.quanta += o.quanta;
        self.empty += o.empty;
        self.pushes += o.pushes;
        self.batch_calls += o.batch_calls;
        self.doorbells += o.doorbells;
        self.desc_stalls += o.desc_stalls;
        self.credit_stalls += o.credit_stalls;
        self.snap.merge(&o.snap);
        self.pps.extend(o.pps);
        self.gbps.extend(o.gbps);
    }
}

impl Default for Phase {
    fn default() -> Phase {
        Phase {
            ns: 0,
            pkts: 0,
            inject_ticks: 0,
            step_ticks: 0,
            sched_ticks: 0,
            drain_ticks: 0,
            quanta: 0,
            empty: 0,
            pushes: 0,
            batch_calls: 0,
            doorbells: 0,
            desc_stalls: 0,
            credit_stalls: 0,
            snap: MetricsSnapshot::empty(),
            pps: Vec::new(),
            gbps: Vec::new(),
            lat: OpenStats::default(),
        }
    }
}

/// Closed loop: runs `step` back to back for `secs`, closing a
/// throughput window every [`SAT_WINDOW_NS`]. The step keeps the router
/// busy (a topped-up backlog, or a full chunk) and drains its egress.
pub fn saturate(
    w: &mut Wire,
    secs: f64,
    mut step: impl FnMut(&mut Wire, &mut Phase, &Clock),
) -> Phase {
    let clock = Clock::start();
    let end = (secs * 1e9) as u64;
    let mut ph = Phase::default();
    let (d0, b0) = (w.egress.delivered, w.egress.bytes);
    let (mut w_start, mut wd, mut wb) = (0u64, d0, b0);
    loop {
        step(w, &mut ph, &clock);
        let now = clock.ns();
        if now - w_start >= SAT_WINDOW_NS {
            let dt = (now - w_start) as f64 / 1e9;
            ph.pps.push((w.egress.delivered - wd) as f64 / dt);
            ph.gbps.push((w.egress.bytes - wb) as f64 * 8.0 / dt / 1e9);
            (w_start, wd, wb) = (now, w.egress.delivered, w.egress.bytes);
            if now >= end {
                break;
            }
        }
    }
    ph.ns = clock.ns();
    ph.pkts = w.egress.delivered - d0;
    ph
}

/// Open loop: Poisson arrivals at the feed's rate for `secs`. Every
/// frame due by now is stamped with its due time in `meta.rx_ns` and
/// handed to `step` in `arrivals`, which the step empties; egress is
/// timed from that due time to its drain. Frames still inside the
/// router at the end finish unrecorded: they belong to no complete
/// window.
pub fn open_loop(
    w: &mut Wire,
    secs: f64,
    mut step: impl FnMut(&mut Wire, &mut Phase, &Clock, &mut Vec<Packet>),
) -> Phase {
    let clock = Clock::start();
    let end = (secs * 1e9) as u64;
    let mut ph = Phase::default();
    let d0 = w.egress.delivered;
    let expected = (w.feed.rate() * secs * 1.25) as usize + 1024;
    w.egress.latency = Some(Vec::with_capacity(expected));
    let mut lag: Vec<u32> = Vec::with_capacity(expected);
    let mut arrivals = Vec::new();
    let mut due = w.feed.gap_ns(w.offered);
    loop {
        let now = clock.ns();
        while due as u64 <= now && (due as u64) < end {
            let mut pkt = w.feed.frame(w.offered);
            pkt.meta.rx_ns = due as u64;
            arrivals.push(pkt);
            lag.push(ns_u32(now - due as u64));
            w.offered += 1;
            due += w.feed.gap_ns(w.offered);
        }
        step(w, &mut ph, &clock, &mut arrivals);
        debug_assert!(arrivals.is_empty(), "the step takes every arrival");
        if clock.ns() >= end {
            break;
        }
    }
    let latency = w.egress.latency.take().expect("recording");
    ph.lat = OpenStats::new(latency, lag);
    ph.ns = clock.ns();
    ph.pkts = w.egress.delivered - d0;
    ph
}

/// Wall times of `n` fresh builds. `make` prepares a builder untimed
/// (cloning a large route table is the benchmark's cost, not the
/// router's); `build` is timed and its router dropped untimed. Several
/// builds of a small graph take microseconds, so an untimed build first
/// warms the caches the run in between evicted.
pub fn time_builds<B, R>(n: usize, make: impl Fn() -> B, build: impl Fn(B) -> R) -> Vec<f64> {
    if n > 1 {
        drop(build(make()));
    }
    (0..n)
        .map(|_| {
            let builder = make();
            let t = Instant::now();
            let router = build(builder);
            let secs = t.elapsed().as_secs_f64();
            drop(router);
            secs
        })
        .collect()
}
