//! `fwd_64b_pull`: the minimal-forwarding graph under `build_mt()` with
//! the pull-credit regime, one worker plus the dispatcher. Load is
//! offered as repeated `MtRouter::run` chunks; a chunk's egress comes
//! back only when the run returns, so open-loop latency is due time to
//! that return.

use crate::alloc;
use crate::checks::{self, Egress, Expect};
use crate::drive::{self, Phase, Wire, SAT_WINDOW_NS};
use crate::feed::Feed;
use crate::layers::{self, Traced};
use crate::report::Outcome;
use crate::st::{finish, TRACE_BLOCKS};
use crate::stats::{self, Clock, PeakRss};
use crate::workload::{Plan, KP, SETUP_POINTS};
use routebricks::packet::Packet;
use routebricks::telemetry::TelemetryLevel;
use routebricks::MtRouter;

/// Frames per closed-loop `MtRouter::run` call.
const SAT_CHUNK: u64 = 8192;
/// Frames in the warm-up run.
const WARMUP: u64 = 4096;
/// Allocation replay: `REPLAY` frames in runs of `REPLAY_CHUNK`.
const REPLAY: u64 = 8192;
const REPLAY_CHUNK: u64 = 1024;

/// One `MtRouter::run` over `pkts`; egress is checked with drain time
/// `clock.ns()` at return. Timing and counters go into `ph`. Returns the
/// heap allocations (count, bytes) made inside the run when
/// `count_allocs`, else zeros.
fn run_chunk(
    mt: &MtRouter,
    w: &mut Wire,
    pkts: Vec<Packet>,
    ph: &mut Phase,
    clock: &Clock,
    count_allocs: bool,
) -> (u64, u64) {
    let n = pkts.len() as u64;
    let d0 = w.egress.delivered;
    let t0 = Clock::ticks();
    let (outcome, allocs, bytes) = if count_allocs {
        alloc::count(|| mt.run(pkts))
    } else {
        (mt.run(pkts), 0, 0)
    };
    let outcome = outcome.expect("pull-regime run");
    let t1 = Clock::ticks();
    let now = clock.ns();
    for (port, frames) in outcome.egress.into_iter().enumerate() {
        for pkt in frames {
            w.egress.on(port, pkt, now, w.feed);
        }
    }
    ph.drain_ticks += Clock::ticks() - t1;
    ph.step_ticks += t1 - t0;
    let r = &outcome.report;
    if let Err(e) = checks::ledger(n, w.egress.delivered - d0, &r.ledger) {
        w.egress.fail(e);
    }
    ph.quanta += outcome.worker_stats.iter().map(|s| s.quanta).sum::<u64>();
    ph.empty += r.telemetry.empty_polls;
    ph.sched_ticks += r.telemetry.total_cycles;
    ph.pushes += r.pushes;
    ph.batch_calls += r.batch_calls;
    ph.doorbells += r.nic_doorbells;
    ph.desc_stalls += r.nic_desc_stalls;
    ph.credit_stalls += r.credit_stalls;
    ph.snap.merge(&r.telemetry);
    (allocs, bytes)
}

/// The next `n` frames off the wire.
fn take(w: &mut Wire, n: u64) -> Vec<Packet> {
    let v = (w.offered..w.offered + n)
        .map(|i| w.feed.frame(i))
        .collect();
    w.offered += n;
    v
}

/// Closed loop: back-to-back `SAT_CHUNK` runs for `secs`.
fn saturate(mt: &MtRouter, w: &mut Wire, secs: f64) -> Phase {
    drive::saturate(w, secs, |w, ph, clock| {
        let t0 = Clock::ticks();
        let chunk = take(w, SAT_CHUNK);
        ph.inject_ticks += Clock::ticks() - t0;
        run_chunk(mt, w, chunk, ph, clock, false);
    })
}

/// Open loop: every frame due by now goes into the next run; frames are
/// timed from their due time to the run's return.
fn open_loop(mt: &MtRouter, w: &mut Wire, secs: f64) -> Phase {
    drive::open_loop(w, secs, |w, ph, clock, arrivals| {
        if !arrivals.is_empty() {
            run_chunk(mt, w, std::mem::take(arrivals), ph, clock, false);
        }
    })
}

/// Runs `fwd_64b_pull`.
pub fn run(plan: &Plan) -> Outcome {
    let spec = plan.spec();
    let feed = Feed::generate(plan.seed, &spec.sizes, spec.frames, 0, spec.open_loop_pps);
    let mut out = Outcome::default();
    let time_builds = || {
        drive::time_builds(
            spec.builds_per_point,
            || plan.builder(None, TelemetryLevel::Off),
            |b| b.build_mt().expect("workload configuration is valid"),
        )
    };
    let mut build_secs = vec![time_builds()];
    let mt = plan
        .builder(None, TelemetryLevel::Off)
        .build_mt()
        .expect("workload configuration is valid");
    let mut w = Wire {
        feed: &feed,
        egress: Egress::new(Expect::Forward, plan.seed),
        offered: 0,
    };
    let clock = Clock::start();
    let chunk = take(&mut w, WARMUP);
    run_chunk(&mt, &mut w, chunk, &mut Phase::default(), &clock, false);
    let secs = plan.seconds;

    if !plan.trace {
        let mut rss = PeakRss::default();
        let mut sat = Phase::default();
        for _ in 0..SETUP_POINTS {
            sat.absorb(saturate(&mt, &mut w, secs / SETUP_POINTS as f64));
            rss.sample();
            build_secs.push(time_builds());
            rss.forget_builds();
        }
        out.put(
            "throughput_mpps",
            stats::sustained(&sat.pps, spec.sustained_in) / 1e6,
        );
        out.put(
            "throughput_gbps",
            stats::sustained(&sat.gbps, spec.sustained_in),
        );
        out.put("setup_s", stats::setup_time(&build_secs));
        out.put("peak_rss_mb", rss.mb());
        out.notes.push(format!(
            "pull-credit regime, 1 worker + dispatcher; closed loop {:.2} s of {SAT_CHUNK}-frame \
             runs; throughput is the rate sustained in {}% of {} windows of {} ms",
            sat.ns as f64 / 1e9,
            spec.sustained_in * 100.0,
            sat.pps.len(),
            SAT_WINDOW_NS / 1_000_000
        ));
    } else {
        let traced_mt = plan
            .builder(None, TelemetryLevel::Cycles)
            .build_mt()
            .expect("workload configuration is valid");
        let (mut allocs, mut bytes) = (0, 0);
        for _ in 0..REPLAY / REPLAY_CHUNK {
            let chunk = take(&mut w, REPLAY_CHUNK);
            let (a, b) = run_chunk(
                &traced_mt,
                &mut w,
                chunk,
                &mut Phase::default(),
                &clock,
                true,
            );
            allocs += a;
            bytes += b;
        }
        out.put("packet.allocs_per_pkt", allocs as f64 / REPLAY as f64);
        out.put("packet.alloc_bytes_per_pkt", bytes as f64 / REPLAY as f64);

        let block = secs / 4.0 / TRACE_BLOCKS as f64;
        let (mut base, mut traced) = (Phase::default(), Phase::default());
        for _ in 0..TRACE_BLOCKS {
            base.absorb(saturate(&mt, &mut w, block));
            traced.absorb(saturate(&traced_mt, &mut w, block));
        }
        // Latency is an untraced figure; each run takes every frame due.
        let open = open_loop(&mt, &mut w, secs / 2.0);
        let pkts = traced.pkts as f64;
        out.put(
            "regime.credit_stalls_per_pkt",
            traced.credit_stalls as f64 / pkts,
        );
        out.put(
            "regime.ring_hop_ns_per_batch",
            layers::ring_hop_ns_per_batch(KP),
        );
        out.put(
            "regime.run_ns_per_pkt",
            traced.step_ticks as f64 * clock.ns_per_tick() / pkts,
        );
        layers::record_layers(
            &mut out,
            &Traced {
                workload: plan.workload,
                feed: &feed,
                table: None,
                base: &base,
                traced: &traced,
                open: &open,
            },
        );
    }
    finish(&mut out, plan, w.offered, w.egress);
    out
}
