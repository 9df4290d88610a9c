//! The single-threaded workloads (`fwd_64b`, `route_1m_fanout`,
//! `ipsec_abilene`). The generator, the router and the drain share one
//! thread because the wire is in-process; the harness's own cost is
//! reported as the `gen` layer.

use crate::alloc;
use crate::checks::{self, Egress, Expect};
use crate::drive::{self, Phase, Wire, SAT_WINDOW_NS};
use crate::feed::Feed;
use crate::layers::{self, Traced};
use crate::report::Outcome;
use crate::stats::{self, median, Clock, PeakRss};
use crate::workload::{Plan, Workload, SETUP_POINTS};
use routebricks::click::elements::device::{FromDevice, ToDevice};
use routebricks::click::Router;
use routebricks::crypto::SecurityAssociation;
use routebricks::lookup::{BinaryTrie, RouteControl, RouteTable, RouteUpdate};
use routebricks::telemetry::TelemetryLevel;
use routebricks::workload::{churn_stream, rib_full_table, ChurnConfig};
use routebricks::BuiltRouter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Wire backlog the closed-loop generator keeps topped up, in frames.
const BACKLOG: usize = 256;
/// Frames in the warm-up slice (the route port check runs on it).
const WARMUP: u64 = 4096;
/// Frames in the allocation-count replay, injected in `REPLAY_CHUNK`s.
const REPLAY: u64 = 8192;
const REPLAY_CHUNK: u64 = 256;
/// Route updates per `apply_and_publish` and the pace between them:
/// ~2.5K routes/s in bursts, the paced control plane of
/// `bench_dataplane`'s `fib_scale` churn rows.
const CHURN_BATCH: usize = 1000;
const CHURN_PACE: Duration = Duration::from_millis(400);
/// Untraced/traced closed-loop block pairs in a traced run: alternating
/// them exposes both to the same host speed drift.
pub const TRACE_BLOCKS: usize = 4;
/// TTL the generated frames carry.
const TTL: u8 = 64;

/// A built router with its per-port handles resolved once.
struct Rig {
    built: BuiltRouter,
    rx0: usize,
    tx: Vec<usize>,
    /// Scheduler tasks: one round runs each once.
    tasks: usize,
}

impl Rig {
    fn new(mut built: BuiltRouter) -> Rig {
        let ports = built.ports();
        let g = built.click().graph();
        let id = |name: String| {
            g.id_of(&name)
                .unwrap_or_else(|| panic!("no element {name}"))
        };
        Rig {
            rx0: id("rx0".into()),
            tx: (0..ports).map(|p| id(format!("tx{p}"))).collect(),
            tasks: g.active_elements().len(),
            built,
        }
    }

    fn router(&mut self) -> &mut Router {
        self.built.click()
    }

    fn rx(&mut self) -> &mut FromDevice {
        let id = self.rx0;
        self.router()
            .graph_mut()
            .element_mut(id)
            .as_any_mut()
            .downcast_mut()
            .expect("rx0 is a FromDevice")
    }

    /// One pass of the single-threaded loop: `inject` puts frames on
    /// port 0's wire, every scheduler task runs once, every port is
    /// drained.
    fn cycle(
        &mut self,
        w: &mut Wire,
        ph: &mut Phase,
        clock: &Clock,
        inject: impl FnOnce(&mut FromDevice, &mut Wire),
    ) {
        let t0 = Clock::ticks();
        inject(self.rx(), w);
        let t1 = Clock::ticks();
        let tasks = self.tasks;
        let r = self.router();
        for _ in 0..tasks {
            if !r.run_quantum() {
                ph.empty += 1;
            }
        }
        ph.quanta += tasks as u64;
        let t2 = Clock::ticks();
        self.drain(&mut w.egress, w.feed, clock.ns());
        let t3 = Clock::ticks();
        ph.inject_ticks += t1 - t0;
        ph.step_ticks += t2 - t1;
        ph.sched_ticks += t2 - t1;
        ph.drain_ticks += t3 - t2;
    }

    /// Closed loop: keeps `BACKLOG` frames on port 0's wire for `secs`.
    fn saturate(&mut self, w: &mut Wire, secs: f64) -> Phase {
        drive::saturate(w, secs, |w, ph, clock| {
            self.cycle(w, ph, clock, |rx, w| {
                while rx.pending() < BACKLOG {
                    rx.inject(w.feed.frame(w.offered));
                    w.offered += 1;
                }
            });
        })
    }

    /// Open loop at the feed's rate for `secs`, then runs to idle.
    fn open_loop(&mut self, w: &mut Wire, secs: f64) -> Phase {
        let ph = drive::open_loop(w, secs, |w, ph, clock, arrivals| {
            self.cycle(w, ph, clock, |rx, _| {
                for pkt in arrivals.drain(..) {
                    rx.inject(pkt);
                }
            });
        });
        self.settle(&mut w.egress, w.feed);
        ph
    }

    /// Takes every port's transmit log through the checker.
    fn drain(&mut self, egress: &mut Egress, feed: &Feed, now_ns: u64) {
        let router = self.built.click();
        for (port, &id) in self.tx.iter().enumerate() {
            let dev: &mut ToDevice = router
                .graph_mut()
                .element_mut(id)
                .as_any_mut()
                .downcast_mut()
                .expect("tx is a ToDevice");
            for pkt in dev.take_tx_log() {
                egress.on(port, pkt, now_ns, feed);
            }
        }
    }

    /// Runs to idle and drains.
    fn settle(&mut self, egress: &mut Egress, feed: &Feed) {
        self.router().run_until_idle(u64::MAX);
        self.drain(egress, feed, 0);
    }

    /// Runs `body` and adds the driver counters it moved to its phase.
    fn counted(&mut self, body: impl FnOnce(&mut Rig) -> Phase) -> Phase {
        let s0 = self.router().stats();
        let mut ph = body(self);
        let s1 = self.router().stats();
        ph.pushes += s1.pushes - s0.pushes;
        ph.batch_calls += s1.batch_calls - s0.batch_calls;
        ph.doorbells += s1.nic_doorbells - s0.nic_doorbells;
        ph.desc_stalls += s1.nic_desc_stalls - s0.nic_desc_stalls;
        ph
    }
}

/// Route updates generated for a run of `seconds`: half again as many
/// batches as the pace applies in that time, so the stream outlasts the
/// run with its rebuilds (a 55 s untraced run applies about 150).
fn churn_updates(seconds: f64) -> usize {
    let batches = seconds / CHURN_PACE.as_secs_f64() * 1.5;
    CHURN_BATCH * (batches as usize + 16)
}

/// Runs `body` while a paced control-plane thread applies `updates`
/// through `ctl` (when there is one); returns the body's result, each
/// `apply_and_publish` latency in ms, and the first update error.
fn with_churn<R>(
    ctl: Option<RouteControl>,
    updates: &[RouteUpdate],
    body: impl FnOnce() -> R,
) -> (R, Vec<f64>, Option<String>) {
    let Some(ctl) = ctl else {
        return (body(), Vec::new(), None);
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let churn = s.spawn(|| {
            let (mut lat, mut at) = (Vec::new(), 0usize);
            let mut next = Instant::now();
            while !stop.load(Ordering::Acquire) {
                let end = (at + CHURN_BATCH).min(updates.len());
                let t = Instant::now();
                if let Err(e) = ctl.apply_and_publish(&updates[at..end]) {
                    return (lat, Some(format!("route update failed: {e}")));
                }
                lat.push(t.elapsed().as_secs_f64() * 1e3);
                at = if end == updates.len() { 0 } else { end };
                next += CHURN_PACE;
                while !stop.load(Ordering::Acquire) {
                    let left = next.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    std::thread::sleep(left.min(Duration::from_millis(5)));
                }
            }
            (lat, None)
        });
        let out = body();
        stop.store(true, Ordering::Release);
        let (lat, err) = churn.join().expect("churn thread panicked");
        (out, lat, err)
    })
}

/// Wall times of `n` fresh `build()`s.
fn time_builds(plan: &Plan, table: Option<&RouteTable>, n: usize) -> Vec<f64> {
    drive::time_builds(
        n,
        || plan.builder(table, TelemetryLevel::Off),
        |b| b.build().expect("workload configuration is valid"),
    )
}

/// Injects `n` frames, runs to idle and drains.
fn slice(rig: &mut Rig, w: &mut Wire, n: u64) {
    let rx = rig.rx();
    for _ in 0..n {
        rx.inject(w.feed.frame(w.offered));
        w.offered += 1;
    }
    rig.settle(&mut w.egress, w.feed);
}

/// Router-side heap allocations (count, bytes) per packet over a
/// deterministic replay: only `run_until_idle` is counted.
fn alloc_replay(rig: &mut Rig, w: &mut Wire) -> (f64, f64) {
    let (mut allocs, mut bytes) = (0, 0);
    for _ in 0..REPLAY / REPLAY_CHUNK {
        let rx = rig.rx();
        for _ in 0..REPLAY_CHUNK {
            rx.inject(w.feed.frame(w.offered));
            w.offered += 1;
        }
        let (_, a, b) = alloc::count(|| rig.router().run_until_idle(u64::MAX));
        allocs += a;
        bytes += b;
        rig.drain(&mut w.egress, w.feed, 0);
    }
    (allocs as f64 / REPLAY as f64, bytes as f64 / REPLAY as f64)
}

/// Runs a single-threaded workload.
pub fn run(plan: &Plan) -> Outcome {
    let spec = plan.spec();
    let feed = Feed::generate(
        plan.seed,
        &spec.sizes,
        spec.frames,
        spec.dsts,
        spec.open_loop_pps,
    );
    let table = (spec.routes > 0).then(|| rib_full_table(spec.routes, plan.seed));
    let updates = table.as_ref().map_or_else(Vec::new, |t| {
        churn_stream(
            t,
            &ChurnConfig {
                updates: churn_updates(plan.seconds),
                next_hops: spec.ports as u16,
                seed: plan.seed ^ 0xc4c4,
                ..ChurnConfig::default()
            },
        )
    });
    let expect = match plan.workload {
        Workload::Fwd64b => Expect::Forward,
        Workload::Route1mFanout => Expect::Route { ttl: TTL },
        Workload::IpsecAbilene => Expect::Ipsec,
        Workload::Fwd64bPull => unreachable!("pull runs in crate::pull"),
    };
    let is_route = plan.workload == Workload::Route1mFanout;
    let is_ipsec = plan.workload == Workload::IpsecAbilene;
    let mut out = Outcome::default();
    let mut build_secs = vec![time_builds(plan, table.as_ref(), spec.builds_per_point)];
    let mut rig = Rig::new(
        plan.builder(table.as_ref(), TelemetryLevel::Off)
            .build()
            .expect("workload configuration is valid"),
    );
    let mut w = Wire {
        feed: &feed,
        egress: Egress::new(expect, plan.seed),
        offered: 0,
    };

    // Warm-up slice before any churn: its egress ports are checked
    // against a reference LPM after the run.
    w.egress.ports = is_route.then(Vec::new);
    slice(&mut rig, &mut w, WARMUP);
    let warm_ports = w.egress.ports.take().unwrap_or_default();
    if plan.trace {
        let (allocs, bytes) = alloc_replay(&mut rig, &mut w);
        out.put("packet.allocs_per_pkt", allocs);
        out.put("packet.alloc_bytes_per_pkt", bytes);
    }

    let ctl = rig.built.route_control();
    let secs = plan.seconds;
    let delivered_before = w.egress.delivered;
    if !plan.trace {
        let mut rss = PeakRss::default();
        let (sat, churn_ms, churn_err) = with_churn(ctl, &updates, || {
            let mut sat = Phase::default();
            for _ in 0..SETUP_POINTS {
                sat.absorb(rig.saturate(&mut w, secs / SETUP_POINTS as f64));
                rss.sample();
                build_secs.push(time_builds(plan, table.as_ref(), spec.builds_per_point));
                rss.forget_builds();
            }
            sat
        });
        if let Some(e) = churn_err {
            w.egress.fail(e);
        }
        rig.settle(&mut w.egress, &feed);
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
            "generator, router and drain share one thread (in-process wire); closed loop \
             {:.2} s at a {BACKLOG}-frame backlog; throughput is the rate sustained in {}% \
             of {} windows of {} ms",
            sat.ns as f64 / 1e9,
            spec.sustained_in * 100.0,
            sat.pps.len(),
            SAT_WINDOW_NS / 1_000_000
        ));
        if is_route {
            out.notes.push(format!(
                "route churn: {} apply_and_publish batches of {CHURN_BATCH} every {} ms, \
                 p50 {:.3} ms",
                churn_ms.len(),
                CHURN_PACE.as_millis(),
                median(&churn_ms)
            ));
        }
    } else {
        // Untraced and traced closed loops, then an untraced open loop:
        // latency is an untraced figure.
        let ((base, traced, open), churn_ms, churn_err) = with_churn(ctl, &updates, || {
            let block = secs / 4.0 / TRACE_BLOCKS as f64;
            let (mut base, mut traced) = (Phase::default(), Phase::default());
            for _ in 0..TRACE_BLOCKS {
                base.absorb(rig.saturate(&mut w, block));
                rig.router().set_telemetry(TelemetryLevel::Cycles);
                let mut blk = rig.counted(|rig| rig.saturate(&mut w, block));
                blk.snap = rig.built.telemetry_snapshot();
                rig.router().set_telemetry(TelemetryLevel::Off);
                traced.absorb(blk);
            }
            let open = rig.open_loop(&mut w, secs / 2.0);
            (base, traced, open)
        });
        if let Some(e) = churn_err {
            w.egress.fail(e);
        }
        rig.settle(&mut w.egress, &feed);
        let (mut peak, mut drops) = (0usize, 0u64);
        for p in 0..spec.ports {
            if let Some(q) = rig.router().queue_stats(&format!("q{p}")) {
                peak = peak.max(q.high_water);
                drops += q.dropped;
            }
        }
        out.put("click.queue_peak_depth", peak as f64);
        out.put("click.queue_drops", drops as f64);
        out.put("lookup.route_update_p50_ms", median(&churn_ms));
        layers::record_layers(
            &mut out,
            &Traced {
                workload: plan.workload,
                feed: &feed,
                table: table.as_ref(),
                base: &base,
                traced: &traced,
                open: &open,
            },
        );
    }
    let measured = w.egress.delivered - delivered_before;
    if measured == 0 {
        w.egress.fail("no frame delivered while measuring".into());
    }

    // Correctness, outside the measured phases.
    if is_route {
        let reference = BinaryTrie::compile(table.as_ref().expect("route table"));
        for (dst, port) in &warm_ports {
            if let Err(e) = checks::route_port(*dst, *port, spec.ports, &reference) {
                w.egress.fail(e);
            }
        }
        out.notes.push(format!(
            "route check: {} warm-up frames matched the reference trie LPM",
            warm_ports.len()
        ));
    }
    if is_ipsec {
        let opened = w
            .egress
            .verify_esp(&SecurityAssociation::from_seed(0x5a), &feed);
        out.notes.push(format!(
            "ipsec check: {opened} sampled ESP frames decrypted to their ingress datagram"
        ));
    }
    let ledger = rig.built.ledger();
    if let Err(e) = checks::ledger(w.offered, w.egress.delivered, &ledger) {
        w.egress.fail(e);
    }
    finish(&mut out, plan, w.offered, w.egress);
    out
}

/// Fills the run-level fields and the zero rows of layers this workload
/// does not exercise.
pub fn finish(out: &mut Outcome, plan: &Plan, offered: u64, egress: Egress) {
    let lost = offered - egress.delivered.min(offered);
    out.attempted = offered;
    out.failed = lost + egress.failures;
    // Drops are failures but not wrong outputs: the ledger check already
    // failed the run if any frame went missing without a drop record.
    out.correct = egress.failures == 0 && offered > 0;
    out.failure = egress.first_failure.or_else(|| {
        (lost > 0).then(|| format!("{lost} of {offered} offered frames were not delivered"))
    });
    if plan.trace {
        out.put("loss_ratio", lost as f64 / offered.max(1) as f64);
        for (name, _) in crate::report::PER_LAYER {
            if out.get(name).is_none() {
                out.put(name, 0.0);
            }
        }
    } else {
        out.put(
            "delivered_ratio",
            egress.delivered as f64 / offered.max(1) as f64,
        );
    }
    out.sort();
}
