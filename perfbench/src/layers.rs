//! Outside-in timings of each layer's public functions, replayed on the
//! workload's own frames, and the per-layer rows and self-time
//! decomposition every traced run reports.

use crate::drive::Phase;
use crate::feed::Feed;
use crate::report::{Outcome, LAYERS, STAGE_CLASSES};
use crate::stats::{fit_line, median, Clock};
use crate::workload::{Workload, KN, KP};
use routebricks::click::runtime::spsc;
use routebricks::crypto::{EspEncryptor, SecurityAssociation};
use routebricks::lookup::{LpmLookup, RcuFib, RouteTable};
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::ethernet::HEADER_LEN as ETH_HLEN;
use routebricks::packet::nic::{
    DescRing, DEFAULT_RING_DEPTH, DOORBELL_SPINS, WRITEBACK_SPINS_PER_DESC,
};
use routebricks::packet::{ipv4, Ipv4Header, Packet, PacketPool};
use routebricks::telemetry::{MetricsSnapshot, StageStats};
use routebricks::workload::sizes::ABILENE_MIX;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per timing; each reports the median.
const REPS: usize = 5;
/// RCU reader slots the lookup replay compiles with (as the builder).
const FIB_READERS: usize = 64;

/// Median over [`REPS`] runs of `f`, which returns `(elapsed ns, ops)`,
/// in ns per op.
fn per_op(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, ops) = f();
            ns / ops as f64
        })
        .collect();
    median(&v)
}

fn timed(f: impl FnOnce() -> u64) -> (f64, u64) {
    let t = Instant::now();
    let ops = f();
    (t.elapsed().as_nanos() as f64, ops)
}

/// `Ipv4Header::parse` (which verifies the header checksum) per frame.
pub fn parse_checksum_ns(frames: &[Packet]) -> f64 {
    per_op(|| {
        timed(|| {
            let mut n = 0;
            for _ in 0..64 {
                for f in frames {
                    black_box(Ipv4Header::parse(black_box(&f.data()[ETH_HLEN..])).is_ok());
                    n += 1;
                }
            }
            n
        })
    })
}

/// `Ipv4Header::dec_ttl` (TTL decrement + RFC 1624 `update16`) per frame.
pub fn ttl_update_ns(frames: &[Packet]) -> f64 {
    per_op(|| {
        // Fresh copies each repetition keep every TTL well above zero.
        let mut copies: Vec<Packet> = frames.iter().take(4096).cloned().collect();
        timed(|| {
            let mut n = 0;
            for _ in 0..32 {
                for f in copies.iter_mut() {
                    black_box(ipv4::fast::dec_ttl(&mut f.data_mut()[ETH_HLEN..]).is_ok());
                    n += 1;
                }
            }
            n
        })
    })
}

/// One `PacketPool::try_slot` + drop (slot back to the free list).
pub fn pool_cycle_ns() -> f64 {
    let pool = PacketPool::new(4096, routebricks::packet::pool::DEFAULT_SLOT_SIZE);
    per_op(|| {
        timed(|| {
            for _ in 0..200_000 {
                black_box(pool.try_slot());
            }
            200_000
        })
    })
}

/// One RX + TX descriptor-ring pass per frame at the workload's batching:
/// RX polls `kp` per consume, TX completes `tx_burst` per drain, both
/// write back in `kn` chunks (the modeled device spin included).
pub fn ring_ns_per_pkt(frames: &[Packet], kp: usize, kn: usize, tx_burst: usize) -> f64 {
    let tx_burst = tx_burst.max(1);
    let mut rx = DescRing::new(DEFAULT_RING_DEPTH, kn);
    let mut tx = DescRing::new(DEFAULT_RING_DEPTH, kn);
    let mut wire: Vec<Packet> = frames.iter().cycle().take(kp * 8).cloned().collect();
    let (mut polled, mut sent) = (Vec::new(), Vec::new());
    per_op(|| {
        timed(|| {
            let mut n = 0u64;
            for _ in 0..1024 {
                for p in wire.drain(..) {
                    rx.post(p).expect("ring deeper than the wire batch");
                }
                while rx.consume(kp, &mut polled) > 0 {
                    n += polled.len() as u64;
                    while !polled.is_empty() {
                        let burst = tx_burst.min(polled.len());
                        for p in polled.drain(..burst) {
                            tx.post(p).expect("TX ring drains every burst");
                        }
                        tx.consume(usize::MAX, &mut sent);
                    }
                    wire.append(&mut sent);
                }
            }
            n
        })
    })
}

/// The modeled device spin per packet, in ns: each packet's descriptor
/// is written back once on the RX ring and once on the TX ring, plus a
/// doorbell per `doorbells_per_pkt`.
pub fn model_ns_per_pkt(doorbells_per_pkt: f64) -> f64 {
    (doorbells_per_pkt * f64::from(DOORBELL_SPINS) + 2.0 * f64::from(WRITEBACK_SPINS_PER_DESC))
        * spin_ns()
}

/// Nanoseconds per `spin_loop` hint: the unit of the modeled device cost.
fn spin_ns() -> f64 {
    per_op(|| {
        timed(|| {
            for _ in 0..1_000_000 {
                std::hint::spin_loop();
            }
            1_000_000
        })
    })
}

/// `EspEncryptor::seal` timed on the inner datagram of each Abilene-mix
/// frame size (the IPsec workload's mix) and fit as
/// `fixed + per_byte · bytes`. Measured on every traced run: it is a
/// property of the crypto layer, not of the workload's path.
pub fn seal_fit() -> (f64, f64) {
    let sa = SecurityAssociation::from_seed(0x5a);
    let points: Vec<(f64, f64)> = ABILENE_MIX
        .iter()
        .map(|&(size, _)| {
            let frame = PacketSpec::udp().frame_len(size).build();
            let inner = &frame.data()[ETH_HLEN..];
            let mut esp = EspEncryptor::new(&sa);
            let iters = (4_000_000 / inner.len().max(64)) as u64;
            let ns = per_op(|| {
                timed(|| {
                    for _ in 0..iters {
                        black_box(esp.seal(black_box(inner)));
                    }
                    iters
                })
            });
            (inner.len() as f64, ns)
        })
        .collect();
    fit_line(&points)
}

/// Lookup-layer costs on the workload's table and destination stream.
#[derive(Debug, Clone, Copy)]
pub struct LookupCosts {
    /// `RcuFib::with_max_readers` wall time.
    pub compile_s: f64,
    /// One `FibReader::pin` + unpin.
    pub pin_ns: f64,
    /// `Dir24_8::lookup_batch` per destination, in `kp` batches.
    pub batch_ns_per_dst: f64,
    /// Compiled table footprint in MiB.
    pub fib_mem_mb: f64,
    /// Share of destinations with no covering route.
    pub miss_ratio: f64,
}

/// Compiles `table` as the router does and times reads against it.
pub fn lookup_costs(table: &RouteTable, dsts: &[u32], kp: usize, readers: usize) -> LookupCosts {
    let t = Instant::now();
    let fib = RcuFib::with_max_readers(table, readers).expect("table compiles");
    let compile_s = t.elapsed().as_secs_f64();
    let reader = fib.reader();
    let pin_ns = per_op(|| {
        timed(|| {
            for _ in 0..200_000 {
                black_box(&*reader.pin());
            }
            200_000
        })
    });
    let guard = reader.pin();
    let fib_mem_mb = guard.memory_bytes() as f64 / (1024.0 * 1024.0);
    let mut out = vec![None; kp];
    let batch_ns_per_dst = per_op(|| {
        timed(|| {
            for chunk in dsts.chunks(kp) {
                guard.lookup_batch(chunk, &mut out[..chunk.len()]);
                black_box(&out);
            }
            dsts.len() as u64
        })
    });
    let misses = dsts.iter().filter(|d| guard.lookup(**d).is_none()).count();
    LookupCosts {
        compile_s,
        pin_ns,
        batch_ns_per_dst,
        fib_mem_mb,
        miss_ratio: misses as f64 / dsts.len().max(1) as f64,
    }
}

/// A `kp`-item `push_burst` → `pop_burst` round trip through two SPSC
/// rings and an echo thread (one hop each way across cores).
pub fn ring_hop_ns_per_batch(kp: usize) -> f64 {
    const TRIPS: u64 = 20_000;
    let (mut to_tx, mut to_rx) = spsc::ring::<u64>(kp * 4);
    let (mut back_tx, mut back_rx) = spsc::ring::<u64>(kp * 4);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut buf = Vec::with_capacity(kp);
            for _ in 0..TRIPS * REPS as u64 {
                while buf.len() < kp {
                    to_rx.pop_burst(kp - buf.len(), &mut buf);
                }
                while !buf.is_empty() {
                    back_tx.push_burst(&mut buf);
                }
            }
        });
        let mut buf = Vec::with_capacity(kp);
        per_op(|| {
            timed(|| {
                for _ in 0..TRIPS {
                    buf.extend(0..kp as u64);
                    while !buf.is_empty() {
                        to_tx.push_burst(&mut buf);
                    }
                    while buf.len() < kp {
                        back_rx.pop_burst(kp - buf.len(), &mut buf);
                    }
                    buf.clear();
                }
                TRIPS
            })
        })
    })
}

/// Per-class Cycles-telemetry ticks per packet through the class.
pub fn stage_cycles(snap: &MetricsSnapshot, class: &str) -> f64 {
    let (cyc, pkts) = class_totals(snap, class, |s| s.cycles);
    if pkts == 0 {
        0.0
    } else {
        cyc as f64 / pkts as f64
    }
}

/// Packets per dispatch into a class (1 when it saw none).
fn stage_burst(snap: &MetricsSnapshot, class: &str) -> f64 {
    let (calls, pkts) = class_totals(snap, class, |s| s.calls);
    if calls == 0 {
        1.0
    } else {
        pkts as f64 / calls as f64
    }
}

/// `(Σ field, Σ packets)` over a class's rows.
fn class_totals(
    snap: &MetricsSnapshot,
    class: &str,
    field: impl Fn(&StageStats) -> u64,
) -> (u64, u64) {
    snap.stages
        .iter()
        .filter(|s| s.class == class)
        .fold((0, 0), |(f, p), s| (f + field(s), p + s.packets))
}

/// Element classes whose work another layer's replay times: the NIC
/// rings (`FromDevice`, `ToDevice`), packet parsing and TTL update
/// (`CheckIPHeader`, `DecIPTTL`), the lookup and the crypto. Click's own
/// self time is measured inside the router as the scheduler's quanta
/// less these classes' Cycles rows: dispatch and routing between
/// elements plus click's own elements (`Counter`, `Queue`).
const REPLAYED: [&str; 6] = [
    "FromDevice",
    "ToDevice",
    "CheckIPHeader",
    "DecIPTTL",
    "LookupIPRoute",
    "IpsecEncap",
];

/// A traced run's measured phases and the inputs its replays use.
pub struct Traced<'a> {
    pub workload: Workload,
    pub feed: &'a Feed,
    /// The workload's routing table (routing only).
    pub table: Option<&'a RouteTable>,
    /// Untraced and Cycles-traced closed-loop blocks, and the untraced
    /// open loop.
    pub base: &'a Phase,
    pub traced: &'a Phase,
    pub open: &'a Phase,
}

/// Records the per-layer rows every traced run reports and the self-time
/// decomposition; returns the untraced ns per packet.
///
/// Self times are ns per delivered packet of the traced blocks. `gen`,
/// `click` and `regime` are measured on the run itself (`gen` outside
/// the router call, `regime` inside it but outside the scheduler's
/// quanta); `packet`, `nic`, `lookup` and `crypto` are outside-in
/// replays. So the residual against the untraced whole is the cost of
/// tracing plus the replays' error against the in-router work they
/// stand for.
pub fn record_layers(out: &mut Outcome, t: &Traced) -> f64 {
    let (base, traced, open) = (t.base, t.traced, t.open);
    let ns_tick = Clock::start().ns_per_tick();
    let pkts = traced.pkts as f64;
    let per_pkt = |ticks: u64| ticks as f64 * ns_tick / pkts;
    let untraced_ns = base.ns as f64 / base.pkts as f64;
    let traced_ns = traced.ns as f64 / pkts;
    let step_ns = per_pkt(traced.step_ticks);
    let sched_ns = per_pkt(traced.sched_ticks);
    let snap = &traced.snap;
    out.put("telemetry.overhead_ratio", untraced_ns / traced_ns);

    out.put("latency_p50_us", open.lat.p50_us);
    out.put("latency_p99_us", open.lat.p99_us);
    out.put("gen.inject_ns_per_pkt", per_pkt(traced.inject_ticks));
    out.put("gen.drain_ns_per_pkt", per_pkt(traced.drain_ticks));
    out.put("gen.lag_p99_us", open.lat.lag_p99_us);
    out.put("gen.latency_samples", open.lat.samples as f64);

    let quanta = traced.quanta.max(1) as f64;
    out.put("click.quanta_per_pkt", traced.quanta as f64 / pkts);
    out.put("click.empty_quantum_ratio", traced.empty as f64 / quanta);
    out.put(
        "click.quantum_ns",
        traced.sched_ticks as f64 * ns_tick / quanta,
    );
    out.put(
        "click.batch_mean",
        traced.pushes as f64 / traced.batch_calls.max(1) as f64,
    );
    for class in STAGE_CLASSES {
        let name = format!("click.stage.{class}.cycles_per_pkt");
        out.put(&name, stage_cycles(snap, class));
    }
    let replayed_ns: f64 = REPLAYED
        .iter()
        .map(|class| per_pkt(class_totals(snap, class, |s| s.cycles).0))
        .sum();

    let is_route = t.workload == Workload::Route1mFanout;
    let probe: Vec<Packet> = if t.feed.dsts().is_empty() {
        t.feed.frames().to_vec()
    } else {
        (0..4096).map(|i| t.feed.frame(i)).collect()
    };
    let parse = parse_checksum_ns(&probe);
    let ttl = ttl_update_ns(&probe);
    out.put("packet.parse_checksum_ns", parse);
    out.put("packet.ttl_update_ns", ttl);
    out.put("packet.pool_cycle_ns", pool_cycle_ns());
    let packet_self = parse + if is_route { ttl } else { 0.0 };

    let tx_burst = stage_burst(snap, "ToDevice").round() as usize;
    let ring = ring_ns_per_pkt(&probe, KP, KN, tx_burst);
    let doorbells = traced.doorbells as f64 / pkts;
    out.put("nic.ring_ns_per_pkt", ring);
    out.put("nic.doorbells_per_pkt", doorbells);
    out.put("nic.desc_stalls_per_pkt", traced.desc_stalls as f64 / pkts);
    out.put("nic.model_share", model_ns_per_pkt(doorbells) / untraced_ns);

    let lookup_self = match t.table {
        Some(table) => {
            let c = lookup_costs(table, t.feed.dsts(), KP, FIB_READERS);
            out.put("lookup.batch_ns_per_dst", c.batch_ns_per_dst);
            out.put("lookup.pin_ns", c.pin_ns);
            out.put("lookup.compile_s", c.compile_s);
            out.put("lookup.fib_mem_mb", c.fib_mem_mb);
            out.put("lookup.miss_ratio", c.miss_ratio);
            c.batch_ns_per_dst + c.pin_ns / stage_burst(snap, "LookupIPRoute")
        }
        None => 0.0,
    };

    let (fixed, per_byte) = seal_fit();
    out.put("crypto.seal_fixed_ns", fixed);
    out.put("crypto.seal_ns_per_byte", per_byte);
    let crypto_self = if t.workload == Workload::IpsecAbilene {
        fixed + per_byte * (t.feed.mean_len() - ETH_HLEN as f64)
    } else {
        0.0
    };

    let selves = [
        traced_ns - step_ns,
        sched_ns - replayed_ns,
        packet_self,
        ring,
        lookup_self,
        crypto_self,
        step_ns - sched_ns,
    ];
    for (layer, v) in LAYERS.iter().zip(selves) {
        out.put(&format!("{layer}.self_ns_per_pkt"), v);
    }
    out.put("untraced_ns_per_pkt", untraced_ns);
    out.put(
        "residual_ns_per_pkt",
        untraced_ns - selves.iter().sum::<f64>(),
    );

    let drained_at = if t.workload == Workload::Fwd64bPull {
        "MtRouter::run return"
    } else {
        "drain"
    };
    out.notes.push(format!(
        "open loop {:.2} s, Poisson at {:.0} pps from the generator's thread: {} frames timed \
         from due time to {drained_at} (p99 has {} beyond it)",
        open.ns as f64 / 1e9,
        t.feed.rate(),
        open.lat.samples,
        open.lat.samples / 100
    ));
    out.notes.push(format!(
        "traced: {untraced_ns:.0} ns/pkt untraced vs {traced_ns:.0} ns/pkt with Cycles \
         telemetry; scheduler quanta {sched_ns:.0} of {step_ns:.0} ns/pkt inside the router \
         call, {replayed_ns:.0} of them in elements the layer replays stand for"
    ));
    untraced_ns
}
