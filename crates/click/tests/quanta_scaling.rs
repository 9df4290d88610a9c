//! Deterministic scheduling-cost regression tests: counts, not timings.
//!
//! * Scheduler quanta per delivered packet must not grow with the port
//!   count. With notifier-driven tasks an idle port's source and drain
//!   sleep, so from 2 to 32 ports the count stays flat; a scheduler that
//!   polls every task each round pays ~2 quanta per port per round.
//! * The quantum path must not touch the heap: an idle `run_quantum`,
//!   a source quantum that routes a burst through the IP chain and a
//!   drain quantum that transmits it perform zero allocations.
//!   This binary installs a counting global allocator for that.

use routebricks::click::elements::ToDevice;
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::Packet;
use routebricks::{BuiltRouter, RouterBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{Ipv4Addr, SocketAddrV4};

/// Forwards to the system allocator, counting allocations made by the
/// current thread (tests run on parallel threads).
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`; counting touches
// only a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations this thread made while `f` ran.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// An IP router with one `/16` per port: `10.p.0.0/16 -> p`.
fn ip_router(ports: usize, kp: usize) -> BuiltRouter {
    (0..ports)
        .fold(RouterBuilder::ip_router(), |b, p| {
            b.route(&format!("10.{p}.0.0/16"), p as u16)
        })
        .ports(ports)
        .batch_size(kp)
        .queue_capacity(1 << 14)
        .build()
        .expect("ip_router builds")
}

fn frame_to(port: usize, seq: usize) -> Packet {
    PacketSpec::udp()
        .endpoints(
            SocketAddrV4::new(Ipv4Addr::new(192, 168, (seq >> 8) as u8, seq as u8), 1024),
            SocketAddrV4::new(Ipv4Addr::new(10, port as u8, 0, 1), 80),
        )
        .build()
}

/// Quanta per delivered packet for `n` frames into port 0, spread over
/// every port in trains of `kp` frames per destination. A train fills
/// one ingress burst, so each burst feeds one egress queue at any port
/// count: the quanta it costs (one source quantum, one drain quantum)
/// cannot change with the port count — only polls of idle tasks could.
/// At kp = 1 the trains are single frames, i.e. destinations rotate
/// over every port frame by frame.
fn quanta_per_packet(ports: usize, kp: usize, n: usize) -> f64 {
    let mut r = ip_router(ports, kp);
    for seq in 0..n {
        assert!(r.inject(0, frame_to((seq / kp) % ports, seq)));
    }
    let stats = r.run_until_idle(u64::MAX);
    assert!(!stats.fused);
    let delivered: u64 = (0..ports).map(|p| r.transmitted(p)).sum();
    assert_eq!(delivered, n as u64, "every frame routed out");
    stats.quanta as f64 / delivered as f64
}

#[test]
fn quanta_per_packet_is_flat_from_2_to_32_ports() {
    for kp in [1usize, 32] {
        let n = 64 * kp.max(32);
        let two = quanta_per_packet(2, kp, n);
        let many = quanta_per_packet(32, kp, n);
        assert!(
            many <= 1.25 * two,
            "kp={kp}: {many:.3} quanta/pkt at 32 ports vs {two:.3} at 2"
        );
        // One source quantum plus one drain quantum per burst.
        let floor = 2.0 / kp as f64;
        assert!(
            two >= floor && two <= 1.25 * floor,
            "kp={kp}: {two:.3} quanta/pkt"
        );
    }
}

#[test]
fn idle_quantum_does_not_allocate() {
    let mut r = ip_router(32, 32);
    for seq in 0..256 {
        assert!(r.inject(0, frame_to(seq % 32, seq)));
    }
    r.run_until_idle(u64::MAX);
    let router = r.click();
    // Outside access forces the sleeping-task recheck on the next quantum.
    router.graph_mut();
    let (worked, allocs) = allocations(|| {
        (0..100)
            .map(|_| router.run_quantum())
            .fold(false, |a, b| a | b)
    });
    assert!(!worked, "a drained router has nothing to run");
    assert_eq!(allocs, 0, "idle quanta allocated");
}

#[test]
fn source_and_drain_quanta_moving_packets_do_not_allocate() {
    let mut r = ip_router(32, 32);
    // Warm every reused buffer on the path to port 5 once.
    for seq in 0..64 {
        assert!(r.inject(0, frame_to(5, seq)));
    }
    r.run_until_idle(u64::MAX);
    for seq in 0..32 {
        assert!(r.inject(0, frame_to(5, seq)));
    }
    let router = r.click();
    // The source quantum routes one burst through the IP chain into q5
    // and wakes its drain, which is then the only runnable task.
    let (worked, allocs) = allocations(|| router.run_quantum());
    assert!(worked, "the source polled the burst");
    assert_eq!(allocs, 0, "source quantum allocated");
    let (worked, allocs) = allocations(|| router.run_quantum());
    assert!(worked, "the drain moved the burst");
    assert_eq!(allocs, 0, "drain quantum allocated");
    let tx = router.element_as::<ToDevice>("tx5").unwrap();
    assert_eq!(tx.sent_packets(), 96);
    assert!(!router.run_quantum(), "everything drained");
}
