//! Lost-wakeup property test for notifier-driven task scheduling.
//!
//! Idle tasks sleep and are woken only by a push into their queue or by
//! outside access to the graph. A missed wakeup leaves a task asleep
//! with work pending, and `run_until_idle` then returns early with
//! frames stranded on a wire or in a queue. This test interleaves random
//! injects into random ports — through both outside-access paths,
//! `element_as_mut` and `graph_mut` — with random numbers of
//! `run_quantum` calls, runs to idle, and checks that nothing was left
//! behind: every device and queue is empty, the ledger is exact, and
//! the transmitted frames are exactly the injected ones.

use proptest::prelude::*;
use routebricks::click::elements::{FromDevice, Queue};
use routebricks::packet::builder::PacketSpec;
use routebricks::packet::Packet;
use routebricks::{BuiltRouter, RouterBuilder};
use std::net::{Ipv4Addr, SocketAddrV4};

/// One step of the interleaving.
#[derive(Debug, Clone)]
enum Op {
    /// Put `count` frames on ingress port `port % ports`, through
    /// `graph_mut` when `via_graph`, else through `element_as_mut`.
    Inject {
        port: usize,
        count: usize,
        via_graph: bool,
    },
    /// Run this many single quanta.
    Quanta(usize),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..32, 1usize..24, any::<bool>()).prop_map(|(port, count, via_graph)| Op::Inject {
            port,
            count,
            via_graph
        }),
        (0usize..48).prop_map(Op::Quanta),
    ]
}

/// Frame `seq` for a router of `ports` ports: the sequence number rides
/// in the source address and port (the frame's identity at egress), the
/// destination picks a routed egress port.
fn frame(seq: usize, ports: usize) -> Packet {
    let dst_port = (seq * 7 + 3) % ports;
    PacketSpec::udp()
        .endpoints(
            SocketAddrV4::new(Ipv4Addr::new(192, 168, (seq >> 8) as u8, seq as u8), 1024),
            SocketAddrV4::new(Ipv4Addr::new(10, dst_port as u8, 0, 1), 80),
        )
        .ttl(64)
        .build()
}

/// The identity of a frame at egress: IPv4 source address and UDP
/// source port (Ethernet header, then a 20-byte IPv4 header).
fn identity(pkt: &Packet) -> [u8; 6] {
    let d = pkt.data();
    let mut id = [0u8; 6];
    id[..4].copy_from_slice(&d[14 + 12..14 + 16]);
    id[4..].copy_from_slice(&d[14 + 20..14 + 22]);
    id
}

fn build(ip_router: bool, ports: usize, kp: usize) -> BuiltRouter {
    let builder = if ip_router {
        (0..ports).fold(RouterBuilder::ip_router(), |b, p| {
            b.route(&format!("10.{p}.0.0/16"), p as u16)
        })
    } else {
        RouterBuilder::minimal_forwarder()
    };
    builder
        .ports(ports)
        .batch_size(kp)
        .queue_capacity(1 << 14)
        .keep_tx_frames(true)
        .build()
        .expect("preset graph builds")
}

fn inject(r: &mut BuiltRouter, port: usize, pkts: Vec<Packet>, via_graph: bool) {
    let name = format!("rx{port}");
    let router = r.click();
    let dev: &mut FromDevice = if via_graph {
        let id = router.graph().id_of(&name).expect("ingress exists");
        router
            .graph_mut()
            .element_mut(id)
            .as_any_mut()
            .downcast_mut()
            .expect("rx is a FromDevice")
    } else {
        router.element_as_mut(&name).expect("rx is a FromDevice")
    };
    for pkt in pkts {
        dev.inject(pkt);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_task_sleeps_through_pending_work(
        ip_router in any::<bool>(),
        ports in 2usize..=32,
        kp in prop_oneof![Just(1usize), Just(32usize)],
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let mut r = build(ip_router, ports, kp);
        let mut sent = Vec::new();
        for op in &ops {
            match *op {
                Op::Inject { port, count, via_graph } => {
                    let pkts: Vec<Packet> =
                        (sent.len()..sent.len() + count).map(|s| frame(s, ports)).collect();
                    sent.extend(pkts.iter().map(identity));
                    inject(&mut r, port % ports, pkts, via_graph);
                }
                Op::Quanta(n) => {
                    for _ in 0..n {
                        r.click().run_quantum();
                    }
                }
            }
        }
        let stats = r.run_until_idle(u64::MAX);
        prop_assert!(!stats.fused);

        // Nothing stranded: every wire, RX ring and queue is empty.
        let router = r.click();
        for p in 0..ports {
            let rx: &FromDevice = router.element_as(&format!("rx{p}")).unwrap();
            prop_assert_eq!(rx.pending(), 0, "rx{} asleep with frames pending", p);
            let q: &Queue = router.element_as(&format!("q{p}")).unwrap();
            prop_assert_eq!(q.len(), 0, "q{} asleep with packets queued", p);
        }

        // The ledger is exact, with nothing dropped and nothing in flight.
        let led = r.ledger();
        prop_assert!(led.balances(), "residual {}", led.residual());
        prop_assert_eq!(led.sourced, sent.len() as u64);
        prop_assert_eq!(led.forwarded, sent.len() as u64);
        prop_assert_eq!(led.in_flight, 0);

        // Egress multiset == ingress multiset, on the right ports.
        let mut got = Vec::new();
        for p in 0..ports {
            for pkt in r.tx_frames(p) {
                if ip_router {
                    prop_assert_eq!(usize::from(pkt.data()[14 + 17]), p, "routed to its /16");
                }
                got.push(identity(pkt));
            }
        }
        got.sort_unstable();
        sent.sort_unstable();
        prop_assert_eq!(got, sent);
    }
}
