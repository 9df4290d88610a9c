//! The four workloads and their fixed configuration.

use routebricks::lookup::RouteTable;
use routebricks::telemetry::TelemetryLevel;
use routebricks::workload::SizeDist;
use routebricks::{Regime, RouterBuilder};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Minimal forwarding of 64 B frames, 2 ports, kp=32, kn=16.
    Fwd64b,
    /// IP routing over a 1M-prefix RCU FIB, 32 ports, live route churn.
    Route1mFanout,
    /// IPsec tunnel encapsulation of Abilene-mix frames, 2 ports.
    IpsecAbilene,
    /// The `Fwd64b` graph under the multi-threaded pull-credit regime.
    Fwd64bPull,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fwd64b,
        Workload::Route1mFanout,
        Workload::IpsecAbilene,
        Workload::Fwd64bPull,
    ];

    /// The command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fwd64b => "fwd_64b",
            Workload::Route1mFanout => "route_1m_fanout",
            Workload::IpsecAbilene => "ipsec_abilene",
            Workload::Fwd64bPull => "fwd_64b_pull",
        }
    }

    /// The workloads `BENCHMARK.json` gates on. `ipsec_abilene` is left
    /// out: on the reference host its whole-run throughput flips between
    /// a fast and a slow mode (0.045 vs 0.06 Mpps), so its run-to-run
    /// spread can exceed the largest bound a gated metric may have.
    /// `fwd_64b` is left out so the other two get the longest runs a
    /// full check's time budget allows: `route_1m_fanout` needs them,
    /// and the layers `fwd_64b` measures are measured on both others.
    pub const GATED: [Workload; 2] = [Workload::Route1mFanout, Workload::Fwd64bPull];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Poll batching `kp` on every workload (Table 1's tuned corner).
pub const KP: usize = 32;
/// NIC batching `kn` on every workload.
pub const KN: usize = 16;
/// An untraced run's closed loop is cut into this many segments, with
/// router builds timed after each, so `setup_s` samples the whole run.
pub const SETUP_POINTS: usize = 8;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement time budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Shrunken inputs for the benchmark's own tests.
    pub smoke: bool,
}

/// The fixed shape of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Router ports.
    pub ports: usize,
    /// Prefixes in the synthetic RIB (0 = no FIB).
    pub routes: usize,
    /// Frame-size distribution.
    pub sizes: SizeDist,
    /// Open-loop offered rate in packets/s: about half the median
    /// saturation rate measured on the reference host (see README).
    pub open_loop_pps: f64,
    /// Share of closed-loop windows the reported throughput is sustained
    /// in: high where the host's slow and fast periods split the windows
    /// into two modes far apart (the rate then comes from the slow mode
    /// in nearly every run), one half where the windows form one mode
    /// with a long low tail (README, "Why these statistics").
    pub sustained_in: f64,
    /// Router builds timed at each of [`SETUP_POINTS`] in an untraced
    /// run (plus the first build).
    pub builds_per_point: usize,
    /// Distinct frames the generator cycles through.
    pub frames: usize,
    /// Distinct destinations the generator cycles through (0 = the
    /// frames keep their own).
    pub dsts: usize,
}

impl Plan {
    /// The workload's shape (shrunk in smoke mode).
    pub fn spec(&self) -> Spec {
        let mut spec = match self.workload {
            Workload::Fwd64b | Workload::Fwd64bPull => Spec {
                ports: 2,
                routes: 0,
                sizes: SizeDist::worst_case(),
                open_loop_pps: if self.workload == Workload::Fwd64b {
                    600_000.0
                } else {
                    400_000.0
                },
                sustained_in: if self.workload == Workload::Fwd64b {
                    0.9
                } else {
                    0.5
                },
                builds_per_point: 13,
                frames: 4096,
                dsts: 0,
            },
            Workload::Route1mFanout => Spec {
                ports: 32,
                routes: 1_000_000,
                sizes: SizeDist::worst_case(),
                open_loop_pps: 250_000.0,
                sustained_in: 0.95,
                builds_per_point: 1,
                frames: 1,
                // 2^20 random destinations: TBL24 reads spread over the
                // whole 32 MiB table, far past the L2 cache.
                dsts: 1 << 20,
            },
            Workload::IpsecAbilene => Spec {
                ports: 2,
                routes: 0,
                sizes: SizeDist::abilene(),
                open_loop_pps: 24_000.0,
                sustained_in: 0.9,
                builds_per_point: 13,
                frames: 4096,
                dsts: 0,
            },
        };
        if self.smoke {
            spec.routes = spec.routes.min(20_000);
            spec.builds_per_point = 1;
            spec.dsts = spec.dsts.min(4096);
        }
        spec
    }

    /// The router builder for this workload (routing table supplied by
    /// the caller for `route_1m_fanout`).
    pub fn builder(&self, table: Option<&RouteTable>, telemetry: TelemetryLevel) -> RouterBuilder {
        let spec = self.spec();
        let base = match self.workload {
            Workload::Fwd64b | Workload::Fwd64bPull => RouterBuilder::minimal_forwarder(),
            Workload::Route1mFanout => RouterBuilder::ip_router()
                .rcu_fib(true)
                .routes_from_table(table.expect("route workload needs a table").clone()),
            Workload::IpsecAbilene => RouterBuilder::ipsec_gateway(),
        };
        let b = base
            .ports(spec.ports)
            .batch_size(KP)
            .nic_batch(KN)
            .keep_tx_frames(true)
            .telemetry(telemetry);
        if self.workload == Workload::Fwd64bPull {
            b.workers(1).regime(Regime::PullCredit)
        } else {
            b
        }
    }
}
