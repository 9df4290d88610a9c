//! Metric names, units and the result line.

/// End-to-end metrics (`--trace 0`), with units, as `BENCHMARK.json`
/// lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mpps", "Mpps"),
    ("throughput_gbps", "Gbps"),
    ("delivered_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Element classes whose Cycles-telemetry rows are reported.
pub const STAGE_CLASSES: [&str; 8] = [
    "FromDevice",
    "CheckIPHeader",
    "Counter",
    "DecIPTTL",
    "LookupIPRoute",
    "IpsecEncap",
    "Queue",
    "ToDevice",
];

/// Per-layer metrics (`--trace 1`), with units, as `BENCHMARK.json`
/// lists them. The `*.self_ns_per_pkt` rows plus `residual_ns_per_pkt`
/// sum to `untraced_ns_per_pkt`; a layer off a workload's path reports
/// 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("untraced_ns_per_pkt", "ns"),
    ("residual_ns_per_pkt", "ns"),
    ("telemetry.overhead_ratio", "ratio"),
    ("loss_ratio", "ratio"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("gen.self_ns_per_pkt", "ns"),
    ("gen.inject_ns_per_pkt", "ns"),
    ("gen.drain_ns_per_pkt", "ns"),
    ("gen.lag_p99_us", "us"),
    ("gen.latency_samples", "count"),
    ("click.self_ns_per_pkt", "ns"),
    ("click.quanta_per_pkt", "count"),
    ("click.empty_quantum_ratio", "ratio"),
    ("click.quantum_ns", "ns"),
    ("click.batch_mean", "count"),
    ("click.queue_peak_depth", "count"),
    ("click.queue_drops", "count"),
    ("click.stage.FromDevice.cycles_per_pkt", "cycles"),
    ("click.stage.CheckIPHeader.cycles_per_pkt", "cycles"),
    ("click.stage.Counter.cycles_per_pkt", "cycles"),
    ("click.stage.DecIPTTL.cycles_per_pkt", "cycles"),
    ("click.stage.LookupIPRoute.cycles_per_pkt", "cycles"),
    ("click.stage.IpsecEncap.cycles_per_pkt", "cycles"),
    ("click.stage.Queue.cycles_per_pkt", "cycles"),
    ("click.stage.ToDevice.cycles_per_pkt", "cycles"),
    ("packet.self_ns_per_pkt", "ns"),
    ("packet.parse_checksum_ns", "ns"),
    ("packet.ttl_update_ns", "ns"),
    ("packet.pool_cycle_ns", "ns"),
    ("packet.allocs_per_pkt", "count"),
    ("packet.alloc_bytes_per_pkt", "bytes"),
    ("nic.self_ns_per_pkt", "ns"),
    ("nic.ring_ns_per_pkt", "ns"),
    ("nic.doorbells_per_pkt", "count"),
    ("nic.desc_stalls_per_pkt", "count"),
    ("nic.model_share", "ratio"),
    ("lookup.self_ns_per_pkt", "ns"),
    ("lookup.batch_ns_per_dst", "ns"),
    ("lookup.pin_ns", "ns"),
    ("lookup.compile_s", "s"),
    ("lookup.fib_mem_mb", "MiB"),
    ("lookup.miss_ratio", "ratio"),
    ("lookup.route_update_p50_ms", "ms"),
    ("crypto.self_ns_per_pkt", "ns"),
    ("crypto.seal_fixed_ns", "ns"),
    ("crypto.seal_ns_per_byte", "ns"),
    ("regime.self_ns_per_pkt", "ns"),
    ("regime.credit_stalls_per_pkt", "count"),
    ("regime.ring_hop_ns_per_batch", "ns"),
    ("regime.run_ns_per_pkt", "ns"),
];

/// The `*.self_ns_per_pkt` layers the residual is taken against.
pub const LAYERS: [&str; 7] = [
    "gen", "click", "packet", "nic", "lookup", "crypto", "regime",
];

/// Largest `|residual_ns_per_pkt| / untraced_ns_per_pkt` the smoke tests
/// accept. `gen`, `click` and `regime` self times are measured on the
/// traced run; `packet`, `nic`, `lookup` and `crypto` are outside-in
/// replays. So the residual is the cost of tracing itself (Cycles
/// telemetry inside the router) plus the replays' error against the
/// in-router element time they stand for.
pub const RESIDUAL_BOUND: f64 = 0.5;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in [`END_TO_END`] / [`PER_LAYER`].
    pub name: &'static str,
    /// Unit, from the same table.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// A checked run's result.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Frames offered.
    pub attempted: u64,
    /// Frames offered but not delivered plus failed checks.
    pub failed: u64,
    /// The first failed check, if any.
    pub failure: Option<String>,
    /// Measurements, in table order.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `value` under `name`, taking the unit from the metric
    /// tables.
    ///
    /// # Panics
    ///
    /// Panics on a name the tables do not list.
    pub fn put(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .copied()
            .unwrap_or_else(|| panic!("unlisted metric {name}"));
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric { name, unit, value });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Sorts metrics into table order.
    pub fn sort(&mut self) {
        let rank = |n: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .position(|(m, _)| *m == n)
                .unwrap_or(usize::MAX)
        };
        self.metrics.sort_by_key(|m| rank(m.name));
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` printed with all its digits (shortest round-trip
/// form); non-finite values print as `null`, which the tests reject.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
