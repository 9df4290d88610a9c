//! The benchmark's own checks, on shrunken inputs (`Plan::smoke`): every
//! metric present, finite and with a unit; the traced layers plus the
//! residual summing to the untraced whole; `BENCHMARK.json` agreeing
//! with the metric tables; allocation counts that repeat exactly. The
//! per-check corrupted-frame tests live next to the checks
//! (`src/checks.rs`).

use perfbench::alloc::CountingAlloc;
use perfbench::report::{END_TO_END, LAYERS, PER_LAYER, RESIDUAL_BOUND};
use perfbench::{run, Outcome, Plan, Workload};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs are serialised: allocation counting is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let _one_at_a_time = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let out = run(&Plan {
        workload,
        seed,
        seconds: 0.4,
        trace,
        smoke: true,
    });
    assert!(
        out.correct,
        "{} failed a check: {:?}",
        workload.name(),
        out.failure
    );
    out
}

fn assert_complete(out: &Outcome, table: &[(&str, &str)], what: &str) {
    assert_eq!(
        out.metrics.len(),
        table.len(),
        "{what}: exactly the listed metrics"
    );
    for (name, unit) in table {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("{what}: {name} missing"));
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
        assert_eq!(m.unit, *unit, "{what}: {name} unit");
        assert!(!m.unit.is_empty());
    }
    let json = out.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(!json.contains("null"), "{what}: non-finite value in {json}");
}

#[test]
fn every_metric_is_present_finite_and_has_a_unit() {
    for w in Workload::ALL {
        let e2e = smoke(w, 11, false);
        assert_complete(&e2e, END_TO_END, w.name());
        assert!(e2e.attempted > 0 && e2e.failed == 0);
        for (name, _) in END_TO_END {
            assert!(e2e.get(name).unwrap() > 0.0, "{}: {name} is 0", w.name());
        }
        assert_complete(&smoke(w, 11, true), PER_LAYER, w.name());
    }
}

#[test]
fn layers_plus_residual_sum_to_the_whole() {
    for w in Workload::ALL {
        let out = smoke(w, 12, true);
        let whole = out.get("untraced_ns_per_pkt").unwrap();
        let residual = out.get("residual_ns_per_pkt").unwrap();
        let layers: f64 = LAYERS
            .iter()
            .map(|l| out.get(&format!("{l}.self_ns_per_pkt")).unwrap())
            .sum();
        assert!(
            (layers + residual - whole).abs() <= 1e-9 * whole,
            "{}: {layers} + {residual} != {whole}",
            w.name()
        );
        for l in LAYERS {
            let v = out.get(&format!("{l}.self_ns_per_pkt")).unwrap();
            assert!(v >= 0.0, "{}: {l} self time {v} ns is negative", w.name());
        }
        assert!(
            residual.abs() <= RESIDUAL_BOUND * whole,
            "{}: residual {residual} ns beyond {RESIDUAL_BOUND} of {whole} ns",
            w.name()
        );
    }
}

#[test]
fn allocation_counts_repeat_exactly() {
    for w in [Workload::Fwd64b, Workload::IpsecAbilene] {
        let a = smoke(w, 13, true);
        let b = smoke(w, 13, true);
        let allocs = a.get("packet.allocs_per_pkt").unwrap();
        assert_eq!(
            allocs,
            b.get("packet.allocs_per_pkt").unwrap(),
            "{}",
            w.name()
        );
        assert_eq!(
            a.get("packet.alloc_bytes_per_pkt").unwrap(),
            b.get("packet.alloc_bytes_per_pkt").unwrap()
        );
        if w == Workload::IpsecAbilene {
            // `seal` returns a Vec and the tunnel frame is a fresh buffer.
            assert!(allocs >= 2.0, "IPsec allocates per packet: {allocs}");
        }
    }
}

#[test]
fn benchmark_json_lists_the_same_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        // The benchmark directory on its own, without the repository.
        return;
    };
    let squeezed: String = text.split_whitespace().collect();
    let section = |from: &str, to: &str| -> String {
        let start = squeezed.find(from).expect("section present");
        let end = squeezed[start..]
            .find(to)
            .map_or(squeezed.len(), |e| start + e);
        squeezed[start..end].to_string()
    };
    let workloads = section("\"workloads\":", "\"end_to_end\":");
    let e2e = section("\"end_to_end\":", "\"per_layer\":");
    let layers = section("\"per_layer\":", "]}");
    assert_eq!(workloads.matches("\"name\"").count(), Workload::GATED.len());
    for w in Workload::GATED {
        assert!(
            workloads.contains(&format!("{{\"name\":\"{}\",", w.name())),
            "{} not in BENCHMARK.json",
            w.name()
        );
    }
    let entry = |name: &str, unit: &str| format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
    for (name, unit) in END_TO_END {
        assert!(
            e2e.contains(&entry(name, unit)),
            "{name} ({unit}) not end-to-end"
        );
    }
    for (name, unit) in PER_LAYER {
        assert!(
            layers.contains(&entry(name, unit)),
            "{name} ({unit}) not per-layer"
        );
    }
    assert_eq!(e2e.matches("\"name\"").count(), END_TO_END.len());
    assert_eq!(layers.matches("\"name\"").count(), PER_LAYER.len());
}
