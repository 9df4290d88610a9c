//! Prometheus text-exposition export of an interval series.
//!
//! Renders the run totals, the latest interval's gauges, the merged
//! latency sketch as a cumulative histogram, and (when graded) the SLO
//! verdict in the Prometheus 0.0.4 text format: every family gets one
//! `# HELP` and one `# TYPE` line, names are unique and well-formed,
//! histogram buckets are cumulative with a trailing `+Inf`. [`lint`]
//! re-checks those invariants so exporters and CI share one definition
//! of "well-formed" (mirrored by `scripts/promlint.sh` for the shell
//! gate).

use crate::events::{EventKind, EventLog};
use crate::json::esc;
use crate::ledger::DropCause;
use crate::slo::SloReport;
use crate::timeseries::TimeSeries;

/// Renders `series` (and optionally its SLO grading) as Prometheus text
/// exposition. `ticks_per_sec` converts sketch ticks to seconds.
pub fn render(series: &TimeSeries, slo: Option<&SloReport>, ticks_per_sec: f64) -> String {
    render_with_events(series, slo, ticks_per_sec, None)
}

/// As [`render`], additionally exporting the structured event journal's
/// per-kind counters and its overflow counter — the exposition the live
/// `/metrics` endpoint serves.
pub fn render_with_events(
    series: &TimeSeries,
    slo: Option<&SloReport>,
    ticks_per_sec: f64,
    events: Option<&EventLog>,
) -> String {
    let mut out = String::with_capacity(4096);
    let led = series.ledger();
    // Run-total counters.
    out.push_str(&header(
        "rb_sourced_packets_total",
        "Packets that entered the dataplane.",
        "counter",
    ));
    out.push_str(&format!("rb_sourced_packets_total {}\n", led.sourced));
    out.push_str(&header(
        "rb_forwarded_packets_total",
        "Packets transmitted out of the router.",
        "counter",
    ));
    out.push_str(&format!("rb_forwarded_packets_total {}\n", led.forwarded));
    out.push_str(&header(
        "rb_tx_bytes_total",
        "Bytes transmitted out of the router.",
        "counter",
    ));
    out.push_str(&format!("rb_tx_bytes_total {}\n", series.tx_bytes()));
    out.push_str(&header(
        "rb_dropped_packets_total",
        "Packets dropped, by cause.",
        "counter",
    ));
    for cause in DropCause::ALL {
        out.push_str(&format!(
            "rb_dropped_packets_total{{cause=\"{}\"}} {}\n",
            cause.as_str(),
            led.dropped(cause)
        ));
    }
    out.push_str(&header(
        "rb_quanta_total",
        "Driver quanta executed.",
        "counter",
    ));
    out.push_str(&format!("rb_quanta_total {}\n", series.quanta()));
    out.push_str(&header(
        "rb_empty_polls_total",
        "Driver quanta that moved no packets.",
        "counter",
    ));
    out.push_str(&format!("rb_empty_polls_total {}\n", series.empty_polls()));
    let totals = series.stage_totals();
    if totals.iter().any(|d| d.polls_work + d.polls_empty > 0) {
        out.push_str(&header(
            "rb_task_polls_total",
            "Driver quanta per scheduler task, by whether the quantum moved packets.",
            "counter",
        ));
        for ((name, _), d) in series.stage_names.iter().zip(totals.iter()) {
            if d.polls_work + d.polls_empty == 0 {
                continue;
            }
            for (result, n) in [("work", d.polls_work), ("empty", d.polls_empty)] {
                out.push_str(&format!(
                    "rb_task_polls_total{{task=\"{}\",result=\"{result}\"}} {n}\n",
                    esc(name)
                ));
            }
        }
    }
    let (credit, nic): (u64, u64) = series.intervals.iter().fold((0, 0), |(c, n), b| {
        (c + b.credit_stalls, n + b.nic_desc_stalls)
    });
    out.push_str(&header(
        "rb_credit_stalls_total",
        "Pull-regime admission stalls.",
        "counter",
    ));
    out.push_str(&format!("rb_credit_stalls_total {credit}\n"));
    out.push_str(&header(
        "rb_nic_desc_stalls_total",
        "NIC descriptor-ring full events.",
        "counter",
    ));
    out.push_str(&format!("rb_nic_desc_stalls_total {nic}\n"));
    out.push_str(&header(
        "rb_intervals_total",
        "Telemetry intervals closed.",
        "counter",
    ));
    out.push_str(&format!("rb_intervals_total {}\n", series.intervals.len()));
    out.push_str(&header(
        "rb_intervals_live_harvested_total",
        "Intervals read while workers were still running.",
        "counter",
    ));
    out.push_str(&format!(
        "rb_intervals_live_harvested_total {}\n",
        series.live_harvested
    ));

    // Per-stage families: the streaming twin of the bottleneck table.
    if !series.stage_names.is_empty() {
        out.push_str(&header(
            "rb_stage_packets_total",
            "Packets dispatched through each element.",
            "counter",
        ));
        for ((name, class), d) in series.stage_names.iter().zip(totals.iter()) {
            out.push_str(&format!(
                "rb_stage_packets_total{{element=\"{}\",class=\"{}\"}} {}\n",
                esc(name),
                esc(class),
                d.packets
            ));
        }
        out.push_str(&header(
            "rb_stage_cycles_total",
            "Cycles spent inside each element's dispatch calls.",
            "counter",
        ));
        for ((name, class), d) in series.stage_names.iter().zip(totals.iter()) {
            out.push_str(&format!(
                "rb_stage_cycles_total{{element=\"{}\",class=\"{}\"}} {}\n",
                esc(name),
                esc(class),
                d.cycles
            ));
        }
        if let Some(last) = series.intervals.last() {
            let interval_cycles: u64 = last.stages.iter().map(|d| d.cycles).sum();
            if interval_cycles > 0 {
                out.push_str(&header(
                    "rb_stage_cycle_share",
                    "Each element's share of dataplane cycles over the latest interval.",
                    "gauge",
                ));
                for ((name, class), d) in series.stage_names.iter().zip(last.stages.iter()) {
                    out.push_str(&format!(
                        "rb_stage_cycle_share{{element=\"{}\",class=\"{}\"}} {:.6}\n",
                        esc(name),
                        esc(class),
                        d.cycles as f64 / interval_cycles as f64
                    ));
                }
            }
        }
    }

    // Latest-interval gauges.
    if let Some(last) = series.intervals.last() {
        out.push_str(&header(
            "rb_interval_pps",
            "Forwarding rate over the latest interval, packets/second.",
            "gauge",
        ));
        out.push_str(&format!("rb_interval_pps {:.3}\n", last.pps(ticks_per_sec)));
        out.push_str(&header(
            "rb_interval_loss_ratio",
            "Drop fraction over the latest interval.",
            "gauge",
        ));
        out.push_str(&format!("rb_interval_loss_ratio {:.6}\n", last.loss_rate()));
        if let Some(p99) = last.latency.quantile(0.99) {
            out.push_str(&header(
                "rb_interval_p99_latency_seconds",
                "Quantum-sketch p99 over the latest interval.",
                "gauge",
            ));
            out.push_str(&format!(
                "rb_interval_p99_latency_seconds {:.9}\n",
                p99 as f64 / ticks_per_sec
            ));
        }
    }

    // The whole-run latency sketch as a cumulative histogram.
    let merged = series.merged_latency();
    if !merged.is_empty() {
        out.push_str(&header(
            "rb_quantum_latency_seconds",
            "Per-quantum processing time, log2-bucketed.",
            "histogram",
        ));
        let mut cumulative = 0u64;
        let mut sum_ticks = 0.0f64;
        for (lo, hi, count) in merged.buckets() {
            cumulative += count;
            sum_ticks += lo as f64 * count as f64;
            out.push_str(&format!(
                "rb_quantum_latency_seconds_bucket{{le=\"{:.9}\"}} {cumulative}\n",
                hi as f64 / ticks_per_sec
            ));
        }
        out.push_str(&format!(
            "rb_quantum_latency_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "rb_quantum_latency_seconds_sum {:.9}\n",
            sum_ticks / ticks_per_sec
        ));
        out.push_str(&format!(
            "rb_quantum_latency_seconds_count {}\n",
            merged.count()
        ));
    }

    // SLO verdict.
    if let Some(report) = slo {
        out.push_str(&header(
            "rb_slo_state",
            "Overall SLO verdict: 0 ok, 1 warning, 2 burning.",
            "gauge",
        ));
        out.push_str(&format!("rb_slo_state {}\n", report.state.severity()));
        out.push_str(&header(
            "rb_slo_burn_rate",
            "Error-budget burn rate per objective and window.",
            "gauge",
        ));
        for o in &report.objectives {
            out.push_str(&format!(
                "rb_slo_burn_rate{{objective=\"{}\",window=\"fast\"}} {:.3}\n",
                o.objective, o.fast_burn
            ));
            out.push_str(&format!(
                "rb_slo_burn_rate{{objective=\"{}\",window=\"slow\"}} {:.3}\n",
                o.objective, o.slow_burn
            ));
        }
    }

    // Structured event journal counters.
    if let Some(log) = events {
        let counts = log.counts();
        out.push_str(&header(
            "rb_events_total",
            "Journaled discrete events, by kind.",
            "counter",
        ));
        for (kind, n) in EventKind::ALL.iter().zip(counts.iter()) {
            out.push_str(&format!(
                "rb_events_total{{kind=\"{}\"}} {n}\n",
                kind.as_str()
            ));
        }
        out.push_str(&header(
            "rb_events_overflow_total",
            "Events lost to ring overwrite before any reader saw them.",
            "counter",
        ));
        out.push_str(&format!("rb_events_overflow_total {}\n", log.overflow));
    }
    out
}

fn header(name: &str, help: &str, kind: &str) -> String {
    format!("# HELP {name} {help}\n# TYPE {name} {kind}\n")
}

/// Base family name of a sample line: the metric name with any
/// histogram suffix stripped.
fn family_of(sample_name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = sample_name.strip_suffix(suffix) {
            return stripped;
        }
    }
    sample_name
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Checks `text` for the exposition-format invariants the exporter
/// promises: unique, well-formed families, `HELP`+`TYPE` before any
/// sample, valid types, and every sample belonging to a declared
/// family. Returns the first violation.
pub fn lint(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashMap<String, String> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !well_formed_name(name) {
                return Err(format!("line {lineno}: malformed family name `{name}`"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {lineno}: invalid type `{kind}` for `{name}`"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for `{name}`"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if helps.insert(name.to_string(), rest.to_string()).is_some() {
                return Err(format!("line {lineno}: duplicate HELP for `{name}`"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // Plain comment.
        }
        // Sample line: name[{labels}] value.
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {lineno}: sample without value: `{line}`"))?;
        let name = &line[..name_end];
        if !well_formed_name(name) {
            return Err(format!("line {lineno}: malformed metric name `{name}`"));
        }
        let fam = family_of(name);
        // A histogram's `_bucket`/`_sum`/`_count` samples belong to the
        // base family; everything else must match exactly.
        let declared = types.contains_key(name) || types.contains_key(fam);
        if !declared {
            return Err(format!("line {lineno}: sample `{name}` has no TYPE"));
        }
        let fam_key = if types.contains_key(name) { name } else { fam };
        if !helps.contains_key(fam_key) {
            return Err(format!("line {lineno}: sample `{name}` has no HELP"));
        }
        let value = line.rsplit(' ').next().unwrap_or("");
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return Err(format!("line {lineno}: non-numeric value `{value}`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloSpec;
    use crate::timeseries::IntervalStats;
    use crate::Log2Histogram;

    fn series() -> TimeSeries {
        let mut intervals = Vec::new();
        for seq in 0..3u64 {
            let mut lat = Log2Histogram::new();
            for _ in 0..5 {
                lat.record(1000 * (seq + 1));
            }
            let mut drops = [0u64; DropCause::COUNT];
            drops[4] = seq; // Some NoRxDescriptor drops.
            intervals.push(IntervalStats {
                seq,
                core: 0,
                start_tick: seq * 1_000_000,
                end_tick: (seq + 1) * 1_000_000,
                quanta: 5,
                empty_polls: 1,
                sourced: 100 + seq,
                forwarded: 100,
                tx_bytes: 6400,
                drops,
                credit_stalls: seq,
                nic_desc_stalls: 0,
                latency: lat,
                stages: vec![
                    crate::StageDelta {
                        packets: 100,
                        cycles: 900,
                        polls_work: 4,
                        polls_empty: 1,
                    },
                    crate::StageDelta {
                        packets: 100,
                        cycles: 100,
                        ..crate::StageDelta::default()
                    },
                ],
            });
        }
        TimeSeries {
            interval_ticks: 1_000_000,
            live_harvested: 2,
            stage_names: vec![
                ("rx".to_string(), "FromDevice".to_string()),
                ("tx".to_string(), "ToDevice".to_string()),
            ],
            intervals,
        }
    }

    #[test]
    fn exposition_lints_clean_and_carries_totals() {
        let s = series();
        let spec = SloSpec::parse("loss:0.5/floor:1").unwrap();
        let report = SloReport::evaluate(&spec, &s.intervals, 1e9);
        let text = render(&s, Some(&report), 1e9);
        lint(&text).expect("exporter output must lint clean");
        assert!(text.contains("rb_sourced_packets_total 303"), "{text}");
        assert!(text.contains("rb_forwarded_packets_total 300"));
        assert!(
            text.contains("rb_dropped_packets_total{cause=\"no_rx_descriptor\"} 3"),
            "{text}"
        );
        assert!(text.contains("rb_slo_state 0"));
        assert!(text.contains("rb_quantum_latency_seconds_bucket{le=\"+Inf\"} 15"));
        assert!(text.contains("rb_intervals_live_harvested_total 2"));
        assert!(
            text.contains("rb_stage_packets_total{element=\"rx\",class=\"FromDevice\"} 300"),
            "{text}"
        );
        assert!(
            text.contains("rb_stage_cycles_total{element=\"tx\",class=\"ToDevice\"} 300"),
            "{text}"
        );
        assert!(
            text.contains("rb_stage_cycle_share{element=\"rx\",class=\"FromDevice\"} 0.900000"),
            "{text}"
        );
        // Per-task poll efficiency, summed over intervals; a stage that
        // never ran as a task gets no series.
        assert!(
            text.contains("rb_task_polls_total{task=\"rx\",result=\"work\"} 12"),
            "{text}"
        );
        assert!(
            text.contains("rb_task_polls_total{task=\"rx\",result=\"empty\"} 3"),
            "{text}"
        );
        assert!(!text.contains("rb_task_polls_total{task=\"tx\""), "{text}");
    }

    #[test]
    fn event_counters_export_and_lint() {
        use crate::events::{Event, EventKind, EventLog};
        let mut log = EventLog::default();
        log.events.push(Event {
            seq: 0,
            core: 0,
            tick: 10,
            kind: EventKind::CreditStallStart,
            arg: 1,
        });
        log.events.push(Event {
            seq: 1,
            core: 0,
            tick: 20,
            kind: EventKind::CreditStallEnd,
            arg: 4,
        });
        log.overflow = 3;
        let text = render_with_events(&series(), None, 1e9, Some(&log));
        lint(&text).expect("event-counter exposition lints");
        assert!(
            text.contains("rb_events_total{kind=\"credit_stall_start\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rb_events_total{kind=\"slo_transition\"} 0"),
            "zero kinds still exported: {text}"
        );
        assert!(text.contains("rb_events_overflow_total 3"), "{text}");
    }

    #[test]
    fn exposition_without_slo_still_lints() {
        let text = render(&series(), None, 1e9);
        lint(&text).expect("no-SLO output lints");
        assert!(!text.contains("rb_slo_state"));
    }

    #[test]
    fn empty_series_renders_minimal_but_valid_output() {
        let text = render(&TimeSeries::default(), None, 1e9);
        lint(&text).expect("empty series output lints");
        assert!(text.contains("rb_sourced_packets_total 0"));
        assert!(!text.contains("rb_interval_pps"), "no latest interval");
        assert!(!text.contains("rb_quantum_latency_seconds"), "no sketch");
    }

    #[test]
    fn lint_rejects_malformed_exposition() {
        assert!(lint("rb_x 1\n").is_err(), "sample without TYPE");
        assert!(
            lint("# TYPE rb_x counter\nrb_x 1\n").is_err(),
            "sample without HELP"
        );
        assert!(
            lint("# HELP rb_x x.\n# TYPE rb_x counter\n# TYPE rb_x counter\nrb_x 1\n").is_err(),
            "duplicate TYPE"
        );
        assert!(
            lint("# HELP rb_x x.\n# TYPE rb_x widget\nrb_x 1\n").is_err(),
            "invalid type"
        );
        assert!(
            lint("# HELP 9bad x.\n# TYPE 9bad counter\n9bad 1\n").is_err(),
            "malformed name"
        );
        assert!(
            lint("# HELP rb_x x.\n# TYPE rb_x counter\nrb_x pancake\n").is_err(),
            "non-numeric value"
        );
        let ok = "# HELP rb_x x.\n# TYPE rb_x counter\nrb_x{cause=\"a\"} 1\nrb_x{cause=\"b\"} 2\n";
        lint(ok).expect("labelled samples of one family are fine");
    }

    #[test]
    fn histogram_suffixes_resolve_to_base_family() {
        let text = "# HELP rb_h h.\n# TYPE rb_h histogram\n\
                    rb_h_bucket{le=\"1\"} 1\nrb_h_bucket{le=\"+Inf\"} 2\nrb_h_sum 3\nrb_h_count 2\n";
        lint(text).expect("histogram sample suffixes lint");
    }
}
