//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints every metric by name with its unit, then one JSON result line
//! (`correct`, `attempted`, `failed`, `metrics`) as the last line of
//! stdout. Exits non-zero when a correctness check fails. `--workload
//! all` runs every workload untraced and traced, each in its own process
//! so `peak_rss_mb` is per workload.

use perfbench::alloc::CountingAlloc;
use perfbench::{Outcome, Plan, Workload};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <fwd_64b|route_1m_fanout|ipsec_abilene|fwd_64b_pull|all> \
     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 8.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn print(workload: &str, trace: bool, out: &Outcome) {
    println!(
        "== {workload} ({}) ==",
        if trace {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        }
    );
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &out.metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "correct={} attempted={} failed={}{}",
        out.correct,
        out.attempted,
        out.failed,
        out.failure
            .as_deref()
            .map(|f| format!(" first failure: {f}"))
            .unwrap_or_default()
    );
}

/// Runs every workload, untraced then traced, each in a child process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let child = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{}: cannot run: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&child.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            for line in &lines[..lines.len().saturating_sub(1)] {
                println!("{line}");
            }
            let last = lines.last().copied().unwrap_or("");
            let field = |key: &str| {
                last.split(&format!("\"{key}\": "))
                    .nth(1)
                    .and_then(|r| r.split([',', '}']).next())
                    .and_then(|v| v.trim().parse::<u64>().ok())
            };
            attempted += field("attempted").unwrap_or(0);
            failed += field("failed").unwrap_or(0);
            all_ok &= child.status.success() && last.starts_with("{\"correct\": true");
        }
    }
    println!("{{\"correct\": {all_ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let plan = Plan {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let out = perfbench::run(&plan);
    print(workload.name(), plan.trace, &out);
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
