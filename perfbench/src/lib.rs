//! Seeded end-to-end and per-layer benchmark of the RouteBricks dataplane.
//!
//! One binary runs four workloads against the public API (`routebricks`
//! builder, `rb_click` runtime, `rb_lookup`, `rb_crypto`, `rb_packet`,
//! `rb_workload`). Every input is generated from `--seed`; every output
//! is checked. An untraced run (`--trace 0`) reports the end-to-end
//! metrics; a traced run (`--trace 1`) of the same workload and seed
//! reports the per-layer decomposition, timed from outside each layer's
//! public functions. See `perfbench/README.md` for the metric map.

pub mod alloc;
pub mod checks;
pub mod drive;
pub mod feed;
pub mod layers;
pub mod pull;
pub mod report;
pub mod st;
pub mod stats;
pub mod workload;

pub use report::{Metric, Outcome};
pub use workload::{Plan, Workload};

/// Runs one workload per `plan` and returns its checked outcome.
pub fn run(plan: &Plan) -> Outcome {
    match plan.workload {
        Workload::Fwd64bPull => pull::run(plan),
        _ => st::run(plan),
    }
}
