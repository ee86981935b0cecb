//! `eta-bench` — the experiment harness.
//!
//! Regenerates every table and figure of the paper's evaluation section:
//! run `cargo run --release -p eta-bench --bin report -- all` (or a single
//! artifact name such as `table3` or `fig7`; add `--quick` to restrict to
//! the small datasets). Host-time measurement lives in the repository's
//! `benchmark/` harness.
//!
//! The mapping from paper artifact to generator function is in DESIGN.md's
//! per-experiment index; EXPERIMENTS.md records paper-vs-measured values.

pub mod chaos;
pub mod extras;
pub mod faults_report;
pub mod figs;
pub mod hosttime;
pub mod lint_report;
pub mod overload;
pub mod profile_report;
pub mod sanitize;
pub mod serve_report;
pub mod shard;
pub mod stats;
pub mod suite;
pub mod tables;
pub mod text;
pub mod transfer;

pub use suite::{datasets_for, CellOutcome, Suite};
