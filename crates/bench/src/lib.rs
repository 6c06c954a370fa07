//! # sdn-bench
//!
//! Experiment harnesses reproducing the paper's evaluation (see
//! `DESIGN.md` §3 and `EXPERIMENTS.md` at the workspace root):
//!
//! | binary                | experiment |
//! |-----------------------|------------|
//! | `exp_fig1`            | E1 — the Figure 1 scenario end to end |
//! | `exp_update_time`     | E2 — flow-table update time vs latency × algorithm |
//! | `exp_rounds_scaling`  | E3 — rounds vs path length (Peacock vs SLF) |
//! | `exp_violations`      | E4 — transient violations, one-shot vs scheduled |
//! | `exp_barrier_overhead`| E5 — barrier cost decomposition, loss sensitivity |
//! | `exp_ablation`        | E6 — orderings, oracles, FIFO, sub-schedulers |
//! | `exp_concurrent_updates` | E7 — concurrent runtime: throughput, backpressure, adaptive RTO |
//! | `exp_connection_scaling` | E8 — the live transport at scale |
//! | `exp_fault_recovery`  | E9 — convergence under control-plane failure |
//! | `exp_shard_scaling`   | E10 — sharded fabric scaling vs cross-shard tax |
//! | `exp_observability`   | E12 — observability overhead and flight-recorder fidelity |
//! | `bench_check`         | CI perf-regression gate over the JSON exports |
//!
//! Machine-readable exports all flow through [`export::Export`] — one
//! shared schema, read by the `bench_check` gate on E3's wall-clock
//! baseline. The virtual-time experiments are deterministic and are
//! gated byte for byte instead (`ci/exp_digests.sh`). The workload E7,
//! E9, E10 and E12 share lives in [`workload`].
//!
//! Criterion micro-benchmarks live in `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
mod json;
pub mod regression;
pub mod stats;
pub mod table;
pub mod workload;

pub use export::{Export, Record};
pub use stats::Summary;
pub use table::Table;
