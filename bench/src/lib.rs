//! The repo's benchmark harness: two workloads over one seeded world,
//! end-to-end metrics from real processes with tracing off, per-layer
//! metrics from a separate traced pass that times calls into the crates'
//! public functions. `BENCHMARK.json` at the repo root is its contract;
//! `README.md` beside this crate explains the workloads and metrics.

#![forbid(unsafe_code)]

pub mod batch;
pub mod cli;
pub mod replay;
pub mod report;
pub mod run;
pub mod serve;
pub mod trace;
pub mod util;
pub mod world;
