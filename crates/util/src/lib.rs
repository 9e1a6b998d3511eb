//! Deterministic utility substrate for the `perils` workspace.
//!
//! Everything in this crate is self-contained and fully deterministic: the
//! survey results in the paper reproduction must be bit-identical across runs
//! and across library upgrades, so we ship our own PRNG and distribution
//! samplers instead of depending on `rand` (whose stream guarantees change
//! between major versions).
//!
//! Modules:
//!
//! * [`rng`] — SplitMix64 seeding and the xoshiro256** generator, with
//!   unbiased range sampling and deterministic stream forking.
//! * [`dist`] — a Zipf sampler and an alias table for weighted discrete
//!   choice.
//! * [`stats`] — descriptive statistics, empirical CDFs and log-binned
//!   rank curves used to render the paper's figures.
//! * [`table`] — ASCII table and CSV rendering (string-based, IO-free).
//! * [`json`] — hand-rolled JSON string escaping and a minimal syntax
//!   validator (the workspace serializes JSON without serde).
//! * [`snapshot`] — the `.psa` flat snapshot archive container: versioned,
//!   checksummed little-endian sections with typed corruption errors.
//! * [`bytestore`] — heap and demand-paged byte backends plus the word
//!   views snapshot decoders serve archives through.
//! * [`cli`] — the argv reader and exit-2 usage errors of the binaries.
//! * [`par`] — the one data-parallel primitive: contiguous ranges on
//!   scoped workers, joined in range order, and the default thread count.

#![forbid(unsafe_code)]

pub mod bytestore;
pub mod cli;
pub mod dist;
pub mod json;
pub mod par;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod table;

pub use bytestore::{ByteStore, CacheCounters, U32View};
pub use dist::{AliasTable, ZipfTable};
pub use json::push_json_string;
pub use rng::Rng;
pub use snapshot::{Archive, ArchiveWriter, Dec, Section, SnapshotError, StoreDec};
pub use stats::{Cdf, RankCurve, Summary};
pub use table::{Align, Table};

/// The process's peak resident set (`VmHWM` from `/proc/self/status`),
/// in MiB. `None` off Linux or when the field is unreadable. Used by the
/// CLIs and the benchmark harness to report memory high-water marks
/// next to wall-times.
pub fn peak_rss_mb() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
}
