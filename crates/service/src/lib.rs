//! TCB-as-a-service: the long-running query daemon behind `perilsd`.
//!
//! The batch CLIs answer "what is this name's trusted computing base,
//! and is it hijackable?" by re-running a whole survey. This crate keeps
//! a built world warm instead: a [`snapshot::WorldSnapshot`] bundles the
//! [`perils_core::universe::Universe`], its
//! [`perils_core::closure::DependencyIndex`], the shared
//! [`perils_core::lint::LintIndex`] facts and the cached figure sweep
//! behind one atomically swappable `Arc`, and a [`daemon::Daemon`]
//! serves per-name queries out of it at interactive latency over a
//! minimal HTTP/1.0-subset protocol on [`std::net::TcpListener`] — no
//! async runtime, vendor shims only.
//!
//! Three planes:
//!
//! * **data** — `GET /name/<name>` (closure, TCB tally, min-cut,
//!   hijackable verdict, per-subject lint diagnostics with evidence
//!   chains), `GET /zone/<zone>`, `GET /names`, `GET /figures` (the
//!   cached sweep). Responses are byte-identical for a fixed snapshot
//!   at every `--threads` choice — the repo's standing determinism
//!   contract extends to the wire.
//! * **control** — `POST /reload` rebuilds the next snapshot from the
//!   streamed [`perils_survey::engine::WorldSource`] path on a
//!   dedicated thread and swaps it in without blocking readers
//!   (admission-gated to one pending rebuild; excess posts answer
//!   `409`); `POST /shutdown` drains queued connections and exits.
//! * **observability** — `GET /healthz`, `GET /metrics` (Prometheus
//!   text exposition; every field is documented in `OBSERVABILITY.md`).

#![forbid(unsafe_code)]

pub mod daemon;
pub mod http;
pub mod metrics;
pub mod query;
pub mod snapshot;

pub use daemon::{Daemon, ServeSummary, ServiceConfig};
pub use metrics::{Endpoint, Metrics};
pub use perils_survey::WorldSpec;
pub use snapshot::{SnapshotStats, SnapshotStore, WorldSnapshot};
