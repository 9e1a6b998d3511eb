//! Graph primitives for delegation-graph analysis, over implicit
//! adjacency: the product builds no graph object.
//!
//! This crate is a small, self-contained library (in place of `petgraph`)
//! providing exactly what the transitive-trust analysis needs:
//!
//! * [`bitset`] — a fixed-capacity bitset used for reachability sets, plus
//!   a deduplicating set interner for memoized sub-closures;
//! * [`scc`] — Tarjan strongly-connected components, numbered reverse
//!   topologically (delegation graphs contain cycles: zones serving each
//!   other), over any implicit adjacency;
//! * [`flow`] — a flat Dinic max-flow network whose residual source side
//!   yields the **minimum s–t vertex cuts** behind the paper's
//!   "bottleneck nameserver" analysis (Figure 7).
//!
//! The arena graph, its traversals and the graph-object vertex cut that
//! tests compare these against live in the dev-only `perils-oracle` crate.

#![forbid(unsafe_code)]

pub mod bitset;
pub mod flow;
pub mod scc;

pub use bitset::{BitSet, BitSetInterner, SetId, SetTable};
pub use flow::FlowNetwork;
