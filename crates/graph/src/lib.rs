//! Directed-graph substrate for delegation-graph analysis.
//!
//! This crate is a small, self-contained graph library (in place of
//! `petgraph`) providing exactly what the transitive-trust analysis needs:
//!
//! * [`digraph`] — an arena-based directed graph with dense [`NodeId`]s;
//! * [`csr`] — immutable compressed-sparse-row adjacency for build-once
//!   read-many graphs (the survey's dependency index);
//! * [`bitset`] — a fixed-capacity bitset used for reachability sets, plus
//!   a deduplicating set interner for memoized sub-closures;
//! * [`traversal`] — BFS/DFS, topological sort, reachability and transitive
//!   closure;
//! * [`scc`] — Tarjan strongly-connected components, numbered reverse
//!   topologically (delegation graphs contain cycles: zones serving each
//!   other);
//! * [`flow`] — Dinic max-flow and **minimum s–t vertex cuts** via node
//!   splitting, the primitive behind the paper's "bottleneck nameserver"
//!   analysis (Figure 7).

#![forbid(unsafe_code)]

pub mod bitset;
pub mod csr;
pub mod digraph;
pub mod flow;
pub mod scc;
pub mod traversal;

pub use bitset::{BitSet, BitSetInterner, SetId, SetTable};
pub use csr::{Csr, CsrBuilder};
pub use digraph::{DiGraph, NodeId};
pub use flow::{FlowNetwork, VertexCut};
