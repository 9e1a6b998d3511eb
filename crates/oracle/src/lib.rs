//! Reference models for tests: the obvious, graph-object way of computing
//! what the product computes over implicit structure, each the independent
//! side of a differential test. Nothing here is on a product path, and the
//! crate is named only in `[dev-dependencies]` (CI checks both):
//! [`digraph`] (an arena graph) with its [`traversal`]s and [`flow`]
//! (vertex cuts by node splitting); the paper's flattened [`delegation`]
//! graph and its Graphviz Figure 1; the BFS [`closure`] and extracted
//! sub-universes; and the serial [`lint`] run.

#![forbid(unsafe_code)]

pub mod closure;
pub mod delegation;
pub mod digraph;
pub mod flow;
pub mod lint;
pub mod traversal;

pub use delegation::{DelegationGraph, DelegationNode};
pub use digraph::{DiGraph, NodeId};
