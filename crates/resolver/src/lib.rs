//! Iterative DNS resolution over the simulated internet, with full
//! delegation-chain tracing.
//!
//! This is the measurement instrument of the reproduction: the paper
//! "queried DNS for these names and recorded the chain of nameservers that
//! are involved in their resolution" (§3). The resolver here does exactly
//! that:
//!
//! * [`iterative`] — walks referrals from the root hints, failing over
//!   across NS sets, chasing CNAMEs, resolving **glueless** nameserver
//!   names through recursive sub-resolutions (the mechanism that creates
//!   transitive trust), with cycle detection and a query budget;
//! * [`trace`] — the per-resolution record of every zone, server and
//!   sub-resolution touched;
//! * [`probe`] — the survey prober: discovers the *complete* NS closure of
//!   a name by systematically enumerating every zone's NS set and every
//!   nameserver name's own delegation chain, plus `version.bind`
//!   fingerprinting of each discovered server.

#![forbid(unsafe_code)]

pub mod iterative;
pub mod probe;
pub mod trace;

pub use iterative::{IterativeResolver, Resolution, ResolveError, ResolverConfig};
pub use probe::{ChainProber, DependencyReport};
pub use trace::{ResolutionTrace, TraceStep};
