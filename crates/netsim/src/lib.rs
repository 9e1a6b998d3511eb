//! A deterministic simulated internet for DNS measurement.
//!
//! The paper surveyed the live Internet; this crate is the substitute
//! substrate: a message-passing network of nameserver endpoints with
//! explicit, reproducible fault injection (packet drops, dead servers,
//! latency), in the spirit of smoltcp's fault-injection knobs.
//!
//! * [`addr`] — regions and deterministic IPv4 allocation;
//! * [`fault`] — the fault plan: drop probability, dead-server set,
//!   latency model (all adjustable mid-run, e.g. to simulate the paper's
//!   "denial of service attack on the non-vulnerable nameserver");
//! * [`net`] — the network itself: endpoint registry and query delivery
//!   with per-query statistics.
//!
//! Everything is synchronous and deterministic: given the same seed and the
//! same sequence of calls, a simulation replays byte-for-byte.

#![forbid(unsafe_code)]

pub mod addr;
pub mod fault;
pub mod net;

pub use addr::{IpAllocator, Region};
pub use fault::FaultPlan;
pub use net::{Endpoint, FnEndpoint, NetStats, QueryOutcome, SimNet};
