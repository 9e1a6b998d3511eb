//! A deterministic simulated internet for DNS measurement.
//!
//! The paper surveyed the live Internet; this crate is the substitute
//! substrate: a lossless message-passing network of nameserver endpoints
//! where a server can be taken down, the one fault the paper's outage
//! replays need.
//!
//! * [`addr`] — address blocks and deterministic IPv4 allocation;
//! * [`fault`] — the fault plan: the dead-server set, adjustable mid-run,
//!   e.g. to simulate the paper's "denial of service attack on the
//!   non-vulnerable nameserver";
//! * [`net`] — the network itself: endpoint registry and query delivery.
//!
//! The network models availability, not time: a query is answered or it
//! is not, and nothing keeps a clock or counts traffic. Everything is
//! synchronous and draws no randomness: the same sequence of calls
//! replays byte-for-byte.

#![forbid(unsafe_code)]

pub mod addr;
pub mod fault;
pub mod net;

pub use addr::{IpAllocator, Region};
pub use fault::FaultPlan;
pub use net::{Endpoint, SimNet};
