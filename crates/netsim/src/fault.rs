//! Fault injection: which servers are down.
//!
//! The paper's threat analysis turns on availability events — "a denial
//! of service attack on the non-vulnerable nameserver" (§3.2). The fault
//! plan models exactly that: a set of dead servers, adjustable mid-run,
//! that receive nothing and answer nothing.

use std::collections::HashSet;
use std::net::Ipv4Addr;

/// The failure model consulted on every delivery: the servers that are
/// down (DoS'd, crashed, or unplugged).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    dead: HashSet<Ipv4Addr>,
}

impl FaultPlan {
    /// Marks `addr` as down.
    pub fn kill(&mut self, addr: Ipv4Addr) {
        self.dead.insert(addr);
    }

    /// Whether `addr` is currently down.
    pub fn is_dead(&self, addr: Ipv4Addr) -> bool {
        self.dead.contains(&addr)
    }
}
