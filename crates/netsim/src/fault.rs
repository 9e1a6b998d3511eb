//! Fault injection: which servers are down, and the latency model.
//!
//! The paper's threat analysis turns on availability events — "a denial
//! of service attack on the non-vulnerable nameserver" (§3.2). The fault
//! plan models exactly that: a set of dead servers, adjustable mid-run,
//! that receive nothing and answer nothing. Latency is a fixed function
//! of region distance.

use crate::addr::Region;
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// One-way latency in milliseconds between hosts in one region.
const BASE_LATENCY_MS: u32 = 5;
/// Additional one-way latency per unit of region distance.
const DISTANCE_LATENCY_MS: u32 = 120;

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

/// Round-trip latency between two regions.
pub(crate) fn rtt_ms(from: Region, to: Region) -> u32 {
    let distance = from.distance(to);
    2 * (BASE_LATENCY_MS + (distance * DISTANCE_LATENCY_MS as f64) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_distance() {
        let near = rtt_ms(Region(1), Region(1));
        let mid = rtt_ms(Region(1), Region(2));
        let far = rtt_ms(Region(1), Region(40));
        assert!(near < mid);
        assert!(mid < far);
        assert_eq!(near, 2 * BASE_LATENCY_MS);
    }
}
