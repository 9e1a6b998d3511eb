//! Address blocks and deterministic address allocation.
//!
//! A [`Region`] names the address block a host is numbered in; the
//! topology generator gives each country or area its own. Addressing is
//! flat and deterministic: region `r` owns the 65,536 addresses
//! `0 . r+1 . * . *`, and hosts are numbered sequentially within it.

use std::fmt;
use std::net::Ipv4Addr;

/// An address block, identified by a small integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Region(pub u16);

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// Deterministic IPv4 allocation: one block per region, sequential hosts.
#[derive(Debug, Clone, Default)]
pub struct IpAllocator {
    next_host: std::collections::HashMap<u16, u32>,
}

/// Number of host addresses available per region block.
pub const HOSTS_PER_REGION: u32 = 1 << 16;

impl IpAllocator {
    /// Creates an allocator.
    pub fn new() -> IpAllocator {
        IpAllocator::default()
    }

    /// Allocates the next address in `region`'s block.
    ///
    /// # Panics
    ///
    /// Panics when a region block is exhausted (65,536 hosts) or the region
    /// id exceeds 254 — generous bounds for the survey sizes used here.
    pub fn alloc(&mut self, region: Region) -> Ipv4Addr {
        assert!(
            region.0 < 255,
            "region id {} too large for the address plan",
            region.0
        );
        let host = self.next_host.entry(region.0).or_insert(0);
        assert!(
            *host < HOSTS_PER_REGION,
            "region {region} address block exhausted"
        );
        *host += 1;
        let value: u32 = ((region.0 as u32 + 1) << 16) | (*host - 1);
        Ipv4Addr::from(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_sequential_and_disjoint() {
        let mut a = IpAllocator::new();
        let r0 = Region(0);
        let r1 = Region(1);
        let ip1 = a.alloc(r0);
        let ip2 = a.alloc(r0);
        let ip3 = a.alloc(r1);
        assert_eq!(ip1, Ipv4Addr::new(0, 1, 0, 0));
        assert_eq!(ip2, Ipv4Addr::new(0, 1, 0, 1));
        assert_eq!(ip3, Ipv4Addr::new(0, 2, 0, 0));
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = IpAllocator::new();
        let mut b = IpAllocator::new();
        for _ in 0..10 {
            assert_eq!(a.alloc(Region(3)), b.alloc(Region(3)));
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn region_bound_enforced() {
        IpAllocator::new().alloc(Region(255));
    }
}
