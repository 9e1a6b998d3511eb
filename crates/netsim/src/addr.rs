//! Regions and deterministic address allocation.
//!
//! A [`Region`] is a coarse geographic location (the survey uses it to
//! model cross-country delegation — e.g. a Ukrainian zone slaved at a
//! university in Australia — and to derive latency). Addressing is flat
//! and deterministic: region `r` owns the `/16`-like block `r+1 . * . *`,
//! and hosts are numbered sequentially within it.

use std::fmt;
use std::net::Ipv4Addr;

/// A coarse geographic region, identified by a small integer.
///
/// The topology generator assigns labels (country/area names); netsim only
/// needs identity and a distance metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Region(pub u16);

impl Region {
    /// A crude inter-region distance in [0, 1]: 0 for same region, growing
    /// with id distance (the generator assigns nearby ids to nearby
    /// regions).
    pub fn distance(self, other: Region) -> f64 {
        if self == other {
            0.0
        } else {
            let d = (self.0 as i32 - other.0 as i32).unsigned_abs() as f64;
            (0.2 + d / 32.0).min(1.0)
        }
    }
}

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

    /// The region that owns `addr`, per the allocation plan.
    pub fn region_of(addr: Ipv4Addr) -> Region {
        let value = u32::from(addr);
        Region(((value >> 16).saturating_sub(1)) as u16)
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
        assert_ne!(ip1, ip2);
        assert_ne!(ip1, ip3);
        assert_eq!(IpAllocator::region_of(ip1), r0);
        assert_eq!(IpAllocator::region_of(ip2), r0);
        assert_eq!(IpAllocator::region_of(ip3), r1);
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
    fn distance_properties() {
        let r = Region(5);
        assert_eq!(r.distance(r), 0.0);
        assert!(r.distance(Region(6)) > 0.0);
        assert!(r.distance(Region(6)) <= r.distance(Region(30)));
        assert!(r.distance(Region(200)) <= 1.0);
        // Symmetry.
        assert_eq!(r.distance(Region(9)), Region(9).distance(r));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn region_bound_enforced() {
        IpAllocator::new().alloc(Region(255));
    }
}
