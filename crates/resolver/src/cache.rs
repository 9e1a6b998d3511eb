//! A TTL-driven record cache on simulated time.
//!
//! The paper notes that "while DNS uses glue records, which provide cached
//! IP addresses for nameservers, as an optimization, glue records are not
//! authoritative" — caching changes *which* servers are contacted on a given
//! run, but not the dependency structure. The resolver always runs with
//! this cache, and so does the survey prober: its chain walks query every
//! zone cut's servers directly and record each full NS set, so the cache
//! only shortens the nameserver-address lookups in between.

use perils_dns::name::DnsName;
use perils_dns::rr::{Record, RrType};
use std::collections::HashMap;

/// A cache keyed by `(name, type)` holding records with absolute expiry in
/// simulated milliseconds.
#[derive(Debug, Default)]
pub struct Cache {
    entries: HashMap<(DnsName, RrType), CacheEntry>,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    records: Vec<Record>,
    expires_at_ms: u64,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new() -> Cache {
        Cache::default()
    }

    /// Stores `records` under `(name, rtype)` with the smallest record TTL.
    pub fn put(&mut self, name: &DnsName, rtype: RrType, records: Vec<Record>, now_ms: u64) {
        if records.is_empty() {
            return;
        }
        let ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0) as u64;
        self.entries.insert(
            (name.to_lowercase(), rtype),
            CacheEntry {
                records,
                expires_at_ms: now_ms + ttl * 1000,
            },
        );
    }

    /// Fetches unexpired records.
    pub fn get(&mut self, name: &DnsName, rtype: RrType, now_ms: u64) -> Option<Vec<Record>> {
        let key = (name.to_lowercase(), rtype);
        match self.entries.get(&key) {
            Some(entry) if entry.expires_at_ms > now_ms => {
                self.hits += 1;
                Some(entry.records.clone())
            }
            Some(_) => {
                self.entries.remove(&key);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Number of live + expired entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_dns::name::name;
    use perils_dns::rr::RData;

    fn a_record(owner: &str, ttl: u32) -> Record {
        Record::new(name(owner), ttl, RData::A("10.0.0.1".parse().unwrap()))
    }

    #[test]
    fn put_get_within_ttl() {
        let mut cache = Cache::new();
        cache.put(
            &name("www.x.com"),
            RrType::A,
            vec![a_record("www.x.com", 60)],
            0,
        );
        assert!(cache.get(&name("www.x.com"), RrType::A, 59_999).is_some());
        assert!(
            cache.get(&name("WWW.X.COM"), RrType::A, 1).is_some(),
            "case-insensitive"
        );
        assert_eq!(cache.stats().0, 2);
    }

    #[test]
    fn expiry_evicts() {
        let mut cache = Cache::new();
        cache.put(
            &name("www.x.com"),
            RrType::A,
            vec![a_record("www.x.com", 60)],
            0,
        );
        assert!(cache.get(&name("www.x.com"), RrType::A, 60_000).is_none());
        assert!(cache.is_empty(), "expired entry removed");
    }

    #[test]
    fn min_ttl_governs_set() {
        let mut cache = Cache::new();
        cache.put(
            &name("x.com"),
            RrType::A,
            vec![a_record("x.com", 300), a_record("x.com", 10)],
            0,
        );
        assert!(cache.get(&name("x.com"), RrType::A, 9_999).is_some());
        assert!(cache.get(&name("x.com"), RrType::A, 10_000).is_none());
    }

    #[test]
    fn type_is_part_of_key() {
        let mut cache = Cache::new();
        cache.put(&name("x.com"), RrType::A, vec![a_record("x.com", 60)], 0);
        assert!(cache.get(&name("x.com"), RrType::Ns, 0).is_none());
    }

    #[test]
    fn empty_set_not_stored() {
        let mut cache = Cache::new();
        cache.put(&name("x.com"), RrType::A, vec![], 0);
        assert!(cache.is_empty());
    }
}
