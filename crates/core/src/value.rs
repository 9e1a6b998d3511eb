//! Nameserver value: names controlled per server (§3.3, Figures 8 and 9).
//!
//! "We model the value of a nameserver as being proportional to the number
//! of domain names which depend on that nameserver." The survey driver
//! feeds every surveyed name's closure into a [`ValueIndex`]; the index
//! then answers the ranking questions: the rank curve, the number of
//! servers controlling more than a given share of the namespace, and the
//! `.edu`/`.org`/vulnerable sub-rankings.

use crate::closure::ClosureView;
use crate::universe::{ServerId, Universe};
use perils_dns::name::DnsName;

/// Accumulates names-controlled counts across a survey.
#[derive(Debug, Clone)]
pub struct ValueIndex {
    controlled: Vec<u64>,
    names_seen: u64,
}

impl ValueIndex {
    /// Creates an index sized for `universe`.
    pub fn new(universe: &Universe) -> ValueIndex {
        ValueIndex {
            controlled: vec![0; universe.server_count()],
            names_seen: 0,
        }
    }

    /// Accounts `names` surveyed names that share one closure (each TCB
    /// member controls every one of them).
    pub fn record(&mut self, universe: &Universe, closure: &ClosureView<'_>, names: u64) {
        self.names_seen += names;
        for sid in closure.servers() {
            if !universe.server(sid).is_root {
                self.controlled[sid.index()] += names;
            }
        }
    }

    /// Merges another index (for parallel sharding).
    ///
    /// # Panics
    ///
    /// Panics if the indexes were built over different universes.
    pub fn merge(&mut self, other: &ValueIndex) {
        assert_eq!(
            self.controlled.len(),
            other.controlled.len(),
            "universe mismatch"
        );
        for (a, b) in self.controlled.iter_mut().zip(&other.controlled) {
            *a += b;
        }
        self.names_seen += other.names_seen;
    }

    /// Number of surveyed names recorded.
    pub fn names_seen(&self) -> u64 {
        self.names_seen
    }

    /// Names controlled by `server`.
    pub fn controlled_by(&self, server: ServerId) -> u64 {
        self.controlled[server.index()]
    }

    /// All `(server, count)` pairs with non-zero counts, descending by
    /// count (ties by id for determinism).
    pub fn ranking(&self) -> Vec<(ServerId, u64)> {
        let mut pairs: Vec<(ServerId, u64)> = self
            .controlled
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (ServerId(i as u32), c))
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        pairs
    }

    /// Ranking restricted by a server predicate (e.g. vulnerable only,
    /// `.edu` only).
    pub fn ranking_where(
        &self,
        universe: &Universe,
        mut predicate: impl FnMut(&crate::universe::ServerEntry) -> bool,
    ) -> Vec<(ServerId, u64)> {
        self.ranking()
            .into_iter()
            .filter(|(sid, _)| predicate(universe.server(*sid)))
            .collect()
    }

    /// Ranking restricted to servers whose host name falls under `tld`
    /// (Figure 9's `.edu` / `.org` curves).
    pub fn ranking_in_tld(&self, universe: &Universe, tld: &DnsName) -> Vec<(ServerId, u64)> {
        self.ranking_where(universe, |s| s.name.is_subdomain_of(tld))
    }

    /// Number of servers controlling strictly more than `fraction` of the
    /// surveyed names (the paper: ~125 servers control >10%).
    pub fn servers_controlling_more_than(&self, fraction: f64) -> usize {
        let threshold = (self.names_seen as f64 * fraction).floor() as u64;
        self.controlled.iter().filter(|&&c| c > threshold).count()
    }

    /// Gini coefficient of the names-controlled distribution over servers
    /// with non-zero counts — a single number for §3.3's
    /// "disproportionate" control claim (0 = uniform, →1 = fully
    /// concentrated).
    pub fn gini(&self) -> f64 {
        let mut counts: Vec<u64> = self.controlled.iter().copied().filter(|&c| c > 0).collect();
        if counts.len() < 2 {
            return 0.0;
        }
        counts.sort_unstable();
        let n = counts.len() as f64;
        let total: f64 = counts.iter().map(|&c| c as f64).sum();
        if total == 0.0 {
            return 0.0;
        }
        let weighted: f64 = counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 + 1.0) * c as f64)
            .sum();
        (2.0 * weighted) / (n * total) - (n + 1.0) / n
    }

    /// Mean and median names-controlled over servers with non-zero counts
    /// (the paper: mean 166, median 4).
    pub fn mean_median(&self) -> (f64, f64) {
        let counts: Vec<u64> = self.controlled.iter().copied().filter(|&c| c > 0).collect();
        if counts.is_empty() {
            return (0.0, 0.0);
        }
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        let mut sorted = counts;
        sorted.sort_unstable();
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2] as f64
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) as f64 / 2.0
        };
        (mean, median)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::DependencyIndex;
    use crate::universe::Universe;
    use perils_dns::name::{name, DnsName};

    /// A fresh index with the closure of each of `targets` recorded.
    fn recorded(u: &Universe, targets: &[&str]) -> ValueIndex {
        let index = DependencyIndex::build(u);
        let mut ws = index.workspace();
        let mut value = ValueIndex::new(u);
        for target in targets {
            let target = name(target);
            value.record(u, &index.closure_view(u, &target, &mut ws), 1);
        }
        value
    }

    fn universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.raw_server(&name("ns.evil.edu"), true, false);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("tld.nic.com")]);
        b.add_zone(&name("edu"), &[name("tld.nic.com")]);
        // Two com names hosted at an edu server; one self-hosted.
        b.add_zone(&name("a.com"), &[name("ns.evil.edu")]);
        b.add_zone(&name("b.com"), &[name("ns.evil.edu")]);
        b.add_zone(&name("c.com"), &[name("ns.c.com")]);
        b.finish()
    }

    #[test]
    fn counts_and_ranking() {
        let u = universe();
        let value = recorded(&u, &["www.a.com", "www.b.com", "www.c.com"]);
        assert_eq!(value.names_seen(), 3);
        let tld = u.server_id(&name("tld.nic.com")).unwrap();
        let evil = u.server_id(&name("ns.evil.edu")).unwrap();
        let selfhost = u.server_id(&name("ns.c.com")).unwrap();
        assert_eq!(
            value.controlled_by(tld),
            3,
            "TLD server controls everything"
        );
        assert_eq!(value.controlled_by(evil), 2);
        assert_eq!(value.controlled_by(selfhost), 1);

        let ranking = value.ranking();
        assert_eq!(ranking[0].0, tld);
        assert_eq!(ranking[1].0, evil);

        // .edu-restricted ranking (Figure 9).
        let edu = value.ranking_in_tld(&u, &name("edu"));
        assert_eq!(edu.len(), 1);
        assert_eq!(edu[0], (evil, 2));

        // Vulnerable-only ranking (Figure 8's second series).
        let vulnerable = value.ranking_where(&u, |s| s.vulnerable);
        assert_eq!(vulnerable, vec![(evil, 2)]);
    }

    #[test]
    fn share_thresholds() {
        let u = universe();
        let value = recorded(&u, &["www.a.com", "www.b.com", "www.c.com"]);
        // Controlling > 50% of 3 names means > 1.5 → ≥ 2 names.
        assert_eq!(value.servers_controlling_more_than(0.5), 2, "tld + evil");
        assert_eq!(value.servers_controlling_more_than(0.9), 1, "tld only");
        let (mean, median) = value.mean_median();
        assert!((mean - 2.0).abs() < 1e-12, "(3+2+1)/3");
        assert_eq!(median, 2.0);
    }

    #[test]
    fn gini_concentration() {
        let u = universe();
        let value = recorded(&u, &["www.a.com", "www.b.com", "www.c.com"]);
        let g = value.gini();
        // Counts are {3, 2, 1}: moderate concentration.
        assert!((0.0..1.0).contains(&g), "gini {g}");
        assert!((g - 2.0 / 9.0).abs() < 1e-9, "gini {g}");
        // A fresh index has no concentration.
        assert_eq!(ValueIndex::new(&u).gini(), 0.0);
    }

    #[test]
    fn merge_combines_shards() {
        let u = universe();
        let mut a = recorded(&u, &["www.a.com"]);
        let b = recorded(&u, &["www.b.com"]);
        a.merge(&b);
        assert_eq!(a.names_seen(), 2);
        let evil = u.server_id(&name("ns.evil.edu")).unwrap();
        assert_eq!(a.controlled_by(evil), 2);
    }

    #[test]
    fn weighted_record_equals_repeated_records() {
        let u = universe();
        let index = DependencyIndex::build(&u);
        let mut ws = index.workspace();
        let target = name("www.a.com");
        let mut weighted = ValueIndex::new(&u);
        weighted.record(&u, &index.closure_view(&u, &target, &mut ws), 3);
        let repeated = recorded(&u, &["www.a.com", "mail.a.com", "www.a.com"]);
        assert_eq!(weighted.names_seen(), 3);
        assert_eq!(weighted.ranking(), repeated.ranking());
    }

    #[test]
    fn root_servers_not_counted() {
        let u = universe();
        let value = recorded(&u, &["www.a.com"]);
        let root = u.server_id(&name("a.root-servers.net")).unwrap();
        assert_eq!(value.controlled_by(root), 0);
    }
}
