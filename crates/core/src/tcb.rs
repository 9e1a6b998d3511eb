//! Per-name TCB statistics (§3.1, §3.2; Figures 2–6).

use crate::closure::ClosureView;
use crate::universe::Universe;

/// The per-name numbers every figure consumes, tallied straight off a
/// borrowed closure view — the form the survey engine's
/// [`crate::TcbMetric`] records per name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcbTally {
    /// TCB size (root servers excluded).
    pub tcb_size: usize,
    /// Servers administered by the nameowner: TCB members whose host name
    /// lies inside the name's own zone (the paper reports 2.2 on average).
    pub nameowner_administered: usize,
    /// TCB members with known vulnerabilities (Figure 5).
    pub vulnerable: usize,
    /// TCB members with scripted full-compromise exploits.
    pub scripted_vulnerable: usize,
}

impl TcbTally {
    /// Tallies a closure. The nameowner's zone is the deepest zone on the
    /// target's own chain; a name with no chain has no nameowner-run
    /// server.
    pub fn compute(universe: &Universe, view: &ClosureView<'_>) -> TcbTally {
        let own_zone = view
            .target_chain()
            .last()
            .map(|&z| &universe.zone(z).origin);
        let mut tally = TcbTally {
            tcb_size: 0,
            nameowner_administered: 0,
            vulnerable: 0,
            scripted_vulnerable: 0,
        };
        for sid in view.servers() {
            let server = universe.server(sid);
            if server.is_root {
                continue;
            }
            tally.tcb_size += 1;
            if own_zone.is_some_and(|own| server.name.is_subdomain_of(own)) {
                tally.nameowner_administered += 1;
            }
            if server.vulnerable {
                tally.vulnerable += 1;
            }
            if server.scripted_exploit {
                tally.scripted_vulnerable += 1;
            }
        }
        tally
    }

    /// Fraction of the TCB with no known vulnerability, in percent
    /// (Figure 6's "safety of TCB"). 100% for an empty TCB.
    pub fn safety_percent(&self) -> f64 {
        if self.tcb_size == 0 {
            100.0
        } else {
            100.0 * (self.tcb_size - self.vulnerable) as f64 / self.tcb_size as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::DependencyIndex;
    use crate::universe::Universe;
    use perils_dns::name::{name, DnsName};

    fn universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.raw_server(&name("offsite.provider.net"), true, false);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        b.add_zone(
            &name("example.com"),
            &[
                name("ns1.example.com"),
                name("ns2.example.com"),
                name("offsite.provider.net"),
            ],
        );
        b.add_zone(&name("provider.net"), &[name("offsite.provider.net")]);
        b.finish()
    }

    /// The tally of `target`'s closure.
    fn tally(u: &Universe, target: &str) -> TcbTally {
        let index = DependencyIndex::build(u);
        let target = name(target);
        TcbTally::compute(u, &index.closure_view(u, &target, &mut index.workspace()))
    }

    #[test]
    fn stats_fields() {
        let stats = tally(&universe(), "www.example.com");
        assert_eq!(stats.tcb_size, 3, "root excluded; ns1, ns2, offsite");
        assert_eq!(stats.nameowner_administered, 2, "ns1 and ns2 are in-domain");
        assert_eq!(stats.tcb_size - stats.nameowner_administered, 1, "offsite");
        assert_eq!(stats.vulnerable, 1);
        let expected = 100.0 * 2.0 / 3.0;
        assert!((stats.safety_percent() - expected).abs() < 1e-9);
    }

    #[test]
    fn clean_name_has_full_safety() {
        let mut b = Universe::builder();
        b.add_zone(&name("com"), &[name("tld.nic.com")]);
        b.add_zone(&name("clean.com"), &[name("ns.clean.com")]);
        let stats = tally(&b.finish(), "www.clean.com");
        assert_eq!(stats.vulnerable, 0);
        assert_eq!(stats.safety_percent(), 100.0);
    }

    #[test]
    fn empty_tcb_is_fully_safe() {
        let stats = tally(&Universe::builder().finish(), "nowhere.test");
        assert_eq!(stats.tcb_size, 0);
        assert_eq!(stats.safety_percent(), 100.0);
    }
}
