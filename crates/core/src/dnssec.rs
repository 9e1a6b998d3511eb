//! DNSSEC coverage of a name's trusted computing base (the paper's §5).
//!
//! "Deployment of DNSSEC can help, but DNSSEC continues to rely on the
//! same physical delegation chains as DNS during lookups. While DNSSEC
//! enables detection of integrity violations, malicious agents could
//! still easily disrupt name service."
//!
//! Denial needs no model of its own: an attacker who owns a server set
//! denies a name exactly when [`crate::attack::AttackSim::assess`] calls
//! the hijack `complete` with nothing DoS'd, signed or not. Forgery with
//! nothing signed is its `partial`; with everything signed it is
//! impossible by definition. What remains here is the coverage metric
//! under the root+TLD rollout.

use crate::metric::{columns, ColumnKind, Measure, NameMetric};
use crate::universe::Universe;

/// DNSSEC coverage of each name's TCB as a pluggable survey metric, under
/// the root+TLD "islands of security" rollout: the fraction of the name's
/// closure zones that are signed (`dnssec_signed_fraction`) and whether
/// its own chain of trust is unbroken (`dnssec_chain_protected`, 0/1).
#[derive(Debug, Clone, Copy)]
pub struct DnssecCoverageMetric;

impl DnssecCoverageMetric {
    /// Coverage under the root+TLD "islands of security" rollout.
    pub fn top_level() -> DnssecCoverageMetric {
        DnssecCoverageMetric
    }
}

impl NameMetric for DnssecCoverageMetric {
    fn id(&self) -> &str {
        "dnssec_coverage"
    }

    fn columns(&self) -> Vec<(&str, ColumnKind)> {
        vec![
            (columns::DNSSEC_SIGNED_FRACTION, ColumnKind::Floats),
            (columns::DNSSEC_CHAIN_PROTECTED, ColumnKind::Counts),
        ]
    }

    fn prepare<'a>(&'a self, universe: &'a Universe) -> Measure<'a> {
        // The rollout signs the root and every one-label zone.
        let signed: Vec<bool> = universe
            .zone_ids()
            .map(|z| universe.zone(z).origin.label_count() <= 1)
            .collect();
        Box::new(move |ctx, row| {
            let total = ctx.closure.zone_count();
            let covered = ctx.closure.zones().filter(|z| signed[z.index()]).count();
            row.float(if total == 0 {
                0.0
            } else {
                covered as f64 / total as f64
            });
            let chain = ctx.closure.target_chain();
            row.count(usize::from(
                !chain.is_empty() && chain.iter().all(|z| signed[z.index()]),
            ));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::tests::provider_universe;
    use crate::metric::tests::measure_targets;
    use perils_dns::name::name;

    #[test]
    fn top_level_policy_signs_root_and_tlds_only() {
        let u = provider_universe();
        // www.com sits in a TLD, whose closure (com, net) is all signed;
        // www.victim.com's chain breaks at the unsigned second level.
        let cols = measure_targets(
            &DnssecCoverageMetric::top_level(),
            &u,
            &[name("www.com"), name("www.victim.com")],
        );
        assert_eq!(cols[0].as_floats().unwrap()[0], 1.0);
        assert_eq!(cols[1].as_counts().unwrap(), &[1, 0]);
    }

    #[test]
    fn coverage_metric_fraction_and_protection() {
        let u = provider_universe();
        let target = [name("www.victim.com")];
        let top = measure_targets(&DnssecCoverageMetric::top_level(), &u, &target);
        // Closure zones (root excluded): com, net, victim.com, provider.net.
        let frac = top[0].as_floats().unwrap()[0];
        assert_eq!(frac, 2.0 / 4.0, "com and net are signed");
        assert_eq!(top[1].as_counts().unwrap()[0], 0, "chain broken below TLD");
    }
}
