//! DNSSEC deployment modeling (the paper's §5 discussion).
//!
//! "Deployment of DNSSEC can help, but DNSSEC continues to rely on the
//! same physical delegation chains as DNS during lookups. While DNSSEC
//! enables detection of integrity violations, malicious agents could
//! still easily disrupt name service."
//!
//! This module makes that argument quantitative. Given a deployment (a set
//! of signed zones with an unbroken chain of trust from the root), an
//! attacker who owns a server set can still:
//!
//! * **forge** resolutions of a name only if some zone on its chain is
//!   *unsigned* (or the chain of trust to it is broken) — DNSSEC removes
//!   these;
//! * **deny** resolutions regardless of signing, by answering garbage or
//!   nothing from every compromised/DoS'd bottleneck — hijack turns into
//!   denial, but the name still goes dark.

use crate::closure::DependencyIndex;
use crate::metric::{columns, MeasureCtx, MetricColumn, MetricShard, NameMetric, PreparedState};
use crate::universe::{ServerId, Universe, ZoneId};
use crate::usable::Reachability;
use perils_dns::name::DnsName;
use std::any::Any;
use std::collections::BTreeSet;

/// A DNSSEC deployment state: which zones are signed.
#[derive(Debug, Clone, Default)]
pub struct DnssecDeployment {
    signed: BTreeSet<ZoneId>,
    root_signed: bool,
}

impl DnssecDeployment {
    /// No zone signed (the 2004 state of the world).
    pub fn none() -> DnssecDeployment {
        DnssecDeployment::default()
    }

    /// Every zone signed, root included (the aspirational end state).
    pub fn universal(universe: &Universe) -> DnssecDeployment {
        DnssecDeployment {
            signed: universe.zone_ids().collect(),
            root_signed: true,
        }
    }

    /// Signs the root (the trust anchor).
    pub fn sign_root(&mut self) {
        self.root_signed = true;
    }

    /// Signs one zone.
    pub fn sign(&mut self, zone: ZoneId) {
        self.signed.insert(zone);
    }

    /// Whether `zone` is signed.
    pub fn is_signed(&self, zone: ZoneId) -> bool {
        self.signed.contains(&zone)
    }

    /// Whether the root anchor exists.
    pub fn root_signed(&self) -> bool {
        self.root_signed
    }

    /// Whether `name` is protected end-to-end: the root anchor exists and
    /// **every** zone on the name's chain is signed (an unsigned link
    /// breaks the chain of trust; everything below it is forgeable).
    pub fn chain_protected(&self, universe: &Universe, name: &DnsName) -> bool {
        self.chain_protected_for(&universe.chain_zones(name))
    }

    /// [`DnssecDeployment::chain_protected`] for an already-computed
    /// delegation chain (e.g. [`crate::closure::ClosureView::target_chain`]
    /// on the survey's allocation-free path).
    pub fn chain_protected_for(&self, chain: &[ZoneId]) -> bool {
        self.root_signed && !chain.is_empty() && chain.iter().all(|z| self.signed.contains(z))
    }
}

/// Per-name outcome under an attacker, with and without DNSSEC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnssecOutcome {
    /// Attacker can serve forged answers that resolvers would accept.
    pub forgeable: bool,
    /// Attacker can prevent successful resolution (no clean path, or
    /// every path answerable only with data that fails validation).
    pub deniable: bool,
}

/// Evaluates what an attacker holding `owned` can do to `target` under
/// `deployment`.
///
/// Forgery requires both reach (some possible resolution path consults an
/// owned server) and a validation gap (the chain of trust does not cover
/// the target). Denial only requires that no clean path remains — signed
/// or not, the paper's point.
pub fn assess_with_dnssec(
    universe: &Universe,
    index: &DependencyIndex,
    deployment: &DnssecDeployment,
    target: &DnsName,
    owned: &BTreeSet<ServerId>,
) -> DnssecOutcome {
    let mut ws = index.workspace();
    let closure = index.closure_view(universe, target, &mut ws);
    let reaches = closure.servers().any(|s| owned.contains(&s));
    let protected = deployment.chain_protected_for(closure.target_chain());
    let reach_clean = Reachability::compute(universe, owned);
    let no_clean_path = !reach_clean.name_resolves(universe, target);
    DnssecOutcome {
        forgeable: reaches && !protected,
        deniable: reaches && no_clean_path,
    }
}

/// Aggregate: over `targets`, how many are forgeable vs deniable under the
/// deployment. This is the §5 comparison — DNSSEC drives `forgeable` to
/// zero while `deniable` is unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DnssecImpact {
    /// Names assessed.
    pub names: usize,
    /// Forgeable names.
    pub forgeable: usize,
    /// Deniable names.
    pub deniable: usize,
}

/// Computes the aggregate impact.
pub fn dnssec_impact(
    universe: &Universe,
    index: &DependencyIndex,
    deployment: &DnssecDeployment,
    targets: &[DnsName],
    owned: &BTreeSet<ServerId>,
) -> DnssecImpact {
    let reach_clean = Reachability::compute(universe, owned);
    let mut impact = DnssecImpact::default();
    let mut ws = index.workspace();
    for target in targets {
        impact.names += 1;
        let closure = index.closure_view(universe, target, &mut ws);
        let reaches = closure.servers().any(|s| owned.contains(&s));
        if !reaches {
            continue;
        }
        if !deployment.chain_protected_for(closure.target_chain()) {
            impact.forgeable += 1;
        }
        if !reach_clean.name_resolves(universe, target) {
            impact.deniable += 1;
        }
    }
    impact
}

/// Which zones a modeled DNSSEC rollout signs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentPolicy {
    /// Nothing signed (the 2004 state of the world).
    None,
    /// Root anchor plus every TLD zone signed — the "islands of security"
    /// transition state where chains of trust stop at the second level.
    TopLevel,
    /// Every zone signed, root included.
    Universal,
}

impl DeploymentPolicy {
    /// Materializes the deployment for `universe`.
    pub fn build(self, universe: &Universe) -> DnssecDeployment {
        match self {
            DeploymentPolicy::None => DnssecDeployment::none(),
            DeploymentPolicy::Universal => DnssecDeployment::universal(universe),
            DeploymentPolicy::TopLevel => {
                let mut deployment = DnssecDeployment::none();
                deployment.sign_root();
                for zid in universe.zone_ids() {
                    if universe.zone(zid).origin.label_count() <= 1 {
                        deployment.sign(zid);
                    }
                }
                deployment
            }
        }
    }
}

/// DNSSEC coverage of each name's TCB as a pluggable survey metric: the
/// fraction of the name's closure zones that are signed
/// (`dnssec_signed_fraction`) and whether its own chain of trust is
/// unbroken (`dnssec_chain_protected`, 0/1). Under any partial deployment
/// the fraction quantifies §5's point: signing shrinks the forgeable
/// surface, yet the closure — the deniable surface — is unchanged.
#[derive(Debug, Clone, Copy)]
pub struct DnssecCoverageMetric {
    /// The modeled rollout.
    pub policy: DeploymentPolicy,
}

impl DnssecCoverageMetric {
    /// Coverage under the root+TLD "islands of security" rollout.
    pub fn top_level() -> DnssecCoverageMetric {
        DnssecCoverageMetric {
            policy: DeploymentPolicy::TopLevel,
        }
    }
}

struct DnssecShard {
    deployment: std::sync::Arc<DnssecDeployment>,
    fraction: Vec<f64>,
    protected: Vec<usize>,
}

impl MetricShard for DnssecShard {
    fn measure(&mut self, ctx: &MeasureCtx<'_>, slot: usize) {
        let total = ctx.closure.zone_count();
        let signed = ctx
            .closure
            .zones()
            .filter(|&z| self.deployment.is_signed(z))
            .count();
        self.fraction[slot] = if total == 0 {
            0.0
        } else {
            signed as f64 / total as f64
        };
        self.protected[slot] = usize::from(
            self.deployment
                .chain_protected_for(ctx.closure.target_chain()),
        );
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl NameMetric for DnssecCoverageMetric {
    fn id(&self) -> &str {
        "dnssec_coverage"
    }

    fn columns(&self) -> Vec<String> {
        vec![
            columns::DNSSEC_SIGNED_FRACTION.into(),
            columns::DNSSEC_CHAIN_PROTECTED.into(),
        ]
    }

    fn prepare(&self, universe: &Universe) -> PreparedState {
        Some(std::sync::Arc::new(self.policy.build(universe)))
    }

    fn shard(
        &self,
        _universe: &Universe,
        shard_len: usize,
        prepared: &PreparedState,
    ) -> Box<dyn MetricShard> {
        let deployment = prepared
            .as_ref()
            .and_then(|p| std::sync::Arc::clone(p).downcast::<DnssecDeployment>().ok())
            .expect("dnssec_coverage shard needs this run's `prepare` output");
        Box::new(DnssecShard {
            deployment,
            fraction: vec![0.0; shard_len],
            protected: vec![0; shard_len],
        })
    }

    fn merge(
        &self,
        _universe: &Universe,
        shards: Vec<Box<dyn MetricShard>>,
    ) -> Vec<(String, MetricColumn)> {
        let mut fraction = Vec::new();
        let mut protected = Vec::new();
        for shard in shards {
            let shard = shard
                .into_any()
                .downcast::<DnssecShard>()
                .unwrap_or_else(|_| panic!("metric dnssec_coverage: foreign shard type"));
            fraction.extend(shard.fraction);
            protected.extend(shard.protected);
        }
        vec![
            (
                columns::DNSSEC_SIGNED_FRACTION.into(),
                MetricColumn::Floats(fraction),
            ),
            (
                columns::DNSSEC_CHAIN_PROTECTED.into(),
                MetricColumn::Counts(protected),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use perils_dns::name::name;

    /// root → com → victim.com, served by a single vulnerable provider.
    fn universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.raw_server(&name("ns.provider.net"), true, false);
        b.add_zone(
            &perils_dns::name::DnsName::root(),
            &[name("a.root-servers.net")],
        );
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        b.add_zone(
            &name("victim.com"),
            &[name("ns1.provider.net"), name("ns2.provider.net")],
        );
        b.add_zone(&name("provider.net"), &[name("ns.provider.net")]);
        b.finish()
    }

    fn owned(u: &Universe) -> BTreeSet<ServerId> {
        [u.server_id(&name("ns.provider.net")).unwrap()]
            .into_iter()
            .collect()
    }

    #[test]
    fn unsigned_world_is_forgeable_and_deniable() {
        let u = universe();
        let index = DependencyIndex::build(&u);
        let deployment = DnssecDeployment::none();
        let outcome =
            assess_with_dnssec(&u, &index, &deployment, &name("www.victim.com"), &owned(&u));
        assert!(outcome.forgeable, "no signatures: attacker forges at will");
        assert!(outcome.deniable, "provider bottleneck owned: no clean path");
    }

    #[test]
    fn universal_dnssec_stops_forgery_not_denial() {
        let u = universe();
        let index = DependencyIndex::build(&u);
        let deployment = DnssecDeployment::universal(&u);
        let outcome =
            assess_with_dnssec(&u, &index, &deployment, &name("www.victim.com"), &owned(&u));
        assert!(
            !outcome.forgeable,
            "signed chain: forgeries fail validation"
        );
        assert!(
            outcome.deniable,
            "§5: malicious agents can still disrupt name service"
        );
    }

    #[test]
    fn broken_chain_reopens_forgery() {
        let u = universe();
        let index = DependencyIndex::build(&u);
        // Sign everything except com: everything below it loses
        // protection.
        let com = u.zone_id(&name("com")).unwrap();
        let mut deployment = DnssecDeployment::none();
        deployment.sign_root();
        for z in u.zone_ids() {
            if z != com {
                deployment.sign(z);
            }
        }
        assert!(!deployment.chain_protected(&u, &name("www.victim.com")));
        let outcome =
            assess_with_dnssec(&u, &index, &deployment, &name("www.victim.com"), &owned(&u));
        assert!(
            outcome.forgeable,
            "an unsigned link breaks the chain of trust"
        );
    }

    #[test]
    fn no_root_anchor_means_no_protection() {
        let u = universe();
        let mut deployment = DnssecDeployment::none();
        for z in u.zone_ids() {
            deployment.sign(z);
        }
        assert!(!deployment.chain_protected(&u, &name("www.victim.com")));
    }

    #[test]
    fn attacker_without_reach_can_do_nothing() {
        let u = universe();
        let index = DependencyIndex::build(&u);
        let deployment = DnssecDeployment::none();
        // An attacker holding nothing can do nothing.
        let outcome = assess_with_dnssec(
            &u,
            &index,
            &deployment,
            &name("www.victim.com"),
            &BTreeSet::new(),
        );
        assert!(!outcome.forgeable && !outcome.deniable);
    }

    #[test]
    fn impact_aggregates() {
        let u = universe();
        let index = DependencyIndex::build(&u);
        let targets = vec![name("www.victim.com"), name("www.unrelated.com")];
        let unsigned = dnssec_impact(&u, &index, &DnssecDeployment::none(), &targets, &owned(&u));
        assert_eq!(unsigned.names, 2);
        assert_eq!(unsigned.forgeable, 1, "only victim.com is reached");
        assert_eq!(unsigned.deniable, 1);
        let signed = dnssec_impact(
            &u,
            &index,
            &DnssecDeployment::universal(&u),
            &targets,
            &owned(&u),
        );
        assert_eq!(signed.forgeable, 0, "DNSSEC removes forgery");
        assert_eq!(
            signed.deniable, 1,
            "denial is untouched — the paper's point"
        );
    }

    #[test]
    fn top_level_policy_signs_root_and_tlds_only() {
        let u = universe();
        let deployment = DeploymentPolicy::TopLevel.build(&u);
        assert!(deployment.root_signed());
        assert!(deployment.is_signed(u.zone_id(&name("com")).unwrap()));
        assert!(!deployment.is_signed(u.zone_id(&name("victim.com")).unwrap()));
        // Chain to www.victim.com breaks at the unsigned second level.
        assert!(!deployment.chain_protected(&u, &name("www.victim.com")));
    }

    #[test]
    fn coverage_metric_fraction_and_protection() {
        let u = universe();
        let index = DependencyIndex::build(&u);
        let target = name("www.victim.com");
        let run = |metric: DnssecCoverageMetric| {
            let prepared = metric.prepare(&u);
            let mut shard = metric.shard(&u, 1, &prepared);
            let mut ws = index.workspace();
            let ctx = MeasureCtx {
                universe: &u,
                index: &index,
                names: 1,
                closure: index.closure_view(&u, &target, &mut ws),
            };
            shard.measure(&ctx, 0);
            metric.merge(&u, vec![shard])
        };
        let universal = run(DnssecCoverageMetric {
            policy: DeploymentPolicy::Universal,
        });
        assert_eq!(universal[0].1.as_floats().unwrap()[0], 1.0);
        assert_eq!(universal[1].1.as_counts().unwrap()[0], 1);
        let top = run(DnssecCoverageMetric::top_level());
        let frac = top[0].1.as_floats().unwrap()[0];
        assert!(frac > 0.0 && frac < 1.0, "partial coverage, got {frac}");
        assert_eq!(
            top[1].1.as_counts().unwrap()[0],
            0,
            "chain broken below TLD"
        );
        let none = run(DnssecCoverageMetric {
            policy: DeploymentPolicy::None,
        });
        assert_eq!(none[0].1.as_floats().unwrap()[0], 0.0);
    }
}
