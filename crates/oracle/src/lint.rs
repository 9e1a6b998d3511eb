//! The serial lint run: the reference the sharded survey runner must
//! agree with.

use perils_core::closure::DependencyIndex;
use perils_core::lint::{Diagnostic, LintCtx, LintIndex, RuleRegistry};
use perils_core::universe::{ServerId, Universe, ZoneId};
use perils_dns::name::DnsName;

/// Runs every registered rule serially over the full universe, one
/// [`LintCtx`] spanning every zone, server and name. Diagnostics carry
/// the rules' default severities.
pub fn check_universe(
    universe: &Universe,
    index: &DependencyIndex,
    facts: &LintIndex,
    registry: &RuleRegistry,
    names: &[DnsName],
) -> Vec<Diagnostic> {
    let zones: Vec<ZoneId> = universe.zone_ids().collect();
    let servers: Vec<ServerId> = universe.server_ids().collect();
    let ctx = LintCtx {
        universe,
        index,
        facts,
        zones: &zones,
        servers: &servers,
        names,
    };
    registry.iter().flat_map(|rule| rule.check(&ctx)).collect()
}
