//! Transitive-trust analysis of DNS — the paper's contribution.
//!
//! Everything here operates on a [`Universe`]: the zone → NS-set mapping
//! plus per-server software facts, however obtained (structurally from a
//! [`perils_dns::ZoneRegistry`], or from wire-probed
//! `perils_resolver::DependencyReport`s — integration tests verify the two
//! agree).
//!
//! * [`universe`] — the analysis model: zones, servers, vulnerability
//!   overlay;
//! * [`closure`] — per-name dependency closures: the delegation graph's
//!   node set, i.e. the **trusted computing base** (§2);
//! * [`tcb`] — TCB statistics per name: size, nameowner-administered
//!   servers, vulnerable servers, %-safe (Figures 2, 3, 4, 5, 6);
//! * [`usable`] — the glue-aware reachability fixed point: which zones
//!   remain cleanly resolvable once a server set is compromised/DoS'd;
//! * [`hijack`] — complete-hijack analysis: the paper's min-cut of the
//!   flattened delegation graph (wired as a flow network, no graph object)
//!   and an exact AND/OR branch-and-bound, with the safe-bottleneck counts
//!   of Figure 7;
//! * [`value`] — names-controlled-per-server ranking (Figures 8, 9);
//! * [`metric`] — the pluggable per-name measurement API ([`NameMetric`]):
//!   the survey engine's extension point, with the paper's measurements as
//!   built-in metrics;
//! * [`attack`] — multi-stage attack simulation (the fbi.gov escalation),
//!   including DoS-assisted hijacks;
//! * [`dnssec`] — the §5 argument made quantitative: signing stops
//!   forgery but not denial;
//! * [`misconfig`] — configuration-error audits (single-homed zones,
//!   unresolvable NS, glueless cycles, deep dependency nesting);
//! * [`zombie`] — zombie-delegation analysis: names whose NS sets resolve
//!   only to dead/unreachable infrastructure;
//! * [`lint`] — the delegation lint engine: per-subject diagnostics with
//!   evidence chains, driven by a pluggable [`LintRule`] registry.

#![forbid(unsafe_code)]

pub mod attack;
pub mod closure;
pub mod dnssec;
pub mod hijack;
pub mod lint;
pub mod metric;
pub mod misconfig;
mod namemap;
pub mod snapshot;
pub mod tcb;
pub mod universe;
pub mod usable;
pub mod value;
pub mod zombie;

pub use closure::{ClosureView, ClosureWorkspace, DependencyIndex};
pub use dnssec::DnssecCoverageMetric;
pub use hijack::HijackSet;
pub use lint::{
    Arg, At, Diagnostic, EvidenceStep, LintCtx, LintError, LintIndex, LintRule, Message, Note,
    RuleRegistry, Severity, SeverityOverrides, Subject, Text,
};
pub use metric::{
    ColumnKind, Measure, MeasureCtx, MetricColumn, MinCutMetric, NameMetric, Row, TcbMetric,
    ValueMetric,
};
pub use misconfig::{DepthIndex, MisconfigIndex, MisconfigMetric};
pub use tcb::TcbTally;
pub use universe::{
    registry_events, ServerEntry, ServerId, Universe, UniverseBuilder, UniverseEvent, ZoneEntry,
    ZoneId,
};
pub use value::ValueIndex;
pub use zombie::{ZombieDelegationMetric, ZombieIndex};
