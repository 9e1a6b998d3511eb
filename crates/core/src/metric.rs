//! The pluggable per-name measurement API.
//!
//! The paper's contribution is a *family* of per-name measurements over a
//! delegation universe — TCB size, nameowner/vulnerable members, min-cuts,
//! value ranking — and follow-on workloads (misconfiguration audits, DNSSEC
//! deployment sweeps) have the same shape: walk every surveyed name's
//! dependency closure once, record numbers, aggregate. This module is that
//! shape as a trait, so the survey engine can run any set of measurements
//! in one sharded pass without being rewritten per workload:
//!
//! * [`NameMetric`] — a measurement family: declares its output columns,
//!   creates shard-local accumulators, and deterministically merges them;
//! * [`MetricShard`] — the accumulator one worker thread owns; `measure` is
//!   called once per *deepest zone* with the precomputed [`MeasureCtx`]:
//!   every name under one zone has the same chain and therefore the same
//!   closure, so the engine computes that closure **once** per zone,
//!   shares it with every registered metric, and gathers the zone's row
//!   back to each of its names;
//! * [`MetricColumn`] — the merged, columnar output: per-name counts or
//!   floats, or a universe-wide aggregate like [`ValueIndex`];
//! * built-ins [`TcbMetric`], [`MinCutMetric`] and [`ValueMetric`] re-derive
//!   the six seed measurements; [`crate::misconfig::MisconfigMetric`] and
//!   [`crate::dnssec::DnssecCoverageMetric`] extend the family.
//!
//! Determinism contract: shards receive contiguous ranges of the batch's
//! zone groups (in first-occurrence survey order) and `merge` sees them in
//! that same order, so per-group columns concatenate to exactly the
//! sequential result regardless of thread count. Aggregate metrics must
//! make their own merge order-insensitive (as `ValueIndex`'s commutative
//! sum is) and weigh each measurement by [`MeasureCtx::names`].

use crate::closure::{ClosureView, DependencyIndex};
use crate::hijack::min_cut_flattened_view;
use crate::tcb::TcbTally;
use crate::universe::Universe;
use crate::value::ValueIndex;
use std::any::Any;

/// Canonical column ids of the built-in metrics.
pub mod columns {
    /// TCB size per name (root servers excluded).
    pub const TCB_SIZE: &str = "tcb_size";
    /// Nameowner-administered TCB members per name.
    pub const NAMEOWNER: &str = "nameowner";
    /// Vulnerable TCB members per name.
    pub const VULNERABLE_IN_TCB: &str = "vulnerable_in_tcb";
    /// Percent of TCB with no known vulnerability, per name.
    pub const SAFETY_PERCENT: &str = "safety_percent";
    /// Flattened min-cut size per name (0: uncuttable / root-served).
    pub const CUT_SIZE: &str = "cut_size";
    /// Non-vulnerable members of the min-cut per name.
    pub const SAFE_IN_CUT: &str = "safe_in_cut";
    /// Names-controlled aggregate over all surveyed names.
    pub const VALUE: &str = "value";
    /// Misconfiguration flag bitmask per name.
    pub const MISCONFIG_FLAGS: &str = "misconfig_flags";
    /// Glueless dependency-nesting depth per name.
    pub const MISCONFIG_DEPTH: &str = "misconfig_depth";
    /// Fraction of the name's closure zones that are DNSSEC-signed.
    pub const DNSSEC_SIGNED_FRACTION: &str = "dnssec_signed_fraction";
    /// 1 when the name's own chain of trust is unbroken, else 0.
    pub const DNSSEC_CHAIN_PROTECTED: &str = "dnssec_chain_protected";
    /// Dead (unresolvable-infrastructure) servers in the name's TCB.
    pub const ZOMBIE_DEAD_IN_TCB: &str = "zombie_dead_in_tcb";
    /// Zombie delegations (zones whose entire NS set is dead) in the
    /// name's closure.
    pub const ZOMBIE_ZONES: &str = "zombie_zones";
    /// 1 when a zone on the name's own chain is a zombie delegation (the
    /// name resolves only through dead infrastructure), else 0.
    pub const ZOMBIE_ORPHANED: &str = "zombie_orphaned";
}

/// Everything a metric may consult for one group of surveyed names that
/// share a deepest zone. The engine computes the group's dependency
/// closure once — as a borrowed, allocation-free [`ClosureView`] — and
/// shares it across all metrics.
pub struct MeasureCtx<'a> {
    /// The analysis universe.
    pub universe: &'a Universe,
    /// The precomputed dependency index.
    pub index: &'a DependencyIndex,
    /// How many surveyed names of the batch the group holds (≥ 1):
    /// aggregate metrics weigh the measurement by it, per-name columns
    /// are gathered back to every one of them.
    pub names: u64,
    /// The group's dependency closure (borrowed sorted slices; collect
    /// what the measurement must retain past this call).
    pub closure: ClosureView<'a>,
}

/// The shape of a [`MetricColumn`] — the queryable column schema.
///
/// Every column id a [`NameMetric`] declares maps to exactly one kind,
/// and the kind is stable for the lifetime of a report (batches of a
/// streamed run must produce the same kind every time; see
/// [`MetricColumn::append`]). Consumers — figure renderers, exporters —
/// match on the kind instead of guessing an accessor, so a mismatch is a
/// typed error rather than a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnKind {
    /// Per-name integer counts, one entry per surveyed name.
    Counts,
    /// Per-name floating-point values, one entry per surveyed name.
    Floats,
    /// A universe-wide aggregate ([`ValueIndex`]), not per-name.
    Value,
}

impl std::fmt::Display for ColumnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ColumnKind::Counts => "counts",
            ColumnKind::Floats => "floats",
            ColumnKind::Value => "value",
        })
    }
}

/// One merged output column of a metric.
///
/// # Column-schema contract
///
/// A metric's [`NameMetric::columns`] list is its public schema: every id
/// in that list appears exactly once in the [`NameMetric::merge`] output,
/// always with the same [`ColumnKind`]. Ids are globally unique per engine
/// (registration enforces this), so a column id is a stable, queryable
/// address — figure renderers declare the ids they need and the registry
/// checks availability before building, making "metric not registered" a
/// typed skip instead of a panic.
#[derive(Debug, Clone)]
pub enum MetricColumn {
    /// Per-name integer counts, in survey name order.
    Counts(Vec<usize>),
    /// Per-name floating-point values, in survey name order.
    Floats(Vec<f64>),
    /// A universe-wide aggregate (names-controlled per server).
    Value(ValueIndex),
}

impl MetricColumn {
    /// The counts, if this is a counts column.
    pub fn as_counts(&self) -> Option<&[usize]> {
        match self {
            MetricColumn::Counts(v) => Some(v),
            _ => None,
        }
    }

    /// The floats, if this is a floats column.
    pub fn as_floats(&self) -> Option<&[f64]> {
        match self {
            MetricColumn::Floats(v) => Some(v),
            _ => None,
        }
    }

    /// The value aggregate, if this is a value column.
    pub fn as_value(&self) -> Option<&ValueIndex> {
        match self {
            MetricColumn::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Per-name length (`None` for aggregates).
    pub fn len(&self) -> Option<usize> {
        match self {
            MetricColumn::Counts(v) => Some(v.len()),
            MetricColumn::Floats(v) => Some(v.len()),
            MetricColumn::Value(_) => None,
        }
    }

    /// True when a per-name column is empty (aggregates are never "empty").
    pub fn is_empty(&self) -> bool {
        self.len() == Some(0)
    }

    /// Appends a later batch's column of the same kind: per-name columns
    /// concatenate (batches are contiguous name ranges in survey order),
    /// value aggregates merge commutatively. This is what lets the
    /// streaming engine pass merge per batch without ever holding all
    /// shards in memory.
    ///
    /// # Panics
    ///
    /// Panics when the column kinds differ (a metric changed its output
    /// kind between batches).
    pub fn append(&mut self, other: MetricColumn) {
        match (self, other) {
            (MetricColumn::Counts(a), MetricColumn::Counts(b)) => a.extend(b),
            (MetricColumn::Floats(a), MetricColumn::Floats(b)) => a.extend(b),
            (MetricColumn::Value(a), MetricColumn::Value(b)) => a.merge(&b),
            (a, b) => panic!(
                "column kind mismatch between batches: {} vs {}",
                a.kind(),
                b.kind()
            ),
        }
    }

    /// The column's schema kind (see the column-schema contract above).
    pub fn kind(&self) -> ColumnKind {
        match self {
            MetricColumn::Counts(_) => ColumnKind::Counts,
            MetricColumn::Floats(_) => ColumnKind::Floats,
            MetricColumn::Value(_) => ColumnKind::Value,
        }
    }
}

/// The shard-local accumulator of one metric on one worker thread.
pub trait MetricShard: Send {
    /// Records the measurement of one zone group into local `slot`
    /// (`0..shard_len`, increasing, each exactly once).
    fn measure(&mut self, ctx: &MeasureCtx<'_>, slot: usize);

    /// Downcast support for [`NameMetric::merge`].
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// Per-run state a metric precomputes once and shares across its shards
/// (see [`NameMetric::prepare`]). `None` when the metric needs none.
pub type PreparedState = Option<std::sync::Arc<dyn Any + Send + Sync>>;

/// A pluggable per-name measurement family.
pub trait NameMetric: Send + Sync {
    /// Stable identifier (diagnostics; must be unique per engine).
    fn id(&self) -> &str;

    /// The column ids this metric produces, in output order.
    fn columns(&self) -> Vec<String>;

    /// Called once per engine run before any shard is created; the result
    /// is handed to every [`NameMetric::shard`] call, so universe-wide
    /// precomputation (indexes, deployments) happens once instead of once
    /// per worker thread.
    fn prepare(&self, _universe: &Universe) -> PreparedState {
        None
    }

    /// Creates a shard accumulator for a contiguous range of `shard_len`
    /// zone groups. `prepared` is this run's [`NameMetric::prepare`] result.
    fn shard(
        &self,
        universe: &Universe,
        shard_len: usize,
        prepared: &PreparedState,
    ) -> Box<dyn MetricShard>;

    /// Merges shard accumulators — given in ascending group-range order —
    /// into the final columns, per-name columns one entry per group. Must
    /// be deterministic in that order.
    fn merge(
        &self,
        universe: &Universe,
        shards: Vec<Box<dyn MetricShard>>,
    ) -> Vec<(String, MetricColumn)>;
}

fn downcast_shards<T: 'static>(shards: Vec<Box<dyn MetricShard>>, metric: &str) -> Vec<T> {
    shards
        .into_iter()
        .map(|s| {
            *s.into_any()
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("metric {metric}: foreign shard type in merge"))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Built-in: TCB statistics (Figures 2–6).

/// TCB size, nameowner-administered, vulnerable members and safety percent —
/// four columns from one [`crate::tcb::TcbTally`] per zone group.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcbMetric;

struct TcbShard {
    tcb_size: Vec<usize>,
    nameowner: Vec<usize>,
    vulnerable: Vec<usize>,
    safety: Vec<f64>,
}

impl MetricShard for TcbShard {
    fn measure(&mut self, ctx: &MeasureCtx<'_>, slot: usize) {
        let tally = TcbTally::compute(ctx.universe, &ctx.closure);
        self.tcb_size[slot] = tally.tcb_size;
        self.nameowner[slot] = tally.nameowner_administered;
        self.vulnerable[slot] = tally.vulnerable;
        self.safety[slot] = tally.safety_percent();
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl NameMetric for TcbMetric {
    fn id(&self) -> &str {
        "tcb"
    }

    fn columns(&self) -> Vec<String> {
        vec![
            columns::TCB_SIZE.into(),
            columns::NAMEOWNER.into(),
            columns::VULNERABLE_IN_TCB.into(),
            columns::SAFETY_PERCENT.into(),
        ]
    }

    fn shard(
        &self,
        _universe: &Universe,
        shard_len: usize,
        _prepared: &PreparedState,
    ) -> Box<dyn MetricShard> {
        Box::new(TcbShard {
            tcb_size: vec![0; shard_len],
            nameowner: vec![0; shard_len],
            vulnerable: vec![0; shard_len],
            safety: vec![0.0; shard_len],
        })
    }

    fn merge(
        &self,
        _universe: &Universe,
        shards: Vec<Box<dyn MetricShard>>,
    ) -> Vec<(String, MetricColumn)> {
        let mut tcb_size = Vec::new();
        let mut nameowner = Vec::new();
        let mut vulnerable = Vec::new();
        let mut safety = Vec::new();
        for shard in downcast_shards::<TcbShard>(shards, self.id()) {
            tcb_size.extend(shard.tcb_size);
            nameowner.extend(shard.nameowner);
            vulnerable.extend(shard.vulnerable);
            safety.extend(shard.safety);
        }
        vec![
            (columns::TCB_SIZE.into(), MetricColumn::Counts(tcb_size)),
            (columns::NAMEOWNER.into(), MetricColumn::Counts(nameowner)),
            (
                columns::VULNERABLE_IN_TCB.into(),
                MetricColumn::Counts(vulnerable),
            ),
            (columns::SAFETY_PERCENT.into(), MetricColumn::Floats(safety)),
        ]
    }
}

// ---------------------------------------------------------------------------
// Built-in: flattened min-cut (Figure 7).

/// Flattened min-cut size and its safe-member count — the paper's
/// bottleneck analysis, two columns per name.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinCutMetric;

struct MinCutShard {
    cut_size: Vec<usize>,
    safe_in_cut: Vec<usize>,
}

impl MetricShard for MinCutShard {
    fn measure(&mut self, ctx: &MeasureCtx<'_>, slot: usize) {
        let (cut_size, safe_in_cut) =
            match min_cut_flattened_view(ctx.universe, ctx.index, &ctx.closure) {
                Some(cut) => (cut.size(), cut.safe_members),
                None => (0, 0),
            };
        self.cut_size[slot] = cut_size;
        self.safe_in_cut[slot] = safe_in_cut;
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl NameMetric for MinCutMetric {
    fn id(&self) -> &str {
        "min_cut"
    }

    fn columns(&self) -> Vec<String> {
        vec![columns::CUT_SIZE.into(), columns::SAFE_IN_CUT.into()]
    }

    fn shard(
        &self,
        _universe: &Universe,
        shard_len: usize,
        _prepared: &PreparedState,
    ) -> Box<dyn MetricShard> {
        Box::new(MinCutShard {
            cut_size: vec![0; shard_len],
            safe_in_cut: vec![0; shard_len],
        })
    }

    fn merge(
        &self,
        _universe: &Universe,
        shards: Vec<Box<dyn MetricShard>>,
    ) -> Vec<(String, MetricColumn)> {
        let mut cut_size = Vec::new();
        let mut safe_in_cut = Vec::new();
        for shard in downcast_shards::<MinCutShard>(shards, self.id()) {
            cut_size.extend(shard.cut_size);
            safe_in_cut.extend(shard.safe_in_cut);
        }
        vec![
            (columns::CUT_SIZE.into(), MetricColumn::Counts(cut_size)),
            (
                columns::SAFE_IN_CUT.into(),
                MetricColumn::Counts(safe_in_cut),
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// Built-in: names-controlled value ranking (Figures 8 and 9).

/// Accumulates the [`ValueIndex`] names-controlled ranking — an aggregate
/// column rather than a per-name one.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValueMetric;

struct ValueShard(ValueIndex);

impl MetricShard for ValueShard {
    fn measure(&mut self, ctx: &MeasureCtx<'_>, _slot: usize) {
        self.0.record(ctx.universe, &ctx.closure, ctx.names);
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl NameMetric for ValueMetric {
    fn id(&self) -> &str {
        "value"
    }

    fn columns(&self) -> Vec<String> {
        vec![columns::VALUE.into()]
    }

    fn shard(
        &self,
        universe: &Universe,
        _shard_len: usize,
        _prepared: &PreparedState,
    ) -> Box<dyn MetricShard> {
        Box::new(ValueShard(ValueIndex::new(universe)))
    }

    fn merge(
        &self,
        universe: &Universe,
        shards: Vec<Box<dyn MetricShard>>,
    ) -> Vec<(String, MetricColumn)> {
        let shards = downcast_shards::<ValueShard>(shards, self.id());
        let mut merged = ValueIndex::new(universe);
        for shard in &shards {
            merged.merge(&shard.0);
        }
        vec![(columns::VALUE.into(), MetricColumn::Value(merged))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;
    use perils_dns::name::{name, DnsName};

    fn universe() -> Universe {
        let mut b = Universe::builder();
        b.raw_server(&name("a.root-servers.net"), false, true);
        b.raw_server(&name("ns.provider.net"), true, false);
        b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
        b.add_zone(&name("com"), &[name("a.root-servers.net")]);
        b.add_zone(&name("net"), &[name("a.root-servers.net")]);
        b.add_zone(
            &name("site.com"),
            &[name("ns1.site.com"), name("ns.provider.net")],
        );
        b.add_zone(&name("provider.net"), &[name("ns.provider.net")]);
        b.finish()
    }

    fn run_metric(metric: &dyn NameMetric, targets: &[DnsName]) -> Vec<(String, MetricColumn)> {
        let u = universe();
        let index = DependencyIndex::build(&u);
        let prepared = metric.prepare(&u);
        let mut ws = index.workspace();
        // Two shards to exercise merge order.
        let mid = targets.len() / 2;
        let mut shards = Vec::new();
        for (start, end) in [(0, mid), (mid, targets.len())] {
            let mut shard = metric.shard(&u, end - start, &prepared);
            for (slot, target) in targets[start..end].iter().enumerate() {
                let ctx = MeasureCtx {
                    universe: &u,
                    index: &index,
                    names: 1,
                    closure: index.closure_view(&u, target, &mut ws),
                };
                shard.measure(&ctx, slot);
            }
            shards.push(shard);
        }
        metric.merge(&u, shards)
    }

    #[test]
    fn tcb_metric_matches_direct_stats() {
        let targets = vec![name("www.site.com"), name("www.provider.net")];
        let cols = run_metric(&TcbMetric, &targets);
        assert_eq!(cols.len(), 4);
        let sizes = cols[0].1.as_counts().expect("counts");
        let u = universe();
        let index = DependencyIndex::build(&u);
        let mut ws = index.workspace();
        for (i, t) in targets.iter().enumerate() {
            let stats = TcbTally::compute(&u, &index.closure_view(&u, t, &mut ws));
            assert_eq!(sizes[i], stats.tcb_size, "{t}");
        }
    }

    #[test]
    fn min_cut_metric_aligns_columns() {
        let targets = vec![
            name("www.site.com"),
            name("www.provider.net"),
            name("x.com"),
        ];
        let cols = run_metric(&MinCutMetric, &targets);
        let cut = cols[0].1.as_counts().expect("counts");
        let safe = cols[1].1.as_counts().expect("counts");
        assert_eq!(cut.len(), targets.len());
        for i in 0..targets.len() {
            assert!(safe[i] <= cut[i]);
        }
    }

    #[test]
    fn value_metric_merges_shards() {
        let targets = vec![name("www.site.com"), name("www.site.com"), name("x.com")];
        let cols = run_metric(&ValueMetric, &targets);
        let value = cols[0].1.as_value().expect("value");
        assert_eq!(value.names_seen(), 3);
        let u = universe();
        let provider = u.server_id(&name("ns.provider.net")).unwrap();
        assert_eq!(value.controlled_by(provider), 2);
    }

    #[test]
    fn column_accessors_are_typed() {
        let counts = MetricColumn::Counts(vec![1, 2]);
        assert_eq!(counts.as_counts(), Some(&[1usize, 2][..]));
        assert!(counts.as_floats().is_none());
        assert_eq!(counts.len(), Some(2));
        let value = MetricColumn::Value(ValueIndex::new(&universe()));
        assert!(value.as_value().is_some());
        assert_eq!(value.len(), None);
        assert!(!value.is_empty());
    }
}
