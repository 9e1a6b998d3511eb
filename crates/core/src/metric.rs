//! The pluggable per-name measurement API.
//!
//! The paper's contribution is a *family* of per-name measurements over a
//! delegation universe — TCB size, nameowner/vulnerable members, min-cuts,
//! value ranking — and follow-on workloads (misconfiguration audits, DNSSEC
//! deployment sweeps, zombie delegations) have the same shape: walk every
//! surveyed name's dependency closure once, record numbers, aggregate.
//! This module is that shape as one trait, so the survey engine can run
//! any set of measurements in one sharded pass without being rewritten per
//! workload:
//!
//! * [`NameMetric`] — a measurement family: declares its typed output
//!   columns and, once per run, [`NameMetric::prepare`]s a [`Measure`]
//!   that owns whatever universe-wide state it precomputed;
//! * [`Measure`] — called once per *deepest zone* with the precomputed
//!   [`MeasureCtx`]: every name under one zone has the same chain and
//!   therefore the same closure, so the engine computes that closure
//!   **once** per zone, shares it with every registered metric, and
//!   gathers the zone's row back to each of its names;
//! * [`Row`] — the engine-owned writer a measurement fills with exactly
//!   one cell per declared column, in declaration order;
//! * [`MetricColumn`] — the output: per-name counts or floats, or a
//!   universe-wide aggregate like [`ValueIndex`];
//! * built-ins [`TcbMetric`], [`MinCutMetric`] and [`ValueMetric`] re-derive
//!   the six seed measurements; [`crate::misconfig::MisconfigMetric`],
//!   [`crate::dnssec::DnssecCoverageMetric`] and
//!   [`crate::zombie::ZombieDelegationMetric`] extend the family.
//!
//! Determinism is the engine's: it owns every column, hands each worker a
//! contiguous range of zone groups, and concatenates the workers' columns
//! in range order ([`MetricColumn::append`]), so a measurement that is a
//! function of its [`MeasureCtx`] yields the serial result at every
//! thread count. The one aggregate kind, [`ValueIndex`], sums
//! commutatively and weighs each measurement by [`MeasureCtx::names`].

use crate::closure::{ClosureView, DependencyIndex};
use crate::hijack::min_cut_flattened_view;
use crate::tcb::TcbTally;
use crate::universe::Universe;
use crate::value::ValueIndex;

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
    /// How many surveyed names the group holds (≥ 1): aggregate metrics
    /// weigh the measurement by it, per-name columns are gathered back to
    /// every one of them.
    pub names: u64,
    /// The group's dependency closure (borrowed sorted slices; collect
    /// what the measurement must retain past this call).
    pub closure: ClosureView<'a>,
}

/// The shape of a [`MetricColumn`] — the queryable column schema.
///
/// Every column id a [`NameMetric`] declares maps to exactly one kind,
/// and the engine allocates and checks the column by that kind (see
/// [`Row`]). Consumers — figure renderers, exporters — match on the kind
/// instead of guessing an accessor, so a mismatch is a typed error rather
/// than a panic.
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

/// One output column of a metric.
///
/// # Column-schema contract
///
/// A metric's [`NameMetric::columns`] list is its public schema: every id
/// in that list appears exactly once in the report, with the declared
/// [`ColumnKind`]. Ids are globally unique per engine (registration
/// enforces this), so a column id is a stable, queryable
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

    /// An empty column of `kind` with room for `rows` per-name entries;
    /// an aggregate starts at zero over `universe`.
    pub fn with_capacity(kind: ColumnKind, universe: &Universe, rows: usize) -> MetricColumn {
        match kind {
            ColumnKind::Counts => MetricColumn::Counts(Vec::with_capacity(rows)),
            ColumnKind::Floats => MetricColumn::Floats(Vec::with_capacity(rows)),
            ColumnKind::Value => MetricColumn::Value(ValueIndex::new(universe)),
        }
    }

    /// Appends the same column of the next worker range: per-name
    /// columns concatenate (ranges are contiguous and joined in order),
    /// value aggregates merge commutatively.
    ///
    /// # Panics
    ///
    /// Panics when the column kinds differ.
    pub fn append(&mut self, other: MetricColumn) {
        match (self, other) {
            (MetricColumn::Counts(a), MetricColumn::Counts(b)) => a.extend(b),
            (MetricColumn::Floats(a), MetricColumn::Floats(b)) => a.extend(b),
            (MetricColumn::Value(a), MetricColumn::Value(b)) => a.merge(&b),
            (a, b) => panic!("column kind mismatch: {} vs {}", a.kind(), b.kind()),
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

/// A metric's measurement of one zone group, built once per run by
/// [`NameMetric::prepare`]: precomputed state is moved into the closure,
/// which workers call concurrently, once per zone group.
pub type Measure<'a> = Box<dyn Fn(&MeasureCtx<'_>, &mut Row<'_>) + Sync + 'a>;

/// A pluggable per-name measurement family.
pub trait NameMetric: Send + Sync {
    /// Stable identifier (diagnostics; must be unique per engine).
    fn id(&self) -> &str;

    /// The columns this metric writes, with their kinds, in write order.
    fn columns(&self) -> Vec<(&str, ColumnKind)>;

    /// Called once per engine run: precomputes universe-wide state
    /// (indexes, deployments) and returns the measurement that owns it.
    fn prepare<'a>(&'a self, universe: &'a Universe) -> Measure<'a>;
}

/// The engine-owned writer for one metric's row of one zone group: a
/// [`Measure`] writes exactly one cell per declared column, in
/// declaration order and of the declared kind.
pub struct Row<'a> {
    metric: &'a str,
    schema: &'a [(&'a str, ColumnKind)],
    cells: &'a mut [MetricColumn],
    written: usize,
}

impl Row<'_> {
    /// Runs `measure` over `ctx`, appending its row to `cells` — one
    /// column per `schema` entry, allocated by kind
    /// ([`MetricColumn::with_capacity`]).
    ///
    /// # Panics
    ///
    /// Panics, naming the metric and the column, when the measurement
    /// writes a cell of the wrong kind or past its last column, or leaves
    /// a column unwritten: a wiring bug, like a duplicate metric id.
    pub fn record(
        metric: &str,
        schema: &[(&str, ColumnKind)],
        cells: &mut [MetricColumn],
        measure: &Measure<'_>,
        ctx: &MeasureCtx<'_>,
    ) {
        let mut row = Row {
            metric,
            schema,
            cells,
            written: 0,
        };
        measure(ctx, &mut row);
        if let Some((column, _)) = schema.get(row.written) {
            panic!("metric {metric:?} left column {column:?} unwritten");
        }
    }

    /// Writes the next column's per-name count.
    pub fn count(&mut self, count: usize) {
        let MetricColumn::Counts(cells) = self.next(ColumnKind::Counts) else {
            unreachable!("kind checked by next")
        };
        cells.push(count);
    }

    /// Writes the next column's per-name float.
    pub fn float(&mut self, value: f64) {
        let MetricColumn::Floats(cells) = self.next(ColumnKind::Floats) else {
            unreachable!("kind checked by next")
        };
        cells.push(value);
    }

    /// The next column's aggregate, for the group to record itself into.
    pub fn value(&mut self) -> &mut ValueIndex {
        let MetricColumn::Value(index) = self.next(ColumnKind::Value) else {
            unreachable!("kind checked by next")
        };
        index
    }

    fn next(&mut self, kind: ColumnKind) -> &mut MetricColumn {
        let metric = self.metric;
        let i = self.written;
        let (Some((column, _)), Some(cell)) = (self.schema.get(i), self.cells.get_mut(i)) else {
            panic!("metric {metric:?} wrote a {kind} cell past its last column");
        };
        assert!(
            cell.kind() == kind,
            "metric {metric:?} wrote a {kind} cell into {} column {column:?}",
            cell.kind()
        );
        self.written += 1;
        cell
    }
}

// ---------------------------------------------------------------------------
// Built-in: TCB statistics (Figures 2–6).

/// TCB size, nameowner-administered, vulnerable members and safety percent —
/// four columns from one [`crate::tcb::TcbTally`] per zone group.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcbMetric;

impl NameMetric for TcbMetric {
    fn id(&self) -> &str {
        "tcb"
    }

    fn columns(&self) -> Vec<(&str, ColumnKind)> {
        vec![
            (columns::TCB_SIZE, ColumnKind::Counts),
            (columns::NAMEOWNER, ColumnKind::Counts),
            (columns::VULNERABLE_IN_TCB, ColumnKind::Counts),
            (columns::SAFETY_PERCENT, ColumnKind::Floats),
        ]
    }

    fn prepare<'a>(&'a self, _universe: &'a Universe) -> Measure<'a> {
        Box::new(|ctx, row| {
            let tally = TcbTally::compute(ctx.universe, &ctx.closure);
            row.count(tally.tcb_size);
            row.count(tally.nameowner_administered);
            row.count(tally.vulnerable);
            row.float(tally.safety_percent());
        })
    }
}

// ---------------------------------------------------------------------------
// Built-in: flattened min-cut (Figure 7).

/// Flattened min-cut size and its safe-member count — the paper's
/// bottleneck analysis, two columns per name.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinCutMetric;

impl NameMetric for MinCutMetric {
    fn id(&self) -> &str {
        "min_cut"
    }

    fn columns(&self) -> Vec<(&str, ColumnKind)> {
        vec![
            (columns::CUT_SIZE, ColumnKind::Counts),
            (columns::SAFE_IN_CUT, ColumnKind::Counts),
        ]
    }

    fn prepare<'a>(&'a self, _universe: &'a Universe) -> Measure<'a> {
        Box::new(|ctx, row| {
            let (cut_size, safe_in_cut) =
                match min_cut_flattened_view(ctx.universe, ctx.index, &ctx.closure) {
                    Some(cut) => (cut.size(), cut.safe_members),
                    None => (0, 0),
                };
            row.count(cut_size);
            row.count(safe_in_cut);
        })
    }
}

// ---------------------------------------------------------------------------
// Built-in: names-controlled value ranking (Figures 8 and 9).

/// Accumulates the [`ValueIndex`] names-controlled ranking — an aggregate
/// column rather than a per-name one.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValueMetric;

impl NameMetric for ValueMetric {
    fn id(&self) -> &str {
        "value"
    }

    fn columns(&self) -> Vec<(&str, ColumnKind)> {
        vec![(columns::VALUE, ColumnKind::Value)]
    }

    fn prepare<'a>(&'a self, _universe: &'a Universe) -> Measure<'a> {
        Box::new(|ctx, row| row.value().record(ctx.universe, &ctx.closure, ctx.names))
    }
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// Measures every target alone (`names: 1`) in two worker ranges
    /// joined with [`MetricColumn::append`], as the engine joins them;
    /// returns the columns in declaration order.
    pub(crate) fn measure_targets(
        metric: &dyn NameMetric,
        u: &Universe,
        targets: &[DnsName],
    ) -> Vec<MetricColumn> {
        let index = DependencyIndex::build(u);
        let schema = metric.columns();
        let measure = metric.prepare(u);
        let empty = |rows| -> Vec<MetricColumn> {
            schema
                .iter()
                .map(|&(_, kind)| MetricColumn::with_capacity(kind, u, rows))
                .collect()
        };
        let mut ws = index.workspace();
        let mut columns = empty(targets.len());
        let mid = targets.len() / 2;
        for range in [0..mid, mid..targets.len()] {
            let mut cells = empty(range.len());
            for target in &targets[range] {
                let ctx = MeasureCtx {
                    universe: u,
                    index: &index,
                    names: 1,
                    closure: index.closure_view(u, target, &mut ws),
                };
                Row::record(metric.id(), &schema, &mut cells, &measure, &ctx);
            }
            for (column, part) in columns.iter_mut().zip(cells) {
                column.append(part);
            }
        }
        columns
    }

    fn run_metric(metric: &dyn NameMetric, targets: &[DnsName]) -> Vec<MetricColumn> {
        measure_targets(metric, &universe(), targets)
    }

    #[test]
    fn tcb_metric_matches_direct_stats() {
        let targets = vec![name("www.site.com"), name("www.provider.net")];
        let cols = run_metric(&TcbMetric, &targets);
        assert_eq!(cols.len(), 4);
        let sizes = cols[0].as_counts().expect("counts");
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
        let cut = cols[0].as_counts().expect("counts");
        let safe = cols[1].as_counts().expect("counts");
        assert_eq!(cut.len(), targets.len());
        for i in 0..targets.len() {
            assert!(safe[i] <= cut[i]);
        }
    }

    #[test]
    fn value_metric_merges_shards() {
        let targets = vec![name("www.site.com"), name("www.site.com"), name("x.com")];
        let cols = run_metric(&ValueMetric, &targets);
        let value = cols[0].as_value().expect("value");
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
