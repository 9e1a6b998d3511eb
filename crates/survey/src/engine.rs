//! The pluggable analysis engine: one sharded per-name measurement pass,
//! any world, any set of [`NameMetric`]s.
//!
//! The seed hardwired six measurements into the survey driver's thread
//! loop; this module owns the loop once. An [`Engine`] holds registered
//! metrics, a [`WorldSource`] supplies the delegation universe plus the
//! surveyed names — synthetic topologies, hand-built packet scenarios
//! (fbi.gov, Figure 1) and wire-probed worlds all load through the same
//! trait — and [`Engine::run`] measures each *deepest zone* once: a name's
//! closure is a function of its delegation chain, and every name under
//! one zone shares that chain, so the engine groups the names by
//! [`Universe::zone_of`], shards the distinct zones across threads, and
//! each worker computes every zone's dependency closure **once** — as a
//! borrowed [`perils_core::ClosureView`] over the memoized sub-closure
//! index, with per-worker scratch, so the pass allocates no closure
//! sets — and feeds it to every metric's [`perils_core::Measure`], which
//! writes one row into columns the engine owns. The engine concatenates
//! the workers' columns in range order and gathers each zone's row back
//! to its names, so results are per name, deterministic and invariant in
//! the thread count.
//!
//! The output is a columnar [`SurveyReport`] keyed by metric column id,
//! with typed (`try_*`) accessors.

use crate::params::TopologyParams;
use crate::scenario::{report_events, scenario_events};
use crate::topology::{plan_world, SurveyName};
use perils_authserver::scenarios::Scenario;
use perils_core::closure::DependencyIndex;
use perils_core::hijack::min_hijack_exact;
use perils_core::metric::{ColumnKind, MeasureCtx, MetricColumn, NameMetric, Row};
use perils_core::universe::{Universe, UniverseEvent, ZoneId};
use perils_core::value::ValueIndex;
use perils_core::{DnssecCoverageMetric, MinCutMetric, MisconfigMetric, TcbMetric, ValueMetric};
use perils_dns::name::DnsName;
use perils_resolver::DependencyReport;
use perils_util::par;
use perils_vulndb::VulnDb;
use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroUsize;

/// A delegation universe plus the names surveyed over it — the common
/// denominator every [`WorldSource`] produces and the engine consumes.
#[derive(Debug)]
pub struct AnalysisWorld {
    /// The analysis universe.
    pub universe: Universe,
    /// The surveyed names, in survey order.
    pub names: Vec<SurveyName>,
    /// Indices into `names` of the most popular subset (may be empty for
    /// scenario worlds, where popularity is meaningless).
    pub top500: Vec<usize>,
}

impl AnalysisWorld {
    /// Wraps a universe and plain target names (rank = survey order).
    pub fn from_targets(universe: Universe, targets: Vec<DnsName>) -> AnalysisWorld {
        AnalysisWorld {
            universe,
            names: survey_names_of(targets).collect(),
            top500: Vec::new(),
        }
    }
}

/// Plain target names as [`SurveyName`]s (rank = survey order).
fn survey_names_of(targets: Vec<DnsName>) -> impl Iterator<Item = SurveyName> + Send {
    targets.into_iter().enumerate().map(|(i, name)| SurveyName {
        name,
        popularity_rank: i,
    })
}

/// A world as a stream: incremental [`UniverseEvent`]s first, surveyed
/// names second. This is what every [`WorldSource`] produces and what
/// the engine ingests — the universe is built event by event through
/// `perils_core`'s [`perils_core::UniverseBuilder`], so the event feed
/// is never held in memory whole.
///
/// The two phases are ordered: drain [`WorldStream::events`] (or call
/// [`WorldStream::build_universe`]) before pulling
/// [`WorldStream::names`] — the dependency closures the metrics consume
/// are defined over the complete delegation structure.
pub struct WorldStream {
    events: Box<dyn Iterator<Item = UniverseEvent> + Send>,
    names: Box<dyn Iterator<Item = SurveyName> + Send>,
    top500: Vec<usize>,
}

impl WorldStream {
    /// Wraps the two phases of a stream plus the popularity subset.
    pub fn new(
        events: impl Iterator<Item = UniverseEvent> + Send + 'static,
        names: impl Iterator<Item = SurveyName> + Send + 'static,
        top500: Vec<usize>,
    ) -> WorldStream {
        WorldStream {
            events: Box::new(events),
            names: Box::new(names),
            top500,
        }
    }

    /// The remaining universe events (phase one).
    pub fn events(&mut self) -> impl Iterator<Item = UniverseEvent> + '_ {
        self.events.by_ref()
    }

    /// The remaining surveyed names (phase two; pull after the events
    /// are drained).
    pub fn names(&mut self) -> impl Iterator<Item = SurveyName> + '_ {
        self.names.by_ref()
    }

    /// Indices into the name stream of the most popular subset (may be
    /// empty for scenario worlds, where popularity is meaningless).
    pub fn top500(&self) -> &[usize] {
        &self.top500
    }

    /// Drains the event phase into an incremental builder, assessing
    /// banners against the paper's ISC Feb-2004 matrix, and returns the
    /// finished universe. Peak memory is the universe itself plus the
    /// builder's indexes — independent of feed length and order.
    pub fn build_universe(&mut self) -> Universe {
        let db = VulnDb::isc_feb_2004();
        let mut builder = Universe::builder();
        for event in self.events.by_ref() {
            builder.apply(event, &db);
        }
        builder.finish()
    }

    /// Materializes the whole stream into an [`AnalysisWorld`] (the
    /// collector behind the default [`WorldSource::load`]).
    pub fn collect(mut self) -> AnalysisWorld {
        let universe = self.build_universe();
        AnalysisWorld {
            universe,
            names: self.names.collect(),
            top500: self.top500,
        }
    }
}

/// Supplies a world to the engine. Implemented by the synthetic
/// generator, hand-built packet scenarios and wire-probed dependency
/// reports, so every world kind runs through the same engine.
///
/// The primitive is **streaming**: [`WorldSource::stream`] emits the
/// world as incremental universe events plus a name stream, and the
/// provided [`WorldSource::load`] is a thin collector over it. A world
/// that is already built skips the trait and goes to
/// [`Engine::run_world`].
pub trait WorldSource {
    /// Human-readable description for diagnostics.
    fn describe(&self) -> String;

    /// Streams the world (consumes the source): universe events first,
    /// surveyed names second.
    fn stream(self) -> WorldStream;

    /// Materializes the world in one piece — a thin collector over
    /// [`WorldSource::stream`]. Generation can be costly and the engine
    /// takes ownership of the result.
    fn load(self) -> AnalysisWorld
    where
        Self: Sized,
    {
        self.stream().collect()
    }
}

/// Generates a synthetic world from [`TopologyParams`].
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    /// Generator parameters.
    pub params: TopologyParams,
}

impl SyntheticSource {
    /// The same plan as a packet-level scenario: full zones with glue,
    /// server specs and root hints (what the wire cross-check deploys).
    /// Intended for small worlds; memory grows linearly with zones.
    pub fn scenario(&self) -> Scenario {
        plan_world(&self.params).build_scenario()
    }
}

impl WorldSource for SyntheticSource {
    fn describe(&self) -> String {
        format!(
            "synthetic world (seed {}, {} names)",
            self.params.seed, self.params.names
        )
    }

    /// Plans the world, then hands the plan over as a lazy event stream:
    /// the generator never materializes a [`Universe`] of its own.
    fn stream(self) -> WorldStream {
        let (events, names, top500) = plan_world(&self.params).into_stream_parts();
        WorldStream::new(events, names.into_iter(), top500)
    }
}

/// Builds the world structurally from a packet-level scenario's registry
/// (ground-truth banners), surveying `targets`.
pub struct ScenarioSource<'a> {
    /// The hand-built scenario (fbi.gov, Figure 1, generated tiny worlds).
    pub scenario: &'a Scenario,
    /// The names to survey.
    pub targets: Vec<DnsName>,
}

impl WorldSource for ScenarioSource<'_> {
    fn describe(&self) -> String {
        format!("scenario world ({} targets)", self.targets.len())
    }

    fn stream(self) -> WorldStream {
        let events = scenario_events(self.scenario);
        WorldStream::new(
            events.into_iter(),
            survey_names_of(self.targets),
            Vec::new(),
        )
    }
}

/// Builds the world from wire-probed dependency reports (what the paper's
/// measurement harness saw), surveying `targets`.
pub struct ProbedSource<'a> {
    /// One report per probed name.
    pub reports: &'a [DependencyReport],
    /// The root-server names (the prober cannot see past the hints).
    pub roots: Vec<DnsName>,
    /// The names to survey.
    pub targets: Vec<DnsName>,
}

impl WorldSource for ProbedSource<'_> {
    fn describe(&self) -> String {
        format!("probed world ({} reports)", self.reports.len())
    }

    fn stream(self) -> WorldStream {
        let events = report_events(self.reports, &self.roots);
        WorldStream::new(
            events.into_iter(),
            survey_names_of(self.targets),
            Vec::new(),
        )
    }
}

/// A typed report-access failure: the requested column is absent (its
/// metric was never registered) or has a different [`ColumnKind`] than the
/// accessor asked for.
///
/// This is what the `try_*` accessors on [`SurveyReport`] return, and what
/// the figure registry turns into a skip instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// No registered metric produced the column.
    MissingColumn {
        /// The requested column id.
        column: String,
        /// Every column id the report does contain, sorted.
        available: Vec<String>,
    },
    /// The column exists but is of a different kind.
    WrongKind {
        /// The requested column id.
        column: String,
        /// The kind the accessor asked for.
        expected: ColumnKind,
        /// The kind the column actually has.
        actual: ColumnKind,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::MissingColumn { column, available } => {
                write!(
                    f,
                    "no metric produced column {column:?}; available: {available:?}"
                )
            }
            ReportError::WrongKind {
                column,
                expected,
                actual,
            } => write!(f, "column {column:?} is {actual}, not {expected}"),
        }
    }
}

impl std::error::Error for ReportError {}

/// Columnar survey results keyed by metric column id.
#[derive(Debug)]
pub struct SurveyReport {
    /// The surveyed world.
    pub world: AnalysisWorld,
    columns: BTreeMap<String, MetricColumn>,
    /// `(name index, exact size, exact safe members)` for the sampled
    /// exact hijack runs (empty unless configured).
    pub exact_sample: Vec<(usize, usize, usize)>,
}

impl SurveyReport {
    /// The column for `id`, if a registered metric produced it.
    pub fn column(&self, id: &str) -> Option<&MetricColumn> {
        self.columns.get(id)
    }

    /// All column ids, sorted.
    pub fn column_ids(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(String::as_str)
    }

    /// The report's column schema: every `(id, kind)` pair, sorted by id.
    /// This is what figure registries match `required_columns` against.
    pub fn schema(&self) -> impl Iterator<Item = (&str, ColumnKind)> {
        self.columns.iter().map(|(id, c)| (id.as_str(), c.kind()))
    }

    /// The column for `id`, or a typed [`ReportError::MissingColumn`].
    pub fn try_column(&self, id: &str) -> Result<&MetricColumn, ReportError> {
        self.columns
            .get(id)
            .ok_or_else(|| ReportError::MissingColumn {
                column: id.to_string(),
                available: self.columns.keys().cloned().collect(),
            })
    }

    /// Per-name counts column `id`, or a typed error.
    pub fn try_counts(&self, id: &str) -> Result<&[usize], ReportError> {
        let column = self.try_column(id)?;
        column.as_counts().ok_or_else(|| ReportError::WrongKind {
            column: id.to_string(),
            expected: ColumnKind::Counts,
            actual: column.kind(),
        })
    }

    /// Per-name floats column `id`, or a typed error.
    pub fn try_floats(&self, id: &str) -> Result<&[f64], ReportError> {
        let column = self.try_column(id)?;
        column.as_floats().ok_or_else(|| ReportError::WrongKind {
            column: id.to_string(),
            expected: ColumnKind::Floats,
            actual: column.kind(),
        })
    }

    /// The names-controlled aggregate column `id`, or a typed error.
    pub fn try_value_column(&self, id: &str) -> Result<&ValueIndex, ReportError> {
        let column = self.try_column(id)?;
        column.as_value().ok_or_else(|| ReportError::WrongKind {
            column: id.to_string(),
            expected: ColumnKind::Value,
            actual: column.kind(),
        })
    }

    /// Indices of the top-500 popular names (forwarded from the world).
    pub fn top500(&self) -> &[usize] {
        &self.world.top500
    }

    /// Selects per-name values for the top-500 subset.
    pub fn top500_of<T: Copy>(&self, values: &[T]) -> Vec<T> {
        self.world.top500.iter().map(|&i| values[i]).collect()
    }
}

/// The survey engine: registered metrics plus execution knobs.
pub struct Engine {
    metrics: Vec<Box<dyn NameMetric>>,
    threads: Option<NonZeroUsize>,
    exact_hijack_sample: usize,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// An engine with no metrics registered.
    pub fn new() -> Engine {
        Engine {
            metrics: Vec::new(),
            threads: None,
            exact_hijack_sample: 0,
        }
    }

    /// The six seed measurements: TCB statistics, flattened min-cut and
    /// the names-controlled value ranking.
    pub fn with_builtin_metrics() -> Engine {
        Engine::new()
            .register(TcbMetric)
            .register(MinCutMetric)
            .register(ValueMetric)
    }

    /// The built-ins plus the misconfiguration audit and DNSSEC-coverage
    /// metrics (the extended workload set).
    pub fn with_extended_metrics() -> Engine {
        Engine::with_builtin_metrics()
            .register(MisconfigMetric)
            .register(DnssecCoverageMetric::top_level())
    }

    /// Registers a metric.
    ///
    /// # Panics
    ///
    /// Panics when the metric's id or any of its column ids collides with
    /// an already-registered metric.
    pub fn register(mut self, metric: impl NameMetric + 'static) -> Engine {
        for existing in &self.metrics {
            assert_ne!(
                existing.id(),
                metric.id(),
                "duplicate metric id {:?}",
                metric.id()
            );
            for (column, _) in existing.columns() {
                assert!(
                    metric.columns().iter().all(|&(id, _)| id != column),
                    "metric {:?} re-declares column {column:?} of {:?}",
                    metric.id(),
                    existing.id()
                );
            }
        }
        self.metrics.push(Box::new(metric));
        self
    }

    /// Sets the worker thread count (`None`: available parallelism).
    pub fn threads(mut self, threads: Option<NonZeroUsize>) -> Engine {
        self.threads = threads;
        self
    }

    /// Also runs the exact AND/OR hijack search on the first `n` names.
    pub fn exact_hijack_sample(mut self, n: usize) -> Engine {
        self.exact_hijack_sample = n;
        self
    }

    /// Ids of the registered metrics, in registration order.
    pub fn metric_ids(&self) -> Vec<&str> {
        self.metrics.iter().map(|m| m.id()).collect()
    }

    /// Loads `source` and runs every registered metric over it. The
    /// universe is ingested through the source's event stream
    /// ([`WorldSource::load`] is a collector over [`WorldSource::stream`]).
    pub fn run(&self, source: impl WorldSource) -> SurveyReport {
        self.run_world(source.load())
    }

    /// Runs every registered metric over an already-built world.
    pub fn run_world(&self, world: AnalysisWorld) -> SurveyReport {
        let index = DependencyIndex::build(&world.universe);
        self.run_world_indexed(world, &index)
    }

    /// [`Engine::run_world`] over a **prebuilt** dependency index — the
    /// snapshot-loading path: a world reconstituted from a `.psa` archive
    /// already carries its index, so the survey can skip the index build
    /// entirely. `index` must have been built from (or validated against)
    /// `world.universe`; the snapshot decoder guarantees this for loaded
    /// archives.
    pub fn run_world_indexed(&self, world: AnalysisWorld, index: &DependencyIndex) -> SurveyReport {
        let columns = self.measure(&world.universe, &world.names, index);

        // Exact hijack sample (sequential; used by the ablation analysis).
        let mut exact_sample = Vec::new();
        let mut ws = index.workspace();
        for i in 0..self.exact_hijack_sample.min(world.names.len()) {
            let closure = index.closure_view(&world.universe, &world.names[i].name, &mut ws);
            if let Some(exact) = min_hijack_exact(&world.universe, &closure) {
                exact_sample.push((i, exact.size(), exact.safe_members));
            }
        }

        SurveyReport {
            world,
            columns,
            exact_sample,
        }
    }

    /// The sharded pass: every column of every registered metric, one
    /// entry per name.
    ///
    /// Every name under one deepest zone ([`Universe::zone_of`]) has the
    /// same delegation chain and therefore the same closure, so the names
    /// are grouped by that zone first — keys computed on the workers —
    /// and the distinct zones, in first-occurrence order, are what the
    /// workers shard: each opens one closure view per zone and hands it
    /// to every metric's [`perils_core::Measure`] once, which writes the
    /// zone's row into the worker's columns. All names no zone encloses
    /// share one `None` group. That is sound only because a closure is a
    /// function of the deepest zone alone (the view reads nothing else of
    /// the name), so every zone-less name has the same, empty, closure.
    fn measure(
        &self,
        universe: &Universe,
        names: &[SurveyName],
        index: &DependencyIndex,
    ) -> BTreeMap<String, MetricColumn> {
        let metrics: Vec<_> = self
            .metrics
            .iter()
            .map(|m| (m.id(), m.columns(), m.prepare(universe)))
            .collect();
        let threads = par::threads(self.threads);
        let keys = par::map_ranges(names.len(), threads, |range| {
            names[range]
                .iter()
                .map(|entry| universe.zone_of(&entry.name))
                .collect::<Vec<_>>()
        });
        // Per group: its zone, the first name in it and how many names
        // it holds.
        let mut groups: Vec<(Option<ZoneId>, usize, u64)> = Vec::new();
        let mut group_of: HashMap<Option<ZoneId>, u32> = HashMap::new();
        let name_group: Vec<u32> = keys
            .into_iter()
            .flatten()
            .enumerate()
            .map(|(i, key)| {
                let g = *group_of.entry(key).or_insert_with(|| {
                    groups.push((key, i, 0));
                    u32::try_from(groups.len() - 1).expect("fewer than 2^32 zone groups")
                });
                groups[g as usize].2 += 1;
                g
            })
            .collect();
        drop(group_of);

        let empty = |schema: &[(&str, ColumnKind)], rows| -> Vec<MetricColumn> {
            schema
                .iter()
                .map(|&(_, kind)| MetricColumn::with_capacity(kind, universe, rows))
                .collect()
        };
        let groups = &groups;
        let workers = par::map_ranges(groups.len(), threads, |range| {
            let mut cells: Vec<_> = metrics
                .iter()
                .map(|(_, schema, _)| empty(schema, range.len()))
                .collect();
            let mut ws = index.workspace();
            for &(zone, first, count) in &groups[range] {
                let ctx = MeasureCtx {
                    universe,
                    index,
                    names: count,
                    closure: index.closure_view_in(universe, &names[first].name, zone, &mut ws),
                };
                for ((id, schema, measure), cells) in metrics.iter().zip(&mut cells) {
                    Row::record(id, schema, cells, measure, &ctx);
                }
            }
            cells
        });

        // Metric by metric, join the ranges' columns in range order and
        // gather them per name, so each range's columns are freed before
        // the next metric's per-name columns are allocated.
        let mut workers: Vec<_> = workers.into_iter().map(Vec::into_iter).collect();
        let mut columns = BTreeMap::new();
        for (_, schema, _) in &metrics {
            let mut parts = workers.iter_mut().flat_map(|worker| worker.next());
            let mut joined = parts.next().unwrap_or_else(|| empty(schema, 0));
            for part in parts {
                for (column, cells) in joined.iter_mut().zip(part) {
                    column.append(cells);
                }
            }
            for (&(id, _), column) in schema.iter().zip(joined) {
                columns.insert(id.to_string(), gather(column, &name_group));
            }
        }
        columns
    }
}

/// Expands a per-group column to one entry per name (`name_group[i]` is
/// name `i`'s group); aggregates pass through.
fn gather(column: MetricColumn, name_group: &[u32]) -> MetricColumn {
    match column {
        MetricColumn::Counts(rows) => {
            MetricColumn::Counts(name_group.iter().map(|&g| rows[g as usize]).collect())
        }
        MetricColumn::Floats(rows) => {
            MetricColumn::Floats(name_group.iter().map(|&g| rows[g as usize]).collect())
        }
        value @ MetricColumn::Value(_) => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perils_core::metric::{columns, Measure};
    use perils_dns::name::name;

    fn tiny_engine() -> Engine {
        Engine::with_extended_metrics()
    }

    #[test]
    fn engine_runs_all_metrics_over_synthetic_source() {
        let report = tiny_engine().run(SyntheticSource {
            params: TopologyParams::tiny(41),
        });
        let n = report.world.names.len();
        assert!(n > 0);
        for id in [
            columns::TCB_SIZE,
            columns::NAMEOWNER,
            columns::VULNERABLE_IN_TCB,
            columns::CUT_SIZE,
            columns::SAFE_IN_CUT,
            columns::MISCONFIG_FLAGS,
            columns::MISCONFIG_DEPTH,
            columns::DNSSEC_CHAIN_PROTECTED,
        ] {
            assert_eq!(report.try_counts(id).unwrap().len(), n, "{id}");
        }
        for id in [columns::SAFETY_PERCENT, columns::DNSSEC_SIGNED_FRACTION] {
            assert_eq!(report.try_floats(id).unwrap().len(), n, "{id}");
        }
        let value = report.try_value_column(columns::VALUE).unwrap();
        assert_eq!(value.names_seen() as usize, n);
        // Sanity: TCB members and cut members bound their subsets.
        let counts = |id| report.try_counts(id).unwrap();
        let tcb = counts(columns::TCB_SIZE);
        let within = |part, whole: &[usize]| counts(part).iter().zip(whole).all(|(p, w)| p <= w);
        assert!(within(columns::VULNERABLE_IN_TCB, tcb));
        assert!(within(columns::NAMEOWNER, tcb));
        assert!(within(columns::SAFE_IN_CUT, counts(columns::CUT_SIZE)));
        assert_eq!(report.top500_of(tcb).len(), report.top500().len());
    }

    #[test]
    fn engine_accepts_prebuilt_and_generated_worlds() {
        let world = SyntheticSource {
            params: TopologyParams::tiny(43),
        }
        .load();
        let names = world.names.len();
        let report = Engine::with_builtin_metrics().run_world(world);
        assert_eq!(report.try_counts(columns::TCB_SIZE).unwrap().len(), names);
    }

    #[test]
    #[should_panic(expected = "duplicate metric id")]
    fn duplicate_metric_rejected() {
        let _ = Engine::with_builtin_metrics().register(perils_core::TcbMetric);
    }

    /// Declares two counts columns and writes whatever its function
    /// writes: a deliberately miswired metric.
    struct MiswiredMetric(fn(&mut Row<'_>));

    impl NameMetric for MiswiredMetric {
        fn id(&self) -> &str {
            "miswired"
        }
        fn columns(&self) -> Vec<(&str, ColumnKind)> {
            vec![
                ("first", ColumnKind::Counts),
                ("second", ColumnKind::Counts),
            ]
        }
        fn prepare<'a>(&'a self, _: &'a Universe) -> Measure<'a> {
            Box::new(|_, row| (self.0)(row))
        }
    }

    fn run_miswired(write: fn(&mut Row<'_>)) {
        let world = AnalysisWorld::from_targets(Universe::default(), vec![name("www.x.com")]);
        Engine::new()
            .register(MiswiredMetric(write))
            .threads(NonZeroUsize::new(1))
            .run_world(world);
    }

    #[test]
    #[should_panic(expected = r#"metric "miswired" left column "second" unwritten"#)]
    fn short_row_panics_naming_metric_and_column() {
        run_miswired(|row| row.count(1));
    }

    #[test]
    #[should_panic(
        expected = r#"metric "miswired" wrote a floats cell into counts column "first""#
    )]
    fn float_in_counts_column_panics_naming_metric_and_column() {
        run_miswired(|row| row.float(1.0));
    }

    #[test]
    fn try_accessors_return_typed_errors() {
        let report = Engine::with_builtin_metrics().run(SyntheticSource {
            params: TopologyParams::tiny(47),
        });
        // Present and well-typed.
        assert!(report.try_counts(columns::TCB_SIZE).is_ok());
        assert!(report.try_floats(columns::SAFETY_PERCENT).is_ok());
        assert!(report.try_value_column(columns::VALUE).is_ok());
        // Absent column.
        match report.try_counts("no_such_column") {
            Err(ReportError::MissingColumn { column, available }) => {
                assert_eq!(column, "no_such_column");
                assert!(available.contains(&columns::TCB_SIZE.to_string()));
            }
            other => panic!("expected MissingColumn, got {other:?}"),
        }
        // Wrong kind.
        match report.try_counts(columns::SAFETY_PERCENT) {
            Err(ReportError::WrongKind {
                expected, actual, ..
            }) => {
                assert_eq!(expected, ColumnKind::Counts);
                assert_eq!(actual, ColumnKind::Floats);
            }
            other => panic!("expected WrongKind, got {other:?}"),
        }
        assert!(report.try_floats(columns::TCB_SIZE).is_err());
        assert!(report.try_value_column(columns::TCB_SIZE).is_err());
    }

    #[test]
    fn schema_lists_every_column_with_kind() {
        let report = Engine::with_builtin_metrics().run(SyntheticSource {
            params: TopologyParams::tiny(47),
        });
        let schema: std::collections::BTreeMap<&str, ColumnKind> = report.schema().collect();
        assert_eq!(schema.len(), report.column_ids().count());
        assert_eq!(schema[columns::TCB_SIZE], ColumnKind::Counts);
        assert_eq!(schema[columns::SAFETY_PERCENT], ColumnKind::Floats);
        assert_eq!(schema[columns::VALUE], ColumnKind::Value);
    }

    #[test]
    fn world_stream_phases_compose_manually() {
        // The events()/names() API drives ingestion by hand: drain the
        // event phase into a builder, then pull names.
        let mut stream = SyntheticSource {
            params: TopologyParams::tiny(59),
        }
        .stream();
        let universe = stream.build_universe();
        assert!(universe.zone_count() > 0);
        let names: Vec<_> = stream.names().take(10).collect();
        assert_eq!(names.len(), 10);
        // Every pulled name resolves against the streamed universe.
        for n in &names {
            assert!(universe.zone_of(&n.name).is_some(), "{}", n.name);
        }
        assert!(!stream.top500().is_empty());
    }

    #[test]
    fn scenario_source_streams_and_batches_identically() {
        use perils_authserver::scenarios::fbi_case;
        let scenario = fbi_case();
        let report = Engine::with_builtin_metrics().run(ScenarioSource {
            scenario: &scenario,
            targets: vec![name("www.fbi.gov")],
        });
        // The streamed scenario world reproduces §3.2: a TCB of at least
        // five servers and a two-machine cut.
        assert!(report.try_counts(columns::TCB_SIZE).unwrap()[0] >= 5);
        assert_eq!(report.try_counts(columns::CUT_SIZE).unwrap(), [2]);
    }

    #[test]
    fn batched_run_handles_empty_world() {
        let world = AnalysisWorld::from_targets(Universe::default(), vec![]);
        let report = Engine::with_builtin_metrics().run_world(world);
        assert!(report.try_counts(columns::TCB_SIZE).unwrap().is_empty());
        let value = report.try_value_column(columns::VALUE).unwrap();
        assert_eq!(value.names_seen(), 0);
    }

    #[test]
    fn describe_names_the_source() {
        let source = SyntheticSource {
            params: TopologyParams::tiny(1),
        };
        assert!(source.describe().contains("seed 1"));
    }
}
