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
//! sets — and feeds it to every metric's shard accumulator. The merge
//! concatenates shards in range order and gathers each zone's row back to
//! its names, so results are per name, deterministic and invariant in
//! the thread count.
//!
//! [`Engine::run_batched`] is the same pass streamed in bounded batches:
//! shards live only for one batch, each batch merges immediately, and the
//! merged columns append across batches, so peak accumulator memory is set
//! by the batch size rather than the name count. `run` is the
//! single-batch special case and produces byte-identical reports.
//!
//! The output is a columnar [`SurveyReport`] keyed by metric column id,
//! with typed accessors for the classic figures' columns.

use crate::params::TopologyParams;
use crate::scenario::{report_events, scenario_events};
use crate::topology::{plan_world, SurveyName};
use perils_authserver::scenarios::Scenario;
use perils_core::closure::DependencyIndex;
use perils_core::hijack::min_hijack_exact;
use perils_core::metric::{
    columns, ColumnKind, MeasureCtx, MetricColumn, MetricShard, NameMetric, PreparedState,
};
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
        tld: name.tld().unwrap_or_else(DnsName::root),
        popularity_rank: i,
        name,
    })
}

/// A world as a stream: incremental [`UniverseEvent`]s first, surveyed
/// names second. This is what every [`WorldSource`] produces and what
/// the engine ingests — the universe is built event by event through
/// `perils_core`'s incremental [`perils_core::UniverseBuilder`] and the
/// names are pulled in bounded batches, so no stage of ingestion ever
/// requires the whole feed in memory at once.
///
/// The two phases are ordered: drain [`WorldStream::events`] (or call
/// [`WorldStream::build_universe`]) before pulling
/// [`WorldStream::names`] — the dependency closures the metrics consume
/// are defined over the complete delegation structure.
pub struct WorldStream {
    events: Box<dyn Iterator<Item = UniverseEvent> + Send>,
    names: Box<dyn Iterator<Item = SurveyName> + Send>,
    top500: Vec<usize>,
    /// An already-built universe ([`WorldStream::of_world`]): the event
    /// phase is skipped instead of decomposing and re-interning a
    /// structure that already exists.
    prebuilt: Option<Universe>,
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
            prebuilt: None,
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
    /// Streams wrapped around a prebuilt world return it directly.
    pub fn build_universe(&mut self) -> Universe {
        if let Some(universe) = self.prebuilt.take() {
            return universe;
        }
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

    /// Wraps a prebuilt world as a stream. The universe is carried
    /// whole — [`WorldStream::build_universe`] returns it directly
    /// rather than decomposing and re-interning an existing structure
    /// (use [`Universe::into_events`] when the event *stream* itself is
    /// wanted; it round-trips verbatim, ids included).
    fn of_world(world: AnalysisWorld) -> WorldStream {
        let AnalysisWorld {
            universe,
            names,
            top500,
        } = world;
        let mut stream = WorldStream::new(std::iter::empty(), names.into_iter(), top500);
        stream.prebuilt = Some(universe);
        stream
    }
}

/// Supplies a world to the engine. Implemented by the synthetic
/// generator, hand-built packet scenarios and wire-probed dependency
/// reports, so every world kind runs through the same engine.
///
/// The primitive is **streaming**: [`WorldSource::stream`] emits the
/// world as incremental universe events plus a name stream, and the
/// provided [`WorldSource::load`] is a thin collector over it — so the
/// streamed path is the default implementation, and a source only
/// overrides `load` when it already holds a materialized world.
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

impl WorldSource for AnalysisWorld {
    fn describe(&self) -> String {
        format!("prebuilt world ({} names)", self.names.len())
    }

    fn stream(self) -> WorldStream {
        WorldStream::of_world(self)
    }

    fn load(self) -> AnalysisWorld {
        self
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

    /// Per-name counts column `id`.
    ///
    /// Thin convenience over [`SurveyReport::try_counts`].
    ///
    /// # Panics
    ///
    /// Panics when the column is missing or not a counts column.
    pub fn counts(&self, id: &str) -> &[usize] {
        self.try_counts(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Per-name floats column `id`.
    ///
    /// Thin convenience over [`SurveyReport::try_floats`].
    ///
    /// # Panics
    ///
    /// Panics when the column is missing or not a floats column.
    pub fn floats(&self, id: &str) -> &[f64] {
        self.try_floats(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// TCB size per name (root servers excluded).
    pub fn tcb_sizes(&self) -> &[usize] {
        self.counts(columns::TCB_SIZE)
    }

    /// Nameowner-administered TCB members per name.
    pub fn nameowner(&self) -> &[usize] {
        self.counts(columns::NAMEOWNER)
    }

    /// Vulnerable TCB members per name.
    pub fn vulnerable_in_tcb(&self) -> &[usize] {
        self.counts(columns::VULNERABLE_IN_TCB)
    }

    /// Percent of TCB with no known vulnerability, per name.
    pub fn safety_percent(&self) -> &[f64] {
        self.floats(columns::SAFETY_PERCENT)
    }

    /// Flattened min-cut size per name (0: uncuttable / root-served).
    pub fn cut_size(&self) -> &[usize] {
        self.counts(columns::CUT_SIZE)
    }

    /// Non-vulnerable members of the min-cut per name.
    pub fn safe_in_cut(&self) -> &[usize] {
        self.counts(columns::SAFE_IN_CUT)
    }

    /// Names-controlled aggregate over all surveyed names.
    ///
    /// Thin convenience over [`SurveyReport::try_value_column`].
    ///
    /// # Panics
    ///
    /// Panics when no value metric was registered.
    pub fn value(&self) -> &ValueIndex {
        self.try_value_column(columns::VALUE)
            .unwrap_or_else(|e| panic!("{e}"))
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
            .register(MisconfigMetric::default())
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
            for column in existing.columns() {
                assert!(
                    !metric.columns().contains(&column),
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

    /// Loads `source` and runs every registered metric over it in one
    /// batch (peak accumulator memory proportional to the name count;
    /// see [`Engine::run_batched`] for the bounded-memory pass). The
    /// universe itself is still ingested through the source's event
    /// stream — [`WorldSource::load`] is a collector over
    /// [`WorldSource::stream`] unless the source holds a prebuilt world.
    pub fn run(&self, source: impl WorldSource) -> SurveyReport {
        self.run_world(source.load())
    }

    /// Streams `source` end to end in bounded batches: the universe is
    /// built incrementally from the source's event stream, then names
    /// are pulled through the sharded loop `batch_size` at a time, each
    /// batch's shards merged immediately and the merged columns appended
    /// across batches. Peak accumulator memory is therefore proportional
    /// to `batch_size × threads`, not to the name count — the knob that
    /// keeps 593k-name paper-scale runs memory-bounded.
    ///
    /// The result is identical to [`Engine::run`] for every batch size:
    /// per-name columns concatenate in survey order and aggregate columns
    /// merge commutatively ([`MetricColumn::append`]).
    pub fn run_batched(&self, source: impl WorldSource, batch_size: NonZeroUsize) -> SurveyReport {
        let mut stream = source.stream();
        let threads = par::threads(self.threads);
        let universe = stream.build_universe();
        let index = DependencyIndex::build_with_threads(&universe, threads);
        let prepared: Vec<PreparedState> =
            self.metrics.iter().map(|m| m.prepare(&universe)).collect();
        let batch = batch_size.get();
        let mut merged: BTreeMap<String, MetricColumn> = BTreeMap::new();
        let mut names: Vec<SurveyName> = Vec::new();
        loop {
            let start = names.len();
            let batch_names: Vec<SurveyName> = stream.names.by_ref().take(batch).collect();
            if batch_names.is_empty() && start > 0 {
                break;
            }
            self.run_batch(
                &universe,
                &index,
                &prepared,
                &batch_names,
                start,
                threads,
                &mut merged,
            );
            let got = batch_names.len();
            names.extend(batch_names);
            if got < batch {
                break;
            }
        }
        let world = AnalysisWorld {
            universe,
            names,
            top500: stream.top500,
        };
        self.finish_report(world, &index, merged)
    }

    /// Runs every registered metric over an already-built world.
    pub fn run_world(&self, world: AnalysisWorld) -> SurveyReport {
        let threads = par::threads(self.threads);
        let index = DependencyIndex::build_with_threads(&world.universe, threads);
        self.run_world_indexed(world, &index)
    }

    /// [`Engine::run_world`] over a **prebuilt** dependency index — the
    /// snapshot-loading path: a world reconstituted from a `.psa` archive
    /// already carries its index, so the survey can skip the index build
    /// entirely. `index` must have been built from (or validated against)
    /// `world.universe`; the snapshot decoder guarantees this for loaded
    /// archives.
    pub fn run_world_indexed(&self, world: AnalysisWorld, index: &DependencyIndex) -> SurveyReport {
        let threads = par::threads(self.threads);
        let prepared: Vec<PreparedState> = self
            .metrics
            .iter()
            .map(|m| m.prepare(&world.universe))
            .collect();
        let mut merged: BTreeMap<String, MetricColumn> = BTreeMap::new();
        self.run_batch(
            &world.universe,
            index,
            &prepared,
            &world.names,
            0,
            threads,
            &mut merged,
        );
        self.finish_report(world, index, merged)
    }

    /// One sharded pass over a contiguous batch of names
    /// (`batch_start..batch_start + batch.len()` in survey order).
    ///
    /// Every name under one deepest zone ([`Universe::zone_of`]) has the
    /// same delegation chain and therefore the same closure, so the batch
    /// is grouped by that zone first — keys computed on the workers, a
    /// name with no enclosing zone in a group of its own — and the
    /// distinct zones, in first-occurrence order, are what the workers
    /// shard: each opens one closure view per zone and hands it to every
    /// metric once. The merged per-group columns are gathered back per
    /// name and land in `merged` (inserted on the first batch, appended
    /// afterwards).
    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &self,
        universe: &Universe,
        index: &DependencyIndex,
        prepared: &[PreparedState],
        batch: &[SurveyName],
        batch_start: usize,
        threads: usize,
        merged: &mut BTreeMap<String, MetricColumn>,
    ) {
        let metrics = &self.metrics;

        let keys = par::map_ranges(batch.len(), threads, |range| {
            batch[range]
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

        let groups = &groups;
        let worker_shards = par::map_ranges(groups.len(), threads, |range| {
            let mut shards: Vec<Box<dyn MetricShard>> = metrics
                .iter()
                .zip(prepared)
                .map(|(m, p)| m.shard(universe, range.len(), p))
                .collect();
            let mut ws = index.workspace();
            for (slot, &(zone, first, names)) in groups[range].iter().enumerate() {
                let ctx = MeasureCtx {
                    universe,
                    index,
                    names,
                    closure: index.closure_view_in(universe, &batch[first].name, zone, &mut ws),
                };
                for shard in &mut shards {
                    shard.measure(&ctx, slot);
                }
            }
            shards
        });

        // Transpose worker-major into metric-major, preserving range
        // order, and merge this batch.
        let mut per_metric: Vec<Vec<Box<dyn MetricShard>>> =
            (0..self.metrics.len()).map(|_| Vec::new()).collect();
        for worker in worker_shards {
            for (k, shard) in worker.into_iter().enumerate() {
                per_metric[k].push(shard);
            }
        }
        for (metric, shards) in self.metrics.iter().zip(per_metric) {
            for (id, column) in metric.merge(universe, shards) {
                if let Some(len) = column.len() {
                    assert_eq!(
                        len,
                        groups.len(),
                        "metric {:?} column {id:?} has wrong zone-group count",
                        metric.id()
                    );
                }
                let column = gather(column, &name_group);
                match merged.entry(id) {
                    std::collections::btree_map::Entry::Vacant(slot) => {
                        if batch_start > 0 {
                            panic!(
                                "metric {:?} produced column {:?} only after the first batch",
                                metric.id(),
                                slot.key()
                            );
                        }
                        slot.insert(column);
                    }
                    std::collections::btree_map::Entry::Occupied(mut slot) => {
                        assert!(batch_start > 0, "duplicate metric column {:?}", slot.key());
                        slot.get_mut().append(column);
                    }
                }
            }
        }
    }

    /// Verifies column lengths, runs the exact hijack sample and wraps
    /// the report.
    fn finish_report(
        &self,
        world: AnalysisWorld,
        index: &DependencyIndex,
        merged: BTreeMap<String, MetricColumn>,
    ) -> SurveyReport {
        let n = world.names.len();
        for (id, column) in &merged {
            if let Some(len) = column.len() {
                assert_eq!(len, n, "column {id:?} has wrong total length");
            }
        }

        // Exact hijack sample (sequential; used by the ablation analysis).
        let mut exact_sample = Vec::new();
        let mut ws = index.workspace();
        for i in 0..self.exact_hijack_sample.min(n) {
            let closure = index.closure_view(&world.universe, &world.names[i].name, &mut ws);
            if let Some(exact) = min_hijack_exact(&world.universe, &closure) {
                exact_sample.push((i, exact.size(), exact.safe_members));
            }
        }

        SurveyReport {
            world,
            columns: merged,
            exact_sample,
        }
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
    use perils_core::metric::columns;

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
            assert_eq!(report.counts(id).len(), n, "{id}");
        }
        assert_eq!(report.floats(columns::SAFETY_PERCENT).len(), n);
        assert_eq!(report.floats(columns::DNSSEC_SIGNED_FRACTION).len(), n);
        assert_eq!(report.value().names_seen() as usize, n);
        // Sanity: TCB members and cut members bound their subsets.
        for i in 0..n {
            assert!(report.vulnerable_in_tcb()[i] <= report.tcb_sizes()[i]);
            assert!(report.nameowner()[i] <= report.tcb_sizes()[i]);
            assert!(report.safe_in_cut()[i] <= report.cut_size()[i]);
        }
        assert_eq!(
            report.top500_of(report.tcb_sizes()).len(),
            report.top500().len()
        );
    }

    #[test]
    fn engine_accepts_prebuilt_and_generated_worlds() {
        let world = SyntheticSource {
            params: TopologyParams::tiny(43),
        }
        .load();
        let names = world.names.len();
        let report = Engine::with_builtin_metrics().run(world);
        assert_eq!(report.tcb_sizes().len(), names);
    }

    #[test]
    #[should_panic(expected = "duplicate metric id")]
    fn duplicate_metric_rejected() {
        let _ = Engine::with_builtin_metrics().register(perils_core::TcbMetric);
    }

    #[test]
    #[should_panic(expected = "no metric produced column")]
    fn missing_column_panics_with_listing() {
        let report = Engine::new().run(SyntheticSource {
            params: TopologyParams::tiny(47),
        });
        let _ = report.tcb_sizes();
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
    fn batched_run_matches_unbatched() {
        let params = TopologyParams::tiny(53);
        let engine = tiny_engine();
        let baseline = engine.run(SyntheticSource {
            params: params.clone(),
        });
        let n = baseline.world.names.len();
        assert!(n > 0);
        for batch in [1usize, 7, 64, n] {
            let batched = engine.run_batched(
                SyntheticSource {
                    params: params.clone(),
                },
                NonZeroUsize::new(batch).unwrap(),
            );
            for id in baseline.column_ids() {
                let a = baseline.column(id).expect("baseline column");
                let b = batched.column(id).expect("batched column");
                match (a, b) {
                    (MetricColumn::Counts(x), MetricColumn::Counts(y)) => {
                        assert_eq!(x, y, "{id} at batch {batch}")
                    }
                    (MetricColumn::Floats(x), MetricColumn::Floats(y)) => {
                        assert_eq!(x, y, "{id} at batch {batch}")
                    }
                    (MetricColumn::Value(x), MetricColumn::Value(y)) => {
                        assert_eq!(x.ranking(), y.ranking(), "{id} at batch {batch}");
                        assert_eq!(x.names_seen(), y.names_seen());
                    }
                    _ => panic!("{id} changed kind at batch {batch}"),
                }
            }
        }
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
        use perils_dns::name::name;
        let scenario = fbi_case();
        let targets = vec![name("www.fbi.gov")];
        let full = Engine::with_builtin_metrics().run(ScenarioSource {
            scenario: &scenario,
            targets: targets.clone(),
        });
        let batched = Engine::with_builtin_metrics().run_batched(
            ScenarioSource {
                scenario: &scenario,
                targets,
            },
            NonZeroUsize::new(1).unwrap(),
        );
        assert_eq!(full.tcb_sizes(), batched.tcb_sizes());
        assert_eq!(full.cut_size(), batched.cut_size());
        assert_eq!(full.world.universe, batched.world.universe);
    }

    #[test]
    fn batched_run_handles_empty_world() {
        let world = AnalysisWorld::from_targets(perils_core::universe::Universe::default(), vec![]);
        let report =
            Engine::with_builtin_metrics().run_batched(world, NonZeroUsize::new(16).unwrap());
        assert!(report.tcb_sizes().is_empty());
        assert_eq!(report.value().names_seen(), 0);
    }

    #[test]
    fn describe_names_the_source() {
        let source = SyntheticSource {
            params: TopologyParams::tiny(1),
        };
        assert!(source.describe().contains("seed 1"));
    }
}
