//! Property tests of the streaming engine pass: for random synthetic
//! seeds, `Engine::run_batched` must produce a `SurveyReport` identical to
//! `Engine::run` at every tested batch size — per-name columns
//! element-for-element, the value aggregate ranking-for-ranking — and the
//! report must be invariant in the worker thread count at the same time.
//! The engine measures each deepest zone once and gathers per name; that
//! pass must equal measuring every name alone.

use proptest::prelude::*;

use perils_core::metric::{MeasureCtx, MetricColumn, MetricShard, NameMetric, PreparedState};
use perils_core::universe::Universe;
use perils_core::{
    DependencyIndex, DnssecCoverageMetric, MinCutMetric, MisconfigMetric, TcbMetric, ValueMetric,
    ZombieDelegationMetric,
};
use perils_dns::name::{name, DnsName};
use perils_survey::engine::{AnalysisWorld, Engine, SurveyReport, SyntheticSource, WorldSource};
use perils_survey::params::TopologyParams;
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Small-but-structured generator parameters: a few hundred names over
/// every hosting style, deterministic in `seed`.
fn params(seed: u64) -> TopologyParams {
    TopologyParams::tiny(seed)
}

fn assert_columns_equal(
    a: &MetricColumn,
    b: &MetricColumn,
    id: &str,
    what: &str,
) -> Result<(), String> {
    match (a, b) {
        (MetricColumn::Counts(x), MetricColumn::Counts(y)) => {
            prop_assert_eq!(x, y, "{} differs ({})", id, what)
        }
        (MetricColumn::Floats(x), MetricColumn::Floats(y)) => {
            prop_assert_eq!(x, y, "{} differs ({})", id, what)
        }
        (MetricColumn::Value(x), MetricColumn::Value(y)) => {
            prop_assert_eq!(x.names_seen(), y.names_seen(), "{} ({})", id, what);
            prop_assert_eq!(x.ranking(), y.ranking(), "{} ranking ({})", id, what);
        }
        _ => return Err(format!("{id} changed column kind ({what})")),
    }
    Ok(())
}

fn assert_reports_equal(a: &SurveyReport, b: &SurveyReport, what: &str) -> Result<(), String> {
    let ids_a: Vec<&str> = a.column_ids().collect();
    let ids_b: Vec<&str> = b.column_ids().collect();
    prop_assert_eq!(&ids_a, &ids_b, "column sets differ ({})", what);
    for id in ids_a {
        assert_columns_equal(a.column(id).unwrap(), b.column(id).unwrap(), id, what)?;
    }
    prop_assert_eq!(&a.exact_sample, &b.exact_sample, "exact sample ({})", what);
    Ok(())
}

/// The extended metric set plus the zombie metric, as fresh instances.
fn extended_and_zombie() -> Vec<Box<dyn NameMetric>> {
    vec![
        Box::new(TcbMetric),
        Box::new(MinCutMetric),
        Box::new(ValueMetric),
        Box::new(MisconfigMetric::default()),
        Box::new(DnssecCoverageMetric::top_level()),
        Box::new(ZombieDelegationMetric),
    ]
}

/// Measures every name of `world` alone (`names: 1`) into one shard per
/// metric: the per-name pass the per-zone engine must reproduce.
fn per_name_reference(world: &AnalysisWorld) -> BTreeMap<String, MetricColumn> {
    let universe = &world.universe;
    let index = DependencyIndex::build(universe);
    let mut ws = index.workspace();
    let mut columns = BTreeMap::new();
    for metric in extended_and_zombie() {
        let prepared = metric.prepare(universe);
        let mut shard = metric.shard(universe, world.names.len(), &prepared);
        for (slot, entry) in world.names.iter().enumerate() {
            let ctx = MeasureCtx {
                universe,
                index: &index,
                names: 1,
                closure: index.closure_view(universe, &entry.name, &mut ws),
            };
            shard.measure(&ctx, slot);
        }
        columns.extend(metric.merge(universe, vec![shard]));
    }
    columns
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// `run_batched` ≡ `run` for batch sizes {1, 7, 64, all}, re-pinned on
    /// the view-based closure representation over the full metric set
    /// (built-ins + misconfig + DNSSEC + zombie), so every view-path
    /// measurement — including the zone grouping, which dedupes only
    /// within one batch — is covered.
    #[test]
    fn batched_report_identical_to_unbatched(seed in 0u64..10_000) {
        let engine = Engine::with_extended_metrics()
            .register(perils_core::ZombieDelegationMetric)
            .exact_hijack_sample(5);
        let baseline = engine.run(SyntheticSource { params: params(seed) });
        let n = baseline.world.names.len();
        prop_assert!(n > 0);
        for batch in [1usize, 7, 64, n] {
            let batched = engine.run_batched(
                SyntheticSource { params: params(seed) },
                NonZeroUsize::new(batch).expect("non-zero batch"),
            );
            assert_reports_equal(&baseline, &batched, &format!("batch {batch}"))?;
        }
    }

    /// Batching composes with thread-count invariance: a single-threaded
    /// unbatched run equals a multi-threaded batched run.
    #[test]
    fn batching_and_threading_commute(seed in 0u64..10_000, batch in 1usize..96) {
        let one = Engine::with_builtin_metrics()
            .threads(NonZeroUsize::new(1))
            .run(SyntheticSource { params: params(seed) });
        let many = Engine::with_builtin_metrics()
            .threads(NonZeroUsize::new(8))
            .run_batched(
                SyntheticSource { params: params(seed) },
                NonZeroUsize::new(batch).expect("non-zero batch"),
            );
        assert_reports_equal(&one, &many, &format!("1-thread vs 8-thread batch {batch}"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The per-zone engine pass equals measuring every name alone, for
    /// threads {1, 8} × batch {1, 7, all}; and names under one deepest
    /// zone get identical per-name columns.
    #[test]
    fn per_zone_pass_equals_per_name_reference(seed in 0u64..10_000) {
        let world = SyntheticSource { params: params(seed) }.load();
        let reference = per_name_reference(&world);
        let n = world.names.len();
        let mut first_under: HashMap<_, usize> = HashMap::new();
        let mut shared = Vec::new();
        for (i, entry) in world.names.iter().enumerate() {
            let first = *first_under.entry(world.universe.zone_of(&entry.name)).or_insert(i);
            if first != i {
                shared.push((first, i));
            }
        }
        prop_assert!(!shared.is_empty(), "no two names share a deepest zone");
        for threads in [1usize, 8] {
            for batch in [1usize, 7, n] {
                let what = format!("{threads} threads, batch {batch}");
                let copy = AnalysisWorld {
                    universe: world.universe.clone(),
                    names: world.names.clone(),
                    top500: Vec::new(),
                };
                let report = Engine::with_extended_metrics()
                    .register(ZombieDelegationMetric)
                    .threads(NonZeroUsize::new(threads))
                    .run_batched(copy, NonZeroUsize::new(batch).expect("non-zero batch"));
                let ids: Vec<&str> = report.column_ids().collect();
                let reference_ids: Vec<&str> = reference.keys().map(String::as_str).collect();
                prop_assert_eq!(&ids, &reference_ids, "column sets differ ({})", what);
                for id in ids {
                    let column = report.column(id).unwrap();
                    assert_columns_equal(column, &reference[id], id, &what)?;
                    for &(a, b) in &shared {
                        match column {
                            MetricColumn::Counts(v) => prop_assert_eq!(v[a], v[b], "{} ({})", id, what),
                            MetricColumn::Floats(v) => prop_assert_eq!(v[a], v[b], "{} ({})", id, what),
                            MetricColumn::Value(_) => {}
                        }
                    }
                }
            }
        }
    }
}

/// Records each group's multiplicity per name and counts `measure` calls,
/// so a test can see how the engine grouped a batch.
struct GroupProbe(Arc<AtomicUsize>);

struct GroupProbeShard(Arc<AtomicUsize>, Vec<usize>);

impl MetricShard for GroupProbeShard {
    fn measure(&mut self, ctx: &MeasureCtx<'_>, slot: usize) {
        self.0.fetch_add(1, Ordering::Relaxed);
        self.1[slot] = usize::try_from(ctx.names).expect("group fits usize");
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

impl NameMetric for GroupProbe {
    fn id(&self) -> &str {
        "group_probe"
    }
    fn columns(&self) -> Vec<String> {
        vec!["group_names".into()]
    }
    fn shard(&self, _: &Universe, len: usize, _: &PreparedState) -> Box<dyn MetricShard> {
        Box::new(GroupProbeShard(self.0.clone(), vec![0; len]))
    }
    fn merge(
        &self,
        _: &Universe,
        shards: Vec<Box<dyn MetricShard>>,
    ) -> Vec<(String, MetricColumn)> {
        let mut all = Vec::new();
        for shard in shards {
            all.extend(
                shard
                    .into_any()
                    .downcast::<GroupProbeShard>()
                    .expect("own shard")
                    .1,
            );
        }
        vec![("group_names".into(), MetricColumn::Counts(all))]
    }
}

/// Runs the probe and the value metric over `targets`; returns the
/// number of groups measured and each name's group multiplicity.
fn probe_groups(universe: &Universe, targets: &[&str], threads: usize) -> (usize, Vec<usize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let world =
        AnalysisWorld::from_targets(universe.clone(), targets.iter().map(|t| name(t)).collect());
    let report = Engine::new()
        .register(ValueMetric)
        .register(GroupProbe(calls.clone()))
        .threads(NonZeroUsize::new(threads))
        .run(world);
    assert_eq!(report.value().names_seen(), targets.len() as u64);
    (
        calls.load(Ordering::Relaxed),
        report.counts("group_names").to_vec(),
    )
}

/// Duplicate names and a zone's apex share the zone's group; a name only
/// the root zone covers and a name no zone covers each form a group of
/// their own.
#[test]
fn grouping_edge_cases() {
    let mut b = Universe::builder();
    b.raw_server(&name("a.root-servers.net"), false, true);
    b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
    b.add_zone(&name("com"), &[name("a.root-servers.net")]);
    b.add_zone(&name("site.com"), &[name("ns1.site.com")]);
    let rooted = b.finish();
    assert_eq!(
        rooted.zone_of(&name("nowhere.invalid")),
        rooted.zone_id(&DnsName::root())
    );
    let targets = [
        "www.site.com",
        "www.site.com",
        "nowhere.invalid",
        "mail.site.com",
        "a.com",
        "other.invalid",
        "site.com",
    ];
    for threads in [1, 8] {
        assert_eq!(
            probe_groups(&rooted, &targets, threads),
            (3, vec![4, 4, 2, 4, 1, 2, 4]),
            "{threads} threads"
        );
    }

    let mut b = Universe::builder();
    b.add_zone(&name("com"), &[name("ns.tld.com")]);
    let rootless = b.finish();
    assert_eq!(rootless.zone_of(&name("nowhere.invalid")), None);
    let targets = ["nowhere.invalid", "www.x.com", "nowhere.invalid"];
    for threads in [1, 8] {
        assert_eq!(
            probe_groups(&rootless, &targets, threads),
            (2, vec![2, 1, 2]),
            "{threads} threads"
        );
    }
}
