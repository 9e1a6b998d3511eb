//! Property tests of the engine pass: the engine measures each deepest
//! zone once and gathers per name, and for random synthetic seeds that
//! pass must equal measuring every name alone — per-name columns
//! element-for-element, the value aggregate ranking-for-ranking — at
//! every worker thread count.

use proptest::prelude::*;

use perils_core::metric::{ColumnKind, Measure, MeasureCtx, MetricColumn, NameMetric, Row};
use perils_core::universe::Universe;
use perils_core::{
    DependencyIndex, DnssecCoverageMetric, MinCutMetric, MisconfigMetric, TcbMetric, ValueMetric,
    ZombieDelegationMetric,
};
use perils_dns::name::{name, DnsName};
use perils_survey::engine::{AnalysisWorld, Engine, SyntheticSource, WorldSource};
use perils_survey::params::TopologyParams;
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

/// The extended metric set plus the DNSSEC-coverage and zombie metrics,
/// as fresh instances.
fn extended_and_zombie() -> Vec<Box<dyn NameMetric>> {
    vec![
        Box::new(TcbMetric),
        Box::new(MinCutMetric),
        Box::new(ValueMetric),
        Box::new(MisconfigMetric),
        Box::new(DnssecCoverageMetric::top_level()),
        Box::new(ZombieDelegationMetric),
    ]
}

/// Measures every name of `world` alone (`names: 1`) on one worker: the
/// per-name pass the per-zone engine must reproduce.
fn per_name_reference(world: &AnalysisWorld) -> BTreeMap<String, MetricColumn> {
    let universe = &world.universe;
    let index = DependencyIndex::build(universe);
    let mut ws = index.workspace();
    let mut columns = BTreeMap::new();
    for metric in extended_and_zombie() {
        let schema = metric.columns();
        let measure = metric.prepare(universe);
        let mut cells: Vec<MetricColumn> = schema
            .iter()
            .map(|&(_, kind)| MetricColumn::with_capacity(kind, universe, world.names.len()))
            .collect();
        for entry in &world.names {
            let ctx = MeasureCtx {
                universe,
                index: &index,
                names: 1,
                closure: index.closure_view(universe, &entry.name, &mut ws),
            };
            Row::record(metric.id(), &schema, &mut cells, &measure, &ctx);
        }
        columns.extend(schema.iter().map(|&(id, _)| id.to_string()).zip(cells));
    }
    columns
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The per-zone engine pass equals measuring every name alone, for
    /// threads {1, 8}; and names under one deepest zone get identical
    /// per-name columns.
    #[test]
    fn per_zone_pass_equals_per_name_reference(seed in 0u64..10_000) {
        let world = SyntheticSource { params: params(seed) }.load();
        let reference = per_name_reference(&world);
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
            let what = format!("{threads} threads");
            let copy = AnalysisWorld {
                universe: world.universe.clone(),
                names: world.names.clone(),
                top500: Vec::new(),
            };
            let report = Engine::with_extended_metrics()
                .register(DnssecCoverageMetric::top_level())
                .register(ZombieDelegationMetric)
                .threads(NonZeroUsize::new(threads))
                .run_world(copy);
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

/// Records each group's multiplicity per name and counts `measure` calls,
/// so a test can see how the engine grouped the names.
struct GroupProbe(Arc<AtomicUsize>);

impl NameMetric for GroupProbe {
    fn id(&self) -> &str {
        "group_probe"
    }
    fn columns(&self) -> Vec<(&str, ColumnKind)> {
        vec![("group_names", ColumnKind::Counts)]
    }
    fn prepare<'a>(&'a self, _: &'a Universe) -> Measure<'a> {
        Box::new(|ctx, row| {
            self.0.fetch_add(1, Ordering::Relaxed);
            row.count(usize::try_from(ctx.names).expect("group fits usize"));
        })
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
        .run_world(world);
    let value = report.try_value_column("value").expect("value column");
    assert_eq!(value.names_seen(), targets.len() as u64);
    (
        calls.load(Ordering::Relaxed),
        report
            .try_counts("group_names")
            .expect("probe column")
            .to_vec(),
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
