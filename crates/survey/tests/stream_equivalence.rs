//! Streamed-vs-materialized equivalence: the streaming ingestion path
//! must be provably equal to the monolithic build.
//!
//! Two layers of pinning:
//!
//! 1. **Order independence** (property): the same event feed permuted
//!    arbitrarily, or re-dealt round-robin and ingested deal by deal,
//!    produces a byte-identical *canonical* universe
//!    (`UniverseBuilder::finish_canonical`), with a byte-identical
//!    `DependencyIndex` (observed through dependencies and
//!    per-name closures) and a byte-identical full figure set.
//! 2. **Thread-count invariance of lint**: sharded lint at any worker
//!    count returns exactly the serial reference's diagnostics (the
//!    oracle crate's `check_universe`) and renders the same bytes.

use proptest::prelude::*;

use perils_core::closure::DependencyIndex;
use perils_core::universe::{Universe, UniverseEvent};
use perils_core::ZombieDelegationMetric;
use perils_survey::engine::{AnalysisWorld, Engine, SurveyReport, SyntheticSource, WorldSource};
use perils_survey::figures::ZombieFigure;
use perils_survey::params::TopologyParams;
use perils_survey::render::FigureRegistry;
use perils_survey::topology::SurveyName;
use perils_util::Rng;
use perils_vulndb::VulnDb;

fn source(seed: u64) -> SyntheticSource {
    SyntheticSource {
        params: TopologyParams::tiny(seed),
    }
}

/// The full event feed plus the name sample of a tiny synthetic world.
fn feed(seed: u64) -> (Vec<UniverseEvent>, Vec<SurveyName>, Vec<usize>) {
    let mut stream = source(seed).stream();
    let events: Vec<UniverseEvent> = stream.events().collect();
    let names: Vec<SurveyName> = stream.names().collect();
    let top500 = stream.top500().to_vec();
    (events, names, top500)
}

fn build(events: impl IntoIterator<Item = UniverseEvent>, canonical: bool) -> Universe {
    let db = VulnDb::isc_feb_2004();
    let mut builder = Universe::builder();
    for event in events {
        builder.apply(event, &db);
    }
    if canonical {
        builder.finish_canonical()
    } else {
        builder.finish()
    }
}

/// Every observable of the dependency index, for byte-comparison: the
/// full closure (server and zone sets) of every surveyed name.
fn index_observations(
    index: &DependencyIndex,
    universe: &Universe,
    names: &[SurveyName],
) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut ws = index.workspace();
    for name in names {
        let closure = index.closure_view(universe, &name.name, &mut ws);
        out.push(closure.servers().map(|s| s.0).collect());
        out.push(closure.zones().map(|z| z.0).collect());
    }
    out
}

/// The full rendered figure set (text + CSV bytes per figure) over a
/// universe with the given name sample.
fn figure_bytes(universe: Universe, names: Vec<SurveyName>, top500: Vec<usize>) -> Vec<String> {
    let report: SurveyReport = Engine::with_extended_metrics()
        .register(ZombieDelegationMetric)
        .run_world(AnalysisWorld {
            universe,
            names,
            top500,
        });
    let registry = FigureRegistry::extended().register(ZombieFigure);
    registry
        .build_all(&report)
        .iter()
        .map(|outcome| {
            let figure = outcome.rendered().expect("figure renders");
            format!("{}\n{}", figure.text(), figure.csv())
        })
        .collect()
}

/// All three rendered lint serializations over a universe with the given
/// name sample, at a given thread count.
fn lint_bytes(universe: &Universe, names: &[SurveyName], threads: usize) -> Vec<String> {
    use perils_core::lint::{LintIndex, RuleRegistry, SeverityOverrides};
    use perils_survey::lint::{run_lint_with, LintFormat};
    let names: Vec<_> = names.iter().map(|n| n.name.clone()).collect();
    let facts = LintIndex::build(universe);
    let report = run_lint_with(
        universe,
        &names,
        &RuleRegistry::builtin(),
        &SeverityOverrides::new(),
        std::num::NonZeroUsize::new(threads),
        &DependencyIndex::build(universe),
        &facts,
    );
    vec![
        report.emit(LintFormat::Text),
        report.emit(LintFormat::Json),
        report.emit(LintFormat::Sarif),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On tiny synthetic worlds, every server's chain read off the
    /// universe's parent links (what the min-cut walk uses) is the chain
    /// a lookup of its name finds.
    #[test]
    fn server_chains_from_parent_links_equal_chain_lookups(seed in 0u64..10_000) {
        let world = source(seed).load();
        let universe = &world.universe;
        let mut chain = Vec::new();
        for sid in universe.server_ids() {
            universe.server_chain_into(sid, &mut chain);
            prop_assert_eq!(&chain, &universe.chain_zones(&universe.server(sid).name), "{:?}", sid);
        }
    }
}

#[test]
fn lint_output_is_thread_count_invariant() {
    let world = source(20040722).load();
    let serial = lint_bytes(&world.universe, &world.names, 1);
    for threads in [2, 8] {
        assert_eq!(
            lint_bytes(&world.universe, &world.names, threads),
            serial,
            "lint output diverged at {threads} threads"
        );
    }
}

/// With default severities and no overrides, `run_lint_with` returns
/// exactly the serial reference's diagnostics at every worker count:
/// name subjects included, which the runner rebases from each worker's
/// names onto the whole run's. Every worker count is checked before the
/// test fails, so a failure lists each one that diverged.
#[test]
fn sharded_lint_equals_the_serial_reference() {
    use perils_core::lint::{LintIndex, RuleRegistry, SeverityOverrides};
    use perils_oracle::lint::check_universe;
    use perils_survey::lint::run_lint_with;
    use perils_survey::WorldSpec;

    let worlds = [2005u64, 20040722]
        .map(|seed| source(seed).load())
        .into_iter()
        .chain([WorldSpec::Tripwire.stream().collect()]);
    for world in worlds {
        let universe = &world.universe;
        let names: Vec<_> = world.names.iter().map(|n| n.name.clone()).collect();
        let index = DependencyIndex::build(universe);
        let facts = LintIndex::build(universe);
        let registry = RuleRegistry::builtin();
        let serial = check_universe(universe, &index, &facts, &registry, &names);
        assert!(
            !serial.is_empty(),
            "the reference finds something to compare"
        );
        let diverged: Vec<usize> = [1, 3, 8]
            .into_iter()
            .filter(|&workers| {
                let report = run_lint_with(
                    universe,
                    &names,
                    &registry,
                    &SeverityOverrides::new(),
                    std::num::NonZeroUsize::new(workers),
                    &index,
                    &facts,
                );
                !report.diagnostics.iter().eq(&serial)
            })
            .collect();
        assert!(
            diverged.is_empty(),
            "sharded lint diverged from check_universe at {diverged:?} workers"
        );
    }
}

#[test]
fn decomposed_world_round_trips_through_the_stream() {
    // An explicit decomposition (`Universe::into_events`) fed back
    // through a WorldStream rebuilds the universe verbatim.
    let world = source(11).load();
    let reference = world.universe.clone();
    let rebuilt = perils_survey::WorldStream::new(
        world.universe.into_events(),
        world.names.into_iter(),
        world.top500,
    )
    .collect();
    assert_eq!(rebuilt.universe, reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any event-order permutation, and any round-robin re-deal of it,
    /// produces a canonical universe — and therefore a dependency index
    /// and a full figure set — byte-identical to the monolithic build.
    #[test]
    fn any_event_permutation_and_sharding_is_byte_identical(
        seed in 0u64..1_000,
        shuffle_seed in 0u64..1_000,
        shards in 1usize..5,
    ) {
        let (events, names, top500) = feed(seed);
        let baseline = build(events.clone(), true);

        // Arbitrary permutation of the whole feed.
        let mut permuted = events.clone();
        Rng::new(shuffle_seed).shuffle(&mut permuted);
        let from_permuted = build(permuted.clone(), true);
        prop_assert_eq!(&from_permuted, &baseline, "permuted feed diverged");

        // Re-deal the permuted feed round-robin into `shards` ingestion
        // shards, then ingest shard by shard (what a sharded loader does).
        let mut dealt: Vec<Vec<UniverseEvent>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, event) in permuted.into_iter().enumerate() {
            dealt[i % shards].push(event);
        }
        let from_shards = build(dealt.into_iter().flatten(), true);
        prop_assert_eq!(&from_shards, &baseline, "sharded feed diverged");

        // Equal universes ⇒ equal dependency indexes: the `DEPINDEX`
        // bytes match, and so do the dependency rows and every surveyed
        // name's closure.
        let expected = DependencyIndex::build(&baseline);
        let index = DependencyIndex::build(&from_permuted);
        prop_assert!(index == expected, "DEPINDEX bytes diverged");
        prop_assert_eq!(
            &index_observations(&index, &from_permuted, &names),
            &index_observations(&expected, &baseline, &names),
            "index diverged"
        );

        // ... and byte-identical lint diagnostics in every serialization,
        // regardless of worker count on either side.
        prop_assert_eq!(
            lint_bytes(&from_permuted, &names, 8),
            lint_bytes(&baseline, &names, 1),
            "lint output diverged across permutation/sharding/threads"
        );

        // ... and a byte-identical full figure set.
        prop_assert_eq!(
            figure_bytes(from_permuted, names.clone(), top500.clone()),
            figure_bytes(baseline, names, top500)
        );
    }
}
