//! Streamed-vs-materialized equivalence: the streaming ingestion path
//! must be provably equal to the monolithic build.
//!
//! Two layers of pinning:
//!
//! 1. **Order independence** (property): the same event feed permuted
//!    arbitrarily, or re-dealt into any number of ingestion shards,
//!    produces a byte-identical *canonical* universe
//!    (`UniverseBuilder::finish_canonical`), with a byte-identical
//!    `DependencyIndex` (observed through dependencies and
//!    per-name closures) and a byte-identical full figure set.
//! 2. **Engine equivalence**: `Engine::run_batched` (the streamed,
//!    bounded-memory pass) equals `Engine::run` column for column (also
//!    covered per batch size in `prop_engine.rs`).

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
/// per-server dependency rows, and the full closure
/// (server and zone sets) of every surveyed name. `threads` selects the
/// build path — serial Tarjan + serial recurrence at 1, parallel SCC +
/// tree-parallel rows otherwise — so comparing across thread counts pins
/// the parallel pipeline against the serial one.
fn index_observations(universe: &Universe, names: &[SurveyName], threads: usize) -> Vec<Vec<u32>> {
    let index = DependencyIndex::build_with_threads(universe, threads);
    let mut out = Vec::new();
    for sid in universe.server_ids() {
        out.push(index.deps_of(sid).map(|s| s.0).collect());
    }
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
    use perils_core::lint::{RuleRegistry, SeverityOverrides};
    use perils_survey::lint::{run_lint, LintFormat};
    let names: Vec<_> = names.iter().map(|n| n.name.clone()).collect();
    let report = run_lint(
        universe,
        &names,
        &RuleRegistry::builtin(),
        &SeverityOverrides::new(),
        std::num::NonZeroUsize::new(threads),
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

#[test]
fn decomposed_world_round_trips_through_the_stream() {
    // An explicit decomposition (`Universe::into_events`) fed back
    // through a WorldStream rebuilds the universe verbatim. (Prebuilt
    // worlds wrapped via `stream()` skip decomposition entirely — the
    // universe is carried whole — so this exercises the event path on
    // purpose.)
    let world = source(11).load();
    let reference = world.universe.clone();
    let rebuilt = perils_survey::WorldStream::new(
        world.universe.into_events(),
        world.names.into_iter(),
        world.top500,
    )
    .collect();
    assert_eq!(rebuilt.universe, reference);

    // And the prebuilt fast path returns the same universe without a
    // rebuild.
    let world2 = source(11).load();
    assert_eq!(world2.stream().collect().universe, reference);
}

/// Column-for-column report equality (the value aggregate compared by
/// ranking, as in `prop_engine.rs`, but assert-based for plain tests).
fn assert_reports_equal(a: &SurveyReport, b: &SurveyReport, what: &str) {
    use perils_core::metric::MetricColumn;
    let ids_a: Vec<&str> = a.column_ids().collect();
    let ids_b: Vec<&str> = b.column_ids().collect();
    assert_eq!(ids_a, ids_b, "column sets differ ({what})");
    for id in ids_a {
        match (a.column(id).unwrap(), b.column(id).unwrap()) {
            (MetricColumn::Counts(x), MetricColumn::Counts(y)) => {
                assert_eq!(x, y, "{id} differs ({what})")
            }
            (MetricColumn::Floats(x), MetricColumn::Floats(y)) => {
                assert_eq!(x, y, "{id} differs ({what})")
            }
            (MetricColumn::Value(x), MetricColumn::Value(y)) => {
                assert_eq!(x.names_seen(), y.names_seen(), "{id} ({what})");
                assert_eq!(x.ranking(), y.ranking(), "{id} ranking ({what})");
            }
            _ => panic!("{id} changed column kind ({what})"),
        }
    }
}

/// The parallel ingestion front-end: the same feed dealt round-robin
/// into N shards drained concurrently into one builder produces the
/// canonical universe for every shard count — and `Engine::run_batched`
/// over a sharded stream produces the same report as the monolithic
/// world.
#[test]
fn sharded_ingestion_front_end_is_shard_count_invariant() {
    let (events, names, top500) = feed(20040722);
    let reference = build(events.clone(), true);

    let deal = |shards: usize| -> perils_survey::WorldStream {
        let mut dealt: Vec<Vec<UniverseEvent>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, event) in events.iter().cloned().enumerate() {
            dealt[i % shards].push(event);
        }
        let mut stream = perils_survey::WorldStream::new(
            std::iter::empty(),
            names.clone().into_iter(),
            top500.clone(),
        );
        for shard in dealt {
            stream = stream.with_shard(shard.into_iter());
        }
        stream
    };

    for shards in [1usize, 2, 8] {
        assert_eq!(
            deal(shards).build_universe(),
            reference,
            "sharded ingestion diverged at {shards} shards"
        );
    }

    let engine = Engine::with_extended_metrics().register(ZombieDelegationMetric);
    let expected = engine.run_world(AnalysisWorld {
        universe: reference,
        names: names.clone(),
        top500: top500.clone(),
    });
    let got = engine.run_stream(deal(3), std::num::NonZeroUsize::new(64).unwrap());
    assert_reports_equal(&got, &expected, "sharded run_batched vs monolithic run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any event-order permutation, and any ingestion shard count,
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

        // Equal universes ⇒ equal dependency indexes, observed through
        // chains, dependency rows and every surveyed name's closure —
        // across the serial (1 thread) and parallel (2, 8 threads) build
        // pipelines at the same time: parallel SCC ≡ Tarjan and
        // tree-parallel zone rows ≡ the serial recurrence.
        let serial_obs = index_observations(&baseline, &names, 1);
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(
                &index_observations(&from_permuted, &names, threads),
                &serial_obs,
                "index diverged at {} threads", threads
            );
        }

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
