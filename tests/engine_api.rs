//! Engine-API integration tests: thread-count invariance for every
//! registered metric, structural-vs-wire-probed agreement through the same
//! `WorldSource` path, byte-identity of the built-in engine pass — one
//! closure per deepest zone, gathered per name — with a sequential
//! per-name loop, and end-to-end custom metric registration.

use perils::authserver::deploy::deploy;
use perils::authserver::scenarios::fbi_case;
use perils::core::closure::DependencyIndex;
use perils::core::hijack::min_cut_flattened_view;
use perils::core::metric::{columns, ColumnKind, Measure, MetricColumn, NameMetric};
use perils::core::tcb::TcbTally;
use perils::core::universe::Universe;
use perils::dns::name::name;
use perils::netsim::SimNet;
use perils::resolver::{ChainProber, IterativeResolver, ResolverConfig};
use perils::survey::engine::{Engine, ProbedSource, ScenarioSource, SyntheticSource, WorldSource};
use perils::survey::params::TopologyParams;
use std::num::NonZeroUsize;
use std::sync::Arc;

/// Every column of every registered metric must be invariant in the
/// thread count — the engine's core determinism contract.
#[test]
fn engine_results_invariant_across_thread_counts() {
    let params = TopologyParams::tiny(101);
    let run = |threads: usize| {
        Engine::with_extended_metrics()
            .threads(NonZeroUsize::new(threads))
            .run(SyntheticSource {
                params: params.clone(),
            })
    };
    let baseline = run(1);
    let ids: Vec<String> = baseline.column_ids().map(String::from).collect();
    assert!(
        ids.len() >= 9,
        "extended engine exposes all columns: {ids:?}"
    );
    for threads in [4usize, 8] {
        let other = run(threads);
        for id in &ids {
            let a = baseline.column(id).expect("baseline column");
            let b = other
                .column(id)
                .expect("column present at any thread count");
            match (a, b) {
                (MetricColumn::Counts(x), MetricColumn::Counts(y)) => {
                    assert_eq!(x, y, "{id} differs at {threads} threads")
                }
                (MetricColumn::Floats(x), MetricColumn::Floats(y)) => {
                    assert_eq!(x, y, "{id} differs at {threads} threads")
                }
                (MetricColumn::Value(x), MetricColumn::Value(y)) => {
                    assert_eq!(x.names_seen(), y.names_seen(), "{id}");
                    assert_eq!(x.ranking(), y.ranking(), "{id} ranking differs");
                }
                _ => panic!("{id} changed column kind at {threads} threads"),
            }
        }
    }
}

/// The structural (zone-registry) and wire-probed (resolver-discovered)
/// fbi.gov worlds must agree on every per-name column when both run
/// through the same `WorldSource` engine path.
#[test]
fn scenario_and_probed_fbi_worlds_agree_through_engine() {
    let scenario = fbi_case();
    let target = name("www.fbi.gov");

    // Wire-probe the simulated network to discover the dependency chain.
    let net = Arc::new(SimNet::new());
    deploy(&net, &scenario.registry, &scenario.specs).expect("deploy");
    let resolver = IterativeResolver::new(net, scenario.roots.clone(), ResolverConfig::default());
    let prober = ChainProber::new(&resolver);
    let reports = vec![prober.discover(&target)];
    let roots: Vec<_> = scenario.roots.iter().map(|(n, _)| n.clone()).collect();

    let engine = Engine::with_extended_metrics();
    let structural = engine.run(ScenarioSource {
        scenario: &scenario,
        targets: vec![target.clone()],
    });
    let probed = engine.run(ProbedSource {
        reports: &reports,
        roots,
        targets: vec![target.clone()],
    });

    for id in [
        columns::TCB_SIZE,
        columns::NAMEOWNER,
        columns::VULNERABLE_IN_TCB,
        columns::CUT_SIZE,
        columns::SAFE_IN_CUT,
        columns::MISCONFIG_DEPTH,
    ] {
        assert_eq!(
            structural.try_counts(id),
            probed.try_counts(id),
            "column {id} disagrees between structural and probed worlds"
        );
    }
    assert_eq!(
        structural.try_floats(columns::SAFETY_PERCENT),
        probed.try_floats(columns::SAFETY_PERCENT)
    );
    // Ground truth from the paper: the fbi.gov TCB and its 2-machine cut.
    assert!(structural.try_counts(columns::TCB_SIZE).unwrap()[0] >= 5);
    assert_eq!(structural.try_counts(columns::CUT_SIZE).unwrap()[0], 2);
}

/// The built-in engine pass must produce byte-identical results to a
/// sequential loop that measures every name alone, for the acceptance seeds
/// 11/13/17.
#[test]
fn builtin_engine_is_byte_identical_to_sequential_reference() {
    for seed in [11u64, 13, 17] {
        let params = TopologyParams::tiny(seed);
        let report = Engine::with_builtin_metrics().run(SyntheticSource {
            params: params.clone(),
        });

        // The seed driver's semantics, re-derived sequentially.
        let world = SyntheticSource { params }.load();
        let index = DependencyIndex::build(&world.universe);
        let mut tcb_sizes = Vec::new();
        let mut cut_size = Vec::new();
        let mut safe_in_cut = Vec::new();
        let mut ws = index.workspace();
        for survey_name in &world.names {
            let closure = index.closure_view(&world.universe, &survey_name.name, &mut ws);
            let stats = TcbTally::compute(&world.universe, &closure);
            tcb_sizes.push(stats.tcb_size);
            match min_cut_flattened_view(&world.universe, &index, &closure) {
                Some(cut) => {
                    cut_size.push(cut.size());
                    safe_in_cut.push(cut.safe_members);
                }
                None => {
                    cut_size.push(0);
                    safe_in_cut.push(0);
                }
            }
        }
        for (id, expected) in [
            (columns::TCB_SIZE, tcb_sizes),
            (columns::CUT_SIZE, cut_size),
            (columns::SAFE_IN_CUT, safe_in_cut),
        ] {
            assert_eq!(
                report.try_counts(id),
                Ok(&expected[..]),
                "{id}, seed {seed}"
            );
        }
    }
}

/// A user-defined metric: number of zones in each name's closure.
struct ZoneCountMetric;

impl NameMetric for ZoneCountMetric {
    fn id(&self) -> &str {
        "zone_count"
    }
    fn columns(&self) -> Vec<(&str, ColumnKind)> {
        vec![("zone_count", ColumnKind::Counts)]
    }
    fn prepare<'a>(&'a self, _universe: &'a Universe) -> Measure<'a> {
        Box::new(|ctx, row| row.count(ctx.closure.zone_count()))
    }
}

/// Custom metrics plug into the same engine pass as the built-ins and
/// stay thread-count invariant.
#[test]
fn custom_metric_registers_and_runs() {
    let params = TopologyParams::tiny(103);
    let run = |threads: usize| {
        Engine::with_builtin_metrics()
            .register(ZoneCountMetric)
            .threads(NonZeroUsize::new(threads))
            .run(SyntheticSource {
                params: params.clone(),
            })
    };
    let a = run(1);
    let b = run(8);
    let zones = a.try_counts("zone_count").unwrap();
    assert_eq!(zones.len(), a.world.names.len());
    assert_eq!(b.try_counts("zone_count"), Ok(zones));
    // Every name's closure spans at least its own chain (TLD + zone).
    assert!(zones.iter().all(|&z| z >= 2));
    // And the closure's zone count is never smaller than implied by the
    // TCB being non-empty.
    for (i, &tcb) in a.try_counts(columns::TCB_SIZE).unwrap().iter().enumerate() {
        if tcb > 0 {
            assert!(zones[i] >= 1);
        }
    }
}
