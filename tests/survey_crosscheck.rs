//! Generated-world cross-validation and survey smoke tests.
//!
//! The heavyweight guarantee: for a generated world, the structural
//! dependency closure (what the survey uses at scale) equals the closure
//! discovered by actually probing the simulated network name by name.

use perils::core::closure::DependencyIndex;
use perils::dns::name::DnsName;
use perils::netsim::{FaultPlan, Region, SimNet};
use perils::resolver::{ChainProber, IterativeResolver, ResolverConfig};
use perils::survey::engine::{Engine, SurveyReport, SyntheticSource, WorldSource};
use perils::survey::figures::{Fig2, Headline};
use perils::survey::params::TopologyParams;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The paper's six measurements over a tiny world, with the exact
/// hijack search on the first 25 names.
fn tiny_survey(seed: u64) -> SurveyReport {
    Engine::with_builtin_metrics()
        .exact_hijack_sample(25)
        .run(SyntheticSource {
            params: TopologyParams::tiny(seed),
        })
}

#[test]
fn structural_closure_matches_wire_probe_on_generated_world() {
    let source = SyntheticSource {
        params: TopologyParams::tiny(1234),
    };
    let scenario = source.scenario();
    let world = source.load();
    let net = Arc::new(SimNet::new(99, FaultPlan::none(), Region(0)));
    perils::authserver::deploy::deploy(&net, &scenario.registry, &scenario.specs)
        .expect("generated world deploys");
    let resolver = IterativeResolver::new(
        net,
        scenario.roots.clone(),
        ResolverConfig {
            query_budget: 20_000,
            ..ResolverConfig::default()
        },
    );
    let prober = ChainProber::new(&resolver);
    let index = DependencyIndex::build(&world.universe);
    let root_names: BTreeSet<DnsName> = scenario.roots.iter().map(|(n, _)| n.clone()).collect();

    // Sample a spread of names (popular and unpopular).
    let step = (world.names.len() / 12).max(1);
    let mut checked = 0usize;
    let mut ws = index.workspace();
    for survey_name in world.names.iter().step_by(step) {
        let structural: BTreeSet<String> = index
            .closure_view(&world.universe, &survey_name.name, &mut ws)
            .servers()
            .map(|s| world.universe.server(s))
            .filter(|s| !s.is_root)
            .map(|s| s.name.to_string())
            .collect();
        let report = prober.discover(&survey_name.name);
        let probed: BTreeSet<String> = report
            .tcb(&root_names)
            .iter()
            .map(|n| n.to_string())
            .collect();
        assert_eq!(
            structural,
            probed,
            "closure mismatch for {} (structural {} vs probed {})",
            survey_name.name,
            structural.len(),
            probed.len()
        );
        checked += 1;
    }
    assert!(checked >= 10, "checked {checked} names");
}

#[test]
fn survey_summary_shapes_hold_at_tiny_scale() {
    let report = tiny_survey(77);
    let headline = Headline::from_report(&report).expect("headline");
    // Shape assertions (loose bands; the tiny world is noisy).
    assert!(
        headline.mean_tcb >= headline.median_tcb,
        "heavy tail: mean ≥ median"
    );
    assert!(
        headline.mean_cut >= 1.0 && headline.mean_cut <= 12.0,
        "mean cut {}",
        headline.mean_cut
    );
    assert!(headline.frac_with_vulnerable_dep >= headline.frac_hijackable);
    // Figure 2: top-500 names have TCBs at least as large on average.
    let f2 = Fig2::from_report(&report).expect("figure 2");
    assert!(
        f2.top500.mean + 1e-9 >= f2.all.mean * 0.8,
        "popular names are not smaller"
    );
    // Figure 8: rank curve is heavy-tailed — the top server controls far
    // more names than the median server.
    let ranking = report.value().ranking();
    let top = ranking.first().map(|&(_, c)| c).unwrap_or(0);
    let (_, median) = report.value().mean_median();
    assert!(top as f64 > median * 10.0, "top {top} vs median {median}");
}

#[test]
fn survey_determinism_across_runs() {
    let a = tiny_survey(555);
    let b = tiny_survey(555);
    assert_eq!(a.tcb_sizes(), b.tcb_sizes());
    assert_eq!(a.vulnerable_in_tcb(), b.vulnerable_in_tcb());
    assert_eq!(a.cut_size(), b.cut_size());
    let ha = Headline::from_report(&a).expect("headline");
    let hb = Headline::from_report(&b).expect("headline");
    assert_eq!(ha.critical_servers, hb.critical_servers);
    assert!((ha.mean_tcb - hb.mean_tcb).abs() < 1e-12);
}

#[test]
fn exact_hijack_validates_flattened_cut_direction() {
    // On every sampled name, the exact AND/OR minimum never exceeds the
    // flattened min-cut (the exact attacker is at least as strong).
    let report = tiny_survey(31);
    assert!(!report.exact_sample.is_empty());
    for &(i, exact_size, _) in &report.exact_sample {
        if report.cut_size()[i] > 0 {
            assert!(exact_size <= report.cut_size()[i]);
        }
    }
}
