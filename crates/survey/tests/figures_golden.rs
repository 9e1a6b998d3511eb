//! Golden-file coverage for the figure registry at tiny scale, seed
//! 20040722 (the paper's crawl date).
//!
//! Every registered figure's aligned-text and CSV serializations are
//! pinned byte-for-byte against `tests/golden/<id>.{txt,csv}`; a second
//! test checks that figures whose metrics are absent are reported as
//! skipped rather than panicking. The exact-hijack sample
//! (`SurveyReport::exact_sample`) and the CLI's ablation line over it are
//! pinned too, as recorded from the witness-permuting search of PR 11.
//! `crawl_sample.txt` pins the crawled name sample itself, as recorded
//! from the name-set sampler at a5cbf9c; `synthetic_scenario.txt` pins
//! the packet-level scenario of two tiny worlds, as recorded from the
//! materialized generate path at ab8fd51.
//! Regenerate goldens with
//! `GOLDEN_REGEN=1 cargo test -p perils-survey --test figures_golden`.

use perils_core::universe::Universe;
use perils_core::ZombieDelegationMetric;
use perils_dns::name::{name, DnsName};
use perils_survey::engine::{AnalysisWorld, Engine, SurveyReport, SyntheticSource, WorldSource};
use perils_survey::figures::{self, ZombieFigure};
use perils_survey::params::TopologyParams;
use perils_survey::render::{FigureOutcome, FigureRegistry};
use perils_survey::WorldSpec;
use perils_util::snapshot::ChecksumFold;
use std::collections::BTreeMap;
use std::path::PathBuf;

const SEED: u64 = 20040722;

/// The figures binary's full configuration, extended metrics plus the
/// zombie-delegation workload, over `world`.
fn full_report(world: &WorldSpec) -> SurveyReport {
    Engine::with_extended_metrics()
        .register(ZombieDelegationMetric)
        .run_world(world.stream().collect())
}

fn full_registry() -> FigureRegistry {
    FigureRegistry::extended().register(ZombieFigure)
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn check_golden(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); regenerate with GOLDEN_REGEN=1")
    });
    assert_eq!(
        actual, expected,
        "golden mismatch for {file}; regenerate with GOLDEN_REGEN=1 if the change is intended"
    );
}

#[test]
fn every_registered_figure_matches_golden_text_and_csv() {
    let report = full_report(&WorldSpec::Synthetic(TopologyParams::tiny(SEED)));
    let outcomes = full_registry().build_all(&report);
    assert_eq!(outcomes.len(), 11, "eleven registered figures");
    for outcome in &outcomes {
        let figure = outcome
            .rendered()
            .unwrap_or_else(|| panic!("figure {:?} did not render: {outcome:?}", outcome.id()));
        check_golden(&format!("{}.txt", figure.id()), figure.text());
        check_golden(&format!("{}.csv", figure.id()), &figure.csv());
    }
}

/// A data table whose first column is headed by one of these holds one
/// statistic per row, keyed by that column: a summary figure (headline,
/// misconfig and zombie today).
const SUMMARY_KEYS: [&str; 2] = ["statistic", "finding"];

/// What the figure gate lets stay constant across its worlds, each with
/// its reason: `(figure id, summary row key or "" for a whole figure,
/// reason)`.
const CONSTANT_BY_DESIGN: &[(&str, &str, &str)] = &[];

/// A statistic reads zero when every digit in it is 0 (`0`, `0.0%`,
/// `0 (0.0%)`).
fn reads_zero(value: &str) -> bool {
    value.chars().filter(char::is_ascii_digit).all(|c| c == '0')
}

/// Every figure the `figures` CLI registers measures something: built on
/// four tiny seeds, the three scenario worlds and the stale-delegation
/// tiny world, every row of a summary figure, and every other figure as a
/// whole, takes two values and is non-zero on one of them. Headline's
/// `paper` column restates the paper, so it is ignored.
#[test]
fn every_registered_figure_measures_something() {
    let mut worlds: Vec<(String, WorldSpec)> = [1, 11, 2005, SEED]
        .into_iter()
        .map(|seed| {
            let spec = WorldSpec::Synthetic(TopologyParams::tiny(seed));
            (format!("tiny {seed}"), spec)
        })
        .collect();
    for scenario in ["fbi", "cornell", "tripwire"] {
        let spec = WorldSpec::parse(scenario, SEED).expect("a named world");
        worlds.push((scenario.to_string(), spec));
    }
    let mut stale = TopologyParams::tiny(SEED);
    stale.stale_delegation_fraction = 0.12;
    worlds.push(("tiny stale".to_string(), WorldSpec::Synthetic(stale)));

    // (figure id, row key or "") → its reading on each world.
    let mut readings: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for (label, world) in &worlds {
        for outcome in full_registry().build_all(&full_report(world)) {
            let figure = outcome
                .rendered()
                .unwrap_or_else(|| panic!("{:?} on {label}: {outcome:?}", outcome.id()));
            let id = figure.id().to_string();
            let table = figure.data();
            if !SUMMARY_KEYS.contains(&table.headers()[0].as_str()) {
                let key = (id, String::new());
                readings.entry(key).or_default().push(figure.csv());
                continue;
            }
            for row in table.rows() {
                let value: Vec<&str> = row
                    .iter()
                    .zip(table.headers())
                    .skip(1)
                    .filter(|(_, header)| header.as_str() != "paper")
                    .map(|(cell, _)| cell.as_str())
                    .collect();
                let key = (id.clone(), row[0].clone());
                readings.entry(key).or_default().push(value.join(","));
            }
        }
    }

    let mut constant = Vec::new();
    for ((id, key), values) in &readings {
        assert_eq!(
            values.len(),
            worlds.len(),
            "{id} {key:?} is not on every world"
        );
        let varies = values.iter().any(|v| v != &values[0]);
        let excepted = CONSTANT_BY_DESIGN
            .iter()
            .any(|&(fig, row, _)| fig == id && row == key);
        if excepted {
            assert!(!varies, "{id} {key:?} varies now: drop its exception");
        } else if !varies || values.iter().all(|v| reads_zero(v)) {
            constant.push(if key.is_empty() {
                format!("{id}: the same on every world")
            } else {
                format!("{id} row {key:?}: {values:?}")
            });
        }
    }
    assert!(
        constant.is_empty(),
        "registered figures that measure nothing across the gate's worlds \
         (fix the figure, delete it, or list it in CONSTANT_BY_DESIGN with a reason):\n{}",
        constant.join("\n")
    );
}

/// The stale-delegation generator knob gives the zombie figure signal on
/// synthetic worlds; this golden pins its output with the knob on (the
/// knob-off golden — all zeros — is `zombie.{txt,csv}` above).
#[test]
fn zombie_figure_with_stale_knob_matches_golden() {
    let mut params = TopologyParams::tiny(SEED);
    params.stale_delegation_fraction = 0.12;
    let report = Engine::new()
        .register(ZombieDelegationMetric)
        .run(SyntheticSource { params });
    let figure = FigureRegistry::new()
        .register(ZombieFigure)
        .build("zombie", &report)
        .expect("zombie figure renders");
    let summary = figures::ZombieSummary::from_report(&report).expect("columns present");
    assert!(
        summary.names_with_dead_dep > 0 && summary.orphaned_names > 0,
        "the knob must give the metric signal: {summary:?}"
    );
    check_golden("zombie_stale.txt", figure.text());
    check_golden("zombie_stale.csv", &figure.csv());
}

/// The exact AND/OR sample is part of every `figures` run, yet no figure
/// shows it: pin its `(name index, size, safe)` triples over the first 100
/// names of three tiny worlds. Only the objective is pinned — which of
/// several tied-optimal sets the search reports is not part of the report.
#[test]
fn exact_sample_matches_golden() {
    let mut actual = String::new();
    for seed in [11, 2004, SEED] {
        let report = Engine::new().exact_hijack_sample(100).run(SyntheticSource {
            params: TopologyParams::tiny(seed),
        });
        for &(i, size, safe) in &report.exact_sample {
            actual.push_str(&format!("{seed} {i} {size} {safe}\n"));
        }
    }
    check_golden("exact_sample.txt", &actual);
}

/// The crawl sample decides every id and every figure byte downstream, so
/// it is pinned on its own: each `(name, tld, popularity_rank)` and the
/// top-500 indices of three tiny worlds in full, and two default-scale
/// worlds (whose samplers run saturated: most probes land on domains with
/// no free host slot) as a name count plus an FNV checksum of the same
/// fields. Only the plan runs; no universe is built.
#[test]
fn crawl_sample_matches_golden() {
    let sample = |params: TopologyParams| {
        let mut stream = SyntheticSource { params }.stream();
        let top500 = stream.top500().to_vec();
        (stream.names().collect::<Vec<_>>(), top500)
    };
    let mut actual = String::new();
    for seed in [11, 2004, SEED] {
        let (names, top500) = sample(TopologyParams::tiny(seed));
        actual.push_str(&format!("tiny {seed}: {} names\n", names.len()));
        for n in &names {
            actual.push_str(&format!("{} {} {}\n", n.name, n.tld(), n.popularity_rank));
        }
        let top: Vec<String> = top500.iter().map(usize::to_string).collect();
        actual.push_str(&format!("top500 {}\n", top.join(" ")));
    }
    for seed in [2005, SEED] {
        let (names, top500) = sample(TopologyParams::default_scaled(seed));
        let mut fold = ChecksumFold::new();
        for n in &names {
            fold.update(n.name.to_string().as_bytes());
            fold.update(&[0]);
            fold.update(n.tld().to_string().as_bytes());
            fold.update(&[0]);
            fold.update(&(n.popularity_rank as u64).to_le_bytes());
        }
        for &i in &top500 {
            fold.update(&(i as u64).to_le_bytes());
        }
        actual.push_str(&format!(
            "default {seed}: {} names, fnv {:016x}\n",
            names.len(),
            fold.finish()
        ));
    }
    check_golden("crawl_sample.txt", &actual);
}

/// The packet-level scenario of a synthetic world is what the wire
/// cross-check probes, so it is pinned as a fingerprint: per tiny seed,
/// the zone, record, spec and root counts, the root hints in full, and an
/// FNV checksum over every registry record in zone order, every spec's
/// host, address, software and zones, and the roots.
#[test]
fn synthetic_scenario_matches_golden() {
    let mut actual = String::new();
    for seed in [1234, SEED] {
        let scenario = SyntheticSource {
            params: TopologyParams::tiny(seed),
        }
        .scenario();
        let mut fold = ChecksumFold::new();
        let mut line = |text: String| {
            fold.update(text.as_bytes());
            fold.update(&[0]);
        };
        let mut records = 0usize;
        for zone in scenario.registry.iter() {
            line(format!("zone {}", zone.origin()));
            for record in zone.iter() {
                line(record.to_string());
                records += 1;
            }
        }
        for spec in &scenario.specs {
            let zones: Vec<String> = spec.zones.iter().map(DnsName::to_string).collect();
            let (host, addr, software) = (&spec.host_name, spec.addr, &spec.software);
            line(format!(
                "spec {host} {addr} {software:?} {}",
                zones.join(",")
            ));
        }
        let mut roots = String::new();
        for (host, addr) in &scenario.roots {
            line(format!("root {host} {addr}"));
            roots.push_str(&format!("root {host} {addr}\n"));
        }
        actual.push_str(&format!(
            "tiny {seed}: {} zones, {records} records, {} specs, {} roots, fnv {:016x}\n{roots}",
            scenario.registry.len(),
            scenario.specs.len(),
            scenario.roots.len(),
            fold.finish()
        ));
    }
    check_golden("synthetic_scenario.txt", &actual);
}

/// The `figures` CLI prints the sample only as its ablation line, after
/// the last figure.
#[test]
fn figures_cli_ablation_line_matches_golden() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--scale", "tiny", "--seed", "20040722"])
        .output()
        .expect("run figures");
    assert!(out.status.success(), "figures exited {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let line = stdout
        .lines()
        .find(|l| l.starts_with("Ablation ("))
        .expect("ablation line printed");
    check_golden("ablation_line.txt", &format!("{line}\n"));
}

#[test]
fn figures_with_unregistered_metrics_are_skipped_not_panicking() {
    // Only the built-in metrics run: misconfig and zombie columns are
    // absent, so those figures must skip while the classic nine render.
    let report = Engine::with_builtin_metrics().run(SyntheticSource {
        params: TopologyParams::tiny(SEED),
    });
    let outcomes = full_registry().build_all(&report);
    let mut skipped = Vec::new();
    for outcome in &outcomes {
        match outcome {
            FigureOutcome::Rendered(_) => {}
            FigureOutcome::Skipped { id, missing } => {
                assert!(!missing.is_empty());
                skipped.push(id.clone());
            }
            FigureOutcome::Failed { id, error } => panic!("figure {id:?} failed: {error}"),
        }
    }
    assert_eq!(skipped, vec!["misconfig", "zombie"]);
}

/// The zombie-delegation workload end to end through only the public
/// `NameMetric` / `Figure` / `FigureRegistry` APIs: a hand-built decayed
/// world flows from engine registration to rendered figure with no
/// engine-internal or per-figure CLI code involved.
#[test]
fn zombie_workload_end_to_end_via_public_apis() {
    let mut b = Universe::builder();
    b.raw_server(&name("a.root-servers.net"), false, true);
    b.add_zone(&DnsName::root(), &[name("a.root-servers.net")]);
    b.add_zone(&name("com"), &[name("a.root-servers.net")]);
    b.add_zone(&name("net"), &[name("a.root-servers.net")]);
    // stale.com's delegation points only at a vanished branch; half.com
    // keeps one live server; alive.net is healthy and glued.
    b.add_zone(
        &name("stale.com"),
        &[name("ns1.ghost.zz"), name("ns2.ghost.zz")],
    );
    b.add_zone(
        &name("half.com"),
        &[name("ns.ghost.zz"), name("ns.alive.net")],
    );
    b.add_zone(&name("alive.net"), &[name("ns.alive.net")]);
    let world = AnalysisWorld::from_targets(
        b.finish(),
        vec![
            name("www.stale.com"),
            name("www.half.com"),
            name("www.alive.net"),
        ],
    );

    let report = Engine::new()
        .register(ZombieDelegationMetric)
        .run_world(world);
    let registry = FigureRegistry::new().register(ZombieFigure);
    let outcomes = registry.build_all(&report);
    assert_eq!(outcomes.len(), 1);
    let figure = outcomes[0].rendered().expect("zombie figure renders");
    assert_eq!(figure.id(), "zombie");
    let text = figure.text();
    assert!(
        text.contains("names w/ dead dependency") && text.contains("2 (66.7%)"),
        "stale.com and half.com names both lean on dead infrastructure:\n{text}"
    );
    assert!(
        text.contains("orphaned names (zombie chain)"),
        "summary row present:\n{text}"
    );
    let summary = figures::ZombieSummary::from_report(&report).expect("columns present");
    assert_eq!(summary.names, 3);
    assert_eq!(summary.names_with_dead_dep, 2);
    assert_eq!(summary.orphaned_names, 1, "only stale.com is orphaned");
    assert_eq!(summary.max_zombie_zones, 1);
    // The JSON serialization carries the same rows.
    assert!(figure
        .json()
        .contains("\"orphaned names (zombie chain)\",\"1\""));
}
