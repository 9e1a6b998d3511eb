//! Both workloads, untraced and traced, at `TopologyParams::tiny(20040722)`.
//!
//! One test, run serially: the phases share the machine with the daemon
//! they measure.

use perils_benchmark::report::{conform, Spec};
use perils_benchmark::run::{run_traced, run_untraced, Config, Workload};
use perils_benchmark::world::Scale;
use std::path::{Path, PathBuf};
use std::process::Command;

const SEED: u64 = 20040722;

/// Builds the real daemon from the root workspace into the target
/// directory this test was built into.
fn build_perilsd(target: &Path) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "perils-service", "--bin", "perilsd"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building perilsd failed");
    target.join("release/perilsd")
}

#[test]
fn both_workloads_at_tiny_scale() {
    let started = std::time::Instant::now();
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perils-benchmark"));
    // <target>/<profile>/perils-benchmark
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("target dir")
        .to_path_buf();
    let out = target.join("tmp/perils-benchmark-smoke");
    std::fs::create_dir_all(&out).expect("create scratch dir");
    let config = Config {
        scale: Scale::Tiny,
        world_seed: SEED,
        seed: SEED,
        seconds: 3.0,
        perilsd: build_perilsd(&target),
        exe,
        out: out.canonicalize().expect("scratch dir"),
    };
    let spec = Spec::load();
    assert_eq!(
        spec.workloads,
        Workload::ALL.map(|w| w.name().to_string()),
        "BENCHMARK.json and the harness name the same workloads"
    );

    let mut probes = Vec::new();
    let mut layers_by_workload = Vec::new();
    for workload in Workload::ALL {
        // Untraced: exactly the end-to-end metrics, all finite and non-zero.
        let outcome = run_untraced(&config, workload);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        probes.push(outcome.probe_checksum);
        if workload == Workload::CrawlHeap {
            // The crawl batch drives the `figures` CLI's pipeline: its text
            // output is the survey crate's golden files, byte for byte.
            let golden =
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/survey/tests/golden");
            assert!(outcome.figure_text.len() >= 11, "figures written");
            for (id, text) in &outcome.figure_text {
                let expected = std::fs::read_to_string(golden.join(format!("{id}.txt")))
                    .unwrap_or_else(|e| panic!("golden {id}.txt: {e}"));
                assert_eq!(text, &expected, "figure {id} differs from its golden");
            }
        }
        let metrics = conform(&spec.end_to_end, outcome.metrics, &[]).expect("end-to-end metrics");
        for (metric, value) in metrics {
            assert!(
                value.is_finite() && value > 0.0,
                "{} on {} is {value}",
                metric.name,
                workload.name()
            );
        }

        // Traced: exactly the per-layer metrics, all finite.
        let outcome = run_traced(&config, workload);
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        probes.push(outcome.probe_checksum);
        let layers = conform(&spec.per_layer, outcome.metrics, workload.idle_layers())
            .expect("per-layer metrics");
        for (metric, value) in &layers {
            assert!(value.is_finite(), "{} is {value}", metric.name);
        }
        let get = |name: &str| {
            layers
                .iter()
                .find(|(m, _)| m.name == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} not in BENCHMARK.json"))
        };
        let stages: f64 = [
            "topology.plan_ms",
            "dns.master_parse_ms",
            "universe.ingest_ms",
            "universe.finish_ms",
            "index.build_ms",
            "lint.run_ms",
            "lint.emit_ms",
            "engine.run_ms",
            "figures.build_ms",
            "figures.emit_ms",
        ]
        .iter()
        .map(|name| get(name))
        .sum();
        let unattributed = get("batch.unattributed_ms");
        assert!(
            unattributed.abs() <= 0.05 * (stages + unattributed),
            "{unattributed} ms unattributed beside {stages} ms of stages"
        );
        assert!(get("daemon.requests") > 0.0);
        assert!(get("query.name_us") > 0.0 && get("engine.names_per_chain") >= 1.0);
        layers_by_workload.push(layers);
    }

    // One seed, one world: both daemons gave the same probe answers.
    assert!(probes.windows(2).all(|p| p[0] == p[1]), "{probes:x?}");

    // A zero is either declared (the workload bypasses the layer) or one
    // of these few counters that are legitimately idle at this scale (the
    // whole 90 KB archive is in the page cache before the steady phase
    // starts; the heap backend has no page cache at all).
    let idle_counters = [
        "daemon.queue_rejects",
        "daemon.slo_miss_frac",
        "bytestore.page_misses_per_req",
        "bytestore.evictions_per_req",
    ];
    for (workload, layers) in Workload::ALL.iter().zip(&layers_by_workload) {
        for (metric, value) in layers {
            let name = metric.name.as_str();
            let declared = workload.idle_layers().contains(&name);
            let no_page_cache = *workload == Workload::CrawlHeap && name.starts_with("bytestore.");
            assert!(
                *value != 0.0 || declared || no_page_cache || idle_counters.contains(&name),
                "{name} is zero on {}",
                workload.name()
            );
        }
    }
    // The bypass predictions.
    let of = |w: usize, name: &str| {
        layers_by_workload[w]
            .iter()
            .find(|(m, _)| m.name == name)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    assert_eq!(of(1, "topology.plan_ms"), 0.0);
    assert_eq!(of(0, "dns.master_events"), 0.0);
    assert_eq!(of(0, "lint.diagnostics"), 0.0);
    assert_eq!(of(1, "engine.names_per_chain"), 1.0);
    assert!(of(0, "engine.names_per_chain") > 2.0);
    assert_eq!(of(0, "bytestore.page_accesses_per_req"), 0.0);
    assert!(of(1, "bytestore.page_accesses_per_req") > 0.0);

    let _ = std::fs::remove_dir_all(&out);
    eprintln!("smoke: {:.1} s", started.elapsed().as_secs_f64());
}
