//! The two batch phases, as the child process runs them and as the parent
//! times them.
//!
//! A rep is a fresh child process (in-process repeats would time the
//! allocator's reuse of the previous rep's memory). The untraced child
//! runs the pipeline the way the `figures` and `lint` CLIs do; the traced
//! child runs the same stages one public call at a time under spans, then
//! (outside the timed wall) the attribution probes that split the engine
//! pass by metric.

use crate::trace::Trace;
use crate::util::json_f64;
use crate::world::Scale;
use perils_core::lint::{RuleRegistry, SeverityOverrides};
use perils_core::{
    DependencyIndex, DnssecCoverageMetric, LintIndex, MinCutMetric, MisconfigMetric, TcbMetric,
    Universe, ValueMetric, ZombieDelegationMetric,
};
use perils_dns::master::ZoneFileEvents;
use perils_dns::name::DnsName;
use perils_survey::engine::{AnalysisWorld, Engine, SurveyReport, SyntheticSource, WorldSource};
use perils_survey::figures::ZombieFigure;
use perils_survey::lint::{run_lint_with, LintFormat};
use perils_survey::render::{
    DirectorySink, FigureOutcome, FigureRegistry, ReportSink, SinkFormat, StreamingCsvSink,
};
use perils_util::json::Value;
use perils_util::snapshot::ChecksumFold;
use perils_vulndb::VulnDb;
use std::collections::{BTreeMap, HashSet};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Which batch pipeline a child runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchPhase {
    /// Synthetic crawl: ~3 names per delegation chain, so the per-chain
    /// min-cut cache hits; topology planning and the exact sample work.
    Crawl,
    /// Zone-file census: master-file parsing and zone-event ingestion,
    /// one name per domain (cache bypass), world-scale lint.
    Census,
}

impl BatchPhase {
    pub fn name(self) -> &'static str {
        match self {
            BatchPhase::Crawl => "batch-crawl",
            BatchPhase::Census => "batch-census",
        }
    }

    pub fn parse(text: &str) -> Option<BatchPhase> {
        match text {
            "batch-crawl" => Some(BatchPhase::Crawl),
            "batch-census" => Some(BatchPhase::Census),
            _ => None,
        }
    }
}

/// Everything a child needs; mirrors its command line.
#[derive(Debug, Clone)]
pub struct ChildSpec {
    pub phase: BatchPhase,
    pub scale: Scale,
    pub seed: u64,
    pub threads: usize,
    /// Set-up directory (zone file, target list).
    pub inputs: PathBuf,
    /// Where figures (and the lint report) are written.
    pub out: PathBuf,
    pub traced: bool,
}

fn engine(spec: &ChildSpec) -> Engine {
    Engine::with_extended_metrics()
        .register(ZombieDelegationMetric)
        .threads(NonZeroUsize::new(spec.threads))
        .exact_hijack_sample(spec.scale.exact_sample())
}

fn registry() -> FigureRegistry {
    FigureRegistry::extended().register(ZombieFigure)
}

/// Builds every figure and writes it as text, CSV and JSON. Returns the
/// bytes written.
fn emit_figures(trace: &mut Trace, report: &SurveyReport, out: &Path) -> u64 {
    let outcomes = trace.span("figures.build", |_| registry().build_all(report));
    trace.span("figures.emit", |_| {
        let rendered: Vec<_> = outcomes
            .iter()
            .map(|outcome| match outcome {
                FigureOutcome::Rendered(figure) => figure,
                other => panic!("figure {:?} did not render", other.id()),
            })
            .collect();
        let mut text = DirectorySink::new(out, SinkFormat::Text);
        let mut csv = StreamingCsvSink::new(out);
        let mut json = DirectorySink::new(out, SinkFormat::Json);
        let sinks: [&mut dyn ReportSink; 3] = [&mut text, &mut csv, &mut json];
        for sink in sinks {
            for figure in &rendered {
                sink.emit(figure).expect("write figure");
            }
            sink.finish().expect("flush figures");
        }
        [text.written(), csv.written(), json.written()]
            .concat()
            .iter()
            .map(|p| std::fs::metadata(p).expect("figure file").len())
            .sum()
    })
}

/// The crawl pipeline. Traced, the engine's one `run(source)` call is
/// taken apart into the public calls it makes.
fn crawl(trace: &mut Trace, spec: &ChildSpec) -> (SurveyReport, Option<DependencyIndex>) {
    let source = SyntheticSource {
        params: spec.scale.params(spec.seed),
    };
    if !spec.traced {
        return (trace.span("engine.run", |_| engine(spec).run(source)), None);
    }
    // `stream()` plans the whole world eagerly and hands back lazy events.
    let mut stream = trace.span("topology.plan", |_| source.stream());
    let db = VulnDb::isc_feb_2004();
    let mut builder = Universe::builder();
    let events = trace.span("universe.ingest", |_| {
        let mut n = 0u64;
        for event in stream.events() {
            builder.apply(event, &db);
            n += 1;
        }
        n
    });
    trace.count("universe.events", events as f64);
    let universe = trace.span("universe.finish", |_| builder.finish());
    let world = AnalysisWorld {
        universe,
        names: stream.names().collect(),
        top500: stream.top500().to_vec(),
    };
    let index = build_index(trace, &world.universe, spec.threads);
    let report = trace.span("engine.run", |_| {
        engine(spec).run_world_indexed(world, &index)
    });
    (report, Some(index))
}

fn build_index(trace: &mut Trace, universe: &Universe, threads: usize) -> DependencyIndex {
    trace.span("index.build", |trace| {
        let (index, stats) = DependencyIndex::build_with_stats(universe, threads);
        let mut at = 0.0;
        for (name, d) in [
            ("index.rows", stats.zone_rows),
            ("index.scc", stats.scc),
            ("index.condense", stats.condense),
            ("index.memoize", stats.memoize),
        ] {
            let us = d.as_secs_f64() * 1e6;
            trace.child_of_open(name, at, us);
            at += us;
        }
        trace.count("index.components", index.component_count() as f64);
        index
    })
}

/// The census pipeline: zone-file text → zone events → canonical
/// universe → index → world-scale lint → engine → figures. Traced, the
/// parser is drained before the builder runs so each has its own span.
fn census(trace: &mut Trace, spec: &ChildSpec) -> (SurveyReport, Option<DependencyIndex>) {
    let zonefile = spec.inputs.join("world.zone");
    let file = std::fs::File::open(&zonefile).expect("open zone file");
    let bytes = file.metadata().expect("zone file metadata").len();
    let reader = std::io::BufReader::new(file);
    let parser = ZoneFileEvents::from_reader(reader, &DnsName::root());
    let mut builder = Universe::builder();
    let events = if spec.traced {
        let parsed: Vec<_> = trace.span("dns.master_parse", |_| {
            parser.map(|e| e.expect("zone file parses")).collect()
        });
        trace.count("dns.master_bytes", bytes as f64);
        trace.count("dns.master_events", parsed.len() as f64);
        trace.span("universe.ingest", |_| {
            let n = parsed.len() as u64;
            for event in parsed {
                builder.apply_zone_event(event);
            }
            n
        })
    } else {
        trace.span("universe.ingest", |_| {
            let mut n = 0u64;
            for event in parser {
                builder.apply_zone_event(event.expect("zone file parses"));
                n += 1;
            }
            n
        })
    };
    trace.count("universe.events", events as f64);
    let universe = trace.span("universe.finish", |_| builder.finish_canonical());
    let targets: Vec<DnsName> = std::fs::read_to_string(spec.inputs.join("targets.txt"))
        .expect("read target list")
        .lines()
        .map(|line| DnsName::from_ascii(line).expect("target parses"))
        .collect();
    let index = build_index(trace, &universe, spec.threads);
    let facts = trace.span("lintindex.build", |_| LintIndex::build(&universe));
    let report = trace.span("lint.run", |_| {
        run_lint_with(
            &universe,
            &targets,
            &RuleRegistry::builtin(),
            &SeverityOverrides::new(),
            NonZeroUsize::new(spec.threads),
            &index,
            &facts,
        )
    });
    trace.count("lint.diagnostics", report.diagnostics.len() as f64);
    let lint_bytes = trace.span("lint.emit", |_| {
        let json = report.emit(LintFormat::Json);
        std::fs::write(spec.out.join("lint.json"), &json).expect("write lint report");
        json.len()
    });
    trace.count("lint.bytes", lint_bytes as f64);
    drop(report);
    let world = AnalysisWorld::from_targets(universe, targets);
    let report = trace.span("engine.run", |_| {
        engine(spec).run_world_indexed(world, &index)
    });
    (report, Some(index))
}

/// Times one engine pass with the given metrics over `world`, handing the
/// world back for the next probe.
fn probe_pass(
    engine: Engine,
    world: AnalysisWorld,
    index: &DependencyIndex,
) -> (f64, AnalysisWorld) {
    let start = Instant::now();
    let report = engine.run_world_indexed(world, index);
    (start.elapsed().as_secs_f64() * 1e3, report.world)
}

/// Attribution probes, run after the timed wall: the engine pass with no
/// metric (closure computation only), with each metric alone, and
/// without the exact sample; plus the chain-sharing census of the names.
fn engine_probes(
    spec: &ChildSpec,
    world: AnalysisWorld,
    index: &DependencyIndex,
    full_ms: f64,
    layers: &mut BTreeMap<String, f64>,
) {
    let threads = NonZeroUsize::new(spec.threads);
    let bare = || Engine::new().threads(threads);
    let (closure_ms, mut world) = probe_pass(bare(), world, index);
    layers.insert("engine.closure_pass_ms".into(), closure_ms);
    let singles: [(&str, Engine); 6] = [
        ("engine.tcb_ms", bare().register(TcbMetric)),
        ("engine.mincut_ms", bare().register(MinCutMetric)),
        ("engine.value_ms", bare().register(ValueMetric)),
        (
            "engine.misconfig_ms",
            bare().register(MisconfigMetric::default()),
        ),
        (
            "engine.dnssec_ms",
            bare().register(DnssecCoverageMetric::top_level()),
        ),
        ("engine.zombie_ms", bare().register(ZombieDelegationMetric)),
    ];
    for (name, engine) in singles {
        let (ms, back) = probe_pass(engine, world, index);
        world = back;
        // A metric cheaper than the run-to-run noise can read below zero.
        layers.insert(name.into(), ms - closure_ms);
    }
    let (no_sample_ms, world) = probe_pass(engine(spec).exact_hijack_sample(0), world, index);
    layers.insert("engine.exact_sample_ms".into(), full_ms - no_sample_ms);

    let mut chains: HashSet<Vec<u32>> = HashSet::new();
    let mut chain = Vec::new();
    for entry in &world.names {
        world.universe.chain_zones_into(&entry.name, &mut chain);
        chains.insert(chain.iter().map(|z| z.0).collect());
    }
    layers.insert("engine.distinct_chains".into(), chains.len() as f64);
    layers.insert(
        "engine.names_per_chain".into(),
        world.names.len() as f64 / chains.len().max(1) as f64,
    );
}

/// The child's `main`: runs the pipeline under one root span, prints one
/// JSON line.
pub fn child_main(spec: &ChildSpec) {
    let mut trace = Trace::new();
    let (report, index, figure_bytes) = trace.span("batch.main", |trace| {
        std::fs::create_dir_all(&spec.out).expect("create output dir");
        let (report, index) = match spec.phase {
            BatchPhase::Crawl => crawl(trace, spec),
            BatchPhase::Census => census(trace, spec),
        };
        let figure_bytes = emit_figures(trace, &report, &spec.out);
        (report, index, figure_bytes)
    });
    let main_ms = trace.total_us("batch.main") / 1e3;
    let rss_mib = perils_util::peak_rss_mb().unwrap_or(0.0);
    let names = report.world.names.len();

    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    if spec.traced {
        // Every stage span becomes `<span>_ms`; a stage this pipeline does
        // not have is left out, not zeroed. What no stage covers is the
        // root span's self time.
        for span in &trace.spans()[1..] {
            *layers.entry(format!("{}_ms", span.name)).or_insert(0.0) += span.dur_us() / 1e3;
        }
        layers.insert(
            "batch.unattributed_ms".into(),
            trace.self_times_us()[0] / 1e3,
        );
        // Likewise the counts: only what this pipeline recorded.
        for (count, n) in trace.counts() {
            if count != "dns.master_bytes" {
                layers.insert(count.into(), n);
            }
        }
        let universe = &report.world.universe;
        layers.insert("universe.zones".into(), universe.zone_count() as f64);
        layers.insert("universe.servers".into(), universe.server_count() as f64);
        layers.insert("figures.bytes".into(), figure_bytes as f64);
        let ms = |name: &str| trace.total_us(name) / 1e3;
        let per_s = |n: f64, ms: f64| if ms > 0.0 { n / (ms / 1e3) } else { 0.0 };
        layers.insert(
            "universe.events_per_s".into(),
            per_s(trace.count_of("universe.events"), ms("universe.ingest")),
        );
        layers.insert(
            "engine.names_per_s".into(),
            per_s(names as f64, ms("engine.run")),
        );
        if spec.phase == BatchPhase::Census {
            layers.insert(
                "dns.master_mb_per_s".into(),
                per_s(
                    trace.count_of("dns.master_bytes") / 1e6,
                    ms("dns.master_parse"),
                ),
            );
        }
        let index = index.expect("traced pipelines build the index themselves");
        engine_probes(spec, report.world, &index, ms("engine.run"), &mut layers);
        trace
            .write_json(&spec.out.join("trace.json"))
            .expect("write trace");
    }

    let layers_json: Vec<String> = layers
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_f64(*v)))
        .collect();
    println!(
        "{{\"main_ms\":{},\"rss_mib\":{},\"names\":{names},\"layers\":{{{}}}}}",
        json_f64(main_ms),
        json_f64(rss_mib),
        layers_json.join(",")
    );
}

/// One finished rep, as the parent saw it.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Spawn → outputs flushed → exit.
    pub wall_s: f64,
    pub main_ms: f64,
    pub rss_mib: f64,
    pub names: u64,
    /// Checksum over every figure file (name and bytes), in name order.
    pub checksum: u64,
    pub layers: BTreeMap<String, f64>,
    /// `None` when everything about the rep checked out.
    pub failure: Option<String>,
}

/// Hashes the figure files of one rep. The lint report is hashed
/// separately: it is 400× larger and checked by parsing.
fn checksum_outputs(out: &Path) -> std::io::Result<u64> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(out)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    files.sort();
    let mut fold = ChecksumFold::new();
    for path in files {
        let name = path.file_name().expect("file name").to_string_lossy();
        if name == "lint.json" || name == "trace.json" {
            continue;
        }
        fold.update(name.as_bytes());
        fold.update(&std::fs::read(&path)?);
    }
    Ok(fold.finish())
}

/// Runs one rep in a fresh child process of this executable.
pub fn run_rep(exe: &Path, spec: &ChildSpec) -> Rep {
    let _ = std::fs::remove_dir_all(&spec.out);
    let mut command = Command::new(exe);
    command
        .arg("child")
        .args(["--phase", spec.phase.name()])
        .args(["--scale", &spec.scale.label()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--threads", &spec.threads.to_string()])
        .arg("--inputs")
        .arg(&spec.inputs)
        .arg("--out")
        .arg(&spec.out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if spec.traced {
        command.arg("--traced");
    }
    let start = Instant::now();
    let output = command
        .spawn()
        .and_then(|child| child.wait_with_output())
        .expect("spawn batch child");
    let wall_s = start.elapsed().as_secs_f64();

    let mut rep = Rep {
        wall_s,
        main_ms: 0.0,
        rss_mib: 0.0,
        names: 0,
        checksum: 0,
        layers: BTreeMap::new(),
        failure: None,
    };
    if !output.status.success() {
        rep.failure = Some(format!("child exited with {}", output.status));
        return rep;
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(|line| perils_util::json::parse(line).ok());
    let Some(value) = parsed else {
        rep.failure = Some("child printed no result line".into());
        return rep;
    };
    let num = |key: &str| value.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    rep.main_ms = num("main_ms");
    rep.rss_mib = num("rss_mib");
    rep.names = num("names") as u64;
    if let Some(members) = value.get("layers").and_then(Value::as_object) {
        for (key, v) in members {
            rep.layers
                .insert(key.clone(), v.as_f64().unwrap_or(f64::NAN));
        }
    }
    match checksum_outputs(&spec.out) {
        Ok(hash) => rep.checksum = hash,
        Err(e) => rep.failure = Some(format!("reading outputs: {e}")),
    }
    rep
}

/// Checks the census rep's lint report: it must parse and hold a
/// findings array.
pub fn check_lint_report(out: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(out.join("lint.json")).map_err(|e| e.to_string())?;
    let value = perils_util::json::parse(&text).map_err(|e| format!("lint JSON: {e}"))?;
    match value.get("findings").and_then(Value::as_array) {
        Some(_) => Ok(()),
        None => Err("lint JSON has no findings array".into()),
    }
}
