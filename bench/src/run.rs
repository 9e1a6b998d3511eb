//! One workload, end to end: set-up, the batch phase, the serving phase,
//! and the checks that decide `correct`.
//!
//! A workload pairs one batch phase with one serving phase over the same
//! seeded world, so that every end-to-end metric is measured — never
//! filled in — on every workload:
//!
//! * `crawl-heap` = `batch-crawl` + `serve-heap`: shared chains and hot
//!   keys, every cache is used;
//! * `census-paged` = `batch-census` + `serve-paged`: one name per chain,
//!   uniform keys over a page cache far smaller than the archive, the
//!   caches are bypassed.

use crate::batch::{self, BatchPhase, ChildSpec, Rep};
use crate::replay::Replay;
use crate::report::Metrics;
use crate::serve::{self, ServePhase, ServePlan, CLIENTS};
use crate::trace::Trace;
use crate::util::{median, percentile_sorted};
use crate::world::{self, Scale};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CrawlHeap,
    CensusPaged,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::CrawlHeap, Workload::CensusPaged];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CrawlHeap => "crawl-heap",
            Workload::CensusPaged => "census-paged",
        }
    }

    pub fn parse(text: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == text)
    }

    pub fn batch(self) -> BatchPhase {
        match self {
            Workload::CrawlHeap => BatchPhase::Crawl,
            Workload::CensusPaged => BatchPhase::Census,
        }
    }

    pub fn serve(self) -> ServePhase {
        match self {
            Workload::CrawlHeap => ServePhase::Heap,
            Workload::CensusPaged => ServePhase::Paged,
        }
    }

    /// Per-layer metrics whose layer does no work on this workload: the
    /// crawl parses no master file and lints nothing, the census plans no
    /// topology. They read 0 here (`report::conform`); every other
    /// per-layer metric must be measured.
    pub fn idle_layers(self) -> &'static [&'static str] {
        match self {
            Workload::CrawlHeap => &[
                "dns.master_parse_ms",
                "dns.master_mb_per_s",
                "dns.master_events",
                "lint.run_ms",
                "lint.diagnostics",
                "lint.emit_ms",
                "lint.bytes",
            ],
            Workload::CensusPaged => &["topology.plan_ms"],
        }
    }
}

/// Where the programs are and how long to measure.
#[derive(Debug, Clone)]
pub struct Config {
    pub scale: Scale,
    /// Seeds the world: the data set both phases work on.
    pub world_seed: u64,
    /// Seeds the traffic: which names the load generator asks for.
    pub seed: u64,
    /// Measuring time of one untraced run.
    pub seconds: f64,
    pub perilsd: PathBuf,
    /// This executable (batch reps are child processes of it).
    pub exe: PathBuf,
    /// Scratch root (`bench/out`); a run works in a directory of its own
    /// below it and removes it on success.
    pub out: PathBuf,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Probe transcript checksum (must agree between the two workloads'
    /// daemons on one seed).
    pub probe_checksum: u64,
    /// Text of every figure the crawl batch wrote, by id (smoke test).
    pub figure_text: Vec<(String, String)>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Set-ups per run: set-up time is reported as their median.
const SETUPS: usize = 3;

fn work_dir(config: &Config, workload: Workload) -> PathBuf {
    config.out.join(format!(
        "{}-{}-{}",
        workload.name(),
        config.seed,
        std::process::id()
    ))
}

fn child_spec(config: &Config, workload: Workload, dir: &Path, rep: &str) -> ChildSpec {
    ChildSpec {
        phase: workload.batch(),
        scale: config.scale,
        seed: config.world_seed,
        threads: CLIENTS,
        inputs: dir.join("inputs"),
        out: dir.join(rep),
        traced: false,
    }
}

/// Folds one rep's own checks into the outcome and returns it.
fn checked_rep(outcome: &mut Outcome, exe: &Path, spec: &ChildSpec, names: Option<u64>) -> Rep {
    let rep = batch::run_rep(exe, spec);
    outcome.check(rep.failure.is_none(), || {
        format!(
            "{}: {}",
            spec.phase.name(),
            rep.failure.clone().unwrap_or_default()
        )
    });
    if let (Some(names), None) = (names, &rep.failure) {
        outcome.check(rep.names == names, || {
            format!(
                "{}: surveyed {} names, expected {names}",
                spec.phase.name(),
                rep.names
            )
        });
    }
    rep
}

fn read_figure_text(dir: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "txt") {
            if let (Some(stem), Ok(text)) = (path.file_stem(), std::fs::read_to_string(&path)) {
                out.push((stem.to_string_lossy().into_owned(), text));
            }
        }
    }
    out.sort();
    out
}

/// Rounds of one untraced run: each is one batch rep followed by one
/// serving session, so every metric is sampled at four points spread
/// over the run. The sandbox drifts between a quiet and a contended
/// regime every 10–60 s (README, "Noise"); one block per metric would
/// report whichever regime it met. Four is what the driver's time cap
/// leaves room for.
const ROUNDS: usize = 4;

/// The end-to-end run: tracing off, every end-to-end metric.
pub fn run_untraced(config: &Config, workload: Workload) -> Outcome {
    let mut outcome = Outcome::default();
    let dir = work_dir(config, workload);
    let census = workload.batch() == BatchPhase::Census;

    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        inputs = Some(world::set_up(
            config.scale,
            config.world_seed,
            census,
            &dir.join("inputs"),
            &mut Trace::new(),
        ));
        setups.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let names = inputs.batch_names as u64;

    let plan = ServePlan {
        boots: 3,
        warmup: Duration::from_secs_f64((config.seconds * 0.01).max(0.1)),
        steady: Duration::from_secs_f64(config.seconds * 0.30 / ROUNDS as f64),
        slices: 1,
        reloads: 8,
    };
    let mut reps: Vec<Rep> = Vec::new();
    let mut sessions = Vec::new();
    for round in 0..ROUNDS {
        let spec = child_spec(config, workload, &dir, &format!("rep{round}"));
        let rep = checked_rep(&mut outcome, &config.exe, &spec, Some(names));
        if round == 0 {
            if census {
                outcome.check(batch::check_lint_report(&spec.out).is_ok(), || {
                    "batch-census: lint report does not parse".into()
                });
            } else {
                outcome.figure_text = read_figure_text(&spec.out);
            }
        }
        let _ = std::fs::remove_dir_all(&spec.out);
        reps.push(rep);

        // Each session draws its own stretch of the seeded traffic.
        let traffic = config
            .seed
            .wrapping_mul(ROUNDS as u64)
            .wrapping_add(round as u64);
        let served = serve::run_session(
            &config.perilsd,
            workload.serve(),
            &inputs,
            traffic,
            plan,
            &mut || {},
        );
        fold_session(&mut outcome, &served, plan);
        sessions.push(served);
    }
    outcome.check(reps.iter().all(|r| r.checksum == reps[0].checksum), || {
        format!(
            "{}: figure bytes differ between reps",
            workload.batch().name()
        )
    });
    outcome.check(
        sessions
            .iter()
            .all(|s| s.probe_checksum == sessions[0].probe_checksum),
        || "probe transcripts differ between daemons of one run".into(),
    );
    outcome.probe_checksum = sessions[0].probe_checksum;

    // Estimators (README, "Noise and the estimators"). The cost of one
    // typical thing — a batch rep, a cold boot, a session's median
    // request — reports its least contaminated repeat: the same
    // instructions run every time, and interference from the shared host
    // only adds to them. The two numbers that must register a stall — the
    // tail and the throughput — pool every session's samples, so a
    // session that stalls is in them. Reloads report their median.
    let ready: Vec<f64> = sessions.iter().flat_map(|s| s.ready_ms.clone()).collect();
    let reload: Vec<f64> = sessions.iter().flat_map(|s| s.reload_ms.clone()).collect();
    let name_ms = ascending(sessions.iter().flat_map(|s| s.name_sorted()));
    let zones: usize = sessions.iter().map(|s| s.zone_sorted().len()).sum();
    outcome.check(
        sessions
            .iter()
            .all(|s| !s.name_sorted().is_empty() && !s.zone_sorted().is_empty()),
        || "a steady phase completed no /name or no /zone request".into(),
    );
    eprintln!(
        "{}: {ROUNDS} rounds of one {} rep (fresh process, {CLIENTS} threads) and one {} session \
         ({CLIENTS} closed-loop keep-alive clients); rep walls {:.2?} s; {} boots, {} reloads, \
         {} /name (pooled p50 {:.4} ms) and {} /zone samples in {:.1} s of steady load",
        workload.name(),
        workload.batch().name(),
        workload.serve().name(),
        reps.iter().map(|r| r.wall_s).collect::<Vec<_>>(),
        ready.len(),
        reload.len(),
        name_ms.len(),
        percentile_sorted(&name_ms, 0.50),
        zones,
        sessions.iter().map(|s| s.steady_s).sum::<f64>(),
    );
    let lowest = |values: &mut dyn Iterator<Item = f64>| values.fold(f64::INFINITY, f64::min);
    let highest = |values: &mut dyn Iterator<Item = f64>| values.fold(0.0, f64::max);
    let m = &mut outcome.metrics;
    m.insert("setup_s".into(), median(&setups));
    m.insert(
        "batch_wall_s".into(),
        lowest(&mut reps.iter().map(|r| r.wall_s)),
    );
    m.insert(
        "peak_rss_mib".into(),
        highest(&mut reps.iter().map(|r| r.rss_mib)),
    );
    m.insert(
        "daemon_rss_mib".into(),
        highest(&mut sessions.iter().map(|s| s.rss_mib)),
    );
    m.insert("ready_ms".into(), lowest(&mut ready.iter().copied()));
    m.insert("reload_ms".into(), median(&reload));
    m.insert(
        "name_p50_ms".into(),
        lowest(
            &mut sessions
                .iter()
                .map(|s| percentile_sorted(&s.name_sorted(), 0.50)),
        ),
    );
    m.insert("name_p99_ms".into(), percentile_sorted(&name_ms, 0.99));
    m.insert(
        "zone_p50_ms".into(),
        lowest(
            &mut sessions
                .iter()
                .map(|s| percentile_sorted(&s.zone_sorted(), 0.50)),
        ),
    );
    m.insert(
        "name_qps".into(),
        sessions.iter().map(|s| s.steady_completed()).sum::<usize>() as f64
            / sessions.iter().map(|s| s.steady_s).sum::<f64>(),
    );
    if outcome.failures.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    outcome
}

fn ascending(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut all: Vec<f64> = values.collect();
    all.sort_by(f64::total_cmp);
    all
}

/// Folds a serving session's operations and failures into the outcome.
fn fold_session(outcome: &mut Outcome, served: &serve::ServeResult, plan: ServePlan) {
    outcome.attempted += served.attempted;
    outcome.failures.extend(served.failures.iter().cloned());
    outcome.check(served.ready_ms.len() == plan.boots, || {
        "a cold boot failed".into()
    });
    outcome.check(served.reload_ms.len() == plan.reloads, || {
        format!(
            "{} of {} reloads published",
            served.reload_ms.len(),
            plan.reloads
        )
    });
}

/// The traced pass: every per-layer metric. Runs one untraced and one
/// traced batch rep (their difference is the tracing overhead, their
/// outputs must agree), one single-threaded rep (thread invariance), a
/// short serving session for the daemon-side counters, and the
/// in-process replay. Trace files stay in `config.out`.
pub fn run_traced(config: &Config, workload: Workload) -> Outcome {
    let mut outcome = Outcome::default();
    let dir = work_dir(config, workload);
    let census = workload.batch() == BatchPhase::Census;
    let mut layers = Metrics::new();

    let mut trace = Trace::new();
    let inputs = world::set_up(
        config.scale,
        config.world_seed,
        census,
        &dir.join("inputs"),
        &mut trace,
    );
    layers.insert(
        "snapshot.save_ms".into(),
        trace.total_us("snapshot.save") / 1e3,
    );
    layers.insert("snapshot.bytes".into(), trace.count_of("snapshot.bytes"));
    layers.insert(
        "lintindex.build_ms".into(),
        trace.total_us("lintindex.build") / 1e3,
    );
    let names = inputs.batch_names as u64;

    let plain = checked_rep(
        &mut outcome,
        &config.exe,
        &child_spec(config, workload, &dir, "plain"),
        Some(names),
    );
    let traced_spec = ChildSpec {
        traced: true,
        ..child_spec(config, workload, &dir, "traced")
    };
    let traced = checked_rep(&mut outcome, &config.exe, &traced_spec, Some(names));
    let serial = checked_rep(
        &mut outcome,
        &config.exe,
        &ChildSpec {
            threads: 1,
            ..child_spec(config, workload, &dir, "serial")
        },
        Some(names),
    );
    outcome.check(traced.checksum == plain.checksum, || {
        format!(
            "{}: traced and untraced figure bytes differ",
            workload.batch().name()
        )
    });
    outcome.check(serial.checksum == plain.checksum, || {
        format!(
            "{}: figure bytes differ between 1 and 2 threads",
            workload.batch().name()
        )
    });
    // The census child builds its own lint index; the crawl pipeline has
    // none, so there the set-up's build (for the archive) stands.
    layers.extend(traced.layers.iter().map(|(k, v)| (k.clone(), *v)));
    // The traced child goes on to run the attribution probes, so walls
    // are compared inside `main`, and teardown is the untraced child's.
    layers.insert(
        "batch.teardown_ms".into(),
        plain.wall_s * 1e3 - plain.main_ms,
    );
    layers.insert(
        "trace.overhead_frac".into(),
        traced.main_ms / plain.main_ms - 1.0,
    );
    let unattributed = layers
        .get("batch.unattributed_ms")
        .copied()
        .unwrap_or(f64::NAN);
    let _ = std::fs::copy(
        traced_spec.out.join("trace.json"),
        config
            .out
            .join(format!("trace-{}.json", workload.batch().name())),
    );

    // The serving session and the in-process replay take turns, slice by
    // slice: the client-side p50 and the handler time it is compared
    // with (`daemon.transport_us`) then see the same stretches of machine
    // time, as the replay's own two passes do block by block.
    let requests = if config.scale == Scale::Tiny {
        2_000
    } else {
        20_000
    };
    let mut replay = Replay::new(workload.serve(), &inputs, config.seed, requests);
    let plan = ServePlan {
        boots: 3,
        warmup: Duration::from_secs_f64((config.seconds * 0.02).max(0.2)),
        steady: Duration::from_secs_f64(config.seconds * 0.15),
        slices: 20,
        reloads: 10,
    };
    let per_slice = replay.blocks().div_ceil(plan.slices as usize);
    let served = serve::run_session(
        &config.perilsd,
        workload.serve(),
        &inputs,
        config.seed,
        plan,
        &mut || replay.run_blocks(&mut trace, per_slice),
    );
    fold_session(&mut outcome, &served, plan);
    outcome.probe_checksum = served.probe_checksum;
    served.layers(&mut layers);
    let mut replayed = replay.finish(&mut trace);
    let handler = replayed
        .remove("handler.name_us")
        .expect("replay measures the handler");
    layers.extend(replayed);
    let client_us = percentile_sorted(&served.name_sorted(), 0.50) * 1e3;
    layers.insert("daemon.transport_us".into(), client_us - handler);
    outcome.check(
        layers.get("daemon.requests") == Some(&(served.client_requests as f64)),
        || "daemon.requests differs from the client count".into(),
    );
    let _ = trace.write_json(
        &config
            .out
            .join(format!("trace-{}.json", workload.serve().name())),
    );
    eprintln!(
        "{}: a typical /name costs {handler:.1} us in-process (parse + answer + write) and \
         {client_us:.1} us at the client; the daemon's histogram has a mean of {:.1} us over all \
         endpoints",
        workload.serve().name(),
        layers
            .get("daemon.handler_mean_us")
            .copied()
            .unwrap_or(f64::NAN),
    );
    // The layers must account for the end-to-end time: a pass whose
    // numbers do not add up has failed, whatever the programs did.
    outcome.check(client_us > handler, || {
        format!(
            "daemon.transport_us: in-process handler {handler:.1} us is not below the client's \
             p50 {client_us:.1} us"
        )
    });
    outcome.check(layers["query.serialize_us"] >= 0.0, || {
        "query.serialize_us is negative".into()
    });
    outcome.check(unattributed.abs() <= 0.05 * traced.main_ms, || {
        format!(
            "batch.unattributed_ms {unattributed:.1} is over 5 % of the child's {:.1} ms",
            traced.main_ms
        )
    });

    outcome.metrics = layers;
    if outcome.failures.is_empty() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    outcome
}
