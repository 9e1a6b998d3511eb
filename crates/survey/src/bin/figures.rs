//! Regenerates the paper's figures from a seeded synthetic survey through
//! the figure registry.
//!
//! ```text
//! cargo run --release -p perils-survey --bin figures -- \
//!     [--scale tiny|default|paper] [--seed N] [--list] [--only ID[,ID...]]
//!     [--format text|csv|json|gnuplot|vega] [--out DIR]
//! ```
//!
//! The CLI is registry-driven: it registers metrics on the engine and
//! figures on the [`FigureRegistry`], then renders whatever the registry
//! produces — figures whose metrics are absent are reported as skipped,
//! and a custom metric+figure pair plugs in without touching any
//! per-figure code here (the zombie-delegation workload below is exactly
//! that). `--list` prints the registered figures with their required
//! columns; `--only` selects a subset; `--format`/`--out` choose the
//! serialization and destination (files are named by figure id:
//! `fig2.csv`, `headline.csv`, …). Without `--out`, figures stream to
//! stdout; the aligned-text stream is the EXPERIMENTS.md data source.
//!
//! The world is the archive-backed `perils_survey::World` every binary
//! holds, built by `WorldSpec::build` or opened by `--load-snapshot`;
//! `--save-snapshot` writes it before the survey, which runs over the
//! world's own index. CSV directory exports (`--out DIR --format csv`)
//! go through the row-at-a-time `StreamingCsvSink`.

use perils_core::metric::columns;
use perils_core::ZombieDelegationMetric;
use perils_survey::engine::{AnalysisWorld, Engine, SurveyReport};
use perils_survey::figures::ZombieFigure;
use perils_survey::params::TopologyParams;
use perils_survey::render::{
    DirectorySink, FigureOutcome, FigureRegistry, ReportSink, SinkFormat, StreamingCsvSink,
    WriterSink,
};
use perils_survey::{load_world_with, SnapshotBackend, WorldSpec};
use perils_util::cli::{usage_exit, Argv};

const USAGE: &str = "usage: figures [--scale tiny|default|paper] [--seed N] [--list]
               [--only ID[,ID...]] [--format text|csv|json|gnuplot|vega] [--out DIR]
               [--load-snapshot PATH] [--save-snapshot PATH]

  --out DIR     one <figure-id>.<ext> file per figure (ext from --format;
                csv streams row-at-a-time)
  --load-snapshot PATH  analyze the world in a .psa archive instead of
                        generating one (conflicts with --scale/--seed:
                        giving both is a usage error, exit 2; figures are
                        recomputed, not replayed)
  --save-snapshot PATH  write the world to a .psa archive before the
                        survey, for later --load-snapshot / perilsd
                        --snapshot (an unwritable PATH exits 1 at once)";

struct Args {
    scale: String,
    seed: u64,
    list: bool,
    only: Option<Vec<String>>,
    format: SinkFormat,
    out_dir: Option<String>,
    load_snapshot: Option<String>,
    save_snapshot: Option<String>,
}

/// Reads the command line; usage errors exit 2.
fn read_args() -> Args {
    let mut parsed = Args {
        scale: "default".to_string(),
        seed: 20040722, // 2004-07-22, the paper's crawl date
        list: false,
        only: None,
        format: SinkFormat::Text,
        out_dir: None,
        load_snapshot: None,
        save_snapshot: None,
    };
    // World-shaping flags the user spelled out (for `--load-snapshot`
    // conflict detection — a stored world has no scale or seed to shape).
    let mut world_flags_given: Vec<&'static str> = Vec::new();
    let mut argv = Argv::from_env(USAGE);
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--scale" => {
                parsed.scale = argv.value("--scale");
                world_flags_given.push("--scale");
            }
            "--seed" => {
                parsed.seed = argv.parse("--seed");
                world_flags_given.push("--seed");
            }
            "--list" => parsed.list = true,
            "--only" => {
                parsed.only = Some(
                    argv.value("--only")
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--format" => {
                let raw = argv.value("--format");
                parsed.format = SinkFormat::parse(&raw)
                    .unwrap_or_else(|| argv.fail(&format!("unknown format {raw:?}")));
            }
            "--out" => parsed.out_dir = Some(argv.value("--out")),
            "--load-snapshot" => parsed.load_snapshot = Some(argv.value("--load-snapshot")),
            "--save-snapshot" => parsed.save_snapshot = Some(argv.value("--save-snapshot")),
            other => argv.unknown(other),
        }
    }
    if parsed.load_snapshot.is_some() && !world_flags_given.is_empty() {
        argv.fail(&format!(
            "--load-snapshot conflicts with {}: a stored world has no scale or seed to shape",
            world_flags_given.join("/")
        ));
    }
    parsed
}

/// Everything registered for this binary: the extended metric set plus the
/// zombie-delegation workload, figures matching.
fn registry() -> FigureRegistry {
    FigureRegistry::extended().register(ZombieFigure)
}

/// `exact_hijack_sample`: how many leading names also get the exact
/// AND/OR hijack search (the ablation line of the text stream).
fn engine(exact_hijack_sample: usize) -> Engine {
    Engine::with_extended_metrics()
        .register(ZombieDelegationMetric)
        .exact_hijack_sample(exact_hijack_sample)
}

fn print_figure_list(registry: &FigureRegistry) {
    let mut table = perils_util::table::Table::new(vec!["id", "required columns", "title"]);
    for figure in registry.iter() {
        table.row(vec![
            figure.id().to_string(),
            figure.required_columns().join(","),
            figure.title().to_string(),
        ]);
    }
    print!("{}", table.render());
}

/// Extra diagnostics that are not figures (printed only on the text
/// stdout stream): value concentration and the exact-hijack ablation.
fn print_extras(report: &SurveyReport) {
    let (Ok(value), Ok(cut_size)) = (
        report.try_value_column(columns::VALUE),
        report.try_counts(columns::CUT_SIZE),
    ) else {
        return;
    };
    println!(
        "Name-control concentration (Gini over non-zero servers): {:.3}  (§3.3: \"disproportionate\")\n",
        value.gini()
    );
    if !report.exact_sample.is_empty() {
        let mut agree = 0usize;
        let mut exact_smaller = 0usize;
        for &(i, exact_size, _) in &report.exact_sample {
            if cut_size[i] == exact_size {
                agree += 1;
            } else if exact_size < cut_size[i] {
                exact_smaller += 1;
            }
        }
        println!(
            "Ablation (exact AND/OR vs flattened min-cut, {} sampled names): agree {}, exact smaller {}\n",
            report.exact_sample.len(),
            agree,
            exact_smaller
        );
    }
}

fn main() {
    let args = read_args();
    let registry = registry();

    if args.list {
        print_figure_list(&registry);
        return;
    }

    if let Some(only) = &args.only {
        let known = registry.ids();
        for id in only {
            if !known.contains(&id.as_str()) {
                usage_exit(
                    USAGE,
                    &format!("unknown figure {id:?}; registered: {known:?}"),
                );
            }
        }
    }

    let params = TopologyParams::preset(&args.scale, args.seed).unwrap_or_else(|| {
        usage_exit(
            USAGE,
            &format!(
                "unknown scale {:?} ({})",
                args.scale,
                TopologyParams::PRESETS
            ),
        )
    });

    let engine = engine(match args.scale.as_str() {
        "tiny" => 25,
        _ => 500,
    });
    let started = std::time::Instant::now();
    let report = {
        let world = match &args.load_snapshot {
            Some(path) => {
                eprintln!(
                    "running metrics {:?} over snapshot {path} ...",
                    engine.metric_ids()
                );
                load_world_with(path, SnapshotBackend::Heap).unwrap_or_else(|e| {
                    eprintln!("error: cannot load snapshot {path}: {e}");
                    std::process::exit(1);
                })
            }
            None => {
                let spec = WorldSpec::Synthetic(params);
                eprintln!(
                    "running metrics {:?} over {} (scale={})...",
                    engine.metric_ids(),
                    spec.describe(),
                    args.scale,
                );
                spec.build(None)
            }
        };
        // Save before the survey: an unwritable path fails fast.
        if let Some(path) = &args.save_snapshot {
            match world.save(path) {
                Ok(bytes) => eprintln!("snapshot saved to {path} ({bytes} bytes)"),
                Err(e) => {
                    eprintln!("error: cannot save snapshot to {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        let surveyed = AnalysisWorld {
            universe: world.universe,
            names: world.names.to_vec(),
            top500: world.top500,
        };
        engine.run_world_indexed(surveyed, &world.index)
        // Figures read the report alone: the index, the lint facts and
        // the archive they view are released here, before rendering.
    };
    eprintln!(
        "survey complete in {:.1}s: {} names, {} zones, {} servers{}",
        started.elapsed().as_secs_f64(),
        report.world.names.len(),
        report.world.universe.zone_count(),
        report.world.universe.server_count(),
        perils_util::peak_rss_mb()
            .map(|mb| format!(", peak RSS {mb:.0} MiB"))
            .unwrap_or_default(),
    );

    // Build every selected figure through the registry. Missing columns are
    // skips (reported on stderr), not panics.
    let outcomes: Vec<FigureOutcome> = match &args.only {
        None => registry.build_all(&report),
        Some(only) => only
            .iter()
            .map(|id| match registry.build(id, &report) {
                Ok(rendered) => FigureOutcome::Rendered(rendered),
                Err(perils_survey::render::FigureError::MissingColumns { figure, missing }) => {
                    FigureOutcome::Skipped {
                        id: figure,
                        missing,
                    }
                }
                Err(error) => FigureOutcome::Failed {
                    id: id.clone(),
                    error,
                },
            })
            .collect(),
    };

    let mut failed = false;
    let mut rendered = Vec::new();
    for outcome in &outcomes {
        match outcome {
            FigureOutcome::Rendered(figure) => rendered.push(figure),
            FigureOutcome::Skipped { id, missing } => {
                eprintln!("skipped figure {id:?}: missing columns {missing:?}");
            }
            FigureOutcome::Failed { id, error } => {
                eprintln!("figure {id:?} failed: {error}");
                failed = true;
            }
        }
    }

    // Route rendered figures into the selected sinks. CSV directories go
    // through the streaming row-at-a-time sink (byte-identical output, no
    // full-table buffering — the paper-scale CDF exports are the point).
    let sink_result: std::io::Result<()> = (|| {
        match &args.out_dir {
            Some(dir) if args.format == SinkFormat::Csv => {
                let mut sink = StreamingCsvSink::new(dir);
                for figure in &rendered {
                    sink.emit(figure)?;
                }
                sink.finish()?;
                eprintln!(
                    "wrote {} figure files to {dir} (streaming)",
                    sink.written().len()
                );
            }
            Some(dir) => {
                let mut sink = DirectorySink::new(dir, args.format);
                for figure in &rendered {
                    sink.emit(figure)?;
                }
                sink.finish()?;
                eprintln!("wrote {} figure files to {dir}", sink.written().len());
            }
            None => {
                let stdout = std::io::stdout();
                let mut sink = WriterSink::new(stdout.lock(), args.format);
                for figure in &rendered {
                    sink.emit(figure)?;
                }
                sink.finish()?;
                if args.format == SinkFormat::Text && args.only.is_none() {
                    print_extras(&report);
                }
            }
        }
        Ok(())
    })();
    if let Err(e) = sink_result {
        eprintln!("error: writing figures failed: {e}");
        std::process::exit(1);
    }
    if failed {
        std::process::exit(1);
    }
}
