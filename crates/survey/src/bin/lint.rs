//! Lints a delegation universe and reports per-subject diagnostics with
//! evidence chains.
//!
//! ```text
//! cargo run --release -p perils-survey --bin lint -- \
//!     [--world fbi|cornell|tripwire|tiny|default|paper] [--seed N] [--threads N]
//!     [--list-rules] [--allow RULE] [--warn RULE] [--deny RULE]
//!     [--format text|json|sarif] [--out FILE]
//! ```
//!
//! `--world` names resolve through [`perils_survey::WorldSpec`], the same
//! names `perilsd --world` serves, and `WorldSpec::build` makes the
//! world: the one `perils_survey::World` value, archive-backed, that
//! `--load-snapshot` opens from disk instead and `--save-snapshot` writes
//! before the lint pass. The pass runs over the world's own dependency
//! index and lint facts.
//!
//! Severity overrides are repeatable and validated against the registry:
//! `--allow RULE` suppresses a rule's findings, `--warn`/`--deny` re-level
//! them (deny-level findings gate the exit code). Unknown rule ids are
//! usage errors (exit 2), matching the figures CLI error contract.
//!
//! Exit codes: **0** — clean or warnings only; **1** — at least one
//! deny-level finding (the CI gate); **2** — usage error (unknown flag,
//! malformed value, unknown rule id).

use perils_core::lint::{RuleRegistry, Severity, SeverityOverrides};
use perils_survey::lint::{run_lint, LintFormat, LintReport};
use perils_survey::{load_world_with, SnapshotBackend, WorldSpec};
use perils_util::cli::{usage_exit, Argv};
use std::io::{self, BufWriter, Write};
use std::num::NonZeroUsize;

const USAGE: &str = "usage: lint [--world fbi|cornell|tripwire|tiny|default|paper] [--seed N]
            [--threads N]
            [--list-rules] [--allow RULE] [--warn RULE] [--deny RULE]
            [--format text|json|sarif] [--out FILE]
            [--load-snapshot PATH] [--save-snapshot PATH]

  --world WORLD   universe to lint: the fbi.gov case study (default), the
                  Figure 1 cornell web, the all-pathologies tripwire
                  fixture, or a seeded synthetic survey at tiny, default
                  or paper scale
  --seed N        synthetic seed (synthetic worlds only; default 20040722)
  --threads N     worker threads (default: available parallelism, max 16);
                  output is byte-identical for every choice
  --list-rules    print the rule registry (id, default severity,
                  description) and exit
  --allow RULE    suppress RULE's findings          (repeatable)
  --warn RULE     report RULE's findings as warnings (repeatable)
  --deny RULE     report RULE's findings as errors   (repeatable)
  --format FMT    text (rustc-style, default) | json | sarif (2.1.0)
  --out FILE      write the report to FILE instead of stdout
  --load-snapshot PATH  lint the world in a .psa archive (its stored
                        index and facts are reused, no rebuild);
                        conflicts with --world/--seed (usage error)
  --save-snapshot PATH  write the world (with its index and facts) to a
                        .psa archive before the lint pass; a loaded
                        archive is re-saved byte for byte

exit codes: 0 = clean or warnings only; 1 = deny-level findings present;
            2 = usage error (unknown flag, value, or rule id)";

struct Args {
    world: String,
    seed: u64,
    threads: Option<NonZeroUsize>,
    list_rules: bool,
    overrides: Vec<(String, Severity)>,
    format: LintFormat,
    out: Option<String>,
    load_snapshot: Option<String>,
    save_snapshot: Option<String>,
}

/// Reads the command line; usage errors exit 2.
fn read_args() -> Args {
    let mut parsed = Args {
        world: "fbi".to_string(),
        seed: 20040722, // 2004-07-22, the paper's crawl date
        threads: None,
        list_rules: false,
        overrides: Vec::new(),
        format: LintFormat::Text,
        out: None,
        load_snapshot: None,
        save_snapshot: None,
    };
    // World-shaping flags the user spelled out (for `--load-snapshot`
    // conflict detection — a stored world cannot be reshaped).
    let mut world_flags_given: Vec<&'static str> = Vec::new();
    let mut argv = Argv::from_env(USAGE);
    while let Some(flag) = argv.next_flag() {
        match flag.as_str() {
            "--world" => {
                parsed.world = argv.value("--world");
                world_flags_given.push("--world");
            }
            "--seed" => {
                parsed.seed = argv.parse("--seed");
                world_flags_given.push("--seed");
            }
            "--threads" => parsed.threads = Some(argv.parse("--threads")),
            "--list-rules" => parsed.list_rules = true,
            "--allow" | "--warn" | "--deny" => {
                let severity = Severity::parse(&flag[2..]).expect("flag names are labels");
                parsed.overrides.push((argv.value(&flag), severity));
            }
            "--format" => {
                let raw = argv.value("--format");
                parsed.format = LintFormat::parse(&raw)
                    .unwrap_or_else(|| argv.fail(&format!("unknown format {raw:?}")));
            }
            "--out" => parsed.out = Some(argv.value("--out")),
            "--load-snapshot" => parsed.load_snapshot = Some(argv.value("--load-snapshot")),
            "--save-snapshot" => parsed.save_snapshot = Some(argv.value("--save-snapshot")),
            other => argv.unknown(other),
        }
    }
    if parsed.load_snapshot.is_some() && !world_flags_given.is_empty() {
        argv.fail(&format!(
            "--load-snapshot conflicts with {}: a stored world cannot be reshaped",
            world_flags_given.join("/")
        ));
    }
    parsed
}

fn print_rule_list(registry: &RuleRegistry) {
    let mut table = perils_util::table::Table::new(vec!["rule", "default", "description"]);
    for rule in registry.iter() {
        table.row(vec![
            rule.id().to_string(),
            rule.default_severity().label().to_string(),
            rule.describe().to_string(),
        ]);
    }
    print!("{}", table.render());
}

/// Writes `report` in `format` through a buffer into `sink`.
fn write_report(report: &LintReport<'_>, format: LintFormat, sink: impl Write) -> io::Result<()> {
    let mut out = BufWriter::new(sink);
    report.write(format, &mut out)?;
    out.flush()
}

fn main() {
    let args = read_args();
    let registry = RuleRegistry::builtin();

    if args.list_rules {
        print_rule_list(&registry);
        return;
    }

    // Validate severity overrides up front: unknown rule ids are typed
    // errors surfaced as usage errors, not panics.
    let mut overrides = SeverityOverrides::new();
    for (rule, severity) in &args.overrides {
        if let Err(error) = overrides.set(&registry, rule, *severity) {
            usage_exit(USAGE, &error.to_string());
        }
    }

    let world = match &args.load_snapshot {
        Some(path) => load_world_with(path, SnapshotBackend::Heap).unwrap_or_else(|e| {
            eprintln!("error: cannot load snapshot {path}: {e}");
            std::process::exit(1);
        }),
        None => WorldSpec::parse(&args.world, args.seed)
            .unwrap_or_else(|message| usage_exit(USAGE, &message))
            .build(None),
    };
    // Save before the lint pass: an unwritable path fails fast.
    if let Some(path) = &args.save_snapshot {
        match world.save(path) {
            Ok(bytes) => eprintln!("snapshot saved to {path} ({bytes} bytes)"),
            Err(e) => {
                eprintln!("error: cannot save snapshot to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let described = args
        .load_snapshot
        .as_deref()
        .map(|path| format!("snapshot {path}"))
        .unwrap_or_else(|| format!("{:?}", args.world));
    eprintln!(
        "linting world {described}: {} zones, {} servers, {} target names...",
        world.universe.zone_count(),
        world.universe.server_count(),
        world.names.len(),
    );
    let report = run_lint(&world, &registry, &overrides, args.threads);
    eprintln!(
        "{} finding(s): {} deny, {} warn",
        report.diagnostics.len(),
        report.count(Severity::Deny),
        report.count(Severity::Warn),
    );

    // Stream the report: it is never rendered whole in memory.
    let written = match &args.out {
        Some(path) => std::fs::File::create(path)
            .and_then(|file| write_report(&report, args.format, file))
            .map(|()| eprintln!("wrote report to {path}"))
            .map_err(|e| format!("writing {path:?} failed: {e}")),
        None => write_report(&report, args.format, std::io::stdout().lock())
            .map_err(|e| format!("writing stdout failed: {e}")),
    };
    if let Err(message) = written {
        eprintln!("error: {message}");
        std::process::exit(1);
    }

    if report.has_deny() {
        std::process::exit(1);
    }
}
