//! Command line: `run` (one workload, the driver's contract), `all`
//! (every workload, every metric, a result file), `compare`, and the
//! internal `child` (one batch rep).

use crate::batch::{self, BatchPhase, ChildSpec};
use crate::report::{
    self, conform, result_line, MetricSpec, Metrics, ResultFile, Spec, WorkloadResult,
};
use crate::run::{self, Config, Outcome, Workload};
use crate::serve::CLIENTS;
use crate::util::median;
use crate::world::{Scale, DEFAULT_NAMES};
use std::collections::BTreeMap;
use std::path::PathBuf;

const USAGE: &str = "usage:
  perils-benchmark run --workload crawl-heap|census-paged [--seed N] [--seconds S] [--trace 0|1]
  perils-benchmark all [--seed N] [--seconds S] [--result FILE]
  perils-benchmark compare A.json B.json
common flags: [--world-seed N] [--scale tiny|NAMES] [--perilsd PATH] [--out DIR]
  --seed seeds the traffic (which names are asked for), --world-seed the world";

/// Every `--key value` flag: the driver's four, where things are, what
/// world, and the ones a parent hands its batch child.
const FLAGS: [&str; 12] = [
    "workload",
    "seed",
    "seconds",
    "trace",
    "perilsd",
    "out",
    "result",
    "scale",
    "world-seed",
    "phase",
    "threads",
    "inputs",
];

/// Flag values by name; flags are all `--key value` except `--traced`.
struct Flags(BTreeMap<String, String>, Vec<String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut named = BTreeMap::new();
        let mut positional = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some("traced") => {
                    named.insert("traced".to_string(), "1".to_string());
                }
                Some(key) => {
                    if !FLAGS.contains(&key) {
                        return Err(format!("unknown flag --{key}"));
                    }
                    let value = iter.next().ok_or(format!("--{key} needs a value"))?;
                    named.insert(key.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Flags(named, positional))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("bad --{key} {raw:?}")),
        }
    }

    fn path(&self, key: &str) -> Option<PathBuf> {
        self.0.get(key).map(PathBuf::from)
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.0.get("scale") {
            None => Ok(Scale::Names(DEFAULT_NAMES)),
            Some(raw) => Scale::parse(raw).ok_or(format!("bad --scale {raw:?}")),
        }
    }
}

fn config(flags: &Flags, spec: &Spec) -> Result<Config, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // run.sh builds perilsd into the same target directory.
    let perilsd = flags
        .path("perilsd")
        .unwrap_or_else(|| exe.with_file_name("perilsd"));
    if !perilsd.is_file() {
        return Err(format!(
            "{} not found: build it with `cargo build --release -p perils-service --bin perilsd`",
            perilsd.display()
        ));
    }
    let out = flags
        .path("out")
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(Config {
        scale: flags.scale()?,
        world_seed: flags.get("world-seed", 2005)?,
        seed: flags.get("seed", 2005)?,
        seconds: flags.get("seconds", spec.run_seconds)?,
        perilsd,
        exe,
        out: out.canonicalize().map_err(|e| e.to_string())?,
    })
}

fn report_failures(outcome: &Outcome) {
    for failure in outcome.failures.iter().take(20) {
        eprintln!("FAILED: {failure}");
    }
    if outcome.failures.len() > 20 {
        eprintln!("... and {} more", outcome.failures.len() - 20);
    }
}

/// A metric list that does not match `BENCHMARK.json` fails the run.
fn conformed(
    list: &[MetricSpec],
    metrics: Metrics,
    idle: &[&str],
) -> Option<Vec<(MetricSpec, f64)>> {
    conform(list, metrics, idle)
        .map_err(|e| eprintln!("FAILED: {e}"))
        .ok()
}

fn run(flags: &Flags) -> Result<i32, String> {
    let spec = Spec::load();
    let config = config(flags, &spec)?;
    let name: String = flags.get("workload", String::new())?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?;
    let traced = flags.get("trace", 0u8)? == 1;
    let outcome = if traced {
        run::run_traced(&config, workload)
    } else {
        run::run_untraced(&config, workload)
    };
    report_failures(&outcome);
    let list = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let failed = outcome.failed();
    let idle = if traced { workload.idle_layers() } else { &[] };
    let Some(metrics) = conformed(list, outcome.metrics, idle) else {
        return Ok(1);
    };
    for (metric, value) in &metrics {
        eprintln!("{:<34} {value:>16.4} {}", metric.name, metric.unit);
    }
    println!(
        "{}",
        result_line(failed == 0, outcome.attempted.max(1), failed, &metrics)
    );
    Ok(i32::from(failed != 0))
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Untraced runs per workload in a full run: enough for `compare` to take
/// a median and a spread from each side.
const RUNS: usize = 3;

/// Every workload: `RUNS` untraced runs and one traced pass each; prints
/// every metric by name with its unit and writes the result file.
fn all(flags: &Flags) -> Result<i32, String> {
    let spec = Spec::load();
    let config = config(flags, &spec)?;
    let mut file = ResultFile {
        commit: commit(),
        world_seed: config.world_seed,
        seed: config.seed,
        scale: config.scale.label(),
        seconds: config.seconds,
        cores: CLIENTS,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads: BTreeMap::new(),
    };
    let mut failed = 0u64;
    let mut probes = Vec::new();
    for workload in Workload::ALL {
        let mut result = WorkloadResult::default();
        let mut fold = |outcome: &Outcome, result: &mut WorkloadResult| {
            report_failures(outcome);
            result.attempted += outcome.attempted;
            result.failed += outcome.failed();
            probes.push(outcome.probe_checksum);
        };
        for _ in 0..RUNS {
            let outcome = run::run_untraced(&config, workload);
            fold(&outcome, &mut result);
            let Some(metrics) = conformed(&spec.end_to_end, outcome.metrics, &[]) else {
                return Ok(1);
            };
            for (metric, value) in metrics {
                result
                    .end_to_end
                    .entry(metric.name)
                    .or_default()
                    .push(value);
            }
        }
        let outcome = run::run_traced(&config, workload);
        fold(&outcome, &mut result);
        let Some(layers) = conformed(&spec.per_layer, outcome.metrics, workload.idle_layers())
        else {
            return Ok(1);
        };
        for (metric, value) in layers {
            result.per_layer.insert(metric.name, value);
        }
        println!(
            "== {} ({} attempted, {} failed; 2 closed-loop clients, {} threads, nproc {})",
            workload.name(),
            result.attempted,
            result.failed,
            file.cores,
            file.nproc
        );
        println!(
            "{:<34} {:>16.4} ratio  (any increase is a regression)",
            "failed_frac",
            result.failed_frac()
        );
        for metric in &spec.end_to_end {
            let values = &result.end_to_end[&metric.name];
            println!(
                "{:<34} {:>16.4} {:<6} (median of {} runs; bound {:.0}%)",
                metric.name,
                median(values),
                metric.unit,
                values.len(),
                metric.bound.unwrap_or(0.0) * 100.0
            );
        }
        for metric in &spec.per_layer {
            println!(
                "{:<34} {:>16.4} {}",
                metric.name, result.per_layer[&metric.name], metric.unit
            );
        }
        failed += result.failed;
        file.workloads.insert(workload.name().to_string(), result);
    }
    // Same seed, same world: the heap and paged daemons must have given
    // the same probe answers.
    if probes.windows(2).any(|pair| pair[0] != pair[1]) {
        eprintln!("FAILED: probe transcripts differ between daemons: {probes:x?}");
        failed += 1;
    }
    let path = flags
        .path("result")
        .unwrap_or_else(|| config.out.join("result.json"));
    std::fs::write(&path, file.to_json(&spec)).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(i32::from(failed != 0))
}

fn compare(flags: &Flags) -> Result<i32, String> {
    let [a, b] = flags.1.as_slice() else {
        return Err("compare needs two result files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| ResultFile::from_json(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = (read(a)?, read(b)?);
    println!(
        "A: commit {} world {} seed {} scale {}; B: commit {} world {} seed {} scale {}",
        a.commit, a.world_seed, a.seed, a.scale, b.commit, b.world_seed, b.seed, b.scale
    );
    Ok(i32::from(report::compare(&Spec::load(), &a, &b)))
}

fn child(flags: &Flags) -> Result<i32, String> {
    let phase: String = flags.get("phase", String::new())?;
    let spec = ChildSpec {
        phase: BatchPhase::parse(&phase).ok_or(format!("unknown phase {phase:?}"))?,
        scale: flags.scale()?,
        seed: flags.get("seed", 2005)?,
        threads: flags.get("threads", CLIENTS)?,
        inputs: flags.path("inputs").ok_or("--inputs needed")?,
        out: flags.path("out").ok_or("--out needed")?,
        traced: flags.0.contains_key("traced"),
    };
    batch::child_main(&spec);
    Ok(0)
}

/// Dispatches; returns the process exit code (2 on a usage error).
pub fn main(args: Vec<String>) -> i32 {
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let outcome = Flags::parse(rest).and_then(|flags| match command.as_str() {
        "run" => run(&flags),
        "all" => all(&flags),
        "compare" => compare(&flags),
        "child" => child(&flags),
        other => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_flags_are_usage_errors() {
        let args = ["all", "--runs", "5"].map(String::from).to_vec();
        assert_eq!(super::main(args), 2);
    }
}
