//! The benchmark's contract (`BENCHMARK.json`), the result file a full
//! run writes, and `compare` over two result files.

use crate::util::{json_f64, median, spread};
use perils_util::json::{parse, Value};
use std::collections::BTreeMap;

/// `BENCHMARK.json`, compiled in: the harness emits exactly the metrics
/// it names, and `compare` applies exactly its bounds.
const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_better: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let root = parse(SPEC_JSON).expect("BENCHMARK.json parses");
        let text = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
                .to_string()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            root.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Spec {
            workloads: root
                .get("workloads")
                .and_then(Value::as_array)
                .expect("BENCHMARK.json: workloads")
                .iter()
                .map(|w| text(w, "name"))
                .collect(),
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// The metrics of one run, keyed by name.
pub type Metrics = BTreeMap<String, f64>;

/// Orders `values` as `specs` lists them. Every listed metric must have
/// been measured and nothing else may have been. The exception is
/// `idle`: layers that do no work on this workload, which the driver
/// still wants on every workload, so they read 0 — and must not have been
/// measured, or the claim that the layer is bypassed is wrong. A metric
/// that is missing for any other reason (a renamed span, a counter the
/// daemon stopped exporting) is an error, never a zero.
pub fn conform(
    specs: &[MetricSpec],
    mut values: Metrics,
    idle: &[&str],
) -> Result<Vec<(MetricSpec, f64)>, String> {
    let mut out = Vec::with_capacity(specs.len());
    for spec in specs {
        let value = match (
            values.remove(&spec.name),
            idle.contains(&spec.name.as_str()),
        ) {
            (Some(v), false) => v,
            (None, true) => 0.0,
            (None, false) => return Err(format!("metric {} was not measured", spec.name)),
            (Some(v), true) => {
                return Err(format!(
                    "metric {} read {v} on a workload that should bypass its layer",
                    spec.name
                ))
            }
        };
        out.push((spec.clone(), value));
    }
    match values.keys().next() {
        None => Ok(out),
        Some(extra) => Err(format!("metric {extra} is not named in BENCHMARK.json")),
    }
}

/// The driver's result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricSpec, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(spec, v)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                spec.name,
                json_f64(*v),
                spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// One workload's rows in a result file.
#[derive(Debug, Default, Clone)]
pub struct WorkloadResult {
    pub attempted: u64,
    pub failed: u64,
    /// One value per untraced run.
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    pub per_layer: Metrics,
}

impl WorkloadResult {
    /// ISSUE 11's `failed_frac`: failed operations over attempted ones.
    /// Not in `BENCHMARK.json` (the driver wants end-to-end metrics that
    /// never read 0, and this one must); printed and stored by name, and
    /// any increase is a regression to `compare`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A full run: the first trajectory point, or either side of `compare`.
#[derive(Debug, Default, Clone)]
pub struct ResultFile {
    pub commit: String,
    pub world_seed: u64,
    pub seed: u64,
    pub scale: String,
    pub seconds: f64,
    /// Batch threads = daemon workers = load-generator connections.
    pub cores: usize,
    /// What the machine offered.
    pub nproc: usize,
    pub workloads: BTreeMap<String, WorkloadResult>,
}

impl ResultFile {
    pub fn to_json(&self, spec: &Spec) -> String {
        let unit_of = |list: &[MetricSpec], name: &str| {
            list.iter()
                .find(|m| m.name == name)
                .map_or(String::new(), |m| m.unit.clone())
        };
        let mut out = format!(
            "{{\n\"schema\":1,\n\"commit\":\"{}\",\n\"world_seed\":{},\n\"seed\":{},\n\"scale\":\"{}\",\n\"seconds\":{},\n\
             \"cores\":{},\n\"nproc\":{},\n\"workloads\":{{",
            self.commit, self.world_seed, self.seed, self.scale, self.seconds, self.cores, self.nproc
        );
        for (i, (name, w)) in self.workloads.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "\"{name}\":{{\"attempted\":{},\"failed\":{},\"failed_frac\":{},\n \"end_to_end\":{{",
                w.attempted,
                w.failed,
                json_f64(w.failed_frac())
            ));
            for (j, (metric, values)) in w.end_to_end.iter().enumerate() {
                let values: Vec<String> = values.iter().map(|v| json_f64(*v)).collect();
                out.push_str(&format!(
                    "{}\n  \"{metric}\":{{\"unit\":\"{}\",\"values\":[{}]}}",
                    if j == 0 { "" } else { "," },
                    unit_of(&spec.end_to_end, metric),
                    values.join(",")
                ));
            }
            out.push_str("},\n \"per_layer\":{");
            for (j, (metric, value)) in w.per_layer.iter().enumerate() {
                out.push_str(&format!(
                    "{}\n  \"{metric}\":{{\"unit\":\"{}\",\"value\":{}}}",
                    if j == 0 { "" } else { "," },
                    unit_of(&spec.per_layer, metric),
                    json_f64(*value)
                ));
            }
            out.push_str("}}");
        }
        out.push_str("\n}\n}\n");
        out
    }

    pub fn from_json(text: &str) -> Result<ResultFile, String> {
        let root = parse(text).map_err(|e| e.to_string())?;
        let mut file = ResultFile {
            commit: root
                .get("commit")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            world_seed: root.get("world_seed").and_then(Value::as_u64).unwrap_or(0),
            seed: root.get("seed").and_then(Value::as_u64).unwrap_or(0),
            scale: root
                .get("scale")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            seconds: root.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
            cores: root.get("cores").and_then(Value::as_u64).unwrap_or(0) as usize,
            nproc: root.get("nproc").and_then(Value::as_u64).unwrap_or(0) as usize,
            workloads: BTreeMap::new(),
        };
        let workloads = root
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or("no workloads object")?;
        for (name, w) in workloads {
            let mut result = WorkloadResult {
                attempted: w.get("attempted").and_then(Value::as_u64).unwrap_or(0),
                failed: w.get("failed").and_then(Value::as_u64).unwrap_or(0),
                ..WorkloadResult::default()
            };
            for (metric, entry) in w
                .get("end_to_end")
                .and_then(Value::as_object)
                .unwrap_or(&[])
            {
                let values = entry
                    .get("values")
                    .and_then(Value::as_array)
                    .ok_or("end-to-end metric without values")?;
                result.end_to_end.insert(
                    metric.clone(),
                    values.iter().filter_map(Value::as_f64).collect(),
                );
            }
            for (metric, entry) in w.get("per_layer").and_then(Value::as_object).unwrap_or(&[]) {
                if let Some(v) = entry.get("value").and_then(Value::as_f64) {
                    result.per_layer.insert(metric.clone(), v);
                }
            }
            file.workloads.insert(name.clone(), result);
        }
        Ok(file)
    }
}

/// Per-layer counts that must repeat exactly between two runs of one
/// commit on one seed.
pub const EXACT_COUNTS: [&str; 6] = [
    "universe.events",
    "engine.distinct_chains",
    "lint.diagnostics",
    "figures.bytes",
    "snapshot.bytes",
    "dns.master_events",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// The run-to-run spread is wider than the bound, and the two sides'
    /// runs overlap: the bound cannot be checked.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one (metric, workload) pairing: `a` the parent's runs, `b` the
/// change's.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    let worse_than = |x: f64, y: f64| if spec.higher_better { x < y } else { x > y };
    let (ma, mb) = (median(a), median(b));
    let worsening = if spec.higher_better { ma - mb } else { mb - ma } / ma.abs();
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&y| a.iter().all(|&x| f(y, x)));
    let wide = [a, b]
        .iter()
        .any(|runs| spread(runs).is_some_and(|s| s > bound));
    if wide {
        if all(&|y, x| !worse_than(y, x)) {
            Verdict::Ok
        } else if worsening > bound && all(&worse_than) {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worsening > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (metric, workload) and returns whether any is a
/// regression.
pub fn compare(spec: &Spec, a: &ResultFile, b: &ResultFile) -> bool {
    let mut regressed = false;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "bound", "spread"
    );
    for workload in &spec.workloads {
        let (Some(wa), Some(wb)) = (a.workloads.get(workload), b.workloads.get(workload)) else {
            println!("{workload:<14} missing from one side");
            regressed = true;
            continue;
        };
        for metric in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                wa.end_to_end.get(&metric.name),
                wb.end_to_end.get(&metric.name),
            ) else {
                println!("{workload:<14} {:<16} missing from one side", metric.name);
                regressed = true;
                continue;
            };
            let verdict = judge(metric, va, vb);
            regressed |= verdict == Verdict::Regression;
            let (ma, mb) = (median(va), median(vb));
            let wide = spread(va).unwrap_or(0.0).max(spread(vb).unwrap_or(0.0));
            println!(
                "{workload:<14} {:<16} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>6.0}% {:>6.1}%  {}",
                metric.name,
                (mb - ma) / ma * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                wide * 100.0,
                verdict.label()
            );
        }
        let (fa, fb) = (wa.failed_frac(), wb.failed_frac());
        println!(
            "{workload:<14} {:<16} {fa:>12.6} {fb:>12.6} {:>8} {:>7} {:>7}  {}",
            "failed_frac",
            "",
            "any",
            "",
            if fb > fa { "regression" } else { "ok" }
        );
        regressed |= fb > fa;
        for count in EXACT_COUNTS {
            let (ca, cb) = (wa.per_layer.get(count), wb.per_layer.get(count));
            if ca != cb {
                println!("{workload:<14} {count:<16} count differs: {ca:?} vs {cb:?}");
            }
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "t".into(),
            unit: "s".into(),
            higher_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_guide() {
        let steady = [1.00, 1.01, 0.99];
        assert_eq!(
            judge(&lower(0.05), &steady, &[1.02, 1.03, 1.01]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower(0.05), &steady, &[1.10, 1.11, 1.09]),
            Verdict::Regression
        );
        // Spread wider than the bound and overlapping runs: unresolved.
        let noisy = [1.0, 1.3, 0.8];
        assert_eq!(
            judge(&lower(0.05), &noisy, &[1.1, 0.9, 1.2]),
            Verdict::Unresolved
        );
        // ...unless every run of the change reads better.
        assert_eq!(judge(&lower(0.05), &noisy, &[0.7, 0.6, 0.75]), Verdict::Ok);
        let higher = MetricSpec {
            higher_better: true,
            ..lower(0.07)
        };
        assert_eq!(
            judge(&higher, &[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0]),
            Verdict::Regression
        );
    }

    #[test]
    fn conform_never_invents_a_zero() {
        let specs = [
            lower(0.1),
            MetricSpec {
                name: "u".into(),
                ..lower(0.1)
            },
        ];
        let metrics = |pairs: &[(&str, f64)]| -> Metrics {
            pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        let ok = conform(&specs, metrics(&[("t", 2.0)]), &["u"]).expect("u is declared idle");
        assert_eq!((ok[0].1, ok[1].1), (2.0, 0.0));
        // Not measured and not declared idle: an error, not a zero.
        assert!(conform(&specs, metrics(&[("t", 2.0)]), &[]).is_err());
        // Declared idle yet measured: the bypass claim is wrong.
        assert!(conform(&specs, metrics(&[("t", 2.0), ("u", 1.0)]), &["u"]).is_err());
        // Measured but not in the contract.
        assert!(conform(&specs[..1], metrics(&[("t", 2.0), ("u", 1.0)]), &[]).is_err());
    }

    #[test]
    fn result_files_round_trip() {
        let spec = Spec::load();
        let mut file = ResultFile {
            commit: "abc".into(),
            seed: 7,
            scale: "tiny".into(),
            seconds: 3.0,
            cores: 2,
            nproc: 2,
            ..ResultFile::default()
        };
        let mut w = WorkloadResult {
            attempted: 10,
            ..WorkloadResult::default()
        };
        w.end_to_end.insert("setup_s".into(), vec![1.5, 1.25]);
        w.per_layer.insert("figures.bytes".into(), 1234.0);
        file.workloads.insert(spec.workloads[0].clone(), w);
        let back = ResultFile::from_json(&file.to_json(&spec)).expect("parses");
        assert_eq!(back.seed, 7);
        let w = &back.workloads[&spec.workloads[0]];
        assert_eq!(w.end_to_end["setup_s"], vec![1.5, 1.25]);
        assert_eq!(w.per_layer["figures.bytes"], 1234.0);
    }
}
