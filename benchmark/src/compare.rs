//! `mdm-benchmark compare <setA> <setB>`: the A/A and A/B tool.
//!
//! A set is a directory of result files written with `--save-to`. For
//! every workload × end-to-end metric it prints both medians, both
//! quartile pairs and the relative change with its base, and marks the
//! cell `regressed` (B worse than A by more than the metric's bound),
//! `improved` (better by more than either set's own spread),
//! `unresolved` (a set's spread is wider than the bound) or `same`.
//! Bounds, units and directions come from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use mdm_obs::json::{self, Value};

use crate::stats::{quartiles, spread};

/// Fewest result files per workload a set may hold.
const MIN_RUNS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// One workload's runs in one set.
#[derive(Debug, Default)]
struct Runs {
    values: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
    files: usize,
    hashes: Vec<(u64, String)>,
}

type Set = BTreeMap<String, Runs>;

fn parse_specs(benchmark_json: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or(format!("end_to_end entry lacks {k}"))
            };
            Ok(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: field("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

/// Folds one result document into its set. Traced runs carry per-layer
/// metrics only and are skipped; smoke-scale files are refused.
fn add_result(set: &mut Set, name: &str, text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("{name}: {e}"))?;
    if doc.get("smoke").and_then(Value::as_bool) != Some(false) {
        return Err(format!("{name}: a smoke-scale run is not a measurement"));
    }
    if doc.get("trace").and_then(Value::as_u64) != Some(0) {
        return Ok(());
    }
    let workload = doc
        .get("workload")
        .and_then(Value::as_str)
        .ok_or(format!("{name}: no workload"))?;
    let count = |k: &str| {
        doc.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("{name}: no {k}"))
    };
    let runs = set.entry(workload.to_string()).or_default();
    runs.files += 1;
    runs.attempted += count("attempted")?;
    runs.failed += count("failed")?;
    let seed = count("seed")?;
    let hash = doc.get("ops_hash").and_then(Value::as_str).unwrap_or("");
    runs.hashes.push((seed, hash.to_string()));
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err(format!("{name}: no metrics"));
    };
    for (metric, entry) in metrics {
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .ok_or(format!("{name}: {metric} has no value"))?;
        runs.values.entry(metric.clone()).or_default().push(value);
    }
    Ok(())
}

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        add_result(&mut set, &path.display().to_string(), &text)?;
    }
    for (workload, runs) in &set {
        if runs.files < MIN_RUNS {
            return Err(format!(
                "{}: {workload} has {} untraced result files, need at least {MIN_RUNS}",
                dir.display(),
                runs.files
            ));
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Same,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change of B's median against A's (the base), positive when
/// B is worse, and what that makes the cell.
fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let signed = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = if spec.lower_is_better {
        signed
    } else {
        -signed
    };
    let noise = spread(a).max(spread(b));
    let verdict = if noise > spec.bound {
        Verdict::Unresolved
    } else if worse > spec.bound {
        Verdict::Regressed
    } else if -worse > noise {
        Verdict::Improved
    } else {
        Verdict::Same
    };
    (worse, verdict)
}

/// Prints the comparison; returns whether anything regressed.
fn compare(specs: &[MetricSpec], a: &Set, b: &Set) -> Result<bool, String> {
    let mut bad = false;
    for (workload, runs_a) in a {
        let runs_b = b
            .get(workload)
            .ok_or(format!("set B has no runs of {workload}"))?;
        println!(
            "== {workload}: {} runs vs {} runs ==",
            runs_a.files, runs_b.files
        );
        println!(
            "  {:<24} {:>12} {:>25} {:>12} {:>25} {:>9}  verdict",
            "metric", "median A", "quartiles A", "median B", "quartiles B", "B worse by"
        );
        for spec in specs {
            let (Some(va), Some(vb)) =
                (runs_a.values.get(&spec.name), runs_b.values.get(&spec.name))
            else {
                return Err(format!("{workload}: {} missing from a set", spec.name));
            };
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let (worse, verdict) = judge(spec, va, vb);
            bad |= verdict == Verdict::Regressed;
            println!(
                "  {:<24} {:>12.4} [{:>11.4},{:>11.4}] {:>12.4} [{:>11.4},{:>11.4}] {:>+8.2}%  {} (base {:.4} {}, bound {:.0}%)",
                spec.name,
                qa[1],
                qa[0],
                qa[2],
                qb[1],
                qb[0],
                qb[2],
                worse * 100.0,
                verdict.label(),
                qa[1],
                spec.unit,
                spec.bound * 100.0
            );
        }
        let rate = |r: &Runs| r.failed as f64 / r.attempted.max(1) as f64;
        println!(
            "  failed/attempted: A {}/{} · B {}/{}",
            runs_a.failed, runs_a.attempted, runs_b.failed, runs_b.attempted
        );
        if rate(runs_b) > rate(runs_a) {
            println!("  failed/attempted ROSE");
            bad = true;
        }
        // One seed, one op list, one hash: anything else is a changed
        // result, not a changed speed.
        let mut by_seed: BTreeMap<u64, &str> = BTreeMap::new();
        for (seed, hash) in runs_a.hashes.iter().chain(&runs_b.hashes) {
            if *by_seed.entry(*seed).or_insert(hash) != hash {
                println!("  ops_hash DIFFERS between runs of seed {seed}");
                bad = true;
            }
        }
    }
    Ok(bad)
}

pub fn main(set_a: &Path, set_b: &Path) -> ExitCode {
    let benchmark_json = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let outcome = std::fs::read_to_string(&benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))
        .and_then(|text| parse_specs(&text))
        .and_then(|specs| compare(&specs, &load_set(set_a)?, &load_set(set_b)?));
    match outcome {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(why) => {
            eprintln!("mdm-benchmark compare: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "us".into(),
            lower_is_better: lower,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&spec(true, 0.1), &a, &[100.5, 101.0, 100.0]).1,
            Verdict::Same
        );
        assert_eq!(
            judge(&spec(true, 0.1), &a, &[120.0, 121.0, 119.0]).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&spec(true, 0.1), &a, &[90.0, 91.0, 89.0]).1,
            Verdict::Improved
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            judge(&spec(false, 0.1), &a, &[120.0, 121.0, 119.0]).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(&spec(false, 0.1), &a, &[80.0, 81.0, 79.0]).1,
            Verdict::Regressed
        );
        // A set noisier than the bound resolves nothing.
        assert_eq!(
            judge(
                &spec(true, 0.1),
                &[100.0, 150.0, 60.0],
                &[120.0, 121.0, 119.0]
            )
            .1,
            Verdict::Unresolved
        );
        let (worse, _) = judge(&spec(true, 0.1), &a, &[110.0, 110.0, 110.0]);
        assert!((worse - 0.1).abs() < 1e-12);
    }

    fn doc(smoke: bool, trace: u8, value: f64) -> String {
        format!(
            "{{\"workload\": \"wire_browse\", \"seed\": 1, \"smoke\": {smoke}, \"trace\": {trace}, \
             \"attempted\": 10, \"failed\": 0, \"ops_hash\": \"ab\", \
             \"metrics\": {{\"latency_p50_us\": {{\"value\": {value}, \"unit\": \"us\"}}}}}}"
        )
    }

    #[test]
    fn sets_refuse_smoke_and_skip_traced_runs() {
        let mut set = Set::new();
        add_result(&mut set, "a", &doc(false, 0, 50.0)).unwrap();
        add_result(&mut set, "b", &doc(false, 1, 70.0)).unwrap();
        assert_eq!(set["wire_browse"].files, 1);
        assert_eq!(set["wire_browse"].values["latency_p50_us"], vec![50.0]);
        assert!(add_result(&mut set, "c", &doc(true, 0, 50.0)).is_err());
    }

    #[test]
    fn specs_come_from_benchmark_json() {
        let specs = parse_specs(
            "{\"end_to_end\": [{\"name\": \"setup_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.25}]}",
        )
        .unwrap();
        assert_eq!(
            specs,
            vec![MetricSpec {
                name: "setup_s".into(),
                unit: "s".into(),
                lower_is_better: true,
                bound: 0.25,
            }]
        );
    }
}
