//! How a run is printed and saved.

use std::fmt::Write as _;
use std::path::Path;

use crate::probe::Metric;
use crate::run::RunResult;

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, every value with all its digits.
pub fn final_line(r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(&r.metrics)
    )
}

/// Whether the run was scaled down: its numbers then say nothing about
/// performance and `compare` refuses them.
pub fn is_smoke(r: &RunResult) -> bool {
    r.scale != 1.0
}

/// The full result document `compare` reads.
pub fn document(r: &RunResult) -> String {
    format!(
        "{{\"benchmark\": \"mdm-benchmark\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"scale\": {}, \"smoke\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"ops_hash\": \"{:016x}\", \"metrics\": {}}}\n",
        r.workload.name(),
        r.seed,
        r.seconds,
        r.scale,
        is_smoke(r),
        r.trace as u8,
        r.correct,
        r.attempted,
        r.failed,
        r.ops_hash,
        metrics_json(&r.metrics)
    )
}

/// Writes the result document into `dir` under a name no other run of
/// this process tree takes.
pub fn save(r: &RunResult, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-trace{}-seed{}-{}.json",
        r.workload.name(),
        r.trace as u8,
        r.seed,
        std::process::id()
    ));
    std::fs::write(&path, document(r)).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every metric by name with its unit, and the context around them.
pub fn human(r: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} · seed {} · {} s · trace {} · scale {}{} ==",
        r.workload.name(),
        r.seed,
        r.seconds,
        r.trace as u8,
        r.scale,
        if is_smoke(r) {
            " · SMOKE (not a measurement)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "correct {} · attempted {} · failed {} · ops_hash {:016x}",
        r.correct, r.attempted, r.failed, r.ops_hash
    );
    for m in &r.metrics {
        let _ = writeln!(out, "  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &r.notes {
        let _ = writeln!(out, "  # {note}");
    }
    out
}
