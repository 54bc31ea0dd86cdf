//! `mdm-benchmark`: the MDM's one yardstick.
//!
//! ```text
//! mdm-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!               [--scale <f>] [--save-to <dir>]
//! mdm-benchmark compare <setA-dir> <setB-dir>
//! ```
//!
//! A run prints every metric by name with its unit, checks that the
//! program's outputs are correct, and ends with one JSON line. See
//! `README.md` beside this package for what each number means.

mod compare;
mod device;
mod gen;
mod host;
mod ops;
mod probe;
mod report;
mod rng;
mod run;
mod shadow;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{RunConfig, Workload};

/// Parsed command line of a run.
struct Args {
    /// `None` runs all four, one child process each.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    save_to: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: mdm-benchmark --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--scale <f>] [--save-to <dir>]\n       mdm-benchmark compare <setA-dir> <setB-dir>",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        save_to: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workload = None,
            "--workload" => {
                parsed.workload = Some(Workload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                parsed.scale = value.parse().map_err(|_| bad())?;
                if !(parsed.scale > 0.0 && parsed.scale <= 4.0) {
                    return Err(bad());
                }
            }
            "--save-to" => parsed.save_to = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

/// `benchmark/out`, beside the package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        dir: out_dir().join(format!("{}-{}", workload.name(), std::process::id())),
    };
    let result = match run::run(&cfg) {
        Ok(result) => result,
        Err(why) => {
            eprintln!("mdm-benchmark: {}: {why}", workload.name());
            return ExitCode::from(2);
        }
    };
    if !result.correct {
        // A wrong run prints no metrics: its numbers mean nothing.
        eprintln!(
            "mdm-benchmark: {}: outputs are NOT correct ({} of {} ops failed)",
            workload.name(),
            result.failed,
            result.attempted
        );
        for e in &result.errors {
            eprintln!("  {e}");
        }
        return ExitCode::from(1);
    }
    print!("{}", report::human(&result));
    if let Some(dir) = &args.save_to {
        if let Err(why) = report::save(&result, dir) {
            eprintln!("mdm-benchmark: {why}");
            return ExitCode::from(2);
        }
    }
    println!("{}", report::final_line(&result));
    ExitCode::SUCCESS
}

/// Every workload, untraced then traced, each in a child process of its
/// own — one at a time, so `peak_rss_mb` is per workload and the load
/// still comes from a single process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("mdm-benchmark: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--scale", &args.scale.to_string()]);
            if let Some(dir) = &args.save_to {
                child.arg("--save-to").arg(dir);
            }
            // `status` waits for the child to end.
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => {
                    eprintln!(
                        "mdm-benchmark: {} --trace {trace}: {status}",
                        workload.name()
                    );
                    worst = ExitCode::from(1);
                }
                Err(e) => {
                    eprintln!("mdm-benchmark: cannot start {}: {e}", workload.name());
                    worst = ExitCode::from(2);
                }
            }
        }
    }
    worst
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::main(PathBuf::from(a).as_path(), PathBuf::from(b).as_path()),
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    // What `reopen_s` times: a restarted process opening the directory.
    if let [cmd, workload, dir] = args.as_slice() {
        if cmd == "reopen" {
            return run::reopen_child(workload, PathBuf::from(dir).as_path());
        }
    }
    let parsed = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(why) => {
            eprintln!("mdm-benchmark: {why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match parsed.workload {
        Some(workload) => run_one(&parsed, workload),
        None => run_all(&parsed),
    }
}
