//! An interactive QUEL shell for the music data manager — embedded,
//! client, or server.
//!
//! ```text
//! cargo run -p mdm-net --bin mdm-shell -- /path/to/database
//! cargo run -p mdm-net --bin mdm-shell -- --serve 127.0.0.1:7777 /path/to/database
//! ```
//!
//! Each input line is a DDL/QUEL program; `\` at end of line continues
//! onto the next. Dot-commands:
//!
//! ```text
//! .help               this text
//! .schema             entity types, relationships, orderings
//! .census             the fig. 11 entity census with instance counts
//! .scores             stored scores
//! .save               persist the database through the storage engine
//! .quit               exit (saving)
//! \connect host:port  route programs to a remote MDM server
//! \disconnect         back to the local embedded database
//! \replica status     replication role, LSN watermarks, lag/replicas,
//!                     then the series they come from, as of the
//!                     monitor's latest sample (remote server's when
//!                     connected)
//! \stats [prefix]     the $metrics entity: every series' value, rate,
//!                     histogram sum and quantiles as of the monitor's
//!                     latest sample, optionally only names starting
//!                     with prefix (remote server's when connected)
//! \stats delta [prefix]
//!                     $metrics values that moved since the previous
//!                     \stats delta — the first call captures the baseline
//! \stats json|prom [prefix]
//!                     the embedded registry as JSON / Prometheus text;
//!                     a connected server exports these over HTTP
//!                     (GET /metrics), not over the wire
//! \health             the $alerts entity plus the verdict its rows add
//!                     up to (remote server's when connected)
//! \watch METRIC [interval_ms] [ticks]
//!                     follow one metric family in $metrics: value and
//!                     rate per tick (default 1000 ms, 10 ticks)
//! \top [n]            the $statements entity, hottest by total time
//!                     first (remote server's when connected)
//! \plan QUERY         EXPLAIN a read-only query: access paths chosen
//!                     by the planner plus the rows
//! \trace on|off       enable/disable request tracing
//! \trace last [n]     print the n most recent span trees
//! \trace slow [t_us]  print the slow ring, or set its threshold
//! \trace export FILE  write Chrome trace-event JSON (chrome://tracing)
//! ```
//!
//! With `--serve <addr> <dir> [--http-port <port>]` the shell becomes
//! the server: it serves the database at `<dir>` on `<addr>` until EOF
//! or a `quit` line on stdin, then drains connections and saves. With
//! `--http-port` it also serves the HTTP observability endpoint
//! (`/metrics`, `/healthz`, `/statusz`, `/tracez`) on that port.

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::time::Duration;

use mdm_core::MusicDataManager;
use mdm_lang::{StmtResult, Table};
use mdm_model::Value;
use mdm_net::{introspect, ClientConfig, MdmClient, MdmServer, ServerConfig, TraceOp};
use mdm_obs::chrome_trace_json;

/// Runs one read-only QUEL text where the shell currently points: the
/// connected server, or the embedded manager's shared read path. Every
/// system-state command (`\top`, `\stats`, `\watch`, `\health`,
/// `\replica status`) goes through here and nowhere else, so embedded
/// and `\connect` output are the same code.
fn system_query(
    remote: &mut Option<MdmClient>,
    mdm: &MusicDataManager,
    text: &str,
) -> Result<Table, String> {
    match remote {
        Some(c) => c.query(text).map_err(|e| e.to_string()),
        None => mdm.query_shared(text).map_err(|e| e.to_string()),
    }
}

fn float(v: &Value) -> f64 {
    v.as_float().unwrap_or(0.0)
}

/// `\watch METRIC [interval_ms] [ticks]`: polls `$metrics` and prints
/// the family's value and per-second rate each tick. The rate is the
/// monitor's, over its last sampling window.
fn run_watch_command(
    args: &[&str],
    remote: &mut Option<MdmClient>,
    mdm: &MusicDataManager,
) -> Result<(), String> {
    const USAGE: &str = "usage: \\watch METRIC [interval_ms] [ticks]";
    let (metric, rest) = args.split_first().ok_or(USAGE)?;
    let interval_ms: u64 = match rest.first() {
        Some(s) => s.parse().map_err(|_| USAGE.to_string())?,
        None => 1000,
    };
    let ticks: u32 = match rest.get(1) {
        Some(s) => s.parse().map_err(|_| USAGE.to_string())?,
        None => 10,
    };
    if rest.len() > 2 {
        return Err(USAGE.into());
    }
    let text = introspect::watch(metric);
    for tick in 0..ticks {
        let t = system_query(remote, mdm, &text)?;
        match t.rows.first().map(Vec::as_slice) {
            Some([value, rate, series]) if float(series) > 0.0 => {
                println!("{metric} = {}  ({:+.2}/s)", float(value), float(rate))
            }
            _ => return Err(format!("no metric named '{metric}'")),
        }
        if tick + 1 < ticks {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
    }
    Ok(())
}

/// `\stats delta [prefix]`: `\stats`, keeping only the series whose
/// value moved since the previous call and saying by how much; this
/// call's values become the next baseline.
fn run_stats_delta(
    prefix: &str,
    baseline: &mut Option<HashMap<String, f64>>,
    remote: &mut Option<MdmClient>,
    mdm: &MusicDataManager,
) -> Result<(), String> {
    let mut t = system_query(remote, mdm, &introspect::stats(prefix))?;
    let values = t.rows.iter().map(|r| (r[0].to_string(), float(&r[1])));
    let Some(before) = baseline.replace(values.collect()) else {
        println!("baseline captured; \\stats delta again for changes since now");
        return Ok(());
    };
    t.columns.push("delta".into());
    t.rows.retain_mut(|r| {
        let delta = float(&r[1]) - before.get(&r[0].to_string()).copied().unwrap_or(0.0);
        r.push(Value::Float(delta));
        delta != 0.0
    });
    print!("{t}");
    Ok(())
}

/// `\trace on|off|last [n]|slow [threshold_us]|export <file>` against
/// either the remote server's tracer (when connected) or the local one.
fn run_trace_command(
    args: &[&str],
    remote: &mut Option<MdmClient>,
    mdm: &MusicDataManager,
) -> Result<(), String> {
    const USAGE: &str = "usage: \\trace on|off|last [n]|slow [threshold_us]|export <file>";
    let fetch = |remote: &mut Option<MdmClient>, slow: bool, n: u32| match remote {
        Some(c) => c.trace_fetch(slow, n).map_err(|e| e.to_string()),
        None => {
            let traces = if slow {
                mdm.tracer().slow(n as usize)
            } else {
                mdm.tracer().recent(n as usize)
            };
            let text: String = traces.iter().map(|t| t.to_text()).collect();
            Ok((text, chrome_trace_json(&traces)))
        }
    };
    match args {
        ["on"] => {
            // Interactive tracing wants every request, not 1-in-N.
            match remote {
                Some(c) => c
                    .trace_control(TraceOp::Enable { sample_every: 1 })
                    .map_err(|e| e.to_string())?,
                None => {
                    mdm.tracer().set_sample_every(1);
                    mdm.tracer().set_enabled(true);
                }
            }
            println!("tracing on (sampling every request)");
        }
        ["off"] => {
            match remote {
                Some(c) => c
                    .trace_control(TraceOp::Disable)
                    .map_err(|e| e.to_string())?,
                None => mdm.tracer().set_enabled(false),
            }
            println!("tracing off");
        }
        ["last"] | ["last", _] => {
            let n = match args.get(1) {
                Some(s) => s.parse::<u32>().map_err(|_| USAGE.to_string())?,
                None => 1,
            };
            let (text, _) = fetch(remote, false, n)?;
            if text.is_empty() {
                println!("no completed traces");
            } else {
                print!("{text}");
            }
        }
        ["slow"] => {
            let (text, _) = fetch(remote, true, 16)?;
            if text.is_empty() {
                println!("no slow traces captured");
            } else {
                print!("{text}");
            }
        }
        ["slow", threshold] => {
            let micros = threshold.parse::<u64>().map_err(|_| USAGE.to_string())?;
            match remote {
                Some(c) => c
                    .trace_control(TraceOp::SlowThreshold { micros })
                    .map_err(|e| e.to_string())?,
                None => mdm.tracer().set_slow_threshold_us(micros),
            }
            println!("slow-trace threshold set to {micros}µs");
        }
        ["export", file] => {
            let (_, chrome) = fetch(remote, false, u32::MAX)?;
            std::fs::write(file, &chrome).map_err(|e| format!("cannot write {file}: {e}"))?;
            println!("wrote Chrome trace-event JSON to {file} (load via chrome://tracing)");
        }
        _ => return Err(USAGE.into()),
    }
    Ok(())
}

fn print_results(results: Vec<StmtResult>) {
    for r in results {
        match r {
            StmtResult::Rows(t) => print!("{t}"),
            StmtResult::Defined(what) => println!("defined {what}"),
            StmtResult::RangeDeclared => println!("range declared"),
            StmtResult::Appended(n) => println!("appended {n}"),
            StmtResult::Replaced(n) => println!("replaced {n}"),
            StmtResult::Deleted(n) => println!("deleted {n}"),
        }
    }
}

/// `--serve <addr> <dir> [--http-port <port>]`: serve until EOF or a
/// `quit` line.
fn serve(addr: &str, dir: &std::path::Path, http_port: Option<u16>) -> i32 {
    let mdm = match MusicDataManager::open(dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot open database at {}: {e}", dir.display());
            return 1;
        }
    };
    let config = ServerConfig {
        // The endpoint binds the same interface as the QUEL listener.
        http_addr: http_port.map(|port| {
            let host = addr.rsplit_once(':').map(|(h, _)| h).unwrap_or("127.0.0.1");
            format!("{host}:{port}")
        }),
        ..ServerConfig::default()
    };
    let server = match MdmServer::start(mdm, addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot serve on {addr}: {e}");
            return 1;
        }
    };
    println!("serving {} on {}", dir.display(), server.local_addr());
    if let Some(http) = server.http_addr() {
        println!("observability endpoint on http://{http} (/metrics /healthz /statusz /tracez)");
    }
    println!("type 'quit' (or close stdin) to shut down");
    std::io::stdout().flush().ok();

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
    }
    match server.shutdown() {
        Ok(_) => {
            println!("server drained and database saved");
            0
        }
        Err(e) => {
            eprintln!("shutdown error: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--serve") {
        let (Some(addr), Some(dir)) = (args.get(1), args.get(2)) else {
            eprintln!("usage: mdm-shell --serve <addr> <dir> [--http-port <port>]");
            std::process::exit(2);
        };
        let http_port = match (args.get(3).map(String::as_str), args.get(4)) {
            (None, _) => None,
            (Some("--http-port"), Some(p)) => match p.parse::<u16>() {
                Ok(port) => Some(port),
                Err(_) => {
                    eprintln!("--http-port wants a port number, got '{p}'");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("usage: mdm-shell --serve <addr> <dir> [--http-port <port>]");
                std::process::exit(2);
            }
        };
        std::process::exit(serve(addr, std::path::Path::new(dir), http_port));
    }

    let dir = args
        .first()
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("mdm-shell-{}", std::process::id())));
    let mut mdm = match MusicDataManager::open(&dir) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot open database at {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    println!("music data manager — database at {}", dir.display());
    println!("QUEL with is/before/after/under; .help for commands");

    // When connected, programs and score/metrics commands route here.
    let mut remote: Option<MdmClient> = None;
    // The previous `\stats delta` readings (series → value); the next
    // call diffs against them. Dropped on \connect / \disconnect:
    // another node's numbers are no baseline.
    let mut stats_baseline: Option<HashMap<String, f64>> = None;

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        let prompt = match (&remote, buffer.is_empty()) {
            (_, false) => "...> ",
            (Some(_), true) => "mdm@remote> ",
            (None, true) => "mdm> ",
        };
        print!("{prompt}");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim_end();
        if let Some(prefix) = trimmed.strip_suffix('\\') {
            buffer.push_str(prefix);
            buffer.push('\n');
            continue;
        }
        buffer.push_str(trimmed);
        let program = std::mem::take(&mut buffer);
        let program = program.trim();
        if program.is_empty() {
            continue;
        }
        match program {
            ".quit" | ".exit" => break,
            ".help" => {
                println!(".help .schema .census .scores .save .quit");
                println!("\\connect host:port   route programs to a remote server");
                println!("\\disconnect          back to the local database");
                println!("\\replica status      replication role, watermarks, lag");
                println!("\\stats [prefix]       $metrics: value, rate, sum, p50, p99 per series");
                println!(
                    "\\stats delta [prefix] $metrics values moved since the previous \\stats delta"
                );
                println!("\\stats json|prom [prefix]   embedded registry export (a server: GET /metrics)");
                println!(
                    "\\health              $alerts plus the healthy verdict its rows add up to"
                );
                println!(
                    "\\watch METRIC [interval_ms] [ticks]   follow one metric family in $metrics"
                );
                println!("\\top [n]             $statements, hottest by total time first");
                println!("\\plan QUERY          EXPLAIN a read-only query (access paths + rows)");
                println!("\\trace on|off|last [n]|slow [t_us]|export <file>   request tracing");
                println!("anything else is DDL/QUEL, e.g.:");
                println!("  define entity C (name = string)");
                println!("  append to C (name = \"x\")");
                println!("  define index c_by_name on C (name)");
                println!("  range of n is NOTE");
                println!("  retrieve (n.midi_key) where n before m in note_in_chord");
                println!("  \\plan retrieve (n.midi_key) where n.midi_key = 70");
            }
            cmd if cmd.starts_with("\\connect") => {
                let Some(addr) = cmd
                    .strip_prefix("\\connect")
                    .map(str::trim)
                    .filter(|a| !a.is_empty())
                else {
                    eprintln!("usage: \\connect host:port");
                    continue;
                };
                match MdmClient::connect(addr, ClientConfig::default()) {
                    Ok(c) => {
                        println!("connected to {} ({})", addr, c.server_name());
                        remote = Some(c);
                        stats_baseline = None;
                    }
                    Err(e) => eprintln!("connect failed: {e}"),
                }
            }
            "\\replica status" => match system_query(&mut remote, &mdm, introspect::REPLICA_STATUS)
            {
                Ok(t) => {
                    print!("{}", introspect::replica_summary(&t));
                    print!("{t}");
                }
                Err(e) => eprintln!("error: {e}"),
            },
            "\\disconnect" => {
                if let Some(mut c) = remote.take() {
                    c.disconnect();
                    stats_baseline = None;
                    println!("back to the local database");
                } else {
                    eprintln!("not connected");
                }
            }
            ".census" => print!("{}", mdm.census()),
            ".schema" => {
                let schema = mdm.database().schema();
                for e in schema.entity_types() {
                    let attrs: Vec<String> = e
                        .attributes
                        .iter()
                        .map(|a| format!("{} = {}", a.name, a.ty.name()))
                        .collect();
                    println!("entity {} ({})", e.name, attrs.join(", "));
                }
                for r in schema.relationships() {
                    let roles: Vec<&str> = r.roles.iter().map(|x| x.name.as_str()).collect();
                    println!("relationship {} ({})", r.name, roles.join(", "));
                }
                for (i, o) in schema.orderings().iter().enumerate() {
                    let name = o.name.clone().unwrap_or_else(|| format!("#{i}"));
                    println!("ordering {name}");
                }
            }
            ".scores" => {
                let listed = match &mut remote {
                    Some(c) => c.list_scores().map_err(|e| e.to_string()),
                    None => mdm.list_scores().map_err(|e| e.to_string()),
                };
                match listed {
                    Ok(scores) => {
                        for (id, title) in scores {
                            println!("@{id}  {title}");
                        }
                    }
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            ".save" => match mdm.save() {
                Ok(()) => println!("saved"),
                Err(e) => eprintln!("error: {e}"),
            },
            cmd if cmd == "\\stats" || cmd.starts_with("\\stats ") => {
                let args: Vec<&str> = cmd["\\stats".len()..].split_whitespace().collect();
                let shown = match args.as_slice() {
                    ["delta"] | ["delta", _] => {
                        let prefix = args.get(1).copied().unwrap_or("");
                        run_stats_delta(prefix, &mut stats_baseline, &mut remote, &mdm)
                    }
                    // The registry's own export formats stay with the
                    // process that owns the registry: a server publishes
                    // them on its HTTP endpoint, not through the protocol.
                    [format @ ("json" | "prom")] | [format @ ("json" | "prom"), _] => {
                        if remote.is_some() {
                            Err(format!(
                                "\\stats {format} reads the embedded registry; \
                                 a server exports it at GET /metrics (--http-port)"
                            ))
                        } else {
                            let snap = mdm
                                .metrics_snapshot()
                                .filtered(args.get(1).copied().unwrap_or(""));
                            match *format {
                                "json" => println!("{}", snap.to_json()),
                                _ => print!("{}", snap.to_prometheus()),
                            }
                            Ok(())
                        }
                    }
                    [] | [_] => {
                        let prefix = args.first().copied().unwrap_or("");
                        system_query(&mut remote, &mdm, &introspect::stats(prefix))
                            .map(|t| print!("{t}"))
                    }
                    _ => {
                        Err("usage: \\stats [prefix] | delta [prefix] | json|prom [prefix]".into())
                    }
                };
                if let Err(e) = shown {
                    eprintln!("error: {e}");
                }
            }
            "\\health" => match system_query(&mut remote, &mdm, introspect::HEALTH) {
                Ok(t) => {
                    println!("healthy      {}", introspect::healthy(&t));
                    print!("{t}");
                }
                Err(e) => eprintln!("error: {e}"),
            },
            cmd if cmd == "\\watch" || cmd.starts_with("\\watch ") => {
                let args: Vec<&str> = cmd["\\watch".len()..].split_whitespace().collect();
                if let Err(e) = run_watch_command(&args, &mut remote, &mdm) {
                    eprintln!("{e}");
                }
            }
            cmd if cmd == "\\top" || cmd.starts_with("\\top ") => {
                let mut args = cmd["\\top".len()..].split_whitespace();
                let limit = match (args.next().map(str::parse::<usize>), args.next()) {
                    (None, _) => 10,
                    (Some(Ok(n)), None) => n,
                    _ => {
                        eprintln!("usage: \\top [n]");
                        continue;
                    }
                };
                match system_query(&mut remote, &mdm, introspect::TOP) {
                    Ok(t) if t.is_empty() => println!("no statements recorded"),
                    Ok(mut t) => {
                        t.rows.truncate(limit);
                        print!("{t}");
                    }
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            cmd if cmd == "\\plan" || cmd.starts_with("\\plan ") || cmd.starts_with("\\plan\n") => {
                let query = cmd["\\plan".len()..].trim();
                if query.is_empty() {
                    eprintln!("usage: \\plan <range of ...> <retrieve ...>");
                    continue;
                }
                // Remote explain runs in a fresh session, so the program
                // must carry its own range declarations; locally the
                // carried session's declarations apply too.
                let explained = match &mut remote {
                    Some(c) => c.explain(query).map_err(|e| e.to_string()),
                    None => mdm.explain(query).map_err(|e| e.to_string()),
                };
                match explained {
                    Ok((explain, table)) => {
                        println!("{explain}");
                        print!("{table}");
                    }
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            cmd if cmd == "\\trace" || cmd.starts_with("\\trace ") => {
                let args: Vec<&str> = cmd["\\trace".len()..].split_whitespace().collect();
                if let Err(e) = run_trace_command(&args, &mut remote, &mdm) {
                    eprintln!("{e}");
                }
            }
            _ => {
                let executed = match &mut remote {
                    Some(c) => c.execute(program).map_err(|e| e.to_string()),
                    None => {
                        // A local program records into the MDM's tracer
                        // when tracing is on (same spans a server would
                        // capture, minus the net.* layer).
                        let root = mdm.tracer().root_span("shell.execute", None);
                        let r = mdm.execute(program).map_err(|e| e.to_string());
                        drop(root);
                        r
                    }
                };
                match executed {
                    Ok(results) => print_results(results),
                    Err(e) => eprintln!("error: {e}"),
                }
            }
        }
    }
    if let Some(mut c) = remote.take() {
        c.disconnect();
    }
    if let Err(e) = mdm.save() {
        eprintln!("warning: final save failed: {e}");
    }
}
