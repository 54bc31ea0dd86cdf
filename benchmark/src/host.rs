//! What the benchmark reads off the host: process CPU time and memory
//! high-water mark from `/proc/self`, and the probes (`host.*`) that
//! say how fast and how busy the box was while the numbers were taken.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ`
/// is 100 on every Linux ABI the workspace builds for.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of this process, every thread it ever had,
/// from `/proc/self/stat`. It counts in 10 ms ticks: a thousandth of a
/// ten-second phase.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / CLK_TCK
}

fn status_kib(key: &str) -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Current resident set size (`VmRSS`), bytes.
pub fn rss_bytes() -> f64 {
    status_kib("VmRSS:") * 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// Milliseconds a fixed integer spin loop takes: the same work on every
/// run, so a change in it is the machine, not the program.
pub fn spin_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x.rotate_left(5) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Median microseconds of a 4 KiB write + `sync_all` in `dir`: what one
/// durable commit costs on this file system before the engine adds
/// anything.
pub fn fsync_p50_us(dir: &Path, rounds: usize) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut file) = fs::File::create(&path) else {
        return 0.0;
    };
    let block = [0xA5u8; 4096];
    let mut micros = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let started = Instant::now();
        if file
            .write_all(&block)
            .and_then(|()| file.sync_all())
            .is_err()
        {
            break;
        }
        micros.push(started.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    fs::remove_file(&path).ok();
    if micros.is_empty() {
        0.0
    } else {
        crate::stats::median(&micros)
    }
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
