//! From a phase's raw samples to the numbers reported.
//!
//! One rule for every workload. The measured phase's completed ops, in
//! completion order over all clients, are cut into [`SEGMENTS`] runs of
//! equal op count, each a whole number of `unit`s: one op for the
//! two-client workloads, one cycle for bulk ingest, whose cycles each end
//! in a `save` as long as the rest of the cycle together. Throughput is
//! the *median* segment's rate — what the system sustains: a stall a
//! segment long costs one rank, and a lucky stretch buys nothing.
//! CPU per op is the whole phase's. Latency is the median over the
//! phase's reads and the median over its writes, weighted by their
//! shares of the ops: on the workloads that only read or only write, the
//! plain median over every op. On `wire_edit` the plain median is the
//! 71st percentile of the reads — just where the reads that met no write
//! end and the ones that queued behind the other client's fsync begin —
//! and a shift of one percentile there moves it by a twentieth; each
//! class's own median sits inside that class's mode.

use super::Sample;
use crate::stats;

/// Segments the measured phase is cut into.
pub const SEGMENTS: usize = 5;

/// Rates of the phase's segments, ops/s, in time order. `done_ns` holds
/// every completion time of the phase, sorted; a segment runs from the
/// last completion of the one before it (`start_ns` for the first). A
/// phase of fewer than `SEGMENTS` units gets one segment per unit; ops
/// past the last whole segment are left out.
pub fn segment_rates(done_ns: &[u64], start_ns: u64, unit: usize) -> Vec<f64> {
    let per_segment = (done_ns.len() / unit / SEGMENTS).max(1) * unit;
    let mut from_ns = start_ns;
    done_ns
        .chunks_exact(per_segment)
        .map(|chunk| {
            let to_ns = chunk[chunk.len() - 1];
            let seconds = to_ns.saturating_sub(from_ns).max(1) as f64 / 1e9;
            from_ns = to_ns;
            chunk.len() as f64 / seconds
        })
        .collect()
}

fn p50_us(mut latencies: Vec<u64>) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    stats::percentile_sorted(&latencies, 50.0) as f64 / 1e3
}

/// Client-side numbers of one phase.
#[derive(Debug, Clone, Default)]
pub struct ClientNumbers {
    /// Ops completed in the phase; each is one latency sample.
    pub completed: usize,
    /// The median segment's rate.
    pub throughput_ops_s: f64,
    /// (Fastest − slowest segment rate) / median: how rough the ride was.
    pub segment_spread: f64,
    /// Read and write medians weighted by their shares of the ops.
    pub latency_p50_us: f64,
    /// Process CPU over the phase per completed op.
    pub cpu_us_per_op: f64,
    pub tail_percentile: f64,
    /// The tail percentile over every op of the phase.
    pub latency_tail_us: f64,
    pub read_p50_us: f64,
    pub write_p50_us: f64,
    /// The segment rates throughput was read off, in time order.
    pub rates: Vec<f64>,
    /// Seconds each `save()` issued inside the phase took (bulk ingest
    /// closes every cycle with one).
    pub save_seconds: Vec<f64>,
}

/// Numbers of a phase from each client's samples, the phase's start and
/// the process CPU seconds it used.
pub fn client_numbers(
    clients: &[&[Sample]],
    start_ns: u64,
    cpu_seconds: f64,
    unit: usize,
) -> ClientNumbers {
    let all: Vec<&Sample> = clients.iter().flat_map(|c| c.iter()).collect();
    let mut numbers = ClientNumbers {
        completed: all.len(),
        ..ClientNumbers::default()
    };
    if all.is_empty() {
        return numbers;
    }
    let mut done: Vec<u64> = all.iter().map(|s| s.done_ns).collect();
    done.sort_unstable();
    numbers.rates = segment_rates(&done, start_ns, unit);
    numbers.throughput_ops_s = stats::median(&numbers.rates);
    let fastest = numbers.rates.iter().copied().fold(0.0, f64::max);
    let slowest = numbers.rates.iter().copied().fold(f64::INFINITY, f64::min);
    numbers.segment_spread = (fastest - slowest) / numbers.throughput_ops_s;
    numbers.cpu_us_per_op = cpu_seconds * 1e6 / all.len() as f64;

    let mut latencies: Vec<u64> = all.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    numbers.tail_percentile = stats::highest_supported_percentile(latencies.len()).min(99.0);
    numbers.latency_tail_us =
        stats::percentile_sorted(&latencies, numbers.tail_percentile) as f64 / 1e3;
    let of = |write: bool| -> Vec<u64> {
        all.iter()
            .filter(|s| s.write == write)
            .map(|s| s.latency_ns)
            .collect()
    };
    numbers.save_seconds = clients
        .iter()
        .flat_map(|c| c.iter())
        .filter(|s| s.save)
        .map(|s| s.latency_ns as f64 / 1e9)
        .collect();
    let (reads, writes) = (of(false), of(true));
    let write_share = writes.len() as f64 / all.len() as f64;
    numbers.read_p50_us = p50_us(reads);
    numbers.write_p50_us = p50_us(writes);
    numbers.latency_p50_us =
        (1.0 - write_share) * numbers.read_p50_us + write_share * numbers.write_p50_us;
    numbers
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One op every `gap_ns` for `ms` milliseconds from `*t`.
    fn stretch(samples: &mut Vec<Sample>, t: &mut u64, ms: u64, gap_ns: u64) {
        let until = *t + ms * 1_000_000;
        while *t + gap_ns <= until {
            *t += gap_ns;
            samples.push(Sample {
                done_ns: *t,
                latency_ns: gap_ns,
                write: samples.len() % 2 == 1,
                save: false,
            });
        }
    }

    #[test]
    fn throughput_is_the_median_segment() {
        // 1 000 ops at one a millisecond, then 1 000 at one every three:
        // five segments of 400 ops take 0.4, 0.4, 0.8, 1.2 and 1.2 s.
        let (mut samples, mut t) = (Vec::new(), 0);
        stretch(&mut samples, &mut t, 1000, 1_000_000);
        stretch(&mut samples, &mut t, 3000, 3_000_000);
        let n = client_numbers(&[&samples], 0, 0.5, 1);
        assert_eq!(n.completed, 2000);
        assert_eq!(n.rates.len(), SEGMENTS);
        assert!((n.rates[0] - 1000.0).abs() < 1e-6);
        assert!((n.throughput_ops_s - 500.0).abs() < 1e-6);
        assert!((n.segment_spread - (1000.0 - 1000.0 / 3.0) / 500.0).abs() < 1e-6);
        assert!((n.cpu_us_per_op - 250.0).abs() < 1e-9);
        // Reads and writes alternate through both halves: each class has
        // a median of a millisecond.
        assert_eq!(n.latency_p50_us, 1000.0);
        assert_eq!(n.tail_percentile, 99.0);
        assert_eq!(n.latency_tail_us, 3000.0);
    }

    #[test]
    fn one_lucky_stretch_buys_nothing() {
        // Four seconds at an op a millisecond with 300 ms at twice the
        // speed in the middle: one segment is faster, the median is not.
        let (mut samples, mut t) = (Vec::new(), 0);
        stretch(&mut samples, &mut t, 2000, 1_000_000);
        stretch(&mut samples, &mut t, 300, 500_000);
        stretch(&mut samples, &mut t, 2000, 1_000_000);
        let n = client_numbers(&[&samples], 0, 0.0, 1);
        assert!((n.throughput_ops_s - 1000.0).abs() < 1.0, "{:?}", n.rates);
    }

    #[test]
    fn two_clients_are_cut_together() {
        // Client a completes on even milliseconds, b on odd ones.
        let client = |offset: u64, write: bool| -> Vec<Sample> {
            (0..500u64)
                .map(|i| Sample {
                    done_ns: (2 * i + offset + 1) * 1_000_000,
                    latency_ns: if write { 900_000 } else { 100_000 },
                    write,
                    save: false,
                })
                .collect()
        };
        let (a, b) = (client(0, false), client(1, true));
        let n = client_numbers(&[&a, &b], 0, 1.0, 1);
        assert_eq!(n.rates.len(), SEGMENTS);
        assert!(n.rates.iter().all(|r| (r - 1000.0).abs() < 1e-6));
        assert_eq!(n.segment_spread, 0.0);
        assert_eq!(n.read_p50_us, 100.0);
        assert_eq!(n.write_p50_us, 900.0);
        // Half the ops are reads, half writes.
        assert_eq!(n.latency_p50_us, 500.0);
    }

    #[test]
    fn segments_keep_units_whole() {
        // Three ops a cycle; seven cycles of 30 ms, the third 60 ms: one
        // segment per cycle, none split.
        let mut done = Vec::new();
        let mut t = 0u64;
        for cycle_ms in [30u64, 30, 60, 30, 30, 30, 30] {
            for _ in 0..3 {
                t += cycle_ms * 1_000_000 / 3;
                done.push(t);
            }
        }
        let rates = segment_rates(&done, 0, 3);
        assert_eq!(rates.len(), 7);
        assert!((rates[2] - 50.0).abs() < 1e-6);
        assert!((stats::median(&rates) - 100.0).abs() < 1e-6);
        // Eleven cycles make five segments of two; the last is left out.
        let done: Vec<u64> = (1..=33u64).map(|i| i * 10_000_000).collect();
        assert_eq!(segment_rates(&done, 0, 3).len(), SEGMENTS);
        // A phase too short for one op per segment still has a rate.
        assert_eq!(segment_rates(&[5_000_000, 10_000_000], 0, 1).len(), 2);
    }
}
