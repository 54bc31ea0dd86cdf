//! The replication pair sweep: kill the primary at every explored I/O
//! boundary, promote the replica, verify the survivor against the
//! ledger oracle. Debug builds run a strided sweep; `--release` (CI's
//! `cargo test --release -p mdm-repl` step) can afford more.

use mdm_obs::Registry;
use mdm_repl::pair_crash_sweep;
use mdm_storage::TortureConfig;

#[test]
fn promoted_replicas_survive_primary_crashes_at_every_explored_boundary() {
    let scratch = std::env::temp_dir().join(format!("mdm-pair-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let cfg = TortureConfig {
        rounds: 36,
        pool_pages: 16,
        stride: 11,
        torn_writes: false,
    };
    let registry = Registry::new();
    let report = pair_crash_sweep(&scratch, &cfg, &registry);
    println!(
        "census: {} boundaries ({} writes, {} syncs), {} crash points, {} violations",
        report.boundaries,
        report.writes,
        report.syncs,
        report.crash_points,
        report.violations.len()
    );

    assert!(
        report.boundaries > 100,
        "workload exposed only {} boundaries",
        report.boundaries
    );
    assert!(
        report.crash_points >= 10,
        "explored only {} crash points",
        report.crash_points
    );
    assert!(
        report.violations.is_empty(),
        "promoted replicas violated the oracle:\n{}",
        report.violations.join("\n")
    );
    assert_eq!(
        registry.snapshot().counter("mdm_repl_pair_points_total"),
        Some(report.crash_points),
        "sweep metrics published"
    );

    let _ = std::fs::remove_dir_all(&scratch);
}
