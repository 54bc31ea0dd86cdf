//! The modelled device the three corpus workloads run on: real files,
//! real positioned reads and writes, and a `sync` that takes a fixed
//! time.
//!
//! *Why:* on the reference box a `sync` is an `fdatasync` on a shared
//! virtual disk whose completion has to wake a halted vCPU. Its latency
//! wanders by a quarter and more over tens of seconds with the host's other tenants.
//! `wire_edit` commits 1 600 times a second with the server's write lock
//! held across the sync, so every number of that workload wandered with
//! it: ten-seed spreads of 10–25 % whatever the length of the phase
//! (eight 60 s runs cut into pieces of 5 to 60 s spread the same at every
//! length: the noise is slower than any run). No estimator inside a run
//! averages that out, and a gate cannot hold a metric that loose.
//!
//! So the device answers in constant time. The engine's flush policy is
//! untouched: it decides when to sync (`storage.fsyncs_per_commit` is
//! still 1 on `wire_edit`), the write-ahead log and the checkpoints are
//! written to real files, and the sync is still paid under whatever lock
//! the caller holds, so commit batching or sharding shows as it would on
//! a disk. What a real sync costs on the box is reported per layer
//! (`host.fsync_p50_us`, `storage.fsync_p50_us`, measured on plain
//! files); that acknowledged writes survive a crash is the durability
//! probe's job; and `bulk_ingest_restart`, whose subject is the device,
//! runs on plain files with real syncs.
//!
//! The model charges a latency, not a volume: flushing a whole checkpoint
//! image costs what flushing one commit does. On the corpus workloads
//! that leaves out about a twentieth of a `save()`.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mdm_storage::{FileBackend, StorageBackend, Vfs};

/// What one `sync` takes: the reference box's own median for a small
/// write + `fdatasync` on an otherwise idle disk.
pub const SYNC: Duration = Duration::from_micros(150);

/// Opens every path as a plain file whose `sync` takes [`SYNC`].
pub struct SteadyVfs;

struct SteadyFile(FileBackend);

impl StorageBackend for SteadyFile {
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.0.read_at(buf, offset)
    }

    fn write_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        self.0.write_at(buf, offset)
    }

    /// Spins rather than sleeps: a sleep ends in the same wake-up of a
    /// halted vCPU that makes the real sync unsteady.
    fn sync(&self) -> io::Result<()> {
        let started = Instant::now();
        while started.elapsed() < SYNC {
            std::hint::spin_loop();
        }
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        self.0.len()
    }

    fn truncate(&self, len: u64) -> io::Result<()> {
        self.0.truncate(len)
    }
}

impl Vfs for SteadyVfs {
    fn open(&self, path: &Path) -> io::Result<Arc<dyn StorageBackend>> {
        Ok(Arc::new(SteadyFile(FileBackend::open(path)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_are_real_and_sync_takes_its_time() {
        let dir = std::env::temp_dir().join(format!("mdm-bench-device-{}", std::process::id()));
        let file = SteadyVfs.open(&dir.join("f.bin")).unwrap();
        file.write_at(b"score", 4).unwrap();
        assert_eq!(file.len().unwrap(), 9);
        assert_eq!(std::fs::read(dir.join("f.bin")).unwrap()[4..], *b"score");
        let started = Instant::now();
        file.sync().unwrap();
        assert!(started.elapsed() >= SYNC);
        file.truncate(4).unwrap();
        assert_eq!(file.len().unwrap(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
