//! # mdm-bench
//!
//! The paper-reproduction tool: the `repro` binary that regenerates
//! every figure of the paper, and the relational baselines for the
//! §5.2 ordering study (`repro e1`; EXPERIMENTS.md, E1). Timings other
//! than E1 are taken by `mdm-benchmark` (`benchmark/README.md`).

pub mod baseline;
pub mod workload;

pub use baseline::{FloatKeyStore, ModeledOrderingStore, OrderedStore, PositionStore};
