//! # mdm-core
//!
//! The Music Data Manager (MDM) of Rubenstein's *A Database Design for
//! Musical Information* (SIGMOD 1987): a database back end for musical
//! applications, serving clients through a shared entity-relationship
//! database extended with hierarchical ordering.
//!
//! * [`mdm`] — the [`MusicDataManager`] facade: a durable ER database
//!   with the CMN schema installed, DDL/QUEL execution, score storage,
//!   and DARMS import/export.
//! * [`cmn_schema`] — the §7 database schema for common musical notation
//!   (the fig. 11 entities, the fig. 13 temporal hierarchy), written in
//!   the system's own DDL.
//! * [`score_store`] — decomposing notation scores into entities and
//!   reassembling them.
//! * [`clients`] — the four §2 client programs: score editor,
//!   compositional tool, score library, and music analysis.
//! * [`stream`] — the replication stream: committed transactions of
//!   image-row changes, or a seed, from a primary's durable log.
//!
//! ```
//! use mdm_core::MusicDataManager;
//! use mdm_notation::fixtures::bwv578_subject;
//!
//! let dir = std::env::temp_dir().join(format!("mdm-doc-core-{}", std::process::id()));
//! # std::fs::remove_dir_all(&dir).ok();
//! let mut mdm = MusicDataManager::open(&dir).unwrap();
//! let id = mdm.store_score(&bwv578_subject()).unwrap();
//!
//! // Any client can now query the same data through QUEL (§5.6):
//! let notes = mdm.query(
//!     "range of n is NOTE retrieve (n.midi_key) where n.step = \"G\"",
//! ).unwrap();
//! assert!(notes.len() > 0);
//! # drop(mdm); std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod clients;
pub mod cmn_schema;
pub mod error;
pub mod layout;
pub mod mdm;
pub mod score_store;
pub mod stream;

pub use clients::{Ambitus, Analyst, Composer, Library, ScoreEditor};
pub use error::{CoreError, Result};
pub use layout::{layout_score, store_orchestra, LayoutConfig, LayoutSummary};
pub use mdm::{MusicDataManager, WIRE_PROTOCOL_VERSION};
pub use score_store::{delete_score, find_score, list_scores, load_score, store_score};
