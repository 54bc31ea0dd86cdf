//! # musicdb
//!
//! An umbrella crate re-exporting the complete Music Data Manager (MDM)
//! stack, a reproduction of W. Bradley Rubenstein's *A Database Design for
//! Musical Information* (SIGMOD 1987).
//!
//! The MDM is a database back end for musical applications. Its data model
//! is the entity-relationship model extended with *hierarchical ordering*
//! (ordered parent/child aggregations), queried through QUEL extended with
//! the `is`, `before`, `after`, and `under` operators.
//!
//! ## Layers
//!
//! * [`storage`] — page-based storage engine: buffer pool, heap files,
//!   write-ahead logging, recovery, and the one-writer gate.
//! * [`model`] — the ER + hierarchical-ordering data model, instance
//!   graphs, the meta-schema, and graphical definitions.
//! * [`lang`] — the DDL (`define entity` / `define relationship` /
//!   `define ordering`) and the QUEL query language with ordering operators.
//! * [`notation`] — common musical notation (CMN): pitches, durations,
//!   clefs, key signatures, scores, syncs, beams, and the temporal model.
//! * [`darms`] — the DARMS score-encoding language: parser, canonizer,
//!   and emitter.
//! * [`sound`] — sound representations: PCM, synthesis, MIDI event lists,
//!   audio codecs, and piano-roll rendering.
//! * [`biblio`] — bibliographic data: thematic indexes and incipit search.
//! * [`mdm`] — the Music Data Manager facade tying everything together,
//!   including the built-in CMN schema and the client APIs.
//!
//! ## Quickstart
//!
//! ```
//! use musicdb::mdm::MusicDataManager;
//!
//! let dir = std::env::temp_dir().join(format!("musicdb-doc-{}", std::process::id()));
//! let mut mdm = MusicDataManager::open(&dir).unwrap();
//! mdm.execute(
//!     "define entity COMPOSITION (title = string, year = integer)",
//! ).unwrap();
//! mdm.execute(
//!     "append to COMPOSITION (title = \"Fuge g-moll\", year = 1709)",
//! ).unwrap();
//! let rows = mdm.query(
//!     "range of c is COMPOSITION retrieve (c.title) where c.year < 1800",
//! ).unwrap();
//! assert_eq!(rows.len(), 1);
//! # drop(mdm); std::fs::remove_dir_all(&dir).ok();
//! ```

pub use mdm_biblio as biblio;
pub use mdm_core as mdm;
pub use mdm_darms as darms;
pub use mdm_lang as lang;
pub use mdm_model as model;
pub use mdm_notation as notation;
pub use mdm_sound as sound;
pub use mdm_storage as storage;
