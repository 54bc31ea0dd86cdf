//! # mdm-lang
//!
//! The data languages of the music data manager:
//!
//! * the **DDL** of §5.4 — `define entity`, `define relationship`, and
//!   `define ordering [name] (CHILD, …) [under PARENT]`;
//! * **QUEL** (`range of`, `retrieve`, `append to`, `replace`, `delete`)
//!   extended per §5.6 with the entity operators `is` (from GEM) and the
//!   hierarchical-ordering operators `before`, `after`, and
//!   `under … [in order_name]`.
//!
//! Execution is INGRES-style tuple calculus: range variables (explicit or
//! implicit — a variable named like its type, footnote 6) range over
//! instances, bound by one nested loop whose ordering clauses navigate
//! from a bound variable to its peers' candidates; qualifications filter
//! the bindings, which come back in the order of the cross product.
//!
//! ```
//! use mdm_lang::{Session, StmtResult};
//! use mdm_model::Database;
//!
//! let mut db = Database::new();
//! let mut session = Session::new();
//! session.execute(&mut db, r#"
//!     define entity CHORD (name = integer)
//!     define entity NOTE (name = integer, pitch = string)
//!     define ordering note_in_chord (NOTE) under CHORD
//!     append to NOTE (name = 1, pitch = "C4")
//! "#).unwrap();
//! let results = session.execute(&mut db, r#"
//!     range of n is NOTE
//!     retrieve (n.pitch) where n.name = 1
//! "#).unwrap();
//! let StmtResult::Rows(table) = &results[1] else { panic!() };
//! assert_eq!(table.len(), 1);
//! ```

pub mod ast;
pub mod error;
pub mod exec;
pub mod fingerprint;
pub mod lexer;
pub mod parser;

pub use ast::{BinOp, Expr, OrdOp, Stmt, Target};
pub use error::{LangError, Result};
pub use exec::{
    PlanExplain, QuelMetrics, RangeTarget, Session, StmtResult, Table, VarPlan, VirtualEntity,
};
pub use fingerprint::fingerprint;
pub use parser::{parse, parse_tokens};
