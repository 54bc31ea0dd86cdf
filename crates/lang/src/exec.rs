//! Statement execution: tuple-calculus evaluation over the instance store.
//!
//! QUEL statements are evaluated INGRES-style: every range variable used by
//! a statement ranges over the instances of its entity (or relationship)
//! type, the variables are bound by one nested loop, the qualification's
//! conjuncts prune it, and targets/assignments are evaluated per surviving
//! binding. As in GEM and later INGRES versions, a range variable named
//! exactly like an entity or relationship type is implicitly declared
//! (paper, footnote 6).
//!
//! A small cost-aware planner shapes the loop (see `Plan::order_join`):
//! equality and inequality conjuncts over indexed attributes become index
//! probes and index range scans, a variable that a `before` / `after` /
//! `under` clause connects to a peer bound further out reads its
//! candidates straight out of the ordering at each of the peer's
//! bindings, and a scanned variable's `attr OP constant` conjuncts are
//! decided in one pass over its domain (see `Plan::select`).
//! Rows come back in one canonical order whatever the loop order. The
//! resulting access paths are reported through [`PlanExplain`] (the
//! `\plan` EXPLAIN output).

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Instant;

use mdm_model::encode::encode_value;
use mdm_model::{Database, EntityId, EntityTypeDef, OrderingId, RelTypeId, TypeId, Value};
use mdm_obs::{
    trace, Counter, Histogram, Monitor, PathMix, Registry, StatementStore, LATENCY_MICROS_BOUNDS,
};

use crate::ast::{BinOp, Expr, OrdOp, Stmt, Target};
use crate::error::{LangError, Result};
use crate::fingerprint;

/// Observability handles for the QUEL pipeline: phase latencies
/// (lex / parse / per-statement execution), executor row traffic, and
/// ordering-operator evaluation counts. Created against a registry with
/// [`QuelMetrics::register`] and attached to a session via
/// [`Session::with_metrics`]; sessions without metrics pay nothing.
#[derive(Debug)]
pub struct QuelMetrics {
    lex_micros: Arc<Histogram>,
    parse_micros: Arc<Histogram>,
    exec_micros: Arc<Histogram>,
    rows_scanned: Arc<Counter>,
    rows_returned: Arc<Counter>,
    ord_before: Arc<Counter>,
    ord_after: Arc<Counter>,
    ord_under: Arc<Counter>,
    plan_scan: Arc<Counter>,
    plan_index_eq: Arc<Counter>,
    plan_index_range: Arc<Counter>,
    plan_ord: Arc<Counter>,
}

impl QuelMetrics {
    /// Registers (or retrieves) the QUEL pipeline metrics in `registry`.
    pub fn register(registry: &Registry) -> Arc<QuelMetrics> {
        let ord = |op| {
            registry.counter_labeled(
                "mdm_quel_ord_ops_total",
                "hierarchical-ordering operator evaluations",
                &[("op", op)],
            )
        };
        let plan = |path| {
            registry.counter_labeled(
                "mdm_quel_plan_total",
                "access paths chosen by the QUEL planner, per range variable",
                &[("path", path)],
            )
        };
        Arc::new(QuelMetrics {
            lex_micros: registry.histogram(
                "mdm_quel_lex_micros",
                "QUEL program lexing latency",
                LATENCY_MICROS_BOUNDS,
            ),
            parse_micros: registry.histogram(
                "mdm_quel_parse_micros",
                "QUEL program parsing latency",
                LATENCY_MICROS_BOUNDS,
            ),
            exec_micros: registry.histogram(
                "mdm_quel_exec_micros",
                "QUEL statement execution latency",
                LATENCY_MICROS_BOUNDS,
            ),
            rows_scanned: registry.counter(
                "mdm_quel_rows_scanned_total",
                "tuples fetched from the instance store by the executor \
                 (a tuple counts once each time its variable is bound, \
                 or once when a selection pass reads it)",
            ),
            rows_returned: registry.counter(
                "mdm_quel_rows_returned_total",
                "rows returned by retrieve statements",
            ),
            ord_before: ord("before"),
            ord_after: ord("after"),
            ord_under: ord("under"),
            plan_scan: plan("scan"),
            plan_index_eq: plan("index_eq"),
            plan_index_range: plan("index_range"),
            plan_ord: plan("ord"),
        })
    }
}

/// A system entity: a virtual table over the engine's own statistics,
/// addressable from QUEL by its `$`-prefixed name (`range of s is
/// $statements`, or implicitly via a variable named like the entity).
/// Rows are materialized per statement, so a retrieve sees a consistent
/// point-in-time picture; mutating statements reject virtual targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtualEntity {
    /// Per-fingerprint statement statistics (the statement store).
    Statements,
    /// Per-entity-type access statistics.
    Tables,
    /// Per-named-index access statistics.
    Indexes,
    /// Value, last-window rate, histogram sum and latency quantiles of
    /// every metric series, as of the attached monitor's latest sample
    /// (at most one sampling interval old).
    Metrics,
    /// Health-rule states from the attached monitor's alert engine.
    Alerts,
}

impl VirtualEntity {
    /// The `$`-prefixed QUEL name.
    pub fn name(&self) -> &'static str {
        match self {
            VirtualEntity::Statements => "$statements",
            VirtualEntity::Tables => "$tables",
            VirtualEntity::Indexes => "$indexes",
            VirtualEntity::Metrics => "$metrics",
            VirtualEntity::Alerts => "$alerts",
        }
    }

    /// Parses a `$`-prefixed name.
    pub fn from_name(name: &str) -> Option<VirtualEntity> {
        Some(match name {
            "$statements" => VirtualEntity::Statements,
            "$tables" => VirtualEntity::Tables,
            "$indexes" => VirtualEntity::Indexes,
            "$metrics" => VirtualEntity::Metrics,
            "$alerts" => VirtualEntity::Alerts,
            _ => return None,
        })
    }
}

/// A materialized virtual table: one system entity's rows at the moment
/// the statement's plan was built.
#[derive(Debug, Clone)]
struct VirtTable {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

/// The statement-local accumulator: everything one statement counts,
/// written where the work happens and read once, by
/// [`Session::finish_stmt`], which feeds every instrument from it. The
/// per-binding path writes only this — no shared counter, no lock.
/// `Cell`s because a plan evaluates through `&self`.
#[derive(Default)]
struct Tally {
    /// One entry per range variable of the statement's plan.
    vars: RefCell<Vec<VarTally>>,
    ord_before: Cell<u64>,
    ord_after: Cell<u64>,
    ord_under: Cell<u64>,
    /// The access path chosen per range variable.
    paths: Cell<PathMix>,
}

struct VarTally {
    /// The entity type ranged over; `None` for relationship and
    /// system-entity variables, whose fetches are rows scanned but no
    /// table's heap fetches.
    ty: Option<TypeId>,
    /// Tuples fetched: at most one each time the variable is bound, or
    /// one per tuple the selection pass read.
    fetched: u64,
    /// Whether the variable's current binding has fetched its tuple.
    seen: bool,
}

impl Tally {
    /// Tuples fetched from the instance store (the work metric).
    fn rows_scanned(&self) -> u64 {
        self.vars.borrow().iter().map(|v| v.fetched).sum()
    }
}

/// What a program's statements added up to: its statement-store record.
#[derive(Default)]
struct ProgramTotals {
    rows_returned: u64,
    rows_scanned: u64,
    paths: PathMix,
}

/// The database a program runs against: shared for the read-only entry
/// points, exclusive for [`Session::execute`].
enum Access<'d> {
    Shared(&'d Database),
    Exclusive(&'d mut Database),
}

impl Access<'_> {
    fn get(&self) -> &Database {
        match self {
            Access::Shared(db) => db,
            Access::Exclusive(db) => db,
        }
    }

    /// The database for a mutating statement; refused on the read-only
    /// entry points.
    fn exclusive(&mut self) -> Result<&mut Database> {
        match self {
            Access::Exclusive(db) => Ok(db),
            Access::Shared(_) => Err(LangError::Analyze(
                "only `range of` and `retrieve` are allowed in read-only execution".into(),
            )),
        }
    }
}

/// What a range variable ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeTarget {
    /// Instances of an entity type.
    Entity(TypeId),
    /// Instances of a relationship.
    Relationship(RelTypeId),
    /// Rows of a system entity (`$statements`, `$tables`, …).
    Virtual(VirtualEntity),
}

/// A result table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Column labels.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a 1×1 result, if it is one.
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => Some(&self.rows[0][0]),
            _ => None,
        }
    }

    /// Values of the named column.
    pub fn column(&self, name: &str) -> Option<Vec<&Value>> {
        let idx = self.columns.iter().position(|c| c == name)?;
        Some(self.rows.iter().map(|r| &r[idx]).collect())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let s = v.to_string();
                        widths[i] = widths[i].max(s.len());
                        s
                    })
                    .collect()
            })
            .collect();
        let line = |f: &mut fmt::Formatter<'_>| {
            write!(f, "+")?;
            for w in &widths {
                write!(f, "{}+", "-".repeat(w + 2))?;
            }
            writeln!(f)
        };
        line(f)?;
        write!(f, "|")?;
        for (c, w) in self.columns.iter().zip(&widths) {
            write!(f, " {c:<w$} |")?;
        }
        writeln!(f)?;
        line(f)?;
        for row in &rendered {
            write!(f, "|")?;
            for (c, w) in row.iter().zip(&widths) {
                write!(f, " {c:<w$} |")?;
            }
            writeln!(f)?;
        }
        line(f)?;
        writeln!(
            f,
            "({} row{})",
            self.rows.len(),
            if self.rows.len() == 1 { "" } else { "s" }
        )
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtResult {
    /// A `define …` took effect; the payload names what was defined.
    Defined(String),
    /// A `range of` declaration took effect.
    RangeDeclared,
    /// Rows from a `retrieve`.
    Rows(Table),
    /// Number of entities appended.
    Appended(usize),
    /// Number of entities updated.
    Replaced(usize),
    /// Number of entities deleted.
    Deleted(usize),
}

/// A QUEL session: executes statements against a [`Database`], carrying
/// `range of` declarations across statements (INGRES semantics).
#[derive(Debug, Clone, Default)]
pub struct Session {
    ranges: HashMap<String, String>, // var -> type name (resolved lazily)
    metrics: Option<Arc<QuelMetrics>>,
    stmt_store: Option<Arc<StatementStore>>,
    monitor: Option<Arc<Monitor>>,
}

impl Session {
    /// Creates a session with no declared range variables.
    pub fn new() -> Session {
        Session::default()
    }

    /// Creates a session whose pipeline phases record into `metrics`.
    pub fn with_metrics(metrics: Arc<QuelMetrics>) -> Session {
        Session {
            metrics: Some(metrics),
            ..Session::default()
        }
    }

    /// Attaches a statement store: every program executed from here on
    /// is fingerprinted and recorded (latency, rows, access-path mix),
    /// and `$statements` retrieves read the store's contents.
    pub fn set_statement_store(&mut self, store: Arc<StatementStore>) {
        self.stmt_store = Some(store);
    }

    /// Attaches the monitor that `$metrics` and `$alerts` retrieves read
    /// their time-series points and alert states from.
    pub fn set_monitor(&mut self, monitor: Arc<Monitor>) {
        self.monitor = Some(monitor);
    }

    /// Parses and executes a program, returning one result per statement.
    pub fn execute(&mut self, db: &mut Database, text: &str) -> Result<Vec<StmtResult>> {
        self.run_program(Access::Exclusive(db), text, None)
    }

    /// Parses and executes a *read-only* program — `range of` declarations
    /// and `retrieve` statements — against a shared database reference.
    /// Any mutating statement (define / append / replace / delete) is
    /// rejected, which is what lets concurrent reader clients share one
    /// `&Database` without exclusive access.
    pub fn execute_readonly(&mut self, db: &Database, text: &str) -> Result<Vec<StmtResult>> {
        self.run_program(Access::Shared(db), text, None)
    }

    /// Explains (and executes) a read-only program: `range of`
    /// declarations followed by one or more `retrieve` statements. The
    /// returned [`PlanExplain`] describes the last retrieve's access
    /// paths — per-variable scan / index-eq / index-range / ord choices
    /// with estimated domain sizes — plus the estimated binding count
    /// against the rows actually returned and tuples actually fetched.
    /// Any other statement kind is rejected.
    pub fn explain(&mut self, db: &Database, text: &str) -> Result<(PlanExplain, Table)> {
        let mut plan = None;
        let results = self.run_program(Access::Shared(db), text, Some(&mut plan))?;
        // Only retrieves yield rows on the read-only path, so the last
        // table is the explained retrieve's.
        let table = results.into_iter().rev().find_map(|r| match r {
            StmtResult::Rows(t) => Some(t),
            _ => None,
        });
        plan.zip(table)
            .ok_or_else(|| LangError::Analyze("no retrieve statement to explain".into()))
    }

    /// The one way a program runs: lexed once (the statement store's
    /// fingerprint is taken from the tokens the parser then consumes),
    /// parsed, and executed statement by statement, each with its own
    /// span, timer and [`Tally`] and closed by
    /// [`finish_stmt`](Self::finish_stmt). A failed program is recorded
    /// too, with what it counted before failing: a repeatedly-failing
    /// statement is exactly what `$statements` should surface. With
    /// `explain`, the last retrieve leaves its plan there.
    fn run_program(
        &mut self,
        mut db: Access<'_>,
        text: &str,
        mut explain: Option<&mut Option<PlanExplain>>,
    ) -> Result<Vec<StmtResult>> {
        // Recorded only into an attached store: without one there is no
        // clock read and no fingerprint.
        let started = self.stmt_store.as_ref().map(|_| Instant::now());
        let mut totals = ProgramTotals::default();
        let lexed = {
            let _s = trace::span("quel.lex");
            let _t = self.metrics.as_ref().map(|m| m.lex_micros.time());
            crate::lexer::lex(text)
        };
        let record = started.map(|started| match &lexed {
            Ok(tokens) => (started, fingerprint::of_tokens(tokens)),
            Err(_) => (started, fingerprint::of_unlexable(text)),
        });
        let result = lexed
            .and_then(|tokens| {
                let _s = trace::span("quel.parse");
                let _t = self.metrics.as_ref().map(|m| m.parse_micros.time());
                crate::parser::parse_tokens(tokens)
            })
            .and_then(|stmts| {
                let mut results = Vec::with_capacity(stmts.len());
                for stmt in &stmts {
                    let _sp = trace::span("quel.exec");
                    trace::annotate("stmt", stmt_kind(stmt));
                    let _t = self.metrics.as_ref().map(|m| m.exec_micros.time());
                    let tally = Tally::default();
                    let result = self.run_stmt(&mut db, stmt, &tally, explain.as_deref_mut());
                    self.finish_stmt(db.get(), &tally, &result, &mut totals);
                    results.push(result?);
                }
                Ok(results)
            });
        if let (Some(store), Some((started, fingerprint))) = (&self.stmt_store, record) {
            store.record(
                &fingerprint,
                started.elapsed().as_micros() as u64,
                totals.rows_returned,
                totals.rows_scanned,
                &totals.paths,
            );
        }
        result
    }

    /// The statement epilogue: writes every instrument from the
    /// statement's [`Tally`] — the `mdm_quel_*` counters, the access
    /// statistics (one credit per entity type the statement fetched
    /// from), the trace annotations and the program's running totals —
    /// whether the statement succeeded or failed part-way.
    fn finish_stmt(
        &self,
        db: &Database,
        tally: &Tally,
        result: &Result<StmtResult>,
        totals: &mut ProgramTotals,
    ) {
        let rows_scanned = tally.rows_scanned();
        let rows = match result {
            Ok(StmtResult::Rows(t)) => Some(t.rows.len() as u64),
            _ => None,
        };
        let rows_returned = rows.unwrap_or(0);
        let paths = tally.paths.get();
        let vars = tally.vars.borrow();
        for (i, v) in vars.iter().enumerate() {
            // One credit per entity type: its first variable carries the
            // fetches of every variable over it.
            let Some(ty) = v.ty else { continue };
            if vars[..i].iter().any(|w| w.ty == v.ty) {
                continue;
            }
            let same_type = vars[i..].iter().filter(|w| w.ty == v.ty);
            let fetched: u64 = same_type.map(|w| w.fetched).sum();
            if fetched > 0 {
                db.stats().credit(ty, fetched);
            }
        }
        if let Some(m) = &self.metrics {
            let add = |counter: &Counter, n: u64| {
                if n > 0 {
                    counter.add(n);
                }
            };
            add(&m.rows_scanned, rows_scanned);
            add(&m.rows_returned, rows_returned);
            add(&m.ord_before, tally.ord_before.get());
            add(&m.ord_after, tally.ord_after.get());
            add(&m.ord_under, tally.ord_under.get());
            add(&m.plan_scan, paths.scan);
            add(&m.plan_index_eq, paths.index_eq);
            add(&m.plan_index_range, paths.index_range);
            add(&m.plan_ord, paths.ord);
        }
        trace::annotate("rows_scanned", rows_scanned);
        if rows.is_some() {
            trace::annotate("rows_returned", rows_returned);
        }
        totals.rows_scanned += rows_scanned;
        totals.rows_returned += rows_returned;
        totals.paths.add(&paths);
    }

    /// Executes one parsed statement, counting into `tally`.
    fn run_stmt(
        &mut self,
        db: &mut Access<'_>,
        stmt: &Stmt,
        tally: &Tally,
        explain: Option<&mut Option<PlanExplain>>,
    ) -> Result<StmtResult> {
        match stmt {
            Stmt::DefineEntity { name, attrs } => {
                let db = db.exclusive()?;
                let defs = attrs
                    .iter()
                    .map(|(n, t)| {
                        Ok(mdm_model::AttributeDef {
                            name: n.clone(),
                            ty: parse_type(db, t)?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                db.define_entity(name, defs)?;
                Ok(StmtResult::Defined(format!("entity {name}")))
            }
            Stmt::DefineRelationship { name, members } => {
                let db = db.exclusive()?;
                let mut roles = Vec::new();
                let mut attrs = Vec::new();
                for (n, t) in members {
                    match db.schema().entity_type_id(t) {
                        Ok(ty) => roles.push(mdm_model::RoleDef {
                            name: n.clone(),
                            entity_type: ty,
                        }),
                        Err(_) => attrs.push(mdm_model::AttributeDef {
                            name: n.clone(),
                            ty: parse_scalar_type(t)?,
                        }),
                    }
                }
                db.define_relationship(name, roles, attrs)?;
                Ok(StmtResult::Defined(format!("relationship {name}")))
            }
            Stmt::DefineOrdering {
                name,
                children,
                parent,
            } => {
                let child_refs: Vec<&str> = children.iter().map(String::as_str).collect();
                db.exclusive()?
                    .define_ordering(name.as_deref(), &child_refs, parent.as_deref())?;
                Ok(StmtResult::Defined(format!(
                    "ordering {}",
                    name.clone().unwrap_or_else(|| "(unnamed)".into())
                )))
            }
            Stmt::DefineIndex { name, entity, attr } => {
                db.exclusive()?.define_index(name, entity, attr)?;
                Ok(StmtResult::Defined(format!("index {name}")))
            }
            Stmt::DestroyIndex { name } => {
                db.exclusive()?.destroy_index(name)?;
                Ok(StmtResult::Defined(format!("destroyed index {name}")))
            }
            Stmt::RangeOf { vars, target } => self.declare_range(db.get(), vars, target),
            Stmt::Retrieve {
                unique,
                targets,
                qual,
                sort,
            } => {
                let mut table =
                    self.retrieve(db.get(), tally, *unique, targets, qual.as_ref(), explain)?;
                sort_table(&mut table, sort)?;
                Ok(StmtResult::Rows(table))
            }
            Stmt::AppendTo {
                entity,
                assignments,
            } => self.append(db.exclusive()?, tally, entity, assignments),
            Stmt::Replace {
                var,
                assignments,
                qual,
            } => self.replace(db.exclusive()?, tally, var, assignments, qual.as_ref()),
            Stmt::Delete { var, qual } => self.delete(db.exclusive()?, tally, var, qual.as_ref()),
        }
    }

    fn declare_range(
        &mut self,
        db: &Database,
        vars: &[String],
        target: &str,
    ) -> Result<StmtResult> {
        // Validate now so errors surface at declaration.
        resolve_target(db, target)?;
        for v in vars {
            self.ranges.insert(v.clone(), target.to_string());
        }
        Ok(StmtResult::RangeDeclared)
    }

    /// Declared or implicit range target for a variable.
    fn var_target(&self, db: &Database, var: &str) -> Result<RangeTarget> {
        if let Some(tname) = self.ranges.get(var) {
            return resolve_target(db, tname);
        }
        // Footnote 6: implicit range variable named like its type.
        resolve_target(db, var).map_err(|_| {
            LangError::Analyze(format!(
                "range variable {var} was never declared (and names no entity type)"
            ))
        })
    }

    /// Plans a statement: its variables (in declared order: first seen
    /// in `exprs`, then in `qual`), their static domains, and the nested
    /// loop that binds them.
    fn plan<'q>(
        &self,
        db: &Database,
        tally: &'q Tally,
        exprs: &[&Expr],
        qual: Option<&'q Expr>,
    ) -> Result<Plan<'q>> {
        let mut vars: Vec<String> = Vec::new();
        let mut seen = HashSet::new();
        for e in exprs.iter().copied().chain(qual) {
            collect_vars(e, &mut vars, &mut seen);
        }
        let targets = vars
            .iter()
            .map(|v| self.var_target(db, v))
            .collect::<Result<Vec<_>>>()?;
        let virt = targets
            .iter()
            .map(|t| match t {
                RangeTarget::Virtual(ve) => Some(self.materialize_virtual(db, *ve)),
                _ => None,
            })
            .collect();
        tally.vars.replace(
            (targets.iter())
                .map(|t| VarTally {
                    ty: match t {
                        RangeTarget::Entity(ty) => Some(*ty),
                        _ => None,
                    },
                    fetched: 0,
                    seen: false,
                })
                .collect(),
        );
        let mut plan = Plan {
            vars,
            targets,
            virt,
            tally,
            domains: Vec::new(),
            levels: Vec::new(),
            conjuncts: Vec::new(),
        };
        let mut conjuncts = Vec::new();
        if let Some(q) = qual {
            collect_conjuncts(q, &mut conjuncts);
        }
        plan.restrict_domains(db, &conjuncts);
        plan.order_join(db, conjuncts);
        plan.select(db)?;
        Ok(plan)
    }

    /// Builds the point-in-time rows of one system entity.
    fn materialize_virtual(&self, db: &Database, ve: VirtualEntity) -> VirtTable {
        let int = |u: u64| Value::Integer(u as i64);
        match ve {
            VirtualEntity::Statements => {
                let columns = [
                    "fingerprint",
                    "calls",
                    "total_micros",
                    "p50_micros",
                    "p99_micros",
                    "rows_returned",
                    "rows_scanned",
                    "scan",
                    "index_eq",
                    "index_range",
                    "ord",
                ];
                let mut rows = Vec::new();
                if let Some(store) = &self.stmt_store {
                    for s in store.top(usize::MAX) {
                        rows.push(vec![
                            Value::String(s.fingerprint.clone()),
                            int(s.calls),
                            int(s.total_micros),
                            int(s.p50_micros()),
                            int(s.p99_micros()),
                            int(s.rows_returned),
                            int(s.rows_scanned),
                            int(s.paths.scan),
                            int(s.paths.index_eq),
                            int(s.paths.index_range),
                            int(s.paths.ord),
                        ]);
                    }
                }
                VirtTable {
                    columns: columns.iter().map(|c| c.to_string()).collect(),
                    rows,
                }
            }
            VirtualEntity::Tables => {
                let columns = [
                    "name",
                    "live",
                    "appends",
                    "replaces",
                    "deletes",
                    "heap_fetches",
                ];
                let rows = db
                    .schema()
                    .entity_types()
                    .iter()
                    .enumerate()
                    .map(|(ty, def)| {
                        let t = db.stats().table(ty as TypeId);
                        vec![
                            Value::String(def.name.clone()),
                            int(t.live),
                            int(t.appends),
                            int(t.replaces),
                            int(t.deletes),
                            int(t.heap_fetches),
                        ]
                    })
                    .collect();
                VirtTable {
                    columns: columns.iter().map(|c| c.to_string()).collect(),
                    rows,
                }
            }
            VirtualEntity::Indexes => {
                let columns = [
                    "name",
                    "entity",
                    "attribute",
                    "distinct",
                    "entries",
                    "eq_probes",
                    "range_probes",
                    "maintenance_writes",
                ];
                let mut rows = Vec::new();
                for (name, (ty_name, attr)) in db.index_defs() {
                    let Ok(ty) = db.schema().entity_type_id(ty_name) else {
                        continue;
                    };
                    let Some(attr_idx) = db
                        .schema()
                        .entity_type(ty)
                        .ok()
                        .and_then(|d| d.attribute_index(attr))
                    else {
                        continue;
                    };
                    let ia = db.stats().index(ty, attr_idx);
                    rows.push(vec![
                        Value::String(name.clone()),
                        Value::String(ty_name.clone()),
                        Value::String(attr.clone()),
                        int(db.attr_index_distinct(ty, attr_idx).unwrap_or(0) as u64),
                        int(db.attr_index_len(ty, attr_idx).unwrap_or(0) as u64),
                        int(ia.eq_probes),
                        int(ia.range_probes),
                        int(ia.maintenance_writes),
                    ]);
                }
                VirtTable {
                    columns: columns.iter().map(|c| c.to_string()).collect(),
                    rows,
                }
            }
            VirtualEntity::Metrics => {
                let columns = ["name", "value", "rate", "sum", "p50", "p99"];
                let mut rows = Vec::new();
                if let Some(monitor) = &self.monitor {
                    for (name, p) in monitor.latest() {
                        rows.push(vec![
                            Value::String(name),
                            Value::Float(p.value),
                            Value::Float(p.rate),
                            Value::Float(p.sum),
                            Value::Float(p.p50),
                            Value::Float(p.p99),
                        ]);
                    }
                }
                VirtTable {
                    columns: columns.iter().map(|c| c.to_string()).collect(),
                    rows,
                }
            }
            VirtualEntity::Alerts => {
                let columns = [
                    "rule",
                    "metric",
                    "state",
                    "severity",
                    "value",
                    "cmp",
                    "threshold",
                    "since_micros",
                ];
                let mut rows = Vec::new();
                if let Some(monitor) = &self.monitor {
                    for a in monitor.health().alerts {
                        rows.push(vec![
                            Value::String(a.rule),
                            Value::String(a.metric),
                            Value::String(a.state.as_str().to_string()),
                            Value::String(a.severity.as_str().to_string()),
                            Value::Float(a.value),
                            Value::String(a.cmp.as_str().to_string()),
                            Value::Float(a.threshold),
                            int(a.since_micros),
                        ]);
                    }
                }
                VirtTable {
                    columns: columns.iter().map(|c| c.to_string()).collect(),
                    rows,
                }
            }
        }
    }

    /// Runs one retrieve, returning its rows unsorted. The EXPLAIN
    /// record is built only when a slot for it is passed.
    fn retrieve(
        &self,
        db: &Database,
        tally: &Tally,
        unique: bool,
        targets: &[Target],
        qual: Option<&Expr>,
        explain: Option<&mut Option<PlanExplain>>,
    ) -> Result<Table> {
        let exprs: Vec<&Expr> = targets.iter().map(|t| &t.expr).collect();
        let plan = self.plan(db, tally, &exprs, qual)?;
        // Each ordering-operator clause in the qualification gets its own
        // retroactive span covering the scan it filtered.
        let ord_clauses = ord_clause_spans(qual);
        let scan_started = (!ord_clauses.is_empty()).then(Instant::now);
        let columns: Vec<String> = targets
            .iter()
            .map(|t| t.label.clone().unwrap_or_else(|| expr_label(&t.expr)))
            .collect();
        let table = if targets.iter().any(|t| matches!(t.expr, Expr::Agg { .. })) {
            retrieve_grouped(db, &plan, columns, targets, qual)?
        } else {
            let mut rows = plan.bindings(db, |db, binding| {
                (targets.iter())
                    .map(|t| eval(db, &plan, binding, &t.expr))
                    .collect::<Result<Vec<_>>>()
            })?;
            if unique {
                let mut dedup: HashSet<Vec<u8>> = HashSet::new();
                rows.retain(|row| {
                    let mut key = Vec::new();
                    for v in row {
                        encode_value(&mut key, v);
                    }
                    dedup.insert(key)
                });
            }
            Table { columns, rows }
        };
        emit_ord_spans(&ord_clauses, scan_started);
        if let Some(slot) = explain {
            *slot = Some(plan.explain(db, table.rows.len()));
        }
        Ok(table)
    }

    fn append(
        &mut self,
        db: &mut Database,
        tally: &Tally,
        entity: &str,
        assignments: &[(String, Expr)],
    ) -> Result<StmtResult> {
        let exprs: Vec<&Expr> = assignments.iter().map(|(_, e)| e).collect();
        let plan = self.plan(db, tally, &exprs, None)?;
        let pending = plan.bindings(db, |db, binding| {
            (assignments.iter())
                .map(|(n, e)| Ok((n.clone(), eval(db, &plan, binding, e)?)))
                .collect::<Result<Vec<_>>>()
        })?;
        // Every value is checked before the first row is created: after
        // that nothing can fail, so a failing statement changes nothing.
        let ty = db.schema().entity_type_id(entity)?;
        for (attr, v) in pending.iter().flatten() {
            db.check_attr(ty, attr, v)?;
        }
        let n = pending.len();
        for row in pending {
            let attrs: Vec<(&str, Value)> =
                row.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
            db.create_entity(entity, &attrs)?;
        }
        Ok(StmtResult::Appended(n))
    }

    fn replace(
        &mut self,
        db: &mut Database,
        tally: &Tally,
        var: &str,
        assignments: &[(String, Expr)],
        qual: Option<&Expr>,
    ) -> Result<StmtResult> {
        let var_expr = Expr::Var(var.to_string());
        let mut exprs: Vec<&Expr> = assignments.iter().map(|(_, e)| e).collect();
        exprs.push(&var_expr);
        let plan = self.plan(db, tally, &exprs, qual)?;
        let vidx = plan.index_of(var)?;
        if !matches!(plan.targets[vidx], RangeTarget::Entity(_)) {
            return Err(LangError::Analyze(format!(
                "replace target {var} must be an entity variable"
            )));
        }
        // The last binding of an entity decides its new values.
        let updates: BTreeMap<EntityId, Vec<(String, Value)>> = plan
            .bindings(db, |db, binding| {
                let row = (assignments.iter())
                    .map(|(n, e)| Ok((n.clone(), eval(db, &plan, binding, e)?)))
                    .collect::<Result<Vec<_>>>()?;
                Ok((binding[vidx], row))
            })?
            .into_iter()
            .collect();
        // Every value is checked before the first write, as in `append`.
        for (&id, row) in &updates {
            let ty = db.store().entity(id)?.ty;
            for (attr, v) in row {
                db.check_attr(ty, attr, v)?;
            }
        }
        let n = updates.len();
        for (id, row) in updates {
            for (attr, v) in row {
                db.set_attr(id, &attr, v)?;
            }
        }
        Ok(StmtResult::Replaced(n))
    }

    fn delete(
        &mut self,
        db: &mut Database,
        tally: &Tally,
        var: &str,
        qual: Option<&Expr>,
    ) -> Result<StmtResult> {
        let var_expr = Expr::Var(var.to_string());
        let plan = self.plan(db, tally, &[&var_expr], qual)?;
        let vidx = plan.index_of(var)?;
        if !matches!(plan.targets[vidx], RangeTarget::Entity(_)) {
            return Err(LangError::Analyze(format!(
                "delete target {var} must be an entity variable"
            )));
        }
        let mut victims = plan.bindings(db, |_, binding| Ok(binding[vidx]))?;
        victims.sort_unstable();
        victims.dedup();
        db.delete_entities(&victims)?;
        Ok(StmtResult::Deleted(victims.len()))
    }
}

/// How the planner produces one range variable's domain.
#[derive(Debug, Clone, PartialEq, Eq)]
enum AccessPath {
    /// Full scan of the type's instances.
    Scan,
    /// Equality probe of the named attribute's index.
    IndexEq(String),
    /// Range probe of the named attribute's index.
    IndexRange(String),
    /// Child-list, parent or sibling-slice lookup in an ordering, at each
    /// binding of a peer variable bound further out.
    OrdDerived(&'static str),
}

impl AccessPath {
    fn label(&self) -> String {
        match self {
            AccessPath::Scan => "scan".into(),
            AccessPath::IndexEq(a) => format!("index-eq({a})"),
            AccessPath::IndexRange(a) => format!("index-range({a})"),
            AccessPath::OrdDerived(op) => format!("ord({op})"),
        }
    }
}

/// One variable's static domain. `ids: None` means the full instance
/// list; `Some` domains are ascending by id, like `instances_of`, so
/// every level of the nested loop enumerates its candidates in id order.
struct Restriction {
    ids: Option<Vec<u64>>,
    path: AccessPath,
    /// Which stored statistics informed this variable's cost estimate
    /// (EXPLAIN annotation); empty when no statistics were consulted.
    stats: String,
    /// How many ids the selection pass, or else the range probe that
    /// informed `stats`, let through (EXPLAIN's `matched=`).
    matched: Option<usize>,
    /// The size of the domain the selection pass read, when one ran:
    /// EXPLAIN's estimate. The pass fetched every tuple it read, so
    /// binding a survivor fetches nothing more.
    read: Option<usize>,
}

impl Restriction {
    /// Intersects `hits` into the domain, recording the access path that
    /// produced them (first non-scan path wins the label).
    fn restrict(&mut self, mut hits: Vec<u64>, path: AccessPath) {
        if self.path == AccessPath::Scan {
            self.path = path;
        }
        hits.sort_unstable();
        hits.dedup();
        self.ids = Some(match self.ids.take() {
            Some(prev) => intersect(&prev, &hits),
            None => hits,
        });
    }
}

/// The ids of ascending `a` that ascending `b` holds too.
fn intersect(a: &[u64], b: &[u64]) -> Vec<u64> {
    (a.iter().copied())
        .filter(|id| b.binary_search(id).is_ok())
        .collect()
}

/// An ordering conjunct `lhs OP rhs` read as a navigation: from the
/// peer's binding to the candidates of the variable on the other side.
struct Derive {
    op: OrdOp,
    ordering: OrderingId,
    peer: usize,
    /// Whether the derived variable is the conjunct's left operand.
    lhs: bool,
}

impl Derive {
    /// The candidates at the peer's current binding — its children or
    /// parent (`under`), or its siblings before or after it — as
    /// distinct ids, of any of the ordering's child types.
    fn read(&self, db: &Database, binding: &[u64]) -> Vec<u64> {
        let store = db.store();
        let peer = binding[self.peer];
        let parent = || store.ordering_parent(db.schema(), self.ordering, peer).ok();
        match (self.op, self.lhs) {
            (OrdOp::Under, true) => store.ordering_children(self.ordering, Some(peer)).to_vec(),
            (OrdOp::Under, false) => parent().flatten().into_iter().collect(),
            (op, lhs) => {
                let Some(parent) = parent() else {
                    return Vec::new();
                };
                let sibs = store.ordering_children(self.ordering, parent);
                let Some(pos) = sibs.iter().position(|&e| e == peer) else {
                    return Vec::new();
                };
                // `x before peer` and `peer after x`: x precedes the peer.
                if (op == OrdOp::Before) == lhs {
                    sibs[..pos].to_vec()
                } else {
                    sibs[pos + 1..].to_vec()
                }
            }
        }
    }
}

/// One level of the nested loop: the variable it binds and, when
/// ordering conjuncts connect it to variables bound further out, the
/// derivations of its candidates from those peers.
struct Level {
    var: usize,
    derive: Vec<Derive>,
    /// Candidates derived so far, and the outer bindings they were
    /// derived at: EXPLAIN's per-binding estimate.
    derived: Cell<(u64, u64)>,
}

/// One variable's row in the EXPLAIN output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarPlan {
    /// Range variable name.
    pub var: String,
    /// Entity or relationship type it ranges over.
    pub target: String,
    /// Access path label: `scan`, `index-eq(attr)`, `index-range(attr)`,
    /// or `ord(op)`.
    pub path: String,
    /// Planned domain size (estimated rows this variable contributes);
    /// for an `ord(op)` variable, its candidates per binding of the
    /// variables bound before it.
    pub estimated: usize,
    /// Stored statistics that informed the choice, e.g.
    /// `live=500 distinct=200 est=2`; empty when none were consulted.
    pub stats: String,
}

/// EXPLAIN output for one retrieve: the access path chosen per range
/// variable plus estimated vs actual row counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanExplain {
    /// Per-variable access paths, in enumeration order.
    pub vars: Vec<VarPlan>,
    /// Product of planned domain sizes: candidate bindings enumerated.
    pub estimated_rows: u64,
    /// Rows the retrieve actually returned.
    pub actual_rows: u64,
    /// Tuples actually fetched from the instance store.
    pub rows_scanned: u64,
}

impl fmt::Display for PlanExplain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "retrieve plan:")?;
        for v in &self.vars {
            writeln!(
                f,
                "  {}: {} via {}, ~{} row{}{}",
                v.var,
                v.target,
                v.path,
                v.estimated,
                if v.estimated == 1 { "" } else { "s" },
                if v.stats.is_empty() {
                    String::new()
                } else {
                    format!(" [{}]", v.stats)
                }
            )?;
        }
        write!(
            f,
            "estimated {} binding{}; returned {} row{}; scanned {} tuple{}",
            self.estimated_rows,
            if self.estimated_rows == 1 { "" } else { "s" },
            self.actual_rows,
            if self.actual_rows == 1 { "" } else { "s" },
            self.rows_scanned,
            if self.rows_scanned == 1 { "" } else { "s" },
        )
    }
}

/// The variables of one statement, what they range over, and the nested
/// loop that binds them.
struct Plan<'q> {
    vars: Vec<String>,
    targets: Vec<RangeTarget>,
    /// Materialized system-entity rows, aligned with `vars` (`None` for
    /// ordinary entity / relationship variables).
    virt: Vec<Option<VirtTable>>,
    /// The statement's accumulator; its `vars` align with `vars` here.
    tally: &'q Tally,
    /// Per variable, aligned with `vars`: its static domain.
    domains: Vec<Restriction>,
    /// The nested loop, outermost level first.
    levels: Vec<Level>,
    /// `conjuncts[k]`: the top-level conjuncts evaluated once `k` levels
    /// are bound, each at the level that binds the last variable it
    /// mentions; the selections `select` decided are no longer here.
    conjuncts: Vec<Vec<&'q Expr>>,
}

impl<'q> Plan<'q> {
    fn index_of(&self, var: &str) -> Result<usize> {
        self.vars
            .iter()
            .position(|v| v == var)
            .ok_or_else(|| LangError::Analyze(format!("unknown range variable {var}")))
    }

    /// The indexed attribute position for `var.attr`, when `var` is an
    /// entity variable in this plan.
    fn sargable(&self, db: &Database, var: &str, attr: &str) -> Option<(usize, TypeId, usize)> {
        let i = self.vars.iter().position(|v| v == var)?;
        let RangeTarget::Entity(ty) = self.targets[i] else {
            return None;
        };
        let def = db.schema().entity_type(ty).ok()?;
        let attr_idx = def.attribute_index(attr)?;
        Some((i, ty, attr_idx))
    }

    /// The cost-aware planner's static half: per-variable domain
    /// restrictions from sargable qualification conjuncts, in two passes:
    ///
    /// 1. `var.attr = constant` over an indexed attribute → index
    ///    equality probe;
    /// 2. `var.attr < | <= | > | >= constant` (either orientation) over
    ///    an indexed attribute → one-sided index range scan.
    ///
    /// A system-entity variable's domain is its materialized rows. A
    /// restriction only ever *shrinks* a domain and every conjunct is
    /// still evaluated, so a superset of the true set stays correct.
    fn restrict_domains(&mut self, db: &Database, conjuncts: &[&Expr]) {
        let mut out: Vec<Restriction> = (self.virt.iter())
            .map(|virt| Restriction {
                ids: virt.as_ref().map(|v| (0..v.rows.len() as u64).collect()),
                path: AccessPath::Scan,
                stats: String::new(),
                matched: None,
                read: None,
            })
            .collect();
        // Pass 1: equality probes, cost-ordered by the stored statistics.
        // `live / distinct` (live tuple count over attribute cardinality,
        // both maintained incrementally in [`AccessStats`]) estimates how
        // many rows an equality probe returns; probing the most selective
        // index first means the winning EXPLAIN label and the first
        // domain restriction are the statistics-informed choice. The
        // estimate is annotated so EXPLAIN shows what informed it.
        struct EqProbe<'e> {
            var: usize,
            ty: TypeId,
            attr_idx: usize,
            attr: &'e String,
            value: &'e Value,
            live: u64,
            distinct: u64,
            est: u64,
        }
        let mut eqs: Vec<EqProbe> = Vec::new();
        for c in conjuncts {
            let Some((var, attr, BinOp::Eq, value)) = attr_vs_literal(c) else {
                continue;
            };
            let Some((i, ty, attr_idx)) = self.sargable(db, var, attr) else {
                continue;
            };
            let live = db.stats().table(ty).live;
            let distinct = db.attr_index_distinct(ty, attr_idx).unwrap_or(0) as u64;
            // An unindexed or empty attribute estimates as the whole
            // table; otherwise expected hits per key, floored at 1.
            let est = live.checked_div(distinct).map_or(live, |q| q.max(1));
            eqs.push(EqProbe {
                var: i,
                ty,
                attr_idx,
                attr,
                value,
                live,
                distinct,
                est,
            });
        }
        eqs.sort_by_key(|p| p.est);
        for p in eqs {
            if let Some(hits) = db.attr_index_get(p.ty, p.attr_idx, p.value) {
                out[p.var].restrict(hits.to_vec(), AccessPath::IndexEq(p.attr.clone()));
                if out[p.var].stats.is_empty() {
                    out[p.var].stats =
                        format!("live={} distinct={} est={}", p.live, p.distinct, p.est);
                }
            }
        }
        // Pass 2: range probes.
        for c in conjuncts {
            let Some((var, attr, op, value)) = attr_vs_literal(c) else {
                continue;
            };
            // Index keys fold integers at or beyond ±2⁵³ onto one `f64`,
            // so excluding such a bound's key could drop a row truly
            // beyond it: that bound is taken in and the conjunct decides.
            let strict = match value {
                Value::Integer(i) if i.unsigned_abs() >= 1 << 53 => Bound::Included(value),
                _ => Bound::Excluded(value),
            };
            let (lo, hi) = match op {
                BinOp::Lt => (Bound::Unbounded, strict),
                BinOp::Le => (Bound::Unbounded, Bound::Included(value)),
                BinOp::Gt => (strict, Bound::Unbounded),
                BinOp::Ge => (Bound::Included(value), Bound::Unbounded),
                _ => continue,
            };
            let Some((i, ty, attr_idx)) = self.sargable(db, var, attr) else {
                continue;
            };
            if let Some(hits) = db.attr_index_range(ty, attr_idx, lo, hi) {
                let matched = hits.len();
                out[i].restrict(hits, AccessPath::IndexRange(attr.clone()));
                if out[i].stats.is_empty() {
                    out[i].stats = format!("live={}", db.stats().table(ty).live);
                    out[i].matched = Some(matched);
                }
            }
        }
        self.domains = out;
    }

    /// The cost-aware planner's join half: orders the nested loop and
    /// places every conjunct in it. The variable with the smallest static
    /// domain binds first. After it comes any variable that an ordering
    /// conjunct (`a before|after|under b`) connects to one already bound
    /// — its candidates are then read straight out of the ordering at
    /// each outer binding: the children of a bound parent, the parent of
    /// a bound child, the siblings before / after a bound peer — and
    /// otherwise the next smallest. A peer pinned to one instance is just
    /// an outer level with one binding.
    fn order_join(&mut self, db: &Database, conjuncts: Vec<&'q Expr>) {
        // Every ordering conjunct over two distinct entity variables and
        // an ordering that resolves as eval resolves it; the others stay
        // plain per-binding evaluations (which surface their errors).
        let edges: Vec<(usize, usize, OrdOp, OrderingId)> = (conjuncts.iter())
            .filter_map(|c| {
                let Expr::Ord {
                    op,
                    lhs,
                    rhs,
                    ordering,
                } = c
                else {
                    return None;
                };
                let (li, ri) = (self.index_of(lhs).ok()?, self.index_of(rhs).ok()?);
                let (RangeTarget::Entity(lty), RangeTarget::Entity(rty)) =
                    (self.targets[li], self.targets[ri])
                else {
                    return None;
                };
                let o = (db.schema())
                    .resolve_ordering(ordering.as_deref(), lty, Some(rty))
                    .ok()?;
                (li != ri).then_some((li, ri, *op, o))
            })
            .collect();
        let n = self.vars.len();
        let sizes: Vec<usize> = (0..n).map(|i| self.domain(db, i).len()).collect();
        // Each variable's level, once placed.
        let mut level_of: Vec<Option<usize>> = vec![None; n];
        for k in 0..n {
            let bound = |i: usize| level_of[i].is_some();
            let connected = |i: usize| {
                (edges.iter()).any(|&(l, r, ..)| (l == i && bound(r)) || (r == i && bound(l)))
            };
            let var = (0..n)
                .filter(|&i| !bound(i))
                .min_by_key(|&i| (!connected(i), sizes[i], i))
                .expect("an unplaced variable remains");
            let derive: Vec<Derive> = (edges.iter())
                .filter_map(|&(l, r, op, ordering)| {
                    let (peer, lhs) = match (l == var && bound(r), r == var && bound(l)) {
                        (true, _) => (r, true),
                        (_, true) => (l, false),
                        _ => return None,
                    };
                    Some(Derive {
                        op,
                        ordering,
                        peer,
                        lhs,
                    })
                })
                .collect();
            if let (AccessPath::Scan, Some(d)) = (&self.domains[var].path, derive.first()) {
                self.domains[var].path = AccessPath::OrdDerived(d.op.keyword());
            }
            level_of[var] = Some(k);
            self.levels.push(Level {
                var,
                derive,
                derived: Cell::default(),
            });
        }
        self.conjuncts = vec![Vec::new(); n + 1];
        for c in conjuncts {
            let mut vars = Vec::new();
            collect_vars(c, &mut vars, &mut HashSet::new());
            // A conjunct over no variable prunes at the first level.
            let at = (vars.iter())
                .filter_map(|v| level_of[self.index_of(v).ok()?])
                .map(|k| k + 1)
                .max()
                .unwrap_or(1)
                .min(n);
            self.conjuncts[at].push(c);
        }
    }

    /// The planner's third static step, run once the join order is
    /// fixed: a level that binds an entity variable from its static
    /// domain decides the variable's `v.attr OP literal` conjuncts (see
    /// [`Selection`]) in one pass over that domain, each tuple fetched
    /// once and counted toward the variable's fetches; a whole-type
    /// domain is read straight from the type's row table. The survivors,
    /// in id order, become the domain and the conjuncts leave the loop.
    /// Derived levels keep theirs: filtering a whole type to feed a
    /// handful of candidates per outer binding would cost more than it
    /// saves. An empty domain anywhere ends the step, as nothing binds.
    fn select(&mut self, db: &Database) -> Result<()> {
        for k in 0..self.levels.len() {
            if (0..self.vars.len()).any(|i| self.domain(db, i).is_empty()) {
                break;
            }
            let var = self.levels[k].var;
            let RangeTarget::Entity(ty) = self.targets[var] else {
                continue;
            };
            if !self.levels[k].derive.is_empty() {
                continue;
            }
            let def = db.schema().entity_type(ty)?;
            let mut tests = Vec::new();
            self.conjuncts[k + 1].retain(|c| match Selection::of(c, &self.vars[var], def) {
                Some(t) => {
                    tests.push(t);
                    false
                }
                None => true,
            });
            if tests.is_empty() {
                continue;
            }
            let holds = |attrs: &[Value]| tests.iter().all(|t| t.holds(attrs));
            let mut kept = Vec::new();
            let read = match &self.domains[var].ids {
                Some(ids) => {
                    for &id in ids {
                        if holds(db.store().entity(id)?.attrs) {
                            kept.push(id);
                        }
                    }
                    ids.len()
                }
                // The whole type: its rows read in place, in row order,
                // put back in id order only if a reused row broke it.
                None => {
                    for (id, attrs) in db.store().rows_of(ty) {
                        if holds(attrs) {
                            kept.push(id);
                        }
                    }
                    if !kept.is_sorted() {
                        kept.sort_unstable();
                    }
                    db.store().instances_of(ty).len()
                }
            };
            self.tally.vars.borrow_mut()[var].fetched += read as u64;
            let r = &mut self.domains[var];
            r.read = Some(read);
            r.matched = Some(kept.len());
            r.ids = Some(kept);
        }
        Ok(())
    }

    /// Variable `i`'s static domain, ascending by id.
    fn domain<'d>(&'d self, db: &'d Database, i: usize) -> &'d [u64] {
        match (&self.domains[i].ids, self.targets[i]) {
            (Some(ids), _) => ids,
            (None, RangeTarget::Entity(ty)) => db.store().instances_of(ty),
            (None, RangeTarget::Relationship(r)) => db.store().relationships_of(r),
            // Always materialized by `restrict_domains`.
            (None, RangeTarget::Virtual(_)) => &[],
        }
    }

    /// A level's candidates at the current outer binding, ascending by
    /// id: its static domain, or — for a derived variable — what every
    /// derivation reads, intersected with that domain and filtered to the
    /// variable's own entity type (an ordering's children may span
    /// several).
    fn candidates<'d>(
        &'d self,
        db: &'d Database,
        level: &Level,
        binding: &[u64],
    ) -> Cow<'d, [u64]> {
        let mut derives = level.derive.iter();
        let Some(first) = derives.next() else {
            return Cow::Borrowed(self.domain(db, level.var));
        };
        let mut ids = first.read(db, binding);
        ids.sort_unstable();
        for d in derives {
            let mut more = d.read(db, binding);
            more.sort_unstable();
            ids = intersect(&ids, &more);
        }
        match (&self.domains[level.var].ids, self.targets[level.var]) {
            (Some(domain), _) => ids = intersect(&ids, domain),
            (None, RangeTarget::Entity(ty)) => {
                ids.retain(|&id| db.store().entity(id).is_ok_and(|e| e.ty == ty))
            }
            _ => {}
        }
        let (total, times) = level.derived.get();
        level.derived.set((total + ids.len() as u64, times + 1));
        Cow::Owned(ids)
    }

    /// Builds the EXPLAIN record for an executed plan, variables in
    /// binding order.
    fn explain(&self, db: &Database, actual_rows: usize) -> PlanExplain {
        let mut estimated_rows: u64 = 1;
        let vars = (self.levels.iter())
            .map(|level| {
                let i = level.var;
                let target = match self.targets[i] {
                    RangeTarget::Entity(ty) => db
                        .schema()
                        .entity_type(ty)
                        .map_or_else(|_| format!("#{ty}"), |d| d.name.clone()),
                    RangeTarget::Relationship(rid) => db
                        .schema()
                        .relationship(rid)
                        .map_or_else(|_| format!("#{rid}"), |d| d.name.clone()),
                    RangeTarget::Virtual(ve) => ve.name().to_string(),
                };
                let estimated = if level.derive.is_empty() {
                    (self.domains[i].read).unwrap_or_else(|| self.domain(db, i).len())
                } else {
                    let (total, times) = level.derived.get();
                    total.checked_div(times).unwrap_or(0) as usize
                };
                estimated_rows = estimated_rows.saturating_mul(estimated as u64);
                let r = &self.domains[i];
                let stats = match (r.stats.as_str(), r.matched) {
                    (s, None) => s.to_string(),
                    ("", Some(m)) => format!("matched={m}"),
                    (s, Some(m)) => format!("{s} matched={m}"),
                };
                VarPlan {
                    var: self.vars[i].clone(),
                    target,
                    path: r.path.label(),
                    estimated,
                    stats,
                }
            })
            .collect();
        PlanExplain {
            vars,
            estimated_rows,
            actual_rows: actual_rows as u64,
            rows_scanned: self.tally.rows_scanned(),
        }
    }

    /// Marks variable `i`'s tuple as fetched; the first fetch after each
    /// binding of the variable counts toward `rows_scanned`.
    fn note_fetch(&self, i: usize) {
        let v = &mut self.tally.vars.borrow_mut()[i];
        if !v.seen {
            v.seen = true;
            v.fetched += 1;
        }
    }

    /// Runs the nested loop, calling `f` at every binding (an id per
    /// variable: entity id, relationship instance id or system-entity row)
    /// that satisfies the qualification, after noting each variable's
    /// access path in the tally. The results come back in canonical
    /// order — ascending by the id tuple in declared-variable order, the
    /// order of the cross product of the ascending `instances_of` lists —
    /// whatever order the loop bound the variables in.
    fn bindings<T>(
        &self,
        db: &Database,
        mut f: impl FnMut(&Database, &[u64]) -> Result<T>,
    ) -> Result<Vec<T>> {
        let mut mix = PathMix::default();
        for r in &self.domains {
            match &r.path {
                AccessPath::Scan => mix.scan += 1,
                AccessPath::IndexEq(_) => mix.index_eq += 1,
                AccessPath::IndexRange(_) => mix.index_range += 1,
                AccessPath::OrdDerived(_) => mix.ord += 1,
            }
        }
        self.tally.paths.set(mix);
        if (0..self.vars.len()).any(|i| self.domain(db, i).is_empty()) {
            return Ok(Vec::new());
        }
        // Bound in declared order, the loop already emits canonical order
        // and its rows need no key.
        let keyed = self.levels.iter().enumerate().any(|(k, l)| l.var != k);
        let mut out: Vec<(Vec<u64>, T)> = Vec::new();
        self.descend(db, 0, &mut vec![0; self.vars.len()], &mut |db, b| {
            out.push((if keyed { b.to_vec() } else { Vec::new() }, f(db, b)?));
            Ok(())
        })?;
        if keyed {
            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        Ok(out.into_iter().map(|(_, t)| t).collect())
    }

    /// Level `k` of the nested loop: checks the conjuncts that the first
    /// `k` levels decide, then binds level `k`'s variable to each of its
    /// candidates in turn.
    fn descend(
        &self,
        db: &Database,
        k: usize,
        binding: &mut [u64],
        emit: &mut dyn FnMut(&Database, &[u64]) -> Result<()>,
    ) -> Result<()> {
        for c in &self.conjuncts[k] {
            if !eval_bool(db, self, binding, c)? {
                return Ok(());
            }
        }
        let Some(level) = self.levels.get(k) else {
            return emit(db, binding);
        };
        // A tuple the selection pass read is already counted.
        let counted = self.domains[level.var].read.is_some();
        for &id in self.candidates(db, level, binding).iter() {
            binding[level.var] = id;
            self.tally.vars.borrow_mut()[level.var].seen = counted;
            self.descend(db, k + 1, binding, emit)?;
        }
        Ok(())
    }
}

/// A top-level `v.attr OP literal` or `literal OP v.attr` conjunct, OP
/// one of the six comparisons and `attr` declared by `v`'s entity type:
/// the conjuncts the selection pass decides. Such a conjunct cannot
/// raise an error, so deciding it before the loop changes no answer.
struct Selection<'q> {
    /// The attribute's position in the type's attribute list.
    slot: usize,
    /// `OP` with the attribute on the left.
    test: fn(Ordering) -> bool,
    literal: &'q Value,
}

impl<'q> Selection<'q> {
    fn of(c: &'q Expr, var: &str, def: &EntityTypeDef) -> Option<Selection<'q>> {
        let (v, attr, op, literal) = attr_vs_literal(c)?;
        if v != var {
            return None;
        }
        Some(Selection {
            slot: def.attribute_index(attr)?,
            test: comparison(op)?,
            literal,
        })
    }

    /// Whether the conjunct holds for a tuple with these attributes.
    fn holds(&self, attrs: &[Value]) -> bool {
        (self.test)(attrs[self.slot].total_cmp(self.literal))
    }
}

/// A comparison of an attribute with a literal, in either orientation,
/// as `(var, attr, OP, literal)` with the attribute on the left:
/// `literal OP var.attr` comes back with OP mirrored, which
/// [`Value::total_cmp`]'s antisymmetry makes the same test.
fn attr_vs_literal(c: &Expr) -> Option<(&String, &String, BinOp, &Value)> {
    let Expr::Bin { op, lhs, rhs } = c else {
        return None;
    };
    comparison(*op)?;
    match (&**lhs, &**rhs) {
        (Expr::Attr { var, attr }, Expr::Const(v)) => Some((var, attr, *op, v)),
        (Expr::Const(v), Expr::Attr { var, attr }) => {
            let mirrored = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => *other,
            };
            Some((var, attr, mirrored, v))
        }
        _ => None,
    }
}

/// The six comparison operators, as tests on `l.total_cmp(r)` for
/// `l OP r`; `None` for any other operator.
fn comparison(op: BinOp) -> Option<fn(Ordering) -> bool> {
    Some(match op {
        BinOp::Eq => Ordering::is_eq,
        BinOp::Ne => Ordering::is_ne,
        BinOp::Lt => Ordering::is_lt,
        BinOp::Le => Ordering::is_le,
        BinOp::Gt => Ordering::is_gt,
        BinOp::Ge => Ordering::is_ge,
        _ => return None,
    })
}

/// One ordering clause worth a span: `(span name, lhs, rhs, ordering)`.
type OrdClause = (&'static str, String, String, String);

/// Collects the qualification's ordering-operator conjuncts for span
/// emission. Empty when no trace is being recorded on this thread, so
/// untraced queries pay nothing.
fn ord_clause_spans(qual: Option<&Expr>) -> Vec<OrdClause> {
    let Some(q) = qual else { return Vec::new() };
    if !trace::is_active() {
        return Vec::new();
    }
    let mut conjuncts = Vec::new();
    collect_conjuncts(q, &mut conjuncts);
    conjuncts
        .iter()
        .filter_map(|c| match c {
            Expr::Ord {
                op,
                lhs,
                rhs,
                ordering,
            } => Some((
                match op {
                    OrdOp::Before => "quel.ord.before",
                    OrdOp::After => "quel.ord.after",
                    OrdOp::Under => "quel.ord.under",
                },
                lhs.clone(),
                rhs.clone(),
                ordering.clone().unwrap_or_else(|| "(inferred)".into()),
            )),
            _ => None,
        })
        .collect()
}

/// Emits one retroactive child span per ordering clause, all covering
/// the scan interval that evaluated them.
fn emit_ord_spans(clauses: &[OrdClause], started: Option<Instant>) {
    let Some(started) = started else { return };
    for (name, lhs, rhs, ordering) in clauses {
        trace::child_since(
            name,
            started,
            &[("lhs", lhs), ("rhs", rhs), ("ordering", ordering)],
        );
    }
}

/// Statement kind label for span annotations.
fn stmt_kind(s: &Stmt) -> &'static str {
    match s {
        Stmt::DefineEntity { .. } => "define entity",
        Stmt::DefineRelationship { .. } => "define relationship",
        Stmt::DefineOrdering { .. } => "define ordering",
        Stmt::DefineIndex { .. } => "define index",
        Stmt::DestroyIndex { .. } => "destroy index",
        Stmt::RangeOf { .. } => "range of",
        Stmt::Retrieve { .. } => "retrieve",
        Stmt::AppendTo { .. } => "append",
        Stmt::Replace { .. } => "replace",
        Stmt::Delete { .. } => "delete",
    }
}

fn resolve_target(db: &Database, name: &str) -> Result<RangeTarget> {
    if let Some(ve) = VirtualEntity::from_name(name) {
        return Ok(RangeTarget::Virtual(ve));
    }
    if name.starts_with('$') {
        return Err(LangError::Analyze(format!(
            "unknown system entity {name} \
             (expected $statements, $tables, $indexes, $metrics, or $alerts)"
        )));
    }
    if let Ok(t) = db.schema().entity_type_id(name) {
        return Ok(RangeTarget::Entity(t));
    }
    if let Ok(r) = db.schema().relationship_id(name) {
        return Ok(RangeTarget::Relationship(r));
    }
    Err(LangError::Analyze(format!(
        "{name} names no entity type or relationship"
    )))
}

fn parse_scalar_type(name: &str) -> Result<mdm_model::DataType> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "integer" | "int" => mdm_model::DataType::Integer,
        "float" | "real" => mdm_model::DataType::Float,
        "string" | "text" => mdm_model::DataType::String,
        "boolean" | "bool" => mdm_model::DataType::Boolean,
        "bytes" | "blob" => mdm_model::DataType::Bytes,
        other => return Err(LangError::Analyze(format!("unknown type {other}"))),
    })
}

fn parse_type(db: &Database, name: &str) -> Result<mdm_model::DataType> {
    if let Ok(t) = db.schema().entity_type_id(name) {
        return Ok(mdm_model::DataType::Entity(t));
    }
    parse_scalar_type(name)
}

/// One aggregate accumulator.
#[derive(Default)]
struct Acc {
    /// Non-null values seen.
    count: u64,
    sum: f64,
    all_integer: bool,
    started: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Acc {
    fn add(&mut self, v: &Value) -> Result<()> {
        if matches!(v, Value::Null) {
            return Ok(());
        }
        self.count += 1;
        if !self.started {
            self.all_integer = true;
            self.started = true;
        }
        if let Some(x) = v.as_float() {
            self.sum += x;
            if !matches!(v, Value::Integer(_)) {
                self.all_integer = false;
            }
        } else {
            self.all_integer = false;
        }
        let better_min = self.min.as_ref().is_none_or(|m| v.total_cmp(m).is_lt());
        if better_min {
            self.min = Some(v.clone());
        }
        let better_max = self.max.as_ref().is_none_or(|m| v.total_cmp(m).is_gt());
        if better_max {
            self.max = Some(v.clone());
        }
        Ok(())
    }

    fn finish(&self, func: crate::ast::AggFunc) -> Value {
        use crate::ast::AggFunc::*;
        match func {
            Count => Value::Integer(self.count as i64),
            Sum => {
                if self.count == 0 {
                    Value::Integer(0)
                } else if self.all_integer {
                    Value::Integer(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            Min => self.min.clone().unwrap_or(Value::Null),
            Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// GROUP-BY retrieve: plain targets are grouping keys, aggregate targets
/// accumulate per group. Groups emit in first-seen order.
fn retrieve_grouped(
    db: &Database,
    plan: &Plan,
    columns: Vec<String>,
    targets: &[Target],
    qual: Option<&Expr>,
) -> Result<Table> {
    for t in targets {
        if let Expr::Agg { arg, .. } = &t.expr {
            if contains_agg(arg) {
                return Err(LangError::Analyze(
                    "nested aggregates are not supported".into(),
                ));
            }
        }
    }
    if qual.is_some_and(contains_agg) {
        return Err(LangError::Analyze(
            "aggregates are not allowed in qualifications".into(),
        ));
    }
    let n_aggs = targets
        .iter()
        .filter(|t| matches!(t.expr, Expr::Agg { .. }))
        .count();
    // Per binding: the plain targets' values (the group key) and the
    // aggregates' arguments.
    let inputs = plan.bindings(db, |db, binding| {
        let mut key_vals = Vec::new();
        let mut args = Vec::with_capacity(n_aggs);
        for t in targets {
            match &t.expr {
                Expr::Agg { arg, .. } => args.push(eval(db, plan, binding, arg)?),
                plain => key_vals.push(eval(db, plan, binding, plain)?),
            }
        }
        Ok((key_vals, args))
    })?;
    let mut order: Vec<Vec<u8>> = Vec::new();
    let mut groups: HashMap<Vec<u8>, (Vec<Value>, Vec<Acc>)> = HashMap::new();
    for (key_vals, args) in inputs {
        let mut key = Vec::new();
        for v in &key_vals {
            encode_value(&mut key, v);
        }
        let entry = groups.entry(key.clone()).or_insert_with(|| {
            order.push(key);
            (key_vals, (0..n_aggs).map(|_| Acc::default()).collect())
        });
        for (acc, v) in entry.1.iter_mut().zip(&args) {
            acc.add(v)?;
        }
    }
    // Pure aggregates over an empty input still yield one row.
    if groups.is_empty() && n_aggs == targets.len() {
        order.push(Vec::new());
        groups.insert(
            Vec::new(),
            (Vec::new(), (0..n_aggs).map(|_| Acc::default()).collect()),
        );
    }
    let mut rows = Vec::with_capacity(order.len());
    for key in order {
        let (key_vals, accs) = &groups[&key];
        let mut row = Vec::with_capacity(targets.len());
        let mut ki = 0;
        let mut ai = 0;
        for t in targets {
            match &t.expr {
                Expr::Agg { func, .. } => {
                    row.push(accs[ai].finish(*func));
                    ai += 1;
                }
                _ => {
                    row.push(key_vals[ki].clone());
                    ki += 1;
                }
            }
        }
        rows.push(row);
    }
    Ok(Table { columns, rows })
}

/// Applies a `sort by` clause: keys name output columns, compared with
/// [`Value::total_cmp`]; a stable sort keeps prior order among ties.
fn sort_table(table: &mut Table, sort: &[(String, bool)]) -> Result<()> {
    if sort.is_empty() {
        return Ok(());
    }
    let keys: Vec<(usize, bool)> = sort
        .iter()
        .map(|(col, asc)| {
            table
                .columns
                .iter()
                .position(|c| c == col)
                .map(|i| (i, *asc))
                .ok_or_else(|| LangError::Analyze(format!("sort by names no output column: {col}")))
        })
        .collect::<Result<Vec<_>>>()?;
    table.rows.sort_by(|a, b| {
        for &(i, asc) in &keys {
            let ord = a[i].total_cmp(&b[i]);
            if !ord.is_eq() {
                return if asc { ord } else { ord.reverse() };
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

/// Splits an AND tree into its conjuncts.
fn collect_conjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Bin {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            collect_conjuncts(lhs, out);
            collect_conjuncts(rhs, out);
        }
        other => out.push(other),
    }
}

fn contains_agg(e: &Expr) -> bool {
    match e {
        Expr::Agg { .. } => true,
        Expr::Const(_) | Expr::Var(_) | Expr::Attr { .. } | Expr::Ord { .. } => false,
        Expr::Bin { lhs, rhs, .. } | Expr::Is { lhs, rhs } => {
            contains_agg(lhs) || contains_agg(rhs)
        }
        Expr::Not(x) | Expr::Neg(x) => contains_agg(x),
    }
}

fn collect_vars(e: &Expr, out: &mut Vec<String>, seen: &mut HashSet<String>) {
    match e {
        Expr::Const(_) => {}
        Expr::Var(v) => {
            if seen.insert(v.clone()) {
                out.push(v.clone());
            }
        }
        Expr::Attr { var, .. } => {
            if seen.insert(var.clone()) {
                out.push(var.clone());
            }
        }
        Expr::Bin { lhs, rhs, .. } | Expr::Is { lhs, rhs } => {
            collect_vars(lhs, out, seen);
            collect_vars(rhs, out, seen);
        }
        Expr::Not(x) | Expr::Neg(x) | Expr::Agg { arg: x, .. } => collect_vars(x, out, seen),
        Expr::Ord { lhs, rhs, .. } => {
            for v in [lhs, rhs] {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
    }
}

fn expr_label(e: &Expr) -> String {
    match e {
        Expr::Const(v) => v.to_string(),
        Expr::Var(v) => v.clone(),
        Expr::Attr { var, attr } => format!("{var}.{attr}"),
        Expr::Agg { func, arg } => format!("{}({})", func.name(), expr_label(arg)),
        Expr::Bin { .. } | Expr::Not(_) | Expr::Neg(_) | Expr::Is { .. } | Expr::Ord { .. } => {
            "expr".to_string()
        }
    }
}

fn eval_bool(db: &Database, plan: &Plan, binding: &[u64], e: &Expr) -> Result<bool> {
    match eval(db, plan, binding, e)? {
        Value::Boolean(b) => Ok(b),
        other => Err(LangError::Eval(format!(
            "qualification evaluated to {other}, expected a boolean"
        ))),
    }
}

fn eval(db: &Database, plan: &Plan, binding: &[u64], e: &Expr) -> Result<Value> {
    match e {
        Expr::Const(v) => Ok(v.clone()),
        Expr::Var(v) => {
            let i = plan.index_of(v)?;
            match plan.targets[i] {
                RangeTarget::Entity(_) => Ok(Value::Entity(binding[i])),
                RangeTarget::Relationship(_) => Err(LangError::Eval(format!(
                    "relationship variable {v} has no value; project a member instead"
                ))),
                RangeTarget::Virtual(_) => Err(LangError::Eval(format!(
                    "system entity variable {v} has no value; project an attribute instead"
                ))),
            }
        }
        Expr::Attr { var, attr } => {
            let i = plan.index_of(var)?;
            plan.note_fetch(i);
            match plan.targets[i] {
                RangeTarget::Entity(_) => Ok(db.get_attr(binding[i], attr)?.clone()),
                RangeTarget::Relationship(r) => {
                    let def = db.schema().relationship(r)?;
                    let inst = db.store().relationship(binding[i])?;
                    if let Some(ri) = def.role_index(attr) {
                        Ok(Value::Entity(inst.entities[ri]))
                    } else if let Some(ai) = def.attribute_index(attr) {
                        Ok(inst.attrs[ai].clone())
                    } else {
                        Err(LangError::Analyze(format!(
                            "relationship {} has no member {attr}",
                            def.name
                        )))
                    }
                }
                RangeTarget::Virtual(ve) => {
                    let vt = plan.virt[i].as_ref().ok_or_else(|| {
                        LangError::Eval(format!("{} was not materialized", ve.name()))
                    })?;
                    let col = vt.columns.iter().position(|c| c == attr).ok_or_else(|| {
                        LangError::Analyze(format!(
                            "{} has no attribute {attr} (has: {})",
                            ve.name(),
                            vt.columns.join(", ")
                        ))
                    })?;
                    vt.rows
                        .get(binding[i] as usize)
                        .map(|r| r[col].clone())
                        .ok_or_else(|| LangError::Eval(format!("{} row out of range", ve.name())))
                }
            }
        }
        Expr::Neg(x) => match eval(db, plan, binding, x)? {
            Value::Integer(i) => Ok(Value::Integer(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(LangError::Eval(format!("cannot negate {other}"))),
        },
        Expr::Not(x) => match eval(db, plan, binding, x)? {
            Value::Boolean(b) => Ok(Value::Boolean(!b)),
            other => Err(LangError::Eval(format!("cannot apply not to {other}"))),
        },
        Expr::Is { lhs, rhs } => {
            let l = eval(db, plan, binding, lhs)?;
            let r = eval(db, plan, binding, rhs)?;
            match (l, r) {
                (Value::Entity(a), Value::Entity(b)) => Ok(Value::Boolean(a == b)),
                (l, r) => Err(LangError::Eval(format!(
                    "is compares entities, found {l} and {r}"
                ))),
            }
        }
        Expr::Agg { func, .. } => Err(LangError::Analyze(format!(
            "{} is only allowed as a retrieve target",
            func.name()
        ))),
        Expr::Ord {
            op,
            lhs,
            rhs,
            ordering,
        } => {
            let evaluations = match op {
                OrdOp::Before => &plan.tally.ord_before,
                OrdOp::After => &plan.tally.ord_after,
                OrdOp::Under => &plan.tally.ord_under,
            };
            evaluations.set(evaluations.get() + 1);
            let li = plan.index_of(lhs)?;
            let ri = plan.index_of(rhs)?;
            let (RangeTarget::Entity(lty), RangeTarget::Entity(rty)) =
                (plan.targets[li], plan.targets[ri])
            else {
                return Err(LangError::Eval(
                    "ordering operators take entity variables".into(),
                ));
            };
            let o = db
                .schema()
                .resolve_ordering(ordering.as_deref(), lty, Some(rty))?;
            let a = binding[li];
            let b = binding[ri];
            let result = match op {
                OrdOp::Before => db.store().before(o, a, b),
                OrdOp::After => db.store().after(o, a, b),
                OrdOp::Under => db.store().under(o, a, b),
            };
            Ok(Value::Boolean(result))
        }
        Expr::Bin { op, lhs, rhs } => {
            // Short-circuit booleans.
            if matches!(op, BinOp::And | BinOp::Or) {
                let l = eval_bool(db, plan, binding, lhs)?;
                return match (op, l) {
                    (BinOp::And, false) => Ok(Value::Boolean(false)),
                    (BinOp::Or, true) => Ok(Value::Boolean(true)),
                    _ => Ok(Value::Boolean(eval_bool(db, plan, binding, rhs)?)),
                };
            }
            let l = eval(db, plan, binding, lhs)?;
            let r = eval(db, plan, binding, rhs)?;
            match comparison(*op) {
                Some(test) => Ok(Value::Boolean(test(l.total_cmp(&r)))),
                None => arith(*op, l, r),
            }
        }
    }
}

fn arith(op: BinOp, l: Value, r: Value) -> Result<Value> {
    if let (BinOp::Add, Value::String(a), Value::String(b)) = (op, &l, &r) {
        return Ok(Value::String(format!("{a}{b}")));
    }
    match (l, r) {
        (Value::Integer(a), Value::Integer(b)) => Ok(match op {
            BinOp::Add => Value::Integer(a.wrapping_add(b)),
            BinOp::Sub => Value::Integer(a.wrapping_sub(b)),
            BinOp::Mul => Value::Integer(a.wrapping_mul(b)),
            BinOp::Div => {
                if b == 0 {
                    return Err(LangError::Eval("division by zero".into()));
                }
                Value::Integer(a / b)
            }
            _ => unreachable!(),
        }),
        (l, r) => {
            let (Some(a), Some(b)) = (l.as_float(), r.as_float()) else {
                return Err(LangError::Eval(format!("cannot compute {l} {op:?} {r}")));
            };
            Ok(Value::Float(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => unreachable!(),
            }))
        }
    }
}
