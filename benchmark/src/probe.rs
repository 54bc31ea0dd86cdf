//! The probe phase: direct, timed calls into each crate on the
//! workload's own data and statements, after the main run, plus the
//! deltas of the public registry counters over the measured phase.
//!
//! Probes never touch the measured state's durable side: writes go to a
//! [`Scratch`] stack beside it.

use std::time::Instant;

use mdm_core::MusicDataManager;
use mdm_lang::{lexer, parse_tokens, Session};
use mdm_model::{persist, Value};
use mdm_net::{wire, MdmClient, MdmServer, Message};
use mdm_notation::{Score, TimeSignature};
use mdm_obs::Snapshot;
use mdm_storage::StorageEngine;

use crate::host;
use crate::shadow::Scratch;
use crate::stats;
use crate::workload::queries;

/// A named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Median microseconds of `calls` individually timed calls.
fn p50_us<E: ToString>(calls: usize, mut f: impl FnMut() -> Result<(), E>) -> Result<f64, String> {
    let mut micros = Vec::with_capacity(calls);
    for _ in 0..calls.max(1) {
        let started = Instant::now();
        f().map_err(|e| e.to_string())?;
        micros.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(stats::median(&micros))
}

/// Mean nanoseconds per call over one timed loop: for calls too short
/// to time one at a time.
fn mean_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..calls.max(1) {
        f();
    }
    started.elapsed().as_nanos() as f64 / calls.max(1) as f64
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// What the probes run on.
pub struct ProbeInput<'a> {
    pub mdm: &'a MusicDataManager,
    /// The workload's most frequent read statement.
    pub query: &'a str,
    /// A stored score to navigate and load, and its SCORE id.
    pub score: &'a Score,
    pub score_id: u64,
    pub darms: &'a str,
    pub darms_measures: usize,
    pub calls: usize,
}

/// `net.*` probes, taken while the server still runs. `delta` is the
/// registry's change over the measured phase, `ops` the ops it served.
pub fn net_probes(
    server: &MdmServer,
    client: &mut MdmClient,
    query: &str,
    score: &Score,
    calls: usize,
    delta: &Snapshot,
    ops: usize,
) -> Result<Vec<Metric>, String> {
    let ping = p50_us(calls, || client.ping())?;
    let wire_query = p50_us(calls, || client.query(query).map(|_| ()))?;
    let direct = p50_us(calls, || {
        server.with_manager(|m| m.query_shared(query).map(|_| ()))
    })?;

    // Codec cost of the request and of the response it gets.
    let request = Message::Query {
        text: query.to_string(),
    };
    let table = server
        .with_manager(|m| m.query_shared(query))
        .map_err(|e| e.to_string())?;
    let response = Message::Rows { table };
    let mut frames = Vec::new();
    let encode = p50_us(calls, || {
        frames.clear();
        for m in [&request, &response] {
            frames.push(wire::encode_frame(m.msg_type(), 1, &m.encode_payload())?);
        }
        Ok::<(), mdm_net::NetError>(())
    })?;
    let payloads = [
        (request.msg_type(), request.encode_payload()),
        (response.msg_type(), response.encode_payload()),
    ];
    let decode = p50_us(calls, || {
        for (ty, payload) in &payloads {
            std::hint::black_box(Message::decode(*ty, payload)?);
        }
        Ok::<(), mdm_net::DecodeError>(())
    })?;
    let score_codec = p50_us(calls, || {
        let mut buf = Vec::new();
        mdm_net::scorecodec::encode_score(&mut buf, score);
        mdm_net::scorecodec::decode_score(&mut wire::Cursor::new(&buf)).map(|_| ())
    })?;

    let counter = |name: &str| delta.counter(name).unwrap_or(0) as f64;
    let bytes = counter("mdm_net_bytes_in_total") + counter("mdm_net_bytes_out_total");
    let errors = counter("mdm_net_error_responses_total") + counter("mdm_net_decode_errors_total");
    Ok(vec![
        metric("net.ping_rtt_p50_us", ping, "us"),
        metric("net.wire_overhead_p50_us", wire_query - direct, "us"),
        metric(
            "net.wire_share",
            ratio(wire_query - direct, wire_query),
            "ratio",
        ),
        metric("net.encode_us_per_op", encode, "us"),
        metric("net.decode_us_per_op", decode, "us"),
        metric("net.score_codec_us", score_codec, "us"),
        metric("net.bytes_per_op", ratio(bytes, ops as f64), "B"),
        metric("net.errors", errors, "count"),
    ])
}

/// The `net.*` names, all zero: what an embedded workload reports, its
/// ops never having crossed the wire.
pub fn net_absent() -> Vec<Metric> {
    [
        ("net.ping_rtt_p50_us", "us"),
        ("net.wire_overhead_p50_us", "us"),
        ("net.wire_share", "ratio"),
        ("net.encode_us_per_op", "us"),
        ("net.decode_us_per_op", "us"),
        ("net.score_codec_us", "us"),
        ("net.bytes_per_op", "B"),
        ("net.errors", "count"),
    ]
    .into_iter()
    .map(|(name, unit)| metric(name, 0.0, unit))
    .collect()
}

/// `core.*`, `lang.*`, `model.*`, `storage.*`, `darms.*`, `notation.*`
/// and `obs.*` probes on the manager the workload ran on.
pub fn layer_probes(
    input: &ProbeInput<'_>,
    mut scratch: Scratch,
    scratch_engine_dir: &std::path::Path,
    pool_pages: usize,
    delta: &Snapshot,
) -> Result<Vec<Metric>, String> {
    let calls = input.calls;
    let few = calls.min(200);
    let mdm = input.mdm;
    let db = mdm.database();
    let mut out = Vec::new();

    // ---- lang -------------------------------------------------------
    let lex = p50_us(calls, || lexer::lex(input.query).map(|_| ()))?;
    let tokens = lexer::lex(input.query).map_err(|e| e.to_string())?;
    let parse = p50_us(calls, || parse_tokens(tokens.clone()).map(|_| ()))?;
    let readonly = p50_us(calls, || {
        Session::new().execute_readonly(db, input.query).map(|_| ())
    })?;
    let counter = |name: &str| delta.counter(name).unwrap_or(0) as f64;
    let plan = |path: &str| {
        delta
            .counter_with("mdm_quel_plan_total", &[("path", path)])
            .unwrap_or(0) as f64
    };
    let indexed = plan("index_eq") + plan("index_range") + plan("ord");
    out.extend([
        metric("lang.lex_p50_us", lex, "us"),
        metric("lang.parse_p50_us", parse, "us"),
        metric("lang.execute_readonly_p50_us", readonly, "us"),
        metric("lang.frontend_share", ratio(lex + parse, readonly), "ratio"),
        metric(
            "lang.tuples_scanned_per_row",
            ratio(
                counter("mdm_quel_rows_scanned_total"),
                counter("mdm_quel_rows_returned_total"),
            ),
            "ratio",
        ),
        metric(
            "lang.indexed_plan_share",
            ratio(indexed, indexed + plan("scan")),
            "ratio",
        ),
    ]);

    // ---- core -------------------------------------------------------
    let query_shared = p50_us(calls, || mdm.query_shared(input.query).map(|_| ()))?;
    let load_score = p50_us(calls, || mdm.load_score(input.score_id).map(|_| ()))?;
    let mut key = queries::EDIT_KEY_BASE * 9;
    let mut next_append = || {
        key += 1;
        let op = queries::append_note(key, 4);
        op.text().unwrap_or_default().to_string()
    };
    let execute = p50_us(calls, || scratch.mdm.execute(&next_append()).map(|_| ()))?;
    let lang_execute = p50_us(calls, || {
        Session::new()
            .execute(&mut scratch.db, &next_append())
            .map(|_| ())
    })?;
    let store_score = p50_us(few, || scratch.mdm.store_score(input.score).map(|_| ()))?;
    let mut n = 0;
    let import_darms = p50_us(few, || {
        n += 1;
        scratch
            .mdm
            .import_darms(&format!("probe {n}"), input.darms, TimeSignature::common())
            .map(|_| ())
    })?;
    out.extend([
        metric("core.query_shared_p50_us", query_shared, "us"),
        metric("core.execute_p50_us", execute, "us"),
        metric("core.store_score_p50_us", store_score, "us"),
        metric("core.load_score_p50_us", load_score, "us"),
        metric("core.import_darms_p50_us", import_darms, "us"),
        metric(
            "core.facade_share",
            ratio(query_shared - readonly, query_shared),
            "ratio",
        ),
        metric(
            "core.journal_share",
            ratio(execute - lang_execute, execute),
            "ratio",
        ),
    ]);

    // ---- model: navigation on the workload's data --------------------
    let e = |e: mdm_model::ModelError| e.to_string();
    let movement = *db
        .ord_children("movement_in_score", Some(input.score_id))
        .map_err(e)?
        .first()
        .ok_or("probe score has no movement")?;
    let measure = *db
        .ord_children("measure_in_movement", Some(movement))
        .map_err(e)?
        .last()
        .ok_or("probe score has no measure")?;
    let many = calls * 20;
    let ord_children = mean_ns(many, || {
        std::hint::black_box(db.ord_children("measure_in_movement", Some(movement)).ok());
    });
    let under = mean_ns(many, || {
        std::hint::black_box(db.under("measure_in_movement", measure, movement).ok());
    });
    let schema = db.schema();
    let score_ty = schema.entity_type_id("SCORE").map_err(e)?;
    let catalog_attr = schema
        .entity_type(score_ty)
        .map_err(e)?
        .attribute_index("catalog_id")
        .ok_or("SCORE has no catalog_id")?;
    let catalog = Value::String(input.score.catalog_id.clone().unwrap_or_default());
    let index_get = if db.has_attr_index(score_ty, catalog_attr) {
        mean_ns(many, || {
            std::hint::black_box(db.attr_index_get(score_ty, catalog_attr, &catalog));
        })
    } else {
        0.0
    };

    // ---- model: construction, on the scratch database ----------------
    let sdb = &mut scratch.db;
    let mut made = Vec::with_capacity(calls);
    let create_entity = p50_us(calls, || {
        sdb.create_entity(
            "NOTE",
            &[
                ("step", Value::String("C".into())),
                ("octave", Value::Integer(4)),
                ("midi_key", Value::Integer(60)),
            ],
        )
        .map(|id| made.push(id))
    })?;
    let chord = sdb.create_entity("CHORD", &[]).map_err(e)?;
    let mut i = 0;
    let ord_append = p50_us(calls, || {
        i += 1;
        sdb.ord_append("note_in_chord", Some(chord), made[i - 1])
    })?;
    let mut i = 0;
    let set_attr = p50_us(calls, || {
        i += 1;
        sdb.set_attr(
            made[i - 1],
            "midi_key",
            Value::Integer(61 + (i % 24) as i64),
        )
    })?;

    // ---- model persistence and storage, on the scratch engine --------
    let engine = scratch.engine.clone();
    let engine = &engine;
    let se = |e: mdm_storage::StorageError| e.to_string();
    let started = Instant::now();
    persist::save(db, engine).map_err(e)?;
    let persist_save_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    engine.checkpoint().map_err(se)?;
    let checkpoint_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let loaded = persist::load(engine).map_err(e)?;
    let persist_load_s = started.elapsed().as_secs_f64();
    if loaded.store().entity_count() != db.store().entity_count() {
        return Err("persist round trip lost entities".into());
    }
    drop(loaded);

    let note_table = engine.table_id("__entities_NOTE").map_err(se)?;
    let started = Instant::now();
    let rows = engine.snapshot().scan(note_table).map_err(se)?.len();
    let scan_us_per_krow = ratio(started.elapsed().as_nanos() as f64 / 1e3, rows as f64 / 1e3);
    let score_table = engine.table_id("__entities_SCORE").map_err(se)?;
    let index_lookup = match engine.index_names(score_table).map_err(se)?.first() {
        Some(index) => {
            let key = mdm_model::encode::value_key(&catalog);
            p50_us(calls, || {
                engine
                    .snapshot()
                    .index_lookup(score_table, index, &key)
                    .map(|_| ())
            })?
        }
        None => 0.0,
    };

    let body = [0x5Au8; 100];
    let log = scratch_engine_dir.join("wal.log");
    let log_before = std::fs::metadata(&log).map_or(0, |m| m.len());
    let before = engine.metrics_snapshot();
    let commit = p50_us(calls, || scratch.commit(&body))?;
    let commits = engine.metrics_snapshot().delta(&before);
    let log_after = std::fs::metadata(&log).map_or(0, |m| m.len());
    let fsync = commits
        .histogram("mdm_wal_fsync_micros")
        .and_then(|h| h.quantile(0.5))
        .unwrap_or(0.0);
    let wal_per_user = ratio(
        log_after.saturating_sub(log_before) as f64,
        (calls * body.len()) as f64,
    );

    // Recovery: the commits above sit in the log past the checkpoint.
    // Dropping an engine checkpoints, so the scratch engine is leaked
    // instead (a process that died) and this open replays the log.
    let Scratch { engine, .. } = scratch;
    std::mem::forget(engine);
    let started = Instant::now();
    let reopened = StorageEngine::open_with_capacity(scratch_engine_dir, pool_pages).map_err(se)?;
    let recovery_open_s = started.elapsed().as_secs_f64();
    drop(reopened);

    let entities = db.store().entity_count();
    out.extend([
        metric("model.ord_children_ns", ord_children, "ns"),
        metric("model.under_ns", under, "ns"),
        metric("model.attr_index_get_ns", index_get, "ns"),
        metric("model.create_entity_us", create_entity, "us"),
        metric("model.ord_append_us", ord_append, "us"),
        metric("model.set_attr_indexed_us", set_attr, "us"),
        metric("model.persist_save_s", persist_save_s, "s"),
        metric("model.persist_load_s", persist_load_s, "s"),
        metric("model.entities_live", entities as f64, "count"),
        metric(
            "model.rss_bytes_per_entity",
            ratio(host::rss_bytes(), entities as f64),
            "B",
        ),
    ]);

    // ---- storage: the measured phase's own counters ------------------
    let hist_mean = |name: &str| delta.histogram(name).and_then(|h| h.mean()).unwrap_or(0.0);
    let hits = counter("mdm_pool_hits_total");
    out.extend([
        metric("storage.commit_p50_us", commit, "us"),
        metric("storage.fsync_p50_us", fsync, "us"),
        metric(
            "storage.fsyncs_per_commit",
            ratio(
                counter("mdm_wal_fsyncs_total"),
                counter("mdm_txn_commits_total"),
            ),
            "ratio",
        ),
        metric(
            "storage.group_commit_batch_mean",
            hist_mean("mdm_wal_group_commit_batch"),
            "count",
        ),
        metric("storage.wal_bytes_per_user_byte", wal_per_user, "ratio"),
        metric(
            "storage.pool_hit_rate",
            ratio(hits, hits + counter("mdm_pool_misses_total")),
            "ratio",
        ),
        metric(
            "storage.pool_evictions",
            counter("mdm_pool_evictions_total"),
            "count",
        ),
        metric("storage.snapshot_scan_us_per_krow", scan_us_per_krow, "us"),
        metric("storage.index_lookup_p50_us", index_lookup, "us"),
        metric("storage.checkpoint_s", checkpoint_s, "s"),
        metric("storage.recovery_open_s", recovery_open_s, "s"),
        metric(
            "storage.lock_waits",
            counter("mdm_lock_waits_total"),
            "count",
        ),
        metric(
            "storage.wait_die_aborts",
            counter("mdm_lock_wait_die_aborts_total"),
            "count",
        ),
    ]);

    // ---- darms / notation / obs --------------------------------------
    let measures = input.darms_measures.max(1) as f64;
    let darms_parse = p50_us(calls, || mdm_darms::parse(input.darms).map(|_| ()))?;
    let items = mdm_darms::parse(input.darms).map_err(|e| e.to_string())?;
    let to_voice = p50_us(calls, || mdm_darms::to_voice(&items).map(|_| ()))?;
    let movement = input
        .score
        .movements
        .first()
        .ok_or("probe score is empty")?;
    let events = p50_us(calls, || {
        std::hint::black_box(mdm_notation::events(movement));
        Ok::<(), String>(())
    })?;
    let snapshot = p50_us(calls, || {
        std::hint::black_box(mdm.metrics_snapshot());
        Ok::<(), String>(())
    })?;
    out.extend([
        metric("darms.parse_us_per_measure", darms_parse / measures, "us"),
        metric("darms.to_voice_us_per_measure", to_voice / measures, "us"),
        metric("notation.events_us_per_score", events, "us"),
        metric("obs.snapshot_us", snapshot, "us"),
    ]);
    Ok(out)
}
