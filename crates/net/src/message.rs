//! Typed protocol messages and their payload encodings.
//!
//! Requests occupy tags 1–14, responses 128–140, and the error response
//! is 255, so a stray request tag can never be confused with a response.
//! Every message decodes with [`Message::decode`]; unknown tags and
//! malformed payloads yield typed [`DecodeError`]s, never panics.
//!
//! System state has no messages of its own: statement statistics,
//! metrics, alert states and replication state are the `$statements`,
//! `$metrics` and `$alerts` entities, read with an ordinary
//! [`Message::Query`].

use mdm_core::stream::{Feed, ReplTxn, SeedSlice};
use mdm_lang::{PlanExplain, StmtResult, Table, VarPlan};
use mdm_model::encode::{decode_value, encode_value};
use mdm_model::persist::RowChange;
use mdm_notation::Score;
use mdm_obs::codec::{self, put_bytes, put_len, put_str, Reader};

use crate::error::{DecodeError, ErrorCode};
use crate::scorecodec;

/// Tracing control operation carried by [`Message::TraceControl`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Turn recording on, with an origination sampling period
    /// (`0` keeps the server's current period).
    Enable {
        /// Trace one uncontexted request in this many; `0` = keep.
        sample_every: u64,
    },
    /// Turn recording off.
    Disable,
    /// Set the slow-query threshold: a trace whose root span lasts at
    /// least this many microseconds is retained in the slow ring.
    SlowThreshold {
        /// Threshold in microseconds (`0` = all, `u64::MAX` = none).
        micros: u64,
    },
}

/// A protocol message: every request a client can make and every
/// response a server can return.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // ---- requests (1–14) ----
    /// Opens a session; the server answers with [`Message::HelloAck`].
    Hello {
        /// Client identification, free-form (shown in diagnostics).
        client: String,
        /// The protocol version the client speaks; the server refuses
        /// any but its own [`PROTOCOL_VERSION`](crate::wire::PROTOCOL_VERSION).
        version: u16,
    },
    /// Liveness probe; the server answers with [`Message::Pong`].
    Ping,
    /// A read-only QUEL program (`range of` + `retrieve`), served on the
    /// shared read path — concurrent readers never serialize behind
    /// writers.
    Query {
        /// The program text.
        text: String,
    },
    /// A DDL/DML/QUEL program with write access.
    Execute {
        /// The program text.
        text: String,
    },
    /// Stores a score; the server answers with [`Message::ScoreStored`].
    StoreScore {
        /// The score.
        score: Score,
    },
    /// Loads a score by entity id.
    LoadScore {
        /// SCORE entity id.
        id: u64,
    },
    /// Finds a score by exact title.
    FindScore {
        /// The title.
        title: String,
    },
    /// Lists stored scores.
    ListScores,
    /// Adjusts the server's tracer (enable/disable/slow threshold); the
    /// server answers with [`Message::Pong`].
    TraceControl {
        /// The operation.
        op: TraceOp,
    },
    /// Fetches completed traces; the server answers with
    /// [`Message::TraceDump`].
    TraceFetch {
        /// `false` = the recent ring, `true` = the slow-query ring.
        slow: bool,
        /// At most this many traces, newest first.
        n: u32,
    },
    /// EXPLAINs (and executes) a read-only QUEL program on the shared
    /// read path; the server answers with [`Message::Plan`].
    Explain {
        /// The program text.
        text: String,
    },
    /// A replica pulling the replication stream from the primary; the
    /// server answers with [`Message::ReplBatch`].
    ReplPull {
        /// Stable identity of the pulling replica (for lag tracking).
        replica_id: u64,
        /// The primary LSN the replica resumes from (its watermark), or
        /// the LSN of the seed it is fetching.
        from_lsn: u64,
        /// `0`, or how many bytes of that seed the replica holds.
        seed_offset: u64,
        /// Soft cap on the batch's bytes.
        max_bytes: u32,
    },

    // ---- responses (128–140, 255) ----
    /// Session accepted.
    HelloAck {
        /// Server identification.
        server: String,
        /// The protocol version the server speaks.
        version: u16,
    },
    /// Liveness answer.
    Pong,
    /// Rows from a query.
    Rows {
        /// The result table.
        table: Table,
    },
    /// Per-statement results of an `Execute`.
    Results {
        /// One entry per statement.
        results: Vec<StmtResult>,
    },
    /// A stored score's entity id.
    ScoreStored {
        /// SCORE entity id.
        id: u64,
    },
    /// A loaded score.
    ScoreData {
        /// The score.
        score: Score,
    },
    /// Result of a title search.
    ScoreFound {
        /// The id, if the title matched.
        id: Option<u64>,
    },
    /// The score catalog.
    ScoreList {
        /// `(entity id, title)` pairs.
        scores: Vec<(u64, String)>,
    },
    /// Traces fetched by [`Message::TraceFetch`].
    TraceDump {
        /// Plain-text span trees, newest first.
        text: String,
        /// The same traces as Chrome trace-event JSON.
        chrome_json: String,
    },
    /// The planner's EXPLAIN output plus the rows, answering
    /// [`Message::Explain`].
    Plan {
        /// Access paths and row estimates chosen by the planner.
        explain: PlanExplain,
        /// The result table.
        table: Table,
    },
    /// The stream answering [`Message::ReplPull`]: committed transactions
    /// of row changes, or one seed slice.
    ReplBatch {
        /// The transactions or the slice.
        feed: Feed,
        /// The primary's durable watermark: a replica whose cursor
        /// reached it holds every commit the primary acknowledged.
        durable_lsn: u64,
        /// The primary's monotonic clock (microseconds since its
        /// process start) when it sent the batch; the replica derives
        /// `mdm_repl_lag_seconds` from stamps of the same clock, so no
        /// cross-machine clock agreement is needed. Never `0`.
        sent_micros: u64,
    },
    /// A typed error.
    Error {
        /// Error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// Wire tags. Part of the protocol — append, never renumber. Tags 9, 13,
// 15, 16 and 136, 139, 141, 142 are retired (the admin and replication
// status messages that `Query` over the `$` entities replaced) and must
// not be reused.
const T_HELLO: u16 = 1;
const T_PING: u16 = 2;
const T_QUERY: u16 = 3;
const T_EXECUTE: u16 = 4;
const T_STORE_SCORE: u16 = 5;
const T_LOAD_SCORE: u16 = 6;
const T_FIND_SCORE: u16 = 7;
const T_LIST_SCORES: u16 = 8;
const T_TRACE_CONTROL: u16 = 10;
const T_TRACE_FETCH: u16 = 11;
const T_EXPLAIN: u16 = 12;
const T_REPL_PULL: u16 = 14;
const T_HELLO_ACK: u16 = 128;
const T_PONG: u16 = 129;
const T_ROWS: u16 = 130;
const T_RESULTS: u16 = 131;
const T_SCORE_STORED: u16 = 132;
const T_SCORE_DATA: u16 = 133;
const T_SCORE_FOUND: u16 = 134;
const T_SCORE_LIST: u16 = 135;
const T_TRACE_DUMP: u16 = 137;
const T_PLAN: u16 = 138;
const T_REPL_BATCH: u16 = 140;
const T_ERROR: u16 = 255;

impl Message {
    /// The message's wire tag.
    pub fn msg_type(&self) -> u16 {
        match self {
            Message::Hello { .. } => T_HELLO,
            Message::Ping => T_PING,
            Message::Query { .. } => T_QUERY,
            Message::Execute { .. } => T_EXECUTE,
            Message::StoreScore { .. } => T_STORE_SCORE,
            Message::LoadScore { .. } => T_LOAD_SCORE,
            Message::FindScore { .. } => T_FIND_SCORE,
            Message::ListScores => T_LIST_SCORES,
            Message::TraceControl { .. } => T_TRACE_CONTROL,
            Message::TraceFetch { .. } => T_TRACE_FETCH,
            Message::Explain { .. } => T_EXPLAIN,
            Message::ReplPull { .. } => T_REPL_PULL,
            Message::HelloAck { .. } => T_HELLO_ACK,
            Message::Pong => T_PONG,
            Message::Rows { .. } => T_ROWS,
            Message::Results { .. } => T_RESULTS,
            Message::ScoreStored { .. } => T_SCORE_STORED,
            Message::ScoreData { .. } => T_SCORE_DATA,
            Message::ScoreFound { .. } => T_SCORE_FOUND,
            Message::ScoreList { .. } => T_SCORE_LIST,
            Message::TraceDump { .. } => T_TRACE_DUMP,
            Message::Plan { .. } => T_PLAN,
            Message::ReplBatch { .. } => T_REPL_BATCH,
            Message::Error { .. } => T_ERROR,
        }
    }

    /// Stable request-type label for metrics (`mdm_net_requests_total`).
    pub fn type_name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::Ping => "ping",
            Message::Query { .. } => "query",
            Message::Execute { .. } => "execute",
            Message::StoreScore { .. } => "store_score",
            Message::LoadScore { .. } => "load_score",
            Message::FindScore { .. } => "find_score",
            Message::ListScores => "list_scores",
            Message::TraceControl { .. } => "trace_control",
            Message::TraceFetch { .. } => "trace_fetch",
            Message::Explain { .. } => "explain",
            Message::ReplPull { .. } => "repl_pull",
            Message::HelloAck { .. } => "hello_ack",
            Message::Pong => "pong",
            Message::Rows { .. } => "rows",
            Message::Results { .. } => "results",
            Message::ScoreStored { .. } => "score_stored",
            Message::ScoreData { .. } => "score_data",
            Message::ScoreFound { .. } => "score_found",
            Message::ScoreList { .. } => "score_list",
            Message::TraceDump { .. } => "trace_dump",
            Message::Plan { .. } => "plan",
            Message::ReplBatch { .. } => "repl_batch",
            Message::Error { .. } => "error",
        }
    }

    /// Encodes the payload (everything after the frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Message::Hello {
                client: name,
                version,
            }
            | Message::HelloAck {
                server: name,
                version,
            } => {
                put_str(&mut out, name);
                out.extend_from_slice(&version.to_le_bytes());
            }
            Message::Ping | Message::Pong | Message::ListScores => {}
            Message::ReplPull {
                replica_id,
                from_lsn,
                seed_offset,
                max_bytes,
            } => {
                out.extend_from_slice(&replica_id.to_le_bytes());
                out.extend_from_slice(&from_lsn.to_le_bytes());
                out.extend_from_slice(&seed_offset.to_le_bytes());
                out.extend_from_slice(&max_bytes.to_le_bytes());
            }
            Message::ReplBatch {
                feed,
                durable_lsn,
                sent_micros,
            } => {
                encode_feed(&mut out, feed);
                out.extend_from_slice(&durable_lsn.to_le_bytes());
                out.extend_from_slice(&sent_micros.to_le_bytes());
            }
            Message::TraceControl { op } => {
                let (tag, value): (u8, u64) = match op {
                    TraceOp::Disable => (0, 0),
                    TraceOp::Enable { sample_every } => (1, *sample_every),
                    TraceOp::SlowThreshold { micros } => (2, *micros),
                };
                out.push(tag);
                out.extend_from_slice(&value.to_le_bytes());
            }
            Message::TraceFetch { slow, n } => {
                out.push(*slow as u8);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Message::Query { text } | Message::Execute { text } | Message::Explain { text } => {
                put_str(&mut out, text)
            }
            Message::StoreScore { score } | Message::ScoreData { score } => {
                scorecodec::encode_score(&mut out, score)
            }
            Message::LoadScore { id } | Message::ScoreStored { id } => {
                out.extend_from_slice(&id.to_le_bytes())
            }
            Message::FindScore { title } => put_str(&mut out, title),
            Message::Rows { table } => encode_table(&mut out, table),
            Message::Results { results } => {
                put_len(&mut out, results.len());
                for r in results {
                    encode_stmt_result(&mut out, r);
                }
            }
            Message::ScoreFound { id } => match id {
                Some(id) => {
                    out.push(1);
                    out.extend_from_slice(&id.to_le_bytes());
                }
                None => out.push(0),
            },
            Message::ScoreList { scores } => {
                put_len(&mut out, scores.len());
                for (id, title) in scores {
                    out.extend_from_slice(&id.to_le_bytes());
                    put_str(&mut out, title);
                }
            }
            Message::TraceDump { text, chrome_json } => {
                put_str(&mut out, text);
                put_str(&mut out, chrome_json);
            }
            Message::Plan { explain, table } => {
                put_len(&mut out, explain.vars.len());
                for v in &explain.vars {
                    put_str(&mut out, &v.var);
                    put_str(&mut out, &v.target);
                    put_str(&mut out, &v.path);
                    out.extend_from_slice(&(v.estimated as u64).to_le_bytes());
                    put_str(&mut out, &v.stats);
                }
                out.extend_from_slice(&explain.estimated_rows.to_le_bytes());
                out.extend_from_slice(&explain.actual_rows.to_le_bytes());
                out.extend_from_slice(&explain.rows_scanned.to_le_bytes());
                encode_table(&mut out, table);
            }
            Message::Error { code, message } => {
                out.extend_from_slice(&(*code as u16).to_le_bytes());
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Decodes a payload for `msg_type`. Total: unknown tags and every
    /// malformed payload produce a typed error.
    pub fn decode(msg_type: u16, payload: &[u8]) -> Result<Message, DecodeError> {
        let mut c = Reader::new(payload);
        let msg = match msg_type {
            T_HELLO => Message::Hello {
                client: c.string()?,
                version: c.u16()?,
            },
            T_PING => Message::Ping,
            T_QUERY => Message::Query { text: c.string()? },
            T_EXECUTE => Message::Execute { text: c.string()? },
            T_STORE_SCORE => Message::StoreScore {
                score: scorecodec::decode_score(&mut c)?,
            },
            T_LOAD_SCORE => Message::LoadScore { id: c.u64()? },
            T_FIND_SCORE => Message::FindScore { title: c.string()? },
            T_LIST_SCORES => Message::ListScores,
            T_TRACE_CONTROL => {
                let tag = c.u8()?;
                let value = c.u64()?;
                Message::TraceControl {
                    op: match tag {
                        0 => TraceOp::Disable,
                        1 => TraceOp::Enable {
                            sample_every: value,
                        },
                        2 => TraceOp::SlowThreshold { micros: value },
                        t => return Err(DecodeError::BadPayload(format!("bad trace op {t}"))),
                    },
                }
            }
            T_TRACE_FETCH => Message::TraceFetch {
                slow: c.bool()?,
                n: c.u32()?,
            },
            T_EXPLAIN => Message::Explain { text: c.string()? },
            T_REPL_PULL => Message::ReplPull {
                replica_id: c.u64()?,
                from_lsn: c.u64()?,
                seed_offset: c.u64()?,
                max_bytes: c.u32()?,
            },
            T_HELLO_ACK => Message::HelloAck {
                server: c.string()?,
                version: c.u16()?,
            },
            T_PONG => Message::Pong,
            T_ROWS => Message::Rows {
                table: decode_table(&mut c)?,
            },
            T_RESULTS => Message::Results {
                results: c.list(1, decode_stmt_result)?,
            },
            T_SCORE_STORED => Message::ScoreStored { id: c.u64()? },
            T_SCORE_DATA => Message::ScoreData {
                score: scorecodec::decode_score(&mut c)?,
            },
            T_SCORE_FOUND => Message::ScoreFound {
                id: if c.bool()? { Some(c.u64()?) } else { None },
            },
            T_SCORE_LIST => Message::ScoreList {
                scores: c.list(12, |c| Ok((c.u64()?, c.string()?)))?,
            },
            T_REPL_BATCH => Message::ReplBatch {
                feed: decode_feed(&mut c)?,
                durable_lsn: c.u64()?,
                sent_micros: c.u64()?,
            },
            T_TRACE_DUMP => Message::TraceDump {
                text: c.string()?,
                chrome_json: c.string()?,
            },
            T_PLAN => {
                let vars = c.list(4, |c| {
                    Ok(VarPlan {
                        var: c.string()?,
                        target: c.string()?,
                        path: c.string()?,
                        estimated: c.u64()? as usize,
                        stats: c.string()?,
                    })
                })?;
                let explain = PlanExplain {
                    vars,
                    estimated_rows: c.u64()?,
                    actual_rows: c.u64()?,
                    rows_scanned: c.u64()?,
                };
                Message::Plan {
                    explain,
                    table: decode_table(&mut c)?,
                }
            }
            T_ERROR => {
                let raw = c.u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| DecodeError::BadPayload(format!("bad error code {raw}")))?;
                Message::Error {
                    code,
                    message: c.string()?,
                }
            }
            t => return Err(DecodeError::BadMessageType(t)),
        };
        c.finish()?;
        Ok(msg)
    }
}

// ----------------------------------------------------------------------
// Tables, statement results
// ----------------------------------------------------------------------

fn encode_table(out: &mut Vec<u8>, t: &Table) {
    put_len(out, t.columns.len());
    for col in &t.columns {
        put_str(out, col);
    }
    put_len(out, t.rows.len());
    for row in &t.rows {
        for v in row {
            encode_value(out, v);
        }
    }
}

fn decode_table(c: &mut Reader<'_>) -> codec::Result<Table> {
    let columns = c.list(4, Reader::string)?;
    let ncols = columns.len();
    let rows = c.list(ncols.max(1), |c| {
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(decode_value(c)?);
        }
        Ok(row)
    })?;
    Ok(Table { columns, rows })
}

fn encode_stmt_result(out: &mut Vec<u8>, r: &StmtResult) {
    match r {
        StmtResult::Defined(what) => {
            out.push(0);
            put_str(out, what);
        }
        StmtResult::RangeDeclared => out.push(1),
        StmtResult::Rows(t) => {
            out.push(2);
            encode_table(out, t);
        }
        StmtResult::Appended(n) => {
            out.push(3);
            out.extend_from_slice(&(*n as u64).to_le_bytes());
        }
        StmtResult::Replaced(n) => {
            out.push(4);
            out.extend_from_slice(&(*n as u64).to_le_bytes());
        }
        StmtResult::Deleted(n) => {
            out.push(5);
            out.extend_from_slice(&(*n as u64).to_le_bytes());
        }
    }
}

fn decode_stmt_result(c: &mut Reader<'_>) -> codec::Result<StmtResult> {
    Ok(match c.u8()? {
        0 => StmtResult::Defined(c.string()?),
        1 => StmtResult::RangeDeclared,
        2 => StmtResult::Rows(decode_table(c)?),
        3 => StmtResult::Appended(c.u64()? as usize),
        4 => StmtResult::Replaced(c.u64()? as usize),
        5 => StmtResult::Deleted(c.u64()? as usize),
        t => return Err(codec::Error::Invalid("result tag", t.into())),
    })
}

/// A [`Feed`]: tag 0, the transactions — each its end LSN and its row
/// changes, a change as its table and optional old and new images —
/// then the next cursor; or tag 1, a seed slice.
fn encode_feed(out: &mut Vec<u8>, feed: &Feed) {
    fn put_image(out: &mut Vec<u8>, image: &Option<Vec<u8>>) {
        out.push(image.is_some() as u8);
        if let Some(b) = image {
            put_bytes(out, b);
        }
    }
    match feed {
        Feed::Txns { txns, next_lsn } => {
            out.push(0);
            put_len(out, txns.len());
            for t in txns {
                out.extend_from_slice(&t.end_lsn.to_le_bytes());
                put_len(out, t.changes.len());
                for c in &t.changes {
                    put_str(out, &c.table);
                    put_image(out, &c.old);
                    put_image(out, &c.new);
                }
            }
            out.extend_from_slice(&next_lsn.to_le_bytes());
        }
        Feed::Seed(slice) => {
            out.push(1);
            for v in [slice.lsn, slice.offset, slice.total] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            put_bytes(out, &slice.bytes);
        }
    }
}

fn decode_feed(c: &mut Reader<'_>) -> codec::Result<Feed> {
    fn image(c: &mut Reader<'_>) -> codec::Result<Option<Vec<u8>>> {
        Ok(if c.bool()? { Some(c.bytes()?) } else { None })
    }
    Ok(match c.u8()? {
        0 => Feed::Txns {
            txns: c.list(12, |c| {
                Ok(ReplTxn {
                    end_lsn: c.u64()?,
                    changes: c.list(6, |c| {
                        Ok(RowChange {
                            table: c.string()?,
                            old: image(c)?,
                            new: image(c)?,
                        })
                    })?,
                })
            })?,
            next_lsn: c.u64()?,
        },
        1 => Feed::Seed(SeedSlice {
            lsn: c.u64()?,
            offset: c.u64()?,
            total: c.u64()?,
            bytes: c.bytes()?,
        }),
        t => return Err(codec::Error::Invalid("feed tag", t.into())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_model::Value;
    use mdm_notation::fixtures::bwv578_subject;

    fn roundtrip(m: &Message) -> Message {
        let payload = m.encode_payload();
        Message::decode(m.msg_type(), &payload).expect("roundtrip decode")
    }

    #[test]
    fn every_message_roundtrips() {
        let table = Table {
            columns: vec!["name".into(), "midi_key".into()],
            rows: vec![
                vec![Value::String("Bach".into()), Value::Integer(70)],
                vec![Value::Null, Value::Float(1.5)],
            ],
        };
        let messages = vec![
            Message::Hello {
                client: "shell".into(),
                version: 5,
            },
            Message::Ping,
            Message::Query {
                text: "retrieve (n.midi_key)".into(),
            },
            Message::Execute {
                text: "append to PERSON (name = \"Bach\")".into(),
            },
            Message::StoreScore {
                score: bwv578_subject(),
            },
            Message::LoadScore { id: 17 },
            Message::FindScore {
                title: "Fuge g-moll".into(),
            },
            Message::ListScores,
            Message::TraceControl {
                op: TraceOp::Enable { sample_every: 4 },
            },
            Message::TraceControl {
                op: TraceOp::Disable,
            },
            Message::TraceControl {
                op: TraceOp::SlowThreshold { micros: 12_000 },
            },
            Message::TraceFetch { slow: true, n: 5 },
            Message::Explain {
                text: "range of n is NOTE\nretrieve (n.name)".into(),
            },
            Message::HelloAck {
                server: "mdm 0.1".into(),
                version: 5,
            },
            Message::Pong,
            Message::Rows { table },
            Message::Results {
                results: vec![
                    StmtResult::Defined("entity X".into()),
                    StmtResult::RangeDeclared,
                    StmtResult::Appended(3),
                    StmtResult::Replaced(1),
                    StmtResult::Deleted(2),
                    StmtResult::Rows(Table {
                        columns: vec!["a".into()],
                        rows: vec![vec![Value::Boolean(true)]],
                    }),
                ],
            },
            Message::ScoreStored { id: 5 },
            Message::ScoreData {
                score: bwv578_subject(),
            },
            Message::ScoreFound { id: Some(9) },
            Message::ScoreFound { id: None },
            Message::ScoreList {
                scores: vec![(1, "a".into()), (2, "b".into())],
            },
            Message::TraceDump {
                text: "trace ab (1 us, 1 spans)\n".into(),
                chrome_json: "{\"traceEvents\":[]}".into(),
            },
            Message::Plan {
                explain: PlanExplain {
                    vars: vec![
                        VarPlan {
                            var: "n".into(),
                            target: "NOTE".into(),
                            path: "index-eq(name)".into(),
                            estimated: 1,
                            stats: "live=44 distinct=40 est=1".into(),
                        },
                        VarPlan {
                            var: "c".into(),
                            target: "CHORD".into(),
                            path: "scan".into(),
                            estimated: 40,
                            stats: String::new(),
                        },
                    ],
                    estimated_rows: 40,
                    actual_rows: 4,
                    rows_scanned: 44,
                },
                table: Table {
                    columns: vec!["name".into()],
                    rows: vec![vec![Value::Integer(52)]],
                },
            },
            Message::ReplPull {
                replica_id: 7,
                from_lsn: 42,
                seed_offset: 9,
                max_bytes: 1 << 20,
            },
            Message::ReplBatch {
                feed: Feed::Txns {
                    txns: vec![ReplTxn {
                        end_lsn: 44,
                        changes: vec![
                            RowChange {
                                table: "__entities_NOTE".into(),
                                old: None,
                                new: Some(vec![1, 2, 3]),
                            },
                            RowChange {
                                table: "__orderings".into(),
                                old: Some(vec![0xff; 9]),
                                new: None,
                            },
                        ],
                    }],
                    next_lsn: 48,
                },
                durable_lsn: 48,
                sent_micros: 1_700_000,
            },
            Message::ReplBatch {
                feed: Feed::Seed(SeedSlice {
                    lsn: 42,
                    offset: 100,
                    total: 300,
                    bytes: vec![7; 100],
                }),
                durable_lsn: 45,
                sent_micros: 2,
            },
            Message::Error {
                code: ErrorCode::NotFound,
                message: "no such score: @9".into(),
            },
            Message::Error {
                code: ErrorCode::ReadOnly,
                message: "replica is read-only".into(),
            },
        ];
        assert_eq!(messages.len(), PINNED_PAYLOADS.len());
        for (m, pinned) in messages.iter().zip(PINNED_PAYLOADS) {
            assert_eq!(hex(&m.encode_payload()), *pinned, "{}", m.type_name());
            assert_eq!(&roundtrip(m), m);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `bwv578_subject()`, as `encode_score` writes it.
    const BWV578_SUBJECT: &str = concat!(
        "0b0000004675676520672d6d6f6c6c01070000004257562035373801150000004a6f68616e6e2053",
        "656261737469616e2042616368010000000400000046756765040401000000000000000000000001",
        "0000000000000000000000000055400001000000070000007375626a656374050000006f7267616e",
        "06000000747265626c65fe1500000000010000004700040000000000000700000071756172746572",
        "00010100010000004400050000000000000700000071756172746572000101000100000042ff0400",
        "00000000000700000071756172746572010101000100000041000400000000000006000000656967",
        "687468000101000100000047000400000000000006000000656967687468000101000100000042ff",
        "04000000000000060000006569676874680001010001000000410004000000000000060000006569",
        "67687468000101000100000047000400000000000006000000656967687468000101000100000046",
        "01040000000000000600000065696768746800010100010000004100040000000000000600000065",
        "69676874680001010001000000440004000000000000070000007175617274657200010100010000",
        "00440004000000000000090000007369787465656e74680001010001000000450004000000000000",
        "090000007369787465656e7468000101000100000046010400000000000009000000736978746565",
        "6e74680001010001000000470004000000000000090000007369787465656e746800010100010000",
        "00410004000000000000090000007369787465656e7468000101000100000042ff04000000000000",
        "090000007369787465656e7468000101000100000043000500000000000009000000736978746565",
        "6e74680001010001000000410004000000000000090000007369787465656e746800010100010000",
        "0042ff04000000000000070000007175617274657200010100010000004700040000000000000700",
        "0000717561727465720001010000000000000000",
    );

    /// The payloads of `every_message_roundtrips`, in its order.
    const PINNED_PAYLOADS: &[&str] = &[
        "050000007368656c6c0500",                             // hello
        "",                                                   // ping
        "15000000726574726965766520286e2e6d6964695f6b657929", // query
        "20000000617070656e6420746f20504552534f4e20286e616d65203d2022426163682229", // execute
        BWV578_SUBJECT,                                       // store_score
        "1100000000000000",                                   // load_score
        "0b0000004675676520672d6d6f6c6c",                     // find_score
        "",                                                   // list_scores
        "010400000000000000",                                 // trace_control
        "000000000000000000",                                 // trace_control
        "02e02e000000000000",                                 // trace_control
        "0105000000",                                         // trace_fetch
        // explain
        "2400000072616e6765206f66206e206973204e4f54450a726574726965766520286e2e6e616d6529",
        "070000006d646d20302e310500", // hello_ack
        "",                           // pong
        // rows
        concat!(
            "02000000040000006e616d65080000006d6964695f6b657902000000030400000042616368014600",
            "0000000000000002000000000000f83f",
        ),
        // results
        concat!(
            "060000000008000000656e7469747920580103030000000000000004010000000000000005020000",
            "000000000002010000000100000061010000000401",
        ),
        "0500000000000000",   // score_stored
        BWV578_SUBJECT,       // score_data
        "010900000000000000", // score_found
        "00",                 // score_found
        "020000000100000000000000010000006102000000000000000100000062", // score_list
        // trace_dump
        concat!(
            "1900000074726163652061622028312075732c2031207370616e73290a120000007b227472616365",
            "4576656e7473223a5b5d7d",
        ),
        // plan
        concat!(
            "02000000010000006e040000004e4f54450e000000696e6465782d6571286e616d65290100000000",
            "000000190000006c6976653d34342064697374696e63743d3430206573743d310100000063050000",
            "0043484f5244040000007363616e2800000000000000000000002800000000000000040000000000",
            "00002c0000000000000001000000040000006e616d6501000000013400000000000000",
        ),
        "07000000000000002a00000000000000090000000000000000001000", // repl_pull
        // repl_batch
        concat!(
            "00010000002c00000000000000020000000f0000005f5f656e7469746965735f4e4f544500010300",
            "00000102030b0000005f5f6f72646572696e67730109000000ffffffffffffffffff003000000000",
            "0000003000000000000000a0f0190000000000",
        ),
        // repl_batch
        concat!(
            "012a0000000000000064000000000000002c01000000000000640000000707070707070707070707",
            "07070707070707070707070707070707070707070707070707070707070707070707070707070707",
            "07070707070707070707070707070707070707070707070707070707070707070707070707070707",
            "0707070707070707072d000000000000000200000000000000",
        ),
        "0300110000006e6f20737563682073636f72653a204039", // error
        "0900140000007265706c69636120697320726561642d6f6e6c79", // error
    ];

    #[test]
    fn fields_older_versions_omitted_are_required() {
        // A Hello without its version, an ack without its version and a
        // batch without its send stamp are truncated, not older dialects.
        let mut name_only = Vec::new();
        put_str(&mut name_only, "peer");
        assert_eq!(
            Message::decode(T_HELLO, &name_only),
            Err(DecodeError::Truncated)
        );
        assert_eq!(
            Message::decode(T_HELLO_ACK, &name_only),
            Err(DecodeError::Truncated)
        );
        let mut unstamped = Vec::new();
        put_len(&mut unstamped, 0);
        unstamped.extend_from_slice(&8u64.to_le_bytes());
        assert_eq!(
            Message::decode(T_REPL_BATCH, &unstamped),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn retired_admin_tags_are_unknown() {
        for tag in [9, 13, 15, 16, 136, 139, 141, 142] {
            assert_eq!(
                Message::decode(tag, &[]),
                Err(DecodeError::BadMessageType(tag))
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(
            Message::decode(77, &[]),
            Err(DecodeError::BadMessageType(77))
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut payload = Message::Ping.encode_payload();
        payload.push(0);
        assert!(matches!(
            Message::decode(T_PING, &payload),
            Err(DecodeError::BadPayload(_))
        ));
    }

    #[test]
    fn bad_error_code_rejected() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&9999u16.to_le_bytes());
        put_str(&mut payload, "x");
        assert!(matches!(
            Message::decode(T_ERROR, &payload),
            Err(DecodeError::BadPayload(_))
        ));
    }
}
