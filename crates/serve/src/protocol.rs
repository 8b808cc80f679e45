//! The serve wire protocol: newline-delimited JSON, one request per line,
//! one response line per request, in order.
//!
//! See `docs/serve.md` for the field reference. The protocol is
//! deliberately flat and versioned by field presence, not negotiation:
//! unknown request fields are ignored, unknown ops are a typed error, and
//! every response carries a `status` from a closed set —
//! `ok` | `partial` | `error` | `overloaded` — so clients can dispatch
//! without guessing.
//!
//! Requests:
//!
//! ```text
//! {"op":"query","pattern":"P2","graph":"yt","id":1,"priority":5,
//!  "timeout_ms":5000,"threads":4,"variant":"light","profile":false}
//! {"op":"update","graph":"yt","inserts":[[0,1],[2,3]],"deletes":[[4,5]],
//!  "compact":false}
//! {"op":"subscribe","pattern":"triangle","graph":"yt"}
//! {"op":"unsubscribe","sub":3}
//! {"op":"stats","engine":false}
//! {"op":"catalog"}
//! {"op":"health"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! `id` is echoed verbatim on the response (any JSON scalar); requests
//! without one get `"id":null`. `overloaded` responses carry a computed
//! `retry_after_ms` backoff hint; `internal_error` responses (a supervised
//! panic) echo the id plus the graph/pattern context of the query that
//! tripped it.

use crate::json::{Json, ObjWriter};

/// Upper bound on one request line. Far beyond any legitimate request
/// (patterns are ≤ 8 vertices); a client streaming an unbounded "line"
/// must not buffer the daemon to death.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Upper bound on edges in one `update` batch (inserts + deletes). Keeps
/// the per-batch delta-maintenance work bounded; bulk loads should go
/// through `light convert` + daemon restart instead.
pub const MAX_UPDATE_EDGES: usize = 4096;

/// Machine-readable error codes (the `code` field of error responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON / not an object / missing or bad fields.
    BadRequest,
    /// `op` was not one of the known operations.
    UnknownOp,
    /// `graph` named nothing in the catalog.
    UnknownGraph,
    /// `pattern` did not parse as a catalog name or edge list.
    BadPattern,
    /// The query was structurally invalid for the target graph.
    BadQuery,
    /// The daemon is draining and accepts no new queries.
    Draining,
    /// The graph's backing snapshot shrank or was replaced on disk; the
    /// mapping can no longer be read safely (SIGBUS guard).
    GraphUnhealthy,
    /// Internal failure (a supervised panic; always a bug, never fatal).
    Internal,
}

impl ErrorCode {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownOp => "unknown_op",
            ErrorCode::UnknownGraph => "unknown_graph",
            ErrorCode::BadPattern => "bad_pattern",
            ErrorCode::BadQuery => "bad_query",
            ErrorCode::Draining => "draining",
            ErrorCode::GraphUnhealthy => "graph_unhealthy",
            ErrorCode::Internal => "internal_error",
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Run a pattern query (the workhorse).
    Query(QueryRequest),
    /// Apply a batch of edge deletes-then-inserts to a catalog graph.
    Update(UpdateRequest),
    /// Register a maintained count for a (pattern, graph) pair.
    Subscribe(SubscribeRequest),
    /// Drop a maintained count by subscription id.
    Unsubscribe {
        /// Echoed request id (rendered form).
        id: String,
        /// Subscription id returned by `subscribe`.
        sub: u64,
    },
    /// Service + engine metrics snapshot.
    Stats {
        /// Echoed request id (rendered form).
        id: String,
        /// Include the full `light-metrics` recorder document.
        engine: bool,
    },
    /// List resident graphs with their precomputed stats.
    Catalog {
        /// Echoed request id (rendered form).
        id: String,
    },
    /// Readiness + liveness report (catalog health, executor heartbeat,
    /// queue depth, memory watermark).
    Health {
        /// Echoed request id (rendered form).
        id: String,
    },
    /// Liveness probe.
    Ping {
        /// Echoed request id (rendered form).
        id: String,
    },
    /// Begin a graceful drain (same path as SIGINT).
    Shutdown {
        /// Echoed request id (rendered form).
        id: String,
    },
}

/// Fields of a `query` request.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Echoed request id (rendered JSON scalar; `"null"` when absent).
    pub id: String,
    /// Pattern: `P1`..`P7`, `triangle`, or an `a-b,c-d` edge list.
    pub pattern: String,
    /// Catalog graph name; `None` defers to the daemon's sole graph.
    pub graph: Option<String>,
    /// Per-query deadline override, milliseconds.
    pub timeout_ms: Option<u64>,
    /// Worker threads for this query (capped by the daemon).
    pub threads: Option<usize>,
    /// Engine variant override (`se`|`lm`|`msc`|`light`).
    pub variant: Option<String>,
    /// Attach a per-query metrics recorder and return its JSON document.
    pub profile: bool,
    /// Admission priority, `0..=9` (default 5). Under overload, queued
    /// low-priority work is shed first to admit higher-priority arrivals.
    pub priority: u8,
}

/// Fields of an `update` request.
#[derive(Debug, Clone)]
pub struct UpdateRequest {
    /// Echoed request id (rendered JSON scalar; `"null"` when absent).
    pub id: String,
    /// Catalog graph name; `None` defers to the daemon's sole graph.
    pub graph: Option<String>,
    /// Edges to delete, applied before the inserts.
    pub deletes: Vec<(u32, u32)>,
    /// Edges to insert.
    pub inserts: Vec<(u32, u32)>,
    /// Force folding the overlay into a fresh base snapshot now.
    pub compact: bool,
}

/// Fields of a `subscribe` request.
#[derive(Debug, Clone)]
pub struct SubscribeRequest {
    /// Echoed request id (rendered JSON scalar; `"null"` when absent).
    pub id: String,
    /// Pattern: `P1`..`P7`, `triangle`, or an `a-b,c-d` edge list.
    pub pattern: String,
    /// Catalog graph name; `None` defers to the daemon's sole graph.
    pub graph: Option<String>,
}

/// Render a request `id` field for echoing: any scalar is kept verbatim,
/// structured ids are rejected by the caller, absence becomes `null`.
fn render_id(v: Option<&Json>) -> Result<String, String> {
    match v {
        None => Ok("null".to_string()),
        Some(Json::Arr(_)) | Some(Json::Obj(_)) => {
            Err("\"id\" must be a scalar (string, number, bool, or null)".into())
        }
        Some(scalar) => Ok(scalar.to_string()),
    }
}

/// Parse one request line. `Err` carries `(echoed-id, message)` for a
/// `bad_request`/`unknown_op` response — the id is recovered when the line
/// at least parsed as an object.
pub fn parse_request(line: &str) -> Result<Request, (String, ErrorCode, String)> {
    if line.len() > MAX_REQUEST_BYTES {
        return Err((
            "null".into(),
            ErrorCode::BadRequest,
            format!("request exceeds {MAX_REQUEST_BYTES} bytes"),
        ));
    }
    let doc = Json::parse(line).map_err(|e| {
        (
            "null".to_string(),
            ErrorCode::BadRequest,
            format!("invalid JSON: {e}"),
        )
    })?;
    if !matches!(doc, Json::Obj(_)) {
        return Err((
            "null".into(),
            ErrorCode::BadRequest,
            "request must be a JSON object".into(),
        ));
    }
    let id =
        render_id(doc.get("id")).map_err(|m| ("null".to_string(), ErrorCode::BadRequest, m))?;
    let fail = |code: ErrorCode, msg: String| (id.clone(), code, msg);

    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(ErrorCode::BadRequest, "missing string field \"op\"".into()))?;

    let str_field = |name: &str| -> Result<Option<String>, (String, ErrorCode, String)> {
        match doc.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(Json::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(fail(
                ErrorCode::BadRequest,
                format!("field \"{name}\" must be a string"),
            )),
        }
    };
    let u64_field = |name: &str| -> Result<Option<u64>, (String, ErrorCode, String)> {
        match doc.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                fail(
                    ErrorCode::BadRequest,
                    format!("field \"{name}\" must be a non-negative integer"),
                )
            }),
        }
    };
    let bool_field = |name: &str| -> Result<bool, (String, ErrorCode, String)> {
        match doc.get(name) {
            None | Some(Json::Null) => Ok(false),
            Some(v) => v.as_bool().ok_or_else(|| {
                fail(
                    ErrorCode::BadRequest,
                    format!("field \"{name}\" must be a boolean"),
                )
            }),
        }
    };

    // `[[a,b],...]` edge arrays for the `update` op. Endpoints must be
    // non-negative integers that fit a vertex id; loops and duplicates
    // are tolerated here and normalized by the overlay.
    let edges_field = |name: &str| -> Result<Vec<(u32, u32)>, (String, ErrorCode, String)> {
        let bad = |msg: String| fail(ErrorCode::BadRequest, msg);
        match doc.get(name) {
            None | Some(Json::Null) => Ok(Vec::new()),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|item| match item {
                    Json::Arr(pair) if pair.len() == 2 => {
                        let v = |j: &Json| {
                            j.as_u64()
                                .filter(|&x| x <= u32::MAX as u64)
                                .map(|x| x as u32)
                        };
                        match (v(&pair[0]), v(&pair[1])) {
                            (Some(a), Some(b)) => Ok((a, b)),
                            _ => Err(bad(format!(
                                "field \"{name}\": edge endpoints must be u32 integers"
                            ))),
                        }
                    }
                    _ => Err(bad(format!(
                        "field \"{name}\" must be an array of [a,b] pairs"
                    ))),
                })
                .collect(),
            Some(_) => Err(bad(format!(
                "field \"{name}\" must be an array of [a,b] pairs"
            ))),
        }
    };

    match op {
        "query" => {
            let pattern = str_field("pattern")?.ok_or_else(|| {
                fail(
                    ErrorCode::BadRequest,
                    "query needs a string field \"pattern\"".into(),
                )
            })?;
            let graph = str_field("graph")?;
            let timeout_ms = u64_field("timeout_ms")?;
            let threads = u64_field("threads")?.map(|t| t as usize);
            let variant = str_field("variant")?;
            let profile = bool_field("profile")?;
            let priority = match u64_field("priority")? {
                None => 5,
                Some(p @ 0..=9) => p as u8,
                Some(p) => {
                    return Err(fail(
                        ErrorCode::BadRequest,
                        format!("field \"priority\" must be 0..=9, got {p}"),
                    ))
                }
            };
            Ok(Request::Query(QueryRequest {
                id,
                pattern,
                graph,
                timeout_ms,
                threads,
                variant,
                profile,
                priority,
            }))
        }
        "update" => {
            let graph = str_field("graph")?;
            let deletes = edges_field("deletes")?;
            let inserts = edges_field("inserts")?;
            let compact = bool_field("compact")?;
            if deletes.is_empty() && inserts.is_empty() && !compact {
                return Err(fail(
                    ErrorCode::BadRequest,
                    "update needs \"inserts\", \"deletes\", or \"compact\":true".into(),
                ));
            }
            if deletes.len() + inserts.len() > MAX_UPDATE_EDGES {
                return Err(fail(
                    ErrorCode::BadRequest,
                    format!("update batch exceeds {MAX_UPDATE_EDGES} edges"),
                ));
            }
            Ok(Request::Update(UpdateRequest {
                id,
                graph,
                deletes,
                inserts,
                compact,
            }))
        }
        "subscribe" => {
            let pattern = str_field("pattern")?.ok_or_else(|| {
                fail(
                    ErrorCode::BadRequest,
                    "subscribe needs a string field \"pattern\"".into(),
                )
            })?;
            let graph = str_field("graph")?;
            Ok(Request::Subscribe(SubscribeRequest { id, pattern, graph }))
        }
        "unsubscribe" => {
            let sub = u64_field("sub")?.ok_or_else(|| {
                fail(
                    ErrorCode::BadRequest,
                    "unsubscribe needs an integer field \"sub\"".into(),
                )
            })?;
            Ok(Request::Unsubscribe { id, sub })
        }
        "stats" => {
            let engine = bool_field("engine")?;
            Ok(Request::Stats { id, engine })
        }
        "catalog" => Ok(Request::Catalog { id }),
        "health" => Ok(Request::Health { id }),
        "ping" => Ok(Request::Ping { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(fail(ErrorCode::UnknownOp, format!("unknown op {other:?}"))),
    }
}

/// How a finished query is classified on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOutcome {
    /// Exhaustive count.
    Complete,
    /// Deadline (`timeout_ms` or the daemon default) expired.
    Timeout,
    /// Cancelled (drain grace expired under load).
    Cancelled,
    /// Per-query memory watermark hit.
    MemoryExceeded,
    /// One or more worker panics were contained; count covers surviving
    /// subtrees.
    PartialPanic,
}

impl WireOutcome {
    /// Wire spelling of the outcome.
    pub fn as_str(self) -> &'static str {
        match self {
            WireOutcome::Complete => "complete",
            WireOutcome::Timeout => "timeout",
            WireOutcome::Cancelled => "cancelled",
            WireOutcome::MemoryExceeded => "memory_exceeded",
            WireOutcome::PartialPanic => "partial_panic",
        }
    }
}

/// Result fields of a finished query, rendered into an `ok`/`partial`
/// response line.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Echoed id.
    pub id: String,
    /// Matches counted (partial outcomes: matches so far).
    pub matches: u64,
    /// How the run ended.
    pub outcome: WireOutcome,
    /// Enumeration wall time, milliseconds.
    pub elapsed_ms: f64,
    /// Time spent queued behind admission control, milliseconds.
    pub queue_ms: f64,
    /// Whether the plan came from the cache.
    pub plan_cache_hit: bool,
    /// Graph the query ran against.
    pub graph: String,
    /// Contained worker panics (0 on healthy runs).
    pub failures: u64,
    /// `--profile`-style recorder document, when requested.
    pub profile: Option<String>,
}

/// Render a query result line.
pub fn render_result(r: &QueryResult) -> String {
    let mut w = ObjWriter::new();
    w.raw("id", &r.id)
        .str(
            "status",
            if r.outcome == WireOutcome::Complete {
                "ok"
            } else {
                "partial"
            },
        )
        .u64("matches", r.matches)
        .str("outcome", r.outcome.as_str())
        .str("graph", &r.graph)
        .f64("elapsed_ms", r.elapsed_ms)
        .f64("queue_ms", r.queue_ms)
        .str("plan_cache", if r.plan_cache_hit { "hit" } else { "miss" });
    if r.failures > 0 {
        w.u64("failures", r.failures);
    }
    if let Some(p) = &r.profile {
        w.raw("profile", p);
    }
    w.finish()
}

/// Render a typed error line.
pub fn render_error(id: &str, code: ErrorCode, message: &str) -> String {
    let mut w = ObjWriter::new();
    w.raw("id", id)
        .str("status", "error")
        .str("code", code.as_str())
        .str("error", message);
    w.finish()
}

/// Render an admission-control rejection. `queue_depth`/`max_concurrent`
/// tell the client what bound it hit; `retry_after_ms` is the daemon's
/// estimate of when a slot frees up (clients should back off at least
/// that long, with jitter). `shed` marks a request that was queued and
/// then displaced by higher-priority work.
pub fn render_overloaded(
    id: &str,
    in_flight: usize,
    queued: usize,
    limit: usize,
    retry_after_ms: u64,
    shed: bool,
) -> String {
    let mut w = ObjWriter::new();
    w.raw("id", id)
        .str("status", "overloaded")
        .str(
            "error",
            if shed {
                "queued work shed for higher-priority arrivals; retry after backoff"
            } else {
                "admission queue full; retry later or lower request rate"
            },
        )
        .u64("in_flight", in_flight as u64)
        .u64("queued", queued as u64)
        .u64("max_concurrent", limit as u64)
        .u64("retry_after_ms", retry_after_ms);
    if shed {
        w.bool("shed", true);
    }
    w.finish()
}

/// Render a supervised-panic response: a typed `internal_error` carrying
/// the echoed id, the panic message, and the query context (graph,
/// pattern, transport stage) so the bug is attributable from the client
/// side alone.
pub fn render_internal(id: &str, panic_msg: &str, context: &[(&str, &str)]) -> String {
    let mut w = ObjWriter::new();
    w.raw("id", id)
        .str("status", "error")
        .str("code", ErrorCode::Internal.as_str())
        .str(
            "error",
            &format!("query execution panicked (contained): {panic_msg}"),
        );
    for (k, v) in context {
        w.str(k, v);
    }
    w.finish()
}

/// Best-effort id recovery from a raw request line, for responses built
/// after the parsed request is gone (a panic unwound past it). Falls back
/// to `null` — never fails, never panics.
pub fn echo_id(line: &str) -> String {
    Json::parse(line.trim())
        .ok()
        .and_then(|doc| render_id(doc.get("id")).ok())
        .unwrap_or_else(|| "null".to_string())
}

/// Render a `ping` response.
pub fn render_pong(id: &str) -> String {
    let mut w = ObjWriter::new();
    w.raw("id", id).str("status", "ok").bool("pong", true);
    w.finish()
}

/// Render a `shutdown` acknowledgement.
pub fn render_shutdown_ack(id: &str) -> String {
    let mut w = ObjWriter::new();
    w.raw("id", id).str("status", "ok").bool("draining", true);
    w.finish()
}

/// One maintained count's state after an update, echoed in the `update`
/// response so subscribers see their new counts without a round trip.
#[derive(Debug, Clone)]
pub struct SubscriptionDelta {
    /// Subscription id.
    pub sub: u64,
    /// Pattern spec the subscription was registered with.
    pub pattern: String,
    /// Maintained reduced count after the batch.
    pub count: u64,
    /// Raw embeddings destroyed by the batch.
    pub destroyed: u64,
    /// Raw embeddings created by the batch.
    pub created: u64,
}

/// Result fields of a committed `update`.
#[derive(Debug, Clone)]
pub struct UpdateResult {
    /// Echoed id.
    pub id: String,
    /// Graph the batch applied to.
    pub graph: String,
    /// Graph generation after the commit (monotone per entry).
    pub generation: u64,
    /// Edges actually inserted (after normalization and presence checks).
    pub inserted: u64,
    /// Edges actually deleted.
    pub deleted: u64,
    /// Insert requests that were loops, duplicates, or already present.
    pub dup_inserts: u64,
    /// Delete requests for edges that were not present.
    pub missing_deletes: u64,
    /// Overlay edges still pending after the batch.
    pub pending: u64,
    /// Whether the overlay was folded into a fresh base (and the backing
    /// snapshot rewritten, for snapshot-backed entries).
    pub compacted: bool,
    /// Wall time to apply + maintain, milliseconds.
    pub elapsed_ms: f64,
    /// Post-batch state of every maintained count on this graph.
    pub subscriptions: Vec<SubscriptionDelta>,
}

/// Render an `update` response line.
pub fn render_update(r: &UpdateResult) -> String {
    let subs: Vec<String> = r
        .subscriptions
        .iter()
        .map(|s| {
            let mut w = ObjWriter::new();
            w.u64("sub", s.sub)
                .str("pattern", &s.pattern)
                .u64("count", s.count)
                .u64("destroyed", s.destroyed)
                .u64("created", s.created);
            w.finish()
        })
        .collect();
    let mut w = ObjWriter::new();
    w.raw("id", &r.id)
        .str("status", "ok")
        .str("graph", &r.graph)
        .u64("generation", r.generation)
        .u64("inserted", r.inserted)
        .u64("deleted", r.deleted)
        .u64("dup_inserts", r.dup_inserts)
        .u64("missing_deletes", r.missing_deletes)
        .u64("pending", r.pending)
        .bool("compacted", r.compacted)
        .f64("elapsed_ms", r.elapsed_ms)
        .raw("subscriptions", &format!("[{}]", subs.join(",")));
    w.finish()
}

/// Render a `subscribe` response line: the new subscription id plus the
/// full count the registration just computed.
pub fn render_subscribed(
    id: &str,
    sub: u64,
    graph: &str,
    pattern: &str,
    generation: u64,
    count: u64,
    elapsed_ms: f64,
) -> String {
    let mut w = ObjWriter::new();
    w.raw("id", id)
        .str("status", "ok")
        .u64("sub", sub)
        .str("graph", graph)
        .str("pattern", pattern)
        .u64("generation", generation)
        .u64("count", count)
        .f64("elapsed_ms", elapsed_ms);
    w.finish()
}

/// Render an `unsubscribe` response line.
pub fn render_unsubscribed(id: &str, sub: u64, removed: bool) -> String {
    let mut w = ObjWriter::new();
    w.raw("id", id)
        .str("status", "ok")
        .u64("sub", sub)
        .bool("removed", removed);
    w.finish()
}

/// Render one catalog entry as an object (used by the `catalog` response).
/// `healthy:false` marks an mmap-backed graph whose snapshot shrank or was
/// replaced on disk (see the SIGBUS guard in `catalog.rs`). `generation`
/// counts committed updates; `pending` is the overlay edges not yet folded
/// into the base.
pub fn render_catalog_entry(e: &crate::catalog::CatalogEntry) -> String {
    let view = e.view();
    let stats = view.stats;
    let mut w = ObjWriter::new();
    w.str("name", &e.name)
        .str("source", &e.source)
        .str("format", e.format)
        .str("backend", e.backend())
        .bool(
            "healthy",
            e.healthy.load(std::sync::atomic::Ordering::Relaxed),
        )
        .u64("vertices", stats.num_vertices as u64)
        .u64("edges", stats.num_edges as u64)
        .u64("max_degree", stats.max_degree as u64)
        .u64("triangles", stats.triangles)
        .u64("generation", view.generation)
        .u64("pending", e.pending_edges() as u64)
        .f64("load_ms", e.load_ms);
    w.finish()
}

/// Render the `catalog` response from rendered entries.
pub fn render_catalog(id: &str, entries: &[String]) -> String {
    let mut w = ObjWriter::new();
    w.raw("id", id)
        .str("status", "ok")
        .raw("graphs", &format!("[{}]", entries.join(",")));
    w.finish()
}

/// Convenience for tests: pull `field` out of a rendered response line.
pub fn response_field(line: &str, field: &str) -> Option<Json> {
    Json::parse(line).ok()?.get(field).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_query_request() {
        let r = parse_request(
            r#"{"op":"query","pattern":"P2","graph":"yt","id":7,"timeout_ms":100,"threads":2,"profile":true}"#,
        )
        .unwrap();
        match r {
            Request::Query(q) => {
                assert_eq!(q.id, "7");
                assert_eq!(q.pattern, "P2");
                assert_eq!(q.graph.as_deref(), Some("yt"));
                assert_eq!(q.timeout_ms, Some(100));
                assert_eq!(q.threads, Some(2));
                assert!(q.profile);
            }
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn id_is_echoed_verbatim() {
        for (req, want) in [
            (r#"{"op":"ping","id":"abc"}"#, "\"abc\""),
            (r#"{"op":"ping","id":3.5}"#, "3.5"),
            (r#"{"op":"ping","id":null}"#, "null"),
            (r#"{"op":"ping"}"#, "null"),
        ] {
            match parse_request(req).unwrap() {
                Request::Ping { id } => assert_eq!(id, want),
                other => panic!("{other:?}"),
            }
        }
        // Structured ids are rejected.
        let (_, code, _) = parse_request(r#"{"op":"ping","id":[1]}"#).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
    }

    #[test]
    fn typed_parse_failures() {
        let cases: &[(&str, ErrorCode)] = &[
            ("not json", ErrorCode::BadRequest),
            ("[1,2,3]", ErrorCode::BadRequest),
            (r#"{"pattern":"P1"}"#, ErrorCode::BadRequest), // missing op
            (r#"{"op":"nope"}"#, ErrorCode::UnknownOp),
            (r#"{"op":"query"}"#, ErrorCode::BadRequest), // missing pattern
            (r#"{"op":"query","pattern":7}"#, ErrorCode::BadRequest),
            (
                r#"{"op":"query","pattern":"P1","timeout_ms":-5}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"op":"query","pattern":"P1","threads":"x"}"#,
                ErrorCode::BadRequest,
            ),
            (
                r#"{"op":"query","pattern":"P1","profile":"yes"}"#,
                ErrorCode::BadRequest,
            ),
        ];
        for (line, want) in cases {
            let (_, code, _) = parse_request(line).unwrap_err();
            assert_eq!(code, *want, "line {line:?}");
        }
        // The unknown-op error still echoes the id.
        let (id, _, _) = parse_request(r#"{"op":"nope","id":9}"#).unwrap_err();
        assert_eq!(id, "9");
    }

    #[test]
    fn priority_parses_and_validates() {
        match parse_request(r#"{"op":"query","pattern":"P1"}"#).unwrap() {
            Request::Query(q) => assert_eq!(q.priority, 5),
            other => panic!("{other:?}"),
        }
        match parse_request(r#"{"op":"query","pattern":"P1","priority":9}"#).unwrap() {
            Request::Query(q) => assert_eq!(q.priority, 9),
            other => panic!("{other:?}"),
        }
        for bad in [
            r#"{"op":"query","pattern":"P1","priority":10}"#,
            r#"{"op":"query","pattern":"P1","priority":-1}"#,
            r#"{"op":"query","pattern":"P1","priority":"high"}"#,
        ] {
            let (_, code, _) = parse_request(bad).unwrap_err();
            assert_eq!(code, ErrorCode::BadRequest, "line {bad:?}");
        }
    }

    #[test]
    fn health_op_parses() {
        match parse_request(r#"{"op":"health","id":2}"#).unwrap() {
            Request::Health { id } => assert_eq!(id, "2"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn echo_id_recovers_scalar_ids() {
        assert_eq!(echo_id(r#"{"op":"query","id":7}"#), "7");
        assert_eq!(echo_id(r#"{"op":"query","id":"q-1"}"#), "\"q-1\"");
        assert_eq!(echo_id(r#"{"op":"query"}"#), "null");
        assert_eq!(echo_id("not json at all"), "null");
        assert_eq!(echo_id(r#"{"op":"query","id":[1]}"#), "null");
    }

    #[test]
    fn oversized_line_rejected() {
        let big = format!(
            "{{\"op\":\"ping\",\"pad\":\"{}\"}}",
            "x".repeat(MAX_REQUEST_BYTES)
        );
        let (_, code, msg) = parse_request(&big).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(msg.contains("exceeds"));
    }

    #[test]
    fn response_renderers_emit_valid_json() {
        let res = render_result(&QueryResult {
            id: "1".into(),
            matches: 123,
            outcome: WireOutcome::Complete,
            elapsed_ms: 4.2,
            queue_ms: 0.0,
            plan_cache_hit: true,
            graph: "g".into(),
            failures: 0,
            profile: None,
        });
        assert_eq!(response_field(&res, "status").unwrap().as_str(), Some("ok"));
        assert_eq!(response_field(&res, "matches").unwrap().as_u64(), Some(123));
        assert_eq!(
            response_field(&res, "plan_cache").unwrap().as_str(),
            Some("hit")
        );

        let partial = render_result(&QueryResult {
            id: "null".into(),
            matches: 5,
            outcome: WireOutcome::Timeout,
            elapsed_ms: 100.0,
            queue_ms: 1.5,
            plan_cache_hit: false,
            graph: "g".into(),
            failures: 2,
            profile: Some("{\"enabled\":false}".into()),
        });
        assert_eq!(
            response_field(&partial, "status").unwrap().as_str(),
            Some("partial")
        );
        assert_eq!(
            response_field(&partial, "outcome").unwrap().as_str(),
            Some("timeout")
        );
        assert_eq!(
            response_field(&partial, "failures").unwrap().as_u64(),
            Some(2)
        );

        let err = render_error("null", ErrorCode::UnknownGraph, "no graph \"x\"");
        assert_eq!(
            response_field(&err, "code").unwrap().as_str(),
            Some("unknown_graph")
        );

        let ov = render_overloaded("3", 4, 8, 4, 125, false);
        assert_eq!(
            response_field(&ov, "status").unwrap().as_str(),
            Some("overloaded")
        );
        assert_eq!(
            response_field(&ov, "max_concurrent").unwrap().as_u64(),
            Some(4)
        );
        assert_eq!(
            response_field(&ov, "retry_after_ms").unwrap().as_u64(),
            Some(125)
        );
        assert!(response_field(&ov, "shed").is_none());
        let shed = render_overloaded("3", 4, 8, 4, 125, true);
        assert_eq!(response_field(&shed, "shed").unwrap().as_bool(), Some(true));

        let internal = render_internal("9", "boom", &[("graph", "g"), ("pattern", "P2")]);
        assert_eq!(
            response_field(&internal, "code").unwrap().as_str(),
            Some("internal_error")
        );
        assert_eq!(
            response_field(&internal, "status").unwrap().as_str(),
            Some("error")
        );
        assert_eq!(
            response_field(&internal, "graph").unwrap().as_str(),
            Some("g")
        );
        assert!(response_field(&internal, "error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("boom"));

        assert_eq!(
            response_field(&render_pong("null"), "pong")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        assert_eq!(
            response_field(&render_shutdown_ack("null"), "draining")
                .unwrap()
                .as_bool(),
            Some(true)
        );
    }

    #[test]
    fn parses_update_request() {
        let r = parse_request(
            r#"{"op":"update","graph":"g","inserts":[[0,1],[2,3]],"deletes":[[4,5]],"id":"u1"}"#,
        )
        .unwrap();
        match r {
            Request::Update(u) => {
                assert_eq!(u.id, "\"u1\"");
                assert_eq!(u.graph.as_deref(), Some("g"));
                assert_eq!(u.inserts, vec![(0, 1), (2, 3)]);
                assert_eq!(u.deletes, vec![(4, 5)]);
                assert!(!u.compact);
            }
            other => panic!("expected update, got {other:?}"),
        }
        // A pure compaction request carries no edges at all.
        match parse_request(r#"{"op":"update","compact":true}"#).unwrap() {
            Request::Update(u) => {
                assert!(u.compact);
                assert!(u.inserts.is_empty() && u.deletes.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_parse_failures_are_typed() {
        let cases: &[&str] = &[
            // No edges and no compact: nothing to do.
            r#"{"op":"update"}"#,
            r#"{"op":"update","compact":false}"#,
            // Malformed edge arrays.
            r#"{"op":"update","inserts":[[0]]}"#,
            r#"{"op":"update","inserts":[[0,1,2]]}"#,
            r#"{"op":"update","inserts":[0,1]}"#,
            r#"{"op":"update","inserts":"0-1"}"#,
            r#"{"op":"update","inserts":[["a","b"]]}"#,
            r#"{"op":"update","deletes":[[-1,2]]}"#,
            r#"{"op":"update","inserts":[[4294967296,0]]}"#,
        ];
        for line in cases {
            let (_, code, _) = parse_request(line).unwrap_err();
            assert_eq!(code, ErrorCode::BadRequest, "line {line:?}");
        }

        // A batch over the cap is refused up front, before any graph work.
        let edges: Vec<String> = (0..=MAX_UPDATE_EDGES as u64)
            .map(|i| format!("[{i},{}]", i + 1))
            .collect();
        let big = format!("{{\"op\":\"update\",\"inserts\":[{}]}}", edges.join(","));
        let (_, code, msg) = parse_request(&big).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(msg.contains("exceeds") || msg.contains("bytes"), "{msg}");
    }

    #[test]
    fn parses_subscribe_and_unsubscribe() {
        match parse_request(r#"{"op":"subscribe","pattern":"triangle","graph":"g","id":1}"#)
            .unwrap()
        {
            Request::Subscribe(s) => {
                assert_eq!(s.pattern, "triangle");
                assert_eq!(s.graph.as_deref(), Some("g"));
                assert_eq!(s.id, "1");
            }
            other => panic!("{other:?}"),
        }
        match parse_request(r#"{"op":"unsubscribe","sub":7}"#).unwrap() {
            Request::Unsubscribe { sub, .. } => assert_eq!(sub, 7),
            other => panic!("{other:?}"),
        }
        // Missing required fields stay typed.
        let (_, code, _) = parse_request(r#"{"op":"subscribe"}"#).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        let (_, code, _) = parse_request(r#"{"op":"unsubscribe"}"#).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        let (_, code, _) = parse_request(r#"{"op":"unsubscribe","sub":"x"}"#).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
    }

    #[test]
    fn update_and_subscription_renderers_emit_valid_json() {
        let res = render_update(&UpdateResult {
            id: "\"u\"".into(),
            graph: "g".into(),
            generation: 3,
            inserted: 2,
            deleted: 1,
            dup_inserts: 1,
            missing_deletes: 0,
            pending: 5,
            compacted: false,
            elapsed_ms: 0.7,
            subscriptions: vec![SubscriptionDelta {
                sub: 1,
                pattern: "triangle".into(),
                count: 42,
                destroyed: 3,
                created: 9,
            }],
        });
        assert_eq!(response_field(&res, "status").unwrap().as_str(), Some("ok"));
        assert_eq!(
            response_field(&res, "generation").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(response_field(&res, "inserted").unwrap().as_u64(), Some(2));
        assert_eq!(response_field(&res, "pending").unwrap().as_u64(), Some(5));
        assert_eq!(
            response_field(&res, "compacted").unwrap().as_bool(),
            Some(false)
        );
        let subs = response_field(&res, "subscriptions").expect("subscriptions array");
        match &subs {
            Json::Arr(items) => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].get("sub").and_then(Json::as_u64), Some(1));
                assert_eq!(items[0].get("count").and_then(Json::as_u64), Some(42));
                assert_eq!(
                    items[0].get("pattern").and_then(Json::as_str),
                    Some("triangle")
                );
            }
            other => panic!("subscriptions must be an array, got {other:?}"),
        }

        let sub = render_subscribed("\"s\"", 4, "g", "p2", 7, 1234, 0.3);
        assert_eq!(response_field(&sub, "status").unwrap().as_str(), Some("ok"));
        assert_eq!(response_field(&sub, "sub").unwrap().as_u64(), Some(4));
        assert_eq!(response_field(&sub, "count").unwrap().as_u64(), Some(1234));
        assert_eq!(
            response_field(&sub, "generation").unwrap().as_u64(),
            Some(7)
        );

        let un = render_unsubscribed("null", 4, true);
        assert_eq!(
            response_field(&un, "removed").unwrap().as_bool(),
            Some(true)
        );
        let un = render_unsubscribed("null", 9, false);
        assert_eq!(
            response_field(&un, "removed").unwrap().as_bool(),
            Some(false)
        );
    }
}
