#![warn(missing_docs)]

//! # light-serve — the resident query service
//!
//! The paper's engine answers one query per process; its serving story
//! (shared with the SEED/CECI line of work) assumes the opposite shape:
//! the data graph is loaded and preprocessed **once**, then queried many
//! times. This crate is that shape — a long-lived daemon in front of the
//! parallel engine:
//!
//! * [`GraphCatalog`] — named graphs loaded once (binary snapshots, text
//!   edge lists, or built-in datasets) behind `Arc<CsrGraph>`, each with
//!   precomputed [`light_graph::stats::GraphStats`];
//! * [`PlanCache`] — repeated patterns skip order / exec-order / aux-plan
//!   search, keyed by `(pattern, graph, planning-relevant config)`;
//! * [`QueryService`] — admission control (`max_concurrent` permits, a
//!   bounded wait queue, typed `overloaded` rejections), per-query
//!   deadlines and [`light_core::CancelToken`]-based cancellation, and
//!   aggregate service metrics surfaced by a `stats` request;
//! * [`server`] — newline-delimited JSON over stdin/stdout and a Unix
//!   domain socket (`std::os::unix::net`, dependency-free), with graceful
//!   drain on SIGINT / `shutdown`.
//!
//! The CLI front end is `light serve` (daemon) and `light query` (client);
//! see `docs/serve.md` for the protocol and DESIGN.md §12 for the
//! architecture.
//!
//! ```
//! use std::sync::Arc;
//! use light_serve::{GraphCatalog, QueryService, ServeConfig};
//!
//! let mut catalog = GraphCatalog::new();
//! catalog
//!     .insert("demo", light_graph::generators::barabasi_albert(300, 3, 7))
//!     .unwrap();
//! let svc = Arc::new(QueryService::new(catalog, ServeConfig::default()));
//! let resp = svc.handle_line(r#"{"op":"query","pattern":"triangle","id":1}"#);
//! assert!(resp.contains("\"status\":\"ok\""));
//! ```

pub mod catalog;
pub mod json;
pub mod plan_cache;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
pub mod service;

pub use catalog::{CatalogEntry, GraphCatalog, GraphView};
pub use plan_cache::{PlanCache, PlanKey, PLAN_CACHE_CAP};
pub use protocol::{ErrorCode, Request, WireOutcome, MAX_REQUEST_BYTES};
#[cfg(target_os = "linux")]
pub use reactor::ReactorServer;
pub use server::{drain, serve_connection, serve_stdio, DrainReport, SocketServer};
pub use service::{QueryService, ServeConfig, ServiceMetrics};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use light_graph::generators;
    use std::sync::Arc;

    fn demo_service(cfg: ServeConfig) -> Arc<QueryService> {
        let mut catalog = GraphCatalog::new();
        catalog
            .insert("demo", generators::barabasi_albert(250, 3, 11))
            .unwrap();
        Arc::new(QueryService::new(catalog, cfg))
    }

    fn field(resp: &str, name: &str) -> Json {
        protocol::response_field(resp, name).unwrap_or_else(|| panic!("missing {name} in {resp}"))
    }

    #[test]
    fn query_counts_match_direct_run() {
        let svc = demo_service(ServeConfig::default());
        let entry = svc.catalog().get("demo").unwrap();
        let expect = light_core::run_query(
            &light_pattern::Query::P2.pattern(),
            &entry.graph(),
            &svc.config().engine,
        )
        .matches;

        let resp = svc.handle_line(r#"{"op":"query","pattern":"P2","graph":"demo","id":1}"#);
        assert_eq!(field(&resp, "status").as_str(), Some("ok"));
        assert_eq!(field(&resp, "matches").as_u64(), Some(expect));
        assert_eq!(field(&resp, "plan_cache").as_str(), Some("miss"));

        // Same pattern again: plan-cache hit, same count.
        let resp2 = svc.handle_line(r#"{"op":"query","pattern":"P2","graph":"demo","id":2}"#);
        assert_eq!(field(&resp2, "plan_cache").as_str(), Some("hit"));
        assert_eq!(field(&resp2, "matches").as_u64(), Some(expect));
        assert!(svc.plan_cache().hit_rate() > 0.0);
    }

    #[test]
    fn sole_graph_is_default_and_errors_are_typed() {
        let svc = demo_service(ServeConfig::default());
        let ok = svc.handle_line(r#"{"op":"query","pattern":"triangle"}"#);
        assert_eq!(field(&ok, "status").as_str(), Some("ok"));
        assert_eq!(field(&ok, "graph").as_str(), Some("demo"));

        let e = svc.handle_line(r#"{"op":"query","pattern":"triangle","graph":"nope"}"#);
        assert_eq!(field(&e, "code").as_str(), Some("unknown_graph"));
        let e = svc.handle_line(r#"{"op":"query","pattern":"zigzag"}"#);
        assert_eq!(field(&e, "code").as_str(), Some("bad_pattern"));
        let e = svc.handle_line("garbage");
        assert_eq!(field(&e, "code").as_str(), Some("bad_request"));
        let e = svc.handle_line(r#"{"op":"frobnicate"}"#);
        assert_eq!(field(&e, "code").as_str(), Some("unknown_op"));
    }

    #[test]
    fn stats_and_catalog_ops() {
        let svc = demo_service(ServeConfig::default());
        svc.handle_line(r#"{"op":"query","pattern":"P1"}"#);
        svc.handle_line(r#"{"op":"query","pattern":"P1"}"#);

        let stats = svc.handle_line(r#"{"op":"stats","id":"s"}"#);
        let doc = Json::parse(&stats).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        let q = doc.get("queries").unwrap();
        assert_eq!(q.get("total").and_then(Json::as_u64), Some(2));
        assert_eq!(q.get("ok").and_then(Json::as_u64), Some(2));
        let pc = doc.get("plan_cache").unwrap();
        assert_eq!(pc.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(pc.get("misses").and_then(Json::as_u64), Some(1));

        let with_engine = svc.handle_line(r#"{"op":"stats","engine":true}"#);
        assert!(Json::parse(&with_engine).unwrap().get("engine").is_some());

        let cat = svc.handle_line(r#"{"op":"catalog","id":9}"#);
        let doc = Json::parse(&cat).unwrap();
        match doc.get("graphs") {
            Some(Json::Arr(gs)) => {
                assert_eq!(gs.len(), 1);
                assert_eq!(gs[0].get("name").and_then(Json::as_str), Some("demo"));
                assert!(gs[0].get("vertices").and_then(Json::as_u64).unwrap() > 0);
            }
            other => panic!("expected graphs array, got {other:?}"),
        }

        let pong = svc.handle_line(r#"{"op":"ping"}"#);
        assert_eq!(field(&pong, "pong").as_bool(), Some(true));
    }

    #[test]
    fn shutdown_op_drains() {
        let svc = demo_service(ServeConfig::default());
        let ack = svc.handle_line(r#"{"op":"shutdown"}"#);
        assert_eq!(field(&ack, "draining").as_bool(), Some(true));
        assert!(svc.is_draining());
        let e = svc.handle_line(r#"{"op":"query","pattern":"P1"}"#);
        assert_eq!(field(&e, "code").as_str(), Some("draining"));
        let rep = drain(&svc);
        assert_eq!(rep.cancelled, 0);
    }

    #[test]
    fn serve_connection_over_buffers() {
        let svc = demo_service(ServeConfig::default());
        let input =
            b"{\"op\":\"ping\",\"id\":1}\n\n{\"op\":\"query\",\"pattern\":\"triangle\",\"id\":2}\n"
                .to_vec();
        let mut out: Vec<u8> = Vec::new();
        serve_connection(&svc, &input[..], &mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(field(lines[0], "pong").as_bool(), Some(true));
        assert_eq!(field(lines[1], "status").as_str(), Some("ok"));
        // Unterminated final line is still served.
        let mut out2: Vec<u8> = Vec::new();
        serve_connection(&svc, &b"{\"op\":\"ping\"}"[..], &mut out2, false).unwrap();
        assert!(String::from_utf8(out2).unwrap().contains("pong"));
    }

    #[test]
    fn oversized_line_gets_typed_error_and_close() {
        let svc = demo_service(ServeConfig::default());
        let big = format!(
            "{{\"op\":\"ping\",\"pad\":\"{}\"}}\n{{\"op\":\"ping\"}}\n",
            "x".repeat(MAX_REQUEST_BYTES + 10)
        );
        let mut out: Vec<u8> = Vec::new();
        serve_connection(&svc, big.as_bytes(), &mut out, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // One error response, then hang-up (the second ping is never read).
        assert_eq!(lines.len(), 1, "{text}");
        assert_eq!(field(lines[0], "status").as_str(), Some("error"));
    }
}
