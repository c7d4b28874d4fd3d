//! Routing: one complete [`Request`] in, one [`Reply`] out.
//!
//! The router is pure compute — no sockets, no blocking I/O: the epoll
//! reactor's CPU workers call `handle` and encode the [`Reply`] it returns.

use afg_json::{Json, ToJson};
use afg_obs::TraceRing;

use crate::handlers::{handle_batch, handle_grade, handle_register};
use crate::http::{encode_response, Request};
use crate::server::ServiceState;

/// A fully-formed response.  Handlers return this rather than
/// `(status, Json)` so routes can carry non-JSON bodies (`/metrics` is
/// Prometheus text) and per-response headers (`X-Afg-Trace-Id`).
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) headers: Vec<(&'static str, String)>,
    pub(crate) body: String,
}

impl Reply {
    pub(crate) fn json(status: u16, body: Json) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.to_string(),
        }
    }

    /// Serializes the response through the shared wire encoder.
    pub(crate) fn encode(&self, keep_alive: bool) -> Vec<u8> {
        encode_response(
            self.status,
            self.content_type,
            &self.headers,
            &self.body,
            keep_alive,
        )
    }
}

pub(crate) fn error_json(message: &str) -> Json {
    Json::object([("error", Json::str(message))])
}

/// Routes one request.  Paths:
/// `POST /problems`, `POST /problems/{id}/grade`,
/// `POST /problems/{id}/grade/batch`, `GET /stats`, `GET /healthz`,
/// `GET /metrics` (Prometheus text), `GET /debug/traces`.
pub(crate) fn handle(request: &Request, state: &ServiceState) -> Reply {
    let registry = &state.registry;
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Reply::json(
            200,
            Json::object([
                ("status", Json::str("ok")),
                ("problems", registry.len().to_json()),
            ]),
        ),
        ("GET", ["stats"]) => Reply::json(200, registry.stats_json()),
        ("GET", ["metrics"]) => Reply {
            status: 200,
            content_type: afg_obs::CONTENT_TYPE,
            headers: Vec::new(),
            body: afg_obs::global().render_prometheus(),
        },
        ("GET", ["debug", "traces"]) => Reply::json(200, traces_json(&state.traces)),
        ("POST", ["problems"]) => {
            let (status, body) = handle_register(request, registry);
            Reply::json(status, body)
        }
        ("POST", ["problems", id, "grade"]) => handle_grade(request, state, id),
        ("POST", ["problems", id, "grade", "batch"]) => handle_batch(request, state, id),
        (_, ["healthz" | "stats" | "metrics"])
        | (_, ["debug", "traces"])
        | (_, ["problems", ..]) => Reply::json(405, error_json("method not allowed")),
        _ => Reply::json(404, error_json("no such route")),
    }
}

/// The `/debug/traces` rendering of the recent-trace ring: every span's
/// name, parent index, offset and duration, oldest trace first.
fn traces_json(ring: &TraceRing) -> Json {
    let traces: Vec<Json> = ring
        .snapshot()
        .iter()
        .map(|trace| {
            let spans: Vec<Json> = trace
                .spans()
                .iter()
                .map(|span| {
                    let attrs: Vec<(String, Json)> = span
                        .attrs
                        .iter()
                        .map(|(key, value)| (key.to_string(), Json::str(value)))
                        .collect();
                    Json::object([
                        ("name", Json::str(span.name)),
                        (
                            "parent",
                            match span.parent {
                                Some(parent) => parent.to_json(),
                                None => Json::Null,
                            },
                        ),
                        ("start_ms", span.start.to_json()),
                        ("duration_ms", span.duration.to_json()),
                        ("attrs", Json::Object(attrs)),
                    ])
                })
                .collect();
            Json::object([
                ("id", Json::str(trace.id().to_string())),
                ("started_unix_ms", trace.started_unix().to_json()),
                ("duration_ms", trace.duration().to_json()),
                ("spans", Json::Array(spans)),
            ])
        })
        .collect();
    Json::object([
        ("capacity", ring.capacity().to_json()),
        ("traces", Json::Array(traces)),
    ])
}
