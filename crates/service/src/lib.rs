//! `afg-service` — the grading daemon.
//!
//! A zero-dependency HTTP/1.1 server (hand-rolled on `std::net` with an
//! `epoll` reactor — no async runtime, no libc crate) that fronts the
//! `afg-core` grading engine for classroom/MOOC-scale traffic:
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /problems` | Register an assignment: a built-in benchmark (`{"problem": "compDeriv"}`) or instructor-supplied `{"id", "entry", "reference", "model"}` (MPY source + EML text) |
//! | `POST /problems/{id}/grade` | Grade one submission `{"source": "..."}` |
//! | `POST /problems/{id}/grade/batch` | Grade a corpus `{"sources": [...], "workers": N?}` through [`afg_core::BatchGrader`] |
//! | `GET /stats` | Per-problem outcome counters, fingerprint-cache and verdict-cache hit/miss counters |
//! | `GET /healthz` | Liveness |
//! | `GET /metrics` | Process-wide metrics in Prometheus text exposition (grade latency, per-stage latency, cache ratios, SAT/sweep work) |
//! | `GET /debug/traces` | The most recent grade span trees as JSON (ring capacity set by [`ServiceConfig::trace_ring`]) |
//!
//! Every grade response carries an `X-Afg-Trace-Id` header (unless the
//! daemon runs with tracing disabled); the matching span tree —
//! parse → canonicalize → search → verify, with per-stage wall-clock —
//! is retrievable from `/debug/traces`, and grades slower than
//! [`ServiceConfig::slow_grade`] log their tree to stderr.
//!
//! The daemon has one I/O core and is **Linux-only**: one `epoll` reactor
//! thread multiplexes every connection — incremental push parsing,
//! per-connection state machine, timer-wheel idle/slow-loris timeouts —
//! and executes complete requests on a bounded CPU worker pool, so
//! thousands of idle keep-alive sockets cost no threads.
//!
//! Each registered problem owns an [`afg_core::Autograder`] (shared
//! read-only across connections) and, unless registered with
//! `"cache": false`, an [`afg_core::FingerprintCache`]: submissions that
//! are alpha-equivalent to one already graded — same program modulo
//! variable names and formatting — skip the CEGIS search entirely, and
//! grade responses carry `"cache": "hit" | "miss" | "off"`.
//!
//! ```no_run
//! use afg_json::Json;
//!
//! let handle = afg_service::start(afg_service::ServiceConfig::default())?;
//! let mut client = afg_service::client::Client::connect(handle.addr())?;
//! let (status, _) =
//!     client.post("/problems", &Json::object([("problem", Json::str("compDeriv"))]))?;
//! assert_eq!(status, 201);
//! let (_, graded) = client.post(
//!     "/problems/compDeriv/grade",
//!     &Json::object([("source", Json::str("def computeDeriv(poly):\n    return poly\n"))]),
//! )?;
//! println!("{}", graded.to_pretty());
//! # Ok::<(), std::io::Error>(())
//! ```

#[cfg(not(target_os = "linux"))]
compile_error!(
    "afg-service is Linux-only: its I/O core is an epoll reactor; build the daemon on Linux"
);

pub mod client;
mod handlers;
mod http;
mod reactor;
mod registry;
mod router;
mod server;

pub use http::{EofOutcome, Parse, ParseError, Request, RequestParser, Stage, MAX_BODY};
pub use server::{start, ServerHandle, ServiceConfig};
