//! The request handlers behind the router: problem registration, single
//! grading, and batch grading.

use std::time::{Duration, Instant};

use afg_core::{
    Autograder, BatchGrader, ClusterIndex, FingerprintCache, GradeOutcome, GraderConfig,
};
use afg_eml::parse_error_model;
use afg_json::{parse_json, Json, ToJson};
use afg_obs::Trace;

use crate::http::Request;
use crate::registry::{OutcomeCounters, ProblemEntry, Registry};
use crate::router::{error_json, Reply};
use crate::server::ServiceState;

/// Most workers a single batch request may ask for — a remote client must
/// not be able to make the daemon spawn an arbitrary number of OS threads.
const MAX_BATCH_WORKERS: usize = 64;

/// Stable outcome label for the `afg_grade_outcomes_total` counter and
/// the root span's `outcome` attribute.
fn outcome_label(outcome: &GradeOutcome) -> &'static str {
    match outcome {
        GradeOutcome::SyntaxError(_) => "syntax_error",
        GradeOutcome::Correct => "correct",
        GradeOutcome::Feedback(_) => "fixed",
        GradeOutcome::CannotFix => "cannot_fix",
        GradeOutcome::Timeout => "timeout",
    }
}

fn parse_body(request: &Request) -> Result<Json, (u16, Json)> {
    let text =
        std::str::from_utf8(&request.body).map_err(|_| (400, error_json("body is not UTF-8")))?;
    parse_json(text).map_err(|err| (400, error_json(&err.to_string())))
}

/// Hands each field of the JSON-object request body `body` (`what` names it
/// in errors) to `field`, which answers `Err` for an unknown key or a bad
/// value.  A non-object body and a key repeated from an earlier pair are
/// errors too.  `field` fails on the first unknown key, so every key before
/// the current one is a distinct accepted one and the repeat scan is bounded
/// by their number, however many pairs a hostile body holds.
fn for_each_field<'a>(
    body: &'a Json,
    what: &str,
    mut field: impl FnMut(&'a str, &'a Json) -> Result<(), String>,
) -> Result<(), String> {
    let Some(pairs) = body.as_object() else {
        return Err(format!("{what} must be a JSON object"));
    };
    for (index, (key, value)) in pairs.iter().enumerate() {
        if pairs[..index].iter().any(|(seen, _)| seen == key) {
            return Err(format!("duplicate field '{key}'"));
        }
        field(key, value)?;
    }
    Ok(())
}

/// A type-checked `POST /problems` body.  Unknown or repeated keys,
/// wrongly typed values and negative budgets are errors naming the field,
/// never silently ignored: a typo must not register a problem with
/// default settings.
#[derive(Default)]
struct Registration<'a> {
    problem: Option<&'a str>,
    id: Option<&'a str>,
    entry: Option<&'a str>,
    reference: Option<&'a str>,
    model: Option<&'a str>,
    backend: Option<afg_core::Backend>,
    cache: Option<bool>,
    clustering: Option<bool>,
    /// [`GraderConfig::fast`]'s search budget with the body's
    /// `max_cost`, `max_candidates` and `time_budget_ms` applied.
    synthesis: afg_core::SynthesisConfig,
}

impl<'a> Registration<'a> {
    fn parse(body: &'a Json) -> Result<Registration<'a>, String> {
        let mut registration = Registration {
            synthesis: GraderConfig::fast().synthesis,
            ..Registration::default()
        };
        for_each_field(body, "registration body", |key, value| {
            let string = || {
                value
                    .as_str()
                    .ok_or_else(|| format!("'{key}' must be a string"))
            };
            let boolean = || {
                value
                    .as_bool()
                    .ok_or_else(|| format!("'{key}' must be a boolean"))
            };
            let count = || {
                let n = value
                    .as_i64()
                    .ok_or_else(|| format!("'{key}' must be an integer"))?;
                usize::try_from(n).map_err(|_| format!("'{key}' must not be negative: {n}"))
            };
            match key {
                "problem" => registration.problem = Some(string()?),
                "id" => registration.id = Some(string()?),
                "entry" => registration.entry = Some(string()?),
                "reference" => registration.reference = Some(string()?),
                "model" => registration.model = Some(string()?),
                "backend" => {
                    let name = string()?;
                    let backend = afg_core::Backend::parse(name).ok_or_else(|| {
                        format!("unknown backend '{name}' (expected cegis or enum)")
                    })?;
                    registration.backend = Some(backend);
                }
                "cache" => registration.cache = Some(boolean()?),
                "clustering" => registration.clustering = Some(boolean()?),
                "max_cost" => registration.synthesis.max_cost = count()?,
                "max_candidates" => registration.synthesis.max_candidates = count()?,
                "time_budget_ms" => {
                    let budget_ms = value
                        .as_f64()
                        .ok_or_else(|| format!("'{key}' must be a number"))?;
                    // Negative, or too large for a `Duration`.
                    registration.synthesis.time_budget =
                        Duration::try_from_secs_f64(budget_ms / 1e3)
                            .map_err(|_| format!("'{key}' is out of range: {budget_ms}"))?;
                }
                _ => return Err(format!("unknown field '{key}'")),
            }
            Ok(())
        })?;
        Ok(registration)
    }
}

/// The submission of a `POST /problems/{id}/grade` body, `{"source": "..."}`;
/// any other key is an error naming it.
fn parse_grade_body(body: &Json) -> Result<&str, String> {
    let mut source = None;
    for_each_field(body, "grade body", |key, value| match key {
        "source" => {
            source = Some(value.as_str().ok_or("'source' must be a string")?);
            Ok(())
        }
        _ => Err(format!("unknown field '{key}'")),
    })?;
    source.ok_or_else(|| "missing string field 'source'".to_string())
}

/// A type-checked `POST /problems/{id}/grade/batch` body.
struct BatchBody<'a> {
    sources: Vec<&'a str>,
    /// The requested worker count (positive), or `None` for the default.
    workers: Option<usize>,
}

impl<'a> BatchBody<'a> {
    fn parse(body: &'a Json) -> Result<BatchBody<'a>, String> {
        let mut sources = None;
        let mut workers = None;
        for_each_field(body, "batch body", |key, value| {
            match key {
                "sources" => {
                    let items = value.as_array().ok_or("'sources' must be an array")?;
                    let strings = items.iter().enumerate().map(|(i, item)| {
                        item.as_str()
                            .ok_or_else(|| format!("sources[{i}] is not a string"))
                    });
                    sources = Some(strings.collect::<Result<Vec<_>, _>>()?);
                }
                "workers" => {
                    let n = value.as_i64().ok_or("'workers' must be an integer")?;
                    let n = usize::try_from(n)
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("'workers' must be positive: {n}"))?;
                    workers = Some(n);
                }
                _ => return Err(format!("unknown field '{key}'")),
            }
            Ok(())
        })?;
        Ok(BatchBody {
            sources: sources.ok_or("missing array field 'sources'")?,
            workers,
        })
    }
}

/// `POST /problems` — body:
/// `{"problem": "compDeriv"}` registers a built-in benchmark problem, or
/// `{"id", "entry", "reference", "model"}` registers instructor-supplied
/// MPY reference source plus an EML error-model text.  Optional fields:
/// `"cache": bool` (default true), `"clustering": bool` (default true;
/// skeleton-cluster repair transfer, effective only with the cache),
/// `"max_cost"`, `"max_candidates"`, `"time_budget_ms"` (search budget
/// overrides, non-negative) and
/// `"backend": "cegis" | "enum"` (search engine).  Every
/// grade of the problem is one search under that budget and backend.  A
/// body with any other key, a known key of the wrong JSON type, or an
/// unknown backend name is answered `400` naming the field.  The new
/// registration shares the equivalence oracle of any live one with an
/// equal reference, entry and input space.
pub(crate) fn handle_register(request: &Request, registry: &Registry) -> (u16, Json) {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let registration = match Registration::parse(&body) {
        Ok(registration) => registration,
        Err(message) => return (400, error_json(&message)),
    };

    let mut config = GraderConfig {
        synthesis: registration.synthesis,
        ..GraderConfig::fast()
    };
    if let Some(backend) = registration.backend {
        config.backend = backend;
    }
    let use_cache = registration.cache.unwrap_or(true);
    // Cluster transfer rides on the cache-miss path, so it is only
    // meaningful when the cache is on.
    let use_clustering = use_cache && registration.clustering.unwrap_or(true);

    let (id, reference, entry, model) = if let Some(problem_id) = registration.problem {
        let Some(problem) = afg_corpus::problems::problem(problem_id) else {
            return (
                404,
                error_json(&format!("unknown built-in problem '{problem_id}'")),
            );
        };
        let id = registration.id.unwrap_or(problem.id).to_string();
        (id, problem.reference, problem.entry, problem.model.clone())
    } else {
        fn field<'a>(name: &str, value: Option<&'a str>) -> Result<&'a str, String> {
            value.ok_or_else(|| format!("missing string field '{name}'"))
        }
        let (id, entry, reference, model_text) = match (
            field("id", registration.id),
            field("entry", registration.entry),
            field("reference", registration.reference),
            field("model", registration.model),
        ) {
            (Ok(id), Ok(entry), Ok(reference), Ok(model)) => (id, entry, reference, model),
            (id, entry, reference, model) => {
                let message = [id.err(), entry.err(), reference.err(), model.err()]
                    .into_iter()
                    .flatten()
                    .collect::<Vec<_>>()
                    .join("; ");
                return (400, error_json(&message));
            }
        };
        let model = match parse_error_model(id, model_text) {
            Ok(model) => model,
            Err(err) => return (422, error_json(&format!("error model: {err}"))),
        };
        (id.to_string(), reference, entry, model)
    };

    // Registration is rare, so a scan of the live registrations finds an
    // equal reference whose oracle this one can share.
    let live = registry.entries();
    let built = Autograder::parse_reference(reference).and_then(|reference| {
        Autograder::sharing(
            reference,
            entry,
            model,
            config,
            live.iter().map(|problem| &problem.grader),
        )
    });

    match built {
        Ok(grader) => {
            let response = Json::object([
                ("id", Json::str(&id)),
                ("entry", Json::str(grader.entry())),
                ("cache", Json::Bool(use_cache)),
                ("clustering", Json::Bool(use_clustering)),
                ("backend", Json::str(grader.config().backend.name())),
            ]);
            registry.insert(ProblemEntry {
                id,
                grader,
                cache: use_cache.then(FingerprintCache::new),
                clusters: use_clustering.then(ClusterIndex::new),
                counters: OutcomeCounters::default(),
            });
            (201, response)
        }
        Err(err) => (422, error_json(&err.to_string())),
    }
}

/// `POST /problems/{id}/grade` — body `{"source": "..."}`; any other key,
/// a repeated one or a non-string `source` is answered `400` naming it.
pub(crate) fn handle_grade(request: &Request, state: &ServiceState, id: &str) -> Reply {
    let Some(entry) = state.registry.get(id) else {
        return Reply::json(404, error_json(&format!("no problem '{id}'")));
    };
    let body = match parse_body(request) {
        Ok(body) => body,
        Err((status, body)) => return Reply::json(status, body),
    };
    let source = match parse_grade_body(&body) {
        Ok(source) => source,
        Err(message) => return Reply::json(400, error_json(&message)),
    };

    // One trace per request (when tracing is on): installed for the
    // duration of grading so every pipeline stage span lands in it.
    let trace = state.tracing.then(Trace::new);
    let start = Instant::now();
    let (outcome, cache_state, transfer_state) = {
        let _guard = trace.as_ref().map(|trace| trace.install());
        let mut root = afg_obs::span("grade");
        let (outcome, cache_state, transfer_state) = match &entry.cache {
            Some(cache) => {
                let (outcome, disposition) =
                    entry
                        .grader
                        .grade_source_clustered(source, cache, entry.clusters.as_ref());
                (
                    outcome,
                    if disposition.cache_hit { "hit" } else { "miss" },
                    match disposition.transfer {
                        Some(true) => "hit",
                        Some(false) => "miss",
                        None => "none",
                    },
                )
            }
            None => (entry.grader.grade_source(source), "off", "none"),
        };
        root.attr("problem", id);
        root.attr("cache", cache_state);
        root.attr("transfer", transfer_state);
        root.attr("outcome", outcome_label(&outcome));
        (outcome, cache_state, transfer_state)
    };
    let elapsed = start.elapsed();
    entry.counters.record(&outcome, cache_state == "hit");
    afg_obs::counter!("afg_grades_total", "Grade requests served").inc();
    afg_obs::histogram!(
        "afg_grade_seconds",
        "End-to-end grade request latency",
        1e-6
    )
    .record_duration(elapsed);
    afg_obs::global()
        .counter(
            "afg_grade_outcomes_total",
            "Grade requests served, by outcome",
            &[("outcome", outcome_label(&outcome))],
        )
        .inc();

    let mut headers = Vec::new();
    if let Some(trace) = trace {
        if state
            .slow_grade
            .is_some_and(|threshold| elapsed >= threshold)
        {
            eprintln!(
                "[afg-serve] slow grade problem={id} trace={} elapsed={:.1}ms\n{}",
                trace.id(),
                elapsed.as_secs_f64() * 1e3,
                trace.render_tree()
            );
        }
        headers.push(("X-Afg-Trace-Id", trace.id().to_string()));
        state.traces.push(trace);
    }

    let mut pairs = match outcome.to_json() {
        Json::Object(pairs) => pairs,
        other => vec![("outcome".to_string(), other)],
    };
    pairs.push(("cache".to_string(), Json::str(cache_state)));
    pairs.push(("transfer".to_string(), Json::str(transfer_state)));
    pairs.push(("elapsed_ms".to_string(), elapsed.to_json()));
    Reply {
        status: 200,
        content_type: "application/json",
        headers,
        body: Json::Object(pairs).to_string(),
    }
}

/// `POST /problems/{id}/grade/batch` — body
/// `{"sources": ["...", ...], "workers": N?}`, with `workers` a positive
/// integer (capped at [`MAX_BATCH_WORKERS`]).  As for registration, an
/// unknown, repeated or wrongly typed key is answered `400` naming it.
pub(crate) fn handle_batch(request: &Request, state: &ServiceState, id: &str) -> Reply {
    let Some(entry) = state.registry.get(id) else {
        return Reply::json(404, error_json(&format!("no problem '{id}'")));
    };
    let body = match parse_body(request) {
        Ok(body) => body,
        Err((status, body)) => return Reply::json(status, body),
    };
    let BatchBody { sources, workers } = match BatchBody::parse(&body) {
        Ok(batch) => batch,
        Err(message) => return Reply::json(400, error_json(&message)),
    };
    let engine = match workers {
        Some(workers) => BatchGrader::new(workers.min(MAX_BATCH_WORKERS)),
        None => BatchGrader::default(),
    };

    let trace = state.tracing.then(Trace::new);
    let report = {
        let _guard = trace.as_ref().map(|trace| trace.install());
        let mut root = afg_obs::span("grade_batch");
        root.attr("problem", id);
        root.attr("submissions", sources.len().to_string());
        engine.grade_sources_clustered(
            &entry.grader,
            &sources,
            entry.cache.as_ref(),
            entry.clusters.as_ref(),
        )
    };
    for item in &report.items {
        entry
            .counters
            .record(&item.outcome, item.cache_hit == Some(true));
    }
    afg_obs::counter!("afg_batches_total", "Batch grade requests served").inc();
    afg_obs::counter!(
        "afg_batch_submissions_total",
        "Submissions graded via batch requests"
    )
    .add(report.items.len() as u64);

    let mut headers = Vec::new();
    if let Some(trace) = trace {
        headers.push(("X-Afg-Trace-Id", trace.id().to_string()));
        state.traces.push(trace);
    }
    Reply {
        status: 200,
        content_type: "application/json",
        headers,
        body: report.to_json().to_string(),
    }
}
