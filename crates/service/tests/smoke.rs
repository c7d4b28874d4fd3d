//! End-to-end smoke test of the grading daemon, run as a dedicated CI step.
//!
//! Boots the server in-process on an ephemeral port, registers the paper's
//! `computeDeriv` problem, grades the same known-buggy submission twice
//! over real TCP, and asserts the second response is a fingerprint-cache
//! hit with feedback identical to the first.

use afg_json::Json;
use afg_service::client::Client;
use afg_service::{start, ServiceConfig};

/// The paper's worked example: iteration starts at 0 instead of 1 —
/// incorrect, repairable with one correction.
const BUGGY: &str = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n";

fn boot() -> (afg_service::ServerHandle, Client) {
    let handle = start(ServiceConfig {
        threads: 4,
        ..ServiceConfig::default()
    })
    .expect("bind an ephemeral port");
    let client = Client::connect(handle.addr()).expect("connect");
    (handle, client)
}

#[test]
fn grades_a_buggy_submission_twice_with_a_cache_hit() {
    let (handle, mut client) = boot();

    // Liveness first; no problems registered yet.
    let (status, health) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("problems").and_then(Json::as_i64), Some(0));

    // Register the built-in computeDeriv benchmark with a deterministic
    // (candidate-bounded) search budget.
    let (status, registered) = client
        .post(
            "/problems",
            &Json::object([
                ("problem", Json::str("compDeriv")),
                ("max_candidates", Json::Int(2000)),
                ("time_budget_ms", Json::Int(600_000)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 201, "{registered}");
    assert_eq!(
        registered.get("id").and_then(Json::as_str),
        Some("compDeriv")
    );
    assert_eq!(
        registered.get("entry").and_then(Json::as_str),
        Some("computeDeriv")
    );
    assert_eq!(registered.get("cache").and_then(Json::as_bool), Some(true));

    // First grading: a miss that runs the full CEGIS search.
    let body = Json::object([("source", Json::str(BUGGY))]);
    let (status, first) = client.post("/problems/compDeriv/grade", &body).unwrap();
    assert_eq!(status, 200, "{first}");
    assert_eq!(
        first.get("outcome").and_then(Json::as_str),
        Some("feedback")
    );
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));

    // Second grading of the same submission: served from the cache, with
    // identical feedback.
    let (status, second) = client.post("/problems/compDeriv/grade", &body).unwrap();
    assert_eq!(status, 200);
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(
        first.get("feedback").and_then(|f| f.get("rendered")),
        second.get("feedback").and_then(|f| f.get("rendered")),
        "cached feedback must be identical"
    );
    assert_eq!(
        first.get("feedback").and_then(|f| f.get("corrections")),
        second.get("feedback").and_then(|f| f.get("corrections"))
    );
    let rendered = second
        .get("feedback")
        .and_then(|f| f.get("rendered"))
        .and_then(Json::as_str)
        .expect("rendered feedback");
    assert!(
        rendered.contains("The program requires 1 change:"),
        "{rendered}"
    );

    // /stats reflects both requests and the one cache hit.
    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let problems = stats.get("problems").and_then(Json::as_array).unwrap();
    assert_eq!(problems.len(), 1);
    let outcomes = problems[0].get("outcomes").unwrap();
    assert_eq!(outcomes.get("graded").and_then(Json::as_i64), Some(2));
    assert_eq!(outcomes.get("fixed").and_then(Json::as_i64), Some(2));
    let cache = problems[0].get("cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(1));
    assert_eq!(cache.get("entries").and_then(Json::as_i64), Some(1));

    // Solver-work totals count the one real search only: the cache hit
    // replays the stored stats but must not re-add them.
    let solver = problems[0].get("solver").unwrap();
    let searched = first
        .get("feedback")
        .and_then(|f| f.get("stats"))
        .and_then(|s| s.get("sat_propagations"))
        .and_then(Json::as_i64)
        .expect("miss carries solver stats");
    assert_eq!(
        solver.get("sat_propagations").and_then(Json::as_i64),
        Some(searched),
        "a cache hit must not inflate the solver-work totals"
    );

    handle.shutdown();
}

#[test]
fn registers_a_custom_problem_from_eml_text_and_batch_grades() {
    let (handle, mut client) = boot();

    // The README's textual model for computeDeriv.
    let (status, registered) = client
        .post(
            "/problems",
            &Json::object([
                ("id", Json::str("deriv-text")),
                ("entry", Json::str("computeDeriv")),
                (
                    "reference",
                    Json::str(
                        "def computeDeriv(poly_list_int):\n    result = []\n    for i in range(len(poly_list_int)):\n        result += [i * poly_list_int[i]]\n    if len(poly_list_int) == 1:\n        return result\n    else:\n        return result[1:]\n",
                    ),
                ),
                (
                    "model",
                    Json::str(
                        "RETR: return a -> [0]\nRANR: range(a0, a1) -> range(a0 + 1, a1)\nEQF: a0 == a1 -> False\n",
                    ),
                ),
            ]),
        )
        .unwrap();
    assert_eq!(status, 201, "{registered}");

    let correct = "def computeDeriv(poly):\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(1, len(poly)):\n        d.append(i * poly[i])\n    return d\n";
    let broken = "def computeDeriv(poly)\n    return poly\n";
    let (status, report) = client
        .post(
            "/problems/deriv-text/grade/batch",
            &Json::object([
                (
                    "sources",
                    Json::Array(vec![
                        Json::str(BUGGY),
                        Json::str(correct),
                        Json::str(broken),
                        Json::str(BUGGY),
                    ]),
                ),
                ("workers", Json::Int(2)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 200, "{report}");
    let items = report.get("items").and_then(Json::as_array).unwrap();
    assert_eq!(items.len(), 4);
    assert_eq!(
        items[0].get("outcome").and_then(Json::as_str),
        Some("feedback")
    );
    assert_eq!(
        items[1].get("outcome").and_then(Json::as_str),
        Some("correct")
    );
    assert_eq!(
        items[2].get("outcome").and_then(Json::as_str),
        Some("syntax_error")
    );
    // Identical submissions in one batch produce identical feedback.
    assert_eq!(
        items[0].get("feedback").and_then(|f| f.get("rendered")),
        items[3].get("feedback").and_then(|f| f.get("rendered"))
    );
    let totals = report.get("totals").unwrap();
    assert_eq!(totals.get("graded").and_then(Json::as_i64), Some(4));
    assert_eq!(
        totals.get("cache_hits").and_then(Json::as_i64).unwrap()
            + totals.get("cache_misses").and_then(Json::as_i64).unwrap(),
        4
    );

    handle.shutdown();
}

#[test]
fn registers_with_enum_backend() {
    let (handle, mut client) = boot();

    let (status, registered) = client
        .post(
            "/problems",
            &Json::object([
                ("problem", Json::str("compDeriv")),
                ("id", Json::str("deriv-enum")),
                ("backend", Json::str("enum")),
                ("max_candidates", Json::Int(2000)),
                ("time_budget_ms", Json::Int(600_000)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 201, "{registered}");
    assert_eq!(
        registered.get("backend").and_then(Json::as_str),
        Some("enum")
    );

    let body = Json::object([("source", Json::str(BUGGY))]);
    let (status, graded) = client.post("/problems/deriv-enum/grade", &body).unwrap();
    assert_eq!(status, 200, "{graded}");
    assert_eq!(
        graded.get("outcome").and_then(Json::as_str),
        Some("feedback")
    );
    let stats = graded.get("feedback").and_then(|f| f.get("stats")).unwrap();
    assert_eq!(stats.get("strategy").and_then(Json::as_str), Some("enum"));

    // /stats exposes the backend, the search budget in use (overrides
    // applied over the defaults) and solver-work totals.
    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let problems = stats.get("problems").and_then(Json::as_array).unwrap();
    let entry = problems
        .iter()
        .find(|p| p.get("id").and_then(Json::as_str) == Some("deriv-enum"))
        .expect("registered problem listed");
    assert_eq!(entry.get("backend").and_then(Json::as_str), Some("enum"));
    let budget = entry.get("budget").expect("search budget");
    assert_eq!(budget.get("max_cost").and_then(Json::as_i64), Some(3));
    assert_eq!(
        budget.get("max_candidates").and_then(Json::as_i64),
        Some(2000)
    );
    assert_eq!(
        budget.get("time_budget_ms").and_then(Json::as_f64),
        Some(600_000.0)
    );
    let solver = entry.get("solver").expect("solver work totals");
    assert!(solver
        .get("sat_propagations")
        .and_then(Json::as_i64)
        .is_some());

    // Unknown backends are rejected with a helpful message, as a bad field
    // of the registration body.
    for name in ["sketch", "portfolio"] {
        let (status, body) = client
            .post(
                "/problems",
                &Json::object([
                    ("problem", Json::str("compDeriv")),
                    ("backend", Json::str(name)),
                ]),
            )
            .unwrap();
        assert_eq!(status, 400, "{name}");
        let error = body.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("unknown backend"), "{error}");
        assert!(error.contains("expected cegis or enum"), "{error}");
    }

    handle.shutdown();
}

#[test]
fn skeleton_cluster_transfer_is_reported_in_stats() {
    let (handle, mut client) = boot();
    let (status, registered) = client
        .post(
            "/problems",
            &Json::object([
                ("problem", Json::str("compDeriv")),
                ("id", Json::str("deriv-cluster")),
                ("max_candidates", Json::Int(2000)),
                ("time_budget_ms", Json::Int(600_000)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 201, "{registered}");
    assert_eq!(
        registered.get("clustering").and_then(Json::as_bool),
        Some(true)
    );

    // Two cohort-mates: same buggy scaffold, different constant in an
    // unused assignment — distinct canonical forms, one skeleton.
    let mate = |constant: i64| {
        format!(
            "def computeDeriv(poly):\n    scratch = {constant}\n    if len(poly) == 1:\n        return [0]\n    d = []\n    for i in range(0, len(poly)):\n        d.append(i * poly[i])\n    return d\n"
        )
    };
    let grade = |client: &mut Client, source: &str| {
        let body = Json::object([("source", Json::str(source))]);
        let (status, response) = client.post("/problems/deriv-cluster/grade", &body).unwrap();
        assert_eq!(status, 200, "{response}");
        response
    };

    let first = grade(&mut client, &mate(7));
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(first.get("transfer").and_then(Json::as_str), Some("none"));

    let second = grade(&mut client, &mate(21));
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("miss"));
    assert_eq!(
        second.get("transfer").and_then(Json::as_str),
        Some("hit"),
        "{second}"
    );
    // Transfer keeps the verdict cost-identical to the cold run.
    assert_eq!(
        first.get("feedback").and_then(|f| f.get("cost")),
        second.get("feedback").and_then(|f| f.get("cost"))
    );

    // An exact resubmission is an exact-cache hit — the cluster is not
    // consulted again.
    let third = grade(&mut client, &mate(21));
    assert_eq!(third.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(third.get("transfer").and_then(Json::as_str), Some("none"));

    let (status, stats) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let problems = stats.get("problems").and_then(Json::as_array).unwrap();
    let entry = problems
        .iter()
        .find(|p| p.get("id").and_then(Json::as_str) == Some("deriv-cluster"))
        .expect("registered problem listed");
    let clusters = entry.get("clusters").expect("clusters stats present");
    assert_eq!(clusters.get("clusters").and_then(Json::as_i64), Some(1));
    assert_eq!(clusters.get("members").and_then(Json::as_i64), Some(2));
    assert_eq!(clusters.get("repairs").and_then(Json::as_i64), Some(1));
    assert_eq!(
        clusters.get("transfer_attempts").and_then(Json::as_i64),
        Some(1)
    );
    assert_eq!(
        clusters.get("transfer_hits").and_then(Json::as_i64),
        Some(1)
    );
    assert!(clusters
        .get("conflicts_saved")
        .and_then(Json::as_i64)
        .is_some());

    // Clustering can be disabled per problem; /stats then reports null.
    let (status, registered) = client
        .post(
            "/problems",
            &Json::object([
                ("problem", Json::str("compDeriv")),
                ("id", Json::str("deriv-noclusters")),
                ("clustering", Json::Bool(false)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 201, "{registered}");
    assert_eq!(
        registered.get("clustering").and_then(Json::as_bool),
        Some(false)
    );
    let (_, stats) = client.get("/stats").unwrap();
    let problems = stats.get("problems").and_then(Json::as_array).unwrap();
    let entry = problems
        .iter()
        .find(|p| p.get("id").and_then(Json::as_str) == Some("deriv-noclusters"))
        .unwrap();
    assert!(entry.get("clusters").unwrap().is_null());

    handle.shutdown();
}

#[test]
fn api_errors_are_json_with_proper_status_codes() {
    let (handle, mut client) = boot();

    let (status, body) = client
        .post(
            "/problems/ghost/grade",
            &Json::object([("source", Json::str("x = 1\n"))]),
        )
        .unwrap();
    assert_eq!(status, 404);
    assert!(body.get("error").is_some());

    let (status, _) = client.request("GET", "/problems", None).unwrap();
    assert_eq!(status, 405);

    let (status, _) = client.request("POST", "/nope", Some(&Json::Null)).unwrap();
    assert_eq!(status, 404);

    // Malformed JSON body.
    let mut raw = Client::connect(handle.addr()).unwrap();
    let (status, body) = raw
        .request("POST", "/problems", Some(&Json::str("{not json")))
        .unwrap();
    // A JSON *string* containing garbage is valid JSON but not a valid
    // registration: expect 400 either way.
    assert_eq!(status, 400, "{body}");

    // A registration that parses but fails validation (untyped params).
    let (status, body) = client
        .post(
            "/problems",
            &Json::object([
                ("id", Json::str("bad")),
                ("entry", Json::str("f")),
                ("reference", Json::str("def f(x):\n    return x\n")),
                ("model", Json::str("EQF: a0 == a1 -> False\n")),
            ]),
        )
        .unwrap();
    assert_eq!(status, 422, "{body}");
    let message = body.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("type suffix"), "{message}");

    // Unknown built-in problem.
    let (status, _) = client
        .post("/problems", &Json::object([("problem", Json::str("nope"))]))
        .unwrap();
    assert_eq!(status, 404);

    // A time budget too large for a `Duration` is a client error naming
    // the field, never a handler panic answered with 500.
    let (status, body) = client
        .post(
            "/problems",
            &Json::object([
                ("problem", Json::str("compDeriv")),
                ("time_budget_ms", Json::Float(1e300)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    let message = body.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("time_budget_ms"), "{message}");

    // The registration body is strict: an unknown key (a removed field
    // such as the old escalation ladder, or a typo), a known key of the
    // wrong JSON type and a negative budget are each a 400 naming the
    // field, never a silent registration with default settings.
    for (field, value) in [
        (
            "escalation",
            Json::Array(vec![Json::object([("time_budget_ms", Json::Int(1))])]),
        ),
        ("max_candiates", Json::Int(2000)),
        ("max_candidates", Json::str("2000")),
        ("max_cost", Json::Float(2.0)),
        ("cache", Json::str("no")),
        ("clustering", Json::Int(0)),
        ("backend", Json::Bool(true)),
        ("id", Json::Int(7)),
        ("time_budget_ms", Json::str("600000")),
        ("max_cost", Json::Int(-1)),
        ("max_candidates", Json::Int(-5)),
        ("time_budget_ms", Json::Int(-1)),
    ] {
        let (status, body) = client
            .post(
                "/problems",
                &Json::object([
                    ("problem", Json::str("compDeriv")),
                    ("id", Json::str("strict")),
                    (field, value.clone()),
                ]),
            )
            .unwrap();
        assert_eq!(status, 400, "{field}: {value} -> {body}");
        let message = body.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains(&format!("'{field}'")), "{message}");
    }
    let (status, body) = client
        .post(
            "/problems",
            &Json::Object(vec![
                ("problem".to_string(), Json::str("compDeriv")),
                ("max_cost".to_string(), Json::Int(2)),
                ("max_cost".to_string(), Json::Int(3)),
            ]),
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    let message = body.get("error").and_then(Json::as_str).unwrap();
    assert!(message.contains("duplicate field 'max_cost'"), "{message}");
    let (status, body) = client
        .post("/problems", &Json::Array(vec![Json::str("compDeriv")]))
        .unwrap();
    assert_eq!(status, 400, "{body}");
    let (_, stats) = client.get("/stats").unwrap();
    let problems = stats.get("problems").and_then(Json::as_array).unwrap();
    assert!(
        problems
            .iter()
            .all(|p| p.get("id").and_then(Json::as_str) != Some("strict")),
        "a rejected registration must not register anything"
    );

    handle.shutdown();
}

#[test]
fn grade_and_batch_bodies_are_strict() {
    let (handle, mut client) = boot();
    let (status, body) = client
        .post(
            "/problems",
            &Json::object([("problem", Json::str("compDeriv"))]),
        )
        .unwrap();
    assert_eq!(status, 201, "{body}");

    // Each rejected body names the offending field; none of them grades.
    let mut reject = |path: &str, body: Json, field: &str| {
        let (status, response) = client.post(path, &body).unwrap();
        assert_eq!(status, 400, "{path} {body} -> {response}");
        let message = response.get("error").and_then(Json::as_str).unwrap();
        assert!(message.contains(field), "{body}: {message}");
    };
    let grade = "/problems/compDeriv/grade";
    let source = || ("source", Json::str(BUGGY));
    reject(
        grade,
        Json::object([source(), ("workers", Json::Int(2))]),
        "unknown field 'workers'",
    );
    reject(
        grade,
        Json::object([("sources", Json::Array(vec![Json::str(BUGGY)]))]),
        "unknown field 'sources'",
    );
    reject(grade, Json::object([("source", Json::Int(1))]), "'source'");
    reject(
        grade,
        Json::Object(vec![
            ("source".to_string(), Json::str(BUGGY)),
            ("source".to_string(), Json::str("x = 1\n")),
        ]),
        "duplicate field 'source'",
    );
    reject(
        grade,
        Json::Object(Vec::new()),
        "missing string field 'source'",
    );
    reject(grade, Json::str(BUGGY), "grade body must be a JSON object");

    let batch = "/problems/compDeriv/grade/batch";
    let sources = || ("sources", Json::Array(vec![Json::str(BUGGY)]));
    for (value, field) in [
        (Json::str("8"), "'workers' must be an integer"),
        (Json::Float(2.0), "'workers' must be an integer"),
        (Json::Int(0), "'workers' must be positive"),
        (Json::Int(-3), "'workers' must be positive"),
    ] {
        reject(batch, Json::object([sources(), ("workers", value)]), field);
    }
    reject(
        batch,
        Json::object([sources(), ("worker", Json::Int(8))]),
        "unknown field 'worker'",
    );
    reject(
        batch,
        Json::Object(vec![
            ("sources".to_string(), Json::Array(vec![])),
            ("workers".to_string(), Json::Int(1)),
            ("workers".to_string(), Json::Int(2)),
        ]),
        "duplicate field 'workers'",
    );
    reject(
        batch,
        Json::object([("sources", Json::str(BUGGY))]),
        "'sources' must be an array",
    );
    reject(
        batch,
        Json::object([("sources", Json::Array(vec![Json::Int(1)]))]),
        "sources[0] is not a string",
    );
    reject(
        batch,
        Json::object([("workers", Json::Int(1))]),
        "missing array field 'sources'",
    );
    reject(
        batch,
        Json::Array(vec![]),
        "batch body must be a JSON object",
    );

    let (_, stats) = client.get("/stats").unwrap();
    let problems = stats.get("problems").and_then(Json::as_array).unwrap();
    let outcomes = problems[0].get("outcomes").unwrap();
    assert_eq!(
        outcomes.get("graded").and_then(Json::as_i64),
        Some(0),
        "a rejected body must not grade anything"
    );

    // The accepted shapes still grade.
    let (status, body) = client.post(grade, &Json::object([source()])).unwrap();
    assert_eq!(status, 200, "{body}");
    let (status, body) = client
        .post(batch, &Json::object([sources(), ("workers", Json::Int(1))]))
        .unwrap();
    assert_eq!(status, 200, "{body}");

    handle.shutdown();
}

#[test]
fn registrations_of_one_assignment_share_an_oracle() {
    let (handle, mut client) = boot();
    fn register(client: &mut Client, body: Json) {
        let (status, response) = client.post("/problems", &body).unwrap();
        assert_eq!(status, 201, "{body} -> {response}");
    }
    /// The number of registrations and of distinct oracles in `/stats`.
    fn oracles(client: &mut Client) -> (usize, i64) {
        let (status, stats) = client.get("/stats").unwrap();
        assert_eq!(status, 200);
        let problems = stats.get("problems").and_then(Json::as_array).unwrap();
        (
            problems.len(),
            stats.get("oracles").and_then(Json::as_i64).unwrap(),
        )
    }

    // compDeriv under three ids, two budgets and both backends.
    register(
        &mut client,
        Json::object([("problem", Json::str("compDeriv"))]),
    );
    register(
        &mut client,
        Json::object([
            ("problem", Json::str("compDeriv")),
            ("id", Json::str("deriv-small")),
            ("max_candidates", Json::Int(100)),
        ]),
    );
    register(
        &mut client,
        Json::object([
            ("problem", Json::str("compDeriv")),
            ("id", Json::str("deriv-enum")),
            ("backend", Json::str("enum")),
        ]),
    );
    assert_eq!(oracles(&mut client), (3, 1));

    // A different reference needs an oracle of its own.
    let custom = |id: &str| {
        Json::object([
            ("id", Json::str(id)),
            ("entry", Json::str("double")),
            (
                "reference",
                Json::str("def double(x_int):\n    return 2 * x_int\n"),
            ),
            ("model", Json::str("RETR: return a -> [0]\n")),
        ])
    };
    register(&mut client, custom("double"));
    assert_eq!(oracles(&mut client), (4, 2));

    // Re-registering an id replaces its registration, and a replaced
    // registration's oracle goes with it once nothing else holds it.
    register(
        &mut client,
        Json::object([
            ("problem", Json::str("compDeriv")),
            ("max_cost", Json::Int(2)),
        ]),
    );
    assert_eq!(oracles(&mut client), (4, 2));
    register(
        &mut client,
        Json::object([
            ("problem", Json::str("compDeriv")),
            ("id", Json::str("double")),
        ]),
    );
    assert_eq!(oracles(&mut client), (4, 1));
    register(&mut client, custom("deriv-enum"));
    assert_eq!(oracles(&mut client), (4, 2));

    // A shared oracle still grades.
    let body = Json::object([("source", Json::str(BUGGY))]);
    for id in ["compDeriv", "double"] {
        let (status, graded) = client
            .post(&format!("/problems/{id}/grade"), &body)
            .unwrap();
        assert_eq!(status, 200, "{graded}");
        assert_eq!(
            graded.get("outcome").and_then(Json::as_str),
            Some("feedback"),
            "{id}"
        );
    }

    handle.shutdown();
}

#[test]
fn oversized_submissions_answer_timeout_within_budget() {
    let (handle, mut client) = boot();
    // Registered with defaults: a 3 s search budget.
    let (status, body) = client
        .post(
            "/problems",
            &Json::object([("problem", Json::str("compDeriv"))]),
        )
        .unwrap();
    assert_eq!(status, 201, "{body}");

    // One 3-line loop repeated 1,000 times: 8,002 choice sites, far over
    // the selector bound, whose encoding alone once took minutes and
    // gigabytes.
    let loops = "    for i in range(1, len(poly)):\n        if poly[i] != 0:\n            d.append(i * poly[i])\n";
    let source = format!(
        "def computeDeriv(poly):\n    d = []\n{}    return d\n",
        loops.repeat(1_000)
    );
    assert!(source.len() > 90_000, "{}", source.len());

    let start = std::time::Instant::now();
    let (status, graded) = client
        .post(
            "/problems/compDeriv/grade",
            &Json::object([("source", Json::str(&source))]),
        )
        .unwrap();
    assert_eq!(status, 200, "{graded}");
    assert_eq!(
        graded.get("outcome").and_then(Json::as_str),
        Some("timeout")
    );
    let (status, report) = client
        .post(
            "/problems/compDeriv/grade/batch",
            &Json::object([("sources", Json::Array(vec![Json::str(&source)]))]),
        )
        .unwrap();
    assert_eq!(status, 200, "{report}");
    let items = report.get("items").and_then(Json::as_array).unwrap();
    assert_eq!(
        items[0].get("outcome").and_then(Json::as_str),
        Some("timeout")
    );
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(3),
        "two oversized grades took {elapsed:?}"
    );

    handle.shutdown();
}
