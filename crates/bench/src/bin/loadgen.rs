//! `loadgen` — drives the grading daemon over real TCP and measures it.
//!
//! ```text
//! cargo run --release -p afg-bench --bin loadgen -- \
//!     [--problem ID] [--attempts N] [--requests N] [--connections N] \
//!     [--seed S] [--addr HOST:PORT] [--no-cache] [--backend cegis|enum]
//! ```
//!
//! The driver generates a seeded submission corpus for one benchmark
//! problem, builds a **Zipf-skewed** request schedule over it (real
//! classroom traffic is dominated by a few canonical solutions and
//! canonical mistakes), and replays that schedule against the daemon from
//! `--connections` concurrent keep-alive TCP connections — twice: once
//! against a cache-enabled registration and once against a `--no-cache`
//! one — reporting throughput, p50/p99 latency and the speedup.
//!
//! Every response is checked against a serial, library-path grading of the
//! same submission with the same budget: the run fails (exit 1) unless all
//! responses are **byte-identical** to the library feedback.
//!
//! Without `--addr` the daemon is booted in-process on an ephemeral port —
//! the traffic still crosses real TCP sockets.  With `--addr` an external
//! daemon is driven instead (it must allow registration).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use afg_bench::zipf_schedule;
use afg_core::{Autograder, Backend, FeedbackLevel, GradeOutcome, GraderConfig};
use afg_corpus::{generate_corpus, problems, CorpusSpec};
use afg_json::Json;
use afg_service::client::Client;
use afg_service::{ServerHandle, ServiceConfig};

struct Options {
    problem: String,
    attempts: usize,
    requests: usize,
    connections: usize,
    seed: u64,
    addr: Option<String>,
    no_cache: bool,
    backend: Backend,
    classroom: bool,
    students: usize,
    skeletons: usize,
    no_transfer: bool,
    workers: usize,
    idle_frac: Option<f64>,
}

fn usage() -> String {
    "usage: loadgen [--problem ID] [--attempts N] [--requests N] [--connections N]\n\
     \x20              [--seed S] [--addr HOST:PORT] [--no-cache]\n\
     \x20              [--backend cegis|enum]\n\
     \x20              [--classroom] [--students N] [--skeletons K]\n\
     \x20              [--no-transfer] [--workers N]\n\
     \n\
     --problem ID      benchmark problem to grade (default compDeriv)\n\
     --attempts N      distinct submissions in the corpus (default 48)\n\
     --requests N      total grade requests per run (default 400)\n\
     --connections N   concurrent keep-alive TCP connections (default 8)\n\
     --seed S          corpus + schedule RNG seed (default 20130616)\n\
     --addr HOST:PORT  drive an external daemon instead of booting one\n\
     --no-cache        only run the cache-disabled mode\n\
     --backend B       synthesis back end on both daemon and library path\n\
     \n\
     high-concurrency mode (JSON on stdout):\n\
     --idle-frac F     hold --connections keep-alive sockets but drive grade\n\
     \x20               traffic from only (1-F) of them; warms the cache\n\
     \x20               first so the measured phase exercises the I/O core,\n\
     \x20               then reports p50/p99, errors and the daemon's own\n\
     \x20               open-connection gauge as JSON\n\
     \n\
     classroom mode (library-path cohort study, JSON on stdout):\n\
     --classroom       grade a seeded mutant cohort of N students over K\n\
     \x20               skeletons, cold AND warm (cluster repair transfer),\n\
     \x20               and emit cold-vs-warm SAT conflicts + wall clock\n\
     --students N      cohort size (default 64)\n\
     --skeletons K     distinct buggy skeletons (default 8)\n\
     --no-transfer     cold pass only (the baseline the warm pass beats)\n\
     --workers N       grading worker threads (default 1: deterministic\n\
     \x20               arrival order maximises transfer opportunities)"
        .to_string()
}

fn parse_options() -> Options {
    let mut options = Options {
        problem: "compDeriv".to_string(),
        attempts: 48,
        requests: 400,
        connections: 8,
        seed: 20130616,
        addr: None,
        no_cache: false,
        backend: Backend::Cegis,
        classroom: false,
        students: 64,
        skeletons: 8,
        no_transfer: false,
        workers: 1,
        idle_frac: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    let exit_usage = |message: &str| -> ! {
        eprintln!("{message}\n\n{}", usage());
        std::process::exit(2)
    };
    let number = |flag: &str, value: Option<&String>| -> u64 {
        match value.and_then(|v| v.parse().ok()) {
            Some(n) => n,
            None => exit_usage(&format!("option '{flag}' expects a non-negative integer")),
        }
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--problem" => match iter.next() {
                Some(id) => options.problem = id.clone(),
                None => exit_usage("option '--problem' requires a value"),
            },
            "--attempts" => options.attempts = number(arg, iter.next()).max(1) as usize,
            "--requests" => options.requests = number(arg, iter.next()).max(1) as usize,
            "--connections" => options.connections = number(arg, iter.next()).max(1) as usize,
            "--seed" => options.seed = number(arg, iter.next()),
            "--addr" => match iter.next() {
                Some(addr) => options.addr = Some(addr.clone()),
                None => exit_usage("option '--addr' requires a value"),
            },
            "--no-cache" => options.no_cache = true,
            "--classroom" => options.classroom = true,
            "--students" => options.students = number(arg, iter.next()).max(1) as usize,
            "--skeletons" => options.skeletons = number(arg, iter.next()).max(1) as usize,
            "--no-transfer" => options.no_transfer = true,
            "--workers" => options.workers = number(arg, iter.next()).max(1) as usize,
            "--backend" => match iter.next().and_then(|v| Backend::parse(v)) {
                Some(backend) => options.backend = backend,
                None => exit_usage("option '--backend' expects cegis or enum"),
            },
            "--idle-frac" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(frac) if (0.0..1.0).contains(&frac) => options.idle_frac = Some(frac),
                _ => exit_usage("option '--idle-frac' expects a fraction in [0, 1)"),
            },
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => exit_usage(&format!("unknown option '{other}'")),
        }
    }
    options
}

/// The deterministic (candidate-bounded) search budget used on both the
/// library path and the daemon registrations, so byte-identity holds
/// regardless of machine load.  Small enough that the worst pathological
/// submission grades in a couple of seconds on one core — loadgen measures
/// the *service*, not the synthesizer's deep tail.
fn budget(backend: Backend) -> GraderConfig {
    GraderConfig {
        synthesis: afg_synth::SynthesisConfig {
            max_cost: 2,
            max_candidates: 300,
            time_budget: Duration::from_secs(600),
        },
        backend,
        ..GraderConfig::fast()
    }
}

/// What the library path says a submission grades to: the `"outcome"` tag
/// and, for feedback, the fully rendered text plus the repair cost.
/// The outcome tag and, for feedback, the fully rendered text.
type Expected = (String, Option<String>);

fn expected_of(grader: &Autograder, source: &str) -> Expected {
    match grader.grade_source(source) {
        GradeOutcome::SyntaxError(_) => ("syntax_error".into(), None),
        GradeOutcome::Correct => ("correct".into(), None),
        GradeOutcome::Feedback(feedback) => (
            "feedback".into(),
            Some(feedback.render(FeedbackLevel::full())),
        ),
        GradeOutcome::CannotFix => ("cannot_fix".into(), None),
        GradeOutcome::Timeout => ("timeout".into(), None),
    }
}

struct RunResult {
    wall: Duration,
    /// Request latencies at microsecond resolution — the same log-linear
    /// histogram the daemon's own `/metrics` latency series uses, so the
    /// p50/p99 here and a scraped `afg_grade_seconds` agree on bucketing.
    latencies: afg_obs::Histogram,
    mismatches: usize,
}

/// Replays `schedule` (indices into `sources`) against one registered
/// problem from `connections` concurrent keep-alive connections.
fn run_phase(
    addr: SocketAddr,
    problem_id: &str,
    sources: &[String],
    expected: &HashMap<&str, Expected>,
    schedule: &[usize],
    connections: usize,
) -> RunResult {
    let path = format!("/problems/{problem_id}/grade");
    let next = AtomicUsize::new(0);
    let mismatched = AtomicUsize::new(0);
    // Recording is lock-free, so every connection thread shares one
    // histogram directly — no per-thread Vec + merge step.
    let latencies = afg_obs::Histogram::new(1e-6);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect to daemon");
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= schedule.len() {
                        break;
                    }
                    let source = sources[schedule[slot]].as_str();
                    let body = Json::object([("source", Json::str(source))]);
                    let sent = Instant::now();
                    let (status, response) = client.post(&path, &body).expect("grade request");
                    latencies.record_duration(sent.elapsed());
                    if status != 200 || !matches_expected(&response, &expected[source]) {
                        mismatched.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let wall = start.elapsed();
    RunResult {
        wall,
        latencies,
        mismatches: mismatched.into_inner(),
    }
}

/// Whether a daemon response carries the library path's outcome and,
/// for feedback, byte-identical rendered text.
fn matches_expected(response: &Json, expected: &Expected) -> bool {
    let rendered = response
        .get("feedback")
        .and_then(|f| f.get("rendered"))
        .and_then(Json::as_str);
    response.get("outcome").and_then(Json::as_str) == Some(expected.0.as_str())
        && rendered == expected.1.as_deref()
}

fn report(label: &str, result: &RunResult, requests: usize) -> f64 {
    let throughput = requests as f64 / result.wall.as_secs_f64();
    println!(
        "{label:<9} {requests:>6} requests in {:>7.2}s  {throughput:>8.1} req/s  \
         p50 {:>7.2}ms  p99 {:>7.2}ms  mismatches {}",
        result.wall.as_secs_f64(),
        result.latencies.quantile(0.50) as f64 / 1e3,
        result.latencies.quantile(0.99) as f64 / 1e3,
        result.mismatches,
    );
    throughput
}

/// `--classroom`: grade one seeded cohort cold (no cluster index) and —
/// unless `--no-transfer` — warm (skeleton-cluster repair transfer), then
/// emit a JSON comparison on stdout.  Exits 1 if any warm verdict differs
/// from its cold counterpart: transfer must change the work, never the
/// grade.
fn run_classroom_mode(options: &Options, problem: &afg_corpus::Problem) -> ! {
    use afg_bench::classroom::{classroom_cohort, classroom_json, run_classroom, ClassroomSpec};

    let spec = ClassroomSpec {
        students: options.students,
        skeletons: options.skeletons,
        seed: options.seed,
    };
    let cohort = classroom_cohort(problem, &spec);
    let grader = problem.autograder(budget(options.backend));

    eprintln!(
        "classroom: problem {} — {} students over {} skeletons, seed {}, {} workers",
        problem.id, spec.students, spec.skeletons, spec.seed, options.workers
    );
    eprintln!("cold pass (cache only, no repair transfer)...");
    let cold = run_classroom(&grader, &cohort, options.workers, false);
    let warm = if options.no_transfer {
        None
    } else {
        eprintln!("warm pass (cache + skeleton-cluster repair transfer)...");
        Some(run_classroom(&grader, &cohort, options.workers, true))
    };

    if let Some(warm) = &warm {
        let cluster = warm.cluster.as_ref().expect("warm pass tracks clusters");
        eprintln!(
            "cold: {} SAT conflicts, {} candidates, {:.2}s wall",
            cold.sat_conflicts,
            cold.candidates_checked,
            cold.wall.as_secs_f64()
        );
        eprintln!(
            "warm: {} SAT conflicts, {} candidates, {:.2}s wall — {} clusters \
             (largest {}), {}/{} transfers verified, ~{} conflicts saved",
            warm.sat_conflicts,
            warm.candidates_checked,
            warm.wall.as_secs_f64(),
            cluster.clusters,
            cluster.largest,
            warm.totals.transfer_hits,
            warm.totals.transfer_attempts,
            cluster.conflicts_saved,
        );
    }
    println!("{}", classroom_json(problem, &spec, &cold, warm.as_ref()));

    if let Some(warm) = &warm {
        if warm.verdicts != cold.verdicts {
            eprintln!("FAILED: warm verdicts diverged from the cold baseline");
            std::process::exit(1);
        }
    }
    std::process::exit(0)
}

/// Resolves `--addr`, or boots an in-process daemon with its default
/// CPU-worker count (independent of the number of connections).
fn daemon_for(options: &Options) -> (SocketAddr, Option<ServerHandle>) {
    match &options.addr {
        Some(addr) => {
            use std::net::ToSocketAddrs;
            match addr.to_socket_addrs().ok().and_then(|mut it| it.next()) {
                Some(resolved) => (resolved, None),
                None => {
                    eprintln!("bad --addr '{addr}' (expected HOST:PORT)");
                    std::process::exit(2);
                }
            }
        }
        None => {
            let handle = afg_service::start(ServiceConfig {
                // Idle sockets are the point of the high-concurrency mode;
                // they must not be reaped mid-measurement.
                keep_alive_timeout: Duration::from_secs(120),
                ..ServiceConfig::default()
            })
            .expect("boot the daemon");
            let addr = handle.addr();
            (addr, Some(handle))
        }
    }
}

/// The daemon's own `afg_open_connections` gauge, scraped from
/// `/metrics` Prometheus text.
fn scrape_open_connections(addr: SocketAddr) -> i64 {
    let text = Client::connect(addr)
        .and_then(|mut client| client.get_text("/metrics"))
        .map(|(_, text)| text)
        .unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix("afg_open_connections "))
        .and_then(|value| value.trim().parse::<f64>().ok())
        .map(|value| value as i64)
        .unwrap_or(-1)
}

/// `--idle-frac`: hold `--connections` keep-alive sockets, drive grade
/// traffic from only the active fraction, report latency quantiles plus
/// the daemon's open-connection gauge as JSON.  The cache is warmed over
/// every distinct submission first, so the measured phase exercises the
/// I/O core (many sockets, cache-hit grades) rather than CEGIS queueing.
fn run_concurrency_mode(options: &Options, problem: &afg_corpus::Problem) -> ! {
    let idle_frac = options
        .idle_frac
        .expect("concurrency mode requires --idle-frac");
    let connections = options.connections;
    let active = ((connections as f64 * (1.0 - idle_frac)).round() as usize).clamp(1, connections);
    let idle = connections - active;

    let spec = CorpusSpec::table1_like(options.attempts, options.seed);
    let corpus = generate_corpus(problem, &spec);
    let sources: Vec<String> = corpus.into_iter().map(|s| s.source).collect();
    let schedule = zipf_schedule(sources.len(), options.requests, options.seed ^ 0x5ca1e);

    let (addr, booted) = daemon_for(options);

    let problem_id = format!("{}-conc", problem.id);
    let body = Json::object([
        ("problem", Json::str(problem.id)),
        ("id", Json::str(&problem_id)),
        ("cache", Json::Bool(true)),
        ("backend", Json::str(options.backend.name())),
        ("max_cost", Json::Int(2)),
        ("max_candidates", Json::Int(300)),
        ("time_budget_ms", Json::Int(600_000)),
    ]);
    let (status, response) =
        afg_service::client::post(addr, "/problems", &body).expect("register problem");
    assert_eq!(status, 201, "registration failed: {response}");

    // Warmup: one serial pass over every submission the schedule reaches.
    let path = format!("/problems/{problem_id}/grade");
    let distinct: std::collections::BTreeSet<usize> = schedule.iter().copied().collect();
    eprintln!(
        "warmup: grading {} distinct submissions once (cache fill)...",
        distinct.len()
    );
    {
        let mut client = Client::connect(addr).expect("connect for warmup");
        for &index in &distinct {
            let body = Json::object([("source", Json::str(sources[index].as_str()))]);
            let (status, _) = client.post(&path, &body).expect("warmup grade");
            assert_eq!(status, 200, "warmup grade failed");
        }
    }

    eprintln!(
        "holding {connections} connections ({idle} idle, {active} active), \
         {} requests...",
        schedule.len()
    );
    let mut idle_conns = Vec::with_capacity(idle);
    for _ in 0..idle {
        idle_conns.push(Client::connect(addr).expect("open idle connection"));
    }

    let next = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let latencies = afg_obs::Histogram::new(1e-6);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..active {
            scope.spawn(|| {
                let mut client = match Client::connect(addr) {
                    Ok(client) => client,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= schedule.len() {
                        break;
                    }
                    let body =
                        Json::object([("source", Json::str(sources[schedule[slot]].as_str()))]);
                    let sent = Instant::now();
                    match client.post(&path, &body) {
                        Ok((200, _)) => latencies.record_duration(sent.elapsed()),
                        Ok(_) | Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let wall = start.elapsed();

    // Scrape while the idle sockets are still held open, so the gauge
    // reflects the concurrency actually sustained.
    let open_connections = scrape_open_connections(addr);
    drop(idle_conns);

    let errors = errors.into_inner();
    let summary = Json::object([
        ("mode", Json::str("concurrency")),
        ("problem", Json::str(problem.id)),
        ("connections", Json::Int(connections as i64)),
        ("idle", Json::Int(idle as i64)),
        ("active", Json::Int(active as i64)),
        ("requests", Json::Int(schedule.len() as i64)),
        ("wall_s", Json::Float(wall.as_secs_f64())),
        (
            "throughput_rps",
            Json::Float(schedule.len() as f64 / wall.as_secs_f64()),
        ),
        ("p50_ms", Json::Float(latencies.quantile(0.50) as f64 / 1e3)),
        ("p99_ms", Json::Float(latencies.quantile(0.99) as f64 / 1e3)),
        ("errors", Json::Int(errors as i64)),
        ("open_connections", Json::Int(open_connections)),
    ]);
    println!("{summary}");

    if let Some(handle) = booted {
        handle.shutdown();
    }
    std::process::exit(if errors > 0 { 1 } else { 0 })
}

fn main() {
    let options = parse_options();
    let Some(problem) = problems::problem(&options.problem) else {
        eprintln!("unknown problem '{}'", options.problem);
        std::process::exit(2);
    };

    if options.classroom {
        run_classroom_mode(&options, &problem);
    }
    if options.idle_frac.is_some() {
        run_concurrency_mode(&options, &problem);
    }

    // Seeded corpus and Zipf-skewed schedule over it.
    let spec = CorpusSpec::table1_like(options.attempts, options.seed);
    let corpus = generate_corpus(&problem, &spec);
    let sources: Vec<String> = corpus.into_iter().map(|s| s.source).collect();
    let schedule = zipf_schedule(sources.len(), options.requests, options.seed ^ 0x5ca1e);
    let distinct_graded: std::collections::HashSet<usize> = schedule.iter().copied().collect();

    // Library-path ground truth, graded serially with the same budget.
    let grader = problem.autograder(budget(options.backend));
    println!(
        "loadgen: problem {} — {} distinct submissions ({} reached by the schedule), \
         {} requests, {} connections, seed {}",
        problem.id,
        sources.len(),
        distinct_graded.len(),
        options.requests,
        options.connections,
        options.seed
    );
    println!("grading the corpus once through the library path (ground truth)...");
    let expected: HashMap<&str, Expected> = sources
        .iter()
        .map(|source| (source.as_str(), expected_of(&grader, source)))
        .collect();

    // A daemon to drive: external via --addr, or booted in-process.
    let (addr, booted) = daemon_for(&options);

    // Register the problem twice: with and without the fingerprint cache.
    // Admin calls use one-shot connections — a held keep-alive connection
    // would idle out server-side during a long measurement phase.
    let register = |id: &str, cache: bool| {
        let body = Json::object([
            ("problem", Json::str(problem.id)),
            ("id", Json::str(id)),
            ("cache", Json::Bool(cache)),
            ("backend", Json::str(options.backend.name())),
            ("max_cost", Json::Int(2)),
            ("max_candidates", Json::Int(300)),
            ("time_budget_ms", Json::Int(600_000)),
        ]);
        let (status, response) =
            afg_service::client::post(addr, "/problems", &body).expect("register problem");
        assert_eq!(status, 201, "registration failed: {response}");
    };

    let nocache_id = format!("{}-nocache", problem.id);
    register(&nocache_id, false);
    let uncached = run_phase(
        addr,
        &nocache_id,
        &sources,
        &expected,
        &schedule,
        options.connections,
    );
    println!();
    let uncached_throughput = report("no-cache", &uncached, options.requests);

    if !options.no_cache {
        let cached_id = format!("{}-cached", problem.id);
        register(&cached_id, true);
        let cached = run_phase(
            addr,
            &cached_id,
            &sources,
            &expected,
            &schedule,
            options.connections,
        );
        let cached_throughput = report("cached", &cached, options.requests);
        let speedup = cached_throughput / uncached_throughput;

        // Surface the daemon's own cache counters.
        let (_, stats) = afg_service::client::get(addr, "/stats").expect("stats");
        if let Some(problems) = stats.get("problems").and_then(Json::as_array) {
            for entry in problems {
                if entry.get("id").and_then(Json::as_str) == Some(cached_id.as_str()) {
                    if let Some(cache) = entry.get("cache").filter(|c| !c.is_null()) {
                        println!(
                            "cache: {} hits, {} misses ({:.0}% hit rate), {} entries",
                            cache.get("hits").and_then(Json::as_i64).unwrap_or(0),
                            cache.get("misses").and_then(Json::as_i64).unwrap_or(0),
                            cache.get("hit_rate").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
                            cache.get("entries").and_then(Json::as_i64).unwrap_or(0),
                        );
                    }
                }
            }
        }
        if cached.mismatches == 0 && uncached.mismatches == 0 {
            println!(
                "feedback byte-identical to serial library grading across all {} responses",
                2 * options.requests
            );
        }
        let total_mismatches = cached.mismatches + uncached.mismatches;
        println!("speedup: cache-enabled throughput is {speedup:.2}x the --no-cache run");
        if total_mismatches > 0 {
            eprintln!("FAILED: {total_mismatches} responses diverged from the library path");
            std::process::exit(1);
        }
    } else if uncached.mismatches > 0 {
        eprintln!(
            "FAILED: {} responses diverged from the library path",
            uncached.mismatches
        );
        std::process::exit(1);
    }

    if let Some(handle) = booted {
        handle.shutdown();
    }
}
