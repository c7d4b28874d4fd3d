//! The `daemon` workload: open-loop HTTP against an in-process epoll
//! daemon with cache and clustering on.
//!
//! The population is every problem's `table1_like` corpus, one member per
//! canonical form, minus the members whose search runs out of budget.
//! Each phase registers the problems afresh (a cold cache and cluster
//! index):
//!
//! * fixed-rate steps, open loop from a pool of `available_parallelism`
//!   connections: every member is first seen once per step, in a fixed
//!   arrival order at evenly spaced slots (the cache misses), and every
//!   other slot resubmits a member already seen, Zipf-skewed and drawn
//!   from `--seed` (the cache hits).  Requests are timed from their due
//!   time;
//! * rounds of every member's first submission, back to back from one
//!   connection: the daemon's grading throughput and grade times;
//! * closed-loop resubmission bursts over the warm cache.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use afg_ast::canon::fingerprint64;
use afg_core::Autograder;
use afg_corpus::rng::StdRng;
use afg_corpus::{generate_corpus, problems, CorpusSpec, Problem};
use afg_json::Json;
use afg_parser::parse_program;
use afg_service::client::Client;
use afg_service::{ServerHandle, ServiceConfig};

use crate::layers::{Layers, Replayer, Work};
use crate::library::CORPUS_SEED;
use crate::report::{digest, median, ms, peak_rss_mb, percentile, ratio, Metrics, Verdict};
use crate::{grader_config, Outcome, RunArgs, SETUP_REPS};

/// Problems served, each with a `table1_like` population.
const PROBLEMS: &[&str] = &["compDeriv", "oddTuples", "prodBySum", "hangman1"];
const ATTEMPTS: usize = 20;
/// Fixed offered rates (requests per second), lowest first.
const RATES: &[f64] = &[200.0, 400.0, 800.0];
/// The latency limit on a step's p99.
const LATENCY_LIMIT_MS: f64 = 250.0;
/// Share of `--seconds` the fixed-rate steps take together.
const STEPS_SHARE: f64 = 0.5;
/// Rounds of every member's first submission on a fresh registration
/// (the median throughput is reported).
const ROUNDS: usize = 16;
/// Closed-loop resubmission bursts over the warm cache (median reported)
/// and their requests per second of `--seconds`.
const BURSTS: usize = 3;
const BURST_PER_SECOND: usize = 50;
/// A request sent later than this after its due time counts as late.
const LATE_MS: f64 = 1.0;

/// One distinct submission of the population.
struct Member {
    problem: usize,
    body: Json,
    reference: Verdict,
}

#[derive(Clone, Copy)]
struct Sample {
    member: usize,
    /// Completion minus due time (the wait a user sees), in ms.
    latency_ms: f64,
    /// Send minus due time, in ms.
    late_ms: f64,
    /// Completion minus send, in ms.
    rtt_ms: f64,
    /// The daemon's own `elapsed_ms`.
    grade_ms: f64,
    ok: bool,
    shed: bool,
    hit: bool,
    transfer_hit: bool,
    verdict_ok: bool,
}

struct Step {
    rate: f64,
    samples: Vec<Sample>,
    wall: Duration,
}

impl Step {
    /// Latency of every request from its due time; a failed request
    /// misses every limit.
    fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| if s.ok { s.latency_ms } else { f64::INFINITY })
            .collect()
    }

    /// Meets the limit: no failures, p99 within it, and the last tenth of
    /// the schedule not sent later than the limit (no growing backlog).
    fn meets_limit(&self) -> bool {
        let tail = &self.samples[self.samples.len() * 9 / 10..];
        let tail_late: Vec<f64> = tail.iter().map(|s| s.late_ms).collect();
        self.samples.iter().all(|s| s.ok)
            && percentile(&self.latencies(), 0.99) <= LATENCY_LIMIT_MS
            && median(&tail_late) <= LATENCY_LIMIT_MS
    }

    fn print(&self, label: &str) {
        let pick = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
            self.samples
                .iter()
                .filter(|s| s.ok && keep(s))
                .map(|s| s.latency_ms)
                .collect()
        };
        let (hits, misses) = (pick(&|s| s.hit), pick(&|s| !s.hit));
        let overhead: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.rtt_ms - s.grade_ms)
            .collect();
        let late: Vec<f64> = self.samples.iter().map(|s| s.late_ms).collect();
        let latencies = self.latencies();
        println!(
            "{label}: {} requests in {:.3} s, p50 {:.3} ms, p99 {:.3} ms, hit p50 {:.3} ms ({}), miss p50 {:.3} ms ({}), \
             overhead p50 {:.3} p99 {:.3} ms, generator late p99 {:.3} ms, failed {}{}",
            self.samples.len(),
            self.wall.as_secs_f64(),
            percentile(&latencies, 0.5),
            percentile(&latencies, 0.99),
            percentile(&hits, 0.5),
            hits.len(),
            percentile(&misses, 0.5),
            misses.len(),
            percentile(&overhead, 0.5),
            percentile(&overhead, 0.99),
            percentile(&late, 0.99),
            self.samples.iter().filter(|s| !s.ok).count(),
            if self.rate == 0.0 {
                ""
            } else if self.meets_limit() {
                ", meets the limit"
            } else {
                ", MISSES the limit"
            },
        );
    }
}

impl Member {
    fn source(&self) -> &str {
        self.body
            .get("source")
            .and_then(Json::as_str)
            .expect("member bodies carry a source")
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let threads = thread::available_parallelism().map_or(1, |n| n.get());
    let problems: Vec<Problem> = PROBLEMS
        .iter()
        .map(|id| problems::problem(id).expect("daemon problems exist"))
        .collect();
    println!(
        "daemon: {} problems x table1_like({ATTEMPTS}, {CORPUS_SEED}), max_cost {}, max_candidates {}, cache + clustering on",
        problems.len(),
        crate::MAX_COST,
        crate::MAX_CANDIDATES
    );
    println!(
        "daemon: {threads} worker threads, {threads} connections (available_parallelism {threads})"
    );

    // Set-up: library graders (for the verdict check), boot, registration.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut booted: Option<(Vec<Autograder>, ServerHandle)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, server)) = booted.take() {
            server.shutdown();
        }
        let start = Instant::now();
        let graders: Vec<Autograder> = problems
            .iter()
            .map(|problem| problem.autograder(grader_config()))
            .collect();
        let server = afg_service::start(ServiceConfig {
            threads,
            tracing: false,
            slow_grade: None,
            ..ServiceConfig::default()
        })
        .expect("daemon boots");
        register(server.addr(), &problems, 0);
        setup_times.push(start.elapsed().as_secs_f64());
        booted = Some((graders, server));
    }
    let (graders, server) = booted.expect("set-up ran");
    let addr = server.addr();

    let members = population(&problems, &graders);
    for (p, problem) in problems.iter().enumerate() {
        let verdicts: Vec<&Verdict> = members
            .iter()
            .filter(|m| m.problem == p)
            .map(|m| &m.reference)
            .collect();
        println!(
            "problem {:<15} members {:>3} digest {:016x}",
            problem.id,
            verdicts.len(),
            digest(verdicts.iter().copied())
        );
    }
    println!(
        "digest daemon {:016x}",
        digest(members.iter().map(|m| &m.reference))
    );

    // Arrival order and popularity are fixed properties of the population
    // (so every run searches the same misses in the same order); the seed
    // draws the resubmissions.
    let mut arrival: Vec<usize> = (0..members.len()).collect();
    StdRng::seed_from_u64(CORPUS_SEED).shuffle(&mut arrival);
    let mut rng = StdRng::seed_from_u64(args.seed);
    let step_seconds = args.seconds as f64 * STEPS_SHARE / RATES.len() as f64;
    let mut registration = 0;
    let mut fresh = || {
        registration += 1;
        register(addr, &problems, registration);
        registration
    };

    let mut steps = Vec::with_capacity(RATES.len());
    for &rate in RATES {
        let requests = (rate * step_seconds).round() as usize;
        let stream = schedule(&arrival, requests, &mut rng);
        steps.push(drive(
            addr,
            &problems,
            &members,
            &stream,
            Some(rate),
            fresh(),
            threads,
        ));
    }
    // Every member's first submission back to back from one connection:
    // every request a miss, graded in arrival order (so the cluster warm
    // starts, and hence the work, repeat exactly).
    let rounds: Vec<Step> = (0..ROUNDS)
        .map(|_| drive(addr, &problems, &members, &arrival, None, fresh(), 1))
        .collect();
    // Resubmissions only, closed loop over the last (warm) registration.
    let warm = registration;
    let burst_requests = BURST_PER_SECOND * args.seconds as usize;
    let bursts: Vec<Step> = (0..BURSTS)
        .map(|_| {
            let stream: Vec<usize> = (0..burst_requests)
                .map(|_| arrival[zipf_rank(&mut rng, members.len())])
                .collect();
            drive(addr, &problems, &members, &stream, None, warm, threads)
        })
        .collect();
    let peak_rss = peak_rss_mb();
    let stats = afg_service::client::get(addr, "/stats")
        .map(|(_, json)| json)
        .ok();
    server.shutdown();

    for step in &steps {
        step.print(&format!("rate {:>5.0}/s", step.rate));
    }
    for (r, round) in rounds.iter().enumerate().take(2) {
        round.print(&format!("first submissions round {r}"));
    }
    let max_rps = steps
        .iter()
        .take_while(|step| step.meets_limit())
        .last()
        .map_or(0.0, |step| step.rate);
    let throughputs = |runs: &[Step]| -> Vec<f64> {
        runs.iter()
            .map(|run| ratio(run.samples.len() as f64, run.wall.as_secs_f64()))
            .collect()
    };
    let (round_rates, burst_rates) = (throughputs(&rounds), throughputs(&bursts));
    let (first_per_s, hits_per_s) = (median(&round_rates), median(&burst_rates));
    println!("first submissions: {first_per_s:.1}/s, median of rounds {round_rates:.1?}");
    println!("resubmissions: {hits_per_s:.1}/s, median of bursts {burst_rates:.1?}");
    println!("max_rps {max_rps} at p99 <= {LATENCY_LIMIT_MS} ms");

    let all_runs = || {
        steps
            .iter()
            .chain(&rounds)
            .chain(&bursts)
            .flat_map(|run| &run.samples)
    };
    let attempted = all_runs().count();
    let failed = all_runs().filter(|s| !s.ok).count();
    let shed = all_runs().filter(|s| s.shed).count();
    let mut mismatches = all_runs().filter(|s| s.ok && !s.verdict_ok).count();

    let incorrect_members = members
        .iter()
        .filter(|m| m.reference.is_incorrect())
        .count();
    let fixed_members = members
        .iter()
        .filter(|m| m.reference.kind == "feedback")
        .count();
    let top = steps.last().expect("at least one rate");

    let mut metrics = Metrics::default();
    if !args.trace {
        // Grade time of incorrect submissions: the daemon's own grading of
        // each first submission (a cache miss), pooled over the rounds.
        let first_incorrect: Vec<f64> = rounds
            .iter()
            .flat_map(|round| &round.samples)
            .filter(|s| s.ok && !s.hit && members[s.member].reference.is_incorrect())
            .map(|s| s.grade_ms)
            .collect();
        println!(
            "samples: {} first-sight grades of incorrect submissions (p90 has {} beyond it)",
            first_incorrect.len(),
            first_incorrect.len() - (0.9 * first_incorrect.len() as f64).ceil() as usize
        );
        metrics.put("setup_s", median(&setup_times), "s");
        metrics.put("grades_per_s", first_per_s, "1/s");
        metrics.put("grade_p50_ms", percentile(&first_incorrect, 0.5), "ms");
        metrics.put("grade_p90_ms", percentile(&first_incorrect, 0.9), "ms");
        metrics.put(
            "repair_rate",
            ratio(fixed_members as f64, incorrect_members as f64),
            "fraction",
        );
        metrics.put("peak_rss_mb", peak_rss, "MB");
    } else {
        // Replay every member once, in arrival order, mirroring the
        // daemon's cluster warm starts; then the untraced library grade of
        // the same members for the overhead.
        let mut work = vec![Work::default(); problems.len()];
        let mut replayers: Vec<Replayer> = graders
            .iter()
            .map(|grader| Replayer::new(grader, true))
            .collect();
        let start = Instant::now();
        for &m in &arrival {
            let member = &members[m];
            let (verdict, grade_work) = replayers[member.problem].grade(member.source());
            work[member.problem].add(&grade_work);
            if verdict != member.reference {
                mismatches += 1;
                println!("REPLAY MISMATCH {} member {m}", problems[member.problem].id);
            }
        }
        let replay_wall = start.elapsed();
        let start = Instant::now();
        for member in &members {
            std::hint::black_box(graders[member.problem].grade_source(member.source()));
        }
        let untraced_wall = start.elapsed();
        let mut layers = Layers::default();
        for replayer in &replayers {
            layers.merge(&replayer.layers);
        }
        for (problem, work) in problems.iter().zip(&work) {
            println!(
                "problem {:<15} conflicts {} candidates {} sweeps {} sweep_inputs {}",
                problem.id, work.conflicts, work.candidates, work.sweeps, work.sweep_inputs
            );
        }
        println!(
            "counters daemon conflicts {} candidates {} sweeps {} sweep_inputs {}",
            layers.work.conflicts,
            layers.work.candidates,
            layers.work.sweeps,
            layers.work.sweep_inputs
        );
        layers.print_accounting();
        layers.put_metrics(&mut metrics);

        let top_ok: Vec<&Sample> = top.samples.iter().filter(|s| s.ok).collect();
        let grade_ms: f64 = top_ok.iter().map(|s| s.grade_ms).sum();
        let overhead_ms: f64 = top_ok.iter().map(|s| s.rtt_ms - s.grade_ms).sum();
        let misses = top_ok.iter().filter(|s| !s.hit).count();
        let transfers = top_ok.iter().filter(|s| s.transfer_hit).count();
        let late = top.samples.iter().filter(|s| s.late_ms > LATE_MS).count();
        let conflicts_saved = stats
            .as_ref()
            .map_or(0.0, |json| sum_field(json, "conflicts_saved"));
        let latencies = top.latencies();
        metrics.put(
            "core.worker_busy_frac",
            ratio(grade_ms / 1e3, top.wall.as_secs_f64() * threads as f64),
            "fraction",
        );
        metrics.put(
            "core.cache_hit_rate",
            ratio((top_ok.len() - misses) as f64, top.samples.len() as f64),
            "fraction",
        );
        metrics.put(
            "core.transfer_rate",
            ratio(transfers as f64, misses as f64),
            "fraction",
        );
        metrics.put("core.conflicts_saved", conflicts_saved, "count");
        metrics.put(
            "core.fail_rate",
            ratio(failed as f64, attempted as f64),
            "fraction",
        );
        metrics.put(
            "service.grade_ms",
            ratio(grade_ms, top_ok.len() as f64),
            "ms",
        );
        metrics.put(
            "service.overhead_ms",
            ratio(overhead_ms, top_ok.len() as f64),
            "ms",
        );
        metrics.put(
            "service.shed_rate",
            ratio(shed as f64, attempted as f64),
            "fraction",
        );
        metrics.put("service.max_rps", max_rps, "1/s");
        metrics.put("service.resubmit_per_s", hits_per_s, "1/s");
        metrics.put("service.req_p50_ms", percentile(&latencies, 0.5), "ms");
        metrics.put("service.req_p99_ms", percentile(&latencies, 0.99), "ms");
        metrics.put(
            "gen.late_frac",
            ratio(late as f64, top.samples.len() as f64),
            "fraction",
        );
        metrics.put(
            "trace.overhead_ms",
            ms(replay_wall) - ms(untraced_wall),
            "ms",
        );
    }
    metrics.print_table();
    Outcome {
        metrics,
        attempted,
        failed,
        mismatches,
    }
}

fn problem_path(problem: &Problem, registration: usize) -> String {
    format!("/problems/{}-{registration}/grade", problem.id)
}

/// Registers every problem under ids suffixed `-{registration}` (a cold
/// cache and cluster index per registration).
fn register(addr: SocketAddr, problems: &[Problem], registration: usize) {
    for problem in problems {
        let body = Json::object([
            ("problem", Json::str(problem.id)),
            ("id", Json::str(format!("{}-{registration}", problem.id))),
            ("max_cost", Json::Int(crate::MAX_COST as i64)),
            ("max_candidates", Json::Int(crate::MAX_CANDIDATES as i64)),
            (
                "time_budget_ms",
                Json::Int(crate::TIME_BUDGET.as_millis() as i64),
            ),
        ]);
        let (status, response) =
            afg_service::client::post(addr, "/problems", &body).expect("registration request");
        assert_eq!(status, 201, "registration failed: {response}");
    }
}

/// The distinct members of the population (one per canonical form), with
/// their library `grade_source` verdicts.  Members whose search runs out
/// of budget are left out: a timed-out grade has no definitive answer.
fn population(problems: &[Problem], graders: &[Autograder]) -> Vec<Member> {
    let mut candidates = Vec::new();
    let mut seen = HashSet::new();
    for (p, problem) in problems.iter().enumerate() {
        for submission in generate_corpus(problem, &CorpusSpec::table1_like(ATTEMPTS, CORPUS_SEED))
        {
            let key = match parse_program(&submission.source) {
                Ok(program) => format!("{p}:{:016x}", fingerprint64(&program)),
                Err(_) => format!("{p}:{}", submission.source),
            };
            if seen.insert(key) {
                candidates.push((p, submission.source));
            }
        }
    }
    candidates
        .into_iter()
        .filter_map(|(problem, source)| {
            let reference = Verdict::of(&graders[problem].grade_source(&source));
            (reference.kind != "timeout").then(|| Member {
                problem,
                body: Json::object([("source", Json::str(source))]),
                reference,
            })
        })
        .collect()
}

/// A step's request stream: member `arrival[j]` is first seen at slot
/// `j * requests / members`; every other slot resubmits a member already
/// seen, Zipf-skewed towards the earliest arrivals.
fn schedule(arrival: &[usize], requests: usize, rng: &mut StdRng) -> Vec<usize> {
    let members = arrival.len();
    let requests = requests.max(members);
    let mut stream = Vec::with_capacity(requests);
    let mut seen = 0;
    for slot in 0..requests {
        if seen < members && slot >= seen * requests / members {
            stream.push(arrival[seen]);
            seen += 1;
        } else {
            stream.push(arrival[zipf_rank(rng, seen)]);
        }
    }
    stream
}

/// A rank in `0..n` drawn with weight `1 / (rank + 1)`.
fn zipf_rank(rng: &mut StdRng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut u = ((rng.next_u64() >> 11) as f64) / ((1u64 << 53) as f64) * total;
    for rank in 0..n {
        u -= 1.0 / (rank + 1) as f64;
        if u < 0.0 {
            return rank;
        }
    }
    n - 1
}

/// Sends `stream` from a pool of `connections` keep-alive connections:
/// each free connection takes the next request.  With a `rate` the loop
/// is open (request `i` is due at `i / rate` and timed from then);
/// without, it is closed (each request is due when a connection frees).
fn drive(
    addr: SocketAddr,
    problems: &[Problem],
    members: &[Member],
    stream: &[usize],
    rate: Option<f64>,
    registration: usize,
    connections: usize,
) -> Step {
    let paths: Vec<String> = problems
        .iter()
        .map(|p| problem_path(p, registration))
        .collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<(usize, Sample)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                let (paths, next) = (&paths, &next);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).ok();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&member) = stream.get(i) else { break };
                        let due = match rate {
                            Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
                            None => Instant::now(),
                        };
                        let now = Instant::now();
                        if now < due {
                            thread::sleep(due - now);
                        }
                        out.push((i, send(&mut client, addr, paths, members, member, due)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed();
    samples.sort_by_key(|(i, _)| *i);
    Step {
        rate: rate.unwrap_or(0.0),
        samples: samples.into_iter().map(|(_, s)| s).collect(),
        wall,
    }
}

/// One grade request; a refused or broken connection is a failed sample
/// and the next request reconnects.
fn send(
    client: &mut Option<Client>,
    addr: SocketAddr,
    paths: &[String],
    members: &[Member],
    member: usize,
    due: Instant,
) -> Sample {
    let sent = Instant::now();
    let mut sample = Sample {
        member,
        latency_ms: 0.0,
        late_ms: ms(sent.saturating_duration_since(due)),
        rtt_ms: 0.0,
        grade_ms: 0.0,
        ok: false,
        shed: false,
        hit: false,
        transfer_hit: false,
        verdict_ok: false,
    };
    if client.is_none() {
        *client = Client::connect(addr).ok();
    }
    let target = &members[member];
    let response = client
        .as_mut()
        .map(|c| c.post(&paths[target.problem], &target.body));
    let done = Instant::now();
    sample.latency_ms = ms(done.saturating_duration_since(due));
    sample.rtt_ms = ms(done - sent);
    match response {
        Some(Ok((200, body))) => {
            sample.ok = true;
            sample.grade_ms = body.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0);
            sample.hit = body.get("cache").and_then(Json::as_str) == Some("hit");
            sample.transfer_hit = body.get("transfer").and_then(Json::as_str) == Some("hit");
            sample.verdict_ok = Verdict::from_json(&body).as_ref() == Some(&target.reference);
            if !sample.verdict_ok {
                println!(
                    "VERDICT MISMATCH daemon member {member}: response {body}, grade_source {:?}",
                    target.reference
                );
            }
        }
        Some(Ok((status, _))) => sample.shed = status == 503,
        Some(Err(_)) | None => *client = None,
    }
    sample
}

/// Sums every numeric field named `name` anywhere in `json`.
fn sum_field(json: &Json, name: &str) -> f64 {
    match json {
        Json::Object(pairs) => pairs
            .iter()
            .map(|(key, value)| {
                if key == name {
                    value.as_f64().unwrap_or(0.0)
                } else {
                    sum_field(value, name)
                }
            })
            .sum(),
        Json::Array(items) => items.iter().map(|item| sum_field(item, name)).sum(),
        _ => 0.0,
    }
}
