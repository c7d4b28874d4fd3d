//! `perfbench` — the repository benchmark: end-to-end metrics from an
//! untraced run, per-layer metrics from a traced replay of every grade.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus|cohort|daemon --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Every verdict is checked against a library `grade_source` of the same
//! source and configuration; a mismatch fails the run.  The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod affinity;
mod daemon;
mod layers;
mod library;
mod report;

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use afg_core::{GraderConfig, SynthesisConfig};

use report::Metrics;

/// Search budget in work: at most this many corrections...
pub const MAX_COST: usize = 4;
/// ...and this many candidate programs per grade.
pub const MAX_CANDIDATES: usize = 5_000;
/// The wall-clock budget, set out of reach so verdicts are a pure
/// function of the submission.
pub const TIME_BUDGET: Duration = Duration::from_secs(3_600);
/// Set-up repetitions per run (the median is reported).
pub const SETUP_REPS: usize = 51;

/// End-to-end metrics (`--trace 0`), in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("grades_per_s", "1/s"),
    ("grade_p50_ms", "ms"),
    ("grade_p90_ms", "ms"),
    ("repair_rate", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in print order.
const PER_LAYER: &[(&str, &str)] = &[
    ("parser.parse_ms", "ms"),
    ("parser.parses", "count"),
    ("ast.canon_ms", "ms"),
    ("eml.rewrite_ms", "ms"),
    ("eml.choice_sites", "count"),
    ("interp.compile_ms", "ms"),
    ("interp.verify_ms", "ms"),
    ("interp.sweeps", "count"),
    ("interp.sweep_inputs", "count"),
    ("interp.ns_per_input", "ns"),
    ("interp.verdict_cache_hit_rate", "fraction"),
    ("synth.encode_ms", "ms"),
    ("synth.search_ms", "ms"),
    ("synth.candidates", "count"),
    ("synth.cegis_other_ms", "ms"),
    ("sat.sat_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.us_per_conflict", "us"),
    ("core.feedback_ms", "ms"),
    ("core.worker_busy_frac", "fraction"),
    ("core.cache_hit_rate", "fraction"),
    ("core.transfer_rate", "fraction"),
    ("core.conflicts_saved", "count"),
    ("core.fail_rate", "fraction"),
    ("service.grade_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.shed_rate", "fraction"),
    ("service.max_rps", "1/s"),
    ("service.resubmit_per_s", "1/s"),
    ("service.req_p50_ms", "ms"),
    ("service.req_p99_ms", "ms"),
    ("gen.late_frac", "fraction"),
    ("trace.overhead_ms", "ms"),
];

/// The grading configuration every workload uses.
pub fn grader_config() -> GraderConfig {
    GraderConfig {
        synthesis: SynthesisConfig {
            max_cost: MAX_COST,
            max_candidates: MAX_CANDIDATES,
            time_budget: TIME_BUDGET,
        },
        ..GraderConfig::fast()
    }
}

/// Maps `f` over `items` on every CPU the process started with,
/// preserving order.  Used only for verdict checks, which are not timed.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..affinity::cpus())
            .map(|_| {
                scope.spawn(|| {
                    affinity::release();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("check worker"))
            .collect()
    });
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload run produced.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Verdicts that differ from the library's (or from the replay's).
    pub mismatches: usize,
}

const USAGE: &str = "usage: perfbench --workload corpus|cohort|daemon --seed N --seconds S --trace 0|1\n       perfbench --self-test";

fn parse_args(args: &[String]) -> Result<Option<RunArgs>, String> {
    if args == ["--self-test"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad value for {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["corpus", "cohort", "daemon"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Some(RunArgs {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(Some(run)) => run,
        Ok(None) => return library::self_test(),
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpu = affinity::pin();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}; timed phases pinned to CPU {cpu:?} of {}",
        run.workload,
        run.seed,
        run.seconds,
        run.trace as u8,
        affinity::cpus()
    );
    let outcome = match run.workload.as_str() {
        "corpus" => library::run_corpus(&run),
        "cohort" => library::run_cohort(&run),
        _ => daemon::run(&run),
    };
    let expected = if run.trace { PER_LAYER } else { END_TO_END };
    assert_eq!(
        outcome.metrics.names(),
        expected.to_vec(),
        "metric list differs from the declared one"
    );
    let correct = outcome.mismatches == 0;
    println!("mismatches {}", outcome.mismatches);
    println!(
        "{}",
        outcome
            .metrics
            .result_line(correct, outcome.attempted, outcome.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
