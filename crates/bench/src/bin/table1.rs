//! Regenerates **Table 1** of the paper: per-benchmark totals, syntax
//! errors, correct/incorrect split, percentage of incorrect attempts with
//! generated feedback, and average/median grading time.
//!
//! ```text
//! cargo run --release -p afg-bench --bin table1 -- [--attempts N] [--seed S] [--workers N] [--json] [--backend cegis|enum]
//! ```
//!
//! With `--json` the table is emitted as a single JSON document (via
//! `afg-json`) so CI and scripts can consume the results without scraping
//! the human-formatted text; the document carries per-row solver work
//! (`sat_conflicts`/`sat_learnts`/…) and an aggregate `solver` object.
//! `--backend` selects the search engine, so backend speedups are
//! *measured* on the same corpus rather than asserted; the aggregate
//! `sweep_ns_per_input` reports verification throughput.
//!
//! The corpora are synthetic (see DESIGN.md); absolute counts therefore
//! differ from the paper, but the shape — a majority of incorrect attempts
//! repaired, seconds-per-submission grading times, harder problems
//! (hangman2, iterGCD) taking longer — should match.  Grading runs on the
//! parallel [`afg_core::BatchGrader`] engine; note that the per-submission
//! wall-clock budget means Fixed/Timeout counts can shift slightly with
//! machine load and worker count — pass `--workers 1` for strictly
//! reproducible counts (and undistorted per-submission times).

use afg_bench::{run_problem_on, CliOptions, Table1Row};
use afg_corpus::{problems, CorpusSpec};
use afg_json::{Json, ToJson};

/// Corpus-wide verification throughput: total verification wall over total
/// candidate executions, in nanoseconds per input.
fn sweep_ns_per_input(rows: &[Table1Row]) -> f64 {
    let inputs: u64 = rows.iter().map(|r| r.sweep_inputs).sum();
    if inputs == 0 {
        return 0.0;
    }
    let wall: std::time::Duration = rows.iter().map(|r| r.verify_elapsed).sum();
    wall.as_nanos() as f64 / inputs as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = CliOptions::parse_or_exit(&args, 40);
    let engine = options.engine();
    let (attempts, seed) = (options.attempts, options.seed);
    let mut config = afg_bench::experiment_config();
    options.apply_to(&mut config);

    if !options.json {
        println!("Table 1: attempts corrected and grading time per benchmark");
        println!(
            "(synthetic corpus: {attempts} attempts per benchmark, seed {seed}, {} workers, {} backend)",
            engine.workers(),
            options.backend.name()
        );
        println!();
        println!("{}", Table1Row::header());
    }

    let mut rows = Vec::new();
    let mut total_incorrect = 0usize;
    let mut total_fixed = 0usize;
    for problem in problems::all_problems() {
        let spec = CorpusSpec::table1_like(attempts, seed ^ problem.id.len() as u64);
        let (row, _records, _report) =
            run_problem_on(&problem, None, &spec, config.clone(), &engine);
        if !options.json {
            println!("{}", row.format_row());
        }
        total_incorrect += row.incorrect;
        total_fixed += row.generated_feedback;
        rows.push(row);
    }

    let overall = if total_incorrect == 0 {
        0.0
    } else {
        100.0 * total_fixed as f64 / total_incorrect as f64
    };
    // Aggregate solver work across the corpus — the trend line CI prints
    // into its job log.
    let solver = Json::object([
        (
            "sat_conflicts",
            rows.iter().map(|r| r.sat_conflicts).sum::<u64>().to_json(),
        ),
        (
            "sat_propagations",
            rows.iter()
                .map(|r| r.sat_propagations)
                .sum::<u64>()
                .to_json(),
        ),
        (
            "sat_learnts",
            rows.iter().map(|r| r.sat_learnts).sum::<u64>().to_json(),
        ),
        (
            "timeouts",
            rows.iter().map(|r| r.timeouts).sum::<usize>().to_json(),
        ),
        (
            "sweeps",
            rows.iter().map(|r| r.sweeps).sum::<u64>().to_json(),
        ),
        (
            "sweep_inputs",
            rows.iter().map(|r| r.sweep_inputs).sum::<u64>().to_json(),
        ),
        (
            "verify_ms",
            rows.iter()
                .map(|r| r.verify_elapsed)
                .sum::<std::time::Duration>()
                .to_json(),
        ),
        ("sweep_ns_per_input", sweep_ns_per_input(&rows).to_json()),
    ]);

    if options.json {
        // Machine-readable mode for CI and scripts: one JSON document on
        // stdout, nothing else.
        let doc = Json::object([
            ("attempts", attempts.to_json()),
            ("seed", seed.to_json()),
            ("workers", engine.workers().to_json()),
            ("backend", Json::str(options.backend.name())),
            ("rows", rows.to_json()),
            ("solver", solver),
            (
                "overall",
                Json::object([
                    ("incorrect", total_incorrect.to_json()),
                    ("generated_feedback", total_fixed.to_json()),
                    ("feedback_percent", overall.to_json()),
                ]),
            ),
        ]);
        println!("{doc}");
    } else {
        println!();
        println!(
            "Overall: {total_fixed}/{total_incorrect} incorrect attempts repaired ({overall:.1}%); the paper reports 64%."
        );
        println!(
            "Verification: {} sweeps, {} candidate executions, {:.0} ns/input",
            solver.get("sweeps").and_then(Json::as_i64).unwrap_or(0),
            solver
                .get("sweep_inputs")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            sweep_ns_per_input(&rows)
        );
        println!(
            "Solver: {} conflicts, {} learnts, {} propagations, {} timeouts ({} backend)",
            solver
                .get("sat_conflicts")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            solver
                .get("sat_learnts")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            solver
                .get("sat_propagations")
                .and_then(Json::as_i64)
                .unwrap_or(0),
            solver.get("timeouts").and_then(Json::as_i64).unwrap_or(0),
            options.backend.name()
        );
    }
}
