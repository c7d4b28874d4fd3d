//! The library-path workloads: `corpus` (Table 1) and `cohort`
//! (clustered classroom cohorts).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use afg_bench::classroom::{classroom_cohort, ClassroomSpec};
use afg_core::{Autograder, BatchGrader, BatchReport, ClusterIndex, FingerprintCache};
use afg_corpus::rng::StdRng;
use afg_corpus::{generate_corpus, problems, CorpusSpec, Problem};

use crate::layers::{Replayer, Work};
use crate::report::{digest, median, ms, peak_rss_mb, percentile, ratio, Metrics, Verdict};
use crate::{grader_config, par_map, Outcome, RunArgs, SETUP_REPS};

/// Seed of the `table1_like` corpus generator (the experiment binaries'
/// default).  The corpus plays the part of Table 1's fixed set of student
/// attempts; `--seed` orders it.
pub const CORPUS_SEED: u64 = 20_130_616;
/// Attempts per problem (about 100 incorrect submissions in all).
const CORPUS_ATTEMPTS: usize = 20;

/// Cohorts: (problem, classroom generator seed), each of
/// `STUDENTS_PER_SKELETON * SKELETONS` students.  The seeds give cohorts
/// whose searches all finish within the candidate budget.
const COHORTS: &[(&str, u64)] = &[
    ("compDeriv", 1),
    ("compDeriv", 10),
    ("prodBySum", 6),
    ("prodBySum", 11),
    ("hangman1", 1),
];
const SKELETONS: usize = 8;
const STUDENTS_PER_SKELETON: usize = 15;

/// One problem's share of a library workload.
struct Job {
    problem: Problem,
    grader: Autograder,
    /// Sources in the generator's order (digests follow this order).
    sources: Vec<String>,
    /// Grading order over `sources`' indices: seeded for the corpus, the
    /// generator's arrival order for a cohort.
    order: Vec<usize>,
}

pub fn run_corpus(args: &RunArgs) -> Outcome {
    println!(
        "corpus: {} problems x table1_like({CORPUS_ATTEMPTS}, {CORPUS_SEED}), max_cost {}, max_candidates {}, 1 worker, cache off",
        problems::all_problems().len(),
        crate::MAX_COST,
        crate::MAX_CANDIDATES,
    );
    let inputs: Vec<(Problem, Vec<String>)> = problems::all_problems()
        .into_iter()
        .map(|problem| {
            let corpus = generate_corpus(
                &problem,
                &CorpusSpec::table1_like(CORPUS_ATTEMPTS, CORPUS_SEED),
            );
            let sources = corpus.into_iter().map(|s| s.source).collect();
            (problem, sources)
        })
        .collect();
    run_library(args, inputs, false)
}

pub fn run_cohort(args: &RunArgs) -> Outcome {
    let inputs: Vec<(Problem, Vec<String>)> = COHORTS
        .iter()
        .map(|&(id, seed)| {
            let problem = problems::problem(id).expect("cohort problems exist");
            let spec = ClassroomSpec {
                students: SKELETONS * STUDENTS_PER_SKELETON,
                skeletons: SKELETONS,
                seed,
            };
            println!(
                "cohort: {id} {} students over {SKELETONS} skeletons (generator seed {seed})",
                spec.students
            );
            // The seed picks each student's inert scratchpad constant; the
            // arrival order stays the generator's, so cluster
            // representatives (and the work) repeat across seeds.
            let base = 1_000_000 + (args.seed % 1_000_000) as i64 * 1_000;
            let sources = classroom_cohort(&problem, &spec)
                .iter()
                .enumerate()
                .map(|(s, source)| with_scratchpad(source, base + s as i64))
                .collect();
            (problem, sources)
        })
        .collect();
    println!(
        "cohort: max_cost {}, max_candidates {}, 1 worker, fresh FingerprintCache + ClusterIndex per cohort",
        crate::MAX_COST,
        crate::MAX_CANDIDATES
    );
    run_library(args, inputs, true)
}

/// Replaces the value of a classroom submission's `scratchpad = <constant>`
/// line.
fn with_scratchpad(source: &str, constant: i64) -> String {
    let mut found = false;
    let lines: Vec<String> = source
        .lines()
        .map(|line| match line.split_once("scratchpad = ") {
            Some((indent, _)) if !found => {
                found = true;
                format!("{indent}scratchpad = {constant}")
            }
            _ => line.to_string(),
        })
        .collect();
    assert!(found, "classroom submissions carry a scratchpad line");
    lines.join("\n") + "\n"
}

/// Builds every problem's grader; returns them and the median build time.
fn setup(problems: &[Problem]) -> (Vec<Autograder>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut graders = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        graders = problems
            .iter()
            .map(|problem| problem.autograder(grader_config()))
            .collect();
        times.push(start.elapsed().as_secs_f64());
    }
    (graders, median(&times))
}

/// The untraced grading pass: one `BatchGrader` worker per problem, in
/// seeded order.
struct Pass {
    /// Per problem, the report in grading order.
    reports: Vec<BatchReport>,
    wall: Duration,
    conflicts_saved: u64,
}

fn grade_pass(jobs: &[Job], clustered: bool) -> Pass {
    let engine = BatchGrader::new(1);
    let mut reports = Vec::with_capacity(jobs.len());
    let mut conflicts_saved = 0;
    let start = Instant::now();
    for job in jobs {
        let sources: Vec<&str> = job.order.iter().map(|&i| job.sources[i].as_str()).collect();
        let report = if clustered {
            let cache = FingerprintCache::new();
            let clusters = ClusterIndex::new();
            let report = engine.grade_sources_clustered(
                &job.grader,
                &sources,
                Some(&cache),
                Some(&clusters),
            );
            conflicts_saved += clusters.stats().conflicts_saved;
            report
        } else {
            engine.grade_sources(&job.grader, &sources)
        };
        reports.push(report);
    }
    Pass {
        reports,
        wall: start.elapsed(),
        conflicts_saved,
    }
}

fn run_library(args: &RunArgs, inputs: Vec<(Problem, Vec<String>)>, clustered: bool) -> Outcome {
    let problem_list: Vec<Problem> = inputs.iter().map(|(p, _)| p.clone()).collect();
    let (graders, setup_s) = setup(&problem_list);

    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut jobs: Vec<Job> = inputs
        .into_iter()
        .zip(graders)
        .map(|((problem, sources), grader)| {
            let mut order: Vec<usize> = (0..sources.len()).collect();
            if !clustered {
                rng.shuffle(&mut order);
            }
            Job {
                problem,
                grader,
                sources,
                order,
            }
        })
        .collect();
    rng.shuffle(&mut jobs);

    // The measured passes, untraced: whole passes until `--seconds` have
    // elapsed (one pass when tracing, which only needs the reference).
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || (!args.trace && start.elapsed().as_secs_f64() < args.seconds as f64)
    {
        passes.push(grade_pass(&jobs, clustered));
    }
    let measured = start.elapsed();
    let peak_rss = peak_rss_mb();
    let pass = &passes[0];

    // Graded verdicts per problem, in generator order; every pass must
    // agree with the first.
    let verdicts_of = |pass: &Pass| -> Vec<Vec<Verdict>> {
        jobs.iter()
            .zip(&pass.reports)
            .map(|(job, report)| {
                let mut verdicts = vec![None; job.sources.len()];
                for (&i, item) in job.order.iter().zip(&report.items) {
                    verdicts[i] = Some(Verdict::of(&item.outcome));
                }
                verdicts
                    .into_iter()
                    .map(|v| v.expect("every source graded"))
                    .collect()
            })
            .collect()
    };
    let graded = verdicts_of(pass);
    let pass_mismatches = passes[1..]
        .iter()
        .filter(|later| verdicts_of(later) != graded)
        .count();
    if pass_mismatches > 0 {
        println!("PASS MISMATCH: {pass_mismatches} later passes graded differently from the first");
    }

    // Traced replay, one layer call at a time, in the same order.
    let mut replay_wall = Duration::ZERO;
    let mut replay_mismatches = 0usize;
    let mut layers = crate::layers::Layers::default();
    let mut problem_work: Vec<Work> = vec![Work::default(); jobs.len()];
    if args.trace {
        let start = Instant::now();
        for ((job, verdicts), work) in jobs.iter().zip(&graded).zip(&mut problem_work) {
            let mut replayer = Replayer::new(&job.grader, clustered);
            for &i in &job.order {
                let (verdict, grade_work) = replayer.grade(&job.sources[i]);
                work.add(&grade_work);
                if verdict != verdicts[i] {
                    replay_mismatches += 1;
                    println!(
                        "REPLAY MISMATCH {} #{i}: replay {:?}/{:?}, grade {:?}/{:?}",
                        job.problem.id,
                        verdict.kind,
                        verdict.cost,
                        verdicts[i].kind,
                        verdicts[i].cost
                    );
                }
            }
            layers.merge(&replayer.layers);
        }
        replay_wall = start.elapsed();
    }

    // Verdict check: every verdict against a library `grade_source`.
    let check_start = Instant::now();
    let checks: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| (0..job.sources.len()).map(move |i| (j, i)))
        .collect();
    let references = par_map(&checks, |&(j, i)| {
        Verdict::of(&jobs[j].grader.grade_source(&jobs[j].sources[i]))
    });
    let mut mismatches = 0usize;
    for (&(j, i), reference) in checks.iter().zip(&references) {
        let graded = &graded[j][i];
        if reference != graded {
            mismatches += 1;
            println!(
                "VERDICT MISMATCH {} #{i}: graded {:?}/{:?}, grade_source {:?}/{:?}\n--- graded\n{}--- grade_source\n{}",
                jobs[j].problem.id, graded.kind, graded.cost, reference.kind, reference.cost, graded.text, reference.text
            );
        }
    }
    let check_wall = check_start.elapsed();

    // Per-problem lines, in the generator's problem order.
    let mut by_problem: Vec<usize> = (0..jobs.len()).collect();
    by_problem.sort_by_key(|&j| {
        problem_list
            .iter()
            .position(|p| p.id == jobs[j].problem.id)
            .expect("problem listed")
    });
    let mut all_verdicts: Vec<&Verdict> = Vec::new();
    for &j in &by_problem {
        let verdicts = &graded[j];
        all_verdicts.extend(verdicts.iter());
        let count = |kind: &str| verdicts.iter().filter(|v| v.kind == kind).count();
        let wall: Duration = pass.reports[j].items.iter().map(|item| item.elapsed).sum();
        let mut line = format!(
            "problem {:<15} graded {:>3} incorrect {:>3} feedback {:>3} timeout {:>3} grade_ms {:>9.1} digest {:016x}",
            jobs[j].problem.id,
            verdicts.len(),
            verdicts.iter().filter(|v| v.is_incorrect()).count(),
            count("feedback"),
            count("timeout"),
            ms(wall),
            digest(verdicts),
        );
        if args.trace {
            let work = &problem_work[j];
            line.push_str(&format!(
                " conflicts {} candidates {} sweeps {} sweep_inputs {}",
                work.conflicts, work.candidates, work.sweeps, work.sweep_inputs
            ));
        }
        println!("{line}");
    }
    println!(
        "digest {} {:016x}",
        args.workload,
        digest(all_verdicts.iter().copied())
    );
    if args.trace {
        let mut total = Work::default();
        problem_work.iter().for_each(|w| total.add(w));
        println!(
            "counters {} conflicts {} candidates {} sweeps {} sweep_inputs {}",
            args.workload, total.conflicts, total.candidates, total.sweeps, total.sweep_inputs
        );
    }

    // End-to-end metrics over the untraced passes: each submission's grade
    // time is its median over the passes.
    let items: Vec<(&Verdict, f64)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| {
            let graded = &graded[j];
            let passes = &passes;
            (0..job.order.len()).map(move |k| {
                let times: Vec<f64> = passes
                    .iter()
                    .map(|pass| ms(pass.reports[j].items[k].elapsed))
                    .collect();
                (&graded[job.order[k]], median(&times))
            })
        })
        .collect();
    let attempted = items.len() * passes.len();
    let all_ms: Vec<f64> = items.iter().map(|(_, t)| *t).collect();
    let incorrect_ms: Vec<f64> = items
        .iter()
        .filter(|(v, _)| v.is_incorrect())
        .map(|(_, t)| *t)
        .collect();
    let incorrect = incorrect_ms.len();
    let feedback = items.iter().filter(|(v, _)| v.kind == "feedback").count();
    let timeouts = items.iter().filter(|(v, _)| v.kind == "timeout").count();
    println!(
        "samples: {} submissions x {} passes in {:.3} s, {incorrect} incorrect (p90 has {} beyond it), check {:.3} s",
        items.len(),
        passes.len(),
        measured.as_secs_f64(),
        incorrect - (0.9 * incorrect as f64).ceil() as usize,
        check_wall.as_secs_f64()
    );

    let mut metrics = Metrics::default();
    if !args.trace {
        metrics.put("setup_s", setup_s, "s");
        metrics.put(
            "grades_per_s",
            ratio(
                attempted as f64,
                passes.iter().map(|p| p.wall.as_secs_f64()).sum(),
            ),
            "1/s",
        );
        metrics.put("grade_p50_ms", percentile(&incorrect_ms, 0.5), "ms");
        metrics.put("grade_p90_ms", percentile(&incorrect_ms, 0.9), "ms");
        metrics.put(
            "repair_rate",
            ratio(feedback as f64, incorrect as f64),
            "fraction",
        );
        metrics.put("peak_rss_mb", peak_rss, "MB");
    } else {
        layers.print_accounting();
        layers.put_metrics(&mut metrics);
        let totals: Vec<_> = pass.reports.iter().map(BatchReport::totals).collect();
        let busy: Duration = pass.reports.iter().map(BatchReport::busy_time).sum();
        let searched: usize = totals.iter().map(|t| t.cache_misses).sum();
        let transfers: usize = totals.iter().map(|t| t.transfer_hits).sum();
        let hits: usize = totals.iter().map(|t| t.cache_hits).sum();
        let grade_ms: f64 = all_ms.iter().sum();
        metrics.put(
            "core.worker_busy_frac",
            ratio(busy.as_secs_f64(), pass.wall.as_secs_f64()),
            "fraction",
        );
        metrics.put(
            "core.cache_hit_rate",
            ratio(hits as f64, items.len() as f64),
            "fraction",
        );
        metrics.put(
            "core.transfer_rate",
            ratio(transfers as f64, searched as f64),
            "fraction",
        );
        metrics.put("core.conflicts_saved", pass.conflicts_saved as f64, "count");
        metrics.put(
            "core.fail_rate",
            ratio(timeouts as f64, items.len() as f64),
            "fraction",
        );
        metrics.put(
            "service.grade_ms",
            ratio(grade_ms, items.len() as f64),
            "ms",
        );
        metrics.put(
            "service.overhead_ms",
            ratio(ms(pass.wall) - grade_ms, items.len() as f64),
            "ms",
        );
        metrics.put("service.shed_rate", 0.0, "fraction");
        metrics.put("service.max_rps", 0.0, "1/s");
        metrics.put("service.resubmit_per_s", 0.0, "1/s");
        metrics.put("service.req_p50_ms", percentile(&all_ms, 0.5), "ms");
        metrics.put("service.req_p99_ms", percentile(&all_ms, 0.99), "ms");
        metrics.put("gen.late_frac", 0.0, "fraction");
        metrics.put("trace.overhead_ms", ms(replay_wall) - ms(pass.wall), "ms");
    }
    metrics.print_table();
    Outcome {
        metrics,
        attempted,
        failed: 0,
        mismatches: mismatches + replay_mismatches + pass_mismatches,
    }
}

/// The self-test: a small configuration, replayed twice, must repeat its
/// verdict digests and work counters exactly, and every replayed verdict
/// must equal the library's (`grade_source` cold, the clustered batch path
/// for a cohort).
pub fn self_test() -> ExitCode {
    let run = || {
        let mut lines = Vec::new();
        let mut mismatches = 0;
        for id in ["compDeriv", "iterPower", "hangman1"] {
            let problem = problems::problem(id).expect("problem exists");
            let grader = problem.autograder(grader_config());
            let corpus = generate_corpus(&problem, &CorpusSpec::table1_like(8, CORPUS_SEED));
            let mut replayer = Replayer::new(&grader, false);
            let mut verdicts = Vec::new();
            for submission in &corpus {
                let (verdict, _) = replayer.grade(&submission.source);
                mismatches +=
                    usize::from(verdict != Verdict::of(&grader.grade_source(&submission.source)));
                verdicts.push(verdict);
            }
            lines.push((id, false, digest(&verdicts), replayer.layers.work));
        }
        let problem = problems::problem("compDeriv").expect("problem exists");
        let grader = problem.autograder(grader_config());
        let spec = ClassroomSpec {
            students: 16,
            skeletons: 4,
            seed: 1,
        };
        let sources = classroom_cohort(&problem, &spec);
        let report = BatchGrader::new(1).grade_sources_clustered(
            &grader,
            &sources,
            Some(&FingerprintCache::new()),
            Some(&ClusterIndex::new()),
        );
        let mut replayer = Replayer::new(&grader, true);
        let mut verdicts = Vec::new();
        for (source, item) in sources.iter().zip(&report.items) {
            let (verdict, _) = replayer.grade(source);
            mismatches += usize::from(verdict != Verdict::of(&item.outcome));
            verdicts.push(verdict);
        }
        lines.push(("compDeriv", true, digest(&verdicts), replayer.layers.work));
        (lines, mismatches)
    };
    let (first, first_mismatches) = run();
    let (second, second_mismatches) = run();
    for (id, clustered, digest, work) in &first {
        println!(
            "self-test {id:<10} clustered {clustered:<5} digest {digest:016x} conflicts {} candidates {} sweeps {} sweep_inputs {}",
            work.conflicts, work.candidates, work.sweeps, work.sweep_inputs
        );
    }
    let repeat = first == second;
    println!(
        "self-test: counters and digests {}, {} verdict mismatches",
        if repeat {
            "repeat exactly"
        } else {
            "DIFFER between runs"
        },
        first_mismatches + second_mismatches
    );
    if repeat && first_mismatches + second_mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
