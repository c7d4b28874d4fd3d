//! The traced replay: one grade re-run one public layer call at a time.
//!
//! parse → canon → rewrite → compile → encode → search → feedback, each
//! timed around the call into its crate.  `compile` and `encode` are probes:
//! the search builds its own bytecode and SAT encoding internally, so those
//! two calls are timed on their own and kept out of the grade's wall time.
//! The search time is split with the `SynthesisStats` it returns (SAT,
//! verification, and the CEGIS loop's own remainder), for every outcome.
//!
//! With a cluster mirror, the replay reproduces the library's skeleton
//! cluster warm starts (`Autograder::grade_source_clustered`): the first
//! proven repair of a skeleton is offered to later cluster-mates together
//! with the skeleton's most lethal counterexample inputs.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use afg_ast::canon::{fingerprint64, fnv1a64, skeleton_fingerprint64, skeleton_source};
use afg_core::{corrections_from_assignment, Autograder, Feedback, GradeOutcome};
use afg_eml::{apply_error_model, ChoiceAssignment, ChoiceProgram};
use afg_interp::CompiledProgram;
use afg_parser::parse_program;
use afg_sat::Solver;
use afg_synth::{ChoiceEncoding, SynthesisOutcome, SynthesisStats, WarmStart};

use crate::report::{ms, ratio, Metrics, Verdict};

/// How many of a skeleton's killer inputs a warm start is offered (the
/// library's own hint limit).
const KILLER_HINT_LIMIT: usize = 8;

/// Time and work per layer, summed over replayed grades.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layers {
    pub parses: u64,
    pub parse: Duration,
    pub canon: Duration,
    pub rewrite: Duration,
    pub choice_sites: u64,
    pub compile: Duration,
    pub encode: Duration,
    pub search: Duration,
    pub sat: Duration,
    pub verify: Duration,
    pub feedback: Duration,
    /// Wall time of the replayed grades, probes excluded.
    pub grade_wall: Duration,
    pub work: Work,
}

/// The deterministic work counters of a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub conflicts: u64,
    pub propagations: u64,
    pub candidates: u64,
    pub sweeps: u64,
    pub sweep_inputs: u64,
    pub sweep_cache_hits: u64,
}

impl Work {
    fn add_stats(&mut self, stats: &SynthesisStats) {
        self.conflicts += stats.sat_conflicts;
        self.propagations += stats.sat_propagations;
        self.candidates += stats.candidates_checked as u64;
        self.sweeps += stats.sweeps;
        self.sweep_inputs += stats.sweep_inputs;
        self.sweep_cache_hits += stats.sweep_cache_hits;
    }

    pub fn add(&mut self, other: &Work) {
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.candidates += other.candidates;
        self.sweeps += other.sweeps;
        self.sweep_inputs += other.sweep_inputs;
        self.sweep_cache_hits += other.sweep_cache_hits;
    }
}

impl Layers {
    pub fn merge(&mut self, other: &Layers) {
        self.parses += other.parses;
        self.parse += other.parse;
        self.canon += other.canon;
        self.rewrite += other.rewrite;
        self.choice_sites += other.choice_sites;
        self.compile += other.compile;
        self.encode += other.encode;
        self.search += other.search;
        self.sat += other.sat;
        self.verify += other.verify;
        self.feedback += other.feedback;
        self.grade_wall += other.grade_wall;
        self.work.add(&other.work);
    }

    /// Self time of the five layers that make up a grade.
    pub fn accounted(&self) -> Duration {
        self.parse + self.canon + self.rewrite + self.search + self.feedback
    }

    /// The per-layer metrics this replay measures.
    pub fn put_metrics(&self, metrics: &mut Metrics) {
        let search_other = self.search.saturating_sub(self.sat + self.verify);
        let verify_ns = self.verify.as_secs_f64() * 1e9;
        metrics.put("parser.parse_ms", ms(self.parse), "ms");
        metrics.put("parser.parses", self.parses as f64, "count");
        metrics.put("ast.canon_ms", ms(self.canon), "ms");
        metrics.put("eml.rewrite_ms", ms(self.rewrite), "ms");
        metrics.put("eml.choice_sites", self.choice_sites as f64, "count");
        metrics.put("interp.compile_ms", ms(self.compile), "ms");
        metrics.put("interp.verify_ms", ms(self.verify), "ms");
        metrics.put("interp.sweeps", self.work.sweeps as f64, "count");
        metrics.put(
            "interp.sweep_inputs",
            self.work.sweep_inputs as f64,
            "count",
        );
        metrics.put(
            "interp.ns_per_input",
            ratio(verify_ns, self.work.sweep_inputs as f64),
            "ns",
        );
        metrics.put(
            "interp.verdict_cache_hit_rate",
            ratio(
                self.work.sweep_cache_hits as f64,
                self.work.sweep_inputs as f64,
            ),
            "fraction",
        );
        metrics.put("synth.encode_ms", ms(self.encode), "ms");
        metrics.put("synth.search_ms", ms(self.search), "ms");
        metrics.put("synth.candidates", self.work.candidates as f64, "count");
        metrics.put("synth.cegis_other_ms", ms(search_other), "ms");
        metrics.put("sat.sat_ms", ms(self.sat), "ms");
        metrics.put("sat.conflicts", self.work.conflicts as f64, "count");
        metrics.put("sat.propagations", self.work.propagations as f64, "count");
        metrics.put(
            "sat.us_per_conflict",
            ratio(self.sat.as_secs_f64() * 1e6, self.work.conflicts as f64),
            "us",
        );
        metrics.put("core.feedback_ms", ms(self.feedback), "ms");
    }

    /// One line saying how much of the traced grade time the layers cover.
    pub fn print_accounting(&self) {
        let other = self.search.saturating_sub(self.sat + self.verify);
        println!(
            "accounting: parse {:.3} + canon {:.3} + rewrite {:.3} + search {:.3} + feedback {:.3} \
             = {:.3} of {:.3} ms traced grade wall ({:.2}%); search = sat {:.3} + verify {:.3} + other {:.3}; \
             probes: compile {:.3} encode {:.3} ms",
            ms(self.parse),
            ms(self.canon),
            ms(self.rewrite),
            ms(self.search),
            ms(self.feedback),
            ms(self.accounted()),
            ms(self.grade_wall),
            100.0 * ratio(ms(self.accounted()), ms(self.grade_wall)),
            ms(self.sat),
            ms(self.verify),
            ms(other),
            ms(self.compile),
            ms(self.encode),
        );
    }
}

/// A skeleton cluster as the library's cluster index keeps it.
#[derive(Default)]
struct Cluster {
    repair: Option<Repair>,
    killers: HashMap<usize, u64>,
}

#[derive(Clone)]
struct Repair {
    assignment: ChoiceAssignment,
    counterexamples: Vec<usize>,
    signature: u64,
}

/// Replays grades for one problem.
pub struct Replayer<'a> {
    grader: &'a Autograder,
    /// `Some` to mirror skeleton-cluster warm starts.
    clusters: Option<HashMap<String, Cluster>>,
    pub layers: Layers,
}

impl<'a> Replayer<'a> {
    pub fn new(grader: &'a Autograder, clustered: bool) -> Replayer<'a> {
        Replayer {
            grader,
            clusters: clustered.then(HashMap::new),
            layers: Layers::default(),
        }
    }

    /// Replays one grade and returns its verdict and search work.
    pub fn grade(&mut self, source: &str) -> (Verdict, Work) {
        let start = Instant::now();
        let mut probes = Duration::ZERO;
        let (verdict, work) = self.grade_inner(source, &mut probes);
        self.layers.grade_wall += start.elapsed().saturating_sub(probes);
        self.layers.work.add(&work);
        (verdict, work)
    }

    fn grade_inner(&mut self, source: &str, probes: &mut Duration) -> (Verdict, Work) {
        let grader = self.grader;
        let layers = &mut self.layers;
        let mut work = Work::default();

        let t = Instant::now();
        let parsed = parse_program(source);
        layers.parse += t.elapsed();
        layers.parses += 1;
        let program = match parsed {
            Ok(program) => program,
            Err(err) => return (Verdict::of(&GradeOutcome::SyntaxError(err)), work),
        };

        let t = Instant::now();
        std::hint::black_box((fingerprint64(&program), skeleton_fingerprint64(&program)));
        layers.canon += t.elapsed();
        let cluster_key = self.clusters.as_ref().map(|_| skeleton_source(&program));

        let t = Instant::now();
        let rewritten = apply_error_model(&program, Some(grader.entry()), grader.model());
        layers.rewrite += t.elapsed();
        let Ok(choice_program) = rewritten else {
            return (Verdict::of(&GradeOutcome::CannotFix), work);
        };
        layers.choice_sites += choice_program.num_choices() as u64;

        let t = Instant::now();
        std::hint::black_box(CompiledProgram::from_choice(&choice_program));
        let compile = t.elapsed();
        let t = Instant::now();
        let mut solver = Solver::new();
        std::hint::black_box(ChoiceEncoding::new(&mut solver, &choice_program));
        let encode = t.elapsed();
        drop(solver);
        layers.compile += compile;
        layers.encode += encode;
        *probes += compile + encode;

        // Cluster lookup, as the library's miss path does it.
        let signature = choice_signature(&choice_program);
        let mut had_repair = false;
        let warm = match (&mut self.clusters, &cluster_key) {
            (Some(clusters), Some(key)) => {
                let cluster = clusters.entry(key.clone()).or_default();
                had_repair = cluster.repair.is_some();
                cluster
                    .repair
                    .as_ref()
                    .filter(|repair| repair.signature == signature)
                    .map(|repair| {
                        let mut counterexamples = repair.counterexamples.clone();
                        for cex in killer_ordering(&cluster.killers) {
                            if !counterexamples.contains(&cex) {
                                counterexamples.push(cex);
                            }
                        }
                        WarmStart {
                            assignment: repair.assignment.clone(),
                            counterexamples,
                        }
                    })
            }
            _ => None,
        };

        let config = grader.config();
        let t = Instant::now();
        let mut outcome = config.backend.synthesize_with_hint(
            &choice_program,
            grader.oracle(),
            &config.synthesis,
            warm.as_ref(),
        );
        let warm_attempted = outcome.stats().is_some_and(|s| s.warm_start_attempted);
        if warm_attempted && !outcome.is_definitive() {
            // The library throws a budget-truncated warm search away and
            // re-grades cold; the discarded search is still work done.
            if let Some(stats) = outcome.stats() {
                layers.sat += stats.sat_elapsed;
                layers.verify += stats.verify_elapsed;
                work.add_stats(stats);
            }
            outcome = config.backend.synthesize_with_hint(
                &choice_program,
                grader.oracle(),
                &config.synthesis,
                None,
            );
        }
        layers.search += t.elapsed();
        if let Some(stats) = outcome.stats() {
            layers.sat += stats.sat_elapsed;
            layers.verify += stats.verify_elapsed;
            work.add_stats(stats);
        }

        let verdict = match outcome {
            SynthesisOutcome::AlreadyCorrect => Verdict::of(&GradeOutcome::Correct),
            SynthesisOutcome::NoRepairFound(_) => Verdict::of(&GradeOutcome::CannotFix),
            SynthesisOutcome::Timeout(_) => Verdict::of(&GradeOutcome::Timeout),
            SynthesisOutcome::Fixed(solution) => {
                let t = Instant::now();
                let feedback = Feedback {
                    corrections: corrections_from_assignment(&choice_program, &solution.assignment),
                    cost: solution.cost,
                    elapsed: Duration::ZERO,
                    stats: SynthesisStats::default(),
                };
                let verdict = Verdict::of(&GradeOutcome::Feedback(feedback));
                layers.feedback += t.elapsed();
                if let (Some(clusters), Some(key)) = (&mut self.clusters, &cluster_key) {
                    let cluster = clusters.entry(key.clone()).or_default();
                    if !had_repair && cluster.repair.is_none() {
                        cluster.repair = Some(Repair {
                            assignment: solution.assignment.clone(),
                            counterexamples: solution.counterexamples.clone(),
                            signature,
                        });
                    }
                    for &index in &solution.counterexamples {
                        *cluster.killers.entry(index).or_insert(0) += 1;
                    }
                }
                verdict
            }
        };
        (verdict, work)
    }
}

/// Rule names and option counts per choice site: the structural signature
/// a transferred repair must match.
fn choice_signature(program: &ChoiceProgram) -> u64 {
    let mut description = String::new();
    for info in &program.choices {
        description.push_str(&info.rule);
        description.push('/');
        description.push_str(&info.options.len().to_string());
        description.push(';');
    }
    fnv1a64(description.as_bytes())
}

/// A skeleton's killer inputs, most lethal first, ties by index.
fn killer_ordering(killers: &HashMap<usize, u64>) -> Vec<usize> {
    let mut ranked: Vec<(usize, u64)> = killers.iter().map(|(&i, &n)| (i, n)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(KILLER_HINT_LIMIT);
    ranked.into_iter().map(|(index, _)| index).collect()
}
