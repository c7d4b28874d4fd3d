//! JSON renderings of the public report types (the `ToJson`/`FromJson`
//! layer used by `afg-service` responses and the `--json` output of the
//! experiment binaries).
//!
//! Conventions: durations serialize as fractional-millisecond `*_ms`
//! numbers; a [`GradeOutcome`] is an object tagged by its `"outcome"` field;
//! counters stay integers so they round-trip exactly.

use afg_json::{FromJson, Json, JsonError, ToJson};

use crate::batch::{BatchItem, BatchReport, WorkerStats};
use crate::cache::CacheStats;
use crate::cluster::ClusterStats;
use crate::feedback::{Correction, Feedback, FeedbackLevel};
use crate::grader::GradeOutcome;

impl ToJson for Correction {
    fn to_json(&self) -> Json {
        Json::object([
            ("line", Json::Int(i64::from(self.line))),
            ("rule", Json::str(&self.rule)),
            ("original", Json::str(&self.original)),
            ("replacement", Json::str(&self.replacement)),
            ("message", Json::str(&self.message)),
        ])
    }
}

impl FromJson for Correction {
    fn from_json(json: &Json) -> Result<Correction, JsonError> {
        let field = |name: &str| {
            json.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| JsonError::missing_field("correction", name))
        };
        let line = json
            .get("line")
            .and_then(Json::as_i64)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| JsonError::missing_field("correction", "line"))?;
        Ok(Correction {
            line,
            rule: field("rule")?,
            original: field("original")?,
            replacement: field("replacement")?,
            message: field("message")?,
        })
    }
}

impl ToJson for Feedback {
    fn to_json(&self) -> Json {
        Json::object([
            ("cost", self.cost.to_json()),
            ("corrections", self.corrections.to_json()),
            ("rendered", Json::str(self.render(FeedbackLevel::full()))),
            ("elapsed_ms", self.elapsed.to_json()),
            (
                "stats",
                Json::object([
                    (
                        "candidates_checked",
                        self.stats.candidates_checked.to_json(),
                    ),
                    ("cegis_iterations", self.stats.cegis_iterations.to_json()),
                    ("counterexamples", self.stats.counterexamples.to_json()),
                    ("sat_conflicts", self.stats.sat_conflicts.to_json()),
                    ("sat_propagations", self.stats.sat_propagations.to_json()),
                    ("sat_learnts", self.stats.sat_learnts.to_json()),
                    ("sweeps", self.stats.sweeps.to_json()),
                    ("sweep_inputs", self.stats.sweep_inputs.to_json()),
                    ("sweep_cache_hits", self.stats.sweep_cache_hits.to_json()),
                    ("sweep_cache_nodes", self.stats.sweep_cache_nodes.to_json()),
                    ("strategy", Json::str(self.stats.strategy)),
                    ("elapsed_ms", self.stats.elapsed.to_json()),
                ]),
            ),
        ])
    }
}

impl ToJson for GradeOutcome {
    fn to_json(&self) -> Json {
        match self {
            GradeOutcome::SyntaxError(err) => Json::object([
                ("outcome", Json::str("syntax_error")),
                ("error", Json::str(err.to_string())),
            ]),
            GradeOutcome::Correct => Json::object([("outcome", Json::str("correct"))]),
            GradeOutcome::Feedback(feedback) => Json::object([
                ("outcome", Json::str("feedback")),
                ("feedback", feedback.to_json()),
            ]),
            GradeOutcome::CannotFix => Json::object([("outcome", Json::str("cannot_fix"))]),
            GradeOutcome::Timeout => Json::object([("outcome", Json::str("timeout"))]),
        }
    }
}

impl ToJson for WorkerStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("graded", self.graded.to_json()),
            ("busy_ms", self.busy.to_json()),
            ("syntax_errors", self.syntax_errors.to_json()),
            ("correct", self.correct.to_json()),
            ("fixed", self.fixed.to_json()),
            ("cannot_fix", self.cannot_fix.to_json()),
            ("timeouts", self.timeouts.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
            ("transfer_attempts", self.transfer_attempts.to_json()),
            ("transfer_hits", self.transfer_hits.to_json()),
            ("sweeps", self.sweeps.to_json()),
            ("sweep_inputs", self.sweep_inputs.to_json()),
        ])
    }
}

impl FromJson for WorkerStats {
    fn from_json(json: &Json) -> Result<WorkerStats, JsonError> {
        let count = |name: &str| {
            json.get(name)
                .and_then(Json::as_i64)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| JsonError::missing_field("worker stats", name))
        };
        let busy_ms = json
            .get("busy_ms")
            .and_then(Json::as_f64)
            .ok_or_else(|| JsonError::missing_field("worker stats", "busy_ms"))?;
        Ok(WorkerStats {
            graded: count("graded")?,
            busy: std::time::Duration::from_secs_f64(busy_ms.max(0.0) / 1e3),
            syntax_errors: count("syntax_errors")?,
            correct: count("correct")?,
            fixed: count("fixed")?,
            cannot_fix: count("cannot_fix")?,
            timeouts: count("timeouts")?,
            cache_hits: count("cache_hits")?,
            cache_misses: count("cache_misses")?,
            // Absent in pre-clustering documents: read as 0, not an error.
            transfer_attempts: count("transfer_attempts").unwrap_or(0),
            transfer_hits: count("transfer_hits").unwrap_or(0),
            // Likewise absent before compiled verification sweeps.
            sweeps: count("sweeps").unwrap_or(0) as u64,
            sweep_inputs: count("sweep_inputs").unwrap_or(0) as u64,
        })
    }
}

impl ToJson for BatchItem {
    fn to_json(&self) -> Json {
        // The outcome's own fields are inlined so a batch item is one flat
        // object with `worker`/`elapsed_ms` appended.
        let mut pairs: Vec<(String, Json)> = match self.outcome.to_json() {
            Json::Object(pairs) => pairs,
            other => vec![("outcome".to_string(), other)],
        };
        pairs.push(("elapsed_ms".to_string(), self.elapsed.to_json()));
        pairs.push(("worker".to_string(), self.worker.to_json()));
        let cache = match self.cache_hit {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "off",
        };
        pairs.push(("cache".to_string(), Json::str(cache)));
        let transfer = match self.transfer {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "none",
        };
        pairs.push(("transfer".to_string(), Json::str(transfer)));
        Json::Object(pairs)
    }
}

impl ToJson for BatchReport {
    fn to_json(&self) -> Json {
        Json::object([
            ("items", self.items.to_json()),
            ("totals", self.totals().to_json()),
            ("worker_stats", self.worker_stats.to_json()),
            ("wall_ms", self.wall_time.to_json()),
            ("busy_ms", self.busy_time().to_json()),
        ])
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("hit_rate", self.hit_rate().to_json()),
            ("entries", self.entries.to_json()),
            ("syntax_entries", self.syntax_entries.to_json()),
        ])
    }
}

impl ToJson for ClusterStats {
    fn to_json(&self) -> Json {
        Json::object([
            ("clusters", self.clusters.to_json()),
            ("members", self.members.to_json()),
            ("largest", self.largest.to_json()),
            ("repairs", self.repairs.to_json()),
            ("transfer_attempts", self.transfer_attempts.to_json()),
            ("transfer_hits", self.transfer_hits.to_json()),
            ("transfer_hit_rate", self.hit_rate().to_json()),
            ("conflicts_saved", self.conflicts_saved.to_json()),
            ("killer_observations", self.killer_observations.to_json()),
        ])
    }
}

impl FromJson for ClusterStats {
    fn from_json(json: &Json) -> Result<ClusterStats, JsonError> {
        let count = |name: &str| {
            json.get(name)
                .and_then(Json::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| JsonError::missing_field("cluster stats", name))
        };
        Ok(ClusterStats {
            clusters: count("clusters")? as usize,
            members: count("members")?,
            largest: count("largest")?,
            repairs: count("repairs")? as usize,
            transfer_attempts: count("transfer_attempts")?,
            transfer_hits: count("transfer_hits")?,
            conflicts_saved: count("conflicts_saved")?,
            // Absent before killer-input learning: read as 0.
            killer_observations: count("killer_observations").unwrap_or(0),
        })
    }
}

impl FromJson for CacheStats {
    fn from_json(json: &Json) -> Result<CacheStats, JsonError> {
        let count = |name: &str| {
            json.get(name)
                .and_then(Json::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| JsonError::missing_field("cache stats", name))
        };
        Ok(CacheStats {
            hits: count("hits")?,
            misses: count("misses")?,
            entries: count("entries")? as usize,
            syntax_entries: count("syntax_entries")? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afg_json::parse_json;
    use std::time::Duration;

    fn correction() -> Correction {
        Correction {
            line: 5,
            rule: "RANR".into(),
            original: "range(0, len(poly))".into(),
            replacement: "range(0 + 1, len(poly))".into(),
            message: "In the expression range(0, len(poly)) in line 5, increment 0 by 1".into(),
        }
    }

    #[test]
    fn corrections_round_trip() {
        let original = correction();
        let doc = parse_json(&original.to_json().to_string()).unwrap();
        assert_eq!(Correction::from_json(&doc).unwrap(), original);
        assert!(Correction::from_json(&Json::Null).is_err());
        let mut missing = original.to_json();
        if let Json::Object(pairs) = &mut missing {
            pairs.retain(|(k, _)| k != "rule");
        }
        let err = Correction::from_json(&missing).unwrap_err();
        assert!(err.to_string().contains("'rule'"), "{err}");
    }

    #[test]
    fn outcomes_are_tagged_objects() {
        assert_eq!(
            GradeOutcome::Correct.to_json().to_string(),
            r#"{"outcome":"correct"}"#
        );
        assert_eq!(
            GradeOutcome::Timeout.to_json().to_string(),
            r#"{"outcome":"timeout"}"#
        );
        let feedback = Feedback {
            corrections: vec![correction()],
            cost: 1,
            elapsed: Duration::from_millis(250),
            stats: Default::default(),
        };
        let doc = GradeOutcome::Feedback(feedback.clone()).to_json();
        assert_eq!(doc.get("outcome").and_then(Json::as_str), Some("feedback"));
        let inner = doc.get("feedback").unwrap();
        assert_eq!(inner.get("cost").and_then(Json::as_i64), Some(1));
        assert_eq!(
            inner.get("rendered").and_then(Json::as_str),
            Some(feedback.render(FeedbackLevel::full()).as_str())
        );
        assert_eq!(
            inner
                .get("corrections")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn worker_stats_round_trip() {
        let stats = WorkerStats {
            graded: 10,
            busy: Duration::from_millis(1500),
            syntax_errors: 1,
            correct: 4,
            fixed: 3,
            cannot_fix: 1,
            timeouts: 1,
            cache_hits: 6,
            cache_misses: 4,
            transfer_attempts: 3,
            transfer_hits: 2,
            sweeps: 17,
            sweep_inputs: 420,
        };
        let doc = parse_json(&stats.to_json().to_string()).unwrap();
        assert_eq!(WorkerStats::from_json(&doc).unwrap(), stats);

        // Pre-clustering documents lack the transfer counters; they read
        // back as zero instead of erroring.
        let mut legacy = stats.to_json();
        if let Json::Object(pairs) = &mut legacy {
            pairs.retain(|(k, _)| !k.starts_with("transfer"));
        }
        let parsed = WorkerStats::from_json(&legacy).unwrap();
        assert_eq!(parsed.transfer_attempts, 0);
        assert_eq!(parsed.transfer_hits, 0);
    }

    #[test]
    fn cluster_stats_round_trip() {
        let stats = ClusterStats {
            clusters: 4,
            members: 40,
            largest: 21,
            repairs: 3,
            transfer_attempts: 30,
            transfer_hits: 24,
            conflicts_saved: 1234,
            killer_observations: 12,
        };
        let doc = stats.to_json();
        assert_eq!(
            doc.get("transfer_hit_rate").and_then(Json::as_f64),
            Some(0.8)
        );
        let parsed = parse_json(&doc.to_string()).unwrap();
        assert_eq!(ClusterStats::from_json(&parsed).unwrap(), stats);
    }

    #[test]
    fn cache_stats_round_trip_and_expose_hit_rate() {
        let stats = CacheStats {
            hits: 30,
            misses: 10,
            entries: 7,
            syntax_entries: 2,
        };
        let doc = stats.to_json();
        assert_eq!(doc.get("hit_rate").and_then(Json::as_f64), Some(0.75));
        let parsed = parse_json(&doc.to_string()).unwrap();
        assert_eq!(CacheStats::from_json(&parsed).unwrap(), stats);
    }
}
