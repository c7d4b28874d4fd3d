//! Verdicts, digests, percentiles and the result line.

use std::fmt::Write as _;
use std::time::Duration;

use afg_ast::canon::fnv1a64;
use afg_core::{FeedbackLevel, GradeOutcome};
use afg_json::Json;

/// The comparable part of a grade: outcome tag, repair cost and the text
/// a student would read (rendered feedback, or the syntax error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub kind: &'static str,
    pub cost: Option<usize>,
    pub text: String,
}

impl Verdict {
    pub fn of(outcome: &GradeOutcome) -> Verdict {
        let (kind, cost, text) = match outcome {
            GradeOutcome::SyntaxError(err) => ("syntax_error", None, err.to_string()),
            GradeOutcome::Correct => ("correct", None, String::new()),
            GradeOutcome::Feedback(feedback) => (
                "feedback",
                Some(feedback.cost),
                feedback.render(FeedbackLevel::full()),
            ),
            GradeOutcome::CannotFix => ("cannot_fix", None, String::new()),
            GradeOutcome::Timeout => ("timeout", None, String::new()),
        };
        Verdict { kind, cost, text }
    }

    /// Reads a daemon grade response (`GradeOutcome`'s JSON rendering).
    pub fn from_json(body: &Json) -> Option<Verdict> {
        let kind = match body.get("outcome")?.as_str()? {
            "syntax_error" => "syntax_error",
            "correct" => "correct",
            "feedback" => "feedback",
            "cannot_fix" => "cannot_fix",
            "timeout" => "timeout",
            _ => return None,
        };
        let (cost, text) = match kind {
            "feedback" => {
                let feedback = body.get("feedback")?;
                (
                    Some(usize::try_from(feedback.get("cost")?.as_i64()?).ok()?),
                    feedback.get("rendered")?.as_str()?.to_string(),
                )
            }
            "syntax_error" => (None, body.get("error")?.as_str()?.to_string()),
            _ => (None, String::new()),
        };
        Some(Verdict { kind, cost, text })
    }

    /// Incorrect submissions: the population Table 1 times.
    pub fn is_incorrect(&self) -> bool {
        matches!(self.kind, "feedback" | "cannot_fix" | "timeout")
    }
}

/// FNV-1a digest over verdicts in a fixed order.
pub fn digest<'a>(verdicts: impl IntoIterator<Item = &'a Verdict>) -> u64 {
    let mut text = String::new();
    for (i, verdict) in verdicts.into_iter().enumerate() {
        let _ = writeln!(
            text,
            "{i}\t{}\t{:?}\t{}",
            verdict.kind, verdict.cost, verdict.text
        );
    }
    fnv1a64(text.as_bytes())
}

/// Milliseconds as a float.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// `(name, unit)` pairs in print order.
    pub fn names(&self) -> Vec<(&'static str, &'static str)> {
        self.0
            .iter()
            .map(|(name, _, unit)| (*name, *unit))
            .collect()
    }

    /// One human-readable line per metric.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
