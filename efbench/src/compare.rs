//! `efbench compare`: two sets of `results.json` files, one row per
//! workload × end-to-end metric, each judged against the metric's bound.

use crate::json::Value;
use crate::metrics::END_TO_END;
use crate::stats::{median, spread};

/// What a row concludes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is within the bound of the base median.
    Unchanged,
    /// The new median is better by more than the bound.
    Improved,
    /// The new median is worse by more than the bound.
    Regressed,
    /// A side's own run-to-run spread exceeds the bound, so a difference
    /// of the size of the bound cannot be told from noise.
    Unresolved,
    /// A metric that is a pure function of the seed changed at all: the
    /// model moved, which no host-time optimisation may cause.
    Moved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Moved => "MOVED",
        }
    }
}

/// One workload × metric comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median of the base side's runs.
    pub base: f64,
    /// Median of the new side's runs.
    pub new: f64,
    /// Larger of the two sides' interquartile spreads over their medians;
    /// `None` when neither side has two runs.
    pub spread: Option<f64>,
    /// The metric's bound.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

impl Row {
    /// `(new − base) / base`; positive is worse (every metric is
    /// lower-is-better).
    pub fn change(&self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            (self.new - self.base) / self.base
        }
    }
}

/// Judges one metric from each side's runs. All end-to-end metrics are
/// lower-is-better.
pub fn judge(base: &[f64], new: &[f64], bound: f64) -> (f64, f64, Option<f64>, Verdict) {
    let (b, n) = (median(base), median(new));
    let noise = match (spread(base), spread(new)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let change = if b == 0.0 { 0.0 } else { (n - b) / b };
    let verdict = if noise.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (b, n, noise, verdict)
}

/// Judges a metric that is a pure function of the seed, from
/// `(seed, value)` pairs: every run of a seed, on either side, must
/// report the identical number. `None` when the sides share no seed.
pub fn judge_exact(base: &[(f64, f64)], new: &[(f64, f64)]) -> Option<Verdict> {
    let mut shared = false;
    for (seed, value) in base {
        for (_, other) in new.iter().filter(|(s, _)| s == seed) {
            shared = true;
            if other != value {
                return Some(Verdict::Moved);
            }
        }
    }
    shared.then_some(Verdict::Unchanged)
}

/// `(seed, value)` of `workload`'s end-to-end `metric` in every run.
fn values_of(runs: &[Value], workload: &str, metric: &str) -> Vec<(f64, f64)> {
    runs.iter()
        .filter_map(|run| {
            let value = run
                .get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("value")?
                .as_f64()?;
            Some((
                run.get("seed").and_then(Value::as_f64).unwrap_or(0.0),
                value,
            ))
        })
        .collect()
}

/// The comparison table and the workloads that failed an iteration on
/// either side.
pub fn compare(base: &[Value], new: &[Value]) -> (Vec<Row>, Vec<String>) {
    let mut workloads: Vec<&str> = Vec::new();
    let mut failures = Vec::new();
    for run in base.iter().chain(new) {
        let members = run.get("workloads").map_or(&[][..], Value::members);
        for (name, result) in members {
            if !workloads.contains(&name.as_str()) {
                workloads.push(name);
            }
            let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            if failed > 0.0 && !failures.contains(name) {
                failures.push(name.clone());
            }
        }
    }
    let mut rows = Vec::new();
    for workload in workloads {
        for m in &END_TO_END {
            let b = values_of(base, workload, m.name);
            let n = values_of(new, workload, m.name);
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let values =
                |side: &[(f64, f64)]| -> Vec<f64> { side.iter().map(|(_, v)| *v).collect() };
            let (base, new, spread, mut verdict) = judge(&values(&b), &values(&n), m.bound);
            if m.exact {
                verdict = judge_exact(&b, &n).unwrap_or(verdict);
            }
            rows.push(Row {
                workload: workload.to_owned(),
                metric: m.name,
                base,
                new,
                spread,
                bound: m.bound,
                verdict,
            });
        }
    }
    (rows, failures)
}

/// Prints the table; returns the process exit code.
pub fn report(rows: &[Row], failures: &[String]) -> i32 {
    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>8} {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.change() * 100.0,
            r.spread
                .map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0)),
            r.bound * 100.0,
            r.verdict.word()
        );
    }
    for workload in failures {
        println!("{workload}: iterations failed (failed > 0)");
    }
    let bad = rows
        .iter()
        .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Moved));
    i32::from(bad || !failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_decides_between_unchanged_regressed_and_improved() {
        let base = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&base, &[105.0, 104.0, 106.0], 0.10).3,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&base, &[115.0, 114.0, 116.0], 0.10).3,
            Verdict::Regressed
        );
        assert_eq!(judge(&base, &[85.0, 84.0, 86.0], 0.10).3, Verdict::Improved);
    }

    #[test]
    fn a_side_noisier_than_the_bound_is_unresolved_not_unchanged() {
        // The new side's quartiles are 30 % of its median apart.
        let (_, _, spread, verdict) = judge(&[100.0, 101.0, 99.0], &[80.0, 100.0, 130.0], 0.10);
        assert_eq!(verdict, Verdict::Unresolved);
        assert!(spread.unwrap() > 0.10);
        // One run a side gives no spread: the medians alone decide.
        assert_eq!(judge(&[100.0], &[100.5], 0.10).3, Verdict::Unchanged);
    }

    #[test]
    fn an_exact_metric_tolerates_no_difference_at_all() {
        let v = 0.340267733;
        let base = [(1.0, v), (2.0, 2.0 * v)];
        assert_eq!(
            judge_exact(&base, &[(2.0, 2.0 * v), (1.0, v)]),
            Some(Verdict::Unchanged)
        );
        assert_eq!(judge_exact(&base, &[(1.0, v + 1e-9)]), Some(Verdict::Moved));
        // Another seed is another input: nothing to hold it against.
        assert_eq!(judge_exact(&base, &[(3.0, v)]), None);
    }

    fn results(wall: f64, failed: f64) -> Value {
        Value::parse(&format!(
            "{{\"workloads\": {{\"wc_shuffle\": {{\"failed\": {failed}, \"end_to_end\": \
             {{\"wall_ms_p50\": {{\"value\": {wall}, \"unit\": \"ms\"}}}}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn compare_reads_result_files_and_flags_failures() {
        let base = [results(100.0, 0.0), results(102.0, 0.0)];
        let (rows, failures) = compare(&base, &[results(130.0, 0.0), results(131.0, 1.0)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!((rows[0].base, rows[0].new), (101.0, 130.5));
        assert_eq!(failures, vec!["wc_shuffle".to_owned()]);
        assert_eq!(report(&rows, &failures), 1);
        let (rows, failures) = compare(&base, &base);
        assert_eq!(report(&rows, &failures), 0);
    }
}
