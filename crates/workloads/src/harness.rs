//! Experiment plumbing shared by the figure benches, examples, and tests.
//!
//! A [`Scenario`] bundles everything one experiment configuration needs:
//! the simulated cluster, a DFS pre-loaded with the input, the enhanced
//! job, and the experiment-specific strategy overrides (the paper forces
//! re-partitioning on "one of the indices with the most benefits" in the
//! multi-join experiments). [`run_standard`] executes the six
//! configurations of §5.1 and reports virtual seconds per configuration.

use efind::{EFindConfig, EFindRuntime, Mode, Strategy};
use efind_cluster::Cluster;
use efind_common::{FxHashMap, Result};
use efind_dfs::Dfs;

/// A fully built experiment configuration.
pub struct Scenario {
    /// The simulated cluster.
    pub cluster: Cluster,
    /// DFS pre-loaded with the main input (and anything else the job
    /// reads).
    pub dfs: Dfs,
    /// The EFind-enhanced job.
    pub ijob: efind::IndexJobConf,
    /// Per-operator strategy for the `Repart` configuration (operators
    /// not listed run the cache strategy, as in the paper's multi-join
    /// methodology). Empty = force re-partitioning everywhere.
    pub repart_overrides: FxHashMap<String, Strategy>,
    /// Whether the index locality configuration applies (at least one
    /// index exposes a partition scheme).
    pub idxloc_applicable: bool,
    /// Runtime configuration (cache size, thresholds…).
    pub efind_config: EFindConfig,
}

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Configuration label (`base`, `cache`, `repart`, `idxloc`,
    /// `optimized`, `dynamic`).
    pub label: String,
    /// Virtual seconds of the enhanced job (all constituent MapReduce
    /// jobs).
    pub secs: f64,
    /// Whether the adaptive runtime changed plans (dynamic only).
    pub replanned: bool,
}

/// Runs one mode on a scenario, returning virtual seconds.
pub fn run_mode(scenario: &mut Scenario, label: &str, mode: Mode) -> Result<Measurement> {
    let mut rt = EFindRuntime::with_config(
        &scenario.cluster,
        &mut scenario.dfs,
        scenario.efind_config.clone(),
    );
    if matches!(mode, Mode::Optimized) {
        // "Optimization with sufficient statistics": collect them the way
        // the paper does — from a previous execution of the job.
        rt.run(&scenario.ijob, Mode::Uniform(Strategy::Baseline))?;
    }
    let res = rt.run(&scenario.ijob, mode)?;
    Ok(Measurement {
        label: label.to_owned(),
        secs: res.total_time.as_secs_f64(),
        replanned: res.replanned,
    })
}

/// The standard configuration set of §5.1: `(label, mode)` pairs in the
/// order the figures report them.
pub fn standard_modes(scenario: &Scenario) -> Vec<(String, Mode)> {
    let mut modes = vec![
        ("base".to_owned(), Mode::Uniform(Strategy::Baseline)),
        ("cache".to_owned(), Mode::Uniform(Strategy::Cache)),
    ];
    let repart_mode = if scenario.repart_overrides.is_empty() {
        Mode::Uniform(Strategy::Repartition)
    } else {
        Mode::Manual(scenario.repart_overrides.clone())
    };
    modes.push(("repart".to_owned(), repart_mode));
    if scenario.idxloc_applicable {
        let idxloc_mode = if scenario.repart_overrides.is_empty() {
            Mode::Uniform(Strategy::IndexLocality)
        } else {
            #[expect(
                clippy::disallowed_methods,
                reason = "map-to-map collect; Mode::Manual looks strategies up by operator name"
            )]
            let overrides: FxHashMap<String, Strategy> = scenario
                .repart_overrides
                .iter()
                .map(|(k, v)| {
                    let s = if *v == Strategy::Repartition {
                        Strategy::IndexLocality
                    } else {
                        *v
                    };
                    (k.clone(), s)
                })
                .collect();
            Mode::Manual(overrides)
        };
        modes.push(("idxloc".to_owned(), idxloc_mode));
    }
    modes.push(("optimized".to_owned(), Mode::Optimized));
    modes.push(("dynamic".to_owned(), Mode::Dynamic));
    modes
}

/// Runs all standard configurations on a scenario.
pub fn run_standard(scenario: &mut Scenario) -> Result<Vec<Measurement>> {
    let modes = standard_modes(scenario);
    let mut out = Vec::with_capacity(modes.len());
    for (label, mode) in modes {
        out.push(run_mode(scenario, &label, mode)?);
    }
    Ok(out)
}

/// Formats measurements as an aligned text table (one figure bar group).
pub fn format_table(title: &str, rows: &[Measurement]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let base = rows.iter().find(|m| m.label == "base").map(|m| m.secs);
    for m in rows {
        let speedup = match base {
            Some(b) if m.secs > 0.0 => format!("   ({:>5.2}x vs base)", b / m.secs),
            _ => String::new(),
        };
        let _ = writeln!(
            s,
            "  {:<10} {:>12}{speedup}{}",
            m.label,
            efind_common::fmtutil::human_secs(m.secs),
            if m.replanned { "  [replanned]" } else { "" }
        );
    }
    s
}

/// Finds a measurement by label.
pub fn secs_of(rows: &[Measurement], label: &str) -> f64 {
    rows.iter()
        .find(|m| m.label == label)
        .map(|m| m.secs)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(label: &str, secs: f64) -> Measurement {
        Measurement {
            label: label.into(),
            secs,
            replanned: false,
        }
    }

    #[test]
    fn format_table_reports_speedups_vs_base() {
        let rows = vec![m("base", 2.0), m("cache", 1.0)];
        let s = format_table("title", &rows);
        assert!(s.contains("title"));
        assert!(s.contains("2.00x vs base"), "{s}");
    }

    #[test]
    fn format_table_omits_speedup_without_base() {
        let rows = vec![m("local", 0.001), m("remote", 0.002)];
        let s = format_table("t", &rows);
        assert!(!s.contains("vs base"), "{s}");
        assert!(s.contains("ms"), "{s}");
    }

    #[test]
    fn secs_of_finds_labels() {
        let rows = vec![m("base", 2.0), m("cache", 1.0)];
        assert_eq!(secs_of(&rows, "cache"), 1.0);
        assert!(secs_of(&rows, "missing").is_nan());
    }

    #[test]
    fn standard_modes_respect_applicability_and_overrides() {
        let scenario = crate::log::scenario(&crate::log::LogConfig {
            num_events: 100,
            chunks: 2,
            ..crate::log::LogConfig::default()
        });
        let modes = standard_modes(&scenario);
        let labels: Vec<&str> = modes.iter().map(|(l, _)| l.as_str()).collect();
        // LOG: single-host index → no idxloc row.
        assert_eq!(
            labels,
            vec!["base", "cache", "repart", "optimized", "dynamic"]
        );

        let scenario = crate::tpch::q3_scenario(&crate::tpch::TpchConfig {
            scale: 0.002,
            chunks: 4,
            ..crate::tpch::TpchConfig::default()
        });
        let modes = standard_modes(&scenario);
        let labels: Vec<&str> = modes.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"idxloc"));
        // The repart configuration uses the paper's per-operator override.
        let repart = modes.iter().find(|(l, _)| l == "repart").unwrap();
        assert!(matches!(repart.1, Mode::Manual(_)));
    }
}
