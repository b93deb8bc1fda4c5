#![warn(missing_docs)]

//! Figure regeneration for the EFind reproduction.
//!
//! One function per table/figure of the paper's §5. Each returns the data
//! series the paper plots; `src/bin/figures.rs` renders them as text
//! tables and `src/bin/explain.rs` prints one scenario's plans and cost
//! breakdown. `quick` scales inputs down ~4× for CI-speed runs; the full
//! scale is what `EXPERIMENTS.md` records.

use efind::{Mode, Strategy};
use efind_cluster::SimDuration;
use efind_common::Result;
use efind_workloads::harness::{run_mode, run_standard, secs_of, Measurement, Scenario};
use efind_workloads::{log, osm, synthetic, topics, tpch, zknnj};

/// A figure: titled groups of measurements (one group per x-value).
pub struct Figure {
    /// Figure id, e.g. `fig11a`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// `(x label, measurements)` per sweep point.
    pub groups: Vec<(String, Vec<Measurement>)>,
}

impl Figure {
    /// Renders the figure as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "== {} — {} ==", self.id, self.title);
        for (x, rows) in &self.groups {
            let _ = write!(s, "{}", efind_workloads::harness::format_table(x, rows));
        }
        s
    }
}

/// Fig. 11(a): LOG under 0–5 ms extra lookup delay.
pub fn fig11a(quick: bool) -> Result<Figure> {
    let delays_ms: &[u64] = if quick {
        &[0, 2, 5]
    } else {
        &[0, 1, 2, 3, 4, 5]
    };
    let mut groups = Vec::new();
    for &ms in delays_ms {
        let config = log::LogConfig {
            num_events: if quick { 12_000 } else { 60_000 },
            chunks: if quick { 240 } else { 480 },
            extra_delay: SimDuration::from_millis(ms),
            ..log::LogConfig::default()
        };
        let mut scenario = log::scenario(&config);
        groups.push((format!("extra delay {ms} ms"), run_standard(&mut scenario)?));
    }
    Ok(Figure {
        id: "fig11a",
        title: "LOG: top-k URLs per region, remote geo-IP service".into(),
        groups,
    })
}

fn tpch_config(quick: bool, dup: usize) -> tpch::TpchConfig {
    tpch::TpchConfig {
        scale: if quick { 0.0075 } else { 0.03 },
        dup_lineitem: dup,
        chunks: if quick { 240 } else { 400 },
        ..tpch::TpchConfig::default()
    }
}

/// Fig. 11(b): TPC-H Q3.
pub fn fig11b(quick: bool) -> Result<Figure> {
    let mut scenario = tpch::q3_scenario(&tpch_config(quick, 1));
    Ok(Figure {
        id: "fig11b",
        title: "TPC-H Q3 (LineItem ⋈ Orders ⋈ Customer)".into(),
        groups: vec![("Q3".into(), run_standard(&mut scenario)?)],
    })
}

/// Fig. 11(c): TPC-H Q9.
pub fn fig11c(quick: bool) -> Result<Figure> {
    let mut scenario = tpch::q9_scenario(&tpch_config(quick, 1));
    Ok(Figure {
        id: "fig11c",
        title: "TPC-H Q9 (LineItem ⋈ Supplier ⋈ Part ⋈ PartSupp ⋈ Orders ⋈ Nation)".into(),
        groups: vec![("Q9".into(), run_standard(&mut scenario)?)],
    })
}

/// Fig. 11(d): TPC-H DUP10 Q3.
pub fn fig11d(quick: bool) -> Result<Figure> {
    let mut scenario = tpch::q3_scenario(&tpch_config(quick, 10));
    Ok(Figure {
        id: "fig11d",
        title: "TPC-H DUP10 Q3 (LineItem ×10)".into(),
        groups: vec![("DUP10 Q3".into(), run_standard(&mut scenario)?)],
    })
}

/// Fig. 11(e): TPC-H DUP10 Q9.
pub fn fig11e(quick: bool) -> Result<Figure> {
    let mut scenario = tpch::q9_scenario(&tpch_config(quick, 10));
    Ok(Figure {
        id: "fig11e",
        title: "TPC-H DUP10 Q9 (LineItem ×10)".into(),
        groups: vec![("DUP10 Q9".into(), run_standard(&mut scenario)?)],
    })
}

/// Fig. 11(f): Synthetic join, index result size 10 B – 30 KB.
pub fn fig11f(quick: bool) -> Result<Figure> {
    let sizes: &[usize] = if quick {
        &[10, 1_000, 30_000]
    } else {
        &[10, 100, 1_000, 10_000, 30_000]
    };
    let mut groups = Vec::new();
    for &l in sizes {
        // One record budget across the sweep so the series are comparable;
        // sized so even the 30 KB index fits in memory comfortably.
        let records = if quick { 8_000 } else { 16_000 };
        let config = synthetic::SyntheticConfig {
            num_records: records,
            key_space: records / 2,
            index_value_size: l,
            chunks: if quick { 240 } else { 400 },
            ..synthetic::SyntheticConfig::default()
        };
        let mut scenario = synthetic::scenario(&config);
        groups.push((format!("result size {l} B"), run_standard(&mut scenario)?));
    }
    Ok(Figure {
        id: "fig11f",
        title: "Synthetic join: Θ≈2, uniform keys, varying result size".into(),
        groups,
    })
}

/// Fig. 12: single local vs remote lookup latency by result size.
pub fn fig12() -> Figure {
    let groups = synthetic::fig12_rows()
        .into_iter()
        .map(|(size, local_ms, remote_ms)| {
            (
                format!("result {size} B"),
                vec![
                    Measurement {
                        label: "local".into(),
                        secs: local_ms / 1e3,
                        replanned: false,
                    },
                    Measurement {
                        label: "remote".into(),
                        secs: remote_ms / 1e3,
                        replanned: false,
                    },
                ],
            )
        })
        .collect();
    Figure {
        id: "fig12",
        title: "Index lookup latency: local vs remote".into(),
        groups,
    }
}

/// Fig. 13: EFind kNN join vs the hand-tuned H-zkNNJ.
pub fn fig13(quick: bool) -> Result<Figure> {
    let config = osm::OsmConfig {
        num_a: if quick { 4_000 } else { 20_000 },
        num_b: if quick { 4_000 } else { 20_000 },
        chunks: if quick { 240 } else { 400 },
        ..osm::OsmConfig::default()
    };
    let mut scenario = osm::scenario(&config);
    let mut rows = run_standard(&mut scenario)?;

    // The hand-tuned comparator answers the same join on the same cluster.
    let (a, b) = osm::generate_ab(&config);
    let zconf = zknnj::ZknnjConfig {
        k: config.k,
        chunks: config.chunks,
        ..zknnj::ZknnjConfig::default()
    };
    let (dur, _results) = zknnj::run(&scenario.cluster, &mut scenario.dfs, &zconf, &a, &b)?;
    rows.push(Measurement {
        label: "h-zknnj".into(),
        secs: dur.as_secs_f64(),
        replanned: false,
    });
    Ok(Figure {
        id: "fig13",
        title: "k-nearest-neighbor join (k=10): EFind vs hand-tuned H-zkNNJ".into(),
        groups: vec![("kNNJ".into(), rows)],
    })
}

/// §5.3's Q9 dynamic-run phase breakdown (stats collection vs optimized
/// remainder).
pub fn e9(quick: bool) -> Result<Figure> {
    let mut scenario = tpch::q9_scenario(&tpch_config(quick, 1));
    let mut rt = efind::EFindRuntime::with_config(
        &scenario.cluster,
        &mut scenario.dfs,
        scenario.efind_config.clone(),
    );
    let res = rt.run(&scenario.ijob, Mode::Dynamic)?;
    let total = res.total_time.as_secs_f64();
    let stats_phase = res
        .jobs
        .first()
        .map(|j| j.started.as_secs_f64())
        .unwrap_or(0.0);
    let rows = vec![
        Measurement {
            label: "stats".into(),
            secs: stats_phase,
            replanned: res.replanned,
        },
        Measurement {
            label: "rest".into(),
            secs: total - stats_phase,
            replanned: res.replanned,
        },
        Measurement {
            label: "total".into(),
            secs: total,
            replanned: res.replanned,
        },
    ];
    Ok(Figure {
        id: "e9",
        title: "Q9 dynamic run: statistics wave vs re-optimized remainder (§5.3)".into(),
        groups: vec![("Q9 dynamic".into(), rows)],
    })
}

/// Plan-choice audit (§5.2–5.3's "optimal or close to optimal" claim):
/// compares the cost-based choice against the measured best strategy.
pub fn e10(quick: bool) -> Result<Figure> {
    let mut groups = Vec::new();
    type ScenarioBuilder = Box<dyn Fn() -> Scenario>;
    let scenarios: Vec<(&str, ScenarioBuilder)> = vec![
        (
            "LOG +2ms",
            Box::new(move || {
                log::scenario(&log::LogConfig {
                    num_events: if quick { 12_000 } else { 60_000 },
                    chunks: 240,
                    extra_delay: SimDuration::from_millis(2),
                    ..log::LogConfig::default()
                })
            }),
        ),
        (
            "TPC-H Q3",
            Box::new(move || tpch::q3_scenario(&tpch_config(true, 1))),
        ),
        (
            "TPC-H Q9",
            Box::new(move || tpch::q9_scenario(&tpch_config(true, 1))),
        ),
        (
            "Synthetic 10KB",
            Box::new(move || {
                synthetic::scenario(&synthetic::SyntheticConfig {
                    num_records: 10_000,
                    key_space: 5_000,
                    index_value_size: 10_000,
                    chunks: 240,
                    ..synthetic::SyntheticConfig::default()
                })
            }),
        ),
        (
            "Tweet topics",
            Box::new(move || {
                topics::scenario(&topics::TopicsConfig {
                    num_tweets: if quick { 6_000 } else { 20_000 },
                    chunks: 100,
                    ..topics::TopicsConfig::default()
                })
            }),
        ),
    ];
    for (name, build) in scenarios {
        let mut scenario = build();
        let mut rows = run_standard(&mut scenario)?;
        // Measured best among the forced strategies.
        let best = rows
            .iter()
            .filter(|m| !matches!(m.label.as_str(), "optimized" | "dynamic"))
            .map(|m| m.secs)
            .fold(f64::MAX, f64::min);
        let optimized = secs_of(&rows, "optimized");
        rows.push(Measurement {
            label: "opt/best".into(),
            secs: optimized / best,
            replanned: false,
        });
        groups.push((name.to_owned(), rows));
    }
    Ok(Figure {
        id: "e10",
        title: "Plan-choice audit: optimized vs measured-best strategy".into(),
        groups,
    })
}

/// The paper's stated future work (§4.2, footnote 4): *"Note that the
/// lookup cache size is fixed in our implementation. We leave the study
/// of varying lookup cache sizes to future work."* — a sweep over cache
/// capacities on the LOG workload.
pub fn e11(quick: bool) -> Result<Figure> {
    // Zipf-skewed join keys over a key space much larger than the small
    // capacities, with big splits so each task sees thousands of keys —
    // the regime where capacity matters.
    let config = synthetic::SyntheticConfig {
        num_records: if quick { 24_000 } else { 96_000 },
        key_space: 20_000,
        record_pad: 64,
        index_value_size: 256,
        key_skew: 6.0,
        chunks: 48,
        ..synthetic::SyntheticConfig::default()
    };
    let mut rows = Vec::new();
    for capacity in [16usize, 64, 256, 1024, 4096, 16_384] {
        let mut scenario = synthetic::scenario(&config);
        scenario.efind_config.cache_capacity = capacity;
        let m = run_mode(
            &mut scenario,
            &format!("cache-{capacity}"),
            Mode::Uniform(Strategy::Cache),
        )?;
        rows.push(m);
    }
    // Baseline anchor for the speedup column.
    let mut scenario = synthetic::scenario(&config);
    rows.insert(
        0,
        run_mode(&mut scenario, "base", Mode::Uniform(Strategy::Baseline))?,
    );
    Ok(Figure {
        id: "e11",
        title: "Lookup cache capacity sweep (Zipf keys) — the paper's stated future work".into(),
        groups: vec![("capacities".into(), rows)],
    })
}

/// Soft vs hard co-location under a degraded index host — the experiment
/// behind the paper's footnote 3: *"it is a bad idea to restrict a
/// reducer to select only a single machine in a dynamic cloud environment
/// because the unavailability of the machine can slow down the entire
/// MapReduce job. Therefore, we do not assume the co-location of lookup
/// keys and index partitions."* One node is slowed 8×; soft affinity
/// routes around it (paying remote lookups), hard co-location stalls.
pub fn e12(quick: bool) -> Result<Figure> {
    use efind_cluster::{Cluster, NodeId};
    use efind_dfs::{Dfs, DfsConfig};
    use efind_index::spatial::{SpatialGridConfig, SpatialGridIndex};
    use efind_workloads::harness::Scenario;

    let config = osm::OsmConfig {
        num_a: if quick { 4_000 } else { 10_000 },
        num_b: if quick { 4_000 } else { 10_000 },
        chunks: 240,
        ..osm::OsmConfig::default()
    };
    // The footnote's "tempting idea" pins reducer i to THE machine
    // hosting partition i — meaningful only with a single replica.
    let build = |degrade: bool, hard: bool| -> Scenario {
        let mut builder = Cluster::builder().network(efind_cluster::NetworkModel {
            bandwidth_bytes_per_sec: 125.0e6,
            latency: SimDuration::from_micros(1_500),
        });
        if degrade {
            builder = builder.degrade(NodeId(0), 30.0);
        }
        let cluster = builder.build();
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        let (a, b) = osm::generate_ab(&config);
        dfs.write_file_with_chunks("osm.a", osm::points_to_records(&a), config.chunks);
        let index = std::sync::Arc::new(SpatialGridIndex::build(
            "osm-b",
            &cluster,
            SpatialGridConfig {
                k: config.k,
                replication: 1,
                ..SpatialGridConfig::default()
            },
            osm::bbox(),
            b,
        ));
        let mut scenario = Scenario {
            cluster,
            dfs,
            ijob: osm::build_job(index),
            repart_overrides: efind_common::FxHashMap::default(),
            idxloc_applicable: true,
            efind_config: Default::default(),
        };
        scenario.efind_config.hard_colocation = hard;
        scenario
    };

    let mut rows = Vec::new();
    let mut s = build(false, false);
    rows.push(run_mode(
        &mut s,
        "healthy/soft",
        Mode::Uniform(Strategy::IndexLocality),
    )?);
    let mut s = build(true, false);
    rows.push(run_mode(
        &mut s,
        "degraded/soft",
        Mode::Uniform(Strategy::IndexLocality),
    )?);
    let mut s = build(true, true);
    rows.push(run_mode(
        &mut s,
        "degraded/hard",
        Mode::Uniform(Strategy::IndexLocality),
    )?);

    Ok(Figure {
        id: "e12",
        title:
            "Index locality under a degraded node: soft affinity vs hard co-location (§3.4 fn.3)"
                .into(),
        groups: vec![("kNN join".into(), rows)],
    })
}

/// Speculative execution under surprise stragglers — the Hadoop 1.x
/// mechanism the paper's testbed relied on, reproduced: one node is
/// degraded *without* the scheduler's knowledge, and backup tasks rescue
/// the job's tail.
pub fn e13(quick: bool) -> Result<Figure> {
    use efind_cluster::{Cluster, NodeId};
    let config = log::LogConfig {
        num_events: if quick { 12_000 } else { 60_000 },
        chunks: 240,
        extra_delay: SimDuration::from_millis(2),
        ..log::LogConfig::default()
    };
    let with_cluster = |speculation: bool, degraded: bool| -> Result<Measurement> {
        let mut builder = Cluster::builder();
        if degraded {
            builder = builder.degrade_hidden(NodeId(3), 12.0);
        }
        let mut scenario = log::scenario(&config);
        scenario.cluster = builder.speculation(speculation).build();
        // The DFS was placed for the default cluster; node counts match,
        // so chunk placements remain valid.
        run_mode(
            &mut scenario,
            match (degraded, speculation) {
                (false, _) => "healthy",
                (true, false) => "straggler/no-spec",
                (true, true) => "straggler/spec",
            },
            Mode::Uniform(Strategy::Cache),
        )
    };
    let rows = vec![
        with_cluster(false, false)?,
        with_cluster(false, true)?,
        with_cluster(true, true)?,
    ];
    Ok(Figure {
        id: "e13",
        title: "Speculative execution vs a hidden straggler node (LOG, cache strategy)".into(),
        groups: vec![("LOG".into(), rows)],
    })
}

/// Index join vs scan-based join across fact-filter selectivities — the
/// §1 motivation: *"Index-based joins … have been shown to out-perform
/// scan-based joins under high join selectivity."* The scan join pays for
/// scanning and shuffling the whole Orders table regardless of the fact
/// filter; the index join probes per surviving fact row.
pub fn e14(quick: bool) -> Result<Figure> {
    use efind_dfs::{Dfs, DfsConfig};
    use efind_workloads::scanjoin;
    let cluster = efind_cluster::Cluster::edbt_testbed();
    let data = tpch::generate(&tpch::TpchConfig {
        scale: if quick { 0.0075 } else { 0.03 },
        chunks: 240,
        ..tpch::TpchConfig::default()
    });
    let mut groups = Vec::new();
    // shipdate < cutoff ≈ cutoff/2400 of lineitems.
    for (label, cutoff) in [
        ("σ≈0.1%", 3i64),
        ("σ≈1%", 24),
        ("σ≈10%", 240),
        ("σ≈50%", 1200),
        ("σ≈100%", i64::MAX),
    ] {
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        let (scan_t, scan_n) = scanjoin::run_scan_join(&cluster, &mut dfs, &data, cutoff, 240)?;
        let (index_t, index_n) = scanjoin::run_index_join(&cluster, &mut dfs, &data, cutoff, 240)?;
        debug_assert_eq!(scan_n, index_n);
        groups.push((
            format!("{label} ({scan_n} joined rows)"),
            vec![
                Measurement {
                    label: "scan-join".into(),
                    secs: scan_t.as_secs_f64(),
                    replanned: false,
                },
                Measurement {
                    label: "index-join".into(),
                    secs: index_t.as_secs_f64(),
                    replanned: false,
                },
            ],
        ));
    }
    Ok(Figure {
        id: "e14",
        title: "Index join vs scan-based join by fact selectivity (§1 motivation)".into(),
        groups,
    })
}

/// Runs one figure by id.
pub fn run_figure(id: &str, quick: bool) -> Result<Figure> {
    match id {
        "fig11a" => fig11a(quick),
        "fig11b" => fig11b(quick),
        "fig11c" => fig11c(quick),
        "fig11d" => fig11d(quick),
        "fig11e" => fig11e(quick),
        "fig11f" => fig11f(quick),
        "fig12" => Ok(fig12()),
        "fig13" => fig13(quick),
        "e9" => e9(quick),
        "e10" => e10(quick),
        "e11" => e11(quick),
        "e12" => e12(quick),
        "e13" => e13(quick),
        "e14" => e14(quick),
        other => Err(efind_common::Error::InvalidConfig(format!(
            "unknown figure id {other}; known: fig11a..fig11f, fig12, fig13, e9, e10, e11, e12, e13, e14"
        ))),
    }
}

/// All figure ids in presentation order.
pub const ALL_FIGURES: [&str; 14] = [
    "fig11a", "fig11b", "fig11c", "fig11d", "fig11e", "fig11f", "fig12", "fig13", "e9", "e10",
    "e11", "e12", "e13", "e14",
];
