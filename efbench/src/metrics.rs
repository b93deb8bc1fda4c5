//! Every metric the benchmark reports, by name, with its unit and
//! direction. `BENCHMARK.json` is generated from these tables
//! (`efbench manifest`), so the two cannot drift apart.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit; `s_virtual` is seconds on the simulated cluster's clock,
    /// everything else is host-side.
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// The metric is a pure function of the seed: two runs on one seed
    /// must report the identical number, and `efbench compare` flags any
    /// difference, however small.
    pub exact: bool,
}

const fn noisy(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        bound,
        exact: false,
    }
}

/// The end-to-end metrics, all lower-is-better. A bound is at least three
/// times the widest spread (quartile distance over median) the metric
/// showed across ten seeds on any workload, on a 2-vCPU shared VM — except
/// the two host times, whose spread reaches 15 % and whose bound is the
/// widest the harness allows (README, "Measured noise").
pub const END_TO_END: [EndToEnd; 6] = [
    noisy("wall_ms_p50", "ms", 0.25),
    noisy("cpu_ms_p50", "ms", 0.25),
    // Widest spread 2.9 % (`q9_adaptive`: the generated tables differ).
    noisy("alloc_mb", "MB", 0.10),
    // Widest spread 0.5 %.
    noisy("peak_rss_mb", "MB", 0.05),
    EndToEnd {
        name: "virtual_s",
        unit: "s_virtual",
        // Across seeds the inputs differ, so the number does (up to 5 %
        // on `q9_adaptive`, whose re-plan depends on the data); on one seed
        // it is exact.
        bound: 0.15,
        exact: true,
    },
    noisy("setup_s", "s", 0.25),
];

/// A per-layer metric of the traced run.
pub struct PerLayer {
    /// `<layer>.<what>`; the layer is the crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn ms(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        better: Better::Lower,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
    }
}

const fn bytes(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "B",
        better: Better::Lower,
    }
}

const fn ratio(name: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better,
    }
}

/// Task-seconds on the virtual clock: an Eq. 1–4 term recomputed from
/// counters.
const fn virtual_s(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s_virtual",
        better: Better::Lower,
    }
}

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: [PerLayer; 62] = [
    // set-up
    ms("workloads.generate_ms"),
    ms("workloads.prepare_ms"),
    ms("index.build_ms"),
    ms("dfs.load_ms"),
    // dfs
    ms("dfs.read_ms"),
    ms("dfs.write_ms"),
    bytes("dfs.bytes_read"),
    bytes("dfs.bytes_written"),
    count("dfs.rereads"),
    count("dfs.replicas_quarantined"),
    virtual_s("dfs.virtual.io_s"),
    // mapreduce
    ms("mapreduce.execute_maps_ms"),
    ms("mapreduce.map_self_ms"),
    ms("mapreduce.user_fn_ms"),
    ms("mapreduce.partition_ms"),
    ms("mapreduce.reduce_ms"),
    ms("mapreduce.finish_ms"),
    ms("mapreduce.finish_self_ms"),
    ms("mapreduce.counters_ms"),
    bytes("mapreduce.shuffle_bytes"),
    count("mapreduce.records_in"),
    count("mapreduce.records_out"),
    virtual_s("mapreduce.virtual.shuffle_s"),
    // cluster
    ms("cluster.schedule_ms"),
    count("cluster.tasks_scheduled"),
    count("cluster.crashed_attempts"),
    count("cluster.replaced_tasks"),
    count("cluster.suspected"),
    count("cluster.refuted"),
    // core
    ms("core.plan_ms"),
    ms("core.compile_ms"),
    ms("core.dynamic_run_ms"),
    ms("core.charged_lookup_ms"),
    ms("core.cache_ms"),
    ratio("core.cache.hit_ratio", Better::Higher),
    count("core.cache.evictions"),
    count("core.lookup_keys"),
    count("core.lookups"),
    ratio("core.lookup_dedup_ratio", Better::Higher),
    count("core.replans"),
    ratio("core.plan.regret", Better::Lower),
    ratio("core.plan.dynamic_over_optimized", Better::Lower),
    ratio("core.plan.speedup_vs_base", Better::Higher),
    virtual_s("core.virtual.serve_s"),
    virtual_s("core.virtual.transfer_s"),
    virtual_s("core.virtual.cache_probe_s"),
    virtual_s("core.virtual.backoff_s"),
    count("core.fault.retries"),
    count("core.hedge.fired"),
    count("core.hedge.wins"),
    count("core.integrity.refetches"),
    // index
    ms("index.lookup_ms"),
    count("index.lookups"),
    bytes("index.bytes_returned"),
    // common
    ms("common.sort_ms"),
    ms("common.crc_ms"),
    // the bench itself
    ms("bench.wall_ms_1cpu"),
    ms("bench.wall_ms_ncpu"),
    ratio("bench.parallel_speedup", Better::Higher),
    ratio("bench.trace_overhead", Better::Lower),
    count("bench.allocs"),
    ratio("bench.unattributed_share", Better::Lower),
];

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A value of a metric from the tables. A ratio whose base was zero
    /// (a configuration that does not apply) reads 0, never NaN, so the
    /// result line stays valid JSON.
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            value: if value.is_finite() { value } else { 0.0 },
            unit: unit.to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
