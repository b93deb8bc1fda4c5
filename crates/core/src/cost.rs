//! The cost model: Table 1 terms and Equations 1–4.
//!
//! Costs are expressed in seconds of cluster-aggregate work. Because every
//! formula scales linearly with `N1` (the paper normalizes per machine, we
//! keep cluster totals), *comparisons between strategies are unaffected*;
//! for absolute comparisons against the plan-change overhead, totals are
//! divided by [`CostEnv::parallelism`], the number of concurrently working
//! slots.
//!
//! Pre/post local computation is omitted, as in the paper: *"all the index
//! access strategies pay similar local computation costs for preProcess and
//! postProcess, we can omit them in the cost analysis formulae."*

/// Where an operator sits in the data flow — determines which boundary
/// sizes the re-partitioning strategy may store between its two jobs
/// (Fig. 7's variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Before Map.
    Head,
    /// Between Map and Reduce.
    Body,
    /// After Reduce.
    Tail,
}

/// Environment constants of Table 1 measured offline or from the cluster
/// models: `BW`, `f`, `T_cache`.
#[derive(Clone, Copy, Debug)]
pub struct CostEnv {
    /// Network bandwidth between two machines, bytes/second (`BW`).
    pub bw_bytes_per_sec: f64,
    /// Average cost of storing **and** retrieving a byte from the DFS
    /// (`f`), seconds per byte.
    pub f_per_byte: f64,
    /// Average time for a probe in the lookup cache (`T_cache`), seconds.
    pub t_cache_secs: f64,
    /// Per-request network latency paid by every **remote** lookup, on
    /// top of the `(Sik+Siv)/BW` volume term. Local (index-locality)
    /// lookups avoid it.
    pub lookup_latency_secs: f64,
    /// Effective cost of pushing one byte through an *extra* shuffle
    /// (map-side spill + network + reduce-side merge). The paper's Eq. 3
    /// uses `1/BW`; the physical substrate also pays disk bandwidth on
    /// both sides, so the runtime derives this from the cluster models to
    /// keep estimates and measurements consistent.
    pub shuffle_secs_per_byte: f64,
    /// Fixed wall-clock overhead per extra MapReduce job introduced by a
    /// shuffle strategy (job startup and phase barriers). The planner
    /// charges `job_overhead_secs × parallelism` in cluster-total terms
    /// per shuffle chosen.
    pub job_overhead_secs: f64,
    /// Reduce slots concurrently working on a shuffle job's lookups
    /// (typically fewer than map slots). Shuffle-strategy lookup terms are
    /// inflated by `parallelism / reduce_parallelism` because their
    /// lookups run reduce-side.
    pub reduce_parallelism: f64,
    /// Concurrently working slots; converts cluster-total seconds into an
    /// approximate wall-clock share.
    pub parallelism: f64,
}

impl CostEnv {
    /// Transfer time of `bytes` bytes in seconds.
    pub fn transfer_secs(&self, bytes: f64) -> f64 {
        bytes / self.bw_bytes_per_sec
    }

    /// Cost-inflation factor for work done in a shuffle job's reduce
    /// phase, whose parallelism (`cap` tasks at most, if nonzero) is lower
    /// than the map-side parallelism all other terms assume.
    pub fn reduce_inflation(&self, cap: usize) -> f64 {
        let mut slots = self.reduce_parallelism.max(1.0);
        if cap > 0 {
            slots = slots.min(cap as f64);
        }
        (self.parallelism / slots).max(1.0)
    }

    /// Converts a cluster-total cost to an approximate wall-clock cost.
    pub fn wall_secs(&self, total_secs: f64) -> f64 {
        total_secs / self.parallelism.max(1.0)
    }
}

/// Per-index statistics (the Table 1 terms subscripted by `j`).
#[derive(Clone, Debug)]
pub struct IndexStatsEstimate {
    /// Average number of lookup keys per operator input record (`Nik_j`).
    pub nik: f64,
    /// Average lookup key size in bytes (`Sik_j`).
    pub sik: f64,
    /// Average result bytes per lookup key (`Siv_j`).
    pub siv: f64,
    /// Average index service time per lookup in seconds (`T_j`).
    pub tj_secs: f64,
    /// Lookup cache miss ratio (`R`).
    pub miss_ratio: f64,
    /// Average duplicates per distinct lookup key (`Θ`), ≥ 1.
    pub theta: f64,
    /// True if the index exposes a partition scheme (index locality
    /// eligible).
    pub has_partition_scheme: bool,
    /// True if every record extracted exactly one key for this index —
    /// required by the shuffle-based strategies, which group records by
    /// that key.
    pub shuffleable: bool,
    /// Number of index partitions (0 = unknown/none). Index locality's
    /// shuffle is co-partitioned with the index, so its reduce
    /// parallelism is capped by this.
    pub partitions: usize,
    /// Observed fraction of lookup attempts that fail or time out
    /// (0 = healthy). Harvested from the fault counters; drives the
    /// expected-retry inflation of every lookup term.
    pub failure_rate: f64,
}

impl IndexStatsEstimate {
    /// Bytes added to a carrier record once this index's results are
    /// attached.
    pub fn result_growth(&self) -> f64 {
        self.nik * self.siv
    }

    /// Expected attempts per successful lookup under independent retries:
    /// `1 / (1 - failure_rate)`, the mean of the geometric distribution.
    /// Exactly 1.0 for a healthy index; the rate is capped at 0.95 so a
    /// fully black-holed index stays finite (the breaker, not the cost
    /// model, handles that regime).
    pub fn retry_factor(&self) -> f64 {
        1.0 / (1.0 - self.failure_rate.clamp(0.0, 0.95))
    }
}

/// Per-operator statistics (operator-level Table 1 terms).
#[derive(Clone, Debug)]
pub struct OperatorStatsEstimate {
    /// Total records into `preProcess` across the cluster (`N1`; the paper
    /// normalizes per machine — a constant factor that cancels in
    /// comparisons).
    pub n1: f64,
    /// Average input record size (`S1`).
    pub s1: f64,
    /// Average carrier size after `preProcess` (`Spre`).
    pub spre: f64,
    /// Average `postProcess` output bytes per input (`Spost`).
    pub spost: f64,
    /// Average original-Map output bytes per operator input (`Smap`,
    /// meaningful for head operators).
    pub smap: f64,
    /// Per-index statistics in declaration order.
    pub indices: Vec<IndexStatsEstimate>,
}

impl OperatorStatsEstimate {
    /// Carrier size once the indices in `accessed` (positions into
    /// `indices`) have attached their results — the size that must be
    /// shuffled for the *next* shuffle-based index (Property 2).
    pub fn carried_size(&self, accessed: &[usize]) -> f64 {
        self.spre
            + accessed
                .iter()
                .map(|&j| self.indices[j].result_growth())
                .sum::<f64>()
    }

    /// Partition-scheme availability is structural, not statistical: it is
    /// a property of the accessors bound today, whatever run the numbers
    /// came from. Overwrites it from `caps`
    /// ([`BoundOperator::caps`](crate::jobconf::BoundOperator::caps)),
    /// position by position.
    pub fn refresh_partition_schemes(&mut self, caps: &[(bool, bool)]) {
        for (idx, &(_, scheme)) in self.indices.iter_mut().zip(caps) {
            idx.has_partition_scheme = scheme;
        }
    }

    /// Deterministic element-wise mean over several runs' estimates — the
    /// aggregate the cross-job statistics store serves to the planner.
    /// Numeric tokens average in slice order; `theta` keeps its `≥ 1`
    /// floor and the ratio tokens their legal ranges, so a mean of legal
    /// estimates is itself legal (EF023 relies on this). Structural fields
    /// are not statistical: partition scheme and partition count follow
    /// the most recent run, and shuffleability is the conjunction (one
    /// irregular run disqualifies the shuffle strategies). Returns `None`
    /// when `runs` is empty or the index arities disagree.
    pub fn mean_of(runs: &[&OperatorStatsEstimate]) -> Option<OperatorStatsEstimate> {
        let last = *runs.last()?;
        let arity = last.indices.len();
        if runs.iter().any(|r| r.indices.len() != arity) {
            return None;
        }
        let n = runs.len() as f64;
        let mean =
            |f: &dyn Fn(&OperatorStatsEstimate) -> f64| runs.iter().map(|r| f(r)).sum::<f64>() / n;
        let mut indices = Vec::with_capacity(arity);
        for j in 0..arity {
            let imean = |f: &dyn Fn(&IndexStatsEstimate) -> f64| mean(&|r| f(&r.indices[j]));
            indices.push(IndexStatsEstimate {
                nik: imean(&|i| i.nik),
                sik: imean(&|i| i.sik),
                siv: imean(&|i| i.siv),
                tj_secs: imean(&|i| i.tj_secs),
                miss_ratio: imean(&|i| i.miss_ratio).clamp(0.0, 1.0),
                theta: imean(&|i| i.theta).max(1.0),
                has_partition_scheme: last.indices[j].has_partition_scheme,
                shuffleable: runs.iter().all(|r| r.indices[j].shuffleable),
                partitions: last.indices[j].partitions,
                failure_rate: imean(&|i| i.failure_rate).clamp(0.0, 1.0),
            });
        }
        Some(OperatorStatsEstimate {
            n1: mean(&|r| r.n1),
            s1: mean(&|r| r.s1),
            spre: mean(&|r| r.spre),
            spost: mean(&|r| r.spost),
            smap: mean(&|r| r.smap),
            indices,
        })
    }
}

/// Eq. 1 — baseline: every key pays a remote lookup (inflated by the
/// expected retries on a faulty index).
pub fn cost_baseline(env: &CostEnv, op: &OperatorStatsEstimate, j: usize) -> f64 {
    let idx = &op.indices[j];
    op.n1 * idx.nik * (remote_lookup_secs(env, idx) + idx.tj_secs) * idx.retry_factor()
}

/// The network leg of one remote lookup: request latency plus volume.
fn remote_lookup_secs(env: &CostEnv, idx: &IndexStatsEstimate) -> f64 {
    env.lookup_latency_secs + env.transfer_secs(idx.sik + idx.siv)
}

/// Eq. 2 — lookup cache: every key pays a probe; only misses pay the
/// remote lookup.
pub fn cost_cache(env: &CostEnv, op: &OperatorStatsEstimate, j: usize) -> f64 {
    let idx = &op.indices[j];
    op.n1
        * idx.nik
        * (env.t_cache_secs
            + idx.miss_ratio * (remote_lookup_secs(env, idx) + idx.tj_secs) * idx.retry_factor())
}

/// The `S_min` boundary size of Eq. 3: the smallest intermediate the
/// re-partitioning job pair can store between its two jobs, given the
/// operator's placement. `carried` is the shuffled record size (grows with
/// earlier lookups' results, Property 2).
pub fn s_min(op: &OperatorStatsEstimate, j: usize, placement: Placement, carried: f64) -> f64 {
    let sidx_here = carried + op.indices[j].result_growth();
    match placement {
        Placement::Head => carried.min(sidx_here).min(op.spost).min(op.smap),
        Placement::Body => carried.min(sidx_here).min(op.spost),
        Placement::Tail => op.s1.min(carried),
    }
}

/// Eq. 3 — re-partitioning: shuffle the carriers, store/retrieve the
/// boundary, then one lookup per *distinct* key.
pub fn cost_repartition(
    env: &CostEnv,
    op: &OperatorStatsEstimate,
    j: usize,
    placement: Placement,
    carried: f64,
) -> f64 {
    let idx = &op.indices[j];
    let shuffle = op.n1 * carried * env.shuffle_secs_per_byte;
    let result = env.f_per_byte * op.n1 * s_min(op, j, placement, carried);
    let lookups = op.n1 * idx.nik / idx.theta.max(1.0)
        * (remote_lookup_secs(env, idx) + idx.tj_secs)
        * idx.retry_factor()
        * env.reduce_inflation(0);
    shuffle + result + lookups
}

/// Eq. 4 — index locality: like re-partitioning, but lookups are local
/// (service time only) while the carrier data is transferred to the index
/// partition hosts.
pub fn cost_index_locality(
    env: &CostEnv,
    op: &OperatorStatsEstimate,
    j: usize,
    placement: Placement,
    carried: f64,
) -> f64 {
    let idx = &op.indices[j];
    let shuffle = op.n1 * carried * env.shuffle_secs_per_byte;
    let result = env.f_per_byte * op.n1 * s_min(op, j, placement, carried);
    let lookups = op.n1 * idx.nik / idx.theta.max(1.0)
        * idx.tj_secs
        * idx.retry_factor()
        * env.reduce_inflation(idx.partitions)
        + op.n1 * env.transfer_secs(carried);
    shuffle + result + lookups
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    pub fn env() -> CostEnv {
        CostEnv {
            bw_bytes_per_sec: 125.0e6,
            f_per_byte: 2.0e-8,
            t_cache_secs: 1.0e-6,
            lookup_latency_secs: 1.0e-4,
            shuffle_secs_per_byte: 3.6e-8,
            job_overhead_secs: 0.0,
            reduce_parallelism: 48.0,
            parallelism: 96.0,
        }
    }

    pub fn one_index_op(
        nik: f64,
        siv: f64,
        tj: f64,
        miss: f64,
        theta: f64,
    ) -> OperatorStatsEstimate {
        OperatorStatsEstimate {
            n1: 1.0e6,
            s1: 100.0,
            spre: 80.0,
            spost: 60.0,
            smap: 40.0,
            indices: vec![IndexStatsEstimate {
                nik,
                sik: 10.0,
                siv,
                tj_secs: tj,
                miss_ratio: miss,
                theta,
                has_partition_scheme: true,
                shuffleable: true,
                partitions: 32,
                failure_rate: 0.0,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{env, one_index_op};
    use super::*;

    #[test]
    fn baseline_matches_hand_computation() {
        let env = env();
        let op = one_index_op(1.0, 1000.0, 1.0e-3, 1.0, 1.0);
        // N1 * Nik * (latency + (Sik+Siv)/BW + Tj)
        let expect = 1.0e6 * (1.0e-4 + 1010.0 / 125.0e6 + 1.0e-3);
        assert!((cost_baseline(&env, &op, 0) - expect).abs() < 1e-6);
    }

    #[test]
    fn cache_beats_baseline_when_hits_exist() {
        let env = env();
        let op = one_index_op(1.0, 1000.0, 1.0e-3, 0.2, 5.0);
        assert!(cost_cache(&env, &op, 0) < cost_baseline(&env, &op, 0));
    }

    #[test]
    fn cache_slightly_worse_than_baseline_when_all_miss() {
        let env = env();
        let op = one_index_op(1.0, 1000.0, 1.0e-3, 1.0, 1.0);
        let base = cost_baseline(&env, &op, 0);
        let cache = cost_cache(&env, &op, 0);
        assert!(cache > base);
        assert!((cache - base - 1.0e6 * env.t_cache_secs).abs() < 1e-6);
    }

    #[test]
    fn repartition_wins_with_high_duplication() {
        let env = env();
        let low_dup = one_index_op(1.0, 1000.0, 1.0e-3, 1.0, 1.0);
        let high_dup = one_index_op(1.0, 1000.0, 1.0e-3, 1.0, 20.0);
        let carried = low_dup.spre;
        // With Θ=1 repartitioning only adds overhead over baseline.
        assert!(
            cost_repartition(&env, &low_dup, 0, Placement::Head, carried)
                > cost_baseline(&env, &low_dup, 0)
        );
        // With Θ=20 it removes 95% of the lookups and wins.
        assert!(
            cost_repartition(&env, &high_dup, 0, Placement::Head, carried)
                < cost_baseline(&env, &high_dup, 0)
        );
    }

    #[test]
    fn theta_monotonicity() {
        let env = env();
        let mut prev = f64::MAX;
        for theta in [1.0, 2.0, 4.0, 8.0] {
            let op = one_index_op(1.0, 1000.0, 1.0e-3, 1.0, theta);
            let c = cost_repartition(&env, &op, 0, Placement::Body, op.spre);
            assert!(c < prev, "theta={theta}");
            prev = c;
        }
    }

    #[test]
    fn index_locality_beats_repartition_for_large_results() {
        let env = env();
        // 10 KB results: transferring them dominates; locality avoids it.
        let big = one_index_op(1.0, 10_000.0, 1.0e-4, 1.0, 2.0);
        let carried = big.spre;
        assert!(
            cost_index_locality(&env, &big, 0, Placement::Head, carried)
                < cost_repartition(&env, &big, 0, Placement::Head, carried)
        );
        // 10 B results with heavy dedup: after re-partitioning only one
        // remote lookup per two records remains, while locality still
        // ships every carrier to the index hosts — locality loses.
        let mut small = one_index_op(1.0, 10.0, 1.0e-4, 1.0, 2.0);
        small.spre = 20_000.0; // large carried records
        assert!(
            cost_index_locality(&env, &small, 0, Placement::Head, small.spre)
                > cost_repartition(&env, &small, 0, Placement::Head, small.spre)
        );
    }

    #[test]
    fn s_min_respects_placement() {
        let op = one_index_op(1.0, 1000.0, 1.0e-3, 1.0, 1.0);
        // Head may store the post-Map boundary (smallest, 40).
        assert_eq!(s_min(&op, 0, Placement::Head, op.spre), 40.0);
        // Body stops at Spost (60).
        assert_eq!(s_min(&op, 0, Placement::Body, op.spre), 60.0);
        // Tail considers the reduce output S1 vs Spre.
        assert_eq!(s_min(&op, 0, Placement::Tail, op.spre), 80.0);
    }

    #[test]
    fn carried_size_grows_with_earlier_results() {
        let mut op = one_index_op(1.0, 1000.0, 1.0e-3, 1.0, 1.0);
        op.indices.push(IndexStatsEstimate {
            nik: 2.0,
            sik: 8.0,
            siv: 50.0,
            tj_secs: 1.0e-4,
            miss_ratio: 1.0,
            theta: 1.0,
            has_partition_scheme: false,
            shuffleable: false,
            partitions: 0,
            failure_rate: 0.0,
        });
        assert_eq!(op.carried_size(&[]), 80.0);
        assert_eq!(op.carried_size(&[0]), 80.0 + 1000.0);
        assert_eq!(op.carried_size(&[0, 1]), 80.0 + 1000.0 + 100.0);
    }

    #[test]
    fn wall_clock_scaling() {
        let env = env();
        assert!((env.wall_secs(96.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn failure_rate_inflates_every_lookup_term() {
        let env = env();
        let healthy = one_index_op(1.0, 1000.0, 1.0e-3, 1.0, 4.0);
        let mut flaky = healthy.clone();
        flaky.indices[0].failure_rate = 0.5;
        // Expected attempts double at a 50% failure rate.
        assert!((flaky.indices[0].retry_factor() - 2.0).abs() < 1e-12);
        assert!((healthy.indices[0].retry_factor() - 1.0).abs() < 1e-12);
        assert!(cost_baseline(&env, &flaky, 0) > cost_baseline(&env, &healthy, 0));
        assert!(cost_cache(&env, &flaky, 0) > cost_cache(&env, &healthy, 0));
        let carried = healthy.spre;
        assert!(
            cost_repartition(&env, &flaky, 0, Placement::Head, carried)
                > cost_repartition(&env, &healthy, 0, Placement::Head, carried)
        );
        assert!(
            cost_index_locality(&env, &flaky, 0, Placement::Head, carried)
                > cost_index_locality(&env, &healthy, 0, Placement::Head, carried)
        );
        // The inflation is capped: a black-holed index stays finite.
        flaky.indices[0].failure_rate = 1.0;
        assert!((flaky.indices[0].retry_factor() - 20.0).abs() < 1e-9);
    }
}
