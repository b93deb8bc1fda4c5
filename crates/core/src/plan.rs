//! Index access strategies and the multi-index planning algorithms (§3.5).
//!
//! For an operator with `m` independent indices the planner exploits four
//! properties proved in the paper:
//!
//! 1. baseline/cache costs are order-independent;
//! 2. re-partitioning/index-locality costs depend on the access order
//!    (earlier lookup results ride along in the shuffled data);
//! 3. with a fixed order, each index's strategy cost is independent of the
//!    other indices' strategy choices;
//! 4. an optimal plan accesses shuffle-strategy indices before
//!    baseline/cache ones.
//!
//! **FullEnumerate** tries all `m!` orders; **k-Repart** tries all
//! `P(m, k)` prefixes of shuffle-eligible indices and handles the rest with
//! baseline/cache only.

use crate::cost::{
    cost_baseline, cost_cache, cost_index_locality, cost_repartition, CostEnv,
    OperatorStatsEstimate, Placement,
};

/// The four index access strategies of §3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// §3.1 — chained functions, every key looked up remotely.
    Baseline,
    /// §3.2 — per-task LRU lookup cache.
    Cache,
    /// §3.3 — extra shuffle job grouping equal keys; one lookup per
    /// distinct key.
    Repartition,
    /// §3.4 — shuffle co-partitioned with the index plus affinity
    /// scheduling; lookups become local.
    IndexLocality,
}

impl Strategy {
    /// True for the strategies that insert a shuffle job.
    pub fn is_shuffle(self) -> bool {
        matches!(self, Strategy::Repartition | Strategy::IndexLocality)
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Baseline => "base",
            Strategy::Cache => "cache",
            Strategy::Repartition => "repart",
            Strategy::IndexLocality => "idxloc",
        }
    }
}

/// The planned access of one index.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexChoice {
    /// Position of the index in the operator's declaration order.
    pub index: usize,
    /// Chosen strategy.
    pub strategy: Strategy,
    /// Estimated cost in cluster-total seconds (0 for forced plans).
    pub est_cost_secs: f64,
}

/// A complete plan for one operator: indices in access order with their
/// strategies.
#[derive(Clone, Debug, PartialEq)]
pub struct OperatorPlan {
    /// Choices in access order.
    pub choices: Vec<IndexChoice>,
    /// Total estimated cost in cluster-total seconds.
    pub est_cost_secs: f64,
}

impl OperatorPlan {
    /// True if any index uses a shuffle strategy.
    pub fn has_shuffle(&self) -> bool {
        self.choices.iter().any(|c| c.strategy.is_shuffle())
    }

    /// Property 4's violations as `(p, s)` pairs of plan positions: the
    /// first baseline/cache access at `p`, and each shuffle-strategy access
    /// at `s > p`. An optimal plan yields none; the first pair is the first
    /// violation.
    pub fn property4_violations(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let first_non_shuffle = self.choices.iter().position(|c| !c.strategy.is_shuffle());
        first_non_shuffle.into_iter().flat_map(move |p| {
            (p + 1..self.choices.len())
                .filter(move |&s| self.choices[s].strategy.is_shuffle())
                .map(move |s| (p, s))
        })
    }
}

/// Which planning algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enumeration {
    /// FullEnumerate: all `m!` access orders (falls back to `KRepart(2)`
    /// above [`FULL_ENUMERATE_LIMIT`] indices).
    Full,
    /// k-Repart: all `P(m, k)` shuffle-strategy prefixes.
    KRepart(usize),
}

/// FullEnumerate is used up to this many indices per operator (8! = 40320
/// orders — the paper argues m ≤ 5 in practice).
pub const FULL_ENUMERATE_LIMIT: usize = 8;

/// Evaluates one access order, choosing each position's best strategy
/// under Property 4 pruning. `shuffle_budget` caps how many leading
/// positions may pick a shuffle strategy (`usize::MAX` = unlimited).
fn evaluate_order(
    op: &OperatorStatsEstimate,
    env: &CostEnv,
    placement: Placement,
    order: &[usize],
    shuffle_budget: usize,
) -> OperatorPlan {
    let mut choices = Vec::with_capacity(order.len());
    let mut total = 0.0;
    let mut accessed: Vec<usize> = Vec::with_capacity(order.len());
    let mut shuffle_allowed = true;
    let mut shuffles_used = 0usize;

    for &j in order {
        let idx = &op.indices[j];
        let carried = op.carried_size(&accessed);
        let mut best = (Strategy::Baseline, cost_baseline(env, op, j));
        let cache = cost_cache(env, op, j);
        if cache < best.1 {
            best = (Strategy::Cache, cache);
        }
        if shuffle_allowed && shuffles_used < shuffle_budget && idx.shuffleable {
            // Each shuffle strategy adds one MapReduce job; charge its
            // fixed overhead so shuffles are only chosen when the lookup
            // savings pay for a whole extra job (§3.5's observation).
            let overhead = env.job_overhead_secs * env.parallelism;
            let repart = cost_repartition(env, op, j, placement, carried) + overhead;
            if repart < best.1 {
                best = (Strategy::Repartition, repart);
            }
            if idx.has_partition_scheme {
                let loc = cost_index_locality(env, op, j, placement, carried) + overhead;
                if loc < best.1 {
                    best = (Strategy::IndexLocality, loc);
                }
            }
        }
        if best.0.is_shuffle() {
            shuffles_used += 1;
        } else {
            // Property 4: once a non-shuffle strategy is chosen, only
            // baseline/cache are considered for the rest.
            shuffle_allowed = false;
        }
        total += best.1;
        choices.push(IndexChoice {
            index: j,
            strategy: best.0,
            est_cost_secs: best.1,
        });
        accessed.push(j);
    }
    OperatorPlan {
        choices,
        est_cost_secs: total,
    }
}

fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

fn k_permutations(items: &[usize], k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in k_permutations(&rest, k - 1) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// Computes the best plan for one operator given its statistics.
pub fn optimize_operator(
    op: &OperatorStatsEstimate,
    env: &CostEnv,
    placement: Placement,
    enumeration: Enumeration,
) -> OperatorPlan {
    let m = op.indices.len();
    if m == 0 {
        return OperatorPlan {
            choices: vec![],
            est_cost_secs: 0.0,
        };
    }
    let all: Vec<usize> = (0..m).collect();
    let effective = match enumeration {
        Enumeration::Full if m <= FULL_ENUMERATE_LIMIT => Enumeration::Full,
        Enumeration::Full => Enumeration::KRepart(2),
        other => other,
    };
    match effective {
        Enumeration::Full => permutations(&all)
            .into_iter()
            .map(|order| evaluate_order(op, env, placement, &order, usize::MAX))
            .min_by(|a, b| a.est_cost_secs.total_cmp(&b.est_cost_secs))
            .expect("at least one permutation"),
        Enumeration::KRepart(k) => {
            let k = k.min(m);
            let mut best: Option<OperatorPlan> = None;
            for prefix in k_permutations(&all, k) {
                let mut order = prefix.clone();
                for j in 0..m {
                    if !prefix.contains(&j) {
                        order.push(j);
                    }
                }
                let plan = evaluate_order(op, env, placement, &order, k);
                if best
                    .as_ref()
                    .is_none_or(|b| plan.est_cost_secs < b.est_cost_secs)
                {
                    best = Some(plan);
                }
            }
            best.expect("at least one k-permutation")
        }
    }
}

/// The monotonicity probe of `EF019` and `EF023`: the best
/// full-enumeration plan cost under `op`, and the same cost with the input
/// cardinality `N1` doubled. Eqs. 1–4 are sums of terms linear in `N1`, so
/// for a consistent cost model the second is never below the first.
pub(crate) fn doubled_n1_probe(
    op: &OperatorStatsEstimate,
    env: &CostEnv,
    placement: Placement,
) -> (f64, f64) {
    let full = optimize_operator(op, env, placement, Enumeration::Full);
    let mut doubled = op.clone();
    doubled.n1 *= 2.0;
    let at_double = optimize_operator(&doubled, env, placement, Enumeration::Full);
    (full.est_cost_secs, at_double.est_cost_secs)
}

/// Builds a plan forcing `strategy` on every index, degrading gracefully:
/// index locality without a partition scheme falls back to re-partitioning;
/// shuffle strategies on a non-shuffleable index fall back to cache.
pub fn forced_plan(op_caps: &[(bool, bool)], strategy: Strategy) -> OperatorPlan {
    // op_caps[j] = (shuffleable, has_partition_scheme)
    let choices = op_caps
        .iter()
        .enumerate()
        .map(|(j, &(shuffleable, scheme))| {
            let s = match strategy {
                Strategy::IndexLocality if !scheme => {
                    if shuffleable {
                        Strategy::Repartition
                    } else {
                        Strategy::Cache
                    }
                }
                Strategy::IndexLocality | Strategy::Repartition if !shuffleable => Strategy::Cache,
                s => s,
            };
            IndexChoice {
                index: j,
                strategy: s,
                est_cost_secs: 0.0,
            }
        })
        .collect();
    OperatorPlan {
        choices,
        est_cost_secs: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::testutil::{env, one_index_op};
    use crate::cost::IndexStatsEstimate;

    fn idx(siv: f64, theta: f64, miss: f64, scheme: bool) -> IndexStatsEstimate {
        IndexStatsEstimate {
            nik: 1.0,
            sik: 10.0,
            siv,
            tj_secs: 1.0e-3,
            miss_ratio: miss,
            theta,
            has_partition_scheme: scheme,
            shuffleable: true,
            partitions: if scheme { 32 } else { 0 },
            failure_rate: 0.0,
        }
    }

    #[test]
    fn single_index_picks_cache_under_high_hit_rate() {
        let env = env();
        let op = one_index_op(1.0, 500.0, 1.0e-3, 0.05, 2.0);
        let plan = optimize_operator(&op, &env, Placement::Head, Enumeration::Full);
        assert_eq!(plan.choices.len(), 1);
        assert_eq!(plan.choices[0].strategy, Strategy::Cache);
    }

    #[test]
    fn single_index_picks_repartition_under_global_duplication() {
        let env = env();
        // All cache misses (no locality) but heavy global duplication.
        let op = one_index_op(1.0, 500.0, 1.0e-3, 1.0, 10.0);
        let plan = optimize_operator(&op, &env, Placement::Body, Enumeration::Full);
        assert!(plan.choices[0].strategy.is_shuffle());
    }

    #[test]
    fn property4_shuffles_come_first() {
        let env = env();
        let mut op = one_index_op(1.0, 500.0, 1.0e-3, 1.0, 10.0);
        // Add a cache-friendly index and a baseline-ish one.
        op.indices.push(idx(100.0, 1.0, 0.05, false));
        op.indices.push(idx(50.0, 1.0, 1.0, false));
        let plan = optimize_operator(&op, &env, Placement::Body, Enumeration::Full);
        assert_eq!(plan.property4_violations().next(), None, "{plan:?}");
    }

    #[test]
    fn property4_predicate() {
        let choice = |index, strategy| IndexChoice {
            index,
            strategy,
            est_cost_secs: 0.0,
        };
        let plan = |choices| OperatorPlan {
            choices,
            est_cost_secs: 0.0,
        };
        let good = plan(vec![
            choice(1, Strategy::Repartition),
            choice(0, Strategy::Cache),
        ]);
        assert_eq!(good.property4_violations().next(), None);
        let bad = plan(vec![
            choice(0, Strategy::Repartition),
            choice(1, Strategy::Cache),
            choice(2, Strategy::IndexLocality),
            choice(3, Strategy::Baseline),
            choice(4, Strategy::Repartition),
        ]);
        let pairs: Vec<_> = bad.property4_violations().collect();
        assert_eq!(pairs, vec![(1, 2), (1, 4)]);
    }

    #[test]
    fn strategy_shuffle_classification() {
        assert!(!Strategy::Baseline.is_shuffle());
        assert!(!Strategy::Cache.is_shuffle());
        assert!(Strategy::Repartition.is_shuffle());
        assert!(Strategy::IndexLocality.is_shuffle());
    }

    #[test]
    fn full_and_krepart_agree_when_one_shuffle_suffices() {
        let env = env();
        let mut op = one_index_op(1.0, 500.0, 1.0e-3, 1.0, 10.0);
        op.indices.push(idx(100.0, 1.0, 0.05, false));
        let full = optimize_operator(&op, &env, Placement::Body, Enumeration::Full);
        let k1 = optimize_operator(&op, &env, Placement::Body, Enumeration::KRepart(1));
        assert!((full.est_cost_secs - k1.est_cost_secs).abs() < 1e-9);
    }

    #[test]
    fn krepart_never_beats_full() {
        let env = env();
        let mut op = one_index_op(1.0, 2000.0, 1.0e-3, 1.0, 8.0);
        op.indices.push(idx(1500.0, 6.0, 1.0, true));
        op.indices.push(idx(100.0, 1.0, 0.5, false));
        let full = optimize_operator(&op, &env, Placement::Body, Enumeration::Full);
        for k in 0..=3 {
            let kp = optimize_operator(&op, &env, Placement::Body, Enumeration::KRepart(k));
            assert!(
                kp.est_cost_secs >= full.est_cost_secs - 1e-9,
                "k={k}: {} < {}",
                kp.est_cost_secs,
                full.est_cost_secs
            );
        }
    }

    #[test]
    fn index_locality_requires_scheme() {
        let env = env();
        let mut op = one_index_op(1.0, 30_000.0, 1.0e-4, 1.0, 2.0);
        op.indices[0].has_partition_scheme = false;
        let plan = optimize_operator(&op, &env, Placement::Head, Enumeration::Full);
        assert_ne!(plan.choices[0].strategy, Strategy::IndexLocality);
        op.indices[0].has_partition_scheme = true;
        let plan = optimize_operator(&op, &env, Placement::Head, Enumeration::Full);
        assert_eq!(plan.choices[0].strategy, Strategy::IndexLocality);
    }

    #[test]
    fn forced_plan_fallbacks() {
        let plan = forced_plan(
            &[(true, true), (true, false), (false, false)],
            Strategy::IndexLocality,
        );
        assert_eq!(plan.choices[0].strategy, Strategy::IndexLocality);
        assert_eq!(plan.choices[1].strategy, Strategy::Repartition);
        assert_eq!(plan.choices[2].strategy, Strategy::Cache);
        let plan = forced_plan(&[(false, false)], Strategy::Repartition);
        assert_eq!(plan.choices[0].strategy, Strategy::Cache);
    }

    #[test]
    fn empty_operator_plan() {
        let env = env();
        let op = OperatorStatsEstimate {
            n1: 0.0,
            s1: 0.0,
            spre: 0.0,
            spost: 0.0,
            smap: 0.0,
            indices: vec![],
        };
        let plan = optimize_operator(&op, &env, Placement::Head, Enumeration::Full);
        assert!(plan.choices.is_empty());
        assert_eq!(plan.est_cost_secs, 0.0);
    }

    #[test]
    fn permutation_counts() {
        assert_eq!(permutations(&[0, 1, 2]).len(), 6);
        assert_eq!(k_permutations(&[0, 1, 2, 3], 2).len(), 12);
        assert_eq!(k_permutations(&[0, 1], 0).len(), 1);
    }
}
