//! The neutral plan IR the analyzer runs over.
//!
//! The core crate lowers an `IndexJobConf` + per-operator `OperatorPlan`s
//! into this representation before compilation; the analyzer depends only
//! on it (and `efind-common`), never on the runtime types themselves, so
//! the checks stay decoupled from planner internals and are trivially
//! testable with hand-built models — including illegal plans the runtime
//! types cannot represent. The runtime configuration (injection layers,
//! lookup cache, tenancy, hedging) has no mirror here: `efind::analysis`
//! checks it on the runtime's own types.

use efind_common::KeyKind;

/// Mirror of the four access strategies of §3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Chained functions, every lookup remote (§3.1).
    Baseline,
    /// Per-task LRU lookup cache (§3.2).
    Cache,
    /// Extra shuffle job grouping equal keys (§3.3).
    Repartition,
    /// Shuffle co-partitioned with the index (§3.4).
    IndexLocality,
}

impl StrategyKind {
    /// True for the strategies that insert a shuffle job.
    pub fn is_shuffle(self) -> bool {
        matches!(
            self,
            StrategyKind::Repartition | StrategyKind::IndexLocality
        )
    }

    /// Short label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            StrategyKind::Baseline => "base",
            StrategyKind::Cache => "cache",
            StrategyKind::Repartition => "repart",
            StrategyKind::IndexLocality => "idxloc",
        }
    }
}

/// Mirror of the operator placements (before Map, between Map and Reduce,
/// after Reduce).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlacementKind {
    /// Before Map.
    Head,
    /// Between Map and Reduce.
    Body,
    /// After Reduce.
    Tail,
}

/// What the analyzer knows about one bound index accessor.
#[derive(Clone, Debug)]
pub struct IndexModel {
    /// Accessor name (used in spans).
    pub name: String,
    /// True when `lookup` is a pure function of the key for the duration
    /// of a job. Non-deterministic accessors trigger `EF012`.
    pub deterministic: bool,
    /// True when the index may be accessed via a shuffle strategy.
    pub shuffleable: bool,
    /// True when the accessor exposes a partition scheme.
    pub has_partition_scheme: bool,
    /// Partition count of the exposed scheme (0 without a scheme; a scheme
    /// with 0 partitions is degenerate — `EF008`).
    pub partitions: usize,
    /// The key kind the accessor accepts.
    pub key_kind: KeyKind,
    /// Estimated lookup keys per input record (`Nik`), when statistics are
    /// available.
    pub nik: Option<f64>,
    /// The full `statsx` token set backing the cost model, when a catalog
    /// (or first-wave statistics) covers this index. `EF019` range-checks
    /// these.
    pub stats: Option<IndexStatsModel>,
}

/// The per-index statistics tokens of Table 1 / the `statsx` catalog
/// line (`nik= sik= siv= tj= miss= theta= … fail=`), as the cost model
/// consumes them.
#[derive(Clone, Copy, Debug)]
pub struct IndexStatsModel {
    /// Mean index-key size in bytes (`Sik`).
    pub sik_bytes: f64,
    /// Mean index-value size in bytes (`Siv`).
    pub siv_bytes: f64,
    /// Mean remote lookup time in seconds (`Tj`).
    pub tj_secs: f64,
    /// Miss ratio in `[0, 1]`.
    pub miss_ratio: f64,
    /// Duplication factor `Θ` (distinct keys appear at least once, so
    /// `Θ ≥ 1`).
    pub theta: f64,
    /// Injected lookup failure rate in `[0, 1)`.
    pub failure_rate: f64,
}

/// One planned index access.
#[derive(Clone, Copy, Debug)]
pub struct ChoiceModel {
    /// Position of the index in the operator's declaration order.
    pub slot: usize,
    /// Chosen strategy.
    pub strategy: StrategyKind,
    /// Estimated cost in cluster-total seconds (0 for forced plans).
    pub est_cost_secs: f64,
}

/// Statistics-derived cost facts for one operator, present only when a
/// catalog (or first-wave statistics) backs the plan. The stat-dependent
/// checks (`EF009`–`EF011`, `EF013`) are skipped without them.
#[derive(Clone, Debug)]
pub struct OperatorCosts {
    /// Input records (`N1`).
    pub n1: f64,
    /// Cache probe time `T_cache` in seconds (the `EF010` floor input).
    pub t_cache_secs: f64,
    /// Best plan cost under FullEnumerate.
    pub full_est_secs: f64,
    /// Best plan cost under k-Repart.
    pub krepart_est_secs: f64,
    /// The `k` used for the k-Repart comparison.
    pub krepart_k: usize,
    /// `S_min` at each plan position, in access order.
    pub s_min_by_position: Vec<f64>,
    /// Carried intermediate size at each plan position, in access order.
    pub carried_by_position: Vec<f64>,
    /// Best plan cost re-estimated with the input cardinality doubled
    /// (`N1 → 2·N1`), when the lowering computes it. The Eq. 1–4
    /// estimates are sums of terms linear in `N1`, so this can never be
    /// below the plan cost at `N1` — `EF019` enforces that monotonicity.
    pub est_at_double_n1_secs: Option<f64>,
}

/// What the analyzer knows about one operator.
#[derive(Clone, Debug)]
pub struct OperatorModel {
    /// Operator name.
    pub name: String,
    /// Placement relative to Map/Reduce.
    pub placement: PlacementKind,
    /// How many indices the operator declares (`num_indices`).
    pub declared_arity: usize,
    /// §3.2 escape hatch: lookups are non-idempotent; every plan must pin
    /// the operator to baseline (`EF014`).
    pub volatile: bool,
    /// Bound accessors, in declaration order.
    pub indices: Vec<IndexModel>,
    /// Key kinds the operator's `preProcess` emits per index slot. Empty
    /// means undeclared (all [`KeyKind::Any`]).
    pub lookup_key_kinds: Vec<KeyKind>,
    /// The plan's index accesses, in access order.
    pub choices: Vec<ChoiceModel>,
    /// Total estimated plan cost in cluster-total seconds.
    pub est_cost_secs: f64,
    /// Statistics-derived facts, when available.
    pub costs: Option<OperatorCosts>,
}

/// Measured statistics served from the cross-job re-optimization store
/// for one operator, lowered only when a store fingerprint matched at
/// compile time. `EF023` verifies them against the same token-range and
/// cost-monotonicity invariants `EF019` applies to `statsx` estimates.
#[derive(Clone, Debug)]
pub struct MeasuredStatsModel {
    /// Operator the measured stats were injected for.
    pub operator: String,
    /// Recorded input cardinality (`N1`).
    pub n1: f64,
    /// Recorded lookup keys per input record (`Nik`), one per index slot.
    pub nik: Vec<f64>,
    /// Recorded per-index statistics tokens, one per index slot.
    pub indices: Vec<IndexStatsModel>,
    /// Best full-enumeration plan cost under the measured stats.
    pub full_est_secs: f64,
    /// Best full-enumeration plan cost with `N1` doubled — never below
    /// `full_est_secs` for a consistent cost model.
    pub est_at_double_n1_secs: f64,
}

/// The whole job as the analyzer sees it.
#[derive(Clone, Debug)]
pub struct PlanModel {
    /// Job name.
    pub job: String,
    /// True when the job has a reduce phase.
    pub has_reduce: bool,
    /// Operators in data-flow order (head → body → tail).
    pub operators: Vec<OperatorModel>,
    /// Measured-stats injections from the cross-job store, when any
    /// operator was planned from recorded history (`EF023`).
    pub measured: Vec<MeasuredStatsModel>,
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A deterministic, shuffleable, scheme-less index accepting any key.
    pub fn index(name: &str) -> IndexModel {
        IndexModel {
            name: name.into(),
            deterministic: true,
            shuffleable: true,
            has_partition_scheme: false,
            partitions: 0,
            key_kind: KeyKind::Any,
            nik: None,
            stats: None,
        }
    }

    /// A single-index operator with a one-choice plan.
    pub fn operator(name: &str, strategy: StrategyKind) -> OperatorModel {
        OperatorModel {
            name: name.into(),
            placement: PlacementKind::Head,
            declared_arity: 1,
            volatile: false,
            indices: vec![index("idx")],
            lookup_key_kinds: Vec::new(),
            choices: vec![ChoiceModel {
                slot: 0,
                strategy,
                est_cost_secs: 0.0,
            }],
            est_cost_secs: 0.0,
            costs: None,
        }
    }

    /// A job with a reduce phase wrapping the given operators.
    pub fn job(operators: Vec<OperatorModel>) -> PlanModel {
        PlanModel {
            job: "test".into(),
            has_reduce: true,
            operators,
            measured: Vec::new(),
        }
    }

    /// Legal per-index statistics tokens.
    pub fn index_stats() -> IndexStatsModel {
        IndexStatsModel {
            sik_bytes: 16.0,
            siv_bytes: 64.0,
            tj_secs: 2.0e-3,
            miss_ratio: 0.1,
            theta: 2.0,
            failure_rate: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_shuffle_classification() {
        assert!(!StrategyKind::Baseline.is_shuffle());
        assert!(!StrategyKind::Cache.is_shuffle());
        assert!(StrategyKind::Repartition.is_shuffle());
        assert!(StrategyKind::IndexLocality.is_shuffle());
    }

    #[test]
    fn key_kind_compatibility() {
        assert!(KeyKind::Any.compatible(KeyKind::Int));
        assert!(KeyKind::Int.compatible(KeyKind::Any));
        assert!(KeyKind::Int.compatible(KeyKind::Int));
        assert!(!KeyKind::Int.compatible(KeyKind::Text));
    }
}
