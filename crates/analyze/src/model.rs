//! The neutral plan IR the analyzer runs over.
//!
//! The core crate lowers an `IndexJobConf` + per-operator `OperatorPlan`s
//! into this representation before compilation; the analyzer depends only
//! on it (and `efind-common`), never on the runtime types themselves, so
//! the checks stay decoupled from planner internals and are trivially
//! testable with hand-built models.

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

/// The job-wide fault-tolerance configuration, lowered only when the fault
/// layer is armed (a plan with nonzero rates, or any plan alongside a
/// per-index timeout). The fault checks
/// (`EF015`, `EF016`) are skipped without it.
#[derive(Clone, Copy, Debug)]
pub struct FaultModel {
    /// Maximum retries per lookup after the first attempt.
    pub max_retries: u32,
    /// First backoff pause in nanoseconds (0 disables pauses).
    pub backoff_base_nanos: u64,
    /// Backoff cap in nanoseconds.
    pub max_backoff_nanos: u64,
    /// Per-index lookup timeout in nanoseconds, if one is enforced.
    pub timeout_nanos: Option<u64>,
    /// True when exhausted retries fail the whole job (the `FailJob` miss
    /// policy) rather than degrading to a miss.
    pub fail_job_on_exhaustion: bool,
    /// Circuit-breaker failure-rate threshold (1.0 = breaker disabled).
    pub breaker_threshold: f64,
    /// Attempts observed before the breaker may open.
    pub breaker_min_samples: u64,
}

/// The job-wide data-integrity configuration, lowered only when the
/// corruption-injection layer is armed (a non-quiet corruption plan is
/// installed). The integrity checks (`EF017`, `EF018`) are skipped
/// without it.
#[derive(Clone, Copy, Debug)]
pub struct IntegrityModel {
    /// DFS replication factor of the cluster the job reads from.
    pub dfs_replication: usize,
    /// True when the plan corrupts DFS chunk replicas.
    pub corrupts_chunks: bool,
    /// True when the plan corrupts lookup-cache entries.
    pub corrupts_cache: bool,
    /// True when checksum verification runs at read boundaries. Disabled
    /// verification means corruption is injected but never detected.
    pub verification: bool,
}

/// The node-crash (chaos) configuration, lowered only when a chaos plan
/// is armed. `EF020` consumes it.
#[derive(Clone, Copy, Debug)]
pub struct ChaosModel {
    /// Number of scheduled node-kill events.
    pub kill_events: usize,
    /// Nodes in the simulated cluster.
    pub cluster_nodes: usize,
    /// DFS replication factor the crashed replicas recover from.
    pub dfs_replication: usize,
}

/// The network-partition / failure-detector configuration, lowered only
/// when the partition layer is armed (a non-quiet partition plan is
/// installed). `EF025` consumes it. Partitions cut *visibility*, never
/// state: an isolated node keeps running, but nothing it holds can be
/// reached until the cut heals — so a cut that never heals permanently
/// removes its nodes from the reachable replica budget.
#[derive(Clone, Copy, Debug)]
pub struct PartitionModel {
    /// Distinct nodes isolated by an event that never heals.
    pub permanently_isolated: usize,
    /// Nodes in the simulated cluster.
    pub cluster_nodes: usize,
    /// DFS replication factor of the input the job reads.
    pub dfs_replication: usize,
    /// Failure-detector heartbeat interval in nanoseconds.
    pub heartbeat_interval_nanos: u64,
    /// Failure-detector suspicion threshold in nanoseconds.
    pub suspicion_nanos: u64,
}

/// The hedged-lookup configuration, lowered only when hedging is armed (a
/// latency threshold is set). `EF026` warns when a hedged accessor has no
/// second replica or partition-side to race the backup against.
#[derive(Clone, Copy, Debug)]
pub struct HedgeModel {
    /// Latency threshold past which a backup lookup is raced, in
    /// nanoseconds.
    pub threshold_nanos: u64,
    /// True when the loser's virtual cost is charged on top of the
    /// winner's (the `ChargeBoth` policy).
    pub charge_both: bool,
    /// DFS replication factor — the backup-side count for accessors that
    /// expose no partition scheme.
    pub dfs_replication: usize,
}

/// The lookup-cache configuration, lowered whenever any operator plans a
/// cache-strategy access. `EF021` checks its coherence.
#[derive(Clone, Copy, Debug)]
pub struct CacheModel {
    /// Per-task LRU capacity in entries.
    pub capacity: usize,
    /// Cache probe time `T_cache` in seconds.
    pub t_cache_secs: f64,
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

/// One serving tenant of the multi-tenant cluster configuration.
#[derive(Clone, Debug)]
pub struct TenantModel {
    /// Tenant name (a counter-name segment: non-empty, dot-free).
    pub name: String,
    /// Deficit-round-robin weight (0 = the tenant can never win a grant).
    pub weight: u64,
    /// Per-tenant queued-job quota.
    pub max_queued: usize,
    /// Per-tenant running-job quota (0 = admitted jobs can never start).
    pub max_running: usize,
    /// Reserved share of the shared lookup cache, in `[0, 1]`.
    pub cache_share: f64,
}

/// One per-index rate limit of the multi-tenant configuration.
#[derive(Clone, Debug)]
pub struct RateLimitModel {
    /// Index (accessor) name the token bucket throttles.
    pub index: String,
    /// Sustained refill rate in lookups per virtual second.
    pub rate_per_sec: f64,
    /// Burst capacity in lookups.
    pub burst: f64,
}

/// The multi-tenant serving configuration, lowered only when the tenancy
/// layer is armed (more than one tenant, or any quota/rate limit that can
/// constrain a run). `EF024` checks its coherence; the quiet single-job
/// path never lowers one.
#[derive(Clone, Debug)]
pub struct TenancyModel {
    /// Declared tenants in configuration order.
    pub tenants: Vec<TenantModel>,
    /// Shared admission-queue bound.
    pub queue_capacity: usize,
    /// Cluster-wide concurrent-job bound.
    pub max_concurrent: usize,
    /// Per-index token-bucket rate limits.
    pub rate_limits: Vec<RateLimitModel>,
    /// QoS degrade threshold in seconds of queueing delay per lookup.
    pub degrade_threshold_secs: f64,
    /// Modeled per-lookup cost of the scan fallback, in seconds.
    pub scan_fallback_cost_secs: f64,
    /// The tenant this job claims to run as, when tagged.
    pub job_tenant: Option<String>,
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
    /// Fault-tolerance configuration, when the fault layer is armed.
    pub faults: Option<FaultModel>,
    /// Data-integrity configuration, when corruption injection is armed.
    pub integrity: Option<IntegrityModel>,
    /// Node-crash configuration, when a chaos plan is armed.
    pub chaos: Option<ChaosModel>,
    /// Lookup-cache configuration, when known to the lowering.
    pub cache: Option<CacheModel>,
    /// Measured-stats injections from the cross-job store, when any
    /// operator was planned from recorded history (`EF023`).
    pub measured: Vec<MeasuredStatsModel>,
    /// Multi-tenant serving configuration, when the tenancy layer is
    /// armed (`EF024`).
    pub tenancy: Option<TenancyModel>,
    /// Network-partition configuration, when the partition layer is armed
    /// (`EF025`).
    pub partition: Option<PartitionModel>,
    /// Hedged-lookup configuration, when hedging is armed (`EF026`).
    pub hedge: Option<HedgeModel>,
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
            faults: None,
            integrity: None,
            chaos: None,
            cache: None,
            measured: Vec::new(),
            tenancy: None,
            partition: None,
            hedge: None,
        }
    }

    /// A benign integrity configuration (replicated chunks, verification
    /// on).
    pub fn integrity() -> IntegrityModel {
        IntegrityModel {
            dfs_replication: 3,
            corrupts_chunks: true,
            corrupts_cache: false,
            verification: true,
        }
    }

    /// A benign fault configuration (bounded retries, sane backoff).
    pub fn faults() -> FaultModel {
        FaultModel {
            max_retries: 3,
            backoff_base_nanos: 1_000_000,
            max_backoff_nanos: 100_000_000,
            timeout_nanos: None,
            fail_job_on_exhaustion: false,
            breaker_threshold: 0.5,
            breaker_min_samples: 16,
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

    /// A benign chaos configuration (one kill on a replicated cluster).
    pub fn chaos() -> ChaosModel {
        ChaosModel {
            kill_events: 1,
            cluster_nodes: 8,
            dfs_replication: 3,
        }
    }

    /// A benign cache configuration.
    pub fn cache() -> CacheModel {
        CacheModel {
            capacity: 1024,
            t_cache_secs: 1.0e-6,
        }
    }

    /// A benign partition configuration (one healed cut on a replicated
    /// cluster, a sane detector).
    pub fn partition() -> PartitionModel {
        PartitionModel {
            permanently_isolated: 0,
            cluster_nodes: 8,
            dfs_replication: 3,
            heartbeat_interval_nanos: 500_000,
            suspicion_nanos: 1_500_000,
        }
    }

    /// A benign hedge configuration (replicated DFS to race against).
    pub fn hedge() -> HedgeModel {
        HedgeModel {
            threshold_nanos: 2_000_000,
            charge_both: false,
            dfs_replication: 3,
        }
    }

    /// A benign two-tenant serving configuration.
    pub fn tenancy() -> TenancyModel {
        TenancyModel {
            tenants: vec![
                TenantModel {
                    name: "alpha".into(),
                    weight: 2,
                    max_queued: 8,
                    max_running: 2,
                    cache_share: 0.5,
                },
                TenantModel {
                    name: "beta".into(),
                    weight: 1,
                    max_queued: 8,
                    max_running: 2,
                    cache_share: 0.25,
                },
            ],
            queue_capacity: 16,
            max_concurrent: 4,
            rate_limits: Vec::new(),
            degrade_threshold_secs: 1.0e-3,
            scan_fallback_cost_secs: 2.0e-6,
            job_tenant: Some("alpha".into()),
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
