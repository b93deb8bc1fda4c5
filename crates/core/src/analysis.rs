//! Bridge to the `efind-analyze` static plan verifier.
//!
//! The analyzer crate knows nothing about the runtime types; this module
//! lowers an [`IndexJobConf`] plus per-operator [`OperatorPlan`]s into its
//! neutral IR and runs the checks. [`crate::compile::compile_pipeline`]
//! calls [`analyze_job_in_env`] before building any stage — analyzer errors abort
//! compilation, warnings ride along in the compiled pipeline and are
//! printed at job start. [`analyze_costs`] additionally exercises the
//! statistics-dependent checks (`EF009`–`EF011`, `EF013`) from catalog
//! statistics, for `explain`-style reporting.

use efind_analyze::{
    analyze, CacheModel, ChaosModel, ChoiceModel, FaultModel, HedgeModel, IndexModel,
    IndexStatsModel, IntegrityModel, MeasuredStatsModel, OperatorCosts, OperatorModel,
    PartitionModel, PlacementKind, PlanModel, RateLimitModel, Report, StrategyKind, TenancyModel,
    TenantModel,
};
use efind_cluster::{ChaosPlan, CorruptionPlan, DetectorConfig, PartitionPlan, TenancyConfig};
use efind_common::{Error, FxHashMap, Result};

use crate::cost::{s_min, CostEnv, OperatorStatsEstimate, Placement};
use crate::fault::{FaultConfig, MissPolicy};
use crate::jobconf::{BoundOperator, IndexJobConf};
use crate::plan::{
    doubled_n1_probe, forced_plan, optimize_operator, Enumeration, OperatorPlan, Strategy,
};
use crate::statsx::Catalog;

fn strategy_kind(s: Strategy) -> StrategyKind {
    match s {
        Strategy::Baseline => StrategyKind::Baseline,
        Strategy::Cache => StrategyKind::Cache,
        Strategy::Repartition => StrategyKind::Repartition,
        Strategy::IndexLocality => StrategyKind::IndexLocality,
    }
}

fn placement_kind(p: Placement) -> PlacementKind {
    match p {
        Placement::Head => PlacementKind::Head,
        Placement::Body => PlacementKind::Body,
        Placement::Tail => PlacementKind::Tail,
    }
}

fn operator_model(
    bound: &BoundOperator,
    placement: Placement,
    plan: &OperatorPlan,
) -> OperatorModel {
    let indices = bound
        .indices
        .iter()
        .map(|acc| {
            let scheme = acc.partition_scheme();
            IndexModel {
                name: acc.name().to_owned(),
                deterministic: acc.deterministic(),
                // Shuffleability (exactly one key per record) is a runtime
                // property; statically it is assumed, matching `caps()`.
                shuffleable: true,
                has_partition_scheme: scheme.is_some(),
                partitions: scheme.map(|s| s.num_partitions()).unwrap_or(0),
                key_kind: acc.key_kind(),
                nik: None,
                stats: None,
            }
        })
        .collect();
    OperatorModel {
        name: bound.op.name().to_owned(),
        placement: placement_kind(placement),
        declared_arity: bound.op.num_indices(),
        volatile: bound.volatile,
        indices,
        lookup_key_kinds: bound.key_kinds.clone(),
        choices: plan
            .choices
            .iter()
            .map(|c| ChoiceModel {
                slot: c.index,
                strategy: strategy_kind(c.strategy),
                est_cost_secs: c.est_cost_secs,
            })
            .collect(),
        est_cost_secs: plan.est_cost_secs,
        costs: None,
    }
}

/// Lowers a job and its plans into the analyzer's IR. A missing plan is an
/// internal error, exactly as the compiler reported it before the analyzer
/// existed.
pub fn job_model(
    ijob: &IndexJobConf,
    plans: &FxHashMap<String, OperatorPlan>,
) -> Result<PlanModel> {
    let mut operators = Vec::new();
    for (bound, placement) in ijob.operators() {
        let plan = plans
            .get(bound.op.name())
            .ok_or_else(|| Error::Internal(format!("no plan for operator {}", bound.op.name())))?;
        operators.push(operator_model(bound, placement, plan));
    }
    Ok(PlanModel {
        job: ijob.name.clone(),
        has_reduce: ijob.has_reduce(),
        operators,
        faults: None,
        integrity: None,
        chaos: None,
        cache: None,
        measured: Vec::new(),
        tenancy: None,
        partition: None,
        hedge: None,
    })
}

/// Lowers the runtime fault configuration into the analyzer's IR. Only an
/// armed configuration (not [`FaultConfig::is_quiet`]) is lowered — the
/// fault checks are meaningless for the quiet path, which never retries,
/// pauses, or times out. Like every lowering here, this asks the runtime's
/// own `is_quiet()`, so the analyzer arms exactly the layers the run does.
pub fn fault_model(config: &FaultConfig) -> Option<FaultModel> {
    if config.is_quiet() {
        return None;
    }
    Some(FaultModel {
        max_retries: config.retry.max_retries,
        backoff_base_nanos: config.retry.backoff_base.as_nanos(),
        max_backoff_nanos: config.retry.max_backoff.as_nanos(),
        timeout_nanos: config.timeout.map(|t| t.as_nanos()),
        fail_job_on_exhaustion: matches!(config.miss_policy, MissPolicy::FailJob),
        breaker_threshold: config.breaker_threshold(),
        breaker_min_samples: config.breaker_min_samples,
    })
}

/// Lowers the runtime corruption configuration into the analyzer's IR.
/// Only an armed (non-quiet) plan is lowered — the integrity checks are
/// meaningless for the corruption-free path, which never flips a byte.
pub fn integrity_model(
    corruption: &CorruptionPlan,
    dfs_replication: usize,
) -> Option<IntegrityModel> {
    if corruption.is_quiet() {
        return None;
    }
    Some(IntegrityModel {
        dfs_replication,
        corrupts_chunks: corruption.corrupts_chunks(),
        corrupts_cache: corruption.corrupts_cache(),
        verification: corruption.verification_enabled(),
    })
}

/// Lowers the node-crash plan into the analyzer's IR. Only an armed
/// (non-quiet) plan is lowered — the conflict checks are meaningless for
/// the crash-free path, which never kills a node.
pub fn chaos_model(
    chaos: &ChaosPlan,
    cluster_nodes: usize,
    dfs_replication: usize,
) -> Option<ChaosModel> {
    if chaos.is_quiet() {
        return None;
    }
    Some(ChaosModel {
        kill_events: chaos.events().len(),
        cluster_nodes,
        dfs_replication,
    })
}

/// Lowers the network-partition plan and failure-detector configuration
/// into the analyzer's IR. Only an armed (non-quiet) plan is lowered —
/// the gray-failure checks are meaningless for the partition-free path,
/// which never cuts a link, and the detector is only consulted when a
/// partition plan is armed.
pub fn partition_model(
    netsplit: &PartitionPlan,
    detector: &DetectorConfig,
    cluster_nodes: usize,
    dfs_replication: usize,
) -> Option<PartitionModel> {
    if netsplit.is_quiet() {
        return None;
    }
    let permanently_isolated = netsplit
        .events()
        .iter()
        .filter(|e| e.is_permanent())
        .map(|e| e.nodes.len())
        .sum();
    Some(PartitionModel {
        permanently_isolated,
        cluster_nodes,
        dfs_replication,
        heartbeat_interval_nanos: detector.interval.as_nanos(),
        suspicion_nanos: detector.suspicion.as_nanos(),
    })
}

/// Lowers the hedged-lookup configuration into the analyzer's IR. Only an
/// armed configuration (a latency threshold set) is lowered — `EF026` is
/// meaningless when no lookup ever hedges.
pub fn hedge_model(
    hedge: &crate::accessor::HedgeConfig,
    dfs_replication: usize,
) -> Option<HedgeModel> {
    if hedge.is_quiet() {
        return None;
    }
    Some(HedgeModel {
        threshold_nanos: hedge.threshold?.as_nanos(),
        charge_both: matches!(hedge.policy, crate::accessor::HedgePolicy::ChargeBoth),
        dfs_replication,
    })
}

/// Lowers the lookup-cache configuration into the analyzer's IR. Always
/// lowered when analyzing in a runtime environment — `EF021` itself only
/// fires when some operator actually planned a cache-strategy access.
pub fn cache_model(capacity: usize, t_cache_secs: f64) -> CacheModel {
    CacheModel {
        capacity,
        t_cache_secs,
    }
}

/// Lowers the multi-tenant serving configuration into the analyzer's IR.
/// Only an armed configuration (not [`TenancyConfig::is_quiet`]) is lowered
/// — the tenancy checks are meaningless for the quiet single-job path,
/// which never queues, throttles, or meters anything. `job_tenant` is the
/// tenant the analyzed job resolves to (the job's own tag, falling back to
/// the runtime default), so `EF024` can catch an unknown-tenant tag before
/// the scheduler rejects it at submit time.
pub fn tenancy_model(cfg: &TenancyConfig, job_tenant: Option<&str>) -> Option<TenancyModel> {
    if cfg.is_quiet() {
        return None;
    }
    Some(TenancyModel {
        tenants: cfg
            .tenants
            .iter()
            .map(|t| TenantModel {
                name: t.name.clone(),
                weight: t.weight,
                max_queued: t.max_queued,
                max_running: t.max_running,
                cache_share: t.cache_share,
            })
            .collect(),
        queue_capacity: cfg.queue_capacity,
        max_concurrent: cfg.max_concurrent,
        rate_limits: cfg
            .rate_limits
            .iter()
            .map(|rl| RateLimitModel {
                index: rl.index.clone(),
                rate_per_sec: rl.rate_per_sec,
                burst: rl.burst,
            })
            .collect(),
        degrade_threshold_secs: cfg.degrade_threshold.as_secs_f64(),
        scan_fallback_cost_secs: cfg.scan_fallback_cost.as_secs_f64(),
        job_tenant: job_tenant.map(str::to_string),
    })
}

/// Runs the structural checks over a job and its plans: the model of a
/// job in the default environment, where no injection layer is armed and
/// nothing about the runtime configuration is known.
pub fn analyze_job(ijob: &IndexJobConf, plans: &FxHashMap<String, OperatorPlan>) -> Result<Report> {
    Ok(analyze(&job_model(ijob, plans)?))
}

/// [`analyze_job`] with the *whole* runtime environment lowered alongside
/// the plan: fault, integrity, chaos, and partition injection layers
/// (`EF015`–`EF018`, `EF020`, `EF025`) plus the lookup-cache
/// (`EF021`), tenancy (`EF024`), and hedged-lookup (`EF026`)
/// configurations. This is the variant the compiler calls.
pub fn analyze_job_in_env(
    ijob: &IndexJobConf,
    plans: &FxHashMap<String, OperatorPlan>,
    env: &crate::compile::RuntimeEnv,
) -> Result<Report> {
    let mut model = job_model(ijob, plans)?;
    model.faults = fault_model(&env.faults);
    model.integrity = integrity_model(&env.corruption, env.dfs_replication);
    model.chaos = chaos_model(&env.chaos, env.cluster_nodes, env.dfs_replication);
    model.cache = Some(cache_model(env.cache_capacity, env.t_cache.as_secs_f64()));
    model.measured = env.measured.iter().map(measured_model).collect();
    model.tenancy = tenancy_model(
        &env.tenancy,
        ijob.tenant.as_deref().or(env.tenant.as_deref()),
    );
    model.partition = partition_model(
        &env.netsplit,
        &env.detector,
        env.cluster_nodes,
        env.dfs_replication,
    );
    model.hedge = hedge_model(&env.hedge, env.dfs_replication);
    Ok(analyze(&model))
}

/// Lowers one cross-job store injection into the analyzer's IR for the
/// `EF023` measured-stats checks.
fn measured_model(m: &crate::statstore::MeasuredOp) -> MeasuredStatsModel {
    MeasuredStatsModel {
        operator: m.operator.clone(),
        n1: m.stats.n1,
        nik: m.stats.indices.iter().map(|i| i.nik).collect(),
        indices: m
            .stats
            .indices
            .iter()
            .map(|s| IndexStatsModel {
                sik_bytes: s.sik,
                siv_bytes: s.siv,
                tj_secs: s.tj_secs,
                miss_ratio: s.miss_ratio,
                theta: s.theta,
                failure_rate: s.failure_rate,
            })
            .collect(),
        full_est_secs: m.full_est_secs,
        est_at_double_n1_secs: m.est_at_double_n1_secs,
    }
}

/// Runs the full check set — structural plus the statistics-dependent
/// cost-model checks — from catalog statistics. Operators without catalog
/// entries are verified structurally under a forced baseline plan.
pub fn analyze_costs(
    ijob: &IndexJobConf,
    catalog: &Catalog,
    env: &CostEnv,
    enumeration: Enumeration,
) -> Report {
    let mut operators = Vec::new();
    for (bound, placement) in ijob.operators() {
        let Some(stats) = catalog.get(bound.op.name()) else {
            let plan = forced_plan(&bound.caps(), Strategy::Baseline);
            operators.push(operator_model(bound, placement, &plan));
            continue;
        };
        let mut stats = stats.clone();
        stats.refresh_partition_schemes(&bound.caps());
        let plan = optimize_operator(&stats, env, placement, enumeration);
        let mut model = operator_model(bound, placement, &plan);
        // Enrich the structural model with what the statistics know.
        for (m, s) in model.indices.iter_mut().zip(&stats.indices) {
            m.shuffleable = s.shuffleable;
            m.nik = Some(s.nik);
            if s.partitions > 0 {
                m.partitions = s.partitions;
            }
            m.stats = Some(IndexStatsModel {
                sik_bytes: s.sik,
                siv_bytes: s.siv,
                tj_secs: s.tj_secs,
                miss_ratio: s.miss_ratio,
                theta: s.theta,
                failure_rate: s.failure_rate,
            });
        }
        model.costs = Some(operator_costs(&stats, env, placement, &plan, enumeration));
        operators.push(model);
    }
    analyze(&PlanModel {
        job: ijob.name.clone(),
        has_reduce: ijob.has_reduce(),
        operators,
        faults: None,
        integrity: None,
        chaos: None,
        cache: None,
        measured: Vec::new(),
        tenancy: None,
        partition: None,
        hedge: None,
    })
}

fn operator_costs(
    stats: &OperatorStatsEstimate,
    env: &CostEnv,
    placement: Placement,
    plan: &OperatorPlan,
    enumeration: Enumeration,
) -> OperatorCosts {
    let (full_est_secs, doubled_est) = doubled_n1_probe(stats, env, placement);
    let krepart_k = match enumeration {
        Enumeration::KRepart(k) => k.max(1),
        Enumeration::Full => 2,
    };
    let krepart = optimize_operator(stats, env, placement, Enumeration::KRepart(krepart_k));
    let mut s_min_by_position = Vec::with_capacity(plan.choices.len());
    let mut carried_by_position = Vec::with_capacity(plan.choices.len());
    let mut accessed: Vec<usize> = Vec::with_capacity(plan.choices.len());
    for choice in &plan.choices {
        let carried = stats.carried_size(&accessed);
        s_min_by_position.push(s_min(stats, choice.index, placement, carried));
        carried_by_position.push(carried);
        accessed.push(choice.index);
    }
    OperatorCosts {
        n1: stats.n1,
        t_cache_secs: env.t_cache_secs,
        full_est_secs,
        krepart_est_secs: krepart.est_cost_secs,
        krepart_k,
        est_at_double_n1_secs: Some(doubled_est),
        s_min_by_position,
        carried_by_position,
    }
}

/// Property 4 as a predicate over a runtime plan: no shuffle-strategy
/// access after a baseline/cache access. Used in debug assertions on every
/// planner exit path.
pub fn respects_property4(plan: &OperatorPlan) -> bool {
    let mut seen_non_shuffle = false;
    for c in &plan.choices {
        if c.strategy.is_shuffle() {
            if seen_non_shuffle {
                return false;
            }
        } else {
            seen_non_shuffle = true;
        }
    }
    true
}

/// True when the job and plans pass structural analysis without errors —
/// the invariant the adaptive runtime debug-asserts before compiling a
/// mid-job replacement pipeline.
pub fn passes(ijob: &IndexJobConf, plans: &FxHashMap<String, OperatorPlan>) -> bool {
    analyze_job(ijob, plans)
        .map(|r| r.is_passing())
        .unwrap_or(false)
}

/// True when any bound accessor reports non-deterministic lookups — the
/// static gate (`EF012`) that disables the adaptive runtime's wave-1
/// result reuse.
pub fn has_nondeterministic_accessor(ijob: &IndexJobConf) -> bool {
    ijob.operators()
        .any(|(b, _)| b.indices.iter().any(|a| !a.deterministic()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::testutil::MemIndex;
    use crate::accessor::IndexAccessor;
    use crate::cost::IndexStatsEstimate;
    use crate::operator::{operator_fn, IndexInput, IndexOutput};
    use crate::plan::IndexChoice;
    use efind_analyze::DiagCode;
    use efind_common::{Datum, KeyKind, Record};
    use efind_mapreduce::{mapper_fn, reducer_fn, Collector};
    use std::sync::Arc;

    fn sample_bound(name: &str) -> BoundOperator {
        let op = operator_fn(
            name,
            1,
            |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.key.clone()),
            |rec: Record, _v: &IndexOutput, out: &mut dyn Collector| out.collect(rec),
        );
        BoundOperator::new(op).add_index(Arc::new(MemIndex::new("mem", vec![])))
    }

    fn sample_job(bound: BoundOperator) -> IndexJobConf {
        IndexJobConf::new("j", "in", "out")
            .add_head_index_operator(bound)
            .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
            .set_reducer(
                reducer_fn(|key, values, out, _| {
                    out.collect(Record::new(key, values.len() as i64));
                }),
                2,
            )
    }

    fn plans_with(ijob: &IndexJobConf, strategy: Strategy) -> FxHashMap<String, OperatorPlan> {
        ijob.operators()
            .map(|(b, _)| (b.op.name().to_owned(), forced_plan(&b.caps(), strategy)))
            .collect()
    }

    #[test]
    fn lowering_preserves_shape() {
        let ijob = sample_job(sample_bound("op"));
        let plans = plans_with(&ijob, Strategy::Cache);
        let model = job_model(&ijob, &plans).unwrap();
        assert_eq!(model.operators.len(), 1);
        assert_eq!(model.operators[0].name, "op");
        assert_eq!(model.operators[0].declared_arity, 1);
        assert_eq!(model.operators[0].indices[0].name, "mem");
        assert!(model.has_reduce);
        assert!(analyze(&model).is_clean());
    }

    #[test]
    fn missing_plan_is_internal_error() {
        let ijob = sample_job(sample_bound("op"));
        assert!(job_model(&ijob, &FxHashMap::default()).is_err());
    }

    #[test]
    fn fault_lowering_requires_an_armed_plan() {
        use crate::fault::{FaultPlan, RetryPolicy};
        use efind_cluster::SimDuration;

        assert!(fault_model(&FaultConfig::disabled()).is_none());

        let mut config = FaultConfig::disabled().with_plan(FaultPlan::new(7).failures(0.1));
        config.retry =
            RetryPolicy::bounded(5, SimDuration::from_micros(50), SimDuration::from_millis(1));
        config.timeout = Some(SimDuration::from_millis(2));
        config.miss_policy = MissPolicy::FailJob;
        let model = fault_model(&config).expect("armed config lowers");
        assert_eq!(model.max_retries, 5);
        assert_eq!(model.backoff_base_nanos, 50_000);
        assert_eq!(model.max_backoff_nanos, 1_000_000);
        assert_eq!(model.timeout_nanos, Some(2_000_000));
        assert!(model.fail_job_on_exhaustion);
    }

    #[test]
    fn zero_timeout_fault_config_fails_analysis() {
        use crate::fault::FaultPlan;
        use efind_cluster::SimDuration;

        let ijob = sample_job(sample_bound("op"));
        let plans = plans_with(&ijob, Strategy::Cache);
        let mut env = sample_env();
        env.faults = FaultConfig::disabled().with_plan(FaultPlan::new(7).failures(0.1));
        env.faults.timeout = Some(SimDuration::ZERO);
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.has_code(efind_analyze::DiagCode::EF015));
        assert!(report.into_result().is_err());

        // The same job analyzed without faults stays clean.
        assert!(analyze_job(&ijob, &plans).unwrap().is_clean());
    }

    #[test]
    fn chunk_corruption_on_unreplicated_dfs_fails_analysis() {
        let ijob = sample_job(sample_bound("op"));
        let plans = plans_with(&ijob, Strategy::Cache);
        let mut env = sample_env();
        env.corruption = CorruptionPlan::new(1).chunks(0.1);
        env.dfs_replication = 1;
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.has_code(efind_analyze::DiagCode::EF017));
        assert!(report.into_result().is_err());

        // With an intact replica to fall back on, the same plan is clean.
        env.dfs_replication = 3;
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.is_clean(), "{}", report.to_text());

        // A quiet plan is never lowered at all.
        assert!(integrity_model(&CorruptionPlan::none(), 1).is_none());
    }

    #[test]
    fn unverified_cache_corruption_warns_but_passes() {
        let ijob = sample_job(sample_bound("op"));
        let plans = plans_with(&ijob, Strategy::Cache);
        let mut env = sample_env();
        env.corruption = CorruptionPlan::new(1).cache(0.2).without_verification();
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.has_code(efind_analyze::DiagCode::EF018));
        assert!(report.is_passing());

        // Baseline plans have no cache to poison.
        let plans = plans_with(&ijob, Strategy::Baseline);
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn property4_predicate() {
        let choice = |index, strategy| IndexChoice {
            index,
            strategy,
            est_cost_secs: 0.0,
        };
        let good = OperatorPlan {
            choices: vec![choice(1, Strategy::Repartition), choice(0, Strategy::Cache)],
            est_cost_secs: 0.0,
        };
        assert!(respects_property4(&good));
        let bad = OperatorPlan {
            choices: vec![choice(0, Strategy::Cache), choice(1, Strategy::Repartition)],
            est_cost_secs: 0.0,
        };
        assert!(!respects_property4(&bad));
    }

    #[test]
    fn volatile_non_baseline_plan_fails_analysis() {
        let mut bound = sample_bound("op");
        bound.volatile = true;
        let ijob = sample_job(bound);
        let plans = plans_with(&ijob, Strategy::Cache);
        let report = analyze_job(&ijob, &plans).unwrap();
        assert!(report.has_code(DiagCode::EF014));
        assert!(!passes(&ijob, &plans));
    }

    /// An accessor that declares a concrete key kind and non-determinism.
    struct TypedIndex {
        kind: KeyKind,
        det: bool,
    }

    impl IndexAccessor for TypedIndex {
        fn name(&self) -> &str {
            "typed"
        }
        fn lookup(&self, _key: &Datum) -> Vec<Datum> {
            vec![]
        }
        fn serve_time(&self, _: &Datum, _: u64) -> efind_cluster::SimDuration {
            efind_cluster::SimDuration::ZERO
        }
        fn deterministic(&self) -> bool {
            self.det
        }
        fn key_kind(&self) -> KeyKind {
            self.kind
        }
    }

    #[test]
    fn key_kind_mismatch_is_ef007() {
        let op = operator_fn(
            "op",
            1,
            |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.key.clone()),
            |rec: Record, _v: &IndexOutput, out: &mut dyn Collector| out.collect(rec),
        );
        let bound = BoundOperator::new(op)
            .add_index(Arc::new(TypedIndex {
                kind: KeyKind::Int,
                det: true,
            }))
            .key_kinds(vec![KeyKind::Text]);
        let ijob = sample_job(bound);
        let plans = plans_with(&ijob, Strategy::Baseline);
        let report = analyze_job(&ijob, &plans).unwrap();
        assert!(report.has_code(DiagCode::EF007));
        assert!(report.has_errors());
    }

    #[test]
    fn non_deterministic_accessor_warns_but_passes() {
        let op = operator_fn(
            "op",
            1,
            |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.key.clone()),
            |rec: Record, _v: &IndexOutput, out: &mut dyn Collector| out.collect(rec),
        );
        let bound = BoundOperator::new(op).add_index(Arc::new(TypedIndex {
            kind: KeyKind::Any,
            det: false,
        }));
        let ijob = sample_job(bound);
        assert!(has_nondeterministic_accessor(&ijob));
        let plans = plans_with(&ijob, Strategy::Baseline);
        let report = analyze_job(&ijob, &plans).unwrap();
        assert!(report.has_code(DiagCode::EF012));
        assert!(report.is_passing());
    }

    fn catalog_with(name: &str, theta: f64) -> Catalog {
        let mut cat = Catalog::new();
        cat.put(
            name,
            OperatorStatsEstimate {
                n1: 1.0e6,
                s1: 100.0,
                spre: 80.0,
                spost: 60.0,
                smap: 40.0,
                indices: vec![IndexStatsEstimate {
                    nik: 1.0,
                    sik: 10.0,
                    siv: 500.0,
                    tj_secs: 1.0e-3,
                    miss_ratio: 0.2,
                    theta,
                    has_partition_scheme: false,
                    shuffleable: true,
                    partitions: 0,
                    failure_rate: 0.0,
                }],
            },
        );
        cat
    }

    fn cost_env() -> CostEnv {
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

    #[test]
    fn cost_analysis_on_sane_statistics_is_passing() {
        let ijob = sample_job(sample_bound("op"));
        let report = analyze_costs(
            &ijob,
            &catalog_with("op", 2.0),
            &cost_env(),
            Enumeration::Full,
        );
        assert!(report.is_passing(), "{}", report.to_text());
        assert!(!report.has_code(DiagCode::EF009));
        assert!(!report.has_code(DiagCode::EF011));
    }

    #[test]
    fn cost_analysis_without_catalog_is_structural_only() {
        let ijob = sample_job(sample_bound("op"));
        let report = analyze_costs(&ijob, &Catalog::new(), &cost_env(), Enumeration::Full);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn chaos_lowering_requires_an_armed_plan() {
        use efind_cluster::SimTime;

        assert!(chaos_model(&ChaosPlan::none(), 8, 3).is_none());
        let plan = ChaosPlan::new(11)
            .kill(efind_cluster::NodeId(0), SimTime::from_nanos(1_000_000_000))
            .kill(efind_cluster::NodeId(1), SimTime::from_nanos(2_000_000_000));
        let model = chaos_model(&plan, 8, 3).expect("armed plan lowers");
        assert_eq!(model.kill_events, 2);
        assert_eq!(model.cluster_nodes, 8);
        assert_eq!(model.dfs_replication, 3);
    }

    fn sample_env() -> crate::compile::RuntimeEnv {
        use efind_cluster::{NetworkModel, SimDuration};
        crate::compile::RuntimeEnv {
            network: NetworkModel::gigabit(),
            t_cache: SimDuration::from_micros(1),
            cache_capacity: 64,
            shuffle_reducers: 4,
            intermediate_chunks: 8,
            hard_colocation: false,
            faults: FaultConfig::disabled(),
            corruption: CorruptionPlan::none(),
            dfs_replication: 3,
            chaos: ChaosPlan::none(),
            cluster_nodes: 4,
            netsplit: efind_cluster::PartitionPlan::none(),
            detector: efind_cluster::DetectorConfig::default(),
            hedge: crate::accessor::HedgeConfig::disabled(),
            measured: Vec::new(),
            tenancy: efind_cluster::TenancyConfig::none(),
            tenant: None,
        }
    }

    #[test]
    fn armed_experiments_outside_every_check_analyze_clean() {
        use crate::fault::FaultPlan;
        use efind_cluster::SimDuration;

        // Each config arms a layer the run really injects through, but no
        // check has anything to say about it: the report must be clean.
        let mut timed = FaultConfig::disabled().with_plan(FaultPlan::new(7));
        timed.timeout = Some(SimDuration::from_millis(2));
        let cases: [(&str, FaultConfig, CorruptionPlan); 3] = [
            (
                "shuffle-only corruption",
                FaultConfig::disabled(),
                CorruptionPlan::new(1).shuffle(0.1),
            ),
            (
                "response-only corruption",
                FaultConfig::disabled(),
                CorruptionPlan::new(1).responses(0.1),
            ),
            (
                "quiet fault plan with a timeout",
                timed,
                CorruptionPlan::none(),
            ),
        ];
        let ijob = sample_job(sample_bound("op"));
        let plans = plans_with(&ijob, Strategy::Cache);
        for (name, faults, corruption) in cases {
            assert!(!faults.is_quiet() || !corruption.is_quiet(), "{name}");
            let mut env = sample_env();
            env.faults = faults;
            env.corruption = corruption;
            let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
            assert!(report.is_clean(), "{name}: {}", report.to_text());
        }
    }

    #[test]
    fn killing_every_node_fails_env_analysis() {
        use efind_cluster::SimTime;

        let ijob = sample_job(sample_bound("op"));
        let plans = plans_with(&ijob, Strategy::Cache);
        let mut env = sample_env();
        env.chaos = ChaosPlan::new(5)
            .kill(efind_cluster::NodeId(0), SimTime::from_nanos(1_000_000_000))
            .kill(efind_cluster::NodeId(1), SimTime::from_nanos(1_000_000_000))
            .kill(efind_cluster::NodeId(2), SimTime::from_nanos(1_000_000_000))
            .kill(efind_cluster::NodeId(3), SimTime::from_nanos(1_000_000_000));
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.has_code(DiagCode::EF020));
        assert!(report.into_result().is_err());

        // Killing fewer nodes than the cluster holds (with replicas to
        // recover from) survives analysis.
        env.chaos =
            ChaosPlan::new(5).kill(efind_cluster::NodeId(0), SimTime::from_nanos(1_000_000_000));
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.is_passing(), "{}", report.to_text());
    }

    #[test]
    fn unhealed_full_cluster_partition_fails_env_analysis() {
        use efind_cluster::{NodeId, SimTime};

        let ijob = sample_job(sample_bound("op"));
        let plans = plans_with(&ijob, Strategy::Cache);
        let mut env = sample_env();
        env.netsplit = efind_cluster::PartitionPlan::new(7).split(
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            SimTime::ZERO,
            None,
        );
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.has_code(DiagCode::EF025));
        assert!(report.into_result().is_err());

        // The same cut with a heal time is transient — a survivable
        // experiment, clean under EF025.
        env.netsplit = efind_cluster::PartitionPlan::new(7).split(
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            SimTime::ZERO,
            Some(SimTime::from_nanos(1_000_000)),
        );
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.is_passing(), "{}", report.to_text());
    }

    #[test]
    fn miscalibrated_detector_warns_under_env_analysis() {
        use efind_cluster::{NodeId, SimDuration, SimTime};

        let ijob = sample_job(sample_bound("op"));
        let plans = plans_with(&ijob, Strategy::Cache);
        let mut env = sample_env();
        env.netsplit = efind_cluster::PartitionPlan::new(7).split(
            &[NodeId(1)],
            SimTime::ZERO,
            Some(SimTime::from_nanos(1_000_000)),
        );
        env.detector = efind_cluster::DetectorConfig {
            interval: SimDuration::from_micros(500),
            suspicion: SimDuration::from_micros(500),
        };
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.has_code(DiagCode::EF025), "{}", report.to_text());
        assert!(report.is_passing(), "detector miscalibration is a warning");

        // A quiet partition plan never lowers a model: the detector is
        // not consulted, so its calibration is irrelevant.
        env.netsplit = efind_cluster::PartitionPlan::none();
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(!report.has_code(DiagCode::EF025));
    }

    #[test]
    fn hedging_against_unreplicated_dfs_warns_under_env_analysis() {
        use efind_cluster::SimDuration;

        let ijob = sample_job(sample_bound("op"));
        let plans = plans_with(&ijob, Strategy::Cache);
        let mut env = sample_env();
        env.hedge.threshold = Some(SimDuration::from_micros(2));
        env.dfs_replication = 1;
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.has_code(DiagCode::EF026), "{}", report.to_text());
        assert!(report.is_passing(), "EF026 is a warning");

        // With replicas to race against, hedging is clean — and a
        // disabled hedge lowers no model at all.
        env.dfs_replication = 3;
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.is_passing(), "{}", report.to_text());
        assert!(!report.has_code(DiagCode::EF026));
        env.hedge = crate::accessor::HedgeConfig::disabled();
        env.dfs_replication = 1;
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(!report.has_code(DiagCode::EF026));
    }

    #[test]
    fn zero_capacity_cache_plan_fails_env_analysis() {
        let ijob = sample_job(sample_bound("op"));
        let plans = plans_with(&ijob, Strategy::Cache);
        let mut env = sample_env();
        env.cache_capacity = 0;
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.has_code(DiagCode::EF021));
        assert!(report.into_result().is_err());

        // A baseline plan never probes the cache, so the degenerate
        // capacity is irrelevant to it.
        let plans = plans_with(&ijob, Strategy::Baseline);
        let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
        assert!(report.is_passing(), "{}", report.to_text());
    }

    #[test]
    fn out_of_range_statistics_trigger_ef019() {
        let ijob = sample_job(sample_bound("op"));
        let mut cat = catalog_with("op", 2.0);
        let mut stats = cat.get("op").unwrap().clone();
        stats.indices[0].miss_ratio = 1.5;
        cat.put("op", stats);
        let report = analyze_costs(&ijob, &cat, &cost_env(), Enumeration::Full);
        assert!(report.has_code(DiagCode::EF019), "{}", report.to_text());

        // Sane statistics pass the same gate, and the monotonicity probe
        // is populated on every operator with catalog statistics.
        let report = analyze_costs(
            &ijob,
            &catalog_with("op", 2.0),
            &cost_env(),
            Enumeration::Full,
        );
        assert!(!report.has_code(DiagCode::EF019), "{}", report.to_text());
    }

    #[test]
    fn corrupt_statistics_trigger_ef009() {
        let ijob = sample_job(sample_bound("op"));
        let mut cat = catalog_with("op", 2.0);
        let mut stats = cat.get("op").unwrap().clone();
        stats.n1 = -5.0;
        cat.put("op", stats);
        let report = analyze_costs(&ijob, &cat, &cost_env(), Enumeration::Full);
        assert!(report.has_code(DiagCode::EF009), "{}", report.to_text());
    }
}
