//! Bridge to the `efind-analyze` static plan verifier, and the checks of
//! the runtime configuration a job runs under.
//!
//! The analyzer crate knows nothing about the runtime types; this module
//! lowers an [`IndexJobConf`] plus per-operator [`OperatorPlan`]s into its
//! neutral plan IR and runs the plan checks there. The job-wide
//! configuration checks need no IR: they read the [`RuntimeEnv`] fields
//! themselves and skip a layer exactly when its own `is_quiet()` says so,
//! the call the runtime makes. [`crate::compile::compile_pipeline`] calls
//! [`analyze_job_in_env`] before building any stage — analyzer errors
//! abort compilation, warnings ride along in the compiled pipeline and are
//! printed at job start. [`analyze_costs`] additionally exercises the
//! statistics-dependent checks (`EF009`–`EF011`, `EF013`, `EF019`) from
//! catalog statistics, for `explain`-style reporting.

use efind_analyze::{
    analyze, ChoiceModel, DiagCode, Diagnostic, IndexModel, IndexStatsModel, MeasuredStatsModel,
    OperatorCosts, OperatorModel, PlacementKind, PlanModel, Report, Span, StrategyKind,
};
use efind_cluster::{SimDuration, TenancyConfig};
use efind_common::{Error, FxHashMap, Result};

use crate::compile::RuntimeEnv;
use crate::cost::{s_min, CostEnv, IndexStatsEstimate, OperatorStatsEstimate, Placement};
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
        measured: Vec::new(),
    })
}

/// Runs the structural checks over a job and its plans: the model of a
/// job in the default environment, where no injection layer is armed and
/// nothing about the runtime configuration is known.
pub fn analyze_job(ijob: &IndexJobConf, plans: &FxHashMap<String, OperatorPlan>) -> Result<Report> {
    Ok(analyze(&job_model(ijob, plans)?))
}

/// [`analyze_job`] plus the `EF023` checks of store-served statistics,
/// followed by the checks of the runtime configuration the job runs
/// under: the fault, corruption, chaos and partition layers (`EF015`–
/// `EF018`, `EF020`, `EF025`), the lookup cache (`EF021`), tenancy
/// (`EF024`) and hedged lookups (`EF026`). This is the variant the
/// compiler calls.
pub fn analyze_job_in_env(
    ijob: &IndexJobConf,
    plans: &FxHashMap<String, OperatorPlan>,
    env: &RuntimeEnv,
) -> Result<Report> {
    let mut model = job_model(ijob, plans)?;
    model.measured = env.measured.iter().map(measured_model).collect();
    let mut report = analyze(&model);
    let cache_in_use = model
        .operators
        .iter()
        .any(|op| op.choices.iter().any(|c| c.strategy == StrategyKind::Cache));
    check_faults(&env.faults, &mut report);
    check_corruption(env, cache_in_use, &mut report);
    check_chaos(env, &mut report);
    check_cache(env, cache_in_use, &mut report);
    let tenant = ijob.tenant.as_deref().or(env.tenant.as_deref());
    check_tenancy(&env.tenancy, tenant, &mut report);
    check_partitions(env, &mut report);
    check_hedging(env, &model, &mut report);
    Ok(report)
}

/// A job-scoped error with its fix hint.
fn job_error(code: DiagCode, message: impl Into<String>, hint: &str) -> Diagnostic {
    Diagnostic::error(code, Span::job(), message).with_hint(hint)
}

/// A job-scoped warning with its fix hint.
fn job_warning(code: DiagCode, message: impl Into<String>, hint: &str) -> Diagnostic {
    Diagnostic::warning(code, Span::job(), message).with_hint(hint)
}

/// EF015/EF016: fault-tolerance configuration sanity. An unarmed fault
/// layer never retries, pauses, or times out, so it is not checked.
fn check_faults(f: &FaultConfig, report: &mut Report) {
    if f.is_quiet() {
        return;
    }
    if f.timeout == Some(SimDuration::ZERO) {
        report.push(job_error(
            DiagCode::EF015,
            "per-index timeout is zero: every lookup attempt times out before it can answer",
            "set the timeout above the slowest expected serve + transfer time, \
             or drop it to disable timeout enforcement",
        ));
    }
    let retries = f.retry.max_retries;
    if f.miss_policy == MissPolicy::FailJob && retries == 0 {
        report.push(job_warning(
            DiagCode::EF016,
            "FailJob miss policy with zero retries: one transient failure fails the whole job",
            "allow at least one retry, or degrade misses instead of failing the job",
        ));
    }
    let (base, cap) = (f.retry.backoff_base, f.retry.max_backoff);
    if base > cap {
        report.push(job_warning(
            DiagCode::EF016,
            format!(
                "backoff base ({} ns) exceeds its cap ({} ns): every pause clamps to the cap",
                base.as_nanos(),
                cap.as_nanos()
            ),
            "raise max_backoff or lower the base so the exponential schedule applies",
        ));
    }
    if f.breaker_threshold() < 1.0 && f.breaker_min_samples <= u64::from(retries) {
        report.push(job_warning(
            DiagCode::EF016,
            format!(
                "breaker min-samples ({}) within one key's retry budget ({retries}): a single \
                 black-holed key can open the breaker and degrade the whole task",
                f.breaker_min_samples
            ),
            "raise breaker_min_samples above max_retries",
        ));
    }
}

/// EF017/EF018: data-integrity configuration sanity, for an armed
/// corruption plan.
fn check_corruption(env: &RuntimeEnv, cache_in_use: bool, report: &mut Report) {
    let plan = &env.corruption;
    if plan.is_quiet() {
        return;
    }
    if plan.corrupts_chunks() && env.dfs_replication <= 1 {
        report.push(job_error(
            DiagCode::EF017,
            format!(
                "chunk corruption is injected but DFS replication is {}: the first \
                 corrupted chunk has no intact replica and the job fails by construction",
                env.dfs_replication
            ),
            "raise the DFS replication factor to at least 2 so a corrupt replica \
             can be quarantined and re-read, or stop corrupting chunks",
        ));
    }
    if plan.corrupts_cache() && !plan.verification_enabled() && cache_in_use {
        report.push(job_warning(
            DiagCode::EF018,
            "lookup-cache corruption is injected with checksum verification \
             disabled: poisoned cache entries would be served undetected",
            "keep verification enabled (drop without_verification) so poisoned \
             entries are invalidated and re-fetched, or stop corrupting the cache",
        ));
    }
}

/// EF020: conflicts between an armed chaos plan and the rest of the
/// configuration — combinations that are unsurvivable (every node dies)
/// or quietly exhaust the recovery budget (kills plus corruption
/// quarantines outrun the replica count).
fn check_chaos(env: &RuntimeEnv, report: &mut Report) {
    if env.chaos.is_quiet() {
        return;
    }
    let kills = env.chaos.events().len();
    let (nodes, replication) = (env.cluster_nodes, env.dfs_replication);
    if nodes > 0 && kills >= nodes {
        report.push(job_error(
            DiagCode::EF020,
            format!(
                "chaos plan kills {kills} nodes of a {nodes}-node cluster: no node survives \
                 to finish any wave"
            ),
            "keep at least one node alive; recovery needs somewhere to run",
        ));
    }
    if replication <= 1 {
        report.push(job_warning(
            DiagCode::EF020,
            format!(
                "node kills are scheduled with DFS replication {replication}: any chunk on a \
                 killed node is lost with no replica to recover from"
            ),
            "raise replication to at least 2, or accept that the run exercises \
             the data-loss path by design",
        ));
    }
    if env.corruption.corrupts_chunks() && replication > 1 && kills + 1 >= replication {
        report.push(job_warning(
            DiagCode::EF020,
            format!(
                "{kills} node kills plus chunk corruption against replication {replication}: \
                 one quarantined replica plus the kills can exhaust every copy"
            ),
            "keep replication above kill_events + 1 when combining chaos with \
             chunk corruption, or the layers defeat each other's experiment",
        ));
    }
}

/// EF021: a plan that chose the cache strategy based on Eq. 2 must get a
/// usable cache at runtime.
fn check_cache(env: &RuntimeEnv, cache_in_use: bool, report: &mut Report) {
    if !cache_in_use {
        return;
    }
    if env.cache_capacity == 0 {
        report.push(job_error(
            DiagCode::EF021,
            "a cache-strategy plan is installed but the lookup cache holds zero \
             entries: every probe misses and the plan degenerates to baseline \
             plus pure overhead",
            "set cache_capacity to at least 1, or re-plan without the cache strategy",
        ));
    } else if env.t_cache.is_zero() {
        report.push(job_warning(
            DiagCode::EF021,
            "cache strategy planned with T_cache = 0: probes are free and the \
             Eq. 2 floor is degenerate, so the planner can never prefer baseline",
            "use a small positive T_cache so cache and baseline stay comparable",
        ));
    }
}

/// EF024: tenancy-config coherence, for an armed tenancy layer. The
/// multi-tenant scheduler rejects deterministically rather than hang, but
/// a configuration with zero-slot quotas or degenerate weights rejects (or
/// starves) *every* job by construction — a config error, not a
/// scheduling outcome. `job_tenant` is the tenant the job resolves to (its
/// own tag, falling back to the runtime default), so an unknown tag is
/// caught here rather than at submit time.
fn check_tenancy(cfg: &TenancyConfig, job_tenant: Option<&str>, report: &mut Report) {
    if cfg.is_quiet() {
        return;
    }
    // The name rules are the scheduler's own: it refuses the same config.
    if let Err(e) = cfg.validate() {
        report.push(job_error(
            DiagCode::EF024,
            e.to_string(),
            "tenant names become `efind.tenant.<name>.*` counter segments: each \
             must be non-empty, dot-free, and declared exactly once",
        ));
    }
    for t in &cfg.tenants {
        if t.weight == 0 {
            report.push(job_error(
                DiagCode::EF024,
                format!(
                    "tenant {:?} has deficit weight 0: it accrues no credit \
                     and can never win a grant",
                    t.name
                ),
                "weights must be at least 1; starvation-freedom assumes it",
            ));
        }
        if t.max_running == 0 {
            report.push(job_error(
                DiagCode::EF024,
                format!(
                    "tenant {:?} has max_running = 0: admitted jobs can never start",
                    t.name
                ),
                "a zero-slot running quota turns every admission into a hang risk",
            ));
        }
        if t.max_queued == 0 {
            report.push(job_error(
                DiagCode::EF024,
                format!(
                    "tenant {:?} has max_queued = 0: every submission is \
                     quota-rejected at the door",
                    t.name
                ),
                "give each tenant at least one queue slot, or remove the tenant",
            ));
        }
        if !(0.0..=1.0).contains(&t.cache_share) {
            report.push(job_error(
                DiagCode::EF024,
                format!(
                    "tenant {:?} has cache share {} outside [0, 1]",
                    t.name, t.cache_share
                ),
                "shares are fractions of the shared lookup-cache capacity",
            ));
        }
    }
    let share_sum: f64 = cfg
        .tenants
        .iter()
        .map(|t| t.cache_share.clamp(0.0, 1.0))
        .sum();
    if share_sum > 1.0 + 1e-9 {
        report.push(job_warning(
            DiagCode::EF024,
            format!(
                "tenant cache shares sum to {share_sum:.3}: the shared cache \
                 is oversubscribed and reservations cannot all be honored"
            ),
            "keep the share sum at or below 1.0",
        ));
    }
    if cfg.queue_capacity == 0 {
        report.push(job_error(
            DiagCode::EF024,
            "admission queue capacity is 0: every submission that cannot start \
             immediately is rejected",
            "size the queue for the expected burst, or at least 1",
        ));
    }
    if cfg.max_concurrent == 0 {
        report.push(job_error(
            DiagCode::EF024,
            "max_concurrent is 0: no job can ever be granted a slot",
            "allow at least one concurrent job",
        ));
    }
    if let Some(tenant) = job_tenant.filter(|&t| cfg.tenant_id(t).is_none()) {
        report.push(job_error(
            DiagCode::EF024,
            format!(
                "job is tagged with tenant {tenant:?}, which is not \
                 declared in the tenancy configuration"
            ),
            "declare the tenant, or drop the job's tenant tag",
        ));
    }
    // Rate and burst are public `f64` fields, so a bucket can be built
    // with values `IndexRateLimit::new` would have clamped.
    for rl in &cfg.rate_limits {
        let (rate, burst) = (rl.rate_per_sec, rl.burst);
        if rate.is_nan() || rate < 0.0 || burst.is_nan() || burst < 0.0 {
            report.push(job_error(
                DiagCode::EF024,
                format!(
                    "rate limit for index {:?} has negative or NaN parameters \
                     (rate = {rate}, burst = {burst})",
                    rl.index
                ),
                "token-bucket rate and burst must be finite and non-negative",
            ));
        } else if rate == 0.0 && burst == 0.0 {
            report.push(job_error(
                DiagCode::EF024,
                format!(
                    "rate limit for index {:?} has zero rate and zero burst: \
                     no lookup can ever be charged",
                    rl.index
                ),
                "give the bucket a positive rate or burst, or remove the limit",
            ));
        }
    }
}

/// EF025: gray-failure configuration sanity, for an armed partition plan.
/// Partitions cut visibility, never state, so a cut that heals is always
/// survivable — but a cut that *never* heals permanently removes its
/// nodes from the reachable replica budget, and one isolating the whole
/// cluster leaves no side to finish the job. The detector is only
/// consulted under an armed plan: suspicion at or below the heartbeat
/// interval suspects every node on its first silent beat, so false
/// positives dominate and re-placement churns.
fn check_partitions(env: &RuntimeEnv, report: &mut Report) {
    if env.netsplit.is_quiet() {
        return;
    }
    let isolated: usize = env
        .netsplit
        .events()
        .iter()
        .filter(|e| e.is_permanent())
        .map(|e| e.nodes.len())
        .sum();
    let (nodes, replication) = (env.cluster_nodes, env.dfs_replication);
    if nodes > 0 && isolated >= nodes {
        report.push(job_error(
            DiagCode::EF025,
            format!(
                "an unhealed partition isolates all {nodes} nodes of the cluster: \
                 no reachable side is left to finish the job"
            ),
            "give the cut a heal time, or leave at least one node reachable",
        ));
    }
    if isolated >= 1 && replication <= 1 {
        report.push(job_warning(
            DiagCode::EF025,
            format!(
                "{isolated} node(s) stay isolated forever with DFS replication {replication}: \
                 any chunk hosted behind the cut has no reachable replica and the \
                 job fails fast with a partition error"
            ),
            "raise replication to at least 2, heal the cut, or accept that the \
             run exercises the fail-fast path by design",
        ));
    }
    let (interval, suspicion) = (env.detector.interval, env.detector.suspicion);
    if interval >= suspicion {
        report.push(job_warning(
            DiagCode::EF025,
            format!(
                "detector heartbeat interval ({} ns) is at or above the suspicion \
                 threshold ({} ns): every silent beat immediately suspects the \
                 node, so false positives dominate and tasks churn between nodes",
                interval.as_nanos(),
                suspicion.as_nanos()
            ),
            "keep the suspicion threshold at 2-3 heartbeat intervals",
        ));
    }
}

/// EF026: pointless hedging. A hedged lookup races a backup against a
/// *different* replica or partition-side of the index; an accessor that
/// exposes only one side (a single-partition scheme, or no scheme over an
/// unreplicated DFS) makes the backup race the very service it is hedging
/// against — it can never answer sooner and only adds virtual cost under
/// the charge-both policy.
fn check_hedging(env: &RuntimeEnv, model: &PlanModel, report: &mut Report) {
    if env.hedge.is_quiet() {
        return;
    }
    let replicas = env.dfs_replication;
    for (pos, op) in model.operators.iter().enumerate() {
        for idx in &op.indices {
            let sides = if idx.has_partition_scheme {
                idx.partitions
            } else {
                replicas
            };
            if sides > 1 {
                continue;
            }
            let what = if idx.has_partition_scheme {
                "exposes a single partition-side".to_string()
            } else {
                format!("exposes no partition scheme and the DFS holds {replicas} replica(s)")
            };
            report.push(
                Diagnostic::warning(
                    DiagCode::EF026,
                    Span::index(pos, &op.name, &idx.name),
                    format!(
                        "hedged lookups are armed but index `{}` {what}: the backup \
                         races the same service and can only lose",
                        idx.name
                    ),
                )
                .with_hint(
                    "hedging needs a second replica or partition-side to race \
                     against; raise replication or disable hedging for this run",
                ),
            );
        }
    }
}

/// The per-index tokens `EF019` and `EF023` range-check.
fn index_stats_model(s: &IndexStatsEstimate) -> IndexStatsModel {
    IndexStatsModel {
        sik_bytes: s.sik,
        siv_bytes: s.siv,
        tj_secs: s.tj_secs,
        miss_ratio: s.miss_ratio,
        theta: s.theta,
        failure_rate: s.failure_rate,
    }
}

/// Lowers one cross-job store injection into the analyzer's IR for the
/// `EF023` measured-stats checks.
fn measured_model(m: &crate::statstore::MeasuredOp) -> MeasuredStatsModel {
    MeasuredStatsModel {
        operator: m.operator.clone(),
        n1: m.stats.n1,
        nik: m.stats.indices.iter().map(|i| i.nik).collect(),
        indices: m.stats.indices.iter().map(index_stats_model).collect(),
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
            m.stats = Some(index_stats_model(s));
        }
        model.costs = Some(operator_costs(&stats, env, placement, &plan, enumeration));
        operators.push(model);
    }
    analyze(&PlanModel {
        job: ijob.name.clone(),
        has_reduce: ijob.has_reduce(),
        operators,
        measured: Vec::new(),
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
    use crate::accessor::{HedgeConfig, IndexAccessor, PartitionScheme};
    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::operator::{operator_fn, IndexInput, IndexOutput};
    use crate::plan::IndexChoice;
    use crate::statstore::{Fingerprint, MeasuredOp};
    use efind_cluster::{
        ChaosPlan, CorruptionPlan, DetectorConfig, IndexRateLimit, NodeId, PartitionPlan, SimTime,
        TenantSpec,
    };
    use efind_common::{Datum, KeyKind, Record};
    use efind_mapreduce::{mapper_fn, reducer_fn, Collector};
    use std::sync::Arc;

    fn sample_bound(name: &str) -> BoundOperator {
        bound_over(name, MemIndex::new("mem", vec![]))
    }

    fn bound_over(name: &str, index: MemIndex) -> BoundOperator {
        let op = operator_fn(
            name,
            1,
            |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.key.clone()),
            |rec: Record, _v: &IndexOutput, out: &mut dyn Collector| out.collect(rec),
        );
        BoundOperator::new(op).add_index(Arc::new(index))
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

    fn sample_env() -> RuntimeEnv {
        RuntimeEnv {
            network: efind_cluster::NetworkModel::gigabit(),
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
            netsplit: PartitionPlan::none(),
            detector: DetectorConfig::default(),
            hedge: HedgeConfig::disabled(),
            measured: Vec::new(),
            tenancy: TenancyConfig::none(),
            tenant: None,
        }
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

    /// A partition scheme with `n` sides, for `EF026`'s count.
    struct Sides(usize);

    impl PartitionScheme for Sides {
        fn num_partitions(&self) -> usize {
            self.0
        }
        fn partition_of(&self, _: &Datum) -> usize {
            0
        }
        fn hosts(&self, _: usize) -> Vec<NodeId> {
            Vec::new()
        }
    }

    /// One row of the configuration-check table: `sample_env()` changed by
    /// `env`, the job planned with `strategy` over an index whose scheme
    /// has `sides` partitions (`None`: no scheme), and the exact report.
    struct Case {
        name: &'static str,
        strategy: Strategy,
        sides: Option<usize>,
        env: fn(&mut RuntimeEnv),
        report: &'static str,
    }

    fn case(name: &'static str, env: fn(&mut RuntimeEnv), report: &'static str) -> Case {
        Case {
            name,
            strategy: Strategy::Cache,
            sides: None,
            env,
            report,
        }
    }

    impl Case {
        fn baseline(self) -> Self {
            Case {
                strategy: Strategy::Baseline,
                ..self
            }
        }

        fn sides(self, n: usize) -> Self {
            Case {
                sides: Some(n),
                ..self
            }
        }
    }

    const CLEAN: &str = "analyze: clean (no diagnostics)";

    /// Arms the fault layer with sane retries and returns it for editing.
    fn faults(env: &mut RuntimeEnv) -> &mut FaultConfig {
        env.faults = FaultConfig::disabled().with_plan(FaultPlan::new(7).failures(0.1));
        &mut env.faults
    }

    /// The first `n` nodes of the cluster die at 1 s.
    fn kills(n: u16) -> ChaosPlan {
        (0..n).fold(ChaosPlan::new(5), |plan, i| {
            plan.kill(NodeId(i), SimTime::from_nanos(1_000_000_000))
        })
    }

    /// A cut isolating `nodes` from time 0, healing at 1 ms or never.
    fn cut(nodes: &[u16], heals: bool) -> PartitionPlan {
        let nodes: Vec<NodeId> = nodes.iter().map(|&n| NodeId(n)).collect();
        let heal = heals.then(|| SimTime::from_nanos(1_000_000));
        PartitionPlan::new(7).split(&nodes, SimTime::ZERO, heal)
    }

    /// Two sane tenants, the job running as `alpha`; returned for editing.
    fn tenants(env: &mut RuntimeEnv) -> &mut TenancyConfig {
        let tenant = |name: &str, weight, share| {
            TenantSpec::new(name)
                .weight(weight)
                .max_queued(8)
                .max_running(2)
                .cache_share(share)
        };
        env.tenancy = TenancyConfig::none()
            .tenant(tenant("alpha", 2, 0.5))
            .tenant(tenant("beta", 1, 0.25))
            .queue_capacity(16)
            .max_concurrent(4)
            .degrade_threshold(SimDuration::from_millis(1));
        env.tenant = Some("alpha".into());
        &mut env.tenancy
    }

    /// A bucket on the planned index, built without `IndexRateLimit::new`'s
    /// clamping.
    fn bucket(rate_per_sec: f64, burst: f64) -> IndexRateLimit {
        IndexRateLimit {
            index: "mem".into(),
            rate_per_sec,
            burst,
        }
    }

    fn cases() -> Vec<Case> {
        vec![
            // EF015/EF016: the fault layer.
            case(
                "armed fault plan",
                |e| {
                    faults(e);
                },
                CLEAN,
            ),
            case(
                "zero timeout",
                |e| faults(e).timeout = Some(SimDuration::ZERO),
                "error[EF015] at job: per-index timeout is zero: every lookup attempt times out \
                 before it can answer (hint: set the timeout above the slowest expected serve + \
                 transfer time, or drop it to disable timeout enforcement)\n",
            ),
            case(
                "FailJob without retries",
                |e| {
                    let f = faults(e);
                    f.miss_policy = MissPolicy::FailJob;
                    f.retry = RetryPolicy::none();
                },
                "warning[EF016] at job: FailJob miss policy with zero retries: one transient \
                 failure fails the whole job (hint: allow at least one retry, or degrade misses \
                 instead of failing the job)\n",
            ),
            case(
                "backoff base above its cap",
                |e| {
                    faults(e).retry = RetryPolicy::bounded(
                        3,
                        SimDuration::from_secs(1),
                        SimDuration::from_millis(1),
                    )
                },
                "warning[EF016] at job: backoff base (1000000000 ns) exceeds its cap (1000000 \
                 ns): every pause clamps to the cap (hint: raise max_backoff or lower the base \
                 so the exponential schedule applies)\n",
            ),
            case(
                "breaker opening within one key's retries",
                |e| {
                    let f = faults(e);
                    f.breaker_threshold_x1000 = 500;
                    f.breaker_min_samples = 2;
                },
                "warning[EF016] at job: breaker min-samples (2) within one key's retry budget \
                 (3): a single black-holed key can open the breaker and degrade the whole task \
                 (hint: raise breaker_min_samples above max_retries)\n",
            ),
            case(
                "disabled breaker with few samples",
                |e| faults(e).breaker_min_samples = 2,
                CLEAN,
            ),
            case(
                "quiet: zero timeout without a fault plan",
                |e| e.faults.timeout = Some(SimDuration::ZERO),
                CLEAN,
            ),
            case(
                "timeout on a plan that injects nothing",
                |e| {
                    e.faults = FaultConfig::disabled().with_plan(FaultPlan::new(7));
                    e.faults.timeout = Some(SimDuration::from_millis(2));
                },
                CLEAN,
            ),
            // EF017/EF018: the corruption layer.
            case(
                "chunk corruption at replication 3",
                |e| e.corruption = CorruptionPlan::new(1).chunks(0.1),
                CLEAN,
            ),
            case(
                "chunk corruption at replication 1",
                |e| {
                    e.corruption = CorruptionPlan::new(1).chunks(0.1);
                    e.dfs_replication = 1;
                },
                "error[EF017] at job: chunk corruption is injected but DFS replication is 1: \
                 the first corrupted chunk has no intact replica and the job fails by \
                 construction (hint: raise the DFS replication factor to at least 2 so a \
                 corrupt replica can be quarantined and re-read, or stop corrupting chunks)\n",
            ),
            case(
                "shuffle corruption at replication 1",
                |e| {
                    e.corruption = CorruptionPlan::new(1).shuffle(0.1);
                    e.dfs_replication = 1;
                },
                CLEAN,
            ),
            case(
                "response corruption",
                |e| e.corruption = CorruptionPlan::new(1).responses(0.1),
                CLEAN,
            ),
            case(
                "unverified cache corruption",
                |e| e.corruption = CorruptionPlan::new(1).cache(0.2).without_verification(),
                "warning[EF018] at job: lookup-cache corruption is injected with checksum \
                 verification disabled: poisoned cache entries would be served undetected \
                 (hint: keep verification enabled (drop without_verification) so poisoned \
                 entries are invalidated and re-fetched, or stop corrupting the cache)\n",
            ),
            case(
                "unverified cache corruption without a cache plan",
                |e| e.corruption = CorruptionPlan::new(1).cache(0.2).without_verification(),
                CLEAN,
            )
            .baseline(),
            case(
                "verified cache corruption",
                |e| e.corruption = CorruptionPlan::new(1).cache(0.2),
                CLEAN,
            ),
            // EF020: the chaos layer and its conflicts.
            case("one kill", |e| e.chaos = kills(1), CLEAN),
            case(
                "every node killed",
                |e| e.chaos = kills(4),
                "error[EF020] at job: chaos plan kills 4 nodes of a 4-node cluster: no node \
                 survives to finish any wave (hint: keep at least one node alive; recovery \
                 needs somewhere to run)\n",
            ),
            case(
                "a kill at replication 1",
                |e| {
                    e.chaos = kills(1);
                    e.dfs_replication = 1;
                },
                "warning[EF020] at job: node kills are scheduled with DFS replication 1: any \
                 chunk on a killed node is lost with no replica to recover from (hint: raise \
                 replication to at least 2, or accept that the run exercises the data-loss path \
                 by design)\n",
            ),
            case(
                "two kills plus chunk corruption at replication 3",
                |e| {
                    e.chaos = kills(2);
                    e.corruption = CorruptionPlan::new(1).chunks(0.1);
                },
                "warning[EF020] at job: 2 node kills plus chunk corruption against replication \
                 3: one quarantined replica plus the kills can exhaust every copy (hint: keep \
                 replication above kill_events + 1 when combining chaos with chunk corruption, \
                 or the layers defeat each other's experiment)\n",
            ),
            case(
                "one kill plus chunk corruption at replication 3",
                |e| {
                    e.chaos = kills(1);
                    e.corruption = CorruptionPlan::new(1).chunks(0.1);
                },
                CLEAN,
            ),
            case(
                "quiet: no kills at replication 1",
                |e| {
                    e.chaos = ChaosPlan::new(5);
                    e.dfs_replication = 1;
                },
                CLEAN,
            ),
            // EF021: the lookup cache.
            case(
                "zero-entry cache",
                |e| e.cache_capacity = 0,
                "error[EF021] at job: a cache-strategy plan is installed but the lookup cache \
                 holds zero entries: every probe misses and the plan degenerates to baseline \
                 plus pure overhead (hint: set cache_capacity to at least 1, or re-plan without \
                 the cache strategy)\n",
            ),
            case(
                "zero-entry cache without a cache plan",
                |e| e.cache_capacity = 0,
                CLEAN,
            )
            .baseline(),
            case(
                "free cache probes",
                |e| e.t_cache = SimDuration::ZERO,
                "warning[EF021] at job: cache strategy planned with T_cache = 0: probes are \
                 free and the Eq. 2 floor is degenerate, so the planner can never prefer \
                 baseline (hint: use a small positive T_cache so cache and baseline stay \
                 comparable)\n",
            ),
            // EF024: tenancy.
            case(
                "two sane tenants",
                |e| {
                    tenants(e);
                },
                CLEAN,
            ),
            case(
                "weight 0",
                |e| tenants(e).tenants[0].weight = 0,
                "error[EF024] at job: tenant \"alpha\" has deficit weight 0: it accrues no \
                 credit and can never win a grant (hint: weights must be at least 1; \
                 starvation-freedom assumes it)\n",
            ),
            case(
                "max_running 0",
                |e| tenants(e).tenants[0].max_running = 0,
                "error[EF024] at job: tenant \"alpha\" has max_running = 0: admitted jobs can \
                 never start (hint: a zero-slot running quota turns every admission into a hang \
                 risk)\n",
            ),
            case(
                "max_queued 0",
                |e| tenants(e).tenants[1].max_queued = 0,
                "error[EF024] at job: tenant \"beta\" has max_queued = 0: every submission is \
                 quota-rejected at the door (hint: give each tenant at least one queue slot, or \
                 remove the tenant)\n",
            ),
            case(
                "queue capacity 0",
                |e| tenants(e).queue_capacity = 0,
                "error[EF024] at job: admission queue capacity is 0: every submission that \
                 cannot start immediately is rejected (hint: size the queue for the expected \
                 burst, or at least 1)\n",
            ),
            case(
                "max_concurrent 0",
                |e| tenants(e).max_concurrent = 0,
                "error[EF024] at job: max_concurrent is 0: no job can ever be granted a slot \
                 (hint: allow at least one concurrent job)\n",
            ),
            // The name rules are `TenancyConfig::validate`'s, reported with
            // its message.
            case(
                "empty tenant name",
                |e| tenants(e).tenants[0].name = String::new(),
                "error[EF024] at job: invalid configuration: tenant 0 has an invalid name \"\" \
                 (must be non-empty and dot-free) (hint: tenant names become \
                 `efind.tenant.<name>.*` counter segments: each must be non-empty, dot-free, \
                 and declared exactly once)\n\
                 error[EF024] at job: job is tagged with tenant \"alpha\", which is not \
                 declared in the tenancy configuration (hint: declare the tenant, or drop the \
                 job's tenant tag)\n",
            ),
            case(
                "dotted tenant name",
                |e| tenants(e).tenants[0].name = "alpha.prod".into(),
                "error[EF024] at job: invalid configuration: tenant 0 has an invalid name \
                 \"alpha.prod\" (must be non-empty and dot-free) (hint: tenant names become \
                 `efind.tenant.<name>.*` counter segments: each must be non-empty, dot-free, \
                 and declared exactly once)\n\
                 error[EF024] at job: job is tagged with tenant \"alpha\", which is not \
                 declared in the tenancy configuration (hint: declare the tenant, or drop the \
                 job's tenant tag)\n",
            ),
            case(
                "duplicate tenant name",
                |e| tenants(e).tenants[1].name = "alpha".into(),
                "error[EF024] at job: invalid configuration: duplicate tenant name \"alpha\" \
                 (hint: tenant names become `efind.tenant.<name>.*` counter segments: each must \
                 be non-empty, dot-free, and declared exactly once)\n",
            ),
            case(
                "cache share above 1",
                |e| tenants(e).tenants[0].cache_share = 1.5,
                "error[EF024] at job: tenant \"alpha\" has cache share 1.5 outside [0, 1] \
                 (hint: shares are fractions of the shared lookup-cache capacity)\n\
                 warning[EF024] at job: tenant cache shares sum to 1.250: the shared cache is \
                 oversubscribed and reservations cannot all be honored (hint: keep the share \
                 sum at or below 1.0)\n",
            ),
            case(
                "NaN cache share",
                |e| tenants(e).tenants[0].cache_share = f64::NAN,
                "error[EF024] at job: tenant \"alpha\" has cache share NaN outside [0, 1] \
                 (hint: shares are fractions of the shared lookup-cache capacity)\n",
            ),
            case(
                "job tagged with an undeclared tenant",
                |e| {
                    tenants(e);
                    e.tenant = Some("gamma".into());
                },
                "error[EF024] at job: job is tagged with tenant \"gamma\", which is not \
                 declared in the tenancy configuration (hint: declare the tenant, or drop the \
                 job's tenant tag)\n",
            ),
            case(
                "oversubscribed cache shares",
                |e| {
                    let t = tenants(e);
                    t.tenants[0].cache_share = 0.8;
                    t.tenants[1].cache_share = 0.7;
                },
                "warning[EF024] at job: tenant cache shares sum to 1.500: the shared cache is \
                 oversubscribed and reservations cannot all be honored (hint: keep the share \
                 sum at or below 1.0)\n",
            ),
            case(
                "negative rate",
                |e| tenants(e).rate_limits.push(bucket(-1.0, 10.0)),
                "error[EF024] at job: rate limit for index \"mem\" has negative or NaN \
                 parameters (rate = -1, burst = 10) (hint: token-bucket rate and burst must be \
                 finite and non-negative)\n",
            ),
            case(
                "NaN rate",
                |e| tenants(e).rate_limits.push(bucket(f64::NAN, 10.0)),
                "error[EF024] at job: rate limit for index \"mem\" has negative or NaN \
                 parameters (rate = NaN, burst = 10) (hint: token-bucket rate and burst must be \
                 finite and non-negative)\n",
            ),
            case(
                "negative burst",
                |e| tenants(e).rate_limits.push(bucket(100.0, -2.0)),
                "error[EF024] at job: rate limit for index \"mem\" has negative or NaN \
                 parameters (rate = 100, burst = -2) (hint: token-bucket rate and burst must be \
                 finite and non-negative)\n",
            ),
            case(
                "zero rate and zero burst",
                |e| tenants(e).rate_limits.push(bucket(0.0, 0.0)),
                "error[EF024] at job: rate limit for index \"mem\" has zero rate and zero \
                 burst: no lookup can ever be charged (hint: give the bucket a positive rate or \
                 burst, or remove the limit)\n",
            ),
            case(
                "small bucket on the planned index",
                |e| tenants(e).rate_limits.push(bucket(10.0, 10.0)),
                CLEAN,
            ),
            case(
                "quiet: one unlimited tenant with a dotted name",
                |e| e.tenancy = TenancyConfig::none().tenant(TenantSpec::new("a.b")),
                CLEAN,
            ),
            // EF025: the partition layer and the detector.
            case(
                "healed one-node cut",
                |e| e.netsplit = cut(&[1], true),
                CLEAN,
            ),
            case(
                "unhealed whole-cluster cut",
                |e| e.netsplit = cut(&[0, 1, 2, 3], false),
                "error[EF025] at job: an unhealed partition isolates all 4 nodes of the \
                 cluster: no reachable side is left to finish the job (hint: give the cut a \
                 heal time, or leave at least one node reachable)\n",
            ),
            case(
                "healed whole-cluster cut",
                |e| e.netsplit = cut(&[0, 1, 2, 3], true),
                CLEAN,
            ),
            case(
                "unhealed one-node cut at replication 1",
                |e| {
                    e.netsplit = cut(&[1], false);
                    e.dfs_replication = 1;
                },
                "warning[EF025] at job: 1 node(s) stay isolated forever with DFS replication 1: \
                 any chunk hosted behind the cut has no reachable replica and the job fails \
                 fast with a partition error (hint: raise replication to at least 2, heal the \
                 cut, or accept that the run exercises the fail-fast path by design)\n",
            ),
            case(
                "unhealed one-node cut at replication 3",
                |e| e.netsplit = cut(&[1], false),
                CLEAN,
            ),
            case(
                "detector interval at its suspicion",
                |e| {
                    e.netsplit = cut(&[1], true);
                    e.detector.suspicion = e.detector.interval;
                },
                "warning[EF025] at job: detector heartbeat interval (500000 ns) is at or above \
                 the suspicion threshold (500000 ns): every silent beat immediately suspects \
                 the node, so false positives dominate and tasks churn between nodes (hint: \
                 keep the suspicion threshold at 2-3 heartbeat intervals)\n",
            ),
            case(
                "quiet: no cut, detector interval at its suspicion",
                |e| e.detector.suspicion = e.detector.interval,
                CLEAN,
            ),
            // EF026: hedged lookups.
            case(
                "hedging at replication 3",
                |e| e.hedge.threshold = Some(SimDuration::from_micros(2)),
                CLEAN,
            ),
            case(
                "hedging at replication 1",
                |e| {
                    e.hedge.threshold = Some(SimDuration::from_micros(2));
                    e.dfs_replication = 1;
                },
                "warning[EF026] at operator #0 `op`, index `mem`: hedged lookups are armed but \
                 index `mem` exposes no partition scheme and the DFS holds 1 replica(s): the \
                 backup races the same service and can only lose (hint: hedging needs a second \
                 replica or partition-side to race against; raise replication or disable \
                 hedging for this run)\n",
            ),
            case(
                "hedging a one-partition index",
                |e| e.hedge.threshold = Some(SimDuration::from_micros(2)),
                "warning[EF026] at operator #0 `op`, index `mem`: hedged lookups are armed but \
                 index `mem` exposes a single partition-side: the backup races the same service \
                 and can only lose (hint: hedging needs a second replica or partition-side to \
                 race against; raise replication or disable hedging for this run)\n",
            )
            .sides(1),
            case(
                "hedging a two-partition index at replication 1",
                |e| {
                    e.hedge.threshold = Some(SimDuration::from_micros(2));
                    e.dfs_replication = 1;
                },
                CLEAN,
            )
            .sides(2),
            case(
                "quiet: hedging disabled at replication 1",
                |e| e.dfs_replication = 1,
                CLEAN,
            ),
            // Layers together.
            case(
                "every layer armed and sane",
                |e| {
                    faults(e);
                    e.corruption = CorruptionPlan::new(1).chunks(0.1);
                    e.chaos = kills(1);
                    e.netsplit = cut(&[2], true);
                    e.hedge.threshold = Some(SimDuration::from_micros(2));
                    tenants(e);
                },
                CLEAN,
            ),
            // The plan checks (here `EF023`) report before the layer checks.
            case(
                "store-served statistics out of range beside a zero timeout",
                |e| {
                    let mut stats = catalog_with("op", 2.0).get("op").unwrap().clone();
                    stats.n1 = -1.0;
                    e.measured.push(MeasuredOp {
                        operator: "op".into(),
                        fingerprint: Fingerprint(0),
                        stats,
                        full_est_secs: 1.0,
                        est_at_double_n1_secs: 2.0,
                    });
                    faults(e).timeout = Some(SimDuration::ZERO);
                },
                "error[EF023] at operator #0 `op`: measured statistics token N1 = -1 is outside \
                 [0, inf) (hint: the cross-job store served an impossible token; the warm-start \
                 plan built from it is meaningless — fall back to estimates)\n\
                 error[EF015] at job: per-index timeout is zero: every lookup attempt times out \
                 before it can answer (hint: set the timeout above the slowest expected serve + \
                 transfer time, or drop it to disable timeout enforcement)\n",
            ),
        ]
    }

    #[test]
    fn configuration_checks_report_exactly_their_findings() {
        for case in cases() {
            let mut index = MemIndex::new("mem", vec![]);
            index.scheme = case
                .sides
                .map(|n| Arc::new(Sides(n)) as Arc<dyn PartitionScheme>);
            let ijob = sample_job(bound_over("op", index));
            let plans = plans_with(&ijob, case.strategy);
            let mut env = sample_env();
            (case.env)(&mut env);
            let report = analyze_job_in_env(&ijob, &plans, &env).unwrap();
            assert_eq!(report.to_text(), case.report, "{}", case.name);
        }
    }
}
