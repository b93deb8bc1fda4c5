//! The static checks of a job before it runs: its shape, its plans and
//! the runtime configuration it runs under. Each check is written once,
//! here.
//!
//! Every check reads the runtime's own values. The shape checks (`EF001`'s
//! declared arity, `EF002`, `EF003`) need no plan, so
//! [`IndexJobConf::validate`] runs them alone when a job is submitted. The
//! plan checks (`EF001`–`EF014`, `EF019`, `EF023`) see each operator as
//! its `BoundOperator` and `OperatorPlan`, plus — for the cost
//! checks — the statistics the planner priced the plan from and the costs
//! derived from them. The configuration checks read the [`RuntimeEnv`]
//! fields and skip a layer exactly when its own `is_quiet()` says so, the
//! call the runtime makes. `efind-analyze` supplies only the diagnostic
//! vocabulary: codes, spans and the [`Report`].
//!
//! Two entry points run every check. [`crate::compile::compile_pipeline`]
//! calls [`analyze_job_in_env`] before building any stage: analyzer
//! errors abort compilation, warnings ride along in the compiled pipeline
//! and the runtime reports each once per run. [`analyze_costs`] plans the
//! job as `Mode::Optimized` would and adds the statistics-dependent checks
//! (`EF009`–`EF011`, `EF013`, `EF019`); `explain` prints its report.

use efind_analyze::{DiagCode, Diagnostic, Report, Span};
use efind_cluster::{SimDuration, TenancyConfig};
use efind_common::{Error, FxHashMap, FxHashSet, Result};

use crate::accessor::IndexAccessor;
use crate::compile::RuntimeEnv;
use crate::cost::{s_min, CostEnv, IndexStatsEstimate, OperatorStatsEstimate, Placement};
use crate::fault::{FaultConfig, MissPolicy};
use crate::jobconf::{BoundOperator, IndexJobConf};
use crate::plan::{doubled_n1_probe, optimize_operator, Enumeration, OperatorPlan, Strategy};
use crate::runtime::EFindRuntime;
use crate::statstore::MeasuredOp;

/// Relative tolerance for float comparisons over cost estimates.
const EPS: f64 = 1e-9;

/// The `k` of the k-Repart plan `EF013` compares FullEnumerate against.
const KREPART_K: usize = 2;

/// One operator as the plan checks see it.
struct OperatorView<'a> {
    /// Position in head → body → tail order.
    pos: usize,
    bound: &'a BoundOperator,
    plan: &'a OperatorPlan,
    /// The statistics the planner priced the plan from, partition schemes
    /// refreshed from the bound accessors; only [`analyze_costs`] has them.
    stats: Option<&'a OperatorStatsEstimate>,
    /// What [`operator_costs`] derived from `stats`.
    costs: Option<&'a OperatorCosts>,
}

impl<'a> OperatorView<'a> {
    fn name(&self) -> &'a str {
        self.bound.op.name()
    }

    fn span(&self) -> Span {
        Span::operator(self.pos, self.name())
    }

    /// The span of declaration-order index `slot`; `?` names a slot out of
    /// range, which `EF001` reports.
    fn index_span(&self, slot: usize) -> Span {
        let index = self.bound.indices.get(slot).map_or("?", |a| a.name());
        Span::index(self.pos, self.name(), index)
    }

    fn index_stats(&self, slot: usize) -> Option<&'a IndexStatsEstimate> {
        self.stats.and_then(|s| s.indices.get(slot))
    }
}

/// Statistics-derived cost facts for one operator; the stat-dependent
/// checks (`EF009`–`EF011`, `EF013`, `EF019`) are skipped without them.
struct OperatorCosts {
    /// Input records (`N1`).
    n1: f64,
    /// Cache probe time `T_cache` in seconds (the `EF010` floor input).
    t_cache_secs: f64,
    /// Best plan cost under FullEnumerate.
    full_est_secs: f64,
    /// Best plan cost under k-Repart with `k` = [`KREPART_K`].
    krepart_est_secs: f64,
    /// `S_min` at each plan position, in access order.
    s_min_by_position: Vec<f64>,
    /// Carried intermediate size at each plan position, in access order.
    carried_by_position: Vec<f64>,
    /// Best plan cost re-estimated with the input cardinality doubled
    /// (`N1 → 2·N1`). The Eq. 1–4 estimates are sums of terms linear in
    /// `N1`, so this can never be below the plan cost at `N1` — `EF019`
    /// enforces that monotonicity.
    est_at_double_n1_secs: Option<f64>,
}

/// Pairs each operator of the job with its plan. A missing plan is an
/// internal error: the planner plans every operator.
fn operator_views<'a>(
    ijob: &'a IndexJobConf,
    plans: &'a FxHashMap<String, OperatorPlan>,
) -> Result<Vec<OperatorView<'a>>> {
    ijob.operators()
        .enumerate()
        .map(|(pos, (bound, _))| {
            let name = bound.op.name();
            let plan = plans
                .get(name)
                .ok_or_else(|| Error::Internal(format!("no plan for operator {name}")))?;
            Ok(OperatorView {
                pos,
                bound,
                plan,
                stats: None,
                costs: None,
            })
        })
        .collect()
}

/// Runs every plan check and returns the combined report: the job's shape
/// ([`check_shape`]), each operator's checks in turn, then `EF023` over
/// the store-served statistics. Checks are independent; one malformed
/// operator produces every diagnostic it earns, not just the first.
fn check_plans(ijob: &IndexJobConf, ops: &[OperatorView], measured: &[MeasuredOp]) -> Report {
    let mut report = check_shape(ijob);
    for op in ops {
        check_plan_slots(op, &mut report);
        check_strategy_order(op, &mut report);
        check_strategy_capabilities(op, &mut report);
        check_key_kinds(op, &mut report);
        check_partition_schemes(op, &mut report);
        check_cost_sanity(op, &mut report);
        check_cache_floor(op, &mut report);
        check_s_min_monotonicity(op, &mut report);
        check_determinism(op, &mut report);
        check_enumeration_agreement(op, &mut report);
        check_volatile_pinning(op, &mut report);
        check_stats_tokens(op, &mut report);
        check_cost_monotonicity(op, &mut report);
    }
    for m in measured {
        check_measured_stats(ops, m, &mut report);
    }
    report
}

/// Runs the plan checks over a job and its plans, including the `EF023`
/// checks of store-served statistics, followed by the checks of the
/// runtime configuration the job runs under: the fault, corruption, chaos
/// and partition layers (`EF015`–`EF018`, `EF020`, `EF025`), the lookup
/// cache (`EF021`), tenancy (`EF024`) and hedged lookups (`EF026`).
/// `env` is the environment the runtime compiles in. The compiler calls
/// this; a test passes a quiet environment to see the plan checks alone.
pub fn analyze_job_in_env(
    ijob: &IndexJobConf,
    plans: &FxHashMap<String, OperatorPlan>,
    env: &RuntimeEnv,
) -> Result<Report> {
    Ok(analyze(ijob, &operator_views(ijob, plans)?, env))
}

/// Every check over `ops`, the operators of `ijob` with their plans.
fn analyze(ijob: &IndexJobConf, ops: &[OperatorView], env: &RuntimeEnv) -> Report {
    let mut report = check_plans(ijob, ops, &env.measured);
    let cache_in_use = ops.iter().any(|op| {
        op.plan
            .choices
            .iter()
            .any(|c| c.strategy == Strategy::Cache)
    });
    check_faults(&env.faults, &mut report);
    check_corruption(env, cache_in_use, &mut report);
    check_chaos(env, &mut report);
    check_cache(env, cache_in_use, &mut report);
    check_tenancy(&env.tenancy, env.tenant.as_deref(), &mut report);
    check_partitions(env, &mut report);
    check_hedging(env, ops, &mut report);
    report
}

/// The checks of a job's shape, which need no plan: `EF002` over the job,
/// then each operator's declared arity against its bound accessors
/// (`EF001`) and its placement (`EF003`). [`IndexJobConf::validate`] runs
/// exactly these.
pub(crate) fn check_shape(ijob: &IndexJobConf) -> Report {
    let mut report = Report::new();
    let mut seen = FxHashSet::default();
    for (pos, (bound, _)) in ijob.operators().enumerate() {
        let name = bound.op.name();
        if !seen.insert(name) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF002,
                    Span::operator(pos, name),
                    format!("duplicate operator name `{name}`"),
                )
                .with_hint("rename one of the operators; statistics and plans are keyed by name"),
            );
        }
    }
    for (pos, (bound, placement)) in ijob.operators().enumerate() {
        let span = || Span::operator(pos, bound.op.name());
        let (declared, bound) = (bound.op.num_indices(), bound.indices.len());
        if bound != declared {
            report.push(
                Diagnostic::error(
                    DiagCode::EF001,
                    span(),
                    format!("operator declares {declared} indices but {bound} accessors are bound"),
                )
                .with_hint("bind exactly one accessor per declared index with add_index"),
            );
        }
        // EF003: tail index operators require a reduce phase to attach to.
        if placement == Placement::Tail && !ijob.has_reduce() {
            report.push(
                Diagnostic::error(DiagCode::EF003, span(), "tail operator in a map-only job")
                    .with_hint("add a reduce phase or move the operator to head/body placement"),
            );
        }
    }
    report
}

/// EF001: the plan choices must match the bound arity, and every choice
/// must target a distinct, in-range slot.
fn check_plan_slots(op: &OperatorView, report: &mut Report) {
    let bound = op.bound.indices.len();
    let choices = &op.plan.choices;
    if choices.len() != bound {
        report.push(
            Diagnostic::error(
                DiagCode::EF001,
                op.span(),
                format!("plan covers {} of {bound} bound indices", choices.len()),
            )
            .with_hint("every bound index needs exactly one access choice"),
        );
    }
    let mut seen = FxHashSet::default();
    for choice in choices {
        if choice.index >= bound {
            report.push(
                Diagnostic::error(
                    DiagCode::EF001,
                    op.span(),
                    format!(
                        "plan references index slot {} but only {bound} indices are bound",
                        choice.index
                    ),
                )
                .with_hint("plan slots must index into the operator's declaration order"),
            );
        } else if !seen.insert(choice.index) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF001,
                    op.index_span(choice.index),
                    format!("index slot {} is accessed more than once", choice.index),
                )
                .with_hint("a plan accesses each index exactly once"),
            );
        }
    }
}

/// EF004 (Property 4): shuffle-strategy accesses must precede
/// baseline/cache accesses — a shuffle after a record-wise lookup would
/// re-shuffle data that already carries lookup results, which the cost
/// model proves is never optimal and the compiler never exploits.
fn check_strategy_order(op: &OperatorView, report: &mut Report) {
    for (prev, i) in op.plan.property4_violations() {
        let choice = &op.plan.choices[i];
        report.push(
            Diagnostic::error(
                DiagCode::EF004,
                op.index_span(choice.index),
                format!(
                    "{} access at plan position {i} follows a non-shuffle access \
                     at position {prev} (Property 4 violation)",
                    choice.strategy.label(),
                ),
            )
            .with_hint("reorder the plan so shuffle-strategy indices come first"),
        );
    }
}

/// EF005/EF006: a strategy may only be chosen for an index that supports
/// it — index locality needs a partition scheme, shuffles need a
/// shuffleable index. Shuffleability (exactly one key per record) is a
/// runtime property: without statistics it is assumed, as
/// [`BoundOperator::caps`] does.
fn check_strategy_capabilities(op: &OperatorView, report: &mut Report) {
    for choice in &op.plan.choices {
        let Some(acc) = op.bound.indices.get(choice.index) else {
            continue; // out-of-range slots already reported as EF001
        };
        let strategy = choice.strategy;
        if strategy == Strategy::IndexLocality && acc.partition_scheme().is_none() {
            report.push(
                Diagnostic::error(
                    DiagCode::EF005,
                    op.index_span(choice.index),
                    "index locality chosen for an index with no partition scheme",
                )
                .with_hint(
                    "expose a PartitionScheme from the accessor or fall back to re-partitioning",
                ),
            );
        }
        let shuffleable = op.index_stats(choice.index).is_none_or(|s| s.shuffleable);
        if strategy.is_shuffle() && !shuffleable {
            report.push(
                Diagnostic::error(
                    DiagCode::EF006,
                    op.index_span(choice.index),
                    format!(
                        "{} strategy chosen for a non-shuffleable index",
                        strategy.label()
                    ),
                )
                .with_hint("non-shuffleable indices support only baseline/cache access"),
            );
        }
    }
}

/// EF007: the key kind an operator emits for a slot must be compatible
/// with what the accessor accepts.
fn check_key_kinds(op: &OperatorView, report: &mut Report) {
    for (slot, acc) in op.bound.indices.iter().enumerate() {
        let emitted = op.bound.key_kinds.get(slot).copied().unwrap_or_default();
        let accepted = acc.key_kind();
        if !emitted.compatible(accepted) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF007,
                    op.index_span(slot),
                    format!(
                        "operator emits {} lookup keys but the accessor expects {}",
                        emitted.label(),
                        accepted.label()
                    ),
                )
                .with_hint("fix preProcess's key extraction or the accessor's declared key kind"),
            );
        }
    }
}

/// EF008: a partition scheme with zero partitions cannot route anything.
/// Statistics that recorded a partition count stand in for the scheme's.
fn check_partition_schemes(op: &OperatorView, report: &mut Report) {
    for (slot, acc) in op.bound.indices.iter().enumerate() {
        let Some(scheme) = acc.partition_scheme() else {
            continue;
        };
        let recorded = op.index_stats(slot).map_or(0, |s| s.partitions);
        if recorded == 0 && scheme.num_partitions() == 0 {
            report.push(
                Diagnostic::error(
                    DiagCode::EF008,
                    op.index_span(slot),
                    "degenerate partition scheme: zero partitions",
                )
                .with_hint("num_partitions must be at least 1"),
            );
        }
    }
}

/// EF009: every cost estimate must be a non-negative finite number.
fn check_cost_sanity(op: &OperatorView, report: &mut Report) {
    let bad = |v: f64| v.is_nan() || v < -EPS;
    let plan = op.plan;
    if bad(plan.est_cost_secs) {
        report.push(
            Diagnostic::error(
                DiagCode::EF009,
                op.span(),
                format!(
                    "operator plan cost {} is negative or NaN",
                    plan.est_cost_secs
                ),
            )
            .with_hint("cost estimates are sums of non-negative terms; check the statistics"),
        );
    }
    for choice in &plan.choices {
        if bad(choice.est_cost_secs) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF009,
                    op.index_span(choice.index),
                    format!(
                        "{} access cost {} is negative or NaN",
                        choice.strategy.label(),
                        choice.est_cost_secs
                    ),
                )
                .with_hint("cost estimates are sums of non-negative terms; check the statistics"),
            );
        }
    }
    let Some(costs) = op.costs else { return };
    for (what, v) in [
        ("N1", costs.n1),
        ("FullEnumerate cost", costs.full_est_secs),
        ("k-Repart cost", costs.krepart_est_secs),
    ] {
        if bad(v) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF009,
                    op.span(),
                    format!("{what} {v} is negative or NaN"),
                )
                .with_hint("statistics and derived costs must be non-negative"),
            );
        }
    }
    for seq in [&costs.s_min_by_position, &costs.carried_by_position] {
        for &v in seq {
            if bad(v) {
                report.push(
                    Diagnostic::error(
                        DiagCode::EF009,
                        op.span(),
                        format!("size term {v} is negative or NaN"),
                    )
                    .with_hint("record and result sizes must be non-negative"),
                );
            }
        }
    }
}

/// EF010: a cache-strategy estimate can never be below the probe floor
/// `N1 · Nik · T_cache` — every key pays at least one cache probe (Eq. 2).
fn check_cache_floor(op: &OperatorView, report: &mut Report) {
    let Some(costs) = op.costs else { return };
    for choice in &op.plan.choices {
        if choice.strategy != Strategy::Cache || choice.est_cost_secs <= 0.0 {
            continue; // forced plans carry est 0.0 — nothing to sanity-check
        }
        let Some(stats) = op.index_stats(choice.index) else {
            continue;
        };
        if choice.index >= op.bound.indices.len() {
            continue; // out-of-range slots already reported as EF001
        }
        let floor = costs.n1 * stats.nik * costs.t_cache_secs;
        if choice.est_cost_secs < floor * (1.0 - 1e-6) {
            report.push(
                Diagnostic::warning(
                    DiagCode::EF010,
                    op.index_span(choice.index),
                    format!(
                        "cache estimate {:.6}s is below the T_cache probe floor {:.6}s",
                        choice.est_cost_secs, floor
                    ),
                )
                .with_hint("every requested key pays at least one cache probe (Eq. 2)"),
            );
        }
    }
}

/// EF011: `S_min` is a minimum over a set that includes the carried size,
/// so it can never exceed it; and the carried size only grows along the
/// access order (each access appends `Nik · Siv` of results). A violation
/// means the statistics feeding the cost model are inconsistent.
fn check_s_min_monotonicity(op: &OperatorView, report: &mut Report) {
    let Some(costs) = op.costs else { return };
    for (i, (&s_min, &carried)) in costs
        .s_min_by_position
        .iter()
        .zip(&costs.carried_by_position)
        .enumerate()
    {
        if s_min > carried * (1.0 + 1e-6) + EPS {
            report.push(
                Diagnostic::error(
                    DiagCode::EF011,
                    op.span(),
                    format!(
                        "S_min {s_min:.1}B exceeds the carried size {carried:.1}B \
                         at plan position {i}"
                    ),
                )
                .with_hint("S_min is a minimum including the carried size; check the statistics"),
            );
        }
    }
    for (i, w) in costs.carried_by_position.windows(2).enumerate() {
        if w[1] < w[0] * (1.0 - 1e-6) - EPS {
            report.push(
                Diagnostic::error(
                    DiagCode::EF011,
                    op.span(),
                    format!(
                        "carried size shrinks from {:.1}B to {:.1}B between plan \
                         positions {i} and {}",
                        w[0],
                        w[1],
                        i + 1
                    ),
                )
                .with_hint("each access appends Nik·Siv of lookup results; sizes cannot decrease"),
            );
        }
    }
}

/// EF012: the adaptive runtime reuses completed-wave outputs across a
/// mid-job plan change, which is only sound when every lookup is a pure
/// function of its key (§3.2). Non-deterministic accessors statically
/// disable that result reuse.
fn check_determinism(op: &OperatorView, report: &mut Report) {
    for (slot, acc) in nondeterministic_accessors(op.bound) {
        report.push(
            Diagnostic::warning(
                DiagCode::EF012,
                op.index_span(slot),
                format!(
                    "accessor `{}` is non-deterministic: adaptive re-optimization \
                     result-reuse is disabled for this job",
                    acc.name()
                ),
            )
            .with_hint(
                "Dynamic mode will run the static baseline plan; make lookup \
                 idempotent to re-enable adaptive optimization",
            ),
        );
    }
}

/// EF013: FullEnumerate and k-Repart disagreeing on plan cost means the
/// cheap algorithm's prefix bound is cutting off the optimum — worth
/// surfacing so the user can raise `k` or switch to full enumeration.
fn check_enumeration_agreement(op: &OperatorView, report: &mut Report) {
    let Some(costs) = op.costs else { return };
    let scale = costs.full_est_secs.abs().max(1.0);
    if (costs.full_est_secs - costs.krepart_est_secs).abs() > 1e-6 * scale {
        report.push(
            Diagnostic::warning(
                DiagCode::EF013,
                op.span(),
                format!(
                    "FullEnumerate ({:.4}s) and {}-Repart ({:.4}s) pick plans of \
                     different cost",
                    costs.full_est_secs, KREPART_K, costs.krepart_est_secs
                ),
            )
            .with_hint("raise k or use Enumeration::Full for this operator count"),
        );
    }
}

/// EF014: a volatile (non-idempotent) operator must run the baseline
/// strategy on every index — caching or deduplicating its lookups would
/// change results.
fn check_volatile_pinning(op: &OperatorView, report: &mut Report) {
    if !op.bound.volatile {
        return;
    }
    for choice in &op.plan.choices {
        if choice.strategy != Strategy::Baseline {
            report.push(
                Diagnostic::error(
                    DiagCode::EF014,
                    op.index_span(choice.index),
                    format!(
                        "volatile operator planned with the {} strategy",
                        choice.strategy.label()
                    ),
                )
                .with_hint("volatile operators are pinned to baseline in every mode (§3.2)"),
            );
        }
    }
}

/// A statistics token outside its legal range: name, value, legal range.
type BadToken = (&'static str, f64, &'static str);

/// The `[0, inf)` rule of sizes, times, `N1` and `Nik`.
fn non_negative(what: &'static str, v: f64) -> Option<BadToken> {
    (!v.is_finite() || v < 0.0).then_some((what, v, "[0, inf)"))
}

/// The legal range of every per-index token feeding Eqs. 1–4, shared by
/// `EF019` (`statsx` estimates) and `EF023` (store-served measurements).
/// A NaN is outside every range.
fn bad_index_tokens(s: &IndexStatsEstimate) -> impl Iterator<Item = BadToken> {
    [
        non_negative("Sik", s.sik),
        non_negative("Siv", s.siv),
        non_negative("Tj", s.tj_secs),
        (!(0.0..=1.0 + EPS).contains(&s.miss_ratio)).then_some(("miss", s.miss_ratio, "[0, 1]")),
        (!s.theta.is_finite() || s.theta < 1.0 - EPS).then_some(("theta", s.theta, "[1, inf)")),
        (!(0.0..1.0).contains(&s.failure_rate)).then_some(("fail", s.failure_rate, "[0, 1)")),
    ]
    .into_iter()
    .flatten()
}

/// The doubled-`N1` probe of `EF019` and `EF023`: the Eq. 1–4 estimates
/// are sums of terms linear in `N1`, so the best plan cost at `2·N1` may
/// not drop below the cost at `N1`.
fn drops_when_n1_doubles(full_est_secs: f64, doubled_est_secs: f64) -> bool {
    doubled_est_secs < full_est_secs * (1.0 - 1e-6) - EPS
}

/// EF019 (part 1): every `statsx` token feeding Eqs. 1–4 must sit in its
/// legal range. Out-of-range tokens poison every downstream estimate, so
/// they are errors, not warnings.
fn check_stats_tokens(op: &OperatorView, report: &mut Report) {
    let Some(stats) = op.stats else { return };
    for (acc, s) in op.bound.indices.iter().zip(&stats.indices) {
        for (what, value, legal) in bad_index_tokens(s).chain(non_negative("Nik", s.nik)) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF019,
                    Span::index(op.pos, op.name(), acc.name()),
                    format!("statistics token {what} = {value} is outside {legal}"),
                )
                .with_hint(
                    "the statsx extraction produced an impossible token; the Eq. 1-4 \
                     estimates built from it are meaningless",
                ),
            );
        }
    }
}

/// EF019 (part 2): the Eq. 1–4 estimates are sums of terms linear in the
/// input cardinality `N1`, so re-planning with `N1` doubled can never
/// produce a *cheaper* best plan. A decrease means the cost model and the
/// statistics disagree about what `N1` multiplies.
fn check_cost_monotonicity(op: &OperatorView, report: &mut Report) {
    let Some(costs) = op.costs else { return };
    let Some(doubled) = costs.est_at_double_n1_secs else {
        return;
    };
    if drops_when_n1_doubles(costs.full_est_secs, doubled) {
        report.push(
            Diagnostic::error(
                DiagCode::EF019,
                op.span(),
                format!(
                    "best plan cost drops from {:.6}s to {:.6}s when N1 doubles: \
                     the estimate is not monotone in input cardinality",
                    costs.full_est_secs, doubled
                ),
            )
            .with_hint(
                "Eq. 1-4 are sums of non-negative terms linear in N1; a decreasing \
                 estimate means a term is subtracting input size",
            ),
        );
    }
}

/// EF023: measured statistics injected from the cross-job store must
/// satisfy the same invariants `EF019` enforces for `statsx` tokens —
/// every token in its legal range and the Eq. 1–4 best-plan estimate
/// monotone under the doubled-`N1` probe. Errors, not warnings: a store
/// entry that fails here would poison every warm-start plan built from
/// it, so the compile aborts and the caller falls back to estimates.
fn check_measured_stats(ops: &[OperatorView], m: &MeasuredOp, report: &mut Report) {
    let pos = ops
        .iter()
        .position(|op| op.name() == m.operator)
        .unwrap_or(0);
    let indices = &m.stats.indices;
    let bad = non_negative("N1", m.stats.n1)
        .into_iter()
        .chain(indices.iter().filter_map(|s| non_negative("Nik", s.nik)))
        .chain(indices.iter().flat_map(bad_index_tokens));
    for (what, value, legal) in bad {
        report.push(
            Diagnostic::error(
                DiagCode::EF023,
                Span::operator(pos, &m.operator),
                format!("measured statistics token {what} = {value} is outside {legal}"),
            )
            .with_hint(
                "the cross-job store served an impossible token; the warm-start plan \
                 built from it is meaningless — fall back to estimates",
            ),
        );
    }
    if drops_when_n1_doubles(m.full_est_secs, m.est_at_double_n1_secs) {
        report.push(
            Diagnostic::error(
                DiagCode::EF023,
                Span::operator(pos, &m.operator),
                format!(
                    "measured-stats plan cost drops from {:.6}s to {:.6}s when the \
                     recorded N1 doubles: the estimate is not monotone in input cardinality",
                    m.full_est_secs, m.est_at_double_n1_secs
                ),
            )
            .with_hint(
                "Eq. 1-4 are sums of non-negative terms linear in N1; a decreasing \
                 estimate means the stored history disagrees with the cost model",
            ),
        );
    }
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
/// scheduling outcome. `tenant` is the tenant the runtime's jobs run as
/// ([`EFindConfig::tenant`](crate::EFindConfig::tenant)), so an unknown
/// name is caught here rather than at submit time.
fn check_tenancy(cfg: &TenancyConfig, tenant: Option<&str>, report: &mut Report) {
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
    if let Some(tenant) = tenant.filter(|&t| cfg.tenant_id(t).is_none()) {
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
fn check_hedging(env: &RuntimeEnv, ops: &[OperatorView], report: &mut Report) {
    if env.hedge.is_quiet() {
        return;
    }
    let replicas = env.dfs_replication;
    for op in ops {
        for (slot, acc) in op.bound.indices.iter().enumerate() {
            let scheme = acc.partition_scheme();
            let sides = scheme.as_ref().map_or(replicas, |s| s.num_partitions());
            if sides > 1 {
                continue;
            }
            let what = if scheme.is_some() {
                "exposes a single partition-side".to_string()
            } else {
                format!("exposes no partition scheme and the DFS holds {replicas} replica(s)")
            };
            report.push(
                Diagnostic::warning(
                    DiagCode::EF026,
                    op.index_span(slot),
                    format!(
                        "hedged lookups are armed but index `{}` {what}: the backup \
                         races the same service and can only lose",
                        acc.name()
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

/// Runs every check — structural, cost-model and configuration — over
/// the plans `Mode::Optimized` would run: the planner's own pass over the
/// runtime's store and catalog, priced in the runtime's [`CostEnv`], in
/// the environment the runtime would compile them in. Operators the
/// planner gates (volatile, index-less or degraded) are verified under
/// their baseline plan. Fails, as `Mode::Optimized` does, when an indexed,
/// non-volatile operator has no statistics.
pub fn analyze_costs(rt: &EFindRuntime<'_>, ijob: &IndexJobConf) -> Result<Report> {
    let cost_env = rt.cost_env();
    let planned = rt.optimized(ijob)?;
    let costs: Vec<_> = planned
        .priced
        .iter()
        .map(|p| {
            let (stats, _) = p.stats.as_ref()?;
            Some(operator_costs(stats, &cost_env, p.placement, &p.plan))
        })
        .collect();
    let ops: Vec<_> = planned
        .priced
        .iter()
        .zip(&costs)
        .enumerate()
        .map(|(pos, (p, costs))| OperatorView {
            pos,
            bound: p.bound,
            plan: &p.plan,
            stats: p.stats.as_ref().map(|(stats, _)| stats),
            costs: costs.as_ref(),
        })
        .collect();
    let env = rt.runtime_env(planned.measured);
    Ok(analyze(ijob, &ops, &env))
}

fn operator_costs(
    stats: &OperatorStatsEstimate,
    env: &CostEnv,
    placement: Placement,
    plan: &OperatorPlan,
) -> OperatorCosts {
    let (full_est_secs, doubled_est) = doubled_n1_probe(stats, env, placement);
    let krepart = optimize_operator(stats, env, placement, Enumeration::KRepart(KREPART_K));
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
        est_at_double_n1_secs: Some(doubled_est),
        s_min_by_position,
        carried_by_position,
    }
}

/// The accessors of an operator whose lookups are not a pure function of
/// the key, with their slots: what `EF012` warns about.
fn nondeterministic_accessors(
    bound: &BoundOperator,
) -> impl Iterator<Item = (usize, &dyn IndexAccessor)> {
    bound
        .indices
        .iter()
        .enumerate()
        .filter(|(_, acc)| !acc.deterministic())
        .map(|(slot, acc)| (slot, acc.as_ref()))
}

/// True when any bound accessor reports non-deterministic lookups — the
/// static gate (`EF012`) that disables the adaptive runtime's wave-1
/// result reuse.
pub fn has_nondeterministic_accessor(ijob: &IndexJobConf) -> bool {
    ijob.operators()
        .any(|(bound, _)| nondeterministic_accessors(bound).next().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::testutil::MemIndex;
    use crate::accessor::{IndexAccessor, PartitionScheme};
    use crate::compile::compile_pipeline;
    use crate::fault::{FaultPlan, RetryPolicy};
    use crate::operator::{operator_fn, IndexInput, IndexOutput};
    use crate::plan::{forced_plan, IndexChoice};
    use crate::runtime::{EFindConfig, Mode};
    use crate::statstore::{Fingerprint, MeasuredOp};
    use crate::statsx::Catalog;
    use efind_cluster::{
        ChaosPlan, Cluster, CorruptionPlan, IndexRateLimit, NodeId, PartitionPlan, SimTime,
        TenantSpec,
    };
    use efind_common::{Datum, KeyKind, Record};
    use efind_dfs::{Dfs, DfsConfig};
    use efind_mapreduce::{mapper_fn, reducer_fn, Collector};
    use std::sync::Arc;

    fn sample_bound(name: &str) -> BoundOperator {
        bound_over(name, MemIndex::new("mem", vec![]))
    }

    fn bound_over(name: &str, index: MemIndex) -> BoundOperator {
        bound_with(name, 1, vec![Arc::new(index)])
    }

    /// An operator declaring `arity` indices, with `indices` bound.
    fn bound_with(name: &str, arity: usize, indices: Vec<Arc<dyn IndexAccessor>>) -> BoundOperator {
        let op = operator_fn(
            name,
            arity,
            |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.key.clone()),
            |rec: Record, _v: &IndexOutput, out: &mut dyn Collector| out.collect(rec),
        );
        indices
            .into_iter()
            .fold(BoundOperator::new(op), BoundOperator::add_index)
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
    fn missing_plan_is_internal_error() {
        let ijob = sample_job(sample_bound("op"));
        let err = analyze_job_in_env(&ijob, &FxHashMap::default(), &sample_env()).unwrap_err();
        assert!(matches!(err, Error::Internal(_)), "{err}");
    }

    #[test]
    fn volatile_non_baseline_plan_fails_analysis() {
        let mut bound = sample_bound("op");
        bound.volatile = true;
        let ijob = sample_job(bound);
        let plans = plans_with(&ijob, Strategy::Cache);
        let report = analyze_job_in_env(&ijob, &plans, &sample_env()).unwrap();
        assert!(report.has_code(DiagCode::EF014));
        assert!(!report.is_passing());
    }

    /// Each shape fault earns the analyzer's code and hint from every entry
    /// point that accepts a job: `compile_pipeline` and `EFindRuntime::run`,
    /// static and adaptive. (`efind-ql` checks its `compile_checked`.)
    #[test]
    fn every_entry_point_rejects_a_bad_shape_with_its_code_and_hint() {
        let mem = Arc::new(MemIndex::new("mem", vec![]));
        let cases = [
            (
                sample_job(bound_with("op", 2, vec![mem])),
                "error[EF001]",
                "bind exactly one accessor per declared index with add_index",
            ),
            (
                sample_job(sample_bound("op")).add_body_index_operator(sample_bound("op")),
                "error[EF002]",
                "rename one of the operators; statistics and plans are keyed by name",
            ),
            (
                IndexJobConf::new("j", "in", "out").add_tail_index_operator(sample_bound("op")),
                "error[EF003]",
                "add a reduce phase or move the operator to head/body placement",
            ),
        ];
        let cluster = Cluster::builder().nodes(2).build();
        for (ijob, code, hint) in cases {
            let plans = plans_with(&ijob, Strategy::Baseline);
            let mut errors = vec![compile_pipeline(&ijob, &plans, &sample_env()).err()];
            for mode in [Mode::Uniform(Strategy::Cache), Mode::Dynamic] {
                let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
                dfs.write_file("in", (0..40i64).map(|i| Record::new(i, i)).collect());
                errors.push(EFindRuntime::new(&cluster, &mut dfs).run(&ijob, mode).err());
            }
            for error in errors {
                let message = error.expect("a bad shape is rejected").to_string();
                assert!(
                    message.contains(code) && message.contains(hint),
                    "{message}"
                );
            }
        }
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

    /// An operator over one [`TypedIndex`].
    fn typed(name: &str, kind: KeyKind, det: bool) -> BoundOperator {
        bound_with(name, 1, vec![Arc::new(TypedIndex { kind, det })])
    }

    #[test]
    fn key_kind_mismatch_is_ef007() {
        let bound = typed("op", KeyKind::Int, true).key_kinds(vec![KeyKind::Text]);
        let ijob = sample_job(bound);
        let plans = plans_with(&ijob, Strategy::Baseline);
        let report = analyze_job_in_env(&ijob, &plans, &sample_env()).unwrap();
        assert!(report.has_code(DiagCode::EF007));
        assert!(report.has_errors());
    }

    #[test]
    fn non_deterministic_accessor_warns_but_passes() {
        let bound = typed("op", KeyKind::Any, false);
        let ijob = sample_job(bound);
        assert!(has_nondeterministic_accessor(&ijob));
        let plans = plans_with(&ijob, Strategy::Baseline);
        let report = analyze_job_in_env(&ijob, &plans, &sample_env()).unwrap();
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

    /// `analyze_costs` of `ijob` on a small runtime configured by `config`
    /// whose catalog is `catalog`.
    fn analyzed(ijob: &IndexJobConf, catalog: Catalog, config: EFindConfig) -> Result<Report> {
        let cluster = Cluster::builder().nodes(2).build();
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        rt.catalog = catalog;
        analyze_costs(&rt, ijob)
    }

    /// [`analyzed`] by a quiet runtime, from statistics for every operator.
    fn cost_report(ijob: &IndexJobConf, catalog: Catalog) -> Report {
        analyzed(ijob, catalog, EFindConfig::default()).expect("every operator has statistics")
    }

    #[test]
    fn cost_analysis_on_sane_statistics_is_passing() {
        let ijob = sample_job(sample_bound("op"));
        let report = cost_report(&ijob, catalog_with("op", 2.0));
        assert!(report.is_passing(), "{}", report.to_text());
        assert!(!report.has_code(DiagCode::EF009));
        assert!(!report.has_code(DiagCode::EF011));
    }

    #[test]
    fn cost_analysis_without_statistics_fails_like_optimized() {
        let ijob = sample_job(sample_bound("op"));
        let err = analyzed(&ijob, Catalog::new(), EFindConfig::default()).unwrap_err();
        assert!(
            err.to_string()
                .contains("no catalog statistics for operator op"),
            "{err}"
        );
    }

    #[test]
    fn cost_analysis_runs_the_configuration_checks() {
        let mut faults = FaultConfig::disabled().with_plan(FaultPlan::new(7));
        faults.timeout = Some(SimDuration::ZERO);
        let config = EFindConfig {
            faults,
            ..EFindConfig::default()
        };
        let ijob = sample_job(sample_bound("op"));
        let report = analyzed(&ijob, catalog_with("op", 2.0), config).unwrap();
        assert!(report.has_code(DiagCode::EF015), "{}", report.to_text());
    }

    #[test]
    fn cost_analysis_checks_volatile_operators_under_their_baseline_plan() {
        // The planner gates a volatile operator, so the cost checks see
        // the baseline plan it runs, not an optimizer's cache plan (EF014).
        let mut bound = sample_bound("op");
        bound.volatile = true;
        let ijob = sample_job(bound);
        let report = cost_report(&ijob, catalog_with("op", 2.0));
        assert!(!report.has_code(DiagCode::EF014), "{}", report.to_text());
        assert!(report.is_clean(), "{}", report.to_text());
    }

    /// A quiet environment: no layer armed, no store-served statistics.
    fn sample_env() -> RuntimeEnv {
        RuntimeEnv {
            cache_capacity: 64,
            shuffle_reducers: 4,
            intermediate_chunks: 8,
            ..RuntimeEnv::new(
                &Cluster::builder().nodes(4).build(),
                3,
                &EFindConfig::default(),
            )
        }
    }

    #[test]
    fn out_of_range_statistics_trigger_ef019() {
        let ijob = sample_job(sample_bound("op"));
        let mut cat = catalog_with("op", 2.0);
        let mut stats = cat.get("op").unwrap().clone();
        stats.indices[0].miss_ratio = 1.5;
        cat.put("op", stats);
        let report = cost_report(&ijob, cat);
        assert!(report.has_code(DiagCode::EF019), "{}", report.to_text());

        // Sane statistics pass the same gate, and the monotonicity probe
        // is populated on every operator with catalog statistics.
        let report = cost_report(&ijob, catalog_with("op", 2.0));
        assert!(!report.has_code(DiagCode::EF019), "{}", report.to_text());
    }

    #[test]
    fn corrupt_statistics_trigger_ef009() {
        let ijob = sample_job(sample_bound("op"));
        let mut cat = catalog_with("op", 2.0);
        let mut stats = cat.get("op").unwrap().clone();
        stats.n1 = -5.0;
        cat.put("op", stats);
        let report = cost_report(&ijob, cat);
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
    /// The job a plan-check row starts from: one head operator `op` over
    /// the index `mem`, a reduce phase, a one-choice cache plan and
    /// neither statistics, costs nor store-served measurements. A row's
    /// `edit` changes it before the plan checks run.
    struct Planned {
        head: Vec<BoundOperator>,
        tail: Vec<BoundOperator>,
        reduce: bool,
        plan: OperatorPlan,
        stats: Option<OperatorStatsEstimate>,
        costs: Option<OperatorCosts>,
        measured: Vec<MeasuredOp>,
    }

    impl Planned {
        fn new() -> Self {
            Planned {
                head: vec![sample_bound("op")],
                tail: Vec::new(),
                reduce: true,
                plan: plan(vec![choice(0, Strategy::Cache)]),
                stats: None,
                costs: None,
                measured: Vec::new(),
            }
        }

        /// Runs the plan checks with every operator planned by `plan`, and
        /// the statistics and costs on the first operator.
        fn report(&self) -> Report {
            let mut ijob = IndexJobConf::new("j", "in", "out");
            ijob.head = self.head.clone();
            ijob.tail = self.tail.clone();
            if self.reduce {
                ijob = ijob.set_identity_reducer(2);
            }
            let plans = ijob
                .operators()
                .map(|(b, _)| (b.op.name().to_owned(), self.plan.clone()))
                .collect();
            let mut ops = operator_views(&ijob, &plans).unwrap();
            ops[0].stats = self.stats.as_ref();
            ops[0].costs = self.costs.as_ref();
            check_plans(&ijob, &ops, &self.measured)
        }
    }

    fn choice(index: usize, strategy: Strategy) -> IndexChoice {
        IndexChoice {
            index,
            strategy,
            est_cost_secs: 0.0,
        }
    }

    fn plan(choices: Vec<IndexChoice>) -> OperatorPlan {
        OperatorPlan {
            choices,
            est_cost_secs: 0.0,
        }
    }

    /// `op` declaring two indices, with `mem` and `mem2` bound.
    fn two_indices() -> Vec<BoundOperator> {
        let mem = |name: &str| Arc::new(MemIndex::new(name, vec![])) as Arc<dyn IndexAccessor>;
        vec![bound_with("op", 2, vec![mem("mem"), mem("mem2")])]
    }

    /// `op` over `mem` with a scheme of `n` partitions.
    fn partitioned(n: usize) -> Vec<BoundOperator> {
        let mut index = MemIndex::new("mem", vec![]);
        index.scheme = Some(Arc::new(Sides(n)));
        vec![bound_over("op", index)]
    }

    /// Legal statistics for one operator over `mem`.
    fn legal_stats() -> OperatorStatsEstimate {
        OperatorStatsEstimate {
            n1: 1000.0,
            s1: 100.0,
            spre: 80.0,
            spost: 60.0,
            smap: 40.0,
            indices: vec![IndexStatsEstimate {
                nik: 2.0,
                sik: 16.0,
                siv: 64.0,
                tj_secs: 2.0e-3,
                miss_ratio: 0.1,
                theta: 2.0,
                has_partition_scheme: false,
                shuffleable: true,
                partitions: 0,
                failure_rate: 0.0,
            }],
        }
    }

    /// The statistics of `mem`, legal until edited.
    fn index_stats(p: &mut Planned) -> &mut IndexStatsEstimate {
        &mut p.stats.get_or_insert_with(legal_stats).indices[0]
    }

    /// Consistent costs, until edited.
    fn costs(p: &mut Planned) -> &mut OperatorCosts {
        p.costs.get_or_insert_with(|| OperatorCosts {
            n1: 1000.0,
            t_cache_secs: 1.0e-6,
            full_est_secs: 1.0,
            krepart_est_secs: 1.0,
            s_min_by_position: vec![100.0],
            carried_by_position: vec![200.0],
            est_at_double_n1_secs: None,
        })
    }

    /// A store-served measurement for `op`, legal until edited.
    fn measured(p: &mut Planned) -> &mut MeasuredOp {
        p.measured.push(MeasuredOp {
            operator: "op".into(),
            fingerprint: Fingerprint(0),
            stats: legal_stats(),
            full_est_secs: 1.0,
            est_at_double_n1_secs: 1.8,
        });
        &mut p.measured[0]
    }

    /// One row of the plan-check table: [`Planned::new`] changed by
    /// `edit`, and the exact report.
    struct Row {
        name: &'static str,
        edit: fn(&mut Planned),
        report: &'static str,
    }

    fn row(name: &'static str, edit: fn(&mut Planned), report: &'static str) -> Row {
        Row { name, edit, report }
    }

    fn rows() -> Vec<Row> {
        vec![
            row("a cache plan", |_| {}, CLEAN),
            // EF001: arity and plan slots.
            row(
                "two declared indices, one bound",
                |p| p.head = vec![bound_with("op", 2, vec![Arc::new(MemIndex::new("mem", vec![]))])],
                "error[EF001] at operator #0 `op`: operator declares 2 indices but 1 accessors \
                 are bound (hint: bind exactly one accessor per declared index with add_index)\n",
            ),
            row(
                "a plan with no choices",
                |p| p.plan.choices.clear(),
                "error[EF001] at operator #0 `op`: plan covers 0 of 1 bound indices (hint: every \
                 bound index needs exactly one access choice)\n",
            ),
            row(
                "a choice out of range",
                |p| p.plan.choices[0].index = 3,
                "error[EF001] at operator #0 `op`: plan references index slot 3 but only 1 \
                 indices are bound (hint: plan slots must index into the operator's declaration \
                 order)\n",
            ),
            row(
                "a slot accessed twice",
                |p| p.plan.choices.push(choice(0, Strategy::Baseline)),
                "error[EF001] at operator #0 `op`: plan covers 2 of 1 bound indices (hint: every \
                 bound index needs exactly one access choice)\n\
                 error[EF001] at operator #0 `op`, index `mem`: index slot 0 is accessed more \
                 than once (hint: a plan accesses each index exactly once)\n",
            ),
            // EF002, EF003: the job's shape.
            row(
                "two operators of one name",
                |p| p.head.push(sample_bound("op")),
                "error[EF002] at operator #1 `op`: duplicate operator name `op` (hint: rename one \
                 of the operators; statistics and plans are keyed by name)\n",
            ),
            row(
                "a tail operator in a map-only job",
                |p| {
                    p.tail = std::mem::take(&mut p.head);
                    p.reduce = false;
                },
                "error[EF003] at operator #0 `op`: tail operator in a map-only job (hint: add a \
                 reduce phase or move the operator to head/body placement)\n",
            ),
            row(
                "a tail operator after a reduce",
                |p| p.tail = std::mem::take(&mut p.head),
                CLEAN,
            ),
            // EF004: Property 4.
            row(
                "a shuffle after a cache access",
                |p| {
                    p.head = two_indices();
                    p.plan = plan(vec![
                        choice(0, Strategy::Cache),
                        choice(1, Strategy::Repartition),
                    ]);
                },
                "error[EF004] at operator #0 `op`, index `mem2`: repart access at plan position 1 \
                 follows a non-shuffle access at position 0 (Property 4 violation) (hint: \
                 reorder the plan so shuffle-strategy indices come first)\n",
            ),
            row(
                "a shuffle before a cache access",
                |p| {
                    p.head = two_indices();
                    p.plan = plan(vec![
                        choice(0, Strategy::Repartition),
                        choice(1, Strategy::Cache),
                    ]);
                },
                CLEAN,
            ),
            // EF005, EF006: strategy capabilities.
            row(
                "index locality without a scheme",
                |p| p.plan = plan(vec![choice(0, Strategy::IndexLocality)]),
                "error[EF005] at operator #0 `op`, index `mem`: index locality chosen for an index \
                 with no partition scheme (hint: expose a PartitionScheme from the accessor or \
                 fall back to re-partitioning)\n",
            ),
            row(
                "index locality over eight partitions",
                |p| {
                    p.head = partitioned(8);
                    p.plan = plan(vec![choice(0, Strategy::IndexLocality)]);
                },
                CLEAN,
            ),
            row(
                "re-partitioning a non-shuffleable index",
                |p| {
                    p.plan = plan(vec![choice(0, Strategy::Repartition)]);
                    index_stats(p).shuffleable = false;
                },
                "error[EF006] at operator #0 `op`, index `mem`: repart strategy chosen for a \
                 non-shuffleable index (hint: non-shuffleable indices support only baseline/cache \
                 access)\n",
            ),
            // EF007: key kinds.
            row(
                "text keys for an int index",
                |p| p.head = vec![typed("op", KeyKind::Int, true).key_kinds(vec![KeyKind::Text])],
                "error[EF007] at operator #0 `op`, index `typed`: operator emits text lookup keys \
                 but the accessor expects int (hint: fix preProcess's key extraction or the \
                 accessor's declared key kind)\n",
            ),
            row(
                "any keys for an int index",
                |p| p.head = vec![typed("op", KeyKind::Int, true).key_kinds(vec![KeyKind::Any])],
                CLEAN,
            ),
            // EF008: partition schemes.
            row(
                "a scheme of zero partitions",
                |p| p.head = partitioned(0),
                "error[EF008] at operator #0 `op`, index `mem`: degenerate partition scheme: zero \
                 partitions (hint: num_partitions must be at least 1)\n",
            ),
            // EF009: cost sanity.
            row(
                "a negative access cost",
                |p| p.plan.choices[0].est_cost_secs = -1.0,
                "error[EF009] at operator #0 `op`, index `mem`: cache access cost -1 is negative \
                 or NaN (hint: cost estimates are sums of non-negative terms; check the \
                 statistics)\n",
            ),
            row(
                "a NaN plan cost",
                |p| p.plan.est_cost_secs = f64::NAN,
                "error[EF009] at operator #0 `op`: operator plan cost NaN is negative or NaN \
                 (hint: cost estimates are sums of non-negative terms; check the statistics)\n",
            ),
            // EF010: the cache probe floor, 1000 · 2 · 1 µs.
            row(
                "a cache estimate below the probe floor",
                |p| {
                    index_stats(p);
                    costs(p);
                    p.plan.choices[0].est_cost_secs = 1.0e-9;
                },
                "warning[EF010] at operator #0 `op`, index `mem`: cache estimate 0.000000s is \
                 below the T_cache probe floor 0.002000s (hint: every requested key pays at least \
                 one cache probe (Eq. 2))\n",
            ),
            row(
                "a cache estimate above the probe floor",
                |p| {
                    index_stats(p);
                    costs(p);
                    p.plan.choices[0].est_cost_secs = 5.0e-3;
                },
                CLEAN,
            ),
            // EF011: S_min and the carried size.
            row(
                "S_min above the carried size",
                |p| costs(p).s_min_by_position = vec![500.0],
                "error[EF011] at operator #0 `op`: S_min 500.0B exceeds the carried size 200.0B at \
                 plan position 0 (hint: S_min is a minimum including the carried size; check the \
                 statistics)\n",
            ),
            row(
                "a shrinking carried size",
                |p| {
                    let c = costs(p);
                    c.s_min_by_position = vec![100.0, 100.0];
                    c.carried_by_position = vec![200.0, 150.0];
                },
                "error[EF011] at operator #0 `op`: carried size shrinks from 200.0B to 150.0B \
                 between plan positions 0 and 1 (hint: each access appends Nik·Siv of lookup \
                 results; sizes cannot decrease)\n",
            ),
            // EF012, EF013: warnings.
            row(
                "a non-deterministic accessor",
                |p| p.head = vec![typed("op", KeyKind::Any, false)],
                "warning[EF012] at operator #0 `op`, index `typed`: accessor `typed` is \
                 non-deterministic: adaptive re-optimization result-reuse is disabled for this \
                 job (hint: Dynamic mode will run the static baseline plan; make lookup \
                 idempotent to re-enable adaptive optimization)\n",
            ),
            row(
                "k-Repart dearer than FullEnumerate",
                |p| costs(p).krepart_est_secs = 1.5,
                "warning[EF013] at operator #0 `op`: FullEnumerate (1.0000s) and 2-Repart \
                 (1.5000s) pick plans of different cost (hint: raise k or use Enumeration::Full \
                 for this operator count)\n",
            ),
            // EF014: volatile operators.
            row(
                "a volatile operator on the cache",
                |p| p.head[0].volatile = true,
                "error[EF014] at operator #0 `op`, index `mem`: volatile operator planned with the \
                 cache strategy (hint: volatile operators are pinned to baseline in every mode \
                 (§3.2))\n",
            ),
            row(
                "a volatile operator on baseline",
                |p| {
                    p.head[0].volatile = true;
                    p.plan = plan(vec![choice(0, Strategy::Baseline)]);
                },
                CLEAN,
            ),
            row(
                "a volatile operator on index locality without a scheme",
                |p| {
                    p.head[0].volatile = true;
                    p.plan = plan(vec![choice(0, Strategy::IndexLocality)]);
                },
                "error[EF005] at operator #0 `op`, index `mem`: index locality chosen for an index \
                 with no partition scheme (hint: expose a PartitionScheme from the accessor or \
                 fall back to re-partitioning)\n\
                 error[EF014] at operator #0 `op`, index `mem`: volatile operator planned with the \
                 idxloc strategy (hint: volatile operators are pinned to baseline in every mode \
                 (§3.2))\n",
            ),
            // EF019: statistics tokens and N1 monotonicity.
            row(
                "legal statistics",
                |p| {
                    index_stats(p);
                },
                CLEAN,
            ),
            row(
                "miss above 1",
                |p| index_stats(p).miss_ratio = 1.5,
                "error[EF019] at operator #0 `op`, index `mem`: statistics token miss = 1.5 is \
                 outside [0, 1] (hint: the statsx extraction produced an impossible token; the \
                 Eq. 1-4 estimates built from it are meaningless)\n",
            ),
            row(
                "negative miss",
                |p| index_stats(p).miss_ratio = -0.1,
                "error[EF019] at operator #0 `op`, index `mem`: statistics token miss = -0.1 is \
                 outside [0, 1] (hint: the statsx extraction produced an impossible token; the \
                 Eq. 1-4 estimates built from it are meaningless)\n",
            ),
            row(
                "theta below 1",
                |p| index_stats(p).theta = 0.5,
                "error[EF019] at operator #0 `op`, index `mem`: statistics token theta = 0.5 is \
                 outside [1, inf) (hint: the statsx extraction produced an impossible token; the \
                 Eq. 1-4 estimates built from it are meaningless)\n",
            ),
            row(
                "failure rate 1",
                |p| index_stats(p).failure_rate = 1.0,
                "error[EF019] at operator #0 `op`, index `mem`: statistics token fail = 1 is \
                 outside [0, 1) (hint: the statsx extraction produced an impossible token; the \
                 Eq. 1-4 estimates built from it are meaningless)\n",
            ),
            row(
                "negative Sik",
                |p| index_stats(p).sik = -1.0,
                "error[EF019] at operator #0 `op`, index `mem`: statistics token Sik = -1 is \
                 outside [0, inf) (hint: the statsx extraction produced an impossible token; the \
                 Eq. 1-4 estimates built from it are meaningless)\n",
            ),
            row(
                "NaN Tj",
                |p| index_stats(p).tj_secs = f64::NAN,
                "error[EF019] at operator #0 `op`, index `mem`: statistics token Tj = NaN is \
                 outside [0, inf) (hint: the statsx extraction produced an impossible token; the \
                 Eq. 1-4 estimates built from it are meaningless)\n",
            ),
            row(
                "infinite Siv",
                |p| index_stats(p).siv = f64::INFINITY,
                "error[EF019] at operator #0 `op`, index `mem`: statistics token Siv = inf is \
                 outside [0, inf) (hint: the statsx extraction produced an impossible token; the \
                 Eq. 1-4 estimates built from it are meaningless)\n",
            ),
            row(
                "NaN Nik",
                |p| index_stats(p).nik = f64::NAN,
                "error[EF019] at operator #0 `op`, index `mem`: statistics token Nik = NaN is \
                 outside [0, inf) (hint: the statsx extraction produced an impossible token; the \
                 Eq. 1-4 estimates built from it are meaningless)\n",
            ),
            row(
                "a best plan cheaper at twice N1",
                |p| costs(p).est_at_double_n1_secs = Some(0.4),
                "error[EF019] at operator #0 `op`: best plan cost drops from 1.000000s to \
                 0.400000s when N1 doubles: the estimate is not monotone in input cardinality \
                 (hint: Eq. 1-4 are sums of non-negative terms linear in N1; a decreasing \
                 estimate means a term is subtracting input size)\n",
            ),
            // Equal is legal: a plan may be dominated by N1-independent terms.
            row(
                "a best plan as dear at twice N1",
                |p| costs(p).est_at_double_n1_secs = Some(1.0),
                CLEAN,
            ),
            // EF023: store-served measurements.
            row(
                "legal measured statistics",
                |p| {
                    measured(p);
                },
                CLEAN,
            ),
            row(
                "measured N1 negative",
                |p| measured(p).stats.n1 = -1.0,
                "error[EF023] at operator #0 `op`: measured statistics token N1 = -1 is outside \
                 [0, inf) (hint: the cross-job store served an impossible token; the warm-start \
                 plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "measured N1 NaN",
                |p| measured(p).stats.n1 = f64::NAN,
                "error[EF023] at operator #0 `op`: measured statistics token N1 = NaN is outside \
                 [0, inf) (hint: the cross-job store served an impossible token; the warm-start \
                 plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "measured Nik negative",
                |p| measured(p).stats.indices[0].nik = -2.0,
                "error[EF023] at operator #0 `op`: measured statistics token Nik = -2 is outside \
                 [0, inf) (hint: the cross-job store served an impossible token; the warm-start \
                 plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "measured Nik infinite",
                |p| measured(p).stats.indices[0].nik = f64::INFINITY,
                "error[EF023] at operator #0 `op`: measured statistics token Nik = inf is outside \
                 [0, inf) (hint: the cross-job store served an impossible token; the warm-start \
                 plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "measured miss above 1",
                |p| measured(p).stats.indices[0].miss_ratio = 1.5,
                "error[EF023] at operator #0 `op`: measured statistics token miss = 1.5 is \
                 outside [0, 1] (hint: the cross-job store served an impossible token; the \
                 warm-start plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "measured miss negative",
                |p| measured(p).stats.indices[0].miss_ratio = -0.1,
                "error[EF023] at operator #0 `op`: measured statistics token miss = -0.1 is \
                 outside [0, 1] (hint: the cross-job store served an impossible token; the \
                 warm-start plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "measured theta below 1",
                |p| measured(p).stats.indices[0].theta = 0.5,
                "error[EF023] at operator #0 `op`: measured statistics token theta = 0.5 is \
                 outside [1, inf) (hint: the cross-job store served an impossible token; the \
                 warm-start plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "measured failure rate 1",
                |p| measured(p).stats.indices[0].failure_rate = 1.0,
                "error[EF023] at operator #0 `op`: measured statistics token fail = 1 is outside \
                 [0, 1) (hint: the cross-job store served an impossible token; the warm-start \
                 plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "measured Sik negative",
                |p| measured(p).stats.indices[0].sik = -1.0,
                "error[EF023] at operator #0 `op`: measured statistics token Sik = -1 is outside \
                 [0, inf) (hint: the cross-job store served an impossible token; the warm-start \
                 plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "measured Siv infinite",
                |p| measured(p).stats.indices[0].siv = f64::INFINITY,
                "error[EF023] at operator #0 `op`: measured statistics token Siv = inf is outside \
                 [0, inf) (hint: the cross-job store served an impossible token; the warm-start \
                 plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "measured Tj NaN",
                |p| measured(p).stats.indices[0].tj_secs = f64::NAN,
                "error[EF023] at operator #0 `op`: measured statistics token Tj = NaN is outside \
                 [0, inf) (hint: the cross-job store served an impossible token; the warm-start \
                 plan built from it is meaningless — fall back to estimates)\n",
            ),
            row(
                "a measured plan cheaper at twice N1",
                |p| measured(p).est_at_double_n1_secs = 0.4,
                "error[EF023] at operator #0 `op`: measured-stats plan cost drops from 1.000000s \
                 to 0.400000s when the recorded N1 doubles: the estimate is not monotone in input \
                 cardinality (hint: Eq. 1-4 are sums of non-negative terms linear in N1; a \
                 decreasing estimate means the stored history disagrees with the cost model)\n",
            ),
            row(
                "a measured plan as dear at twice N1",
                |p| measured(p).est_at_double_n1_secs = 1.0,
                CLEAN,
            ),
        ]
    }

    /// Every row's exact report, and `into_result` agreeing with it: an
    /// error fails it and its message carries each error, warnings alone
    /// pass it.
    #[test]
    fn plan_checks_report_exactly_their_findings() {
        for row in rows() {
            let mut planned = Planned::new();
            (row.edit)(&mut planned);
            let report = planned.report();
            assert_eq!(report.to_text(), row.report, "{}", row.name);
            let errors: Vec<String> = report.errors().map(|d| d.to_string()).collect();
            match report.into_result() {
                Ok(_) => assert!(errors.is_empty(), "{}", row.name),
                Err(e) => {
                    let message = e.to_string();
                    assert!(!errors.is_empty(), "{}", row.name);
                    assert!(errors.iter().all(|d| message.contains(d)), "{message}");
                }
            }
        }
    }
}
