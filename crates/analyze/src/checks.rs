//! The analysis passes: every `EFxxx` check over a [`PlanModel`].

use crate::diag::{DiagCode, Diagnostic, Report, Span};
use crate::model::{
    CacheModel, FaultModel, HedgeModel, IndexStatsModel, IntegrityModel, MeasuredStatsModel,
    OperatorModel, PartitionModel, PlanModel, StrategyKind, TenancyModel,
};

use efind_common::FxHashSet;

/// Relative tolerance for float comparisons over cost estimates.
const EPS: f64 = 1e-9;

/// Runs every check over the model and returns the combined report.
///
/// Checks are independent; one malformed operator produces every
/// diagnostic it earns, not just the first.
pub fn analyze(model: &PlanModel) -> Report {
    let mut report = Report::new();
    check_duplicate_names(model, &mut report);
    for (pos, op) in model.operators.iter().enumerate() {
        check_arity(pos, op, &mut report);
        check_tail_placement(pos, op, model, &mut report);
        check_strategy_order(pos, op, &mut report);
        check_strategy_capabilities(pos, op, &mut report);
        check_key_kinds(pos, op, &mut report);
        check_partition_schemes(pos, op, &mut report);
        check_cost_sanity(pos, op, &mut report);
        check_cache_floor(pos, op, &mut report);
        check_s_min_monotonicity(pos, op, &mut report);
        check_determinism(pos, op, &mut report);
        check_enumeration_agreement(pos, op, &mut report);
        check_volatile_pinning(pos, op, &mut report);
        check_stats_tokens(pos, op, &mut report);
        check_cost_monotonicity(pos, op, &mut report);
    }
    if let Some(faults) = &model.faults {
        check_fault_config(faults, &mut report);
    }
    if let Some(integrity) = &model.integrity {
        check_integrity_config(model, integrity, &mut report);
    }
    check_injection_conflicts(model, &mut report);
    if let Some(cache) = &model.cache {
        check_cache_coherence(model, cache, &mut report);
    }
    for m in &model.measured {
        check_measured_stats(model, m, &mut report);
    }
    if let Some(tenancy) = &model.tenancy {
        check_tenancy_config(model, tenancy, &mut report);
    }
    if let Some(partition) = &model.partition {
        check_partition_config(partition, &mut report);
    }
    if let Some(hedge) = &model.hedge {
        check_hedge_config(model, hedge, &mut report);
    }
    report
}

/// EF002: operator names must be unique within one job.
fn check_duplicate_names(model: &PlanModel, report: &mut Report) {
    let mut seen = FxHashSet::default();
    for (pos, op) in model.operators.iter().enumerate() {
        if !seen.insert(op.name.as_str()) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF002,
                    Span::operator(pos, &op.name),
                    format!("duplicate operator name `{}`", op.name),
                )
                .with_hint("rename one of the operators; statistics and plans are keyed by name"),
            );
        }
    }
}

/// EF001: bound accessors and plan choices must both match the declared
/// arity, and every choice must target a distinct, in-range slot.
fn check_arity(pos: usize, op: &OperatorModel, report: &mut Report) {
    let span = || Span::operator(pos, &op.name);
    if op.indices.len() != op.declared_arity {
        report.push(
            Diagnostic::error(
                DiagCode::EF001,
                span(),
                format!(
                    "operator declares {} indices but {} accessors are bound",
                    op.declared_arity,
                    op.indices.len()
                ),
            )
            .with_hint("bind exactly one accessor per declared index with add_index"),
        );
    }
    if op.choices.len() != op.indices.len() {
        report.push(
            Diagnostic::error(
                DiagCode::EF001,
                span(),
                format!(
                    "plan covers {} of {} bound indices",
                    op.choices.len(),
                    op.indices.len()
                ),
            )
            .with_hint("every bound index needs exactly one access choice"),
        );
    }
    let mut seen = FxHashSet::default();
    for choice in &op.choices {
        if choice.slot >= op.indices.len() {
            report.push(
                Diagnostic::error(
                    DiagCode::EF001,
                    span(),
                    format!(
                        "plan references index slot {} but only {} indices are bound",
                        choice.slot,
                        op.indices.len()
                    ),
                )
                .with_hint("plan slots must index into the operator's declaration order"),
            );
        } else if !seen.insert(choice.slot) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF001,
                    Span::index(pos, &op.name, &op.indices[choice.slot].name),
                    format!("index slot {} is accessed more than once", choice.slot),
                )
                .with_hint("a plan accesses each index exactly once"),
            );
        }
    }
}

/// EF003: tail operators need a reduce phase to attach to.
fn check_tail_placement(pos: usize, op: &OperatorModel, model: &PlanModel, report: &mut Report) {
    if matches!(op.placement, crate::model::PlacementKind::Tail) && !model.has_reduce {
        report.push(
            Diagnostic::error(
                DiagCode::EF003,
                Span::operator(pos, &op.name),
                "tail operator in a map-only job",
            )
            .with_hint("add a reduce phase or move the operator to head/body placement"),
        );
    }
}

/// EF004 (Property 4): shuffle-strategy accesses must precede
/// baseline/cache accesses — a shuffle after a record-wise lookup would
/// re-shuffle data that already carries lookup results, which the cost
/// model proves is never optimal and the compiler never exploits.
fn check_strategy_order(pos: usize, op: &OperatorModel, report: &mut Report) {
    let mut non_shuffle_at: Option<usize> = None;
    for (i, choice) in op.choices.iter().enumerate() {
        if choice.strategy.is_shuffle() {
            if let Some(prev) = non_shuffle_at {
                let idx_name = op
                    .indices
                    .get(choice.slot)
                    .map(|m| m.name.as_str())
                    .unwrap_or("?");
                report.push(
                    Diagnostic::error(
                        DiagCode::EF004,
                        Span::index(pos, &op.name, idx_name),
                        format!(
                            "{} access at plan position {i} follows a non-shuffle access \
                             at position {prev} (Property 4 violation)",
                            choice.strategy.label(),
                        ),
                    )
                    .with_hint("reorder the plan so shuffle-strategy indices come first"),
                );
            }
        } else {
            non_shuffle_at.get_or_insert(i);
        }
    }
}

/// EF005/EF006: a strategy may only be chosen for an index that supports
/// it — index locality needs a partition scheme, shuffles need a
/// shuffleable index.
fn check_strategy_capabilities(pos: usize, op: &OperatorModel, report: &mut Report) {
    for choice in &op.choices {
        let Some(idx) = op.indices.get(choice.slot) else {
            continue; // out-of-range slots already reported as EF001
        };
        let span = || Span::index(pos, &op.name, &idx.name);
        if choice.strategy == StrategyKind::IndexLocality && !idx.has_partition_scheme {
            report.push(
                Diagnostic::error(
                    DiagCode::EF005,
                    span(),
                    "index locality chosen for an index with no partition scheme",
                )
                .with_hint(
                    "expose a PartitionScheme from the accessor or fall back to re-partitioning",
                ),
            );
        }
        if choice.strategy.is_shuffle() && !idx.shuffleable {
            report.push(
                Diagnostic::error(
                    DiagCode::EF006,
                    span(),
                    format!(
                        "{} strategy chosen for a non-shuffleable index",
                        choice.strategy.label()
                    ),
                )
                .with_hint("non-shuffleable indices support only baseline/cache access"),
            );
        }
    }
}

/// EF007: the key kind an operator emits for a slot must be compatible
/// with what the accessor accepts.
fn check_key_kinds(pos: usize, op: &OperatorModel, report: &mut Report) {
    for (slot, idx) in op.indices.iter().enumerate() {
        let emitted = op.lookup_key_kinds.get(slot).copied().unwrap_or_default();
        if !emitted.compatible(idx.key_kind) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF007,
                    Span::index(pos, &op.name, &idx.name),
                    format!(
                        "operator emits {} lookup keys but the accessor expects {}",
                        emitted.label(),
                        idx.key_kind.label()
                    ),
                )
                .with_hint("fix preProcess's key extraction or the accessor's declared key kind"),
            );
        }
    }
}

/// EF008: a partition scheme with zero partitions cannot route anything.
fn check_partition_schemes(pos: usize, op: &OperatorModel, report: &mut Report) {
    for idx in &op.indices {
        if idx.has_partition_scheme && idx.partitions == 0 {
            report.push(
                Diagnostic::error(
                    DiagCode::EF008,
                    Span::index(pos, &op.name, &idx.name),
                    "degenerate partition scheme: zero partitions",
                )
                .with_hint("num_partitions must be at least 1"),
            );
        }
    }
}

/// EF009: every cost estimate must be a non-negative finite number.
fn check_cost_sanity(pos: usize, op: &OperatorModel, report: &mut Report) {
    let bad = |v: f64| v.is_nan() || v < -EPS;
    let span = || Span::operator(pos, &op.name);
    if bad(op.est_cost_secs) {
        report.push(
            Diagnostic::error(
                DiagCode::EF009,
                span(),
                format!("operator plan cost {} is negative or NaN", op.est_cost_secs),
            )
            .with_hint("cost estimates are sums of non-negative terms; check the statistics"),
        );
    }
    for choice in &op.choices {
        if bad(choice.est_cost_secs) {
            let idx_name = op
                .indices
                .get(choice.slot)
                .map(|m| m.name.as_str())
                .unwrap_or("?");
            report.push(
                Diagnostic::error(
                    DiagCode::EF009,
                    Span::index(pos, &op.name, idx_name),
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
    if let Some(costs) = &op.costs {
        for (what, v) in [
            ("N1", costs.n1),
            ("FullEnumerate cost", costs.full_est_secs),
            ("k-Repart cost", costs.krepart_est_secs),
        ] {
            if bad(v) {
                report.push(
                    Diagnostic::error(
                        DiagCode::EF009,
                        span(),
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
                            span(),
                            format!("size term {v} is negative or NaN"),
                        )
                        .with_hint("record and result sizes must be non-negative"),
                    );
                }
            }
        }
    }
}

/// EF010: a cache-strategy estimate can never be below the probe floor
/// `N1 · Nik · T_cache` — every key pays at least one cache probe (Eq. 2).
fn check_cache_floor(pos: usize, op: &OperatorModel, report: &mut Report) {
    let Some(costs) = &op.costs else { return };
    for choice in &op.choices {
        if choice.strategy != StrategyKind::Cache || choice.est_cost_secs <= 0.0 {
            continue; // forced plans carry est 0.0 — nothing to sanity-check
        }
        let Some(idx) = op.indices.get(choice.slot) else {
            continue;
        };
        let Some(nik) = idx.nik else { continue };
        let floor = costs.n1 * nik * costs.t_cache_secs;
        if choice.est_cost_secs < floor * (1.0 - 1e-6) {
            report.push(
                Diagnostic::warning(
                    DiagCode::EF010,
                    Span::index(pos, &op.name, &idx.name),
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
fn check_s_min_monotonicity(pos: usize, op: &OperatorModel, report: &mut Report) {
    let Some(costs) = &op.costs else { return };
    let span = || Span::operator(pos, &op.name);
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
                    span(),
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
                    span(),
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
fn check_determinism(pos: usize, op: &OperatorModel, report: &mut Report) {
    for idx in &op.indices {
        if !idx.deterministic {
            report.push(
                Diagnostic::warning(
                    DiagCode::EF012,
                    Span::index(pos, &op.name, &idx.name),
                    format!(
                        "accessor `{}` is non-deterministic: adaptive re-optimization \
                         result-reuse is disabled for this job",
                        idx.name
                    ),
                )
                .with_hint(
                    "Dynamic mode will run the static baseline plan; make lookup \
                     idempotent to re-enable adaptive optimization",
                ),
            );
        }
    }
}

/// EF013: FullEnumerate and k-Repart disagreeing on plan cost means the
/// cheap algorithm's prefix bound is cutting off the optimum — worth
/// surfacing so the user can raise `k` or switch to full enumeration.
fn check_enumeration_agreement(pos: usize, op: &OperatorModel, report: &mut Report) {
    let Some(costs) = &op.costs else { return };
    let scale = costs.full_est_secs.abs().max(1.0);
    if (costs.full_est_secs - costs.krepart_est_secs).abs() > 1e-6 * scale {
        report.push(
            Diagnostic::warning(
                DiagCode::EF013,
                Span::operator(pos, &op.name),
                format!(
                    "FullEnumerate ({:.4}s) and {}-Repart ({:.4}s) pick plans of \
                     different cost",
                    costs.full_est_secs, costs.krepart_k, costs.krepart_est_secs
                ),
            )
            .with_hint("raise k or use Enumeration::Full for this operator count"),
        );
    }
}

/// EF014: a volatile (non-idempotent) operator must run the baseline
/// strategy on every index — caching or deduplicating its lookups would
/// change results.
fn check_volatile_pinning(pos: usize, op: &OperatorModel, report: &mut Report) {
    if !op.volatile {
        return;
    }
    for choice in &op.choices {
        if choice.strategy != StrategyKind::Baseline {
            let idx_name = op
                .indices
                .get(choice.slot)
                .map(|m| m.name.as_str())
                .unwrap_or("?");
            report.push(
                Diagnostic::error(
                    DiagCode::EF014,
                    Span::index(pos, &op.name, idx_name),
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

/// EF015/EF016: fault-tolerance configuration sanity. Runs only when the
/// fault layer is armed; a job without faults never sees these codes.
fn check_fault_config(f: &FaultModel, report: &mut Report) {
    if f.timeout_nanos == Some(0) {
        report.push(
            Diagnostic::error(
                DiagCode::EF015,
                Span::job(),
                "per-index timeout is zero: every lookup attempt times out before it can answer",
            )
            .with_hint(
                "set the timeout above the slowest expected serve + transfer time, \
                 or drop it to disable timeout enforcement",
            ),
        );
    }
    if f.fail_job_on_exhaustion && f.max_retries == 0 {
        report.push(
            Diagnostic::warning(
                DiagCode::EF016,
                Span::job(),
                "FailJob miss policy with zero retries: one transient failure fails the whole job",
            )
            .with_hint("allow at least one retry, or degrade misses instead of failing the job"),
        );
    }
    if f.backoff_base_nanos > f.max_backoff_nanos {
        report.push(
            Diagnostic::warning(
                DiagCode::EF016,
                Span::job(),
                format!(
                    "backoff base ({} ns) exceeds its cap ({} ns): every pause clamps to the cap",
                    f.backoff_base_nanos, f.max_backoff_nanos
                ),
            )
            .with_hint("raise max_backoff or lower the base so the exponential schedule applies"),
        );
    }
    if f.breaker_threshold < 1.0 && f.breaker_min_samples <= u64::from(f.max_retries) {
        report.push(
            Diagnostic::warning(
                DiagCode::EF016,
                Span::job(),
                format!(
                    "breaker min-samples ({}) within one key's retry budget ({}): a single \
                     black-holed key can open the breaker and degrade the whole task",
                    f.breaker_min_samples, f.max_retries
                ),
            )
            .with_hint("raise breaker_min_samples above max_retries"),
        );
    }
}

/// EF017/EF018: data-integrity configuration sanity. Runs only when a
/// corruption plan is armed; a job without injected corruption never sees
/// these codes.
fn check_integrity_config(model: &PlanModel, integ: &IntegrityModel, report: &mut Report) {
    if integ.corrupts_chunks && integ.dfs_replication <= 1 {
        report.push(
            Diagnostic::error(
                DiagCode::EF017,
                Span::job(),
                format!(
                    "chunk corruption is injected but DFS replication is {}: the first \
                     corrupted chunk has no intact replica and the job fails by construction",
                    integ.dfs_replication
                ),
            )
            .with_hint(
                "raise the DFS replication factor to at least 2 so a corrupt replica \
                 can be quarantined and re-read, or stop corrupting chunks",
            ),
        );
    }
    if integ.corrupts_cache && !integ.verification {
        let cache_in_use = model
            .operators
            .iter()
            .any(|op| op.choices.iter().any(|c| c.strategy == StrategyKind::Cache));
        if cache_in_use {
            report.push(
                Diagnostic::warning(
                    DiagCode::EF018,
                    Span::job(),
                    "lookup-cache corruption is injected with checksum verification \
                     disabled: poisoned cache entries would be served undetected",
                )
                .with_hint(
                    "keep verification enabled (drop without_verification) so poisoned \
                     entries are invalidated and re-fetched, or stop corrupting the cache",
                ),
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
fn bad_index_tokens(s: &IndexStatsModel) -> impl Iterator<Item = BadToken> {
    [
        non_negative("Sik", s.sik_bytes),
        non_negative("Siv", s.siv_bytes),
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
fn check_stats_tokens(pos: usize, op: &OperatorModel, report: &mut Report) {
    for idx in &op.indices {
        let Some(s) = &idx.stats else { continue };
        let nik = idx.nik.and_then(|nik| non_negative("Nik", nik));
        for (what, value, legal) in bad_index_tokens(s).chain(nik) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF019,
                    Span::index(pos, &op.name, &idx.name),
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
fn check_cost_monotonicity(pos: usize, op: &OperatorModel, report: &mut Report) {
    let Some(costs) = &op.costs else { return };
    let Some(doubled) = costs.est_at_double_n1_secs else {
        return;
    };
    if drops_when_n1_doubles(costs.full_est_secs, doubled) {
        report.push(
            Diagnostic::error(
                DiagCode::EF019,
                Span::operator(pos, &op.name),
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
fn check_measured_stats(model: &PlanModel, m: &MeasuredStatsModel, report: &mut Report) {
    let pos = model
        .operators
        .iter()
        .position(|op| op.name == m.operator)
        .unwrap_or(0);
    let bad = non_negative("N1", m.n1)
        .into_iter()
        .chain(m.nik.iter().filter_map(|&nik| non_negative("Nik", nik)))
        .chain(m.indices.iter().flat_map(bad_index_tokens));
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

/// EF020: conflicts *between* injection layers. Each layer alone is
/// checked by EF015–EF018; this check catches combinations that are
/// unsurvivable (chaos kills the whole cluster) or quietly exhaust the
/// recovery budget (kills plus corruption quarantines outrun the replica
/// count).
fn check_injection_conflicts(model: &PlanModel, report: &mut Report) {
    let Some(chaos) = &model.chaos else { return };
    if chaos.cluster_nodes > 0 && chaos.kill_events >= chaos.cluster_nodes {
        report.push(
            Diagnostic::error(
                DiagCode::EF020,
                Span::job(),
                format!(
                    "chaos plan kills {} nodes of a {}-node cluster: no node survives \
                     to finish any wave",
                    chaos.kill_events, chaos.cluster_nodes
                ),
            )
            .with_hint("keep at least one node alive; recovery needs somewhere to run"),
        );
    }
    if chaos.kill_events >= 1 && chaos.dfs_replication <= 1 {
        report.push(
            Diagnostic::warning(
                DiagCode::EF020,
                Span::job(),
                format!(
                    "node kills are scheduled with DFS replication {}: any chunk on a \
                     killed node is lost with no replica to recover from",
                    chaos.dfs_replication
                ),
            )
            .with_hint(
                "raise replication to at least 2, or accept that the run exercises \
                 the data-loss path by design",
            ),
        );
    }
    if let Some(integ) = &model.integrity {
        if integ.corrupts_chunks
            && chaos.dfs_replication > 1
            && chaos.kill_events + 1 >= chaos.dfs_replication
        {
            report.push(
                Diagnostic::warning(
                    DiagCode::EF020,
                    Span::job(),
                    format!(
                        "{} node kills plus chunk corruption against replication {}: \
                         one quarantined replica plus the kills can exhaust every copy",
                        chaos.kill_events, chaos.dfs_replication
                    ),
                )
                .with_hint(
                    "keep replication above kill_events + 1 when combining chaos with \
                     chunk corruption, or the layers defeat each other's experiment",
                ),
            );
        }
    }
}

/// EF021: cache-config coherence. A plan that chose the cache strategy
/// based on Eq. 2 must actually get a usable cache at runtime.
fn check_cache_coherence(model: &PlanModel, cache: &CacheModel, report: &mut Report) {
    let cache_in_use = model
        .operators
        .iter()
        .any(|op| op.choices.iter().any(|c| c.strategy == StrategyKind::Cache));
    if cache.t_cache_secs.is_nan() || cache.t_cache_secs < 0.0 {
        report.push(
            Diagnostic::error(
                DiagCode::EF021,
                Span::job(),
                format!(
                    "cache probe time T_cache = {} is negative or NaN",
                    cache.t_cache_secs
                ),
            )
            .with_hint("T_cache is a physical time; it must be a finite non-negative number"),
        );
    }
    if !cache_in_use {
        return;
    }
    if cache.capacity == 0 {
        report.push(
            Diagnostic::error(
                DiagCode::EF021,
                Span::job(),
                "a cache-strategy plan is installed but the lookup cache holds zero \
                 entries: every probe misses and the plan degenerates to baseline \
                 plus pure overhead",
            )
            .with_hint("set cache_capacity to at least 1, or re-plan without the cache strategy"),
        );
    } else if cache.t_cache_secs == 0.0 {
        report.push(
            Diagnostic::warning(
                DiagCode::EF021,
                Span::job(),
                "cache strategy planned with T_cache = 0: probes are free and the \
                 Eq. 2 floor is degenerate, so the planner can never prefer baseline",
            )
            .with_hint("use a small positive T_cache so cache and baseline stay comparable"),
        );
    }
}

/// EF025: gray-failure configuration sanity. Partitions cut visibility,
/// never state, so a cut that heals is always survivable — but a cut that
/// *never* heals permanently removes its nodes from the reachable replica
/// budget, and a cut isolating the whole cluster leaves no side to finish
/// the job. The detector is also checked: suspicion below the heartbeat
/// interval means every node is suspected on its first silent beat, so
/// false positives dominate and re-placement churns.
fn check_partition_config(partition: &PartitionModel, report: &mut Report) {
    if partition.cluster_nodes > 0 && partition.permanently_isolated >= partition.cluster_nodes {
        report.push(
            Diagnostic::error(
                DiagCode::EF025,
                Span::job(),
                format!(
                    "an unhealed partition isolates all {} nodes of the cluster: \
                     no reachable side is left to finish the job",
                    partition.cluster_nodes
                ),
            )
            .with_hint("give the cut a heal time, or leave at least one node reachable"),
        );
    }
    if partition.permanently_isolated >= 1 && partition.dfs_replication <= 1 {
        report.push(
            Diagnostic::warning(
                DiagCode::EF025,
                Span::job(),
                format!(
                    "{} node(s) stay isolated forever with DFS replication {}: any \
                     chunk hosted behind the cut has no reachable replica and the \
                     job fails fast with a partition error",
                    partition.permanently_isolated, partition.dfs_replication
                ),
            )
            .with_hint(
                "raise replication to at least 2, heal the cut, or accept that the \
                 run exercises the fail-fast path by design",
            ),
        );
    }
    if partition.heartbeat_interval_nanos >= partition.suspicion_nanos {
        report.push(
            Diagnostic::warning(
                DiagCode::EF025,
                Span::job(),
                format!(
                    "detector heartbeat interval ({} ns) is at or above the suspicion \
                     threshold ({} ns): every silent beat immediately suspects the \
                     node, so false positives dominate and tasks churn between nodes",
                    partition.heartbeat_interval_nanos, partition.suspicion_nanos
                ),
            )
            .with_hint("keep the suspicion threshold at 2-3 heartbeat intervals"),
        );
    }
}

/// EF026: pointless hedging. A hedged lookup races a backup against a
/// *different* replica or partition-side of the index; an accessor that
/// exposes only one side (a single-partition scheme, or no scheme over an
/// unreplicated DFS) makes the backup race the very service it is hedging
/// against — it can never answer sooner and only adds virtual cost under
/// the charge-both policy.
fn check_hedge_config(model: &PlanModel, hedge: &HedgeModel, report: &mut Report) {
    for (pos, op) in model.operators.iter().enumerate() {
        for idx in &op.indices {
            let sides = if idx.has_partition_scheme {
                idx.partitions
            } else {
                hedge.dfs_replication
            };
            if sides <= 1 {
                let what = if idx.has_partition_scheme {
                    "exposes a single partition-side".to_string()
                } else {
                    format!(
                        "exposes no partition scheme and the DFS holds {} replica(s)",
                        hedge.dfs_replication
                    )
                };
                report.push(
                    Diagnostic::warning(
                        DiagCode::EF026,
                        Span::index(pos, &op.name, &idx.name),
                        format!(
                            "hedged lookups are armed but index `{}` {}: the backup \
                             races the same service and can only lose",
                            idx.name, what
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
}

/// EF024: tenancy-config coherence. The multi-tenant scheduler is built
/// to reject deterministically rather than hang, but a configuration with
/// zero-slot quotas or degenerate weights rejects (or starves) *every*
/// job by construction — that is a config error, not a scheduling
/// outcome. Rate limits are softer: a bucket whose sustained rate plus
/// burst cannot cover the job's expected lookup demand within its own
/// estimated runtime likely starves the job it admits, so it warns.
fn check_tenancy_config(model: &PlanModel, tenancy: &TenancyModel, report: &mut Report) {
    let span = Span::job;
    // Tenant table: names must be usable as counter segments and unique;
    // quotas and weights must leave the tenant able to run something.
    let mut seen = FxHashSet::default();
    for t in &tenancy.tenants {
        if t.name.is_empty() || t.name.contains('.') {
            report.push(
                Diagnostic::error(
                    DiagCode::EF024,
                    span(),
                    format!(
                        "tenant name {:?} is not a legal counter segment \
                         (must be non-empty and dot-free)",
                        t.name
                    ),
                )
                .with_hint("tenant names become `efind.tenant.<name>.*` counter segments"),
            );
        }
        if !seen.insert(t.name.as_str()) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF024,
                    span(),
                    format!("duplicate tenant name {:?}", t.name),
                )
                .with_hint("each tenant must be declared exactly once"),
            );
        }
        if t.weight == 0 {
            report.push(
                Diagnostic::error(
                    DiagCode::EF024,
                    span(),
                    format!(
                        "tenant {:?} has deficit weight 0: it accrues no credit \
                         and can never win a grant",
                        t.name
                    ),
                )
                .with_hint("weights must be at least 1; starvation-freedom assumes it"),
            );
        }
        if t.max_running == 0 {
            report.push(
                Diagnostic::error(
                    DiagCode::EF024,
                    span(),
                    format!(
                        "tenant {:?} has max_running = 0: admitted jobs can never start",
                        t.name
                    ),
                )
                .with_hint("a zero-slot running quota turns every admission into a hang risk"),
            );
        }
        if t.max_queued == 0 {
            report.push(
                Diagnostic::error(
                    DiagCode::EF024,
                    span(),
                    format!(
                        "tenant {:?} has max_queued = 0: every submission is \
                         quota-rejected at the door",
                        t.name
                    ),
                )
                .with_hint("give each tenant at least one queue slot, or remove the tenant"),
            );
        }
        if t.cache_share.is_nan() || !(0.0..=1.0).contains(&t.cache_share) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF024,
                    span(),
                    format!(
                        "tenant {:?} has cache share {} outside [0, 1]",
                        t.name, t.cache_share
                    ),
                )
                .with_hint("shares are fractions of the shared lookup-cache capacity"),
            );
        }
    }
    let share_sum: f64 = tenancy
        .tenants
        .iter()
        .map(|t| t.cache_share.clamp(0.0, 1.0))
        .sum();
    if share_sum > 1.0 + EPS {
        report.push(
            Diagnostic::warning(
                DiagCode::EF024,
                span(),
                format!(
                    "tenant cache shares sum to {share_sum:.3}: the shared cache \
                     is oversubscribed and reservations cannot all be honored"
                ),
            )
            .with_hint("keep the share sum at or below 1.0"),
        );
    }
    // Global admission bounds: zero capacity rejects or stalls everything.
    if tenancy.queue_capacity == 0 {
        report.push(
            Diagnostic::error(
                DiagCode::EF024,
                span(),
                "admission queue capacity is 0: every submission that cannot start \
                 immediately is rejected",
            )
            .with_hint("size the queue for the expected burst, or at least 1"),
        );
    }
    if tenancy.max_concurrent == 0 {
        report.push(
            Diagnostic::error(
                DiagCode::EF024,
                span(),
                "max_concurrent is 0: no job can ever be granted a slot",
            )
            .with_hint("allow at least one concurrent job"),
        );
    }
    // Job tag: an unknown tenant is rejected at submit time — catch it
    // at analysis time instead.
    if let Some(job_tenant) = &tenancy.job_tenant {
        if !tenancy.tenants.is_empty() && !tenancy.tenants.iter().any(|t| &t.name == job_tenant) {
            report.push(
                Diagnostic::error(
                    DiagCode::EF024,
                    span(),
                    format!(
                        "job is tagged with tenant {job_tenant:?}, which is not \
                         declared in the tenancy configuration"
                    ),
                )
                .with_hint("declare the tenant, or drop the job's tenant tag"),
            );
        }
    }
    // QoS knobs are virtual times; negative or NaN values are meaningless.
    for (what, v) in [
        ("degrade_threshold", tenancy.degrade_threshold_secs),
        ("scan_fallback_cost", tenancy.scan_fallback_cost_secs),
    ] {
        if v.is_nan() || v < 0.0 {
            report.push(
                Diagnostic::error(
                    DiagCode::EF024,
                    span(),
                    format!("QoS parameter {what} = {v} is negative or NaN"),
                )
                .with_hint("QoS thresholds are virtual durations; use finite non-negative values"),
            );
        }
    }
    // Rate limits: malformed buckets are errors; a well-formed bucket
    // that cannot cover the job's expected lookup demand over its own
    // estimated runtime is a starvation warning.
    for rl in &tenancy.rate_limits {
        if rl.rate_per_sec.is_nan() || rl.rate_per_sec < 0.0 || rl.burst.is_nan() || rl.burst < 0.0
        {
            report.push(
                Diagnostic::error(
                    DiagCode::EF024,
                    span(),
                    format!(
                        "rate limit for index {:?} has negative or NaN parameters \
                         (rate = {}, burst = {})",
                        rl.index, rl.rate_per_sec, rl.burst
                    ),
                )
                .with_hint("token-bucket rate and burst must be finite and non-negative"),
            );
            continue;
        }
        if rl.rate_per_sec == 0.0 && rl.burst == 0.0 {
            report.push(
                Diagnostic::error(
                    DiagCode::EF024,
                    span(),
                    format!(
                        "rate limit for index {:?} has zero rate and zero burst: \
                         no lookup can ever be charged",
                        rl.index
                    ),
                )
                .with_hint("give the bucket a positive rate or burst, or remove the limit"),
            );
            continue;
        }
        // Expected lookups against this index: Σ over operators of
        // N1 × Nik for every bound accessor matching the limited name.
        let mut demand = 0.0;
        let mut runtime_secs = 0.0;
        for op in &model.operators {
            let Some(costs) = &op.costs else { continue };
            runtime_secs += op.est_cost_secs.max(0.0);
            for idx in &op.indices {
                if idx.name == rl.index {
                    if let Some(nik) = idx.nik {
                        demand += costs.n1.max(0.0) * nik.max(0.0);
                    }
                }
            }
        }
        if demand <= 0.0 {
            continue;
        }
        let supply = if runtime_secs > 0.0 {
            rl.rate_per_sec * runtime_secs + rl.burst
        } else {
            // No runtime estimate: only the burst is guaranteed without
            // paying queueing delay.
            rl.burst
        };
        if supply + EPS < demand {
            report.push(
                Diagnostic::warning(
                    DiagCode::EF024,
                    span(),
                    format!(
                        "rate limit for index {:?} supplies ~{supply:.0} lookups over \
                         the job's estimated runtime but the plan expects ~{demand:.0}: \
                         the job will spend most of its time throttled or degraded to scan",
                        rl.index
                    ),
                )
                .with_hint(
                    "raise the rate or burst, or accept that this job is expected to \
                     run degraded under contention",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use crate::model::testutil::{index, job, operator};
    use crate::model::{ChoiceModel, OperatorCosts, PlacementKind};
    use efind_common::KeyKind;

    fn codes(report: &Report) -> Vec<DiagCode> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    fn costs() -> OperatorCosts {
        OperatorCosts {
            n1: 1000.0,
            t_cache_secs: 1.0e-6,
            full_est_secs: 1.0,
            krepart_est_secs: 1.0,
            krepart_k: 2,
            s_min_by_position: vec![100.0],
            carried_by_position: vec![200.0],
            est_at_double_n1_secs: None,
        }
    }

    #[test]
    fn clean_plan_produces_no_diagnostics() {
        let report = analyze(&job(vec![operator("a", StrategyKind::Cache)]));
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn ef001_arity_mismatch() {
        let mut op = operator("a", StrategyKind::Baseline);
        op.declared_arity = 2; // one accessor bound
        let report = analyze(&job(vec![op]));
        assert!(report.has_code(DiagCode::EF001));
        assert!(report.has_errors());

        let mut op = operator("a", StrategyKind::Baseline);
        op.choices.clear(); // plan covers 0 of 1 indices
        assert!(analyze(&job(vec![op])).has_code(DiagCode::EF001));

        let mut op = operator("a", StrategyKind::Baseline);
        op.choices[0].slot = 3; // out of range
        assert!(analyze(&job(vec![op])).has_code(DiagCode::EF001));

        let mut op = operator("a", StrategyKind::Baseline);
        op.choices.push(op.choices[0]); // duplicate slot
        assert!(analyze(&job(vec![op])).has_code(DiagCode::EF001));
    }

    #[test]
    fn ef002_duplicate_names() {
        let report = analyze(&job(vec![
            operator("same", StrategyKind::Baseline),
            operator("same", StrategyKind::Cache),
        ]));
        assert_eq!(codes(&report), vec![DiagCode::EF002]);
        assert!(report.has_errors());
    }

    #[test]
    fn ef003_tail_without_reduce() {
        let mut op = operator("t", StrategyKind::Baseline);
        op.placement = PlacementKind::Tail;
        let mut model = job(vec![op]);
        model.has_reduce = false;
        let report = analyze(&model);
        assert_eq!(codes(&report), vec![DiagCode::EF003]);
        // With a reduce phase the same operator is fine.
        let mut op = operator("t", StrategyKind::Baseline);
        op.placement = PlacementKind::Tail;
        assert!(analyze(&job(vec![op])).is_clean());
    }

    #[test]
    fn ef004_shuffle_after_non_shuffle() {
        let mut op = operator("a", StrategyKind::Cache);
        op.declared_arity = 2;
        op.indices.push(index("idx2"));
        op.choices.push(ChoiceModel {
            slot: 1,
            strategy: StrategyKind::Repartition,
            est_cost_secs: 0.0,
        });
        let report = analyze(&job(vec![op]));
        assert_eq!(codes(&report), vec![DiagCode::EF004]);

        // The legal order — shuffle first — is clean.
        let mut op = operator("a", StrategyKind::Repartition);
        op.declared_arity = 2;
        op.indices.push(index("idx2"));
        op.choices.push(ChoiceModel {
            slot: 1,
            strategy: StrategyKind::Cache,
            est_cost_secs: 0.0,
        });
        assert!(analyze(&job(vec![op])).is_clean());
    }

    #[test]
    fn ef005_index_locality_without_scheme() {
        let report = analyze(&job(vec![operator("a", StrategyKind::IndexLocality)]));
        assert_eq!(codes(&report), vec![DiagCode::EF005]);

        let mut op = operator("a", StrategyKind::IndexLocality);
        op.indices[0].has_partition_scheme = true;
        op.indices[0].partitions = 8;
        assert!(analyze(&job(vec![op])).is_clean());
    }

    #[test]
    fn ef006_shuffle_on_non_shuffleable_index() {
        let mut op = operator("a", StrategyKind::Repartition);
        op.indices[0].shuffleable = false;
        let report = analyze(&job(vec![op]));
        assert_eq!(codes(&report), vec![DiagCode::EF006]);
    }

    #[test]
    fn ef007_key_kind_mismatch() {
        let mut op = operator("a", StrategyKind::Baseline);
        op.lookup_key_kinds = vec![KeyKind::Text];
        op.indices[0].key_kind = KeyKind::Int;
        let report = analyze(&job(vec![op]));
        assert_eq!(codes(&report), vec![DiagCode::EF007]);

        // Any on either side is compatible.
        let mut op = operator("a", StrategyKind::Baseline);
        op.lookup_key_kinds = vec![KeyKind::Any];
        op.indices[0].key_kind = KeyKind::Int;
        assert!(analyze(&job(vec![op])).is_clean());
    }

    #[test]
    fn ef008_degenerate_partition_scheme() {
        let mut op = operator("a", StrategyKind::Baseline);
        op.indices[0].has_partition_scheme = true;
        op.indices[0].partitions = 0;
        let report = analyze(&job(vec![op]));
        assert_eq!(codes(&report), vec![DiagCode::EF008]);
    }

    #[test]
    fn ef009_negative_cost() {
        let mut op = operator("a", StrategyKind::Cache);
        op.choices[0].est_cost_secs = -1.0;
        let report = analyze(&job(vec![op]));
        assert!(report.has_code(DiagCode::EF009));
        assert!(report.has_errors());

        let mut op = operator("a", StrategyKind::Cache);
        op.est_cost_secs = f64::NAN;
        assert!(analyze(&job(vec![op])).has_code(DiagCode::EF009));
    }

    #[test]
    fn ef010_cache_below_probe_floor() {
        let mut op = operator("a", StrategyKind::Cache);
        op.indices[0].nik = Some(2.0);
        op.choices[0].est_cost_secs = 1.0e-9; // below 1000 * 2 * 1e-6 = 2e-3
        op.costs = Some(costs());
        let report = analyze(&job(vec![op]));
        assert_eq!(codes(&report), vec![DiagCode::EF010]);
        assert!(!report.has_errors(), "EF010 is a warning");

        // Estimates at/above the floor are fine.
        let mut op = operator("a", StrategyKind::Cache);
        op.indices[0].nik = Some(2.0);
        op.choices[0].est_cost_secs = 5.0e-3;
        op.costs = Some(costs());
        assert!(analyze(&job(vec![op])).is_clean());
    }

    #[test]
    fn ef011_s_min_monotonicity() {
        let mut op = operator("a", StrategyKind::Cache);
        let mut c = costs();
        c.s_min_by_position = vec![500.0]; // exceeds carried 200.0
        op.costs = Some(c);
        let report = analyze(&job(vec![op]));
        assert_eq!(codes(&report), vec![DiagCode::EF011]);

        let mut op = operator("a", StrategyKind::Cache);
        let mut c = costs();
        c.s_min_by_position = vec![100.0, 100.0];
        c.carried_by_position = vec![200.0, 150.0]; // carried shrinks
        op.costs = Some(c);
        assert!(analyze(&job(vec![op])).has_code(DiagCode::EF011));
    }

    #[test]
    fn ef012_non_deterministic_accessor_warns() {
        let mut op = operator("a", StrategyKind::Baseline);
        op.indices[0].deterministic = false;
        let report = analyze(&job(vec![op]));
        assert_eq!(codes(&report), vec![DiagCode::EF012]);
        assert!(!report.has_errors(), "EF012 is a warning, not an error");
        assert!(report.is_passing());
    }

    #[test]
    fn ef013_enumeration_disagreement() {
        let mut op = operator("a", StrategyKind::Cache);
        let mut c = costs();
        c.full_est_secs = 1.0;
        c.krepart_est_secs = 1.5;
        op.costs = Some(c);
        let report = analyze(&job(vec![op]));
        assert_eq!(codes(&report), vec![DiagCode::EF013]);
        assert!(!report.has_errors());
    }

    #[test]
    fn ef014_volatile_with_non_baseline_plan() {
        let mut op = operator("a", StrategyKind::Cache);
        op.volatile = true;
        let report = analyze(&job(vec![op]));
        assert_eq!(codes(&report), vec![DiagCode::EF014]);
        assert!(report.has_errors());

        let mut op = operator("a", StrategyKind::Baseline);
        op.volatile = true;
        assert!(analyze(&job(vec![op])).is_clean());
    }

    #[test]
    fn multiple_findings_accumulate() {
        let mut op = operator("a", StrategyKind::IndexLocality);
        op.volatile = true; // EF005 (no scheme) + EF014 (volatile non-baseline)
        let report = analyze(&job(vec![op]));
        assert!(report.has_code(DiagCode::EF005));
        assert!(report.has_code(DiagCode::EF014));
        assert_eq!(report.errors().count(), 2);
    }

    #[test]
    fn into_result_carries_error_summary() {
        let mut op = operator("a", StrategyKind::Repartition);
        op.indices[0].shuffleable = false;
        let err = analyze(&job(vec![op])).into_result().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("EF006"), "{msg}");
    }

    #[test]
    fn warnings_do_not_fail_into_result() {
        let mut op = operator("a", StrategyKind::Baseline);
        op.indices[0].deterministic = false;
        let report = analyze(&job(vec![op])).into_result().unwrap();
        assert_eq!(report.warnings().count(), 1);
        assert_eq!(
            report.warnings().next().unwrap().severity,
            Severity::Warning
        );
    }

    #[test]
    fn benign_fault_config_is_clean() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        model.faults = Some(crate::model::testutil::faults());
        let report = analyze(&model);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn ef015_zero_timeout_is_an_error() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut f = crate::model::testutil::faults();
        f.timeout_nanos = Some(0);
        model.faults = Some(f);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF015));
        assert!(report.has_errors());
    }

    #[test]
    fn ef016_fail_job_without_retries_warns() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut f = crate::model::testutil::faults();
        f.fail_job_on_exhaustion = true;
        f.max_retries = 0;
        model.faults = Some(f);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF016));
        assert!(!report.has_errors());
    }

    #[test]
    fn ef016_backoff_base_above_cap_warns() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut f = crate::model::testutil::faults();
        f.backoff_base_nanos = 1_000_000_000;
        f.max_backoff_nanos = 1_000_000;
        model.faults = Some(f);
        assert!(analyze(&model).has_code(DiagCode::EF016));
    }

    #[test]
    fn ef016_hair_trigger_breaker_warns() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut f = crate::model::testutil::faults();
        f.breaker_min_samples = 2; // within one key's retry budget (3)
        model.faults = Some(f);
        assert!(analyze(&model).has_code(DiagCode::EF016));

        // A disabled breaker (threshold 1.0) never trips the warning.
        let mut f = crate::model::testutil::faults();
        f.breaker_min_samples = 2;
        f.breaker_threshold = 1.0;
        model.faults = Some(f);
        assert!(analyze(&model).is_clean());
    }

    #[test]
    fn absent_fault_model_skips_fault_checks() {
        let report = analyze(&job(vec![operator("a", StrategyKind::Cache)]));
        assert!(!report.has_code(DiagCode::EF015));
        assert!(!report.has_code(DiagCode::EF016));
    }

    #[test]
    fn benign_integrity_config_is_clean() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        model.integrity = Some(crate::model::testutil::integrity());
        let report = analyze(&model);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn ef017_chunk_corruption_on_unreplicated_dfs_is_an_error() {
        let mut model = job(vec![operator("a", StrategyKind::Baseline)]);
        let mut i = crate::model::testutil::integrity();
        i.dfs_replication = 1;
        model.integrity = Some(i);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF017));
        assert!(report.has_errors());

        // Without chunk corruption, replication 1 is fine for EF017.
        let mut model = job(vec![operator("a", StrategyKind::Baseline)]);
        let mut i = crate::model::testutil::integrity();
        i.dfs_replication = 1;
        i.corrupts_chunks = false;
        model.integrity = Some(i);
        assert!(!analyze(&model).has_code(DiagCode::EF017));
    }

    #[test]
    fn ef018_unverified_cache_corruption_warns_only_with_a_cache_plan() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut i = crate::model::testutil::integrity();
        i.corrupts_cache = true;
        i.verification = false;
        i.corrupts_chunks = false;
        model.integrity = Some(i);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF018));
        assert!(!report.has_errors(), "EF018 is a warning");

        // No cache strategy in the plan: nothing can be poisoned.
        let mut model = job(vec![operator("a", StrategyKind::Baseline)]);
        model.integrity = Some(i);
        assert!(analyze(&model).is_clean());

        // Verification enabled: poisoned entries are caught and re-fetched.
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        i.verification = true;
        model.integrity = Some(i);
        assert!(analyze(&model).is_clean());
    }

    #[test]
    fn absent_integrity_model_skips_integrity_checks() {
        let report = analyze(&job(vec![operator("a", StrategyKind::Cache)]));
        assert!(!report.has_code(DiagCode::EF017));
        assert!(!report.has_code(DiagCode::EF018));
    }

    #[test]
    fn ef019_legal_stats_tokens_are_clean() {
        let mut op = operator("a", StrategyKind::Cache);
        op.indices[0].nik = Some(2.0);
        op.indices[0].stats = Some(crate::model::testutil::index_stats());
        let report = analyze(&job(vec![op]));
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn ef019_out_of_range_stats_tokens_are_errors() {
        for mutate in [
            (|s: &mut crate::model::IndexStatsModel| s.miss_ratio = 1.5)
                as fn(&mut crate::model::IndexStatsModel),
            |s| s.miss_ratio = -0.1,
            |s| s.theta = 0.5,
            |s| s.failure_rate = 1.0,
            |s| s.sik_bytes = -1.0,
            |s| s.tj_secs = f64::NAN,
            |s| s.siv_bytes = f64::INFINITY,
        ] {
            let mut op = operator("a", StrategyKind::Cache);
            let mut s = crate::model::testutil::index_stats();
            mutate(&mut s);
            op.indices[0].stats = Some(s);
            let report = analyze(&job(vec![op]));
            assert!(report.has_code(DiagCode::EF019), "{}", report.to_text());
            assert!(report.has_errors());
        }
        // A NaN Nik alongside stats is also caught.
        let mut op = operator("a", StrategyKind::Cache);
        op.indices[0].stats = Some(crate::model::testutil::index_stats());
        op.indices[0].nik = Some(f64::NAN);
        assert!(analyze(&job(vec![op])).has_code(DiagCode::EF019));
    }

    #[test]
    fn ef019_cost_must_be_monotone_in_n1() {
        let mut op = operator("a", StrategyKind::Cache);
        let mut c = costs();
        c.full_est_secs = 1.0;
        c.krepart_est_secs = 1.0;
        c.est_at_double_n1_secs = Some(0.4); // cheaper with twice the input
        op.costs = Some(c);
        let report = analyze(&job(vec![op]));
        assert!(report.has_code(DiagCode::EF019), "{}", report.to_text());
        assert!(report.has_errors());

        // A doubled estimate at or above the base cost is fine (equal is
        // legal: a plan may be dominated by N1-independent terms).
        let mut op = operator("a", StrategyKind::Cache);
        let mut c = costs();
        c.est_at_double_n1_secs = Some(1.0);
        op.costs = Some(c);
        assert!(analyze(&job(vec![op])).is_clean());
    }

    #[test]
    fn ef020_chaos_killing_every_node_is_an_error() {
        let mut model = job(vec![operator("a", StrategyKind::Baseline)]);
        let mut c = crate::model::testutil::chaos();
        c.kill_events = 8; // == cluster_nodes
        model.chaos = Some(c);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF020));
        assert!(report.has_errors());

        // One kill on an 8-node replicated cluster is a benign experiment.
        let mut model = job(vec![operator("a", StrategyKind::Baseline)]);
        model.chaos = Some(crate::model::testutil::chaos());
        assert!(analyze(&model).is_clean(), "{}", analyze(&model).to_text());
    }

    #[test]
    fn ef020_kills_at_replication_one_warn() {
        let mut model = job(vec![operator("a", StrategyKind::Baseline)]);
        let mut c = crate::model::testutil::chaos();
        c.dfs_replication = 1;
        model.chaos = Some(c);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF020));
        assert!(!report.has_errors(), "data-loss-by-design stays a warning");
    }

    #[test]
    fn ef020_kills_plus_corruption_exhaust_replicas() {
        let mut model = job(vec![operator("a", StrategyKind::Baseline)]);
        let mut c = crate::model::testutil::chaos();
        c.kill_events = 2;
        c.dfs_replication = 3; // 2 kills + 1 quarantine == 3 copies
        model.chaos = Some(c);
        model.integrity = Some(crate::model::testutil::integrity());
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF020), "{}", report.to_text());
        assert!(!report.has_errors());

        // With headroom (1 kill against replication 3) the combination is
        // clean.
        let mut model = job(vec![operator("a", StrategyKind::Baseline)]);
        model.chaos = Some(crate::model::testutil::chaos());
        model.integrity = Some(crate::model::testutil::integrity());
        assert!(analyze(&model).is_clean(), "{}", analyze(&model).to_text());
    }

    #[test]
    fn ef021_zero_capacity_cache_plan_is_an_error() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut c = crate::model::testutil::cache();
        c.capacity = 0;
        model.cache = Some(c);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF021));
        assert!(report.has_errors());

        // Zero capacity without any cache-strategy choice is harmless.
        let mut model = job(vec![operator("a", StrategyKind::Baseline)]);
        model.cache = Some(c);
        assert!(analyze(&model).is_clean());
    }

    #[test]
    fn ef021_negative_t_cache_is_an_error_and_zero_warns() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut c = crate::model::testutil::cache();
        c.t_cache_secs = -1.0e-6;
        model.cache = Some(c);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF021));
        assert!(report.has_errors());

        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut c = crate::model::testutil::cache();
        c.t_cache_secs = 0.0;
        model.cache = Some(c);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF021));
        assert!(
            !report.has_errors(),
            "free probes are suspicious, not fatal"
        );

        // The benign config is clean.
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        model.cache = Some(crate::model::testutil::cache());
        assert!(analyze(&model).is_clean());
    }

    #[test]
    fn benign_injection_layers_together_are_clean() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        model.faults = Some(crate::model::testutil::faults());
        model.integrity = Some(crate::model::testutil::integrity());
        model.chaos = Some(crate::model::testutil::chaos());
        model.cache = Some(crate::model::testutil::cache());
        let report = analyze(&model);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    fn measured(op: &str) -> crate::model::MeasuredStatsModel {
        crate::model::MeasuredStatsModel {
            operator: op.to_string(),
            n1: 1000.0,
            nik: vec![2.0],
            indices: vec![crate::model::testutil::index_stats()],
            full_est_secs: 1.0,
            est_at_double_n1_secs: 1.8,
        }
    }

    #[test]
    fn ef023_legal_measured_stats_are_clean() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        model.measured = vec![measured("a")];
        let report = analyze(&model);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn ef023_out_of_range_measured_tokens_are_errors() {
        for mutate in [
            (|m: &mut crate::model::MeasuredStatsModel| m.n1 = -1.0)
                as fn(&mut crate::model::MeasuredStatsModel),
            |m| m.n1 = f64::NAN,
            |m| m.nik[0] = -2.0,
            |m| m.nik[0] = f64::INFINITY,
            |m| m.indices[0].miss_ratio = 1.5,
            |m| m.indices[0].miss_ratio = -0.1,
            |m| m.indices[0].theta = 0.5,
            |m| m.indices[0].failure_rate = 1.0,
            |m| m.indices[0].sik_bytes = -1.0,
            |m| m.indices[0].siv_bytes = f64::INFINITY,
            |m| m.indices[0].tj_secs = f64::NAN,
        ] {
            let mut model = job(vec![operator("a", StrategyKind::Cache)]);
            let mut m = measured("a");
            mutate(&mut m);
            model.measured = vec![m];
            let report = analyze(&model);
            assert!(report.has_code(DiagCode::EF023), "{}", report.to_text());
            assert!(report.has_errors());
        }
    }

    #[test]
    fn ef023_measured_cost_must_be_monotone_in_n1() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut m = measured("a");
        m.est_at_double_n1_secs = 0.4; // cheaper with twice the recorded N1
        model.measured = vec![m];
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF023), "{}", report.to_text());
        assert!(report.has_errors());

        // Equal cost at doubled N1 is legal: the plan may be dominated by
        // N1-independent terms.
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut m = measured("a");
        m.est_at_double_n1_secs = 1.0;
        model.measured = vec![m];
        assert!(analyze(&model).is_clean());
    }

    #[test]
    fn ef024_benign_tenancy_is_clean() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        model.tenancy = Some(crate::model::testutil::tenancy());
        let report = analyze(&model);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn ef024_zero_slot_quotas_and_degenerate_weights_are_errors() {
        type Mutate = fn(&mut crate::model::TenancyModel);
        for mutate in [
            (|t: &mut crate::model::TenancyModel| t.tenants[0].weight = 0) as Mutate,
            |t| t.tenants[0].max_running = 0,
            |t| t.tenants[1].max_queued = 0,
            |t| t.queue_capacity = 0,
            |t| t.max_concurrent = 0,
            |t| t.tenants[0].name = String::new(),
            |t| t.tenants[0].name = "alpha.prod".into(),
            |t| t.tenants[1].name = "alpha".into(),
            |t| t.tenants[0].cache_share = 1.5,
            |t| t.tenants[0].cache_share = f64::NAN,
            |t| t.degrade_threshold_secs = -1.0,
            |t| t.scan_fallback_cost_secs = f64::NAN,
            |t| t.job_tenant = Some("gamma".into()),
        ] {
            let mut model = job(vec![operator("a", StrategyKind::Cache)]);
            let mut tenancy = crate::model::testutil::tenancy();
            mutate(&mut tenancy);
            model.tenancy = Some(tenancy);
            let report = analyze(&model);
            assert!(report.has_code(DiagCode::EF024), "{}", report.to_text());
            assert!(report.has_errors(), "{}", report.to_text());
        }
    }

    #[test]
    fn ef024_oversubscribed_cache_shares_warn() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut tenancy = crate::model::testutil::tenancy();
        tenancy.tenants[0].cache_share = 0.8;
        tenancy.tenants[1].cache_share = 0.7;
        model.tenancy = Some(tenancy);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF024), "{}", report.to_text());
        assert!(
            !report.has_errors(),
            "oversubscription degrades, not breaks"
        );
    }

    #[test]
    fn ef024_malformed_rate_limits_are_errors() {
        type Mutate = fn(&mut crate::model::RateLimitModel);
        for mutate in [
            (|rl: &mut crate::model::RateLimitModel| rl.rate_per_sec = -1.0) as Mutate,
            |rl| rl.rate_per_sec = f64::NAN,
            |rl| rl.burst = -2.0,
            |rl| {
                rl.rate_per_sec = 0.0;
                rl.burst = 0.0;
            },
        ] {
            let mut model = job(vec![operator("a", StrategyKind::Cache)]);
            let mut tenancy = crate::model::testutil::tenancy();
            let mut rl = crate::model::RateLimitModel {
                index: "idx".into(),
                rate_per_sec: 100.0,
                burst: 10.0,
            };
            mutate(&mut rl);
            tenancy.rate_limits.push(rl);
            model.tenancy = Some(tenancy);
            let report = analyze(&model);
            assert!(report.has_code(DiagCode::EF024), "{}", report.to_text());
            assert!(report.has_errors(), "{}", report.to_text());
        }
    }

    #[test]
    fn ef024_rate_limit_below_expected_demand_warns() {
        // 1000 input records × 2 lookups/record = 2000 expected lookups
        // against `idx`, but the bucket supplies 10/s × 1s + 10 = 20.
        let mut op = operator("a", StrategyKind::Cache);
        op.indices[0].nik = Some(2.0);
        op.choices[0].est_cost_secs = 5.0e-3; // above the EF010 probe floor
        op.est_cost_secs = 1.0;
        op.costs = Some(costs());
        let mut model = job(vec![op]);
        let mut tenancy = crate::model::testutil::tenancy();
        tenancy.rate_limits.push(crate::model::RateLimitModel {
            index: "idx".into(),
            rate_per_sec: 10.0,
            burst: 10.0,
        });
        model.tenancy = Some(tenancy);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF024), "{}", report.to_text());
        assert!(
            !report.has_errors(),
            "underprovisioning degrades, not breaks"
        );

        // A bucket that covers the demand is clean.
        let mut op = operator("a", StrategyKind::Cache);
        op.indices[0].nik = Some(2.0);
        op.choices[0].est_cost_secs = 5.0e-3;
        op.est_cost_secs = 1.0;
        op.costs = Some(costs());
        let mut model = job(vec![op]);
        let mut tenancy = crate::model::testutil::tenancy();
        tenancy.rate_limits.push(crate::model::RateLimitModel {
            index: "idx".into(),
            rate_per_sec: 5000.0,
            burst: 100.0,
        });
        model.tenancy = Some(tenancy);
        let report = analyze(&model);
        assert!(report.is_clean(), "{}", report.to_text());

        // A limit on an index the plan never touches says nothing.
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut tenancy = crate::model::testutil::tenancy();
        tenancy.rate_limits.push(crate::model::RateLimitModel {
            index: "other".into(),
            rate_per_sec: 0.001,
            burst: 0.0,
        });
        model.tenancy = Some(tenancy);
        assert!(analyze(&model).is_clean());
    }

    #[test]
    fn benign_partition_config_is_clean() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        model.partition = Some(crate::model::testutil::partition());
        let report = analyze(&model);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn ef025_unhealed_full_cluster_partition_is_an_error() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut p = crate::model::testutil::partition();
        p.permanently_isolated = p.cluster_nodes;
        model.partition = Some(p);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF025), "{}", report.to_text());
        assert!(report.has_errors());
    }

    #[test]
    fn ef025_permanent_isolation_on_unreplicated_dfs_warns() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut p = crate::model::testutil::partition();
        p.permanently_isolated = 1;
        p.dfs_replication = 1;
        model.partition = Some(p);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF025), "{}", report.to_text());
        assert!(!report.has_errors(), "fail-fast by design is a warning");

        // The same permanent cut against a replicated DFS is clean: the
        // reachable side still holds a copy of every chunk.
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut p = crate::model::testutil::partition();
        p.permanently_isolated = 1;
        model.partition = Some(p);
        assert!(analyze(&model).is_clean());
    }

    #[test]
    fn ef025_detector_interval_at_or_above_suspicion_warns() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut p = crate::model::testutil::partition();
        p.heartbeat_interval_nanos = 2_000_000;
        p.suspicion_nanos = 2_000_000;
        model.partition = Some(p);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF025), "{}", report.to_text());
        assert!(!report.has_errors());
    }

    #[test]
    fn benign_hedge_config_is_clean() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        model.hedge = Some(crate::model::testutil::hedge());
        let report = analyze(&model);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn ef026_hedging_single_partition_side_warns() {
        let mut op = operator("a", StrategyKind::Cache);
        op.indices[0].has_partition_scheme = true;
        op.indices[0].partitions = 1;
        let mut model = job(vec![op]);
        model.hedge = Some(crate::model::testutil::hedge());
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF026), "{}", report.to_text());
        assert!(!report.has_errors(), "EF026 is a warning");

        // Two partition-sides give the backup something to race.
        let mut op = operator("a", StrategyKind::Cache);
        op.indices[0].has_partition_scheme = true;
        op.indices[0].partitions = 2;
        let mut model = job(vec![op]);
        model.hedge = Some(crate::model::testutil::hedge());
        assert!(analyze(&model).is_clean());
    }

    #[test]
    fn ef026_hedging_unreplicated_schemeless_index_warns() {
        let mut model = job(vec![operator("a", StrategyKind::Cache)]);
        let mut h = crate::model::testutil::hedge();
        h.dfs_replication = 1;
        model.hedge = Some(h);
        let report = analyze(&model);
        assert!(report.has_code(DiagCode::EF026), "{}", report.to_text());
        assert!(!report.has_errors());
    }

    #[test]
    fn absent_partition_and_hedge_models_skip_their_checks() {
        let report = analyze(&job(vec![operator("a", StrategyKind::Cache)]));
        assert!(!report.has_code(DiagCode::EF025));
        assert!(!report.has_code(DiagCode::EF026));
    }
}
