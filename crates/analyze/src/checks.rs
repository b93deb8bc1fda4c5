//! The plan checks over a [`PlanModel`]: `EF001`–`EF014`, `EF019` and
//! `EF023`. The checks of the runtime configuration run in
//! `efind::analysis`, on the runtime's own types.

use crate::diag::{DiagCode, Diagnostic, Report, Span};
use crate::model::{IndexStatsModel, MeasuredStatsModel, OperatorModel, PlanModel, StrategyKind};

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
    for m in &model.measured {
        check_measured_stats(model, m, &mut report);
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
}
