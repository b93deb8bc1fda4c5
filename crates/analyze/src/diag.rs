//! Structured diagnostics: stable codes, severities, spans, and reports.

use std::fmt;

/// Stable diagnostic codes (`EF001`..). Codes are append-only: a code is
/// never renumbered or reused once released, so tooling can match on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum DiagCode {
    /// Operator arity mismatch: plan/stat index count differs from the
    /// operator's declared `num_indices`.
    EF001,
    /// Duplicate operator names within one job.
    EF002,
    /// Tail (post-reduce) operator in a map-only job.
    EF003,
    /// Property 4 violation: a shuffle-strategy index access ordered after
    /// a baseline/cache access in the same operator plan.
    EF004,
    /// IndexLocality chosen for an index with no partition scheme.
    EF005,
    /// Shuffle strategy (Repartition/IndexLocality) chosen for an index
    /// declared non-shuffleable.
    EF006,
    /// Lookup-key type incompatible with the accessor's declared key kind.
    EF007,
    /// Degenerate partition scheme (zero partitions).
    EF008,
    /// Negative estimated cost.
    EF009,
    /// Cache-strategy estimate below the `T_cache` probe floor.
    EF010,
    /// `S_min` monotonicity violation along the planned access order.
    EF011,
    /// Non-deterministic accessor: adaptive result-reuse disabled.
    EF012,
    /// FullEnumerate and k-Repart disagree on plan cost.
    EF013,
    /// Volatile operator carrying a non-baseline plan.
    EF014,
    /// Unsatisfiable fault-tolerance configuration (e.g. a zero per-index
    /// timeout: every lookup attempt times out before it can answer).
    EF015,
    /// Risky fault-tolerance configuration (e.g. `FailJob` with zero
    /// retries, or a backoff base above its own cap).
    EF016,
    /// Unrecoverable corruption configuration: chunk corruption injected
    /// with DFS replication 1 — the first corrupted chunk has no intact
    /// replica to re-read from, so the job fails by construction.
    EF017,
    /// Undetectable corruption configuration: cache entries are corrupted
    /// while a cache-strategy plan is in use, but checksum verification is
    /// disabled — poisoned entries would be served as answers.
    EF018,
    /// Cost-model inconsistency: a statistics token is out of its legal
    /// range (`miss ∉ [0,1]`, `Θ < 1`, negative sizes/times), or the
    /// Eq. 1–4 estimate *decreases* when the input cardinality doubles —
    /// the estimates are sums of terms linear in `N1`, so they must be
    /// monotone in it.
    EF019,
    /// Injection-plan conflict: two injection layers (faults, corruption,
    /// chaos) are configured so their combination is unsurvivable or
    /// silently defeats the experiment (e.g. chaos kills every node, or
    /// kills + quarantines together exhaust the replica budget).
    EF020,
    /// Cache-config incoherence: a cache-strategy plan with a zero-entry
    /// cache (error), or with a zero `T_cache` probe time (warning).
    EF021,
    /// Measured-stats injection inconsistency: statistics served from the
    /// cross-job re-optimization store violate the same invariants
    /// `EF019` enforces for `statsx` tokens — a token outside its legal
    /// range, or an Eq. 1–4 estimate that *decreases* when the recorded
    /// `N1` doubles. A store entry that fails here would poison every
    /// warm-start plan built from it.
    EF023,
    /// Tenancy-config incoherence: a multi-tenant serving configuration
    /// that cannot serve — zero-slot quotas (`max_running`/`max_queued`/
    /// queue capacity/concurrency of 0), degenerate deficit weights
    /// (weight 0 never wins a grant), malformed or duplicate tenant names,
    /// cache shares outside `[0, 1]`, negative/NaN or zero-supply rate
    /// limits, a job tagged with an unknown tenant (errors) — or cache
    /// shares summing past 1 (warning).
    EF024,
    /// Unsurvivable or degenerate gray-failure configuration: a partition
    /// that never heals isolates every node of the cluster (no reachable
    /// side is left to finish the job; error), permanent isolation
    /// against an unreplicated DFS (any chunk hosted behind the partition
    /// has no reachable replica; warning), or a failure detector whose
    /// heartbeat interval is at or above its suspicion threshold (every
    /// silent beat immediately suspects the node; warning).
    EF025,
    /// Pointless hedging: hedged lookups are armed but an accessor
    /// exposes only a single partition-side (or, without a partition
    /// scheme, the DFS holds a single replica) — the backup races the
    /// same service it is hedging against and can only add virtual cost.
    EF026,
}

impl DiagCode {
    /// The stable textual form, e.g. `"EF004"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::EF001 => "EF001",
            DiagCode::EF002 => "EF002",
            DiagCode::EF003 => "EF003",
            DiagCode::EF004 => "EF004",
            DiagCode::EF005 => "EF005",
            DiagCode::EF006 => "EF006",
            DiagCode::EF007 => "EF007",
            DiagCode::EF008 => "EF008",
            DiagCode::EF009 => "EF009",
            DiagCode::EF010 => "EF010",
            DiagCode::EF011 => "EF011",
            DiagCode::EF012 => "EF012",
            DiagCode::EF013 => "EF013",
            DiagCode::EF014 => "EF014",
            DiagCode::EF015 => "EF015",
            DiagCode::EF016 => "EF016",
            DiagCode::EF017 => "EF017",
            DiagCode::EF018 => "EF018",
            DiagCode::EF019 => "EF019",
            DiagCode::EF020 => "EF020",
            DiagCode::EF021 => "EF021",
            DiagCode::EF023 => "EF023",
            DiagCode::EF024 => "EF024",
            DiagCode::EF025 => "EF025",
            DiagCode::EF026 => "EF026",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but runnable; execution proceeds.
    Warning,
    /// The plan is malformed; compilation must abort.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Where in the job a diagnostic points.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Operator position in head→body→tail order, if operator-scoped.
    pub operator: Option<usize>,
    /// Operator name, if known.
    pub operator_name: Option<String>,
    /// Index name, if index-scoped.
    pub index: Option<String>,
}

impl Span {
    /// A job-level span (no operator).
    pub fn job() -> Self {
        Span::default()
    }

    /// An operator-level span.
    pub fn operator(pos: usize, name: impl Into<String>) -> Self {
        Span {
            operator: Some(pos),
            operator_name: Some(name.into()),
            index: None,
        }
    }

    /// An index-level span.
    pub fn index(pos: usize, op_name: impl Into<String>, index: impl Into<String>) -> Self {
        Span {
            operator: Some(pos),
            operator_name: Some(op_name.into()),
            index: Some(index.into()),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.operator, &self.operator_name, &self.index) {
            (Some(pos), Some(name), Some(index)) => {
                write!(f, "operator #{pos} `{name}`, index `{index}`")
            }
            (Some(pos), Some(name), None) => write!(f, "operator #{pos} `{name}`"),
            (Some(pos), None, _) => write!(f, "operator #{pos}"),
            _ => f.write_str("job"),
        }
    }
}

/// One analyzer finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Error or warning.
    pub severity: Severity,
    /// What the diagnostic points at.
    pub span: Span,
    /// Human-readable description of the problem.
    pub message: String,
    /// Actionable suggestion for fixing it.
    pub hint: String,
}

impl Diagnostic {
    /// Builds an error diagnostic.
    pub fn error(code: DiagCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            span,
            message: message.into(),
            hint: String::new(),
        }
    }

    /// Builds a warning diagnostic.
    pub fn warning(code: DiagCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            span,
            message: message.into(),
            hint: String::new(),
        }
    }

    /// Attaches a fix hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = hint.into();
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.code, self.span, self.message
        )?;
        if !self.hint.is_empty() {
            write!(f, " (hint: {})", self.hint)?;
        }
        Ok(())
    }
}

/// The full result of an analysis pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// All findings, in check order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Records a finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// True when no diagnostics at all were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when no *errors* were produced (warnings allowed).
    pub fn is_passing(&self) -> bool {
        !self.has_errors()
    }

    /// True when at least one error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Iterates over error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Iterates over warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// True if a specific code was produced.
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders the report as one line per diagnostic.
    pub fn to_text(&self) -> String {
        if self.is_clean() {
            return "analyze: clean (no diagnostics)".to_string();
        }
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }

    /// Collapses into `Err` on the first error, with a summary message.
    pub fn into_result(self) -> Result<Report, efind_common::Error> {
        if self.has_errors() {
            let summary = self
                .errors()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            Err(efind_common::Error::InvalidConfig(format!(
                "static analysis rejected the plan: {summary}"
            )))
        } else {
            Ok(self)
        }
    }
}
