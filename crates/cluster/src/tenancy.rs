//! Multi-tenant serving: admission control, deficit-weighted allocation,
//! and per-index QoS — all in virtual time.
//!
//! The paper's latency sweep (Fig. 11) prices index access *under
//! contention*, but a runtime that executes one job at a time never
//! actually contends. This module supplies the missing substrate: N jobs
//! from M tenants are admitted against a bounded queue, interleaved over
//! the shared cluster by deficit-weighted round-robin, and throttled at
//! the index boundary by per-index virtual-time token buckets. Saturation
//! charges queueing delay; past a configured per-lookup threshold the
//! degrade gate falls back to scan (graceful degradation, not failure).
//!
//! Contract (the same discipline as the injection layers):
//!
//! * **Deterministic.** No wall clock, no randomness. Admission,
//!   grant, and completion decisions are pure functions of the config and
//!   the (virtual-time-ordered) submission sequence; a double run of the
//!   same tenant mix produces a bit-identical schedule log and ledger.
//! * **Never a hang.** A submission either enters the bounded queue or is
//!   refused *immediately* with a named error
//!   ([`Error::AdmissionRejected`] / [`Error::QuotaExhausted`]).
//! * **Quiet by default.** [`TenancyConfig::none`] — and any config that
//!   cannot influence a run (a single tenant with unlimited quotas, no
//!   queue bound, no rate limits) — is quiet ([`TenancyConfig::is_quiet`]):
//!   executors take the literal single-job path and the ledger contributes
//!   no counters, byte-identical to a runtime that never heard of tenancy.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

use efind_common::{Error, Result};

use crate::time::{SimDuration, SimTime};

/// Identifier of a tenant: its index in [`TenancyConfig::tenants`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// One tenant's serving contract: scheduling weight, admission quotas, and
/// an optional share of the common lookup cache.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (counter segment; must be unique and dot-free).
    pub name: String,
    /// Deficit-round-robin weight. Relative share of grant bandwidth;
    /// zero starves the tenant of an armed config (an `EF024` error).
    pub weight: u64,
    /// Per-tenant bound on *queued* (admitted, not yet granted) jobs.
    /// `usize::MAX` = unlimited.
    pub max_queued: usize,
    /// Per-tenant bound on concurrently *running* jobs. `usize::MAX` =
    /// unlimited; zero means the tenant can never run (an `EF024` error).
    pub max_running: usize,
    /// Fraction of the shared lookup-cache capacity reserved for this
    /// tenant (see `efind::cache::LookupCache::with_tenant_shares`).
    /// `0.0` means no reservation (shares disabled for this tenant).
    pub cache_share: f64,
}

impl TenantSpec {
    /// An unlimited tenant with weight 1 and no cache reservation.
    pub fn new(name: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1,
            max_queued: usize::MAX,
            max_running: usize::MAX,
            cache_share: 0.0,
        }
    }

    /// Sets the deficit-round-robin weight.
    pub fn weight(mut self, w: u64) -> Self {
        self.weight = w;
        self
    }

    /// Bounds the tenant's queued jobs.
    pub fn max_queued(mut self, n: usize) -> Self {
        self.max_queued = n;
        self
    }

    /// Bounds the tenant's concurrently running jobs.
    pub fn max_running(mut self, n: usize) -> Self {
        self.max_running = n;
        self
    }

    /// Reserves a fraction of the shared lookup cache.
    pub fn cache_share(mut self, share: f64) -> Self {
        self.cache_share = share;
        self
    }

    /// True when nothing about this tenant can constrain a run.
    fn is_unlimited(&self) -> bool {
        self.max_queued == usize::MAX && self.max_running == usize::MAX && self.cache_share == 0.0
    }
}

/// A per-index virtual-time rate limit: the token-bucket parameters of one
/// index's lookup capacity.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexRateLimit {
    /// Index (accessor) name the bucket throttles.
    pub index: String,
    /// Sustained lookup rate: tokens per virtual second.
    pub rate_per_sec: f64,
    /// Bucket capacity: lookups servable in one burst before queueing.
    pub burst: f64,
}

impl IndexRateLimit {
    /// Builds a rate limit for `index`.
    pub fn new(index: impl Into<String>, rate_per_sec: f64, burst: f64) -> Self {
        IndexRateLimit {
            index: index.into(),
            rate_per_sec: rate_per_sec.max(0.0),
            burst: burst.max(0.0),
        }
    }
}

/// The whole tenancy layer's configuration.
///
/// The default ([`TenancyConfig::none`]) is quiet: unbounded queue, no
/// tenants (every job maps to one implicit unlimited tenant), no
/// concurrency bound, no rate limits — executors must treat it exactly
/// like a runtime without a tenancy layer.
#[derive(Clone, Debug, PartialEq)]
pub struct TenancyConfig {
    /// Declared tenants. Empty = one implicit unlimited tenant.
    pub tenants: Vec<TenantSpec>,
    /// Global bound on jobs queued (admitted, not yet granted) across all
    /// tenants. `usize::MAX` = unbounded.
    pub queue_capacity: usize,
    /// Cluster-wide bound on concurrently running jobs. `usize::MAX` =
    /// unbounded.
    pub max_concurrent: usize,
    /// Per-index token buckets throttling lookup demand at grant time.
    pub rate_limits: Vec<IndexRateLimit>,
    /// Degrade gate: when a grant's *average per-lookup* queueing delay on
    /// a saturated index would exceed this, the job's access to that index
    /// falls back to scan instead of queueing (graceful degradation).
    /// [`SimDuration::ZERO`] disables the gate — saturation always queues.
    pub degrade_threshold: SimDuration,
    /// Per-lookup virtual cost of the scan fallback the degrade gate
    /// substitutes for a throttled index access.
    pub scan_fallback_cost: SimDuration,
}

impl TenancyConfig {
    /// The quiet configuration: no tenancy at all.
    pub fn none() -> Self {
        TenancyConfig {
            tenants: Vec::new(),
            queue_capacity: usize::MAX,
            max_concurrent: usize::MAX,
            rate_limits: Vec::new(),
            degrade_threshold: SimDuration::ZERO,
            scan_fallback_cost: SimDuration::from_micros(2),
        }
    }

    /// Adds a tenant.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.tenants.push(spec);
        self
    }

    /// Bounds the global admission queue.
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Bounds cluster-wide concurrently running jobs.
    pub fn max_concurrent(mut self, n: usize) -> Self {
        self.max_concurrent = n;
        self
    }

    /// Adds a per-index rate limit.
    pub fn rate_limit(mut self, limit: IndexRateLimit) -> Self {
        self.rate_limits.push(limit);
        self
    }

    /// Sets the degrade gate threshold (average per-lookup queueing delay
    /// beyond which indexed access falls back to scan).
    pub fn degrade_threshold(mut self, d: SimDuration) -> Self {
        self.degrade_threshold = d;
        self
    }

    /// Sets the per-lookup cost of the scan fallback.
    pub fn scan_fallback_cost(mut self, d: SimDuration) -> Self {
        self.scan_fallback_cost = d;
        self
    }

    /// True when the config cannot influence any run: at most one tenant,
    /// everything unlimited, no rate limits. The executor's quiet path —
    /// and the quiet-tenancy golden — hang off this predicate. Like the
    /// injection plans, it classifies from config *values*.
    pub fn is_quiet(&self) -> bool {
        self.tenants.len() <= 1
            && self.tenants.iter().all(TenantSpec::is_unlimited)
            && self.queue_capacity == usize::MAX
            && self.max_concurrent == usize::MAX
            && self.rate_limits.is_empty()
    }

    /// Resolves a tenant name to its id. With no declared tenants, every
    /// name resolves to the implicit tenant 0.
    pub fn tenant_id(&self, name: &str) -> Option<TenantId> {
        if self.tenants.is_empty() {
            return Some(TenantId(0));
        }
        self.tenants
            .iter()
            .position(|t| t.name == name)
            .map(|i| TenantId(i as u16))
    }

    /// Number of scheduling tenants (at least 1: the implicit tenant).
    pub fn num_tenants(&self) -> usize {
        self.tenants.len().max(1)
    }

    /// The counter-name segment of a tenant.
    pub fn tenant_name(&self, t: TenantId) -> &str {
        self.tenants
            .get(t.0 as usize)
            .map_or("default", |s| s.name.as_str())
    }

    /// The cache-capacity share reserved for a tenant (0.0 = no
    /// reservation: the tenant sees the full shared capacity).
    pub fn cache_share(&self, name: &str) -> f64 {
        self.tenants
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, |t| t.cache_share.clamp(0.0, 1.0))
    }

    fn weight_of(&self, t: TenantId) -> u64 {
        self.tenants.get(t.0 as usize).map_or(1, |s| s.weight)
    }

    fn max_queued_of(&self, t: TenantId) -> usize {
        self.tenants
            .get(t.0 as usize)
            .map_or(usize::MAX, |s| s.max_queued)
    }

    fn max_running_of(&self, t: TenantId) -> usize {
        self.tenants
            .get(t.0 as usize)
            .map_or(usize::MAX, |s| s.max_running)
    }

    /// Structural validation: an empty, dotted or duplicate tenant name is
    /// a configuration error. The scheduler refuses such a config, and
    /// `EF024` reports the same error before any job runs.
    pub fn validate(&self) -> Result<()> {
        for (i, t) in self.tenants.iter().enumerate() {
            if t.name.is_empty() || t.name.contains('.') {
                return Err(Error::InvalidConfig(format!(
                    "tenant {i} has an invalid name {:?} (must be non-empty and dot-free)",
                    t.name
                )));
            }
            if self.tenants[..i].iter().any(|p| p.name == t.name) {
                return Err(Error::InvalidConfig(format!(
                    "duplicate tenant name {:?}",
                    t.name
                )));
            }
        }
        Ok(())
    }
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig::none()
    }
}

/// A deterministic virtual-time token bucket.
///
/// The bucket holds up to `burst` tokens and refills at `rate_per_sec`
/// tokens per virtual second. Charging more than the available tokens
/// yields a *queueing delay* — the virtual time until the refill covers
/// the shortfall — instead of a failure. All arithmetic happens in one
/// fixed order per charge, so equal charge sequences produce bit-equal
/// states.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    available: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A full bucket with the given refill rate and capacity.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        let burst = burst.max(0.0);
        TokenBucket {
            rate_per_sec: rate_per_sec.max(0.0),
            burst,
            available: burst,
            last: SimTime::ZERO,
        }
    }

    fn refilled(&self, now: SimTime) -> f64 {
        let gained = self.rate_per_sec * now.since(self.last).as_secs_f64();
        (self.available + gained).min(self.burst)
    }

    /// The queueing delay `tokens` would suffer if charged at `now`,
    /// without consuming anything.
    pub fn delay_for(&self, now: SimTime, tokens: f64) -> SimDuration {
        let available = self.refilled(now);
        if tokens <= available {
            return SimDuration::ZERO;
        }
        if self.rate_per_sec <= 0.0 {
            // A zero-rate bucket can never cover the shortfall; model the
            // wait as one full drain of the demand at a 1-token/sec floor
            // so the caller's degrade gate fires instead of overflowing.
            return SimDuration::from_secs_f64(tokens - available);
        }
        SimDuration::from_secs_f64((tokens - available) / self.rate_per_sec)
    }

    /// Charges `tokens` at `now`, consuming capacity and returning the
    /// queueing delay until the last token is covered by refill.
    pub fn charge(&mut self, now: SimTime, tokens: f64) -> SimDuration {
        let delay = self.delay_for(now, tokens);
        let available = self.refilled(now);
        self.available = (available - tokens).max(0.0);
        self.last = now + delay;
        delay
    }
}

/// Why a grant's index demand was (partly) degraded to scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QosCharge {
    /// Total queueing delay charged by saturated index buckets.
    pub delay: SimDuration,
    /// Lookups shed to the scan fallback by the degrade gate.
    pub shed_lookups: u64,
    /// Virtual cost of the scan fallback for the shed lookups.
    pub scan_cost: SimDuration,
}

impl QosCharge {
    /// The no-op charge (no rate limits touched).
    pub const ZERO: QosCharge = QosCharge {
        delay: SimDuration::ZERO,
        shed_lookups: 0,
        scan_cost: SimDuration::ZERO,
    };

    /// True when at least one lookup fell back to scan.
    pub fn degraded(&self) -> bool {
        self.shed_lookups > 0
    }

    /// The total virtual slowdown the job's completion absorbs.
    pub fn total_delay(&self) -> SimDuration {
        self.delay + self.scan_cost
    }
}

/// One entry of the deterministic schedule log — the tenancy layer's
/// primary observable. Double runs of the same mix must produce bit-equal
/// logs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedLogEntry {
    /// Monotone sequence number of the decision.
    pub seq: u64,
    /// Virtual time of the decision.
    pub at: SimTime,
    /// Submission index of the job the decision concerns.
    pub job: u64,
    /// The job's tenant.
    pub tenant: TenantId,
    /// What was decided.
    pub kind: SchedDecision,
}

/// The decision kinds recorded in the schedule log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedDecision {
    /// The job entered the admission queue.
    Queued,
    /// The bounded queue was full: [`Error::AdmissionRejected`].
    RejectedQueueFull,
    /// The tenant's queued-job quota was exhausted:
    /// [`Error::QuotaExhausted`].
    RejectedQuota,
    /// The job was granted cluster slots and started.
    Granted {
        /// Time spent in the queue.
        wait: SimDuration,
        /// QoS charge of the job's index demand at grant time.
        qos: QosCharge,
    },
    /// The job finished and released its quota.
    Completed,
}

/// Per-tenant serving totals, mirrored into `efind.tenant.*` counters when
/// the layer is armed. A quiet run leaves every row zero and the ledger
/// contributes nothing (PR-7 discipline: empty ledgers are invisible).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantLedgerRow {
    /// Jobs submitted by this tenant.
    pub submitted: u64,
    /// Jobs granted cluster slots.
    pub granted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Submissions refused because the global queue was full.
    pub rejected: u64,
    /// Submissions refused by the tenant's own quota.
    pub quota_rejected: u64,
    /// Grants whose index demand (partly) degraded to scan.
    pub degraded: u64,
    /// Lookups shed to the scan fallback.
    pub shed_lookups: u64,
    /// Total queueing delay charged by saturated index buckets (nanos).
    pub throttle_nanos: u64,
    /// Total time the tenant's granted jobs waited in the queue (nanos).
    pub wait_nanos: u64,
}

impl TenantLedgerRow {
    /// True when every total is zero.
    pub fn is_empty(&self) -> bool {
        *self == TenantLedgerRow::default()
    }
}

/// The whole mix's ledger: one row per tenant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenancyLedger {
    rows: Vec<TenantLedgerRow>,
}

impl TenancyLedger {
    /// A ledger with `tenants` zero rows.
    pub fn new(tenants: usize) -> Self {
        TenancyLedger {
            rows: vec![TenantLedgerRow::default(); tenants],
        }
    }

    /// The row of one tenant.
    pub fn row(&self, t: TenantId) -> &TenantLedgerRow {
        &self.rows[t.0 as usize]
    }

    /// All rows, in tenant order.
    pub fn rows(&self) -> &[TenantLedgerRow] {
        &self.rows
    }

    /// True when no tenant recorded anything.
    pub fn is_empty(&self) -> bool {
        self.rows.iter().all(TenantLedgerRow::is_empty)
    }

    fn row_mut(&mut self, t: TenantId) -> &mut TenantLedgerRow {
        &mut self.rows[t.0 as usize]
    }
}

/// A granted job: the scheduler's instruction to start `job` now.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Grant {
    /// Submission index of the granted job.
    pub job: u64,
    /// The job's tenant.
    pub tenant: TenantId,
    /// Grant (start) time.
    pub start: SimTime,
    /// QoS charge of the job's declared index demand.
    pub qos: QosCharge,
}

#[derive(Clone, Debug)]
struct QueuedJob {
    job: u64,
    tenant: TenantId,
    submit: SimTime,
    cost_hint: u64,
    demand: Vec<(String, u64)>,
}

/// The deterministic multi-tenant scheduler: a bounded admission queue,
/// deficit-weighted grant selection, and per-index token buckets, driven
/// by an external virtual-time event loop ([`submit`](Self::submit) /
/// [`try_grant`](Self::try_grant) / [`complete`](Self::complete)).
#[derive(Clone, Debug)]
pub struct MultiTenantScheduler {
    cfg: TenancyConfig,
    /// Deficit-round-robin credit per tenant (may go negative after a
    /// grant is charged).
    deficit: Vec<i128>,
    /// Per-index token buckets, keyed by index name (ordered map: bucket
    /// iteration order is part of the observable contract).
    buckets: BTreeMap<String, TokenBucket>,
    queued: VecDeque<QueuedJob>,
    queued_per_tenant: Vec<usize>,
    running_per_tenant: Vec<usize>,
    running: usize,
    ledger: TenancyLedger,
    log: Vec<SchedLogEntry>,
    seq: u64,
}

impl MultiTenantScheduler {
    /// Builds a scheduler for `cfg`. Fails fast on structurally invalid
    /// configs (duplicate/dotted tenant names).
    pub fn new(cfg: TenancyConfig) -> Result<Self> {
        cfg.validate()?;
        let n = cfg.num_tenants();
        let buckets = cfg
            .rate_limits
            .iter()
            .map(|l| (l.index.clone(), TokenBucket::new(l.rate_per_sec, l.burst)))
            .collect();
        Ok(MultiTenantScheduler {
            cfg,
            deficit: vec![0; n],
            buckets,
            queued: VecDeque::new(),
            queued_per_tenant: vec![0; n],
            running_per_tenant: vec![0; n],
            running: 0,
            ledger: TenancyLedger::new(n),
            log: Vec::new(),
            seq: 0,
        })
    }

    /// The configuration the scheduler runs under.
    pub fn config(&self) -> &TenancyConfig {
        &self.cfg
    }

    fn push_log(&mut self, at: SimTime, job: u64, tenant: TenantId, kind: SchedDecision) {
        let seq = self.seq;
        self.seq += 1;
        self.log.push(SchedLogEntry {
            seq,
            at,
            job,
            tenant,
            kind,
        });
    }

    /// Submits job `job` of `tenant` at virtual time `at`. Either the job
    /// enters the bounded queue (`Ok`) or it is refused immediately with a
    /// named error — admission control never blocks and never hangs.
    ///
    /// `cost_hint` is the deficit-round-robin charge (any stable estimate
    /// of the job's size; 1 gives plain weighted fairness in job counts).
    /// `demand` declares the job's per-index lookup counts, charged
    /// against the rate-limit buckets at grant time.
    pub fn submit(
        &mut self,
        at: SimTime,
        job: u64,
        tenant: TenantId,
        cost_hint: u64,
        demand: Vec<(String, u64)>,
    ) -> Result<()> {
        let row = self.ledger.row_mut(tenant);
        row.submitted += 1;
        if self.queued.len() >= self.cfg.queue_capacity {
            self.ledger.row_mut(tenant).rejected += 1;
            self.push_log(at, job, tenant, SchedDecision::RejectedQueueFull);
            return Err(Error::AdmissionRejected(format!(
                "admission queue full ({} queued, capacity {}) for job {job} of {}",
                self.queued.len(),
                self.cfg.queue_capacity,
                self.cfg.tenant_name(tenant),
            )));
        }
        if self.queued_per_tenant[tenant.0 as usize] >= self.cfg.max_queued_of(tenant) {
            self.ledger.row_mut(tenant).quota_rejected += 1;
            self.push_log(at, job, tenant, SchedDecision::RejectedQuota);
            return Err(Error::QuotaExhausted(format!(
                "tenant {} queued-job quota ({}) exhausted for job {job}",
                self.cfg.tenant_name(tenant),
                self.cfg.max_queued_of(tenant),
            )));
        }
        self.queued_per_tenant[tenant.0 as usize] += 1;
        self.queued.push_back(QueuedJob {
            job,
            tenant,
            submit: at,
            cost_hint,
            demand,
        });
        self.push_log(at, job, tenant, SchedDecision::Queued);
        Ok(())
    }

    /// Tenants that currently have a queued job and a free running quota.
    fn eligible_tenants(&self) -> Vec<TenantId> {
        let mut seen = vec![false; self.cfg.num_tenants()];
        for q in &self.queued {
            seen[q.tenant.0 as usize] = true;
        }
        (0..self.cfg.num_tenants() as u16)
            .map(TenantId)
            .filter(|t| {
                seen[t.0 as usize]
                    && self.running_per_tenant[t.0 as usize] < self.cfg.max_running_of(*t)
            })
            .collect()
    }

    /// Grants the next queued job at virtual time `now`, if cluster
    /// capacity and quotas allow one. Deficit-weighted round-robin: every
    /// eligible tenant earns `weight` credit per selection round, the
    /// highest credit wins (ties to the lowest tenant id), and the winner
    /// is charged the job's `cost_hint` — so bandwidth converges to the
    /// weight ratio while every positive-weight tenant keeps a linearly
    /// growing claim (starvation-freedom).
    pub fn try_grant(&mut self, now: SimTime) -> Option<Grant> {
        if self.running >= self.cfg.max_concurrent || self.queued.is_empty() {
            return None;
        }
        let eligible = self.eligible_tenants();
        if eligible.is_empty() {
            return None;
        }
        let total_weight: i128 = eligible
            .iter()
            .map(|t| self.cfg.weight_of(*t) as i128)
            .sum();
        for t in &eligible {
            self.deficit[t.0 as usize] += self.cfg.weight_of(*t) as i128;
        }
        let winner = *eligible
            .iter()
            .max_by_key(|t| (self.deficit[t.0 as usize], std::cmp::Reverse(t.0)))?;
        let pos = self
            .queued
            .iter()
            .position(|q| q.tenant == winner)
            .expect("eligible tenant has a queued job");
        let q = self.queued.remove(pos).expect("position just found");
        // Charge the grant at cost × Σweights: with every contender earning
        // its own weight per round, this normalization makes steady-state
        // grant bandwidth converge to the weight ratio (a winner paying
        // only its cost would win every round regardless of weights).
        self.deficit[winner.0 as usize] -= q.cost_hint as i128 * total_weight;
        self.queued_per_tenant[winner.0 as usize] -= 1;
        self.running_per_tenant[winner.0 as usize] += 1;
        self.running += 1;

        let qos = self.charge_demand(now, &q.demand);
        let wait = now.since(q.submit);
        let row = self.ledger.row_mut(winner);
        row.granted += 1;
        row.wait_nanos += wait.as_nanos();
        row.throttle_nanos += qos.delay.as_nanos();
        if qos.degraded() {
            row.degraded += 1;
            row.shed_lookups += qos.shed_lookups;
        }
        self.push_log(now, q.job, winner, SchedDecision::Granted { wait, qos });
        Some(Grant {
            job: q.job,
            tenant: winner,
            start: now,
            qos,
        })
    }

    /// Charges a grant's declared demand against the per-index buckets.
    /// For each index (in declaration order): if the average per-lookup
    /// queueing delay would exceed the degrade threshold, the lookups are
    /// shed to the scan fallback (no tokens consumed, flat scan cost);
    /// otherwise the bucket is charged and the delay accrues.
    fn charge_demand(&mut self, now: SimTime, demand: &[(String, u64)]) -> QosCharge {
        let mut qos = QosCharge::ZERO;
        for (index, lookups) in demand {
            if *lookups == 0 {
                continue;
            }
            let Some(bucket) = self.buckets.get_mut(index) else {
                continue; // unlimited index
            };
            let tokens = *lookups as f64;
            let would_delay = bucket.delay_for(now, tokens);
            let per_lookup = would_delay / *lookups;
            if !self.cfg.degrade_threshold.is_zero() && per_lookup > self.cfg.degrade_threshold {
                qos.shed_lookups += *lookups;
                qos.scan_cost += self.cfg.scan_fallback_cost * *lookups;
            } else {
                qos.delay += bucket.charge(now, tokens);
            }
        }
        qos
    }

    /// Records the completion of a previously granted job of `tenant`.
    pub fn complete(&mut self, now: SimTime, job: u64, tenant: TenantId) {
        debug_assert!(self.running > 0);
        self.running -= 1;
        self.running_per_tenant[tenant.0 as usize] =
            self.running_per_tenant[tenant.0 as usize].saturating_sub(1);
        self.ledger.row_mut(tenant).completed += 1;
        self.push_log(now, job, tenant, SchedDecision::Completed);
    }

    /// Jobs granted but not yet completed.
    pub fn running(&self) -> usize {
        self.running
    }

    /// The per-tenant serving ledger.
    pub fn ledger(&self) -> &TenancyLedger {
        &self.ledger
    }

    /// The deterministic schedule log.
    pub fn log(&self) -> &[SchedLogEntry] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_two_tenants() -> TenancyConfig {
        TenancyConfig::none()
            .tenant(TenantSpec::new("alpha").weight(3))
            .tenant(TenantSpec::new("beta").weight(1))
            .max_concurrent(1)
    }

    #[test]
    fn quiet_classification() {
        assert!(TenancyConfig::none().is_quiet());
        // One unlimited tenant is still quiet — the quiet-tenancy golden's
        // second leg depends on this.
        assert!(TenancyConfig::none()
            .tenant(TenantSpec::new("solo"))
            .is_quiet());
        assert!(!cfg_two_tenants().is_quiet());
        assert!(!TenancyConfig::none().queue_capacity(4).is_quiet());
        assert!(!TenancyConfig::none()
            .rate_limit(IndexRateLimit::new("idx", 10.0, 5.0))
            .is_quiet());
    }

    #[test]
    fn validate_rejects_bad_names() {
        let dup = TenancyConfig::none()
            .tenant(TenantSpec::new("a"))
            .tenant(TenantSpec::new("a"));
        assert!(dup.validate().is_err());
        let dotted = TenancyConfig::none().tenant(TenantSpec::new("a.b"));
        assert!(dotted.validate().is_err());
        assert!(cfg_two_tenants().validate().is_ok());
    }

    #[test]
    fn bounded_queue_rejects_with_named_error() {
        let cfg = TenancyConfig::none()
            .tenant(TenantSpec::new("a"))
            .queue_capacity(2)
            .max_concurrent(0); // nothing ever drains
        let mut s = MultiTenantScheduler::new(cfg).unwrap();
        let t = TenantId(0);
        assert!(s.submit(SimTime::ZERO, 0, t, 1, vec![]).is_ok());
        assert!(s.submit(SimTime::ZERO, 1, t, 1, vec![]).is_ok());
        let err = s.submit(SimTime::ZERO, 2, t, 1, vec![]).unwrap_err();
        assert!(matches!(err, Error::AdmissionRejected(_)), "{err}");
        assert_eq!(s.ledger().row(t).rejected, 1);
    }

    #[test]
    fn tenant_quota_rejects_with_named_error() {
        let cfg = TenancyConfig::none()
            .tenant(TenantSpec::new("a").max_queued(1))
            .max_concurrent(0);
        let mut s = MultiTenantScheduler::new(cfg).unwrap();
        let t = TenantId(0);
        assert!(s.submit(SimTime::ZERO, 0, t, 1, vec![]).is_ok());
        let err = s.submit(SimTime::ZERO, 1, t, 1, vec![]).unwrap_err();
        assert!(matches!(err, Error::QuotaExhausted(_)), "{err}");
        assert_eq!(s.ledger().row(t).quota_rejected, 1);
    }

    #[test]
    fn deficit_weights_shape_grant_order() {
        // alpha (weight 3) should receive roughly 3 grants per beta grant.
        let mut s = MultiTenantScheduler::new(cfg_two_tenants()).unwrap();
        let (a, b) = (TenantId(0), TenantId(1));
        for j in 0..12 {
            let t = if j < 6 { a } else { b };
            s.submit(SimTime::ZERO, j, t, 1, vec![]).unwrap();
        }
        let mut order = Vec::new();
        let mut now = SimTime::ZERO;
        while let Some(g) = s.try_grant(now) {
            order.push(g.tenant);
            now += SimDuration::from_millis(1);
            s.complete(now, g.job, g.tenant);
        }
        assert_eq!(order.len(), 12);
        // First four grants: 3 alpha to 1 beta.
        let alpha_early = order[..4].iter().filter(|t| **t == a).count();
        assert_eq!(alpha_early, 3, "order {order:?}");
        // Everyone eventually runs (starvation-freedom).
        assert_eq!(order.iter().filter(|t| **t == b).count(), 6);
    }

    #[test]
    fn max_running_quota_defers_but_never_drops() {
        let cfg = TenancyConfig::none()
            .tenant(TenantSpec::new("a").max_running(1))
            .tenant(TenantSpec::new("b"));
        let mut s = MultiTenantScheduler::new(cfg).unwrap();
        s.submit(SimTime::ZERO, 0, TenantId(0), 1, vec![]).unwrap();
        s.submit(SimTime::ZERO, 1, TenantId(0), 1, vec![]).unwrap();
        s.submit(SimTime::ZERO, 2, TenantId(1), 1, vec![]).unwrap();
        let g0 = s.try_grant(SimTime::ZERO).unwrap();
        assert_eq!(g0.tenant, TenantId(0));
        // a is at its running quota: the next grant must go to b, and a's
        // second job stays queued rather than being rejected.
        let g1 = s.try_grant(SimTime::ZERO).unwrap();
        assert_eq!(g1.tenant, TenantId(1));
        assert!(s.try_grant(SimTime::ZERO).is_none());
        s.complete(SimTime::ZERO + SimDuration::from_millis(1), 0, g0.tenant);
        let g2 = s
            .try_grant(SimTime::ZERO + SimDuration::from_millis(1))
            .unwrap();
        assert_eq!(g2.job, 1);
    }

    #[test]
    fn token_bucket_charges_queueing_delay() {
        let mut b = TokenBucket::new(1000.0, 100.0);
        // Inside the burst: free.
        assert_eq!(b.charge(SimTime::ZERO, 100.0), SimDuration::ZERO);
        // 500 more tokens at rate 1000/s: 0.5 s of queueing delay.
        let d = b.charge(SimTime::ZERO, 500.0);
        assert_eq!(d, SimDuration::from_millis(500));
        // After the backlog drains (+1 s) the bucket has refilled 0.5 s
        // worth (500 tokens, capped at burst 100): a burst is free again,
        // one token more is not.
        let later = SimTime::ZERO + SimDuration::from_secs(1);
        assert_eq!(b.clone().charge(later, 100.0), SimDuration::ZERO);
        assert!(b.charge(later, 101.0) > SimDuration::ZERO);
    }

    #[test]
    fn degrade_gate_sheds_to_scan_instead_of_queueing() {
        let cfg = TenancyConfig::none()
            .tenant(TenantSpec::new("a"))
            .tenant(TenantSpec::new("b"))
            .rate_limit(IndexRateLimit::new("users", 1000.0, 100.0))
            .degrade_threshold(SimDuration::from_micros(100))
            .scan_fallback_cost(SimDuration::from_micros(2));
        let mut s = MultiTenantScheduler::new(cfg).unwrap();
        // First grant drains the burst (100 lookups, free).
        s.submit(
            SimTime::ZERO,
            0,
            TenantId(0),
            1,
            vec![("users".into(), 100)],
        )
        .unwrap();
        let g0 = s.try_grant(SimTime::ZERO).unwrap();
        assert_eq!(g0.qos, QosCharge::ZERO);
        // Second grant would queue 1 ms per lookup (1000 lookups over an
        // empty bucket at 1000/s) — over the 100 µs gate, so it sheds.
        s.submit(
            SimTime::ZERO,
            1,
            TenantId(1),
            1,
            vec![("users".into(), 1000)],
        )
        .unwrap();
        let g1 = s.try_grant(SimTime::ZERO).unwrap();
        assert!(g1.qos.degraded());
        assert_eq!(g1.qos.shed_lookups, 1000);
        assert_eq!(g1.qos.delay, SimDuration::ZERO);
        assert_eq!(g1.qos.scan_cost, SimDuration::from_micros(2) * 1000);
        assert_eq!(s.ledger().row(TenantId(1)).shed_lookups, 1000);
    }

    #[test]
    fn double_run_is_bit_identical() {
        let run = || {
            let cfg = cfg_two_tenants()
                .queue_capacity(3)
                .rate_limit(IndexRateLimit::new("idx", 500.0, 50.0));
            let mut s = MultiTenantScheduler::new(cfg).unwrap();
            let mut now = SimTime::ZERO;
            for j in 0..8u64 {
                let t = TenantId((j % 2) as u16);
                let _ = s.submit(now, j, t, 1 + j, vec![("idx".into(), 40 * j)]);
                if j % 3 == 2 {
                    if let Some(g) = s.try_grant(now) {
                        now += SimDuration::from_millis(2);
                        s.complete(now, g.job, g.tenant);
                    }
                }
            }
            while let Some(g) = s.try_grant(now) {
                now += SimDuration::from_millis(1);
                s.complete(now, g.job, g.tenant);
            }
            (s.log().to_vec(), s.ledger().clone())
        };
        assert_eq!(run(), run());
    }
}
