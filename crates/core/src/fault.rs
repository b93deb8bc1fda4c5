//! Deterministic fault injection and tolerance for index access.
//!
//! The paper treats an index as an arbitrary remote side service (§5.2's
//! geo-IP host with injected extra delay), and a production deployment of
//! that idea must survive the service misbehaving. This module supplies
//! the three pieces the accessor path needs:
//!
//! * [`FaultPlan`] — a seeded, *deterministic* fault source. Whether a
//!   given lookup attempt fails, times out, or runs slow is a pure
//!   function of `(seed, counter prefix, key, attempt)`; no wall clock,
//!   no shared RNG state. Two runs with the same seed observe the exact
//!   same fault sequence regardless of thread interleaving, so every
//!   virtual observable stays bit-identical per seed.
//! * [`RetryPolicy`] — bounded retries with capped exponential backoff.
//!   Backoff pauses are charged to *virtual* task time through the normal
//!   [`TaskCtx::charge`](efind_mapreduce::TaskCtx::charge) path, so they
//!   flow into the earliest-finish-time schedule like any modeled cost.
//! * [`Breaker`] + [`MissPolicy`] — graceful degradation. A per-task
//!   circuit breaker opens once the observed failure ratio crosses a
//!   threshold; from then on lookups short-circuit to the configured miss
//!   policy (skip the record, substitute a default datum, or fail the
//!   job) instead of burning retries against a dead service. The adaptive
//!   runtime additionally reads the failure counters after the first map
//!   wave and pins a misbehaving operator back to the baseline strategy.
//!
//! [`FaultConfig`] bundles the knobs and threads from
//! [`EFindConfig`](crate::EFindConfig) through the compiled pipeline into
//! every [`ChargedLookup`](crate::ChargedLookup). The default config
//! injects nothing and changes nothing: with no `FaultPlan` installed the
//! accessor path is byte-for-byte the plain lookup path.

use efind_cluster::SimDuration;
use efind_common::{det, Datum};

/// What the fault plan decides for one lookup attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt proceeds normally.
    Ok,
    /// The attempt fails outright (connection refused / service error).
    Fail,
    /// The attempt hangs until the per-index timeout expires.
    Timeout,
    /// The attempt succeeds but the service runs slow by
    /// [`FaultPlan::slowdown_factor`].
    Slow,
}

/// A seeded, deterministic per-lookup fault source (virtual-time RNG).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed; every fault decision is a pure hash of the seed and the
    /// lookup's identity.
    pub seed: u64,
    /// Probability an attempt fails outright.
    pub failure_rate: f64,
    /// Probability an attempt times out.
    pub timeout_rate: f64,
    /// Probability an attempt runs slow (but succeeds).
    pub slowdown_rate: f64,
    /// Service-time multiplier for slow attempts.
    pub slowdown_factor: f64,
}

impl FaultPlan {
    /// A quiet plan: nothing injected until rates are raised.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            failure_rate: 0.0,
            timeout_rate: 0.0,
            slowdown_rate: 0.0,
            slowdown_factor: 4.0,
        }
    }

    /// Sets the outright-failure probability.
    pub fn failures(mut self, rate: f64) -> Self {
        self.failure_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the timeout probability.
    pub fn timeouts(mut self, rate: f64) -> Self {
        self.timeout_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the slowdown probability and factor.
    pub fn slowdowns(mut self, rate: f64, factor: f64) -> Self {
        self.slowdown_rate = rate.clamp(0.0, 1.0);
        self.slowdown_factor = factor.max(1.0);
        self
    }

    /// True when no fault can ever be injected.
    pub fn is_quiet(&self) -> bool {
        self.failure_rate == 0.0 && self.timeout_rate == 0.0 && self.slowdown_rate == 0.0
    }

    /// The fault decision for one attempt: a pure function of
    /// `(seed, scope, key, attempt)`. `scope` is the per-index counter
    /// prefix, so distinct indices draw independent fault sequences even
    /// for equal keys.
    pub fn outcome(&self, scope: &str, key: &Datum, attempt: u32) -> FaultKind {
        if self.is_quiet() {
            return FaultKind::Ok;
        }
        let u = det::draw_with(self.seed, scope, |payload| {
            key.encode_into(payload);
            payload.extend_from_slice(&attempt.to_le_bytes());
        });
        if u < self.failure_rate {
            FaultKind::Fail
        } else if u < self.failure_rate + self.timeout_rate {
            FaultKind::Timeout
        } else if u < self.failure_rate + self.timeout_rate + self.slowdown_rate {
            FaultKind::Slow
        } else {
            FaultKind::Ok
        }
    }
}

/// Bounded retries with capped exponential backoff, charged to virtual
/// time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Pause before the first retry.
    pub backoff_base: SimDuration,
    /// Growth factor per retry (values below 1 clamp to a constant pause).
    pub backoff_multiplier_x1000: u32,
    /// Upper bound on a single pause.
    pub max_backoff: SimDuration,
}

impl RetryPolicy {
    /// No retries at all.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff_base: SimDuration::ZERO,
            backoff_multiplier_x1000: 1000,
            max_backoff: SimDuration::ZERO,
        }
    }

    /// A bounded policy with doubling backoff from `base`.
    pub fn bounded(max_retries: u32, base: SimDuration, cap: SimDuration) -> Self {
        RetryPolicy {
            max_retries,
            backoff_base: base,
            backoff_multiplier_x1000: 2000,
            max_backoff: cap,
        }
    }

    /// The backoff multiplier as a float (stored ×1000 so the policy
    /// stays `Eq`/hashable and text-serializable without float drift).
    pub fn multiplier(&self) -> f64 {
        self.backoff_multiplier_x1000 as f64 / 1000.0
    }

    /// The virtual-time pause before retry number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        SimDuration::exp_backoff(
            self.backoff_base,
            self.multiplier(),
            attempt,
            self.max_backoff,
        )
    }
}

impl Default for RetryPolicy {
    /// 3 retries, 1 ms doubling backoff capped at 100 ms.
    fn default() -> Self {
        RetryPolicy::bounded(
            3,
            SimDuration::from_millis(1),
            SimDuration::from_millis(100),
        )
    }
}

/// What a degraded lookup produces once retries are exhausted or the
/// breaker is open.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum MissPolicy {
    /// Return an empty result list; the operator's postProcess sees a
    /// miss and (typically) drops the record.
    #[default]
    Skip,
    /// Substitute a single default datum as the lookup result.
    Default(Datum),
    /// Abort the job with an error.
    FailJob,
}

/// The full fault-tolerance configuration threaded from
/// [`EFindConfig`](crate::EFindConfig) into every charged lookup.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// The injection plan; `None` disables the fault layer entirely
    /// (retry/timeout/breaker settings then apply only to *real* accessor
    /// failures surfaced through `try_lookup`).
    pub plan: Option<FaultPlan>,
    /// Retry policy for failed or timed-out attempts.
    pub retry: RetryPolicy,
    /// Per-index timeout: an attempt whose modeled serve + transfer time
    /// exceeds this is charged the timeout and treated as failed.
    pub timeout: Option<SimDuration>,
    /// What a lookup yields after exhaustion or an open breaker.
    pub miss_policy: MissPolicy,
    /// Failure-ratio threshold (strict `>`) above which a task's breaker
    /// opens. The default 1.0 can never be exceeded, i.e. never opens.
    pub breaker_threshold_x1000: u32,
    /// Attempts observed before the breaker may open.
    pub breaker_min_samples: u64,
    /// Half-open cooldown on the task's virtual clock: once this much
    /// charged time has passed since the trip, the breaker admits one
    /// probe lookup — success closes it (counters reset), failure re-opens
    /// it for another full cooldown. `None` (the default) preserves
    /// trip-only behavior: an open breaker stays open for the task's
    /// lifetime.
    pub breaker_cooldown: Option<SimDuration>,
    /// Per-index measured failure rate above which the adaptive runtime
    /// degrades the operator to the baseline strategy (×1000).
    pub degrade_threshold_x1000: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

impl FaultConfig {
    /// A config that injects nothing and never degrades.
    pub fn disabled() -> Self {
        FaultConfig {
            plan: None,
            retry: RetryPolicy::default(),
            timeout: None,
            miss_policy: MissPolicy::Skip,
            breaker_threshold_x1000: 1000,
            breaker_min_samples: 16,
            breaker_cooldown: None,
            degrade_threshold_x1000: 500,
        }
    }

    /// Enables injection with the given plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// True when nothing this config describes can ever fire, asked
    /// before any per-lookup loop runs: no plan, or a plan whose rates are
    /// all zero *and* no per-index timeout.
    ///
    /// The timeout is the one asymmetry of the layer. A timeout is enforced
    /// against real serve times even when the plan injects nothing, so a
    /// quiet plan with a timeout is armed; with no plan at all nothing
    /// consults the timeout, so the config stays quiet. Quiet configs
    /// compile down to the plain lookup path — no per-attempt hash draw,
    /// no breaker, no retry bookkeeping — which is exactly the behavior
    /// the quiet-plan bit-identity proptests pin.
    pub fn is_quiet(&self) -> bool {
        self.plan
            .as_ref()
            .is_none_or(|plan| plan.is_quiet() && self.timeout.is_none())
    }

    /// Breaker threshold as a ratio.
    pub fn breaker_threshold(&self) -> f64 {
        self.breaker_threshold_x1000 as f64 / 1000.0
    }

    /// Adaptive degradation threshold as a ratio.
    pub fn degrade_threshold(&self) -> f64 {
        self.degrade_threshold_x1000 as f64 / 1000.0
    }
}

/// Per-task circuit breaker over one index's lookup stream.
///
/// Created per mapper/reducer instance (never shared across tasks), so a
/// task's degradation decision depends only on the lookups *it* issued —
/// deterministic regardless of task scheduling order.
#[derive(Clone, Debug)]
pub struct Breaker {
    attempts: u64,
    failures: u64,
    threshold: f64,
    min_samples: u64,
    open: bool,
    /// Half-open cooldown; `None` means trip-only (open stays open).
    cooldown: Option<SimDuration>,
    /// Task-clock instant of the most recent trip, meaningful while open.
    tripped_at: SimDuration,
    /// True while exactly one probe lookup is in flight after a cooldown.
    probing: bool,
    /// Times a probe succeeded and fully closed the breaker.
    resets: u64,
}

impl Breaker {
    /// A closed breaker opening above `threshold` (strict) after
    /// `min_samples` attempts. Without a cooldown it stays open for the
    /// task's lifetime once tripped.
    pub fn new(threshold: f64, min_samples: u64) -> Self {
        Breaker {
            attempts: 0,
            failures: 0,
            threshold,
            min_samples: min_samples.max(1),
            open: false,
            cooldown: None,
            tripped_at: SimDuration::ZERO,
            probing: false,
            resets: 0,
        }
    }

    /// Installs a half-open cooldown measured on the task's virtual
    /// clock (the accessor passes `ctx.charged()` as "now"). `None`
    /// leaves the breaker trip-only.
    pub fn with_cooldown(mut self, cooldown: Option<SimDuration>) -> Self {
        self.cooldown = cooldown;
        self
    }

    /// Records one attempt outcome at task-clock instant `now`.
    ///
    /// While probing, the outcome resolves the probe instead of feeding
    /// the ratio: success closes the breaker and resets its counters so a
    /// later trip again needs `min_samples` fresh attempts; failure
    /// re-opens it and restarts the cooldown from `now`.
    pub fn record_at(&mut self, success: bool, now: SimDuration) {
        if self.probing {
            self.probing = false;
            if success {
                self.open = false;
                self.attempts = 0;
                self.failures = 0;
                self.resets += 1;
            } else {
                self.tripped_at = now;
            }
            return;
        }
        self.attempts += 1;
        if !success {
            self.failures += 1;
        }
        if !self.open
            && self.attempts >= self.min_samples
            && self.failures as f64 > self.threshold * self.attempts as f64
        {
            self.open = true;
            self.tripped_at = now;
        }
    }

    /// Records one attempt outcome on a breaker without a cooldown.
    pub fn record(&mut self, success: bool) {
        self.record_at(success, SimDuration::ZERO);
    }

    /// Whether a lookup issued at task-clock instant `now` is blocked.
    ///
    /// An open breaker whose cooldown has elapsed flips to half-open and
    /// lets the caller's lookup through as the probe; the next
    /// [`record_at`](Self::record_at) resolves it. Without a cooldown
    /// this is exactly [`is_open`](Self::is_open).
    pub fn blocks_at(&mut self, now: SimDuration) -> bool {
        if !self.open {
            return false;
        }
        if self.probing {
            return false;
        }
        match self.cooldown {
            Some(cd) if now >= self.tripped_at + cd => {
                self.probing = true;
                false
            }
            _ => true,
        }
    }

    /// True once the failure ratio has crossed the threshold (raw open
    /// state; ignores any pending half-open probe).
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Attempts observed so far (since the last reset).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Failures observed so far (since the last reset).
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Times a half-open probe succeeded and closed the breaker.
    pub fn resets(&self) -> u64 {
        self.resets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_is_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::new(7).failures(0.3).timeouts(0.1);
        let key = Datum::Int(42);
        let a = plan.outcome("efind.op.0.", &key, 0);
        let b = plan.outcome("efind.op.0.", &key, 0);
        assert_eq!(a, b, "same (seed, scope, key, attempt) must agree");
        // Across many keys, a different seed must produce a different
        // fault sequence somewhere.
        let other = FaultPlan::new(8).failures(0.3).timeouts(0.1);
        let diverges = (0..200).any(|i| {
            let k = Datum::Int(i);
            plan.outcome("efind.op.0.", &k, 0) != other.outcome("efind.op.0.", &k, 0)
        });
        assert!(diverges);
    }

    #[test]
    fn outcome_rates_are_roughly_honored() {
        let plan = FaultPlan::new(3).failures(0.25);
        let fails = (0..4000)
            .filter(|&i| plan.outcome("s.", &Datum::Int(i), 0) == FaultKind::Fail)
            .count();
        let rate = fails as f64 / 4000.0;
        assert!((0.20..=0.30).contains(&rate), "rate={rate}");
    }

    #[test]
    fn quiet_plan_never_injects() {
        let plan = FaultPlan::new(99);
        assert!(plan.is_quiet());
        for i in 0..500 {
            assert_eq!(plan.outcome("s.", &Datum::Int(i), 0), FaultKind::Ok);
        }
    }

    #[test]
    fn attempts_draw_independent_outcomes() {
        // With a 50% failure rate some key must fail on attempt 0 and
        // succeed on a later attempt — the retry loop's whole premise.
        let plan = FaultPlan::new(11).failures(0.5);
        let recovered = (0..100).any(|i| {
            let k = Datum::Int(i);
            plan.outcome("s.", &k, 0) == FaultKind::Fail
                && plan.outcome("s.", &k, 1) == FaultKind::Ok
        });
        assert!(recovered);
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy::bounded(5, SimDuration::from_millis(2), SimDuration::from_millis(10));
        assert_eq!(p.backoff(0), SimDuration::from_millis(2));
        assert_eq!(p.backoff(1), SimDuration::from_millis(4));
        assert_eq!(p.backoff(2), SimDuration::from_millis(8));
        assert_eq!(p.backoff(3), SimDuration::from_millis(10));
        assert_eq!(RetryPolicy::none().backoff(3), SimDuration::ZERO);
    }

    #[test]
    fn breaker_opens_after_threshold_and_min_samples() {
        let mut b = Breaker::new(0.5, 4);
        b.record(false);
        b.record(false);
        assert!(!b.is_open(), "below min samples");
        b.record(false);
        b.record(false);
        assert!(b.is_open(), "4/4 failures > 50%");

        let mut ok = Breaker::new(0.5, 4);
        for _ in 0..8 {
            ok.record(true);
            ok.record(false);
        }
        assert!(!ok.is_open(), "50% is not strictly above 50%");
        assert_eq!(ok.attempts(), 16);
        assert_eq!(ok.failures(), 8);
    }

    #[test]
    fn breaker_without_cooldown_stays_open_forever() {
        let mut b = Breaker::new(0.5, 2);
        b.record_at(false, SimDuration::from_micros(1));
        b.record_at(false, SimDuration::from_micros(2));
        assert!(b.is_open());
        // No cooldown: arbitrarily far in the future it still blocks.
        assert!(b.blocks_at(SimDuration::from_secs(3600)));
        assert!(b.is_open());
        assert_eq!(b.resets(), 0);
    }

    #[test]
    fn breaker_half_open_probe_success_closes_and_resets() {
        let cd = SimDuration::from_millis(1);
        let mut b = Breaker::new(0.5, 2).with_cooldown(Some(cd));
        b.record_at(false, SimDuration::from_micros(10));
        b.record_at(false, SimDuration::from_micros(20));
        assert!(b.is_open(), "tripped at t=20µs");
        // Inside the cooldown the breaker still blocks.
        assert!(b.blocks_at(SimDuration::from_micros(500)));
        // Past the cooldown it admits exactly one probe.
        let probe_t = SimDuration::from_micros(20) + cd;
        assert!(!b.blocks_at(probe_t), "cooldown elapsed: half-open");
        assert!(b.is_open(), "half-open is still raw-open until resolved");
        // Probe succeeds: fully closed, counters reset, reset counted.
        b.record_at(true, probe_t);
        assert!(!b.is_open());
        assert!(!b.blocks_at(probe_t));
        assert_eq!(b.attempts(), 0);
        assert_eq!(b.failures(), 0);
        assert_eq!(b.resets(), 1);
        // A later trip needs min_samples fresh attempts again.
        b.record_at(false, probe_t + cd);
        assert!(!b.is_open(), "one failure after reset is below min_samples");
    }

    #[test]
    fn breaker_half_open_probe_failure_reopens_with_fresh_cooldown() {
        let cd = SimDuration::from_millis(1);
        let mut b = Breaker::new(0.5, 2).with_cooldown(Some(cd));
        b.record_at(false, SimDuration::ZERO);
        b.record_at(false, SimDuration::ZERO);
        assert!(b.is_open());
        let probe_t = cd; // tripped at t=0, cooldown just elapsed
        assert!(!b.blocks_at(probe_t));
        // Probe fails: re-open and the cooldown restarts from the probe.
        b.record_at(false, probe_t);
        assert!(b.is_open());
        assert_eq!(b.resets(), 0);
        assert!(
            b.blocks_at(probe_t + SimDuration::from_micros(999)),
            "inside the restarted cooldown"
        );
        assert!(!b.blocks_at(probe_t + cd), "second probe after restart");
        b.record_at(true, probe_t + cd);
        assert!(!b.is_open());
        assert_eq!(b.resets(), 1);
    }

    #[test]
    fn quiet_classification() {
        // No plan, or a configured-but-quiet plan without a timeout: quiet
        // — the accessor keeps the plain path.
        assert!(FaultConfig::disabled().is_quiet());
        let quiet = FaultConfig::disabled().with_plan(FaultPlan::new(7));
        assert!(quiet.is_quiet());
        // Any nonzero rate arms the layer.
        let rates = FaultConfig::disabled().with_plan(FaultPlan::new(7).failures(0.01));
        assert!(!rates.is_quiet());
        // A per-index timeout arms it even under a quiet plan: timeouts
        // bound *real* serve times, not just injected ones.
        let mut timed = FaultConfig::disabled().with_plan(FaultPlan::new(7));
        timed.timeout = Some(SimDuration::from_micros(50));
        assert!(!timed.is_quiet());
        // A timeout with no plan at all stays quiet (nothing consults it).
        let mut planless = FaultConfig::disabled();
        planless.timeout = Some(SimDuration::from_micros(50));
        assert!(planless.is_quiet());
    }

    #[test]
    fn default_config_is_inert() {
        let cfg = FaultConfig::default();
        assert!(cfg.is_quiet());
        assert_eq!(cfg.miss_policy, MissPolicy::Skip);
        let cfg = FaultConfig::disabled();
        assert!(cfg.is_quiet());
        assert_eq!(cfg.breaker_threshold(), 1.0);
        assert_eq!(cfg.degrade_threshold(), 0.5);
    }
}
