//! The index accessor interface and the cost-charging lookup wrapper.
//!
//! An [`IndexAccessor`] is "implemented once for each type of index and can
//! be reused" (§2). EFind treats the index as a black box: `lookup` does
//! the real work, `serve_time` reports the modeled index-side latency `T_j`
//! (Table 1), and `partition_scheme` optionally exposes how the index is
//! partitioned — the hook that enables the index locality strategy (§3.4):
//! *"The partition scheme of an index can be communicated to EFind by
//! implementing a partition method and setting a flag in the class of
//! IndexAccessor."*

use std::sync::Arc;

use crate::fault::{Breaker, FaultConfig, FaultKind, FaultPlan, MissPolicy, RetryPolicy};
use efind_cluster::{CorruptionPlan, NetworkModel, NodeId, SimDuration};
use efind_common::{Datum, KeyKind};
use efind_mapreduce::{CounterHandle, TaskCtx};

/// How a distributed index is partitioned, and where partitions live.
pub trait PartitionScheme: Send + Sync {
    /// Number of partitions.
    fn num_partitions(&self) -> usize;
    /// Partition owning `key`.
    fn partition_of(&self, key: &Datum) -> usize;
    /// Replica hosts of a partition.
    fn hosts(&self, partition: usize) -> Vec<NodeId>;
}

/// Outcome of a fallible lookup: distinguishes "the key is absent" from
/// "the service failed", which an infallible `Vec` return conflates into
/// an empty result.
#[derive(Clone, Debug, PartialEq)]
pub enum LookupResult {
    /// The service answered; the list may legitimately be empty. The list
    /// is the shared block the lookup cache, the carrier slot,
    /// [`IndexOutput`](crate::IndexOutput) and `post_process` all read: an
    /// accessor that stores its lists hands out a refcount bump of its own
    /// block, so nothing downstream of the index copies the values.
    Hit(Arc<[Datum]>),
    /// The service answered: the key has no entry.
    Miss,
    /// The service failed to answer (connection/service error). Fed into
    /// the retry path and counted separately from misses.
    Failed(String),
}

impl LookupResult {
    /// A [`Hit`](Self::Hit) from an owned `Vec<Datum>` (copied once into a
    /// shared block) or from an `Arc<[Datum]>` the caller already holds
    /// (a refcount bump).
    pub fn hit(values: impl Into<Arc<[Datum]>>) -> Self {
        LookupResult::Hit(values.into())
    }
}

/// A selectively accessible side data source (the paper's broad "index").
pub trait IndexAccessor: Send + Sync {
    /// Stable name used in counters and reports.
    fn name(&self) -> &str;

    /// Looks up `key`, returning the (possibly empty) list of values.
    /// Must be idempotent for the duration of a job (§3.2's assumption).
    /// This is the owned convenience call for tools and tests; the
    /// framework itself only ever calls [`try_lookup`](Self::try_lookup).
    fn lookup(&self, key: &Datum) -> Vec<Datum>;

    /// Fallible lookup, and the one call the framework makes. The default
    /// wraps [`lookup`](Self::lookup) in [`LookupResult::Hit`], copying the
    /// owned list into a shared block once — accessors that compute their
    /// results need no change. Store your lists as `Arc<[Datum]>` and
    /// override this if results are large: the hit is then a refcount bump
    /// of the stored block. Accessors that can distinguish absent keys (or
    /// fail) also override it, so misses and failures land in separate
    /// counters.
    fn try_lookup(&self, key: &Datum) -> LookupResult {
        LookupResult::hit(self.lookup(key))
    }

    /// A hint that [`try_lookup`](Self::try_lookup) will soon be asked for
    /// `key`: an accessor whose lookups wait on memory may start bringing
    /// the key's entry near, so that the waits of a window of keys hinted
    /// back to back overlap. It answers nothing and must change nothing a
    /// lookup, or anything else, can observe. The default does nothing.
    fn prefetch(&self, _key: &Datum) {}

    /// Modeled index-side service time `T_j` for one lookup, excluding
    /// network transfer (which EFind charges itself).
    fn serve_time(&self, key: &Datum, result_bytes: u64) -> SimDuration;

    /// The index's partition scheme, if it exposes one. Returning `Some`
    /// is the flag that makes the index eligible for index locality.
    fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
        None
    }

    /// Whether `lookup` is a pure function of its key for the duration of
    /// a job. Accessors backed by mutable or sampled sources return
    /// `false`; the static analyzer then emits `EF012` and the adaptive
    /// runtime disables mid-job result reuse (§3.2's idempotence
    /// assumption).
    fn deterministic(&self) -> bool {
        true
    }

    /// The key kind this accessor accepts. [`KeyKind::Any`] (the default)
    /// opts out of static key-type checking; a concrete kind lets the
    /// analyzer flag mismatched operators with `EF007`.
    fn key_kind(&self) -> KeyKind {
        KeyKind::Any
    }
}

/// Which attempts of a hedged lookup pay virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HedgePolicy {
    /// Only the winning attempt's wall time is charged: the loser is
    /// cancelled for free the instant the first answer lands (the
    /// optimistic tail-latency model).
    #[default]
    ChargeWinner,
    /// The winner's wall time plus the loser's spent time are charged:
    /// the losing attempt's work is real resource usage the index side
    /// performed before the cancel arrived.
    ChargeBoth,
}

/// Configuration of hedged index lookups: after `threshold` of modeled
/// latency, a backup request races the primary against a different
/// replica / partition side and the first answer wins.
///
/// Hedging is a *virtual-cost race*: exactly one real
/// [`IndexAccessor::try_lookup`] runs either way (the accessor is
/// idempotent for the job, §3.2, so both attempts would return the same
/// bytes), which keeps hedged answers bit-identical to unhedged ones.
/// Only the charged virtual time — and the `hedge.*` counters — differ.
/// With `threshold: None` the layer is quiet: [`ChargedLookup`] installs
/// no state and takes the literal plain path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Seed for the backup attempt's latency draw.
    pub seed: u64,
    /// Modeled primary latency after which the backup fires. `None`
    /// disables hedging entirely.
    pub threshold: Option<SimDuration>,
    /// How the losing attempt is charged.
    pub policy: HedgePolicy,
}

impl HedgeConfig {
    /// The disabled (quiet) configuration.
    pub fn disabled() -> Self {
        HedgeConfig::default()
    }

    /// True when lookups never hedge (no threshold).
    pub fn is_quiet(&self) -> bool {
        self.threshold.is_none()
    }
}

/// How a lookup's network leg is charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupMode {
    /// The task may run anywhere; the lookup always crosses the network
    /// (baseline, cache, and re-partitioning strategies).
    Remote,
    /// Index-locality: the service time is always paid, but the network
    /// leg becomes an affinity penalty — charged only if the scheduler
    /// fails to place the task on an index partition host.
    Local,
}

/// Wraps an accessor with cost charging and statistics counters.
///
/// Every EFind strategy funnels lookups through this wrapper so the
/// counters of §4.2 (`Nik`, `Sik`, `Siv`, `T_j` samples, FM distinct
/// sketches) are collected uniformly. A task that drives an index adds its
/// counts up in a [`LookupTally`] and a [`KeyTally`] and flushes them once
/// at task end; virtual time, sketches and failures still land on the
/// task context per call.
pub struct ChargedLookup {
    accessor: Arc<dyn IndexAccessor>,
    network: NetworkModel,
    /// Counter prefix, `efind.<operator>.<index>.`.
    prefix: String,
    /// Fault-tolerance state; `None` keeps the plain, zero-overhead path.
    fault: Option<FaultState>,
    /// Hedged-lookup state; `None` keeps the plain, race-free path.
    hedge: Option<HedgeState>,
    /// Corruption plan for response verification; a quiet plan keeps the
    /// plain, checksum-free path.
    corruption: CorruptionPlan,
    /// The empty answer of a miss, a failure or a given-up lookup: one
    /// block for the wrapper's life, handed out by refcount.
    empty: Arc<[Datum]>,
    /// Per-index counter names, resolved once at construction so the
    /// per-lookup path never formats or allocates a name.
    c_lookups: CounterHandle,
    c_sik_bytes: CounterHandle,
    c_siv_bytes: CounterHandle,
    c_tj_nanos: CounterHandle,
    c_nik: CounterHandle,
    c_key_bytes: CounterHandle,
    c_distinct: CounterHandle,
    c_misses: CounterHandle,
    c_f_failures: CounterHandle,
    c_f_timeouts: CounterHandle,
    c_f_slowdowns: CounterHandle,
    c_f_retries: CounterHandle,
    c_f_backoff_nanos: CounterHandle,
    c_f_exhausted: CounterHandle,
    c_f_degraded: CounterHandle,
    c_i_refetch: CounterHandle,
    c_h_fired: CounterHandle,
    c_h_wins: CounterHandle,
    c_h_loser_nanos: CounterHandle,
}

/// The per-index slice of [`FaultConfig`] installed in a wrapper.
struct FaultState {
    plan: FaultPlan,
    retry: RetryPolicy,
    timeout: Option<SimDuration>,
    miss_policy: MissPolicy,
    breaker_threshold: f64,
    breaker_min_samples: u64,
    breaker_cooldown: Option<SimDuration>,
}

/// The resolved hedging state of a wrapper: only an armed [`HedgeConfig`]
/// installs one. The partition scheme is resolved once at install so the
/// per-lookup race never re-queries the accessor.
struct HedgeState {
    seed: u64,
    threshold: SimDuration,
    policy: HedgePolicy,
    /// The index's partition scheme, when it exposes one: the backup
    /// attempt races against the *other* partition side of the key, so
    /// its latency draw is keyed by that side.
    scheme: Option<Arc<dyn PartitionScheme>>,
}

/// What a task's lookups through one [`ChargedLookup`] add to its
/// counters: plain sums, written once by [`ChargedLookup::flush`].
///
/// Per-call bumps into the task's sorted counter set cost a binary search
/// each, several times a lookup; a tally costs an add. The flush writes
/// exactly the entries those bumps would have made, zero-valued ones
/// included: an entry exists iff its event happened.
#[derive(Clone, Debug, Default)]
pub struct LookupTally {
    /// Completed round trips; `sik`, `siv` and `tj` come with them.
    lookups: i64,
    sik_bytes: i64,
    siv_bytes: i64,
    tj_nanos: i64,
    misses: i64,
    failures: i64,
    timeouts: i64,
    slowdowns: i64,
    /// Retries; the backoff they paid comes with them.
    retries: i64,
    backoff_nanos: i64,
    exhausted: i64,
    degraded: i64,
    refetches: i64,
    /// Backups fired; what their losers spent comes with them.
    hedges: i64,
    hedge_wins: i64,
    loser_nanos: i64,
}

/// What a task's requested keys add to one [`ChargedLookup`]'s `Nik`
/// counters, written once by [`ChargedLookup::flush_keys`]: `nik` and
/// `key.bytes` together, iff a key was requested. Apart from
/// [`LookupTally`] because a task notes keys in `preProcess`, where no
/// lookup is made.
#[derive(Clone, Copy, Debug, Default)]
pub struct KeyTally {
    nik: i64,
    key_bytes: i64,
}

impl ChargedLookup {
    /// Creates a charging wrapper; `prefix` follows the
    /// `efind.<operator>.<index>.` convention. All per-lookup counter
    /// names are interned here, once.
    pub fn new(accessor: Arc<dyn IndexAccessor>, network: NetworkModel, prefix: String) -> Self {
        let h = |suffix: &str| CounterHandle::new(&format!("{prefix}{suffix}"));
        ChargedLookup {
            accessor,
            network,
            fault: None,
            hedge: None,
            c_lookups: h("lookups"),
            c_sik_bytes: h("sik.bytes"),
            c_siv_bytes: h("siv.bytes"),
            c_tj_nanos: h("tj.nanos"),
            c_nik: h("nik"),
            c_key_bytes: h("key.bytes"),
            c_distinct: h("distinct"),
            c_misses: h("misses"),
            c_f_failures: h("fault.failures"),
            c_f_timeouts: h("fault.timeouts"),
            c_f_slowdowns: h("fault.slowdowns"),
            c_f_retries: h("fault.retries"),
            c_f_backoff_nanos: h("fault.backoff.nanos"),
            c_f_exhausted: h("fault.exhausted"),
            c_f_degraded: h("fault.degraded"),
            c_i_refetch: h("integrity.refetch"),
            c_h_fired: h("hedge.fired"),
            c_h_wins: h("hedge.wins"),
            c_h_loser_nanos: h("hedge.loser.nanos"),
            corruption: CorruptionPlan::none(),
            empty: Arc::new([]),
            prefix,
        }
    }

    /// Installs the fault layer. The config is asked once here via
    /// [`FaultConfig::is_quiet`]: a quiet config — no plan, or a
    /// configured-but-quiet plan with no per-index timeout — leaves the
    /// wrapper on the plain path, so per-lookup fault draws, breaker
    /// bookkeeping, and timeout checks cost literally nothing. Only an
    /// armed config (nonzero rates, or any timeout alongside a plan)
    /// installs [`FaultState`] and routes lookups through the guarded path.
    pub fn with_faults(mut self, config: &FaultConfig) -> Self {
        if config.is_quiet() {
            self.fault = None;
            return self;
        }
        if let Some(plan) = config.plan {
            self.fault = Some(FaultState {
                plan,
                retry: config.retry,
                timeout: config.timeout,
                miss_policy: config.miss_policy.clone(),
                breaker_threshold: config.breaker_threshold(),
                breaker_min_samples: config.breaker_min_samples,
                breaker_cooldown: config.breaker_cooldown,
            });
        }
        self
    }

    /// Installs the corruption plan for response verification. A plan that
    /// does not corrupt responses (or has verification disabled) keeps the
    /// wrapper on the plain path.
    pub fn with_corruption(mut self, plan: &CorruptionPlan) -> Self {
        self.corruption = plan.clone();
        self
    }

    /// Installs the hedging layer. A disabled config (`threshold: None`)
    /// installs no state, so the wrapper keeps the literal plain path —
    /// not a single draw, comparison, or counter bump per lookup.
    pub fn with_hedging(mut self, config: &HedgeConfig) -> Self {
        self.hedge = config.threshold.map(|threshold| HedgeState {
            seed: config.seed,
            threshold,
            policy: config.policy,
            scheme: self.accessor.partition_scheme(),
        });
        self
    }

    /// True when lookups race a hedged backup past the threshold.
    pub fn hedges(&self) -> bool {
        self.hedge.is_some()
    }

    /// A fresh per-task circuit breaker, or `None` when the fault layer is
    /// not installed. Each mapper/reducer instance owns its breaker so
    /// degradation decisions never couple concurrent tasks.
    pub fn new_breaker(&self) -> Option<Breaker> {
        self.fault.as_ref().map(|f| {
            Breaker::new(f.breaker_threshold, f.breaker_min_samples)
                .with_cooldown(f.breaker_cooldown)
        })
    }

    /// The wrapped accessor.
    pub fn accessor(&self) -> &Arc<dyn IndexAccessor> {
        &self.accessor
    }

    /// The counter prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Performs one real lookup, charging virtual time and updating
    /// statistics counters on `ctx`. The result list is a shared handle
    /// suitable for caching without deep copies. A task that looks up many
    /// keys tallies them ([`lookup_guarded`](Self::lookup_guarded)) and
    /// flushes once; this call flushes a tally of one lookup.
    pub fn lookup(&self, key: &Datum, mode: LookupMode, ctx: &mut TaskCtx) -> Arc<[Datum]> {
        let mut tally = LookupTally::default();
        let values = self.lookup_guarded(key, mode, ctx, None, &mut tally);
        self.flush(&tally, ctx);
        values
    }

    /// [`lookup`](Self::lookup) with an optional per-task circuit breaker,
    /// its counts added to `tally`. Call sites that own a breaker (one per
    /// mapper/reducer instance) route through here; with no fault layer
    /// installed this is exactly the plain lookup path.
    pub fn lookup_guarded(
        &self,
        key: &Datum,
        mode: LookupMode,
        ctx: &mut TaskCtx,
        breaker: Option<&mut Breaker>,
        tally: &mut LookupTally,
    ) -> Arc<[Datum]> {
        match &self.fault {
            None => self
                .round_trip(key, mode, ctx, tally, None, None)
                .unwrap_or_else(|| self.empty.clone()),
            Some(fault) => self.lookup_faulty(fault, key, mode, ctx, breaker, tally),
        }
    }

    /// Splits a lookup's cost between task time and affinity penalty.
    fn charge_split(
        &self,
        mode: LookupMode,
        ctx: &mut TaskCtx,
        serve: SimDuration,
        transfer: SimDuration,
    ) {
        // The remote leg pays per-request latency plus volume; a local
        // lookup (index locality hit) avoids both.
        match mode {
            LookupMode::Remote => ctx.charge(serve + transfer),
            LookupMode::Local => {
                ctx.charge(serve);
                ctx.charge_affinity_penalty(transfer);
            }
        }
    }

    /// Charges one *completed* lookup round trip, racing a hedged backup
    /// when the layer is armed and the primary's modeled latency exceeds
    /// the threshold. Exactly one real lookup happened either way — the
    /// race only decides how much virtual time the answer cost:
    ///
    /// * the backup fires at `threshold` against the other partition side
    ///   of the key (or another replica) and completes after a seeded
    ///   draw of its own latency,
    /// * the first answer wins the wall clock,
    /// * the loser's spent time is recorded — and, under
    ///   [`HedgePolicy::ChargeBoth`], charged on top.
    ///
    /// Index-locality lookups ([`LookupMode::Local`]) never hedge: their
    /// slow leg is the placement penalty, not index-side latency, and
    /// hedging it would double-charge the affinity machinery. Failed and
    /// timed-out attempts never reach this path.
    fn charge_completed(
        &self,
        key: &Datum,
        mode: LookupMode,
        ctx: &mut TaskCtx,
        tally: &mut LookupTally,
        serve: SimDuration,
        transfer: SimDuration,
    ) {
        let hedge = match &self.hedge {
            Some(h) if mode == LookupMode::Remote => h,
            _ => return self.charge_split(mode, ctx, serve, transfer),
        };
        let primary = serve + transfer;
        if primary <= hedge.threshold {
            return self.charge_split(mode, ctx, serve, transfer);
        }
        tally.hedges += 1;
        // Key the backup's latency draw by the *other* partition side of
        // the key (unpartitioned indexes hedge against another replica of
        // the single side), so the two attempts see independent latency.
        let draw = efind_common::det::draw_with(hedge.seed, "hedge.backup", |payload| {
            key.encode_into(payload);
            if let Some(scheme) = &hedge.scheme {
                let n = scheme.num_partitions().max(1);
                let side = (scheme.partition_of(key) + 1) % n;
                payload.extend_from_slice(&(side as u64).to_le_bytes());
            }
        });
        let backup = hedge.threshold + primary.mul_f64(draw);
        let wall = primary.min(backup);
        let loser_spent = if backup < primary {
            // Backup won: the primary ran from t=0 until the backup's
            // answer cancelled it.
            tally.hedge_wins += 1;
            backup
        } else {
            // Primary won: the backup ran from the threshold until the
            // primary's answer cancelled it.
            primary.saturating_sub(hedge.threshold)
        };
        tally.loser_nanos += loser_spent.as_nanos() as i64;
        match hedge.policy {
            HedgePolicy::ChargeWinner => ctx.charge(wall),
            HedgePolicy::ChargeBoth => ctx.charge(wall + loser_spent),
        }
    }

    /// Verifies a completed response against the corruption plan: each
    /// corrupted transfer fails its checksum and is re-fetched, paying the
    /// full serve + transfer cost again. The draw is keyed by attempt
    /// number, so a re-fetch can itself be corrupted; rates below 1.0
    /// terminate with probability 1 and identical answers either way —
    /// response corruption costs virtual time, never correctness. Quiet
    /// or unverified plans return without a single draw.
    fn verify_response(
        &self,
        key: &Datum,
        mode: LookupMode,
        ctx: &mut TaskCtx,
        tally: &mut LookupTally,
        serve: SimDuration,
        transfer: SimDuration,
    ) {
        if !self.corruption.verifies_responses() {
            return;
        }
        let mut attempt: u32 = 0;
        while self.corruption.response_corrupt(&self.prefix, key, attempt) {
            self.charge_split(mode, ctx, serve, transfer);
            tally.refetches += 1;
            attempt += 1;
        }
    }

    /// One round trip to the accessor: charge it, count it, verify the
    /// answer. `slowdown` scales the service time of an attempt the fault
    /// plan slowed, and an answer with values that would land after
    /// `timeout` is given up at the deadline. Returns `None` when the
    /// attempt failed or timed out, its cost and counter already charged.
    /// The plain path passes `None` for both: no draw, no deadline, and a
    /// failure surfaces as an empty result.
    fn round_trip(
        &self,
        key: &Datum,
        mode: LookupMode,
        ctx: &mut TaskCtx,
        tally: &mut LookupTally,
        slowdown: Option<f64>,
        timeout: Option<SimDuration>,
    ) -> Option<Arc<[Datum]>> {
        let sik = key.size_bytes();
        let (values, siv, miss) = match self.accessor.try_lookup(key) {
            LookupResult::Hit(values) => {
                let siv = values.iter().map(Datum::size_bytes).sum();
                (values, siv, false)
            }
            // A miss is a completed round trip with an empty answer; it
            // costs the same as an empty hit but is counted apart.
            LookupResult::Miss => (self.empty.clone(), 0, true),
            LookupResult::Failed(_) => {
                let serve = self.accessor.serve_time(key, 0);
                self.charge_split(mode, ctx, serve, self.network.transfer(sik));
                tally.failures += 1;
                return None;
            }
        };
        let mut serve = self.accessor.serve_time(key, siv);
        if let Some(factor) = slowdown {
            serve = serve.mul_f64(factor);
        }
        let transfer = self.network.transfer(sik + siv);
        if let Some(deadline) = timeout.filter(|&t| !miss && serve + transfer > t) {
            // Too slow: the caller gives up at the deadline; the answer
            // is discarded.
            ctx.charge(deadline);
            tally.timeouts += 1;
            return None;
        }
        tally.slowdowns += i64::from(slowdown.is_some());
        self.charge_completed(key, mode, ctx, tally, serve, transfer);
        // The per-lookup statistics of §4.2.
        tally.lookups += 1;
        tally.sik_bytes += sik as i64;
        tally.siv_bytes += siv as i64;
        tally.tj_nanos += serve.as_nanos() as i64;
        tally.misses += i64::from(miss);
        self.verify_response(key, mode, ctx, tally, serve, transfer);
        Some(values)
    }

    /// The guarded path: injects faults from the plan, retries with
    /// virtual-time backoff, enforces the per-index timeout, and degrades
    /// through the breaker / miss policy. The real accessor is consulted
    /// only on attempts the plan lets through, so a lookup is
    /// exactly-once-effective no matter how many attempts it takes.
    fn lookup_faulty(
        &self,
        fault: &FaultState,
        key: &Datum,
        mode: LookupMode,
        ctx: &mut TaskCtx,
        mut breaker: Option<&mut Breaker>,
        tally: &mut LookupTally,
    ) -> Arc<[Datum]> {
        let now = ctx.charged();
        if breaker.as_deref_mut().is_some_and(|b| b.blocks_at(now)) {
            tally.degraded += 1;
            return self.miss_result(fault, key, ctx);
        }
        let sik = key.size_bytes();
        let mut attempt: u32 = 0;
        loop {
            let kind = fault.plan.outcome(&self.prefix, key, attempt);
            match kind {
                FaultKind::Fail => {
                    // A refused/errored request still pays the request
                    // latency and the outbound key bytes.
                    let serve = self.accessor.serve_time(key, 0);
                    self.charge_split(mode, ctx, serve, self.network.transfer(sik));
                    tally.failures += 1;
                }
                FaultKind::Timeout => {
                    // A hung request costs the full timeout budget (or the
                    // would-be round trip when no timeout is configured).
                    let serve = self.accessor.serve_time(key, 0);
                    let wait = fault.timeout.unwrap_or(serve + self.network.transfer(sik));
                    ctx.charge(wait);
                    tally.timeouts += 1;
                }
                FaultKind::Ok | FaultKind::Slow => {
                    let slowdown = (kind == FaultKind::Slow).then_some(fault.plan.slowdown_factor);
                    if let Some(values) =
                        self.round_trip(key, mode, ctx, tally, slowdown, fault.timeout)
                    {
                        if let Some(b) = breaker.as_deref_mut() {
                            b.record_at(true, ctx.charged());
                        }
                        return values;
                    }
                }
            }
            // The attempt failed (injected or real). Update the breaker,
            // then either retry on the virtual clock or give up.
            if let Some(b) = breaker.as_deref_mut() {
                b.record_at(false, ctx.charged());
                if b.blocks_at(ctx.charged()) {
                    tally.degraded += 1;
                    return self.miss_result(fault, key, ctx);
                }
            }
            if attempt >= fault.retry.max_retries {
                tally.exhausted += 1;
                return self.miss_result(fault, key, ctx);
            }
            let pause = fault.retry.backoff(attempt);
            ctx.charge(pause);
            tally.retries += 1;
            tally.backoff_nanos += pause.as_nanos() as i64;
            attempt += 1;
        }
    }

    /// Resolves a given-up lookup through the miss policy.
    fn miss_result(&self, fault: &FaultState, key: &Datum, ctx: &mut TaskCtx) -> Arc<[Datum]> {
        match &fault.miss_policy {
            MissPolicy::Skip => self.empty.clone(),
            MissPolicy::Default(datum) => Arc::new([datum.clone()]),
            MissPolicy::FailJob => {
                ctx.fail(format!(
                    "{}lookup for key {key:?} failed after exhausting retries",
                    self.prefix
                ));
                self.empty.clone()
            }
        }
    }

    /// Records one requested key (before caching/dedup) for `Nik` and the
    /// Θ distinct-count sketch: one [`tally_key`](Self::tally_key)
    /// flushed at once.
    pub fn note_key(&self, key: &Datum, ctx: &mut TaskCtx) {
        let mut tally = KeyTally::default();
        self.tally_key(key, ctx, &mut tally);
        self.flush_keys(&tally, ctx);
    }

    /// [`note_key`](Self::note_key) with the counts added to `tally`; the
    /// key goes into the task's sketch at once.
    pub fn tally_key(&self, key: &Datum, ctx: &mut TaskCtx, tally: &mut KeyTally) {
        tally.nik += 1;
        tally.key_bytes += key.size_bytes() as i64;
        ctx.sketches.observe_handle(self.c_distinct, key);
    }

    /// Writes `tally` into the task's counters: `nik` and `key.bytes`, be
    /// the bytes zero, if a key was requested.
    pub fn flush_keys(&self, tally: &KeyTally, ctx: &mut TaskCtx) {
        if tally.nik > 0 {
            ctx.counters.bump(self.c_nik, tally.nik);
            ctx.counters.bump(self.c_key_bytes, tally.key_bytes);
        }
    }

    /// Writes `tally` into the task's counters: exactly the entries bumping
    /// once an event would have made. A completed lookup brings
    /// `sik.bytes`, `siv.bytes` and `tj.nanos`, a retry its
    /// `fault.backoff.nanos` and a fired hedge its `hedge.loser.nanos`, be
    /// they zero; every other counter is written where it counted one.
    pub fn flush(&self, tally: &LookupTally, ctx: &mut TaskCtx) {
        let t = tally;
        let c = &mut ctx.counters;
        let mut put = |count: i64, handle: CounterHandle, with: &[(CounterHandle, i64)]| {
            if count > 0 {
                c.bump(handle, count);
                for &(h, v) in with {
                    c.bump(h, v);
                }
            }
        };
        put(
            t.lookups,
            self.c_lookups,
            &[
                (self.c_sik_bytes, t.sik_bytes),
                (self.c_siv_bytes, t.siv_bytes),
                (self.c_tj_nanos, t.tj_nanos),
            ],
        );
        put(t.misses, self.c_misses, &[]);
        put(t.failures, self.c_f_failures, &[]);
        put(t.timeouts, self.c_f_timeouts, &[]);
        put(t.slowdowns, self.c_f_slowdowns, &[]);
        put(
            t.retries,
            self.c_f_retries,
            &[(self.c_f_backoff_nanos, t.backoff_nanos)],
        );
        put(t.exhausted, self.c_f_exhausted, &[]);
        put(t.degraded, self.c_f_degraded, &[]);
        put(t.refetches, self.c_i_refetch, &[]);
        put(
            t.hedges,
            self.c_h_fired,
            &[(self.c_h_loser_nanos, t.loser_nanos)],
        );
        put(t.hedge_wins, self.c_h_wins, &[]);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use efind_common::FxHashMap;

    /// A simple in-memory accessor for unit tests.
    pub struct MemIndex {
        pub name: String,
        pub data: FxHashMap<Datum, Vec<Datum>>,
        pub serve: SimDuration,
        pub scheme: Option<Arc<dyn PartitionScheme>>,
    }

    impl MemIndex {
        pub fn new(name: &str, pairs: Vec<(Datum, Vec<Datum>)>) -> Self {
            MemIndex {
                name: name.into(),
                data: pairs.into_iter().collect(),
                serve: SimDuration::from_micros(100),
                scheme: None,
            }
        }
    }

    impl IndexAccessor for MemIndex {
        fn name(&self) -> &str {
            &self.name
        }
        fn lookup(&self, key: &Datum) -> Vec<Datum> {
            self.data.get(key).cloned().unwrap_or_default()
        }
        fn serve_time(&self, _key: &Datum, _result_bytes: u64) -> SimDuration {
            self.serve
        }
        fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
            self.scheme.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::MemIndex;
    use super::*;

    fn charged() -> ChargedLookup {
        let idx = MemIndex::new(
            "users",
            vec![(Datum::Int(1), vec![Datum::Text("alice".into())])],
        );
        ChargedLookup::new(Arc::new(idx), NetworkModel::gigabit(), "efind.op.0.".into())
    }

    #[test]
    fn remote_lookup_charges_serve_plus_transfer() {
        let cl = charged();
        let mut ctx = TaskCtx::new(0);
        let vals = cl.lookup(&Datum::Int(1), LookupMode::Remote, &mut ctx);
        assert_eq!(vals[..], [Datum::Text("alice".into())]);
        assert!(ctx.charged() >= SimDuration::from_micros(100));
        assert_eq!(ctx.affinity_penalty(), SimDuration::ZERO);
        assert_eq!(ctx.counters.get("efind.op.0.lookups"), 1);
        assert!(ctx.counters.get("efind.op.0.siv.bytes") > 0);
    }

    #[test]
    fn local_mode_moves_transfer_to_penalty() {
        let cl = charged();
        let mut remote_ctx = TaskCtx::new(0);
        cl.lookup(&Datum::Int(1), LookupMode::Remote, &mut remote_ctx);
        let mut local_ctx = TaskCtx::new(0);
        cl.lookup(&Datum::Int(1), LookupMode::Local, &mut local_ctx);
        assert!(local_ctx.charged() < remote_ctx.charged());
        assert!(local_ctx.affinity_penalty() > SimDuration::ZERO);
        assert_eq!(
            local_ctx.charged() + local_ctx.affinity_penalty(),
            remote_ctx.charged()
        );
    }

    #[test]
    fn missing_key_returns_empty() {
        let cl = charged();
        let mut ctx = TaskCtx::new(0);
        assert!(cl
            .lookup(&Datum::Int(99), LookupMode::Remote, &mut ctx)
            .is_empty());
        assert_eq!(ctx.counters.get("efind.op.0.siv.bytes"), 0);
    }

    #[test]
    fn per_lookup_counter_path_is_allocation_free() {
        // Acceptance criterion: once a ChargedLookup has resolved its
        // handles, 10k lookups + key notes must not grow the intern
        // table — i.e. the per-lookup counter path allocates no names.
        let cl = charged();
        let mut ctx = TaskCtx::new(0);
        cl.lookup(&Datum::Int(1), LookupMode::Remote, &mut ctx);
        cl.note_key(&Datum::Int(1), &mut ctx);
        let before = efind_common::intern::interned_by_thread();
        for i in 0..10_000i64 {
            let key = Datum::Int(i % 7);
            cl.note_key(&key, &mut ctx);
            cl.lookup(&key, LookupMode::Remote, &mut ctx);
        }
        assert_eq!(efind_common::intern::interned_by_thread(), before);
        assert_eq!(ctx.counters.get("efind.op.0.lookups"), 10_001);
        assert_eq!(ctx.counters.get("efind.op.0.nik"), 10_001);
    }

    #[test]
    fn note_key_feeds_nik_and_sketch() {
        let cl = charged();
        let mut ctx = TaskCtx::new(0);
        for i in 0..10 {
            cl.note_key(&Datum::Int(i % 5), &mut ctx);
        }
        assert_eq!(ctx.counters.get("efind.op.0.nik"), 10);
        let distinct = ctx.sketches.estimate("efind.op.0.distinct");
        assert!((3.0..=8.0).contains(&distinct), "distinct={distinct}");
    }

    fn charged_with(config: FaultConfig) -> ChargedLookup {
        let idx = MemIndex::new(
            "users",
            vec![(Datum::Int(1), vec![Datum::Text("alice".into())])],
        );
        ChargedLookup::new(Arc::new(idx), NetworkModel::gigabit(), "efind.op.0.".into())
            .with_faults(&config)
    }

    #[test]
    fn quiet_fault_plan_is_observably_identical_to_plain_path() {
        let plain = charged();
        let quiet = charged_with(FaultConfig::disabled().with_plan(FaultPlan::new(5)));
        let mut a = TaskCtx::new(0);
        let mut b = TaskCtx::new(0);
        let mut tally = LookupTally::default();
        for i in 0..200i64 {
            let key = Datum::Int(i % 3);
            let va = plain.lookup(&key, LookupMode::Remote, &mut a);
            let vb = quiet.lookup_guarded(&key, LookupMode::Remote, &mut b, None, &mut tally);
            assert_eq!(va[..], vb[..]);
        }
        quiet.flush(&tally, &mut b);
        assert_eq!(a.charged(), b.charged());
        for c in ["lookups", "sik.bytes", "siv.bytes", "tj.nanos"] {
            let name = format!("efind.op.0.{c}");
            assert_eq!(a.counters.get(&name), b.counters.get(&name), "{c}");
        }
        assert_eq!(b.counters.get("efind.op.0.fault.failures"), 0);
        assert_eq!(b.counters.get("efind.op.0.fault.retries"), 0);
    }

    #[test]
    fn quiet_config_installs_no_fault_state_or_breaker() {
        // The tentpole contract: a configured-but-quiet fault layer is
        // found quiet once at install time, so the wrapper carries no
        // FaultState, hands out no breaker, and lookup_guarded dispatches
        // straight to the plain path.
        let quiet = charged_with(FaultConfig::disabled().with_plan(FaultPlan::new(5)));
        assert!(quiet.fault.is_none());
        assert!(quiet.new_breaker().is_none());
        // A per-index timeout re-arms the layer even under a quiet plan:
        // timeouts bound real serve times, not just injected ones.
        let mut timed = FaultConfig::disabled().with_plan(FaultPlan::new(5));
        timed.timeout = Some(SimDuration::from_micros(50));
        let armed = charged_with(timed);
        assert!(armed.fault.is_some());
        assert!(armed.new_breaker().is_some());
    }

    #[test]
    fn exhausted_retries_follow_the_miss_policy_and_charge_backoff() {
        let mut config = FaultConfig::disabled().with_plan(FaultPlan::new(1).failures(1.0));
        config.miss_policy = MissPolicy::Default(Datum::Text("fallback".into()));
        let cl = charged_with(config);
        let mut ctx = TaskCtx::new(0);
        let vals = cl.lookup(&Datum::Int(1), LookupMode::Remote, &mut ctx);
        assert_eq!(vals[..], [Datum::Text("fallback".into())]);
        // Default policy: 3 retries → 4 failed attempts, 1+2+4 ms backoff.
        assert_eq!(ctx.counters.get("efind.op.0.fault.failures"), 4);
        assert_eq!(ctx.counters.get("efind.op.0.fault.retries"), 3);
        assert_eq!(ctx.counters.get("efind.op.0.fault.exhausted"), 1);
        assert_eq!(
            ctx.counters.get("efind.op.0.fault.backoff.nanos"),
            SimDuration::from_millis(7).as_nanos() as i64
        );
        assert!(ctx.charged() >= SimDuration::from_millis(7));
        // No successful lookup was recorded.
        assert_eq!(ctx.counters.get("efind.op.0.lookups"), 0);
    }

    #[test]
    fn transient_failures_recover_without_changing_results() {
        let idx = MemIndex::new(
            "users",
            (0..50)
                .map(|i| (Datum::Int(i), vec![Datum::Int(i * 2)]))
                .collect(),
        );
        let mut config = FaultConfig::disabled().with_plan(FaultPlan::new(17).failures(0.4));
        // Deep retry budget: exhaustion probability 0.4^17 per key.
        config.retry = RetryPolicy::bounded(
            16,
            SimDuration::from_micros(100),
            SimDuration::from_millis(10),
        );
        let cl = ChargedLookup::new(Arc::new(idx), NetworkModel::gigabit(), "efind.op.0.".into())
            .with_faults(&config);
        let mut ctx = TaskCtx::new(0);
        for i in 0..50 {
            let vals = cl.lookup(&Datum::Int(i), LookupMode::Remote, &mut ctx);
            assert_eq!(vals[..], [Datum::Int(i * 2)], "key {i}");
        }
        assert_eq!(ctx.counters.get("efind.op.0.lookups"), 50);
        assert!(ctx.counters.get("efind.op.0.fault.retries") > 0);
        assert_eq!(ctx.counters.get("efind.op.0.fault.exhausted"), 0);
        assert!(ctx.error().is_none());
    }

    #[test]
    fn open_breaker_short_circuits_to_degraded_lookups() {
        let mut config = FaultConfig::disabled().with_plan(FaultPlan::new(2).failures(1.0));
        config.retry = RetryPolicy::none();
        config.breaker_threshold_x1000 = 200;
        config.breaker_min_samples = 4;
        let cl = charged_with(config);
        let mut breaker = cl.new_breaker();
        let mut ctx = TaskCtx::new(0);
        let mut tally = LookupTally::default();
        for i in 0..10i64 {
            let vals = cl.lookup_guarded(
                &Datum::Int(i),
                LookupMode::Remote,
                &mut ctx,
                breaker.as_mut(),
                &mut tally,
            );
            assert!(vals.is_empty());
        }
        cl.flush(&tally, &mut ctx);
        // Lookups 1–3 exhaust their (empty) retry budget; lookup 4 trips
        // the breaker mid-flight; 5–10 short-circuit without an attempt.
        assert_eq!(ctx.counters.get("efind.op.0.fault.failures"), 4);
        assert_eq!(ctx.counters.get("efind.op.0.fault.exhausted"), 3);
        assert_eq!(ctx.counters.get("efind.op.0.fault.degraded"), 7);
        assert!(breaker.unwrap().is_open());
    }

    #[test]
    fn fail_job_miss_policy_reports_through_the_task_context() {
        let mut config = FaultConfig::disabled().with_plan(FaultPlan::new(3).failures(1.0));
        config.retry = RetryPolicy::none();
        config.miss_policy = MissPolicy::FailJob;
        let cl = charged_with(config);
        let mut ctx = TaskCtx::new(0);
        let vals = cl.lookup(&Datum::Int(1), LookupMode::Remote, &mut ctx);
        assert!(vals.is_empty());
        let err = ctx.error().expect("FailJob must surface a task error");
        assert!(err.contains("efind.op.0."), "{err}");
    }

    #[test]
    fn per_index_timeout_bounds_slow_lookups() {
        // The MemIndex serves in 100 µs; a 50 µs deadline can never be
        // met, so every attempt times out and the lookup degrades.
        let mut config = FaultConfig::disabled().with_plan(FaultPlan::new(4));
        config.timeout = Some(SimDuration::from_micros(50));
        let cl = charged_with(config);
        let mut ctx = TaskCtx::new(0);
        let vals = cl.lookup(&Datum::Int(1), LookupMode::Remote, &mut ctx);
        assert!(vals.is_empty());
        assert_eq!(ctx.counters.get("efind.op.0.fault.timeouts"), 4);
        assert_eq!(ctx.counters.get("efind.op.0.fault.exhausted"), 1);
        assert_eq!(ctx.counters.get("efind.op.0.lookups"), 0);
    }

    struct FlakyIndex {
        inner: MemIndex,
        misses: bool,
    }

    impl IndexAccessor for FlakyIndex {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn lookup(&self, key: &Datum) -> Vec<Datum> {
            self.inner.lookup(key)
        }
        fn try_lookup(&self, key: &Datum) -> LookupResult {
            if self.misses && !self.inner.data.contains_key(key) {
                LookupResult::Miss
            } else if !self.misses {
                LookupResult::Failed("service unavailable".into())
            } else {
                LookupResult::hit(self.lookup(key))
            }
        }
        fn serve_time(&self, key: &Datum, result_bytes: u64) -> SimDuration {
            self.inner.serve_time(key, result_bytes)
        }
    }

    #[test]
    fn quiet_corruption_plan_is_observably_identical_to_plain_path() {
        let plain = charged();
        let quiet = charged().with_corruption(&CorruptionPlan::new(9));
        let mut a = TaskCtx::new(0);
        let mut b = TaskCtx::new(0);
        for i in 0..100i64 {
            let key = Datum::Int(i % 3);
            let va = plain.lookup(&key, LookupMode::Remote, &mut a);
            let vb = quiet.lookup(&key, LookupMode::Remote, &mut b);
            assert_eq!(va[..], vb[..]);
        }
        assert_eq!(a.charged(), b.charged());
        assert_eq!(b.counters.get("efind.op.0.integrity.refetch"), 0);
    }

    #[test]
    fn response_corruption_costs_refetch_time_but_not_answers() {
        let plain = charged();
        let noisy = charged().with_corruption(&CorruptionPlan::new(9).responses(0.5));
        let mut a = TaskCtx::new(0);
        let mut b = TaskCtx::new(0);
        for i in 0..100i64 {
            let key = Datum::Int(i % 3);
            let va = plain.lookup(&key, LookupMode::Remote, &mut a);
            let vb = noisy.lookup(&key, LookupMode::Remote, &mut b);
            assert_eq!(
                va[..],
                vb[..],
                "a corrupt transfer must never change the answer"
            );
        }
        // Checksum failures re-transfer: strictly more virtual time, same
        // lookup statistics, and every re-fetch shows up in the counter.
        assert!(b.charged() > a.charged());
        assert_eq!(
            a.counters.get("efind.op.0.lookups"),
            b.counters.get("efind.op.0.lookups")
        );
        assert!(b.counters.get("efind.op.0.integrity.refetch") > 0);
    }

    #[test]
    fn response_corruption_without_verification_is_inert() {
        let plain = charged();
        let blind = charged()
            .with_corruption(&CorruptionPlan::new(9).responses(0.9).without_verification());
        let mut a = TaskCtx::new(0);
        let mut b = TaskCtx::new(0);
        for i in 0..50i64 {
            let key = Datum::Int(i % 3);
            plain.lookup(&key, LookupMode::Remote, &mut a);
            blind.lookup(&key, LookupMode::Remote, &mut b);
        }
        assert_eq!(a.charged(), b.charged());
        assert_eq!(b.counters.get("efind.op.0.integrity.refetch"), 0);
    }

    #[test]
    fn quiet_hedge_config_is_the_literal_plain_path() {
        let plain = charged();
        let quiet = charged().with_hedging(&HedgeConfig::disabled());
        assert!(!quiet.hedges());
        let mut a = TaskCtx::new(0);
        let mut b = TaskCtx::new(0);
        for i in 0..100i64 {
            let key = Datum::Int(i % 3);
            let va = plain.lookup(&key, LookupMode::Remote, &mut a);
            let vb = quiet.lookup(&key, LookupMode::Remote, &mut b);
            assert_eq!(va[..], vb[..]);
        }
        assert_eq!(a.charged(), b.charged());
        assert_eq!(a.counters.iter_sorted(), b.counters.iter_sorted());
        assert_eq!(b.counters.get("efind.op.0.hedge.fired"), 0);
    }

    #[test]
    fn hedged_answers_are_bit_identical_and_only_costs_move() {
        let plain = charged();
        let hedged = charged().with_hedging(&HedgeConfig {
            seed: 42,
            // The MemIndex serves in 100 µs, so every remote lookup
            // crosses the threshold and fires a backup.
            threshold: Some(SimDuration::from_micros(10)),
            policy: HedgePolicy::ChargeWinner,
        });
        assert!(hedged.hedges());
        let mut a = TaskCtx::new(0);
        let mut b = TaskCtx::new(0);
        for i in 0..50i64 {
            let key = Datum::Int(i % 3);
            let va = plain.lookup(&key, LookupMode::Remote, &mut a);
            let vb = hedged.lookup(&key, LookupMode::Remote, &mut b);
            assert_eq!(va[..], vb[..], "hedging must never change the answer");
        }
        assert_eq!(b.counters.get("efind.op.0.hedge.fired"), 50);
        // A winner-charged race can only ever be as slow as the primary.
        assert!(b.charged() <= a.charged());
        // Lookup statistics (§4.2) are identical either way.
        for c in ["lookups", "sik.bytes", "siv.bytes", "tj.nanos", "misses"] {
            let name = format!("efind.op.0.{c}");
            assert_eq!(a.counters.get(&name), b.counters.get(&name), "{c}");
        }
    }

    #[test]
    fn hedge_below_threshold_never_fires() {
        let hedged = charged().with_hedging(&HedgeConfig {
            seed: 42,
            threshold: Some(SimDuration::from_secs(1)),
            policy: HedgePolicy::ChargeWinner,
        });
        let plain = charged();
        let mut a = TaskCtx::new(0);
        let mut b = TaskCtx::new(0);
        for i in 0..20i64 {
            plain.lookup(&Datum::Int(i % 3), LookupMode::Remote, &mut a);
            hedged.lookup(&Datum::Int(i % 3), LookupMode::Remote, &mut b);
        }
        assert_eq!(b.counters.get("efind.op.0.hedge.fired"), 0);
        assert_eq!(a.charged(), b.charged());
    }

    #[test]
    fn charge_both_pays_for_the_loser() {
        let mk = |policy| {
            charged().with_hedging(&HedgeConfig {
                seed: 42,
                threshold: Some(SimDuration::from_micros(10)),
                policy,
            })
        };
        let winner_only = mk(HedgePolicy::ChargeWinner);
        let both = mk(HedgePolicy::ChargeBoth);
        let mut a = TaskCtx::new(0);
        let mut b = TaskCtx::new(0);
        for i in 0..50i64 {
            let key = Datum::Int(i % 3);
            winner_only.lookup(&key, LookupMode::Remote, &mut a);
            both.lookup(&key, LookupMode::Remote, &mut b);
        }
        // Same races, same losers — only the charging policy differs.
        assert_eq!(
            a.counters.get("efind.op.0.hedge.fired"),
            b.counters.get("efind.op.0.hedge.fired")
        );
        assert_eq!(
            a.counters.get("efind.op.0.hedge.wins"),
            b.counters.get("efind.op.0.hedge.wins")
        );
        let loser = a.counters.get("efind.op.0.hedge.loser.nanos");
        assert_eq!(loser, b.counters.get("efind.op.0.hedge.loser.nanos"));
        assert!(loser > 0);
        assert_eq!(
            b.charged().as_nanos() as i64 - a.charged().as_nanos() as i64,
            loser,
            "ChargeBoth must pay exactly the losers' spent time on top"
        );
    }

    #[test]
    fn local_lookups_never_hedge() {
        let plain = charged();
        let hedged = charged().with_hedging(&HedgeConfig {
            seed: 42,
            threshold: Some(SimDuration::ZERO),
            policy: HedgePolicy::ChargeBoth,
        });
        let mut a = TaskCtx::new(0);
        let mut b = TaskCtx::new(0);
        plain.lookup(&Datum::Int(1), LookupMode::Local, &mut a);
        hedged.lookup(&Datum::Int(1), LookupMode::Local, &mut b);
        assert_eq!(a.charged(), b.charged());
        assert_eq!(a.affinity_penalty(), b.affinity_penalty());
        assert_eq!(b.counters.get("efind.op.0.hedge.fired"), 0);
    }

    #[test]
    fn hedging_is_deterministic_across_runs() {
        let run = || {
            let cl = charged().with_hedging(&HedgeConfig {
                seed: 7,
                threshold: Some(SimDuration::from_micros(10)),
                policy: HedgePolicy::ChargeBoth,
            });
            let mut ctx = TaskCtx::new(0);
            for i in 0..100i64 {
                cl.lookup(&Datum::Int(i % 5), LookupMode::Remote, &mut ctx);
            }
            (ctx.charged(), ctx.counters.iter_sorted())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn misses_and_failures_are_counted_apart() {
        let missy = FlakyIndex {
            inner: MemIndex::new("m", vec![(Datum::Int(1), vec![Datum::Int(10)])]),
            misses: true,
        };
        let cl = ChargedLookup::new(
            Arc::new(missy),
            NetworkModel::gigabit(),
            "efind.op.0.".into(),
        );
        let mut ctx = TaskCtx::new(0);
        cl.lookup(&Datum::Int(1), LookupMode::Remote, &mut ctx);
        cl.lookup(&Datum::Int(99), LookupMode::Remote, &mut ctx);
        assert_eq!(ctx.counters.get("efind.op.0.lookups"), 2);
        assert_eq!(ctx.counters.get("efind.op.0.misses"), 1);
        assert_eq!(ctx.counters.get("efind.op.0.fault.failures"), 0);

        let failing = FlakyIndex {
            inner: MemIndex::new("f", vec![]),
            misses: false,
        };
        let cl = ChargedLookup::new(
            Arc::new(failing),
            NetworkModel::gigabit(),
            "efind.op.0.".into(),
        );
        let mut ctx = TaskCtx::new(0);
        assert!(cl
            .lookup(&Datum::Int(1), LookupMode::Remote, &mut ctx)
            .is_empty());
        assert_eq!(ctx.counters.get("efind.op.0.lookups"), 0);
        assert_eq!(ctx.counters.get("efind.op.0.fault.failures"), 1);
    }

    /// A wrapper over an index holding keys `0..20` (other keys miss),
    /// with the layers `mask` arms: faults with retries, a timeout and a
    /// breaker (bit 0), hedging (bit 1), response corruption (bit 2).
    fn armed(mask: u8) -> ChargedLookup {
        let index = FlakyIndex {
            inner: MemIndex::new(
                "m",
                (0..20)
                    .map(|k| (Datum::Int(k), vec![Datum::Int(k * 3)]))
                    .collect(),
            ),
            misses: true,
        };
        let mut faults = FaultConfig::disabled();
        if mask & 1 != 0 {
            faults = faults.with_plan(
                FaultPlan::new(11)
                    .failures(0.2)
                    .timeouts(0.1)
                    .slowdowns(0.2, 3.0),
            );
            faults.retry =
                RetryPolicy::bounded(2, SimDuration::from_micros(50), SimDuration::from_millis(1));
            faults.timeout = Some(SimDuration::from_micros(250));
            faults.breaker_threshold_x1000 = 400;
            faults.breaker_min_samples = 6;
            faults.breaker_cooldown = Some(SimDuration::from_millis(2));
        }
        let hedge = HedgeConfig {
            seed: 13,
            threshold: (mask & 2 != 0).then_some(SimDuration::from_micros(60)),
            policy: HedgePolicy::ChargeBoth,
        };
        let mut corruption = CorruptionPlan::none();
        if mask & 4 != 0 {
            corruption = CorruptionPlan::new(17).responses(0.4);
        }
        ChargedLookup::new(
            Arc::new(index),
            NetworkModel::gigabit(),
            "efind.op.0.".into(),
        )
        .with_faults(&faults)
        .with_hedging(&hedge)
        .with_corruption(&corruption)
    }

    /// What a task's lookups leave behind, counters and sketch included.
    fn observed(ctx: &TaskCtx) -> (Vec<(Arc<str>, i64)>, f64, SimDuration, SimDuration) {
        (
            ctx.counters.iter_sorted(),
            ctx.sketches.estimate("efind.op.0.distinct"),
            ctx.charged(),
            ctx.affinity_penalty(),
        )
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One tally flushed at task end writes exactly what flushing after
        /// every call writes, zero-valued entries included; before its
        /// flush, the counter set is empty.
        #[test]
        fn a_tally_flushed_once_equals_per_call_counters(
            mask in 0u8..8,
            // Keys `from..from + 8`: from 20 on, every lookup misses.
            from in 0i64..30,
            stream in proptest::collection::vec((0i64..8, any::<bool>()), 0..120),
        ) {
            let cl = armed(mask);
            let mode = |local: bool| if local { LookupMode::Local } else { LookupMode::Remote };

            let mut per_call = TaskCtx::new(0);
            let mut breaker = cl.new_breaker();
            let mut answers = Vec::new();
            for &(k, local) in &stream {
                let key = Datum::Int(from + k);
                cl.note_key(&key, &mut per_call);
                let mut one = LookupTally::default();
                let values =
                    cl.lookup_guarded(&key, mode(local), &mut per_call, breaker.as_mut(), &mut one);
                cl.flush(&one, &mut per_call);
                answers.push(values);
            }

            let mut tallied = TaskCtx::new(0);
            let mut breaker = cl.new_breaker();
            let (mut keys, mut tally) = (KeyTally::default(), LookupTally::default());
            for (&(k, local), answer) in stream.iter().zip(&answers) {
                let key = Datum::Int(from + k);
                cl.tally_key(&key, &mut tallied, &mut keys);
                let values =
                    cl.lookup_guarded(&key, mode(local), &mut tallied, breaker.as_mut(), &mut tally);
                prop_assert_eq!(&values[..], &answer[..]);
            }
            prop_assert!(tallied.counters.is_empty());
            cl.flush_keys(&keys, &mut tallied);
            cl.flush(&tally, &mut tallied);
            prop_assert_eq!(observed(&tallied), observed(&per_call));
            // What rides on an event is written iff the event is, be it 0.
            let written = |c: &str| {
                let name = format!("efind.op.0.{c}");
                tallied.counters.iter_sorted().iter().any(|(n, _)| **n == *name)
            };
            for (event, riders) in [
                ("nik", &["key.bytes"][..]),
                ("lookups", &["sik.bytes", "siv.bytes", "tj.nanos"]),
                ("fault.retries", &["fault.backoff.nanos"]),
                ("hedge.fired", &["hedge.loser.nanos"]),
            ] {
                for rider in riders {
                    prop_assert_eq!(written(rider), written(event), "{} with {}", rider, event);
                }
            }
        }
    }

    #[test]
    fn public_lookup_and_note_key_are_a_tally_flushed_at_once() {
        let cl = armed(7);
        let mut public = TaskCtx::new(0);
        let mut tallied = TaskCtx::new(0);
        let (mut keys, mut tally) = (KeyTally::default(), LookupTally::default());
        for k in 0..60i64 {
            let key = Datum::Int(k % 25);
            cl.note_key(&key, &mut public);
            cl.lookup(&key, LookupMode::Remote, &mut public);
            cl.tally_key(&key, &mut tallied, &mut keys);
            cl.lookup_guarded(&key, LookupMode::Remote, &mut tallied, None, &mut tally);
        }
        cl.flush_keys(&keys, &mut tallied);
        cl.flush(&tally, &mut tallied);
        assert_eq!(observed(&tallied), observed(&public));
        for c in [
            "misses",
            "fault.retries",
            "hedge.fired",
            "integrity.refetch",
        ] {
            assert!(public.counters.get(&format!("efind.op.0.{c}")) > 0, "{c}");
        }
    }
}
