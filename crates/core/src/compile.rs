//! Physical plan compilation.
//!
//! Turns an [`IndexJobConf`] plus per-operator [`OperatorPlan`]s into a
//! chain of plain MapReduce jobs:
//!
//! * **Baseline/Cache** indices become chained record-wise functions inside
//!   the current map (or reduce) computation — exactly Fig. 6.
//! * **Repartition/IndexLocality** indices insert a *shuffling job*
//!   (Fig. 7): records are re-keyed by the lookup key, shuffled so equal
//!   keys meet, and the shuffle job's reduce performs **one** lookup per
//!   distinct key. Index locality additionally co-partitions the shuffle
//!   with the index and declares scheduler affinity for the partition
//!   hosts (§3.4).
//!
//! Record-wise stages following a shuffle fold into that job's reduce, so
//! each job boundary stores the *latest* (usually smallest) intermediate —
//! the job-boundary placement freedom of Fig. 7 that the cost model's
//! `S_min` term reasons about.
//!
//! Job structure is decided stage by stage; execution is not. Once the
//! stage list is cut into chains, each run of one operator's carrier steps
//! inside one chain becomes a single *segment* — one [`Mapper`], or one
//! [`Reducer`] when the run starts with the group lookup — that keeps the
//! [`Carrier`] in memory and serializes it only where a record really
//! crosses a shuffle or a job-boundary file.

use std::borrow::Cow;
use std::cell::RefCell;
use std::mem;
use std::sync::Arc;

use efind_cluster::{
    ChaosPlan, Cluster, CorruptionPlan, DetectorConfig, NetworkModel, PartitionPlan, SimDuration,
    TenancyConfig,
};
use efind_common::{Datum, Error, FxHashMap, Record, Result};
use efind_mapreduce::{
    partition::partitioner_fn, Collector, CounterHandle, HashPartitioner, JobConf, Mapper,
    MapperFactory, Partitioner, Reducer, ReducerFactory, RowSink, TaskCtx,
};

use crate::accessor::{
    ChargedLookup, HedgeConfig, KeyTally, LookupMode, LookupTally, PartitionScheme,
};
use crate::cache::{self, LookupCache, ShadowCache, Storage};
use crate::carrier::Carrier;
use crate::fault::{Breaker, FaultConfig};
use crate::jobconf::{BoundOperator, IndexJobConf};
use crate::operator::IndexOperator;
use crate::plan::{OperatorPlan, Strategy};
use crate::runtime::EFindConfig;
use crate::statsx::names;

/// Environment constants the compiled stages need and the analyzer's
/// configuration checks read. [`RuntimeEnv::new`] derives every field from
/// a cluster, a DFS replication factor and an [`EFindConfig`].
#[derive(Clone)]
pub struct RuntimeEnv {
    /// Network model for lookup transfer charging.
    pub network: NetworkModel,
    /// Cache probe time `T_cache`.
    pub t_cache: SimDuration,
    /// Lookup cache capacity in entries.
    pub cache_capacity: usize,
    /// Reducer count for shuffling jobs (re-partitioning strategy).
    pub shuffle_reducers: usize,
    /// Chunk count for intermediate DFS files between chained jobs, so the
    /// follow-up job's map phase keeps the cluster busy.
    pub intermediate_chunks: usize,
    /// Hard co-location for index-locality tasks (experimental; the paper
    /// argues soft affinity is safer — footnote 3).
    pub hard_colocation: bool,
    /// Fault-tolerance configuration attached to every [`ChargedLookup`]
    /// built for this pipeline. Disabled = the plain lookup path.
    pub faults: FaultConfig,
    /// Data-corruption plan threaded into every lookup cache (entry
    /// poisoning) and [`ChargedLookup`] (response corruption) built for
    /// this pipeline. Quiet = the plain, checksum-free path.
    pub corruption: CorruptionPlan,
    /// Replication factor of the DFS the job reads from. The analyzer
    /// counts the copies a chunk has left against corruption (`EF017`),
    /// kills (`EF020`) and unhealed cuts (`EF025`), and the sides a hedge
    /// can race (`EF026`).
    pub dfs_replication: usize,
    /// Node-crash plan applied to every constituent MapReduce job. The
    /// analyzer's injection-conflict check (`EF020`) rejects one that kills
    /// every node.
    pub chaos: ChaosPlan,
    /// Node count of the simulated cluster the job runs on, paired with
    /// `chaos` (`EF020`) and `netsplit` (`EF025`) for the survivability
    /// checks.
    pub cluster_nodes: usize,
    /// Network-partition plan applied to every constituent MapReduce job.
    /// The analyzer's reachability check (`EF025`) rejects a partition
    /// that never heals and isolates the whole cluster.
    pub netsplit: PartitionPlan,
    /// Heartbeat failure-detector parameters paired with `netsplit`; the
    /// analyzer warns (`EF025`) when the heartbeat interval reaches the
    /// suspicion threshold.
    pub detector: DetectorConfig,
    /// Hedged-lookup configuration attached to every [`ChargedLookup`]
    /// built for this pipeline. Quiet (no threshold) = the plain lookup
    /// path; armed without a second replica/partition-side to race
    /// against, it earns the analyzer's `EF026` warning.
    pub hedge: HedgeConfig,
    /// Measured-stats injections from the cross-job store: operators whose
    /// plans were built from recorded history instead of catalog
    /// estimates, with the `EF023` probe costs attached. Empty whenever no
    /// store matched (and from [`RuntimeEnv::new`]) — the analyzer then
    /// runs exactly the pre-store check set.
    pub measured: Vec<crate::statstore::MeasuredOp>,
    /// Multi-tenant serving configuration of the cluster this job is
    /// admitted to. Quiet ([`TenancyConfig::is_quiet`]) = the plain
    /// single-job path: full cache capacity, no tenant counters, and no
    /// `EF024` checks.
    pub tenancy: TenancyConfig,
    /// The tenant the runtime's jobs run as (`None` = the implicit default
    /// tenant), [`EFindConfig::tenant`]. Only consulted when `tenancy` is
    /// armed.
    pub tenant: Option<String>,
}

impl RuntimeEnv {
    /// The environment a runtime configured by `config` compiles its jobs
    /// in, on `cluster` over a DFS of `dfs_replication` replicas:
    /// intermediate files get two chunks per map slot, and no statistics
    /// are store-served.
    pub fn new(cluster: &Cluster, dfs_replication: usize, config: &EFindConfig) -> Self {
        RuntimeEnv {
            network: cluster.network,
            t_cache: config.t_cache,
            cache_capacity: config.cache_capacity,
            shuffle_reducers: config.shuffle_reducers_on(cluster),
            intermediate_chunks: cluster.total_map_slots() * 2,
            hard_colocation: config.hard_colocation,
            faults: config.faults.clone(),
            corruption: config.corruption.clone(),
            dfs_replication,
            chaos: config.chaos.clone(),
            cluster_nodes: cluster.num_nodes() as usize,
            netsplit: config.netsplit.clone(),
            detector: config.detector,
            hedge: config.hedge,
            measured: Vec::new(),
            tenancy: config.tenancy.clone(),
            tenant: config.tenant.clone(),
        }
    }

    /// The lookup-cache capacity this pipeline's caches are built with:
    /// the full configured capacity on the quiet path, or the tenant's
    /// reserved share of the shared cache when the tenancy layer is armed
    /// and the tenant holds a non-zero [`cache
    /// share`](efind_cluster::tenancy::TenantSpec::cache_share). A tenant
    /// without a reservation sees the full shared capacity, competing
    /// unreserved.
    pub fn effective_cache_capacity(&self) -> usize {
        if self.tenancy.is_quiet() {
            return self.cache_capacity;
        }
        let share = self
            .tenant
            .as_deref()
            .map_or(0.0, |t| self.tenancy.cache_share(t));
        if share <= 0.0 {
            self.cache_capacity
        } else {
            ((self.cache_capacity as f64 * share) as usize).max(1)
        }
    }

    /// The per-tenant cache-eviction counter handle, present only when
    /// the tenancy layer is armed for a named tenant — the quiet path
    /// compiles mappers with no eviction accounting at all.
    fn tenant_eviction_handle(&self) -> Option<CounterHandle> {
        if self.tenancy.is_quiet() {
            return None;
        }
        let tenant = self.tenant.as_deref()?;
        Some(CounterHandle::new(&format!(
            "efind.tenant.{tenant}.cache.evictions"
        )))
    }
}

/// A compiled pipeline: one or more plain MapReduce jobs to run in order.
pub struct CompiledPipeline {
    /// Jobs in execution order; each consumes the previous one's output.
    pub jobs: Vec<JobConf>,
    /// Intermediate DFS files created between jobs (cleanup candidates).
    pub temp_files: Vec<String>,
    /// The static analysis report. Contains warnings only: analyzer errors
    /// abort compilation before this struct exists.
    pub analysis: efind_analyze::Report,
}

// ---------------------------------------------------------------------
// Carrier steps
// ---------------------------------------------------------------------
//
// Every operator compiles to the same list of steps — pre, then per index
// (in plan order) either a direct lookup or rekey + shuffle + group lookup,
// then post — and every step works on the in-memory [`Carrier`]. A carrier
// becomes a record only where it leaves a task: behind a rekey (into the
// shuffle) or at the end of a chain that closes a job (into a DFS file).

/// `preProcess` + statistics: opens a carrier from a plain record.
struct PreStep {
    op: Arc<dyn IndexOperator>,
    charged: Vec<Arc<ChargedLookup>>,
    /// The shadow cache mirrors the real lookup cache's capacity —
    /// including a tenant's reserved share — or the miss ratio R it
    /// reports misleads the planner.
    shadow_capacity: usize,
    n1: CounterHandle,
    s1_bytes: CounterHandle,
    spre_bytes: CounterHandle,
    irregular: Vec<CounterHandle>,
    shadow_probes: Vec<CounterHandle>,
    shadow_hits: Vec<CounterHandle>,
}

impl PreStep {
    fn new(
        op: Arc<dyn IndexOperator>,
        charged: Vec<Arc<ChargedLookup>>,
        shadow_capacity: usize,
    ) -> Self {
        let name = op.name().to_owned();
        let per_index = |stat: &str| -> Vec<CounterHandle> {
            (0..charged.len())
                .map(|j| CounterHandle::new(&names::idx(&name, j, stat)))
                .collect()
        };
        PreStep {
            n1: CounterHandle::new(&names::op(&name, "n1")),
            s1_bytes: CounterHandle::new(&names::op(&name, "s1.bytes")),
            spre_bytes: CounterHandle::new(&names::op(&name, "spre.bytes")),
            irregular: per_index("nik.irregular"),
            shadow_probes: per_index("shadow.probes"),
            shadow_hits: per_index("shadow.hits"),
            op,
            charged,
            shadow_capacity,
        }
    }
}

/// A [`PreStep`] inside one task: its shadow caches, and the counters it
/// bumps once a record or key as plain tallies until `flush`.
struct Opening {
    step: Arc<PreStep>,
    shadows: Vec<ShadowCache>,
    /// Per index, the keys requested of it.
    keys: Vec<KeyTally>,
    n1: i64,
    s1_bytes: i64,
    spre_bytes: i64,
    /// Per index, the records that extracted other than one key.
    irregular: Vec<i64>,
}

impl Opening {
    fn start(step: &Arc<PreStep>) -> Self {
        let m = step.charged.len();
        Opening {
            step: step.clone(),
            shadows: (0..m)
                .map(|_| ShadowCache::new(step.shadow_capacity))
                .collect(),
            keys: vec![KeyTally::default(); m],
            n1: 0,
            s1_bytes: 0,
            spre_bytes: 0,
            irregular: vec![0; m],
        }
    }

    fn open<'r>(&mut self, carrier: &mut Carrier<'r>, rec: Cow<'r, Record>, ctx: &mut TaskCtx) {
        let step = &*self.step;
        self.n1 += 1;
        let s1 = carrier.open(rec, step.charged.len(), |rec, keys| {
            step.op.pre_process(rec, keys)
        });
        self.s1_bytes += s1 as i64;
        for (j, charged) in step.charged.iter().enumerate() {
            let keys = carrier.keys(j);
            for key in keys {
                charged.tally_key(key, ctx, &mut self.keys[j]);
                self.shadows[j].observe(key);
            }
            self.irregular[j] += i64::from(keys.len() != 1);
        }
        // `Spre` is the size of the carrier record routed by the original
        // key — whether or not this segment ever builds that record.
        self.spre_bytes += carrier.record_size_bytes(carrier.k1()) as i64;
    }

    /// Writes exactly the entries bumping once a record would have made:
    /// none of the three without a record, `nik.irregular` only where some
    /// record was.
    fn flush(&self, ctx: &mut TaskCtx) {
        let step = &*self.step;
        for (charged, keys) in step.charged.iter().zip(&self.keys) {
            charged.flush_keys(keys, ctx);
        }
        if self.n1 > 0 {
            ctx.counters.bump(step.n1, self.n1);
            ctx.counters.bump(step.s1_bytes, self.s1_bytes);
            ctx.counters.bump(step.spre_bytes, self.spre_bytes);
        }
        for (j, shadow) in self.shadows.iter().enumerate() {
            if self.irregular[j] > 0 {
                ctx.counters.bump(step.irregular[j], self.irregular[j]);
            }
            ctx.counters
                .bump(step.shadow_probes[j], shadow.probes() as i64);
            ctx.counters.bump(step.shadow_hits[j], shadow.hits() as i64);
        }
    }
}

/// Record-wise lookup for one index: baseline, or cache-fronted.
struct DirectStep {
    charged: Arc<ChargedLookup>,
    slot: usize,
    /// Capacity and poisoning plan of the per-task lookup cache; `None`
    /// for the baseline strategy.
    cache: Option<(usize, CorruptionPlan)>,
    t_cache: SimDuration,
    c_cache_probes: CounterHandle,
    c_cache_hits: CounterHandle,
    c_cache_invalid: CounterHandle,
    /// Per-tenant eviction accounting (present only when the tenancy
    /// layer is armed for a named tenant).
    c_cache_evict: Option<CounterHandle>,
}

impl DirectStep {
    fn new_cache(&self) -> Option<LookupCache> {
        self.cache.as_ref().map(|(capacity, corruption)| {
            LookupCache::new(*capacity).with_corruption(corruption, self.charged.prefix())
        })
    }

    fn flush(&self, cache: &LookupCache, ctx: &mut TaskCtx) {
        // Probe time is charged in bulk: probes × T_cache (Eq. 2).
        ctx.charge(self.t_cache * cache.probes());
        ctx.counters
            .bump(self.c_cache_probes, cache.probes() as i64);
        ctx.counters.bump(self.c_cache_hits, cache.hits() as i64);
        // Guarded so corruption-free runs never materialize the counter
        // (a zero entry would perturb golden counter fingerprints).
        if cache.invalidations() > 0 {
            ctx.counters
                .bump(self.c_cache_invalid, cache.invalidations() as i64);
        }
        if let Some(h) = self.c_cache_evict.filter(|_| cache.evictions() > 0) {
            ctx.counters.bump(h, cache.evictions() as i64);
        }
    }
}

/// A [`DirectStep`] inside one task: its lookup cache (when its strategy
/// caches), its circuit breaker (when faults are configured), and the
/// tally of its lookups.
struct Direct {
    step: Arc<DirectStep>,
    cache: Option<LookupCache>,
    breaker: Option<Breaker>,
    tally: LookupTally,
}

impl Direct {
    fn start(step: &Arc<DirectStep>) -> Self {
        Direct {
            step: step.clone(),
            cache: step.new_cache(),
            breaker: step.charged.new_breaker(),
            tally: LookupTally::default(),
        }
    }

    fn fill(&mut self, carrier: &mut Carrier, ctx: &mut TaskCtx) -> Result<()> {
        let Direct {
            step,
            cache,
            breaker,
            tally,
        } = self;
        let charged = &step.charged;
        carrier.fill(step.slot, |keys, results| {
            for key in keys {
                let mut fetch = || {
                    let breaker = breaker.as_mut();
                    charged.lookup_guarded(key, LookupMode::Remote, ctx, breaker, tally)
                };
                // Hits and fresh-insert clones are Arc refcount bumps; the
                // cached value list itself is never deep-copied here.
                results.push(match cache.as_mut() {
                    Some(cache) => cache.probe(key).unwrap_or_else(|| {
                        let fresh = fetch();
                        cache.insert(key.clone(), fresh.clone());
                        fresh
                    }),
                    None => fetch(),
                });
            }
        })
    }

    fn flush(&self, ctx: &mut TaskCtx) {
        self.step.charged.flush(&self.tally, ctx);
        if let Some(cache) = &self.cache {
            self.step.flush(cache, ctx);
        }
    }
}

/// The shuffling job's reduce: one lookup per distinct key, whose result
/// fans back out to every carrier of the group.
struct GroupStep {
    charged: Arc<ChargedLookup>,
    slot: usize,
    locality: Option<Arc<dyn PartitionScheme>>,
    hard_colocation: bool,
}

impl GroupStep {
    fn lookup(
        &self,
        key: &Datum,
        breaker: Option<&mut Breaker>,
        tally: &mut LookupTally,
        ctx: &mut TaskCtx,
    ) -> Arc<[Datum]> {
        let mode = if let Some(scheme) = &self.locality {
            let p = scheme.partition_of(key);
            ctx.add_affinity(&scheme.hosts(p));
            if self.hard_colocation {
                ctx.require_affinity();
            }
            LookupMode::Local
        } else {
            LookupMode::Remote
        };
        self.charged.lookup_guarded(key, mode, ctx, breaker, tally)
    }
}

/// `postProcess` + statistics: closes a filled carrier into plain records.
struct PostStep {
    op: Arc<dyn IndexOperator>,
    c_sidx_bytes: CounterHandle,
    c_spost_bytes: CounterHandle,
    c_post_out: CounterHandle,
}

/// Forwards what `postProcess` emits and adds up its size and count on the
/// way, so the `Spost` statistics need no buffer and no second pass.
struct Metered<'a> {
    out: &'a mut dyn Collector,
    bytes: u64,
    records: i64,
}

impl Collector for Metered<'_> {
    fn collect(&mut self, rec: Record) {
        self.bytes += rec.size_bytes();
        self.records += 1;
        self.out.collect(rec);
    }
}

/// A step applied to a carrier that is already open.
enum Step {
    Direct(Arc<DirectStep>),
    /// Routes the carrier by its lookup key for index `slot`, into the
    /// shuffle that groups duplicate keys together.
    Rekey(usize),
    Post(Arc<PostStep>),
}

/// What the steps of one operator that share a chain come to: direct
/// lookups, then whatever takes the carrier out of the task.
#[derive(Clone, Default)]
struct Run {
    lookups: Vec<Arc<DirectStep>>,
    end: End,
}

#[derive(Clone, Default)]
enum End {
    /// The chain closes a job with lookups still to come: the carrier is
    /// stored as a record, routed by the original key.
    #[default]
    Boundary,
    Rekey(usize),
    Post(Arc<PostStep>),
}

impl Run {
    fn push(&mut self, step: Step) {
        match step {
            Step::Direct(d) => self.lookups.push(d),
            Step::Rekey(slot) => self.end = End::Rekey(slot),
            Step::Post(p) => self.end = End::Post(p),
        }
    }
}

/// A [`Run`] inside one task: its direct lookups, and the [`PostStep`]
/// counters as plain tallies until `flush`.
struct Running {
    lookups: Vec<Direct>,
    end: End,
    sidx_bytes: i64,
    /// Carriers `postProcess` was handed, and what it made of them.
    posted: i64,
    spost_bytes: i64,
    post_out: i64,
}

impl Running {
    fn start(run: &Run) -> Self {
        Running {
            lookups: run.lookups.iter().map(Direct::start).collect(),
            end: run.end.clone(),
            sidx_bytes: 0,
            posted: 0,
            spost_bytes: 0,
            post_out: 0,
        }
    }

    /// Takes the open carrier through the run. It is serialized only if it
    /// leaves the task still open.
    fn advance(&mut self, carrier: &mut Carrier<'_>, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        for d in &mut self.lookups {
            if let Err(e) = d.fill(carrier, ctx) {
                return ctx.fail(format!("lookup stage: {e}"));
            }
        }
        let routing = match &self.end {
            End::Post(post) => {
                // `Sidx`: the carrier record a lookup stage hands on is
                // routed by the original key again.
                self.sidx_bytes += carrier.record_size_bytes(carrier.k1()) as i64;
                let (rec, values) = match carrier.post_input() {
                    Ok(v) => v,
                    Err(e) => return ctx.fail(format!("post stage: {e}")),
                };
                let mut metered = Metered {
                    out,
                    bytes: 0,
                    records: 0,
                };
                post.op.post_process(rec, values, &mut metered);
                self.posted += 1;
                self.spost_bytes += metered.bytes as i64;
                self.post_out += metered.records;
                return;
            }
            End::Rekey(slot) => match carrier.single_key(*slot) {
                Ok(key) => key.clone(),
                Err(e) => return ctx.fail(format!("rekey stage: {e}")),
            },
            End::Boundary => carrier.k1().clone(),
        };
        let len = carrier.payload_len();
        out.collect_encoded(routing, len, &mut |buf| carrier.encode_into(buf));
    }

    /// Hints to the index of each direct lookup every key of the carriers
    /// that `opened` that the lookup's cache does not hold, and to the
    /// cache the entries inserting them would evict: nothing is looked up,
    /// drawn, charged or counted. The keys to hint are found first, in
    /// `hints` as (carrier, key) positions, and then hinted back to back,
    /// so that as many of their memory misses as can be are in flight at
    /// once.
    fn prefetch(
        &self,
        carriers: &[Carrier<'_>],
        opened: &[Result<()>],
        hints: &mut Vec<(usize, usize)>,
    ) {
        for d in &self.lookups {
            let slot = d.step.slot;
            hints.clear();
            let open = carriers.iter().zip(opened).enumerate();
            // A stored carrier of another arity fails at its row's turn.
            for (c, (carrier, _)) in open.filter(|(_, (c, o))| o.is_ok() && slot < c.num_indices())
            {
                for (k, key) in carrier.keys(slot).iter().enumerate() {
                    if !d.cache.as_ref().is_some_and(|cache| cache.holds(key)) {
                        hints.push((c, k));
                    }
                }
            }
            let index = d.step.charged.accessor();
            for &(c, k) in hints.iter() {
                index.prefetch(&carriers[c].keys(slot)[k]);
            }
            if let Some(cache) = &d.cache {
                cache.prefetch_evictions(hints.len());
            }
        }
    }

    /// Writes exactly the entries bumping once a record would have made:
    /// `sidx.bytes` if a carrier reached `postProcess`, the `Spost` pair —
    /// be it at zero — if one was let in.
    fn flush(&self, ctx: &mut TaskCtx) {
        for d in &self.lookups {
            d.flush(ctx);
        }
        if let End::Post(post) = &self.end {
            if self.sidx_bytes > 0 {
                ctx.counters.bump(post.c_sidx_bytes, self.sidx_bytes);
            }
            if self.posted > 0 {
                ctx.counters.bump(post.c_spost_bytes, self.spost_bytes);
                ctx.counters.bump(post.c_post_out, self.post_out);
            }
        }
    }
}

/// A maximal run of one operator's carrier steps inside one map (or
/// `reduce_post`) chain, executed on carriers the task keeps in memory. A
/// carrier is parsed only when the run continues one that an earlier task
/// serialized (`pre` is `None`). At the head of a map task's chain it is
/// lent its input rows a window at a time ([`Mapper::map_rows`]): it opens
/// a carrier on every row of the window — `pre_process` copies what it
/// keeps of the row, or hands it back to be carried in place, and a stored
/// carrier decodes from the row in place — then hints to the index every
/// key a direct lookup will ask for that the lookup's cache does not hold
/// ([`IndexAccessor::prefetch`]), and to the cache the entries inserting
/// them would evict, so that the memory misses of the window's lookups
/// overlap, and then takes the carriers through the run one row at a
/// time, in row order. Only `pre_process`, the decode, and their
/// tallies — counts, sketches and the shadow caches, none of which depends
/// on the order in which rows reach it — run ahead of their row's turn;
/// every cache probe, lookup, charge, emission and failure happens at it.
///
/// [`IndexAccessor::prefetch`]: crate::accessor::IndexAccessor::prefetch
struct SegmentMapper {
    pre: Option<Opening>,
    run: Running,
    window: Window,
}

/// A segment's carriers, one for each row of a window, and whether each
/// opened. A segment takes them from its thread's spares, where the
/// segments the thread dropped left theirs, and leaves them there when it
/// drops, as the caches do with their storage.
#[derive(Default)]
struct Window {
    carriers: Vec<Carrier<'static>>,
    opened: Vec<Result<()>>,
    /// The (carrier, key) positions of the keys a lookup hints.
    hints: Vec<(usize, usize)>,
}

thread_local! {
    static WINDOW_SPARES: RefCell<Vec<Window>> = const { RefCell::new(Vec::new()) };
}

impl Storage for Window {
    fn fresh(_: usize) -> Self {
        Window::default()
    }

    fn reset(&mut self, _: usize) {
        self.opened.clear();
    }
}

impl SegmentMapper {
    fn new(pre: Option<&Arc<PreStep>>, run: &Run) -> Self {
        SegmentMapper {
            pre: pre.map(Opening::start),
            run: Running::start(run),
            window: cache::take(&WINDOW_SPARES, 0),
        }
    }

    /// Opens `carrier` on `rec`: through `pre_process`, or by decoding a
    /// stored carrier.
    fn open<'r>(
        &mut self,
        carrier: &mut Carrier<'r>,
        rec: Cow<'r, Record>,
        ctx: &mut TaskCtx,
    ) -> Result<()> {
        match &mut self.pre {
            Some(pre) => {
                pre.open(carrier, rec, ctx);
                Ok(())
            }
            // Only a direct lookup opens a chain on a stored carrier.
            None => carrier.decode(&rec.value),
        }
    }

    /// Takes `carrier` through the run if it `opened`, else reports why not.
    fn advance(
        &mut self,
        carrier: &mut Carrier<'_>,
        opened: Result<()>,
        out: &mut dyn Collector,
        ctx: &mut TaskCtx,
    ) {
        match opened {
            Ok(()) => self.run.advance(carrier, out, ctx),
            Err(e) => ctx.fail(format!("lookup stage: {e}")),
        }
    }
}

impl Mapper for SegmentMapper {
    fn map(&mut self, rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        let mut carriers = mem::take(&mut self.window.carriers);
        if carriers.is_empty() {
            carriers.push(Carrier::default());
        }
        let opened = self.open(&mut carriers[0], Cow::Owned(rec), ctx);
        self.advance(&mut carriers[0], opened, out, ctx);
        self.window.carriers = carriers;
    }

    fn map_rows(&mut self, rows: &[Record], out: &mut RowSink<'_>, ctx: &mut TaskCtx) {
        // Each carrier is lent its row for the window, and put back with
        // the lend ended.
        let mut carriers: Vec<Carrier<'_>> = mem::take(&mut self.window.carriers);
        let mut opened = mem::take(&mut self.window.opened);
        if carriers.len() < rows.len() {
            carriers.resize_with(rows.len(), Carrier::default);
        }
        for (carrier, row) in carriers.iter_mut().zip(rows) {
            opened.push(self.open(carrier, Cow::Borrowed(row), ctx));
        }
        self.run
            .prefetch(&carriers, &opened, &mut self.window.hints);
        for (carrier, opened) in carriers.iter_mut().zip(opened.drain(..)) {
            self.advance(carrier, opened, out, ctx);
            out.row_done(ctx);
        }
        self.window.carriers = carriers.into_iter().map(Carrier::end_lend).collect();
        self.window.opened = opened;
    }

    fn flush(&mut self, _out: &mut dyn Collector, ctx: &mut TaskCtx) {
        if let Some(pre) = &self.pre {
            pre.flush(ctx);
        }
        self.run.flush(ctx);
    }
}

impl Drop for SegmentMapper {
    fn drop(&mut self) {
        cache::give_back(&mut self.window, &WINDOW_SPARES);
    }
}

/// A run that starts with the group lookup: the shuffling job's reduce,
/// with the steps chained behind it applied before anything is emitted.
struct SegmentReducer {
    group: Arc<GroupStep>,
    /// Per-task circuit breaker (present only when faults are configured).
    breaker: Option<Breaker>,
    tally: LookupTally,
    run: Running,
    carrier: Carrier<'static>,
}

impl SegmentReducer {
    /// Looks `key` up once and takes each of the group's carriers, which
    /// `decode` parses into the task's carrier, through the run.
    fn reduce_payloads<T>(
        &mut self,
        key: &Datum,
        payloads: &[T],
        decode: impl Fn(&mut Carrier<'static>, &T) -> Result<()>,
        out: &mut dyn Collector,
        ctx: &mut TaskCtx,
    ) {
        let result = self
            .group
            .lookup(key, self.breaker.as_mut(), &mut self.tally, ctx);
        let carrier = &mut self.carrier;
        for payload in payloads {
            let filled = decode(carrier, payload).and_then(|()| {
                carrier.fill(self.group.slot, |_, results| results.push(result.clone()))
            });
            if let Err(e) = filled {
                return ctx.fail(format!("group lookup stage: {e}"));
            }
            self.run.advance(carrier, out, ctx);
        }
    }
}

impl Reducer for SegmentReducer {
    /// Carriers stored as records, as a shuffle that held them live hands
    /// them over.
    fn reduce(
        &mut self,
        key: Datum,
        values: Vec<Datum>,
        out: &mut dyn Collector,
        ctx: &mut TaskCtx,
    ) {
        self.reduce_payloads(&key, &values, |c, v| c.decode(v), out, ctx);
    }

    /// Carriers read where the shuffle runs hold them.
    fn reduce_encoded(
        &mut self,
        key: Datum,
        values: &[&[u8]],
        out: &mut dyn Collector,
        ctx: &mut TaskCtx,
    ) {
        self.reduce_payloads(&key, values, |c, v| c.decode_bytes(v), out, ctx);
    }

    fn flush(&mut self, _out: &mut dyn Collector, ctx: &mut TaskCtx) {
        self.group.charged.flush(&self.tally, ctx);
        self.run.flush(ctx);
    }
}

/// Counts the original Map's output (the `Smap` statistic), as plain
/// tallies until `flush`.
struct MapOutCounter {
    c_records: CounterHandle,
    c_bytes: CounterHandle,
    records: i64,
    bytes: i64,
}

impl MapOutCounter {
    fn new() -> Self {
        MapOutCounter {
            c_records: CounterHandle::new(names::MAPOUT_RECORDS),
            c_bytes: CounterHandle::new(names::MAPOUT_BYTES),
            records: 0,
            bytes: 0,
        }
    }
}

impl Mapper for MapOutCounter {
    fn map(&mut self, rec: Record, out: &mut dyn Collector, _ctx: &mut TaskCtx) {
        self.records += 1;
        self.bytes += rec.size_bytes() as i64;
        out.collect(rec);
    }

    /// Writes the pair bumping once a record would have made, be the
    /// bytes zero, and nothing without a record.
    fn flush(&mut self, _out: &mut dyn Collector, ctx: &mut TaskCtx) {
        if self.records > 0 {
            ctx.counters.bump(self.c_records, self.records);
            ctx.counters.bump(self.c_bytes, self.bytes);
        }
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// A logical stage of the compiled data flow.
enum Stage {
    /// A plain record-wise chained function (the user's Map, the `Smap`
    /// counter).
    Mapwise(MapperFactory),
    /// `preProcess`: opens an operator's carrier.
    Pre(Arc<PreStep>),
    /// A step on the open carrier.
    Step(Step),
    /// A shuffle boundary with its group-processing function.
    Shuffle(ShuffleSpec),
}

struct ShuffleSpec {
    partitioner: Arc<dyn Partitioner>,
    num_reducers: usize,
    reduce: Reduce,
}

enum Reduce {
    /// The job's own Reduce (`None` = identity group-by), where the
    /// paper's Fig. 6 places chained tail functions.
    Job(Option<ReducerFactory>),
    /// The group lookup of a shuffle *strategy*, whose reduce parallelism
    /// is limited.
    Lookup(Arc<GroupStep>),
}

/// One element of a map or `reduce_post` chain under assembly.
enum Link {
    Plain(MapperFactory),
    /// A run of carrier steps: `Some(pre)` opens the carrier here, `None`
    /// continues one opened before the last shuffle or job boundary.
    Segment(Option<Arc<PreStep>>, Run),
}

impl Link {
    fn into_factory(self) -> MapperFactory {
        match self {
            Link::Plain(factory) => factory,
            Link::Segment(pre, run) => {
                Arc::new(move || Box::new(SegmentMapper::new(pre.as_ref(), &run)))
            }
        }
    }
}

/// One plain MapReduce job under assembly.
#[derive(Default)]
struct JobBuild {
    map: Vec<Link>,
    shuffle: Option<ShuffleSpec>,
    post: Vec<Link>,
}

/// Cuts the stage list into jobs at shuffle boundaries: record-wise stages
/// after a shuffle fold into that job's reduce.
#[derive(Default)]
struct Assembly {
    done: Vec<JobBuild>,
    open: JobBuild,
}

impl Assembly {
    fn next_job(&mut self) {
        self.done.push(std::mem::take(&mut self.open));
    }

    /// The chain the next record-wise stage lands in. `heavy` marks
    /// stages that perform index lookups: after a *strategy* shuffle these
    /// start a new job so they run map-side (full slot parallelism)
    /// instead of inside the shuffle job's narrow reduce. After the job's
    /// own Reduce they stay chained, as in Fig. 6(c).
    fn chain(&mut self, heavy: bool) -> &mut Vec<Link> {
        let after_strategy_shuffle =
            matches!(&self.open.shuffle, Some(s) if matches!(s.reduce, Reduce::Lookup(_)));
        if heavy && after_strategy_shuffle {
            self.next_job();
        }
        if self.open.shuffle.is_none() {
            &mut self.open.map
        } else {
            &mut self.open.post
        }
    }

    fn push(&mut self, stage: Stage) {
        match stage {
            Stage::Mapwise(factory) => self.chain(false).push(Link::Plain(factory)),
            Stage::Pre(pre) => self
                .chain(false)
                .push(Link::Segment(Some(pre), Run::default())),
            Stage::Step(step) => {
                let chain = self.chain(matches!(step, Step::Direct(_)));
                // A step extends the segment its operator already has in
                // this chain; at the head of a chain it continues a
                // carrier that crossed the boundary as a record.
                match chain.last_mut() {
                    Some(Link::Segment(_, run)) => run.push(step),
                    _ => {
                        let mut run = Run::default();
                        run.push(step);
                        chain.push(Link::Segment(None, run));
                    }
                }
            }
            Stage::Shuffle(spec) => {
                if self.open.shuffle.is_some() {
                    self.next_job();
                }
                self.open.shuffle = Some(spec);
            }
        }
    }
}

fn compile_operator(
    bound: &BoundOperator,
    plan: &OperatorPlan,
    env: &RuntimeEnv,
    stages: &mut Vec<Stage>,
) -> Result<()> {
    let opname = bound.op.name().to_owned();
    let charged: Vec<Arc<ChargedLookup>> = bound
        .indices
        .iter()
        .enumerate()
        .map(|(j, acc)| {
            Arc::new(
                ChargedLookup::new(acc.clone(), env.network, names::idx_prefix(&opname, j))
                    .with_faults(&env.faults)
                    .with_corruption(&env.corruption)
                    .with_hedging(&env.hedge),
            )
        })
        .collect();
    stages.push(Stage::Pre(Arc::new(PreStep::new(
        bound.op.clone(),
        charged.clone(),
        env.effective_cache_capacity(),
    ))));

    // Lookup steps, in plan order.
    for choice in &plan.choices {
        let slot = choice.index;
        let cl = charged[slot].clone();
        match choice.strategy {
            Strategy::Baseline | Strategy::Cache => {
                let cache = (choice.strategy == Strategy::Cache)
                    .then(|| (env.effective_cache_capacity(), env.corruption.clone()));
                stages.push(Stage::Step(Step::Direct(Arc::new(DirectStep {
                    slot,
                    cache,
                    t_cache: env.t_cache,
                    c_cache_probes: CounterHandle::new(&format!("{}cache.probes", cl.prefix())),
                    c_cache_hits: CounterHandle::new(&format!("{}cache.hits", cl.prefix())),
                    c_cache_invalid: CounterHandle::new(&format!(
                        "{}integrity.cache.invalid",
                        cl.prefix()
                    )),
                    c_cache_evict: env.tenant_eviction_handle(),
                    charged: cl,
                }))));
            }
            Strategy::Repartition | Strategy::IndexLocality => {
                let locality = if choice.strategy == Strategy::IndexLocality {
                    Some(cl.accessor().partition_scheme().ok_or_else(|| {
                        Error::InvalidConfig(format!(
                            "index {} of operator {opname} has no partition scheme; \
                             index locality is unavailable",
                            slot
                        ))
                    })?)
                } else {
                    None
                };
                stages.push(Stage::Step(Step::Rekey(slot)));
                let (partitioner, num_reducers): (Arc<dyn Partitioner>, usize) = match &locality {
                    Some(scheme) => {
                        let s = scheme.clone();
                        (
                            partitioner_fn(move |key, n| s.partition_of(key) % n.max(1)),
                            scheme.num_partitions(),
                        )
                    }
                    None => (Arc::new(HashPartitioner), env.shuffle_reducers),
                };
                stages.push(Stage::Shuffle(ShuffleSpec {
                    partitioner,
                    num_reducers,
                    reduce: Reduce::Lookup(Arc::new(GroupStep {
                        charged: cl,
                        slot,
                        locality,
                        hard_colocation: env.hard_colocation,
                    })),
                }));
            }
        }
    }

    stages.push(Stage::Step(Step::Post(Arc::new(PostStep {
        op: bound.op.clone(),
        c_sidx_bytes: CounterHandle::new(&names::op(&opname, "sidx.bytes")),
        c_spost_bytes: CounterHandle::new(&names::op(&opname, "spost.bytes")),
        c_post_out: CounterHandle::new(&names::op(&opname, "post.out")),
    }))));
    Ok(())
}

/// Compiles an enhanced job + plans into a chain of plain MapReduce jobs.
pub fn compile_pipeline(
    ijob: &IndexJobConf,
    plans: &FxHashMap<String, OperatorPlan>,
    env: &RuntimeEnv,
) -> Result<CompiledPipeline> {
    // Static analysis, shape and plans included: hard errors abort
    // compilation here, before any stage is built; warnings travel with
    // the pipeline.
    let analysis = crate::analysis::analyze_job_in_env(ijob, plans, env)?.into_result()?;
    let plan_of = |bound: &BoundOperator| -> Result<&OperatorPlan> {
        plans
            .get(bound.op.name())
            .ok_or_else(|| Error::Internal(format!("no plan for operator {}", bound.op.name())))
    };

    let mut stages: Vec<Stage> = Vec::new();
    for bound in &ijob.head {
        compile_operator(bound, plan_of(bound)?, env, &mut stages)?;
    }
    for user_map in &ijob.map {
        stages.push(Stage::Mapwise(user_map.clone()));
    }
    stages.push(Stage::Mapwise(Arc::new(|| Box::new(MapOutCounter::new()))));
    for bound in &ijob.body {
        compile_operator(bound, plan_of(bound)?, env, &mut stages)?;
    }
    if ijob.has_reduce() {
        stages.push(Stage::Shuffle(ShuffleSpec {
            partitioner: ijob.partitioner.clone(),
            num_reducers: ijob.num_reducers,
            reduce: Reduce::Job(ijob.reducer.clone()),
        }));
    }
    for bound in &ijob.tail {
        compile_operator(bound, plan_of(bound)?, env, &mut stages)?;
    }

    let mut assembly = Assembly::default();
    for stage in stages {
        assembly.push(stage);
    }
    assembly.next_job();
    let builds = assembly.done;

    let total = builds.len();
    let mut jobs = Vec::with_capacity(total);
    let mut temp_files = Vec::new();
    for (i, build) in builds.into_iter().enumerate() {
        let input = if i == 0 {
            ijob.input.clone()
        } else {
            format!("{}.tmp{}", ijob.name, i - 1)
        };
        let is_last = i + 1 == total;
        let output = if is_last {
            ijob.output.clone()
        } else {
            let t = format!("{}.tmp{}", ijob.name, i);
            temp_files.push(t.clone());
            t
        };
        let mut conf = JobConf::new(format!("{}-j{i}", ijob.name), input, output)
            .with_cpu_per_record(ijob.cpu_per_record);
        if !is_last {
            conf.output_chunks = Some(env.intermediate_chunks.max(1));
        }
        conf.map_chain = build.map.into_iter().map(Link::into_factory).collect();
        let mut post = build.post.into_iter().peekable();
        if let Some(spec) = build.shuffle {
            conf.num_reducers = spec.num_reducers.max(1);
            conf.partitioner = spec.partitioner;
            conf.reducer = match spec.reduce {
                Reduce::Job(reducer) => reducer,
                Reduce::Lookup(group) => {
                    // The steps chained straight behind the group lookup
                    // run inside the same reduce call, on the same carrier.
                    let run = match post.next_if(|l| matches!(l, Link::Segment(None, _))) {
                        Some(Link::Segment(_, run)) => run,
                        _ => Run::default(),
                    };
                    Some(Arc::new(move || {
                        Box::new(SegmentReducer {
                            group: group.clone(),
                            breaker: group.charged.new_breaker(),
                            tally: LookupTally::default(),
                            run: Running::start(&run),
                            carrier: Carrier::default(),
                        })
                    }))
                }
            };
        }
        conf.reduce_post = post.map(Link::into_factory).collect();
        jobs.push(conf);
    }
    Ok(CompiledPipeline {
        jobs,
        temp_files,
        analysis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::testutil::MemIndex;
    use crate::operator::{operator_fn, IndexInput, IndexOutput};
    use crate::plan::forced_plan;
    use efind_cluster::Cluster;
    use efind_cluster::SimTime;
    use efind_dfs::{Dfs, DfsConfig};
    use efind_mapreduce::{mapper_fn, reducer_fn, Runner};

    fn env() -> RuntimeEnv {
        RuntimeEnv {
            cache_capacity: 64,
            shuffle_reducers: 4,
            intermediate_chunks: 8,
            ..RuntimeEnv::new(
                &Cluster::builder().nodes(4).build(),
                2,
                &EFindConfig::default(),
            )
        }
    }

    /// A tiny enhanced job: head operator enriches each record's value by
    /// looking up `key % 10` in an index, Map uppercases, Reduce counts.
    fn sample_ijob(strategy: Strategy) -> (IndexJobConf, FxHashMap<String, OperatorPlan>) {
        let index = Arc::new(MemIndex::new(
            "mod10",
            (0..10i64)
                .map(|i| (Datum::Int(i), vec![Datum::Text(format!("g{i}"))]))
                .collect(),
        ));
        let op = operator_fn(
            "enrich",
            1,
            |rec: &mut Record, keys: &mut IndexInput| {
                keys.put(0, rec.key.as_int().unwrap() % 10);
            },
            |rec: Record, values: &crate::operator::IndexOutput, out: &mut dyn Collector| {
                let group = values.first(0).first().cloned().unwrap_or(Datum::Null);
                out.collect(Record {
                    key: group,
                    value: rec.value,
                });
            },
        );
        let bound = BoundOperator::new(op).add_index(index);
        let caps = bound.caps();
        let ijob = IndexJobConf::new("sample", "in", "out")
            .add_head_index_operator(bound)
            .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
            .set_reducer(
                reducer_fn(|key, values, out, _| {
                    out.collect(Record::new(key, values.len() as i64));
                }),
                2,
            );
        let mut plans = FxHashMap::default();
        plans.insert("enrich".to_owned(), forced_plan(&caps, strategy));
        (ijob, plans)
    }

    /// Runs a compiled pipeline over records 0..100 on a small cluster and
    /// returns the sorted output.
    fn run_compiled(compiled: &CompiledPipeline) -> Vec<Record> {
        let cluster = Cluster::builder()
            .nodes(3)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 512,
                replication: 2,
                seed: 3,
            },
        );
        dfs.write_file("in", (0..100i64).map(|i| Record::new(i, "x")).collect());
        let mut t = SimTime::ZERO;
        for job in &compiled.jobs {
            let res = Runner::new(&cluster, &mut dfs).run(job, t).unwrap();
            t = res.stats.finished;
        }
        let mut out = dfs.read_file("out").unwrap();
        out.sort();
        out
    }

    fn run_pipeline(strategy: Strategy) -> (Vec<Record>, usize) {
        let (ijob, plans) = sample_ijob(strategy);
        let compiled = compile_pipeline(&ijob, &plans, &env()).unwrap();
        (run_compiled(&compiled), compiled.jobs.len())
    }

    /// A post step whose operator emits nothing for `k1 % 3 == 0`, one
    /// record for `1`, and three records of different sizes for `2`.
    fn fanout_post() -> PostStep {
        let op = operator_fn(
            "fan",
            1,
            |_, _| {},
            |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
                let k = rec.key.as_int().expect("int key");
                let looked = values.first(0).first().cloned().unwrap_or(Datum::Null);
                match k % 3 {
                    0 => {}
                    1 => out.collect(Record::new(k, looked)),
                    _ => {
                        out.collect(Record::new(k, Datum::Null));
                        out.collect(Record::new(k, Datum::List(vec![looked, rec.value])));
                        out.collect(Record::new(k, "tail"));
                    }
                }
            },
        );
        PostStep {
            op,
            c_sidx_bytes: CounterHandle::new("efind.fan.sidx.bytes"),
            c_spost_bytes: CounterHandle::new("efind.fan.spost.bytes"),
            c_post_out: CounterHandle::new("efind.fan.post.out"),
        }
    }

    /// [`fanout_post`] as the end of a run without lookups, taken over
    /// carriers `k1 = k`, each filled with `looked-k`, and flushed.
    fn close_filled(ks: &[i64]) -> (Vec<Record>, TaskCtx) {
        let mut run = Running::start(&Run {
            lookups: Vec::new(),
            end: End::Post(Arc::new(fanout_post())),
        });
        let mut ctx = TaskCtx::new(0);
        let mut out: Vec<Record> = Vec::new();
        // One carrier for all of them, as in a task.
        let mut carrier = Carrier::default();
        for &k in ks {
            carrier.open(Cow::Owned(Record::new(k, "v1")), 1, |rec, keys| {
                keys.put(0, k);
                rec
            });
            let looked: Arc<[Datum]> = vec![Datum::Text(format!("looked-{k}"))].into();
            carrier.fill(0, |_, results| results.push(looked)).unwrap();
            run.advance(&mut carrier, &mut out, &mut ctx);
        }
        run.flush(&mut ctx);
        (out, ctx)
    }

    #[test]
    fn metered_post_output_equals_the_buffered_one() {
        // Every literal below was captured from the buffering `close`
        // (a `Vec<Record>` per input record, sized in a second pass).
        let (out, ctx) = close_filled(&[2, 0, 1, 5, 3]);
        let text = |s: &str| Datum::Text(s.into());
        let three = |k: i64| {
            vec![
                Record::new(k, Datum::Null),
                Record::new(
                    k,
                    Datum::List(vec![text(&format!("looked-{k}")), text("v1")]),
                ),
                Record::new(k, "tail"),
            ]
        };
        let mut expected = three(2);
        expected.push(Record::new(1i64, "looked-1"));
        expected.extend(three(5));
        assert_eq!(out, expected);
        assert_eq!(ctx.counters.get("efind.fan.post.out"), 7);
        assert_eq!(ctx.counters.get("efind.fan.spost.bytes"), 146);
        assert_eq!(ctx.counters.get("efind.fan.sidx.bytes"), 385);
        assert!(ctx.error().is_none());
    }

    #[test]
    fn a_post_process_that_emits_nothing_bumps_both_counters_by_zero() {
        // The golden fingerprints hash the counter map's key set, and a
        // zero bump creates its entry: both `Spost` counters must exist,
        // at zero.
        let (out, ctx) = close_filled(&[3]);
        assert!(out.is_empty());
        assert_eq!(
            ctx.counters.iter_sorted(),
            vec![
                (Arc::from("efind.fan.post.out"), 0),
                (Arc::from("efind.fan.sidx.bytes"), 77),
                (Arc::from("efind.fan.spost.bytes"), 0),
            ]
        );
        // A task that closed nothing has none of the three.
        assert!(close_filled(&[]).1.counters.is_empty());
    }

    /// One task-owned carrier must not carry one record into the next:
    /// `pre_process` puts 0, 1, 2, 1, 0 keys on successive records, finds
    /// its `IndexInput` empty every time, and `post_process` is handed the
    /// result lists of its own record's keys and no others.
    #[test]
    fn successive_records_see_nothing_of_each_other() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let index = Arc::new(MemIndex::new(
            "tens",
            (0..10i64)
                .map(|i| (Datum::Int(i), vec![Datum::Int(i * 10)]))
                .collect(),
        ));
        let stale = Arc::new(AtomicBool::new(false));
        let saw_stale = stale.clone();
        let op = operator_fn(
            "vary",
            1,
            move |rec: &mut Record, keys: &mut IndexInput| {
                if keys.num_indices() != 1 || !keys.keys(0).is_empty() {
                    saw_stale.store(true, Ordering::Relaxed);
                }
                let k = rec.key.as_int().unwrap();
                for i in 0..k % 3 {
                    keys.put(0, k + i);
                }
            },
            |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
                let lists = values.get(0).iter().map(|l| Datum::List(l.to_vec()));
                out.collect(Record::new(rec.key, Datum::List(lists.collect())));
            },
        );
        let bound = BoundOperator::new(op).add_index(index);
        for strategy in [Strategy::Cache, Strategy::Baseline] {
            let mut plans = FxHashMap::default();
            plans.insert("vary".to_owned(), forced_plan(&bound.caps(), strategy));
            let ijob = IndexJobConf::new("s", "in", "out").add_head_index_operator(bound.clone());
            let compiled = compile_pipeline(&ijob, &plans, &env()).unwrap();
            let input = [3i64, 1, 2, 4, 6].map(|k| Record::new(k, "x")).to_vec();
            let mut ctx = TaskCtx::new(0);
            let out = efind_mapreduce::api::run_chain(&compiled.jobs[0].map_chain, input, &mut ctx);
            let looked = |keys: &[i64]| {
                Datum::List(
                    keys.iter()
                        .map(|k| Datum::List(vec![Datum::Int(k * 10)]))
                        .collect(),
                )
            };
            let expected = vec![
                Record::new(3i64, looked(&[])),
                Record::new(1i64, looked(&[1])),
                Record::new(2i64, looked(&[2, 3])),
                Record::new(4i64, looked(&[4])),
                Record::new(6i64, looked(&[])),
            ];
            assert_eq!(out, expected, "{strategy:?}");
            assert!(ctx.error().is_none() && !stale.load(Ordering::Relaxed));
            assert_eq!(ctx.counters.get("efind.vary.0.nik.irregular"), 3);
        }
    }

    /// A group of several payloads through the shuffling job's reduce: the
    /// one result reaches each, and no payload shows the `k1`, `v1` or keys
    /// of the one before it — the wider one included.
    #[test]
    fn a_group_fans_its_result_out_to_every_payload() {
        use Strategy::{Cache, Repartition};
        // Index `a` (slot 0) is shuffled; job 0's reduce fills it and
        // stores the carrier, still open for `b`.
        let compiled = compile_two_index("head", [Repartition, Cache]);
        let stored = |k1: i64, v1: &str, b_keys: &[i64]| -> Datum {
            let mut carrier = Carrier::default();
            carrier.open(Cow::Owned(Record::new(k1, v1)), 2, |rec, keys| {
                keys.put(0, 4i64);
                b_keys.iter().for_each(|&k| keys.put(1, k));
                rec
            });
            carrier.encode(Datum::Int(4)).value
        };
        let group = vec![
            stored(14, "a long first value", &[0, 1, 2]),
            stored(24, "", &[3]),
            stored(4, "x", &[]),
        ];
        let mut reducer = (compiled.jobs[0].reducer.as_ref().unwrap())();
        let mut ctx = TaskCtx::new(0);
        let mut out: Vec<Record> = Vec::new();
        reducer.reduce(Datum::Int(4), group, &mut out, &mut ctx);
        reducer.flush(&mut out, &mut ctx);
        assert_eq!(ctx.error(), None);
        assert_eq!(ctx.counters.get("efind.pair.0.lookups"), 1);

        let expect = |k1: i64, v1: &str, b_keys: &[i64]| {
            let mut carrier = Carrier::default();
            carrier.decode(&stored(k1, v1, b_keys)).unwrap();
            let a4: Arc<[Datum]> = vec![Datum::Text("a4".into())].into();
            carrier.fill(0, |_, results| results.push(a4)).unwrap();
            carrier.encode(Datum::Int(k1))
        };
        let expected = vec![
            expect(14, "a long first value", &[0, 1, 2]),
            expect(24, "", &[3]),
            expect(4, "x", &[]),
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn baseline_compiles_to_single_job() {
        let (out, n_jobs) = run_pipeline(Strategy::Baseline);
        assert_eq!(n_jobs, 1);
        assert_eq!(out.len(), 10);
        for r in &out {
            assert_eq!(r.value, Datum::Int(10)); // 100 records over 10 groups
        }
    }

    #[test]
    fn cache_produces_identical_output() {
        let (base, _) = run_pipeline(Strategy::Baseline);
        let (cache, n_jobs) = run_pipeline(Strategy::Cache);
        assert_eq!(n_jobs, 1);
        assert_eq!(base, cache);
    }

    #[test]
    fn repartition_adds_a_shuffle_job_and_matches() {
        let (base, _) = run_pipeline(Strategy::Baseline);
        let (repart, n_jobs) = run_pipeline(Strategy::Repartition);
        assert_eq!(n_jobs, 2, "head repartition should split into two jobs");
        assert_eq!(base, repart);
    }

    #[test]
    fn lookup_counters_reflect_dedup() {
        let cluster = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .reduce_slots(1)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 100_000,
                replication: 1,
                seed: 3,
            },
        );
        let records: Vec<Record> = (0..100i64).map(|i| Record::new(i, "x")).collect();
        dfs.write_file("in", records);

        // Baseline: 100 lookups. Repartition: one per distinct key (10).
        for (strategy, expected_lookups) in [(Strategy::Baseline, 100), (Strategy::Repartition, 10)]
        {
            let (ijob, plans) = sample_ijob(strategy);
            let compiled = compile_pipeline(&ijob, &plans, &env()).unwrap();
            let mut t = SimTime::ZERO;
            let mut lookups = 0i64;
            for job in &compiled.jobs {
                let res = Runner::new(&cluster, &mut dfs).run(job, t).unwrap();
                t = res.stats.finished;
                lookups += res.stats.counters.get("efind.enrich.0.lookups");
            }
            assert_eq!(lookups, expected_lookups, "{strategy:?}");
        }
    }

    #[test]
    fn cache_counters_present() {
        let cluster = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .reduce_slots(1)
            .build();
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        let records: Vec<Record> = (0..100i64).map(|i| Record::new(i, "x")).collect();
        dfs.write_file("in", records);
        let (ijob, plans) = sample_ijob(Strategy::Cache);
        let compiled = compile_pipeline(&ijob, &plans, &env()).unwrap();
        let res = Runner::new(&cluster, &mut dfs)
            .run(&compiled.jobs[0], SimTime::ZERO)
            .unwrap();
        let c = &res.stats.counters;
        assert_eq!(c.get("efind.enrich.0.cache.probes"), 100);
        // 10 distinct keys in one task: 90 hits.
        assert_eq!(c.get("efind.enrich.0.cache.hits"), 90);
        assert_eq!(c.get("efind.enrich.0.lookups"), 10);
        assert_eq!(c.get("efind.enrich.n1"), 100);
        assert!(c.get("efind.enrich.spre.bytes") > 0);
        assert!(c.get("efind.enrich.spost.bytes") > 0);
        assert!(c.get(names::MAPOUT_BYTES) > 0);
    }

    #[test]
    fn cache_corruption_invalidates_entries_but_preserves_output() {
        let cluster = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .reduce_slots(1)
            .build();
        let run = |plan: CorruptionPlan| {
            let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
            let records: Vec<Record> = (0..100i64).map(|i| Record::new(i, "x")).collect();
            dfs.write_file("in", records);
            let (ijob, plans) = sample_ijob(Strategy::Cache);
            let mut e = env();
            e.corruption = plan.clone();
            let compiled = compile_pipeline(&ijob, &plans, &e).unwrap();
            let res = Runner::new(&cluster, &mut dfs)
                .with_corruption(plan)
                .run(&compiled.jobs[0], SimTime::ZERO)
                .unwrap();
            let mut out = dfs.read_file("out").unwrap();
            out.sort();
            (out, res.stats)
        };
        let (clean_out, clean) = run(CorruptionPlan::none());
        let (out, noisy) = run(CorruptionPlan::new(11).cache(0.3));
        // Poisoned entries are evicted and re-fetched from the index, so
        // the answer is unchanged — only virtual time and the integrity
        // counters move.
        assert_eq!(clean_out, out);
        assert!(noisy.counters.get("efind.enrich.0.integrity.cache.invalid") > 0);
        assert!(noisy.integrity.cache_invalidations > 0);
        assert!(noisy.finished > clean.finished);
        assert!(clean.integrity.is_empty());
    }

    /// Three fixed partitions over integer keys, hosted on nodes 0..3.
    struct Mod3;
    impl PartitionScheme for Mod3 {
        fn num_partitions(&self) -> usize {
            3
        }
        fn partition_of(&self, key: &Datum) -> usize {
            key.as_int().unwrap_or(0).rem_euclid(3) as usize
        }
        fn hosts(&self, partition: usize) -> Vec<efind_cluster::NodeId> {
            vec![efind_cluster::NodeId(partition as u16)]
        }
    }

    /// Index `a` (slot 0, partitioned three ways) is looked up by
    /// `key % 10`, index `b` (slot 1) by `key % 7`; post appends both
    /// results to the value.
    fn two_index_op() -> BoundOperator {
        let pairs = |tag: &str| -> Vec<(Datum, Vec<Datum>)> {
            (0..10i64)
                .map(|i| (Datum::Int(i), vec![Datum::Text(format!("{tag}{i}"))]))
                .collect()
        };
        let mut a = MemIndex::new("a", pairs("a"));
        a.scheme = Some(Arc::new(Mod3));
        let op = operator_fn(
            "pair",
            2,
            |rec: &mut Record, keys: &mut IndexInput| {
                let k = rec.key.as_int().unwrap_or(0);
                keys.put(0, k % 10);
                keys.put(1, k % 7);
            },
            |rec: Record, v: &crate::operator::IndexOutput, out: &mut dyn Collector| {
                let a = v.first(0).first().cloned().unwrap_or(Datum::Null);
                let b = v.first(1).first().cloned().unwrap_or(Datum::Null);
                out.collect(Record::new(rec.key, Datum::List(vec![rec.value, a, b])));
            },
        );
        BoundOperator::new(op)
            .add_index(Arc::new(a))
            .add_index(Arc::new(MemIndex::new("b", pairs("b"))))
    }

    /// A map + 2-reducer job with [`two_index_op`] in `placement`, compiled
    /// with strategy `mix[slot]` on each index.
    fn compile_two_index(placement: &str, mix: [Strategy; 2]) -> CompiledPipeline {
        compile_pipeline(&two_index_job(placement), &two_index_plans(mix), &env()).unwrap()
    }

    /// A map + 2-reducer job with [`two_index_op`] in `placement`.
    fn two_index_job(placement: &str) -> IndexJobConf {
        let base = IndexJobConf::new("j", "in", "out")
            .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
            .set_reducer(
                reducer_fn(|k, values, out, _| {
                    for v in values {
                        out.collect(Record::new(k.clone(), v));
                    }
                }),
                2,
            );
        match placement {
            "head" => base.add_head_index_operator(two_index_op()),
            "body" => base.add_body_index_operator(two_index_op()),
            _ => base.add_tail_index_operator(two_index_op()),
        }
    }

    /// Plans for [`two_index_op`] with strategy `mix[slot]` on each index.
    fn two_index_plans(mix: [Strategy; 2]) -> FxHashMap<String, OperatorPlan> {
        let mut plan = forced_plan(&two_index_op().caps(), Strategy::Cache);
        plan.choices[0].strategy = mix[0];
        plan.choices[1].strategy = mix[1];
        // Property 4 (EF004): shuffle strategies come first in plan order.
        plan.choices.sort_by_key(|c| !c.strategy.is_shuffle());
        let mut plans = FxHashMap::default();
        plans.insert("pair".to_owned(), plan);
        plans
    }

    const PLACEMENTS: [&str; 3] = ["head", "body", "tail"];
    const MIXES: [[Strategy; 2]; 4] = [
        [Strategy::Cache, Strategy::Repartition],
        [Strategy::Repartition, Strategy::Cache],
        [Strategy::Repartition, Strategy::Repartition],
        [Strategy::IndexLocality, Strategy::Cache],
    ];

    /// Job boundaries are part of the virtual cost model: for a two-index
    /// operator in every placement and every mix of a shuffle strategy
    /// with another choice, the number of jobs and where each one reads,
    /// shuffles and writes are pinned at the values the staged compiler
    /// produced. Chain lengths are deliberately not pinned — fusing steps
    /// into a segment shortens chains without moving a boundary.
    #[test]
    fn job_boundaries_of_mixed_plans_are_pinned() {
        // `input>output reducers|- output_chunks|-` per job. One strategy
        // shuffle ahead of the job's own Reduce: the cached index opens
        // the second job's map (head and body compile alike). Behind the
        // job's own Reduce every strategy shuffle is a new job, and a
        // cached index after it a map-only third.
        let expected = |placement: &str, mix: [Strategy; 2]| -> Vec<String> {
            let r = if mix[0] == Strategy::IndexLocality {
                3
            } else {
                4
            };
            let both = mix[0].is_shuffle() && mix[1].is_shuffle();
            let shape: &[&str] = match (placement, both) {
                ("tail", false) => &["in>j.tmp0 2 8", "j.tmp0>j.tmp1 R 8", "j.tmp1>out - -"],
                ("tail", true) => &["in>j.tmp0 2 8", "j.tmp0>j.tmp1 R 8", "j.tmp1>out R -"],
                (_, false) => &["in>j.tmp0 R 8", "j.tmp0>out 2 -"],
                (_, true) => &["in>j.tmp0 R 8", "j.tmp0>j.tmp1 R 8", "j.tmp1>out 2 -"],
            };
            shape
                .iter()
                .map(|j| j.replace('R', &r.to_string()))
                .collect()
        };
        let or_dash = |n: Option<usize>| n.map_or("-".to_owned(), |n| n.to_string());
        for placement in PLACEMENTS {
            for mix in MIXES {
                let shape: Vec<String> = compile_two_index(placement, mix)
                    .jobs
                    .iter()
                    .map(|j| {
                        let reducers = j.has_reduce().then_some(j.num_reducers);
                        assert_eq!(reducers.is_none(), j.num_reducers == 0);
                        format!(
                            "{}>{} {} {}",
                            j.input,
                            j.output,
                            or_dash(reducers),
                            or_dash(j.output_chunks)
                        )
                    })
                    .collect();
                assert_eq!(shape, expected(placement, mix), "{placement} {mix:?}");
            }
        }
    }

    /// A map-side re-plan (`adaptive.rs`) hands the map outputs the
    /// baseline plan's single job spilled to the re-planned pipeline's last
    /// job as they are. That is sound because the last job is where the
    /// job's own Reduce lands, with its partitioner and reducer count: for
    /// an operator at the head or in the body, under every mix.
    #[test]
    fn the_last_job_of_a_map_side_plan_shuffles_like_the_baseline_job() {
        for placement in ["head", "body"] {
            let ijob = two_index_job(placement);
            let baseline = two_index_plans([Strategy::Baseline; 2]);
            let baseline = compile_pipeline(&ijob, &baseline, &env()).unwrap().jobs;
            assert_eq!(baseline.len(), 1);
            for mix in MIXES {
                let replanned =
                    compile_pipeline(&ijob.clone(), &two_index_plans(mix), &env()).unwrap();
                let last = replanned.jobs.last().unwrap();
                assert!(last.shuffles_like(&baseline[0]), "{placement} {mix:?}");
            }
        }
    }

    #[test]
    fn mixed_plans_compute_what_the_direct_plan_computes() {
        for placement in PLACEMENTS {
            let direct = compile_two_index(placement, [Strategy::Baseline, Strategy::Cache]);
            assert_eq!(direct.jobs.len(), 1);
            let reference = run_compiled(&direct);
            assert_eq!(reference.len(), 100);
            for mix in MIXES {
                let out = run_compiled(&compile_two_index(placement, mix));
                assert_eq!(out, reference, "{placement} {mix:?}");
            }
        }
    }

    /// A carrier record that does not parse, or lacks a result the run
    /// should have found filled, fails the task — naming the stage that
    /// would have met it in a staged chain.
    #[test]
    fn malformed_carriers_fail_the_task_with_the_stage_named() {
        use Strategy::{Cache, Repartition};
        let failure_of = |chain: &[MapperFactory], value: Datum| -> String {
            let mut ctx = TaskCtx::new(0);
            efind_mapreduce::api::run_chain(&chain[..1], vec![Record::new(1i64, value)], &mut ctx);
            ctx.error().expect("the task must fail").to_owned()
        };
        // Job 2 of repart+cache opens with lookup(b) → post on a carrier
        // that crossed the job boundary as a record.
        let compiled = compile_two_index("head", [Repartition, Cache]);
        let garbage = failure_of(&compiled.jobs[1].map_chain, Datum::Int(3));
        assert!(garbage.starts_with("lookup stage: "), "{garbage}");
        let unfilled = failure_of(&compiled.jobs[1].map_chain, stored_pair(1));
        assert!(
            unfilled.starts_with("post stage: ") && unfilled.contains("index 0 not looked up"),
            "{unfilled}"
        );
        // A payload cut short in the file is caught by the parse.
        let cut = failure_of(&compiled.jobs[1].map_chain, truncated(stored_pair(1)));
        assert!(cut.starts_with("lookup stage: decode error"), "{cut}");
        // The group lookup parses every payload of its group.
        for value in [Datum::Int(3), truncated(stored_pair(1))] {
            let mut reducer = (compiled.jobs[0].reducer.as_ref().unwrap())();
            let mut ctx = TaskCtx::new(0);
            reducer.reduce(Datum::Int(1), vec![value], &mut Vec::new(), &mut ctx);
            let garbage = ctx.error().expect("the task must fail");
            assert!(
                garbage.starts_with("group lookup stage: decode error"),
                "{garbage}"
            );
        }
        // A payload of another operator's arity has no slot for the
        // group's result, or for the next lookup's.
        let narrow = Carrier::default().encode(Datum::Int(1)).value;
        let mut reducer = (compiled.jobs[0].reducer.as_ref().unwrap())();
        let mut ctx = TaskCtx::new(0);
        reducer.reduce(
            Datum::Int(1),
            vec![narrow.clone()],
            &mut Vec::new(),
            &mut ctx,
        );
        let no_slot = ctx.error().expect("the task must fail");
        assert!(
            no_slot.starts_with("group lookup stage: ") && no_slot.contains("has no slot 0"),
            "{no_slot}"
        );
        let no_slot = failure_of(&compiled.jobs[1].map_chain, narrow);
        assert!(
            no_slot.starts_with("lookup stage: ") && no_slot.contains("has no slot 1"),
            "{no_slot}"
        );
    }

    /// The payload of a stored, unfilled [`two_index_op`] carrier with
    /// `slot1_keys` lookup keys for index `b`.
    fn stored_pair(slot1_keys: usize) -> Datum {
        let mut carrier = Carrier::default();
        carrier.open(
            Cow::Owned(Record::new(1i64, Datum::Null)),
            2,
            |rec, keys| {
                keys.put(0, 1i64);
                (0..slot1_keys).for_each(|_| keys.put(1, 1i64));
                rec
            },
        );
        carrier.encode(Datum::Int(1)).value
    }

    /// `payload` as a shuffle or a file would hand it on had it lost its
    /// last byte.
    fn truncated(payload: Datum) -> Datum {
        let Datum::Bytes(mut buf) = payload else {
            panic!("a carrier payload is a byte buffer");
        };
        buf.pop();
        Datum::Bytes(buf)
    }

    /// Shuffle strategies group records *by* the lookup key, so a record
    /// with two keys for a re-partitioned index fails the job at the rekey.
    #[test]
    fn multiple_keys_under_a_shuffle_strategy_fail_at_the_rekey() {
        let (mut ijob, plans) = sample_ijob(Strategy::Repartition);
        ijob.head[0].op = operator_fn(
            "enrich",
            1,
            |rec: &mut Record, keys: &mut IndexInput| {
                keys.put(0, rec.key.as_int().unwrap() % 10);
                keys.put(0, 0i64);
            },
            |rec: Record, _: &crate::operator::IndexOutput, out: &mut dyn Collector| {
                out.collect(rec);
            },
        );
        let compiled = compile_pipeline(&ijob, &plans, &env()).unwrap();
        let cluster = Cluster::builder().nodes(2).build();
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        dfs.write_file("in", vec![Record::new(1i64, "x")]);
        let err = Runner::new(&cluster, &mut dfs)
            .run(&compiled.jobs[0], SimTime::ZERO)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("rekey stage: ") && err.contains("exactly one key"),
            "{err}"
        );

        // The same check meets carriers that crossed a shuffle: under
        // repart + repart, job 0's reduce fills index `a` and re-keys for
        // `b`. Two keys for `b` fail there, at the rekey; with the payload
        // cut short the parse fails first and the rekey is never reached.
        let compiled = compile_two_index("head", [Strategy::Repartition; 2]);
        let failure_of = |payload: Datum| -> String {
            let mut reducer = (compiled.jobs[0].reducer.as_ref().unwrap())();
            let mut ctx = TaskCtx::new(0);
            reducer.reduce(Datum::Int(1), vec![payload], &mut Vec::new(), &mut ctx);
            ctx.error().expect("the task must fail").to_owned()
        };
        let two_keys = failure_of(stored_pair(2));
        assert!(
            two_keys.starts_with("rekey stage: ") && two_keys.contains("exactly one key"),
            "{two_keys}"
        );
        let cut = failure_of(truncated(stored_pair(2)));
        assert!(cut.starts_with("group lookup stage: decode error"), "{cut}");
    }

    #[test]
    fn index_locality_without_scheme_is_rejected() {
        let (ijob, mut plans) = sample_ijob(Strategy::Baseline);
        // Force index locality despite MemIndex exposing no scheme.
        plans.get_mut("enrich").unwrap().choices[0].strategy = Strategy::IndexLocality;
        assert!(compile_pipeline(&ijob, &plans, &env()).is_err());
    }

    #[test]
    fn missing_plan_is_an_error() {
        let (ijob, _) = sample_ijob(Strategy::Baseline);
        let empty = FxHashMap::default();
        assert!(compile_pipeline(&ijob, &empty, &env()).is_err());
    }
}
