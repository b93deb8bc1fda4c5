//! The EFind runtime (Fig. 8): plan selection, plan implementation, and
//! execution of enhanced jobs.

use std::path::Path;

use efind_analyze::Diagnostic;
use efind_cluster::{
    ChaosPlan, Cluster, CorruptionPlan, DetectorConfig, PartitionPlan, SimDuration, SimTime,
    TenancyConfig,
};
use efind_common::{Error, FxHashMap, Result};
use efind_dfs::{Dfs, DfsFile};
use efind_mapreduce::{Counters, JobConf, JobStats, Runner, Sketches};

use crate::accessor::HedgeConfig;
use crate::adaptive::{plans_of, replan, Evidence, Replan};
use crate::compile::{compile_pipeline, CompiledPipeline, RuntimeEnv};
use crate::cost::{CostEnv, OperatorStatsEstimate, Placement};
use crate::fault::FaultConfig;
use crate::jobconf::{BoundOperator, IndexJobConf};
use crate::plan::{forced_plan, OperatorPlan, Strategy};
use crate::statstore::{
    fingerprint_operator, fingerprint_plan, Fingerprint, LoadStatus, MeasuredOp, StatStore,
    DEFAULT_HISTORY,
};
use crate::statsx::{extract_operator_stats, Catalog};

/// Fixed wall-clock overhead the planner charges per *extra* MapReduce job
/// a shuffle strategy introduces (startup, phase barriers, the follow-up
/// job's fixed latency) — the reason "it is rare that such strategies are
/// chosen by many indices" (§3.5). Scaled to the reproduction's virtual job
/// durations; Hadoop deployments would use tens of seconds.
const JOB_OVERHEAD_SECS: f64 = 0.02;

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct EFindConfig {
    /// Lookup cache capacity (paper: 1024 entries).
    pub cache_capacity: usize,
    /// Cache probe time `T_cache`.
    pub t_cache: SimDuration,
    /// Algorithm 1's statistics-variance gate: re-optimize only if
    /// cross-task `stddev/mean` of key counters stays below this. The
    /// paper suggests 0.05 on 64 MB splits; the scaled-down default is
    /// looser because small splits are noisier.
    pub variance_threshold: f64,
    /// Modeled overhead of switching plans mid-job (job resubmission,
    /// scheduling, reading reused outputs), in wall-clock seconds. The
    /// default matches the scaled-down reproduction's job durations; a
    /// production Hadoop deployment would set seconds here.
    pub plan_change_cost_secs: f64,
    /// Reducer count for shuffling jobs (`None` = all reduce slots).
    pub shuffle_reducers: Option<usize>,
    /// Keep intermediate DFS files after the job (for inspection).
    pub keep_intermediates: bool,
    /// Hard co-location for index-locality reduce tasks. The paper keeps
    /// affinity *soft* (footnote 3: pinning a reducer to one machine lets
    /// that machine's unavailability stall the job); this switch exists
    /// for the experiment that demonstrates why.
    pub hard_colocation: bool,
    /// Fault-tolerance configuration for the accessor path: injection
    /// plan (tests/chaos runs), retry policy, per-index timeout, circuit
    /// breaker, and miss policy. Disabled by default — the zero-fault
    /// lookup path is byte-identical to a build without the fault layer.
    ///
    /// Every injection layer is armed exactly when its plan's `is_quiet()`
    /// (here [`FaultConfig::is_quiet`]) says no, asked outside the hot
    /// loops: a configured-but-quiet plan — seeded but with zero rates and
    /// no kill events — takes the exact same hot path as a never-configured
    /// one, paying no per-record or per-lookup draws, checksums, or ledger
    /// bookkeeping.
    pub faults: FaultConfig,
    /// Node-crash plan applied to every constituent MapReduce job: nodes
    /// die at their planned virtual times, completed map outputs lost with
    /// them are recomputed, the DFS re-replicates, and the adaptive
    /// re-plan reuses exactly the first-wave results that survived. Quiet
    /// by default — the crash-free path is byte-identical to a build
    /// without the recovery layer.
    pub chaos: ChaosPlan,
    /// Data-corruption plan applied to every constituent MapReduce job:
    /// DFS chunk replicas, shuffle payloads, lookup-cache entries, and
    /// index responses flip bytes per the plan's seeded draws, CRC-32
    /// verification catches every flip at the read boundary, and the
    /// repair paths (alternate replica + re-replication, shuffle refetch,
    /// cache invalidation, response re-transfer) turn corruption into
    /// virtual time instead of wrong answers. Quiet by default — the
    /// corruption-free path is byte-identical to a build without the
    /// integrity layer.
    pub corruption: CorruptionPlan,
    /// Network-partition plan applied to every constituent MapReduce job:
    /// partitions cut *visibility*, never state — isolated nodes keep
    /// running, their completed outputs strand until the partition heals
    /// (or are recomputed elsewhere when it never does), and the DFS is
    /// never mutated. Quiet by default ([`PartitionPlan::none`]) — the
    /// partition-free path is byte-identical to a build without the
    /// gray-failure layer.
    pub netsplit: PartitionPlan,
    /// Heartbeat failure-detector parameters consulted only when
    /// `netsplit` is armed: nodes silent past the suspicion threshold are
    /// suspected (tasks re-placed, re-replication queued); nodes that
    /// come back refute the suspicion, rejoin, and have their pending
    /// re-replication cancelled and in-flight results reconciled
    /// exactly-once.
    pub detector: DetectorConfig,
    /// Hedged index lookups: past the configured latency threshold a
    /// lookup races a seeded backup against a different replica or
    /// partition-side, the first answer wins, and the loser's virtual
    /// cost is charged per [`HedgePolicy`](crate::HedgePolicy). Answers
    /// are bit-identical to unhedged runs (idempotent lookups, §3.2) —
    /// only virtual time and the `hedge.*` counters move. Quiet by
    /// default (no threshold) — the unhedged path is byte-identical to a
    /// build without the hedging layer.
    pub hedge: HedgeConfig,
    /// Multi-tenant serving configuration of the cluster this runtime's
    /// jobs are admitted to: per-tenant quotas and weights, the bounded
    /// admission queue, per-index rate limits, and cache shares. Quiet by
    /// default ([`TenancyConfig::none`]) — a runtime without tenants (or
    /// with a single unlimited tenant) takes the literal plain path: full
    /// cache capacity, no tenant counters, and `analysis` skips EF024.
    pub tenancy: TenancyConfig,
    /// The tenant this runtime's jobs run as (`None` = the implicit
    /// default tenant). Only consulted when `tenancy` is armed.
    pub tenant: Option<String>,
}

impl EFindConfig {
    /// The reducer count of shuffling jobs on `cluster`: the configured
    /// count, else every reduce slot.
    pub(crate) fn shuffle_reducers_on(&self, cluster: &Cluster) -> usize {
        self.shuffle_reducers
            .unwrap_or_else(|| cluster.total_reduce_slots())
    }
}

impl Default for EFindConfig {
    fn default() -> Self {
        EFindConfig {
            cache_capacity: 1024,
            t_cache: SimDuration::from_micros(1),
            variance_threshold: 0.5,
            plan_change_cost_secs: 0.05,
            shuffle_reducers: None,
            keep_intermediates: false,
            hard_colocation: false,
            faults: FaultConfig::disabled(),
            chaos: ChaosPlan::none(),
            corruption: CorruptionPlan::none(),
            netsplit: PartitionPlan::none(),
            detector: DetectorConfig::default(),
            hedge: HedgeConfig::disabled(),
            tenancy: TenancyConfig::none(),
            tenant: None,
        }
    }
}

/// How the runtime chooses index access strategies.
#[derive(Clone, Debug)]
pub enum Mode {
    /// Force one strategy on every operator (with graceful fallbacks) —
    /// the `Base`/`Cache`/`Repart`/`Idxloc` configurations of §5.
    Uniform(Strategy),
    /// Per-operator forced strategies (unlisted operators default to
    /// `Cache`, matching the paper's multi-join methodology).
    Manual(FxHashMap<String, Strategy>),
    /// Cost-based optimization from a previous run's statistics (§5's
    /// `Optimized`: the store's measured history, else the catalog),
    /// planned by the same step as `Dynamic`'s re-plans. Fails when an
    /// indexed, non-volatile operator has no statistics.
    Optimized,
    /// Adaptive optimization from scratch (§4, §5's `Dynamic`): start with
    /// baseline, collect statistics in the first map wave, re-optimize.
    Dynamic,
}

/// Result of an EFind-enhanced job.
#[derive(Clone, Debug)]
pub struct EFindJobResult {
    /// Final DFS output.
    pub output: DfsFile,
    /// Total virtual wall-clock across all constituent MapReduce jobs.
    pub total_time: SimDuration,
    /// Statistics of each executed MapReduce job, in order.
    pub jobs: Vec<JobStats>,
    /// The plan used for each operator (final plan if re-planned).
    pub plans: Vec<(String, OperatorPlan)>,
    /// True if the adaptive runtime changed plans mid-job.
    pub replanned: bool,
}

/// Executes EFind-enhanced jobs on a simulated cluster.
///
/// ```
/// use std::sync::Arc;
/// use efind::*;
/// use efind_common::{Datum, Record};
/// use efind_cluster::{Cluster, SimDuration};
/// use efind_dfs::{Dfs, DfsConfig};
/// use efind_mapreduce::{mapper_fn, reducer_fn};
///
/// // A trivial index: id → id * 10. It computes its results, so writing
/// // `lookup` is enough; an index that stores large lists keeps them as
/// // `Arc<[Datum]>` and overrides `try_lookup` to hand them out uncopied.
/// struct TimesTen;
/// impl IndexAccessor for TimesTen {
///     fn name(&self) -> &str { "times-ten" }
///     fn lookup(&self, key: &Datum) -> Vec<Datum> {
///         key.as_int().map(|v| vec![Datum::Int(v * 10)]).unwrap_or_default()
///     }
///     fn serve_time(&self, _: &Datum, _: u64) -> SimDuration {
///         SimDuration::from_micros(100)
///     }
/// }
///
/// let cluster = Cluster::builder().nodes(2).build();
/// let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
/// dfs.write_file("in", (0..100i64).map(|i| Record::new(i, i % 7)).collect());
///
/// let op = operator_fn(
///     "enrich", 1,
///     |rec, keys| keys.put(0, rec.value.clone()),            // preProcess
///     |rec, values, out| {                                   // postProcess
///         let v = values.first(0).first().cloned().unwrap_or(Datum::Null);
///         out.collect(Record { key: v, value: rec.key });
///     },
/// );
/// let ijob = IndexJobConf::new("demo", "in", "out")
///     .add_head_index_operator(BoundOperator::new(op).add_index(Arc::new(TimesTen)))
///     .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
///     .set_reducer(reducer_fn(|key, values, out, _| {
///         out.collect(Record::new(key, values.len() as i64));
///     }), 2);
///
/// let mut rt = EFindRuntime::new(&cluster, &mut dfs);
/// let res = rt.run(&ijob, Mode::Uniform(Strategy::Cache)).unwrap();
/// assert_eq!(res.output.total_records(), 7);
/// ```
pub struct EFindRuntime<'a> {
    /// The cluster.
    pub cluster: &'a Cluster,
    /// The distributed file system.
    pub dfs: &'a mut Dfs,
    /// Runtime configuration.
    pub config: EFindConfig,
    /// Statistics catalog persisted across jobs.
    pub catalog: Catalog,
    /// Cross-job re-optimization store (`None` = disabled). When attached,
    /// job-boundary observations are recorded per operator fingerprint and
    /// `Mode::Optimized` (plus the adaptive warm start) prefers measured
    /// history over catalog estimates.
    pub store: Option<StatStore>,
    /// Store-load anomalies pending surfacing as counters on the next run.
    store_events: StoreEvents,
    /// The analyzer warnings the current (or last) run reported.
    warnings: Vec<Diagnostic>,
}

/// Pending store-load anomalies, drained into the next job's counters so
/// an empty or clean store contributes nothing to the observables.
#[derive(Clone, Copy, Debug, Default)]
struct StoreEvents {
    corrupt: u64,
    version_mismatch: u64,
}

impl<'a> EFindRuntime<'a> {
    /// Creates a runtime with default configuration.
    pub fn new(cluster: &'a Cluster, dfs: &'a mut Dfs) -> Self {
        Self::with_config(cluster, dfs, EFindConfig::default())
    }

    /// Creates a runtime with explicit configuration.
    pub fn with_config(cluster: &'a Cluster, dfs: &'a mut Dfs, config: EFindConfig) -> Self {
        EFindRuntime {
            cluster,
            dfs,
            config,
            catalog: Catalog::new(),
            store: None,
            store_events: StoreEvents::default(),
            warnings: Vec::new(),
        }
    }

    /// Attaches an in-memory re-optimization store.
    pub fn attach_store(&mut self, store: StatStore) {
        self.store = Some(store);
    }

    /// Loads and attaches a re-optimization store from `path` (job-boundary
    /// I/O). A missing file attaches an empty store; a corrupt or
    /// version-bumped file attaches an empty store and arms the
    /// `efind.statstore.corrupt` / `efind.statstore.version.mismatch`
    /// counter for the next run. Never panics, never fails the job.
    pub fn attach_store_file(&mut self, path: &Path) -> LoadStatus {
        let (store, status) = StatStore::load(path, DEFAULT_HISTORY);
        match status {
            LoadStatus::Corrupt => self.store_events.corrupt += 1,
            LoadStatus::VersionMismatch => self.store_events.version_mismatch += 1,
            LoadStatus::Created | LoadStatus::Loaded => {}
        }
        self.store = Some(store);
        status
    }

    /// Writes the attached store to `path` (job-boundary I/O). A runtime
    /// without a store writes nothing.
    pub fn save_store(&self, path: &Path) -> std::io::Result<()> {
        match &self.store {
            Some(store) => store.save(path),
            None => Ok(()),
        }
    }

    /// The cost-model environment derived from the cluster and DFS models.
    pub fn cost_env(&self) -> CostEnv {
        let n = self.cluster.num_nodes() as f64;
        // One extra-shuffle byte pays: map-side spill (disk write), the
        // remote fraction of the transfer, and the reduce-side merge
        // (disk write + read) — mirroring what the runner charges.
        let probe = 1u64 << 20;
        let shuffle_secs_per_byte = (self.cluster.disk.write(probe).as_secs_f64() * 2.0
            + self.cluster.disk.read(probe).as_secs_f64()
            + self.cluster.network.volume(probe).as_secs_f64() * (n - 1.0) / n)
            / probe as f64;
        CostEnv {
            bw_bytes_per_sec: self.cluster.network.bandwidth_bytes_per_sec,
            f_per_byte: self.dfs.f_per_byte(),
            t_cache_secs: self.config.t_cache.as_secs_f64(),
            lookup_latency_secs: self.cluster.network.latency.as_secs_f64(),
            shuffle_secs_per_byte,
            job_overhead_secs: JOB_OVERHEAD_SECS,
            reduce_parallelism: self
                .config
                .shuffle_reducers_on(self.cluster)
                .min(self.cluster.total_reduce_slots()) as f64,
            parallelism: self.cluster.total_map_slots() as f64,
        }
    }

    /// The environment this runtime compiles its jobs in, with the
    /// store-served statistics `measured` threaded to the analyzer
    /// (`EF023`).
    pub(crate) fn runtime_env(&self, measured: Vec<MeasuredOp>) -> RuntimeEnv {
        let env = RuntimeEnv::new(self.cluster, self.dfs.config().replication, &self.config);
        RuntimeEnv { measured, ..env }
    }

    /// Compiles `ijob` under `plans` in this runtime's environment and
    /// reports each analyzer warning the current run has not reported yet.
    /// Every compile of a run goes through here.
    pub(crate) fn compile(
        &mut self,
        ijob: &IndexJobConf,
        plans: &FxHashMap<String, OperatorPlan>,
        measured: Vec<MeasuredOp>,
    ) -> Result<CompiledPipeline> {
        let compiled = compile_pipeline(ijob, plans, &self.runtime_env(measured))?;
        for warning in compiled.analysis.warnings() {
            if !self.warnings.contains(warning) {
                eprintln!("efind: {warning}");
                self.warnings.push(warning.clone());
            }
        }
        Ok(compiled)
    }

    /// The analyzer warnings the last [`run`](Self::run) reported, each
    /// once, in the order they were first found.
    pub fn warnings(&self) -> &[Diagnostic] {
        &self.warnings
    }

    /// The runner every constituent job and every adaptive sub-step runs
    /// on: all of the configuration's node-level injection layers (crashes,
    /// corruption, partitions and their detector) installed, so a wave, a
    /// schedule, or a re-planned sub-job sees exactly what a plain run sees.
    pub(crate) fn runner(&mut self) -> Runner<'_> {
        Runner::with_chaos(self.cluster, self.dfs, self.config.chaos.clone())
            .with_corruption(self.config.corruption.clone())
            .with_netsplit(self.config.netsplit.clone(), self.config.detector)
    }

    /// Computes the per-operator plans for a mode (except `Dynamic`, whose
    /// plans emerge during execution).
    pub fn plans_for(
        &self,
        ijob: &IndexJobConf,
        mode: &Mode,
    ) -> Result<FxHashMap<String, OperatorPlan>> {
        Ok(self.plans_and_measured_for(ijob, mode)?.0)
    }

    /// The measured-stats history for one bound operator, if the attached
    /// store has a matching fingerprint whose arity fits the binding.
    pub(crate) fn measured_for(
        &self,
        bound: &BoundOperator,
        placement: Placement,
    ) -> Option<(Fingerprint, OperatorStatsEstimate)> {
        let shape = fingerprint_operator(bound, placement);
        let stats = self
            .store
            .as_ref()?
            .measured(shape)
            .filter(|m| m.indices.len() == bound.indices.len())?;
        Some((shape, stats))
    }

    /// [`plans_for`](Self::plans_for) plus the [`MeasuredOp`] injections
    /// describing which operators were planned from store history instead
    /// of catalog estimates (threaded to the analyzer's EF023 check).
    pub(crate) fn plans_and_measured_for(
        &self,
        ijob: &IndexJobConf,
        mode: &Mode,
    ) -> Result<(FxHashMap<String, OperatorPlan>, Vec<MeasuredOp>)> {
        let (plans, measured) = match mode {
            Mode::Uniform(strategy) => (forced_plans(ijob, |_| *strategy), Vec::new()),
            Mode::Manual(per_op) => {
                let strategy = |name: &str| per_op.get(name).copied().unwrap_or(Strategy::Cache);
                (forced_plans(ijob, strategy), Vec::new())
            }
            Mode::Optimized => {
                let planned = self.optimized(ijob)?;
                (plans_of(planned.priced), planned.measured)
            }
            Mode::Dynamic => {
                return Err(Error::Internal(
                    "Dynamic plans are computed during execution".into(),
                ))
            }
        };
        Ok((plans, measured))
    }

    /// The planner's pass `Mode::Optimized` runs: each operator priced
    /// from the store's measured history, else the catalog. Fails when an
    /// indexed, non-volatile operator has neither.
    pub(crate) fn optimized<'o>(&self, ijob: &'o IndexJobConf) -> Result<Replan<'o>> {
        let planned = replan(self, ijob.operators(), &Evidence::Catalog);
        if let Some(name) = planned.missing {
            return Err(Error::InvalidConfig(format!(
                "no catalog statistics for operator {name}; run the job once \
                 (any mode) or use Mode::Dynamic"
            )));
        }
        Ok(planned)
    }

    /// Runs an enhanced job.
    pub fn run(&mut self, ijob: &IndexJobConf, mode: Mode) -> Result<EFindJobResult> {
        self.warnings.clear();
        ijob.validate()?;
        let mut res = match mode {
            Mode::Dynamic => crate::adaptive::run_dynamic(self, ijob)?,
            other => {
                let (plans, measured) = self.plans_and_measured_for(ijob, &other)?;
                self.run_with_plans(ijob, plans, measured)?
            }
        };
        // Surface pending store-load anomalies as counters on the first
        // constituent job. A clean, empty, or absent store arms nothing,
        // so the quiet path's observables stay byte-identical to a build
        // without the store.
        let events = std::mem::take(&mut self.store_events);
        if let Some(job) = res.jobs.first_mut() {
            if events.corrupt > 0 {
                job.counters
                    .add("efind.statstore.corrupt", events.corrupt as i64);
            }
            if events.version_mismatch > 0 {
                job.counters.add(
                    "efind.statstore.version.mismatch",
                    events.version_mismatch as i64,
                );
            }
        }
        Ok(res)
    }

    /// Compiles and executes the pipeline for fixed plans, with the
    /// measured-stats injections threaded to the analyzer (EF023).
    pub(crate) fn run_with_plans(
        &mut self,
        ijob: &IndexJobConf,
        plans: FxHashMap<String, OperatorPlan>,
        measured: Vec<MeasuredOp>,
    ) -> Result<EFindJobResult> {
        let compiled = self.compile(ijob, &plans, measured)?;
        let mut jobs = Vec::with_capacity(compiled.jobs.len());
        let output = self
            .run_jobs(&compiled.jobs, SimTime::ZERO, &mut jobs)?
            .ok_or_else(|| Error::Internal("pipeline produced no jobs".into()))?;
        self.clean_up(&compiled.temp_files);
        Ok(self.end_run(ijob, jobs, output, plans, false, None))
    }

    /// Runs `confs` in order, the first from `start` and each later one
    /// from the finish of the one before, appending each job's statistics
    /// to `jobs`; returns the last job's output (`None` for no jobs).
    pub(crate) fn run_jobs(
        &mut self,
        confs: &[JobConf],
        start: SimTime,
        jobs: &mut Vec<JobStats>,
    ) -> Result<Option<DfsFile>> {
        let mut t = start;
        let mut output = None;
        for conf in confs {
            let res = self.runner().run(conf, t)?;
            t = res.stats.finished;
            jobs.push(res.stats);
            output = Some(res.output);
        }
        Ok(output)
    }

    /// Deletes a run's intermediate DFS files, unless the configuration
    /// keeps them for inspection.
    pub(crate) fn clean_up(&mut self, files: &[String]) {
        if !self.config.keep_intermediates {
            for file in files {
                self.dfs.delete(file);
            }
        }
    }

    /// Ends a run, whichever way it went: harvests the statistics of
    /// `jobs` — plus `first_wave`'s, when a first map wave ran before the
    /// plan changed — into the catalog and the store under `plans`, the
    /// plan each operator executed, and reports `jobs`, `output`, the
    /// last job's finish as the total time and every operator's plan.
    pub(crate) fn end_run(
        &mut self,
        ijob: &IndexJobConf,
        jobs: Vec<JobStats>,
        output: DfsFile,
        plans: FxHashMap<String, OperatorPlan>,
        replanned: bool,
        first_wave: Option<(&Counters, &Sketches)>,
    ) -> EFindJobResult {
        let (mut counters, mut sketches) = JobStats::merged(&jobs);
        if let Some((wave_counters, wave_sketches)) = first_wave {
            counters.merge(wave_counters);
            sketches.merge(wave_sketches);
        }
        self.record_observations(ijob, &counters, &sketches, &plans);
        let end = jobs.last().map_or(SimTime::ZERO, |job| job.finished);
        EFindJobResult {
            output,
            total_time: end.since(SimTime::ZERO),
            jobs,
            plans: in_operator_order(ijob, plans),
            replanned,
        }
    }

    /// Job-boundary statistics sink: feeds the catalog, then appends one
    /// [`crate::statstore::RunRecord`] per observed operator to the
    /// attached store, keyed by shape fingerprint and tagged with the
    /// fingerprint of the plan that actually executed.
    fn record_observations(
        &mut self,
        ijob: &IndexJobConf,
        counters: &Counters,
        sketches: &Sketches,
        plans: &FxHashMap<String, OperatorPlan>,
    ) {
        self.catalog.absorb(counters, sketches, &ijob.descriptors());
        let Some(store) = self.store.as_mut() else {
            return;
        };
        for (bound, placement) in ijob.operators() {
            let name = bound.op.name();
            if let Some(stats) = extract_operator_stats(counters, sketches, &bound.descriptor()) {
                let shape = fingerprint_operator(bound, placement);
                let plan_fp = plans
                    .get(name)
                    .map(|p| fingerprint_plan(shape, p))
                    .unwrap_or(0);
                store.record(shape, plan_fp, stats);
            }
        }
    }
}

/// `plans` as [`EFindJobResult::plans`] lists them: in `ijob.operators()`
/// order, skipping operators that have no plan.
fn in_operator_order(
    ijob: &IndexJobConf,
    mut plans: FxHashMap<String, OperatorPlan>,
) -> Vec<(String, OperatorPlan)> {
    let mut ordered = Vec::with_capacity(plans.len());
    ordered.extend(
        ijob.operators()
            .filter_map(|(bound, _)| plans.remove_entry(bound.op.name())),
    );
    ordered
}

/// Forces `strategy(name)` on every operator of `ijob`, except that a
/// volatile operator (non-idempotent lookups, §3.2) is pinned to the
/// baseline strategy: caching or deduplicating its lookups would change
/// results. The planner ([`replan`]) gates volatile operators the same way.
pub(crate) fn forced_plans(
    ijob: &IndexJobConf,
    strategy: impl Fn(&str) -> Strategy,
) -> FxHashMap<String, OperatorPlan> {
    ijob.operators()
        .map(|(bound, _)| {
            let name = bound.op.name();
            let s = if bound.volatile {
                Strategy::Baseline
            } else {
                strategy(name)
            };
            (name.to_owned(), forced_plan(&bound.caps(), s))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::testutil::MemIndex;
    use crate::jobconf::BoundOperator;
    use crate::operator::{operator_fn, IndexInput, IndexOutput};
    use efind_cluster::tenancy::TenantSpec;
    use efind_common::{Datum, Record};
    use efind_dfs::DfsConfig;
    use efind_mapreduce::{mapper_fn, reducer_fn, Collector};
    use std::sync::Arc;

    fn setup(n_records: i64, distinct: i64) -> (Cluster, Dfs, IndexJobConf) {
        let cluster = Cluster::builder()
            .nodes(4)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 1024,
                replication: 2,
                seed: 5,
            },
        );
        let records: Vec<Record> = (0..n_records)
            .map(|i| Record::new(i, Datum::Int(i % distinct)))
            .collect();
        dfs.write_file("in", records);

        let index = Arc::new(MemIndex::new(
            "vals",
            (0..distinct)
                .map(|i| (Datum::Int(i), vec![Datum::Text(format!("v{i}"))]))
                .collect(),
        ));
        let op = operator_fn(
            "join",
            1,
            |rec: &mut Record, keys: &mut IndexInput| {
                keys.put(0, rec.value.clone());
            },
            |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
                let v = values.first(0).first().cloned().unwrap_or(Datum::Null);
                out.collect(Record {
                    key: v,
                    value: rec.key,
                });
            },
        );
        let ijob = IndexJobConf::new("test", "in", "out")
            .add_head_index_operator(BoundOperator::new(op).add_index(index))
            .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
            .set_reducer(
                reducer_fn(|key, values, out, _| {
                    out.collect(Record::new(key, values.len() as i64));
                }),
                2,
            );
        (cluster, dfs, ijob)
    }

    fn sorted_output(dfs: &Dfs) -> Vec<Record> {
        let mut out = dfs.read_file("out").unwrap();
        out.sort();
        out
    }

    #[test]
    fn all_static_modes_agree_on_output() {
        let mut outputs = Vec::new();
        for strategy in [Strategy::Baseline, Strategy::Cache, Strategy::Repartition] {
            let (cluster, mut dfs, ijob) = setup(200, 10);
            let mut rt = EFindRuntime::new(&cluster, &mut dfs);
            rt.run(&ijob, Mode::Uniform(strategy)).unwrap();
            outputs.push(sorted_output(&dfs));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
        assert_eq!(outputs[0].len(), 10);
    }

    #[test]
    fn optimized_requires_catalog_then_works() {
        let (cluster, mut dfs, ijob) = setup(200, 10);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        let err = rt.run(&ijob, Mode::Optimized).unwrap_err();
        let text = "no catalog statistics for operator join; run the job once (any mode) or use \
                    Mode::Dynamic";
        assert!(matches!(err, Error::InvalidConfig(msg) if msg == text));
        rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
        let baseline_out = sorted_output(rt.dfs);
        let res = rt.run(&ijob, Mode::Optimized).unwrap();
        assert_eq!(sorted_output(rt.dfs), baseline_out);
        assert_eq!(res.plans.len(), 1);
    }

    #[test]
    fn optimized_keeps_a_failing_index_on_baseline() {
        // Redundant keys make the cache plan the optimizer's pick; a
        // catalog showing the index failing past the degrade threshold
        // keeps the operator on the baseline plan, as in Dynamic mode.
        let (cluster, mut dfs, ijob) = setup(400, 5);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
        let strategy = |rt: &EFindRuntime| {
            rt.plans_for(&ijob, &Mode::Optimized).unwrap()["join"].choices[0].strategy
        };
        assert_eq!(strategy(&rt), Strategy::Cache);
        let mut stats = rt.catalog.get("join").unwrap().clone();
        stats.indices[0].failure_rate = 0.9;
        rt.catalog.put("join", stats);
        assert_eq!(strategy(&rt), Strategy::Baseline);
    }

    #[test]
    fn cache_strategy_is_faster_on_redundant_keys() {
        let (cluster, mut dfs, ijob) = setup(400, 5);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        let base = rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
        let cache = rt.run(&ijob, Mode::Uniform(Strategy::Cache)).unwrap();
        assert!(
            cache.total_time < base.total_time,
            "cache {} vs base {}",
            cache.total_time,
            base.total_time
        );
    }

    #[test]
    fn an_armed_tenant_counts_its_cache_evictions() {
        // Two tenants arm the tenancy layer. Alpha's half share of a
        // four-entry cache holds two of the ten distinct keys, so it evicts.
        let (cluster, mut dfs, ijob) = setup(200, 10);
        let config = EFindConfig {
            cache_capacity: 4,
            tenancy: TenancyConfig::none()
                .tenant(TenantSpec::new("alpha").cache_share(0.5))
                .tenant(TenantSpec::new("beta")),
            tenant: Some("alpha".into()),
            ..EFindConfig::default()
        };
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Uniform(Strategy::Cache)).unwrap();
        let evictions: i64 = res
            .jobs
            .iter()
            .map(|j| j.counters.get("efind.tenant.alpha.cache.evictions"))
            .sum();
        assert!(evictions > 0, "no eviction counted");
    }

    #[test]
    fn manual_mode_defaults_to_cache() {
        let (cluster, mut dfs, ijob) = setup(100, 10);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        let res = rt.run(&ijob, Mode::Manual(FxHashMap::default())).unwrap();
        assert_eq!(res.plans[0].1.choices[0].strategy, Strategy::Cache);
    }

    #[test]
    fn intermediates_cleaned_up() {
        let (cluster, mut dfs, ijob) = setup(100, 10);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        rt.run(&ijob, Mode::Uniform(Strategy::Repartition)).unwrap();
        assert!(!rt.dfs.exists("test.tmp0"));
    }

    #[test]
    fn volatile_operators_are_pinned_to_baseline() {
        // A non-idempotent index (a counter posing as a lookup) must
        // never be cached or deduplicated, whatever the mode asks for.
        let (cluster, mut dfs, mut ijob) = setup(200, 10);
        ijob.head[0].volatile = true;
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        // Optimized mode first on an empty catalog (a volatile operator
        // runs its baseline plan, so it needs no statistics), and last
        // with the statistics of the runs before it.
        for mode in [
            Mode::Optimized,
            Mode::Uniform(Strategy::Cache),
            Mode::Uniform(Strategy::Repartition),
            Mode::Dynamic,
            Mode::Optimized,
        ] {
            let res = rt.run(&ijob, mode).unwrap();
            let plan = &res.plans.iter().find(|(n, _)| n == "join").unwrap().1;
            assert!(
                plan.choices
                    .iter()
                    .all(|c| c.strategy == Strategy::Baseline),
                "volatile operator must stay baseline: {plan:?}"
            );
        }
    }

    #[test]
    fn catalog_populated_after_run() {
        let (cluster, mut dfs, ijob) = setup(100, 10);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
        let stats = rt.catalog.get("join").unwrap();
        assert!((stats.n1 - 100.0).abs() < 1e-9);
        assert!((stats.indices[0].nik - 1.0).abs() < 1e-9);
    }
}
