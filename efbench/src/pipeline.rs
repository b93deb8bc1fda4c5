//! The traced execution of compiled MapReduce jobs: the same call
//! sequence `Runner::run` / `EFindRuntime::run` perform, issued from here
//! so that spans sit around `execute_maps` and `finish`, followed by the
//! per-layer replays on the inputs the job just used.

use std::collections::BTreeMap;

use efind::compile::{compile_pipeline, RuntimeEnv};
use efind::{EFindConfig, EFindRuntime, IndexJobConf, Mode};
use efind_cluster::sched::schedule_phase_chaos;
use efind_cluster::{Cluster, SimDuration, SimTime};
use efind_common::{Record, Result};
use efind_dfs::Dfs;
use efind_mapreduce::{JobConf, JobStats, Runner};

use crate::stats::self_time_ns;
use crate::trace::{AccessorClock, TimedAccessor, Tracer};

/// Name of the scratch DFS file the output-write replay writes and the
/// bench deletes again.
const REPLAY_FILE: &str = "efbench.replay";

/// Per-layer values of one iteration, by metric name. Times are in
/// milliseconds; a layer that ran in several jobs of one iteration adds up.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `value` to metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Adds a nanosecond reading to a millisecond metric.
    pub fn add_ns(&mut self, name: &'static str, ns: u64) {
        self.add(name, ns as f64 / 1e6);
    }

    /// Overwrites metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Takes `ms` off metric `name`, stopping at zero: a replay of
    /// something that ran inside a span comes off that span's remainder.
    pub fn take_off(&mut self, name: &'static str, ms: f64) {
        self.set(name, (self.get(name) - ms).max(0.0));
    }

    /// True when `name` was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The value of `name`, zero when the layer never ran.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Swaps every index accessor of `ijob` for a [`TimedAccessor`] around it.
pub fn install_timed_accessors(ijob: &mut IndexJobConf, clock: &std::sync::Arc<AccessorClock>) {
    let ops = ijob
        .head
        .iter_mut()
        .chain(ijob.body.iter_mut())
        .chain(ijob.tail.iter_mut());
    for bound in ops {
        for accessor in &mut bound.indices {
            *accessor = TimedAccessor::wrap(accessor.clone(), clock.clone());
        }
    }
}

/// The `RuntimeEnv` `EFindRuntime::run` would build for itself (its
/// `runtime_env()` is crate-private, so the fields are mirrored here).
pub fn runtime_env(cluster: &Cluster, dfs: &Dfs, config: &EFindConfig) -> RuntimeEnv {
    RuntimeEnv {
        network: cluster.network,
        t_cache: config.t_cache,
        cache_capacity: config.cache_capacity,
        shuffle_reducers: config
            .shuffle_reducers
            .unwrap_or_else(|| cluster.total_reduce_slots()),
        intermediate_chunks: cluster.total_map_slots() * 2,
        hard_colocation: config.hard_colocation,
        faults: config.faults.clone(),
        corruption: config.corruption.clone(),
        dfs_replication: dfs.config().replication,
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

/// What a traced enhanced job returns: the statistics of its constituent
/// jobs and the virtual seconds they took end to end.
pub struct TracedRun {
    /// Statistics of each MapReduce job, in order.
    pub jobs: Vec<JobStats>,
    /// Virtual makespan of the whole pipeline.
    pub total_time: SimDuration,
}

/// Plans, compiles and runs `ijob` under a static `mode` the way
/// `EFindRuntime::run` does, with spans around each step. `rt` supplies
/// the cluster, DFS, configuration and catalog.
pub fn run_enhanced_traced(
    rt: &mut EFindRuntime<'_>,
    ijob: &IndexJobConf,
    mode: &Mode,
    clock: &AccessorClock,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<TracedRun> {
    let (plans, ns) = tracer.span("core.plan", || rt.plans_for(ijob, mode));
    layers.add_ns("core.plan_ms", ns);
    let plans = plans?;
    let env = runtime_env(rt.cluster, rt.dfs, &rt.config);
    let (compiled, ns) = tracer.span("core.compile", || compile_pipeline(ijob, &plans, &env));
    layers.add_ns("core.compile_ms", ns);
    let compiled = compiled?;
    let run = run_jobs_traced(
        rt.cluster,
        rt.dfs,
        &rt.config,
        &compiled.jobs,
        clock,
        tracer,
        layers,
    )?;
    for tmp in &compiled.temp_files {
        rt.dfs.delete(tmp);
    }
    Ok(run)
}

/// Runs `jobs` back to back on the virtual clock, each as
/// `execute_maps` + `finish` under the injection plans of `config`, and
/// replays every layer after each job.
pub fn run_jobs_traced(
    cluster: &Cluster,
    dfs: &mut Dfs,
    config: &EFindConfig,
    jobs: &[JobConf],
    clock: &AccessorClock,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<TracedRun> {
    let mut t = SimTime::ZERO;
    let mut stats = Vec::with_capacity(jobs.len());
    for conf in jobs {
        let mut runner = Runner::with_chaos(cluster, dfs, config.chaos.clone())
            .with_corruption(config.corruption.clone())
            .with_netsplit(config.netsplit.clone(), config.detector);
        let chunks = runner.chunks(conf)?;

        let maps = tracer.begin("mapreduce.execute_maps");
        let exec = runner.execute_maps(conf, &chunks, 0);
        let in_maps = clock.take();
        tracer.aggregate("index.lookup", maps, in_maps.busy_ns, in_maps.calls);
        layers.add_ns("mapreduce.execute_maps_ms", tracer.end(maps));
        let mut exec = exec?;

        let fin = tracer.begin("mapreduce.finish");
        let res = runner.finish(conf, &mut exec, t);
        let in_finish = clock.take();
        tracer.aggregate("index.lookup", fin, in_finish.busy_ns, in_finish.calls);
        layers.add_ns("mapreduce.finish_ms", tracer.end(fin));
        let res = res?;

        layers.add_ns("index.lookup_ms", in_maps.busy_ns + in_finish.busy_ns);
        layers.add("index.lookups", (in_maps.calls + in_finish.calls) as f64);
        layers.add(
            "index.bytes_returned",
            (in_maps.bytes + in_finish.bytes) as f64,
        );

        // ---- replays: one layer at a time, on what the job just used ----
        // The iteration clock stands still from here to the end of the
        // job's replays, so that what the replays allocate and drop in
        // between is not billed to the iteration either.
        tracer.pause();
        let (read, ns) = tracer.replay("dfs.read", || {
            chunks
                .iter()
                .try_for_each(|c| runner.dfs.read_chunk_shared(&conf.input, c.index).map(drop))
        });
        read?;
        layers.add_ns("dfs.read_ms", ns);
        // The map phase's own time: its span without the index lookups made
        // inside it and without the chunk reads just replayed. A workload
        // takes its own replays (user code, the lookup path) off as well.
        layers.add_ns(
            "mapreduce.map_self_ms",
            self_time_ns(tracer.interval(maps), &tracer.children_of(maps), ns),
        );

        let (schedule, mut schedule_ns) =
            tracer.replay("cluster.schedule", || runner.schedule_maps(&exec, t));
        let mut tasks = schedule.assignments.len();

        // The layers that ran inside `finish`, replayed, so that what is
        // left of its span is the runner's own bookkeeping.
        let mut inside_finish_ns = schedule_ns;
        let output: Vec<Record> = if conf.has_reduce() {
            // `finish` consumed the map outputs. Copying them beforehand
            // would double the live heap under the spans, so the map phase
            // is run again for the shuffle replays instead.
            let map_outputs = runner.execute_maps(conf, &chunks, 0)?.take_outputs();
            clock.take();
            let ((partitions, _), ns) = tracer.replay("mapreduce.partition", || {
                runner.partition_for_reduce(conf, map_outputs)
            });
            layers.add_ns("mapreduce.partition_ms", ns);
            inside_finish_ns += ns;

            let mut unsorted = partitions.clone();
            let ((), ns) = tracer.replay("common.sort", || {
                for p in &mut unsorted {
                    p.sort_by(|a, b| a.key.cmp(&b.key));
                }
            });
            drop(unsorted);
            layers.add_ns("common.sort_ms", ns);

            let (execs, ns) = tracer.replay("mapreduce.reduce", || {
                runner.execute_reduce_partitions_owned(
                    conf,
                    partitions.into_iter().enumerate().collect(),
                )
            });
            // Index time inside the replayed reduce is the index's, not
            // the reduce's.
            let reduce_ns = ns.saturating_sub(clock.take().busy_ns);
            layers.add_ns("mapreduce.reduce_ms", reduce_ns);
            inside_finish_ns += ns;
            let execs = execs?;

            let specs: Vec<_> = execs.iter().map(|e| e.spec.clone()).collect();
            tasks += specs.len();
            let (_, ns) = tracer.replay("cluster.schedule", || {
                schedule_phase_chaos(cluster, &specs, t, runner.chaos())
            });
            schedule_ns += ns;
            inside_finish_ns += ns;
            execs.into_iter().flat_map(|e| e.output).collect()
        } else {
            runner.dfs.read_file(&conf.output)?
        };
        layers.add_ns("cluster.schedule_ms", schedule_ns);
        layers.add("cluster.tasks_scheduled", tasks as f64);

        let ((), ns) = tracer.replay("dfs.write", || {
            match conf.output_chunks {
                Some(n) => runner.dfs.write_file_with_chunks(REPLAY_FILE, output, n),
                None => runner.dfs.write_file(REPLAY_FILE, output),
            };
        });
        runner.dfs.delete(REPLAY_FILE);
        layers.add_ns("dfs.write_ms", ns);
        inside_finish_ns += ns;
        // The index lookups inside `finish` are inside the replayed reduce
        // as well, so they are not taken off a second time as children.
        layers.add_ns(
            "mapreduce.finish_self_ms",
            self_time_ns(tracer.interval(fin), &[], inside_finish_ns),
        );

        layers.add(
            "dfs.bytes_read",
            chunks.iter().map(|c| c.bytes).sum::<u64>() as f64,
        );
        layers.add("dfs.bytes_written", res.output.total_bytes() as f64);
        t = res.stats.finished;
        stats.push(res.stats);
        tracer.resume();
    }
    Ok(TracedRun {
        jobs: stats,
        total_time: t.since(SimTime::ZERO),
    })
}
