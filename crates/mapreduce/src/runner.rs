//! Job execution.
//!
//! User code runs for real — every map task reads its chunk's records,
//! applies the chained functions, and the reduce phase groups and reduces
//! actual data — while the virtual timeline comes from the cluster
//! scheduler: each task's placement-independent cost is accumulated during
//! execution (CPU model, charges from user code, spill and shuffle
//! volumes), then [`efind_cluster::sched::schedule_phase`] assigns tasks to
//! slots and yields the phase makespan.
//!
//! [`Runner::finish`] is four public steps in order — [`Runner::map_side`],
//! [`Runner::shuffle`], [`Runner::reduce`] and [`Runner::end_job`] —
//! because EFind's adaptive optimizer (§4.3, Fig. 10) needs to stop a job
//! after its first map wave, re-plan, and stitch the completed wave's
//! outputs into the new plan's reduce, or to run the reduce phase wave by
//! wave. Whoever runs the steps, a job ends in `end_job`, and so in
//! `seal`: the one place its ledgers are completed and mirrored and its
//! [`JobStats`] is built.

// The runner returns structured errors; a panic would abort the whole
// simulated cluster.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::{
    borrow::Cow,
    mem,
    ops::Range,
    panic::{self, AssertUnwindSafe},
    thread,
};

use efind_cluster::{
    sched::{schedule_phase_gray, Assignment, PartitionReplay, Schedule, SlotKind, TaskSpec},
    ChaosPlan, Cluster, CorruptionPlan, CrashEvent, DetectorConfig, NodeId, PartitionPlan,
    SimDuration, SimTime, Suspicion, Verdict,
};
use efind_common::{crc32, Datum, Error, Record, Result};
use efind_dfs::{Chunk, ChunkMeta, Dfs, DfsFile, PartWriter};
use parking_lot::Mutex;

use crate::api::{drive, run_into_parts, Chain, Collector, Reducer, ReducerFactory};
use crate::context::TaskCtx;
use crate::counters::{Counters, Sketches};
use crate::group::{group_by_key, Groups, Values};
use crate::integrity::IntegrityLog;
use crate::job::JobConf;
use crate::netsplit_log::PartitionLog;
use crate::recovery::RecoveryLog;
use crate::spill::{RunWriter, Slice, Spill};
use crate::stats::{JobStats, PhaseStats, TaskStats};

/// First pause of a reducer's shuffle-fetch retry loop after a fetch
/// against a dead host fails; doubles per retry up to the cap below.
const FETCH_BACKOFF_BASE: SimDuration = SimDuration::from_nanos(500_000);
/// Backoff growth factor per failed fetch attempt.
const FETCH_BACKOFF_MULT: f64 = 2.0;
/// Upper bound on a single fetch-retry pause.
const FETCH_BACKOFF_CAP: SimDuration = SimDuration::from_nanos(8_000_000);

/// A reducer that finds its map outputs unavailable at `from` retries on
/// capped exponential backoff until they exist at `until`: how often it
/// tried and how long it paused in total.
fn backoff_until(from: SimTime, until: SimTime) -> (u32, SimDuration) {
    let (mut tries, mut paused) = (0u32, SimDuration::ZERO);
    while from + paused < until {
        paused += SimDuration::exp_backoff(
            FETCH_BACKOFF_BASE,
            FETCH_BACKOFF_MULT,
            tries,
            FETCH_BACKOFF_CAP,
        );
        tries += 1;
    }
    (tries, paused)
}

/// Runs `work` over `items` on scoped worker threads and returns the
/// results in item order — the one place the host's worker count enters
/// the runner. Workers pull the next item off one queue, so which thread
/// runs which item never shows in the result. A single item runs on the
/// calling thread. The first `Err` in item order becomes the call's
/// `Err`; a panic in `work`, on a worker or on the calling thread, is an
/// [`Error::Internal`] naming `what`.
fn fan_out<I: Send, T: Send>(
    what: &str,
    items: Vec<I>,
    work: impl Fn(I) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let panicked = || Error::Internal(format!("{what} worker panicked"));
    let n = items.len();
    if n <= 1 {
        return items
            .into_iter()
            .map(|item| {
                panic::catch_unwind(AssertUnwindSafe(|| work(item)))
                    .unwrap_or_else(|_| Err(panicked()))
            })
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Mutex<Vec<Option<Result<T>>>> = Mutex::new((0..n).map(|_| None).collect());
    let workers = thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let all_returned = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|_| loop {
                    let Some((i, item)) = queue.lock().next() else {
                        break;
                    };
                    let out = work(item);
                    results.lock()[i] = Some(out);
                })
            })
            .collect();
        // Every handle is joined here: a panic left for the scope to join
        // would be re-raised on the caller.
        handles
            .into_iter()
            .map(|h| h.join())
            .filter(Result::is_err)
            .count()
            == 0
    });
    if !matches!(all_returned, Ok(true)) {
        return Err(panicked());
    }
    results
        .into_inner()
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| Err(Error::Internal(format!("{what} task produced no result"))))
        })
        .collect()
}

/// Result of a completed job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Handle of the DFS output file.
    pub output: DfsFile,
    /// Full statistics and timeline.
    pub stats: JobStats,
}

/// One executed (but not yet scheduled) map task.
#[derive(Debug)]
pub struct MapTaskExec {
    /// Task id within the phase.
    pub task_id: usize,
    /// Input chunk size in bytes (scheduler charges the read).
    pub input_bytes: u64,
    /// Input replica hosts.
    pub input_hosts: Vec<NodeId>,
    /// Placement-independent cost of the task body.
    pub base_cost: SimDuration,
    /// Index-locality affinity declared by user code.
    pub affinity: Vec<NodeId>,
    /// Extra cost when scheduled off the affinity nodes.
    pub affinity_penalty: SimDuration,
    /// Whether the task must run on its affinity nodes.
    pub hard_affinity: bool,
    /// The task's full output.
    output: MapOutput,
    /// Per-task statistics.
    pub stats: TaskStats,
}

/// What a map task hands on.
#[derive(Debug)]
enum MapOutput {
    /// The finished records of a map-only job, in emission order, in the
    /// blocks the output file keeps.
    Parts(PartWriter),
    /// The shuffle run of a job with a reduce.
    Run(Spill),
}

impl Default for MapOutput {
    fn default() -> Self {
        MapOutput::Parts(PartWriter::default())
    }
}

impl MapTaskExec {
    /// The schedulable task, reading its input from `input_hosts`.
    fn spec(&self, input_hosts: Vec<NodeId>) -> TaskSpec {
        TaskSpec {
            id: self.task_id,
            kind: SlotKind::Map,
            base: self.base_cost,
            input_bytes: self.input_bytes,
            input_hosts,
            affinity: self.affinity.clone(),
            affinity_penalty: self.affinity_penalty,
            hard_affinity: self.hard_affinity,
        }
    }
}

/// All executed map tasks of a (partial or full) map phase.
#[derive(Debug, Default)]
pub struct MapPhaseExec {
    /// Executed tasks in task-id order.
    pub tasks: Vec<MapTaskExec>,
}

impl MapPhaseExec {
    /// Moves the per-task output record vectors out, in task order. A
    /// task of a job with a reduce hands its run back as records partition
    /// by partition, each partition in emission order, so that the job's
    /// own partitioner splits them into the partitions it shuffled.
    pub fn take_outputs(&mut self) -> Vec<Vec<Record>> {
        self.tasks
            .iter_mut()
            .map(|t| match mem::take(&mut t.output) {
                MapOutput::Parts(parts) => parts.into_iter().collect(),
                MapOutput::Run(run) => run.into_records(),
            })
            .collect()
    }

    /// The outputs [`MapPhaseExec::take_outputs`] moves out, as parts of a
    /// file: a map-only task's blocks, or a task's run as one part, each
    /// with its records' bytes. What [`Dfs::write_file_parts`] takes.
    pub fn take_parts(&mut self) -> Vec<(Vec<Record>, u64)> {
        let mut parts = Vec::with_capacity(self.tasks.len());
        for t in &mut self.tasks {
            match mem::take(&mut t.output) {
                MapOutput::Parts(blocks) => parts.extend(blocks.into_parts()),
                MapOutput::Run(run) => parts.push((run.into_records(), t.stats.output_bytes)),
            }
        }
        parts
    }

    /// The phase's statistics under `schedule`.
    pub fn phase_stats(&self, schedule: Schedule) -> PhaseStats {
        PhaseStats {
            tasks: self.tasks.iter().map(|t| t.stats.clone()).collect(),
            schedule,
        }
    }
}

/// One executed (but not yet scheduled) reduce task.
pub struct ReduceTaskExec {
    /// Reduce task id (= partition index).
    pub task_id: usize,
    /// Per-task statistics.
    pub stats: TaskStats,
    /// The schedulable task.
    pub spec: TaskSpec,
    /// The task's output records, in the blocks the output file keeps.
    pub output: PartWriter,
}

impl ReduceTaskExec {
    /// Moves the output blocks of `tasks` out, in task order, each with
    /// its records' bytes: the parts [`Dfs::write_file_parts`] takes.
    pub fn take_parts(tasks: &mut [ReduceTaskExec]) -> Vec<(Vec<Record>, u64)> {
        tasks
            .iter_mut()
            .flat_map(|t| mem::take(&mut t.output).into_parts())
            .collect()
    }
}

/// What a job did before its tail: the phases it ran, the volumes it
/// moved, and what its ledgers hold so far. [`Runner::seal`] turns it into
/// the job's [`JobStats`].
struct JobParts {
    started: SimTime,
    finished: SimTime,
    map: PhaseStats,
    /// `None` for map-only jobs.
    reduce: Option<PhaseStats>,
    shuffle_bytes: u64,
    output_bytes: u64,
    /// Recovery actions so far; [`Runner::seal`] adds the two phases' own
    /// crashed attempts.
    recovery: RecoveryLog,
    integrity: IntegrityLog,
    /// Gray-failure actions so far; [`Runner::seal`] folds in the two
    /// phases' own partition replays.
    partition: PartitionLog,
}

/// The map side of a job, scheduled and kept alive ([`Runner::map_side`]):
/// the map phase, when its last surviving attempt ends, when the reducers
/// can fetch every map output, and what keeping them alive cost so far.
pub struct MapSide {
    started: SimTime,
    map: PhaseStats,
    end: SimTime,
    reduce_start: SimTime,
    recovery: RecoveryLog,
    partition: PartitionLog,
}

/// The map side while it is kept alive: the executed tasks, the surviving
/// attempt of each (the schedule's own list until a recompute wave
/// replaces a lost one), when the last of them ends, and what keeping them
/// alive cost.
struct Alive<'e> {
    tasks: &'e [MapTaskExec],
    attempts: Cow<'e, [Assignment]>,
    end: SimTime,
    recovery: RecoveryLog,
    partition: PartitionLog,
}

/// A job's shuffle ([`Runner::shuffle`]): what refetching each
/// partition's corrupted payloads costs, the bytes that cross, and the
/// refetches in the integrity ledger.
pub struct Shuffle {
    refetch: Vec<SimDuration>,
    bytes: u64,
    integrity: IntegrityLog,
}

/// The reduce side of a job, ready for [`Runner::end_job`].
pub struct Reduced {
    /// The shuffle the tasks read.
    pub shuffle: Shuffle,
    /// Every reduce task of the job, executed, in task order.
    pub tasks: Vec<ReduceTaskExec>,
    /// A re-plan between reduce waves (Fig. 10(b)): the tasks from this
    /// index on start once those before them end, plus the pause. `None`
    /// starts every task at the reduce start.
    pub pause: Option<(usize, SimDuration)>,
}

/// Executes jobs against a cluster and DFS.
///
/// Every per-record, per-payload, and per-task loop of the runner calls its
/// layer's `is_quiet()` *outside* the loop, so a configured-but-quiet
/// runner takes byte-for-byte the plain path.
pub struct Runner<'a> {
    /// The simulated cluster.
    pub cluster: &'a Cluster,
    /// The distributed file system.
    pub dfs: &'a mut Dfs,
    /// Node-crash plan replayed against every schedule (quiet by default).
    chaos: ChaosPlan,
    /// Data-corruption plan consulted at the shuffle boundary and during
    /// the integrity sweep in [`Runner::seal`] (quiet by default).
    corruption: CorruptionPlan,
    /// Network-partition / link-slowdown plan replayed against every
    /// schedule (quiet by default). Unlike chaos crashes, partitions cut
    /// *visibility*, never state: isolated nodes keep running and the
    /// DFS is never mutated — replicas behind a partition still exist,
    /// they are just unreachable until the heal.
    netsplit: PartitionPlan,
    /// Heartbeat failure detector that turns partition windows into
    /// suspicions (and refutes them when nodes rejoin). Only consulted
    /// when the partition layer is armed.
    detector: DetectorConfig,
}

impl<'a> Runner<'a> {
    /// Creates a runner with no node crashes.
    pub fn new(cluster: &'a Cluster, dfs: &'a mut Dfs) -> Self {
        Self::with_chaos(cluster, dfs, ChaosPlan::none())
    }

    /// Creates a runner whose jobs suffer the node crashes of `chaos`.
    /// With a quiet plan this is exactly [`Runner::new`].
    pub fn with_chaos(cluster: &'a Cluster, dfs: &'a mut Dfs, chaos: ChaosPlan) -> Self {
        Runner {
            cluster,
            dfs,
            chaos,
            corruption: CorruptionPlan::none(),
            netsplit: PartitionPlan::none(),
            detector: DetectorConfig::default(),
        }
    }

    /// Arms the data-corruption plan: installs it on the DFS (so chunk
    /// reads verify CRCs) and on the runner's shuffle boundary. With a
    /// quiet plan this changes nothing.
    pub fn with_corruption(mut self, plan: CorruptionPlan) -> Self {
        self.dfs.set_corruption(plan.clone());
        self.corruption = plan;
        self
    }

    /// Arms the network-partition plan and the failure detector that
    /// observes it. With a quiet plan this changes nothing — the runner
    /// takes byte-for-byte the plain path.
    ///
    /// Partition semantics differ from chaos crashes on purpose: nodes
    /// inside a partition keep executing (their results surface at the
    /// heal), the DFS is never mutated, and a partition that never heals
    /// while isolating every replica of needed data fails the job fast
    /// with [`Error::Partitioned`] rather than hanging on fetches that
    /// can never complete. DFS write placement is not modeled per node,
    /// so map-only outputs are not subject to partition visibility.
    pub fn with_netsplit(mut self, plan: PartitionPlan, detector: DetectorConfig) -> Self {
        self.netsplit = plan;
        self.detector = detector;
        self
    }

    /// The runner's crash plan.
    pub fn chaos(&self) -> &ChaosPlan {
        &self.chaos
    }

    /// The input chunks of a job, in order.
    pub fn chunks(&self, conf: &JobConf) -> Result<Vec<ChunkMeta>> {
        Ok(self.dfs.stat(&conf.input)?.chunks)
    }

    /// How many of `total` map tasks run in the first wave (one per slot).
    pub fn first_wave_count(&self, total: usize) -> usize {
        total.min(self.cluster.total_map_slots())
    }

    /// Executes the map computation over `chunks` (real data, virtual
    /// cost), numbering tasks from `base_task_id`. Tasks run in parallel on
    /// real threads; results are deterministic.
    pub fn execute_maps(
        &self,
        conf: &JobConf,
        chunks: &[ChunkMeta],
        base_task_id: usize,
    ) -> Result<MapPhaseExec> {
        let dfs = &*self.dfs;
        let tasks = fan_out("map", chunks.iter().enumerate().collect(), |(i, chunk)| {
            self.execute_one_map(conf, chunk, base_task_id + i, dfs)
        })?;
        Ok(MapPhaseExec { tasks })
    }

    fn execute_one_map(
        &self,
        conf: &JobConf,
        chunk: &ChunkMeta,
        task_id: usize,
        dfs: &Dfs,
    ) -> Result<MapTaskExec> {
        let records = dfs.read_chunk_shared(&conf.input, chunk.index)?;
        let input_records = records.chunk().len() as u64;
        let mut ctx = TaskCtx::new(task_id);
        // The map function's emit cost is per *emitted* record — counted
        // before a combiner shrinks the output, and the combiner is charged
        // its own pass over those records.
        let (output, emitted_records, combiner_cost) = if conf.has_reduce() {
            let (run, emitted) = spill_map(conf, records.chunk(), &mut ctx);
            let combiner_cost = match conf.combiner {
                Some(_) => conf.cpu_per_record * emitted,
                None => SimDuration::ZERO,
            };
            (MapOutput::Run(run), emitted, combiner_cost)
        } else {
            let output = run_into_parts(&conf.map_chain, records.chunk(), &mut ctx);
            let emitted = output.len() as u64;
            (MapOutput::Parts(output), emitted, SimDuration::ZERO)
        };
        if let Some(msg) = ctx.error() {
            return Err(Error::Internal(format!(
                "map task {task_id} of job {}: {msg}",
                conf.name
            )));
        }
        let (output_records, output_bytes) = match &output {
            MapOutput::Run(run) => (run.len() as u64, run.bytes()),
            MapOutput::Parts(output) => (output.len() as u64, output.bytes()),
        };

        let mut base_cost =
            ctx.charged() + conf.cpu_per_record * (input_records + emitted_records) + combiner_cost;
        if conf.has_reduce() {
            // Map-side spill of the shuffle input.
            base_cost += self.cluster.disk.write(output_bytes);
        }
        // Corrupt replicas discovered at the read boundary: each wasted
        // fetch (pull copy, CRC mismatch, move to the next replica) is
        // charged as a remote retrieve. A quiet corruption layer pays not
        // even the per-task ledger probe;
        // `chunk_integrity` is additionally `None` on clean chunks.
        if !self.corruption.is_quiet() {
            if let Some(integ) = dfs.chunk_integrity(&conf.input, chunk.index) {
                base_cost += integ.reread_cost;
            }
        }

        ctx.counters
            .add("mr.map.input.records", input_records as i64);
        ctx.counters.add("mr.map.input.bytes", chunk.bytes as i64);
        ctx.counters
            .add("mr.map.output.records", output_records as i64);
        ctx.counters.add("mr.map.output.bytes", output_bytes as i64);

        let affinity = ctx.affinity().to_vec();
        let affinity_penalty = ctx.affinity_penalty();
        let hard_affinity = ctx.hard_affinity();
        let stats = TaskStats {
            task_id,
            input_records,
            input_bytes: chunk.bytes,
            output_records,
            output_bytes,
            compute_cost: base_cost,
            counters: ctx.counters,
            sketches: ctx.sketches,
        };
        Ok(MapTaskExec {
            task_id,
            input_bytes: chunk.bytes,
            input_hosts: chunk.hosts.clone(),
            base_cost,
            affinity,
            affinity_penalty,
            hard_affinity,
            output,
            stats,
        })
    }

    /// Schedules one phase's tasks, replaying the crash plan and the
    /// gray-failure plan on top (the gray pass is skipped for a quiet
    /// partition plan).
    fn schedule_phase(&self, specs: &[TaskSpec], start: SimTime) -> Schedule {
        schedule_phase_gray(
            self.cluster,
            specs,
            start,
            &self.chaos,
            &self.netsplit,
            &self.detector,
        )
    }

    /// Schedules executed map tasks onto the cluster starting at `start`.
    pub fn schedule_maps(&self, exec: &MapPhaseExec, start: SimTime) -> Schedule {
        let specs: Vec<TaskSpec> = exec
            .tasks
            .iter()
            .map(|t| t.spec(t.input_hosts.clone()))
            .collect();
        self.schedule_phase(&specs, start)
    }

    /// Partitions per-source map outputs into the job's reduce buckets,
    /// returning the partitions and the total shuffled bytes: each source
    /// is spilled as its map task would have spilled it, and each
    /// partition is the sources' slices back to back, in source order.
    pub fn partition_for_reduce(
        &self,
        conf: &JobConf,
        sources: Vec<Vec<Record>>,
    ) -> (Vec<Vec<Record>>, u64) {
        #[expect(
            clippy::expect_used,
            reason = "the signature has no error to return; the only Err is `fan_out`'s report \
                      of a panic in the job's partitioner, re-raised here"
        )]
        let mut runs = fan_out("partition", sources, |source| Ok(spill(conf, source)))
            .expect("shuffle partitioning");
        let mut lens = vec![0; conf.num_reducers.max(1)];
        for run in &mut runs {
            for (len, slice) in lens.iter_mut().zip(run.slices()) {
                *len += slice.len();
            }
        }
        let mut partitions: Vec<Vec<Record>> = lens.into_iter().map(Vec::with_capacity).collect();
        for run in &mut runs {
            for (partition, slice) in partitions.iter_mut().zip(run.slices()) {
                partition.extend(slice.into_records());
            }
        }
        (partitions, runs.iter().map(Spill::bytes).sum())
    }

    /// Executes (real computation, no scheduling) the reduce tasks for the
    /// given `(task_id, input)` partitions, each taken by move.
    pub fn execute_reduce_partitions_owned(
        &self,
        conf: &JobConf,
        partitions: Vec<(usize, Vec<Record>)>,
    ) -> Result<Vec<ReduceTaskExec>> {
        fan_out("reduce", partitions, |(task_id, input)| {
            let mut run = Spill::build(input, 1, |_| 0);
            self.execute_one_reduce(conf, task_id, run.slices().collect())
        })
    }

    /// The shuffle of an executed map phase: verifies every (map source,
    /// reduce partition) payload of the tasks' runs once against its
    /// sender-side CRC-32, prices the refetch of each corrupted one into
    /// its partition, and sums the bytes that cross. The check is skipped
    /// entirely unless the corruption plan can hit the shuffle.
    pub fn shuffle(&self, conf: &JobConf, exec: &mut MapPhaseExec) -> Result<Shuffle> {
        let runs = shuffle_runs(conf, exec)?;
        let mut shuffle = Shuffle {
            refetch: Vec::new(),
            bytes: runs.iter().map(|run| run.bytes()).sum(),
            integrity: IntegrityLog::default(),
        };
        if !self.corruption.verifies_shuffle() {
            return Ok(shuffle);
        }
        shuffle.refetch = vec![SimDuration::ZERO; conf.num_reducers];
        for (s, run) in runs.into_iter().enumerate() {
            for (p, slice) in run.slices().enumerate() {
                if slice.is_empty() || !self.corruption.shuffle_corrupt(&conf.name, s, p) {
                    continue;
                }
                // The transfer flipped a byte; the reducer's CRC check
                // catches it and the payload is fetched again (the run is
                // still in memory at the source — shuffle corruption is
                // always recoverable). The checksum covers what crosses as
                // bytes: the slice's keys, then its encoded values. Its
                // live values travel as they are.
                let mut received = slice.key_bytes().to_vec();
                for value in slice.encoded() {
                    received.extend_from_slice(value);
                }
                let sent = crc32(&received);
                let flip = s % received.len();
                received[flip] ^= 0x55;
                if crc32(&received) == sent {
                    continue; // undetectable in principle; never for 1-byte flips
                }
                let cost = self.cluster.network.volume(slice.bytes());
                shuffle.refetch[p] += cost;
                shuffle.integrity.shuffle_refetches += 1;
                shuffle.integrity.shuffle_refetch_time += cost;
            }
        }
        Ok(shuffle)
    }

    /// Executes (real computation, no scheduling) reduce tasks `tasks` of
    /// `conf` over `shuffle`, the shuffle of the runs an executed map phase
    /// still holds: task `p` borrows partition `p` of every run, in run
    /// order, and pays its partition's refetches. The partitions' values
    /// move into the reducers, so each task runs once.
    pub fn reduce(
        &self,
        conf: &JobConf,
        exec: &mut MapPhaseExec,
        shuffle: &Shuffle,
        tasks: Range<usize>,
    ) -> Result<Vec<ReduceTaskExec>> {
        if tasks.end > conf.num_reducers {
            return Err(Error::InvalidConfig(format!(
                "job {} has no reduce task {}",
                conf.name,
                tasks.end - 1
            )));
        }
        let runs = shuffle_runs(conf, exec)?;
        let mut inputs: Vec<(usize, Vec<Slice>)> = tasks
            .clone()
            .map(|p| (p, Vec::with_capacity(runs.len())))
            .collect();
        for run in runs {
            for ((_, input), slice) in inputs.iter_mut().zip(run.slices().skip(tasks.start)) {
                if !slice.is_empty() {
                    input.push(slice);
                }
            }
        }
        let mut execs = fan_out("reduce", inputs, |(task_id, slices)| {
            self.execute_one_reduce(conf, task_id, slices)
        })?;
        for e in &mut execs {
            if let Some(extra) = shuffle.refetch.get(e.task_id).filter(|d| !d.is_zero()) {
                e.spec.base += *extra;
                e.stats.compute_cost += *extra;
            }
        }
        Ok(execs)
    }

    fn execute_one_reduce(
        &self,
        conf: &JobConf,
        task_id: usize,
        input: Vec<Slice<'_>>,
    ) -> Result<ReduceTaskExec> {
        let input_records = input.iter().map(Slice::len).sum::<usize>() as u64;
        let input_bytes = input.iter().map(Slice::bytes).sum();
        let Groups { groups, encoded } = group_by_key(input);

        let mut ctx = TaskCtx::new(task_id);
        let mut reducer = conf.reducer.as_ref().map(|f| f());
        // The reducer and its `reduce_post` stages are one chain: what a
        // group reduces to goes down the stages before the next group.
        let mut post = Chain::new(&conf.reduce_post);
        let mut reduced: Vec<Record> = Vec::new();
        let mut output = PartWriter::default();
        // Keys and live values move into the reducer, encoded values are
        // lent where their runs hold them: no per-record clones.
        for (key, values) in groups {
            match reducer.as_mut() {
                Some(red) => {
                    reduce_group(&mut **red, key, values, &encoded, &mut reduced, &mut ctx)
                }
                None => {
                    // Identity reduce: grouped pass-through. Every emitted
                    // record needs its own key; the last one takes the
                    // group's.
                    let mut values = values.into_datums(&encoded).into_iter();
                    let last = values.next_back();
                    for value in values {
                        let key = key.clone();
                        reduced.collect(Record { key, value });
                    }
                    if let Some(value) = last {
                        reduced.collect(Record { key, value });
                    }
                }
            }
            post.push_all(&mut reduced, &mut output, &mut ctx);
        }
        if let Some(red) = reducer.as_mut() {
            red.flush(&mut reduced, &mut ctx);
            post.push_all(&mut reduced, &mut output, &mut ctx);
        }
        post.finish(&mut output, &mut ctx);
        if let Some(msg) = ctx.error() {
            return Err(Error::Internal(format!(
                "reduce task {task_id} of job {}: {msg}",
                conf.name
            )));
        }
        let output_records = output.len() as u64;
        let output_bytes = output.bytes();

        // Shuffle transfer (remote fraction), merge spill, and the DFS
        // write of the task's output slice.
        let nodes = self.cluster.num_nodes() as u64;
        let remote_bytes = input_bytes * (nodes.saturating_sub(1)) / nodes.max(1);
        let mut base_cost = ctx.charged()
            + conf.cpu_per_record * (input_records + output_records)
            + self.cluster.network.volume(remote_bytes)
            + self.cluster.disk.write(input_bytes)
            + self.cluster.disk.read(input_bytes)
            + self.dfs.store_cost(output_bytes);
        // Sorting cost: n log2 n comparisons at the per-record CPU rate
        // scaled down (a comparison is much cheaper than a record pass).
        if input_records > 1 {
            let logn = (input_records as f64).log2();
            base_cost += conf
                .cpu_per_record
                .mul_f64(input_records as f64 * logn / 16.0);
        }

        ctx.counters
            .add("mr.reduce.input.records", input_records as i64);
        ctx.counters
            .add("mr.reduce.input.bytes", input_bytes as i64);
        ctx.counters
            .add("mr.reduce.output.records", output_records as i64);
        ctx.counters
            .add("mr.reduce.output.bytes", output_bytes as i64);

        let spec = TaskSpec {
            id: task_id,
            kind: SlotKind::Reduce,
            base: base_cost,
            input_bytes: 0, // shuffle reads charged in base (scattered sources)
            input_hosts: Vec::new(),
            affinity: ctx.affinity().to_vec(),
            affinity_penalty: ctx.affinity_penalty(),
            hard_affinity: ctx.hard_affinity(),
        };
        let stats = TaskStats {
            task_id,
            input_records,
            input_bytes,
            output_records,
            output_bytes,
            compute_cost: base_cost,
            counters: ctx.counters,
            sketches: ctx.sketches,
        };
        Ok(ReduceTaskExec {
            task_id,
            stats,
            spec,
            output,
        })
    }

    /// End-of-job integrity sweep over the job's input chunks. A map task
    /// that hit a corrupt replica already paid the wasted fetch inside its
    /// own cost ([`Dfs::chunk_integrity`]); here the runner records those
    /// discoveries in the ledger, quarantines every replica that fails CRC
    /// verification out of its chunk's host set, and re-replicates the
    /// survivors back up to the replication target through the same
    /// background repair path node crashes use. Quiet plans — and plans
    /// with verification disabled, which cannot *detect* anything — leave
    /// the ledger untouched.
    fn integrity_sweep(&mut self, conf: &JobConf, log: &mut IntegrityLog) {
        if !self.corruption.verifies_chunks() {
            return;
        }
        let Ok(meta) = self.dfs.stat(&conf.input) else {
            return;
        };
        let chunk_ids: Vec<usize> = meta.chunks.iter().map(|c| c.index).collect();
        for idx in chunk_ids {
            let Some(integ) = self.dfs.chunk_integrity(&conf.input, idx) else {
                continue;
            };
            log.corrupt_chunks.push((conf.input.clone(), idx));
            log.chunk_rereads += integ.corrupt.len() as u64;
            log.reread_time += integ.reread_cost;
            log.quarantined_replicas +=
                self.dfs.quarantine_corrupt_replicas(&conf.input, idx).len();
        }
        if log.quarantined_replicas > 0 {
            let rep = self.dfs.re_replicate();
            log.repaired_chunks += rep.chunks;
            log.repaired_bytes += rep.bytes;
            log.repair_time += rep.duration;
        }
    }

    /// Node-level detector outcomes of the partition plan, empty when the
    /// layer is quiet. The phase schedules replay only task-level effects,
    /// so a suspicion seen by both the map and the reduce schedule is
    /// never double-counted.
    fn suspicions(&self) -> Vec<Suspicion> {
        if self.netsplit.is_quiet() {
            return Vec::new();
        }
        self.detector
            .assess_all(&self.netsplit, self.cluster.num_nodes())
    }

    /// When every one of `hosts` sits behind a partition that never heals:
    /// the instant the last of them was cut off.
    fn cut_off_forever(&self, hosts: &[NodeId]) -> Option<SimTime> {
        hosts.iter().try_fold(SimTime::ZERO, |cut, h| {
            Some(cut.max(self.netsplit.isolated_forever_from(*h)?))
        })
    }

    /// Records the node-level gray-failure outcomes of one job into its
    /// ledger: plan events inside the job window, every suspicion's
    /// resolution, and the re-replication intents the detector raised —
    /// *pending* on suspicion, *cancelled* on rejoin, and priced (but
    /// never applied to DFS state: the isolated replicas still exist) for
    /// confirmed-gone nodes, against the job's input chunks they host.
    fn account_gray_nodes(&self, conf: &JobConf, finished: SimTime, gray: &mut PartitionLog) {
        gray.events = self
            .netsplit
            .events()
            .iter()
            .filter(|e| e.start < finished)
            .count();
        gray.slow_links = self
            .netsplit
            .slow_links()
            .iter()
            .filter(|l| l.start < finished)
            .count();
        let meta = self.dfs.stat(&conf.input).ok();
        for s in self.suspicions() {
            if s.suspect_at >= finished {
                continue;
            }
            gray.suspected += 1;
            gray.rereplication_pending += 1;
            match s.verdict {
                Verdict::Confirmed => {
                    gray.confirmed += 1;
                    let Some(meta) = meta.as_ref() else { continue };
                    for chunk in &meta.chunks {
                        if chunk.hosts.contains(&s.node) {
                            gray.rereplicated_chunks += 1;
                            gray.rereplicated_bytes += chunk.bytes;
                            gray.rereplication_time += self.cluster.network.volume(chunk.bytes)
                                + self.cluster.disk.write(chunk.bytes);
                        }
                    }
                }
                Verdict::Refuted { .. } => {
                    if s.false_positive {
                        gray.false_positives += 1;
                    } else {
                        gray.refuted += 1;
                    }
                    gray.rereplication_cancelled += 1;
                }
            }
        }
    }

    /// Runs a full job starting at virtual time `start`.
    pub fn run(&mut self, conf: &JobConf, start: SimTime) -> Result<JobResult> {
        let chunks = self.chunks(conf)?;
        let mut exec = self.execute_maps(conf, &chunks, 0)?;
        self.finish(conf, &mut exec, start)
    }

    /// Runs the rest of a job started at `start` whose map phase `exec`
    /// holds: its [map side](Runner::map_side), its shuffle and every
    /// reduce task when it has a reduce ([`Runner::reduce_all`]), and its
    /// [end](Runner::end_job). Consumes the map outputs held in `exec`.
    pub fn finish(
        &mut self,
        conf: &JobConf,
        exec: &mut MapPhaseExec,
        start: SimTime,
    ) -> Result<JobResult> {
        let side = self.map_side(conf, exec, start, RecoveryLog::default())?;
        let reduced = self.reduce_all(conf, exec)?;
        Ok(self.end_job(conf, exec, side, reduced))
    }

    /// The [shuffle](Runner::shuffle) and every [reduce](Runner::reduce)
    /// task of a job with a reduce, ready for [`Runner::end_job`]; `None`
    /// for a map-only job.
    pub fn reduce_all(&self, conf: &JobConf, exec: &mut MapPhaseExec) -> Result<Option<Reduced>> {
        if !conf.has_reduce() {
            return Ok(None);
        }
        let shuffle = self.shuffle(conf, exec)?;
        let tasks = self.reduce(conf, exec, &shuffle, 0..conf.num_reducers)?;
        Ok(Some(Reduced {
            shuffle,
            tasks,
            pause: None,
        }))
    }

    /// The map side of a job started at `start` whose map phase `exec`
    /// holds, with the recovery actions `recovery` taken before it (a
    /// re-plan's). In order: schedule the maps; fail fast when a partition
    /// that never heals hides a needed input chunk; replay the crashes
    /// that fall inside the map phase (deaths strip the dead node's DFS
    /// replicas, and completed map tasks whose node-local outputs died
    /// with a node re-run as recompute waves); re-run map outputs stranded
    /// behind a confirmed partition; and let the reducers back off until
    /// every map output is fetchable. Map task ids are assumed to equal
    /// their input chunk indices (true for every runner entry point),
    /// which lets a recompute wave find a task's surviving input replicas.
    pub fn map_side(
        &mut self,
        conf: &JobConf,
        exec: &mut MapPhaseExec,
        start: SimTime,
        recovery: RecoveryLog,
    ) -> Result<MapSide> {
        // Map-only jobs pay the DFS store from within the map tasks.
        if !conf.has_reduce() {
            for t in &mut exec.tasks {
                let extra = self.dfs.store_cost(t.stats.output_bytes);
                t.base_cost += extra;
                t.stats.compute_cost += extra;
            }
        }
        let map = exec.phase_stats(self.schedule_maps(exec, start));
        // The instant reducers would first fetch map outputs if nothing
        // crashed — the reference point for fetch-retry backoff.
        let fetch_ready = map.schedule.makespan;
        let mut alive = Alive {
            tasks: &exec.tasks,
            attempts: Cow::Borrowed(&map.schedule.assignments),
            end: fetch_ready,
            recovery,
            partition: PartitionLog::default(),
        };
        self.fail_on_unreachable_input(conf, &alive.attempts)?;
        self.replay_crashes(conf, &mut alive)?;
        let stranded = self.replace_stranded(conf, &mut alive)?;
        let reduce_start = self.fetch_start(conf, fetch_ready, stranded, &mut alive)?;
        let Alive {
            end,
            recovery,
            partition,
            ..
        } = alive;
        Ok(MapSide {
            started: start,
            map,
            end,
            reduce_start,
            recovery,
            partition,
        })
    }

    /// The end of every job: schedules the reduce tasks of `reduced` from
    /// the map side's reduce start, writes the output — theirs, or a
    /// map-only job's map output (`reduced` is `None`) — and seals the
    /// job: completes and mirrors its ledgers and builds its [`JobStats`].
    pub fn end_job(
        &mut self,
        conf: &JobConf,
        exec: &mut MapPhaseExec,
        side: MapSide,
        reduced: Option<Reduced>,
    ) -> JobResult {
        let MapSide {
            started,
            map,
            end,
            reduce_start,
            mut recovery,
            mut partition,
            ..
        } = side;
        let (mut shuffle_bytes, mut integrity) = (0, IntegrityLog::default());
        let (finished, reduce, outputs) = match reduced {
            None => (end, None, exec.take_parts()),
            Some(Reduced {
                shuffle,
                mut tasks,
                pause,
            }) => {
                // Freed before the output write, which frees the file it
                // replaces, the runs' buffers cost the allocator less than
                // after it (E27).
                for t in &mut exec.tasks {
                    t.output = MapOutput::default();
                }
                let outputs = ReduceTaskExec::take_parts(&mut tasks);
                let mut stats = Vec::with_capacity(tasks.len());
                let mut specs = Vec::with_capacity(tasks.len());
                for t in tasks {
                    stats.push(t.stats);
                    specs.push(t.spec);
                }
                let (first, rest) = specs.split_at(pause.map_or(specs.len(), |(n, _)| n));
                let mut schedule = self.schedule_phase(first, reduce_start);
                if let Some((_, pause)) = pause {
                    let later = self.schedule_phase(rest, schedule.makespan + pause);
                    schedule.assignments.extend(later.assignments);
                    schedule.makespan = schedule.makespan.max(later.makespan);
                    recovery.crashed_attempts += later.crashed_attempts;
                    fold_partition_replay(&mut partition, &later.partition);
                }
                (shuffle_bytes, integrity) = (shuffle.bytes, shuffle.integrity);
                let finished = schedule.makespan.max(reduce_start);
                let phase = PhaseStats {
                    tasks: stats,
                    schedule,
                };
                (finished, Some(phase), outputs)
            }
        };
        // Each task's blocks go in with the bytes its worker summed for
        // them as they were emitted, so the DFS sizes again only the
        // records of a block a chunk boundary falls inside.
        let output = self
            .dfs
            .write_file_parts(&conf.output, outputs, conf.output_chunks);
        let parts = JobParts {
            started,
            finished,
            map,
            reduce,
            shuffle_bytes,
            output_bytes: output.total_bytes(),
            recovery,
            integrity,
            partition,
        };
        JobResult {
            output,
            stats: self.seal(conf, parts),
        }
    }

    /// Fails fast — never hangs — when a partition that never heals has
    /// isolated every replica host of a chunk some attempt still needs to
    /// read. The replicas are intact (partitions never mutate the DFS),
    /// just unreachable forever, which is why this is `Partitioned` and
    /// not `DataLoss`.
    fn fail_on_unreachable_input(&self, conf: &JobConf, attempts: &[Assignment]) -> Result<()> {
        if self.netsplit.is_quiet() {
            return Ok(());
        }
        let meta = self.dfs.stat(&conf.input)?;
        for a in attempts {
            let Some(chunk) = meta.chunks.get(a.task_id) else {
                continue;
            };
            let cut = self.cut_off_forever(&chunk.hosts);
            if !chunk.hosts.is_empty() && cut.is_some_and(|cut| a.end > cut) {
                return Err(Error::Partitioned(format!(
                    "job {}: map task {} needs chunk {} of {} but a partition \
                     that never heals has isolated every replica host",
                    conf.name, a.task_id, a.task_id, conf.input
                )));
            }
        }
        Ok(())
    }

    /// Applies one crash to the DFS and the ledger: the node's replicas
    /// are gone, and every chunk that left under-replicated is copied in
    /// the background — priced on the network and disk models, not
    /// serialized into the job's makespan. Returns the chunks that lost
    /// their last replica.
    fn apply_crash(&mut self, e: CrashEvent, recovery: &mut RecoveryLog) -> Vec<(String, usize)> {
        recovery.crashes.push(e);
        let lost_chunks = self.dfs.crash_node(e.node);
        let rep = self.dfs.re_replicate();
        recovery.rereplicated_chunks += rep.chunks;
        recovery.rereplicated_bytes += rep.bytes;
        recovery.rereplication_time += rep.duration;
        lost_chunks
    }

    /// Applies every planned crash at or before `upto` whose node the DFS
    /// still believes alive. The job's seal calls this with its
    /// end; the adaptive re-plan calls it with the end of time, because a
    /// first-wave result on a node with *any* planned death cannot be
    /// trusted to still be there for the re-planned job's reduce.
    pub fn apply_crashes(&mut self, upto: SimTime, recovery: &mut RecoveryLog) {
        if self.chaos.is_quiet() {
            return;
        }
        for e in self.chaos.events().to_vec() {
            if e.at <= upto && !self.dfs.is_dead(e.node) {
                self.apply_crash(e, recovery);
            }
        }
    }

    /// One recompute wave: the completed map tasks `lost` lost their
    /// node-local outputs at `at` and run again, each reading its chunk (of
    /// `chunks`) from `readable(task id, chunk)` — the replicas it can
    /// still reach, or the named error when there are none. The wave's
    /// attempts replace the lost ones and the map side ends no earlier
    /// than the wave does.
    fn recompute_wave(
        &self,
        conf: &JobConf,
        chunks: &[ChunkMeta],
        lost: &[usize],
        at: SimTime,
        readable: impl Fn(usize, &ChunkMeta) -> Result<Vec<NodeId>>,
        side: &mut Alive,
    ) -> Result<()> {
        let mut specs = Vec::with_capacity(lost.len());
        for &id in lost {
            let task =
                side.tasks.iter().find(|t| t.task_id == id).ok_or_else(|| {
                    Error::Internal(format!("recompute of unknown map task {id}"))
                })?;
            let chunk = chunks.get(id).ok_or_else(|| {
                Error::Internal(format!("map task {id} has no chunk {id} in {}", conf.input))
            })?;
            specs.push(task.spec(readable(id, chunk)?));
        }
        let wave = self.schedule_phase(&specs, at);
        side.recovery.crashed_attempts += wave.crashed_attempts;
        fold_partition_replay(&mut side.partition, &wave.partition);
        for wa in wave.assignments {
            if let Some(i) = side.attempts.iter().position(|a| a.task_id == wa.task_id) {
                side.attempts.to_mut()[i] = wa;
            }
        }
        side.end = side.end.max(wave.makespan);
        Ok(())
    }

    /// Replays the planned crashes that fall inside the map phase. A crash
    /// past its (current) end is left to [`Runner::seal`], which applies
    /// it if it still falls inside the job. A crash whose node the DFS
    /// already counts dead was applied, and listed, by an earlier job or a
    /// re-plan; here it only takes the outputs it kills.
    fn replay_crashes(&mut self, conf: &JobConf, side: &mut Alive) -> Result<()> {
        // One branch on the plan's `is_quiet()` replaces every
        // per-event / per-attempt chaos check for quiet runs.
        if self.chaos.is_quiet() {
            return Ok(());
        }
        for e in self.chaos.events().to_vec() {
            if e.at >= side.end {
                continue;
            }
            // Lost-output recompute: completed map outputs are node-local
            // spills and die with the node; the reduce has not fetched
            // anything yet (fetches start at the end of the map phase), so
            // every completed task on the dead node must re-run.
            let lost: Vec<usize> = side
                .attempts
                .iter()
                .filter(|a| conf.has_reduce() && a.node == e.node && a.end <= e.at)
                .map(|a| a.task_id)
                .collect();
            // A recomputed task reads the replicas that outlive this crash,
            // not the copies the background repair adds after it.
            let before = if lost.is_empty() {
                Vec::new()
            } else {
                self.dfs.stat(&conf.input)?.chunks
            };
            // A surviving attempt that (re)ran past the crash re-reads
            // its input; losing that input's last replica is fatal.
            let lost_chunks = if self.dfs.is_dead(e.node) {
                Vec::new()
            } else {
                self.apply_crash(e, &mut side.recovery)
            };
            for (name, idx) in lost_chunks {
                let rereads = |a: &Assignment| a.task_id == idx && a.end > e.at;
                if name == conf.input && side.attempts.iter().any(rereads) {
                    return Err(Error::DataLoss(format!(
                        "job {}: map task {idx} needs chunk {idx} of {} but its \
                         last replica died with node {}",
                        conf.name, conf.input, e.node
                    )));
                }
            }
            if lost.is_empty() {
                continue;
            }
            let survivors = |id: usize, chunk: &ChunkMeta| {
                let hosts: Vec<NodeId> = chunk
                    .hosts
                    .iter()
                    .copied()
                    .filter(|h| *h != e.node)
                    .collect();
                if hosts.is_empty() {
                    return Err(Error::DataLoss(format!(
                        "job {}: recomputing map task {id} needs chunk {id} of {} \
                         but its last replica died with node {}",
                        conf.name, conf.input, e.node
                    )));
                }
                Ok(hosts)
            };
            self.recompute_wave(conf, &before, &lost, e.at, survivors, side)?;
            side.recovery.recompute_waves += 1;
            side.recovery.recomputed_map_tasks.extend(&lost);
        }
        side.recovery.recomputed_map_tasks.sort_unstable();
        Ok(())
    }

    /// Permanent partitions strand completed node-local map outputs: once
    /// the detector confirms a node gone, every map task that completed on
    /// it before the cut re-runs on reachable nodes — the gray analog of
    /// the crash recompute wave. The stranded outputs still exist on the
    /// isolated node (nothing is lost, so no DFS mutation and no replica
    /// repair); they are simply unreachable for the rest of the job.
    /// Returns whether any task re-ran.
    fn replace_stranded(&self, conf: &JobConf, side: &mut Alive) -> Result<bool> {
        let mut stranded = false;
        if self.netsplit.is_quiet() || !conf.has_reduce() {
            return Ok(stranded);
        }
        for s in self.suspicions() {
            if !matches!(s.verdict, Verdict::Confirmed) {
                continue;
            }
            let Some((cut, _)) = self.netsplit.isolation_window(s.node) else {
                continue;
            };
            let lost: Vec<usize> = side
                .attempts
                .iter()
                .filter(|a| a.node == s.node && a.end <= cut)
                .map(|a| a.task_id)
                .collect();
            if lost.is_empty() {
                continue;
            }
            let chunks = self.dfs.stat(&conf.input)?.chunks;
            let reachable = |id: usize, chunk: &ChunkMeta| {
                if self.cut_off_forever(&chunk.hosts).is_some() {
                    return Err(Error::Partitioned(format!(
                        "job {}: recomputing map task {id} needs chunk {id} of {} \
                         but a partition that never heals has isolated every \
                         replica host",
                        conf.name, conf.input
                    )));
                }
                Ok(chunk.hosts.clone())
            };
            self.recompute_wave(conf, &chunks, &lost, s.suspect_at, reachable, side)?;
            side.partition.replaced_tasks += lost.len() as u64;
            stranded = true;
        }
        Ok(stranded)
    }

    /// When the reduce (if any) can start. Reducers began fetching at
    /// `fetch_ready`, the original end of the map phase, and back off until
    /// every map output is fetchable: until recomputed outputs exist, and
    /// until the partitions that hide outputs heal (those outputs are
    /// unreachable, not lost, so no recompute fires; `stranded` ones were
    /// recomputed and are waited for the same way).
    fn fetch_start(
        &self,
        conf: &JobConf,
        fetch_ready: SimTime,
        stranded: bool,
        side: &mut Alive,
    ) -> Result<SimTime> {
        let reducers = conf.num_reducers.max(1) as u64;
        let mut reduce_start = side.end;
        if !conf.has_reduce() {
            return Ok(reduce_start);
        }
        if !side.recovery.recomputed_map_tasks.is_empty() {
            let (tries, paused) = backoff_until(fetch_ready, side.end);
            side.recovery.fetch_retries = tries as u64 * reducers;
            side.recovery.fetch_backoff = paused;
            reduce_start = reduce_start.max(fetch_ready + paused);
        }
        if !self.netsplit.is_quiet() {
            let mut wait_until = if stranded { side.end } else { fetch_ready };
            for a in side.attempts.iter() {
                if !self.netsplit.is_isolated_at(a.node, fetch_ready) {
                    continue;
                }
                match self.netsplit.isolation_window(a.node).and_then(|(_, h)| h) {
                    Some(heal) => wait_until = wait_until.max(heal),
                    None => {
                        return Err(Error::Partitioned(format!(
                            "job {}: map outputs of task {} sit on node {} behind \
                             a partition that never heals",
                            conf.name, a.task_id, a.node.0
                        )))
                    }
                }
            }
            let (tries, paused) = backoff_until(fetch_ready, wait_until);
            side.partition.failover_fetches = tries as u64 * reducers;
            side.partition.failover_wait = paused;
            reduce_start = reduce_start.max(fetch_ready + paused);
        }
        Ok(reduce_start)
    }

    /// The tail of every job, and the only place a ledger is completed,
    /// mirrored into counters, or a [`JobStats`] built. In order: merge the
    /// task counters and sketches; take the phase schedules' crashed
    /// attempts and partition replays into the ledgers; apply the planned
    /// crashes that fall inside the job and have not been applied yet
    /// (they still take DFS replicas with them); sweep the input for
    /// corrupt replicas; account the detector's node-level outcomes; and
    /// mirror each armed layer's ledger. A quiet layer's ledger is all
    /// zeros and only nonzero fields become counters, so skipping its
    /// block is observably identical and saves the work on every quiet job.
    fn seal(&mut self, conf: &JobConf, parts: JobParts) -> JobStats {
        let JobParts {
            started,
            finished,
            map,
            reduce,
            shuffle_bytes,
            output_bytes,
            mut recovery,
            mut integrity,
            mut partition,
        } = parts;
        let mut counters = Counters::new();
        let mut sketches = Sketches::new();
        for phase in std::iter::once(&map).chain(&reduce) {
            for t in &phase.tasks {
                counters.merge(&t.counters);
                sketches.merge(&t.sketches);
            }
            recovery.crashed_attempts += phase.schedule.crashed_attempts;
            fold_partition_replay(&mut partition, &phase.schedule.partition);
        }
        if !self.chaos.is_quiet() {
            self.apply_crashes(finished, &mut recovery);
            recovery.add_counters(&mut counters);
        }
        if !self.corruption.is_quiet() {
            self.integrity_sweep(conf, &mut integrity);
            integrity.collect_lookup_counters(&counters);
            integrity.add_counters(&mut counters);
        }
        if !self.netsplit.is_quiet() {
            self.account_gray_nodes(conf, finished, &mut partition);
            partition.add_counters(&mut counters);
        }
        JobStats {
            name: conf.name.clone(),
            started,
            finished,
            map,
            reduce,
            counters,
            sketches,
            shuffle_bytes,
            output_bytes,
            recovery,
            integrity,
            partition,
        }
    }
}

/// Folds one phase schedule's task-level partition effects into the job
/// ledger. Node-level outcomes (suspicions, re-replication intents) are
/// intentionally absent from the replay — [`Runner::seal`] derives them
/// once per job so two phases never double-count a suspicion.
fn fold_partition_replay(gray: &mut PartitionLog, replay: &PartitionReplay) {
    gray.replaced_tasks += replay.replaced_tasks;
    gray.stalled_tasks += replay.stalled_tasks;
    gray.stall += replay.stall;
    gray.orphan_results += replay.orphan_results;
}

/// The reduce partition of `key`: the job partitioner's answer, or the
/// last partition when it answers out of range.
pub(crate) fn partition_of(conf: &JobConf, key: &Datum, num_r: usize) -> usize {
    conf.partitioner.partition(key, num_r).min(num_r - 1)
}

/// One map task's output spilled into the job's reduce partitions.
fn spill(conf: &JobConf, records: Vec<Record>) -> Spill {
    let num_r = conf.num_reducers.max(1);
    Spill::build(records, num_r, |key| partition_of(conf, key, num_r))
}

/// The shuffle runs of an executed map phase, in task order, checked to
/// be `conf`'s: one per task, each spilled into `conf`'s reducer count.
fn shuffle_runs<'e>(conf: &JobConf, exec: &'e mut MapPhaseExec) -> Result<Vec<&'e mut Spill>> {
    if !conf.has_reduce() {
        return Err(Error::InvalidConfig(format!(
            "job {} has no reduce phase",
            conf.name
        )));
    }
    exec.tasks
        .iter_mut()
        .map(|t| match &mut t.output {
            MapOutput::Run(run) => match run.partitions() {
                p if p == conf.num_reducers => Ok(run),
                p => Err(Error::Internal(format!(
                    "job {} has {} reducers but map task {} spilled into {p} partitions",
                    conf.name, conf.num_reducers, t.task_id
                ))),
            },
            MapOutput::Parts(_) => Err(Error::Internal(format!(
                "job {}: map task {} ran without a shuffle",
                conf.name, t.task_id
            ))),
        })
        .collect()
}

/// Takes a map task's `records` through the job's map chain into the
/// task's shuffle run — through a one-partition run and the combiner first
/// when the job has one — and returns the sealed run and how many records
/// the chain emitted.
pub(crate) fn spill_map(conf: &JobConf, records: Chunk<'_>, ctx: &mut TaskCtx) -> (Spill, u64) {
    let num_r = conf.num_reducers.max(1);
    let partition = |key: &Datum| partition_of(conf, key, num_r);
    let Some(combiner) = &conf.combiner else {
        let mut run = RunWriter::new(num_r, records.len(), partition);
        drive(&conf.map_chain, records, &mut run, ctx);
        let emitted = run.len() as u64;
        return (run.seal(), emitted);
    };
    let mut output = RunWriter::new(1, records.len(), |_: &Datum| 0);
    drive(&conf.map_chain, records, &mut output, ctx);
    let emitted = output.len() as u64;
    let run = combine(combiner, output.seal(), num_r, partition, ctx);
    (run, emitted)
}

/// Runs the combiner over one map task's output, a one-partition run: groups
/// it by key locally and applies the combining reduce function (Hadoop's
/// map-side combine), which emits into a run of `partitions` partitions
/// sized for one record a group. Groups reach it as they reach a reducer —
/// combiners may be order-sensitive and equal-key order is observable
/// downstream.
fn combine(
    combiner: &ReducerFactory,
    mut output: Spill,
    partitions: usize,
    partition_of: impl Fn(&Datum) -> usize,
    ctx: &mut TaskCtx,
) -> Spill {
    let Groups { groups, encoded } = group_by_key(output.slices().collect());
    let mut run = RunWriter::new(partitions, groups.len(), partition_of);
    let mut c = combiner();
    for (key, values) in groups {
        reduce_group(&mut *c, key, values, &encoded, &mut run, ctx);
    }
    c.flush(&mut run, ctx);
    run.seal()
}

/// Hands `reducer` one group: its live values owned, or its encoded values
/// lent from `encoded`.
fn reduce_group(
    reducer: &mut dyn Reducer,
    key: Datum,
    values: Values,
    encoded: &[&[u8]],
    out: &mut dyn Collector,
    ctx: &mut TaskCtx,
) {
    match values {
        Values::Live(values) => reducer.reduce(key, values, out, ctx),
        Values::Encoded(range) => reducer.reduce_encoded(key, &encoded[range], out, ctx),
    }
}

/// Convenience wrapper: runs `conf` from time zero.
pub fn run_job(cluster: &Cluster, dfs: &mut Dfs, conf: &JobConf) -> Result<JobResult> {
    Runner::new(cluster, dfs).run(conf, SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{identity_mapper, mapper_fn, reducer_fn};
    use efind_common::Datum;
    use efind_dfs::DfsConfig;

    fn setup(records: Vec<Record>) -> (Cluster, Dfs) {
        let cluster = Cluster::builder()
            .nodes(4)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 512,
                replication: 2,
                seed: 9,
            },
        );
        dfs.write_file("input", records);
        (cluster, dfs)
    }

    fn words() -> Vec<Record> {
        let text = ["the", "quick", "fox", "the", "lazy", "dog", "the", "fox"];
        text.iter()
            .cycle()
            .take(200)
            .enumerate()
            .map(|(i, w)| Record::new(i as i64, *w))
            .collect()
    }

    fn wordcount_conf() -> JobConf {
        JobConf::new("wordcount", "input", "out")
            .add_mapper(mapper_fn(|rec, out, _ctx| {
                out.collect(Record::new(rec.value.clone(), 1i64));
            }))
            .with_reducer(
                reducer_fn(|key, values, out, _ctx| {
                    let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                    out.collect(Record::new(key, total));
                }),
                3,
            )
    }

    #[test]
    fn fan_out_keeps_item_order_for_zero_one_and_many_items() {
        let square = |item: u64| Ok(item * item);
        assert_eq!(fan_out("test", Vec::new(), square).unwrap(), vec![]);
        assert_eq!(fan_out("test", vec![7], square).unwrap(), vec![49]);
        let many = fan_out("test", (0..257u64).collect(), square).unwrap();
        let expected: Vec<u64> = (0..257u64).map(|v| v * v).collect();
        assert_eq!(many, expected);
    }

    #[test]
    fn fan_out_turns_a_workers_err_into_the_calls_err() {
        // Two items fail; the call reports the first in item order, however
        // the workers interleaved.
        let res: Result<Vec<u64>> = fan_out("test", (0..64u64).collect(), |item| {
            if item == 10 || item == 40 {
                Err(Error::Internal(format!("item {item} failed")))
            } else {
                Ok(item)
            }
        });
        match res {
            Err(Error::Internal(msg)) => assert_eq!(msg, "item 10 failed"),
            other => panic!("expected the worker's error, got {other:?}"),
        }
        let single: Result<Vec<u64>> =
            fan_out("test", vec![1u64], |_| Err(Error::Internal("lone".into())));
        assert!(matches!(single, Err(Error::Internal(msg)) if msg == "lone"));
    }

    /// Runs a map-only job over `words()` in `chunks` chunks whose mapper
    /// panics on one record.
    fn run_a_panicking_mapper(chunks: usize) -> Result<JobResult> {
        let (cluster, mut dfs) = setup(Vec::new());
        dfs.write_file_with_chunks("input", words(), chunks);
        let conf = JobConf::new("panics", "input", "out").add_mapper(mapper_fn(|rec, out, _| {
            assert_ne!(rec.key, Datum::Int(99), "the mapper's own bug");
            out.collect(rec);
        }));
        run_job(&cluster, &mut dfs, &conf)
    }

    #[test]
    fn a_mapper_panicking_on_a_worker_is_an_internal_error() {
        let res = run_a_panicking_mapper(8);
        assert!(
            matches!(&res, Err(Error::Internal(msg)) if msg == "map worker panicked"),
            "{res:?}"
        );
    }

    #[test]
    fn a_mapper_panicking_on_the_calling_thread_is_an_internal_error() {
        let res = run_a_panicking_mapper(1);
        assert!(
            matches!(&res, Err(Error::Internal(msg)) if msg == "map worker panicked"),
            "{res:?}"
        );
    }

    #[test]
    fn backoff_until_counts_tries_and_total_pause() {
        let from = SimTime::from_nanos(1_000_000);
        // Nothing to wait for: no try, no pause.
        assert_eq!(backoff_until(from, from), (0, SimDuration::ZERO));
        assert_eq!(
            backoff_until(from, SimTime::from_nanos(999)),
            (0, SimDuration::ZERO)
        );
        // Anything up to the base pause costs exactly one base pause.
        let base = SimDuration::from_nanos(500_000);
        assert_eq!(
            backoff_until(from, from + SimDuration::from_nanos(1)),
            (1, base)
        );
        assert_eq!(backoff_until(from, from + base), (1, base));
        // 0.5 + 1 + 2 + 4 ms, then the 8 ms cap: 40 ms are reached by the
        // ninth pause, 47.5 ms after the first fetch.
        assert_eq!(
            backoff_until(from, from + SimDuration::from_millis(40)),
            (9, SimDuration::from_nanos(47_500_000))
        );
    }

    #[test]
    fn wordcount_end_to_end() {
        let (cluster, mut dfs) = setup(words());
        let res = run_job(&cluster, &mut dfs, &wordcount_conf()).unwrap();
        let mut out = dfs.read_file("out").unwrap();
        out.sort();
        let counts: Vec<(String, i64)> = out
            .iter()
            .map(|r| {
                (
                    r.key.as_text().unwrap().to_owned(),
                    r.value.as_int().unwrap(),
                )
            })
            .collect();
        assert_eq!(counts.len(), 5);
        let the = counts.iter().find(|(w, _)| w == "the").unwrap().1;
        assert_eq!(the, 75); // 3 of every 8 words, 200 words
        assert!(res.stats.makespan() > SimDuration::ZERO);
        assert_eq!(res.stats.counters.get("mr.map.input.records"), 200);
        assert_eq!(res.stats.counters.get("mr.reduce.output.records"), 5);
    }

    #[test]
    fn deterministic_across_runs() {
        let (cluster, mut dfs1) = setup(words());
        let r1 = run_job(&cluster, &mut dfs1, &wordcount_conf()).unwrap();
        let (_, mut dfs2) = setup(words());
        let r2 = run_job(&cluster, &mut dfs2, &wordcount_conf()).unwrap();
        assert_eq!(r1.stats.makespan(), r2.stats.makespan());
        assert_eq!(r1.stats.shuffle_bytes, r2.stats.shuffle_bytes);
        assert_eq!(
            r1.stats.counters.iter_sorted(),
            r2.stats.counters.iter_sorted()
        );
        assert_eq!(
            dfs1.read_file("out").unwrap(),
            dfs2.read_file("out").unwrap()
        );
    }

    #[test]
    fn map_only_job_writes_output() {
        let (cluster, mut dfs) = setup(words());
        let conf = JobConf::new("copy", "input", "copied").add_mapper(identity_mapper());
        let res = run_job(&cluster, &mut dfs, &conf).unwrap();
        assert!(res.stats.reduce.is_none());
        assert_eq!(dfs.read_file("copied").unwrap().len(), 200);
        assert_eq!(res.stats.shuffle_bytes, 0);
    }

    #[test]
    fn identity_reduce_groups_without_loss() {
        let (cluster, mut dfs) = setup(words());
        let conf = JobConf::new("group", "input", "grouped")
            .add_mapper(mapper_fn(|rec, out, _| {
                out.collect(Record::new(rec.value.clone(), rec.key.clone()));
            }))
            .with_identity_reduce(2);
        run_job(&cluster, &mut dfs, &conf).unwrap();
        assert_eq!(dfs.read_file("grouped").unwrap().len(), 200);
    }

    #[test]
    fn reduce_post_chain_applies() {
        let (cluster, mut dfs) = setup(words());
        let mut conf = wordcount_conf();
        conf.output = "out2".into();
        conf = conf.add_reduce_post(mapper_fn(|rec, out, _| {
            let c = rec.value.as_int().unwrap();
            if c >= 50 {
                out.collect(rec);
            }
        }));
        run_job(&cluster, &mut dfs, &conf).unwrap();
        let out = dfs.read_file("out2").unwrap();
        assert_eq!(out.len(), 2); // "the" (75) and "fox" (50)
    }

    #[test]
    fn charged_cost_increases_makespan() {
        let (cluster, mut dfs) = setup(words());
        let cheap = JobConf::new("cheap", "input", "o1").add_mapper(identity_mapper());
        let costly = JobConf::new("costly", "input", "o2").add_mapper(mapper_fn(
            |rec, out: &mut dyn Collector, ctx: &mut TaskCtx| {
                ctx.charge(SimDuration::from_millis(1));
                out.collect(rec);
            },
        ));
        let t_cheap = run_job(&cluster, &mut dfs, &cheap)
            .unwrap()
            .stats
            .makespan();
        let t_costly = run_job(&cluster, &mut dfs, &costly)
            .unwrap()
            .stats
            .makespan();
        assert!(t_costly > t_cheap, "{t_costly} vs {t_cheap}");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let (cluster, mut dfs) = setup(vec![]);
        let conf = JobConf::new("empty", "input", "out").add_mapper(identity_mapper());
        let res = run_job(&cluster, &mut dfs, &conf).unwrap();
        assert_eq!(res.stats.makespan(), SimDuration::ZERO);
        assert_eq!(dfs.read_file("out").unwrap().len(), 0);
    }

    #[test]
    fn missing_input_errors() {
        let (cluster, mut dfs) = setup(vec![]);
        let conf = JobConf::new("x", "no-such-file", "out");
        assert!(run_job(&cluster, &mut dfs, &conf).is_err());
    }

    #[test]
    fn shuffle_and_reduce_require_reduce() {
        let (cluster, mut dfs) = setup(vec![]);
        let conf = JobConf::new("x", "input", "out");
        let runner = Runner::new(&cluster, &mut dfs);
        let mut empty = MapPhaseExec::default();
        assert!(matches!(
            runner.shuffle(&conf, &mut empty),
            Err(Error::InvalidConfig(_))
        ));
        let none = Shuffle {
            refetch: Vec::new(),
            bytes: 0,
            integrity: IntegrityLog::default(),
        };
        assert!(matches!(
            runner.reduce(&conf, &mut empty, &none, 0..0),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn reducing_a_map_only_phase_is_an_error() {
        let (cluster, mut dfs) = setup(words());
        let map_only = JobConf::new("m", "input", "out").add_mapper(identity_mapper());
        let runner = Runner::new(&cluster, &mut dfs);
        let chunks = runner.chunks(&map_only).unwrap();
        let mut exec = runner.execute_maps(&map_only, &chunks, 0).unwrap();
        assert!(matches!(
            runner.shuffle(&wordcount_conf(), &mut exec),
            Err(Error::Internal(_))
        ));
    }

    #[test]
    fn reduce_waves_over_the_runs_match_one_reduce_phase() {
        // What the adaptive reduce-phase branch does: reduce tasks run in
        // waves over the runs the map phase still holds.
        let (cluster, mut dfs) = setup(words());
        let conf = wordcount_conf();
        let mut runner = Runner::new(&cluster, &mut dfs);
        let chunks = runner.chunks(&conf).unwrap();
        let mut whole_exec = runner.execute_maps(&conf, &chunks, 0).unwrap();
        let whole = runner
            .finish(&conf, &mut whole_exec, SimTime::ZERO)
            .unwrap();
        let mut exec = runner.execute_maps(&conf, &chunks, 0).unwrap();
        let shuffle = runner.shuffle(&conf, &mut exec).unwrap();
        let mut waves = runner.reduce(&conf, &mut exec, &shuffle, 0..1).unwrap();
        waves.extend(runner.reduce(&conf, &mut exec, &shuffle, 1..3).unwrap());
        assert_eq!(
            waves.iter().map(|t| t.task_id).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        let outputs: Vec<Record> = ReduceTaskExec::take_parts(&mut waves)
            .into_iter()
            .flat_map(|(records, _)| records)
            .collect();
        assert_eq!(outputs, runner.dfs.read_file("out").unwrap());
        let whole = whole.stats.reduce.expect("a job with a reduce");
        for (wave, task) in waves.iter().zip(&whole.tasks) {
            assert_eq!(wave.stats.input_records, task.input_records);
            assert_eq!(wave.stats.input_bytes, task.input_bytes);
            assert_eq!(wave.stats.compute_cost, task.compute_cost);
        }
        assert!(matches!(
            runner.reduce(&conf, &mut exec, &shuffle, 2..4),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn wave_split_then_merge_matches_full_run() {
        // What the adaptive optimizer does with a reused first wave: wave 1
        // and the remainder, executed separately and appended, must reduce
        // to the same output as one full run.
        let (cluster, mut dfs) = setup(words());
        let conf = wordcount_conf();
        let full = run_job(&cluster, &mut dfs, &conf).unwrap();
        let full_out = dfs.read_file("out").unwrap();

        let (cluster2, mut dfs2) = setup(words());
        let mut runner = Runner::new(&cluster2, &mut dfs2);
        let chunks = runner.chunks(&conf).unwrap();
        let w = runner
            .first_wave_count(chunks.len())
            .min(chunks.len() - 1)
            .max(1);
        let mut exec1 = runner.execute_maps(&conf, &chunks[..w], 0).unwrap();
        let mut exec2 = runner.execute_maps(&conf, &chunks[w..], w).unwrap();
        exec1.tasks.append(&mut exec2.tasks);
        let merged = runner.finish(&conf, &mut exec1, SimTime::ZERO).unwrap();
        let merged_out = dfs2.read_file("out").unwrap();
        assert_eq!(full_out, merged_out);
        assert_eq!(full.output.total_bytes(), merged.output.total_bytes());
    }

    #[test]
    fn per_task_counters_survive_in_stats() {
        let (cluster, mut dfs) = setup(words());
        let conf = JobConf::new("count", "input", "out")
            .add_mapper(mapper_fn(
                |rec, out: &mut dyn Collector, ctx: &mut TaskCtx| {
                    ctx.counters.inc("custom.seen");
                    out.collect(rec);
                },
            ))
            .with_identity_reduce(1);
        let res = run_job(&cluster, &mut dfs, &conf).unwrap();
        assert_eq!(res.stats.counters.get("custom.seen"), 200);
        let per_task: i64 = res
            .stats
            .map
            .tasks
            .iter()
            .map(|t| t.counters.get("custom.seen"))
            .sum();
        assert_eq!(per_task, 200);
        assert!(res.stats.map.tasks.len() > 1);
    }
}

#[cfg(test)]
mod combiner_tests {
    use super::*;
    use crate::api::{mapper_fn, reducer_fn};
    use efind_common::Datum;
    use efind_dfs::DfsConfig;

    fn setup() -> (Cluster, Dfs) {
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
                seed: 4,
            },
        );
        let words = ["a", "b", "a", "c", "a", "b"];
        let records: Vec<Record> = words
            .iter()
            .cycle()
            .take(300)
            .enumerate()
            .map(|(i, w)| Record::new(i as i64, *w))
            .collect();
        dfs.write_file("input", records);
        (cluster, dfs)
    }

    fn count_conf(with_combiner: bool) -> JobConf {
        let sum = reducer_fn(
            |key, values, out: &mut dyn crate::api::Collector, _ctx: &mut TaskCtx| {
                let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                out.collect(Record::new(key, total));
            },
        );
        let mut conf = JobConf::new("wc", "input", "out")
            .add_mapper(mapper_fn(|rec, out, _| {
                out.collect(Record::new(rec.value.clone(), 1i64));
            }))
            .with_reducer(sum.clone(), 2);
        if with_combiner {
            conf = conf.with_combiner(sum);
        }
        conf
    }

    #[test]
    fn combiner_preserves_results() {
        let (cluster, mut dfs) = setup();
        run_job(&cluster, &mut dfs, &count_conf(false)).unwrap();
        let mut plain = dfs.read_file("out").unwrap();
        plain.sort();
        run_job(&cluster, &mut dfs, &count_conf(true)).unwrap();
        let mut combined = dfs.read_file("out").unwrap();
        combined.sort();
        assert_eq!(plain, combined);
        assert_eq!(plain.len(), 3);
    }

    #[test]
    fn combiner_cuts_shuffle_volume() {
        let (cluster, mut dfs) = setup();
        let plain = run_job(&cluster, &mut dfs, &count_conf(false)).unwrap();
        let combined = run_job(&cluster, &mut dfs, &count_conf(true)).unwrap();
        assert!(
            combined.stats.shuffle_bytes < plain.stats.shuffle_bytes / 5,
            "shuffle {} vs {}",
            combined.stats.shuffle_bytes,
            plain.stats.shuffle_bytes
        );
    }

    #[test]
    fn combiner_ignored_for_map_only_jobs() {
        let (cluster, mut dfs) = setup();
        let mut conf =
            JobConf::new("copy", "input", "copied").add_mapper(crate::api::identity_mapper());
        conf.combiner = Some(reducer_fn(|_k, _v, _out, _ctx| {
            panic!("combiner must not run without a reduce phase")
        }));
        let res = run_job(&cluster, &mut dfs, &conf).unwrap();
        assert_eq!(res.output.total_records(), 300);
    }
}

#[cfg(test)]
mod shuffle_tests {
    use super::*;
    use crate::api::reducer_fn;
    use crate::group::sort_groups;
    use crate::partition::partitioner_fn;
    use efind_dfs::DfsConfig;
    use proptest::prelude::*;

    fn setup() -> (Cluster, Dfs) {
        let cluster = Cluster::builder()
            .nodes(3)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        (cluster, dfs)
    }

    /// Keys that sit next to each other in `Datum`'s order or in its hash
    /// input: every variant, `Int(1)` beside `Float(1.0)`, both zeros and
    /// a NaN, strings of 0, 8 and 9 bytes (a whole hash word, and one
    /// byte into the next), nested and empty lists.
    fn key_pool() -> Vec<Datum> {
        vec![
            Datum::Null,
            Datum::Bool(false),
            Datum::Bool(true),
            Datum::Int(1),
            Datum::Float(1.0),
            Datum::Int(0),
            Datum::Float(0.0),
            Datum::Float(-0.0),
            Datum::Float(f64::NAN),
            Datum::Int(i64::MIN),
            Datum::Text(String::new()),
            Datum::Text("abcdefgh".into()),
            Datum::Text("abcdefghi".into()),
            Datum::Bytes(Vec::new()),
            Datum::Bytes(b"abcdefghi".to_vec()),
            Datum::List(Vec::new()),
            Datum::List(vec![Datum::Int(1), Datum::Text("x".into())]),
            Datum::List(vec![Datum::Float(1.0), Datum::Text("x".into())]),
            Datum::List(vec![Datum::List(Vec::new())]),
        ]
    }

    /// Records over `distinct` keys — pool keys first, then integers — in
    /// the drawn order, or with every key distinct; the value is the
    /// arrival index, so any change of order within a group shows.
    fn arb_records() -> impl Strategy<Value = Vec<Record>> {
        (
            1usize..60,
            proptest::collection::vec(any::<u32>(), 0..200),
            any::<bool>(),
        )
            .prop_map(|(distinct, draws, all_distinct)| {
                let pool = key_pool();
                draws
                    .iter()
                    .enumerate()
                    .map(|(i, draw)| {
                        let k = if all_distinct {
                            i
                        } else {
                            *draw as usize % distinct
                        };
                        let key = pool.get(k).cloned().unwrap_or(Datum::Int(k as i64));
                        Record::new(key, i as i64)
                    })
                    .collect()
            })
    }

    /// A reducer that shows everything it is given: one record per group,
    /// the values as a list in the order they arrived.
    fn listing_reducer() -> crate::api::ReducerFactory {
        reducer_fn(|key, values, out, _ctx| {
            out.collect(Record {
                key,
                value: Datum::List(values),
            })
        })
    }

    /// What the listing reducer emits for `records`, by the reference.
    fn listed(records: Vec<Record>) -> Vec<Record> {
        sort_groups(records)
            .into_iter()
            .map(|(key, values)| Record::new(key, Datum::List(values)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Reduce, identity reduce and combiner hand over what the stable
        /// sort hands over: same groups, same order, same values.
        #[test]
        fn grouping_equals_the_stable_sort(records in arb_records()) {
            let groups = sort_groups(records.clone());
            let passed_through: Vec<Record> = groups
                .iter()
                .flat_map(|(key, values)| values.iter().map(|v| Record::new(key.clone(), v.clone())))
                .collect();
            let listed = listed(records.clone());

            let (cluster, mut dfs) = setup();
            let runner = Runner::new(&cluster, &mut dfs);
            let conf = JobConf::new("g", "in", "out").with_reducer(listing_reducer(), 1);
            let mut reduced = runner
                .execute_reduce_partitions_owned(&conf, vec![(0, records.clone())])
                .unwrap();
            let output: Vec<Record> = mem::take(&mut reduced[0].output).into_iter().collect();
            prop_assert_eq!(&output, &listed);

            let conf = JobConf::new("g", "in", "out").with_identity_reduce(1);
            let mut identity = runner
                .execute_reduce_partitions_owned(&conf, vec![(0, records.clone())])
                .unwrap();
            let output: Vec<Record> = mem::take(&mut identity[0].output).into_iter().collect();
            prop_assert_eq!(&output, &passed_through);

            // The combiner, from a task's one-partition run into a run of
            // one partition and into one of eight.
            let one = |_: &Datum| 0;
            let output = Spill::build(records.clone(), 1, one);
            let combined = combine(&listing_reducer(), output, 1, one, &mut TaskCtx::new(0));
            prop_assert_eq!(combined.into_records(), listed.clone());
            let wide = JobConf::new("g", "in", "out").with_reducer(listing_reducer(), 8);
            let p = |key: &Datum| partition_of(&wide, key, 8);
            let output = Spill::build(records, 1, one);
            let combined = combine(&listing_reducer(), output, 8, p, &mut TaskCtx::new(0));
            prop_assert_eq!(combined, crate::spill::collected(listed, 8, p));
        }

        /// Slice `p` of a run is the map task's records of partition `p` in
        /// emission order, and carries their bytes, at any reducer count.
        #[test]
        fn a_slice_keeps_its_sources_emission_order(
            records in arb_records(),
            reducers in prop_oneof![Just(1usize), Just(8), Just(240)],
        ) {
            let conf = JobConf::new("s", "in", "out").with_identity_reduce(reducers);
            let mut run = spill(&conf, records.clone());
            prop_assert_eq!(run.len(), records.len());
            prop_assert_eq!(run.bytes(), records.iter().map(Record::size_bytes).sum::<u64>());
            for (p, slice) in run.slices().enumerate() {
                let sent: Vec<Record> = records
                    .iter()
                    .filter(|r| conf.partitioner.partition(&r.key, reducers) == p)
                    .cloned()
                    .collect();
                prop_assert_eq!(slice.bytes(), sent.iter().map(Record::size_bytes).sum::<u64>());
                prop_assert_eq!(slice.into_records().collect::<Vec<_>>(), sent);
            }
        }
    }

    #[test]
    fn partitioning_equals_a_sequential_pass() {
        let (cluster, mut dfs) = setup();
        let runner = Runner::new(&cluster, &mut dfs);
        let conf = JobConf::new("p", "in", "out").with_identity_reduce(5);
        // Sources of unequal length, one of them empty; record sizes differ.
        let sources: Vec<Vec<Record>> = [0usize, 300, 1, 0, 977, 64, 1500]
            .iter()
            .enumerate()
            .map(|(s, len)| {
                (0..*len)
                    .map(|i| Record::new(format!("k{}", (i * 31 + s) % 211), "v".repeat(i % 7)))
                    .collect()
            })
            .collect();

        let mut expected: Vec<Vec<Record>> = vec![Vec::new(); 5];
        let mut expected_bytes = vec![0u64; 5];
        for rec in sources.iter().flatten() {
            let p = conf.partitioner.partition(&rec.key, 5);
            expected_bytes[p] += rec.size_bytes();
            expected[p].push(rec.clone());
        }

        // What a reduce task is handed: its slice of every run.
        let mut runs: Vec<Spill> = sources.iter().map(|s| spill(&conf, s.clone())).collect();
        let mut bytes = vec![0u64; 5];
        for run in &mut runs {
            for (total, slice) in bytes.iter_mut().zip(run.slices()) {
                *total += slice.bytes();
            }
        }
        assert_eq!(bytes, expected_bytes);
        let (partitions, total) = runner.partition_for_reduce(&conf, sources);
        assert_eq!(partitions, expected);
        assert_eq!(total, expected_bytes.iter().sum::<u64>());
    }

    /// A whole job at 240 reducers, most of them with nothing to do: each
    /// reduce task groups its slices of every run as the stable sort
    /// groups its partition.
    #[test]
    fn a_job_with_240_reducers_reduces_each_partition_as_the_sort_does() {
        let (cluster, mut dfs) = setup();
        let records: Vec<Record> = (0..900i64)
            .map(|i| {
                let key = key_pool()
                    .get(i as usize % 40)
                    .cloned()
                    .unwrap_or(Datum::Int(i % 97));
                Record::new(key, i)
            })
            .collect();
        dfs.write_file_with_chunks("in", records.clone(), 7);
        let conf = JobConf::new("wide", "in", "out")
            .add_mapper(crate::api::identity_mapper())
            .with_reducer(listing_reducer(), 240);
        let mut partitions: Vec<Vec<Record>> = vec![Vec::new(); 240];
        for rec in &records {
            partitions[conf.partitioner.partition(&rec.key, 240)].push(rec.clone());
        }
        let expected: Vec<Record> = partitions.into_iter().flat_map(listed).collect();

        let res = Runner::new(&cluster, &mut dfs)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        assert!(res.stats.map.tasks.len() > 1);
        assert_eq!(res.stats.reduce.unwrap().tasks.len(), 240);
        assert_eq!(
            res.stats.shuffle_bytes,
            records.iter().map(Record::size_bytes).sum::<u64>()
        );
        assert_eq!(dfs.read_file("out").unwrap(), expected);
    }

    /// A `Partitioner` written outside this crate may answer anything.
    struct Far;

    impl crate::partition::Partitioner for Far {
        fn partition(&self, _key: &Datum, _num_partitions: usize) -> usize {
            usize::MAX
        }
    }

    #[test]
    fn out_of_range_partitioner_lands_in_the_last_partition() {
        let (cluster, mut dfs) = setup();
        let records: Vec<Record> = (0..500i64).map(|i| Record::new(i % 17, i)).collect();
        dfs.write_file_with_chunks("in", records, 4);
        let conf = JobConf::new("far", "in", "out")
            .add_mapper(crate::api::identity_mapper())
            .with_reducer(listing_reducer(), 3);
        let far = conf.clone().with_partitioner(std::sync::Arc::new(Far));
        let last = conf.with_partitioner(partitioner_fn(|_key, n| n - 1));

        // Quiet, and with the shuffle payloads verified: both places that
        // ask the partitioner.
        for plan in [
            None,
            Some(efind_cluster::CorruptionPlan::new(3).shuffle(0.6)),
        ] {
            let mut outputs = Vec::new();
            for conf in [&far, &last] {
                let mut runner = Runner::new(&cluster, &mut dfs);
                if let Some(plan) = &plan {
                    runner = runner.with_corruption(plan.clone());
                }
                let res = runner.run(conf, SimTime::ZERO).unwrap();
                let reduce = res.stats.reduce.unwrap();
                let per_task: Vec<u64> = reduce.tasks.iter().map(|t| t.input_records).collect();
                assert_eq!(per_task, vec![0, 0, 500]);
                outputs.push((
                    dfs.read_file("out").unwrap(),
                    res.stats.finished,
                    res.stats.shuffle_bytes,
                ));
            }
            assert_eq!(outputs[0], outputs[1]);
        }
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use crate::api::{identity_mapper, mapper_fn, reducer_fn};
    use efind_cluster::ChaosPlan;
    use efind_common::Datum;
    use efind_dfs::DfsConfig;

    fn setup(replication: usize) -> (Cluster, Dfs) {
        let cluster = Cluster::builder()
            .nodes(4)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 512,
                replication,
                seed: 9,
            },
        );
        let text = ["the", "quick", "fox", "the", "lazy", "dog", "the", "fox"];
        let records: Vec<Record> = text
            .iter()
            .cycle()
            .take(800)
            .enumerate()
            .map(|(i, w)| Record::new(i as i64, *w))
            .collect();
        dfs.write_file("input", records);
        (cluster, dfs)
    }

    fn wordcount_conf() -> JobConf {
        JobConf::new("wordcount", "input", "out")
            .add_mapper(mapper_fn(|rec, out, _ctx| {
                out.collect(Record::new(rec.value.clone(), 1i64));
            }))
            .with_reducer(
                reducer_fn(|key, values, out, _ctx| {
                    let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                    out.collect(Record::new(key, total));
                }),
                3,
            )
    }

    #[test]
    fn quiet_chaos_plan_matches_the_plain_runner_exactly() {
        let conf = wordcount_conf();
        let (cluster, mut dfs1) = setup(2);
        let plain = Runner::new(&cluster, &mut dfs1)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let (_, mut dfs2) = setup(2);
        let quiet = Runner::with_chaos(&cluster, &mut dfs2, ChaosPlan::none())
            .run(&conf, SimTime::ZERO)
            .unwrap();
        assert!(quiet.stats.recovery.is_empty());
        assert_eq!(plain.stats.finished, quiet.stats.finished);
        assert_eq!(
            plain.stats.counters.iter_sorted(),
            quiet.stats.counters.iter_sorted()
        );
        assert!(!quiet
            .stats
            .counters
            .iter_sorted()
            .iter()
            .any(|(name, _)| name.starts_with("mr.recovery.")));
        assert_eq!(
            dfs1.read_file("out").unwrap(),
            dfs2.read_file("out").unwrap()
        );
    }

    /// Satellite: a host dies *after* its map tasks completed but before the
    /// reduce fetch — the completed outputs are gone, a recompute wave
    /// re-runs them on survivors, reducers back off until the recomputed
    /// outputs exist, and the final output is bit-identical to a crash-free
    /// run.
    #[test]
    fn host_death_between_map_completion_and_fetch_recovers_bit_identically() {
        let conf = wordcount_conf();
        let (cluster, mut dfs_free) = setup(2);
        let free = Runner::new(&cluster, &mut dfs_free)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let free_out = dfs_free.read_file("out").unwrap();

        // Kill the node that drains first — at one nanosecond before the
        // map phase ends, so it is idle (all its attempts completed) and
        // its node-local outputs die just before reducers start fetching.
        // The recompute wave then necessarily runs past the fetch point.
        let sched = &free.stats.map.schedule;
        let idle_since = |node| {
            sched
                .assignments
                .iter()
                .filter(|a| a.node == node)
                .map(|a| a.end)
                .max()
                .unwrap()
        };
        let victim_node = sched
            .assignments
            .iter()
            .map(|a| a.node)
            .min_by_key(|&n| (idle_since(n), n.0))
            .unwrap();
        assert!(
            idle_since(victim_node) < sched.makespan,
            "need a node that drains before the map phase ends"
        );
        let crash_at = SimTime::from_nanos(sched.makespan.as_nanos() - 1);
        let plan = ChaosPlan::new(7).kill(victim_node, crash_at);
        let victim_task = sched
            .assignments
            .iter()
            .find(|a| a.node == victim_node)
            .unwrap()
            .task_id;

        let (_, mut dfs) = setup(2);
        let crashed = Runner::with_chaos(&cluster, &mut dfs, plan)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let rec = &crashed.stats.recovery;
        assert_eq!(rec.crashes.len(), 1);
        assert!(rec.recompute_waves >= 1);
        assert!(
            rec.recomputed_map_tasks.contains(&victim_task),
            "task {victim_task} lost its output, got {:?}",
            rec.recomputed_map_tasks
        );
        // Reducers found the dead host and backed off in virtual time.
        assert!(rec.fetch_retries > 0);
        assert!(rec.fetch_backoff > SimDuration::ZERO);
        // Recovery costs time but never correctness.
        assert!(crashed.stats.finished >= free.stats.finished);
        assert_eq!(dfs.read_file("out").unwrap(), free_out);
        // The ledger surfaces as counters.
        assert!(crashed.stats.counters.get("mr.recovery.crashes") >= 1);
        assert!(crashed.stats.counters.get("mr.recovery.fetch.retries") >= 1);
    }

    #[test]
    fn crash_recovery_is_deterministic_across_runs() {
        let conf = wordcount_conf();
        let (cluster, mut dfs_probe) = setup(2);
        let probe = Runner::new(&cluster, &mut dfs_probe)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let victim = probe
            .stats
            .map
            .schedule
            .assignments
            .iter()
            .min_by_key(|a| (a.end, a.task_id))
            .unwrap();
        let plan = ChaosPlan::new(11).kill(victim.node, victim.end);

        let (_, mut dfs1) = setup(2);
        let r1 = Runner::with_chaos(&cluster, &mut dfs1, plan.clone())
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let (_, mut dfs2) = setup(2);
        let r2 = Runner::with_chaos(&cluster, &mut dfs2, plan)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        assert_eq!(r1.stats.finished, r2.stats.finished);
        assert_eq!(r1.stats.recovery, r2.stats.recovery);
        assert_eq!(
            r1.stats.counters.iter_sorted(),
            r2.stats.counters.iter_sorted()
        );
        assert_eq!(
            dfs1.read_file("out").unwrap(),
            dfs2.read_file("out").unwrap()
        );
    }

    #[test]
    fn losing_the_last_input_replica_is_a_diagnosable_error() {
        let conf = wordcount_conf();
        let (cluster, mut dfs) = setup(1);
        // With replication 1 every chunk has exactly one host; killing chunk
        // 0's host before anything runs makes the input unrecoverable.
        let host = dfs.stat("input").unwrap().chunks[0].hosts[0];
        let plan = ChaosPlan::new(3).kill(host, SimTime::ZERO);
        let err = Runner::with_chaos(&cluster, &mut dfs, plan)
            .run(&conf, SimTime::ZERO)
            .unwrap_err();
        match err {
            Error::DataLoss(msg) => assert!(msg.contains("replica"), "{msg}"),
            other => panic!("expected DataLoss, got {other:?}"),
        }
    }

    #[test]
    fn map_only_jobs_survive_crashes_without_recompute() {
        let conf = JobConf::new("copy", "input", "copied").add_mapper(identity_mapper());
        let (cluster, mut dfs_free) = setup(2);
        let free = Runner::new(&cluster, &mut dfs_free)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let victim = free
            .stats
            .map
            .schedule
            .assignments
            .iter()
            .min_by_key(|a| (a.end, a.task_id))
            .unwrap();
        let plan = ChaosPlan::new(5).kill(victim.node, victim.end);
        let (_, mut dfs) = setup(2);
        let crashed = Runner::with_chaos(&cluster, &mut dfs, plan)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        // Map-only outputs go straight to the DFS, so a crash costs replica
        // copies but no recompute and no fetch retries.
        assert!(crashed.stats.recovery.recomputed_map_tasks.is_empty());
        assert_eq!(crashed.stats.recovery.fetch_retries, 0);
        assert_eq!(
            dfs.read_file("copied").unwrap(),
            dfs_free.read_file("copied").unwrap()
        );
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use crate::api::{mapper_fn, reducer_fn};
    use efind_cluster::NodeId;
    use efind_common::Datum;
    use efind_dfs::DfsConfig;

    fn setup(replication: usize) -> (Cluster, Dfs) {
        let cluster = Cluster::builder()
            .nodes(4)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 512,
                replication,
                seed: 9,
            },
        );
        let text = ["the", "quick", "fox", "the", "lazy", "dog", "the", "fox"];
        let records: Vec<Record> = text
            .iter()
            .cycle()
            .take(800)
            .enumerate()
            .map(|(i, w)| Record::new(i as i64, *w))
            .collect();
        dfs.write_file("input", records);
        (cluster, dfs)
    }

    fn wordcount_conf() -> JobConf {
        JobConf::new("wordcount", "input", "out")
            .add_mapper(mapper_fn(|rec, out, _ctx| {
                out.collect(Record::new(rec.value.clone(), 1i64));
            }))
            .with_reducer(
                reducer_fn(|key, values, out, _ctx| {
                    let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                    out.collect(Record::new(key, total));
                }),
                3,
            )
    }

    #[test]
    fn quiet_partition_plan_matches_the_plain_runner_exactly() {
        let conf = wordcount_conf();
        let (cluster, mut dfs1) = setup(2);
        let plain = Runner::new(&cluster, &mut dfs1)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let (_, mut dfs2) = setup(2);
        let quiet = Runner::new(&cluster, &mut dfs2)
            .with_netsplit(PartitionPlan::none(), DetectorConfig::default())
            .run(&conf, SimTime::ZERO)
            .unwrap();
        assert!(quiet.stats.partition.is_empty());
        assert_eq!(plain.stats.finished, quiet.stats.finished);
        assert_eq!(
            plain.stats.counters.iter_sorted(),
            quiet.stats.counters.iter_sorted()
        );
        assert!(!quiet
            .stats
            .counters
            .iter_sorted()
            .iter()
            .any(|(name, _)| name.starts_with("mr.partition.")));
        assert_eq!(
            dfs1.read_file("out").unwrap(),
            dfs2.read_file("out").unwrap()
        );
    }

    /// Tentpole acceptance: a partition that opens mid-job and heals
    /// completes bit-identically to the unpartitioned run — only timing
    /// and the gray ledger differ. The reducers back off across the heal
    /// instead of recomputing (the outputs are unreachable, not lost).
    #[test]
    fn partition_healing_mid_job_is_bit_identical_to_unpartitioned() {
        let conf = wordcount_conf();
        let (cluster, mut dfs_free) = setup(2);
        let free = Runner::new(&cluster, &mut dfs_free)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let free_out = dfs_free.read_file("out").unwrap();

        // Isolate the node that drains first, from one nanosecond before
        // the map phase ends until shortly after: its completed outputs
        // sit behind the cut exactly when reducers start fetching.
        let sched = &free.stats.map.schedule;
        let idle_since = |node| {
            sched
                .assignments
                .iter()
                .filter(|a| a.node == node)
                .map(|a| a.end)
                .max()
                .unwrap()
        };
        let victim = sched
            .assignments
            .iter()
            .map(|a| a.node)
            .min_by_key(|&n| (idle_since(n), n.0))
            .unwrap();
        let cut = SimTime::from_nanos(sched.makespan.as_nanos() - 1);
        let heal = sched.makespan + SimDuration::from_micros(500);
        let plan = PartitionPlan::new(13).split(&[victim], cut, Some(heal));

        let (_, mut dfs) = setup(2);
        let split = Runner::new(&cluster, &mut dfs)
            .with_netsplit(plan, DetectorConfig::default())
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let gray = &split.stats.partition;
        assert!(!gray.is_empty(), "the cut must leave a trace");
        // The job waits out the heal one way or the other: results stall
        // behind the cut, or reducers back off on the fetch.
        assert!(
            gray.stalled_tasks > 0 || gray.failover_fetches > 0,
            "someone must wait for the heal, got {gray:?}"
        );
        assert!(gray.stall + gray.failover_wait > SimDuration::ZERO);
        // Waiting costs time but never correctness — and no data was
        // lost, so nothing recomputes or re-replicates.
        assert!(split.stats.finished >= free.stats.finished);
        assert!(split.stats.recovery.recomputed_map_tasks.is_empty());
        assert_eq!(gray.rereplicated_chunks, 0);
        assert_eq!(dfs.read_file("out").unwrap(), free_out);
        // The ledger surfaces as counters.
        assert!(split.stats.counters.get("mr.partition.events") >= 1);
    }

    /// A partition that never heals: the detector confirms the node gone,
    /// its completed map outputs are re-run on reachable nodes (the gray
    /// recompute wave), and the job still finishes bit-identically — the
    /// isolated replicas are unreachable, not lost, so the DFS is never
    /// repaired.
    #[test]
    fn confirmed_gone_node_is_replaced_and_the_job_recovers() {
        let conf = wordcount_conf();
        let (cluster, mut dfs_free) = setup(2);
        let free = Runner::new(&cluster, &mut dfs_free)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let free_out = dfs_free.read_file("out").unwrap();

        let sched = &free.stats.map.schedule;
        let idle_since = |node| {
            sched
                .assignments
                .iter()
                .filter(|a| a.node == node)
                .map(|a| a.end)
                .max()
                .unwrap()
        };
        let victim = sched
            .assignments
            .iter()
            .map(|a| a.node)
            .min_by_key(|&n| (idle_since(n), n.0))
            .unwrap();
        assert!(
            idle_since(victim) < sched.makespan,
            "need a node that drains before the map phase ends"
        );
        // The cut opens the instant the victim drains and never heals.
        let plan = PartitionPlan::new(17).split(&[victim], idle_since(victim), None);

        let (_, mut dfs) = setup(2);
        let split = Runner::new(&cluster, &mut dfs)
            .with_netsplit(plan, DetectorConfig::default())
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let gray = &split.stats.partition;
        assert!(gray.suspected >= 1, "{gray:?}");
        assert!(gray.confirmed >= 1, "{gray:?}");
        assert!(gray.replaced_tasks > 0, "{gray:?}");
        assert!(split.stats.finished >= free.stats.finished);
        assert_eq!(dfs.read_file("out").unwrap(), free_out);
        assert!(split.stats.counters.get("mr.partition.confirmed") >= 1);
        assert!(split.stats.counters.get("mr.partition.replaced.tasks") >= 1);
    }

    /// Tentpole acceptance: an unhealed partition isolating the last
    /// reachable replica fails fast with `Error::Partitioned` — never a
    /// hang, and never `DataLoss` (the replica still exists).
    #[test]
    fn unhealed_partition_isolating_last_replica_fails_fast() {
        let conf = wordcount_conf();
        let (cluster, mut dfs) = setup(1);
        let host = dfs.stat("input").unwrap().chunks[0].hosts[0];
        let plan = PartitionPlan::new(3).split(&[host], SimTime::ZERO, None);
        let err = Runner::new(&cluster, &mut dfs)
            .with_netsplit(plan, DetectorConfig::default())
            .run(&conf, SimTime::ZERO)
            .unwrap_err();
        match err {
            Error::Partitioned(msg) => assert!(msg.contains("never heals"), "{msg}"),
            other => panic!("expected Partitioned, got {other:?}"),
        }
    }

    /// Replay determinism: the same armed plan (cuts, a slow link, and
    /// chaos kills together) produces bit-identical runs.
    #[test]
    fn partition_replay_is_deterministic_across_runs() {
        let conf = wordcount_conf();
        let (cluster, mut dfs_probe) = setup(2);
        let probe = Runner::new(&cluster, &mut dfs_probe)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let victim = probe
            .stats
            .map
            .schedule
            .assignments
            .iter()
            .min_by_key(|a| (a.end, a.task_id))
            .unwrap();
        let heal = probe.stats.map.schedule.makespan + SimDuration::from_micros(200);
        let plan = PartitionPlan::new(23)
            .split(&[victim.node], victim.end, Some(heal))
            .slow_link(
                NodeId((victim.node.0 + 1) % 4),
                SimTime::ZERO,
                Some(heal),
                3.0,
            );

        let run = |plan: PartitionPlan| {
            let (_, mut dfs) = setup(2);
            let r = Runner::new(&cluster, &mut dfs)
                .with_netsplit(plan, DetectorConfig::default())
                .run(&conf, SimTime::ZERO)
                .unwrap();
            (
                r.stats.finished,
                r.stats.partition.clone(),
                r.stats.counters.iter_sorted(),
                dfs.read_file("out").unwrap(),
            )
        };
        let a = run(plan.clone());
        let b = run(plan);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
    }
}

#[cfg(test)]
mod corruption_tests {
    use super::*;
    use crate::api::{mapper_fn, reducer_fn};
    use efind_cluster::CorruptionPlan;
    use efind_common::Datum;
    use efind_dfs::DfsConfig;

    fn setup(replication: usize) -> (Cluster, Dfs) {
        let cluster = Cluster::builder()
            .nodes(4)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 512,
                replication,
                seed: 9,
            },
        );
        let text = ["the", "quick", "fox", "the", "lazy", "dog", "the", "fox"];
        let records: Vec<Record> = text
            .iter()
            .cycle()
            .take(800)
            .enumerate()
            .map(|(i, w)| Record::new(i as i64, *w))
            .collect();
        dfs.write_file("input", records);
        (cluster, dfs)
    }

    fn wordcount_conf() -> JobConf {
        JobConf::new("wordcount", "input", "out")
            .add_mapper(mapper_fn(|rec, out, _ctx| {
                out.collect(Record::new(rec.value.clone(), 1i64));
            }))
            .with_reducer(
                reducer_fn(|key, values, out, _ctx| {
                    let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                    out.collect(Record::new(key, total));
                }),
                3,
            )
    }

    /// Counter set with the `mr.integrity.*` ledger mirror stripped — the
    /// invariance contract covers everything else.
    fn non_integrity_counters(stats: &JobStats) -> Vec<(std::sync::Arc<str>, i64)> {
        let mut c = stats.counters.iter_sorted();
        c.retain(|(k, _)| !k.starts_with("mr.integrity."));
        c
    }

    #[test]
    fn quiet_corruption_plan_matches_the_plain_runner_exactly() {
        let conf = wordcount_conf();
        let (cluster, mut dfs1) = setup(2);
        let plain = Runner::new(&cluster, &mut dfs1)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let (_, mut dfs2) = setup(2);
        let quiet = Runner::new(&cluster, &mut dfs2)
            .with_corruption(CorruptionPlan::new(77))
            .run(&conf, SimTime::ZERO)
            .unwrap();
        assert!(quiet.stats.integrity.is_empty());
        assert_eq!(plain.stats.finished, quiet.stats.finished);
        assert_eq!(
            plain.stats.counters.iter_sorted(),
            quiet.stats.counters.iter_sorted()
        );
        assert!(!quiet
            .stats
            .counters
            .iter_sorted()
            .iter()
            .any(|(name, _)| name.starts_with("mr.integrity.")));
        assert_eq!(
            dfs1.read_file("out").unwrap(),
            dfs2.read_file("out").unwrap()
        );
    }

    /// Finds a seed whose chunk draws corrupt at least one replica of
    /// `file` but never all replicas of any chunk — the recoverable case.
    fn recoverable_chunk_seed(dfs: &Dfs, file: &str, rate: f64) -> CorruptionPlan {
        let meta = dfs.stat(file).unwrap();
        'seed: for seed in 0..500u64 {
            let plan = CorruptionPlan::new(seed).chunks(rate);
            let mut any = false;
            for c in &meta.chunks {
                let bad = c
                    .hosts
                    .iter()
                    .filter(|h| plan.chunk_replica_corrupt(file, c.index, **h))
                    .count();
                if bad >= c.hosts.len() && !c.hosts.is_empty() {
                    continue 'seed;
                }
                any |= bad > 0;
            }
            if any {
                return plan;
            }
        }
        panic!("no recoverable corruption seed found");
    }

    #[test]
    fn chunk_corruption_costs_time_but_not_answers_or_counters() {
        let conf = wordcount_conf();
        let (cluster, mut dfs_clean) = setup(3);
        let clean = Runner::new(&cluster, &mut dfs_clean)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let (_, mut dfs) = setup(3);
        let plan = recoverable_chunk_seed(&dfs, "input", 0.3);
        let hit = Runner::new(&cluster, &mut dfs)
            .with_corruption(plan)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        // Corruption was detected and repaired: the output and every
        // non-ledger counter are bit-identical, only virtual time moved.
        assert_eq!(
            dfs_clean.read_file("out").unwrap(),
            dfs.read_file("out").unwrap()
        );
        assert_eq!(
            non_integrity_counters(&clean.stats),
            non_integrity_counters(&hit.stats)
        );
        let integ = &hit.stats.integrity;
        assert!(!integ.corrupt_chunks.is_empty());
        assert!(integ.chunk_rereads > 0);
        assert!(!integ.reread_time.is_zero());
        assert_eq!(integ.quarantined_replicas as u64, integ.chunk_rereads);
        assert!(integ.repaired_chunks > 0, "quarantine must trigger repair");
        assert!(hit.stats.finished > clean.stats.finished);
        assert_eq!(
            hit.stats.counters.get("mr.integrity.chunks.corrupt"),
            integ.corrupt_chunks.len() as i64
        );
    }

    #[test]
    fn all_replicas_corrupt_fails_fast_with_data_corruption() {
        let conf = wordcount_conf();
        let (cluster, mut dfs) = setup(1);
        let err = Runner::new(&cluster, &mut dfs)
            .with_corruption(CorruptionPlan::new(1).chunks(1.0))
            .run(&conf, SimTime::ZERO)
            .unwrap_err();
        match err {
            Error::DataCorruption(msg) => {
                assert!(msg.contains("input"), "{msg}");
                assert!(msg.contains("chunk"), "{msg}");
            }
            other => panic!("expected DataCorruption, got {other:?}"),
        }
    }

    #[test]
    fn shuffle_corruption_refetches_and_preserves_output() {
        let conf = wordcount_conf();
        let (cluster, mut dfs_clean) = setup(2);
        let clean = Runner::new(&cluster, &mut dfs_clean)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let (_, mut dfs) = setup(2);
        let hit = Runner::new(&cluster, &mut dfs)
            .with_corruption(CorruptionPlan::new(3).shuffle(0.6))
            .run(&conf, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            dfs_clean.read_file("out").unwrap(),
            dfs.read_file("out").unwrap()
        );
        let integ = &hit.stats.integrity;
        assert!(integ.shuffle_refetches > 0);
        assert!(!integ.shuffle_refetch_time.is_zero());
        assert!(hit.stats.finished > clean.stats.finished);
        assert_eq!(
            non_integrity_counters(&clean.stats),
            non_integrity_counters(&hit.stats)
        );
    }

    #[test]
    fn verification_disabled_means_no_detection_and_no_ledger() {
        let conf = wordcount_conf();
        let (cluster, mut dfs_clean) = setup(3);
        let clean = Runner::new(&cluster, &mut dfs_clean)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        let (_, mut dfs) = setup(3);
        let plan = recoverable_chunk_seed(&dfs, "input", 0.3).without_verification();
        let unverified = Runner::new(&cluster, &mut dfs)
            .with_corruption(plan)
            .run(&conf, SimTime::ZERO)
            .unwrap();
        // Nothing checks, so nothing is detected, charged, or repaired —
        // the run is indistinguishable from a clean one (the model does
        // not forge wrong answers; EF018 exists to flag this setup).
        assert!(unverified.stats.integrity.is_empty());
        assert_eq!(clean.stats.finished, unverified.stats.finished);
    }
}

#[cfg(test)]
mod encoded_tests {
    //! A job whose last map stage writes its values encoded
    //! ([`Collector::collect_encoded`]) runs as the same job emitting them
    //! as live `Datum::Bytes`: same output, counters, shuffled bytes, task
    //! statistics and virtual time, whole or in reduce waves.

    use std::sync::Arc;

    use super::*;
    use crate::api::{reducer_fn, Mapper, MapperFactory};
    use efind_dfs::DfsConfig;
    use proptest::prelude::*;

    /// How the map stage emits its values.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Emit {
        Live,
        Encoded,
        /// Encoded, but every third record live.
        Mixed,
    }

    /// Emits `(k, bytes(i))` for an input `(k, i)`: the digits of `i`,
    /// `i % 5` times over — empty for one record in five.
    struct Emitter(Emit);

    impl Mapper for Emitter {
        fn map(&mut self, rec: Record, out: &mut dyn Collector, _: &mut TaskCtx) {
            let i = rec.value.as_int().unwrap_or(0);
            let payload = i.to_string().repeat(i.rem_euclid(5) as usize).into_bytes();
            let live = match self.0 {
                Emit::Live => true,
                Emit::Encoded => false,
                Emit::Mixed => i % 3 == 0,
            };
            if live {
                out.collect(Record::new(rec.key, Datum::Bytes(payload)));
            } else {
                out.collect_encoded(rec.key, payload.len(), &mut |buf| {
                    buf.extend_from_slice(&payload)
                });
            }
        }
    }

    /// Joins a group's values into one, each behind a `0xFF`: handed them
    /// live or encoded, it emits the same record the same way it was
    /// handed them, so what it emits from encoded values is encoded again.
    struct Joining;

    impl Joining {
        fn joined<'v>(values: impl Iterator<Item = &'v [u8]>) -> Vec<u8> {
            values
                .flat_map(|v| [&[0xFF][..], v])
                .flatten()
                .copied()
                .collect()
        }
    }

    impl Reducer for Joining {
        fn reduce(
            &mut self,
            key: Datum,
            values: Vec<Datum>,
            out: &mut dyn Collector,
            _: &mut TaskCtx,
        ) {
            let joined = Joining::joined(values.iter().map(|v| v.as_bytes().unwrap_or_default()));
            out.collect(Record::new(key, Datum::Bytes(joined)));
        }

        fn reduce_encoded(
            &mut self,
            key: Datum,
            values: &[&[u8]],
            out: &mut dyn Collector,
            _: &mut TaskCtx,
        ) {
            let joined = Joining::joined(values.iter().copied());
            out.collect_encoded(key, joined.len(), &mut |buf| buf.extend_from_slice(&joined));
        }
    }

    fn joining() -> ReducerFactory {
        Arc::new(|| Box::new(Joining))
    }

    /// What reduces the groups.
    #[derive(Clone, Copy, Debug)]
    enum Reduce {
        /// A reducer that only has `reduce`: it gets encoded values as the
        /// `Datum::Bytes` they stand for.
        Listing,
        Joining,
        Identity,
    }

    fn conf(emit: Emit, reduce: Reduce, reducers: usize, combine: bool) -> JobConf {
        let emitter: MapperFactory = Arc::new(move || Box::new(Emitter(emit)));
        let conf = JobConf::new("encoded", "in", "out").add_mapper(emitter);
        let conf = match reduce {
            Reduce::Listing => conf.with_reducer(
                reducer_fn(|key, values, out, _| {
                    out.collect(Record::new(key, Datum::List(values)))
                }),
                reducers,
            ),
            Reduce::Joining => conf.with_reducer(joining(), reducers),
            Reduce::Identity => conf.with_identity_reduce(reducers),
        };
        if combine {
            conf.with_combiner(joining())
        } else {
            conf
        }
    }

    /// Every key kind, and integers past the pool.
    fn key(k: usize) -> Datum {
        let pool = [
            Datum::Null,
            Datum::Int(1),
            Datum::Float(1.0),
            Datum::Text("abcdefghi".into()),
            Datum::Bytes(Vec::new()),
            Datum::List(vec![Datum::Int(1), Datum::Text("x".into())]),
        ];
        pool.get(k).cloned().unwrap_or(Datum::Int(k as i64))
    }

    fn setup(records: Vec<Record>, chunks: usize) -> (Cluster, Dfs) {
        let cluster = Cluster::builder()
            .nodes(3)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        dfs.write_file_with_chunks("in", records, chunks);
        (cluster, dfs)
    }

    /// A task's statistics, counters in name order.
    type Task = (usize, u64, u64, u64, u64, SimDuration, Vec<(Arc<str>, i64)>);

    fn tasks(phase: &PhaseStats) -> Vec<Task> {
        phase
            .tasks
            .iter()
            .map(|t| {
                let counters = t.counters.iter_sorted();
                (
                    t.task_id,
                    t.input_records,
                    t.input_bytes,
                    t.output_records,
                    t.output_bytes,
                    t.compute_cost,
                    counters,
                )
            })
            .collect()
    }

    /// Everything a run of the job shows: output, counters, shuffled and
    /// written bytes, task statistics, virtual time, each map task's run's
    /// bytes, and the output of its reduce tasks run in two waves.
    #[derive(Debug, PartialEq)]
    struct Observed {
        output: Vec<Record>,
        counters: Vec<(Arc<str>, i64)>,
        shuffle_bytes: u64,
        output_bytes: u64,
        maps: Vec<Task>,
        reduces: Vec<Task>,
        makespan: SimDuration,
        run_bytes: Vec<u64>,
        waves: Vec<Record>,
    }

    fn observe(records: &[Record], chunks: usize, conf: &JobConf) -> Observed {
        let (cluster, mut dfs) = setup(records.to_vec(), chunks);
        let stats = run_job(&cluster, &mut dfs, conf).unwrap().stats;
        let output = dfs.read_file("out").unwrap();

        let runner = Runner::new(&cluster, &mut dfs);
        let chunks = runner.chunks(conf).unwrap();
        let mut exec = runner.execute_maps(conf, &chunks, 0).unwrap();
        let run_bytes = shuffle_runs(conf, &mut exec)
            .unwrap()
            .iter()
            .map(|run| run.bytes())
            .collect();
        let split = conf.num_reducers / 2;
        let shuffle = runner.shuffle(conf, &mut exec).unwrap();
        let mut waves = runner.reduce(conf, &mut exec, &shuffle, 0..split).unwrap();
        waves.extend(
            runner
                .reduce(conf, &mut exec, &shuffle, split..conf.num_reducers)
                .unwrap(),
        );
        let waves = ReduceTaskExec::take_parts(&mut waves)
            .into_iter()
            .flat_map(|(records, _)| records)
            .collect();
        Observed {
            output,
            counters: stats.counters.iter_sorted(),
            shuffle_bytes: stats.shuffle_bytes,
            output_bytes: stats.output_bytes,
            maps: tasks(&stats.map),
            reduces: tasks(stats.reduce.as_ref().expect("a job with a reduce")),
            makespan: stats.makespan(),
            run_bytes,
            waves,
        }
    }

    fn reduce() -> impl Strategy<Value = Reduce> {
        prop_oneof![
            Just(Reduce::Listing),
            Just(Reduce::Joining),
            Just(Reduce::Identity)
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn encoded_values_run_as_live_bytes_do(
            keys in prop::collection::vec(0usize..40, 0..150),
            emit in prop_oneof![Just(Emit::Encoded), Just(Emit::Mixed)],
            reduce in reduce(),
            reducers in prop_oneof![Just(1usize), Just(8), Just(240)],
            chunks in 1usize..4,
            combine in any::<bool>(),
        ) {
            let records: Vec<Record> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| Record::new(key(k), i as i64))
                .collect();
            let want = observe(&records, chunks, &conf(Emit::Live, reduce, reducers, combine));
            let got = observe(&records, chunks, &conf(emit, reduce, reducers, combine));
            prop_assert_eq!(&got.waves, &got.output);
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Rows of stored bytes cross the shuffle of a job with no map
        /// function encoded, and run as the same rows handed on live do.
        #[test]
        fn stored_bytes_through_no_map_run_as_live_bytes_do(
            keys in prop::collection::vec(0usize..40, 0..150),
            reduce in reduce(),
            reducers in prop_oneof![Just(1usize), Just(8), Just(240)],
            chunks in 1usize..4,
            combine in any::<bool>(),
        ) {
            // One row in four is not bytes, and crosses live either way.
            let records: Vec<Record> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| match i % 4 {
                    0 => Record::new(key(k), i as i64),
                    n => Record::new(key(k), Datum::Bytes(vec![i as u8; n * k % 7])),
                })
                .collect();
            // The job without a map function, and with the identity map,
            // which hands on a live copy of every row.
            let mut none = conf(Emit::Live, reduce, reducers, combine);
            none.map_chain.clear();
            let mut live = none.clone();
            live.map_chain.push(crate::api::identity_mapper());
            let want = observe(&records, chunks, &live);
            let got = observe(&records, chunks, &none);
            prop_assert_eq!(&got.waves, &got.output);
            prop_assert_eq!(got, want);
        }
    }

    /// Encoded values are bytes in their run, not buffers of their own:
    /// one value block holds a task's values of one length, and the group
    /// step lends a reducer that reads them in place the run's bytes.
    #[test]
    fn a_run_keeps_encoded_values_in_one_block_and_lends_them_in_place() {
        let mut run = RunWriter::new(4, 100, |key: &Datum| key.as_int().unwrap_or(0) as usize % 4);
        for i in 0..100i64 {
            run.collect_encoded(Datum::Int(i % 10), 3, &mut |buf| {
                buf.extend_from_slice(&[i as u8; 3])
            });
        }
        let mut run = run.seal();
        assert_eq!(run.value_blocks(), Some(1));
        assert_eq!(run.bytes(), 100 * (9 + 5 + 3));
        let slices: Vec<Slice> = run.slices().collect();
        let Groups { groups, encoded } = group_by_key(slices);
        assert_eq!(groups.len(), 10);
        assert_eq!(encoded.len(), 100);
        let (key, values) = &groups[3];
        assert_eq!(key, &Datum::Int(3));
        let Values::Encoded(range) = values else {
            panic!("a group of encoded values is lent them");
        };
        let want: Vec<[u8; 3]> = (0..10).map(|j| [j * 10 + 3; 3]).collect();
        assert_eq!(
            encoded[range.clone()],
            want.iter().map(|v| &v[..]).collect::<Vec<_>>()
        );
    }
}
