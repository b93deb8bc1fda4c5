//! Adaptive optimization (§4, Algorithm 1, Figs. 9–10).
//!
//! `Dynamic` mode starts a job with the baseline plan and no statistics.
//! When the first map wave completes (one task per map slot — the natural
//! statistics checkpoint the paper exploits), the runtime:
//!
//! 1. gates on cross-task variance of the collected statistics
//!    (Algorithm 1 lines 1–3),
//! 2. extracts operator statistics from the wave's counters and FM
//!    sketches, scaled to the remaining input,
//! 3. re-optimizes the map-side operators (line 5–6: operators at the
//!    reduce phase are ignored because their statistics do not exist yet),
//! 4. switches plans only if the predicted improvement exceeds the
//!    plan-change overhead (line 10).
//!
//! On a plan change, the completed wave's map outputs are *reused*: the
//! remaining input splits flow through the new plan's job chain, and the
//! final job's reduce consumes both the new plan's map outputs and the
//! wave-1 outputs — exactly the merge of Fig. 10(a). A job that keeps its
//! plan map-side gets the same chance after its first reduce wave, for its
//! tail operators (Fig. 10(b)). The plan changes at most once per job.
//!
//! Every planning pass — map-side after the first map wave, tail-side
//! after the first reduce wave, the warm start from the cross-job store,
//! `Mode::Optimized` and `analysis::analyze_costs` — is the same
//! per-operator step over the [`Evidence`] at hand ([`replan`]), and both
//! re-plans decide with one rule (`plan_change`): each operator with a
//! saving over its baseline plan takes its plan, every other stays on
//! baseline, and the summed savings must exceed the plan-change cost.
//! Both re-plans finish their jobs through the runner's own steps
//! ([`Runner::map_side`](efind_mapreduce::Runner::map_side), `shuffle`,
//! `reduce` and [`Runner::end_job`](efind_mapreduce::Runner::end_job)),
//! the steps [`Runner::finish`](efind_mapreduce::Runner::finish) is made
//! of, and every exit ends the run as a static run ends it: the runtime
//! runs the remaining jobs (`EFindRuntime::run_jobs`), deletes the
//! intermediate files (`EFindRuntime::clean_up`) and harvests the
//! statistics into one result listing every operator's executed plan
//! (`EFindRuntime::end_run`).

use efind_cluster::{SimDuration, SimTime};
use efind_common::{Error, FxHashMap, Result};
use efind_mapreduce::{
    Counters, JobConf, JobStats, MapPhaseExec, RecoveryLog, ReduceTaskExec, Reduced, Sketches,
    TaskStats,
};

use crate::cost::{cost_baseline, OperatorStatsEstimate, Placement};
use crate::jobconf::{BoundOperator, IndexJobConf};
use crate::plan::{forced_plan, optimize_operator, Enumeration, OperatorPlan, Strategy};
use crate::runtime::{forced_plans, EFindJobResult, EFindRuntime};
use crate::statstore::MeasuredOp;
use crate::statsx::{extract_operator_stats, variance_ok};

/// Per-operator plans, by operator name.
type Plans = FxHashMap<String, OperatorPlan>;

/// What a completed first wave (of map or of reduce tasks) observed.
pub(crate) struct Wave<'a> {
    tasks: Vec<&'a TaskStats>,
    counters: Counters,
    sketches: Sketches,
}

impl<'a> Wave<'a> {
    fn of(tasks: impl Iterator<Item = &'a TaskStats>) -> Self {
        let tasks: Vec<&TaskStats> = tasks.collect();
        let mut counters = Counters::new();
        let mut sketches = Sketches::new();
        for t in &tasks {
            counters.merge(&t.counters);
            sketches.merge(&t.sketches);
        }
        Wave {
            tasks,
            counters,
            sketches,
        }
    }

    /// Input records the wave consumed.
    fn input_records(&self) -> u64 {
        self.tasks.iter().map(|t| t.input_records).sum()
    }

    /// The wave as planning evidence for the `remaining` input records
    /// still to come; `None` when the wave saw no input or nothing remains.
    fn scaled_to(&self, remaining: u64) -> Option<Evidence<'_>> {
        let seen = self.input_records();
        (seen > 0 && remaining > 0).then(|| Evidence::Wave(self, remaining as f64 / seen as f64))
    }
}

/// The statistics a planning pass works from.
pub(crate) enum Evidence<'a> {
    /// A first wave of this very job; volumes scale by the factor
    /// (remaining input over the wave's input), averages and ratios carry
    /// over unchanged.
    Wave(&'a Wave<'a>, f64),
    /// What earlier runs measured for the same operator shapes, from the
    /// attached cross-job store.
    History,
    /// The store's measured history where it has the operator's shape,
    /// otherwise the catalog entry a previous run left (§5's `Optimized`).
    Catalog,
}

/// One operator as a planning pass priced it.
pub(crate) struct Priced<'o> {
    pub(crate) bound: &'o BoundOperator,
    pub(crate) placement: Placement,
    /// The plan the operator runs: the optimizer's, or the baseline plan
    /// when the operator is gated.
    pub(crate) plan: OperatorPlan,
    /// The statistics the plan was priced from, partition schemes
    /// refreshed from the bound accessors, and the baseline plan's cost
    /// under them; `None` when the operator is gated.
    pub(crate) stats: Option<(OperatorStatsEstimate, f64)>,
}

impl Priced<'_> {
    /// What the plan saves over the baseline plan (cost-model seconds),
    /// when it is cheaper.
    fn saving(&self) -> Option<f64> {
        let (_, baseline) = self.stats.as_ref()?;
        (self.plan.est_cost_secs < *baseline).then(|| baseline - self.plan.est_cost_secs)
    }
}

/// What one planning pass produced.
#[derive(Default)]
pub(crate) struct Replan<'o> {
    /// Every operator, in the order the pass was given them.
    pub(crate) priced: Vec<Priced<'o>>,
    /// A probe for every operator priced from measured history.
    pub(crate) measured: Vec<MeasuredOp>,
    /// The first indexed, non-volatile operator the store (or catalog)
    /// has no statistics for; it is gated. A wave that saw nothing of an
    /// operator merely gates it.
    pub(crate) missing: Option<&'o str>,
}

/// Every priced operator's plan, by name.
pub(crate) fn plans_of(priced: Vec<Priced<'_>>) -> Plans {
    priced
        .into_iter()
        .map(|p| (p.bound.op.name().to_owned(), p.plan))
        .collect()
}

/// Plans each of `ops` from `evidence`: the one planning step behind the
/// map-side and tail-side waves, the warm start, `Mode::Optimized` and
/// [`analyze_costs`](crate::analysis::analyze_costs).
///
/// An operator is *gated*, i.e. stays on the baseline plan, when it is
/// volatile (§3.2: non-idempotent lookups) or has no index, when its
/// statistics vary too much across the wave's tasks (Algorithm 1 lines
/// 1–3) or are absent, or when they show an index failing or timing out
/// beyond the configured threshold — committing a shuffle job (or cached
/// reuse) to an index that may be black-holed compounds the damage, and
/// baseline keeps the retry/breaker machinery on the simplest path.
pub(crate) fn replan<'o>(
    rt: &EFindRuntime<'_>,
    ops: impl Iterator<Item = (&'o BoundOperator, Placement)>,
    evidence: &Evidence<'_>,
) -> Replan<'o> {
    let env = rt.cost_env();
    let degrade = rt.config.faults.degrade_threshold();
    let mut out = Replan::default();
    for (bound, placement) in ops {
        let name = bound.op.name();
        let gathered = if bound.volatile || bound.indices.is_empty() {
            None
        } else {
            let from_store = || {
                rt.measured_for(bound, placement)
                    .map(|(shape, stats)| (stats, Some(shape)))
            };
            let gathered = match evidence {
                Evidence::Wave(wave, scale) => {
                    let desc = bound.descriptor();
                    variance_ok(&wave.tasks, &desc, rt.config.variance_threshold)
                        .then(|| extract_operator_stats(&wave.counters, &wave.sketches, &desc))
                        .flatten()
                        .map(|mut stats| {
                            stats.n1 *= scale;
                            (stats, None)
                        })
                }
                Evidence::History => from_store(),
                Evidence::Catalog => {
                    from_store().or_else(|| rt.catalog.get(name).map(|s| (s.clone(), None)))
                }
            };
            if gathered.is_none() && !matches!(evidence, Evidence::Wave(..)) {
                out.missing.get_or_insert(name);
            }
            gathered
        };
        let healthy =
            gathered.filter(|(stats, _)| !stats.indices.iter().any(|i| i.failure_rate > degrade));
        let (plan, stats) = match healthy {
            None => (forced_plan(&bound.caps(), Strategy::Baseline), None),
            Some((mut stats, shape)) => {
                stats.refresh_partition_schemes(&bound.caps());
                let baseline: f64 = (0..stats.indices.len())
                    .map(|j| cost_baseline(&env, &stats, j))
                    .sum();
                let plan = optimize_operator(&stats, &env, placement, Enumeration::Full);
                if let Some(shape) = shape {
                    out.measured
                        .push(MeasuredOp::probe(name, shape, &stats, &env, placement));
                }
                (plan, Some((stats, baseline)))
            }
        };
        out.priced.push(Priced {
            bound,
            placement,
            plan,
            stats,
        });
    }
    out
}

/// Runs an enhanced job in dynamic (adaptive) mode.
pub(crate) fn run_dynamic(
    rt: &mut EFindRuntime<'_>,
    ijob: &IndexJobConf,
) -> Result<EFindJobResult> {
    let baseline_plans = forced_plans(ijob, |_| Strategy::Baseline);

    // Without any operators there is nothing to re-plan at all; run the
    // baseline plan statically (statistics still collected). Jobs with
    // only tail operators still flow through the main path so the
    // reduce-phase branch of Algorithm 1 gets its chance.
    //
    // A mid-job plan change reuses the completed wave's outputs, which is
    // only sound when every lookup is a pure function of its key (§3.2).
    // A non-deterministic accessor (EF012, warned at compile time) thus
    // statically disables adaptive re-optimization: the job runs its
    // baseline plan end to end.
    if ijob.operators().next().is_none() || crate::analysis::has_nondeterministic_accessor(ijob) {
        return rt.run_with_plans(ijob, baseline_plans, Vec::new());
    }

    // Warm start from the cross-job store: when *every* indexed,
    // non-volatile operator has measured history for its fingerprint, the
    // winning plans are computed up front and the job runs statically —
    // no statistics wave, no mid-job replan. Any missing fingerprint
    // falls through to the full adaptive run below (a partial warm start
    // would skip the statistics wave the cold operators still need).
    if rt.store.as_ref().is_some_and(|store| !store.is_empty()) {
        let history = replan(rt, ijob.operators(), &Evidence::History);
        if history.missing.is_none() {
            return rt.run_with_plans(ijob, plans_of(history.priced), history.measured);
        }
    }

    let compiled = rt.compile(ijob, &baseline_plans, Vec::new())?;
    debug_assert_eq!(
        compiled.jobs.len(),
        1,
        "the baseline plan never inserts shuffle jobs"
    );
    let conf = compiled
        .jobs
        .into_iter()
        .next()
        .ok_or_else(|| Error::Internal("empty compiled pipeline".into()))?;

    let chunks = rt.runner().chunks(&conf)?;
    // When the whole map phase fits one wave there is no map-side
    // remainder to re-plan (nothing remains, so the wave is no evidence),
    // but the reduce-phase branch below still applies.
    let wave_n = rt.runner().first_wave_count(chunks.len()).min(chunks.len());

    // ---- Wave 1 under the baseline plan (real execution). ----
    let mut exec1 = rt.runner().execute_maps(&conf, &chunks[..wave_n], 0)?;

    // ---- Algorithm 1: re-optimize map-side operators. ----
    let wave = Wave::of(exec1.tasks.iter().map(|t| &t.stats));
    let total_in: u64 = chunks.iter().map(|c| c.records as u64).sum();
    let new_plans = wave
        .scaled_to(total_in.saturating_sub(wave.input_records()))
        .and_then(|evidence| {
            let map_side = ijob.operators().filter(|(_, p)| *p != Placement::Tail);
            plan_change(rt, replan(rt, map_side, &evidence).priced, &baseline_plans)
        });
    let Wave {
        counters: wave_counters,
        sketches: wave_sketches,
        ..
    } = wave;

    let Some(new_plans) = new_plans else {
        // Continue with the baseline plan map-side: execute the remaining
        // splits. Algorithm 1's else-branch still applies — once the job
        // reaches its reduce phase, the tail operators (whose statistics
        // only exist now) get their own re-optimization chance.
        let exec2 = rt.runner().execute_maps(&conf, &chunks[wave_n..], wave_n)?;
        exec1.tasks.extend(exec2.tasks);
        return reduce_phase(rt, ijob, &conf, &mut exec1, baseline_plans);
    };

    // ---- Plan change (Fig. 10(a)). ----
    // Wave-1 tasks have already run; their elapsed time and outputs are
    // kept. The plan-change overhead models job resubmission.
    let wave_sched = rt.runner().schedule_maps(&exec1, SimTime::ZERO);
    let t = wave_sched.makespan + SimDuration::from_secs_f64(rt.config.plan_change_cost_secs);

    // Crash-surviving re-plan: a wave-1 result on a node with a planned
    // death — or behind a partition that never heals — cannot be served to
    // the re-planned job's (much later) reduce: the node-local spill dies
    // with the node, or stays out of reach for good. Those tasks are
    // *lost*: the re-plan reuses exactly the surviving results and sends
    // the lost tasks' input splits back through the new plan. The ledger
    // records both sets, so reports (and tests) can check the reuse is
    // exact. A partition that heals changes nothing: the results are
    // there again when the reduce asks for them.
    let mut recovery = RecoveryLog {
        crashed_attempts: wave_sched.crashed_attempts,
        ..RecoveryLog::default()
    };
    let gone = |node| {
        rt.config.chaos.crash_time(node).is_some()
            || rt.config.netsplit.isolated_forever_from(node).is_some()
    };
    let mut lost: Vec<usize> = wave_sched
        .assignments
        .iter()
        .filter(|a| gone(a.node))
        .map(|a| a.task_id)
        .collect();
    lost.sort_unstable();
    if !rt.config.chaos.is_quiet() || !lost.is_empty() {
        rt.runner()
            .apply_crashes(SimTime::from_nanos(u64::MAX), &mut recovery);
        recovery.lost_tasks = lost.clone();
        recovery.surviving_tasks = wave_sched
            .assignments
            .iter()
            .map(|a| a.task_id)
            .filter(|id| !lost.contains(id))
            .collect();
        recovery.surviving_tasks.sort_unstable();
        exec1.tasks.retain(|x| !lost.contains(&x.task_id));
    }

    // The remaining splits — plus the lost wave-1 splits, which must be
    // re-mapped — become the new plan's input (namespace bookkeeping only:
    // the new file's chunks view the input's records, no data moves, so no
    // time is charged). Wave-1 task ids equal their chunk indices, and a
    // read whose last replica died with a node fails with a diagnosable
    // `DataLoss` instead of silently dropping input.
    let remaining_name = format!("{}.remaining", ijob.name);
    let remaining: Vec<usize> = lost
        .iter()
        .copied()
        .chain(chunks[wave_n..].iter().map(|c| c.index))
        .collect();
    rt.dfs.write_file_from_chunks(
        &remaining_name,
        &conf.input,
        &remaining,
        chunks.len() - wave_n + lost.len(),
    )?;

    let mut ijob2 = ijob.clone();
    ijob2.name = format!("{}-replan", ijob.name);
    ijob2.input = remaining_name.clone();
    let mut compiled2 = rt.compile(&ijob2, &new_plans, Vec::new())?;

    let mut job_stats: Vec<JobStats> = Vec::new();
    let (last, first) = compiled2
        .jobs
        .split_last()
        .ok_or_else(|| Error::Internal("empty compiled pipeline".into()))?;
    rt.run_jobs(first, t, &mut job_stats)?;
    let t = job_stats.last().map_or(t, |job| job.finished);
    let output = if conf.has_reduce() {
        // The wave-1 runs were spilled under the baseline job and feed the
        // re-planned job's reduce as they are: `compile_pipeline` gives the
        // job's own Reduce, partitioner and reducer count to the last job
        // of any plan.
        if !last.shuffles_like(&conf) {
            return Err(Error::Internal(format!(
                "job {}: the re-planned job {} shuffles unlike the baseline job",
                ijob.name, last.name
            )));
        }
        let lchunks = rt.runner().chunks(last)?;
        let mut lexec = rt.runner().execute_maps(last, &lchunks, 0)?;
        let side = rt.runner().map_side(last, &mut lexec, t, recovery)?;
        // Merge: new-plan map outputs plus the reused wave-1 outputs.
        lexec.tasks.append(&mut exec1.tasks);
        let reduced = rt.runner().reduce_all(last, &mut lexec)?;
        let res = rt.runner().end_job(last, &mut lexec, side, reduced);
        job_stats.push(res.stats);
        res.output
    } else {
        // Map-only enhanced job: the wave-1 outputs are final records, so
        // they are appended to the new plan's output — also when the new
        // plan's last job reduces (a shuffle strategy's lookup job), whose
        // reducer takes carriers, not finished records.
        let mut res = rt.runner().run(last, t)?;
        // The sub-job carries its own window's ledger; graft the re-plan's
        // crashes and reuse decision onto it so `result.jobs` tells the
        // whole story.
        res.stats.counters.add_nonzero(&[
            ("mr.recovery.crashes", recovery.crashes.len() as i64),
            (
                "mr.recovery.reused.tasks",
                recovery.surviving_tasks.len() as i64,
            ),
        ]);
        res.stats.recovery.crashes = recovery.crashes;
        res.stats.recovery.surviving_tasks = recovery.surviving_tasks;
        res.stats.recovery.lost_tasks = recovery.lost_tasks;
        job_stats.push(res.stats);
        rt.dfs.write_file_parts_then(
            &ijob.output,
            exec1.take_parts(),
            &ijob.output,
            last.output_chunks,
        )?
    };
    compiled2.temp_files.push(remaining_name);
    rt.clean_up(&compiled2.temp_files);

    // Catalog and store: wave-1 statistics plus everything the new plan
    // collected, recorded under the plans that actually executed.
    let wave = Some((&wave_counters, &wave_sketches));
    Ok(rt.end_run(ijob, job_stats, output, new_plans, true, wave))
}

/// Algorithm 1's plan-change rule (line 10), which both re-plans follow:
/// each priced operator whose plan saves over its baseline plan takes it,
/// every other operator keeps its plan in `current`, and the plans change
/// only when the savings, summed and spread over the cluster, exceed the
/// plan-change cost. `None` keeps `current`.
fn plan_change(rt: &EFindRuntime<'_>, priced: Vec<Priced<'_>>, current: &Plans) -> Option<Plans> {
    let mut gain = 0.0;
    let mut plans = current.clone();
    for p in priced {
        if let Some(saving) = p.saving() {
            gain += saving;
            plans.insert(p.bound.op.name().to_owned(), p.plan);
        }
    }
    (rt.cost_env().wall_secs(gain) > rt.config.plan_change_cost_secs).then_some(plans)
}

/// The reduce phase of a job whose map side kept its baseline plans, with
/// Fig. 10(b) / Algorithm 1's reduce-phase branch: when the final job's
/// reduce runs in multiple waves and the tail operators (running baseline
/// inside `reduce_post`) turn out to be worth another plan, the completed
/// wave's outputs move to the job output, the remaining reduce tasks run
/// *without* the tail chains, and a re-planned tail pipeline processes
/// their outputs. Otherwise the job ends as
/// [`Runner::finish`](efind_mapreduce::Runner::finish) ends it.
fn reduce_phase(
    rt: &mut EFindRuntime<'_>,
    ijob: &IndexJobConf,
    conf: &JobConf,
    exec: &mut MapPhaseExec,
    baseline_plans: Plans,
) -> Result<EFindJobResult> {
    let reduce_slots = rt.cluster.total_reduce_slots();
    if ijob.tail.is_empty() || !conf.has_reduce() || conf.num_reducers <= reduce_slots {
        let res = rt.runner().finish(conf, exec, SimTime::ZERO)?;
        let jobs = vec![res.stats];
        return Ok(rt.end_run(ijob, jobs, res.output, baseline_plans, false, None));
    }
    let shuffled: u64 = exec.tasks.iter().map(|t| t.stats.output_records).sum();
    let side = rt
        .runner()
        .map_side(conf, exec, SimTime::ZERO, RecoveryLog::default())?;
    let shuffle = rt.runner().shuffle(conf, exec)?;
    let rest = reduce_slots..conf.num_reducers;

    // ---- Reduce wave 1 under the current (tail-baseline) plan. ----
    let mut tasks = rt.runner().reduce(conf, exec, &shuffle, 0..reduce_slots)?;

    // ---- Re-optimize the tail operators from wave-1 statistics. ----
    // Any plan change runs the tail pipeline map-side, so a cache plan
    // justifies it as much as a shuffle strategy.
    let wave = Wave::of(tasks.iter().map(|t| &t.stats));
    let remaining_in = shuffled.saturating_sub(wave.input_records());
    let new_plans = wave.scaled_to(remaining_in).and_then(|evidence| {
        let tail = ijob.operators().filter(|(_, p)| *p == Placement::Tail);
        plan_change(rt, replan(rt, tail, &evidence).priced, &baseline_plans)
    });

    let Some(new_plans) = new_plans else {
        // No plan change: the remaining reduce waves run under the current
        // plan, and the job ends as `finish` ends it.
        tasks.extend(rt.runner().reduce(conf, exec, &shuffle, rest)?);
        let reduced = Reduced {
            shuffle,
            tasks,
            pause: None,
        };
        let res = rt.runner().end_job(conf, exec, side, Some(reduced));
        let jobs = vec![res.stats];
        return Ok(rt.end_run(ijob, jobs, res.output, baseline_plans, false, None));
    };

    // ---- Plan change (Fig. 10(b)). ----
    // The remaining reduce tasks run without the tail chains, after the
    // plan-change pause, into the re-planned tail pipeline's input; the
    // completed wave's outputs move straight to the job output. The job
    // ends — and lists the crashes inside its window — before the tail
    // pipeline starts.
    let tmp_in = format!("{}.tail-replan.in", ijob.name);
    let mut stripped = conf.clone();
    stripped.reduce_post = Vec::new();
    stripped.output = tmp_in.clone();
    stripped.output_chunks = Some(rt.cluster.total_map_slots());
    tasks.extend(rt.runner().reduce(&stripped, exec, &shuffle, rest)?);
    let done = ReduceTaskExec::take_parts(&mut tasks[..reduce_slots]);
    let pause = SimDuration::from_secs_f64(rt.config.plan_change_cost_secs);
    let reduced = Reduced {
        shuffle,
        tasks,
        pause: Some((reduce_slots, pause)),
    };
    let first = rt.runner().end_job(&stripped, exec, side, Some(reduced));
    let start = first.stats.finished;
    let mut jobs = vec![first.stats];

    // The re-planned tail pipeline is the job's tail operators run as head
    // operators of a map-only job over the stripped outputs; its jobs
    // follow as entries of their own, so `result.jobs` sums without
    // double-counting.
    let tmp_out = format!("{}.tail-replan.out", ijob.name);
    let tail_ijob = IndexJobConf {
        name: format!("{}-tailreplan", ijob.name),
        input: tmp_in.clone(),
        output: tmp_out.clone(),
        map: Vec::new(),
        reducer: None,
        num_reducers: 0,
        head: ijob.tail.clone(),
        body: Vec::new(),
        tail: Vec::new(),
        ..ijob.clone()
    };
    let mut compiled = rt.compile(&tail_ijob, &new_plans, Vec::new())?;
    rt.run_jobs(&compiled.jobs, start, &mut jobs)?;

    // Merge: completed wave-1 outputs + the tail pipeline's outputs.
    let output = rt
        .dfs
        .write_file_parts_then(&ijob.output, done, &tmp_out, conf.output_chunks)?;
    compiled.temp_files.extend([tmp_in, tmp_out]);
    rt.clean_up(&compiled.temp_files);

    // Head and body operators executed under their baseline plans, the
    // tail operators under their re-planned ones.
    Ok(rt.end_run(ijob, jobs, output, new_plans, true, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::testutil::MemIndex;
    use crate::fault::{FaultConfig, FaultPlan, RetryPolicy};
    use crate::jobconf::BoundOperator;
    use crate::operator::{operator_fn, IndexInput, IndexOutput};
    use crate::runtime::{EFindConfig, Mode};
    use efind_analyze::DiagCode;
    use efind_cluster::Cluster;
    use efind_common::{Datum, Record};
    use efind_dfs::{Dfs, DfsConfig};
    use efind_mapreduce::{mapper_fn, reducer_fn, Collector};
    use std::sync::Arc;

    /// A workload with heavy global key duplication and an expensive
    /// index, so the optimizer should switch to re-partitioning.
    fn setup(n: i64, distinct: i64, serve_ms: u64) -> (Cluster, Dfs, IndexJobConf) {
        let cluster = Cluster::builder()
            .nodes(2)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 2048,
                replication: 2,
                seed: 11,
            },
        );
        let records: Vec<Record> = (0..n)
            .map(|i| Record::new(i, Datum::Int((i * 7919) % distinct)))
            .collect();
        dfs.write_file("in", records);

        let mut index = MemIndex::new(
            "vals",
            (0..distinct)
                .map(|i| (Datum::Int(i), vec![Datum::Bytes(vec![7u8; 256])]))
                .collect(),
        );
        index.serve = SimDuration::from_millis(serve_ms);
        let op = operator_fn(
            "join",
            1,
            |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.value.clone()),
            |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
                let hit = !values.first(0).is_empty();
                out.collect(Record::new(rec.value, i64::from(hit)));
            },
        );
        let ijob = IndexJobConf::new("dyn", "in", "out")
            .add_head_index_operator(BoundOperator::new(op).add_index(Arc::new(index)))
            .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
            .set_reducer(
                reducer_fn(|key, values, out, _| {
                    out.collect(Record::new(key, values.len() as i64));
                }),
                2,
            );
        (cluster, dfs, ijob)
    }

    fn cheap_change_config() -> EFindConfig {
        EFindConfig {
            plan_change_cost_secs: 0.01,
            variance_threshold: 5.0,
            ..EFindConfig::default()
        }
    }

    #[test]
    fn dynamic_replans_under_heavy_duplication() {
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(res.replanned, "expected a plan change");
        let plan = &res.plans.iter().find(|(n, _)| n == "join").unwrap().1;
        assert!(plan.has_shuffle(), "expected a shuffle strategy: {plan:?}");
    }

    #[test]
    fn a_replanning_dynamic_run_reports_each_warning_once() {
        // An armed fault layer (a timeout no lookup reaches) whose backoff
        // base exceeds its cap: the baseline job and the re-planned one
        // both earn the EF016 warning, and the run reports it once.
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut config = cheap_change_config();
        config.faults = FaultConfig::disabled().with_plan(FaultPlan::new(7));
        config.faults.timeout = Some(SimDuration::from_secs(1));
        config.faults.retry =
            RetryPolicy::bounded(3, SimDuration::from_secs(1), SimDuration::from_millis(1));
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(res.replanned, "expected a plan change");
        let codes: Vec<DiagCode> = rt.warnings().iter().map(|w| w.code).collect();
        assert_eq!(codes, [DiagCode::EF016]);
        // A later run reports its own warnings, not this one's.
        rt.config.faults = FaultConfig::disabled();
        rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(rt.warnings().is_empty());
    }

    #[test]
    fn dynamic_output_matches_baseline_after_replan() {
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
        let mut expected = rt.dfs.read_file("out").unwrap();
        expected.sort();

        let (cluster2, mut dfs2, ijob2) = setup(2000, 10, 5);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let res = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        assert!(res.replanned);
        let mut got = rt2.dfs.read_file("out").unwrap();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn dynamic_beats_pure_baseline_when_replanning() {
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        let base = rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();

        let (cluster2, mut dfs2, ijob2) = setup(2000, 10, 5);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let dynamic = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        assert!(
            dynamic.total_time < base.total_time,
            "dynamic {} vs baseline {}",
            dynamic.total_time,
            base.total_time
        );
    }

    #[test]
    fn dynamic_keeps_baseline_when_change_is_expensive() {
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let config = EFindConfig {
            plan_change_cost_secs: 1.0e9, // prohibitive
            ..EFindConfig::default()
        };
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(!res.replanned);
    }

    #[test]
    fn dynamic_keeps_baseline_when_no_redundancy() {
        // Unique keys, tiny serve time: baseline is already optimal.
        let (cluster, mut dfs, ijob) = setup(500, 1_000_000, 0);
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(!res.replanned);
    }

    #[test]
    fn map_only_job_replans_to_a_shuffle_strategy() {
        // Regression: the re-planned pipeline of a map-only job ends in the
        // shuffle strategy's own lookup job, which has a reduce. The reused
        // wave-1 outputs are finished records and must be appended to its
        // output, not pushed through that reduce (which failed to decode
        // them as carriers).
        let map_only = |mut ijob: IndexJobConf| {
            ijob.reducer = None;
            ijob.num_reducers = 0;
            ijob
        };
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        rt.run(&map_only(ijob), Mode::Uniform(Strategy::Baseline))
            .unwrap();
        let mut expected = rt.dfs.read_file("out").unwrap();
        expected.sort();

        let (cluster2, mut dfs2, ijob2) = setup(2000, 10, 5);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let res = rt2.run(&map_only(ijob2), Mode::Dynamic).unwrap();
        assert!(res.replanned);
        let plan = &res.plans.iter().find(|(n, _)| n == "join").unwrap().1;
        assert!(plan.has_shuffle(), "expected a shuffle strategy: {plan:?}");
        let mut got = rt2.dfs.read_file("out").unwrap();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn results_behind_a_permanent_partition_are_lost_to_the_replan() {
        use efind_cluster::{NodeId, PartitionPlan};
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let quiet = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(quiet.replanned);
        assert!(quiet.jobs.iter().all(|j| j.recovery.lost_tasks.is_empty()));
        let mut expected = rt.dfs.read_file("out").unwrap();
        expected.sort();

        // Node 1 drops off for good just before the re-planned pipeline
        // starts, i.e. after the first wave completed on it.
        let cut = SimTime::from_nanos(quiet.jobs[0].started.as_nanos() - 1_000_000);
        let (cluster2, mut dfs2, ijob2) = setup(2000, 10, 5);
        let mut config = cheap_change_config();
        config.netsplit = PartitionPlan::new(7).split(&[NodeId(1)], cut, None);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, config);
        let res = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        assert!(res.replanned);
        let ledger = &res.jobs.last().unwrap().recovery;
        assert!(
            !ledger.lost_tasks.is_empty(),
            "no first-wave task ran on node 1"
        );
        let mut all: Vec<usize> = ledger
            .lost_tasks
            .iter()
            .chain(&ledger.surviving_tasks)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3], "lost + surviving = the first wave");
        let mut got = rt2.dfs.read_file("out").unwrap();
        got.sort();
        assert_eq!(got, expected);
    }

    /// A job whose only expensive index is a *tail* operator with heavy
    /// global key duplication: the map-side pass finds nothing to re-plan,
    /// and the reduce-phase branch of Algorithm 1 must fire instead.
    fn tail_heavy_setup(n: i64) -> (Cluster, Dfs, IndexJobConf) {
        let cluster = Cluster::builder()
            .nodes(2)
            .map_slots(2)
            .reduce_slots(1)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 2048,
                replication: 2,
                seed: 13,
            },
        );
        let records: Vec<Record> = (0..n)
            .map(|i| Record::new(i, Datum::Int((i * 31) % 500)))
            .collect();
        dfs.write_file("in", records);

        let mut index = MemIndex::new(
            "enrichment",
            (0..8i64)
                .map(|i| (Datum::Int(i), vec![Datum::Text(format!("e{i}"))]))
                .collect(),
        );
        index.serve = SimDuration::from_millis(5);
        // A trivially cheap head operator keeps the map-side branch alive
        // but unprofitable.
        let head_op = operator_fn(
            "cheap-head",
            1,
            |rec: &mut Record, keys: &mut IndexInput| keys.put(0, rec.key.clone()),
            |rec: Record, _values: &IndexOutput, out: &mut dyn Collector| out.collect(rec),
        );
        let cheap = MemIndex::new("noop", vec![]);
        let ijob = IndexJobConf::new("tailjob", "in", "out")
            .add_head_index_operator(BoundOperator::new(head_op).add_index(Arc::new(cheap)))
            .set_mapper(mapper_fn(|rec, out, _| out.collect(rec)))
            .set_reducer(
                reducer_fn(|key, values, out, _| {
                    out.collect(Record::new(key, values.len() as i64));
                }),
                // More reducers than the 2 reduce slots → multiple waves.
                6,
            )
            // Only 8 distinct keys over all reduce outputs → Θ is huge.
            .add_tail_index_operator(enrich("tail-enrich", |k| k % 8, Arc::new(index)));
        (cluster, dfs, ijob)
    }

    /// A tail operator that looks up `key` of each reduce output's key in
    /// `index` and appends the first value it finds.
    fn enrich(
        name: &str,
        key: fn(i64) -> i64,
        index: Arc<dyn crate::accessor::IndexAccessor>,
    ) -> BoundOperator {
        let op = operator_fn(
            name,
            1,
            move |rec: &mut Record, keys: &mut IndexInput| {
                keys.put(0, key(rec.key.as_int().unwrap_or(0)));
            },
            |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
                let v = values.first(0).first().cloned().unwrap_or(Datum::Null);
                out.collect(Record {
                    key: rec.key,
                    value: Datum::List(vec![rec.value, v]),
                });
            },
        );
        BoundOperator::new(op).add_index(index)
    }

    /// The strategies of each operator's plan, in the order of the result.
    fn strategies(res: &EFindJobResult) -> Vec<(&str, Vec<Strategy>)> {
        res.plans
            .iter()
            .map(|(name, plan)| {
                let chosen = plan.choices.iter().map(|c| c.strategy).collect();
                (name.as_str(), chosen)
            })
            .collect()
    }

    #[test]
    fn a_tail_replan_reports_every_operators_plan() {
        // The head operator ran its baseline plan and the tail operator
        // its re-planned one; the result lists both, in job order.
        let (cluster, mut dfs, ijob) = tail_heavy_setup(3000);
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(res.replanned);
        assert_eq!(
            strategies(&res),
            [
                ("cheap-head", vec![Strategy::Baseline]),
                ("tail-enrich", vec![Strategy::Cache])
            ]
        );
    }

    /// The intermediate files of a Dynamic run of `job` that still exist:
    /// the map-side re-plan's remaining input, the tail re-plan's input and
    /// output, and the chained files of either re-planned pipeline.
    fn intermediates(dfs: &Dfs, job: &str) -> Vec<String> {
        let mut names = vec![
            format!("{job}.remaining"),
            format!("{job}.tail-replan.in"),
            format!("{job}.tail-replan.out"),
        ];
        for i in 0..4 {
            names.push(format!("{job}-replan.tmp{i}"));
            names.push(format!("{job}-tailreplan.tmp{i}"));
        }
        names.retain(|name| dfs.exists(name));
        names
    }

    #[test]
    fn dynamic_runs_delete_their_intermediates_unless_kept() {
        for keep in [false, true] {
            let config = EFindConfig {
                keep_intermediates: keep,
                ..cheap_change_config()
            };
            // Fig. 10(a): the re-planned pipeline starts with a shuffle job.
            let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
            let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config.clone());
            let res = rt.run(&ijob, Mode::Dynamic).unwrap();
            assert_eq!(strategies(&res), [("join", vec![Strategy::Repartition])]);
            let kept: &[&str] = if keep {
                &["dyn.remaining", "dyn-replan.tmp0"]
            } else {
                &[]
            };
            assert_eq!(intermediates(rt.dfs, "dyn"), kept, "keep {keep}");

            // Fig. 10(b): two tail operators re-planned into two shuffle
            // jobs, which a four-entry cache cannot beat.
            let (cluster, mut dfs, mut ijob) = tail_heavy_setup(3000);
            let index = ijob.tail[0].indices[0].clone();
            ijob.tail.push(enrich("tail-enrich-2", |k| k % 8, index));
            let config = EFindConfig {
                cache_capacity: 4,
                ..config
            };
            let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
            let res = rt.run(&ijob, Mode::Dynamic).unwrap();
            assert!(res.replanned);
            assert_eq!(res.jobs.len(), 3, "the tail pipeline has two jobs");
            let kept: &[&str] = if keep {
                &[
                    "tailjob.tail-replan.in",
                    "tailjob.tail-replan.out",
                    "tailjob-tailreplan.tmp0",
                ]
            } else {
                &[]
            };
            assert_eq!(intermediates(rt.dfs, "tailjob"), kept, "keep {keep}");
        }
    }

    #[test]
    fn a_replanned_tail_caches_in_the_runtime_tenants_share() {
        use efind_cluster::tenancy::TenantSpec;
        use efind_cluster::TenancyConfig;
        // Alpha's tenth of a 64-entry cache holds six keys. Nine in ten
        // tail lookups go to three keys and the tenth to a key of its own,
        // so the re-planned tail caches, and its cache evicts.
        let (cluster, mut dfs, mut ijob) = tail_heavy_setup(3000);
        let index = ijob.tail[0].indices[0].clone();
        let key = |k: i64| if k % 10 == 0 { 100 + k } else { k % 3 };
        ijob.tail[0] = enrich("tail-enrich", key, index);
        let config = EFindConfig {
            cache_capacity: 64,
            tenancy: TenancyConfig::none()
                .tenant(TenantSpec::new("alpha").cache_share(0.1))
                .tenant(TenantSpec::new("beta")),
            tenant: Some("alpha".into()),
            ..cheap_change_config()
        };
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(res.replanned);
        assert_eq!(strategies(&res)[1], ("tail-enrich", vec![Strategy::Cache]));
        let evictions = |job: &JobStats| job.counters.get("efind.tenant.alpha.cache.evictions");
        let (stripped, tail) = res.jobs.split_first().unwrap();
        assert_eq!(evictions(stripped), 0, "the stripped job runs no cache");
        assert_eq!(tail.len(), 1);
        assert!(
            evictions(&tail[0]) > 0,
            "the tail pipeline counted no eviction"
        );
    }

    #[test]
    fn reduce_phase_replan_fires_for_expensive_tail_ops() {
        let (cluster, mut dfs, ijob) = tail_heavy_setup(3000);
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(
            res.replanned,
            "tail operator should trigger a reduce-phase plan change"
        );
        let plan = &res
            .plans
            .iter()
            .find(|(n, _)| n == "tail-enrich")
            .unwrap()
            .1;
        assert!(
            plan.choices
                .iter()
                .all(|c| c.strategy != Strategy::Baseline),
            "the re-planned tail must leave the baseline: {plan:?}"
        );
    }

    #[test]
    fn reduce_phase_replan_preserves_output() {
        let (cluster, mut dfs, ijob) = tail_heavy_setup(3000);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
        let mut expected = rt.dfs.read_file("out").unwrap();
        expected.sort();

        let (cluster2, mut dfs2, ijob2) = tail_heavy_setup(3000);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let res = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        assert!(res.replanned);
        let mut got = rt2.dfs.read_file("out").unwrap();
        got.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn reduce_phase_replan_beats_tail_baseline() {
        let (cluster, mut dfs, ijob) = tail_heavy_setup(3000);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        let base = rt.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();

        let (cluster2, mut dfs2, ijob2) = tail_heavy_setup(3000);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let dynamic = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        assert!(
            dynamic.total_time < base.total_time,
            "dynamic {} vs baseline {}",
            dynamic.total_time,
            base.total_time
        );
    }

    #[test]
    fn tail_no_change_path_preserves_all_output() {
        // Regression: when the reduce-phase branch evaluates a change and
        // declines (cheap tail lookups), the job must still produce the
        // complete output — the map outputs were already consumed by the
        // wave split and must not be lost.
        let (cluster, mut dfs, mut ijob) = tail_heavy_setup(2500);
        // Make the tail index too cheap to justify any plan change.
        let cheap = MemIndex::new(
            "enrichment",
            (0..8i64)
                .map(|i| (Datum::Int(i), vec![Datum::Text(format!("e{i}"))]))
                .collect(),
        );
        ijob.tail[0].indices[0] = Arc::new(cheap);

        let mut rt1 = EFindRuntime::new(&cluster, &mut dfs);
        rt1.run(&ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
        let mut expected = rt1.dfs.read_file("out").unwrap();
        expected.sort();
        assert!(!expected.is_empty());

        let (cluster2, mut dfs2, mut ijob2) = tail_heavy_setup(2500);
        let cheap2 = MemIndex::new(
            "enrichment",
            (0..8i64)
                .map(|i| (Datum::Int(i), vec![Datum::Text(format!("e{i}"))]))
                .collect(),
        );
        ijob2.tail[0].indices[0] = Arc::new(cheap2);
        let mut rt2 = EFindRuntime::with_config(&cluster2, &mut dfs2, cheap_change_config());
        let res = rt2.run(&ijob2, Mode::Dynamic).unwrap();
        let mut got = rt2.dfs.read_file("out").unwrap();
        got.sort();
        assert_eq!(
            got.len(),
            expected.len(),
            "output lost on the no-change path"
        );
        assert_eq!(got, expected);
        let _ = res.replanned; // either decision is fine; output must match
    }

    #[test]
    fn no_reduce_phase_replan_when_reducers_fit_one_wave() {
        let (cluster, mut dfs, mut ijob) = tail_heavy_setup(2000);
        ijob.num_reducers = 2; // fits the 2 reduce slots → single wave
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(!res.replanned);
    }

    /// Wraps an accessor and declares its lookups non-deterministic.
    struct NonDetIndex(MemIndex);

    impl crate::accessor::IndexAccessor for NonDetIndex {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn lookup(&self, key: &Datum) -> Vec<Datum> {
            self.0.lookup(key)
        }
        fn serve_time(&self, key: &Datum, result_bytes: u64) -> SimDuration {
            self.0.serve_time(key, result_bytes)
        }
        fn partition_scheme(&self) -> Option<Arc<dyn crate::accessor::PartitionScheme>> {
            self.0.partition_scheme()
        }
        fn deterministic(&self) -> bool {
            false
        }
    }

    #[test]
    fn non_deterministic_accessor_disables_result_reuse() {
        // The identical workload replans in
        // `dynamic_replans_under_heavy_duplication`; the only difference
        // here is the accessor declaring itself non-deterministic, which
        // must statically disable the adaptive path (EF012).
        let (cluster, mut dfs, mut ijob) = setup(2000, 10, 5);
        let mut index = MemIndex::new(
            "vals",
            (0..10i64)
                .map(|i| (Datum::Int(i), vec![Datum::Bytes(vec![7u8; 256])]))
                .collect(),
        );
        index.serve = SimDuration::from_millis(5);
        ijob.head[0].indices[0] = Arc::new(NonDetIndex(index));
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, cheap_change_config());
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(
            !res.replanned,
            "result reuse must stay disabled for non-deterministic accessors"
        );
        let plan = &res.plans.iter().find(|(n, _)| n == "join").unwrap().1;
        assert!(
            plan.choices
                .iter()
                .all(|c| c.strategy == Strategy::Baseline),
            "the job must run its baseline plan end to end: {plan:?}"
        );
    }

    #[test]
    fn failing_index_blocks_replanning() {
        use crate::fault::{FaultConfig, FaultPlan, RetryPolicy};
        // The identical workload replans in
        // `dynamic_replans_under_heavy_duplication`; here the index fails
        // 70% of its attempts — past the 50% degradation threshold — so
        // the adaptive runtime must keep the operator on baseline instead
        // of committing a shuffle job to a failing index.
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut config = cheap_change_config();
        config.faults = FaultConfig::disabled().with_plan(FaultPlan::new(42).failures(0.7));
        config.faults.retry =
            RetryPolicy::bounded(8, SimDuration::from_micros(50), SimDuration::from_millis(5));
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(
            !res.replanned,
            "a failing index must pin its operator to baseline"
        );
        // The harvested catalog carries the observed failure rate.
        let stats = rt.catalog.get("join").unwrap();
        assert!(
            stats.indices[0].failure_rate > 0.5,
            "failure rate {} should reflect the injected 70%",
            stats.indices[0].failure_rate
        );
    }

    #[test]
    fn healthy_fault_config_does_not_block_replanning() {
        use crate::fault::FaultConfig;
        // An *armed but quiet* fault layer (plan with zero rates) must not
        // change the adaptive decision.
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let mut config = cheap_change_config();
        config.faults = FaultConfig::disabled().with_plan(crate::fault::FaultPlan::new(1));
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(res.replanned, "quiet fault layer must not block the replan");
    }

    #[test]
    fn variance_gate_blocks_replanning() {
        let (cluster, mut dfs, ijob) = setup(2000, 10, 5);
        let config = EFindConfig {
            plan_change_cost_secs: 0.01,
            // Even zero-variance statistics fail a negative threshold, so
            // the gate rejects everything.
            variance_threshold: -1.0,
            ..EFindConfig::default()
        };
        let mut rt = EFindRuntime::with_config(&cluster, &mut dfs, config);
        let res = rt.run(&ijob, Mode::Dynamic).unwrap();
        assert!(!res.replanned);
    }
}
