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
//! wave-1 outputs — exactly the merge of Fig. 10(a). The plan changes at
//! most once per job.
//!
//! Every planning pass — map-side after the first map wave, tail-side
//! after the first reduce wave, the warm start from the cross-job store,
//! `Mode::Optimized` and `analysis::analyze_costs` — is the same
//! per-operator step over the [`Evidence`] at hand ([`replan`]); each
//! caller folds the priced operators into its own plan map. Every job the
//! runtime stitches together by hand ends in the runner's own tail
//! ([`Runner::seal`](efind_mapreduce::Runner::seal)).

use efind_cluster::{sched::Schedule, SimDuration, SimTime};
use efind_common::{Error, FxHashMap, Result};
use efind_mapreduce::{
    Counters, JobConf, JobParts, JobStats, MapPhaseExec, PhaseStats, RecoveryLog, ReduceTaskExec,
    Sketches, TaskStats,
};

use crate::compile::compile_pipeline;
use crate::cost::{cost_baseline, OperatorStatsEstimate, Placement};
use crate::jobconf::{BoundOperator, IndexJobConf};
use crate::plan::{forced_plan, optimize_operator, Enumeration, OperatorPlan, Strategy};
use crate::runtime::{forced_plans, in_operator_order, EFindJobResult, EFindRuntime};
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

    let compiled = compile_pipeline(ijob, &baseline_plans, &rt.runtime_env())?;
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
    let mut new_plans = baseline_plans.clone();
    let mut predicted_gain = 0.0;
    if let Some(evidence) = wave.scaled_to(total_in.saturating_sub(wave.input_records())) {
        let map_side = ijob.operators().filter(|(_, p)| *p != Placement::Tail);
        for priced in replan(rt, map_side, &evidence).priced {
            if let Some(saving) = priced.saving() {
                predicted_gain += saving;
                new_plans.insert(priced.bound.op.name().to_owned(), priced.plan);
            }
        }
    }
    let Wave {
        counters: wave_counters,
        sketches: wave_sketches,
        ..
    } = wave;

    let replan = rt.cost_env().wall_secs(predicted_gain) > rt.config.plan_change_cost_secs;
    if !replan {
        // Continue with the baseline plan map-side: execute the remaining
        // splits. Algorithm 1's else-branch still applies — once the job
        // reaches its reduce phase, the tail operators (whose statistics
        // only exist now) get their own re-optimization chance.
        let exec2 = rt.runner().execute_maps(&conf, &chunks[wave_n..], wave_n)?;
        exec1.tasks.extend(exec2.tasks);
        if let Some(result) = try_reduce_phase_replan(rt, ijob, &conf, &mut exec1, &baseline_plans)?
        {
            return Ok(result);
        }
        let res = rt.runner().finish(&conf, &mut exec1, SimTime::ZERO)?;
        rt.absorb_stats(ijob, std::slice::from_ref(&res.stats), &baseline_plans);
        return Ok(EFindJobResult {
            output: res.output,
            total_time: res.stats.makespan(),
            jobs: vec![res.stats],
            plans: in_operator_order(ijob, baseline_plans),
            replanned: false,
        });
    }

    // ---- Plan change (Fig. 10(a)). ----
    // Wave-1 tasks have already run; their elapsed time and outputs are
    // kept. The plan-change overhead models job resubmission.
    let wave_sched = rt.runner().schedule_maps(&exec1, SimTime::ZERO);
    let mut t = wave_sched.makespan + SimDuration::from_secs_f64(rt.config.plan_change_cost_secs);

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
    debug_assert!(
        crate::analysis::passes(&ijob2, &new_plans),
        "adaptive map-side replan produced an analyzer-rejected plan"
    );
    let compiled2 = compile_pipeline(&ijob2, &new_plans, &rt.runtime_env())?;

    let mut job_stats: Vec<JobStats> = Vec::new();
    let n_jobs = compiled2.jobs.len();
    for conf2 in &compiled2.jobs[..n_jobs - 1] {
        let res = rt.runner().run(conf2, t)?;
        t = res.stats.finished;
        job_stats.push(res.stats);
    }

    let last = &compiled2.jobs[n_jobs - 1];
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
        let lsched = rt.runner().schedule_maps(&lexec, t);
        let map_end = lsched.makespan;
        let map = lexec.phase_stats(lsched);
        // Merge: new-plan map outputs plus the reused wave-1 outputs.
        lexec.tasks.append(&mut exec1.tasks);
        let outcome = rt.runner().run_reduce(last, &mut lexec, map_end)?;
        let (output, mut parts) = JobParts::after_reduce(t, map, map_end, outcome);
        parts.recovery = recovery;
        job_stats.push(rt.runner().seal(last, parts));
        output
    } else {
        // Map-only enhanced job: the wave-1 outputs are final records, so
        // they are appended to the new plan's output — also when the new
        // plan's last job reduces (a shuffle strategy's lookup job), whose
        // reducer takes carriers, not finished records.
        let mut res = rt.runner().run(last, t)?;
        // The sub-job carries its own window's ledger; graft the re-plan's
        // reuse decision onto it so `result.jobs` tells the whole story.
        if !recovery.surviving_tasks.is_empty() {
            res.stats.counters.add(
                "mr.recovery.reused.tasks",
                recovery.surviving_tasks.len() as i64,
            );
        }
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
    let total_end = job_stats.last().map_or(t, |j| j.finished);

    if !rt.config.keep_intermediates {
        for tmp in &compiled2.temp_files {
            rt.dfs.delete(tmp);
        }
        rt.dfs.delete(&remaining_name);
    }

    // Catalog and store: wave-1 statistics plus everything the new plan
    // collected, recorded under the plans that actually executed.
    let (mut counters, mut sketches) = JobStats::merged(&job_stats);
    counters.merge(&wave_counters);
    sketches.merge(&wave_sketches);
    rt.record_observations(ijob, &counters, &sketches, &new_plans);

    Ok(EFindJobResult {
        output,
        total_time: total_end.since(SimTime::ZERO),
        jobs: job_stats,
        plans: in_operator_order(ijob, new_plans),
        replanned: true,
    })
}

/// The statistics of executed reduce tasks under `schedule`.
fn reduce_phase(tasks: &[ReduceTaskExec], schedule: Schedule) -> PhaseStats {
    PhaseStats {
        tasks: tasks.iter().map(|t| t.stats.clone()).collect(),
        schedule,
    }
}

/// Fig. 10(b) / Algorithm 1's reduce-phase branch: when the final job's
/// reduce runs in multiple waves and the tail operators (running baseline
/// inside `reduce_post`) turn out to be worth a shuffle strategy, the
/// completed wave's outputs move to the job output, the remaining reduce
/// tasks run *without* the tail chains, and a re-planned tail pipeline
/// processes their outputs. Returns `None` when the preconditions do not
/// hold; once the first reduce wave ran the job is completed here either
/// way, because the map outputs are consumed by then.
fn try_reduce_phase_replan(
    rt: &mut EFindRuntime<'_>,
    ijob: &IndexJobConf,
    conf: &JobConf,
    exec: &mut MapPhaseExec,
    baseline_plans: &Plans,
) -> Result<Option<EFindJobResult>> {
    let reduce_slots = rt.cluster.total_reduce_slots();
    if ijob.tail.is_empty() || !conf.has_reduce() || conf.num_reducers <= reduce_slots {
        // The caller's normal finish path still owns the map outputs.
        return Ok(None);
    }

    // Map phase timeline. A job with a reduce shuffles its map output:
    // the map tasks' output records and bytes are what the reducers read.
    let map_schedule = rt.runner().schedule_maps(exec, SimTime::ZERO);
    let map_end = map_schedule.makespan;
    let map = exec.phase_stats(map_schedule);
    let shuffle_bytes: u64 = map.tasks.iter().map(|t| t.output_bytes).sum();
    let shuffled: u64 = map.tasks.iter().map(|t| t.output_records).sum();
    let rest_tasks = reduce_slots..conf.num_reducers;

    // ---- Reduce wave 1 under the current (tail-baseline) plan. ----
    let mut wave1 = rt.runner().execute_reduces(conf, exec, 0..reduce_slots)?;
    let wave_schedule = rt.runner().schedule_reduces(&wave1, map_end);

    // ---- Re-optimize the tail operators from wave-1 statistics. ----
    let wave = Wave::of(wave1.iter().map(|t| &t.stats));
    let remaining_in = shuffled.saturating_sub(wave.input_records());
    let tail = ijob.operators().filter(|(_, p)| *p == Placement::Tail);
    let (predicted_gain, tail_plans) = match wave.scaled_to(remaining_in) {
        Some(evidence) => {
            let priced = replan(rt, tail, &evidence).priced;
            let gain = priced.iter().filter_map(Priced::saving).sum();
            (gain, plans_of(priced))
        }
        None => (0.0, Plans::default()),
    };
    // Any beneficial plan (cache or a shuffle strategy) justifies the
    // change: the re-planned tail pipeline runs map-side either way.
    #[expect(
        clippy::disallowed_methods,
        reason = "order-free exists predicate; no output depends on visit order"
    )]
    let improved = tail_plans
        .values()
        .any(|p| p.choices.iter().any(|c| c.strategy != Strategy::Baseline));
    let change =
        improved && rt.cost_env().wall_secs(predicted_gain) > rt.config.plan_change_cost_secs;

    if !change {
        // No plan change: execute the remaining reduce waves under the
        // current plan and assemble an uninterrupted-equivalent run.
        wave1.extend(rt.runner().execute_reduces(conf, exec, rest_tasks)?);
        // Every partition is reduced: free the runs before the output write.
        exec.tasks.clear();
        let reduce_schedule = rt.runner().schedule_reduces(&wave1, map_end);
        let finished = reduce_schedule.makespan;
        let output = rt.dfs.write_file_parts(
            &ijob.output,
            ReduceTaskExec::take_parts(&mut wave1),
            conf.output_chunks,
        );
        let stats = rt.runner().seal(
            conf,
            JobParts {
                started: SimTime::ZERO,
                finished,
                map,
                reduce: Some(reduce_phase(&wave1, reduce_schedule)),
                shuffle_bytes,
                output_bytes: output.total_bytes(),
                ..JobParts::default()
            },
        );
        rt.absorb_stats(ijob, std::slice::from_ref(&stats), baseline_plans);
        return Ok(Some(EFindJobResult {
            output,
            total_time: finished.since(SimTime::ZERO),
            jobs: vec![stats],
            plans: in_operator_order(ijob, baseline_plans.clone()),
            replanned: false,
        }));
    }

    // ---- Plan change (Fig. 10(b)). ----
    // Completed wave-1 outputs move straight to the job output; the
    // remaining reduce tasks run without the tail chains.
    let mut stripped = conf.clone();
    stripped.reduce_post = Vec::new();
    let mut rest = rt.runner().execute_reduces(&stripped, exec, rest_tasks)?;
    // Every partition is reduced: free the runs before the tail pipeline.
    exec.tasks.clear();
    let rest_start =
        wave_schedule.makespan + SimDuration::from_secs_f64(rt.config.plan_change_cost_secs);
    let rest_schedule = rt.runner().schedule_reduces(&rest, rest_start);
    let mut t = rest_schedule.makespan;

    // The re-planned tail pipeline consumes the stripped outputs.
    let tmp_in = format!("{}.tail-replan.in", ijob.name);
    rt.dfs.write_file_parts(
        &tmp_in,
        ReduceTaskExec::take_parts(&mut rest),
        Some(rt.cluster.total_map_slots()),
    );
    let tmp_out = format!("{}.tail-replan.out", ijob.name);
    let mut tail_ijob = IndexJobConf::new(format!("{}-tailreplan", ijob.name), &tmp_in, &tmp_out);
    tail_ijob.head = ijob.tail.clone();
    tail_ijob.cpu_per_record = ijob.cpu_per_record;
    debug_assert!(
        crate::analysis::passes(&tail_ijob, &tail_plans),
        "adaptive reduce-phase replan produced an analyzer-rejected plan"
    );
    let compiled = compile_pipeline(&tail_ijob, &tail_plans, &rt.runtime_env())?;
    let mut tail_jobs: Vec<JobStats> = Vec::new();
    for tconf in &compiled.jobs {
        let res = rt.runner().run(tconf, t)?;
        t = res.stats.finished;
        tail_jobs.push(res.stats);
    }

    // Merge: completed wave-1 outputs + the tail pipeline's outputs.
    let output = rt.dfs.write_file_parts_then(
        &ijob.output,
        ReduceTaskExec::take_parts(&mut wave1),
        &tmp_out,
        conf.output_chunks,
    )?;
    if !rt.config.keep_intermediates {
        rt.dfs.delete(&tmp_in);
        rt.dfs.delete(&tmp_out);
        for tmp in &compiled.temp_files {
            rt.dfs.delete(tmp);
        }
    }

    // The first job is the map phase plus the split reduce phase; the tail
    // jobs follow as entries of their own, so `result.jobs` sums without
    // double-counting.
    wave1.extend(rest);
    let mut reduce_schedule = wave_schedule;
    reduce_schedule
        .assignments
        .extend(rest_schedule.assignments);
    reduce_schedule.makespan = reduce_schedule.makespan.max(rest_schedule.makespan);
    let mut jobs = vec![rt.runner().seal(
        conf,
        JobParts {
            started: SimTime::ZERO,
            finished: reduce_schedule.makespan,
            map,
            reduce: Some(reduce_phase(&wave1, reduce_schedule)),
            shuffle_bytes,
            output_bytes: output.total_bytes(),
            ..JobParts::default()
        },
    )];
    jobs.extend(tail_jobs);

    // Head/body operators executed under the baseline plans; the tail
    // operators under their re-planned strategies.
    let mut final_plans = baseline_plans.clone();
    #[expect(
        clippy::disallowed_methods,
        reason = "map-to-map merge of distinct operator names; no order survives"
    )]
    final_plans.extend(tail_plans.iter().map(|(k, v)| (k.clone(), v.clone())));
    rt.absorb_stats(ijob, &jobs, &final_plans);

    Ok(Some(EFindJobResult {
        output,
        total_time: t.since(SimTime::ZERO),
        jobs,
        plans: in_operator_order(ijob, tail_plans),
        replanned: true,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::testutil::MemIndex;
    use crate::jobconf::BoundOperator;
    use crate::operator::{operator_fn, IndexInput, IndexOutput};
    use crate::runtime::{EFindConfig, Mode};
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
        let tail_op = operator_fn(
            "tail-enrich",
            1,
            |rec: &mut Record, keys: &mut IndexInput| {
                // Only 8 distinct keys over all reduce outputs → Θ is huge.
                keys.put(0, rec.key.as_int().unwrap_or(0) % 8);
            },
            |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
                let v = values.first(0).first().cloned().unwrap_or(Datum::Null);
                out.collect(Record {
                    key: rec.key,
                    value: Datum::List(vec![rec.value, v]),
                });
            },
        );
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
            .add_tail_index_operator(BoundOperator::new(tail_op).add_index(Arc::new(index)));
        (cluster, dfs, ijob)
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
