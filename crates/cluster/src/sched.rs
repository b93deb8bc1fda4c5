//! Slot-based event-driven task scheduler.
//!
//! Models Hadoop 1.x task scheduling: every node offers a fixed number of
//! map and reduce slots; free slots pull pending tasks, preferring tasks
//! whose input data is local (data locality) or — when EFind's index
//! locality strategy is active — tasks whose index partition lives on the
//! node (§3.4). Task durations depend on placement: a task scheduled off its
//! input replicas pays a network transfer for its input, and a task
//! scheduled off its affinity nodes pays the configured affinity penalty
//! (the remote-lookup network cost in the index locality cost model, Eq. 4).
//!
//! Two mechanisms do all the work. One slot search, `earliest_finish`,
//! places every attempt — a task's first attempt, a flaky-node retry, a
//! crash or gray-failure re-placement — each caller passing only its own
//! eligibility rule and start time. One replay loop, `replay`, re-runs
//! the placed assignments for the hidden-straggler, crash and gray-failure
//! passes: a per-slot free-time ledger, tasks in `(start, index)` order,
//! the makespan taken again. Every [`Assignment`] carries the slot it
//! occupies, so each pass queues a task behind exactly the tasks that
//! shared its slot.

use crate::chaos::ChaosPlan;
use crate::detector::{DetectorConfig, Verdict};
use crate::netsplit::PartitionPlan;
use crate::node::{Cluster, NodeId};
use crate::time::{SimDuration, SimTime};

/// Which slot pool a task occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SlotKind {
    /// A map slot.
    Map,
    /// A reduce slot.
    Reduce,
}

/// A schedulable task with placement-dependent cost.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Caller-assigned identifier, echoed in the [`Assignment`].
    pub id: usize,
    /// Slot pool.
    pub kind: SlotKind,
    /// Placement-independent cost (CPU, lookups, shuffle already charged).
    pub base: SimDuration,
    /// Bytes of input read at task start (0 if charged elsewhere).
    pub input_bytes: u64,
    /// Nodes holding a local replica of the input. Empty means the input is
    /// placement-neutral (charged as a local disk read).
    pub input_hosts: Vec<NodeId>,
    /// Index-locality affinity nodes (empty = no affinity).
    pub affinity: Vec<NodeId>,
    /// Extra cost incurred when the task does **not** run on an affinity
    /// node (e.g. remote index lookup transfer time).
    pub affinity_penalty: SimDuration,
    /// If true, the task may ONLY run on its affinity nodes — the hard
    /// co-location the paper's footnote 3 warns against (provided for the
    /// soft-vs-hard comparison experiment).
    pub hard_affinity: bool,
}

impl TaskSpec {
    /// A placement-neutral task.
    pub fn simple(id: usize, kind: SlotKind, base: SimDuration) -> Self {
        TaskSpec {
            id,
            kind,
            base,
            input_bytes: 0,
            input_hosts: Vec::new(),
            affinity: Vec::new(),
            affinity_penalty: SimDuration::ZERO,
            hard_affinity: false,
        }
    }

    /// True unless hard affinity confines the task to other nodes.
    fn may_run_on(&self, node: NodeId) -> bool {
        !self.hard_affinity || self.affinity.is_empty() || self.affinity.contains(&node)
    }

    /// What the planner prices: the known slowdowns only.
    fn duration_on(&self, node: NodeId, cluster: &Cluster) -> SimDuration {
        let mut d = self.base;
        if self.input_bytes > 0 {
            d += cluster.disk.read(self.input_bytes);
            if !self.input_hosts.is_empty() && !self.input_hosts.contains(&node) {
                d += cluster.network.transfer(self.input_bytes);
            }
        }
        if !self.affinity.is_empty() && !self.affinity.contains(&node) {
            d += self.affinity_penalty;
        }
        d.mul_f64(cluster.slowdown(node))
    }

    /// What an attempt launched after placement really takes: the hidden
    /// slowdown applies too.
    fn actual_duration_on(&self, node: NodeId, cluster: &Cluster) -> SimDuration {
        self.duration_on(node, cluster)
            .mul_f64(cluster.hidden_slowdown(node))
    }
}

/// The placement and timing of one task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// The task's caller-assigned id.
    pub task_id: usize,
    /// The node the task ran on.
    pub node: NodeId,
    /// The slot the task ran on, as an index into the phase's slots
    /// interleaved across nodes (slot `k` of node `n` is `k · nodes + n`).
    pub(crate) slot: usize,
    /// Virtual start time.
    pub start: SimTime,
    /// Virtual end time.
    pub end: SimTime,
    /// Zero-based wave index: position of the task in its slot's queue.
    pub wave: usize,
    /// True if the task ran on one of its input replica hosts.
    pub input_local: bool,
    /// True if the task ran on one of its affinity nodes (or had none).
    pub affinity_hit: bool,
    /// True if a speculative backup copy of this task won the race.
    pub speculated: bool,
}

impl Assignment {
    /// `task` running on `pick`, with the locality its node earns. Every
    /// placement and every move of an attempt builds its assignment here.
    fn at(task: &TaskSpec, pick: Pick, wave: usize, speculated: bool) -> Self {
        Assignment {
            task_id: task.id,
            node: pick.node,
            slot: pick.slot,
            start: pick.start,
            end: pick.end,
            wave,
            input_local: task.input_hosts.is_empty() || task.input_hosts.contains(&pick.node),
            affinity_hit: task.affinity.is_empty() || task.affinity.contains(&pick.node),
            speculated,
        }
    }
}

/// A scheduled phase.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    /// One assignment per task, in input order.
    pub assignments: Vec<Assignment>,
    /// Completion time of the last task.
    pub makespan: SimTime,
    /// Speculative backup copies launched (0 unless the cluster enables
    /// speculation and surprise stragglers appear).
    pub speculative_copies: usize,
    /// Failed first attempts retried on another node (flaky-node model).
    pub retried_tasks: usize,
    /// Attempts killed mid-run by a node crash and re-executed elsewhere
    /// (chaos plan; 0 under the quiet plan).
    pub crashed_attempts: usize,
    /// Task-level effects of the gray-failure replay (all zero under a
    /// quiet partition plan).
    pub partition: PartitionReplay,
}

/// Task-level bookkeeping of one gray-failure replay pass.
///
/// Node-level detector outcomes (suspected / refuted / confirmed counts,
/// re-replication intents) are *not* counted here — the runner derives
/// them once per job from [`DetectorConfig::assess_all`], so a job whose
/// map and reduce phases both replay the same plan does not double-count
/// per-node events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionReplay {
    /// Attempts re-placed onto a reachable node after their node was
    /// suspected (includes pre-dispatch migrations off suspected nodes).
    pub replaced_tasks: u64,
    /// Tasks whose result delivery waited for a partition that healed
    /// before the detector noticed it (a stall, never a suspicion).
    pub stalled_tasks: u64,
    /// Total virtual time results waited on heals.
    pub stall: SimDuration,
    /// Duplicate results reconciled exactly-once: a replaced task's
    /// original attempt (or a losing replacement) also completed, and its
    /// late answer was discarded.
    pub orphan_results: u64,
    /// Tasks stretched by a degraded (but connected) link.
    pub slowed_tasks: u64,
    /// Total virtual time added by link slowdowns.
    pub slowdown: SimDuration,
}

impl PartitionReplay {
    /// True when the replay changed nothing.
    pub fn is_empty(&self) -> bool {
        *self == PartitionReplay::default()
    }
}

impl Schedule {
    /// Fraction of tasks that read their input locally.
    pub fn input_locality(&self) -> f64 {
        if self.assignments.is_empty() {
            return 1.0;
        }
        let local = self.assignments.iter().filter(|a| a.input_local).count();
        local as f64 / self.assignments.len() as f64
    }
}

/// A slot, its node, and the span an attempt would occupy on it.
#[derive(Clone, Copy)]
struct Pick {
    slot: usize,
    node: NodeId,
    start: SimTime,
    end: SimTime,
}

/// The node of every slot of `kind`, interleaved across nodes (slot 0 of
/// every node, then slot 1, …) so ties in finish time spread tasks over
/// distinct machines.
fn slot_nodes(cluster: &Cluster, kind: SlotKind) -> Vec<NodeId> {
    let per_node = match kind {
        SlotKind::Map => cluster.map_slots(),
        SlotKind::Reduce => cluster.reduce_slots(),
    };
    (0..per_node).flat_map(|_| cluster.nodes()).collect()
}

/// The earliest-finish slot search every placement goes through.
///
/// An attempt may start on slot `j` at `free[j].max(floor)`; `finish(node,
/// start, strict)` is when it would end there, or `None` where the
/// caller's eligibility rule rules the node out. The strict rule is tried
/// first and relaxed only when it admits no slot; among the admitted slots
/// the first with the strictly smallest end wins.
fn earliest_finish(
    nodes: &[NodeId],
    free: &[SimTime],
    floor: SimTime,
    mut finish: impl FnMut(NodeId, SimTime, bool) -> Option<SimTime>,
) -> Option<Pick> {
    [true, false].into_iter().find_map(|strict| {
        let mut best: Option<Pick> = None;
        for (slot, (&node, &slot_free)) in nodes.iter().zip(free).enumerate() {
            let start = slot_free.max(floor);
            match finish(node, start, strict) {
                Some(end) if best.is_none_or(|b| end < b.end) => {
                    best = Some(Pick {
                        slot,
                        node,
                        start,
                        end,
                    });
                }
                _ => {}
            }
        }
        best
    })
}

/// The replay loop the straggler, crash and gray-failure passes share.
///
/// Takes the assignments in `(start, index)` order on a fresh per-slot
/// free-time ledger and queues each behind the tasks already replayed on
/// its slot: `step(task, assignment, start, end, free)` gets that start
/// and the planned end shifted to it, sets where and when the attempt
/// really runs, and books the slots it holds. Returns the makespan.
fn replay(
    tasks: &[TaskSpec],
    assignments: &mut [Assignment],
    phase_start: SimTime,
    slots: usize,
    mut step: impl FnMut(&TaskSpec, &mut Assignment, SimTime, SimTime, &mut [SimTime]),
) -> SimTime {
    let mut free = vec![phase_start; slots];
    let mut order: Vec<usize> = (0..assignments.len()).collect();
    order.sort_by_key(|&i| (assignments[i].start, i));
    let mut makespan = phase_start;
    for i in order {
        let assignment = &mut assignments[i];
        // Hidden delays only push tasks later, never earlier, so the
        // planned start is a floor on the replayed one.
        let start = assignment.start.max(free[assignment.slot]);
        let end = start + assignment.end.since(assignment.start);
        step(&tasks[i], assignment, start, end, &mut free);
        makespan = makespan.max(assignment.end);
    }
    makespan
}

/// Schedules `tasks` onto the cluster's slots of their kind, starting at
/// `phase_start`, and returns the resulting timeline.
///
/// Greedy earliest-slot-first with locality preference, approximating the
/// Hadoop JobTracker: the next free slot picks (1) a pending task with
/// affinity for the node, then (2) one with a local input replica, then (3)
/// the oldest pending task.
pub fn schedule_phase(cluster: &Cluster, tasks: &[TaskSpec], phase_start: SimTime) -> Schedule {
    schedule_phase_chaos(cluster, tasks, phase_start, &ChaosPlan::none())
}

/// [`schedule_phase`] with a node-crash plan replayed on top.
///
/// Planning is crash-blind (the JobTracker cannot foresee a death), exactly
/// like the hidden-straggler model: after placement, assignments are replayed
/// against the plan — an attempt interrupted mid-run is killed at the crash
/// instant and re-executed on the then-best surviving node, and tasks queued
/// on a dead node's slots migrate to survivors. With a quiet plan the replay
/// is skipped entirely, so the result is bit-identical to [`schedule_phase`].
pub fn schedule_phase_chaos(
    cluster: &Cluster,
    tasks: &[TaskSpec],
    phase_start: SimTime,
    chaos: &ChaosPlan,
) -> Schedule {
    let mut schedule = Schedule {
        assignments: Vec::with_capacity(tasks.len()),
        makespan: phase_start,
        ..Schedule::default()
    };
    let Some(first) = tasks.first() else {
        return schedule;
    };
    assert!(
        tasks.iter().all(|t| t.kind == first.kind),
        "a phase must be homogeneous in slot kind"
    );
    let nodes = slot_nodes(cluster, first.kind);
    let mut free = vec![phase_start; nodes.len()];
    let mut used = vec![0; nodes.len()];

    // Task-driven greedy (earliest-finish-time): each task, in submission
    // order, takes the slot where it finishes first. Placement-dependent
    // costs (remote input transfer, the index-locality affinity penalty)
    // are part of the finish time, so the scheduler weighs "wait for a
    // local/affine slot" against "run remotely now" with real prices —
    // the trade-off §3.4 describes without hard co-location. Nodes whose
    // tasks failed are avoided while any other slot is eligible (the
    // Hadoop JobTracker's per-job blacklist).
    let mut blacklisted: Vec<NodeId> = Vec::new();
    for task in tasks {
        let mut pick = earliest_finish(&nodes, &free, phase_start, |node, start, strict| {
            (task.may_run_on(node) && !(strict && blacklisted.contains(&node)))
                .then(|| start + task.duration_on(node, cluster))
        })
        .unwrap_or_else(|| {
            // Hard affinity to nodes outside the cluster: the first slot
            // to free up takes the task (the penalty applies).
            let slot = (0..free.len())
                .min_by_key(|&j| free[j])
                .expect("cluster has at least one slot");
            let (node, start) = (nodes[slot], free[slot]);
            let end = start + task.duration_on(node, cluster);
            Pick {
                slot,
                node,
                start,
                end,
            }
        });
        let wave = used[pick.slot];
        used[pick.slot] += 1;

        // Flaky-node model: the first attempt on a flaky node fails after
        // a fraction of its runtime; the retry goes to the then-best
        // OTHER node, preferring machines that are not themselves flaky
        // (Hadoop avoids the failed machine; a retry landing on another
        // flaky node would just fail again). Re-running where the attempt
        // just failed is guaranteed waste, so only with no other eligible
        // slot at all (single-node cluster, hard affinity) does the retry
        // stay on the failed slot.
        if let Some(fraction) = cluster.flaky_fraction(pick.node) {
            let failed = pick.node;
            if !blacklisted.contains(&failed) {
                blacklisted.push(failed);
            }
            let fail_at = pick.start + task.duration_on(failed, cluster).mul_f64(fraction);
            free[pick.slot] = fail_at;
            schedule.retried_tasks += 1;
            let retry = earliest_finish(&nodes, &free, fail_at, |node, start, strict| {
                (node != failed
                    && task.may_run_on(node)
                    && !(strict && cluster.flaky_fraction(node).is_some()))
                .then(|| start + task.duration_on(node, cluster))
            });
            pick = match retry {
                Some(retry) => {
                    used[retry.slot] += 1;
                    retry
                }
                None => Pick {
                    start: fail_at,
                    end: fail_at + task.duration_on(failed, cluster),
                    ..pick
                },
            };
        }
        free[pick.slot] = pick.end;
        schedule.makespan = schedule.makespan.max(pick.end);
        schedule
            .assignments
            .push(Assignment::at(task, pick, wave, false));
    }

    // --- Surprise stragglers & speculative execution. ---
    // The plan above priced only the *known* slowdowns. Hidden slowdowns
    // stretch the actual runtimes after placement, and a stretched task
    // delays every later task queued on its slot, so multi-wave phases
    // feel a straggler across all of its waves. With speculation on, a
    // backup copy launches once a task overruns its planned finish, and
    // the earlier finisher wins (Hadoop 1.x backup tasks). Backups are
    // priced on a separate ledger of the planned slot frees (healthy slots
    // free up as planned) — they cap their victim's finish without
    // delaying planned tasks, an approximation of the JobTracker killing
    // slow copies promptly.
    if cluster.nodes().any(|n| cluster.hidden_slowdown(n) > 1.0) {
        let mut backup_free = free;
        schedule.makespan = replay(
            tasks,
            &mut schedule.assignments,
            phase_start,
            nodes.len(),
            |task, assignment, start, planned_end, free| {
                let slot = assignment.slot;
                let hidden = cluster.hidden_slowdown(assignment.node);
                let actual_end = start + planned_end.since(start).mul_f64(hidden);
                assignment.start = start;
                assignment.end = actual_end;
                if hidden > 1.0 && cluster.speculation_enabled() {
                    // The JobTracker notices the overrun at the planned
                    // finish and launches a backup on the then-freest
                    // healthy slot.
                    let backup = (0..nodes.len())
                        .filter(|&j| cluster.hidden_slowdown(nodes[j]) <= 1.0)
                        .min_by_key(|&j| backup_free[j]);
                    if let Some(j) = backup {
                        let bstart = planned_end.max(backup_free[j]);
                        let bend = bstart + task.actual_duration_on(nodes[j], cluster);
                        backup_free[j] = bend;
                        schedule.speculative_copies += 1;
                        if bend < actual_end {
                            let pick = Pick {
                                slot: j,
                                node: nodes[j],
                                start: bstart,
                                end: bend,
                            };
                            *assignment = Assignment::at(task, pick, assignment.wave, true);
                        }
                    }
                }
                // The original slot is released at the winner's finish
                // (the loser copy is killed then).
                free[slot] = assignment.end;
            },
        );
    }

    // --- Node-crash replay. ---
    // Like the hidden-straggler pass, crashes are invisible to the planner;
    // the final assignments are replayed against the chaos plan. A task
    // whose node dies before it starts simply migrates; one interrupted
    // mid-run is killed at the crash instant (the wasted work stays on the
    // dead machine, which serves nothing afterwards anyway) and re-executed
    // on the surviving node where it finishes earliest — hard affinity
    // honoured first, relaxed only when it leaves no live candidate. The
    // plan is asked once here, outside the replay: a quiet plan skips the
    // whole pass, keeping EFT placement free of per-task crash checks.
    if !chaos.is_quiet() {
        schedule.makespan = replay(
            tasks,
            &mut schedule.assignments,
            phase_start,
            nodes.len(),
            |task, assignment, start, end, free| {
                let floor = match chaos.crash_time(assignment.node) {
                    Some(at) if at <= start => Some(start), // dead before launch
                    Some(at) if at < end => {
                        // Killed mid-run: attempt wasted up to the crash.
                        schedule.crashed_attempts += 1;
                        Some(at)
                    }
                    _ => None,
                };
                let survivor = floor.and_then(|floor| {
                    earliest_finish(&nodes, free, floor, |node, start, strict| {
                        let end = start + task.actual_duration_on(node, cluster);
                        let survives = chaos.crash_time(node).is_none_or(|at| at >= end);
                        (survives && (!strict || task.may_run_on(node))).then_some(end)
                    })
                });
                // A plan may only kill a strict subset of the nodes
                // (`ChaosPlan::seeded` guarantees a survivor), so a
                // candidate always exists; if a hand-built plan kills
                // everything, the attempt finishes on its original node as
                // if the crash arrived just after.
                match survivor {
                    Some(pick) => {
                        *assignment =
                            Assignment::at(task, pick, assignment.wave, assignment.speculated);
                    }
                    None => {
                        assignment.start = start;
                        assignment.end = end;
                    }
                }
                free[assignment.slot] = assignment.end;
            },
        );
    }
    schedule
}

/// [`schedule_phase_chaos`] with a gray-failure plan replayed on top,
/// through the heartbeat detector instead of an omniscient master.
///
/// Planning stays failure-blind; after the crash replay, assignments are
/// replayed against the partition plan. Unlike a crash, an isolated node
/// keeps *executing* — only visibility is cut — so three outcomes exist:
///
/// * **Stall** — the partition heals before the detector fires: the task
///   finishes on its node and its result merely arrives at the heal.
/// * **Replace + reconcile** — the node is suspected: the attempt is
///   re-placed on a reachable node at the suspicion instant. If the node
///   later rejoins (refuted suspicion, or a slow-link false positive),
///   both attempts complete and the later answer is discarded — counted
///   as an orphan, applied exactly once.
/// * **Gone** — the partition never heals (confirmed): only the
///   replacement's result ever lands.
///
/// Link slowdowns stretch the affected span of a task's runtime. With a
/// quiet partition plan the whole pass is skipped, bit-identical to
/// [`schedule_phase_chaos`].
pub fn schedule_phase_gray(
    cluster: &Cluster,
    tasks: &[TaskSpec],
    phase_start: SimTime,
    chaos: &ChaosPlan,
    partition: &PartitionPlan,
    detector: &DetectorConfig,
) -> Schedule {
    let mut schedule = schedule_phase_chaos(cluster, tasks, phase_start, chaos);
    if partition.is_quiet() || tasks.is_empty() {
        return schedule;
    }
    let nodes = slot_nodes(cluster, tasks[0].kind);
    let suspicions = detector.assess_all(partition, cluster.num_nodes());
    let suspicion_of = |node: NodeId| suspicions.iter().find(|s| s.node == node).copied();
    // Extra runtime a degraded link adds to a span `[start, end)` on
    // `node` — the stretch applies only to the overlapping portion.
    let link_stretch = |node: NodeId, start: SimTime, end: SimTime| -> SimDuration {
        match partition.slow_window(node) {
            Some(s) if s.factor > 1.0 => {
                let hi = s.heal.map_or(end, |h| end.min(h));
                hi.since(start.max(s.start)).mul_f64(s.factor - 1.0)
            }
            _ => SimDuration::ZERO,
        }
    };
    let replayed = &mut schedule.partition;
    schedule.makespan = replay(
        tasks,
        &mut schedule.assignments,
        phase_start,
        nodes.len(),
        |task, assignment, start, end, free| {
            let home = assignment.node;
            // Degraded link: the overlapping span runs `factor`× slower.
            let stretch = link_stretch(home, start, end);
            let end = end + stretch;
            if !stretch.is_zero() {
                replayed.slowed_tasks += 1;
                replayed.slowdown += stretch;
            }
            assignment.start = start;
            assignment.end = end;
            free[assignment.slot] = end;

            let window = partition.isolation_window(home);
            let suspicion = suspicion_of(home);
            // Tasks fully delivered before any impairment opened are
            // untouched; so are tasks on never-impaired nodes.
            let affected_from = match (window, suspicion) {
                (Some((ps, _)), _) => Some(ps),
                (None, Some(s)) => Some(s.suspect_at), // slow-link false positive
                (None, None) => None,
            };
            // A task dispatched after the node rejoined runs on a full
            // member again — suspicion is history by then.
            let rejoined_before_start = suspicion.is_some_and(|s| match s.verdict {
                Verdict::Refuted { rejoin_at } => start >= rejoin_at,
                Verdict::Confirmed => false,
            });
            if affected_from.filter(|&f| end > f).is_none() || rejoined_before_start {
                return;
            }
            let Some(s) = suspicion else {
                // Isolation healed before the detector noticed: the task
                // keeps its node and its result waits for the heal.
                let heal = window
                    .and_then(|(_, h)| h)
                    .expect("undetected impairment must heal");
                if end < heal {
                    replayed.stall += heal.since(end);
                    replayed.stalled_tasks += 1;
                    assignment.end = heal;
                }
                return;
            };
            // When (if ever) the original attempt's result becomes visible
            // to the master: at its physical end once the node is back,
            // never for a confirmed partition.
            let orig_visible = match (window, s.verdict) {
                (Some(_), Verdict::Confirmed) => None,
                (Some(_), Verdict::Refuted { rejoin_at }) => Some(end.max(rejoin_at)),
                // False positive: the node was reachable all along.
                (None, _) => Some(end),
            };
            // Dispatched before suspicion? Then work ran (and may produce
            // an orphan). At or after suspicion the master simply routes
            // the task elsewhere — nothing to orphan.
            let ran_on_suspect = start < s.suspect_at;
            if !ran_on_suspect {
                free[assignment.slot] = start;
            }
            // Re-place at the suspicion instant on another node that is
            // reachable and alive for the whole candidate attempt; hard
            // affinity is honoured first, then relaxed.
            let floor = s.suspect_at.max(start);
            let replacement = earliest_finish(&nodes, free, floor, |node, start, strict| {
                let mut duration = task.actual_duration_on(node, cluster);
                duration += link_stretch(node, start, start + duration);
                let end = start + duration;
                let usable = node != home
                    && !partition.is_isolated_at(node, start)
                    && !partition.is_isolated_at(node, end)
                    && chaos.crash_time(node).is_none_or(|at| at >= end);
                (usable && (!strict || task.may_run_on(node))).then_some(end)
            });
            let Some(pick) = replacement else {
                // Nothing reachable to re-place onto: wait out the
                // original if it can ever deliver (the runner turns truly
                // total isolation into `Error::Partitioned`).
                if let Some(v) = orig_visible.filter(|_| ran_on_suspect) {
                    assignment.end = v;
                }
                return;
            };
            replayed.replaced_tasks += 1;
            match orig_visible {
                // Original's answer lands first: replacement killed on
                // arrival, its work reconciled away.
                Some(v) if v <= pick.end => {
                    if ran_on_suspect {
                        assignment.end = v;
                    }
                    replayed.orphan_results += 1;
                    free[pick.slot] = free[pick.slot].max(v.min(pick.end));
                }
                // Replacement wins; a rejoining original that also ran
                // delivers a late duplicate.
                other => {
                    if other.is_some() && ran_on_suspect {
                        replayed.orphan_results += 1;
                    }
                    *assignment =
                        Assignment::at(task, pick, assignment.wave, assignment.speculated);
                    free[pick.slot] = pick.end;
                }
            }
        },
    );
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Cluster {
        Cluster::builder()
            .nodes(2)
            .map_slots(2)
            .reduce_slots(1)
            .build()
    }

    fn task(id: usize, millis: u64) -> TaskSpec {
        TaskSpec::simple(id, SlotKind::Map, SimDuration::from_millis(millis))
    }

    #[test]
    fn empty_phase() {
        let s = schedule_phase(&small_cluster(), &[], SimTime::ZERO);
        assert!(s.assignments.is_empty());
        assert_eq!(s.makespan, SimTime::ZERO);
    }

    #[test]
    fn parallel_tasks_overlap() {
        let c = small_cluster(); // 4 map slots total
        let tasks: Vec<_> = (0..4).map(|i| task(i, 10)).collect();
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(10));
        assert!(s.assignments.iter().all(|a| a.wave == 0));
    }

    #[test]
    fn waves_form_when_tasks_exceed_slots() {
        let c = small_cluster();
        let tasks: Vec<_> = (0..8).map(|i| task(i, 10)).collect();
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(20));
        assert_eq!(s.assignments.iter().filter(|a| a.wave == 0).count(), 4);
    }

    #[test]
    fn phase_start_offsets_everything() {
        let c = small_cluster();
        let start = SimTime::ZERO + SimDuration::from_secs(5);
        let s = schedule_phase(&c, &[task(0, 10)], start);
        assert_eq!(s.assignments[0].start, start);
        assert_eq!(s.makespan, start + SimDuration::from_millis(10));
    }

    #[test]
    fn input_locality_is_preferred_and_cheaper() {
        let c = small_cluster();
        let mk = |id: usize, host: u16| TaskSpec {
            id,
            kind: SlotKind::Map,
            base: SimDuration::from_millis(1),
            input_bytes: 12_000_000, // 0.1 s local read at 120 MB/s
            input_hosts: vec![NodeId(host)],
            affinity: Vec::new(),
            affinity_penalty: SimDuration::ZERO,
            hard_affinity: false,
        };
        // Two tasks per node, matching the two slots per node.
        let tasks = vec![mk(0, 0), mk(1, 0), mk(2, 1), mk(3, 1)];
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        assert_eq!(s.input_locality(), 1.0, "{:?}", s.assignments);
        for a in &s.assignments {
            assert!(a.input_local);
        }
    }

    #[test]
    fn remote_input_pays_network_transfer() {
        // One node holds all inputs but tasks outnumber its slots, so some
        // run remotely and take longer.
        let c = Cluster::builder().nodes(2).map_slots(1).build();
        let mk = |id: usize| TaskSpec {
            id,
            kind: SlotKind::Map,
            base: SimDuration::ZERO,
            input_bytes: 120_000_000, // 1 s local read
            input_hosts: vec![NodeId(0)],
            affinity: Vec::new(),
            affinity_penalty: SimDuration::ZERO,
            hard_affinity: false,
        };
        let tasks = vec![mk(0), mk(1)];
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        let durations: Vec<f64> = s
            .assignments
            .iter()
            .map(|a| a.end.since(a.start).as_secs_f64())
            .collect();
        let local = durations.iter().cloned().fold(f64::MAX, f64::min);
        let remote = durations.iter().cloned().fold(0.0, f64::max);
        assert!((local - 1.0).abs() < 1e-6);
        assert!(remote > 1.9, "remote read should add ~0.96 s: {remote}");
    }

    #[test]
    fn affinity_steers_placement() {
        let c = Cluster::builder().nodes(4).map_slots(1).build();
        let mk = |id: usize, node: u16| TaskSpec {
            id,
            kind: SlotKind::Map,
            base: SimDuration::from_millis(10),
            input_bytes: 0,
            input_hosts: Vec::new(),
            affinity: vec![NodeId(node)],
            affinity_penalty: SimDuration::from_secs(10),
            hard_affinity: false,
        };
        let tasks = vec![mk(0, 3), mk(1, 2), mk(2, 1), mk(3, 0)];
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        for a in &s.assignments {
            assert!(a.affinity_hit, "task {} on {}", a.task_id, a.node);
        }
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn affinity_miss_pays_penalty() {
        let c = Cluster::builder().nodes(1).map_slots(1).build();
        let t = TaskSpec {
            id: 0,
            kind: SlotKind::Map,
            base: SimDuration::from_millis(1),
            input_bytes: 0,
            input_hosts: Vec::new(),
            affinity: vec![NodeId(5)], // not in this cluster
            affinity_penalty: SimDuration::from_millis(99),
            hard_affinity: false,
        };
        let s = schedule_phase(&c, &[t], SimTime::ZERO);
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(100));
        assert!(!s.assignments[0].affinity_hit);
    }

    #[test]
    fn degraded_nodes_are_avoided_when_possible() {
        let c = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .degrade(NodeId(0), 10.0)
            .build();
        // Two tasks, two slots: both finish fastest if the second waits
        // for the healthy node? No — EFT compares 10x-now vs 1x-queued.
        let tasks = vec![task(0, 100), task(1, 100)];
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        // One runs on node1 at 100ms; the other either waits (200ms) or
        // runs degraded (1000ms) — EFT picks waiting.
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(200));
        assert!(s.assignments.iter().all(|a| a.node == NodeId(1)));
    }

    #[test]
    fn hard_affinity_pins_despite_degradation() {
        let c = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .degrade(NodeId(0), 10.0)
            .build();
        let mk = |id: usize, hard: bool| TaskSpec {
            id,
            kind: SlotKind::Map,
            base: SimDuration::from_millis(100),
            input_bytes: 0,
            input_hosts: Vec::new(),
            affinity: vec![NodeId(0)],
            affinity_penalty: SimDuration::from_millis(10),
            hard_affinity: hard,
        };
        // Soft: pays the 10ms penalty on node1 rather than 10x on node0.
        let soft = schedule_phase(&c, &[mk(0, false)], SimTime::ZERO);
        assert_eq!(soft.assignments[0].node, NodeId(1));
        assert_eq!(soft.makespan, SimTime::ZERO + SimDuration::from_millis(110));
        // Hard: stuck on the degraded node.
        let hard = schedule_phase(&c, &[mk(0, true)], SimTime::ZERO);
        assert_eq!(hard.assignments[0].node, NodeId(0));
        assert_eq!(hard.makespan, SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn hidden_stragglers_stretch_the_makespan() {
        let c = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .degrade_hidden(NodeId(0), 10.0)
            .build();
        // EFT cannot see the hidden slowdown, so it spreads the two tasks.
        let tasks = vec![task(0, 100), task(1, 100)];
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(s.speculative_copies, 0);
    }

    #[test]
    fn speculation_rescues_hidden_stragglers() {
        let c = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .degrade_hidden(NodeId(0), 10.0)
            .speculation(true)
            .build();
        let tasks = vec![task(0, 100), task(1, 100)];
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        // The straggling copy is noticed at t=100ms and re-run on node1
        // (free at 100ms): finishes at 200ms instead of 1s.
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(200));
        assert_eq!(s.speculative_copies, 1);
        assert!(s.assignments.iter().any(|a| a.speculated));
    }

    #[test]
    fn speculation_keeps_the_original_when_it_wins() {
        // Mild hidden slowdown: the original still finishes before a
        // backup could; the backup is launched but loses the race.
        let c = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .degrade_hidden(NodeId(0), 1.5)
            .speculation(true)
            .build();
        let tasks = vec![task(0, 100), task(1, 100)];
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(150));
        assert!(s.assignments.iter().all(|a| !a.speculated));
    }

    #[test]
    fn backup_win_recomputes_locality_fields() {
        // The original lands on node0 (local input + affinity, hidden 10x
        // slowdown); the backup wins on node1, so the assignment's
        // `input_local` and `affinity_hit` must be recomputed for the
        // *winning* node — stats derived from them (locality rates,
        // affinity hits) would otherwise credit the dead copy's placement.
        let c = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .degrade_hidden(NodeId(0), 10.0)
            .speculation(true)
            .build();
        let t = TaskSpec {
            id: 0,
            kind: SlotKind::Map,
            base: SimDuration::from_millis(100),
            input_bytes: 12_000_000, // 0.1 s local read
            input_hosts: vec![NodeId(0)],
            affinity: vec![NodeId(0)],
            affinity_penalty: SimDuration::from_millis(50),
            hard_affinity: false,
        };
        let s = schedule_phase(&c, &[t], SimTime::ZERO);
        let a = &s.assignments[0];
        assert!(a.speculated, "backup should win against a 10x straggler");
        assert_eq!(a.node, NodeId(1));
        assert!(!a.input_local, "locality must reflect the winning node");
        assert!(!a.affinity_hit, "affinity must reflect the winning node");
        assert_eq!(s.speculative_copies, 1);
        // Far better than the 2 s straggling original.
        assert!(s.makespan < SimTime::ZERO + SimDuration::from_secs(1));
    }

    #[test]
    fn losing_backups_are_counted_but_change_nothing() {
        // Mild hidden slowdown: backups launch (the JobTracker cannot
        // know they will lose) but the originals win — the accounting
        // must show the wasted copies while every assignment keeps its
        // original placement and the makespan matches a run without
        // speculation.
        let build = |spec: bool| {
            Cluster::builder()
                .nodes(2)
                .map_slots(1)
                .degrade_hidden(NodeId(0), 1.5)
                .speculation(spec)
                .build()
        };
        let tasks = vec![task(0, 100), task(1, 100)];
        let with = schedule_phase(&build(true), &tasks, SimTime::ZERO);
        let without = schedule_phase(&build(false), &tasks, SimTime::ZERO);
        assert!(with.speculative_copies > 0, "backups must be accounted");
        assert_eq!(without.speculative_copies, 0);
        assert_eq!(with.makespan, without.makespan, "losing backups are free");
        assert!(with.assignments.iter().all(|a| !a.speculated));
        assert_eq!(
            with.assignments.iter().map(|a| a.node).collect::<Vec<_>>(),
            without
                .assignments
                .iter()
                .map(|a| a.node)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn retry_prefers_healthy_nodes_over_other_flaky_ones() {
        // node0 and node1 are both flaky; the retry of a task that failed
        // on node0 must skip node1 (it would just fail again) and land on
        // the healthy node2, even though all are equally free.
        let c = Cluster::builder()
            .nodes(3)
            .map_slots(1)
            .flaky(NodeId(0), 0.5)
            .flaky(NodeId(1), 0.5)
            .build();
        let s = schedule_phase(&c, &[task(0, 100)], SimTime::ZERO);
        assert_eq!(s.retried_tasks, 1);
        assert_eq!(s.assignments[0].node, NodeId(2));

        // With no healthy machine left, the second pass admits the other
        // flaky node rather than deadlocking.
        let all_flaky = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .flaky(NodeId(0), 0.5)
            .flaky(NodeId(1), 0.5)
            .build();
        let s = schedule_phase(&all_flaky, &[task(0, 100)], SimTime::ZERO);
        assert_eq!(s.retried_tasks, 1);
        assert_eq!(s.assignments[0].node, NodeId(1));
    }

    #[test]
    fn hard_affinity_retry_falls_back_to_the_failed_node() {
        // A hard-affine task can only run on its (flaky) affinity node:
        // the retry finds no eligible other machine and must re-run on
        // the same node after the failed attempt's wasted time.
        let c = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .flaky(NodeId(0), 0.5)
            .build();
        let t = TaskSpec {
            id: 0,
            kind: SlotKind::Map,
            base: SimDuration::from_millis(100),
            input_bytes: 0,
            input_hosts: Vec::new(),
            affinity: vec![NodeId(0)],
            affinity_penalty: SimDuration::from_millis(10),
            hard_affinity: true,
        };
        let s = schedule_phase(&c, &[t], SimTime::ZERO);
        assert_eq!(s.retried_tasks, 1);
        assert_eq!(s.assignments[0].node, NodeId(0));
        // 50 ms wasted attempt + 100 ms clean retry.
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(150));
    }

    #[test]
    fn flaky_node_retries_elsewhere() {
        let c = Cluster::builder()
            .nodes(2)
            .map_slots(1)
            .flaky(NodeId(0), 0.5)
            .build();
        let tasks = vec![task(0, 100), task(1, 100)];
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        assert_eq!(s.retried_tasks, 1);
        // The failed attempt wastes 50 ms on node0 and blacklists it; the
        // retry runs on node1 (50–150 ms) and the second task follows
        // (150–250 ms).
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(250));
        // The surviving attempt of every task ran on the healthy node.
        assert!(s.assignments.iter().all(|a| a.node == NodeId(1)));
    }

    #[test]
    fn flaky_single_node_falls_back_to_same_node_retry() {
        let c = Cluster::builder()
            .nodes(1)
            .map_slots(1)
            .flaky(NodeId(0), 0.25)
            .build();
        let s = schedule_phase(&c, &[task(0, 100)], SimTime::ZERO);
        assert_eq!(s.retried_tasks, 1);
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(125));
    }

    #[test]
    fn all_flaky_cluster_retries_avoid_each_tasks_failed_node() {
        // Regression: with EVERY node flaky the fallback pass admits flaky
        // machines, but it must never land a retry back on the node where
        // that task's first attempt just failed.
        let c = Cluster::builder()
            .nodes(3)
            .map_slots(1)
            .flaky(NodeId(0), 0.5)
            .flaky(NodeId(1), 0.5)
            .flaky(NodeId(2), 0.5)
            .build();
        // Single task: first attempt lands on node0 and fails there.
        let s = schedule_phase(&c, &[task(0, 100)], SimTime::ZERO);
        assert_eq!(s.retried_tasks, 1);
        assert_ne!(s.assignments[0].node, NodeId(0));
        // Two tasks: task0 fails on node0 and retries on node1; task1
        // (node0 blacklisted) fails on node2 and retries on node0 — a
        // *different* flaky node is acceptable, its own failed one is not.
        let s = schedule_phase(&c, &[task(0, 100), task(1, 100)], SimTime::ZERO);
        assert_eq!(s.retried_tasks, 2);
        assert_eq!(s.assignments[0].node, NodeId(1));
        assert_eq!(s.assignments[1].node, NodeId(0));
    }

    #[test]
    fn quiet_chaos_plan_changes_nothing() {
        let c = Cluster::builder()
            .nodes(3)
            .map_slots(2)
            .flaky(NodeId(1), 0.5)
            .degrade_hidden(NodeId(2), 2.0)
            .speculation(true)
            .build();
        let tasks: Vec<_> = (0..10).map(|i| task(i, 10 + i as u64)).collect();
        let plain = schedule_phase(&c, &tasks, SimTime::ZERO);
        let quiet = schedule_phase_chaos(&c, &tasks, SimTime::ZERO, &ChaosPlan::none());
        assert_eq!(plain.assignments, quiet.assignments);
        assert_eq!(plain.makespan, quiet.makespan);
        assert_eq!(quiet.crashed_attempts, 0);
    }

    #[test]
    fn crash_mid_task_reexecutes_on_a_survivor() {
        let c = Cluster::builder().nodes(2).map_slots(1).build();
        // The task starts on node0 at t=0; node0 dies at 50 ms.
        let plan = ChaosPlan::new(7).kill(NodeId(0), SimTime::ZERO + SimDuration::from_millis(50));
        let s = schedule_phase_chaos(&c, &[task(0, 100)], SimTime::ZERO, &plan);
        assert_eq!(s.crashed_attempts, 1);
        assert_eq!(s.assignments[0].node, NodeId(1));
        // 50 ms wasted on the dead node, then a full re-execution.
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(150));
    }

    #[test]
    fn node_dead_before_launch_migrates_without_a_crashed_attempt() {
        let c = Cluster::builder().nodes(2).map_slots(1).build();
        let plan = ChaosPlan::new(7).kill(NodeId(0), SimTime::ZERO);
        let tasks = vec![task(0, 100), task(1, 100)];
        let s = schedule_phase_chaos(&c, &tasks, SimTime::ZERO, &plan);
        // Nothing ever ran on node0, so no attempt was wasted; both tasks
        // queue on the sole survivor.
        assert_eq!(s.crashed_attempts, 0);
        assert!(s.assignments.iter().all(|a| a.node == NodeId(1)));
        assert_eq!(s.makespan, SimTime::ZERO + SimDuration::from_millis(200));
    }

    #[test]
    fn chaos_replay_is_deterministic() {
        let c = Cluster::builder().nodes(4).map_slots(2).build();
        let tasks: Vec<_> = (0..16).map(|i| task(i, 10 + (i as u64 % 5) * 7)).collect();
        let plan = ChaosPlan::seeded(0xBADD, 4, 2, SimTime::ZERO, SimDuration::from_millis(40));
        let a = schedule_phase_chaos(&c, &tasks, SimTime::ZERO, &plan);
        let b = schedule_phase_chaos(&c, &tasks, SimTime::ZERO, &plan);
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.crashed_attempts, b.crashed_attempts);
        // No surviving assignment may sit on a node that was dead when the
        // attempt ran.
        for asg in &a.assignments {
            assert!(
                !plan.is_dead_at(asg.node, asg.start),
                "task {} placed on dead node {}",
                asg.task_id,
                asg.node
            );
        }
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let c = small_cluster();
        let tasks: Vec<_> = (0..5).map(|i| task(i, (i as u64 + 1) * 10)).collect();
        let s = schedule_phase(&c, &tasks, SimTime::ZERO);
        // Longest single task is 50 ms; makespan cannot be below that.
        assert!(s.makespan >= SimTime::ZERO + SimDuration::from_millis(50));
        // And cannot exceed the serial sum.
        assert!(s.makespan <= SimTime::ZERO + SimDuration::from_millis(150));
    }

    // --- Gray-failure replay. ---

    fn det() -> DetectorConfig {
        DetectorConfig {
            interval: SimDuration::from_millis(1),
            suspicion: SimDuration::from_millis(3),
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn quiet_partition_plan_changes_nothing() {
        let c = Cluster::builder()
            .nodes(3)
            .map_slots(2)
            .flaky(NodeId(1), 0.5)
            .degrade_hidden(NodeId(2), 2.0)
            .speculation(true)
            .build();
        let tasks: Vec<_> = (0..10).map(|i| task(i, 10 + i as u64)).collect();
        let chaos = ChaosPlan::new(3).kill(NodeId(2), at(15));
        let plain = schedule_phase_chaos(&c, &tasks, SimTime::ZERO, &chaos);
        let quiet = schedule_phase_gray(
            &c,
            &tasks,
            SimTime::ZERO,
            &chaos,
            &PartitionPlan::new(9),
            &det(),
        );
        assert_eq!(plain.assignments, quiet.assignments);
        assert_eq!(plain.makespan, quiet.makespan);
        assert!(quiet.partition.is_empty());
    }

    #[test]
    fn heal_before_detection_stalls_results_without_replacing() {
        let c = Cluster::builder().nodes(2).map_slots(1).build();
        // 100 ms task on node0; isolated [50 ms, 52 ms): shorter than the
        // 3 ms suspicion threshold is NOT — wait: the window must close
        // before start + suspect_delay = 53 ms for a stall.
        let plan = PartitionPlan::new(1).split(&[NodeId(0)], at(50), Some(at(52)));
        let s = schedule_phase_gray(
            &c,
            &[task(0, 100)],
            SimTime::ZERO,
            &ChaosPlan::none(),
            &plan,
            &det(),
        );
        // Task ends at 100 ms, after the heal: no stall, no replacement.
        assert!(s.partition.is_empty());
        assert_eq!(s.makespan, at(100));

        // A short task ending *inside* the window waits for the heal.
        let plan = PartitionPlan::new(1).split(&[NodeId(0)], at(8), Some(at(10)));
        let s = schedule_phase_gray(
            &c,
            &[task(0, 9)],
            SimTime::ZERO,
            &ChaosPlan::none(),
            &plan,
            &det(),
        );
        assert_eq!(s.partition.stalled_tasks, 1);
        assert_eq!(s.partition.replaced_tasks, 0);
        assert_eq!(s.partition.stall, SimDuration::from_millis(1));
        assert_eq!(s.assignments[0].node, NodeId(0));
        assert_eq!(s.makespan, at(10));
    }

    #[test]
    fn confirmed_partition_replaces_onto_a_reachable_node() {
        let c = Cluster::builder().nodes(2).map_slots(1).build();
        // node0 partitions away at 50 ms and never heals; suspicion at
        // 53 ms re-places the 100 ms task on node1.
        let plan = PartitionPlan::new(1).split(&[NodeId(0)], at(50), None);
        let s = schedule_phase_gray(
            &c,
            &[task(0, 100)],
            SimTime::ZERO,
            &ChaosPlan::none(),
            &plan,
            &det(),
        );
        assert_eq!(s.partition.replaced_tasks, 1);
        // Confirmed: the original's answer never lands, so no orphan.
        assert_eq!(s.partition.orphan_results, 0);
        assert_eq!(s.assignments[0].node, NodeId(1));
        assert_eq!(s.makespan, at(153));
    }

    #[test]
    fn refuted_partition_rejoins_and_reconciles_the_duplicate() {
        let c = Cluster::builder().nodes(2).map_slots(1).build();
        // node0 isolated [50 ms, 400 ms): suspected at 53 ms, replacement
        // runs 53–153 ms on node1 and wins; the original still finishes
        // at 100 ms on node0 and its answer lands at the 400 ms rejoin —
        // a duplicate, reconciled exactly-once.
        let plan = PartitionPlan::new(1).split(&[NodeId(0)], at(50), Some(at(400)));
        let s = schedule_phase_gray(
            &c,
            &[task(0, 100)],
            SimTime::ZERO,
            &ChaosPlan::none(),
            &plan,
            &det(),
        );
        assert_eq!(s.partition.replaced_tasks, 1);
        assert_eq!(s.partition.orphan_results, 1);
        assert_eq!(s.assignments[0].node, NodeId(1));
        assert_eq!(s.makespan, at(153));

        // Early heal: the original's answer (visible at the 120 ms
        // rejoin) beats the replacement (153 ms) — the node rejoined and
        // its in-flight result counts, the replacement is the orphan.
        let plan = PartitionPlan::new(1).split(&[NodeId(0)], at(50), Some(at(120)));
        let s = schedule_phase_gray(
            &c,
            &[task(0, 100)],
            SimTime::ZERO,
            &ChaosPlan::none(),
            &plan,
            &det(),
        );
        assert_eq!(s.partition.replaced_tasks, 1);
        assert_eq!(s.partition.orphan_results, 1);
        assert_eq!(s.assignments[0].node, NodeId(0));
        assert_eq!(s.makespan, at(120));
    }

    #[test]
    fn slow_link_stretches_and_can_falsely_suspect() {
        let c = Cluster::builder().nodes(2).map_slots(1).build();
        // A 2× link slowdown across the whole task: runtime doubles but
        // 2 ms stretched beats stay under the 3 ms threshold.
        let plan = PartitionPlan::new(1).slow_link(NodeId(0), at(0), None, 2.0);
        let s = schedule_phase_gray(
            &c,
            &[task(0, 100)],
            SimTime::ZERO,
            &ChaosPlan::none(),
            &plan,
            &det(),
        );
        assert_eq!(s.partition.slowed_tasks, 1);
        assert_eq!(s.partition.slowdown, SimDuration::from_millis(100));
        assert_eq!(s.partition.replaced_tasks, 0);
        assert_eq!(s.assignments[0].node, NodeId(0));
        assert_eq!(s.makespan, at(200));

        // A 5× slowdown starves heartbeats (5 ms > 3 ms): the healthy
        // node is falsely suspected at 3 ms, a redundant copy launches,
        // and whichever answer lands second is reconciled away.
        let plan = PartitionPlan::new(1).slow_link(NodeId(0), at(0), None, 5.0);
        let s = schedule_phase_gray(
            &c,
            &[task(0, 100)],
            SimTime::ZERO,
            &ChaosPlan::none(),
            &plan,
            &det(),
        );
        assert_eq!(s.partition.replaced_tasks, 1);
        assert_eq!(s.partition.orphan_results, 1);
        // The un-stretched replacement on node1 (3–103 ms) beats the
        // 500 ms stretched original.
        assert_eq!(s.assignments[0].node, NodeId(1));
        assert_eq!(s.makespan, at(103));
    }

    #[test]
    fn gray_replay_is_deterministic_and_composes_with_chaos() {
        let c = Cluster::builder().nodes(4).map_slots(2).build();
        let tasks: Vec<_> = (0..16).map(|i| task(i, 10 + (i as u64 % 5) * 7)).collect();
        let chaos = ChaosPlan::seeded(0xBADD, 4, 1, SimTime::ZERO, SimDuration::from_millis(40));
        let plan = PartitionPlan::seeded(0xEF1D, 4, 2, SimTime::ZERO, SimDuration::from_millis(60))
            .slow_link(NodeId(3), at(5), Some(at(25)), 3.0);
        let a = schedule_phase_gray(&c, &tasks, SimTime::ZERO, &chaos, &plan, &det());
        let b = schedule_phase_gray(&c, &tasks, SimTime::ZERO, &chaos, &plan, &det());
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn an_armed_partition_that_touches_no_task_changes_nothing() {
        // Node 1 is cut off over [1000 ms, 1001 ms), long after every task
        // has ended. Two tasks run side by side on each node's two slots,
        // and the gray pass must not queue one behind the other.
        let c = small_cluster();
        let tasks: Vec<_> = (0..4).map(|i| task(i, 10)).collect();
        let plan = PartitionPlan::new(1).split(&[NodeId(1)], at(1000), Some(at(1001)));
        let quiet = ChaosPlan::none();
        let chaos = schedule_phase_chaos(&c, &tasks, SimTime::ZERO, &quiet);
        let gray = schedule_phase_gray(&c, &tasks, SimTime::ZERO, &quiet, &plan, &det());
        assert_eq!(chaos.makespan, at(10));
        assert_eq!(gray.makespan, at(10));
        assert_eq!(gray.assignments, chaos.assignments);
        assert!(gray.partition.is_empty());
    }

    /// `(FNV-1a hash, text)` of everything a schedule reports except the
    /// slots: per assignment `id:node@start-end`, wave and the three flags,
    /// then makespan, speculative copies, retries, crashed attempts and the
    /// partition replay.
    fn fingerprint(s: &Schedule) -> (u64, String) {
        let mut text = String::new();
        for a in &s.assignments {
            text += &format!(
                "{}:n{}@{}-{}w{}{}{}{};",
                a.task_id,
                a.node.0,
                a.start.as_nanos(),
                a.end.as_nanos(),
                a.wave,
                a.input_local as u8,
                a.affinity_hit as u8,
                a.speculated as u8
            );
        }
        text += &format!(
            "|{}|{}|{}|{}|{:?}",
            s.makespan.as_nanos(),
            s.speculative_copies,
            s.retried_tasks,
            s.crashed_attempts,
            s.partition
        );
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        (hash, text)
    }

    #[test]
    fn every_pass_matches_its_pinned_schedule() {
        // Sixteen tasks on four nodes with {1, 3} map slots each, × a plain,
        // degraded, flaky, hidden-straggler-with-speculation or
        // hard-affinity cluster (tasks 0, 5, 10, 15 pinned to a node
        // outside it), × no chaos or a seeded crash, × no partition or a
        // seeded heal, a permanent cut, a short (stalling) cut and a slow
        // link that trips the detector. The literals were captured before
        // placement, retry, crash and gray passes shared one slot search
        // and one replay; EXPERIMENTS.md E30 says why the three-slot gray
        // rows and `3 slot, straggler, chaos` differ from those captures.
        const PINNED: &[(&str, u64)] = &[
            ("1 slot, plain, calm", 0xfeb6c2555a19fe26),
            ("1 slot, plain, calm, gray", 0x3b329369f0191ac0),
            ("1 slot, plain, chaos", 0xccc0b8ff6cda29e3),
            ("1 slot, plain, chaos, gray", 0x19f975a5eb6118c3),
            ("1 slot, degraded, calm", 0xffd07ce4468a3b1e),
            ("1 slot, degraded, calm, gray", 0xff97f03ee96191e6),
            ("1 slot, degraded, chaos", 0x6f722ef1c23772a7),
            ("1 slot, degraded, chaos, gray", 0x5de1e878f6cb329a),
            ("1 slot, flaky, calm", 0xc2ff58e78bebd294),
            ("1 slot, flaky, calm, gray", 0x21944f11431e91f7),
            ("1 slot, flaky, chaos", 0x0201f639ed38d009),
            ("1 slot, flaky, chaos, gray", 0x169aea7c0e80109c),
            ("1 slot, straggler, calm", 0x8ecd4209135ec7ed),
            ("1 slot, straggler, calm, gray", 0x514f0951bbafbbc9),
            ("1 slot, straggler, chaos", 0x6eebd9aaa96d51fb),
            ("1 slot, straggler, chaos, gray", 0xcb74b085043a4113),
            ("1 slot, hard, calm", 0x2462ce1b057120b1),
            ("1 slot, hard, calm, gray", 0x6ad49ae421d17b87),
            ("1 slot, hard, chaos", 0x1118d6a2d33787b8),
            ("1 slot, hard, chaos, gray", 0xbb6f2eecda9c03c2),
            ("3 slot, plain, calm", 0x723bb9256d6ae32e),
            ("3 slot, plain, calm, gray", 0x3e24a7dd5a92637b),
            ("3 slot, plain, chaos", 0xfec0597f89315c2e),
            ("3 slot, plain, chaos, gray", 0x1cd9460da1ed34ca),
            ("3 slot, degraded, calm", 0x4a527302c6e795d9),
            ("3 slot, degraded, calm, gray", 0x552b1483bc539363),
            ("3 slot, degraded, chaos", 0x32f6afca1a76145a),
            ("3 slot, degraded, chaos, gray", 0xda91df0b911ed09e),
            ("3 slot, flaky, calm", 0x9ba48905d3a805bc),
            ("3 slot, flaky, calm, gray", 0xe894d68517f0d725),
            ("3 slot, flaky, chaos", 0x04e260da4c80ca17),
            ("3 slot, flaky, chaos, gray", 0xf5e8101dc0e418dd),
            ("3 slot, straggler, calm", 0x21d6a06bcea4914e),
            ("3 slot, straggler, calm, gray", 0xc6f5ab10a6945403),
            ("3 slot, straggler, chaos", 0x85f516704f2bde41),
            ("3 slot, straggler, chaos, gray", 0xda29521622c85d82),
            ("3 slot, hard, calm", 0xd7b33a81d902d6fa),
            ("3 slot, hard, calm, gray", 0x655c52c355067ea7),
            ("3 slot, hard, chaos", 0x70b666da25f707ba),
            ("3 slot, hard, chaos, gray", 0xefc9a6a98f39e156),
        ];
        let tasks = |hard: bool| -> Vec<TaskSpec> {
            (0..16u16)
                .map(|i| TaskSpec {
                    id: i as usize,
                    kind: SlotKind::Map,
                    base: SimDuration::from_millis(4 + (i as u64 * 7) % 13),
                    input_bytes: 600_000 * (i as u64 % 3),
                    input_hosts: vec![NodeId(i % 4)],
                    affinity: if hard && i % 5 == 0 {
                        vec![NodeId(9)]
                    } else {
                        vec![NodeId(i * 3 % 4)]
                    },
                    affinity_penalty: SimDuration::from_millis(6),
                    hard_affinity: hard,
                })
                .collect()
        };
        let chaos_plans = [
            ("calm", ChaosPlan::none()),
            (
                "chaos",
                ChaosPlan::seeded(0xC4A0, 4, 1, at(0), SimDuration::from_millis(25)),
            ),
        ];
        let split = PartitionPlan::seeded(0xEF1D, 4, 1, at(0), SimDuration::from_millis(30))
            .split(&[NodeId(1)], at(12), None)
            .split(&[NodeId(2)], at(20), Some(at(22)))
            .slow_link(NodeId(3), at(5), Some(at(25)), 4.0);
        let partitions = [("", PartitionPlan::none()), (", gray", split)];
        let mut pinned = PINNED.iter();
        for slots in [1, 3] {
            for scenario in ["plain", "degraded", "flaky", "straggler", "hard"] {
                let b = Cluster::builder().nodes(4).map_slots(slots);
                let cluster = match scenario {
                    "degraded" => b.degrade(NodeId(1), 3.0),
                    "flaky" => b.flaky(NodeId(2), 0.4).flaky(NodeId(3), 0.5),
                    "straggler" => b.degrade_hidden(NodeId(0), 4.0).speculation(true),
                    _ => b,
                }
                .build();
                let tasks = tasks(scenario == "hard");
                for (chaos, plan) in &chaos_plans {
                    for (gray, partition) in &partitions {
                        let s = schedule_phase_gray(
                            &cluster,
                            &tasks,
                            SimTime::ZERO,
                            plan,
                            partition,
                            &det(),
                        );
                        let name = format!("{slots} slot, {scenario}, {chaos}{gray}");
                        let (hash, text) = fingerprint(&s);
                        assert_eq!(pinned.next(), Some(&(name.as_str(), hash)), "{text}");
                    }
                }
            }
        }
        assert_eq!(pinned.next(), None);
    }
}
