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
}

/// The placement and timing of one task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// The task's caller-assigned id.
    pub task_id: usize,
    /// The node the task ran on.
    pub node: NodeId,
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
    /// Ids of the tasks in wave 0 — the first task of every busy slot.
    ///
    /// The adaptive optimizer (§4.1) collects statistics from this wave
    /// before deciding whether to re-optimize the rest of the job.
    pub fn first_wave_ids(&self) -> Vec<usize> {
        self.assignments
            .iter()
            .filter(|a| a.wave == 0)
            .map(|a| a.task_id)
            .collect()
    }

    /// Completion time of the first wave (max end among wave-0 tasks).
    pub fn first_wave_end(&self) -> SimTime {
        self.assignments
            .iter()
            .filter(|a| a.wave == 0)
            .map(|a| a.end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Fraction of tasks that read their input locally.
    pub fn input_locality(&self) -> f64 {
        if self.assignments.is_empty() {
            return 1.0;
        }
        let local = self.assignments.iter().filter(|a| a.input_local).count();
        local as f64 / self.assignments.len() as f64
    }
}

#[derive(Clone, Copy)]
struct Slot {
    node: NodeId,
    free: SimTime,
    used: usize,
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
        speculative_copies: 0,
        retried_tasks: 0,
        crashed_attempts: 0,
        partition: PartitionReplay::default(),
    };
    if tasks.is_empty() {
        return schedule;
    }
    let kind = tasks[0].kind;
    assert!(
        tasks.iter().all(|t| t.kind == kind),
        "a phase must be homogeneous in slot kind"
    );
    let slots_per_node = match kind {
        SlotKind::Map => cluster.map_slots(),
        SlotKind::Reduce => cluster.reduce_slots(),
    };
    // Slots interleaved across nodes (slot 0 of every node, then slot 1,
    // …) so ties in finish time spread tasks over distinct machines.
    let mut slots: Vec<Slot> = (0..slots_per_node)
        .flat_map(|_| {
            cluster.nodes().map(|node| Slot {
                node,
                free: phase_start,
                used: 0,
            })
        })
        .collect();

    // Task-driven greedy (earliest-finish-time): each task, in submission
    // order, takes the slot where it finishes first. Placement-dependent
    // costs (remote input transfer, the index-locality affinity penalty)
    // are part of the finish time, so the scheduler weighs "wait for a
    // local/affine slot" against "run remotely now" with real prices —
    // the trade-off §3.4 describes without hard co-location.
    let mut assignments: Vec<Option<Assignment>> = vec![None; tasks.len()];
    // Which slot each task finally ran on — needed to replay per-slot
    // queues when hidden slowdowns stretch runtimes after placement.
    let mut assigned_slot: Vec<usize> = vec![0; tasks.len()];
    // Nodes whose tasks failed get blacklisted for the rest of the phase
    // (the Hadoop JobTracker's per-job blacklist).
    let mut blacklisted: Vec<NodeId> = Vec::new();
    for (task_idx, task) in tasks.iter().enumerate() {
        let mut best: Option<(SimTime, SimTime, usize)> = None; // (end, start, slot)
        for pass in 0..2 {
            for (slot_idx, slot) in slots.iter().enumerate() {
                // First pass avoids blacklisted nodes; a second pass
                // admits them if nothing else is eligible.
                if pass == 0 && blacklisted.contains(&slot.node) {
                    continue;
                }
                if task.hard_affinity
                    && !task.affinity.is_empty()
                    && !task.affinity.contains(&slot.node)
                {
                    continue;
                }
                let start = slot.free;
                let end = start + task.duration_on(slot.node, cluster);
                if best.is_none_or(|(bend, _, _)| end < bend) {
                    best = Some((end, start, slot_idx));
                }
            }
            if best.is_some() {
                break;
            }
        }
        let (mut end, start, slot_idx) = best.unwrap_or_else(|| {
            // Hard affinity to nodes outside the cluster: fall back to
            // any slot (the penalty applies).
            let slot = slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.free)
                .map(|(i, _)| i)
                .expect("cluster has at least one slot");
            let start = slots[slot].free;
            (
                start + task.duration_on(slots[slot].node, cluster),
                start,
                slot,
            )
        });
        let mut node = slots[slot_idx].node;
        let wave = slots[slot_idx].used;
        let mut attempt_start = start;
        let mut final_slot = slot_idx;

        // Flaky-node model: the first attempt on a flaky node fails after
        // a fraction of its runtime; the retry goes to the then-best
        // OTHER node, preferring machines that are not themselves flaky
        // (Hadoop avoids the failed machine; a retry landing on another
        // flaky node would just fail again).
        if let Some(fraction) = cluster.flaky_fraction(node) {
            if !blacklisted.contains(&node) {
                blacklisted.push(node);
            }
            let wasted = task.duration_on(node, cluster).mul_f64(fraction);
            let fail_at = start + wasted;
            slots[slot_idx].free = fail_at;
            slots[slot_idx].used += 1;
            schedule.retried_tasks += 1;
            // Retry placement in strict preference order: (1) a healthy
            // node other than the failed attempt's, (2) any OTHER node
            // even if flaky — it may fail again, but re-running where the
            // attempt just failed is guaranteed waste, so the fallback
            // pass must never land the retry back on the original node —
            // and only with no other eligible slot at all (single-node
            // cluster, hard affinity) (3) the original node itself.
            let mut retry_best: Option<(SimTime, SimTime, usize)> = None;
            for admit_flaky in [false, true] {
                for (i, slot) in slots.iter().enumerate() {
                    // Both passes exclude the first attempt's node.
                    if slot.node == node {
                        continue;
                    }
                    if !admit_flaky && cluster.flaky_fraction(slot.node).is_some() {
                        continue;
                    }
                    if task.hard_affinity
                        && !task.affinity.is_empty()
                        && !task.affinity.contains(&slot.node)
                    {
                        continue;
                    }
                    let rstart = slot.free.max(fail_at);
                    let rend = rstart + task.duration_on(slot.node, cluster);
                    if retry_best.is_none_or(|(bend, _, _)| rend < bend) {
                        retry_best = Some((rend, rstart, i));
                    }
                }
                if retry_best.is_some() {
                    break;
                }
            }
            if let Some((rend, rstart, rslot)) = retry_best {
                debug_assert_ne!(slots[rslot].node, node, "retry must avoid the failed node");
                node = slots[rslot].node;
                attempt_start = rstart;
                end = rend;
                final_slot = rslot;
                slots[rslot].free = rend;
                slots[rslot].used += 1;
            } else {
                // Single-node cluster: retry on the same node.
                attempt_start = fail_at;
                end = fail_at + task.duration_on(node, cluster);
                slots[slot_idx].free = end;
            }
        } else {
            slots[slot_idx].free = end;
            slots[slot_idx].used += 1;
        }

        assigned_slot[task_idx] = final_slot;
        assignments[task_idx] = Some(Assignment {
            task_id: task.id,
            node,
            start: attempt_start,
            end,
            wave,
            input_local: task.input_hosts.is_empty() || task.input_hosts.contains(&node),
            affinity_hit: task.affinity.is_empty() || task.affinity.contains(&node),
            speculated: false,
        });
        schedule.makespan = schedule.makespan.max(end);
    }

    schedule.assignments = assignments.into_iter().map(|a| a.unwrap()).collect();

    // --- Surprise stragglers & speculative execution. ---
    // The plan above priced only the *known* slowdowns. Hidden slowdowns
    // stretch the actual runtimes after placement; with speculation on, a
    // backup copy launches once a task overruns its planned finish, and
    // the earlier finisher wins (Hadoop 1.x backup tasks).
    let any_hidden = cluster.nodes().any(|n| cluster.hidden_slowdown(n) > 1.0);
    if any_hidden {
        // Replay each slot's queue with true runtimes: a stretched task
        // delays every later task queued on the same slot, so multi-wave
        // phases feel a straggler across all of its waves, not just the
        // first victim. Backup copies are priced on a separate per-slot
        // availability ledger (healthy slots free up as planned) — they
        // cap their victim's finish without delaying planned tasks, an
        // approximation of the JobTracker killing slow copies promptly.
        let mut slot_free: Vec<SimTime> = vec![phase_start; slots.len()];
        let mut backup_free: Vec<(NodeId, SimTime)> =
            slots.iter().map(|s| (s.node, s.free)).collect();
        let mut order: Vec<usize> = (0..schedule.assignments.len()).collect();
        order.sort_by_key(|&i| (schedule.assignments[i].start, i));
        schedule.makespan = phase_start;
        for i in order {
            let task = &tasks[i];
            let assignment = &mut schedule.assignments[i];
            let slot = assigned_slot[i];
            let planned = assignment.end.since(assignment.start);
            // Hidden delays only push tasks later, never earlier, so the
            // planned start is a floor on the replayed one.
            let start = assignment.start.max(slot_free[slot]);
            let hidden = cluster.hidden_slowdown(assignment.node);
            let actual_end = start + planned.mul_f64(hidden);
            assignment.start = start;
            assignment.end = actual_end;
            if hidden > 1.0 && cluster.speculation_enabled() {
                // The JobTracker notices the overrun at the planned
                // finish and launches a backup on the then-freest
                // healthy slot.
                let notice = start + planned;
                let backup = backup_free
                    .iter_mut()
                    .filter(|(n, _)| cluster.hidden_slowdown(*n) <= 1.0)
                    .min_by_key(|(_, free)| *free);
                if let Some((bnode, bfree)) = backup {
                    let bstart = notice.max(*bfree);
                    let bdur = task
                        .duration_on(*bnode, cluster)
                        .mul_f64(cluster.hidden_slowdown(*bnode));
                    let bend = bstart + bdur;
                    *bfree = bend;
                    schedule.speculative_copies += 1;
                    if bend < actual_end {
                        assignment.node = *bnode;
                        assignment.start = bstart;
                        assignment.end = bend;
                        assignment.speculated = true;
                        assignment.input_local =
                            task.input_hosts.is_empty() || task.input_hosts.contains(bnode);
                        assignment.affinity_hit =
                            task.affinity.is_empty() || task.affinity.contains(bnode);
                    }
                }
            }
            // The original slot is released at the winner's finish (the
            // loser copy is killed then).
            slot_free[slot] = slot_free[slot].max(assignment.end.min(actual_end));
            schedule.makespan = schedule.makespan.max(assignment.end);
        }
    }

    // --- Node-crash replay. ---
    // Like the hidden-straggler pass, crashes are invisible to the planner;
    // the final assignments are replayed against the chaos plan. A task
    // whose node dies before it starts simply migrates; one interrupted
    // mid-run is killed at the crash instant (the wasted work stays on the
    // dead machine, which serves nothing afterwards anyway) and re-executed
    // on the surviving node where it finishes earliest. The plan is asked
    // once here, outside the replay loop: a quiet plan skips the whole
    // pass, keeping EFT placement free of per-task crash checks.
    if !chaos.is_quiet() {
        let mut slot_free: Vec<SimTime> = vec![phase_start; slots.len()];
        let mut order: Vec<usize> = (0..schedule.assignments.len()).collect();
        order.sort_by_key(|&i| (schedule.assignments[i].start, i));
        schedule.makespan = phase_start;
        for i in order {
            let task = &tasks[i];
            let slot = assigned_slot[i];
            let assignment = &mut schedule.assignments[i];
            let planned = assignment.end.since(assignment.start);
            let start = assignment.start.max(slot_free[slot]);
            let end = start + planned;
            let crash = chaos.crash_time(assignment.node);
            let needs_move = match crash {
                Some(at) if at <= start => Some(start.max(at)), // dead before launch
                Some(at) if at < end => {
                    // Killed mid-run: attempt wasted up to the crash.
                    schedule.crashed_attempts += 1;
                    Some(at)
                }
                _ => None,
            };
            match needs_move {
                None => {
                    assignment.start = start;
                    assignment.end = end;
                    slot_free[slot] = end;
                }
                Some(floor) => {
                    // EFT over slots whose node survives the candidate
                    // attempt end-to-end; hard affinity is honoured first
                    // and relaxed only when it leaves no live candidate.
                    let mut best: Option<(SimTime, SimTime, usize)> = None;
                    for honour_affinity in [true, false] {
                        for (j, s) in slots.iter().enumerate() {
                            if honour_affinity
                                && task.hard_affinity
                                && !task.affinity.is_empty()
                                && !task.affinity.contains(&s.node)
                            {
                                continue;
                            }
                            let rstart = slot_free[j].max(floor);
                            let rdur = task
                                .duration_on(s.node, cluster)
                                .mul_f64(cluster.hidden_slowdown(s.node));
                            let rend = rstart + rdur;
                            if chaos.crash_time(s.node).is_some_and(|at| at < rend) {
                                continue;
                            }
                            if best.is_none_or(|(bend, _, _)| rend < bend) {
                                best = Some((rend, rstart, j));
                            }
                        }
                        if best.is_some() {
                            break;
                        }
                    }
                    // A plan may only kill a strict subset of the nodes
                    // (`ChaosPlan::seeded` guarantees a survivor), so a
                    // candidate always exists; if a hand-built plan kills
                    // everything, the attempt finishes on its original
                    // node as if the crash arrived just after.
                    if let Some((rend, rstart, rslot)) = best {
                        assignment.node = slots[rslot].node;
                        assignment.start = rstart;
                        assignment.end = rend;
                        assignment.input_local = task.input_hosts.is_empty()
                            || task.input_hosts.contains(&assignment.node);
                        assignment.affinity_hit =
                            task.affinity.is_empty() || task.affinity.contains(&assignment.node);
                        slot_free[rslot] = rend;
                    } else {
                        assignment.start = start;
                        assignment.end = end;
                        slot_free[slot] = end;
                    }
                }
            }
            schedule.makespan = schedule.makespan.max(assignment.end);
        }
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
    let kind = tasks[0].kind;
    let slots_per_node = match kind {
        SlotKind::Map => cluster.map_slots(),
        SlotKind::Reduce => cluster.reduce_slots(),
    };
    let slot_nodes: Vec<NodeId> = (0..slots_per_node).flat_map(|_| cluster.nodes()).collect();
    let mut slot_free: Vec<SimTime> = vec![phase_start; slot_nodes.len()];
    // A replacement may run on any node; track its slot occupancy on the
    // same ledger so replacements queue instead of stacking.
    let suspicions = detector.assess_all(partition, cluster.num_nodes());
    let suspicion_of = |node: NodeId| suspicions.iter().find(|s| s.node == node).copied();
    // Extra runtime a degraded link adds to a span `[start, end)` on
    // `node` — the stretch applies only to the overlapping portion.
    let link_stretch = |node: NodeId, start: SimTime, end: SimTime| -> SimDuration {
        match partition.slow_window(node) {
            Some(s) if s.factor > 1.0 => {
                let lo = start.max(s.start);
                let hi = match s.heal {
                    Some(h) => {
                        if end < h {
                            end
                        } else {
                            h
                        }
                    }
                    None => end,
                };
                hi.since(lo).mul_f64(s.factor - 1.0)
            }
            _ => SimDuration::ZERO,
        }
    };
    let mut order: Vec<usize> = (0..schedule.assignments.len()).collect();
    order.sort_by_key(|&i| (schedule.assignments[i].start, i));
    schedule.makespan = phase_start;
    for i in order {
        let task = &tasks[i];
        let assignment = &mut schedule.assignments[i];
        let slot = slot_nodes
            .iter()
            .position(|&n| n == assignment.node)
            .expect("assignment node has a slot");
        let planned = assignment.end.since(assignment.start);
        let start = assignment.start.max(slot_free[slot]);
        let mut end = start + planned;
        // Degraded link: the overlapping span runs `factor`× slower.
        let stretch = link_stretch(assignment.node, start, end);
        if !stretch.is_zero() {
            end += stretch;
            schedule.partition.slowed_tasks += 1;
            schedule.partition.slowdown += stretch;
        }
        assignment.start = start;
        assignment.end = end;

        let window = partition.isolation_window(assignment.node);
        let suspicion = suspicion_of(assignment.node);
        // Tasks fully delivered before any impairment opened are
        // untouched; so are tasks on never-impaired nodes.
        let affected_from = match (window, suspicion) {
            (Some((ps, _)), _) => Some(ps),
            (None, Some(s)) => Some(s.suspect_at), // slow-link false positive
            (None, None) => None,
        };
        // A task dispatched after the node rejoined runs on a full member
        // again — suspicion is history by then.
        let rejoined_before_start = suspicion.is_some_and(|s| match s.verdict {
            Verdict::Refuted { rejoin_at } => start >= rejoin_at,
            Verdict::Confirmed => false,
        });
        if affected_from.filter(|&f| end > f).is_none() || rejoined_before_start {
            slot_free[slot] = end;
            schedule.makespan = schedule.makespan.max(end);
            continue;
        }

        match suspicion {
            None => {
                // Isolation healed before the detector noticed: the task
                // keeps its node and its result waits for the heal.
                let heal = window
                    .and_then(|(_, h)| h)
                    .expect("undetected impairment must heal");
                slot_free[slot] = end;
                if end < heal {
                    schedule.partition.stall += heal.since(end);
                    schedule.partition.stalled_tasks += 1;
                    assignment.end = heal;
                }
            }
            Some(s) => {
                // When (if ever) the original attempt's result becomes
                // visible to the master: at its physical end once the
                // node is back, never for a confirmed partition.
                let orig_visible = match (window, s.verdict) {
                    (Some(_), Verdict::Confirmed) => None,
                    (Some(_), Verdict::Refuted { rejoin_at }) => Some(end.max(rejoin_at)),
                    // False positive: the node was reachable all along.
                    (None, _) => Some(end),
                };
                // Dispatched before suspicion? Then work ran (and may
                // produce an orphan). At or after suspicion the master
                // simply routes the task elsewhere — nothing to orphan.
                let ran_on_suspect = start < s.suspect_at;
                slot_free[slot] = if ran_on_suspect { end } else { start };
                // Re-place at the suspicion instant on a node that is
                // reachable for the whole candidate attempt; hard
                // affinity is honoured first, then relaxed.
                let floor = s.suspect_at.max(start);
                let mut best: Option<(SimTime, SimTime, usize)> = None;
                for honour_affinity in [true, false] {
                    for (j, &node) in slot_nodes.iter().enumerate() {
                        if node == assignment.node {
                            continue;
                        }
                        if honour_affinity
                            && task.hard_affinity
                            && !task.affinity.is_empty()
                            && !task.affinity.contains(&node)
                        {
                            continue;
                        }
                        let rstart = slot_free[j].max(floor);
                        let mut rdur = task
                            .duration_on(node, cluster)
                            .mul_f64(cluster.hidden_slowdown(node));
                        rdur += link_stretch(node, rstart, rstart + rdur);
                        let rend = rstart + rdur;
                        if partition.is_isolated_at(node, rstart)
                            || partition.is_isolated_at(node, rend)
                        {
                            continue;
                        }
                        if chaos.crash_time(node).is_some_and(|at| at < rend) {
                            continue;
                        }
                        if best.is_none_or(|(bend, _, _)| rend < bend) {
                            best = Some((rend, rstart, j));
                        }
                    }
                    if best.is_some() {
                        break;
                    }
                }
                match best {
                    Some((rend, rstart, rslot)) => {
                        schedule.partition.replaced_tasks += 1;
                        match orig_visible {
                            // Original's answer lands first: replacement
                            // killed on arrival, its work reconciled away.
                            Some(v) if v <= rend => {
                                if ran_on_suspect {
                                    assignment.end = v;
                                }
                                schedule.partition.orphan_results += 1;
                                slot_free[rslot] = slot_free[rslot].max(v.min(rend));
                            }
                            // Replacement wins; a rejoining original that
                            // also ran delivers a late duplicate.
                            other => {
                                if other.is_some() && ran_on_suspect {
                                    schedule.partition.orphan_results += 1;
                                }
                                assignment.node = slot_nodes[rslot];
                                assignment.start = rstart;
                                assignment.end = rend;
                                assignment.input_local = task.input_hosts.is_empty()
                                    || task.input_hosts.contains(&assignment.node);
                                assignment.affinity_hit = task.affinity.is_empty()
                                    || task.affinity.contains(&assignment.node);
                                slot_free[rslot] = rend;
                            }
                        }
                    }
                    // Nothing reachable to re-place onto: wait out the
                    // original if it can ever deliver (the runner turns
                    // truly total isolation into `Error::Partitioned`).
                    None => {
                        if let Some(v) = orig_visible {
                            if ran_on_suspect {
                                assignment.end = v;
                            }
                        }
                    }
                }
            }
        }
        schedule.makespan = schedule.makespan.max(assignment.end);
    }
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
        assert_eq!(s.first_wave_ids().len(), 4);
        assert_eq!(
            s.first_wave_end(),
            SimTime::ZERO + SimDuration::from_millis(10)
        );
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
}
