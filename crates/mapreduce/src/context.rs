//! Per-task execution context.
//!
//! User code (and the EFind chain elements wrapped around it) interacts
//! with the simulation through the context: it charges virtual time for
//! modeled operations (index serve time, network transfers, cache probes)
//! and declares index-locality affinity for the scheduler.
//!
//! Placement-dependent cost is charged through
//! [`TaskCtx::charge_affinity_penalty`]: the scheduler adds that amount
//! only when the task fails to land on one of its affinity nodes, which is
//! exactly the local-vs-remote lookup distinction of §3.4.

use efind_cluster::{NodeId, SimDuration};

use crate::counters::{Counters, Sketches};

/// Mutable per-task state threaded through every user function call.
#[derive(Debug)]
pub struct TaskCtx {
    task_id: usize,
    /// Task-local counters, merged into the job at task end.
    pub counters: Counters,
    /// Task-local FM sketches, merged into the job at task end.
    pub sketches: Sketches,
    cost: SimDuration,
    affinity: Vec<NodeId>,
    affinity_penalty: SimDuration,
    hard_affinity: bool,
    error: Option<String>,
}

impl TaskCtx {
    /// Creates a fresh context for task `task_id`.
    pub fn new(task_id: usize) -> Self {
        TaskCtx {
            task_id,
            counters: Counters::new(),
            sketches: Sketches::new(),
            cost: SimDuration::ZERO,
            affinity: Vec::new(),
            affinity_penalty: SimDuration::ZERO,
            hard_affinity: false,
            error: None,
        }
    }

    /// Reports a task failure. `Mapper::map` has no error channel (like
    /// Hadoop's `map()` throwing into the framework); the runner checks
    /// this after the task and fails the job. The first error wins: a
    /// chain runs record at a time, so of two stages that fail that is the
    /// first failure in record order, not the first in stage order.
    pub fn fail(&mut self, msg: impl Into<String>) {
        if self.error.is_none() {
            self.error = Some(msg.into());
        }
    }

    /// The recorded failure, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// The task's id within its phase.
    pub fn task_id(&self) -> usize {
        self.task_id
    }

    /// Charges placement-independent virtual time to the task.
    pub fn charge(&mut self, d: SimDuration) {
        self.cost += d;
    }

    /// Accumulated placement-independent cost.
    pub fn charged(&self) -> SimDuration {
        self.cost
    }

    /// Declares nodes on which this task's index lookups would be local.
    /// Later declarations extend the set.
    pub fn add_affinity(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            if !self.affinity.contains(&n) {
                self.affinity.push(n);
            }
        }
    }

    /// Charges cost incurred **only** when the task runs off its affinity
    /// nodes (e.g. the network leg of an index lookup).
    pub fn charge_affinity_penalty(&mut self, d: SimDuration) {
        self.affinity_penalty += d;
    }

    /// The declared affinity nodes.
    pub fn affinity(&self) -> &[NodeId] {
        &self.affinity
    }

    /// The accumulated off-affinity penalty.
    pub fn affinity_penalty(&self) -> SimDuration {
        self.affinity_penalty
    }

    /// Requires the task to run ON its affinity nodes (hard co-location;
    /// used only by the soft-vs-hard comparison experiment).
    pub fn require_affinity(&mut self) {
        self.hard_affinity = true;
    }

    /// True if hard co-location was requested.
    pub fn hard_affinity(&self) -> bool {
        self.hard_affinity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charging_accumulates() {
        let mut ctx = TaskCtx::new(3);
        assert_eq!(ctx.task_id(), 3);
        ctx.charge(SimDuration::from_millis(2));
        ctx.charge(SimDuration::from_millis(3));
        assert_eq!(ctx.charged(), SimDuration::from_millis(5));
    }

    #[test]
    fn affinity_dedups() {
        let mut ctx = TaskCtx::new(0);
        ctx.add_affinity(&[NodeId(1), NodeId(2)]);
        ctx.add_affinity(&[NodeId(2), NodeId(3)]);
        assert_eq!(ctx.affinity(), &[NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn penalty_separate_from_cost() {
        let mut ctx = TaskCtx::new(0);
        ctx.charge_affinity_penalty(SimDuration::from_millis(7));
        assert_eq!(ctx.charged(), SimDuration::ZERO);
        assert_eq!(ctx.affinity_penalty(), SimDuration::from_millis(7));
    }
}
