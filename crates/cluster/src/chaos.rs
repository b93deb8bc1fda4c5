//! Deterministic node-crash plans.
//!
//! A [`ChaosPlan`] decides — before the job starts, as a pure function of a
//! seed — which nodes die and at which virtual timestamps. Nothing about the
//! plan consults a wall clock or an RNG stream shared with other components,
//! so a pinned seed reproduces the exact same crash schedule on every run
//! (the same hash-draw idiom as the index fault layer).
//!
//! The plan is *descriptive*: it does not kill anything by itself. The
//! scheduler replays assignments against it ([`crate::sched::schedule_phase_chaos`])
//! and the DFS strips replicas from crashed hosts; both consult the plan
//! through the query methods here.

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use efind_common::det::draw_unit_u64;

/// One node death: `node` stops executing tasks and serving data at `at`.
///
/// A crash is permanent for the remainder of the run — there is no rejoin,
/// matching the MapReduce-era "declare dead after missed heartbeats" model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node that dies.
    pub node: NodeId,
    /// Virtual time of death.
    pub at: SimTime,
}

/// A deterministic schedule of node crashes for one run.
///
/// The quiet plan ([`ChaosPlan::none`]) is the default everywhere; code that
/// receives a quiet plan must behave bit-identically to code that never heard
/// of chaos at all.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    seed: u64,
    /// Sorted by `(at, node)`; at most one event per node.
    events: Vec<CrashEvent>,
}

impl ChaosPlan {
    /// The quiet plan: no node ever crashes.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan carrying a seed, to be populated with [`kill`](Self::kill).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// Adds (or moves) the crash of `node` to virtual time `at`.
    ///
    /// At most one crash per node is kept — a node dies once. Events are
    /// maintained sorted by `(at, node)`.
    pub fn kill(mut self, node: NodeId, at: SimTime) -> Self {
        self.events.retain(|e| e.node != node);
        self.events.push(CrashEvent { node, at });
        self.events.sort_by_key(|e| (e.at, e.node.0));
        self
    }

    /// Draws `crashes` distinct victims out of `num_nodes` nodes, each dying
    /// at a hash-drawn time inside `[window_start, window_start + window)`.
    ///
    /// Deterministic in `(seed, num_nodes, crashes, window)`. At least one
    /// node always survives: `crashes` is clamped to `num_nodes - 1`.
    pub fn seeded(
        seed: u64,
        num_nodes: u16,
        crashes: usize,
        window_start: SimTime,
        window: SimDuration,
    ) -> Self {
        let mut plan = Self::new(seed);
        if num_nodes <= 1 || window.is_zero() {
            return plan;
        }
        let crashes = crashes.min(num_nodes as usize - 1);
        let mut salt = 0u64;
        for i in 0..crashes {
            // Rejection-sample a node not yet in the plan; the salt makes
            // each rejection a fresh, still-deterministic draw.
            let node = loop {
                let u = draw_unit_u64(seed, "chaos.node", (i as u64) << 32 | salt);
                salt += 1;
                let cand = NodeId((u * num_nodes as f64) as u16 % num_nodes);
                if !plan.events.iter().any(|e| e.node == cand) {
                    break cand;
                }
            };
            let ut = draw_unit_u64(seed, "chaos.time", i as u64);
            let at = window_start + window.mul_f64(ut);
            plan = plan.kill(node, at);
        }
        plan
    }

    /// Seed the plan was built from (0 for the quiet plan).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no node ever crashes. The quiet plan must never change any
    /// virtual observable; the layer is armed only when at least one kill
    /// event is scheduled, and hot paths ask this outside their loops.
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty()
    }

    /// All crash events, sorted by `(time, node)`.
    pub fn events(&self) -> &[CrashEvent] {
        &self.events
    }

    /// When `node` dies, if ever.
    pub fn crash_time(&self, node: NodeId) -> Option<SimTime> {
        self.events.iter().find(|e| e.node == node).map(|e| e.at)
    }

    /// True when `node` is dead at (or before) virtual time `t`.
    pub fn is_dead_at(&self, node: NodeId, t: SimTime) -> bool {
        self.crash_time(node).is_some_and(|at| at <= t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_is_quiet() {
        // Configured-but-quiet is the production steady state: a plan
        // installed (seeded, ready to arm) but scheduling no kill.
        assert!(ChaosPlan::none().is_quiet());
        assert!(ChaosPlan::new(42).is_quiet());
        assert_eq!(ChaosPlan::none().crash_time(NodeId(0)), None);
        // One kill event arms the layer.
        assert!(!ChaosPlan::none()
            .kill(NodeId(0), SimTime::ZERO + SimDuration::from_millis(1))
            .is_quiet());
    }

    #[test]
    fn kill_keeps_events_sorted_and_deduped() {
        let plan = ChaosPlan::new(1)
            .kill(NodeId(3), SimTime::from_nanos(500))
            .kill(NodeId(1), SimTime::from_nanos(100))
            .kill(NodeId(3), SimTime::from_nanos(200));
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.events()[0].node, NodeId(1));
        assert_eq!(plan.events()[1].at, SimTime::from_nanos(200));
        assert!(plan.is_dead_at(NodeId(1), SimTime::from_nanos(100)));
        assert!(!plan.is_dead_at(NodeId(1), SimTime::from_nanos(99)));
    }

    #[test]
    fn seeded_is_deterministic_and_leaves_a_survivor() {
        let a = ChaosPlan::seeded(
            0xC0FFEE,
            4,
            10, // clamped to 3
            SimTime::ZERO,
            SimDuration::from_millis(100),
        );
        let b = ChaosPlan::seeded(
            0xC0FFEE,
            4,
            10,
            SimTime::ZERO,
            SimDuration::from_millis(100),
        );
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 3);
        let end = SimTime::ZERO + SimDuration::from_millis(100);
        let dead = (0..4).filter(|&n| a.is_dead_at(NodeId(n), end)).count();
        // One of the four nodes survives.
        assert_eq!(dead, 3);
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosPlan::seeded(1, 12, 2, SimTime::ZERO, SimDuration::from_secs_f64(1.0));
        let b = ChaosPlan::seeded(2, 12, 2, SimTime::ZERO, SimDuration::from_secs_f64(1.0));
        assert_ne!(a, b);
    }
}
