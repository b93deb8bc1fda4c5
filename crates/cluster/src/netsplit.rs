//! Deterministic network-partition plans.
//!
//! A [`PartitionPlan`] decides — before the job starts, as a pure function
//! of a seed — which nodes become unreachable over which virtual-time
//! windows, and which links merely slow down. It is the fourth seeded plan
//! in the family of `FaultPlan` (index faults), [`ChaosPlan`](crate::ChaosPlan)
//! (node crashes), and [`CorruptionPlan`](crate::CorruptionPlan) (bit
//! flips), built on the same shared draw helper ([`efind_common::det`]);
//! the quiet plan short-circuits everywhere and changes no virtual
//! observable.
//!
//! Partitions differ from crashes in two load-bearing ways:
//!
//! * **They can heal.** A [`PartitionEvent`] carries an optional `heal`
//!   time; inside `[start, heal)` the node keeps *executing* (its tasks
//!   run, its disks spin) but nothing it produces is visible to the rest
//!   of the cluster, and nothing reaches it. After `heal` it is a full
//!   member again — this is the first *transient* failure in the family.
//! * **They lose no data.** The DFS is never mutated by a partition: the
//!   replicas on an isolated node still exist, they are just unreachable.
//!   A partition that never heals and covers every replica of a needed
//!   chunk therefore surfaces as [`Error::Partitioned`]
//!   (`efind_common::Error::Partitioned`), not `DataLoss`.
//!
//! Like its siblings the plan is *descriptive*: it does not cut links by
//! itself. The scheduler replays assignments against it through the
//! [`DetectorConfig`](crate::detector::DetectorConfig) suspicion model,
//! and the runner defers fetches from isolated nodes until heal.

use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};
use efind_common::det::draw_unit_u64;

/// One partition event: every node in `nodes` is unreachable from the
/// rest of the cluster during `[start, heal)` (`heal = None` → forever).
///
/// Isolated nodes keep executing; only communication is cut. Events with
/// an empty effective window (`heal <= start`) are dropped at insertion —
/// a partition that heals before it starts never existed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionEvent {
    /// The isolated node set.
    pub nodes: Vec<NodeId>,
    /// Virtual time the partition opens.
    pub start: SimTime,
    /// Virtual time the partition heals; `None` means it never does.
    pub heal: Option<SimTime>,
}

impl PartitionEvent {
    /// True when `node` is in this event's isolated set at time `t`.
    pub fn isolates_at(&self, node: NodeId, t: SimTime) -> bool {
        self.start <= t && self.heal.is_none_or(|h| t < h) && self.nodes.contains(&node)
    }

    /// True when the event never heals.
    pub fn is_permanent(&self) -> bool {
        self.heal.is_none()
    }
}

/// One degraded link: traffic to and from `node` is stretched by `factor`
/// during `[start, heal)`. The node stays reachable — heartbeats arrive,
/// just late — which is exactly the gray zone where a detector produces
/// false positives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSlowdown {
    /// The node whose links degrade.
    pub node: NodeId,
    /// Virtual time the degradation begins.
    pub start: SimTime,
    /// Virtual time the link recovers; `None` means it never does.
    pub heal: Option<SimTime>,
    /// Multiplicative stretch on work overlapping the window (> 1.0 to
    /// have any effect; values ≤ 1.0 are dropped at insertion).
    pub factor: f64,
}

/// A deterministic schedule of partitions and link slowdowns for one run.
///
/// The quiet plan ([`PartitionPlan::none`]) is the default everywhere;
/// code that receives a quiet plan must behave bit-identically to code
/// that never heard of partitions at all. At most one partition event and
/// one slowdown are kept per node (later inserts evict earlier ones), so
/// every per-node query has exactly one answer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionPlan {
    seed: u64,
    /// Sorted by `(start, first node)`; each node appears in at most one.
    events: Vec<PartitionEvent>,
    /// Sorted by `(start, node)`; at most one per node.
    slow: Vec<LinkSlowdown>,
}

impl PartitionPlan {
    /// The quiet plan: no link is ever cut or slowed.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan carrying a seed, to be populated with
    /// [`split`](Self::split) / [`slow_link`](Self::slow_link).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Adds a partition isolating `nodes` during `[start, heal)`.
    ///
    /// Each node belongs to at most one event: the listed nodes are
    /// removed from earlier events first (events emptied that way are
    /// dropped). Events whose window is empty (`heal <= start`) or whose
    /// node set is empty are dropped — they could never fire.
    pub fn split(mut self, nodes: &[NodeId], start: SimTime, heal: Option<SimTime>) -> Self {
        for e in &mut self.events {
            e.nodes.retain(|n| !nodes.contains(n));
        }
        self.events.retain(|e| !e.nodes.is_empty());
        let effective = !nodes.is_empty() && heal.is_none_or(|h| h > start);
        if effective {
            let mut nodes = nodes.to_vec();
            nodes.sort_by_key(|n| n.0);
            nodes.dedup();
            self.events.push(PartitionEvent { nodes, start, heal });
            self.events
                .sort_by_key(|e| (e.start, e.nodes.first().map_or(0, |n| n.0)));
        }
        self
    }

    /// Adds (or replaces) a link slowdown for `node`. Factors ≤ 1.0 and
    /// empty windows are dropped — they could never fire.
    pub fn slow_link(
        mut self,
        node: NodeId,
        start: SimTime,
        heal: Option<SimTime>,
        factor: f64,
    ) -> Self {
        self.slow.retain(|s| s.node != node);
        if factor > 1.0 && heal.is_none_or(|h| h > start) {
            self.slow.push(LinkSlowdown {
                node,
                start,
                heal,
                factor,
            });
            self.slow.sort_by_key(|s| (s.start, s.node.0));
        }
        self
    }

    /// Draws `splits` distinct single-node partitions out of `num_nodes`
    /// nodes, each opening at a hash-drawn time inside
    /// `[window_start, window_start + window)` and healing after a
    /// hash-drawn fraction of the remaining window — every seeded
    /// partition is transient.
    ///
    /// Deterministic in `(seed, num_nodes, splits, window)`. At least one
    /// node is always spared: `splits` is clamped to `num_nodes - 1`.
    pub fn seeded(
        seed: u64,
        num_nodes: u16,
        splits: usize,
        window_start: SimTime,
        window: SimDuration,
    ) -> Self {
        let mut plan = Self::new(seed);
        if num_nodes <= 1 || window.is_zero() {
            return plan;
        }
        let splits = splits.min(num_nodes as usize - 1);
        let mut salt = 0u64;
        for i in 0..splits {
            // Rejection-sample a node not yet isolated; the salt makes
            // each rejection a fresh, still-deterministic draw.
            let node = loop {
                let u = draw_unit_u64(seed, "netsplit.node", (i as u64) << 32 | salt);
                salt += 1;
                let cand = NodeId((u * num_nodes as f64) as u16 % num_nodes);
                if !plan.events.iter().any(|e| e.nodes.contains(&cand)) {
                    break cand;
                }
            };
            let us = draw_unit_u64(seed, "netsplit.start", i as u64);
            let start = window_start + window.mul_f64(us);
            // Heal inside the remainder of the window, at least 1 ns wide.
            let uh = draw_unit_u64(seed, "netsplit.heal", i as u64);
            let remaining = (window_start + window).since(start);
            let hold = SimDuration::from_nanos(remaining.mul_f64(uh).as_nanos().max(1));
            plan = plan.split(&[node], start, Some(start + hold));
        }
        plan
    }

    /// Seed the plan was built from (0 for the quiet plan).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All partition events, sorted by `(start, first node)`.
    pub fn events(&self) -> &[PartitionEvent] {
        &self.events
    }

    /// All link slowdowns, sorted by `(start, node)`.
    pub fn slow_links(&self) -> &[LinkSlowdown] {
        &self.slow
    }

    /// True when no link can ever be cut or slowed. The quiet plan must
    /// never change any virtual observable; the layer is armed only when
    /// some effective partition or slowdown window exists, and hot paths
    /// ask this outside their loops.
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty() && self.slow.is_empty()
    }

    /// The isolation window of `node`, if any: `(start, heal)` with
    /// `heal = None` for a partition that never heals.
    pub fn isolation_window(&self, node: NodeId) -> Option<(SimTime, Option<SimTime>)> {
        self.events
            .iter()
            .find(|e| e.nodes.contains(&node))
            .map(|e| (e.start, e.heal))
    }

    /// True when `node` is unreachable at virtual time `t`.
    pub fn is_isolated_at(&self, node: NodeId, t: SimTime) -> bool {
        self.events.iter().any(|e| e.isolates_at(node, t))
    }

    /// True when `node` is isolated by a partition that never heals and
    /// has opened by time `t` — the node is effectively gone for the rest
    /// of the run.
    pub fn isolated_forever_from(&self, node: NodeId) -> Option<SimTime> {
        self.events
            .iter()
            .find(|e| e.is_permanent() && e.nodes.contains(&node))
            .map(|e| e.start)
    }

    /// The slowdown window of `node`, if any.
    pub fn slow_window(&self, node: NodeId) -> Option<&LinkSlowdown> {
        self.slow.iter().find(|s| s.node == node)
    }

    /// The link stretch factor for `node` at time `t` (1.0 when healthy).
    pub fn slowdown_at(&self, node: NodeId, t: SimTime) -> f64 {
        match self.slow_window(node) {
            Some(s) if s.start <= t && s.heal.is_none_or(|h| t < h) => s.factor,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn quiet_plan_is_quiet() {
        assert!(PartitionPlan::none().is_quiet());
        assert!(PartitionPlan::new(42).is_quiet());
        assert!(!PartitionPlan::new(7)
            .split(&[NodeId(1)], SimTime::ZERO, None)
            .is_quiet());
        assert!(!PartitionPlan::none().is_isolated_at(NodeId(0), t(5)));
        assert_eq!(PartitionPlan::none().slowdown_at(NodeId(0), t(5)), 1.0);
    }

    #[test]
    fn degenerate_windows_stay_quiet() {
        // A partition that heals before (or the instant) it starts, an
        // empty node set, and a ≤1.0 slowdown can never fire: all three
        // are dropped so the plan is still quiet.
        let plan = PartitionPlan::new(7)
            .split(&[NodeId(1)], t(5), Some(t(5)))
            .split(&[NodeId(2)], t(9), Some(t(3)))
            .split(&[], t(1), None)
            .slow_link(NodeId(3), t(1), Some(t(9)), 1.0)
            .slow_link(NodeId(3), t(4), Some(t(2)), 3.0);
        assert!(plan.is_quiet());
    }

    #[test]
    fn windows_are_half_open_and_heal() {
        let plan = PartitionPlan::new(1).split(&[NodeId(2)], t(10), Some(t(20)));
        assert!(!plan.is_quiet());
        assert!(!plan.is_isolated_at(NodeId(2), t(9)));
        assert!(plan.is_isolated_at(NodeId(2), t(10)));
        assert!(plan.is_isolated_at(NodeId(2), t(19)));
        assert!(!plan.is_isolated_at(NodeId(2), t(20)));
        assert!(!plan.is_isolated_at(NodeId(1), t(15)));
        assert_eq!(plan.isolation_window(NodeId(2)), Some((t(10), Some(t(20)))));
        assert_eq!(plan.isolated_forever_from(NodeId(2)), None);
    }

    #[test]
    fn unhealed_partitions_are_permanent() {
        let plan = PartitionPlan::new(1).split(&[NodeId(0), NodeId(3)], t(5), None);
        assert!(plan.is_isolated_at(NodeId(3), t(1_000_000)));
        assert_eq!(plan.isolated_forever_from(NodeId(3)), Some(t(5)));
        assert_eq!(plan.isolated_forever_from(NodeId(1)), None);
    }

    #[test]
    fn later_splits_evict_nodes_from_earlier_events() {
        let plan = PartitionPlan::new(1)
            .split(&[NodeId(1), NodeId(2)], t(1), Some(t(10)))
            .split(&[NodeId(2)], t(20), Some(t(30)));
        assert_eq!(plan.events().len(), 2);
        assert_eq!(plan.isolation_window(NodeId(2)), Some((t(20), Some(t(30)))));
        assert!(!plan.is_isolated_at(NodeId(2), t(5)));
        assert!(plan.is_isolated_at(NodeId(1), t(5)));
    }

    #[test]
    fn slow_links_stretch_inside_their_window() {
        let plan = PartitionPlan::new(1).slow_link(NodeId(2), t(10), Some(t(20)), 4.0);
        assert!(!plan.is_quiet());
        assert_eq!(plan.slowdown_at(NodeId(2), t(9)), 1.0);
        assert_eq!(plan.slowdown_at(NodeId(2), t(10)), 4.0);
        assert_eq!(plan.slowdown_at(NodeId(2), t(20)), 1.0);
        assert_eq!(plan.slowdown_at(NodeId(1), t(15)), 1.0);
        // A slow node is never *isolated* — that distinction is what the
        // detector's false-positive handling exists for.
        assert!(!plan.is_isolated_at(NodeId(2), t(15)));
    }

    #[test]
    fn seeded_is_deterministic_transient_and_spares_a_node() {
        let a = PartitionPlan::seeded(0xC0FFEE, 4, 10, t(0), SimDuration::from_millis(100));
        let b = PartitionPlan::seeded(0xC0FFEE, 4, 10, t(0), SimDuration::from_millis(100));
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 3); // clamped to num_nodes - 1
        for e in a.events() {
            let heal = e.heal.expect("seeded partitions are transient");
            assert!(heal > e.start);
            assert!(heal <= t(100));
        }
        let isolated: Vec<NodeId> = (0..4)
            .map(NodeId)
            .filter(|&n| a.isolation_window(n).is_some())
            .collect();
        assert_eq!(isolated.len(), 3);
    }

    #[test]
    fn different_seeds_differ() {
        let a = PartitionPlan::seeded(1, 12, 3, t(0), SimDuration::from_secs(1));
        let b = PartitionPlan::seeded(2, 12, 3, t(0), SimDuration::from_secs(1));
        assert_ne!(a, b);
    }
}
