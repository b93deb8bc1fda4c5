//! Virtual-time heartbeat failure detection.
//!
//! PR 4's crash layer let the scheduler read `ChaosPlan::is_dead_at`
//! directly — an *omniscient* master that knows the instant a node dies.
//! Real masters only see missing heartbeats, and the gap between "silent"
//! and "dead" is where gray failures live: a partitioned node looks
//! exactly like a crashed one until (unless) it heals, and a node behind
//! a slow link looks suspicious while being perfectly healthy.
//!
//! [`DetectorConfig`] models that gap deterministically. Nodes send a
//! heartbeat every `interval`; the master suspects a node once it has
//! heard nothing for `suspicion` (rounded up to the next heartbeat
//! boundary — the master only *notices* silence when a beat fails to
//! arrive). [`DetectorConfig::assess`] folds a node's
//! [`PartitionPlan`] windows through that state machine and returns, per
//! node, whether suspicion ever fires, when, and how it resolves:
//!
//! * **Confirmed** — the partition never heals; from `suspect_at` the
//!   node is treated as gone (tasks re-placed, re-replication charged).
//! * **Refuted** — the node comes back (partition heals, or it was only
//!   a slow link) before the run ends: it rejoins at `rejoin_at`, any
//!   pending re-replication for it is cancelled, and results its old
//!   tasks produced in the meantime are reconciled exactly-once.
//!
//! Everything is a pure function of the plan and the config — no clocks,
//! no state — so schedule replays stay bit-identical across runs.

use crate::netsplit::PartitionPlan;
use crate::node::NodeId;
use crate::time::{SimDuration, SimTime};

/// Heartbeat/suspicion parameters of the virtual-time failure detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Heartbeat period. Every node beats once per interval; the master
    /// re-evaluates silence only at beat boundaries.
    pub interval: SimDuration,
    /// Silence threshold: a node unheard for this long becomes suspected.
    pub suspicion: SimDuration,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        // 500 µs beats, suspicion after 3 missed beats. The analyzer
        // (EF025) warns when interval ≥ suspicion — such a detector
        // suspects every node on every beat.
        DetectorConfig {
            interval: SimDuration::from_micros(500),
            suspicion: SimDuration::from_micros(1_500),
        }
    }
}

/// How a suspicion resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The node never came back: treat it as gone from `suspect_at` on.
    Confirmed,
    /// The node was reachable (or reachable again) before the run ended:
    /// it rejoins at `rejoin_at` and its in-flight work is reconciled.
    Refuted {
        /// Virtual time the first post-silence heartbeat lands.
        rejoin_at: SimTime,
    },
}

/// One node's trip through the suspicion state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Suspicion {
    /// The suspected node.
    pub node: NodeId,
    /// Virtual time the master declares the node suspect.
    pub suspect_at: SimTime,
    /// How the suspicion resolved.
    pub verdict: Verdict,
    /// True when the node was never unreachable — a slow link starved
    /// the heartbeats past the threshold (gray-failure false positive).
    pub false_positive: bool,
}

impl DetectorConfig {
    /// Virtual delay between a node going silent and the master
    /// suspecting it: the suspicion threshold rounded up to the next
    /// heartbeat boundary (silence is only observed when a beat is due).
    pub fn suspect_delay(&self) -> SimDuration {
        if self.interval.is_zero() {
            return self.suspicion;
        }
        let beats = self.suspicion.as_nanos().div_ceil(self.interval.as_nanos());
        self.interval * beats.max(1)
    }

    /// Folds `node`'s partition/slowdown windows through the suspicion
    /// state machine. `None` means the master never suspects the node —
    /// either it was never impaired, or the impairment cleared before a
    /// heartbeat went missing long enough.
    pub fn assess(&self, plan: &PartitionPlan, node: NodeId) -> Option<Suspicion> {
        // Isolation silences heartbeats outright.
        if let Some((start, heal)) = plan.isolation_window(node) {
            let suspect_at = start + self.suspect_delay();
            return match heal {
                None => Some(Suspicion {
                    node,
                    suspect_at,
                    verdict: Verdict::Confirmed,
                    false_positive: false,
                }),
                Some(h) if suspect_at < h => Some(Suspicion {
                    node,
                    suspect_at,
                    verdict: Verdict::Refuted { rejoin_at: h },
                    false_positive: false,
                }),
                // Healed before the master noticed: a stall, never a
                // suspicion. Results merely arrive late.
                Some(_) => None,
            };
        }
        // A slow link delays beats by `factor`; when a single stretched
        // beat period exceeds the suspicion threshold the master falsely
        // suspects a healthy node, refuted the moment the late beat
        // lands (or the link heals, whichever the window permits).
        if let Some(s) = plan.slow_window(node) {
            let stretched = self.interval.mul_f64(s.factor);
            if stretched > self.suspicion {
                let suspect_at = s.start + self.suspicion;
                let late_beat = s.start + stretched;
                let rejoin_at = match s.heal {
                    Some(h) => {
                        if suspect_at >= h {
                            return None; // link healed before suspicion
                        }
                        late_beat.min(h)
                    }
                    None => late_beat,
                };
                return Some(Suspicion {
                    node,
                    suspect_at,
                    verdict: Verdict::Refuted { rejoin_at },
                    false_positive: true,
                });
            }
        }
        None
    }

    /// Assesses every node of a `num_nodes` cluster, sorted by
    /// `(suspect_at, node)` — the deterministic order replays consume.
    pub fn assess_all(&self, plan: &PartitionPlan, num_nodes: u16) -> Vec<Suspicion> {
        let mut out: Vec<Suspicion> = (0..num_nodes)
            .filter_map(|n| self.assess(plan, NodeId(n)))
            .collect();
        out.sort_by_key(|s| (s.suspect_at, s.node.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    fn det(interval_us: u64, suspicion_us: u64) -> DetectorConfig {
        DetectorConfig {
            interval: SimDuration::from_micros(interval_us),
            suspicion: SimDuration::from_micros(suspicion_us),
        }
    }

    #[test]
    fn suspect_delay_rounds_up_to_a_beat() {
        assert_eq!(
            det(500, 1_500).suspect_delay(),
            SimDuration::from_micros(1_500)
        );
        assert_eq!(
            det(400, 1_500).suspect_delay(),
            SimDuration::from_micros(1_600)
        );
        assert_eq!(
            det(0, 1_500).suspect_delay(),
            SimDuration::from_micros(1_500)
        );
    }

    #[test]
    fn healthy_nodes_are_never_suspected() {
        let plan = PartitionPlan::new(1).split(&[NodeId(2)], t(100), None);
        assert_eq!(det(500, 1_500).assess(&plan, NodeId(0)), None);
        assert!(det(500, 1_500)
            .assess_all(&PartitionPlan::none(), 8)
            .is_empty());
    }

    #[test]
    fn unhealed_isolation_is_confirmed() {
        let plan = PartitionPlan::new(1).split(&[NodeId(2)], t(100), None);
        let s = det(500, 1_500).assess(&plan, NodeId(2)).unwrap();
        assert_eq!(s.suspect_at, t(1_600));
        assert_eq!(s.verdict, Verdict::Confirmed);
        assert!(!s.false_positive);
    }

    #[test]
    fn healing_after_suspicion_is_refuted() {
        let plan = PartitionPlan::new(1).split(&[NodeId(2)], t(100), Some(t(5_000)));
        let s = det(500, 1_500).assess(&plan, NodeId(2)).unwrap();
        assert_eq!(s.suspect_at, t(1_600));
        assert_eq!(
            s.verdict,
            Verdict::Refuted {
                rejoin_at: t(5_000)
            }
        );
        assert!(!s.false_positive);
    }

    #[test]
    fn healing_before_suspicion_is_a_stall_not_a_suspicion() {
        let plan = PartitionPlan::new(1).split(&[NodeId(2)], t(100), Some(t(1_000)));
        assert_eq!(det(500, 1_500).assess(&plan, NodeId(2)), None);
    }

    #[test]
    fn slow_link_past_threshold_is_a_false_positive() {
        // 4× stretch on 500 µs beats → 2 ms silence > 1.5 ms threshold:
        // suspected at start + threshold, refuted when the late beat lands.
        let plan = PartitionPlan::new(1).slow_link(NodeId(1), t(100), Some(t(10_000)), 4.0);
        let s = det(500, 1_500).assess(&plan, NodeId(1)).unwrap();
        assert_eq!(s.suspect_at, t(1_600));
        assert_eq!(
            s.verdict,
            Verdict::Refuted {
                rejoin_at: t(2_100)
            }
        );
        assert!(s.false_positive);
    }

    #[test]
    fn mild_slowdown_never_trips_the_detector() {
        // 2× stretch → 1 ms silence < 1.5 ms threshold: no suspicion.
        let plan = PartitionPlan::new(1).slow_link(NodeId(1), t(100), Some(t(10_000)), 2.0);
        assert_eq!(det(500, 1_500).assess(&plan, NodeId(1)), None);
    }

    #[test]
    fn assess_all_sorts_by_suspect_time() {
        let plan = PartitionPlan::new(1)
            .split(&[NodeId(3)], t(200), None)
            .split(&[NodeId(1)], t(100), Some(t(9_000)));
        let all = det(500, 1_500).assess_all(&plan, 4);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].node, NodeId(1));
        assert_eq!(all[1].node, NodeId(3));
        assert!(all[0].suspect_at <= all[1].suspect_at);
    }
}
