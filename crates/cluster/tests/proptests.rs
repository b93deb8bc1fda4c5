//! Property-based tests for the slot scheduler: structural invariants
//! that must hold for any task set on any cluster shape.

use efind_cluster::sched::{
    schedule_phase, schedule_phase_chaos, schedule_phase_gray, SlotKind, TaskSpec,
};
use efind_cluster::{
    ChaosPlan, Cluster, DetectorConfig, NodeId, PartitionPlan, SimDuration, SimTime,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct TaskInput {
    base_ms: u64,
    input_kb: u64,
    host: Option<u16>,
    affinity: Option<u16>,
}

fn arb_tasks(max_nodes: u16) -> impl Strategy<Value = Vec<TaskInput>> {
    proptest::collection::vec(
        (
            1u64..500,
            0u64..256,
            proptest::option::of(0..max_nodes),
            proptest::option::of(0..max_nodes),
        )
            .prop_map(|(base_ms, input_kb, host, affinity)| TaskInput {
                base_ms,
                input_kb,
                host,
                affinity,
            }),
        1..60,
    )
}

fn build_specs(inputs: &[TaskInput]) -> Vec<TaskSpec> {
    inputs
        .iter()
        .enumerate()
        .map(|(i, t)| TaskSpec {
            id: i,
            kind: SlotKind::Map,
            base: SimDuration::from_millis(t.base_ms),
            input_bytes: t.input_kb * 1024,
            input_hosts: t.host.map(|h| vec![NodeId(h)]).unwrap_or_default(),
            affinity: t.affinity.map(|a| vec![NodeId(a)]).unwrap_or_default(),
            affinity_penalty: SimDuration::from_millis(5),
            hard_affinity: false,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_task_is_assigned_exactly_once(inputs in arb_tasks(4), nodes in 1u16..5, slots in 1u16..4) {
        let cluster = Cluster::builder().nodes(nodes).map_slots(slots).build();
        let specs = build_specs(&inputs);
        let schedule = schedule_phase(&cluster, &specs, SimTime::ZERO);
        prop_assert_eq!(schedule.assignments.len(), specs.len());
        let mut ids: Vec<usize> = schedule.assignments.iter().map(|a| a.task_id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..specs.len()).collect::<Vec<_>>());
        for a in &schedule.assignments {
            prop_assert!(cluster.contains(a.node));
            prop_assert!(a.end >= a.start);
        }
    }

    #[test]
    fn makespan_is_the_latest_end(inputs in arb_tasks(4), nodes in 1u16..5) {
        let cluster = Cluster::builder().nodes(nodes).map_slots(2).build();
        let specs = build_specs(&inputs);
        let schedule = schedule_phase(&cluster, &specs, SimTime::ZERO);
        let latest = schedule.assignments.iter().map(|a| a.end).max().unwrap();
        prop_assert_eq!(schedule.makespan, latest);
    }

    #[test]
    fn slots_never_overlap(inputs in arb_tasks(3), nodes in 1u16..4, slots in 1u16..3) {
        let cluster = Cluster::builder().nodes(nodes).map_slots(slots).build();
        let specs = build_specs(&inputs);
        let schedule = schedule_phase(&cluster, &specs, SimTime::ZERO);
        // Per node, at most `slots` tasks may run at any instant. Check
        // at every task start.
        for probe in &schedule.assignments {
            let concurrent = schedule
                .assignments
                .iter()
                .filter(|a| {
                    a.node == probe.node && a.start <= probe.start && probe.start < a.end
                })
                .count();
            prop_assert!(
                concurrent <= slots as usize,
                "{} tasks concurrent on {} with {} slots",
                concurrent,
                probe.node,
                slots
            );
        }
    }

    #[test]
    fn phase_start_shifts_uniformly(inputs in arb_tasks(3)) {
        let cluster = Cluster::builder().nodes(3).map_slots(2).build();
        let specs = build_specs(&inputs);
        let offset = SimDuration::from_secs(7);
        let s0 = schedule_phase(&cluster, &specs, SimTime::ZERO);
        let s1 = schedule_phase(&cluster, &specs, SimTime::ZERO + offset);
        prop_assert_eq!(s1.makespan.since(SimTime::ZERO + offset), s0.makespan.since(SimTime::ZERO));
        for (a, b) in s0.assignments.iter().zip(&s1.assignments) {
            prop_assert_eq!(a.node, b.node);
            prop_assert_eq!(a.start + offset, b.start);
        }
    }

    #[test]
    fn degradation_never_shrinks_makespan(inputs in arb_tasks(3), factor in 1.0f64..8.0) {
        let healthy = Cluster::builder().nodes(3).map_slots(2).build();
        let degraded = Cluster::builder()
            .nodes(3)
            .map_slots(2)
            .degrade(NodeId(0), factor)
            .build();
        let specs = build_specs(&inputs);
        let h = schedule_phase(&healthy, &specs, SimTime::ZERO);
        let d = schedule_phase(&degraded, &specs, SimTime::ZERO);
        prop_assert!(d.makespan >= h.makespan);
    }

    #[test]
    fn speculation_never_hurts_under_hidden_stragglers(inputs in arb_tasks(3), factor in 1.0f64..10.0) {
        let plain = Cluster::builder()
            .nodes(3)
            .map_slots(2)
            .degrade_hidden(NodeId(1), factor)
            .build();
        let speculative = Cluster::builder()
            .nodes(3)
            .map_slots(2)
            .degrade_hidden(NodeId(1), factor)
            .speculation(true)
            .build();
        let specs = build_specs(&inputs);
        let p = schedule_phase(&plain, &specs, SimTime::ZERO);
        let s = schedule_phase(&speculative, &specs, SimTime::ZERO);
        prop_assert!(s.makespan <= p.makespan, "spec {} vs plain {}", s.makespan, p.makespan);
    }

    #[test]
    fn a_partition_opening_after_the_phase_changes_nothing(
        inputs in arb_tasks(4),
        nodes in 2u16..5,
        slots in 1u16..4,
        seed in any::<u64>(),
        crashes in 0usize..2,
        gap_ms in 0u64..50,
    ) {
        // Every window opens at or after the chaos-only makespan: a seeded
        // heal, a cut that never heals and a slow link that trips the
        // detector. None of them reaches a task.
        let cluster = Cluster::builder().nodes(nodes).map_slots(slots).build();
        let specs = build_specs(&inputs);
        let chaos = ChaosPlan::seeded(seed, nodes, crashes, SimTime::ZERO, SimDuration::from_millis(500));
        let plain = schedule_phase_chaos(&cluster, &specs, SimTime::ZERO, &chaos);
        let opens = plain.makespan + SimDuration::from_millis(gap_ms);
        let plan = PartitionPlan::seeded(seed, nodes, 1, opens, SimDuration::from_millis(100))
            .split(&[NodeId(0)], opens, None)
            .slow_link(NodeId(nodes - 1), opens, None, 8.0);
        let detector = DetectorConfig::default();
        let gray = schedule_phase_gray(&cluster, &specs, SimTime::ZERO, &chaos, &plan, &detector);
        prop_assert_eq!(&gray.assignments, &plain.assignments);
        prop_assert_eq!(gray.makespan, plain.makespan);
        prop_assert_eq!(gray.partition, plain.partition);
    }
}
