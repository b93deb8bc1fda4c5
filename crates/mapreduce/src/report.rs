//! Human-readable job reports: phase summaries, locality rates, top
//! counters, and an ASCII per-node timeline of the virtual schedule.

use std::fmt::Write as _;

use efind_cluster::sched::Schedule;
use efind_cluster::SimTime;

use crate::stats::{JobStats, PhaseStats};

/// Renders a one-job summary: phases, task counts, locality, counters.
pub fn render_summary(stats: &JobStats) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "job {}: {} (virtual), {} map tasks, {} reduce tasks",
        stats.name,
        stats.makespan(),
        stats.map.tasks.len(),
        stats.reduce.as_ref().map(|r| r.tasks.len()).unwrap_or(0),
    );
    let _ = writeln!(
        s,
        "  map phase: input locality {:.0}%, {} output bytes",
        stats.map.schedule.input_locality() * 100.0,
        stats.map.output_bytes(),
    );
    if let Some(reduce) = &stats.reduce {
        let affinity_hits = reduce
            .schedule
            .assignments
            .iter()
            .filter(|a| a.affinity_hit)
            .count();
        let _ = writeln!(
            s,
            "  reduce phase: {} shuffle bytes, affinity hits {}/{}",
            stats.shuffle_bytes,
            affinity_hits,
            reduce.schedule.assignments.len(),
        );
    }
    let mut counters = stats.counters.iter_sorted();
    counters.retain(|(k, _)| k.starts_with("efind."));
    let fault_total = |suffix: &str| -> i64 {
        counters
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    };
    let failures = fault_total(".fault.failures");
    let timeouts = fault_total(".fault.timeouts");
    let retries = fault_total(".fault.retries");
    let exhausted = fault_total(".fault.exhausted");
    let degraded = fault_total(".fault.degraded");
    if failures + timeouts + retries + exhausted + degraded > 0 {
        let _ = writeln!(
            s,
            "  fault tolerance: {failures} transient failures, {timeouts} timeouts, \
             {retries} retries, {exhausted} exhausted, {degraded} degraded",
        );
    }
    if !stats.recovery.is_empty() {
        let rec = &stats.recovery;
        let _ = writeln!(
            s,
            "  crash recovery: {} node crashes, {} recompute waves ({} map tasks), \
             {} fetch retries ({} backoff), {} chunks re-replicated ({} bytes)",
            rec.crashes.len(),
            rec.recompute_waves,
            rec.recomputed_map_tasks.len(),
            rec.fetch_retries,
            rec.fetch_backoff,
            rec.rereplicated_chunks,
            rec.rereplicated_bytes,
        );
        if !rec.surviving_tasks.is_empty() || !rec.lost_tasks.is_empty() {
            let _ = writeln!(
                s,
                "    re-plan reused {} surviving first-wave results, re-mapped {} lost",
                rec.surviving_tasks.len(),
                rec.lost_tasks.len(),
            );
        }
    }
    if !stats.integrity.is_empty() {
        let integ = &stats.integrity;
        let _ = writeln!(
            s,
            "  integrity: {} corrupt chunks ({} replicas quarantined, {} repaired), \
             {} chunk rereads, {} shuffle refetches, {} cache invalidations, \
             {} lookup refetches",
            integ.corrupt_chunks.len(),
            integ.quarantined_replicas,
            integ.repaired_chunks,
            integ.chunk_rereads,
            integ.shuffle_refetches,
            integ.cache_invalidations,
            integ.lookup_refetches,
        );
    }
    if !stats.partition.is_empty() {
        let gray = &stats.partition;
        let _ = writeln!(
            s,
            "  partition: {} events, {} slow links, {} suspected -> {} refuted / {} confirmed / \
             {} false positives, {} tasks replaced, {} stalled ({}), {} failover fetches ({} wait), \
             re-replication {} pending / {} cancelled / {} chunks done",
            gray.events,
            gray.slow_links,
            gray.suspected,
            gray.refuted,
            gray.confirmed,
            gray.false_positives,
            gray.replaced_tasks,
            gray.stalled_tasks,
            gray.stall,
            gray.failover_fetches,
            gray.failover_wait,
            gray.rereplication_pending,
            gray.rereplication_cancelled,
            gray.rereplicated_chunks,
        );
    }
    if !counters.is_empty() {
        let _ = writeln!(s, "  efind counters:");
        for (k, v) in counters {
            let _ = writeln!(s, "    {k} = {v}");
        }
    }
    s
}

/// Renders a phase's schedule as an ASCII Gantt chart: one row per node,
/// `#` marks time buckets where at least one of the node's slots is busy.
pub fn render_timeline(phase: &PhaseStats, width: usize) -> String {
    render_schedule_timeline(&phase.schedule, width)
}

/// Renders any schedule as an ASCII timeline.
pub fn render_schedule_timeline(schedule: &Schedule, width: usize) -> String {
    let width = width.clamp(10, 200);
    let mut s = String::new();
    if schedule.assignments.is_empty() {
        let _ = writeln!(s, "  (no tasks)");
        return s;
    }
    let start = schedule
        .assignments
        .iter()
        .map(|a| a.start)
        .min()
        .unwrap_or(SimTime::ZERO);
    let end = schedule.makespan;
    let span = end.since(start).as_secs_f64().max(1e-9);

    let mut nodes: Vec<_> = schedule.assignments.iter().map(|a| a.node).collect();
    nodes.sort();
    nodes.dedup();
    for node in nodes {
        let mut row = vec![b'.'; width];
        let mut tasks = 0usize;
        for a in schedule.assignments.iter().filter(|a| a.node == node) {
            tasks += 1;
            let b0 = ((a.start.since(start).as_secs_f64() / span) * width as f64) as usize;
            let b1 = ((a.end.since(start).as_secs_f64() / span) * width as f64).ceil() as usize;
            for cell in row.iter_mut().take(b1.min(width)).skip(b0.min(width - 1)) {
                *cell = b'#';
            }
        }
        let _ = writeln!(
            s,
            "  {:<7} |{}| {} tasks",
            node.to_string(),
            String::from_utf8_lossy(&row),
            tasks,
        );
    }
    let _ = writeln!(
        s,
        "  {:<7}  0{:>w$}",
        "",
        efind_common::fmtutil::human_secs(span),
        w = width - 1
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{identity_mapper, mapper_fn, reducer_fn};
    use crate::job::JobConf;
    use crate::runner::run_job;
    use efind_cluster::Cluster;
    use efind_common::{Datum, Record};
    use efind_dfs::{Dfs, DfsConfig};

    fn run() -> JobStats {
        let cluster = Cluster::builder()
            .nodes(2)
            .map_slots(2)
            .reduce_slots(1)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 256,
                replication: 1,
                seed: 2,
            },
        );
        let recs: Vec<Record> = (0..100i64).map(|i| Record::new(i, i % 5)).collect();
        dfs.write_file("in", recs);
        let conf = JobConf::new("demo", "in", "out")
            .add_mapper(mapper_fn(|rec, out, _| {
                out.collect(Record {
                    key: rec.value.clone(),
                    value: Datum::Int(1),
                });
            }))
            .with_reducer(
                reducer_fn(|key, values, out, _| {
                    out.collect(Record::new(key, values.len() as i64));
                }),
                2,
            );
        run_job(&cluster, &mut dfs, &conf).unwrap().stats
    }

    #[test]
    fn summary_mentions_phases_and_counts() {
        let stats = run();
        let s = render_summary(&stats);
        assert!(s.contains("job demo"));
        assert!(s.contains("map tasks"));
        assert!(s.contains("reduce phase"));
        assert!(s.contains("input locality"));
    }

    #[test]
    fn summary_omits_fault_line_without_fault_counters() {
        let stats = run();
        assert!(!render_summary(&stats).contains("fault tolerance"));
    }

    #[test]
    fn summary_omits_recovery_line_on_crash_free_runs() {
        let stats = run();
        assert!(stats.recovery.is_empty());
        assert!(!render_summary(&stats).contains("crash recovery"));
    }

    #[test]
    fn summary_reports_recovery_when_crashes_happened() {
        let mut stats = run();
        stats.recovery.crashes.push(efind_cluster::CrashEvent {
            node: efind_cluster::NodeId(1),
            at: SimTime::from_nanos(5),
        });
        stats.recovery.recompute_waves = 1;
        stats.recovery.recomputed_map_tasks = vec![0, 2];
        stats.recovery.fetch_retries = 6;
        stats.recovery.surviving_tasks = vec![1, 3];
        stats.recovery.lost_tasks = vec![0];
        let s = render_summary(&stats);
        assert!(s.contains("crash recovery: 1 node crashes"), "{s}");
        assert!(s.contains("1 recompute waves (2 map tasks)"), "{s}");
        assert!(s.contains("reused 2 surviving"), "{s}");
    }

    #[test]
    fn summary_omits_integrity_line_on_corruption_free_runs() {
        let stats = run();
        assert!(stats.integrity.is_empty());
        assert!(!render_summary(&stats).contains("integrity:"));
    }

    #[test]
    fn summary_reports_integrity_when_corruption_was_repaired() {
        let mut stats = run();
        stats.integrity.corrupt_chunks = vec![("in".into(), 4)];
        stats.integrity.quarantined_replicas = 1;
        stats.integrity.chunk_rereads = 1;
        stats.integrity.repaired_chunks = 1;
        stats.integrity.shuffle_refetches = 2;
        let s = render_summary(&stats);
        assert!(s.contains("integrity: 1 corrupt chunks"), "{s}");
        assert!(s.contains("1 replicas quarantined, 1 repaired"), "{s}");
        assert!(s.contains("2 shuffle refetches"), "{s}");
    }

    #[test]
    fn summary_omits_partition_line_on_partition_free_runs() {
        let stats = run();
        assert!(stats.partition.is_empty());
        assert!(!render_summary(&stats).contains("partition:"));
    }

    #[test]
    fn summary_reports_partitions_when_the_detector_acted() {
        use efind_cluster::SimDuration;
        let mut stats = run();
        stats.partition = crate::PartitionLog {
            events: 2,
            slow_links: 1,
            suspected: 3,
            refuted: 1,
            confirmed: 1,
            false_positives: 1,
            replaced_tasks: 5,
            stalled_tasks: 2,
            stall: SimDuration::from_millis(4),
            failover_fetches: 6,
            failover_wait: SimDuration::from_millis(2),
            rereplication_pending: 3,
            rereplication_cancelled: 2,
            rereplicated_chunks: 7,
            ..crate::PartitionLog::default()
        };
        let s = render_summary(&stats);
        assert!(s.contains("partition: 2 events, 1 slow links"), "{s}");
        assert!(
            s.contains("3 suspected -> 1 refuted / 1 confirmed / 1 false positives"),
            "{s}"
        );
        let stall = SimDuration::from_millis(4);
        assert!(
            s.contains(&format!("5 tasks replaced, 2 stalled ({stall})")),
            "{s}"
        );
        let wait = SimDuration::from_millis(2);
        assert!(
            s.contains(&format!("6 failover fetches ({wait} wait)")),
            "{s}"
        );
        assert!(
            s.contains("re-replication 3 pending / 2 cancelled / 7 chunks done"),
            "{s}"
        );
    }

    #[test]
    fn timeline_has_one_row_per_busy_node() {
        let stats = run();
        let t = render_timeline(&stats.map, 40);
        let rows = t.lines().filter(|l| l.contains('|')).count();
        assert!((1..=2).contains(&rows), "{t}");
        assert!(t.contains('#'), "{t}");
    }

    #[test]
    fn timeline_handles_empty_schedules() {
        let empty = PhaseStats {
            tasks: vec![],
            schedule: Schedule::default(),
        };
        assert!(render_timeline(&empty, 40).contains("no tasks"));
    }

    #[test]
    fn identity_job_summary_renders() {
        let cluster = Cluster::builder().nodes(1).build();
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        dfs.write_file("in", vec![Record::new(1i64, 2i64)]);
        let conf = JobConf::new("copy", "in", "out").add_mapper(identity_mapper());
        let stats = run_job(&cluster, &mut dfs, &conf).unwrap().stats;
        let s = render_summary(&stats);
        assert!(s.contains("0 reduce tasks"));
    }
}
