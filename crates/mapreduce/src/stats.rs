//! Job and task statistics.
//!
//! EFind's catalog and adaptive optimizer consume these: per-task counter
//! snapshots drive the variance gate of §4.2 (statistics are trusted only
//! when `stddev/mean` across tasks is small), merged counters and sketches
//! drive the cost model, and the schedules carry the virtual timeline.

use efind_cluster::{sched::Schedule, SimDuration, SimTime};

use crate::counters::{Counters, Sketches};
use crate::integrity::IntegrityLog;
use crate::netsplit_log::PartitionLog;
use crate::recovery::RecoveryLog;

/// Statistics of a single executed task.
#[derive(Clone, Debug)]
pub struct TaskStats {
    /// Task id within its phase.
    pub task_id: usize,
    /// Records consumed.
    pub input_records: u64,
    /// Serialized bytes consumed.
    pub input_bytes: u64,
    /// Records produced.
    pub output_records: u64,
    /// Serialized bytes produced.
    pub output_bytes: u64,
    /// Placement-independent virtual cost of the task body.
    pub compute_cost: SimDuration,
    /// Task-local counters.
    pub counters: Counters,
    /// Task-local FM sketches.
    pub sketches: Sketches,
}

/// Statistics and timeline of one phase (map or reduce).
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Per-task stats in task-id order.
    pub tasks: Vec<TaskStats>,
    /// The phase schedule produced by the cluster scheduler.
    pub schedule: Schedule,
}

impl PhaseStats {
    /// Total bytes produced by the phase.
    pub fn output_bytes(&self) -> u64 {
        self.tasks.iter().map(|t| t.output_bytes).sum()
    }

    /// Sample variance statistics of a counter across tasks, returned as
    /// `(mean, stddev)`. Tasks that never wrote the counter count as zero.
    pub fn counter_spread(&self, name: &str) -> (f64, f64) {
        let n = self.tasks.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let values: Vec<f64> = self
            .tasks
            .iter()
            .map(|t| t.counters.get(name) as f64)
            .collect();
        let mean = values.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return (mean, 0.0);
        }
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        (mean, var.sqrt())
    }
}

/// Full statistics of one executed job.
#[derive(Clone, Debug)]
pub struct JobStats {
    /// Job name.
    pub name: String,
    /// Virtual start time.
    pub started: SimTime,
    /// Virtual completion time.
    pub finished: SimTime,
    /// Map phase stats.
    pub map: PhaseStats,
    /// Reduce phase stats (`None` for map-only jobs).
    pub reduce: Option<PhaseStats>,
    /// Counters merged across all tasks.
    pub counters: Counters,
    /// Sketches merged across all tasks.
    pub sketches: Sketches,
    /// Bytes moved through the shuffle.
    pub shuffle_bytes: u64,
    /// Bytes written to the DFS output file.
    pub output_bytes: u64,
    /// Crash-recovery ledger, completed by `Runner::seal`. Stays
    /// `RecoveryLog::default()` whenever the chaos plan is quiet —
    /// including configured-but-quiet plans — and nothing of it is then
    /// in the counter set.
    pub recovery: RecoveryLog,
    /// Data-integrity ledger, completed by `Runner::seal`. Stays
    /// `IntegrityLog::default()` whenever the corruption plan is quiet —
    /// including configured-but-quiet plans — and nothing of it is then
    /// in the counter set.
    pub integrity: IntegrityLog,
    /// Gray-failure ledger, completed by `Runner::seal`. Stays
    /// `PartitionLog::default()` whenever the partition plan is quiet —
    /// including configured-but-quiet plans — and nothing of it is then
    /// in the counter set.
    pub partition: PartitionLog,
}

impl JobStats {
    /// Virtual wall-clock of the job.
    pub fn makespan(&self) -> SimDuration {
        self.finished.since(self.started)
    }

    /// Merges the counters and sketches of several executed jobs into one
    /// view — the job-boundary aggregation both the statistics catalog
    /// and the cross-job re-optimization store consume.
    pub fn merged(jobs: &[JobStats]) -> (Counters, Sketches) {
        let mut counters = Counters::new();
        let mut sketches = Sketches::new();
        for j in jobs {
            counters.merge(&j.counters);
            sketches.merge(&j.sketches);
        }
        (counters, sketches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: usize, counter: i64) -> TaskStats {
        let mut counters = Counters::new();
        counters.add("x", counter);
        TaskStats {
            task_id: id,
            input_records: 0,
            input_bytes: 0,
            output_records: 0,
            output_bytes: 10,
            compute_cost: SimDuration::ZERO,
            counters,
            sketches: Sketches::new(),
        }
    }

    #[test]
    fn counter_spread_mean_and_stddev() {
        let phase = PhaseStats {
            tasks: vec![task(0, 2), task(1, 4), task(2, 6)],
            schedule: Schedule::default(),
        };
        let (mean, sd) = phase.counter_spread("x");
        assert!((mean - 4.0).abs() < 1e-9);
        assert!((sd - 2.0).abs() < 1e-9);
        let (mean0, sd0) = phase.counter_spread("missing");
        assert_eq!(mean0, 0.0);
        assert_eq!(sd0, 0.0);
    }

    #[test]
    fn spread_degenerate_cases() {
        let empty = PhaseStats {
            tasks: vec![],
            schedule: Schedule::default(),
        };
        assert_eq!(empty.counter_spread("x"), (0.0, 0.0));
        let single = PhaseStats {
            tasks: vec![task(0, 5)],
            schedule: Schedule::default(),
        };
        assert_eq!(single.counter_spread("x"), (5.0, 0.0));
    }

    #[test]
    fn phase_output_bytes_sum() {
        let phase = PhaseStats {
            tasks: vec![task(0, 0), task(1, 0)],
            schedule: Schedule::default(),
        };
        assert_eq!(phase.output_bytes(), 20);
    }
}
