//! Every workload's set-up → iteration → verification path on tiny inputs,
//! through the same library functions the binary calls.

use efbench::bench::{run, RunArgs};
use efbench::metrics::{END_TO_END, PER_LAYER};
use efbench::pipeline::Layers;
use efbench::trace::Tracer;
use efbench::workloads::{file_digest, setup, Scale, SetupTimes, NAMES};

fn args(workload: &str, trace: bool) -> RunArgs {
    RunArgs {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        trace_dir: None,
        probe_exe: None,
    }
}

#[test]
fn every_workload_runs_untraced_and_verifies() {
    for name in NAMES {
        let result = run(&args(name, false)).unwrap();
        assert!(result.correct(), "{name}: {} failed", result.failed);
        // Set-ups are not iterations: two warm-ups, the timed loop, the
        // memory probe's two.
        assert!(result.attempted >= 5, "{name}");
        let names: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{name}");
        for metric in [
            "wall_ms_p50",
            "cpu_ms_p50",
            "peak_rss_mb",
            "virtual_s",
            "setup_s",
        ] {
            assert!(result.get(metric).unwrap() > 0.0, "{name} {metric}");
        }
        assert!(result
            .to_json_line()
            .starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn every_workload_runs_traced_and_separates_its_layers() {
    for name in NAMES {
        let result = run(&args(name, true)).unwrap();
        assert!(result.correct(), "{name}: {} failed", result.failed);
        assert_eq!(result.metrics.len(), PER_LAYER.len(), "{name}");
        let get = |metric: &str| result.get(metric).unwrap();
        assert!(get("mapreduce.execute_maps_ms") > 0.0, "{name}");
        assert!(get("bench.wall_ms_1cpu") > 0.0, "{name}");
        let index_free = matches!(name, "wc_shuffle" | "scanjoin_write");
        assert_eq!(get("core.lookups") == 0.0, index_free, "{name}");
        assert_eq!(get("index.lookups") == 0.0, index_free, "{name}");
        let map_only = matches!(name, "lookup_hot" | "lookup_cold" | "lookup_armed");
        assert_eq!(get("mapreduce.reduce_ms") == 0.0, map_only, "{name}");
        if name != "lookup_armed" {
            for quiet in [
                "dfs.rereads",
                "core.fault.retries",
                "core.hedge.fired",
                "cluster.crashed_attempts",
                "cluster.suspected",
            ] {
                assert_eq!(get(quiet), 0.0, "{name} {quiet}");
            }
        }
    }
    let armed = run(&args("lookup_armed", true)).unwrap();
    assert!(armed.get("core.fault.retries").unwrap() > 0.0);
    assert!(armed.get("core.hedge.fired").unwrap() > 0.0);
    let q9 = run(&args("q9_adaptive", true)).unwrap();
    assert!(q9.get("core.plan.speedup_vs_base").unwrap() > 0.0);
    assert!(q9.get("core.dynamic_run_ms").unwrap() > 0.0);
}

/// Tracing is transparent: spans, timed accessors and replays change
/// neither the virtual clock, nor a counter, nor the answer.
#[test]
fn a_traced_iteration_equals_an_untraced_one() {
    for name in NAMES {
        let mut workload = setup(name, 3, Scale::Tiny, &mut SetupTimes::default()).unwrap();
        let reference = workload.reference();

        workload.prepare();
        let plain = workload.run().unwrap();
        let plain_digest = file_digest(workload.dfs(), workload.output_file()).unwrap();

        workload.prepare();
        let mut tracer = Tracer::new();
        tracer.start_iteration(0);
        let traced = workload
            .run_traced(&mut tracer, &mut Layers::default())
            .unwrap();
        let traced_digest = file_digest(workload.dfs(), workload.output_file()).unwrap();

        assert_eq!(plain.virtual_s, traced.virtual_s, "{name}");
        assert_eq!(plain_digest, reference, "{name}");
        assert_eq!(traced_digest, reference, "{name}");
        // `run_scan_join` hands back no job statistics to compare.
        if !plain.jobs.is_empty() {
            let fingerprint = |jobs: &[efind_mapreduce::JobStats]| -> Vec<(String, i64)> {
                jobs.iter()
                    .flat_map(|j| j.counters.iter_sorted())
                    .map(|(name, v)| (name.to_string(), v))
                    .collect()
            };
            assert_eq!(
                fingerprint(&plain.jobs),
                fingerprint(&traced.jobs),
                "{name}"
            );
        }
        assert!(!tracer.spans().is_empty(), "{name}");
    }
}
