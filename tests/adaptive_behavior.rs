//! Integration: the adaptive runtime (§4) across real workloads —
//! correctness of mid-job plan changes and the catalog's role.

use efind_repro::cluster::SimDuration;
use efind_repro::core::{EFindConfig, EFindRuntime, Mode, Strategy};
use efind_repro::workloads::{log, tpch};

fn config_with_delay(extra_ms: u64) -> log::LogConfig {
    log::LogConfig {
        num_events: 8_000,
        num_ips: 300,
        num_urls: 100,
        chunks: 240,
        extra_delay: SimDuration::from_millis(extra_ms),
        ..log::LogConfig::default()
    }
}

#[test]
fn dynamic_replans_on_expensive_lookups_and_preserves_output() {
    let config = config_with_delay(5);

    let mut s1 = log::scenario(&config);
    let mut rt1 = EFindRuntime::new(&s1.cluster, &mut s1.dfs);
    let base = rt1
        .run(&s1.ijob, Mode::Uniform(Strategy::Baseline))
        .unwrap();
    let mut expected = rt1.dfs.read_file("log.topk").unwrap();
    expected.sort();

    let mut s2 = log::scenario(&config);
    let mut rt2 = EFindRuntime::new(&s2.cluster, &mut s2.dfs);
    let dynamic = rt2.run(&s2.ijob, Mode::Dynamic).unwrap();
    assert!(
        dynamic.replanned,
        "5 ms lookups should trigger a plan change"
    );
    assert!(
        dynamic.total_time < base.total_time,
        "dynamic {} vs base {}",
        dynamic.total_time,
        base.total_time
    );
    let mut got = rt2.dfs.read_file("log.topk").unwrap();
    got.sort();
    assert_eq!(got, expected, "plan change must not alter the answer");
}

#[test]
fn dynamic_sits_between_baseline_and_optimized() {
    // §5.3: "dynamic is slower than the optimal performance, but it is
    // significantly faster than baseline."
    let config = config_with_delay(5);
    let mut s = log::scenario(&config);
    let mut rt = EFindRuntime::new(&s.cluster, &mut s.dfs);
    let base = rt
        .run(&s.ijob, Mode::Uniform(Strategy::Baseline))
        .unwrap()
        .total_time;
    let optimized = rt.run(&s.ijob, Mode::Optimized).unwrap().total_time;
    let dynamic = rt.run(&s.ijob, Mode::Dynamic).unwrap().total_time;
    assert!(optimized < base);
    assert!(dynamic <= base, "dynamic {dynamic} vs base {base}");
    assert!(
        dynamic >= optimized,
        "dynamic {dynamic} vs optimized {optimized}"
    );
}

#[test]
fn catalog_statistics_survive_across_jobs() {
    let config = config_with_delay(2);
    let mut s = log::scenario(&config);
    let mut rt = EFindRuntime::new(&s.cluster, &mut s.dfs);
    assert!(
        rt.run(&s.ijob, Mode::Optimized).is_err(),
        "optimized mode needs statistics first"
    );
    rt.run(&s.ijob, Mode::Uniform(Strategy::Baseline)).unwrap();
    let stats = rt.catalog.get("geoip").expect("catalog populated");
    assert!(stats.n1 > 0.0);
    assert!(stats.indices[0].theta > 1.0, "LOG has redundant IPs");
    // And now optimized works.
    rt.run(&s.ijob, Mode::Optimized).unwrap();
}

#[test]
fn prohibitive_change_cost_pins_the_baseline_plan() {
    let config = config_with_delay(5);
    let mut s = log::scenario(&config);
    let expensive = EFindConfig {
        plan_change_cost_secs: 1.0e6,
        ..EFindConfig::default()
    };
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, expensive);
    let res = rt.run(&s.ijob, Mode::Dynamic).unwrap();
    assert!(!res.replanned);
}

#[test]
fn plan_changes_at_most_once() {
    // The result reports a single replanning decision; the re-planned
    // pipeline runs to completion without further changes (§4.1: "We will
    // change the execution plan of a job at most once").
    let config = config_with_delay(5);
    let mut s = log::scenario(&config);
    let mut rt = EFindRuntime::new(&s.cluster, &mut s.dfs);
    let res = rt.run(&s.ijob, Mode::Dynamic).unwrap();
    if res.replanned {
        // The replanned pipeline is the shuffle job + the original job.
        assert!(
            res.jobs.len() <= 3,
            "unexpected job count {}",
            res.jobs.len()
        );
    }
}

#[test]
fn flaky_nodes_slow_jobs_but_never_corrupt_output() {
    // Failure injection: a node that fails every first task attempt. The
    // job must produce identical output (failed attempts never commit)
    // and take longer.
    use efind_repro::cluster::{Cluster, NodeId};
    let config = config_with_delay(0);

    let mut s1 = log::scenario(&config);
    let mut rt1 = EFindRuntime::new(&s1.cluster, &mut s1.dfs);
    let healthy = rt1.run(&s1.ijob, Mode::Uniform(Strategy::Cache)).unwrap();
    let mut expected = rt1.dfs.read_file("log.topk").unwrap();
    expected.sort();

    let mut s2 = log::scenario(&config);
    s2.cluster = Cluster::builder().flaky(NodeId(2), 0.8).build();
    let mut rt2 = EFindRuntime::new(&s2.cluster, &mut s2.dfs);
    let flaky = rt2.run(&s2.ijob, Mode::Uniform(Strategy::Cache)).unwrap();
    let mut got = rt2.dfs.read_file("log.topk").unwrap();
    got.sort();

    assert_eq!(got, expected, "task retries must not change results");
    assert!(
        flaky.total_time > healthy.total_time,
        "retries cost time: {} vs {}",
        flaky.total_time,
        healthy.total_time
    );
}

#[test]
fn empty_input_is_handled_in_every_mode() {
    use efind_repro::dfs::{Dfs, DfsConfig};
    let config = config_with_delay(0);
    for mode in [
        Mode::Uniform(Strategy::Baseline),
        Mode::Uniform(Strategy::Repartition),
        Mode::Dynamic,
    ] {
        let s = log::scenario(&config);
        let cluster = s.cluster.clone();
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        dfs.write_file("log.events", vec![]);
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        let res = rt.run(&s.ijob, mode).unwrap();
        assert_eq!(res.output.total_records(), 0);
        assert!(!res.replanned);
    }
}

#[test]
fn plans_come_in_operator_order() {
    // Q9 binds five operators across head, body and tail; every mode lists
    // every operator's plan in the job's data-flow order, whatever order
    // the planner keyed them in.
    let mut s = tpch::q9_scenario(&tpch::TpchConfig {
        scale: 0.002,
        chunks: 30,
        seed: 3,
        ..tpch::TpchConfig::default()
    });
    let operators: Vec<String> = s
        .ijob
        .operators()
        .map(|(bound, _)| bound.op.name().to_owned())
        .collect();
    assert_eq!(operators.len(), 5);
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    for mode in [
        Mode::Uniform(Strategy::Baseline),
        Mode::Uniform(Strategy::Cache),
        Mode::Optimized,
        Mode::Dynamic,
    ] {
        let res = rt.run(&s.ijob, mode.clone()).unwrap();
        let names: Vec<&str> = res.plans.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, operators, "{mode:?}");
    }
}
