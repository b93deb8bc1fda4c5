//! Prints the optimizer's chosen plan and per-job breakdown for one
//! experiment — the reproduction's equivalent of `EXPLAIN`.
//!
//! ```text
//! cargo run --release -p efind-bench --bin explain -- q9
//! ```

use efind::{EFindRuntime, Mode, Strategy};
use efind_workloads::{log, multi, osm, synthetic, topics, tpch};

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("  {l}\n")).collect()
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "q9".into());
    let mut scenario = match which.as_str() {
        "q3" => tpch::q3_scenario(&tpch::TpchConfig {
            scale: 0.0075,
            chunks: 240,
            ..tpch::TpchConfig::default()
        }),
        "q9" => tpch::q9_scenario(&tpch::TpchConfig {
            scale: 0.0075,
            chunks: 240,
            ..tpch::TpchConfig::default()
        }),
        "log" => log::scenario(&log::LogConfig {
            num_events: 12_000,
            chunks: 240,
            extra_delay: efind_cluster::SimDuration::from_millis(2),
            ..log::LogConfig::default()
        }),
        "syn" => synthetic::scenario(&synthetic::SyntheticConfig {
            num_records: 8_000,
            key_space: 4_000,
            index_value_size: 1_000,
            chunks: 240,
            ..synthetic::SyntheticConfig::default()
        }),
        "osm" => osm::scenario(&osm::OsmConfig {
            num_a: 4_000,
            num_b: 4_000,
            chunks: 240,
            ..osm::OsmConfig::default()
        }),
        "topics" => topics::scenario(&topics::TopicsConfig {
            num_tweets: 20_000,
            ..topics::TopicsConfig::default()
        }),
        "multi" => multi::scenario(&multi::MultiConfig::default()),
        other => {
            eprintln!("unknown scenario {other}; known: q3, q9, log, syn, osm, topics, multi");
            std::process::exit(1);
        }
    };

    let mut rt = EFindRuntime::with_config(
        &scenario.cluster,
        &mut scenario.dfs,
        scenario.efind_config.clone(),
    );

    let base = rt
        .run(&scenario.ijob, Mode::Uniform(Strategy::Baseline))
        .expect("baseline run");
    println!("baseline: {:.3}s", base.total_time.as_secs_f64());

    // Catalog now populated; show what the optimizer sees and picks.
    for (bound, placement) in scenario.ijob.operators() {
        let name = bound.op.name();
        if let Some(stats) = rt.catalog.get(name) {
            println!(
                "\noperator {name} ({placement:?}): n1={:.0} spre={:.0}B spost={:.0}B smap={:.0}B",
                stats.n1, stats.spre, stats.spost, stats.smap
            );
            for (j, idx) in stats.indices.iter().enumerate() {
                println!(
                    "  index {j}: nik={:.2} sik={:.0}B siv={:.0}B tj={:.0}µs R={:.2} Θ={:.1} scheme={} shuffleable={}",
                    idx.nik, idx.sik, idx.siv, idx.tj_secs * 1e6, idx.miss_ratio, idx.theta,
                    idx.has_partition_scheme, idx.shuffleable,
                );
            }
        }
    }

    // Forced-strategy breakdowns for comparison.
    for strategy in [
        Strategy::Cache,
        Strategy::Repartition,
        Strategy::IndexLocality,
    ] {
        match rt.run(&scenario.ijob, Mode::Uniform(strategy)) {
            Ok(res) => {
                println!("\n{strategy:?}: {:.3}s", res.total_time.as_secs_f64());
                for job in &res.jobs {
                    let (rtasks, aff) = job
                        .reduce
                        .as_ref()
                        .map(|r| {
                            let hits = r
                                .schedule
                                .assignments
                                .iter()
                                .filter(|a| a.affinity_hit)
                                .count();
                            (
                                r.tasks.len(),
                                format!("{}/{} affinity hits", hits, r.tasks.len()),
                            )
                        })
                        .unwrap_or((0, String::new()));
                    println!(
                        "  job {}: {:.3}s (maps {} reduces {} {})",
                        job.name,
                        job.makespan().as_secs_f64(),
                        job.map.tasks.len(),
                        rtasks,
                        aff,
                    );
                }
            }
            Err(e) => println!("\n{strategy:?}: error {e}"),
        }
    }

    // Static analysis of the optimized plan: the structural, cost-model
    // and configuration checks over the plans the optimizer would pick,
    // priced from the freshly-populated catalog.
    match efind::analysis::analyze_costs(&rt, &scenario.ijob) {
        Ok(report) if report.is_clean() => println!("\nanalysis: clean"),
        Ok(report) => print!("\nanalysis:\n{}", indent(&report.to_text())),
        Err(e) => println!("\nanalysis: {e}"),
    }

    let opt = rt
        .run(&scenario.ijob, Mode::Optimized)
        .expect("optimized run");
    println!(
        "\noptimized: {:.3}s ({} jobs)",
        opt.total_time.as_secs_f64(),
        opt.jobs.len()
    );
    let env = rt.cost_env();
    let mut plans = opt.plans.clone();
    plans.sort_by(|a, b| a.0.cmp(&b.0));
    for (op, plan) in &plans {
        let choices: Vec<String> = plan
            .choices
            .iter()
            .map(|c| {
                format!(
                    "{}:{} ({:.2}s est)",
                    c.index,
                    c.strategy.label(),
                    env.wall_secs(c.est_cost_secs)
                )
            })
            .collect();
        println!("  {op}: [{}]", choices.join(", "));
    }
    for job in &opt.jobs {
        println!(
            "  job {}: {:.3}s (maps {} reduces {}, shuffle {} B)",
            job.name,
            job.makespan().as_secs_f64(),
            job.map.tasks.len(),
            job.reduce.as_ref().map(|r| r.tasks.len()).unwrap_or(0),
            job.shuffle_bytes,
        );
    }

    // Virtual timeline of the optimized run's last job.
    if let Some(job) = opt.jobs.last() {
        println!(
            "
map-phase timeline of {}:",
            job.name
        );
        print!("{}", efind_mapreduce::report::render_timeline(&job.map, 72));
        if let Some(reduce) = &job.reduce {
            println!("reduce-phase timeline:");
            print!(
                "{}",
                efind_mapreduce::report::render_schedule_timeline(&reduce.schedule, 72)
            );
        }
    }
}
