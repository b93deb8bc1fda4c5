//! Multi-tenant serving robustness: the quiet-tenancy golden, schedule
//! determinism (including under chaos kills), starvation-freedom, and
//! cross-tenant isolation.
//!
//! The tenancy layer obeys the PR-7 quiet discipline: a mix run with no
//! tenancy configuration — or with a single unlimited tenant — takes the
//! literal single-job path and must stay byte-identical to the plain
//! runner, which is itself pinned against the seed by
//! `hotpath_golden.rs`. The armed paths must be pure functions of their
//! inputs (double runs bit-identical) and must confine every tenant's
//! injection layers to that tenant's own jobs.

mod common;

use common::{counter_fingerprint, file_fingerprint};
use efind_cluster::{
    ChaosPlan, Cluster, CorruptionPlan, IndexRateLimit, SimDuration, SimTime, TenancyConfig,
    TenantSpec,
};
use efind_common::{Datum, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::{mapper_fn, reducer_fn, run_tenant_mix, JobConf, TenantJob};

fn testbed() -> (Cluster, Dfs) {
    let cluster = Cluster::builder()
        .nodes(4)
        .map_slots(2)
        .reduce_slots(2)
        .build();
    let dfs = Dfs::new(
        cluster.clone(),
        DfsConfig {
            chunk_size_bytes: 512,
            replication: 2,
            seed: 9,
        },
    );
    (cluster, dfs)
}

fn words(n: usize) -> Vec<Record> {
    let text = ["the", "quick", "fox", "the", "lazy", "dog", "the", "fox"];
    text.iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(i, w)| Record::new(i as i64, *w))
        .collect()
}

fn wordcount(name: &str, input: &str, output: &str) -> JobConf {
    JobConf::new(name, input, output)
        .add_mapper(mapper_fn(|rec, out, _| {
            out.collect(Record::new(rec.value.clone(), 1i64));
        }))
        .with_reducer(
            reducer_fn(|key, values, out, _| {
                let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                out.collect(Record::new(key, total));
            }),
            3,
        )
}

/// The quiet-tenancy golden, both legs: a mix with *no* tenancy config and
/// a mix with a single unlimited tenant must both take the literal quiet
/// path and reproduce the exact seed observables that `hotpath_golden.rs`
/// pins for the plain runner.
#[test]
fn quiet_tenancy_mix_matches_seed_golden() {
    let quiet_legs: Vec<(&str, TenancyConfig)> = vec![
        ("no tenancy config", TenancyConfig::none()),
        (
            "one unlimited tenant",
            TenancyConfig::none().tenant(TenantSpec::new("solo")),
        ),
    ];
    for (leg, cfg) in quiet_legs {
        assert!(cfg.is_quiet(), "{leg}: config must classify as quiet");
        let (cluster, mut dfs) = testbed();
        dfs.write_file("input", words(200));
        let jobs = vec![TenantJob::new(
            "solo",
            SimTime::ZERO,
            wordcount("wordcount", "input", "out"),
        )];
        let mix = run_tenant_mix(&cluster, &mut dfs, &cfg, jobs).unwrap();

        assert!(
            mix.log.is_empty(),
            "{leg}: quiet mixes keep no schedule log"
        );
        assert!(mix.ledger.is_empty(), "{leg}: quiet ledgers stay all-zero");
        assert!(
            mix.counters.is_empty(),
            "{leg}: quiet mixes mint no counters"
        );

        let res = mix.jobs[0].result.as_ref().unwrap().as_ref().unwrap();
        assert_eq!(
            res.stats.makespan().as_nanos(),
            common::WORDCOUNT_MAKESPAN_NANOS,
            "{leg}"
        );
        assert_eq!(
            res.stats.shuffle_bytes,
            common::WORDCOUNT_SHUFFLE_BYTES,
            "{leg}"
        );
        assert_eq!(
            counter_fingerprint(&res.stats),
            common::WORDCOUNT_COUNTER_FP,
            "{leg}"
        );
        assert_eq!(
            file_fingerprint(&dfs, "out"),
            common::WORDCOUNT_OUTPUT_FP,
            "{leg}"
        );
        assert_eq!(
            mix.makespan.as_nanos(),
            common::WORDCOUNT_MAKESPAN_NANOS,
            "{leg}"
        );
    }
}

fn contended_config() -> TenancyConfig {
    TenancyConfig::none()
        .tenant(
            TenantSpec::new("alpha")
                .weight(2)
                .max_queued(4)
                .max_running(1),
        )
        .tenant(
            TenantSpec::new("beta")
                .weight(1)
                .max_queued(2)
                .max_running(1),
        )
        .queue_capacity(4)
        .max_concurrent(1)
        .rate_limit(IndexRateLimit::new("idx", 1_000.0, 50.0))
        .degrade_threshold(SimDuration::from_millis(2))
}

/// One contended mix: two tenants, six jobs (one over the admission
/// budget), one job carrying an armed chaos plan, one declaring index
/// demand that saturates the rate limit.
fn contended_mix(cluster: &Cluster, dfs: &mut Dfs) -> efind_mapreduce::TenantMixOutcome {
    dfs.write_file("input", words(200));
    let us = SimDuration::from_micros;
    let jobs = vec![
        TenantJob::new("alpha", SimTime::ZERO, wordcount("a0", "input", "a0.out")),
        TenantJob::new(
            "beta",
            SimTime::ZERO + us(1),
            wordcount("b0", "input", "b0.out"),
        )
        .with_chaos(ChaosPlan::new(0xEF1D_0009).kill(efind_cluster::NodeId(2), SimTime::ZERO))
        .demand("idx", 400),
        TenantJob::new(
            "alpha",
            SimTime::ZERO + us(2),
            wordcount("a1", "input", "a1.out"),
        ),
        TenantJob::new(
            "alpha",
            SimTime::ZERO + us(3),
            wordcount("a2", "input", "a2.out"),
        ),
        TenantJob::new(
            "beta",
            SimTime::ZERO + us(4),
            wordcount("b1", "input", "b1.out"),
        )
        .demand("idx", 400),
        // Arrives while the queue holds 4 entries: rejected by name.
        TenantJob::new(
            "beta",
            SimTime::ZERO + us(5),
            wordcount("b2", "input", "b2.out"),
        ),
    ];
    run_tenant_mix(cluster, dfs, &contended_config(), jobs).unwrap()
}

/// Satellite: same submission order + seed ⇒ identical admit/reject/
/// complete schedule across double runs, including under chaos kills.
#[test]
fn admission_schedule_is_deterministic_across_double_runs() {
    let (c1, mut d1) = testbed();
    let first = contended_mix(&c1, &mut d1);
    let (c2, mut d2) = testbed();
    let second = contended_mix(&c2, &mut d2);

    assert_eq!(first.log, second.log, "schedule logs must be bit-equal");
    assert_eq!(first.ledger, second.ledger);
    assert_eq!(first.makespan, second.makespan);
    let counters = |m: &efind_mapreduce::TenantMixOutcome| {
        m.counters
            .iter_sorted()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Vec<_>>()
    };
    assert_eq!(counters(&first), counters(&second));
    assert_eq!(first.jobs.len(), second.jobs.len());
    for (a, b) in first.jobs.iter().zip(&second.jobs) {
        assert_eq!(a.started, b.started);
        assert_eq!(a.finished, b.finished);
        assert_eq!(a.rejected.is_some(), b.rejected.is_some());
        assert_eq!(a.qos, b.qos);
        match (&a.result, &b.result) {
            (Some(Ok(ra)), Some(Ok(rb))) => {
                assert_eq!(
                    counter_fingerprint(&ra.stats),
                    counter_fingerprint(&rb.stats)
                );
                assert_eq!(ra.stats.makespan(), rb.stats.makespan());
            }
            (ra, rb) => assert_eq!(ra.is_some(), rb.is_some()),
        }
    }
    for out in ["a0.out", "b0.out", "a1.out", "a2.out", "b1.out"] {
        assert_eq!(
            file_fingerprint(&d1, out),
            file_fingerprint(&d2, out),
            "{out} diverged between identical runs"
        );
    }

    // The mix actually exercised the armed machinery: one named
    // rejection, and the rate limit charged somebody queueing delay.
    let rejected: Vec<usize> = first
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.rejected.is_some())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(rejected, vec![5], "exactly the over-budget job is rejected");
    assert!(matches!(
        first.jobs[5].rejected,
        Some(efind_common::Error::AdmissionRejected(_))
    ));
    let beta = first.ledger.row(efind_cluster::TenantId(1));
    assert!(
        beta.throttle_nanos > 0,
        "beta's demand saturates the bucket"
    );
}

/// The serving mix whose wall clock the retired `hotpath` binary timed as
/// `scheduler_throughput`: 36 word counts from three weighted tenants
/// through bounded admission, deficit-weighted grants and a per-index
/// token bucket, every job inside its budget. Returns the schedule log,
/// the makespan and one counter fingerprint per job. With `quiet_plans`
/// each job also carries a seeded chaos and corruption plan that injects
/// nothing.
fn throughput_mix(quiet_plans: bool) -> (Vec<efind_cluster::SchedLogEntry>, SimDuration, Vec<u64>) {
    let (cluster, mut dfs) = testbed();
    dfs.write_file("input", words(400));
    let tenant = |name: &str, weight: u64| {
        TenantSpec::new(name)
            .weight(weight)
            .max_queued(24)
            .max_running(2)
    };
    let cfg = TenancyConfig::none()
        .tenant(tenant("alpha", 3))
        .tenant(tenant("beta", 2))
        .tenant(tenant("gamma", 1))
        .queue_capacity(64)
        .max_concurrent(2)
        .rate_limit(IndexRateLimit::new("idx", 50_000.0, 1_000.0))
        .degrade_threshold(SimDuration::from_millis(5));
    let jobs: Vec<TenantJob> = (0..36usize)
        .map(|i| {
            let job = TenantJob::new(
                ["alpha", "beta", "gamma"][i % 3],
                SimTime::ZERO + SimDuration::from_micros(i as u64),
                wordcount(&format!("j{i}"), "input", &format!("j{i}.out")),
            )
            .cost_hint(1 + (i % 3) as u64)
            .demand("idx", 100);
            if quiet_plans {
                job.with_chaos(ChaosPlan::new(0xEF1D_0007))
                    .with_corruption(CorruptionPlan::new(0xEF1D_0007))
            } else {
                job
            }
        })
        .collect();
    let mix = run_tenant_mix(&cluster, &mut dfs, &cfg, jobs).unwrap();
    let fingerprints = mix
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            assert!(job.rejected.is_none(), "job {i} rejected inside the budget");
            let res = job.result.as_ref().unwrap().as_ref().unwrap();
            counter_fingerprint(&res.stats)
        })
        .collect();
    (mix.log, mix.makespan, fingerprints)
}

/// The throughput mix admits every job, replays bit-identically, and does
/// not see per-job injection plans that are configured but quiet.
#[test]
fn throughput_mix_is_deterministic_and_blind_to_quiet_plans() {
    let plain = throughput_mix(false);
    assert!(
        plain.0.len() >= 2 * 36,
        "every job is at least admitted and granted in the log"
    );
    assert_eq!(plain, throughput_mix(false), "double run diverged");
    assert_eq!(plain, throughput_mix(true), "quiet plans moved the mix");
}

/// Tentpole robustness: one tenant's armed chaos/corruption layers and
/// saturating index demand cannot perturb another tenant's per-job
/// observables. Alpha's job runs bit-identically whether beta's job (a
/// virtual-time neighbor in the same mix) injects nothing or kills a
/// node, corrupts its own chunk reads, and saturates the rate limit.
#[test]
fn armed_tenant_injections_cannot_perturb_a_quiet_tenants_job() {
    let run = |armed: bool| {
        let (cluster, mut dfs) = testbed();
        dfs.write_file("a.in", words(200));
        dfs.write_file("b.in", words(160));
        let cfg = TenancyConfig::none()
            // Alpha outweighs beta 4:1, so alpha's t=0 job is granted (and
            // executed) first; beta's injections fire strictly after.
            .tenant(TenantSpec::new("alpha").weight(4))
            .tenant(TenantSpec::new("beta").weight(1))
            .queue_capacity(8)
            .max_concurrent(2)
            .rate_limit(IndexRateLimit::new("idx", 500.0, 10.0))
            .degrade_threshold(SimDuration::from_millis(5));
        let mut beta_job = TenantJob::new("beta", SimTime::ZERO, wordcount("b", "b.in", "b.out"))
            .demand("idx", 300);
        if armed {
            beta_job = beta_job
                .with_chaos(
                    ChaosPlan::new(0xEF1D_0009).kill(efind_cluster::NodeId(1), SimTime::ZERO),
                )
                .with_corruption(CorruptionPlan::new(0xC0FF_EE09).chunks(0.5));
        }
        let jobs = vec![
            TenantJob::new("alpha", SimTime::ZERO, wordcount("a", "a.in", "a.out")),
            beta_job,
        ];
        let mix = run_tenant_mix(&cluster, &mut dfs, &cfg, jobs).unwrap();
        let alpha = &mix.jobs[0];
        let res = alpha.result.as_ref().unwrap().as_ref().unwrap();
        (
            alpha.started,
            alpha.finished,
            alpha.qos,
            counter_fingerprint(&res.stats),
            res.stats.makespan(),
            file_fingerprint(&dfs, "a.out"),
            mix.ledger.clone(),
        )
    };

    let quiet = run(false);
    let armed = run(true);
    // Alpha's observables: everything up to the output bytes is equal.
    assert_eq!(quiet.0, armed.0, "alpha's grant time moved");
    assert_eq!(quiet.1, armed.1, "alpha's completion time moved");
    assert_eq!(quiet.2, armed.2, "alpha was charged someone else's QoS");
    assert_eq!(quiet.3, armed.3, "alpha's counters changed");
    assert_eq!(quiet.4, armed.4, "alpha's makespan changed");
    assert_eq!(quiet.5, armed.5, "alpha's output bytes changed");
    // And beta's armed run genuinely injected: its recovery shows up in
    // its own ledger row or job result, not alpha's.
    let beta_quiet = quiet.6.row(efind_cluster::TenantId(1)).clone();
    let beta_armed = armed.6.row(efind_cluster::TenantId(1)).clone();
    assert_eq!(beta_quiet.granted, 1);
    assert_eq!(beta_armed.granted, 1);
}

/// Regenerates the E19 contention table of EXPERIMENTS.md: the same
/// 12-job two-tenant mix at three weight ratios, reporting per-tenant
/// mean completion latency (submit → finish) and queue wait.
/// `cargo test --release --test tenancy -- --ignored e19 --nocapture`
#[test]
#[ignore]
fn e19() {
    for (wa, wb) in [(1u64, 1u64), (2, 1), (4, 1)] {
        let (cluster, mut dfs) = testbed();
        dfs.write_file("input", words(200));
        let cfg = TenancyConfig::none()
            .tenant(TenantSpec::new("alpha").weight(wa))
            .tenant(TenantSpec::new("beta").weight(wb))
            .queue_capacity(16)
            .max_concurrent(1);
        let jobs: Vec<TenantJob> = (0..12usize)
            .map(|i| {
                let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
                TenantJob::new(
                    tenant,
                    SimTime::ZERO + SimDuration::from_micros(i as u64),
                    wordcount(&format!("j{i}"), "input", &format!("j{i}.out")),
                )
            })
            .collect();
        let mix = run_tenant_mix(&cluster, &mut dfs, &cfg, jobs).unwrap();
        let mut sums = [SimDuration::ZERO; 2];
        let mut counts = [0u32; 2];
        for job in &mix.jobs {
            let t = job.tenant.0 as usize;
            sums[t] +=
                job.finished.unwrap().since(SimTime::ZERO) - job.submitted.since(SimTime::ZERO);
            counts[t] += 1;
        }
        let ledger = &mix.ledger;
        println!(
            "| {wa}:{wb} | {:.3} ms | {:.3} ms | {:.3} ms | {:.3} ms |",
            sums[0].as_secs_f64() * 1e3 / counts[0] as f64,
            ledger.row(efind_cluster::TenantId(0)).wait_nanos as f64 / counts[0] as f64 / 1e6,
            sums[1].as_secs_f64() * 1e3 / counts[1] as f64,
            ledger.row(efind_cluster::TenantId(1)).wait_nanos as f64 / counts[1] as f64 / 1e6,
        );
    }
}

/// Tentpole robustness: deficit-weighted scheduling is starvation-free.
/// Any mix of weights ≥ 1 and submission patterns that fits the admission
/// budget completes every job — nothing hangs, nothing starves.
mod starvation {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn weighted_contention_completes_every_admitted_job(
            weights in proptest::collection::vec(1u64..=6, 3),
            tenant_of in proptest::collection::vec(0usize..3, 6),
            cost_hints in proptest::collection::vec(1u64..=3, 6),
        ) {
            let (cluster, mut dfs) = testbed();
            dfs.write_file("input", words(80));
            let names = ["t0", "t1", "t2"];
            let mut cfg = TenancyConfig::none()
                .queue_capacity(16)
                .max_concurrent(1);
            for (name, w) in names.iter().zip(&weights) {
                cfg = cfg.tenant(TenantSpec::new(*name).weight(*w));
            }
            let jobs: Vec<TenantJob> = tenant_of
                .iter()
                .zip(&cost_hints)
                .enumerate()
                .map(|(i, (&t, &cost))| {
                    TenantJob::new(
                        names[t],
                        SimTime::ZERO + SimDuration::from_micros(i as u64),
                        wordcount(&format!("j{i}"), "input", &format!("j{i}.out")),
                    )
                    .cost_hint(cost)
                })
                .collect();
            let n = jobs.len();
            let mix = run_tenant_mix(&cluster, &mut dfs, &cfg, jobs).unwrap();
            for (i, job) in mix.jobs.iter().enumerate() {
                prop_assert!(job.rejected.is_none(), "job {i} rejected under an ample queue");
                prop_assert!(job.started.is_some(), "job {i} starved without a grant");
                prop_assert!(job.finished.is_some(), "job {i} never completed");
                let ok = matches!(job.result, Some(Ok(_)));
                prop_assert!(ok, "job {i} failed");
            }
            let completed: u64 = mix.ledger.rows().iter().map(|r| r.completed).sum();
            prop_assert_eq!(completed, n as u64);
        }
    }
}
