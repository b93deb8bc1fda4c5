//! The concurrent multi-job executor: N jobs from M tenants over one
//! shared cluster and DFS.
//!
//! This is the runner-side half of `efind_cluster::tenancy`: a
//! deterministic virtual-time event loop that feeds submissions to the
//! [`MultiTenantScheduler`], executes each granted job through the
//! ordinary [`Runner`] (real computation, modeled durations, the job's own
//! chaos/corruption plans), and completes it at
//! `grant + makespan + QoS delay`. Jobs overlap on the virtual clock —
//! hundreds may be queued, several running — while real execution stays
//! sequential in grant order, so the whole mix is bit-identically
//! reproducible.
//!
//! Quiet discipline (PR 7): when the tenancy config is quiet
//! ([`TenancyConfig::is_quiet`]), the executor takes the literal
//! single-job path — each job runs through a plain [`Runner`] at its
//! submission time, no scheduler, no ledger, no counters — byte-identical
//! to a runtime without the layer (pinned by the quiet-tenancy golden).

use efind_cluster::tenancy::{
    MultiTenantScheduler, QosCharge, SchedLogEntry, TenancyConfig, TenancyLedger, TenantId,
};
use efind_cluster::{ChaosPlan, Cluster, CorruptionPlan, SimDuration, SimTime};
use efind_common::{Error, Result};
use efind_dfs::Dfs;

use crate::counters::Counters;
use crate::job::JobConf;
use crate::runner::{JobResult, Runner};

/// One tenant job in a mix: a vanilla [`JobConf`] plus its tenant, its
/// virtual submission time, and its declared scheduler inputs.
pub struct TenantJob {
    /// Tenant name; must resolve in the [`TenancyConfig`] (any name works
    /// against the quiet config's implicit tenant).
    pub tenant: String,
    /// Virtual submission time.
    pub submit: SimTime,
    /// The job to run.
    pub conf: JobConf,
    /// Node-crash plan for this job only (quiet by default). One tenant's
    /// armed chaos must not perturb another tenant's observables.
    pub chaos: ChaosPlan,
    /// Corruption plan for this job only (quiet by default).
    pub corruption: CorruptionPlan,
    /// Deficit-round-robin cost charge (1 = fairness in job counts).
    pub cost_hint: u64,
    /// Declared per-index lookup demand, charged against the config's
    /// rate-limit buckets at grant time.
    pub demand: Vec<(String, u64)>,
}

impl TenantJob {
    /// A job with quiet injection plans, unit cost, and no index demand.
    pub fn new(tenant: impl Into<String>, submit: SimTime, conf: JobConf) -> Self {
        TenantJob {
            tenant: tenant.into(),
            submit,
            conf,
            chaos: ChaosPlan::none(),
            corruption: CorruptionPlan::none(),
            cost_hint: 1,
            demand: Vec::new(),
        }
    }

    /// Arms a node-crash plan on this job only.
    pub fn with_chaos(mut self, chaos: ChaosPlan) -> Self {
        self.chaos = chaos;
        self
    }

    /// Arms a corruption plan on this job only.
    pub fn with_corruption(mut self, corruption: CorruptionPlan) -> Self {
        self.corruption = corruption;
        self
    }

    /// Sets the deficit-round-robin cost charge.
    pub fn cost_hint(mut self, cost: u64) -> Self {
        self.cost_hint = cost;
        self
    }

    /// Declares lookup demand against one index.
    pub fn demand(mut self, index: impl Into<String>, lookups: u64) -> Self {
        self.demand.push((index.into(), lookups));
        self
    }
}

/// Per-job outcome of a tenant mix.
pub struct TenantJobOutcome {
    /// The job's tenant.
    pub tenant: TenantId,
    /// Virtual submission time.
    pub submitted: SimTime,
    /// The admission rejection, if the job never entered the queue.
    pub rejected: Option<Error>,
    /// Grant (start) time; `None` when rejected or never granted.
    pub started: Option<SimTime>,
    /// Completion time (`start + makespan + QoS delay`).
    pub finished: Option<SimTime>,
    /// QoS charge of the job's index demand at grant time.
    pub qos: QosCharge,
    /// The executed job's result; `None` when the job never ran, `Err`
    /// when it ran and failed (the mix continues — one tenant's failure
    /// never aborts another's jobs).
    pub result: Option<Result<JobResult>>,
}

/// The whole mix's outcome: per-job results plus the tenancy observables.
pub struct TenantMixOutcome {
    /// One outcome per submitted job, in submission order.
    pub jobs: Vec<TenantJobOutcome>,
    /// The deterministic schedule log (empty on the quiet path).
    pub log: Vec<SchedLogEntry>,
    /// The per-tenant serving ledger (all-zero on the quiet path).
    pub ledger: TenancyLedger,
    /// Mix-level counters mirrored from the ledger — contributes nothing
    /// when the tenancy layer is quiet (empty ledgers are invisible).
    pub counters: Counters,
    /// Virtual time when the last job completed.
    pub makespan: SimDuration,
}

#[derive(Clone, Copy)]
struct RunningJob {
    finish: SimTime,
    grant_seq: u64,
    job: u64,
    tenant: TenantId,
}

/// Runs a tenant mix over one shared cluster and DFS.
///
/// Submissions are processed in `(submit, submission index)` order;
/// completions at a given instant are processed before submissions at the
/// same instant so freed capacity is visible to admission control. The
/// returned outcome — schedule log, ledger, per-job times, counters, and
/// every executed job's stats — is a pure function of the inputs: double
/// runs are bit-identical.
pub fn run_tenant_mix(
    cluster: &Cluster,
    dfs: &mut Dfs,
    cfg: &TenancyConfig,
    jobs: Vec<TenantJob>,
) -> Result<TenantMixOutcome> {
    cfg.validate()?;
    if cfg.is_quiet() {
        return run_quiet(cluster, dfs, jobs);
    }

    let mut sched = MultiTenantScheduler::new(cfg.clone())?;
    let mut outcomes: Vec<TenantJobOutcome> = Vec::with_capacity(jobs.len());
    let mut tenants: Vec<TenantId> = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let tenant = cfg.tenant_id(&job.tenant).ok_or_else(|| {
            Error::InvalidConfig(format!(
                "job {:?} names unknown tenant {:?}",
                job.conf.name, job.tenant
            ))
        })?;
        tenants.push(tenant);
        outcomes.push(TenantJobOutcome {
            tenant,
            submitted: job.submit,
            rejected: None,
            started: None,
            finished: None,
            qos: QosCharge::ZERO,
            result: None,
        });
    }

    // Submission order: by (submit time, submission index); the sort is
    // stable, so equal times keep input order.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].submit);

    let mut next_sub = 0usize;
    let mut running: Vec<RunningJob> = Vec::new();
    let mut grant_seq = 0u64;
    let mut makespan = SimDuration::ZERO;

    loop {
        // Earliest completion, ties to the earliest grant.
        let next_fin = running
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| (r.finish, r.grant_seq))
            .map(|(i, r)| (i, *r));
        let next_sub_at = order.get(next_sub).map(|&i| jobs[i].submit);

        // Completions first on ties: freed capacity must be visible to a
        // submission arriving at the same instant.
        let take_completion = match (next_fin, next_sub_at) {
            (Some((_, r)), Some(s)) => r.finish <= s,
            (Some(_), None) => true,
            (None, _) => false,
        };
        let now = if take_completion {
            let (ri, r) = next_fin.expect("completion selected");
            running.swap_remove(ri);
            sched.complete(r.finish, r.job, r.tenant);
            r.finish
        } else if let Some(at) = next_sub_at {
            {
                let idx = order[next_sub];
                next_sub += 1;
                let job = &jobs[idx];
                if let Err(err) = sched.submit(
                    at,
                    idx as u64,
                    tenants[idx],
                    job.cost_hint,
                    job.demand.clone(),
                ) {
                    outcomes[idx].rejected = Some(err);
                }
                at
            }
        } else {
            break;
        };

        // Drain grants: every grant executes its job for real, right here,
        // in grant order.
        while let Some(grant) = sched.try_grant(now) {
            let idx = grant.job as usize;
            let job = &jobs[idx];
            grant_seq += 1;
            let res = Runner::with_chaos(cluster, dfs, job.chaos.clone())
                .with_corruption(job.corruption.clone())
                .run(&job.conf, grant.start);
            let run_time = match &res {
                Ok(r) => r.stats.makespan(),
                // A failed job surrenders its slot immediately; the named
                // error is the job's outcome, not the mix's.
                Err(_) => SimDuration::ZERO,
            };
            let finish = grant.start + run_time + grant.qos.total_delay();
            makespan = makespan.max(finish.since(SimTime::ZERO));
            outcomes[idx].started = Some(grant.start);
            outcomes[idx].finished = Some(finish);
            outcomes[idx].qos = grant.qos;
            outcomes[idx].result = Some(res);
            running.push(RunningJob {
                finish,
                grant_seq,
                job: grant.job,
                tenant: grant.tenant,
            });
        }
    }

    let ledger = sched.ledger().clone();
    let counters = ledger_counters(cfg, &ledger);
    Ok(TenantMixOutcome {
        jobs: outcomes,
        log: sched.log().to_vec(),
        ledger,
        counters,
        makespan,
    })
}

/// The literal quiet path: each job runs through a plain [`Runner`] at its
/// submission time, in submission order — no scheduler, no log, no
/// ledger, no counters. A single job submitted at `SimTime::ZERO` is
/// byte-identical to [`crate::runner::run_job`].
fn run_quiet(cluster: &Cluster, dfs: &mut Dfs, jobs: Vec<TenantJob>) -> Result<TenantMixOutcome> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].submit);
    let mut outcomes: Vec<Option<TenantJobOutcome>> = (0..jobs.len()).map(|_| None).collect();
    let mut makespan = SimDuration::ZERO;
    for &idx in &order {
        let job = &jobs[idx];
        let res = Runner::with_chaos(cluster, dfs, job.chaos.clone())
            .with_corruption(job.corruption.clone())
            .run(&job.conf, job.submit);
        let run_time = match &res {
            Ok(r) => r.stats.makespan(),
            Err(_) => SimDuration::ZERO,
        };
        let finish = job.submit + run_time;
        makespan = makespan.max(finish.since(SimTime::ZERO));
        outcomes[idx] = Some(TenantJobOutcome {
            tenant: TenantId(0),
            submitted: job.submit,
            rejected: None,
            started: Some(job.submit),
            finished: Some(finish),
            qos: QosCharge::ZERO,
            result: Some(res),
        });
    }
    Ok(TenantMixOutcome {
        jobs: outcomes
            .into_iter()
            .map(|o| o.expect("all jobs ran"))
            .collect(),
        log: Vec::new(),
        ledger: TenancyLedger::new(1),
        counters: Counters::new(),
        makespan,
    })
}

/// Mirrors a non-empty ledger into `efind.admission.*` / `efind.tenant.*`
/// counters. Zero totals are skipped, so an all-quiet mix contributes
/// nothing (the PR-7 "empty ledgers are invisible" discipline).
fn ledger_counters(cfg: &TenancyConfig, ledger: &TenancyLedger) -> Counters {
    let mut counters = Counters::new();
    if ledger.is_empty() {
        return counters;
    }
    let mut add = |name: String, v: u64| {
        if v > 0 {
            counters.add(&name, v as i64);
        }
    };
    let mut submitted = 0u64;
    let mut granted = 0u64;
    let mut rejected = 0u64;
    let mut quota_rejected = 0u64;
    for (i, row) in ledger.rows().iter().enumerate() {
        submitted += row.submitted;
        granted += row.granted;
        rejected += row.rejected;
        quota_rejected += row.quota_rejected;
        if row.is_empty() {
            continue;
        }
        let name = cfg.tenant_name(TenantId(i as u16));
        add(format!("efind.tenant.{name}.granted"), row.granted);
        add(format!("efind.tenant.{name}.completed"), row.completed);
        add(format!("efind.tenant.{name}.rejected"), row.rejected);
        add(
            format!("efind.tenant.{name}.quota.rejected"),
            row.quota_rejected,
        );
        add(format!("efind.tenant.{name}.degraded"), row.degraded);
        add(
            format!("efind.tenant.{name}.shed.lookups"),
            row.shed_lookups,
        );
        add(
            format!("efind.tenant.{name}.throttle.nanos"),
            row.throttle_nanos,
        );
        add(format!("efind.tenant.{name}.wait.nanos"), row.wait_nanos);
    }
    let mut add_global = |name: &str, v: u64| {
        if v > 0 {
            counters.add(name, v as i64);
        }
    };
    add_global("efind.admission.submitted", submitted);
    add_global("efind.admission.granted", granted);
    add_global("efind.admission.rejected", rejected);
    add_global("efind.admission.quota.rejected", quota_rejected);
    counters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{mapper_fn, reducer_fn};
    use crate::runner::run_job;
    use efind_cluster::tenancy::{IndexRateLimit, TenantSpec};
    use efind_common::{Datum, Record};
    use efind_dfs::DfsConfig;

    fn setup() -> (Cluster, Dfs) {
        let cluster = Cluster::builder()
            .nodes(4)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 512,
                replication: 2,
                seed: 9,
            },
        );
        let text = ["the", "quick", "fox", "the", "lazy", "dog", "the", "fox"];
        let records: Vec<Record> = text
            .iter()
            .cycle()
            .take(200)
            .enumerate()
            .map(|(i, w)| Record::new(i as i64, *w))
            .collect();
        dfs.write_file("input", records);
        (cluster, dfs)
    }

    fn wordcount(name: &str, out: &str) -> JobConf {
        JobConf::new(name, "input", out)
            .add_mapper(mapper_fn(|rec, out, _ctx| {
                out.collect(Record::new(rec.value.clone(), 1i64));
            }))
            .with_reducer(
                reducer_fn(|key, values, out, _ctx| {
                    let total: i64 = values.iter().filter_map(Datum::as_int).sum();
                    out.collect(Record::new(key, total));
                }),
                2,
            )
    }

    #[test]
    fn quiet_single_job_matches_plain_runner() {
        let (cluster, mut dfs_plain) = setup();
        let plain = run_job(&cluster, &mut dfs_plain, &wordcount("wc", "out")).unwrap();

        let (cluster2, mut dfs_mix) = setup();
        let mix = run_tenant_mix(
            &cluster2,
            &mut dfs_mix,
            &TenancyConfig::none(),
            vec![TenantJob::new(
                "anyone",
                SimTime::ZERO,
                wordcount("wc", "out"),
            )],
        )
        .unwrap();

        assert!(mix.log.is_empty());
        assert!(mix.ledger.is_empty());
        assert!(mix.counters.is_empty());
        let res = mix.jobs[0].result.as_ref().unwrap().as_ref().unwrap();
        assert_eq!(res.stats.makespan(), plain.stats.makespan());
        assert_eq!(
            res.stats.counters.iter_sorted(),
            plain.stats.counters.iter_sorted()
        );
        assert_eq!(
            dfs_mix.read_file("out").unwrap(),
            dfs_plain.read_file("out").unwrap()
        );
    }

    fn contended_cfg() -> TenancyConfig {
        TenancyConfig::none()
            .tenant(TenantSpec::new("alpha").weight(2).max_queued(4))
            .tenant(TenantSpec::new("beta").weight(1).max_queued(4))
            .queue_capacity(8)
            .max_concurrent(1)
    }

    fn contended_jobs() -> Vec<TenantJob> {
        (0..4)
            .map(|i| {
                let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
                TenantJob::new(
                    tenant,
                    SimTime::ZERO + SimDuration::from_micros(i),
                    wordcount(&format!("wc{i}"), &format!("out{i}")),
                )
            })
            .collect()
    }

    #[test]
    fn armed_mix_double_run_is_bit_identical() {
        let run = || {
            let (cluster, mut dfs) = setup();
            let mix =
                run_tenant_mix(&cluster, &mut dfs, &contended_cfg(), contended_jobs()).unwrap();
            let outputs: Vec<_> = (0..4)
                .map(|i| dfs.read_file(&format!("out{i}")).unwrap())
                .collect();
            (mix, outputs)
        };
        let (a, out_a) = run();
        let (b, out_b) = run();
        assert_eq!(a.log, b.log);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.counters.iter_sorted(), b.counters.iter_sorted());
        assert_eq!(out_a, out_b);
        for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(ja.started, jb.started);
            assert_eq!(ja.finished, jb.finished);
        }
        // The armed mix mirrors its ledger into registered counters.
        assert_eq!(a.counters.get("efind.admission.submitted"), 4);
        assert_eq!(a.counters.get("efind.admission.granted"), 4);
        assert_eq!(a.counters.get("efind.tenant.alpha.granted"), 2);
        assert_eq!(a.counters.get("efind.tenant.beta.completed"), 2);
    }

    #[test]
    fn overflowing_queue_rejects_with_named_error_not_a_hang() {
        let cfg = TenancyConfig::none()
            .tenant(TenantSpec::new("alpha"))
            .tenant(TenantSpec::new("beta"))
            .queue_capacity(1)
            .max_concurrent(1);
        // All submitted at the same instant: one runs, one queues, two
        // are refused at the door.
        let jobs: Vec<TenantJob> = (0..4)
            .map(|i| {
                let tenant = if i % 2 == 0 { "alpha" } else { "beta" };
                TenantJob::new(
                    tenant,
                    SimTime::ZERO,
                    wordcount(&format!("wc{i}"), &format!("out{i}")),
                )
            })
            .collect();
        let (cluster, mut dfs) = setup();
        let mix = run_tenant_mix(&cluster, &mut dfs, &cfg, jobs).unwrap();
        let rejected: Vec<usize> = mix
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.rejected.is_some())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(rejected, vec![2, 3]);
        assert!(matches!(
            mix.jobs[2].rejected,
            Some(Error::AdmissionRejected(_))
        ));
        for i in [0, 1] {
            assert!(mix.jobs[i].finished.is_some());
            assert!(mix.jobs[i].result.as_ref().unwrap().is_ok());
        }
        assert_eq!(mix.counters.get("efind.admission.rejected"), 2);
    }

    #[test]
    fn quota_rejections_and_degraded_grants_reach_their_counters() {
        // One job runs at a time and alpha may queue one. Beta's job is
        // granted at once, and its demand of 1 000 lookups against a bucket
        // holding 100 would queue 0.9 ms a lookup, over the 100 µs gate, so
        // it sheds to scan. Alpha's first job queues behind it; its second
        // finds alpha's quota spent.
        let cfg = TenancyConfig::none()
            .tenant(TenantSpec::new("alpha").max_queued(1))
            .tenant(TenantSpec::new("beta"))
            .max_concurrent(1)
            .rate_limit(IndexRateLimit::new("users", 1000.0, 100.0))
            .degrade_threshold(SimDuration::from_micros(100))
            .scan_fallback_cost(SimDuration::from_micros(2));
        let jobs = vec![
            TenantJob::new("beta", SimTime::ZERO, wordcount("wc0", "out0")).demand("users", 1000),
            TenantJob::new(
                "alpha",
                SimTime::ZERO + SimDuration::from_micros(1),
                wordcount("wc1", "out1"),
            ),
            TenantJob::new(
                "alpha",
                SimTime::ZERO + SimDuration::from_micros(2),
                wordcount("wc2", "out2"),
            ),
        ];
        let (cluster, mut dfs) = setup();
        let mix = run_tenant_mix(&cluster, &mut dfs, &cfg, jobs).unwrap();
        assert!(mix.jobs[0].qos.degraded());
        assert!(mix.jobs[1].finished.is_some());
        assert!(matches!(
            mix.jobs[2].rejected,
            Some(Error::QuotaExhausted(_))
        ));
        let counters: Vec<(&str, i64)> = [
            "efind.admission.quota.rejected",
            "efind.tenant.alpha.quota.rejected",
            "efind.tenant.beta.degraded",
            "efind.tenant.beta.shed.lookups",
        ]
        .into_iter()
        .map(|name| (name, mix.counters.get(name)))
        .collect();
        assert_eq!(
            counters,
            [
                ("efind.admission.quota.rejected", 1),
                ("efind.tenant.alpha.quota.rejected", 1),
                ("efind.tenant.beta.degraded", 1),
                ("efind.tenant.beta.shed.lookups", 1000),
            ]
        );
    }

    #[test]
    fn unknown_tenant_is_a_config_error() {
        let cfg = TenancyConfig::none()
            .tenant(TenantSpec::new("alpha"))
            .tenant(TenantSpec::new("beta"));
        let (cluster, mut dfs) = setup();
        let res = run_tenant_mix(
            &cluster,
            &mut dfs,
            &cfg,
            vec![TenantJob::new(
                "nobody",
                SimTime::ZERO,
                wordcount("wc", "out"),
            )],
        );
        assert!(matches!(res, Err(Error::InvalidConfig(_))));
    }
}
