//! `q9_adaptive`: TPC-H Q9, a five-index operator chain. One iteration is
//! a `Mode::Dynamic` run followed by a `Mode::Optimized` run on a catalog
//! warmed during set-up.

use std::sync::Arc;

use efind::{Catalog, EFindConfig, EFindRuntime, IndexJobConf, Mode, Strategy};
use efind_cluster::Cluster;
use efind_common::{Error, FxHashMap, Result};
use efind_dfs::{Dfs, DfsConfig};
use efind_workloads::harness::{run_mode, standard_modes, Scenario};
use efind_workloads::tpch::{self, TpchConfig};

use super::{file_digest, timed, Ran, Scale, SetupTimes, Workload};
use crate::digest::Digest;
use crate::pipeline::{install_timed_accessors, run_enhanced_traced, Layers};
use crate::trace::{AccessorClock, Tracer};

pub struct Q9 {
    scenario: Scenario,
    /// `scenario.ijob` with a `TimedAccessor` around each of the five
    /// indices, for traced runs.
    traced_ijob: IndexJobConf,
    clock: Arc<AccessorClock>,
    /// Operator statistics of the baseline run made during set-up, in the
    /// catalog's own persistence format; every iteration loads them anew.
    catalog: String,
    /// Digest of that baseline run's output: every lookup remote, no
    /// cache, no shuffle — the plainest execution is the oracle.
    baseline: Digest,
}

impl Q9 {
    pub fn setup(seed: u64, scale: Scale, times: &mut SetupTimes) -> Result<Self> {
        let config = TpchConfig {
            scale: scale.pick(0.0075, 0.0005),
            chunks: scale.pick(240, 8),
            seed,
            ..TpchConfig::default()
        };
        // `tpch::q9_scenario`, taken apart so each set-up layer is timed.
        let cluster = Cluster::edbt_testbed();
        let data = timed(&mut times.generate_ns, || tpch::generate(&config));
        let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        timed(&mut times.dfs_load_ns, || {
            dfs.write_file_with_chunks("tpch.lineitem", data.lineitem.clone(), config.chunks)
        });
        let ijob = timed(&mut times.index_build_ns, || tpch::q9_job(&cluster, &data));
        // §5.1: the Repart configuration re-partitions Supplier and caches
        // the rest.
        let mut repart_overrides = FxHashMap::default();
        repart_overrides.insert("supplier".to_owned(), Strategy::Repartition);
        let mut scenario = Scenario {
            cluster,
            dfs,
            ijob,
            repart_overrides,
            idxloc_applicable: true,
            efind_config: EFindConfig::default(),
        };

        let clock = Arc::new(AccessorClock::default());
        let mut traced_ijob = scenario.ijob.clone();
        install_timed_accessors(&mut traced_ijob, &clock);

        let mut rt = EFindRuntime::with_config(
            &scenario.cluster,
            &mut scenario.dfs,
            scenario.efind_config.clone(),
        );
        rt.run(&scenario.ijob, Mode::Uniform(Strategy::Baseline))?;
        let catalog = rt.catalog.to_text();
        let baseline = file_digest(&scenario.dfs, &scenario.ijob.output)?;
        Ok(Q9 {
            scenario,
            traced_ijob,
            clock,
            catalog,
            baseline,
        })
    }

    /// The dynamic run's output is overwritten by the optimized run's, so
    /// it is checked here, between the two (a few hundred records).
    fn check_dynamic_output(dfs: &Dfs, output: &str, expected: Digest) -> Result<()> {
        if file_digest(dfs, output)? == expected {
            Ok(())
        } else {
            Err(Error::Internal(
                "q9 dynamic run wrote a different answer than the baseline run".into(),
            ))
        }
    }
}

impl Workload for Q9 {
    fn run(&mut self) -> Result<Ran> {
        let s = &mut self.scenario;
        let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
        rt.catalog = Catalog::from_text(&self.catalog)?;
        let dynamic = rt.run(&s.ijob, Mode::Dynamic)?;
        Self::check_dynamic_output(rt.dfs, &s.ijob.output, self.baseline)?;
        let optimized = rt.run(&s.ijob, Mode::Optimized)?;
        let mut jobs = dynamic.jobs;
        jobs.extend(optimized.jobs);
        Ok(Ran {
            virtual_s: (dynamic.total_time + optimized.total_time).as_secs_f64(),
            jobs,
            replans: dynamic.replanned as u32,
        })
    }

    fn run_traced(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> Result<Ran> {
        let s = &mut self.scenario;
        let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
        rt.catalog = Catalog::from_text(&self.catalog)?;
        // The adaptive run's steps are crate-private: one span around the
        // nearest public call.
        let span = tracer.begin("core.dynamic_run");
        let dynamic = rt.run(&self.traced_ijob, Mode::Dynamic);
        let inside = self.clock.take();
        tracer.aggregate("index.lookup", span, inside.busy_ns, inside.calls);
        layers.add_ns("core.dynamic_run_ms", tracer.end(span));
        layers.add_ns("index.lookup_ms", inside.busy_ns);
        layers.add("index.lookups", inside.calls as f64);
        layers.add("index.bytes_returned", inside.bytes as f64);
        let dynamic = dynamic?;
        tracer.pause();
        Self::check_dynamic_output(rt.dfs, &s.ijob.output, self.baseline)?;
        tracer.resume();

        let optimized = run_enhanced_traced(
            &mut rt,
            &self.traced_ijob,
            &Mode::Optimized,
            &self.clock,
            tracer,
            layers,
        )?;
        let mut jobs = dynamic.jobs;
        jobs.extend(optimized.jobs);
        Ok(Ran {
            virtual_s: (dynamic.total_time + optimized.total_time).as_secs_f64(),
            jobs,
            replans: dynamic.replanned as u32,
        })
    }

    fn cluster(&self) -> &Cluster {
        &self.scenario.cluster
    }

    fn dfs(&self) -> &Dfs {
        &self.scenario.dfs
    }

    fn output_file(&self) -> &str {
        &self.scenario.ijob.output
    }

    fn reference(&self) -> Digest {
        self.baseline
    }

    /// The six configurations of §5.1, once each: one answer across all
    /// of them, and the plan-quality ratios on the virtual clock.
    fn sweep(&mut self, layers: &mut Layers) -> Result<()> {
        let mut secs: FxHashMap<String, f64> = FxHashMap::default();
        for (label, mode) in standard_modes(&self.scenario) {
            let m = run_mode(&mut self.scenario, &label, mode)?;
            if file_digest(&self.scenario.dfs, &self.scenario.ijob.output)? != self.baseline {
                return Err(Error::Internal(format!(
                    "q9 configuration {label} wrote a different answer than the baseline run"
                )));
            }
            secs.insert(label, m.secs);
        }
        let of = |label: &str| secs.get(label).copied().unwrap_or(f64::NAN);
        let best_forced = ["base", "cache", "repart", "idxloc"]
            .iter()
            .map(|l| of(l))
            .fold(f64::INFINITY, f64::min);
        layers.set("core.plan.regret", of("optimized") / best_forced);
        layers.set(
            "core.plan.dynamic_over_optimized",
            of("dynamic") / of("optimized"),
        );
        layers.set("core.plan.speedup_vs_base", of("base") / of("optimized"));
        Ok(())
    }
}
