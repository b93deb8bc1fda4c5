//! `scanjoin_write`: the reduce-side TPC-H LineItem ⋈ Orders join, with
//! the tagged-input DFS write inside the timed section.

use efind::EFindConfig;
use efind_cluster::{Cluster, SimDuration};
use efind_common::{Datum, Error, FxHashMap, Record, Result};
use efind_dfs::{Dfs, DfsConfig};
use efind_mapreduce::{mapper_fn, reducer_fn, JobConf};
use efind_workloads::scanjoin::run_scan_join;
use efind_workloads::tpch::{self, TpchConfig, TpchData};

use super::{timed, Ran, Scale, SetupTimes, Workload};
use crate::digest::Digest;
use crate::pipeline::{run_jobs_traced, Layers};
use crate::trace::{AccessorClock, Tracer};

const SHIP_CUTOFF: i64 = 2_500;
const INPUT: &str = "scanjoin.input";
const OUTPUT: &str = "scanjoin.out";

pub struct ScanJoin {
    cluster: Cluster,
    dfs: Dfs,
    data: TpchData,
    chunks: usize,
}

impl ScanJoin {
    pub fn setup(seed: u64, scale: Scale, times: &mut SetupTimes) -> Self {
        let chunks = scale.pick(40, 4);
        let data = timed(&mut times.generate_ns, || {
            tpch::generate(&TpchConfig {
                scale: scale.pick(0.03, 0.0005),
                chunks,
                seed,
                ..TpchConfig::default()
            })
        });
        let cluster = Cluster::edbt_testbed();
        let dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        ScanJoin {
            cluster,
            dfs,
            data,
            chunks,
        }
    }

    /// The tagged input `run_scan_join` scans both tables from.
    fn tagged_input(&self) -> Vec<Record> {
        let data = &self.data;
        let mut input = Vec::with_capacity(data.lineitem.len() + data.orders.len());
        for rec in &data.lineitem {
            input.push(Record::new(
                rec.key.clone(),
                Datum::List(vec![Datum::Text("L".into()), rec.value.clone()]),
            ));
        }
        for (orderkey, fields) in &data.orders {
            input.push(Record::new(
                orderkey.clone(),
                Datum::List(vec![Datum::Text("O".into()), Datum::List(fields.clone())]),
            ));
        }
        input
    }
}

/// The job `run_scan_join` builds for itself, written out again so the
/// traced run can put spans inside it. A traced run checks that this job
/// and the program's agree on output and virtual time.
fn scan_join_conf() -> JobConf {
    JobConf::new("scan-join", INPUT, OUTPUT)
        .with_cpu_per_record(SimDuration::from_micros(20))
        .add_mapper(mapper_fn(|rec, out, _| {
            let Some(parts) = rec.value.as_list() else {
                return;
            };
            match parts[0].as_text().unwrap_or("") {
                "L" => {
                    let Some(l) = parts[1].as_list() else { return };
                    if l[6].as_int().unwrap_or(i64::MAX) >= SHIP_CUTOFF {
                        return;
                    }
                    out.collect(Record {
                        key: l[0].clone(),
                        value: rec.value.clone(),
                    });
                }
                "O" => out.collect(Record {
                    key: rec.key.clone(),
                    value: rec.value.clone(),
                }),
                _ => {}
            }
        }))
        .with_reducer(
            reducer_fn(|key, values, out, _| {
                let mut order = false;
                let mut lineitems = 0i64;
                for v in &values {
                    match v.as_list().and_then(|p| p[0].as_text()) {
                        Some("O") => order = true,
                        Some("L") => lineitems += 1,
                        _ => {}
                    }
                }
                if order && lineitems > 0 {
                    out.collect(Record::new(key, lineitems));
                }
            }),
            24,
        )
}

impl Workload for ScanJoin {
    fn prepare(&mut self) {
        self.dfs = Dfs::new(self.cluster.clone(), DfsConfig::default());
    }

    fn run(&mut self) -> Result<Ran> {
        let (time, joined) = run_scan_join(
            &self.cluster,
            &mut self.dfs,
            &self.data,
            SHIP_CUTOFF,
            self.chunks,
        )?;
        if joined == 0 {
            return Err(Error::Internal("scan join joined nothing".into()));
        }
        Ok(Ran {
            virtual_s: time.as_secs_f64(),
            jobs: Vec::new(),
            replans: 0,
        })
    }

    fn run_traced(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> Result<Ran> {
        let (input, ns) = tracer.span("workloads.tag_input", || self.tagged_input());
        layers.add_ns("workloads.prepare_ms", ns);
        let (file, ns) = tracer.span("dfs.write", || {
            self.dfs.write_file_with_chunks(INPUT, input, self.chunks)
        });
        layers.add_ns("dfs.write_ms", ns);
        layers.add("dfs.bytes_written", file.total_bytes() as f64);
        let run = run_jobs_traced(
            &self.cluster,
            &mut self.dfs,
            &EFindConfig::default(),
            &[scan_join_conf()],
            &AccessorClock::default(),
            tracer,
            layers,
        )?;
        Ok(Ran {
            virtual_s: run.total_time.as_secs_f64(),
            jobs: run.jobs,
            replans: 0,
        })
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    fn output_file(&self) -> &str {
        OUTPUT
    }

    fn reference(&self) -> Digest {
        // A plain hash join: count the selected line items of every order
        // that exists.
        let mut per_order: FxHashMap<&Datum, i64> =
            self.data.orders.iter().map(|(k, _)| (k, 0)).collect();
        for rec in &self.data.lineitem {
            let Some(l) = rec.value.as_list() else {
                continue;
            };
            if l[6].as_int().unwrap_or(i64::MAX) >= SHIP_CUTOFF {
                continue;
            }
            if let Some(n) = per_order.get_mut(&l[0]) {
                *n += 1;
            }
        }
        let mut digest = Digest::default();
        // The digest is a commutative sum, so the map's visit order cannot escape.
        for (orderkey, n) in per_order {
            if n > 0 {
                digest.add(&Record::new(orderkey.clone(), n));
            }
        }
        digest
    }
}
