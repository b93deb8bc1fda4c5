//! A scan-based (reduce-side / repartition) join — the conventional
//! MapReduce join the paper's §1 contrasts index access against:
//! *"Present join implementations on MapReduce are mainly scan based.
//! Index-based joins … have been shown to out-perform scan-based joins
//! under high join selectivity"* (citing O'Neil and Graefe).
//!
//! The classic implementation: both tables are scanned, records are
//! tagged with their side, shuffled on the join key, and each reduce
//! group combines the one dimension row with its fact rows. This module
//! provides that join for LineItem ⋈ Orders so the selectivity-sweep
//! experiment (e14) can measure where index joins take over.

use std::sync::Arc;

use efind_cluster::{ChaosPlan, Cluster, CorruptionPlan, SimDuration, SimTime};
use efind_common::{Datum, Record, Result};
use efind_dfs::Dfs;
use efind_mapreduce::{mapper_fn, reducer_fn, JobConf, Runner};

use crate::tpch::TpchData;

/// Per-record processing cost used by BOTH joins: parsing, tagging, and
/// join bookkeeping per record — tens of microseconds in JVM-era Hadoop.
/// Shared so the comparison isolates the structural difference (shuffling
/// the dimension table vs probing its index).
const CPU_PER_RECORD: SimDuration = SimDuration::from_micros(20);

/// Runs the scan-based LineItem ⋈ Orders join: lineitems with
/// `shipdate < cutoff` joined to their order rows. Returns the virtual
/// duration and the number of joined rows.
pub fn run_scan_join(
    cluster: &Cluster,
    dfs: &mut Dfs,
    data: &TpchData,
    ship_cutoff: i64,
    chunks: usize,
) -> Result<(SimDuration, u64)> {
    run_scan_join_with(
        cluster,
        dfs,
        data,
        ship_cutoff,
        chunks,
        ChaosPlan::none(),
        CorruptionPlan::none(),
    )
}

/// [`run_scan_join`] with explicit chaos and corruption plans installed on
/// the runner. Quiet plans (including seeded-but-quiet ones) must be
/// bit-identical to [`run_scan_join`] — the quiet-profile golden test pins
/// exactly that.
pub fn run_scan_join_with(
    cluster: &Cluster,
    dfs: &mut Dfs,
    data: &TpchData,
    ship_cutoff: i64,
    chunks: usize,
    chaos: ChaosPlan,
    corruption: CorruptionPlan,
) -> Result<(SimDuration, u64)> {
    // The combined tagged input both sides are scanned from — exactly how
    // a reduce-side join feeds one MapReduce job.
    let mut input: Vec<Record> = Vec::with_capacity(data.lineitem.len() + data.orders.len());
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
    dfs.write_file_with_chunks("scanjoin.input", input, chunks);

    let conf = JobConf::new("scan-join", "scanjoin.input", "scanjoin.out")
        .with_cpu_per_record(CPU_PER_RECORD)
        .add_mapper(mapper_fn(move |rec, out, _| {
            let Some(parts) = rec.value.as_list() else {
                return;
            };
            let tag = parts[0].as_text().unwrap_or("");
            match tag {
                "L" => {
                    // Filter fact rows map-side; shuffle key = orderkey.
                    let Some(l) = parts[1].as_list() else { return };
                    if l[6].as_int().unwrap_or(i64::MAX) >= ship_cutoff {
                        return;
                    }
                    out.collect(Record {
                        key: l[0].clone(),
                        value: rec.value.clone(),
                    });
                }
                "O" => {
                    // Every dimension row must be shuffled — the scan
                    // join's fixed cost regardless of fact selectivity.
                    out.collect(Record {
                        key: rec.key.clone(),
                        value: rec.value.clone(),
                    });
                }
                _ => {}
            }
        }))
        .with_reducer(
            reducer_fn(|key, values, out, _| {
                let mut order: Option<&Datum> = None;
                let mut lineitems = 0i64;
                for v in &values {
                    match v.as_list().and_then(|p| p[0].as_text()) {
                        Some("O") => order = Some(v),
                        Some("L") => lineitems += 1,
                        _ => {}
                    }
                }
                if order.is_some() && lineitems > 0 {
                    out.collect(Record::new(key, lineitems));
                }
            }),
            24,
        );

    let res = Runner::with_chaos(cluster, dfs, chaos)
        .with_corruption(corruption)
        .run(&conf, SimTime::ZERO)?;
    let joined: u64 = dfs
        .read_file("scanjoin.out")?
        .iter()
        .map(|r| r.value.as_int().unwrap_or(0) as u64)
        .sum();
    Ok((res.stats.makespan(), joined))
}

/// The equivalent index-nested-loop join, expressed through EFind (as a
/// declarative `efind-ql` pipeline): filter lineitems, probe the Orders
/// index only for survivors.
pub fn run_index_join(
    cluster: &Cluster,
    dfs: &mut Dfs,
    data: &TpchData,
    ship_cutoff: i64,
    chunks: usize,
) -> Result<(SimDuration, u64)> {
    use efind_index::{KvStore, KvStoreConfig};
    use efind_ql::{col, lit, Agg, Query};

    dfs.write_file_with_chunks("idxjoin.input", data.lineitem.clone(), chunks);
    let orders = Arc::new(KvStore::build(
        "orders",
        cluster,
        KvStoreConfig::default(),
        data.orders.clone(),
    ));
    let mut job = Query::scan("idxjoin.input")
        .filter(col(6).lt(lit(ship_cutoff)))
        .index_join("orders", orders, col(0), [1])
        .group_by([])
        .aggregate([Agg::Count])
        .into_job("index-join", "idxjoin.out");
    job.cpu_per_record = CPU_PER_RECORD;

    let mut rt = efind::EFindRuntime::new(cluster, dfs);
    let res = rt.run(&job, efind::Mode::Uniform(efind::Strategy::Cache))?;
    let joined = rt
        .dfs
        .read_file("idxjoin.out")?
        .first()
        .and_then(|r| r.value.as_list().map(|l| l[0].as_int().unwrap_or(0) as u64))
        .unwrap_or(0);
    Ok((res.total_time, joined))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpch::{generate, TpchConfig};
    use efind_dfs::DfsConfig;

    fn setup() -> (Cluster, Dfs, TpchData) {
        let cluster = Cluster::edbt_testbed();
        let dfs = Dfs::new(cluster.clone(), DfsConfig::default());
        let data = generate(&TpchConfig {
            scale: 0.002,
            chunks: 30,
            seed: 3,
            ..TpchConfig::default()
        });
        (cluster, dfs, data)
    }

    fn reference_count(data: &TpchData, ship_cutoff: i64) -> u64 {
        let orders: std::collections::HashSet<&Datum> =
            data.orders.iter().map(|(k, _)| k).collect();
        data.lineitem
            .iter()
            .filter(|rec| {
                let l = rec.value.as_list().unwrap();
                l[6].as_int().unwrap() < ship_cutoff && orders.contains(&l[0])
            })
            .count() as u64
    }

    #[test]
    fn scan_and_index_joins_agree_with_reference() {
        let (cluster, mut dfs, data) = setup();
        for cutoff in [200i64, 1200, 5000] {
            let expect = reference_count(&data, cutoff);
            let (_, scan) = run_scan_join(&cluster, &mut dfs, &data, cutoff, 30).unwrap();
            let (_, index) = run_index_join(&cluster, &mut dfs, &data, cutoff, 30).unwrap();
            assert_eq!(scan, expect, "scan join at cutoff {cutoff}");
            assert_eq!(index, expect, "index join at cutoff {cutoff}");
        }
    }

    #[test]
    fn index_join_wins_at_high_selectivity() {
        // Very selective fact filter: the index join probes a handful of
        // keys while the scan join still scans and shuffles the whole
        // Orders table.
        let (cluster, mut dfs, data) = setup();
        let cutoff = 60; // ≈2.5% of shipdates
        let (scan_t, _) = run_scan_join(&cluster, &mut dfs, &data, cutoff, 30).unwrap();
        let (index_t, _) = run_index_join(&cluster, &mut dfs, &data, cutoff, 30).unwrap();
        assert!(
            index_t < scan_t,
            "index {index_t} should beat scan {scan_t} at high selectivity"
        );
    }

    #[test]
    fn scan_join_wins_when_everything_matches() {
        // No selectivity: probing the index once per fact row costs more
        // than one extra shuffle of the dimension table.
        let (cluster, mut dfs, data) = setup();
        let cutoff = i64::MAX;
        let (scan_t, scan_n) = run_scan_join(&cluster, &mut dfs, &data, cutoff, 30).unwrap();
        let (index_t, index_n) = run_index_join(&cluster, &mut dfs, &data, cutoff, 30).unwrap();
        assert_eq!(scan_n, index_n);
        assert!(
            scan_t < index_t,
            "scan {scan_t} should beat index {index_t} at full selectivity"
        );
    }
}
