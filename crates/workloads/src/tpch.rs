//! TPC-H-shaped generator and the Q3/Q9 index-nested-loop-join jobs
//! (§5.1–5.2, Fig. 11(b)–(e)).
//!
//! The paper composes MapReduce jobs following MySQL's join order, with
//! LineItem as the main input and indices on every other table: *"For Q3,
//! the job first joins LineItem with Orders, then with Customer. For Q9,
//! the job first joins LineItem with Supplier, then with Part, PartSupply,
//! Orders, and finally with Nation."* Each join becomes one EFind head
//! operator with one index.
//!
//! The generator reproduces the two key correlations behind the paper's
//! results: lineitems of one order are stored *consecutively* (so Q3's
//! Orders lookups have strong task-local redundancy and the cache wins),
//! while `l_suppkey` is uniform random (so Q9's Supplier lookups have no
//! locality and only re-partitioning removes the redundancy).
//! `dup_lineitem = 10` reproduces the DUP10 variants.

use std::borrow::Cow;
use std::sync::Arc;

use efind::{
    BoundOperator, EFindConfig, IndexInput, IndexJobConf, IndexOperator, IndexOutput, Strategy,
};
use efind_cluster::Cluster;
use efind_common::{Datum, FxHashMap, Record};
use efind_dfs::{Dfs, DfsConfig};
use efind_index::{KvStore, KvStoreConfig};
use efind_mapreduce::{mapper_fn, reducer_fn, Collector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::harness::Scenario;

/// Q3's date cutoff (days since epoch): `o_orderdate < CUTOFF` and
/// `l_shipdate > CUTOFF`.
pub const Q3_DATE_CUTOFF: i64 = 1200;
/// Q3's market segment filter.
pub const Q3_SEGMENT: &str = "BUILDING";
/// Q9's part-name token filter (`p_name like '%green%'`).
pub const Q9_COLOR: &str = "green";

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const COLORS: [&str; 30] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cornsilk",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "floral",
    "forest",
    "green",
];
const NATIONS: usize = 25;

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct TpchConfig {
    /// TPC-H scale factor (1.0 = 6M lineitems; the reproduction default
    /// is 0.01).
    pub scale: f64,
    /// LineItem duplication factor (10 = the paper's DUP10).
    pub dup_lineitem: usize,
    /// Input chunks for the LineItem file.
    pub chunks: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale: 0.03,
            dup_lineitem: 1,
            chunks: 150,
            seed: 0x79C4,
        }
    }
}

/// The generated database.
pub struct TpchData {
    /// LineItem as MapReduce records:
    /// `value = [orderkey, partkey, suppkey, qty, extprice, discount, shipdate]`.
    pub lineitem: Vec<Record>,
    /// `orderkey → [custkey, orderdate, shippriority]`.
    pub orders: Vec<(Datum, Vec<Datum>)>,
    /// `custkey → [mktsegment, nationkey]`.
    pub customer: Vec<(Datum, Vec<Datum>)>,
    /// `suppkey → [name, nationkey]`.
    pub supplier: Vec<(Datum, Vec<Datum>)>,
    /// `partkey → [name, type]`.
    pub part: Vec<(Datum, Vec<Datum>)>,
    /// `[partkey, suppkey] → [supplycost]`.
    pub partsupp: Vec<(Datum, Vec<Datum>)>,
    /// `nationkey → [name]`.
    pub nation: Vec<(Datum, Vec<Datum>)>,
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(4)
}

/// Dimension tables shrink less than the fact table: the paper's regime
/// has far more distinct supplier/part/customer keys than the 1024-entry
/// lookup cache, and a faithful reproduction must keep that inequality
/// even at tiny scale factors (otherwise the cache degenerates to a full
/// mirror of the index and Q9's redundancy structure disappears).
fn scaled_dim(base: usize, scale: f64, floor: usize) -> usize {
    ((base as f64 * scale) as usize).max(floor)
}

fn supplier_of_part(partkey: i64, j: i64, num_suppliers: i64) -> i64 {
    (partkey + j * (num_suppliers / 4).max(1)) % num_suppliers
}

/// Generates all tables at the configured scale.
pub fn generate(config: &TpchConfig) -> TpchData {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let n_supp = scaled_dim(10_000, config.scale, 3_000) as i64;
    let n_part = scaled_dim(200_000, config.scale, 10_000) as i64;
    let n_cust = scaled_dim(150_000, config.scale, 7_500) as i64;
    let n_orders = scaled(1_500_000, config.scale) as i64;

    let supplier: Vec<(Datum, Vec<Datum>)> = (0..n_supp)
        .map(|s| {
            (
                Datum::Int(s),
                vec![
                    Datum::Text(format!("Supplier#{s:09}")),
                    Datum::Int(s % NATIONS as i64),
                ],
            )
        })
        .collect();

    let part: Vec<(Datum, Vec<Datum>)> = (0..n_part)
        .map(|p| {
            let name = format!(
                "{} {} {}",
                COLORS[rng.gen_range(0..COLORS.len())],
                COLORS[rng.gen_range(0..COLORS.len())],
                COLORS[rng.gen_range(0..COLORS.len())]
            );
            (
                Datum::Int(p),
                vec![Datum::Text(name), Datum::Text(format!("TYPE#{}", p % 25))],
            )
        })
        .collect();

    let partsupp: Vec<(Datum, Vec<Datum>)> = (0..n_part)
        .flat_map(|p| {
            (0..4).map(move |j| {
                (
                    Datum::List(vec![
                        Datum::Int(p),
                        Datum::Int(supplier_of_part(p, j, n_supp)),
                    ]),
                    vec![Datum::Float(100.0 + ((p * 7 + j * 13) % 900) as f64 / 10.0)],
                )
            })
        })
        .collect();

    let customer: Vec<(Datum, Vec<Datum>)> = (0..n_cust)
        .map(|c| {
            (
                Datum::Int(c),
                vec![
                    Datum::Text(SEGMENTS[rng.gen_range(0..SEGMENTS.len())].to_owned()),
                    Datum::Int(c % NATIONS as i64),
                ],
            )
        })
        .collect();

    let nation: Vec<(Datum, Vec<Datum>)> = (0..NATIONS as i64)
        .map(|n| (Datum::Int(n), vec![Datum::Text(format!("NATION{n:02}"))]))
        .collect();

    let mut orders = Vec::with_capacity(n_orders as usize);
    let mut lineitem_base = Vec::new();
    for o in 0..n_orders {
        let orderdate = rng.gen_range(0..2400i64);
        orders.push((
            Datum::Int(o),
            vec![
                Datum::Int(rng.gen_range(0..n_cust)),
                Datum::Int(orderdate),
                Datum::Int(rng.gen_range(0..3i64)),
            ],
        ));
        // Lineitems of one order are generated (and therefore stored)
        // consecutively, as in dbgen output.
        for _ in 0..rng.gen_range(1..=7usize) {
            let partkey = rng.gen_range(0..n_part);
            let suppkey = supplier_of_part(partkey, rng.gen_range(0..4i64), n_supp);
            lineitem_base.push(Datum::List(vec![
                Datum::Int(o),
                Datum::Int(partkey),
                Datum::Int(suppkey),
                Datum::Float(rng.gen_range(1..50i64) as f64),
                Datum::Float(rng.gen_range(1000..100_000i64) as f64 / 100.0),
                Datum::Float(rng.gen_range(0..10i64) as f64 / 100.0),
                Datum::Int(orderdate + rng.gen_range(1..=120i64)),
            ]));
        }
    }

    let dup = config.dup_lineitem.max(1);
    let mut lineitem = Vec::with_capacity(lineitem_base.len() * dup);
    let mut id = 0i64;
    for _ in 0..dup {
        for v in &lineitem_base {
            lineitem.push(Record::new(id, v.clone()));
            id += 1;
        }
    }

    TpchData {
        lineitem,
        orders,
        customer,
        supplier,
        part,
        partsupp,
        nation,
    }
}

/// Clones the table one pair at a time, as the store consumes it: each
/// cloned list is freed as soon as the store has made its shared block of
/// it, so the table is never held twice.
fn kv(name: &str, cluster: &Cluster, pairs: &[(Datum, Vec<Datum>)]) -> Arc<KvStore> {
    Arc::new(KvStore::build(
        name,
        cluster,
        KvStoreConfig::default(),
        pairs.iter().cloned(),
    ))
}

fn field(value: &Datum, idx: usize) -> Datum {
    value
        .as_list()
        .map(|l| l[idx].clone())
        .unwrap_or(Datum::Null)
}

/// One join of a TPC-H job: the lineitem-derived row is looked up in one
/// index by `key` and carried whole, and `post` sees it with the values the
/// index found for the key; a row whose key the index lacks is dropped.
/// `pre_process` hands back the row it was given, so a lent input row is
/// carried in place, not copied; `post` is lent that row, or the one its
/// carrier decoded from a stored payload, and copies only what it emits of
/// it.
struct Join {
    name: &'static str,
    key: fn(&Datum) -> Datum,
    post: fn(Cow<'_, Record>, &[Datum], &mut dyn Collector),
}

impl IndexOperator for Join {
    fn name(&self) -> &str {
        self.name
    }

    fn num_indices(&self) -> usize {
        1
    }

    fn pre_process<'r>(&self, rec: Cow<'r, Record>, keys: &mut IndexInput) -> Cow<'r, Record> {
        keys.put(0, (self.key)(&rec.value));
        rec
    }

    fn post_process(&self, rec: Cow<'_, Record>, values: &IndexOutput, out: &mut dyn Collector) {
        let found = values.first(0);
        if !found.is_empty() {
            (self.post)(rec, found, out);
        }
    }
}

fn join(join: Join, index: Arc<KvStore>) -> BoundOperator {
    BoundOperator::new(Arc::new(join)).add_index(index)
}

/// The key and the first `keep` fields of a `List` row, in a vector with
/// room for `width` fields: the row's own vector when it is handed over,
/// grown once and exactly if it is narrower, and a new one when it is lent.
fn row(rec: Cow<'_, Record>, keep: usize, width: usize) -> Option<(Datum, Vec<Datum>)> {
    match rec {
        Cow::Owned(Record {
            key,
            value: Datum::List(mut fields),
        }) => {
            fields.truncate(keep);
            fields.reserve_exact(width.saturating_sub(fields.len()));
            Some((key, fields))
        }
        Cow::Borrowed(Record {
            key,
            value: Datum::List(fields),
        }) => {
            let fields = &fields[..keep.min(fields.len())];
            let mut row = Vec::with_capacity(width.max(fields.len()));
            row.extend_from_slice(fields);
            Some((key.clone(), row))
        }
        _ => None,
    }
}

/// Q3's I1, the Orders join: keeps lineitems of orders placed before the
/// cutoff and shipped after it, as `[orderkey, revenue, custkey,
/// orderdate, shippriority]`.
fn q3_orders(rec: Cow<'_, Record>, o: &[Datum], out: &mut dyn Collector) {
    let Some(l) = rec.value.as_list() else { return };
    let orderdate = o[1].as_int().unwrap_or(i64::MAX);
    let shipdate = l[6].as_int().unwrap_or(0);
    if orderdate >= Q3_DATE_CUTOFF || shipdate <= Q3_DATE_CUTOFF {
        return;
    }
    let revenue = l[4].as_float().unwrap_or(0.0) * (1.0 - l[5].as_float().unwrap_or(0.0));
    out.collect(Record {
        key: rec.key.clone(),
        value: Datum::List(vec![
            l[0].clone(),          // orderkey
            Datum::Float(revenue), // revenue
            o[0].clone(),          // custkey
            o[1].clone(),          // orderdate
            o[2].clone(),          // shippriority
        ]),
    });
}

/// Q3's I2, the Customer join: keeps rows of the market segment, as
/// `[orderkey, revenue, orderdate, shippriority]`.
fn q3_customer(rec: Cow<'_, Record>, c: &[Datum], out: &mut dyn Collector) {
    if c[0].as_text() != Some(Q3_SEGMENT) {
        return;
    }
    let Some(v) = rec.value.as_list() else { return };
    out.collect(Record {
        key: rec.key.clone(),
        value: Datum::List(vec![v[0].clone(), v[1].clone(), v[3].clone(), v[4].clone()]),
    });
}

/// Builds the Q3 job over a loaded DFS (`tpch.lineitem` present).
pub fn q3_job(cluster: &Cluster, data: &TpchData) -> IndexJobConf {
    let orders = Join {
        name: "orders",
        key: |l| field(l, 0),
        post: q3_orders,
    };
    let customer = Join {
        name: "customer",
        key: |v| field(v, 2),
        post: q3_customer,
    };
    IndexJobConf::new("tpch-q3", "tpch.lineitem", "tpch.q3")
        .add_head_index_operator(join(orders, kv("orders", cluster, &data.orders)))
        .add_head_index_operator(join(customer, kv("customer", cluster, &data.customer)))
        .set_mapper(mapper_fn(|rec, out, _| {
            let Some(v) = rec.value.as_list() else { return };
            out.collect(Record {
                key: Datum::List(vec![v[0].clone(), v[2].clone(), v[3].clone()]),
                value: v[1].clone(),
            });
        }))
        .set_reducer(
            reducer_fn(|key, values, out, _| {
                let total: f64 = values.iter().filter_map(Datum::as_float).sum();
                out.collect(Record::new(key, total));
            }),
            24,
        )
}

/// Fields of a Q9 row once every join has appended its own: `[ok, pk, sk,
/// qty, price, disc, snation, supplycost, o_year, nation]`.
const Q9_WIDTH: usize = 10;

/// Q9's I1, the Supplier join: `[ok, pk, sk, qty, price, disc, snation]`.
/// A row it is handed becomes the output, its shipdate giving way to the
/// supplier's nation key.
fn q9_supplier(rec: Cow<'_, Record>, s: &[Datum], out: &mut dyn Collector) {
    let Some((key, mut v)) = row(rec, 6, 7) else {
        return;
    };
    v.push(s[1].clone()); // s_nationkey at [6]
    out.collect(Record {
        key,
        value: Datum::List(v),
    });
}

/// Q9's I2, the Part join: keeps only parts whose name contains the color
/// token (`p_name like '%green%'`); only those rows are copied.
fn q9_part(rec: Cow<'_, Record>, p: &[Datum], out: &mut dyn Collector) {
    if !p[0].as_text().is_some_and(|n| n.contains(Q9_COLOR)) {
        return;
    }
    q9_append(rec, None, out);
}

/// Emits the row with `field`, if any, appended, in a vector with room for
/// every field the joins after it append: the row grows at most once.
fn q9_append(rec: Cow<'_, Record>, field: Option<Datum>, out: &mut dyn Collector) {
    let Some((key, mut v)) = row(rec, usize::MAX, Q9_WIDTH) else {
        return;
    };
    v.extend(field);
    out.collect(Record {
        key,
        value: Datum::List(v),
    });
}

/// Builds the Q9 job over a loaded DFS (`tpch.lineitem` present).
pub fn q9_job(cluster: &Cluster, data: &TpchData) -> IndexJobConf {
    let supplier = Join {
        name: "supplier",
        key: |l| field(l, 2),
        post: q9_supplier,
    };
    let part = Join {
        name: "part",
        key: |v| field(v, 1),
        post: q9_part,
    };
    // ⋈ PartSupp on (partkey, suppkey) → append supplycost at [7].
    let partsupp = Join {
        name: "partsupp",
        key: |v| match v.as_list() {
            Some(v) => Datum::List(vec![v[1].clone(), v[2].clone()]),
            None => Datum::Null,
        },
        post: |rec, ps, out| q9_append(rec, Some(ps[0].clone()), out),
    };
    // ⋈ Orders on l_orderkey → append o_year at [8].
    let orders = Join {
        name: "orders9",
        key: |v| field(v, 0),
        post: |rec, o, out| q9_append(rec, Some(Datum::Int(o[1].as_int().unwrap_or(0) / 365)), out),
    };
    // ⋈ Nation on s_nationkey → append the nation's name at [9].
    let nation = Join {
        name: "nation",
        key: |v| field(v, 6),
        post: |rec, n, out| q9_append(rec, Some(n[0].clone()), out),
    };
    IndexJobConf::new("tpch-q9", "tpch.lineitem", "tpch.q9")
        .add_head_index_operator(join(supplier, kv("supplier", cluster, &data.supplier)))
        .add_head_index_operator(join(part, kv("part", cluster, &data.part)))
        .add_head_index_operator(join(partsupp, kv("partsupp", cluster, &data.partsupp)))
        .add_head_index_operator(join(orders, kv("orders9", cluster, &data.orders)))
        .add_head_index_operator(join(nation, kv("nation", cluster, &data.nation)))
        .set_mapper(mapper_fn(|rec, out, _| {
            let Some(v) = rec.value.as_list() else { return };
            let qty = v[3].as_float().unwrap_or(0.0);
            let price = v[4].as_float().unwrap_or(0.0);
            let disc = v[5].as_float().unwrap_or(0.0);
            let scost = v[7].as_float().unwrap_or(0.0);
            out.collect(Record {
                key: Datum::List(vec![v[9].clone(), v[8].clone()]),
                value: Datum::Float(price * (1.0 - disc) - scost * qty),
            });
        }))
        .set_reducer(
            reducer_fn(|key, values, out, _| {
                let total: f64 = values.iter().filter_map(Datum::as_float).sum();
                out.collect(Record::new(key, total));
            }),
            24,
        )
}

fn base_scenario(config: &TpchConfig, q3: bool) -> Scenario {
    let cluster = Cluster::edbt_testbed();
    let mut dfs = Dfs::new(cluster.clone(), DfsConfig::default());
    let data = generate(config);
    dfs.write_file_with_chunks("tpch.lineitem", data.lineitem.clone(), config.chunks);
    let ijob = if q3 {
        q3_job(&cluster, &data)
    } else {
        q9_job(&cluster, &data)
    };
    // "For re-partitioning, we choose one of the indices with the most
    // benefits to apply re-partitioning (Orders in Q3, Supplier in Q9),
    // while using the lookup cache strategy for the rest."
    let mut repart_overrides = FxHashMap::default();
    repart_overrides.insert(
        if q3 { "orders" } else { "supplier" }.to_owned(),
        Strategy::Repartition,
    );
    Scenario {
        cluster,
        dfs,
        ijob,
        repart_overrides,
        idxloc_applicable: true,
        efind_config: EFindConfig::default(),
    }
}

/// The Q3 scenario (use `dup_lineitem = 10` for DUP10).
pub fn q3_scenario(config: &TpchConfig) -> Scenario {
    base_scenario(config, true)
}

/// The Q9 scenario (use `dup_lineitem = 10` for DUP10).
pub fn q9_scenario(config: &TpchConfig) -> Scenario {
    base_scenario(config, false)
}

/// Serial reference implementation of Q3 (test oracle).
pub fn q3_reference(data: &TpchData) -> FxHashMap<Datum, f64> {
    let orders: FxHashMap<&Datum, &Vec<Datum>> = data.orders.iter().map(|(k, v)| (k, v)).collect();
    let customers: FxHashMap<&Datum, &Vec<Datum>> =
        data.customer.iter().map(|(k, v)| (k, v)).collect();
    let mut out: FxHashMap<Datum, f64> = FxHashMap::default();
    for rec in &data.lineitem {
        let l = rec.value.as_list().unwrap();
        let Some(o) = orders.get(&l[0]) else { continue };
        if o[1].as_int().unwrap() >= Q3_DATE_CUTOFF || l[6].as_int().unwrap() <= Q3_DATE_CUTOFF {
            continue;
        }
        let Some(c) = customers.get(&o[0]) else {
            continue;
        };
        if c[0].as_text() != Some(Q3_SEGMENT) {
            continue;
        }
        let revenue = l[4].as_float().unwrap() * (1.0 - l[5].as_float().unwrap());
        let key = Datum::List(vec![l[0].clone(), o[1].clone(), o[2].clone()]);
        *out.entry(key).or_insert(0.0) += revenue;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_mode;
    use crate::lending::{lent_and_owned_agree, Finds};
    use efind::Mode;
    use proptest::prelude::{any, prop_assert, prop_assert_eq, prop_oneof, proptest, Just};
    use proptest::strategy::Strategy as _;

    fn tiny() -> TpchConfig {
        TpchConfig {
            scale: 0.002,
            dup_lineitem: 1,
            chunks: 20,
            seed: 42,
        }
    }

    #[test]
    fn generator_respects_scale_and_correlations() {
        let data = generate(&tiny());
        assert_eq!(data.nation.len(), 25);
        assert_eq!(data.supplier.len(), 3_000);
        assert!(data.lineitem.len() > data.orders.len());
        // Lineitems of one order are consecutive.
        let mut seen_orders = Vec::new();
        for rec in &data.lineitem {
            let ok = rec.value.as_list().unwrap()[0].as_int().unwrap();
            if seen_orders.last() != Some(&ok) {
                seen_orders.push(ok);
            }
        }
        let mut dedup = seen_orders.clone();
        dedup.dedup();
        assert_eq!(
            seen_orders.len(),
            dedup.len(),
            "each order's lineitems must be contiguous"
        );
        // Every (partkey, suppkey) pair exists in partsupp.
        let ps: std::collections::HashSet<&Datum> = data.partsupp.iter().map(|(k, _)| k).collect();
        for rec in data.lineitem.iter().take(100) {
            let l = rec.value.as_list().unwrap();
            let key = Datum::List(vec![l[1].clone(), l[2].clone()]);
            assert!(ps.contains(&key));
        }
    }

    #[test]
    fn dup10_multiplies_lineitem_only() {
        let one = generate(&tiny());
        let ten = generate(&TpchConfig {
            dup_lineitem: 10,
            ..tiny()
        });
        assert_eq!(ten.lineitem.len(), one.lineitem.len() * 10);
        assert_eq!(ten.orders.len(), one.orders.len());
    }

    #[test]
    fn q3_matches_reference_under_all_strategies() {
        let config = tiny();
        let reference = q3_reference(&generate(&config));
        assert!(!reference.is_empty(), "filter too selective at this scale");
        for strategy in [Strategy::Baseline, Strategy::Cache, Strategy::Repartition] {
            let mut s = q3_scenario(&config);
            run_mode(&mut s, "x", Mode::Uniform(strategy)).unwrap();
            let out = s.dfs.read_file("tpch.q3").unwrap();
            assert_eq!(out.len(), reference.len(), "{strategy:?}");
            for r in &out {
                let expect = reference.get(&r.key).copied().unwrap();
                let got = r.value.as_float().unwrap();
                assert!((got - expect).abs() < 1e-6, "{strategy:?}: {:?}", r.key);
            }
        }
    }

    #[test]
    fn q9_produces_nation_year_rollup() {
        let mut s = q9_scenario(&tiny());
        run_mode(&mut s, "x", Mode::Uniform(Strategy::Cache)).unwrap();
        let out = s.dfs.read_file("tpch.q9").unwrap();
        assert!(!out.is_empty());
        for r in &out {
            let key = r.key.as_list().unwrap();
            assert!(key[0].as_text().unwrap().starts_with("NATION"));
            assert!(key[1].as_int().is_some());
        }
    }

    /// Q3's and Q9's operators, built once over the tiny tables.
    fn operators() -> &'static [Arc<dyn IndexOperator>] {
        static OPS: std::sync::OnceLock<Vec<Arc<dyn IndexOperator>>> = std::sync::OnceLock::new();
        OPS.get_or_init(|| {
            let cluster = Cluster::edbt_testbed();
            let data = generate(&tiny());
            let jobs = [q3_job(&cluster, &data), q9_job(&cluster, &data)];
            jobs.iter()
                .flat_map(|job| job.head.iter().map(|bound| bound.op.clone()))
                .collect()
        })
    }

    /// Fields of the kinds the joins read: numbers, text the filters look
    /// for, and lists.
    fn arb_field() -> impl proptest::strategy::Strategy<Value = Datum> {
        let texts = ["green", Q3_SEGMENT, "NATION07", "forest green"];
        prop_oneof![
            any::<i64>().prop_map(Datum::Int),
            (0.0..1e5f64).prop_map(Datum::Float),
            (0..texts.len()).prop_map(move |i| Datum::from(texts[i])),
            Just(Datum::List(vec![Datum::Int(1), Datum::Null])),
        ]
    }

    /// Rows of 7 to 10 fields, the widths the joins see, and now and then
    /// a value that is not a list.
    fn arb_row() -> impl proptest::strategy::Strategy<Value = Record> {
        let value = prop_oneof![
            9 => proptest::collection::vec(arb_field(), 7..=10).prop_map(Datum::List),
            1 => any::<i64>().prop_map(Datum::Int),
        ];
        (any::<i64>(), value).prop_map(|(key, value)| Record::new(key, value))
    }

    proptest! {
        /// Every Q3 and Q9 operator emits the same records whether its
        /// carrier hands it the row or lends it, carries a lent input row
        /// whole without copying it, and takes a lent row and its copy
        /// through a head segment to the same carrier, counters and output.
        #[test]
        fn a_lent_and_an_owned_row_give_every_tpch_operator_the_same_output(
            row in arb_row(),
            found in proptest::option::of(proptest::collection::vec(arb_field(), 3..=3)),
        ) {
            // The index row the key found, or none.
            let found = found.unwrap_or_default();
            let values = IndexOutput::new(vec![vec![found.clone()]]);
            for op in operators() {
                let (mut lent, mut owned) = (Vec::new(), Vec::new());
                op.post_process(Cow::Borrowed(&row), &values, &mut lent);
                op.post_process(Cow::Owned(row.clone()), &values, &mut owned);
                prop_assert_eq!(&lent, &owned, "{}", op.name());

                let (mut lent_keys, mut owned_keys) = (IndexInput::new(1), IndexInput::new(1));
                let carried = op.pre_process(Cow::Borrowed(&row), &mut lent_keys);
                prop_assert!(
                    matches!(carried, Cow::Borrowed(kept) if std::ptr::eq(kept, &row)),
                    "{} copied the row it was lent",
                    op.name()
                );
                prop_assert_eq!(&*op.pre_process(Cow::Owned(row.clone()), &mut owned_keys), &row);
                prop_assert_eq!(lent_keys, owned_keys);

                let bound = BoundOperator::new(op.clone()).add_index(Arc::new(Finds(found.clone())));
                lent_and_owned_agree(&bound, std::slice::from_ref(&row))?;
            }
        }
    }

    #[test]
    fn q9_manual_repart_matches_cache_output() {
        let config = tiny();
        let mut s1 = q9_scenario(&config);
        run_mode(&mut s1, "x", Mode::Uniform(Strategy::Cache)).unwrap();
        let mut expected = s1.dfs.read_file("tpch.q9").unwrap();
        expected.sort();

        let mut s2 = q9_scenario(&config);
        let overrides = s2.repart_overrides.clone();
        run_mode(&mut s2, "x", Mode::Manual(overrides)).unwrap();
        let mut got = s2.dfs.read_file("tpch.q9").unwrap();
        got.sort();
        // Re-partitioning reorders the floating-point summation, so
        // totals agree only to rounding.
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.key, e.key);
            let (gv, ev) = (g.value.as_float().unwrap(), e.value.as_float().unwrap());
            assert!(
                (gv - ev).abs() <= 1e-6 * ev.abs().max(1.0),
                "{:?}: {gv} vs {ev}",
                g.key
            );
        }
    }
}
