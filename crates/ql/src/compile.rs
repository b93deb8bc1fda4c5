//! Compiles a [`Query`] into an EFind-enhanced job.
//!
//! Every `IndexJoin` step becomes an EFind *head operator*, so the whole
//! strategy machinery applies; runs of filters/projections between joins
//! become zero-index operators (pure record-wise transforms — EFind
//! operators with an empty index list). Group-by/aggregates compile into
//! the job's Map and Reduce.

use efind::{operator_fn, BoundOperator, IndexInput, IndexJobConf, IndexOutput};
use efind_common::{Datum, Record};
use efind_mapreduce::{mapper_fn, reducer_fn, Collector};

use crate::expr::{Expr, Pred};
use crate::query::{Agg, IndexJoinSpec, JoinKind, Query, Step};

/// A transform applied between joins.
#[derive(Clone)]
enum Transform {
    Filter(Pred),
    Project(Vec<Expr>),
}

fn apply_transforms(transforms: &[Transform], row: Datum) -> Option<Datum> {
    let mut row = row;
    for t in transforms {
        match t {
            Transform::Filter(pred) => {
                if !pred.eval(&row) {
                    return None;
                }
            }
            Transform::Project(exprs) => {
                row = Datum::List(exprs.iter().map(|e| e.eval(&row)).collect());
            }
        }
    }
    Some(row)
}

/// A zero-index EFind operator applying filters/projections record-wise.
fn transform_operator(name: String, transforms: Vec<Transform>) -> BoundOperator {
    let op = operator_fn(
        &name,
        0,
        |_rec: &mut Record, _keys: &mut IndexInput| {},
        move |rec: Record, _values: &IndexOutput, out: &mut dyn Collector| {
            if let Some(row) = apply_transforms(&transforms, rec.value) {
                out.collect(Record {
                    key: rec.key,
                    value: row,
                });
            }
        },
    );
    BoundOperator::new(op)
}

/// An index-join EFind operator.
fn join_operator(spec: IndexJoinSpec) -> BoundOperator {
    let IndexJoinSpec {
        name,
        index,
        on,
        take,
        kind,
    } = spec;
    let on_post = on.clone();
    let op = operator_fn(
        &name,
        1,
        move |rec: &mut Record, keys: &mut IndexInput| {
            keys.put(0, on.eval(&rec.value));
        },
        move |rec: Record, values: &IndexOutput, out: &mut dyn Collector| {
            let _ = &on_post; // the key expression is part of the operator's identity
                              // Convention: the index's value list IS the positional row
                              // (how the KV-store substrates hold table rows).
            let fields = values.first(0);
            let mut row = match rec.value.into_list() {
                Some(cols) => cols,
                None => return,
            };
            if fields.is_empty() {
                match kind {
                    JoinKind::Inner => return,
                    JoinKind::Left => {
                        for _ in &take {
                            row.push(Datum::Null);
                        }
                    }
                }
            } else {
                for &i in &take {
                    row.push(fields.get(i).cloned().unwrap_or(Datum::Null));
                }
            }
            out.collect(Record {
                key: rec.key,
                value: Datum::List(row),
            });
        },
    );
    BoundOperator::new(op).add_index(index)
}

fn eval_aggs(aggs: &[Agg], rows: &[Datum]) -> Vec<Datum> {
    aggs.iter()
        .map(|agg| match agg {
            Agg::Count => Datum::Int(rows.len() as i64),
            Agg::Sum(e) => Datum::Float(
                rows.iter()
                    .filter_map(|r| e.eval(r).as_float())
                    .sum::<f64>(),
            ),
            Agg::Min(e) => rows.iter().map(|r| e.eval(r)).min().unwrap_or(Datum::Null),
            Agg::Max(e) => rows.iter().map(|r| e.eval(r)).max().unwrap_or(Datum::Null),
            Agg::Avg(e) => {
                let nums: Vec<f64> = rows.iter().filter_map(|r| e.eval(r).as_float()).collect();
                if nums.is_empty() {
                    Datum::Null
                } else {
                    Datum::Float(nums.iter().sum::<f64>() / nums.len() as f64)
                }
            }
            Agg::TopKBy { sort, take, k } => {
                let mut ranked: Vec<(Datum, Datum)> =
                    rows.iter().map(|r| (sort.eval(r), take.eval(r))).collect();
                ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                ranked.truncate(*k);
                Datum::List(ranked.into_iter().map(|(_, t)| t).collect())
            }
        })
        .collect()
}

/// Compiles `query` into an enhanced job named `name` writing `output`.
pub fn compile(query: Query, name: &str, output: &str) -> IndexJobConf {
    let mut ijob = IndexJobConf::new(name, query.input.clone(), output);

    // Fold the pipeline into alternating transform / join operators.
    let mut pending: Vec<Transform> = Vec::new();
    let mut stage = 0usize;
    for step in query.steps {
        match step {
            Step::Filter(p) => pending.push(Transform::Filter(p)),
            Step::Project(e) => pending.push(Transform::Project(e)),
            Step::IndexJoin(spec) => {
                if !pending.is_empty() {
                    ijob = ijob.add_head_index_operator(transform_operator(
                        format!("{name}-stage{stage}"),
                        std::mem::take(&mut pending),
                    ));
                    stage += 1;
                }
                ijob = ijob.add_head_index_operator(join_operator(spec));
            }
        }
    }
    if !pending.is_empty() {
        ijob = ijob
            .add_head_index_operator(transform_operator(format!("{name}-stage{stage}"), pending));
    }

    let grouped = !query.group_by.is_empty() || !query.aggs.is_empty();
    if grouped {
        let keys = query.group_by.clone();
        ijob = ijob.set_mapper(mapper_fn(move |rec, out, _| {
            let key = if keys.is_empty() {
                Datum::Null
            } else {
                Datum::List(keys.iter().map(|e| e.eval(&rec.value)).collect())
            };
            out.collect(Record {
                key,
                value: rec.value,
            });
        }));
        let aggs = query.aggs.clone();
        let reducers = if query.group_by.is_empty() {
            1
        } else {
            query.num_reducers
        };
        ijob = ijob.set_reducer(
            reducer_fn(move |key, rows, out, _| {
                // The output row = group-key fields ++ aggregate values,
                // so grouped results are themselves scannable by a
                // follow-up query (pipeline composability).
                let mut fields: Vec<Datum> = match &key {
                    Datum::List(ks) => ks.clone(),
                    Datum::Null => Vec::new(),
                    other => vec![other.clone()],
                };
                fields.extend(eval_aggs(&aggs, &rows));
                out.collect(Record {
                    key,
                    value: Datum::List(fields),
                });
            }),
            reducers,
        );
    } else {
        ijob = ijob.set_mapper(mapper_fn(|rec, out, _| out.collect(rec)));
    }
    ijob
}

/// Like [`compile`], but validates the resulting job configuration before
/// handing it back. User-supplied join names can collide (duplicate
/// operator names, `EF002`) or otherwise violate
/// [`IndexJobConf::validate`]; this entry point surfaces those as
/// [`efind_common::Error::InvalidConfig`] carrying the analyzer's code and
/// hint instead of deferring the failure to `compile_pipeline`.
pub fn compile_checked(
    query: Query,
    name: &str,
    output: &str,
) -> efind_common::Result<IndexJobConf> {
    let ijob = compile(query, name, output);
    ijob.validate()?;
    Ok(ijob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use efind::{EFindRuntime, Mode, Strategy};
    use efind_cluster::{Cluster, SimDuration};
    use efind_dfs::{Dfs, DfsConfig};
    use efind_index::MemTable;
    use std::sync::Arc;

    fn setup() -> (Cluster, Dfs, Arc<MemTable>) {
        let cluster = Cluster::builder()
            .nodes(3)
            .map_slots(2)
            .reduce_slots(2)
            .build();
        let mut dfs = Dfs::new(
            cluster.clone(),
            DfsConfig {
                chunk_size_bytes: 1024,
                replication: 2,
                seed: 8,
            },
        );
        // Sales rows: [product, quantity, price]
        let rows: Vec<Record> = (0..600i64)
            .map(|i| {
                Record::new(
                    i,
                    Datum::List(vec![
                        Datum::Int(i % 20),
                        Datum::Int(1 + i % 4),
                        Datum::Float((i % 7) as f64 + 0.5),
                    ]),
                )
            })
            .collect();
        dfs.write_file("sales", rows);
        // Catalog row: product → [category, active]
        let catalog = Arc::new(MemTable::new(
            "catalog",
            (0..18i64).map(|p| {
                (
                    Datum::Int(p),
                    vec![
                        Datum::Text(format!("cat{}", p % 3)),
                        Datum::Bool(p % 2 == 0),
                    ],
                )
            }),
            SimDuration::from_micros(200),
        ));
        (cluster, dfs, catalog)
    }

    fn run(cluster: &Cluster, dfs: &mut Dfs, job: &IndexJobConf, mode: Mode) -> Vec<Record> {
        let mut rt = EFindRuntime::new(cluster, dfs);
        if matches!(mode, Mode::Optimized) {
            rt.run(job, Mode::Uniform(Strategy::Baseline)).unwrap();
        }
        rt.run(job, mode).unwrap();
        let mut out = rt.dfs.read_file(&job.output).unwrap();
        out.sort();
        out
    }

    #[test]
    fn filter_project_without_grouping() {
        let (cluster, mut dfs, _) = setup();
        let job = Query::scan("sales")
            .filter(col(1).gt(lit(2i64)))
            .project([col(0), col(2)])
            .into_job("fp", "out");
        let out = run(&cluster, &mut dfs, &job, Mode::Uniform(Strategy::Baseline));
        assert_eq!(out.len(), 300); // quantity ∈ {3,4} half the time
        for r in &out {
            assert_eq!(r.value.as_list().unwrap().len(), 2);
        }
    }

    #[test]
    fn compile_checked_rejects_duplicate_join_names() {
        let (_, _, catalog) = setup();
        let query = Query::scan("sales")
            .index_join("catalog", catalog.clone(), col(0), [0])
            .index_join("catalog", catalog, col(0), [1]);
        let err = match compile_checked(query, "dup", "out") {
            Ok(_) => panic!("duplicate join names were accepted"),
            Err(e) => e,
        };
        // The analyzer's own shape check (EF002), with its code and hint.
        let message = err.to_string();
        assert!(message.contains("error[EF002]"), "{message}");
        assert!(message.contains("rename one of the operators"), "{message}");
    }

    #[test]
    fn compile_checked_accepts_valid_query() {
        let (_, _, catalog) = setup();
        let query = Query::scan("sales")
            .filter(col(1).gt(lit(1i64)))
            .index_join("catalog", catalog, col(0), [0]);
        assert!(compile_checked(query, "ok", "out").is_ok());
    }

    #[test]
    fn index_join_group_aggregate_end_to_end() {
        let (cluster, mut dfs, catalog) = setup();
        // revenue by category for active products with quantity > 1
        let job = Query::scan("sales")
            .filter(col(1).gt(lit(1i64)))
            .index_join("catalog", catalog, col(0), [0, 1]) // append category, active
            .filter(col(4).eq(lit(true)))
            .group_by([col(3)])
            .aggregate([Agg::Count, Agg::Sum(col(2))])
            .into_job("rev", "out");
        let out = run(&cluster, &mut dfs, &job, Mode::Uniform(Strategy::Cache));
        assert!(!out.is_empty() && out.len() <= 3);
        // Reference computation.
        let mut expect: std::collections::BTreeMap<String, (i64, f64)> = Default::default();
        for i in 0..600i64 {
            let (product, qty, price) = (i % 20, 1 + i % 4, (i % 7) as f64 + 0.5);
            if qty <= 1 || product >= 18 || product % 2 != 0 {
                continue;
            }
            let e = expect.entry(format!("cat{}", product % 3)).or_default();
            e.0 += 1;
            e.1 += price;
        }
        assert_eq!(out.len(), expect.len());
        for r in &out {
            let row = r.value.as_list().unwrap();
            let cat = row[0].as_text().unwrap().to_owned();
            let (count, sum) = expect[&cat];
            assert_eq!(row[1].as_int().unwrap(), count, "{cat}");
            assert!((row[2].as_float().unwrap() - sum).abs() < 1e-9, "{cat}");
        }
    }

    #[test]
    fn left_join_pads_misses() {
        let (cluster, mut dfs, catalog) = setup();
        // Products 18, 19 are missing from the catalog.
        let job = Query::scan("sales")
            .left_index_join("catalog", catalog, col(0), [0])
            .into_job("lj", "out");
        let out = run(&cluster, &mut dfs, &job, Mode::Uniform(Strategy::Baseline));
        assert_eq!(out.len(), 600);
        let nulls = out
            .iter()
            .filter(|r| r.value.as_list().unwrap()[3].is_null())
            .count();
        assert_eq!(nulls, 60); // products 18 and 19: 30 rows each
    }

    #[test]
    fn inner_join_drops_misses() {
        let (cluster, mut dfs, catalog) = setup();
        let job = Query::scan("sales")
            .index_join("catalog", catalog, col(0), [0])
            .into_job("ij", "out");
        let out = run(&cluster, &mut dfs, &job, Mode::Uniform(Strategy::Baseline));
        assert_eq!(out.len(), 540);
    }

    #[test]
    fn global_aggregate_uses_one_group() {
        let (cluster, mut dfs, _) = setup();
        let job = Query::scan("sales")
            .aggregate([Agg::Count, Agg::Min(col(2)), Agg::Max(col(2))])
            .into_job("glob", "out");
        let out = run(&cluster, &mut dfs, &job, Mode::Uniform(Strategy::Baseline));
        assert_eq!(out.len(), 1);
        let row = out[0].value.as_list().unwrap();
        assert_eq!(row[0].as_int().unwrap(), 600);
        assert_eq!(row[1], Datum::Float(0.5));
        assert_eq!(row[2], Datum::Float(6.5));
    }

    #[test]
    fn topk_by_ranks_descending() {
        // Top-2 products by price, per category.
        let (cluster, mut dfs, catalog) = setup();
        let job = Query::scan("sales")
            .index_join("catalog", catalog, col(0), [0]) // + category(3)
            .group_by([col(3)])
            .aggregate([Agg::TopKBy {
                sort: col(2),
                take: col(0),
                k: 2,
            }])
            .into_job("topk", "out");
        let out = run(&cluster, &mut dfs, &job, Mode::Uniform(Strategy::Cache));
        assert!(!out.is_empty());
        for r in &out {
            let row = r.value.as_list().unwrap();
            let winners = row[1].as_list().unwrap();
            assert!(winners.len() <= 2);
            assert!(!winners.is_empty());
        }
    }

    #[test]
    fn grouped_output_is_scannable_by_a_follow_up_query() {
        // Two chained queries: revenue by (product) → count of products
        // with revenue above a threshold, per category... simplified:
        // stage 1 groups by product, stage 2 re-groups stage 1's rows.
        let (cluster, mut dfs, _) = setup();
        let stage1 = Query::scan("sales")
            .group_by([col(0)])
            .aggregate([Agg::Sum(col(2)), Agg::Avg(col(1))])
            .into_job("s1", "mid");
        run(
            &cluster,
            &mut dfs,
            &stage1,
            Mode::Uniform(Strategy::Baseline),
        );
        // mid rows: [product, revenue, avg_qty]
        let stage2 = Query::scan("mid")
            .filter(col(1).gt(lit(50.0)))
            .group_by([])
            .aggregate([Agg::Count])
            .into_job("s2", "out2");
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        rt.run(&stage2, Mode::Uniform(Strategy::Baseline)).unwrap();
        let out = rt.dfs.read_file("out2").unwrap();
        assert_eq!(out.len(), 1);
        let n = out[0].value.as_list().unwrap()[0].as_int().unwrap();
        assert!(n > 0 && n <= 20, "products above threshold: {n}");
    }

    #[test]
    fn queries_benefit_from_efind_strategies() {
        // The declarative join goes through the full strategy machinery:
        // the cache strategy must beat baseline on this redundant-key join.
        let (cluster, mut dfs, catalog) = setup();
        let build = |out: &str| {
            Query::scan("sales")
                .index_join("catalog", catalog.clone(), col(0), [0])
                .group_by([col(3)])
                .aggregate([Agg::Count])
                .into_job("q", out)
        };
        let mut rt = EFindRuntime::new(&cluster, &mut dfs);
        let base = rt
            .run(&build("o1"), Mode::Uniform(Strategy::Baseline))
            .unwrap()
            .total_time;
        let cache = rt
            .run(&build("o2"), Mode::Uniform(Strategy::Cache))
            .unwrap()
            .total_time;
        assert!(cache < base, "cache {cache} vs base {base}");
    }

    #[test]
    fn optimized_mode_works_on_compiled_queries() {
        let (cluster, mut dfs, catalog) = setup();
        let job = Query::scan("sales")
            .index_join("catalog", catalog, col(0), [0])
            .group_by([col(3)])
            .aggregate([Agg::Count])
            .into_job("opt", "out");
        let baseline = run(&cluster, &mut dfs, &job, Mode::Uniform(Strategy::Baseline));
        let optimized = run(&cluster, &mut dfs, &job, Mode::Optimized);
        assert_eq!(baseline, optimized);
    }
}
