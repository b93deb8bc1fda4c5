//! Test support: a head row lent to a workload's operator and the same row
//! handed over must take it to the same place.

use std::borrow::Cow;
use std::sync::Arc;

use efind::carrier::Carrier;
use efind::compile::{compile_pipeline, RuntimeEnv};
use efind::{forced_plan, BoundOperator, EFindConfig, IndexAccessor, IndexJobConf, Strategy};
use efind_cluster::{Cluster, SimDuration};
use efind_common::{Datum, FxHashMap, Record};
use efind_mapreduce::{RowSink, TaskCtx, ROW_WINDOW};
use proptest::prelude::{prop_assert_eq, TestCaseError};

/// An index that finds the same values for every key.
pub(crate) struct Finds(pub(crate) Vec<Datum>);

impl IndexAccessor for Finds {
    fn name(&self) -> &str {
        "finds"
    }
    fn lookup(&self, _key: &Datum) -> Vec<Datum> {
        self.0.clone()
    }
    fn serve_time(&self, _key: &Datum, _result_bytes: u64) -> SimDuration {
        SimDuration::from_micros(100)
    }
}

/// A cache of 4 entries, so repeated keys both hit and evict.
fn env() -> RuntimeEnv {
    RuntimeEnv {
        cache_capacity: 4,
        shuffle_reducers: 2,
        intermediate_chunks: 1,
        ..RuntimeEnv::new(
            &Cluster::builder().nodes(3).build(),
            2,
            &EFindConfig::default(),
        )
    }
}

/// What one side of a task emitted, its counters, and its failure.
type Side = (Vec<Record>, Vec<(Arc<str>, i64)>, Option<String>);

/// `bound`'s head segment under `strategy` over `rows`, lent to it a
/// window at a time (`map_rows`) or each handed a copy (`map`); then,
/// where the job shuffles and the map side did not fail, one reduce task
/// over the groups of what it emitted.
fn run(bound: &BoundOperator, strategy: Strategy, rows: &[Record], lend: bool) -> Vec<Side> {
    let name = bound.op.name().to_owned();
    let mut plans = FxHashMap::default();
    plans.insert(name, forced_plan(&bound.caps(), strategy));
    let ijob = IndexJobConf::new("lent", "in", "out").add_head_index_operator(bound.clone());
    let pipeline = compile_pipeline(&ijob, &plans, &env()).expect("the pipeline compiles");
    let job = &pipeline.jobs[0];

    let mut segment = (job.map_chain[0])();
    let mut ctx = TaskCtx::new(0);
    let mut mapped: Vec<Record> = Vec::new();
    if lend {
        for window in rows.chunks(ROW_WINDOW) {
            segment.map_rows(window, &mut RowSink::new(&mut mapped), &mut ctx);
        }
    } else {
        for row in rows {
            segment.map(row.clone(), &mut mapped, &mut ctx);
        }
    }
    segment.flush(&mut mapped, &mut ctx);
    let failed = ctx.error().map(str::to_owned);
    let mut sides = vec![(mapped.clone(), ctx.counters.iter_sorted(), failed.clone())];
    let Some(reducer) = job.reducer.as_ref().filter(|_| failed.is_none()) else {
        return sides;
    };
    mapped.sort_by(|a, b| a.key.cmp(&b.key));
    let mut groups: Vec<(Datum, Vec<Datum>)> = Vec::new();
    for rec in mapped {
        match groups.last_mut() {
            Some((key, values)) if *key == rec.key => values.push(rec.value),
            _ => groups.push((rec.key, vec![rec.value])),
        }
    }
    let mut reducer = reducer();
    let mut ctx = TaskCtx::new(0);
    let mut reduced: Vec<Record> = Vec::new();
    for (key, values) in groups {
        reducer.reduce(key, values, &mut reduced, &mut ctx);
    }
    reducer.flush(&mut reduced, &mut ctx);
    let failed = ctx.error().map(str::to_owned);
    sides.push((reduced, ctx.counters.iter_sorted(), failed));
    sides
}

/// Checks that `bound`'s operator, lent each of `rows` and handed a copy,
/// opens the same carrier — the same encoding, record size and row size —
/// and that its head segment, under the cache and the re-partitioning
/// strategy, emits the same records and counters and fails alike.
pub(crate) fn lent_and_owned_agree(
    bound: &BoundOperator,
    rows: &[Record],
) -> Result<(), TestCaseError> {
    let op = &bound.op;
    let m = op.num_indices();
    for row in rows {
        let mut lent = Carrier::default();
        let lent_size = lent.open(Cow::Borrowed(row), m, |rec, keys| op.pre_process(rec, keys));
        let mut owned = Carrier::default();
        let owned_size = owned.open(Cow::Owned(row.clone()), m, |rec, keys| {
            op.pre_process(rec, keys)
        });
        prop_assert_eq!(lent_size, owned_size, "{}", op.name());
        prop_assert_eq!(&lent, &owned, "{}", op.name());
        let k1 = lent.k1().clone();
        prop_assert_eq!(lent.record_size_bytes(&k1), owned.record_size_bytes(&k1));
        prop_assert_eq!(lent.encode(k1.clone()), owned.encode(k1));
    }
    for strategy in [Strategy::Cache, Strategy::Repartition] {
        let owned = run(bound, strategy, rows, false);
        let lent = run(bound, strategy, rows, true);
        prop_assert_eq!(lent, owned, "{}, {:?}", op.name(), strategy);
    }
    Ok(())
}
