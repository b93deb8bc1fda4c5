//! A lookup hands out the value list the index stores: the block built at
//! `build` time is the block the lookup cache, the carrier and
//! `post_process` read. And for every accessor in this crate the owned
//! `lookup` and the shared `try_lookup` give the same answer.

use std::borrow::Cow;
use std::sync::Arc;

use efind::carrier::Carrier;
use efind::{ChargedLookup, IndexAccessor, LookupCache, LookupMode, LookupResult};
use efind_cluster::{Cluster, NetworkModel, SimDuration};
use efind_common::{Datum, Record};
use efind_index::rtree::Rect;
use efind_index::spatial::encode_point;
use efind_index::{
    BitmapIndex, DistBTree, InvertedIndex, KvStore, KvStoreConfig, MemTable, RemoteService,
    SpatialGridConfig, SpatialGridIndex, TopicClassifier,
};
use efind_mapreduce::TaskCtx;

fn pairs() -> Vec<(Datum, Vec<Datum>)> {
    (0..50i64)
        .map(|i| (Datum::Int(i), vec![Datum::Bytes(vec![i as u8; 64])]))
        .chain([(Datum::Int(50), vec![])])
        .collect()
}

fn storing_accessors() -> Vec<Arc<dyn IndexAccessor>> {
    let cluster = Cluster::edbt_testbed();
    vec![
        Arc::new(KvStore::build(
            "kv",
            &cluster,
            KvStoreConfig::default(),
            pairs(),
        )),
        Arc::new(DistBTree::build("bt", &cluster, 4, 3, pairs())),
        Arc::new(MemTable::new("mem", pairs(), SimDuration::from_micros(10))),
        Arc::new(RemoteService::table(
            "svc",
            RemoteService::BASE_DELAY,
            pairs(),
        )),
    ]
}

fn hit(accessor: &dyn IndexAccessor, key: &Datum) -> Arc<[Datum]> {
    match accessor.try_lookup(key) {
        LookupResult::Hit(values) => values,
        other => panic!("{}: {key:?} answered {other:?}", accessor.name()),
    }
}

#[test]
fn two_lookups_of_one_key_return_the_same_block() {
    for accessor in storing_accessors() {
        for key in [Datum::Int(0), Datum::Int(49), Datum::Int(50)] {
            let a = hit(accessor.as_ref(), &key);
            let b = hit(accessor.as_ref(), &key);
            assert!(Arc::ptr_eq(&a, &b), "{}: {key:?}", accessor.name());
            assert_eq!(a.to_vec(), accessor.lookup(&key), "{}", accessor.name());
        }
    }
}

#[test]
fn an_absent_key_shares_one_empty_block() {
    // `RemoteService::table` answers `Miss` there and hands out no list.
    for accessor in storing_accessors().iter().filter(|a| a.name() != "svc") {
        let a = hit(accessor.as_ref(), &Datum::Int(1_000));
        let b = hit(accessor.as_ref(), &Datum::Int(2_000));
        assert!(a.is_empty());
        assert!(Arc::ptr_eq(&a, &b), "{}", accessor.name());
    }
}

#[test]
fn post_process_reads_the_block_the_store_holds() {
    for accessor in storing_accessors() {
        let key = Datum::Int(7);
        let stored = hit(accessor.as_ref(), &key);

        let charged = ChargedLookup::new(
            accessor.clone(),
            NetworkModel::gigabit(),
            "efind.op.0.".into(),
        );
        let mut ctx = TaskCtx::new(0);
        let fetched = charged.lookup(&key, LookupMode::Remote, &mut ctx);
        let mut cache = LookupCache::new(8);
        cache.insert(key.clone(), fetched);
        let cached = cache.probe(&key).expect("just inserted");

        let mut carrier = Carrier::default();
        carrier.open(
            Cow::Owned(Record::new(1i64, Datum::Null)),
            1,
            |rec, keys| {
                keys.put(0, key);
                rec
            },
        );
        carrier
            .fill(0, |_, results| results.push(cached))
            .expect("the carrier has slot 0");
        let (_, output) = carrier.post_input().expect("every slot is filled");
        assert!(
            Arc::ptr_eq(&output.get(0)[0], &stored),
            "{}: the list reached post_process as a copy",
            accessor.name()
        );
    }
}

#[test]
fn lookup_and_try_lookup_agree_for_every_accessor() {
    let cluster = Cluster::edbt_testbed();
    let text = |s: &str| Datum::Text(s.into());
    let ints = || vec![Datum::Int(0), Datum::Int(50), Datum::Int(1_000), text("x")];
    let mut table: Vec<(Arc<dyn IndexAccessor>, Vec<Datum>)> = storing_accessors()
        .into_iter()
        .map(|accessor| (accessor, ints()))
        .collect();
    table.push((
        Arc::new(RemoteService::new("fn", RemoteService::BASE_DELAY, |k| {
            k.as_int()
                .map(|v| vec![Datum::Int(v * 2)])
                .unwrap_or_default()
        })),
        ints(),
    ));
    table.push((
        Arc::new(RemoteService::fallible(
            "flaky",
            RemoteService::BASE_DELAY,
            |k| match k.as_int() {
                Some(v) if v % 2 == 0 => LookupResult::hit(vec![Datum::Int(v / 2)]),
                Some(_) => LookupResult::Failed("shard offline".into()),
                None => LookupResult::Miss,
            },
        )),
        vec![Datum::Int(4), Datum::Int(3), text("x")],
    ));
    table.push((
        Arc::new(InvertedIndex::build(
            "inv",
            &cluster,
            4,
            [(1, "index access in mapreduce"), (2, "flexible index")],
        )),
        vec![text("index"), text("absent"), Datum::Int(1)],
    ));
    table.push((
        Arc::new(BitmapIndex::build(
            "bm",
            &cluster,
            4,
            (0..20u64).map(|row| (row, Datum::Int((row % 3) as i64))),
        )),
        vec![
            Datum::Int(1),
            Datum::Int(9),
            Datum::List(vec![Datum::Int(1), Datum::Int(4)]),
            Datum::List(vec![Datum::Int(1), Datum::Int(5)]),
        ],
    ));
    table.push((
        Arc::new(TopicClassifier::news()),
        vec![text("game score playoff"), text(""), Datum::Int(3)],
    ));
    table.push((
        Arc::new(SpatialGridIndex::build(
            "geo",
            &cluster,
            SpatialGridConfig::default(),
            Rect::new([0.0, 0.0], [10.0, 10.0]),
            (0..40u64).map(|i| ([(i % 10) as f64, (i / 10) as f64], i)),
        )),
        vec![encode_point([3.2, 1.7]), Datum::Int(0)],
    ));

    for (accessor, keys) in table {
        for key in keys {
            let owned = accessor.lookup(&key);
            match accessor.try_lookup(&key) {
                LookupResult::Hit(values) => {
                    assert_eq!(values.to_vec(), owned, "{}: {key:?}", accessor.name())
                }
                LookupResult::Miss | LookupResult::Failed(_) => {
                    assert!(owned.is_empty(), "{}: {key:?}", accessor.name())
                }
            }
        }
    }
}
