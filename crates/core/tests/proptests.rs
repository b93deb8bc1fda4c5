//! Property-based tests for the EFind core: LRU cache invariants, cost
//! model monotonicity, and planner soundness.

use efind::cache::{LookupCache, LruMap, ShadowCache};
use efind::cost::{
    cost_baseline, cost_cache, cost_repartition, CostEnv, IndexStatsEstimate,
    OperatorStatsEstimate, Placement,
};
use efind::plan::{optimize_operator, Enumeration, Strategy as AccessStrategy};
use efind_cluster::CorruptionPlan;
use efind_common::Datum;
use proptest::prelude::*;

fn env() -> CostEnv {
    CostEnv {
        bw_bytes_per_sec: 125.0e6,
        f_per_byte: 2.0e-8,
        t_cache_secs: 1.0e-6,
        lookup_latency_secs: 1.0e-4,
        shuffle_secs_per_byte: 3.6e-8,
        job_overhead_secs: 0.0,
        reduce_parallelism: 48.0,
        parallelism: 96.0,
    }
}

fn arb_index() -> impl Strategy<Value = IndexStatsEstimate> {
    (
        0.1f64..4.0,       // nik
        1.0f64..64.0,      // sik
        0.0f64..40_000.0,  // siv
        1.0e-6f64..5.0e-3, // tj
        0.0f64..1.0,       // miss ratio
        1.0f64..100.0,     // theta
        any::<bool>(),
        any::<bool>(),
        0.0f64..0.6, // failure rate
    )
        .prop_map(
            |(nik, sik, siv, tj, miss, theta, scheme, shuffleable, fail)| IndexStatsEstimate {
                nik,
                sik,
                siv,
                tj_secs: tj,
                miss_ratio: miss,
                theta,
                has_partition_scheme: scheme,
                shuffleable,
                partitions: if scheme { 32 } else { 0 },
                failure_rate: fail,
            },
        )
}

fn arb_op(m: usize) -> impl Strategy<Value = OperatorStatsEstimate> {
    (
        1.0f64..1.0e7,
        proptest::collection::vec(arb_index(), m..=m),
        1.0f64..4096.0,
        1.0f64..4096.0,
        1.0f64..4096.0,
        1.0f64..4096.0,
    )
        .prop_map(
            |(n1, indices, s1, spre, spost, smap)| OperatorStatsEstimate {
                n1,
                s1,
                spre,
                spost,
                smap,
                indices,
            },
        )
}

/// Key `i` of a small pool; the odd ones own a heap block.
fn pool_key(i: u8) -> Datum {
    if i.is_multiple_of(2) {
        Datum::Int(i64::from(i))
    } else {
        Datum::Text(format!("key{i}"))
    }
}

/// Everything a lookup and a shadow cache answered.
#[derive(Debug, PartialEq)]
struct Answers {
    /// Each probe's result, in order.
    probed: Vec<Option<Vec<Datum>>>,
    /// The lookup cache's probes, hits, evictions and invalidations.
    lookup: [u64; 4],
    lookup_miss_ratio: f64,
    /// The shadow cache's probes and hits.
    shadow: [u64; 2],
    shadow_miss_ratio: f64,
}

/// Builds a lookup and a shadow cache of `capacity` on the calling thread,
/// the lookup cache armed with cache corruption at `rate` (unarmed at 0),
/// and runs `ops` through them: `(true, k)` probes key `k`, observes it and
/// inserts it on a miss, `(false, k)` only inserts it. Both drop on return.
fn answers(capacity: usize, rate: f64, ops: &[(bool, u8)]) -> Answers {
    let plan = CorruptionPlan::new(11).cache(rate);
    let mut cache = LookupCache::new(capacity).with_corruption(&plan, "efind.op.0.");
    let mut shadow = ShadowCache::new(capacity);
    let mut probed = Vec::new();
    for (n, &(probe, k)) in ops.iter().enumerate() {
        let key = pool_key(k);
        let values: std::sync::Arc<[Datum]> = vec![Datum::Int(n as i64)].into();
        if probe {
            shadow.observe(&key);
            let hit = cache.probe(&key);
            probed.push(hit.as_deref().map(<[Datum]>::to_vec));
            if hit.is_none() {
                cache.insert(key, values);
            }
        } else {
            cache.insert(key, values);
        }
    }
    Answers {
        probed,
        lookup: [
            cache.probes(),
            cache.hits(),
            cache.evictions(),
            cache.invalidations(),
        ],
        lookup_miss_ratio: cache.miss_ratio(),
        shadow: [shadow.probes(), shadow.hits()],
        shadow_miss_ratio: shadow.miss_ratio(),
    }
}

/// Runs `f` on a thread of its own, which starts with no spare cache
/// storage.
fn on_a_new_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("the caches panicked"))
}

/// A corruption rate: unarmed half the time.
fn arb_rate() -> impl Strategy<Value = f64> {
    (any::<bool>(), 0.05f64..0.9).prop_map(|(armed, rate)| if armed { rate } else { 0.0 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lru_never_exceeds_capacity(ops in proptest::collection::vec((any::<u16>(), any::<bool>()), 0..400), cap in 1usize..64) {
        let mut lru: LruMap<u32> = LruMap::new(cap);
        for (k, is_insert) in ops {
            let key = Datum::Int(k as i64 % 96);
            if is_insert {
                lru.insert(key, k as u32);
            } else {
                let _ = lru.get(&key);
            }
            prop_assert!(lru.len() <= cap);
        }
    }

    /// Caches built where a dropped pair left its storage — a different
    /// capacity, filled with other keys, armed differently — answer every
    /// probe, insert and observation as caches on fresh storage do.
    #[test]
    fn a_cache_on_a_dropped_caches_storage_answers_like_a_fresh_one(
        before_cap in 1usize..=64,
        before_rate in arb_rate(),
        before in proptest::collection::vec((any::<bool>(), 0u8..96), 0..300),
        cap in 1usize..=64,
        rate in arb_rate(),
        ops in proptest::collection::vec((any::<bool>(), 0u8..96), 0..300),
    ) {
        let fresh = on_a_new_thread(|| answers(cap, rate, &ops));
        let reused = on_a_new_thread(|| {
            answers(before_cap, before_rate, &before);
            answers(cap, rate, &ops)
        });
        prop_assert_eq!(reused, fresh);
    }

    #[test]
    fn lru_most_recent_insert_always_hits(keys in proptest::collection::vec(0i64..32, 1..200)) {
        let mut lru: LruMap<i64> = LruMap::new(4);
        for (i, k) in keys.iter().enumerate() {
            lru.insert(Datum::Int(*k), i as i64);
            prop_assert_eq!(lru.get(&Datum::Int(*k)), Some(&(i as i64)));
        }
    }

    #[test]
    fn shadow_and_real_cache_agree_on_miss_ratio(keys in proptest::collection::vec(0i64..64, 0..500)) {
        let mut real = LookupCache::new(16);
        let mut shadow = ShadowCache::new(16);
        for k in &keys {
            let key = Datum::Int(*k);
            shadow.observe(&key);
            if real.probe(&key).is_none() {
                real.insert(key, Vec::new().into());
            }
        }
        prop_assert!((real.miss_ratio() - shadow.miss_ratio()).abs() < 1e-12);
    }

    #[test]
    fn cache_cost_never_above_baseline_plus_probes(op in arb_op(1)) {
        let env = env();
        let base = cost_baseline(&env, &op, 0);
        let cached = cost_cache(&env, &op, 0);
        let probes = op.n1 * op.indices[0].nik * env.t_cache_secs;
        prop_assert!(cached <= base + probes + 1e-9);
    }

    #[test]
    fn repartition_lookup_savings_monotone_in_theta(op in arb_op(1)) {
        let env = env();
        let mut more_dup = op.clone();
        more_dup.indices[0].theta = op.indices[0].theta * 2.0;
        let carried = op.spre;
        let c1 = cost_repartition(&env, &op, 0, Placement::Body, carried);
        let c2 = cost_repartition(&env, &more_dup, 0, Placement::Body, carried);
        prop_assert!(c2 <= c1 + 1e-9);
    }

    #[test]
    fn planner_output_is_a_permutation(op in arb_op(3)) {
        let env = env();
        let plan = optimize_operator(&op, &env, Placement::Body, Enumeration::Full);
        let mut seen: Vec<usize> = plan.choices.iter().map(|c| c.index).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn planner_respects_capabilities(op in arb_op(3)) {
        let env = env();
        let plan = optimize_operator(&op, &env, Placement::Head, Enumeration::Full);
        for choice in &plan.choices {
            let idx = &op.indices[choice.index];
            if choice.strategy == AccessStrategy::IndexLocality {
                prop_assert!(idx.has_partition_scheme && idx.shuffleable);
            }
            if choice.strategy == AccessStrategy::Repartition {
                prop_assert!(idx.shuffleable);
            }
        }
    }

    #[test]
    fn planner_property4_shuffles_first(op in arb_op(4)) {
        let env = env();
        let plan = optimize_operator(&op, &env, Placement::Body, Enumeration::Full);
        let mut seen_non_shuffle = false;
        for choice in &plan.choices {
            if choice.strategy.is_shuffle() {
                prop_assert!(!seen_non_shuffle, "shuffle after non-shuffle");
            } else {
                seen_non_shuffle = true;
            }
        }
    }

    #[test]
    fn full_enumerate_never_worse_than_krepart(op in arb_op(3), k in 0usize..4) {
        let env = env();
        let full = optimize_operator(&op, &env, Placement::Body, Enumeration::Full);
        let kr = optimize_operator(&op, &env, Placement::Body, Enumeration::KRepart(k));
        prop_assert!(full.est_cost_secs <= kr.est_cost_secs + 1e-6);
    }

    // With k = m the k-Repart beam keeps every prefix, so it degenerates
    // into FullEnumerate: both must land on an equal-cost plan.
    #[test]
    fn krepart_with_full_budget_matches_full_enumerate(op in arb_op(4), m in 1usize..=4) {
        let mut op = op;
        op.indices.truncate(m);
        let env = env();
        let full = optimize_operator(&op, &env, Placement::Body, Enumeration::Full);
        let kr = optimize_operator(&op, &env, Placement::Body, Enumeration::KRepart(m));
        let scale = full.est_cost_secs.abs().max(1.0);
        prop_assert!(
            (full.est_cost_secs - kr.est_cost_secs).abs() <= 1e-9 * scale,
            "full {} vs k-repart({m}) {}",
            full.est_cost_secs,
            kr.est_cost_secs
        );
    }
}

// ---------------------------------------------------------------------------
// Carrier records: the in-memory carrier and the record it serializes to
// are two views of one tuple, and a segment that never builds the record
// must still charge its exact size.

mod carrier {
    use super::*;
    use efind::carrier::Carrier;
    use efind_common::{Error, Record};
    use proptest::collection::vec;
    use proptest::option;
    use std::borrow::Cow;

    /// Every `Datum` kind, lists included (composite keys).
    pub(super) fn arb_datum() -> impl Strategy<Value = Datum> {
        let leaf = prop_oneof![
            Just(Datum::Null),
            any::<bool>().prop_map(Datum::Bool),
            any::<i64>().prop_map(Datum::Int),
            any::<f64>().prop_map(Datum::Float),
            "[a-z ]{0,12}".prop_map(Datum::Text),
            vec(any::<u8>(), 0..16).prop_map(Datum::Bytes),
        ];
        leaf.prop_recursive(2, 16, 4, |inner| vec(inner, 0..4).prop_map(Datum::List))
    }

    /// One index slot: its keys and, when filled, one result list per key.
    type Slot = (Vec<Datum>, Option<Vec<Vec<Datum>>>);

    /// Opens `c` — whatever it held — on `rec` with the keys of `slots`,
    /// carrying `rec` whole or, when `project`, its key alone; returns the
    /// size `open` reports for `rec`.
    fn open<'r>(c: &mut Carrier<'r>, rec: Cow<'r, Record>, slots: &[Slot], project: bool) -> u64 {
        c.open(rec, slots.len(), |rec, input| {
            for (j, (keys, _)) in slots.iter().enumerate() {
                keys.iter().for_each(|key| input.put(j, key.clone()));
            }
            if project {
                Cow::Owned(Record {
                    key: rec.key.clone(),
                    value: Datum::Null,
                })
            } else {
                rec
            }
        })
    }

    /// Fills the slots of `c` that `slots` has results for.
    fn fill(c: &mut Carrier<'_>, slots: &[Slot]) {
        for (j, (_, results)) in slots.iter().enumerate() {
            if let Some(lists) = results {
                c.fill(j, |_, out| {
                    out.extend(lists.iter().cloned().map(Into::into))
                })
                .unwrap();
            }
        }
    }

    /// Takes `c` — whatever it held — to `(k1, v1, slots)`.
    fn set(c: &mut Carrier<'_>, k1: &Datum, v1: &Datum, slots: &[Slot]) {
        let rec = Record {
            key: k1.clone(),
            value: v1.clone(),
        };
        open(c, Cow::Owned(rec), slots, false);
        fill(c, slots);
    }

    /// 0–3 index slots of 0–3 keys each; a slot is unfilled, or filled
    /// with one (possibly empty) result list per key.
    fn arb_parts() -> impl Strategy<Value = (Datum, Datum, Vec<Slot>)> {
        let slot = (
            vec(arb_datum(), 0..=3),
            option::of(vec(vec(arb_datum(), 0..=3), 3..=3)),
        )
            .prop_map(|(keys, results)| {
                let results = results.map(|mut lists| {
                    lists.truncate(keys.len());
                    lists
                });
                (keys, results)
            });
        (arb_datum(), arb_datum(), vec(slot, 0..=3))
    }

    fn arb_carrier() -> impl Strategy<Value = Carrier<'static>> {
        arb_parts().prop_map(|(k1, v1, slots)| {
            let mut c = Carrier::default();
            set(&mut c, &k1, &v1, &slots);
            c
        })
    }

    /// The wire-format oracle: the payload as the nested `Datum::List` the
    /// carrier was serialized to before it became one flat buffer.
    fn nested_payload(c: &Carrier) -> Datum {
        let indices = 0..c.num_indices();
        let keys = indices.clone().map(|j| Datum::List(c.keys(j).to_vec()));
        let values = indices.map(|j| match c.results(j) {
            None => Datum::Null,
            Some(per_key) => Datum::List(per_key.iter().map(|l| Datum::List(l.to_vec())).collect()),
        });
        Datum::List(vec![
            c.k1().clone(),
            c.v1().clone(),
            Datum::List(keys.collect()),
            Datum::List(values.collect()),
        ])
    }

    fn payload_of(c: &Carrier) -> Vec<u8> {
        match c.encode(Datum::Null).value {
            Datum::Bytes(buf) => buf,
            other => panic!("carrier payload is {other:?}, not a byte buffer"),
        }
    }

    /// Parsing bytes that are not a carrier's — over `onto`, a carrier that
    /// holds one — is a decode error or, when they happen to spell one, a
    /// carrier, and nothing else.
    fn parse(mut onto: Carrier<'static>, bytes: Vec<u8>) -> Option<Carrier<'static>> {
        match onto.decode(&Datum::Bytes(bytes)) {
            Ok(()) => Some(onto),
            Err(Error::Decode(_)) => None,
            Err(other) => panic!("not a decode error: {other:?}"),
        }
    }

    proptest! {
        #[test]
        fn payload_is_the_nested_list_encoding_without_its_header(c in arb_carrier()) {
            let oracle = nested_payload(&c).encode();
            prop_assert_eq!(&payload_of(&c)[..], &oracle[5..]);
        }

        #[test]
        fn damaged_payloads_are_decode_errors_never_panics(
            c in arb_carrier(),
            held in arb_carrier(),
        ) {
            let payload = payload_of(&c);
            // A strict prefix always lacks at least the end of the values
            // list; anything appended is trailing.
            for cut in 0..payload.len() {
                let cut_short = parse(held.clone(), payload[..cut].to_vec());
                prop_assert_eq!(cut_short, None, "cut at {}", cut);
            }
            let mut longer = payload.clone();
            longer.push(0);
            prop_assert_eq!(parse(held.clone(), longer), None);
            for at in 0..payload.len() {
                for mask in [0x01, 0x06, 0x80, 0xFF] {
                    let mut flipped = payload.clone();
                    flipped[at] ^= mask;
                    // Whatever it parsed to, the size it claims is its own.
                    if let Some(parsed) = parse(held.clone(), flipped) {
                        prop_assert_eq!(
                            parsed.record_size_bytes(&Datum::Null),
                            parsed.encode(Datum::Null).size_bytes()
                        );
                    }
                }
            }
        }

        #[test]
        fn carrier_survives_the_record_roundtrip(
            c in arb_carrier(),
            held in arb_carrier(),
            routing in arb_datum(),
        ) {
            let rec = c.encode(routing.clone());
            prop_assert_eq!(&rec.key, &routing);
            // Decoded over what another record left behind, and over nothing.
            for mut onto in [held, Carrier::default()] {
                onto.decode(&rec.value).unwrap();
                prop_assert_eq!(&onto, &c);
                prop_assert_eq!(onto.encode(routing.clone()), rec.clone());
            }
        }

        #[test]
        fn a_reused_carrier_is_the_fresh_one(
            parts in arb_parts(),
            held in arb_carrier(),
        ) {
            let (k1, v1, slots) = parts;
            let mut held = held;
            let mut fresh = Carrier::default();
            set(&mut fresh, &k1, &v1, &slots);
            set(&mut held, &k1, &v1, &slots);
            prop_assert_eq!(&held, &fresh);
            prop_assert_eq!(payload_of(&held), payload_of(&fresh));
        }

        /// A record lent to `Carrier::open` and the same record handed over
        /// open the same carrier, whole or projected, over whatever the
        /// carrier held: the same size reported for the record, and once
        /// filled, the same payload, record size and `post_process` input.
        /// A lent record carried whole is lent on to `post_process`, and
        /// the carrier that ends its lend holds none of it.
        #[test]
        fn a_lent_and_an_owned_record_open_the_same_carrier(
            parts in arb_parts(),
            held in arb_carrier(),
            project in any::<bool>(),
        ) {
            let (k1, v1, slots) = parts;
            let rec = Record { key: k1, value: v1 };
            let mut lent: Carrier<'_> = held.clone();
            let lent_size = open(&mut lent, Cow::Borrowed(&rec), &slots, project);
            let mut owned = held;
            let owned_size = open(&mut owned, Cow::Owned(rec.clone()), &slots, project);
            prop_assert_eq!(lent_size, rec.size_bytes());
            prop_assert_eq!(owned_size, lent_size);
            prop_assert_eq!(&lent, &owned);
            prop_assert_eq!(lent.encode(rec.key.clone()), owned.encode(rec.key.clone()));
            fill(&mut lent, &slots);
            fill(&mut owned, &slots);
            prop_assert_eq!(&lent, &owned);
            prop_assert_eq!(lent.encode(rec.key.clone()), owned.encode(rec.key.clone()));
            prop_assert_eq!(lent.record_size_bytes(&rec.key), owned.record_size_bytes(&rec.key));
            if slots.iter().all(|(_, results)| results.is_some()) {
                let (lent_rec, lent_values) = lent.post_input().unwrap();
                prop_assert_eq!(matches!(lent_rec, Cow::Borrowed(r) if std::ptr::eq(r, &rec)), !project);
                let lent_input = (lent_rec.into_owned(), lent_values.clone());
                let (owned_rec, owned_values) = owned.post_input().unwrap();
                prop_assert!(matches!(owned_rec, Cow::Owned(_)));
                prop_assert_eq!(lent_input, (owned_rec.into_owned(), owned_values.clone()));
            }
            // What the lend leaves takes the next record like any carrier.
            let mut ended = lent.end_lend();
            set(&mut ended, &Datum::Int(1), &Datum::Null, &slots);
            let mut fresh = Carrier::default();
            set(&mut fresh, &Datum::Int(1), &Datum::Null, &slots);
            prop_assert_eq!(&ended, &fresh);
            prop_assert_eq!(payload_of(&ended), payload_of(&fresh));
        }

        #[test]
        fn record_size_is_computed_without_building_the_record(
            c in arb_carrier(),
            routing in arb_datum(),
        ) {
            prop_assert_eq!(
                c.record_size_bytes(&routing),
                c.encode(routing).size_bytes()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// A head segment lent its input rows is the segment handed copies of them.

mod lent_rows {
    use super::carrier::arb_datum;
    use super::*;
    use efind::compile::{compile_pipeline, RuntimeEnv};
    use efind::{
        forced_plan, operator_fn, BoundOperator, EFindConfig, IndexAccessor, IndexInput,
        IndexJobConf, IndexOperator, IndexOutput,
    };
    use efind_cluster::{Cluster, SimDuration};
    use efind_common::{FxHashMap, Record};
    use efind_mapreduce::{Collector, RowSink, TaskCtx, ROW_WINDOW};
    use std::borrow::Cow;
    use std::sync::Arc;

    /// A cache of 4 entries, so random keys both hit and evict.
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

    /// `key → [key's size, key]`, for any key.
    struct Echo;

    impl IndexAccessor for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn lookup(&self, key: &Datum) -> Vec<Datum> {
            vec![Datum::Int(key.size_bytes() as i64), key.clone()]
        }
        fn serve_time(&self, _key: &Datum, _result_bytes: u64) -> SimDuration {
            SimDuration::from_micros(100)
        }
    }

    /// The first field of a `List` value; any other value itself.
    fn first_field(value: &Datum) -> &Datum {
        value.as_list().and_then(|l| l.first()).unwrap_or(value)
    }

    /// `(k1, [results…, v1'])`.
    fn joined(rec: Record, values: &IndexOutput, out: &mut dyn Collector) {
        let mut value = values.first(0).to_vec();
        value.push(rec.value);
        out.collect(Record {
            key: rec.key,
            value: Datum::List(value),
        });
    }

    /// Looks up the first field of the value and carries only it, copying
    /// nothing else out of a lent row.
    struct Projecting;

    impl IndexOperator for Projecting {
        fn name(&self) -> &str {
            "proj"
        }
        fn num_indices(&self) -> usize {
            1
        }
        fn pre_process<'r>(&self, rec: Cow<'r, Record>, keys: &mut IndexInput) -> Cow<'r, Record> {
            let first = first_field(&rec.value).clone();
            keys.put(0, first.clone());
            Cow::Owned(Record {
                key: rec.key.clone(),
                value: first,
            })
        }
        fn post_process(
            &self,
            rec: Cow<'_, Record>,
            values: &IndexOutput,
            out: &mut dyn Collector,
        ) {
            joined(rec.into_owned(), values, out);
        }
    }

    /// [`Projecting`] as in-place `operator_fn` sugar.
    fn in_place() -> Arc<dyn IndexOperator> {
        operator_fn(
            "proj",
            1,
            |rec: &mut Record, keys: &mut IndexInput| {
                let first = first_field(&rec.value).clone();
                keys.put(0, first.clone());
                rec.value = first;
            },
            joined,
        )
    }

    /// Looks up the first field of the value like [`Projecting`] but
    /// carries the record whole, handing back the row it is lent, and
    /// projects only what `post_process` emits.
    struct Whole;

    impl IndexOperator for Whole {
        fn name(&self) -> &str {
            "proj"
        }
        fn num_indices(&self) -> usize {
            1
        }
        fn pre_process<'r>(&self, rec: Cow<'r, Record>, keys: &mut IndexInput) -> Cow<'r, Record> {
            keys.put(0, first_field(&rec.value).clone());
            rec
        }
        fn post_process(
            &self,
            rec: Cow<'_, Record>,
            values: &IndexOutput,
            out: &mut dyn Collector,
        ) {
            let projected = Record {
                key: rec.key.clone(),
                value: first_field(&rec.value).clone(),
            };
            joined(projected, values, out);
        }
    }

    /// What one side of a task emitted, and its counters.
    type Side = (Vec<Record>, Vec<(Arc<str>, i64)>);

    /// `op`'s head segment under `strategy` over `rows`, lent to it a
    /// window at a time (`map_rows`) or each handed a copy (`map`); then,
    /// where the job shuffles, one reduce task over the groups of what it
    /// emitted.
    fn run(
        op: Arc<dyn IndexOperator>,
        strategy: AccessStrategy,
        rows: &[Record],
        lend: bool,
    ) -> (Side, Option<Side>) {
        let bound = BoundOperator::new(op).add_index(Arc::new(Echo));
        let mut plans = FxHashMap::default();
        plans.insert("proj".to_owned(), forced_plan(&bound.caps(), strategy));
        let ijob = IndexJobConf::new("lent", "in", "out").add_head_index_operator(bound);
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
        assert_eq!(ctx.error(), None);
        let map_side = (mapped.clone(), ctx.counters.iter_sorted());
        let Some(reducer) = &job.reducer else {
            return (map_side, None);
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
        assert_eq!(ctx.error(), None);
        (map_side, Some((reduced, ctx.counters.iter_sorted())))
    }

    fn has(counters: &[(Arc<str>, i64)], name: &str) -> bool {
        counters.iter().any(|(n, _)| &**n == name)
    }

    /// Keeps what a map task's last stage emits as records, and counts the
    /// values it wrote encoded, as a shuffle run keeps them.
    #[derive(Default)]
    struct Keeping {
        records: Vec<Record>,
        encoded: usize,
    }

    impl Collector for Keeping {
        fn collect(&mut self, rec: Record) {
            self.records.push(rec);
        }

        fn collect_encoded(&mut self, key: Datum, len: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
            let mut buf = Vec::with_capacity(len);
            write(&mut buf);
            assert_eq!(buf.len(), len, "the payload is as long as announced");
            self.encoded += 1;
            self.records.push(Record {
                key,
                value: Datum::Bytes(buf),
            });
        }
    }

    /// `op`'s head segment under re-partitioning over `rows`, each lent,
    /// into a collector that keeps encoded values; then the shuffling job's
    /// reduce over the groups of what it emitted, handed each group's
    /// payloads as live `Datum::Bytes` or lent as bytes. Returns the
    /// values written encoded, and each reduce side's output and counters.
    fn repartitioned(op: Arc<dyn IndexOperator>, rows: &[Record]) -> (usize, Side, Side) {
        let bound = BoundOperator::new(op).add_index(Arc::new(Echo));
        let mut plans = FxHashMap::default();
        let plan = forced_plan(&bound.caps(), AccessStrategy::Repartition);
        plans.insert("proj".to_owned(), plan);
        let ijob = IndexJobConf::new("encoded", "in", "out").add_head_index_operator(bound);
        let pipeline = compile_pipeline(&ijob, &plans, &env()).expect("the pipeline compiles");
        let job = &pipeline.jobs[0];

        let mut segment = (job.map_chain[0])();
        let mut ctx = TaskCtx::new(0);
        let mut out = Keeping::default();
        for window in rows.chunks(ROW_WINDOW) {
            segment.map_rows(window, &mut RowSink::new(&mut out), &mut ctx);
        }
        segment.flush(&mut out, &mut ctx);
        assert_eq!(ctx.error(), None);
        let mut mapped = out.records;
        mapped.sort_by(|a, b| a.key.cmp(&b.key));
        let mut groups: Vec<(Datum, Vec<Datum>)> = Vec::new();
        for rec in mapped {
            match groups.last_mut() {
                Some((key, values)) if *key == rec.key => values.push(rec.value),
                _ => groups.push((rec.key, vec![rec.value])),
            }
        }
        let reducer = job.reducer.as_ref().expect("a shuffling job");
        let reduce = |encoded: bool| -> Side {
            let mut reducer = reducer();
            let mut ctx = TaskCtx::new(0);
            let mut reduced: Vec<Record> = Vec::new();
            for (key, values) in groups.clone() {
                if encoded {
                    let lent: Vec<&[u8]> = values.iter().filter_map(Datum::as_bytes).collect();
                    reducer.reduce_encoded(key, &lent, &mut reduced, &mut ctx);
                } else {
                    reducer.reduce(key, values, &mut reduced, &mut ctx);
                }
            }
            reducer.flush(&mut reduced, &mut ctx);
            assert_eq!(ctx.error(), None);
            (reduced, ctx.counters.iter_sorted())
        };
        (out.encoded, reduce(false), reduce(true))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Lent or handed a copy, a head segment emits the same records and
        /// the same counters — `n1`, `s1.bytes`, `spre.bytes`, the shadow
        /// probes, `sidx.bytes` and the `Spost` pair among them — under
        /// the cache and the re-partitioning strategy, for an in-place
        /// `operator_fn` and for an operator that projects a lent row. The
        /// two operators agree with each other too. An operator that
        /// carries the row whole does under both strategies, lent, what it
        /// does handed a copy, and emits what they emit.
        #[test]
        fn a_lent_row_and_its_copy_take_a_head_segment_to_the_same_place(
            rows in proptest::collection::vec((arb_datum(), arb_datum()), 1..24),
        ) {
            let rows: Vec<Record> = rows
                .into_iter()
                .map(|(key, value)| Record { key, value })
                .collect();
            for strategy in [AccessStrategy::Cache, AccessStrategy::Repartition] {
                let ops: [fn() -> Arc<dyn IndexOperator>; 2] = [in_place, || Arc::new(Projecting)];
                let want = run(ops[0](), strategy, &rows, false);
                for op in ops {
                    for lend in [false, true] {
                        let got = run(op(), strategy, &rows, lend);
                        prop_assert_eq!(&got, &want, "{:?}, lent: {}", strategy, lend);
                    }
                }
                let whole = run(Arc::new(Whole), strategy, &rows, false);
                let lent_whole = run(Arc::new(Whole), strategy, &rows, true);
                prop_assert_eq!(&lent_whole, &whole, "{:?}, carried whole", strategy);
                let emitted = |(map_side, reduce_side): &(Side, Option<Side>)| {
                    reduce_side.as_ref().unwrap_or(map_side).0.clone()
                };
                prop_assert_eq!(emitted(&whole), emitted(&want), "{:?}", strategy);
                let (map_side, reduce_side) = &want;
                let post_side = reduce_side.as_ref().unwrap_or(map_side);
                for (side, name) in [
                    (map_side, "n1"),
                    (map_side, "s1.bytes"),
                    (map_side, "spre.bytes"),
                    (map_side, "0.shadow.probes"),
                    (post_side, "sidx.bytes"),
                    (post_side, "spost.bytes"),
                ] {
                    prop_assert!(has(&side.1, &format!("efind.proj.{name}")), "{:?}: no {}", strategy, name);
                }
            }
        }

        /// Under re-partitioning every carrier leaves the map task as bytes
        /// written where the collector keeps them, and the shuffling job's
        /// reduce, lent those bytes, emits the records and counters it
        /// emits handed the `Datum::Bytes` they stand for — for an operator
        /// that projects, an in-place one and one that carries rows whole.
        #[test]
        fn a_repartitioned_carrier_reduces_alike_lent_as_bytes_or_live(
            rows in proptest::collection::vec((arb_datum(), arb_datum()), 1..24),
        ) {
            let rows: Vec<Record> = rows
                .into_iter()
                .map(|(key, value)| Record { key, value })
                .collect();
            let ops: [Arc<dyn IndexOperator>; 3] =
                [in_place(), Arc::new(Projecting), Arc::new(Whole)];
            for op in ops {
                let (encoded, live, lent) = repartitioned(op, &rows);
                prop_assert_eq!(encoded, rows.len());
                prop_assert_eq!(lent.0.len(), rows.len());
                prop_assert_eq!(&lent, &live);
            }
        }

        /// `post_process` emits the same records whether its carrier hands
        /// it the record or lends it: the in-place `operator_fn`, which
        /// takes a copy of a lent record, and operators that read it.
        #[test]
        fn a_lent_and_an_owned_record_post_process_alike(
            key in arb_datum(),
            value in arb_datum(),
            results in proptest::collection::vec(arb_datum(), 0..3),
        ) {
            let rec = Record { key, value };
            let values = IndexOutput::new(vec![vec![results]]);
            let ops: [Arc<dyn IndexOperator>; 3] =
                [in_place(), Arc::new(Projecting), Arc::new(Whole)];
            for op in ops {
                let (mut lent, mut owned) = (Vec::new(), Vec::new());
                op.post_process(Cow::Borrowed(&rec), &values, &mut lent);
                op.post_process(Cow::Owned(rec.clone()), &values, &mut owned);
                prop_assert_eq!(lent.len(), 1);
                prop_assert_eq!(&lent, &owned);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Analyzer soundness end-to-end: any plan the planner produces for a random
// job must be analyzer-clean, and the job must compile and run without
// panicking. Fewer cases — each spins up a simulated cluster.

mod end_to_end {
    use super::*;
    use efind::analysis;
    use efind::compile::RuntimeEnv;
    use efind::{
        operator_fn, BoundOperator, EFindRuntime, IndexAccessor, IndexInput, IndexJobConf,
        IndexOutput, Mode, PartitionScheme,
    };
    use efind_cluster::{Cluster, NodeId, SimDuration};
    use efind_common::Record;
    use efind_dfs::{Dfs, DfsConfig};
    use efind_mapreduce::Collector;
    use std::sync::Arc;

    struct TestScheme {
        partitions: usize,
        nodes: u16,
    }

    impl PartitionScheme for TestScheme {
        fn num_partitions(&self) -> usize {
            self.partitions
        }
        fn partition_of(&self, key: &Datum) -> usize {
            match key {
                Datum::Int(i) => (*i as usize) % self.partitions,
                _ => 0,
            }
        }
        fn hosts(&self, partition: usize) -> Vec<NodeId> {
            vec![NodeId((partition % self.nodes as usize) as u16)]
        }
    }

    struct TestIndex {
        name: String,
        distinct: i64,
        scheme: Option<Arc<dyn PartitionScheme>>,
    }

    impl IndexAccessor for TestIndex {
        fn name(&self) -> &str {
            &self.name
        }
        fn lookup(&self, key: &Datum) -> Vec<Datum> {
            match key {
                Datum::Int(i) if *i < self.distinct => vec![Datum::Int(i * 2)],
                _ => vec![],
            }
        }
        fn serve_time(&self, _key: &Datum, _result_bytes: u64) -> SimDuration {
            SimDuration::from_micros(50)
        }
        fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
            self.scheme.clone()
        }
    }

    /// A pass-through join operator: looks up the record value on every
    /// index, emits the record unchanged (so operators chain arbitrarily).
    fn passthrough_op(name: &str, num_indices: usize) -> Arc<dyn efind::IndexOperator> {
        operator_fn(
            name,
            num_indices,
            move |rec: &mut Record, keys: &mut IndexInput| {
                for slot in 0..num_indices {
                    keys.put(slot, rec.value.clone());
                }
            },
            |rec: Record, _values: &IndexOutput, out: &mut dyn Collector| {
                out.collect(rec);
            },
        )
    }

    fn build_job(shape: &[Vec<bool>], distinct: i64, nodes: u16) -> IndexJobConf {
        let mut ijob = IndexJobConf::new("prop", "in", "out").set_identity_reducer(2);
        for (i, schemes) in shape.iter().enumerate() {
            let mut bound = BoundOperator::new(passthrough_op(&format!("op{i}"), schemes.len()));
            for (j, with_scheme) in schemes.iter().enumerate() {
                bound = bound.add_index(Arc::new(TestIndex {
                    name: format!("idx{i}_{j}"),
                    distinct,
                    scheme: with_scheme.then(|| {
                        Arc::new(TestScheme {
                            partitions: 4,
                            nodes,
                        }) as Arc<dyn PartitionScheme>
                    }),
                }));
            }
            ijob = ijob.add_head_index_operator(bound);
        }
        ijob
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn planner_clean_plans_compile_and_run(
            shape in proptest::collection::vec(
                proptest::collection::vec(any::<bool>(), 1..=2),
                1..=2,
            ),
            strategy_pick in 0usize..4,
            distinct in 2i64..12,
        ) {
            let nodes = 3u16;
            let cluster = Cluster::builder().nodes(nodes).map_slots(2).reduce_slots(2).build();
            let mut dfs = Dfs::new(
                cluster.clone(),
                DfsConfig { chunk_size_bytes: 512, replication: 2, seed: 7 },
            );
            let records: Vec<Record> = (0..120i64)
                .map(|i| Record::new(i, Datum::Int(i % distinct)))
                .collect();
            dfs.write_file("in", records);

            let ijob = build_job(&shape, distinct, nodes);
            let strategy = [
                AccessStrategy::Baseline,
                AccessStrategy::Cache,
                AccessStrategy::Repartition,
                AccessStrategy::IndexLocality,
            ][strategy_pick];
            let mode = Mode::Uniform(strategy);

            let mut rt = EFindRuntime::new(&cluster, &mut dfs);
            let plans = rt.plans_for(&ijob, &mode).unwrap();
            // Whatever the planner produced (including capability
            // fallbacks) must pass static analysis in the runtime's own,
            // quiet environment...
            let env = RuntimeEnv::new(&cluster, rt.dfs.config().replication, &rt.config);
            prop_assert!(
                analysis::analyze_job_in_env(&ijob, &plans, &env).is_ok_and(|r| r.is_passing()),
                "planner produced an analyzer-rejected plan for shape {shape:?} / {strategy:?}"
            );
            // ...and the job must compile and run to completion.
            let res = rt.run(&ijob, mode);
            prop_assert!(res.is_ok(), "run failed: {:?}", res.err().map(|e| e.to_string()));
            let out = rt.dfs.read_file("out").unwrap();
            prop_assert!(!out.is_empty());
        }
    }
}
