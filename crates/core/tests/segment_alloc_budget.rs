//! A segment takes every record of its task through one carrier, so once
//! the lookup cache and the carrier's buffers are warm, a record whose
//! operator allocates nothing costs no allocator call on the cache path,
//! and exactly the payload buffer where it leaves the task for a
//! collector that builds records — these tests hand it a vector; a shuffle
//! run takes the payload with none (`repart_alloc_budget.rs`). A head
//! segment lent its input rows copies only what its
//! operator keeps: nothing of a row it carries whole. Its own test binary:
//! the check needs a `#[global_allocator]` that counts calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;

use efind::carrier::Carrier;
use efind::compile::{compile_pipeline, CompiledPipeline, RuntimeEnv};
use efind::{
    forced_plan, operator_fn, BoundOperator, EFindConfig, IndexAccessor, IndexInput, IndexJobConf,
    IndexOperator, IndexOutput, LookupResult, Strategy,
};
use efind_cluster::{Cluster, SimDuration};
use efind_common::{Datum, Error, FxHashMap, Record};
use efind_mapreduce::{Collector, RowSink, TaskCtx, ROW_WINDOW};

thread_local! {
    /// Calls this thread has made of the allocator, and the bytes asked for.
    static CALLS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// Largest single request.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised,
// destructor-free thread-local `Cell`s, which neither allocate nor unwind.
// `realloc` is the provided one, which goes through `alloc` and is counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        BYTES.with(|b| b.set(b.get() + layout.size()));
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocator calls and bytes `f` made on this thread.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        CALLS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

const KEYS: i64 = 1_000;
const RECORDS: i64 = 10_000;
/// Every key has been seen — cache, shadow cache, counters and the
/// carrier's lists have what they will ever hold.
const WARM: usize = 1_100;

/// `key → [key * 2]`, stored as the blocks a lookup hands out.
struct Stored(Vec<Arc<[Datum]>>);

impl IndexAccessor for Stored {
    fn name(&self) -> &str {
        "stored"
    }
    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        self.0[key.as_int().expect("int key") as usize].to_vec()
    }
    fn try_lookup(&self, key: &Datum) -> LookupResult {
        LookupResult::Hit(self.0[key.as_int().expect("int key") as usize].clone())
    }
    fn serve_time(&self, _key: &Datum, _result_bytes: u64) -> SimDuration {
        SimDuration::from_micros(100)
    }
}

/// `(k1, Int)` out of a carrier of one lookup.
fn emit_join(rec: Record, values: &IndexOutput, out: &mut dyn Collector) {
    out.collect(Record {
        key: rec.key,
        value: values.first(0)[0].clone(),
    });
}

/// The join of [`pipeline`] as its own operator: it carries the first field
/// of a `List` value and copies nothing else out of the record it is lent.
struct Projecting;

impl IndexOperator for Projecting {
    fn name(&self) -> &str {
        "join"
    }
    fn num_indices(&self) -> usize {
        1
    }
    fn pre_process<'r>(&self, rec: Cow<'r, Record>, keys: &mut IndexInput) -> Cow<'r, Record> {
        keys.put(0, rec.key.clone());
        let value = rec.value.as_list().map_or(Datum::Null, |l| l[0].clone());
        Cow::Owned(Record {
            key: rec.key.clone(),
            value,
        })
    }
    fn post_process(&self, rec: Cow<'_, Record>, values: &IndexOutput, out: &mut dyn Collector) {
        emit_join(rec.into_owned(), values, out);
    }
}

/// A join that carries its row whole — handing back the row it is lent —
/// and builds its own output, `(k1, [first field, result])`, reading the
/// row it is handed or lent.
struct Rebuilding;

impl IndexOperator for Rebuilding {
    fn name(&self) -> &str {
        "join"
    }
    fn num_indices(&self) -> usize {
        1
    }
    fn pre_process<'r>(&self, rec: Cow<'r, Record>, keys: &mut IndexInput) -> Cow<'r, Record> {
        keys.put(0, rec.key.clone());
        rec
    }
    fn post_process(&self, rec: Cow<'_, Record>, values: &IndexOutput, out: &mut dyn Collector) {
        let first = rec.value.as_list().map_or(Datum::Null, |l| l[0].clone());
        out.collect(Record {
            key: rec.key.clone(),
            value: Datum::List(vec![first, values.first(0)[0].clone()]),
        });
    }
}

/// A map-only join whose operator allocates nothing: an `Int` key, the
/// value projected to `Null`, one `(k1, Int)` record out.
fn pipeline(strategy: Strategy) -> CompiledPipeline {
    let op = operator_fn(
        "join",
        1,
        |rec: &mut Record, keys: &mut IndexInput| {
            keys.put(0, rec.key.clone());
            rec.value = Datum::Null;
        },
        emit_join,
    );
    compiled(op, strategy)
}

/// `op` joined against [`Stored`] under `strategy`, as a map-only job.
fn compiled(op: Arc<dyn IndexOperator>, strategy: Strategy) -> CompiledPipeline {
    let blocks = (0..KEYS).map(|k| vec![Datum::Int(k * 2)].into()).collect();
    let bound = BoundOperator::new(op).add_index(Arc::new(Stored(blocks)));
    let mut plans = FxHashMap::default();
    plans.insert("join".to_owned(), forced_plan(&bound.caps(), strategy));
    let ijob = IndexJobConf::new("budget", "in", "out").add_head_index_operator(bound);
    let env = RuntimeEnv {
        shuffle_reducers: 1,
        intermediate_chunks: 1,
        ..RuntimeEnv::new(
            &Cluster::builder().nodes(3).build(),
            2,
            &EFindConfig::default(),
        )
    };
    compile_pipeline(&ijob, &plans, &env).expect("the pipeline compiles")
}

fn input() -> Vec<Record> {
    (0..RECORDS)
        .map(|i| Record::new(i % KEYS, Datum::Int(i)))
        .collect()
}

/// The segment's own mapper over `input`, into an output vector that never
/// grows: allocator calls and bytes for the records behind the warm-up.
fn map_side(pipeline: &CompiledPipeline, input: Vec<Record>) -> (Vec<Record>, usize, usize) {
    let mut segment = (pipeline.jobs[0].map_chain[0])();
    let mut out: Vec<Record> = Vec::with_capacity(input.len());
    let mut ctx = TaskCtx::new(0);
    let mut records = input.into_iter();
    for rec in records.by_ref().take(WARM) {
        segment.map(rec, &mut out, &mut ctx);
    }
    let (calls, bytes) = counted(|| {
        for rec in records {
            segment.map(rec, &mut out, &mut ctx);
        }
    });
    segment.flush(&mut out, &mut ctx);
    assert_eq!(ctx.error(), None);
    assert_eq!(ctx.counters.get("efind.join.n1"), RECORDS);
    (out, calls, bytes)
}

#[test]
fn a_warm_cache_segment_makes_no_allocator_call_a_record() {
    let (out, calls, bytes) = map_side(&pipeline(Strategy::Cache), input());
    assert_eq!(out.len(), RECORDS as usize);
    assert_eq!(out[9_999], Record::new(999i64, 1_998i64));
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "{calls} allocator calls, {bytes} bytes for {} warm records",
        RECORDS as usize - WARM
    );
}

/// Input rows of a padded `List` value, `[i, <pad bytes>]`, that a
/// projecting head segment must not copy.
fn padded_rows(pad: usize) -> Vec<Record> {
    (0..RECORDS)
        .map(|i| {
            let value = Datum::List(vec![Datum::Int(i), Datum::Bytes(vec![0xAB; pad])]);
            Record::new(i % KEYS, value)
        })
        .collect()
}

/// The head segment of `pipeline` lent `rows` a window at a time
/// (`map_rows`), into an output vector that never grows: what it emitted,
/// its counters, and the allocator calls and bytes for the rows behind the
/// warm-up.
fn lent_rows(pipeline: &CompiledPipeline, rows: &[Record]) -> (Vec<Record>, TaskCtx, usize, usize) {
    let mut segment = (pipeline.jobs[0].map_chain[0])();
    let mut out: Vec<Record> = Vec::with_capacity(rows.len());
    let mut ctx = TaskCtx::new(0);
    let (warm, rest) = rows.split_at(WARM);
    for window in warm.chunks(ROW_WINDOW) {
        segment.map_rows(window, &mut RowSink::new(&mut out), &mut ctx);
    }
    let (calls, bytes) = counted(|| {
        for window in rest.chunks(ROW_WINDOW) {
            segment.map_rows(window, &mut RowSink::new(&mut out), &mut ctx);
        }
    });
    segment.flush(&mut out, &mut ctx);
    assert_eq!(ctx.error(), None);
    assert_eq!(ctx.counters.get("efind.join.n1"), RECORDS);
    // `S1` is the size of the whole row, padding included.
    let s1: i64 = rows.iter().map(|r| r.size_bytes() as i64).sum();
    assert_eq!(ctx.counters.get("efind.join.s1.bytes"), s1);
    assert_eq!(out.len(), RECORDS as usize);
    (out, ctx, calls, bytes)
}

#[test]
fn a_warm_projecting_segment_lent_its_rows_makes_no_allocator_call_a_record() {
    let pipeline = compiled(Arc::new(Projecting), Strategy::Cache);
    let (out, _, calls, bytes) = lent_rows(&pipeline, &padded_rows(1_024));
    assert_eq!(out[9_999], Record::new(999i64, 1_998i64));
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "{calls} allocator calls, {bytes} bytes for {} warm rows",
        RECORDS as usize - WARM
    );
}

/// A row `pre_process` carries whole is carried in place: a warm segment
/// lent its rows whose carrier ends in `post_process` allocates what that
/// emits — one output list of two datums a record — and not the row.
#[test]
fn a_warm_segment_carrying_its_lent_rows_whole_allocates_only_what_post_emits() {
    let pipeline = compiled(Arc::new(Rebuilding), Strategy::Cache);
    let rows = padded_rows(1_024);
    let (out, ctx, calls, bytes) = lent_rows(&pipeline, &rows);
    assert_eq!(
        out[9_999],
        Record::new(999i64, vec![Datum::Int(9_999), Datum::Int(1_998)])
    );
    // `Spre` and `Sidx` still size the whole row the carrier read in place.
    let carried: i64 = rows.iter().map(|r| r.size_bytes() as i64).sum();
    let carrier = 9 + 5 + (5 + 5 + 9) + (5 + 1);
    assert_eq!(
        ctx.counters.get("efind.join.spre.bytes"),
        carried + RECORDS * carrier
    );
    let warm = RECORDS as usize - WARM;
    let output = 2 * std::mem::size_of::<Datum>();
    assert_eq!(
        (calls, bytes),
        (warm, warm * output),
        "{calls} allocator calls, {bytes} bytes for {warm} warm rows"
    );
}

/// A row carried whole that leaves the task behind a rekey is encoded
/// straight from where the chunk holds it: a warm segment lent its rows
/// allocates each record's payload buffer and nothing else.
#[test]
fn a_warm_segment_rekeying_its_lent_rows_whole_allocates_only_their_payloads() {
    let pipeline = compiled(Arc::new(Rebuilding), Strategy::Repartition);
    let rows = padded_rows(1_024);
    let (shuffled, _, calls, bytes) = lent_rows(&pipeline, &rows);
    let payloads: usize = shuffled[WARM..]
        .iter()
        .map(|rec| match &rec.value {
            Datum::Bytes(buf) => buf.len(),
            other => panic!("not a carrier payload: {other:?}"),
        })
        .sum();
    let warm = RECORDS as usize - WARM;
    // Each payload holds its row whole: (k1, [i, <pad>], [[key]], [Null]).
    assert_eq!(payloads, warm * (9 + (5 + 9 + 5 + 1_024) + 19 + 6));
    assert_eq!(
        (calls, bytes),
        (warm, payloads),
        "{calls} allocator calls, {bytes} bytes for {warm} warm rows"
    );
    // The payloads carry the rows: the reduce side joins them as a copy
    // would have.
    let (out, _, _) = reduce_side(&pipeline, shuffled);
    assert_eq!(
        out[9_999],
        Record::new(999i64, vec![Datum::Int(9_999), Datum::Int(1_998)])
    );
}

#[test]
fn a_repartitioned_record_costs_its_payload_buffer_and_nothing_else() {
    let pipeline = pipeline(Strategy::Repartition);
    let (shuffled, calls, bytes) = map_side(&pipeline, input());
    let warm = RECORDS as usize - WARM;
    // (k1, Null, [[key]], [Null]): 9 + 1 + (5 + 5 + 9) + (5 + 1) bytes.
    assert_eq!((calls, bytes), (warm, warm * 35));

    // The reduce side: one lookup a group, and a payload decoded into the
    // carrier's own lists — `Int` and `Null` datums own no heap block.
    let (out, calls, bytes) = reduce_side(&pipeline, shuffled);
    assert_eq!(out[9_999], Record::new(999i64, 1_998i64));
    assert_eq!((calls, bytes), (0, 0));
}

/// Groups lookups made this many groups in warm up the reducer.
const WARM_GROUPS: usize = 100;

/// The shuffling job's reducer over what the map side routed to it, one
/// group a key, into an output vector that never grows: allocator calls
/// and bytes for the groups behind the warm-up.
fn reduce_side(pipeline: &CompiledPipeline, shuffled: Vec<Record>) -> (Vec<Record>, usize, usize) {
    let mut groups: Vec<(Datum, Vec<Datum>)> =
        (0..KEYS).map(|k| (Datum::Int(k), Vec::new())).collect();
    for rec in shuffled {
        let k = rec.key.as_int().expect("routed by the lookup key") as usize;
        groups[k].1.push(rec.value);
    }
    let mut reducer = (pipeline.jobs[0].reducer.as_ref().expect("a shuffling job"))();
    let mut out: Vec<Record> = Vec::with_capacity(RECORDS as usize);
    let mut ctx = TaskCtx::new(0);
    let mut groups = groups.into_iter();
    for (key, values) in groups.by_ref().take(WARM_GROUPS) {
        reducer.reduce(key, values, &mut out, &mut ctx);
    }
    let (calls, bytes) = counted(|| {
        for (key, values) in groups {
            reducer.reduce(key, values, &mut out, &mut ctx);
        }
    });
    reducer.flush(&mut out, &mut ctx);
    assert_eq!(ctx.error(), None);
    assert_eq!(out.len(), RECORDS as usize);
    assert_eq!(ctx.counters.get("efind.join.0.lookups"), KEYS);
    assert_eq!(ctx.counters.get("efind.join.post.out"), RECORDS);
    (out, calls, bytes)
}

/// A stored carrier is decoded into the storage the carrier's last record
/// left, and lent to `post_process`: a warm group-lookup segment whose
/// operator builds its own output allocates that output and nothing else —
/// not the row it decoded.
#[test]
fn a_warm_group_lookup_segment_lent_its_decoded_carriers_allocates_only_its_output() {
    let pipeline = compiled(Arc::new(Rebuilding), Strategy::Repartition);
    let rows = (0..RECORDS).map(|i| {
        let value = Datum::List(vec![Datum::Int(i), Datum::Int(3 * i)]);
        Record::new(i % KEYS, value)
    });
    let (shuffled, _, _) = map_side(&pipeline, rows.collect());
    // Key `k`'s group holds the records `k + j * KEYS`.
    let warm = (KEYS as usize - WARM_GROUPS) * (RECORDS / KEYS) as usize;
    let (out, calls, bytes) = reduce_side(&pipeline, shuffled);
    assert_eq!(
        out[9_999],
        Record::new(999i64, vec![Datum::Int(9_999), Datum::Int(1_998)])
    );
    // One output list of two datums a record.
    let output = 2 * std::mem::size_of::<Datum>();
    assert_eq!(
        (calls, bytes),
        (warm, warm * output),
        "{calls} allocator calls, {bytes} bytes for {warm} warm records"
    );
}

/// A payload's list headers come from the input: one that claims 2³² − 1
/// keys must not make the carrier reserve for them.
#[test]
fn a_claimed_key_count_reserves_no_more_than_the_payload_holds() {
    let mut payload = Vec::new();
    Datum::Int(1).encode_into(&mut payload);
    Datum::Null.encode_into(&mut payload);
    for claimed in [1, u32::MAX] {
        payload.push(6);
        payload.extend_from_slice(&claimed.to_le_bytes());
    }
    payload.extend_from_slice(&[0, 0, 0, 0]);
    let mut carrier = Carrier::default();
    LARGEST.with(|l| l.set(0));
    let parsed = carrier.decode(&Datum::Bytes(payload));
    let largest = LARGEST.with(Cell::get);
    assert!(matches!(parsed, Err(Error::Decode(_))), "{parsed:?}");
    let four_elements = 4 * std::mem::size_of::<Datum>();
    assert!(
        largest <= four_elements,
        "a {largest}-byte reservation for a 24-byte payload"
    );
}
