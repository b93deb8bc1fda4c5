//! User-code traits and the chained-function mechanism.
//!
//! Hadoop's `ChainMapper`/`ChainReducer` let several functions run inside
//! one task, each consuming the previous one's output. The paper's baseline
//! strategy (Fig. 6) implements an `IndexOperator` by inserting its three
//! methods as chained functions around the original Map/Reduce. Here a map
//! computation is a `Vec<MapperFactory>` and a reduce computation is an
//! optional [`Reducer`] followed by more chained mappers.
//!
//! Factories exist because tasks need private state — the lookup cache of
//! §3.2 lives inside one task's chain instance — so every task instantiates
//! its own chain.
//!
//! *The chain contract.* A chain runs record at a time, as `ChainMapper`
//! does: an input record goes through stage 0, and every record a stage
//! emits goes on through the next stage before the stage sees its next
//! input. After the last input, the stages flush in stage order, and what a
//! flush emits goes down the rest of the chain before the next stage
//! flushes. Each stage therefore sees exactly the records, in exactly the
//! order, that a stage-at-a-time pass would hand it — what changes is only
//! how the stages' calls interleave, which shows to a stage that reads
//! task-wide state another stage writes ([`TaskCtx::charged`]). Between two
//! stages sits one buffer for the whole task; the last stage emits into the
//! task's [`Collector`] — the [`PartWriter`] whose blocks become the parts
//! of a map-only or reduce task's output file, or the shuffle run of a map
//! task of a job with a reduce, which encodes each record as it arrives.
//!
//! *Lent input.* A map task's input rows stay in its chunk: stage 0 is lent
//! them a window at a time — up to [`ROW_WINDOW`] rows that lie next to
//! each other in the chunk ([`Mapper::map_rows`]) — and copies what it
//! keeps. It emits into a [`RowSink`] and calls [`RowSink::row_done`] after
//! each row, which takes that row's output down the rest of the chain
//! before the stage goes on to the next row, so the contract above holds
//! window or not. What stage 0 may do early is its own business: work for
//! a later row of the window that no other stage, and nothing the task
//! reports, can tell from doing it at the row's turn. The default copies
//! each row whole into [`Mapper::map`]; EFind's head operator opens every
//! row's carrier first and asks the index to bring the window's lookup
//! keys near before it looks the first one up, copies only what its
//! `pre_process` projects to, and nothing of a row it carries whole. Every
//! later stage, and every stage of a chain driven over owned records
//! ([`run_chain`], a reduce task's tail), is handed records it owns.

use std::sync::Arc;

use efind_common::{Datum, Record};
use efind_dfs::{Chunk, PartWriter};

use crate::context::TaskCtx;

/// Receives the records a user function emits.
pub trait Collector {
    /// Emits one record downstream.
    fn collect(&mut self, rec: Record);

    /// Emits one record whose value is a [`Datum::Bytes`] of `len` bytes,
    /// which `write` appends to the buffer it is handed. The default builds
    /// that record; the run of a map task that shuffles keeps the bytes in
    /// its own storage instead, so the value never exists as a buffer of
    /// its own (see [`Reducer::reduce_encoded`]).
    fn collect_encoded(&mut self, key: Datum, len: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
        self.collect(encoded_record(key, len, write));
    }
}

/// The record [`Collector::collect_encoded`] stands for: `key`, and the
/// `Datum::Bytes` of the `len` bytes `write` appends to an empty buffer.
pub(crate) fn encoded_record(
    key: Datum,
    len: usize,
    write: &mut dyn FnMut(&mut Vec<u8>),
) -> Record {
    let mut buf = Vec::with_capacity(len);
    write(&mut buf);
    Record {
        key,
        value: Datum::Bytes(buf),
    }
}

impl Collector for Vec<Record> {
    fn collect(&mut self, rec: Record) {
        self.push(rec);
    }
}

impl Collector for PartWriter {
    fn collect(&mut self, rec: Record) {
        self.push(rec);
    }
}

/// A record-at-a-time user function (Map, or a chained function).
pub trait Mapper: Send {
    /// Processes one input record, emitting any number of output records.
    fn map(&mut self, rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx);

    /// Processes a window of input records the task only borrows: rows of
    /// a map task's input chunk, in order. Whatever a row emits goes into
    /// `out`, and [`RowSink::row_done`] follows each row, in row order,
    /// before the next row's output (see the module docs). The default maps
    /// a copy of each whole row; a mapper that keeps less of a row, or that
    /// gains from seeing rows ahead, overrides this.
    fn map_rows(&mut self, rows: &[Record], out: &mut RowSink<'_>, ctx: &mut TaskCtx) {
        for rec in rows {
            self.map(rec.clone(), out, ctx);
            out.row_done(ctx);
        }
    }

    /// Called once after the last record of the task; emits any buffered
    /// output (used by stateful chain elements).
    fn flush(&mut self, _out: &mut dyn Collector, _ctx: &mut TaskCtx) {}
}

/// A group-at-a-time user function (Reduce).
pub trait Reducer: Send {
    /// Processes one key group.
    fn reduce(
        &mut self,
        key: Datum,
        values: Vec<Datum>,
        out: &mut dyn Collector,
        ctx: &mut TaskCtx,
    );

    /// Processes one key group whose values all crossed the shuffle as the
    /// bytes [`Collector::collect_encoded`] wrote, lent in arrival order
    /// from the runs that hold them. The default hands [`Reducer::reduce`]
    /// the [`Datum::Bytes`] each stands for.
    fn reduce_encoded(
        &mut self,
        key: Datum,
        values: &[&[u8]],
        out: &mut dyn Collector,
        ctx: &mut TaskCtx,
    ) {
        self.reduce(key, to_datums(values), out, ctx);
    }

    /// Called once after the last group of the task.
    fn flush(&mut self, _out: &mut dyn Collector, _ctx: &mut TaskCtx) {}
}

/// The [`Datum::Bytes`] each of `values` stands for.
pub(crate) fn to_datums(values: &[&[u8]]) -> Vec<Datum> {
    values.iter().map(|v| Datum::Bytes(v.to_vec())).collect()
}

/// Creates a fresh [`Mapper`] instance per task.
pub type MapperFactory = Arc<dyn Fn() -> Box<dyn Mapper> + Send + Sync>;

/// Creates a fresh [`Reducer`] instance per task.
pub type ReducerFactory = Arc<dyn Fn() -> Box<dyn Reducer> + Send + Sync>;

struct FnMapper<F>(F);

impl<F> Mapper for FnMapper<F>
where
    F: FnMut(Record, &mut dyn Collector, &mut TaskCtx) + Send,
{
    fn map(&mut self, rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        (self.0)(rec, out, ctx);
    }
}

/// Wraps a stateless closure as a [`MapperFactory`].
pub fn mapper_fn<F>(f: F) -> MapperFactory
where
    F: Fn(Record, &mut dyn Collector, &mut TaskCtx) + Send + Sync + Clone + 'static,
{
    Arc::new(move || Box::new(FnMapper(f.clone())))
}

struct FnReducer<F>(F);

impl<F> Reducer for FnReducer<F>
where
    F: FnMut(Datum, Vec<Datum>, &mut dyn Collector, &mut TaskCtx) + Send,
{
    fn reduce(
        &mut self,
        key: Datum,
        values: Vec<Datum>,
        out: &mut dyn Collector,
        ctx: &mut TaskCtx,
    ) {
        (self.0)(key, values, out, ctx);
    }
}

/// Wraps a stateless closure as a [`ReducerFactory`].
pub fn reducer_fn<F>(f: F) -> ReducerFactory
where
    F: Fn(Datum, Vec<Datum>, &mut dyn Collector, &mut TaskCtx) + Send + Sync + Clone + 'static,
{
    Arc::new(move || Box::new(FnReducer(f.clone())))
}

/// The identity map: passes records through unchanged.
pub fn identity_mapper() -> MapperFactory {
    mapper_fn(|rec, out, _ctx| out.collect(rec))
}

/// The most rows of a map task's chunk that stage 0 is lent at once
/// ([`Mapper::map_rows`]). A window is cut short where the chunk's stored
/// slices end.
pub const ROW_WINDOW: usize = 32;

/// Where stage 0 of a map task's chain emits what the rows of a window
/// make ([`Mapper::map_rows`]): into the task's collector when it is the
/// only stage, else into its buffer, which [`RowSink::row_done`] takes down
/// the rest of the chain.
pub struct RowSink<'a> {
    out: &'a mut dyn Collector,
    /// Stage 0's buffer and the stages after it; `None` when there are none.
    rest: Option<(&'a mut Vec<Record>, &'a mut [Stage])>,
}

impl<'a> RowSink<'a> {
    /// A sink for the only stage of a chain, emitting into `out`.
    pub fn new(out: &'a mut dyn Collector) -> Self {
        RowSink { out, rest: None }
    }

    /// Ends the current row: takes what it emitted down the rest of the
    /// chain, record by record, before the next row's output.
    pub fn row_done(&mut self, ctx: &mut TaskCtx) {
        if let Some((emitted, stages)) = &mut self.rest {
            for rec in emitted.drain(..) {
                push(stages, rec, &mut *self.out, ctx);
            }
        }
    }
}

impl Collector for RowSink<'_> {
    fn collect(&mut self, rec: Record) {
        match &mut self.rest {
            None => self.out.collect(rec),
            Some((emitted, _)) => emitted.push(rec),
        }
    }

    /// Forwarded as it is to the task's collector when stage 0 is the last
    /// stage; a record for the next stage otherwise.
    fn collect_encoded(&mut self, key: Datum, len: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
        match &mut self.rest {
            None => self.out.collect_encoded(key, len, write),
            Some((emitted, _)) => emitted.push(encoded_record(key, len, write)),
        }
    }
}

/// One instantiated stage of a [`Chain`] and the buffer it emits into.
struct Stage {
    mapper: Box<dyn Mapper>,
    /// What one call of the stage emitted, until the rest of the chain has
    /// taken it. The last stage emits straight into the chain's output and
    /// never uses its buffer.
    emitted: Vec<Record>,
}

/// One task's instance of a chain of mappers, driven record at a time (see
/// the module docs for the contract).
pub(crate) struct Chain {
    stages: Vec<Stage>,
}

impl Chain {
    /// Instantiates every stage of `chain`, in order.
    pub(crate) fn new(chain: &[MapperFactory]) -> Self {
        let stages = chain
            .iter()
            .map(|factory| Stage {
                mapper: factory(),
                emitted: Vec::new(),
            })
            .collect();
        Chain { stages }
    }

    /// Takes `rows`, which the task only borrows, through every stage,
    /// collecting what the last one emits into `out`: stage 0 is lent the
    /// window ([`Mapper::map_rows`]), and each row's output goes down the
    /// rest of the chain at its [`RowSink::row_done`] — or at the end of
    /// the window, for output no `row_done` followed. An empty chain emits
    /// each row as it is, a value of stored bytes as bytes
    /// ([`Collector::collect_encoded`]).
    fn push_rows(&mut self, rows: &[Record], out: &mut dyn Collector, ctx: &mut TaskCtx) {
        let Some((head, rest)) = self.stages.split_first_mut() else {
            return rows.iter().for_each(|rec| collect_row(rec, out));
        };
        let rest = (!rest.is_empty()).then_some((&mut head.emitted, rest));
        let mut sink = RowSink { out, rest };
        head.mapper.map_rows(rows, &mut sink, ctx);
        sink.row_done(ctx);
    }

    /// Takes each record of `records`, in order, through every stage,
    /// collecting what the last one emits into `out`; leaves `records`
    /// empty with its capacity kept.
    pub(crate) fn push_all(
        &mut self,
        records: &mut Vec<Record>,
        out: &mut dyn Collector,
        ctx: &mut TaskCtx,
    ) {
        for rec in records.drain(..) {
            push(&mut self.stages, rec, out, ctx);
        }
    }

    /// Flushes the stages in stage order, each flush's output going down
    /// the rest of the chain before the next stage flushes.
    pub(crate) fn finish(mut self, out: &mut dyn Collector, ctx: &mut TaskCtx) {
        for i in 0..self.stages.len() {
            emit(&mut self.stages[i..], out, ctx, |m, sink, ctx| {
                m.flush(sink, ctx)
            });
        }
    }
}

/// Emits a row the task only borrows as it is: a value of bytes through
/// [`Collector::collect_encoded`], so a shuffle run copies the bytes into
/// its own storage and no buffer of the row's is cloned.
fn collect_row(rec: &Record, out: &mut dyn Collector) {
    match &rec.value {
        Datum::Bytes(bytes) => out.collect_encoded(rec.key.clone(), bytes.len(), &mut |buf| {
            buf.extend_from_slice(bytes)
        }),
        _ => out.collect(rec.clone()),
    }
}

/// Takes `rec` through `stages` (into `out` when there are none).
fn push(stages: &mut [Stage], rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx) {
    if stages.is_empty() {
        return out.collect(rec);
    }
    emit(stages, out, ctx, |m, sink, ctx| m.map(rec, sink, ctx));
}

/// Makes `call` on the first of `stages` and takes what it emits through
/// the rest, record by record.
fn emit(
    stages: &mut [Stage],
    out: &mut dyn Collector,
    ctx: &mut TaskCtx,
    call: impl FnOnce(&mut dyn Mapper, &mut dyn Collector, &mut TaskCtx),
) {
    let Some((stage, rest)) = stages.split_first_mut() else {
        return;
    };
    if rest.is_empty() {
        return call(&mut *stage.mapper, out, ctx);
    }
    call(&mut *stage.mapper, &mut stage.emitted, ctx);
    for rec in stage.emitted.drain(..) {
        push(rest, rec, out, ctx);
    }
}

/// Runs `records` through a fresh instance of `chain`, record at a time
/// (see the module docs): each stage sees the records the previous one
/// emits, in emission order, and then the previous one's flush output; the
/// stages flush in order. An empty chain returns `records` itself.
pub fn run_chain(
    chain: &[MapperFactory],
    mut records: Vec<Record>,
    ctx: &mut TaskCtx,
) -> Vec<Record> {
    if chain.is_empty() {
        return records;
    }
    let mut out = Vec::with_capacity(records.len());
    let mut stages = Chain::new(chain);
    stages.push_all(&mut records, &mut out, ctx);
    stages.finish(&mut out, ctx);
    out
}

/// Runs a map-only task's `chain` over its input chunk into the writer of
/// its output file, whose first block holds as many records as went in:
/// stage 0 is lent the chunk's rows one at a time (see the module docs),
/// so no copy of the input is made up front.
pub(crate) fn run_into_parts(
    chain: &[MapperFactory],
    records: Chunk<'_>,
    ctx: &mut TaskCtx,
) -> PartWriter {
    let mut out = PartWriter::with_capacity(records.len());
    drive(chain, records, &mut out, ctx);
    out
}

/// Takes the rows of `records` through a fresh instance of `chain`, lent
/// to stage 0 a window at a time, then flushes its stages in order (see
/// the module docs); what the last stage emits goes into `out`. Inlined into
/// every caller: a map task of a job with a reduce and a map-only task
/// drive the same iterator type, and the one shared copy the compiler made
/// of it ran `wc_shuffle`'s map phase a sixth slower (EXPERIMENTS.md E37).
#[inline(always)]
pub(crate) fn drive(
    chain: &[MapperFactory],
    records: Chunk<'_>,
    out: &mut dyn Collector,
    ctx: &mut TaskCtx,
) {
    let mut chain = Chain::new(chain);
    for rows in records.slices() {
        for window in rows.chunks(ROW_WINDOW) {
            chain.push_rows(window, out, ctx);
        }
    }
    chain.finish(out, ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use efind_cluster::{NodeId, SimDuration};
    use efind_dfs::SharedChunk;
    use proptest::prelude::*;

    fn ctx() -> TaskCtx {
        TaskCtx::new(0)
    }

    #[test]
    fn identity_chain_passes_through() {
        let recs = vec![Record::new(1i64, "a"), Record::new(2i64, "b")];
        let out = run_chain(&[identity_mapper()], recs.clone(), &mut ctx());
        assert_eq!(out, recs);
    }

    #[test]
    fn chain_composes_in_order() {
        let double = mapper_fn(|rec: Record, out: &mut dyn Collector, _: &mut TaskCtx| {
            let v = rec.key.as_int().unwrap();
            out.collect(Record::new(v * 2, Datum::Null));
        });
        let inc = mapper_fn(|rec: Record, out: &mut dyn Collector, _: &mut TaskCtx| {
            let v = rec.key.as_int().unwrap();
            out.collect(Record::new(v + 1, Datum::Null));
        });
        let recs = vec![Record::new(3i64, Datum::Null)];
        // (3*2)+1 = 7, not (3+1)*2 = 8.
        let out = run_chain(&[double.clone(), inc.clone()], recs.clone(), &mut ctx());

        assert_eq!(out[0].key, Datum::Int(7));
        let out = run_chain(&[inc, double], recs, &mut ctx());
        assert_eq!(out[0].key, Datum::Int(8));
    }

    #[test]
    fn one_to_many_expansion() {
        let explode = mapper_fn(|rec: Record, out: &mut dyn Collector, _: &mut TaskCtx| {
            let n = rec.key.as_int().unwrap();
            for i in 0..n {
                out.collect(Record::new(i, Datum::Null));
            }
        });
        let out = run_chain(&[explode], vec![Record::new(3i64, Datum::Null)], &mut ctx());
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn stateful_stage_flushes() {
        struct Summer {
            total: i64,
        }
        impl Mapper for Summer {
            fn map(&mut self, rec: Record, _out: &mut dyn Collector, _ctx: &mut TaskCtx) {
                self.total += rec.key.as_int().unwrap();
            }
            fn flush(&mut self, out: &mut dyn Collector, _ctx: &mut TaskCtx) {
                out.collect(Record::new(self.total, Datum::Null));
            }
        }
        let factory: MapperFactory = Arc::new(|| Box::new(Summer { total: 0 }));
        let recs = (1..=4i64).map(|i| Record::new(i, Datum::Null)).collect();
        let out = run_chain(&[factory], recs, &mut ctx());
        assert_eq!(out, vec![Record::new(10i64, Datum::Null)]);
    }

    #[test]
    fn fresh_instance_per_run() {
        struct Counting {
            seen: usize,
        }
        impl Mapper for Counting {
            fn map(&mut self, _rec: Record, out: &mut dyn Collector, _ctx: &mut TaskCtx) {
                self.seen += 1;
                out.collect(Record::new(self.seen as i64, Datum::Null));
            }
        }
        let factory: MapperFactory = Arc::new(|| Box::new(Counting { seen: 0 }));
        for _ in 0..2 {
            let out = run_chain(
                std::slice::from_ref(&factory),
                vec![Record::new(0i64, Datum::Null)],
                &mut ctx(),
            );
            // State must not leak between task instantiations.
            assert_eq!(out[0].key, Datum::Int(1));
        }
    }

    /// The stage-at-a-time loop the record-at-a-time chain replaced: each
    /// stage runs over the whole output of the previous one, then flushes.
    /// The reference the equivalence tests compare against.
    fn run_chain_staged(
        chain: &[MapperFactory],
        records: Vec<Record>,
        ctx: &mut TaskCtx,
    ) -> Vec<Record> {
        let mut current = records;
        for factory in chain {
            let mut stage = factory();
            let mut next = Vec::with_capacity(current.len());
            for rec in current {
                stage.map(rec, &mut next, ctx);
            }
            stage.flush(&mut next, ctx);
            current = next;
        }
        current
    }

    /// What a generated stage does with the records it is handed.
    #[derive(Clone, Debug)]
    enum Kind {
        /// Drops the records whose key is a multiple of the divisor.
        Filter(i64),
        /// Emits this many records for each one.
        Expand(usize),
        /// Holds every record until `flush`, then emits them reversed.
        Hold,
        /// Emits nothing but, from `flush`, the count and key sum of what
        /// it saw.
        Summary,
    }

    /// A stage that also charges the task clock, bumps a counter, observes
    /// a sketch and declares affinity for every record it sees, all under
    /// its own stage number.
    struct Probe {
        id: usize,
        kind: Kind,
        charge: u64,
        held: Vec<Record>,
        count: i64,
        sum: i64,
    }

    impl Mapper for Probe {
        fn map(&mut self, rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx) {
            let key = rec.key.as_int().unwrap();
            ctx.charge(SimDuration::from_nanos(
                self.charge * (key.unsigned_abs() + 1),
            ));
            ctx.counters.add(&format!("probe{}.in", self.id), 1);
            ctx.sketches
                .observe(&format!("probe{}.keys", self.id), &rec.key);
            ctx.add_affinity(&[NodeId(key.rem_euclid(5) as u16)]);
            match self.kind {
                Kind::Filter(m) if key % m == 0 => {}
                Kind::Filter(_) => out.collect(rec),
                Kind::Expand(n) => {
                    for i in 0..n {
                        out.collect(Record::new(key * 7 + i as i64, rec.value.clone()));
                    }
                }
                Kind::Hold => self.held.push(rec),
                Kind::Summary => {
                    self.count += 1;
                    self.sum += key;
                }
            }
        }

        fn flush(&mut self, out: &mut dyn Collector, ctx: &mut TaskCtx) {
            ctx.charge(SimDuration::from_nanos(self.charge));
            match self.kind {
                Kind::Hold => {
                    for rec in self.held.drain(..).rev() {
                        out.collect(rec);
                    }
                }
                Kind::Summary => out.collect(Record::new(self.sum, self.count)),
                Kind::Filter(_) | Kind::Expand(_) => {}
            }
        }
    }

    fn probes(stages: &[(Kind, u64)]) -> Vec<MapperFactory> {
        stages
            .iter()
            .enumerate()
            .map(|(id, (kind, charge))| {
                let (kind, charge) = (kind.clone(), *charge);
                let factory: MapperFactory = Arc::new(move || {
                    Box::new(Probe {
                        id,
                        kind: kind.clone(),
                        charge,
                        held: Vec::new(),
                        count: 0,
                        sum: 0,
                    })
                });
                factory
            })
            .collect()
    }

    /// Counters, per-stage sketch estimates, charged time, affinity.
    type Seen = (Vec<(Arc<str>, i64)>, Vec<f64>, SimDuration, Vec<NodeId>);

    /// Everything a task's context holds that the runner reads, affinity
    /// as a set (the scheduler only tests membership).
    fn observed(ctx: &TaskCtx, stages: usize) -> Seen {
        let sketches = (0..stages)
            .map(|id| ctx.sketches.estimate(&format!("probe{id}.keys")))
            .collect();
        let mut affinity = ctx.affinity().to_vec();
        affinity.sort();
        (
            ctx.counters.iter_sorted(),
            sketches,
            ctx.charged(),
            affinity,
        )
    }

    fn kind() -> impl Strategy<Value = Kind> {
        prop_oneof![
            (2i64..5).prop_map(Kind::Filter),
            (0usize..3).prop_map(Kind::Expand),
            Just(Kind::Hold),
            Just(Kind::Summary),
        ]
    }

    /// The records a map-only task's chain writes over `records`.
    fn parts_of(chain: &[MapperFactory], records: SharedChunk, ctx: &mut TaskCtx) -> Vec<Record> {
        run_into_parts(chain, records.chunk(), ctx)
            .into_iter()
            .collect()
    }

    proptest! {
        /// Record at a time, every stage sees what it saw stage at a time:
        /// same output, counters, sketches, charged time and affinity, owned
        /// input or a shared chunk written into parts.
        #[test]
        fn record_at_a_time_matches_stage_at_a_time(
            stages in prop::collection::vec((kind(), 0u64..4), 0..=4),
            keys in prop::collection::vec(-20i64..40, 0..40),
        ) {
            let chain = probes(&stages);
            let input: Vec<Record> = keys.iter().map(|&k| Record::new(k, "v")).collect();
            let mut want_ctx = ctx();
            let want = run_chain_staged(&chain, input.clone(), &mut want_ctx);
            let want_seen = observed(&want_ctx, stages.len());

            let mut got_ctx = ctx();
            let got = run_chain(&chain, input.clone(), &mut got_ctx);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(observed(&got_ctx, stages.len()), want_seen.clone());

            let mut shared_ctx = ctx();
            let shared = parts_of(&chain, input.into(), &mut shared_ctx);
            prop_assert_eq!(&shared, &want);
            prop_assert_eq!(observed(&shared_ctx, stages.len()), want_seen);
        }
    }

    #[test]
    fn an_empty_chain_returns_its_input_buffer() {
        let recs = vec![Record::new(1i64, "a"), Record::new(2i64, "b")];
        let ptr = recs.as_ptr();
        let out = run_chain(&[], recs, &mut ctx());
        assert_eq!(out.as_ptr(), ptr);
        assert_eq!(out.len(), 2);
        let shared = SharedChunk::from(out);
        assert_eq!(
            parts_of(&[], shared.clone(), &mut ctx()),
            shared.chunk().to_vec()
        );
    }

    #[test]
    fn only_stage_0_of_a_map_task_is_lent_its_rows() {
        /// Emits each record's key, tagged with how it was handed over.
        struct How;
        impl Mapper for How {
            fn map(&mut self, rec: Record, out: &mut dyn Collector, _ctx: &mut TaskCtx) {
                out.collect(Record::new(rec.key, "owned"));
            }
            fn map_rows(&mut self, rows: &[Record], out: &mut RowSink<'_>, ctx: &mut TaskCtx) {
                for rec in rows {
                    out.collect(Record::new(rec.key.clone(), "lent"));
                    out.row_done(ctx);
                }
            }
        }
        let how: MapperFactory = Arc::new(|| Box::new(How));
        let rows = vec![Record::new(1i64, "a"), Record::new(2i64, "b")];
        let tags = |out: Vec<Record>| -> Vec<Datum> { out.into_iter().map(|r| r.value).collect() };
        let [lent, owned] = ["lent", "owned"].map(|t| vec![Datum::Text(t.into()); 2]);
        let shared = SharedChunk::from(rows.clone());
        let one = std::slice::from_ref(&how);
        assert_eq!(tags(parts_of(one, shared.clone(), &mut ctx())), lent);
        let two = [how.clone(), how.clone()];
        assert_eq!(tags(parts_of(&two, shared, &mut ctx())), owned);
        assert_eq!(tags(run_chain(one, rows, &mut ctx())), owned);
    }

    #[test]
    fn empty_input_still_flushes_every_stage_in_order() {
        let chain = probes(&[(Kind::Summary, 1), (Kind::Expand(2), 1), (Kind::Summary, 1)]);
        let mut c = ctx();
        let out = run_chain(&chain, Vec::new(), &mut c);
        // Stage 0's summary (0, 0) is expanded to keys 0 and 1 before stage
        // 2 flushes, so stage 2 sums 1 over 2 records.
        assert_eq!(out, vec![Record::new(1i64, 2i64)]);
        let mut staged = ctx();
        assert_eq!(run_chain_staged(&chain, Vec::new(), &mut staged), out);
        assert_eq!(observed(&c, 3), observed(&staged, 3));
        let shared = parts_of(&chain, Vec::new().into(), &mut ctx());
        assert_eq!(shared, out);
    }

    #[test]
    fn the_tasks_error_is_the_first_failure_in_record_order() {
        let fail_at = |stage: &'static str, at: i64| {
            mapper_fn(
                move |rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx| {
                    if rec.key == Datum::Int(at) {
                        ctx.fail(format!("{stage} at {at}"));
                    }
                    out.collect(rec);
                },
            )
        };
        let chain = [fail_at("first", 2), fail_at("second", 1)];
        let input: Vec<Record> = (0..4i64).map(|k| Record::new(k, Datum::Null)).collect();
        // Record 1 reaches the second stage before record 2 reaches the
        // first; stage at a time, the first stage saw record 2 first.
        let mut c = ctx();
        run_chain(&chain, input.clone(), &mut c);
        assert_eq!(c.error(), Some("second at 1"));
        let mut staged = ctx();
        run_chain_staged(&chain, input.clone(), &mut staged);
        assert_eq!(staged.error(), Some("first at 2"));
        // Lent a window at a time, stage 0 still hands on each row's
        // output before it maps the next row.
        let mut lent = ctx();
        parts_of(&chain, input.into(), &mut lent);
        assert_eq!(lent.error(), Some("second at 1"));
    }

    /// Counts what reaches it encoded, and keeps every record as it stands.
    #[derive(Default)]
    struct Encoded {
        records: Vec<Record>,
        encoded: usize,
    }

    impl Collector for Encoded {
        fn collect(&mut self, rec: Record) {
            self.records.push(rec);
        }

        fn collect_encoded(&mut self, key: Datum, len: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
            self.encoded += 1;
            self.collect(encoded_record(key, len, write));
        }
    }

    #[test]
    fn an_empty_chain_emits_stored_bytes_encoded_and_other_rows_as_they_are() {
        let rows = vec![
            Record::new(1i64, Datum::Bytes(vec![1, 2, 3])),
            Record::new(2i64, "text"),
            Record::new(3i64, Datum::Bytes(Vec::new())),
        ];
        let mut out = Encoded::default();
        let shared = SharedChunk::from(rows.clone());
        drive(&[], shared.chunk(), &mut out, &mut ctx());
        assert_eq!((out.records, out.encoded), (rows, 2));
    }

    #[test]
    fn a_sole_stage_passes_what_it_writes_encoded_on_encoded() {
        let encode = mapper_fn(|rec: Record, out: &mut dyn Collector, _: &mut TaskCtx| {
            out.collect_encoded(rec.key, 2, &mut |buf| buf.extend_from_slice(&[7, 7]))
        });
        let rows: Vec<Record> = (0..3i64).map(|k| Record::new(k, Datum::Null)).collect();
        let shared = SharedChunk::from(rows);
        let mut out = Encoded::default();
        drive(
            std::slice::from_ref(&encode),
            shared.chunk(),
            &mut out,
            &mut ctx(),
        );
        assert_eq!(out.encoded, 3);
        // Behind it, a stage is handed each as the record it stands for.
        let mut out = Encoded::default();
        let two = [encode, identity_mapper()];
        drive(&two, shared.chunk(), &mut out, &mut ctx());
        assert_eq!(out.encoded, 0);
        assert_eq!(out.records[2], Record::new(2i64, Datum::Bytes(vec![7, 7])));
    }
}
