//! Map-side spill: a map task's shuffle output as one run ordered by
//! reduce partition (Hadoop's `MapOutputBuffer`).
//!
//! The last stage of a map task's chain emits into a [`RunWriter`], so the
//! task's records arrive one at a time: the writer asks for each record's
//! partition once, encodes its key into a key block and keeps its value,
//! both in emission order. [`RunWriter::seal`] then puts the run in
//! partition order, once. The task output never exists as records.
//!
//! A sealed run holds every record the task emits, partition after
//! partition and in emission order within a partition: each key's
//! [`Datum::encode`] bytes back to back in one `Vec<u8>`, the values, and
//! one [`End`] per partition. A run's values are of one of two kinds.
//! *Live* values are datums moved into one `Vec<Datum>`, for
//! [`Reducer::reduce`] to own. *Encoded* values are bytes the chain wrote
//! straight into the run's value blocks ([`Collector::collect_encoded`]),
//! each standing for the `Datum::Bytes` of them; the run keeps an 8-byte
//! [`Span`] a value, and the bytes never move. EFind's carriers cross a
//! re-partitioning shuffle encoded, and the reduce side reads them where
//! the run holds them ([`Reducer::reduce_encoded`]), so no record's payload
//! is a heap block that one worker allocates and another frees. A user
//! job's values stay live: encoding them would cost a copy each. A run
//! whose chain emits both kinds holds them all live, an encoded one as the
//! `Datum::Bytes` it stands for.
//!
//! The task seals its run before it ends, so the keys it allocated are
//! encoded and freed on the thread that made them; a reduce task borrows
//! its [`Slice`] of every run and decodes one key per group.
//!
//! [`Reducer::reduce`]: crate::Reducer::reduce
//! [`Reducer::reduce_encoded`]: crate::Reducer::reduce_encoded

use std::mem;

use efind_common::{Datum, Record};

use crate::api::{encoded_record, Collector};

/// `Datum::size_bytes` of a `Datum::Bytes` less its length: the tag and
/// the 4-byte length.
const BYTES_HEADER: u64 = 5;

/// Where one partition's records end in a run, and what they shuffle.
#[derive(Clone, Copy, Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
struct End {
    /// One past the partition's last key byte.
    key: usize,
    /// One past the partition's last value.
    value: usize,
    /// `Record::size_bytes` summed over the partition's records.
    bytes: u64,
}

/// Where one encoded value's bytes are: `len` bytes from `at`, counted
/// through the run's value blocks in order.
#[derive(Clone, Copy, Debug)]
#[cfg_attr(test, derive(PartialEq))]
struct Span {
    at: u32,
    len: u32,
}

/// The bytes of a run's encoded values, in emission order, in blocks that
/// never move and are never copied: sealing reorders the spans that point
/// into them, not the bytes.
#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
struct Blocks(Vec<Vec<u8>>);

impl Blocks {
    /// Bytes written into all blocks.
    fn written(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    /// The bytes `span` points at.
    fn get(&self, span: Span) -> &[u8] {
        let mut at = span.at as usize;
        for block in &self.0 {
            if at < block.len() {
                return &block[at..at + span.len as usize];
            }
            at -= block.len();
        }
        &[]
    }
}

/// A map task's run while records are emitted into it. How many
/// allocations it makes does not depend on the partition count, nor, while
/// the input-record hint holds, on how many values it encodes.
pub(crate) struct RunWriter<P> {
    partition_of: P,
    /// Each record's key encoding, in emission order, in blocks that never
    /// move: a key that does not fit the last block opens a new one as
    /// large as all before it together, so the blocks ask the allocator
    /// for less than twice the key bytes, and nothing is copied until the
    /// run is sealed.
    keys: Vec<Vec<u8>>,
    /// Each live value, in emission order.
    values: Vec<Datum>,
    /// Each encoded value, in emission order.
    spans: Vec<Span>,
    blocks: Blocks,
    /// The input-record hint the writer was sized for.
    expected: usize,
    /// Each record's partition, in emission order.
    ids: Vec<u32>,
    /// Each partition's key bytes, records and shuffled bytes so far;
    /// sealing turns the sums into ends.
    ends: Vec<End>,
}

impl<P: Fn(&Datum) -> usize> RunWriter<P> {
    /// A writer into `partitions` partitions sized for `records` records:
    /// as many partition ids, and as many values of the kind the first
    /// record brings, and a first key block of a byte each (the shortest
    /// encoding). `partition_of` must answer below `partitions`.
    pub(crate) fn new(partitions: usize, records: usize, partition_of: P) -> Self {
        RunWriter {
            partition_of,
            keys: vec![Vec::with_capacity(records)],
            values: Vec::new(),
            spans: Vec::new(),
            blocks: Blocks::default(),
            expected: records,
            ids: Vec::with_capacity(records),
            ends: vec![End::default(); partitions],
        }
    }

    /// Records collected so far.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Encodes `key` into the key blocks and counts a record of
    /// `value_bytes` shuffled bytes in its partition.
    fn push_key(&mut self, key: &Datum, value_bytes: u64) {
        let p = (self.partition_of)(key);
        // A key's `size_bytes` is its encoded length.
        let size = key.size_bytes() as usize;
        match self.keys.last_mut() {
            Some(block) if block.capacity() - block.len() >= size => key.encode_into(block),
            _ => {
                let held: usize = self.keys.iter().map(Vec::capacity).sum();
                let mut block = Vec::with_capacity(size.max(held));
                key.encode_into(&mut block);
                self.keys.push(block);
            }
        }
        let end = &mut self.ends[p];
        end.key += size;
        end.value += 1;
        end.bytes += size as u64 + value_bytes;
        self.ids.push(p as u32);
    }

    /// The value block the next encoded value, of `len` bytes, goes into:
    /// the last one if it has room, or a new one with room for the records
    /// the hint still expects at the mean length of the values so far and
    /// this one — so values of one length fill a single block exactly —
    /// and, past the hint, as much as all blocks before it.
    fn block_for(&mut self, len: usize) -> &mut Vec<u8> {
        let Blocks(blocks) = &mut self.blocks;
        let full = match blocks.last() {
            Some(block) => block.capacity() - block.len() < len,
            None => true,
        };
        if full {
            let written: usize = blocks.iter().map(Vec::len).sum();
            let capacity = match self.expected.saturating_sub(self.spans.len()) {
                0 => blocks.iter().map(Vec::capacity).sum(),
                left => ((written + len) * left).div_ceil(self.spans.len() + 1),
            };
            blocks.push(Vec::with_capacity(capacity.max(len)));
        }
        blocks
            .last_mut()
            .expect("a block was just made if there was none")
    }

    /// Turns the encoded values collected so far into live ones, for a
    /// chain that emits both kinds.
    fn make_live(&mut self) {
        let (spans, blocks) = (mem::take(&mut self.spans), mem::take(&mut self.blocks));
        self.values.reserve_exact(self.expected.max(spans.len()));
        for span in spans {
            self.values.push(Datum::Bytes(blocks.get(span).to_vec()));
        }
    }

    /// The run in partition order, with no spare capacity in its keys and
    /// values. One copy moves each key into its partition's range of an
    /// exact-size buffer, and the values — or the spans of encoded ones —
    /// are permuted in place, cycle by cycle; either way a record lands
    /// after the records of its partition emitted before it. Encoded
    /// values' bytes stay where they were written.
    pub(crate) fn seal(self) -> Spill {
        let RunWriter {
            keys: key_blocks,
            mut values,
            mut spans,
            blocks,
            ids: mut slots,
            mut ends,
            ..
        } = self;
        // A run holds values of one kind.
        debug_assert!(values.is_empty() || spans.is_empty());
        debug_assert!(u32::try_from(slots.len()).is_ok(), "indices are u32");
        // Sums become ends; `next` is each partition's next key byte and
        // next value slot.
        let mut next = Vec::with_capacity(ends.len());
        let (mut key, mut value) = (0, 0);
        for end in &mut ends {
            next.push((key, value));
            key += end.key;
            value += end.value;
            (end.key, end.value) = (key, value);
        }
        // Each record's partition becomes the slot its value moves to.
        let mut keys = vec![0; key];
        let encoded = key_blocks.iter().flat_map(|block| encodings(block));
        for (slot, k) in slots.iter_mut().zip(encoded) {
            let (key_at, value_at) = &mut next[*slot as usize];
            keys[*key_at..*key_at + k.len()].copy_from_slice(k);
            *key_at += k.len();
            *slot = *value_at as u32;
            *value_at += 1;
        }
        drop(key_blocks);
        if spans.is_empty() {
            values.shrink_to_fit();
            permute(&mut values, &mut slots);
            return Spill::Live(Run { keys, values, ends });
        }
        spans.shrink_to_fit();
        permute(&mut spans, &mut slots);
        Spill::Encoded(Box::new(Run {
            keys,
            values: Encoded { spans, blocks },
            ends,
        }))
    }
}

/// Moves each of `items` to its slot in `slots`, one cycle at a time.
fn permute<T>(items: &mut [T], slots: &mut [u32]) {
    for i in 0..items.len() {
        while slots[i] as usize != i {
            let to = slots[i] as usize;
            items.swap(i, to);
            slots.swap(i, to);
        }
    }
}

impl<P: Fn(&Datum) -> usize> Collector for RunWriter<P> {
    fn collect(&mut self, rec: Record) {
        self.push_key(&rec.key, rec.value.size_bytes());
        if self.values.capacity() == 0 {
            if self.spans.is_empty() {
                self.values.reserve_exact(self.expected);
            } else {
                self.make_live();
            }
        }
        self.values.push(rec.value);
    }

    /// Writes the value's bytes into the run's last value block, opening
    /// one sized from `len` when it has no room; into a buffer of its own,
    /// as the default does, in a run that already holds live values.
    fn collect_encoded(&mut self, key: Datum, len: usize, write: &mut dyn FnMut(&mut Vec<u8>)) {
        if !self.values.is_empty() {
            return self.collect(encoded_record(key, len, write));
        }
        if self.spans.capacity() == 0 {
            self.spans.reserve_exact(self.expected);
        }
        let at = self.blocks.written();
        let block = self.block_for(len);
        let before = block.len();
        write(block);
        let len = block.len() - before;
        debug_assert!(u32::try_from(at + len).is_ok(), "spans are u32");
        self.push_key(&key, BYTES_HEADER + len as u64);
        self.spans.push(Span {
            at: at as u32,
            len: len as u32,
        });
    }
}

/// Each key encoding in `buf`, back to back.
fn encodings(mut buf: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        if buf.is_empty() {
            return None;
        }
        let len = Datum::encoded_len(buf).expect("a run holds only the keys it encoded");
        let (key, rest) = buf.split_at(len);
        buf = rest;
        Some(key)
    })
}

/// A sealed run: keys, values of one kind, and partition ends.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct Run<V> {
    keys: Vec<u8>,
    values: V,
    ends: Vec<End>,
}

/// A run's encoded values: where each one is, in partition order, and the
/// blocks that hold them.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) struct Encoded {
    spans: Vec<Span>,
    blocks: Blocks,
}

/// The value blocks of a run that has none.
static NO_BLOCKS: Blocks = Blocks(Vec::new());

/// One map task's shuffle output.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) enum Spill {
    /// A run of live values.
    Live(Run<Vec<Datum>>),
    /// A run of encoded values, boxed so that a run of either kind takes
    /// the room of a run of live values.
    Encoded(Box<Run<Encoded>>),
}

impl Spill {
    /// Spills `records` into `partitions` partitions: a [`RunWriter`] fed
    /// from the vector, then sealed. `partition_of` must answer below
    /// `partitions`.
    pub(crate) fn build(
        records: Vec<Record>,
        partitions: usize,
        partition_of: impl Fn(&Datum) -> usize,
    ) -> Spill {
        let mut run = RunWriter::new(partitions, records.len(), partition_of);
        for rec in records {
            run.collect(rec);
        }
        run.seal()
    }

    fn ends(&self) -> &[End] {
        match self {
            Spill::Live(run) => &run.ends,
            Spill::Encoded(run) => &run.ends,
        }
    }

    /// Records in the run.
    pub(crate) fn len(&self) -> usize {
        self.ends().last().map_or(0, |end| end.value)
    }

    /// Partitions the run was spilled into.
    pub(crate) fn partitions(&self) -> usize {
        self.ends().len()
    }

    /// Bytes the run shuffles: `Record::size_bytes` summed over its records.
    pub(crate) fn bytes(&self) -> u64 {
        self.ends().iter().map(|e| e.bytes).sum()
    }

    /// The run cut into its partitions' slices, in partition order.
    pub(crate) fn slices(&mut self) -> impl Iterator<Item = Slice<'_>> {
        let (mut keys, ends, mut values, encoded) = match self {
            Spill::Live(run) => (&run.keys[..], &run.ends[..], &mut run.values[..], None),
            Spill::Encoded(run) => (
                &run.keys[..],
                &run.ends[..],
                Default::default(),
                Some(&**run),
            ),
        };
        let (mut key_at, mut value_at) = (0, 0);
        ends.iter().enumerate().map(move |(p, end)| {
            let (k, rest) = keys.split_at(end.key - key_at);
            keys = rest;
            let held = match encoded {
                None => {
                    let (v, rest) = mem::take(&mut values).split_at_mut(end.value - value_at);
                    values = rest;
                    Held::Live {
                        values: v,
                        bytes: end.bytes,
                    }
                }
                Some(run) => Held::Encoded {
                    run,
                    partition: p as u32,
                },
            };
            (key_at, value_at) = (end.key, end.value);
            Slice { keys: k, held }
        })
    }

    /// The run's records, partition after partition, keys decoded and
    /// values moved out (an encoded value as the `Datum::Bytes` it stands
    /// for).
    pub(crate) fn into_records(mut self) -> Vec<Record> {
        let mut records = Vec::with_capacity(self.len());
        for slice in self.slices() {
            records.extend(slice.into_records());
        }
        records
    }
}

/// One record's value as a reduce task takes it from a [`Slice`].
pub(crate) enum Arrival<'s, 'a> {
    /// A live value, to be moved out.
    Live(&'s mut Datum),
    /// An encoded value's bytes, where the run holds them.
    Encoded(&'a [u8]),
}

impl Arrival<'_, '_> {
    /// The datum the value stands for: a live one moved out, or the
    /// `Datum::Bytes` of an encoded one's bytes.
    pub(crate) fn into_datum(self) -> Datum {
        match self {
            Arrival::Live(datum) => mem::take(datum),
            Arrival::Encoded(bytes) => Datum::Bytes(bytes.to_vec()),
        }
    }
}

/// One partition of one run: the records a map task sends one reduce task.
pub(crate) struct Slice<'a> {
    keys: &'a [u8],
    held: Held<'a>,
}

/// A slice's values, by the kind of its run. Either kind takes the room the
/// live one does.
enum Held<'a> {
    Live {
        values: &'a mut [Datum],
        bytes: u64,
    },
    Encoded {
        run: &'a Run<Encoded>,
        partition: u32,
    },
}

impl<'a> Slice<'a> {
    /// The slice's encoded values and the blocks that hold them; none in a
    /// slice of live values.
    fn spans(&self) -> (&'a [Span], &'a Blocks) {
        match self.held {
            Held::Live { .. } => (&[], &NO_BLOCKS),
            Held::Encoded { run, partition } => {
                let p = partition as usize;
                let from = p.checked_sub(1).map_or(0, |q| run.ends[q].value);
                let encoded = &run.values;
                (&encoded.spans[from..run.ends[p].value], &encoded.blocks)
            }
        }
    }

    /// The slice's live values; none in a slice of encoded values.
    fn live(&mut self) -> &mut [Datum] {
        match &mut self.held {
            Held::Live { values, .. } => values,
            Held::Encoded { .. } => &mut [],
        }
    }

    /// Records in the slice.
    pub(crate) fn len(&self) -> usize {
        match &self.held {
            Held::Live { values, .. } => values.len(),
            Held::Encoded { .. } => self.spans().0.len(),
        }
    }

    /// True when the map task sent this partition nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the slice shuffles.
    pub(crate) fn bytes(&self) -> u64 {
        match self.held {
            Held::Live { bytes, .. } => bytes,
            Held::Encoded { run, partition } => run.ends[partition as usize].bytes,
        }
    }

    /// Whether the slice is cut from a run of encoded values.
    pub(crate) fn is_encoded(&self) -> bool {
        matches!(self.held, Held::Encoded { .. })
    }

    /// The slice's key encodings, back to back.
    pub(crate) fn key_bytes(&self) -> &'a [u8] {
        self.keys
    }

    /// Each record's key encoding, in emission order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &'a [u8]> {
        encodings(self.keys)
    }

    /// The bytes of each encoded value, in emission order: with the key
    /// bytes, the part of the payload that exists as bytes.
    pub(crate) fn encoded(&self) -> impl Iterator<Item = &'a [u8]> {
        let (spans, blocks) = self.spans();
        spans.iter().map(|&span| blocks.get(span))
    }

    /// Each record's value, in emission order.
    pub(crate) fn arrivals(&mut self) -> impl Iterator<Item = Arrival<'_, 'a>> {
        let encoded = self.encoded().map(Arrival::Encoded);
        self.live().iter_mut().map(Arrival::Live).chain(encoded)
    }

    /// The slice's records, keys decoded and values moved out (an encoded
    /// value as the `Datum::Bytes` it stands for).
    pub(crate) fn into_records(self) -> impl Iterator<Item = Record> + 'a {
        let encoded = self.encoded().map(Arrival::Encoded);
        let live = match self.held {
            Held::Live { values, .. } => values,
            Held::Encoded { .. } => &mut [],
        };
        let values = live.iter_mut().map(Arrival::Live).chain(encoded);
        let mut keys = self.keys;
        values.map(move |value| {
            let (key, rest) =
                Datum::decode_from(keys).expect("a run holds only the keys it encoded");
            keys = rest;
            Record {
                key,
                value: value.into_datum(),
            }
        })
    }
}

/// The spill of a collected vector that the writer replaced, kept as the
/// reference it is tested against: a counting pass asks `partition_of`
/// once per record and sizes the record, and a fill pass encodes each key
/// into its partition's range of the key buffer and moves each value into
/// its partition's range of the value buffer.
#[cfg(test)]
pub(crate) fn collected(
    mut records: Vec<Record>,
    partitions: usize,
    partition_of: impl Fn(&Datum) -> usize,
) -> Spill {
    let mut ends = vec![End::default(); partitions];
    let ids: Vec<u32> = records
        .iter()
        .map(|rec| {
            let p = partition_of(&rec.key);
            let key = rec.key.size_bytes();
            let end = &mut ends[p];
            end.key += key as usize;
            end.value += 1;
            end.bytes += key + rec.value.size_bytes();
            p as u32
        })
        .collect();
    let mut next = Vec::with_capacity(partitions);
    let (mut key, mut value) = (0, 0);
    for end in &mut ends {
        next.push(value);
        key += end.key;
        value += end.value;
        (end.key, end.value) = (key, value);
    }
    let mut order = vec![0u32; records.len()];
    for (i, p) in ids.into_iter().enumerate() {
        let slot = &mut next[p as usize];
        order[*slot] = i as u32;
        *slot += 1;
    }
    let mut keys = Vec::with_capacity(key);
    let mut values = Vec::with_capacity(value);
    for i in order {
        let rec = &mut records[i as usize];
        rec.key.encode_into(&mut keys);
        values.push(mem::take(&mut rec.value));
    }
    Spill::Live(Run { keys, values, ends })
}

#[cfg(test)]
impl Spill {
    /// The value blocks holding the run's encoded values, or `None` in a
    /// run of live values.
    pub(crate) fn value_blocks(&self) -> Option<usize> {
        match self {
            Spill::Live(_) => None,
            Spill::Encoded(run) => Some(run.values.blocks.0.len()),
        }
    }

    /// Whether the key and value buffers hold no spare capacity.
    pub(crate) fn is_tight(&self) -> bool {
        fn tight<T>(v: &Vec<T>) -> bool {
            v.capacity() == v.len()
        }
        match self {
            Spill::Live(run) => tight(&run.keys) && tight(&run.values),
            Spill::Encoded(run) => tight(&run.keys) && tight(&run.values.spans),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use efind_dfs::SharedChunk;
    use proptest::prelude::*;

    use super::*;
    use crate::api::{reducer_fn, run_chain, Chain, Mapper, MapperFactory};
    use crate::runner::{partition_of, spill_map};
    use crate::{JobConf, TaskCtx};

    fn by_key(partitions: usize) -> impl Fn(&Datum) -> usize {
        move |key: &Datum| key.as_int().unwrap_or(0).rem_euclid(partitions as i64) as usize
    }

    /// A run of `input` records of which the chain emitted `fanout` each:
    /// 0 filters every record out, 3 expands each into three.
    fn sealed(input: usize, fanout: usize) -> Spill {
        let mut run = RunWriter::new(4, input, by_key(4));
        for i in 0..input as i64 {
            for j in 0..fanout as i64 {
                run.collect(Record::new(i * 3 + j, format!("v{i}")));
            }
        }
        run.seal()
    }

    #[test]
    fn a_run_and_a_slice_of_either_kind_take_the_room_of_a_live_one() {
        // A job whose values are all live asks the allocator for what it
        // asked for before values could be encoded: its map tasks' runs
        // and its reduce tasks' lists of slices are no larger.
        use std::mem::size_of;
        assert_eq!(size_of::<Spill>(), size_of::<Run<Vec<Datum>>>());
        assert_eq!(size_of::<Slice>(), size_of::<(&[u8], &mut [Datum], u64)>());
    }

    #[test]
    fn a_sealed_run_holds_no_spare_capacity_below_or_above_the_input_hint() {
        for (input, fanout) in [(100, 0), (100, 1), (100, 3), (0, 1), (1, 5)] {
            let run = sealed(input, fanout);
            assert_eq!(run.len(), input * fanout);
            assert!(run.is_tight(), "{input} records, {fanout} out for each");
        }
        // Every other record filtered out: half the hint.
        let mut run = RunWriter::new(4, 100, by_key(4));
        for i in (0..100i64).step_by(2) {
            run.collect(Record::new(i, i));
        }
        let run = run.seal();
        assert_eq!(run.len(), 50);
        assert!(run.is_tight());
    }

    #[test]
    fn keys_longer_than_the_blocks_before_them_seal_in_partition_order() {
        let records: Vec<Record> = (0..40i64)
            .map(|i| {
                let key = match i % 3 {
                    0 => Datum::Int(i),
                    1 => Datum::Text("x".repeat(i as usize * 5)),
                    _ => Datum::List(vec![Datum::Int(i); i as usize]),
                };
                Record::new(key, i)
            })
            .collect();
        let p = |key: &Datum| key.size_bytes() as usize % 3;
        let want = collected(records.clone(), 3, p);
        let mut run = RunWriter::new(3, 1, p);
        for rec in records {
            run.collect(rec);
        }
        assert!(run.keys.len() > 2, "the keys fit one block");
        assert_eq!(run.seal(), want);
    }

    /// What a generated map stage does with each record.
    #[derive(Clone, Debug)]
    enum Kind {
        /// Drops the records whose value is a multiple of the divisor.
        Filter(i64),
        /// Emits this many records, under the same key, for each one.
        Expand(usize),
        /// Holds every record until `flush`, then emits them reversed.
        Hold,
        /// Fails the task at the record of this value, and passes it on.
        Fail(i64),
    }

    struct Stage {
        kind: Kind,
        held: Vec<Record>,
    }

    impl Mapper for Stage {
        fn map(&mut self, rec: Record, out: &mut dyn Collector, ctx: &mut TaskCtx) {
            let value = rec.value.as_int().unwrap();
            match self.kind {
                Kind::Filter(m) if value % m == 0 => {}
                Kind::Filter(_) => out.collect(rec),
                Kind::Expand(n) => {
                    for i in 0..n as i64 {
                        out.collect(Record::new(rec.key.clone(), value * 7 + i));
                    }
                }
                Kind::Hold => self.held.push(rec),
                Kind::Fail(at) => {
                    if value == at {
                        ctx.fail(format!("failed at {at}"));
                    }
                    out.collect(rec);
                }
            }
        }

        fn flush(&mut self, out: &mut dyn Collector, _: &mut TaskCtx) {
            for rec in self.held.drain(..).rev() {
                out.collect(rec);
            }
        }
    }

    fn kind() -> impl Strategy<Value = Kind> {
        prop_oneof![
            (2i64..5).prop_map(Kind::Filter),
            (0usize..4).prop_map(Kind::Expand),
            Just(Kind::Hold),
            (0i64..30).prop_map(Kind::Fail),
        ]
    }

    /// Every `Datum` variant, with keys that are equal as numbers but not
    /// as datums (`Int(1)`, `Float(1.0)`; `0.0`, `-0.0`).
    fn key_pool() -> Vec<Datum> {
        vec![
            Datum::Null,
            Datum::Bool(false),
            Datum::Bool(true),
            Datum::Int(1),
            Datum::Int(-40),
            Datum::Float(1.0),
            Datum::Float(0.0),
            Datum::Float(-0.0),
            Datum::Text(String::new()),
            Datum::Text("key".into()),
            Datum::Bytes(vec![1, 0, 255]),
            Datum::List(Vec::new()),
            Datum::List(vec![Datum::Int(1), Datum::Text("x".into())]),
        ]
    }

    proptest! {
        /// A map task's chain driven straight into its run, from owned or
        /// from shared input, spills what collecting the chain's output and
        /// spilling that vector does: the same run, and the same emitted
        /// count, output records and output bytes, and task error.
        #[test]
        fn a_streamed_run_equals_the_collected_run(
            stages in prop::collection::vec(kind(), 0..=3),
            keys in prop::collection::vec((0usize..13, 0i64..30), 0..60),
            partitions in prop_oneof![Just(1usize), Just(8), Just(240)],
        ) {
            let pool = key_pool();
            let input: Vec<Record> = keys
                .iter()
                .map(|&(k, v)| Record::new(pool[k].clone(), v))
                .collect();
            let mut conf = JobConf::new("streamed", "in", "out")
                .with_reducer(reducer_fn(|_, _, _, _| {}), partitions);
            for kind in stages {
                let factory: MapperFactory = Arc::new(move || {
                    Box::new(Stage {
                        kind: kind.clone(),
                        held: Vec::new(),
                    })
                });
                conf = conf.add_mapper(factory);
            }
            let partition = |key: &Datum| partition_of(&conf, key, partitions);

            let mut want_ctx = TaskCtx::new(0);
            let out = run_chain(&conf.map_chain, input.clone(), &mut want_ctx);
            let want_bytes: u64 = out.iter().map(Record::size_bytes).sum();
            let want_emitted = out.len() as u64;
            let want = collected(out, partitions, partition);

            let mut owned_ctx = TaskCtx::new(0);
            let mut writer = RunWriter::new(partitions, input.len(), partition);
            let mut chain = Chain::new(&conf.map_chain);
            chain.push_all(&mut input.clone(), &mut writer, &mut owned_ctx);
            chain.finish(&mut writer, &mut owned_ctx);
            let owned_emitted = writer.len() as u64;
            let owned = writer.seal();

            let mut shared_ctx = TaskCtx::new(0);
            let shared_input = SharedChunk::from(input);
            let (shared, shared_emitted) =
                spill_map(&conf, shared_input.chunk(), &mut shared_ctx);

            for (run, emitted, ctx) in [
                (owned, owned_emitted, owned_ctx),
                (shared, shared_emitted, shared_ctx),
            ] {
                prop_assert_eq!(emitted, want_emitted);
                // `mr.map.output.records` and `mr.map.output.bytes`.
                prop_assert_eq!(run.len() as u64, want_emitted);
                prop_assert_eq!(run.bytes(), want_bytes);
                prop_assert_eq!(ctx.error(), want_ctx.error());
                prop_assert_eq!(&run, &want);
            }
        }
    }
}
