//! Carrier records.
//!
//! Between an operator's `pre_process` and `post_process`, EFind threads
//! the intermediate `(k1, v1, {{ik_1},…,{ik_m}}, {{iv_1},…})` tuple of
//! Fig. 2 through the MapReduce data flow — possibly across a shuffle job
//! boundary (re-partitioning, Fig. 7). The [`Carrier`] encodes that tuple
//! as a plain record whose key is the current *routing key* (`k1`
//! normally, the lookup key `ik_j` while shuffling for index `j`), so the
//! unmodified MapReduce shuffle machinery moves it.
//!
//! # Wire format
//!
//! The record's value is one [`Datum::Bytes`] buffer holding, in order and
//! each in its [`Datum::encode`] form: `k1`; `v1`; the list of the
//! per-index key lists; the list of the per-index value slots, a slot being
//! `Null` while unfilled and otherwise the list of its per-key result
//! lists. That is the encoding of the list `[k1, v1, keys, values]` without
//! the list's own 5-byte header, and the `Bytes` header is 5 bytes too, so
//! the record is sized as if the value were that nested list. A carrier
//! that crosses a shuffle never is a buffer of its own: it is written
//! straight into the map task's run ([`Carrier::encode_into`]) and parsed
//! where the run holds it ([`Carrier::decode_bytes`]), so no task frees a
//! block another allocated. One stored in a job-boundary file is the
//! buffer [`Carrier::encode`] builds.
//!
//! # One carrier a row of a window
//!
//! A segment owns its carriers — one for each row of the window of rows
//! it is lent at the head of a map task, one where it is handed owned
//! records — and takes every record of its task through them, each
//! carrier every row at its place in a window: [`Carrier::open`] and
//! [`Carrier::decode`] empty the key lists and result slots of the record
//! before — keeping their buffers — and write the next record into them. The carrier keeps the length of
//! its encoded payload in step with what it holds, so the size statistics
//! and [`Carrier::encode`]'s one reservation read a number instead of
//! walking the payload again.
//!
//! # The record, handed over or lent
//!
//! The carrier holds `(k1, v1)` in one of three ways, by where it came
//! from. A record `pre_process` made in this task is the carrier's to
//! give: [`Carrier::post_input`] hands it to `post_process` owned. A row
//! `pre_process` was lent and handed back whole stays the task's: the
//! carrier borrows it for that one record, reads it in place to encode and
//! size the payload, and lends it on to `post_process`, so a row that
//! leaves the task as a payload or through what `post_process` emits is
//! never copied whole. One decoded from a stored payload is lent too, and
//! stays in the carrier, so the next [`Carrier::decode`] parses into its
//! storage ([`Datum::decode_in_place`]): a `postProcess` that filters a
//! row out, or builds a row of its own, pays nothing for the one it was
//! shown.
//!
//! A task keeps its carriers as `Carrier<'static>`s between windows and
//! lends them a window's rows by moving their list out for the window
//! ([`std::mem::take`]) and back with [`Carrier::end_lend`]: the borrow
//! checker sees that no lent row outlives its window, and nothing is
//! `unsafe`.

use std::borrow::Cow;
use std::sync::Arc;

use efind_common::{Datum, Error, Record, Result};

use crate::operator::{IndexInput, IndexOutput};

/// Bytes of a `Datum::List` header (tag + count) — and of the
/// `Datum::Bytes` header (tag + length) that stands in for the payload
/// list's. See [`Datum::size_bytes`].
const HEADER: u64 = 5;

/// Encoded size of an unfilled slot, a `Null`.
const UNFILLED: u64 = 1;

fn list_bytes(items: &[Datum]) -> u64 {
    HEADER + items.iter().map(Datum::size_bytes).sum::<u64>()
}

fn encode_list(items: &[Datum], out: &mut Vec<u8>) {
    Datum::encode_list_header(items.len(), out);
    for item in items {
        item.encode_into(out);
    }
}

/// Makes `lists` `m` empty lists, keeping the buffers of those it had.
fn empty_lists<T>(lists: &mut Vec<Vec<T>>, m: usize) {
    lists.resize_with(m, Vec::new);
    lists.iter_mut().for_each(Vec::clear);
}

/// The in-flight state of one record inside an index operator, in storage
/// that outlives the record. `'r` is the lifetime of a row the carrier is
/// lent for one record; a task keeps a `Carrier<'static>`.
#[derive(Clone, Debug)]
pub struct Carrier<'r> {
    /// The original record key `k1` and (possibly projected) value `v1`,
    /// unless `lent` holds them.
    rec: Record,
    /// The row `pre_process` was lent and handed back whole, read in place
    /// of `rec` until [`Carrier::end_lend`].
    lent: Option<&'r Record>,
    /// Whether `rec` came from `pre_process` in this task, and so is
    /// handed over, rather than from a stored payload, and so is lent.
    opened: bool,
    /// Per-index lookup key lists.
    keys: IndexInput,
    /// Per-index lookup results, one list per key, where `filled`; empty
    /// elsewhere. Each list is a shared handle so cache hits and group
    /// fan-out don't deep-copy values.
    values: IndexOutput,
    /// Per index, whether it has been accessed.
    filled: Vec<bool>,
    /// Length of the buffer [`Carrier::encode`] writes. Every method that
    /// changes what the carrier holds restates it; `encode` checks it.
    payload: u64,
}

impl Default for Carrier<'_> {
    /// The carrier of `(Null, Null)` with no indices.
    fn default() -> Self {
        Carrier {
            rec: Record::default(),
            lent: None,
            opened: false,
            keys: IndexInput::default(),
            values: IndexOutput::default(),
            filled: Vec::new(),
            payload: 2 * Datum::Null.size_bytes() + 2 * HEADER,
        }
    }
}

impl<'r> Carrier<'r> {
    /// Starts on `rec`, lent or owned, with `num_indices` unfilled slots:
    /// `pre_process` extracts the lookup keys into the carrier's own key
    /// lists and returns the record to carry — `rec` itself, or a
    /// projection of it. A lent row it hands back is carried in place.
    /// Nothing of the record before shows through. Returns the encoded
    /// size of `rec`.
    pub fn open(
        &mut self,
        rec: Cow<'r, Record>,
        num_indices: usize,
        pre_process: impl FnOnce(Cow<'r, Record>, &mut IndexInput) -> Cow<'r, Record>,
    ) -> u64 {
        empty_lists(&mut self.keys.keys, num_indices);
        empty_lists(&mut self.values.values, num_indices);
        self.filled.clear();
        self.filled.resize(num_indices, false);
        let rec_bytes = rec.size_bytes();
        let row = match &rec {
            Cow::Borrowed(row) => Some(*row),
            Cow::Owned(_) => None,
        };
        let carried_bytes = match pre_process(rec, &mut self.keys) {
            Cow::Borrowed(kept) => {
                debug_assert!(
                    row.is_some_and(|row| std::ptr::eq(row, kept)),
                    "pre_process handed back a row other than the one it was lent"
                );
                self.lent = Some(kept);
                rec_bytes
            }
            Cow::Owned(made) => {
                self.rec = made;
                self.lent = None;
                self.rec.size_bytes()
            }
        };
        self.opened = true;
        let keys: u64 = self.keys.keys.iter().map(|list| list_bytes(list)).sum();
        self.payload = carried_bytes + (HEADER + keys) + (HEADER + num_indices as u64 * UNFILLED);
        rec_bytes
    }

    /// Ends the lend of the row the carrier was opened on, if it was: the
    /// carrier, with its storage, to keep for the next record. One that
    /// held a lent row holds none from here to the next [`Carrier::open`]
    /// or [`Carrier::decode`], as one that handed its record over does.
    pub fn end_lend(self) -> Carrier<'static> {
        let Carrier {
            rec,
            lent: _,
            opened,
            keys,
            values,
            filled,
            payload,
        } = self;
        Carrier {
            rec,
            lent: None,
            opened,
            keys,
            values,
            filled,
            payload,
        }
    }

    /// The carried `(k1, v1)`, wherever it is held.
    fn record(&self) -> &Record {
        self.lent.unwrap_or(&self.rec)
    }

    /// Original record key `k1`.
    pub fn k1(&self) -> &Datum {
        &self.record().key
    }

    /// Original (possibly projected) record value `v1`.
    pub fn v1(&self) -> &Datum {
        &self.record().value
    }

    /// Number of indices.
    pub fn num_indices(&self) -> usize {
        self.filled.len()
    }

    /// Lookup keys extracted for index `j`.
    pub fn keys(&self, index: usize) -> &[Datum] {
        self.keys.keys(index)
    }

    /// Lookup results of index `j`, one list per key; `None` until the
    /// index is accessed.
    pub fn results(&self, index: usize) -> Option<&[Arc<[Datum]>]> {
        self.filled[index].then(|| self.values.get(index))
    }

    /// Encoded size of slot `index` as it stands.
    fn slot_bytes(&self, index: usize) -> u64 {
        match self.results(index) {
            None => UNFILLED,
            Some(per_key) => HEADER + per_key.iter().map(|list| list_bytes(list)).sum::<u64>(),
        }
    }

    /// Fills slot `index`: `lookup` is handed the index's keys and the
    /// slot's emptied result list, and pushes one result per key.
    ///
    /// # Errors
    /// Errors if the carrier has no such slot — a stored carrier of another
    /// operator's arity.
    pub fn fill(
        &mut self,
        index: usize,
        lookup: impl FnOnce(&[Datum], &mut Vec<Arc<[Datum]>>),
    ) -> Result<()> {
        if index >= self.num_indices() {
            return Err(Error::Decode(format!(
                "carrier of {} indices has no slot {index}",
                self.num_indices()
            )));
        }
        let before = self.slot_bytes(index);
        let results = &mut self.values.values[index];
        results.clear();
        lookup(&self.keys.keys[index], results);
        self.filled[index] = true;
        self.payload = self.payload - before + self.slot_bytes(index);
        Ok(())
    }

    /// Serializes into a record routed by `routing_key`: the payload is
    /// written once, into a buffer of exactly its size. Result lists are
    /// read through their handles, so one a cache entry still shares is
    /// neither cloned nor disturbed.
    pub fn encode(&self, routing_key: Datum) -> Record {
        let mut buf = Vec::with_capacity(self.payload_len());
        self.encode_into(&mut buf);
        Record {
            key: routing_key,
            value: Datum::Bytes(buf),
        }
    }

    /// Length of the payload [`Carrier::encode_into`] writes.
    pub fn payload_len(&self) -> usize {
        self.payload as usize
    }

    /// Appends the payload — the bytes of [`Carrier::encode`]'s value — to
    /// `buf`: [`Carrier::payload_len`] bytes, written where they will be
    /// kept, such as a shuffle run ([`Collector::collect_encoded`]).
    ///
    /// [`Collector::collect_encoded`]: efind_mapreduce::Collector::collect_encoded
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        let rec = self.record();
        rec.key.encode_into(buf);
        rec.value.encode_into(buf);
        Datum::encode_list_header(self.num_indices(), buf);
        for list in &self.keys.keys {
            encode_list(list, buf);
        }
        Datum::encode_list_header(self.num_indices(), buf);
        for index in 0..self.num_indices() {
            match self.results(index) {
                None => Datum::Null.encode_into(buf),
                Some(per_key) => {
                    Datum::encode_list_header(per_key.len(), buf);
                    for list in per_key {
                        encode_list(list, buf);
                    }
                }
            }
        }
        debug_assert_eq!(
            buf.len() - start,
            self.payload_len(),
            "the payload size fell out of step with the carrier's contents"
        );
    }

    /// Deserializes a carrier payload (inverse of [`Carrier::encode`]) over
    /// whatever the carrier held, reusing its record's storage, key lists
    /// and result slots. The payload is only read, so a stored carrier
    /// decodes straight from the row that holds it.
    ///
    /// # Errors
    /// A payload that does not parse is an [`Error::Decode`], and leaves the
    /// carrier as [`Carrier::default`] builds it.
    pub fn decode(&mut self, value: &Datum) -> Result<()> {
        match value {
            Datum::Bytes(buf) => self.decode_bytes(buf),
            _ => {
                *self = Carrier::default();
                Err(Error::Decode("carrier payload is not a byte buffer".into()))
            }
        }
    }

    /// [`Carrier::decode`] of the payload's bytes, read where they are
    /// kept: a stored record's buffer, or a shuffle run
    /// ([`Reducer::reduce_encoded`]).
    ///
    /// # Errors
    /// As [`Carrier::decode`].
    ///
    /// [`Reducer::reduce_encoded`]: efind_mapreduce::Reducer::reduce_encoded
    pub fn decode_bytes(&mut self, buf: &[u8]) -> Result<()> {
        let parsed = self.parse(buf);
        if parsed.is_err() {
            *self = Carrier::default();
        }
        parsed
    }

    fn parse(&mut self, buf: &[u8]) -> Result<()> {
        self.lent = None;
        self.opened = false;
        let rest = Datum::decode_in_place(&mut self.rec.key, buf)?;
        let rest = Datum::decode_in_place(&mut self.rec.value, rest)?;
        let rest = Datum::decode_list_in_place(rest, &mut self.keys.keys, |list, b| {
            Datum::decode_list_in_place(b, list, Datum::decode_in_place)
        })?;
        let filled = &mut self.filled;
        filled.clear();
        let rest = Datum::decode_list_in_place(rest, &mut self.values.values, |per_key, b| {
            let unfilled = Datum::strip_null(b);
            filled.push(unfilled.is_none());
            if let Some(rest) = unfilled {
                per_key.clear();
                return Ok(rest);
            }
            Datum::decode_list_in_place(b, per_key, |list, b| {
                let (items, rest) = Datum::decode_list_with(b, Datum::decode_from)?;
                *list = items.into();
                Ok(rest)
            })
        })?;
        if !rest.is_empty() {
            return Err(Error::Decode(format!(
                "{} trailing bytes in carrier payload",
                rest.len()
            )));
        }
        if self.keys.keys.len() != self.filled.len() {
            return Err(Error::Decode("carrier key/value arity mismatch".into()));
        }
        self.payload = buf.len() as u64;
        Ok(())
    }

    /// Serialized size of the record [`Carrier::encode`] would build with
    /// `routing`, read off without building it. Fused (in-memory) stages
    /// use this to bump the same byte counters the staged pipeline derives
    /// from real intermediate records.
    pub fn record_size_bytes(&self, routing: &Datum) -> u64 {
        routing.size_bytes() + HEADER + self.payload
    }

    /// The single lookup key for index `j`, required by shuffle strategies
    /// (re-partitioning groups records *by* that key).
    pub fn single_key(&self, index: usize) -> Result<&Datum> {
        match self.keys.keys.get(index).map_or(&[][..], Vec::as_slice) {
            [k] => Ok(k),
            other => Err(Error::Unsupported(format!(
                "shuffle strategies need exactly one key per record for index {index}, found {}",
                other.len()
            ))),
        }
    }

    /// Hands the filled carrier to `post_process`: the record, moved out if
    /// `pre_process` made it and lent if it is a lent row or was decoded
    /// (see the module docs), and the lookup results, lent. A carrier that
    /// handed its record over holds none from here to the next
    /// [`Carrier::open`] or [`Carrier::decode`].
    ///
    /// # Errors
    /// Errors if any index slot is still unfilled.
    pub fn post_input(&mut self) -> Result<(Cow<'_, Record>, &IndexOutput)> {
        if let Some(j) = self.filled.iter().position(|filled| !filled) {
            return Err(Error::Internal(format!(
                "index {j} not looked up before postProcess"
            )));
        }
        let rec = match self.lent {
            Some(row) => Cow::Borrowed(row),
            None if self.opened => Cow::Owned(std::mem::take(&mut self.rec)),
            None => Cow::Borrowed(&self.rec),
        };
        Ok((rec, &self.values))
    }
}

/// Two carriers are equal when they hold the same tuple, whether each
/// opened it, lent or owned, or decoded it.
impl PartialEq for Carrier<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.record() == other.record()
            && self.keys == other.keys
            && self.values == other.values
            && self.filled == other.filled
            && self.payload == other.payload
    }
}

impl Eq for Carrier<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A carrier built from nothing: `keys[j]` for index `j`, filled with
    /// `results[j]` where that is `Some`.
    fn built(
        k1: Datum,
        v1: Datum,
        keys: &[Vec<Datum>],
        results: &[Option<Vec<Vec<Datum>>>],
    ) -> Carrier<'static> {
        let mut c = Carrier::default();
        let rec = Record { key: k1, value: v1 };
        c.open(Cow::Owned(rec), keys.len(), |rec, input| {
            for (j, list) in keys.iter().enumerate() {
                list.iter().for_each(|key| input.put(j, key.clone()));
            }
            rec
        });
        for (j, lists) in results.iter().enumerate() {
            if let Some(lists) = lists {
                c.fill(j, |_, out| out.extend(lists.iter().cloned().map(Arc::from)))
                    .unwrap();
            }
        }
        c
    }

    fn text(s: &str) -> Datum {
        Datum::Text(s.into())
    }

    fn sample() -> Carrier<'static> {
        built(
            Datum::Int(1),
            text("v"),
            &[vec![Datum::Int(10)], vec![text("a"), text("b")]],
            &[Some(vec![vec![Datum::Int(100), Datum::Int(200)]]), None],
        )
    }

    fn payload_of(c: &Carrier) -> Vec<u8> {
        match c.encode(Datum::Null).value {
            Datum::Bytes(buf) => buf,
            other => panic!("carrier payload is {other:?}, not a byte buffer"),
        }
    }

    fn payload(parts: &[Datum]) -> Datum {
        let mut buf = Vec::new();
        for part in parts {
            part.encode_into(&mut buf);
        }
        Datum::Bytes(buf)
    }

    fn decode_err(carrier: &mut Carrier, value: Datum) -> String {
        match carrier.decode(&value) {
            Err(Error::Decode(msg)) => msg,
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn single_key_enforced() {
        let c = sample();
        assert_eq!(c.single_key(0).unwrap(), &Datum::Int(10));
        assert!(c.single_key(1).is_err());
        // No such index: zero keys, not an index out of bounds.
        assert!(c.single_key(2).unwrap_err().to_string().contains("found 0"));
    }

    #[test]
    fn post_input_requires_complete() {
        let mut c = sample();
        let err = c.post_input().unwrap_err().to_string();
        assert!(err.contains("index 1 not looked up"), "{err}");
        c.fill(1, |keys, out| {
            assert_eq!(keys, [text("a"), text("b")]);
            out.extend([Vec::new().into(), vec![Datum::Int(1)].into()]);
        })
        .unwrap();
        let (rec, out) = c.post_input().unwrap();
        assert!(
            matches!(rec, Cow::Owned(_)),
            "an opened record is handed over"
        );
        assert_eq!(*rec, Record::new(1i64, "v"));
        assert_eq!(out.get(1)[1][..], [Datum::Int(1)]);
    }

    #[test]
    fn a_decoded_record_is_lent_and_the_next_decodes_into_its_storage() {
        let stored = |i: i64, name: &str| {
            let row = Datum::List(vec![Datum::Int(i), text(name)]);
            let c = built(Datum::Int(i), row, &[vec![Datum::Int(i)]], &[None]);
            c.encode(Datum::Int(i)).value
        };
        let buffers = |c: &Carrier| match c.v1().as_list() {
            Some([_, Datum::Text(name)]) => (c.v1().as_list().unwrap().as_ptr(), name.as_ptr()),
            other => panic!("not a decoded row: {other:?}"),
        };
        let mut c = Carrier::default();
        c.decode(&stored(2, "a longer name")).unwrap();
        let held = buffers(&c);
        c.fill(0, |_, out| out.push(vec![Datum::Int(7)].into()))
            .unwrap();
        let (rec, _) = c.post_input().unwrap();
        assert!(matches!(rec, Cow::Borrowed(_)), "a decoded record is lent");
        assert_eq!(rec.value.as_list().unwrap()[1], text("a longer name"));
        // What it lent stays, and a row no larger decodes into its buffers.
        c.decode(&stored(3, "three")).unwrap();
        assert_eq!(buffers(&c), held);
        assert_eq!(c.v1(), &Datum::List(vec![Datum::Int(3), text("three")]));
        let (rec, _) = c.fill(0, |_, _| ()).and_then(|()| c.post_input()).unwrap();
        assert!(matches!(rec, Cow::Borrowed(_)));
    }

    #[test]
    fn a_slot_the_carrier_does_not_have_is_an_error() {
        let mut c = sample();
        let before = c.clone();
        let err = c.fill(2, |_, _| panic!("nothing to fill")).unwrap_err();
        assert!(matches!(err, Error::Decode(_)), "{err:?}");
        assert_eq!(c, before);
    }

    #[test]
    fn the_payload_size_follows_every_change() {
        let mut c = Carrier::default();
        assert_eq!(payload_of(&c).len() as u64, c.payload);
        c = sample();
        assert_eq!(payload_of(&c).len() as u64, c.payload);
        // Filling, and filling again with something of another size.
        for lists in [vec![vec![text("a long result"); 3], vec![]], vec![vec![]]] {
            c.fill(1, |_, out| out.extend(lists.into_iter().map(Arc::from)))
                .unwrap();
            assert_eq!(payload_of(&c).len() as u64, c.payload);
            let routing = text("route");
            assert_eq!(
                c.record_size_bytes(&routing),
                c.encode(routing).size_bytes()
            );
        }
    }

    #[test]
    fn malformed_payload_rejected() {
        let mut c = sample();
        let mut decode_err = |value: Datum| {
            let msg = decode_err(&mut c, value);
            // What a failed parse leaves is a carrier like any other.
            assert_eq!(c, Carrier::default());
            assert_eq!(payload_of(&c).len() as u64, c.payload);
            assert!(c.fill(0, |_, _| ()).is_err() && c.single_key(0).is_err());
            msg
        };
        let lists = |n: usize| Datum::List(vec![Datum::List(vec![]); n]);

        // Not a buffer at all — the nested list of the old encoding included.
        let msg = decode_err(Datum::Int(3));
        assert_eq!(msg, "carrier payload is not a byte buffer");
        decode_err(Datum::List(vec![
            Datum::Null,
            Datum::Null,
            lists(0),
            lists(0),
        ]));
        // Wrong tags: keys that are not lists, a slot that is neither
        // `Null` nor a list, a result list that is not one.
        decode_err(payload(&[
            Datum::Null,
            Datum::Null,
            Datum::Int(1),
            lists(0),
        ]));
        decode_err(payload(&[
            Datum::Null,
            Datum::Null,
            Datum::List(vec![Datum::Int(1)]),
            lists(1),
        ]));
        let bad_slot = Datum::List(vec![Datum::Int(1)]);
        decode_err(payload(&[Datum::Null, Datum::Null, lists(1), bad_slot]));
        let bad_result = Datum::List(vec![Datum::List(vec![Datum::Int(1)])]);
        decode_err(payload(&[Datum::Null, Datum::Null, lists(1), bad_result]));
        // Missing parts, an extra one, and differing arities.
        let cut = decode_err(payload(&[Datum::Null, Datum::Null, lists(0)]));
        assert_eq!(cut, "empty buffer");
        let trailing = decode_err(payload(&[
            Datum::Null,
            Datum::Null,
            lists(0),
            lists(0),
            Datum::Null,
        ]));
        assert_eq!(trailing, "1 trailing bytes in carrier payload");
        let arity = decode_err(payload(&[Datum::Null, Datum::Null, lists(2), lists(1)]));
        assert_eq!(arity, "carrier key/value arity mismatch");
        let Datum::Bytes(mut truncated) = sample().encode(Datum::Null).value else {
            panic!("a carrier payload is a byte buffer");
        };
        truncated.pop();
        assert_eq!(decode_err(Datum::Bytes(truncated)), "empty buffer");
    }

    #[test]
    fn a_shared_result_list_is_read_not_taken() {
        // The cache-entry case: a second handle outlives the serialization.
        let cached: Arc<[Datum]> = vec![Datum::Int(100), text("r")].into();
        let mut c = sample();
        c.fill(0, |_, out| out.push(cached.clone())).unwrap();
        let rec = c.encode(Datum::Int(10));
        assert_eq!(cached[..], [Datum::Int(100), text("r")]);
        let mut back = Carrier::default();
        back.decode(&rec.value).unwrap();
        assert_eq!(back, c);
    }

    /// Carriers from large to small: fewer indices, fewer keys an index,
    /// fewer results a key, filled slots where the next has `Null`s.
    fn shrinking() -> Vec<Carrier<'static>> {
        let wide = |n: i64| -> Vec<Datum> { (0..n).map(|i| text(&format!("key-{i}"))).collect() };
        vec![
            built(
                Datum::List(vec![Datum::Int(1), text("composite")]),
                Datum::Bytes(vec![7; 40]),
                &[wide(3), wide(2), wide(1)],
                &[
                    Some(vec![wide(4), wide(2), wide(0)]),
                    Some(vec![wide(1), wide(3)]),
                    Some(vec![wide(2)]),
                ],
            ),
            built(
                Datum::Int(2),
                text("v"),
                &[wide(1), wide(1), wide(2)],
                &[None, Some(vec![wide(1)]), None],
            ),
            built(
                Datum::Int(3),
                Datum::Null,
                &[wide(2), wide(0)],
                &[Some(vec![wide(0), wide(1)]), None],
            ),
            built(Datum::Null, Datum::Int(4), &[wide(0)], &[Some(vec![])]),
            built(Datum::Int(5), Datum::Null, &[], &[]),
        ]
    }

    #[test]
    fn a_reused_carrier_equals_a_fresh_one() {
        let sequence = shrinking();
        // Downhill, then back up, through one carrier.
        let order = sequence.iter().chain(sequence.iter().rev());
        let mut reused = Carrier::default();
        for fresh in order {
            let payload = payload_of(fresh);
            reused.decode(&Datum::Bytes(payload.clone())).unwrap();
            assert_eq!(&reused, fresh);
            assert_eq!(payload_of(&reused), payload);
            assert_eq!(reused.num_indices(), fresh.num_indices());
            for j in 0..fresh.num_indices() {
                assert_eq!(reused.keys(j), fresh.keys(j));
                assert_eq!(reused.results(j), fresh.results(j));
            }
        }
        // Opened over the largest: nothing of it shows through.
        let mut reopened = sequence[0].clone();
        let nine = Record::new(9i64, "nine");
        reopened.open(Cow::Borrowed(&nine), 2, |rec, keys| {
            keys.put(1, 9i64);
            rec
        });
        let fresh = built(
            Datum::Int(9),
            text("nine"),
            &[vec![], vec![Datum::Int(9)]],
            &[None, None],
        );
        assert_eq!(reopened, fresh);
        assert_eq!(payload_of(&reopened), payload_of(&fresh));
    }

    #[test]
    fn a_failed_decode_leaves_nothing_of_either_payload() {
        let big = &shrinking()[0];
        let mut cut = payload_of(big);
        cut.truncate(cut.len() - 3);
        let mut c = big.clone();
        decode_err(&mut c, Datum::Bytes(cut));
        assert_eq!(c, Carrier::default());
        // And the carrier still takes the next payload.
        c.decode(&Datum::Bytes(payload_of(big))).unwrap();
        assert_eq!(&c, big);
    }

    /// Host nanoseconds per [`Carrier::decode_bytes`] into a reused
    /// carrier, on a hot cache, for two payload shapes a shuffle ships: 43
    /// bytes as `lookup_repart`'s (an `Int` key and value, one `Int` lookup
    /// key, an unfilled slot) and 207 bytes as a Q9 join's (a 14-field row:
    /// twelve ints and floats and two 25-byte texts; one key, an unfilled
    /// slot). A wall-clock reading, so not part of the suite:
    /// `cargo test --release -p efind --lib decode_bytes_ns -- --ignored --nocapture`.
    #[test]
    #[ignore = "host-time microbenchmark"]
    fn decode_bytes_ns() {
        let repart = built(
            Datum::Int(7),
            Datum::Int(42),
            &[vec![Datum::Int(42)]],
            &[None],
        );
        let mut fields: Vec<Datum> = (0..12)
            .map(|i| match i % 2 {
                0 => Datum::Int(i * 1_000),
                _ => Datum::Float(i as f64 / 4.0),
            })
            .collect();
        fields.extend([
            text("Supplier#000000017, green"),
            text("forest green almond khaki"),
        ]);
        let q9 = built(
            Datum::Int(123_456),
            Datum::List(fields),
            &[vec![Datum::Int(17)]],
            &[None],
        );
        const DECODES: u32 = 200_000;
        for (len, carrier) in [(43, repart), (207, q9)] {
            let payload = payload_of(&carrier);
            assert_eq!(payload.len(), len);
            let mut into = Carrier::default();
            let mut samples: Vec<f64> = (0..9)
                .map(|_| {
                    #[expect(
                        clippy::disallowed_types,
                        reason = "a host-time microbenchmark; never charged to virtual time"
                    )]
                    let start = std::time::Instant::now();
                    for _ in 0..DECODES {
                        into.decode_bytes(std::hint::black_box(&payload)).unwrap();
                    }
                    start.elapsed().as_nanos() as f64 / f64::from(DECODES)
                })
                .collect();
            assert_eq!(into, carrier);
            samples.sort_by(f64::total_cmp);
            println!(
                "{len}-byte carrier: {:.1} ns per decode_bytes (median of 9; {:.1}-{:.1})",
                samples[4], samples[0], samples[8]
            );
        }
    }
}
