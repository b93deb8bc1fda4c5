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
//! the record is sized as if the value were that nested list. One buffer
//! is one heap block: the task that builds a carrier record frees
//! everything else the carrier held, and the task that parses it owns
//! everything it builds — no block is allocated by one worker for another
//! to free, except the buffer itself.

use std::sync::Arc;

use efind_common::{Datum, Error, Record, Result};

use crate::operator::IndexOutput;

/// Bytes of a `Datum::List` header (tag + count) — and of the
/// `Datum::Bytes` header (tag + length) that stands in for the payload
/// list's. See [`Datum::size_bytes`].
const HEADER: u64 = 5;

fn list_bytes(items: &[Datum]) -> u64 {
    HEADER + items.iter().map(Datum::size_bytes).sum::<u64>()
}

fn encode_list(items: &[Datum], out: &mut Vec<u8>) {
    Datum::encode_list_header(items.len(), out);
    for item in items {
        item.encode_into(out);
    }
}

fn decode_list(buf: &[u8]) -> Result<(Vec<Datum>, &[u8])> {
    Datum::decode_list_with(buf, Datum::decode_from)
}

/// One value slot: unfilled, or one result list per key.
type Slot = Option<Vec<Arc<[Datum]>>>;

fn decode_slot(buf: &[u8]) -> Result<(Slot, &[u8])> {
    if let Some(rest) = Datum::strip_null(buf) {
        return Ok((None, rest));
    }
    let (per_key, rest) = Datum::decode_list_with(buf, |b| {
        decode_list(b).map(|(list, rest)| (Arc::from(list), rest))
    })?;
    Ok((Some(per_key), rest))
}

/// The in-flight state of one record inside an index operator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Carrier {
    /// Original record key `k1`.
    pub k1: Datum,
    /// Original (possibly projected) record value `v1`.
    pub v1: Datum,
    /// Per-index lookup key lists.
    pub keys: Vec<Vec<Datum>>,
    /// Per-index lookup results; `None` until the index is accessed. Each
    /// per-key result list is a shared handle so cache hits and group
    /// fan-out don't deep-copy values.
    pub values: Vec<Option<Vec<Arc<[Datum]>>>>,
}

impl Carrier {
    /// Creates a carrier fresh out of `pre_process`.
    pub fn new(k1: Datum, v1: Datum, keys: Vec<Vec<Datum>>) -> Self {
        let m = keys.len();
        Carrier {
            k1,
            v1,
            keys,
            values: vec![None; m],
        }
    }

    /// Serializes into a record routed by `routing_key`: the payload is
    /// written once, into a buffer of exactly its size. Result lists are
    /// read through their handles, so one a cache entry still shares is
    /// neither cloned nor disturbed.
    pub fn into_record(self, routing_key: Datum) -> Record {
        let len = self.payload_bytes() as usize;
        let mut buf = Vec::with_capacity(len);
        self.k1.encode_into(&mut buf);
        self.v1.encode_into(&mut buf);
        Datum::encode_list_header(self.keys.len(), &mut buf);
        for list in &self.keys {
            encode_list(list, &mut buf);
        }
        Datum::encode_list_header(self.values.len(), &mut buf);
        for slot in &self.values {
            match slot {
                None => Datum::Null.encode_into(&mut buf),
                Some(per_key) => {
                    Datum::encode_list_header(per_key.len(), &mut buf);
                    for list in per_key {
                        encode_list(list, &mut buf);
                    }
                }
            }
        }
        debug_assert_eq!(
            buf.len(),
            len,
            "the payload outgrew or underfilled its one reservation"
        );
        Record {
            key: routing_key,
            value: Datum::Bytes(buf),
        }
    }

    /// Deserializes a carrier record (inverse of [`Carrier::into_record`]).
    pub fn from_record(rec: Record) -> Result<Carrier> {
        Self::from_value(rec.value)
    }

    /// Deserializes a carrier from just the payload value.
    pub fn from_value(value: Datum) -> Result<Carrier> {
        let Datum::Bytes(buf) = value else {
            return Err(Error::Decode("carrier payload is not a byte buffer".into()));
        };
        let (k1, rest) = Datum::decode_from(&buf)?;
        let (v1, rest) = Datum::decode_from(rest)?;
        let (keys, rest) = Datum::decode_list_with(rest, decode_list)?;
        let (values, rest) = Datum::decode_list_with(rest, decode_slot)?;
        if !rest.is_empty() {
            return Err(Error::Decode(format!(
                "{} trailing bytes in carrier payload",
                rest.len()
            )));
        }
        if keys.len() != values.len() {
            return Err(Error::Decode("carrier key/value arity mismatch".into()));
        }
        Ok(Carrier {
            k1,
            v1,
            keys,
            values,
        })
    }

    /// Length of the payload buffer [`Carrier::into_record`] writes.
    fn payload_bytes(&self) -> u64 {
        let keys: u64 = HEADER + self.keys.iter().map(|list| list_bytes(list)).sum::<u64>();
        let values: u64 = HEADER
            + self
                .values
                .iter()
                .map(|slot| match slot {
                    None => Datum::Null.size_bytes(),
                    Some(per_key) => {
                        HEADER + per_key.iter().map(|list| list_bytes(list)).sum::<u64>()
                    }
                })
                .sum::<u64>();
        self.k1.size_bytes() + self.v1.size_bytes() + keys + values
    }

    /// Serialized size of the record [`Carrier::into_record`] would build
    /// with `routing`, computed without building it. Fused (in-memory)
    /// stages use this to bump the same byte counters the staged pipeline
    /// derives from real intermediate records.
    pub fn record_size_bytes(&self, routing: &Datum) -> u64 {
        routing.size_bytes() + HEADER + self.payload_bytes()
    }

    /// The single lookup key for index `j`, required by shuffle strategies
    /// (re-partitioning groups records *by* that key).
    pub fn single_key(&self, index: usize) -> Result<&Datum> {
        match self.keys[index].as_slice() {
            [k] => Ok(k),
            other => Err(Error::Unsupported(format!(
                "shuffle strategies need exactly one key per record for index {index}, found {}",
                other.len()
            ))),
        }
    }

    /// Converts the filled carrier into `(record, IndexOutput)` for
    /// `post_process`.
    ///
    /// # Errors
    /// Errors if any index slot is still unfilled.
    pub fn into_post_input(self) -> Result<(Record, IndexOutput)> {
        let values = self
            .values
            .into_iter()
            .enumerate()
            .map(|(j, v)| {
                v.ok_or_else(|| {
                    Error::Internal(format!("index {j} not looked up before postProcess"))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok((
            Record {
                key: self.k1,
                value: self.v1,
            },
            IndexOutput::new(values),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Carrier {
        let mut c = Carrier::new(
            Datum::Int(1),
            Datum::Text("v".into()),
            vec![
                vec![Datum::Int(10)],
                vec![Datum::Text("a".into()), Datum::Text("b".into())],
            ],
        );
        c.values[0] = Some(vec![vec![Datum::Int(100), Datum::Int(200)].into()]);
        c
    }

    #[test]
    fn single_key_enforced() {
        let c = sample();
        assert_eq!(c.single_key(0).unwrap(), &Datum::Int(10));
        assert!(c.single_key(1).is_err());
    }

    #[test]
    fn post_input_requires_complete() {
        let mut c = sample();
        assert!(c.clone().into_post_input().is_err());
        c.values[1] = Some(vec![Vec::new().into(), vec![Datum::Int(1)].into()]);
        let (rec, out) = c.into_post_input().unwrap();
        assert_eq!(rec, Record::new(1i64, "v"));
        assert_eq!(out.get(1)[1][..], [Datum::Int(1)]);
    }

    #[test]
    fn malformed_payload_rejected() {
        let decode_err = |value: Datum| match Carrier::from_value(value) {
            Err(Error::Decode(msg)) => msg,
            other => panic!("expected a decode error, got {other:?}"),
        };
        let payload = |parts: &[Datum]| {
            let mut buf = Vec::new();
            for part in parts {
                part.encode_into(&mut buf);
            }
            Datum::Bytes(buf)
        };
        let lists = |n: usize| Datum::List(vec![Datum::List(vec![]); n]);

        // Not a buffer at all — the nested list of the old encoding included.
        decode_err(Datum::Int(3));
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
        decode_err(payload(&[Datum::Null, Datum::Null, lists(0)]));
        let trailing = decode_err(payload(&[
            Datum::Null,
            Datum::Null,
            lists(0),
            lists(0),
            Datum::Null,
        ]));
        assert!(trailing.contains("trailing"), "{trailing}");
        let arity = decode_err(payload(&[Datum::Null, Datum::Null, lists(2), lists(1)]));
        assert!(arity.contains("arity"), "{arity}");
    }

    #[test]
    fn a_shared_result_list_is_read_not_taken() {
        // The cache-entry case: a second handle outlives the serialization.
        let cached: Arc<[Datum]> = vec![Datum::Int(100), Datum::Text("r".into())].into();
        let mut c = sample();
        c.values[0] = Some(vec![cached.clone()]);
        let rec = c.clone().into_record(Datum::Int(10));
        assert_eq!(cached[..], [Datum::Int(100), Datum::Text("r".into())]);
        assert_eq!(Carrier::from_record(rec).unwrap(), c);
    }
}
