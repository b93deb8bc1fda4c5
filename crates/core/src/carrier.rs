//! Carrier records.
//!
//! Between an operator's `pre_process` and `post_process`, EFind threads
//! the intermediate `(k1, v1, {{ik_1},…,{ik_m}}, {{iv_1},…})` tuple of
//! Fig. 2 through the MapReduce data flow — possibly across a shuffle job
//! boundary (re-partitioning, Fig. 7). The [`Carrier`] encodes that tuple
//! as a plain record whose key is the current *routing key* (`k1`
//! normally, the lookup key `ik_j` while shuffling for index `j`), so the
//! unmodified MapReduce shuffle machinery moves it.

use std::sync::Arc;

use efind_common::{Datum, Error, Record, Result};

use crate::operator::IndexOutput;

/// Moves a shared result list into an owned `Vec`. When the handle is the
/// last reference (the common baseline/fresh-lookup case) the elements are
/// moved out; only a list still shared with a cache entry is deep-cloned —
/// exactly where the seed implementation cloned too.
fn unshare_list(mut list: Arc<[Datum]>) -> Vec<Datum> {
    match Arc::get_mut(&mut list) {
        Some(slice) => slice
            .iter_mut()
            .map(|d| std::mem::replace(d, Datum::Null))
            .collect(),
        None => list.to_vec(),
    }
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

    /// Serializes into a record routed by `routing_key`.
    pub fn into_record(self, routing_key: Datum) -> Record {
        let keys = Datum::List(self.keys.into_iter().map(Datum::List).collect());
        let values = Datum::List(
            self.values
                .into_iter()
                .map(|v| match v {
                    None => Datum::Null,
                    Some(per_key) => Datum::List(
                        per_key
                            .into_iter()
                            .map(|list| Datum::List(unshare_list(list)))
                            .collect(),
                    ),
                })
                .collect(),
        );
        Record {
            key: routing_key,
            value: Datum::List(vec![self.k1, self.v1, keys, values]),
        }
    }

    /// Deserializes a carrier record (inverse of [`Carrier::into_record`]).
    pub fn from_record(rec: Record) -> Result<Carrier> {
        Self::from_value(rec.value)
    }

    /// Deserializes a carrier from just the payload value.
    pub fn from_value(value: Datum) -> Result<Carrier> {
        let mut parts = value
            .into_list()
            .ok_or_else(|| Error::Decode("carrier payload is not a list".into()))?;
        if parts.len() != 4 {
            return Err(Error::Decode(format!(
                "carrier payload has {} parts, expected 4",
                parts.len()
            )));
        }
        let values_raw = parts.pop().unwrap();
        let keys_raw = parts.pop().unwrap();
        let v1 = parts.pop().unwrap();
        let k1 = parts.pop().unwrap();

        let keys = keys_raw
            .into_list()
            .ok_or_else(|| Error::Decode("carrier keys are not a list".into()))?
            .into_iter()
            .map(|k| {
                k.into_list()
                    .ok_or_else(|| Error::Decode("carrier key list malformed".into()))
            })
            .collect::<Result<Vec<_>>>()?;
        let values = values_raw
            .into_list()
            .ok_or_else(|| Error::Decode("carrier values are not a list".into()))?
            .into_iter()
            .map(|v| match v {
                Datum::Null => Ok(None),
                Datum::List(per_key) => per_key
                    .into_iter()
                    .map(|pk| {
                        pk.into_list()
                            .map(Arc::from)
                            .ok_or_else(|| Error::Decode("carrier value list malformed".into()))
                    })
                    .collect::<Result<Vec<_>>>()
                    .map(Some),
                _ => Err(Error::Decode("carrier value slot malformed".into())),
            })
            .collect::<Result<Vec<_>>>()?;
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

    /// Serialized size of the record [`Carrier::into_record`] would build
    /// with `routing`, computed without building it. Fused (in-memory)
    /// stages use this to bump the same byte counters the staged pipeline
    /// derives from real intermediate records.
    pub fn record_size_bytes(&self, routing: &Datum) -> u64 {
        const LIST: u64 = 5; // Datum::List header (see Datum::size_bytes)
        let keys: u64 = LIST
            + self
                .keys
                .iter()
                .map(|list| LIST + list.iter().map(Datum::size_bytes).sum::<u64>())
                .sum::<u64>();
        let values: u64 = LIST
            + self
                .values
                .iter()
                .map(|v| match v {
                    None => Datum::Null.size_bytes(),
                    Some(per_key) => {
                        LIST + per_key
                            .iter()
                            .map(|list| LIST + list.iter().map(Datum::size_bytes).sum::<u64>())
                            .sum::<u64>()
                    }
                })
                .sum::<u64>();
        let payload = LIST + self.k1.size_bytes() + self.v1.size_bytes() + keys + values;
        routing.size_bytes() + payload
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
        assert!(Carrier::from_value(Datum::Int(3)).is_err());
        assert!(Carrier::from_value(Datum::List(vec![Datum::Null])).is_err());
        assert!(Carrier::from_value(Datum::List(vec![
            Datum::Null,
            Datum::Null,
            Datum::List(vec![]),
            Datum::Int(1), // not a list
        ]))
        .is_err());
    }
}
