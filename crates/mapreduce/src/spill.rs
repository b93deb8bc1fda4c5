//! Map-side spill: a map task's shuffle output as one run ordered by
//! reduce partition (Hadoop's `MapOutputBuffer`).
//!
//! A run holds every record the task emits, partition after partition and
//! in emission order within a partition, in three buffers: each key's
//! [`Datum::encode`] bytes back to back in one `Vec<u8>`, each value in one
//! `Vec<Datum>`, and one [`End`] per partition. The values stay live
//! because [`Reducer::reduce`](crate::Reducer::reduce) takes owned datums.
//! The task builds its run before it ends, so the keys it allocated are
//! encoded and freed on the thread that made them; a reduce task borrows
//! its [`Slice`] of every run and decodes one key per group.

use std::mem;

use efind_common::{Datum, Record};

/// Where one partition's records end in a run, and what they shuffle.
#[derive(Clone, Copy, Debug, Default)]
struct End {
    /// One past the partition's last key byte.
    key: usize,
    /// One past the partition's last value.
    value: usize,
    /// `Record::size_bytes` summed over the partition's records.
    bytes: u64,
}

/// One map task's shuffle output.
#[derive(Debug)]
pub(crate) struct Spill {
    keys: Vec<u8>,
    values: Vec<Datum>,
    ends: Vec<End>,
}

impl Spill {
    /// Spills `records` into `partitions` partitions. A counting pass asks
    /// `partition_of` once per record — it must answer below `partitions`
    /// — and sizes the record; a fill pass encodes each key into its
    /// partition's range of the key buffer and moves each value into its
    /// partition's range of the value buffer. What is left of the records
    /// is dropped here. How many allocations that takes does not depend on
    /// `partitions`.
    pub(crate) fn build(
        mut records: Vec<Record>,
        partitions: usize,
        partition_of: impl Fn(&Datum) -> usize,
    ) -> Spill {
        debug_assert!(u32::try_from(records.len()).is_ok(), "indices are u32");
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
        // Sizes become ends; `next` is each partition's next free value slot.
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
        debug_assert_eq!(keys.len(), key, "size_bytes is the encoded length");
        Spill { keys, values, ends }
    }

    /// Records in the run.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Partitions the run was spilled into.
    pub(crate) fn partitions(&self) -> usize {
        self.ends.len()
    }

    /// Bytes the run shuffles: `Record::size_bytes` summed over its records.
    pub(crate) fn bytes(&self) -> u64 {
        self.ends.iter().map(|e| e.bytes).sum()
    }

    /// The run cut into its partitions' slices, in partition order.
    pub(crate) fn slices(&mut self) -> impl Iterator<Item = Slice<'_>> {
        let (mut keys, mut values) = (&self.keys[..], &mut self.values[..]);
        let (mut key_at, mut value_at) = (0, 0);
        self.ends.iter().map(move |end| {
            let (k, rest) = keys.split_at(end.key - key_at);
            let (v, rest_v) = mem::take(&mut values).split_at_mut(end.value - value_at);
            (keys, values, key_at, value_at) = (rest, rest_v, end.key, end.value);
            Slice {
                keys: k,
                values: v,
                bytes: end.bytes,
            }
        })
    }

    /// The run's records, partition after partition, keys decoded and
    /// values moved out.
    pub(crate) fn into_records(mut self) -> Vec<Record> {
        let mut records = Vec::with_capacity(self.len());
        for slice in self.slices() {
            records.extend(slice.into_records());
        }
        records
    }
}

/// One partition of one run: the records a map task sends one reduce task.
pub(crate) struct Slice<'a> {
    keys: &'a [u8],
    values: &'a mut [Datum],
    bytes: u64,
}

impl<'a> Slice<'a> {
    /// Records in the slice.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the map task sent this partition nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Bytes the slice shuffles.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The slice's key encodings, back to back: the part of the payload
    /// that exists as bytes.
    pub(crate) fn key_bytes(&self) -> &'a [u8] {
        self.keys
    }

    /// Each record's key encoding, in emission order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = &'a [u8]> {
        let mut rest = self.keys;
        std::iter::from_fn(move || {
            if rest.is_empty() {
                return None;
            }
            let len = Datum::encoded_len(rest).expect("a run holds only the keys it encoded");
            let (key, tail) = rest.split_at(len);
            rest = tail;
            Some(key)
        })
    }

    /// Each record's value, in emission order, to be moved out.
    pub(crate) fn values(&mut self) -> &mut [Datum] {
        self.values
    }

    /// The slice's records, keys decoded and values moved out.
    pub(crate) fn into_records(self) -> impl Iterator<Item = Record> + 'a {
        let mut keys = self.keys;
        self.values.iter_mut().map(move |value| {
            let (key, rest) =
                Datum::decode_from(keys).expect("a run holds only the keys it encoded");
            keys = rest;
            Record {
                key,
                value: mem::take(value),
            }
        })
    }
}
