//! Reduce-side grouping: key groups in key order, each group's values in
//! arrival order.
//!
//! A reduce task's input is its [`Slice`] of every map task's run, in
//! source order, each key as its `Datum::encode` bytes. Shuffled keys
//! repeat — that is why the paper re-partitions lookups (§3.3) — so a task
//! need not order its *records*, only its distinct keys. [`group_by_key`]
//! assigns every record to its key's group by the key's bytes, decodes one
//! key per group, orders the groups, and hands each value over once. What
//! comes out is what a stable sort by key followed by a walk over the runs
//! of equal keys hands over, because two datums are equal exactly when
//! their encodings are: the groups are the sort's runs, arrival order
//! within a group is what the stable sort preserves, and the groups come
//! out in `Datum::cmp` order.
//!
//! A group's values are handed over in one of two ways. Live values move
//! into the group's exact-size vector, for [`Reducer::reduce`] to own. A
//! group whose values all crossed the shuffle encoded (EFind's carriers) is
//! lent them where their runs hold them, as a range of one list of byte
//! slices the whole task shares ([`Reducer::reduce_encoded`]): no value is
//! copied, and nothing per record is allocated or freed. A group that
//! mixes the two gets every value live, an encoded one as the
//! `Datum::Bytes` it stands for.
//!
//! [`Reducer::reduce`]: crate::Reducer::reduce
//! [`Reducer::reduce_encoded`]: crate::Reducer::reduce_encoded

use std::collections::hash_map::Entry;
use std::ops::Range;

use efind_common::hash::{fx_hash_bytes, FxHashMap};
use efind_common::Datum;

use crate::spill::{Arrival, Slice};

/// "No next group" in a chain of groups whose keys share one hash.
const END: u32 = u32::MAX;

/// One distinct key met by the first pass.
struct Group<'a> {
    /// The key's encoding.
    key: &'a [u8],
    /// Records carrying the key.
    count: u32,
    /// The next group whose key has the same 64-bit hash, or [`END`].
    next: u32,
}

/// One group's values.
#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub(crate) enum Values {
    /// Owned, in arrival order.
    Live(Vec<Datum>),
    /// Encoded, in arrival order: this range of [`Groups::encoded`].
    Encoded(Range<usize>),
}

impl Values {
    /// The group's values owned: an encoded value as the `Datum::Bytes` it
    /// stands for.
    pub(crate) fn into_datums(self, encoded: &[&[u8]]) -> Vec<Datum> {
        match self {
            Values::Live(values) => values,
            Values::Encoded(range) => crate::api::to_datums(&encoded[range]),
        }
    }
}

/// A reduce task's input grouped by key.
pub(crate) struct Groups<'a> {
    /// The distinct keys in key order, each with its values.
    pub(crate) groups: Vec<(Datum, Values)>,
    /// The values of the groups that hold only encoded values, group after
    /// group, as their runs hold them.
    pub(crate) encoded: Vec<&'a [u8]>,
}

/// A group that holds a live value, in place of where its encoded values
/// would go next.
const LIVE: usize = usize::MAX;

/// The distinct keys of `input` in key order, each with its values in
/// arrival order (slice by slice, record by record).
pub(crate) fn group_by_key(mut input: Vec<Slice<'_>>) -> Groups<'_> {
    let (group_of, groups) = assign_groups(&input);
    // Every key is decoded before any value vector is allocated. A key
    // outlives its group's vector (a reducer's output record keeps it), so
    // decoded in between, each key would end up alone among the holes the
    // vectors leave: on keys that do not repeat, that fragmented heap made
    // every later allocation of the job slower (EXPERIMENTS.md E27).
    let keys: Vec<Datum> = groups
        .iter()
        .map(|g| Datum::decode(g.key).expect("a run holds only the keys it encoded"))
        .collect();
    // Where each all-encoded group's next value goes in `encoded`, or
    // `LIVE`; left empty when no run holds an encoded value.
    let mut next = Vec::new();
    let mut encoded = Vec::new();
    if input.iter().any(Slice::is_encoded) {
        next = vec![0; groups.len()];
        let mut records = group_of.as_slice();
        for slice in &input {
            let (of_slice, rest) = records.split_at(slice.len());
            if !slice.is_encoded() {
                of_slice.iter().for_each(|&g| next[g as usize] = LIVE);
            }
            records = rest;
        }
        let mut at = 0;
        for (slot, g) in next.iter_mut().zip(&groups) {
            if *slot != LIVE {
                *slot = at;
                at += g.count as usize;
            }
        }
        encoded = vec![&[][..]; at];
    }
    let mut grouped: Vec<(Datum, Values)> = keys
        .into_iter()
        .zip(&groups)
        .enumerate()
        .map(|(g, (key, group))| {
            let values = match next.get(g) {
                Some(&at) if at != LIVE => Values::Encoded(at..at + group.count as usize),
                _ => Values::Live(Vec::with_capacity(group.count as usize)),
            };
            (key, values)
        })
        .collect();
    let arrivals = input.iter_mut().flat_map(|slice| slice.arrivals());
    for (value, g) in arrivals.zip(group_of) {
        let g = g as usize;
        match (&mut grouped[g].1, value) {
            (Values::Live(values), value) => values.push(value.into_datum()),
            (Values::Encoded(_), Arrival::Encoded(bytes)) => {
                encoded[next[g]] = bytes;
                next[g] += 1;
            }
            (Values::Encoded(_), Arrival::Live(_)) => {
                unreachable!("a group with a live value is live")
            }
        }
    }
    // Distinct keys: no two compare equal, so stability has nothing to keep.
    grouped.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Groups {
        groups: grouped,
        encoded,
    }
}

#[cfg(test)]
impl Groups<'_> {
    /// Each group with its values owned, as [`Values::into_datums`] hands
    /// them over.
    pub(crate) fn into_datums(self) -> Vec<(Datum, Vec<Datum>)> {
        let Groups { groups, encoded } = self;
        groups
            .into_iter()
            .map(|(key, values)| (key, values.into_datums(&encoded)))
            .collect()
    }
}

/// The first pass: each record's group, and the groups in order of first
/// appearance. Reads the keys and leaves the values where they are.
///
/// The table maps a key's [`fx_hash_bytes`] to the first group with that
/// hash and is only ever probed, never iterated; whether two keys are the
/// same key is decided by comparing their bytes, so keys whose hashes
/// collide stay apart.
fn assign_groups<'a>(input: &[Slice<'a>]) -> (Vec<u32>, Vec<Group<'a>>) {
    let records: usize = input.iter().map(Slice::len).sum();
    debug_assert!(u32::try_from(records).is_ok(), "indices are u32");
    let mut table: FxHashMap<u64, u32> = FxHashMap::default();
    let mut groups: Vec<Group<'a>> = Vec::new();
    let mut group_of: Vec<u32> = Vec::with_capacity(records);
    for key in input.iter().flat_map(Slice::keys) {
        let new = groups.len() as u32;
        let g = match table.entry(fx_hash_bytes(key)) {
            Entry::Vacant(slot) => *slot.insert(new),
            Entry::Occupied(slot) => {
                let mut g = *slot.get();
                loop {
                    let group = &mut groups[g as usize];
                    if group.key == key {
                        break g;
                    }
                    if group.next == END {
                        group.next = new;
                        break new;
                    }
                    g = group.next;
                }
            }
        };
        if g == new {
            groups.push(Group {
                key,
                count: 0,
                next: END,
            });
        }
        groups[g as usize].count += 1;
        group_of.push(g);
    }
    (group_of, groups)
}

/// The reference [`group_by_key`] is tested against: a stable sort of the
/// records by key, then one group per run of equal keys.
#[cfg(test)]
pub(crate) fn sort_groups(mut records: Vec<efind_common::Record>) -> Vec<(Datum, Vec<Datum>)> {
    // Stable: equal-key order is observable (it sets group value order and
    // pass-through output order, and record sizes differ, so reordering
    // shifts downstream chunk boundaries and virtual costs).
    records.sort_by(|a, b| a.key.cmp(&b.key));
    let mut groups = Vec::new();
    let mut rest = records.into_iter().peekable();
    while let Some(first) = rest.next() {
        let key = first.key;
        let mut values = vec![first.value];
        while let Some(rec) = rest.next_if(|r| r.key == key) {
            values.push(rec.value);
        }
        groups.push((key, values));
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::Spill;
    use efind_common::Record;

    /// Groups `records` spilled into `partitions` partitions by `p`,
    /// every slice handed to one task, as a reduce task receives its
    /// slices of many runs.
    fn groups_of(records: Vec<Record>, partitions: usize) -> Vec<(Datum, Vec<Datum>)> {
        let p = |key: &Datum| fx_hash_bytes(&key.encode()) as usize % partitions;
        let mut run = Spill::build(records, partitions, p);
        group_by_key(run.slices().collect()).into_datums()
    }

    #[test]
    fn a_group_takes_no_more_room_than_a_vector_of_its_values() {
        // A reduce task of live values asks for what it asked for before
        // values could be encoded.
        assert_eq!(
            std::mem::size_of::<(Datum, Values)>(),
            std::mem::size_of::<(Datum, Vec<Datum>)>()
        );
    }

    #[test]
    fn keys_with_one_hash_stay_two_groups_in_key_order() {
        // `FxHasher` (efind-common's hash.rs) over the 16 bytes of an
        // 11-byte `Bytes` key takes two words: the hash is
        // (rotl(w1·SEED, 5) ^ w2)·SEED. The second key differs from the
        // first in its first word and makes up for it in its second.
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let words = |key: &Datum| {
            let enc = key.encode();
            let word = |i: usize| u64::from_le_bytes(enc[i..i + 8].try_into().unwrap());
            (word(0), word(8))
        };
        let low = Datum::Bytes(vec![0; 11]);
        let mut bytes = vec![0; 11];
        bytes[0] = 1;
        let ((w1, w2), (v1, _)) = (words(&low), words(&Datum::Bytes(bytes.clone())));
        let fill = w2 ^ w1.wrapping_mul(SEED).rotate_left(5) ^ v1.wrapping_mul(SEED).rotate_left(5);
        bytes[3..].copy_from_slice(&fill.to_le_bytes());
        let high = Datum::Bytes(bytes);
        assert_eq!(
            fx_hash_bytes(&low.encode()),
            fx_hash_bytes(&high.encode()),
            "not a collision any more"
        );
        assert_ne!(low, high);

        let records = vec![
            Record::new(high.clone(), 0i64),
            Record::new(low.clone(), 1i64),
            Record::new(high.clone(), 2i64),
            Record::new(low.clone(), 3i64),
            Record::new(low.clone(), 4i64),
        ];
        let groups = groups_of(records.clone(), 1);
        assert_eq!(
            groups,
            vec![
                (low, vec![Datum::Int(1), Datum::Int(3), Datum::Int(4)]),
                (high, vec![Datum::Int(0), Datum::Int(2)]),
            ]
        );
        assert_eq!(groups, sort_groups(records));
    }

    #[test]
    fn distinct_keys_repeating_keys_and_no_keys_group_as_the_sort_does() {
        let distinct: Vec<Record> = (0..10_000i64)
            .map(|i| Record::new((i * 7919) % 10_007, i))
            .collect();
        let groups = groups_of(distinct.clone(), 3);
        assert_eq!(groups.len(), 10_000);
        assert_eq!(groups, sort_groups(distinct));

        let repeating: Vec<Record> = (0..10_000i64)
            .map(|i| Record::new(format!("k{}", (i * 7) % 10), i))
            .collect();
        let groups = groups_of(repeating.clone(), 3);
        assert_eq!(groups.len(), 10);
        assert_eq!(groups, sort_groups(repeating));

        assert_eq!(groups_of(Vec::new(), 1), Vec::new());
    }
}
