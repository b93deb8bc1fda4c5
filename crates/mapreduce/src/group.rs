//! Reduce-side grouping: key groups in key order, each group's values in
//! arrival order.
//!
//! Shuffled keys repeat — that is why the paper re-partitions lookups
//! (§3.3) — so a task need not order its *records*, only its distinct
//! keys. [`group_by_key`] assigns every record to its key's group through a
//! hash table, orders the groups, and moves each value once into its
//! group's exact-size vector. What comes out is what a stable sort by key
//! followed by a walk over the runs of equal keys hands over, because
//! [`Datum`]'s `Eq` is `cmp == Equal` and its `Hash` hashes what `cmp`
//! compares: the groups are the sort's runs, arrival order within a group
//! is what the stable sort preserves, and the groups come out in key order.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};

use efind_common::hash::{FxHashMap, FxHasher};
use efind_common::{Datum, Record};

/// "No next group" in a chain of groups whose keys share one hash.
const END: u32 = u32::MAX;

/// One distinct key met by the first pass.
struct Group {
    /// Index of the first record carrying the key.
    first: u32,
    /// Records carrying the key.
    count: u32,
    /// The next group whose key has the same 64-bit hash, or [`END`].
    next: u32,
}

/// The hash the table files `key` under: [`FxHasher`] over what
/// `Datum::cmp` compares, without the finalizer the shuffle partitioner
/// adds — a reduce partition is the set of keys equal under that one
/// modulo the reducer count.
fn key_hash(key: &Datum) -> u64 {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Calls `each` once per distinct key of `records`, in key order, with the
/// key's values in arrival order.
pub(crate) fn group_by_key(records: Vec<Record>, mut each: impl FnMut(Datum, Vec<Datum>)) {
    let (group_of, groups) = assign_groups(&records);
    let key_of = |g: u32| &records[groups[g as usize].first as usize].key;
    let mut order: Vec<u32> = (0..groups.len() as u32).collect();
    // Distinct keys: no two compare equal, so stability has nothing to keep.
    order.sort_unstable_by(|a, b| key_of(*a).cmp(key_of(*b)));
    let mut slot_of = vec![0u32; groups.len()];
    for (slot, g) in order.iter().enumerate() {
        slot_of[*g as usize] = slot as u32;
    }
    let mut slots: Vec<(Datum, Vec<Datum>)> = order
        .iter()
        .map(|g| {
            let values = Vec::with_capacity(groups[*g as usize].count as usize);
            (Datum::Null, values)
        })
        .collect();
    for (rec, g) in records.into_iter().zip(group_of) {
        let (key, values) = &mut slots[slot_of[g as usize] as usize];
        // A group keeps the key of its first record; later ones are dropped.
        if values.is_empty() {
            *key = rec.key;
        }
        values.push(rec.value);
    }
    for (key, values) in slots {
        each(key, values);
    }
}

/// The first pass: each record's group, and the groups in order of first
/// appearance. Reads the records and leaves them as they are.
///
/// The table maps a key's hash to the first group with that hash and is
/// only ever probed, never iterated; whether two keys are the same key is
/// decided by `==` alone, so keys whose hashes collide stay apart.
fn assign_groups(records: &[Record]) -> (Vec<u32>, Vec<Group>) {
    debug_assert!(u32::try_from(records.len()).is_ok(), "indices are u32");
    let mut table: FxHashMap<u64, u32> = FxHashMap::default();
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of: Vec<u32> = Vec::with_capacity(records.len());
    for (i, rec) in records.iter().enumerate() {
        let new = groups.len() as u32;
        let g = match table.entry(key_hash(&rec.key)) {
            Entry::Vacant(slot) => *slot.insert(new),
            Entry::Occupied(slot) => {
                let mut g = *slot.get();
                loop {
                    let group = &mut groups[g as usize];
                    if records[group.first as usize].key == rec.key {
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
                first: i as u32,
                count: 0,
                next: END,
            });
        }
        groups[g as usize].count += 1;
        group_of.push(g);
    }
    (group_of, groups)
}

/// The reference [`group_by_key`] is tested against: a stable sort by key,
/// then one call of `each` per run of equal keys.
#[cfg(test)]
pub(crate) fn sort_groups(mut records: Vec<Record>, mut each: impl FnMut(Datum, Vec<Datum>)) {
    // Stable: equal-key order is observable (it sets group value order and
    // pass-through output order, and record sizes differ, so reordering
    // shifts downstream chunk boundaries and virtual costs).
    records.sort_by(|a, b| a.key.cmp(&b.key));
    let mut rest = records.into_iter().peekable();
    while let Some(first) = rest.next() {
        let key = first.key;
        let mut values = vec![first.value];
        while let Some(rec) = rest.next_if(|r| r.key == key) {
            values.push(rec.value);
        }
        each(key, values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups_of(records: Vec<Record>) -> Vec<(Datum, Vec<Datum>)> {
        let mut groups = Vec::new();
        group_by_key(records, |key, values| groups.push((key, values)));
        groups
    }

    fn sorted_groups_of(records: Vec<Record>) -> Vec<(Datum, Vec<Datum>)> {
        let mut groups = Vec::new();
        sort_groups(records, |key, values| groups.push((key, values)));
        groups
    }

    #[test]
    fn keys_with_one_hash_stay_two_groups_in_key_order() {
        // `FxHasher`'s multiplier (`SEED` in efind-common's hash.rs). A
        // `Text` of exactly eight bytes hashes to
        // (rotl(4·SEED, 5) ^ word)·SEED and an `Int` to
        // (rotl(2·SEED, 5) ^ v)·SEED, 4 and 2 being the variants' tags.
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let text = Datum::Text("collide!".into());
        let word = u64::from_le_bytes(*b"collide!");
        let v =
            word ^ 4u64.wrapping_mul(SEED).rotate_left(5) ^ 2u64.wrapping_mul(SEED).rotate_left(5);
        let int = Datum::Int(v as i64);
        assert_eq!(key_hash(&text), key_hash(&int), "not a collision any more");
        assert_ne!(text, int);

        let records = vec![
            Record::new(text.clone(), 0i64),
            Record::new(int.clone(), 1i64),
            Record::new(text.clone(), 2i64),
            Record::new(int.clone(), 3i64),
            Record::new(int.clone(), 4i64),
        ];
        let groups = groups_of(records.clone());
        assert_eq!(
            groups,
            vec![
                (int, vec![Datum::Int(1), Datum::Int(3), Datum::Int(4)]),
                (text, vec![Datum::Int(0), Datum::Int(2)]),
            ]
        );
        assert_eq!(groups, sorted_groups_of(records));
    }

    #[test]
    fn distinct_keys_repeating_keys_and_no_keys_group_as_the_sort_does() {
        let distinct: Vec<Record> = (0..10_000i64)
            .map(|i| Record::new((i * 7919) % 10_007, i))
            .collect();
        let groups = groups_of(distinct.clone());
        assert_eq!(groups.len(), 10_000);
        assert_eq!(groups, sorted_groups_of(distinct));

        let repeating: Vec<Record> = (0..10_000i64)
            .map(|i| Record::new(format!("k{}", (i * 7) % 10), i))
            .collect();
        let groups = groups_of(repeating.clone());
        assert_eq!(groups.len(), 10);
        assert_eq!(groups, sorted_groups_of(repeating));

        assert_eq!(groups_of(Vec::new()), Vec::new());
    }
}
