//! Property-based tests for the value model and FM sketch.

use efind_common::{Datum, FmSketch, Record};
use proptest::prelude::*;

fn arb_datum() -> impl Strategy<Value = Datum> {
    let leaf = prop_oneof![
        Just(Datum::Null),
        any::<bool>().prop_map(Datum::Bool),
        any::<i64>().prop_map(Datum::Int),
        any::<f64>().prop_map(Datum::Float),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Datum::Text),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Datum::Bytes),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        proptest::collection::vec(inner, 0..6).prop_map(Datum::List)
    })
}

proptest! {
    #[test]
    fn datum_encode_decode_roundtrip(d in arb_datum()) {
        let enc = d.encode();
        let dec = Datum::decode(&enc).unwrap();
        prop_assert_eq!(&dec, &d);
    }

    // Not an estimate: buffers are sized with `size_bytes` and then filled
    // by `encode_into`, and every byte statistic is a sum of `size_bytes`.
    #[test]
    fn size_bytes_is_the_encoded_length(k in arb_datum(), v in arb_datum()) {
        prop_assert_eq!(k.encode().len() as u64, k.size_bytes());
        let rec = Record { key: k, value: v };
        prop_assert_eq!(rec.encode().len() as u64, rec.size_bytes());
    }

    #[test]
    fn record_roundtrip(k in arb_datum(), v in arb_datum()) {
        let rec = Record { key: k, value: v };
        prop_assert_eq!(Record::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn datum_ordering_is_total_and_antisymmetric(a in arb_datum(), b in arb_datum(), c in arb_datum()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        prop_assert_eq!(a.cmp(&a), Ordering::Equal);
        // Transitivity on the ≤ relation.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
    }

    #[test]
    fn equal_datums_hash_equal(a in arb_datum()) {
        use std::hash::{Hash, Hasher};
        let b = Datum::decode(&a.encode()).unwrap();
        let mut ha = efind_common::FxHasher::default();
        let mut hb = efind_common::FxHasher::default();
        a.hash(&mut ha);
        b.hash(&mut hb);
        prop_assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn fm_estimate_never_explodes(keys in proptest::collection::vec(any::<i64>(), 1..2000)) {
        let mut sketch = FmSketch::default();
        let mut distinct = std::collections::HashSet::new();
        for k in &keys {
            sketch.insert(&Datum::Int(*k));
            distinct.insert(*k);
        }
        let est = sketch.estimate();
        let n = distinct.len() as f64;
        // Generous bound: the sketch must stay within a small constant
        // factor of the truth for any input distribution.
        prop_assert!(est <= n * 4.0 + 16.0, "est={est} n={n}");
        prop_assert!(est >= n / 4.0 - 16.0, "est={est} n={n}");
    }

    #[test]
    fn fm_merge_is_idempotent_and_commutative(
        xs in proptest::collection::vec(any::<i64>(), 0..500),
        ys in proptest::collection::vec(any::<i64>(), 0..500),
    ) {
        let mut a = FmSketch::default();
        let mut b = FmSketch::default();
        for x in &xs { a.insert(&Datum::Int(*x)); }
        for y in &ys { b.insert(&Datum::Int(*y)); }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        let mut abb = ab.clone();
        abb.merge(&b);
        prop_assert_eq!(&abb, &ab);
    }
}
