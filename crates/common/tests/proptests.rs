//! Property-based tests for the value model and FM sketch.

use efind_common::{Datum, Error, FmSketch, Record};
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

/// Datums drawn from a small pool of neighbours — in `Datum`'s order or
/// in its encoding — and short lists of them, so that two draws are often
/// equal and often almost equal: every variant, `Int(1)` beside
/// `Float(1.0)`, both zeros, NaNs with different payloads, strings of 0, 8
/// and 9 bytes, nested and empty lists.
fn arb_neighbour() -> impl Strategy<Value = Datum> {
    let pool = vec![
        Datum::Null,
        Datum::Bool(false),
        Datum::Bool(true),
        Datum::Int(0),
        Datum::Int(1),
        Datum::Float(0.0),
        Datum::Float(-0.0),
        Datum::Float(1.0),
        Datum::Float(f64::NAN),
        Datum::Float(f64::from_bits(f64::NAN.to_bits() | 1)),
        Datum::Float(-f64::NAN),
        Datum::Text(String::new()),
        Datum::Text("abcdefgh".into()),
        Datum::Text("abcdefghi".into()),
        Datum::Bytes(Vec::new()),
        Datum::Bytes(b"abcdefgh".to_vec()),
        Datum::Bytes(b"abcdefghi".to_vec()),
        Datum::List(Vec::new()),
        Datum::List(vec![Datum::List(Vec::new())]),
    ];
    let leaf = (0..pool.len()).prop_map(move |i| pool[i].clone());
    leaf.prop_recursive(3, 16, 3, |inner| {
        proptest::collection::vec(inner, 0..3).prop_map(Datum::List)
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

    /// The property the shuffle's byte-wise grouping stands on.
    #[test]
    fn datums_are_equal_exactly_when_their_encodings_are(
        a in arb_neighbour(),
        b in arb_neighbour(),
        c in arb_datum(),
    ) {
        for (x, y) in [(&a, &b), (&a, &c), (&b, &b)] {
            prop_assert_eq!(x == y, x.encode() == y.encode(), "{:?} against {:?}", x, y);
        }
    }

    #[test]
    fn encoded_len_is_the_size_and_every_proper_prefix_is_truncated(
        d in arb_datum(),
        tail in proptest::collection::vec(any::<u8>(), 0..4),
        cut in any::<u64>(),
    ) {
        let mut buf = d.encode();
        let len = buf.len();
        buf.extend_from_slice(&tail);
        prop_assert_eq!(Datum::encoded_len(&buf).unwrap() as u64, d.size_bytes());
        let cut = (cut % len as u64) as usize;
        prop_assert!(matches!(Datum::encoded_len(&buf[..cut]), Err(Error::Decode(_))));
    }

    /// On arbitrary bytes `encoded_len` returns — no panic — and agrees
    /// with a full decode wherever that succeeds (a decode may also fail
    /// on invalid UTF-8, which a length does not check).
    #[test]
    fn encoded_len_agrees_with_decode_on_any_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let len = Datum::encoded_len(&bytes);
        if bytes.first().is_none_or(|tag| *tag > 6) {
            prop_assert!(matches!(len, Err(Error::Decode(_))), "{:?}", len);
        }
        match (len, Datum::decode_from(&bytes)) {
            (Ok(len), Ok((d, rest))) => {
                prop_assert_eq!(len, bytes.len() - rest.len());
                prop_assert_eq!(len as u64, d.size_bytes());
            }
            (Err(Error::Decode(_)), Err(_)) => {}
            (Ok(_), Err(Error::Decode(msg))) if msg.contains("utf-8") => {}
            (len, decoded) => prop_assert!(false, "{:?} against {:?}", len, decoded),
        }
    }

    /// Whatever the slot held — every variant, a longer or shorter list, a
    /// list nested deeper or shallower — decoding over it gives what
    /// `decode_from` gives, and hands back the same rest. Decoding the held
    /// value back over the result takes the same buffers the other way.
    #[test]
    fn decoding_in_place_is_decode_from_whatever_the_slot_held(
        held in prop_oneof![arb_datum(), arb_neighbour()],
        d in prop_oneof![arb_datum(), arb_neighbour()],
        tail in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        for (from, to) in [(&held, &d), (&d, &held)] {
            let mut buf = to.encode();
            buf.extend_from_slice(&tail);
            let mut slot = from.clone();
            let rest = Datum::decode_in_place(&mut slot, &buf).unwrap();
            prop_assert_eq!(&slot, to);
            prop_assert_eq!(rest, &tail[..]);
            // And again over its own result, as a reused slot is.
            prop_assert_eq!(Datum::decode_in_place(&mut slot, &buf).unwrap(), &tail[..]);
            prop_assert_eq!(&slot, to);
        }
    }

    /// Every strict prefix of an encoding is a decode error in place, over
    /// any slot, and never a panic.
    #[test]
    fn a_truncated_encoding_decoded_in_place_is_a_decode_error(
        held in arb_datum(),
        d in arb_datum(),
    ) {
        let buf = d.encode();
        for cut in 0..buf.len() {
            let mut slot = held.clone();
            let parsed = Datum::decode_in_place(&mut slot, &buf[..cut]);
            prop_assert!(matches!(parsed, Err(Error::Decode(_))), "cut at {}: {:?}", cut, parsed);
        }
    }

    /// On arbitrary bytes the in-place decode returns — no panic — and
    /// agrees with `decode_from`: the same datum and rest, or both an
    /// error. Bytes behind a datum are handed back, so a caller that wants
    /// the whole buffer (a carrier payload) rejects them.
    #[test]
    fn decoding_in_place_agrees_with_decode_from_on_any_bytes(
        held in arb_datum(),
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let mut slot = held;
        match (Datum::decode_in_place(&mut slot, &bytes), Datum::decode_from(&bytes)) {
            (Ok(rest), Ok((d, expected))) => {
                prop_assert_eq!(rest, expected);
                prop_assert_eq!(slot, d);
            }
            (Err(Error::Decode(_)), Err(Error::Decode(_))) => {}
            (in_place, fresh) => prop_assert!(false, "{:?} against {:?}", in_place, fresh),
        }
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
