//! Order-independent digests of job outputs.
//!
//! Strategies reorder records (a re-partitioned job emits in shuffle
//! order, a cached one in input order), so the digest is a wrapping *sum*
//! of per-record hashes plus the record count. Floats are kept out of the
//! hash: a reduce that sums floats adds them in arrival order, which
//! differs between strategies in the last bits, so float payloads are
//! totalled separately and compared with a tolerance.

use std::hash::Hasher;

use efind_common::hash::mix64;
use efind_common::{Datum, FxHasher, Record};

/// What a job wrote, reduced to three numbers.
#[derive(Clone, Copy, Debug, Default)]
pub struct Digest {
    /// Output record count.
    pub records: u64,
    /// Wrapping sum over records of the hash of everything but floats.
    pub hash: u64,
    /// Sum of every float in every record.
    pub float_sum: f64,
}

/// Relative tolerance on [`Digest::float_sum`]: far above reordering
/// error of a few thousand double additions, far below one dropped term.
const FLOAT_TOLERANCE: f64 = 1e-9;

impl PartialEq for Digest {
    fn eq(&self, other: &Self) -> bool {
        let scale = self.float_sum.abs().max(other.float_sum.abs()).max(1.0);
        self.records == other.records
            && self.hash == other.hash
            && (self.float_sum - other.float_sum).abs() <= FLOAT_TOLERANCE * scale
    }
}

impl Digest {
    /// Digest of a record set, in any order.
    pub fn of<'a>(records: impl IntoIterator<Item = &'a Record>) -> Digest {
        let mut d = Digest::default();
        for rec in records {
            d.add(rec);
        }
        d
    }

    /// Folds one record in.
    pub fn add(&mut self, rec: &Record) {
        let mut h = FxHasher::default();
        walk(&rec.key, &mut h, &mut self.float_sum);
        walk(&rec.value, &mut h, &mut self.float_sum);
        self.hash = self.hash.wrapping_add(mix64(h.finish()));
        self.records += 1;
    }
}

fn walk(d: &Datum, h: &mut FxHasher, floats: &mut f64) {
    match d {
        Datum::Float(v) => {
            h.write_u8(0xF1);
            *floats += v;
        }
        Datum::List(items) => {
            h.write_u8(0xF2);
            h.write_usize(items.len());
            for item in items {
                walk(item, h, floats);
            }
        }
        other => std::hash::Hash::hash(other, h),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_does_not_matter_but_content_does() {
        let a = Record::new(1i64, "x");
        let b = Record::new(2i64, "y");
        assert_eq!(Digest::of([&a, &b]), Digest::of([&b, &a]));
        assert_ne!(Digest::of([&a, &b]), Digest::of([&a]));
        assert_ne!(
            Digest::of([&a, &b]),
            Digest::of([&a, &Record::new(2i64, "z")])
        );
        // A swapped key/value pair is a different record.
        assert_ne!(
            Digest::of([&Record::new(1i64, 2i64)]),
            Digest::of([&Record::new(2i64, 1i64)])
        );
    }

    #[test]
    fn floats_compare_with_tolerance() {
        let exact = Digest::of([&Record::new(1i64, 0.1 + 0.2)]);
        let reordered = Digest::of([&Record::new(1i64, 0.3)]);
        assert_eq!(exact, reordered);
        assert_ne!(exact, Digest::of([&Record::new(1i64, 0.3001)]));
    }
}
