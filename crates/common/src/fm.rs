//! Flajolet–Martin distinct-count sketch (PCSA).
//!
//! Section 4.2 of the paper estimates Θ — the average number of duplicates
//! per index lookup key — by keeping one FM bit vector per Map/Reduce task,
//! OR-ing the local vectors together, and dividing the total number of
//! lookup keys by the estimated global distinct count. This module is that
//! sketch: the classic Probabilistic Counting with Stochastic Averaging
//! variant from Flajolet & Martin, *J. Comput. Syst. Sci.* 31(2), 1985.

use crate::Datum;

/// PCSA magic constant: `E[2^R] = φ·n/m` with φ ≈ 0.77351.
const PHI: f64 = 0.773_51;

/// Number of stochastic-averaging bitmaps. 64 gives a standard error of
/// roughly `0.78/sqrt(64)` ≈ 10%, plenty for a cost-model input.
pub const DEFAULT_MAPS: usize = 64;

/// A mergeable Flajolet–Martin sketch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FmSketch {
    /// One 64-bit bitmap per stochastic-averaging bucket.
    maps: Vec<u64>,
}

impl Default for FmSketch {
    fn default() -> Self {
        Self::new(DEFAULT_MAPS)
    }
}

impl FmSketch {
    /// Creates a sketch with `maps` bitmaps (rounded up to at least 1).
    pub fn new(maps: usize) -> Self {
        FmSketch {
            maps: vec![0; maps.max(1)],
        }
    }

    /// Observes a pre-hashed key.
    pub fn insert_hash(&mut self, hash: u64) {
        // Multiplicative hashes (FxHash included) barely mix toward the low
        // bits, and the trailing-zeros geometric test reads exactly those
        // bits; a splitmix64 finalizer fixes the bias.
        let hash = splitmix64(hash);
        let m = self.maps.len() as u64;
        let bucket = (hash % m) as usize;
        let rest = hash / m;
        let bit = rest.trailing_zeros().min(63);
        self.maps[bucket] |= 1u64 << bit;
    }

    /// Observes a datum key.
    pub fn insert(&mut self, key: &Datum) {
        self.insert_hash(fx_hash_datum_bits(key));
    }

    /// ORs another sketch into this one (the cross-task merge of §4.2).
    ///
    /// # Panics
    /// Panics if the two sketches use a different number of bitmaps.
    pub fn merge(&mut self, other: &FmSketch) {
        assert_eq!(
            self.maps.len(),
            other.maps.len(),
            "cannot merge FM sketches of different widths"
        );
        for (a, b) in self.maps.iter_mut().zip(&other.maps) {
            *a |= b;
        }
    }

    /// Estimates the number of distinct keys observed.
    pub fn estimate(&self) -> f64 {
        let m = self.maps.len() as f64;
        let mean_r: f64 = self
            .maps
            .iter()
            .map(|&bits| lowest_zero_bit(bits) as f64)
            .sum::<f64>()
            / m;
        // Small-range correction: with very few insertions most bitmaps are
        // empty and the raw estimate floors at m/φ; fall back to a linear
        // count of set bits which is exact for tiny cardinalities.
        let set_bits: u32 = self.maps.iter().map(|b| b.count_ones()).sum();
        if (set_bits as f64) < 2.5 * m {
            return set_bits as f64;
        }
        m / PHI * 2f64.powf(mean_r)
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.maps.iter().all(|&b| b == 0)
    }
}

fn lowest_zero_bit(bits: u64) -> u32 {
    (!bits).trailing_zeros()
}

/// The splitmix64 finalizer: a full-avalanche 64-bit mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fx_hash_datum_bits(key: &Datum) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::hash::FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimates_zero() {
        let s = FmSketch::default();
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = FmSketch::default();
        for _ in 0..10_000 {
            s.insert(&Datum::Int(42));
        }
        assert!(s.estimate() <= 3.0, "estimate {}", s.estimate());
    }

    #[test]
    fn estimate_within_error_bounds() {
        for &n in &[1_000u64, 10_000, 100_000] {
            let mut s = FmSketch::default();
            for i in 0..n {
                s.insert(&Datum::Int(i as i64));
            }
            let est = s.estimate();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.30, "n={n} est={est:.0} err={err:.2}");
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = FmSketch::default();
        let mut b = FmSketch::default();
        let mut union = FmSketch::default();
        for i in 0..5_000i64 {
            a.insert(&Datum::Int(i));
            union.insert(&Datum::Int(i));
        }
        for i in 2_500..7_500i64 {
            b.insert(&Datum::Int(i));
            union.insert(&Datum::Int(i));
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn small_cardinalities_are_near_exact() {
        let mut s = FmSketch::default();
        for i in 0..20i64 {
            s.insert(&Datum::Int(i));
        }
        let est = s.estimate();
        assert!((est - 20.0).abs() <= 5.0, "est={est}");
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merge_width_mismatch_panics() {
        let mut a = FmSketch::new(32);
        let b = FmSketch::new(64);
        a.merge(&b);
    }
}
