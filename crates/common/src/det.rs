//! Seeded deterministic `[0, 1)` draws — the one audited implementation
//! behind every injection plan in the workspace.
//!
//! Three layers inject misbehavior (index faults in `efind-core::fault`,
//! node crashes in `efind-cluster::chaos`, data corruption in
//! `efind-cluster::corrupt`), and all of them need the same property: a
//! decision that is a *pure function* of a seed and the decision's
//! identity — no wall clock, no shared RNG stream, no thread-interleaving
//! sensitivity. Each plan used to hand-roll the same fx-hash construction;
//! this module is the single shared copy.
//!
//! The construction: hash `seed (LE bytes) ++ scope ++ payload` with
//! [`fx_hash_bytes`], keep the top 53 bits as a uniform mantissa, and
//! scale to `[0, 1)`. The `scope` string namespaces independent decision
//! streams (e.g. `"chaos.node"` vs `"chaos.time"`) so they never
//! correlate even for equal payloads.

use std::cell::Cell;

use crate::fx_hash_bytes;

/// Pure `[0, 1)` draw from `(seed, scope, payload)`.
///
/// Deterministic and byte-exact: two calls with identical arguments return
/// the identical float on every platform and every run. Callers encode the
/// decision's identity (key bytes, attempt number, replica index, ...)
/// into `payload`.
pub fn draw_unit(seed: u64, scope: &str, payload: &[u8]) -> f64 {
    draw_with(seed, scope, |buf| buf.extend_from_slice(payload))
}

/// [`draw_unit`] over the payload `write` appends: the same bytes hashed
/// the same way, built in a buffer the calling thread keeps, so a draw
/// whose payload is an encoded key makes no allocator call once the
/// buffer has grown to its longest payload.
pub fn draw_with(seed: u64, scope: &str, write: impl FnOnce(&mut Vec<u8>)) -> f64 {
    DRAWS_BY_THREAD.with(|n| n.set(n.get() + 1));
    // Taken out for the draw, so a `write` that draws itself only finds
    // the slot empty.
    let mut buf = DRAW_BUF.take();
    buf.clear();
    buf.extend_from_slice(&seed.to_le_bytes());
    buf.extend_from_slice(scope.as_bytes());
    write(&mut buf);
    // 53 uniform mantissa bits → u ∈ [0, 1).
    let u = (fx_hash_bytes(&buf) >> 11) as f64 / (1u64 << 53) as f64;
    DRAW_BUF.set(buf);
    u
}

thread_local! {
    static DRAWS_BY_THREAD: Cell<u64> = const { Cell::new(0) };
    /// The calling thread's `seed ++ scope ++ payload` buffer.
    static DRAW_BUF: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Number of draws the calling thread has made. A quiet injection plan
/// answers before it draws, so a run whose layers are all quiet leaves
/// this unchanged — whatever other threads draw meanwhile.
pub fn draws_by_thread() -> u64 {
    DRAWS_BY_THREAD.with(Cell::get)
}

/// [`draw_unit`] specialized to a single `u64` key payload (LE-encoded) —
/// the common case for plans whose decisions are indexed by one integer.
pub fn draw_unit_u64(seed: u64, scope: &str, key: u64) -> f64 {
    draw_unit(seed, scope, &key.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Datum;

    #[test]
    fn draws_are_deterministic() {
        let a = draw_unit(7, "s", b"payload");
        let b = draw_unit(7, "s", b"payload");
        assert_eq!(a, b);
        assert_eq!(draw_unit_u64(7, "s", 42), draw_unit_u64(7, "s", 42));
    }

    #[test]
    fn draws_land_in_unit_interval() {
        for i in 0..1000u64 {
            let u = draw_unit_u64(0xDEAD, "range", i);
            assert!((0.0..1.0).contains(&u), "u={u}");
        }
    }

    #[test]
    fn seed_scope_and_payload_all_matter() {
        let base = draw_unit(1, "scope", b"k");
        assert_ne!(base, draw_unit(2, "scope", b"k"));
        assert_ne!(base, draw_unit(1, "other", b"k"));
        assert_ne!(base, draw_unit(1, "scope", b"j"));
    }

    #[test]
    fn u64_helper_matches_le_payload() {
        // The specialization must be byte-compatible with the general
        // form — plans migrated from hand-rolled draws depend on it.
        let key: u64 = 0x0123_4567_89AB_CDEF;
        assert_eq!(
            draw_unit_u64(9, "chaos.node", key),
            draw_unit(9, "chaos.node", &key.to_le_bytes())
        );
    }

    #[test]
    fn draws_hash_the_concatenation_for_every_length_up_to_300() {
        const SCOPE: &str = "efind.op.index.scope";
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 31 % 251) as u8).collect();
        // `len` bytes of scope and payload after the 8-byte seed.
        for len in 0..=300 {
            let scope = &SCOPE[..len % (SCOPE.len() + 1)];
            let payload = &bytes[..len - scope.len()];
            let mut whole = 0xC0FFEEu64.to_le_bytes().to_vec();
            whole.extend_from_slice(scope.as_bytes());
            whole.extend_from_slice(payload);
            let expected = (fx_hash_bytes(&whole) >> 11) as f64 / (1u64 << 53) as f64;
            assert_eq!(
                draw_unit(0xC0FFEE, scope, payload),
                expected,
                "length {len}"
            );
        }
    }

    #[test]
    fn draw_with_hashes_what_the_closure_appends() {
        let key = Datum::Text("a key".into());
        let mut payload = Vec::new();
        key.encode_into(&mut payload);
        payload.extend_from_slice(&3u32.to_le_bytes());
        let built = draw_with(11, "fault", |b| {
            key.encode_into(b);
            b.extend_from_slice(&3u32.to_le_bytes());
        });
        assert_eq!(built, draw_unit(11, "fault", &payload));
        // A long payload leaves the buffer grown; a short one after it
        // hashes only its own bytes.
        draw_unit(11, "fault", &[7; 400]);
        assert_eq!(
            draw_unit(11, "fault", b"k"),
            draw_with(11, "fault", |b| b.push(b'k'))
        );
    }

    #[test]
    fn draws_are_roughly_uniform() {
        let mut buckets = [0usize; 10];
        for i in 0..10_000u64 {
            let u = draw_unit_u64(3, "uniform", i);
            buckets[(u * 10.0) as usize] += 1;
        }
        let min = *buckets.iter().min().unwrap();
        let max = *buckets.iter().max().unwrap();
        assert!(min > 800 && max < 1200, "skewed buckets: {buckets:?}");
    }
}
