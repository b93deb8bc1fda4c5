//! CRC-32 checksums for end-to-end data integrity.
//!
//! The DFS computes a CRC over each chunk's encoded records at write time
//! and re-verifies it at every read boundary; the lookup cache and the
//! shuffle path do the same for their payloads. This is the standard
//! reflected CRC-32 (polynomial `0xEDB88320`, the IEEE 802.3 / zlib /
//! HDFS variant), table-driven and eight bytes a step (slicing-by-8),
//! implemented here to avoid a dependency.

use std::cell::Cell;

/// The reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `TABLES[0]` is the classic one-byte table, and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight table reads fold eight bytes of input at once.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// Folds `bytes` into `crc` one byte a step: the tail of a slicing-by-8
/// update, and the reference its tests compare against.
fn fold_bytes(mut crc: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Streaming CRC-32 state: feed bytes with [`update`](Crc32::update),
/// read the digest with [`finish`](Crc32::finish).
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh CRC over zero bytes.
    pub fn new() -> Self {
        CRCS_BY_THREAD.with(|n| n.set(n.get() + 1));
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][(lo >> 8 & 0xFF) as usize]
                ^ t[5][(lo >> 16 & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][(hi >> 8 & 0xFF) as usize]
                ^ t[1][(hi >> 16 & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        self.state = fold_bytes(crc, words.remainder());
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

thread_local! {
    static CRCS_BY_THREAD: Cell<u64> = const { Cell::new(0) };
}

/// Number of checksums the calling thread has started (each [`crc32`]
/// and [`Crc32::new`]). Besides the stats store's file, checksums guard
/// only the corruption layer's surfaces, so a job run with a quiet
/// corruption plan and no stats store leaves this unchanged.
pub fn crcs_by_thread() -> u64 {
    CRCS_BY_THREAD.with(Cell::get)
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The CRC-32 of `bytes`, one byte a step.
    fn bytewise(bytes: &[u8]) -> u32 {
        !fold_bytes(!0, bytes)
    }

    #[test]
    fn known_check_vector() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut data = vec![0u8; 256];
        let clean = crc32(&data);
        data[77] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }

    proptest! {
        #[test]
        fn slicing_by_8_equals_the_byte_loop(
            data in proptest::collection::vec(any::<u8>(), 0..=300),
            split in 0usize..=300,
        ) {
            prop_assert_eq!(crc32(&data), bytewise(&data));
            // Any split of a streamed update: the first part's tail and
            // the second part's head meet mid-word.
            let at = split % (data.len() + 1);
            let mut c = Crc32::new();
            c.update(&data[..at]);
            c.update(&data[at..]);
            prop_assert_eq!(c.finish(), bytewise(&data));
        }
    }
}
