//! CRC-32 checksums for end-to-end data integrity.
//!
//! The DFS computes a CRC over each chunk's encoded records at write time
//! and re-verifies it at every read boundary; the lookup cache and the
//! shuffle path do the same for their payloads. This is the standard
//! reflected CRC-32 (polynomial `0xEDB88320`, the IEEE 802.3 / zlib /
//! HDFS variant), table-driven, implemented here to avoid a dependency.

use std::cell::Cell;

/// The reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, one byte of input per step.
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
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
        let mut crc = self.state;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
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
}
