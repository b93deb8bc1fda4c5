//! A task's output as it is emitted: the parts of a file write.

use std::iter::FlatMap;
use std::vec;

use efind_common::Record;

/// Records a block opened after the first holds at least.
const MIN_BLOCK: usize = 8;
/// Records a block opened after the first holds at most.
const MAX_BLOCK: usize = 1024;

/// One task's output records, in emission order, in blocks that never
/// move: each block is allocated at its full size, and a record that finds
/// the last one full opens a new one sized for as many records as came
/// before it, between 8 and 1 024. Only the last block can hold slack,
/// which the file write trims. Each block carries its records'
/// `Record::size_bytes` summed as they arrive, so the blocks are the parts
/// [`Dfs::write_file_parts`](crate::Dfs::write_file_parts) takes.
#[derive(Debug, Default)]
pub struct PartWriter {
    /// Every block with its records' bytes, the open one last.
    blocks: Vec<(Vec<Record>, u64)>,
    len: usize,
    bytes: u64,
}

impl PartWriter {
    /// A writer whose first block holds `records` records.
    pub fn with_capacity(records: usize) -> Self {
        PartWriter {
            blocks: vec![(Vec::with_capacity(records), 0)],
            ..PartWriter::default()
        }
    }

    /// Appends `rec`.
    pub fn push(&mut self, rec: Record) {
        let size = rec.size_bytes();
        match self.blocks.last_mut() {
            Some((block, bytes)) if block.len() < block.capacity() => {
                block.push(rec);
                *bytes += size;
            }
            _ => {
                let mut block = Vec::with_capacity(self.len.clamp(MIN_BLOCK, MAX_BLOCK));
                block.push(rec);
                self.blocks.push((block, size));
            }
        }
        self.len += 1;
        self.bytes += size;
    }

    /// Records written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no record was written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `Record::size_bytes` summed over the records written.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The blocks that hold a record, in order, each with its records'
    /// bytes.
    pub fn into_parts(self) -> impl Iterator<Item = (Vec<Record>, u64)> {
        self.blocks
            .into_iter()
            .filter(|(block, _)| !block.is_empty())
    }
}

/// Drops a block's byte sum.
type Records = fn((Vec<Record>, u64)) -> Vec<Record>;

/// The records, in emission order.
impl IntoIterator for PartWriter {
    type Item = Record;
    type IntoIter = FlatMap<vec::IntoIter<(Vec<Record>, u64)>, Vec<Record>, Records>;

    fn into_iter(self) -> Self::IntoIter {
        let records: Records = |(block, _)| block;
        self.blocks.into_iter().flat_map(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efind_common::Datum;

    fn rec(i: usize) -> Record {
        Record::new(i as i64, Datum::Bytes(vec![0; i % 7]))
    }

    #[test]
    fn blocks_are_full_but_the_last_and_grow_with_what_came_before() {
        for (first, n, shapes) in [
            (0, 0, vec![]),
            (5, 0, vec![]),
            (0, 1, vec![(8, 1)]),
            (3, 3, vec![(3, 3)]),
            (3, 4, vec![(3, 3), (8, 1)]),
            (0, 40, vec![(8, 8), (8, 8), (16, 16), (32, 8)]),
            (100, 100, vec![(100, 100)]),
            (1500, 3000, vec![(1500, 1500), (1024, 1024), (1024, 476)]),
        ] {
            let mut w = PartWriter::with_capacity(first);
            (0..n).for_each(|i| w.push(rec(i)));
            assert_eq!(w.len(), n);
            assert_eq!(w.is_empty(), n == 0);
            assert_eq!(w.bytes(), (0..n).map(|i| rec(i).size_bytes()).sum::<u64>());
            let parts: Vec<(Vec<Record>, u64)> = w.into_parts().collect();
            let got: Vec<(usize, usize)> =
                parts.iter().map(|(b, _)| (b.capacity(), b.len())).collect();
            assert_eq!(got, shapes, "first block {first}, {n} records");
            for (block, bytes) in &parts {
                assert_eq!(*bytes, block.iter().map(Record::size_bytes).sum::<u64>());
            }
            let records: Vec<Record> = parts.into_iter().flat_map(|(b, _)| b).collect();
            assert_eq!(records, (0..n).map(rec).collect::<Vec<_>>());
        }
    }
}
