//! File namespace, chunking, cost accounting, and chunk integrity.

use std::collections::BTreeMap;
use std::slice;
use std::sync::{Arc, OnceLock};

use efind_cluster::{Cluster, CorruptionPlan, NodeId, SimDuration};
use efind_common::{fx_hash_bytes, Crc32, Error, Record, Result};

use crate::placement::Placement;

/// DFS configuration.
#[derive(Clone, Copy, Debug)]
pub struct DfsConfig {
    /// Maximum chunk size in bytes. The paper uses 64 MB; scaled-down
    /// experiments typically set this so inputs split into tens of chunks.
    pub chunk_size_bytes: u64,
    /// Number of replicas per chunk (paper: 3).
    pub replication: usize,
    /// Placement seed for determinism.
    pub seed: u64,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            chunk_size_bytes: 4 << 20,
            replication: 3,
            seed: 0xD_F5,
        }
    }
}

/// Metadata of one stored chunk.
#[derive(Clone, Debug)]
pub struct ChunkMeta {
    /// Index of the chunk within its file.
    pub index: usize,
    /// Serialized size of the chunk's records.
    pub bytes: u64,
    /// Number of records.
    pub records: usize,
    /// Replica hosts.
    pub hosts: Vec<NodeId>,
}

/// A lightweight handle describing a stored file.
#[derive(Clone, Debug)]
pub struct DfsFile {
    /// File name in the namespace.
    pub name: String,
    /// Chunk metadata in order.
    pub chunks: Vec<ChunkMeta>,
}

impl DfsFile {
    /// Total serialized bytes.
    pub fn total_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.bytes).sum()
    }

    /// Total record count.
    pub fn total_records(&self) -> usize {
        self.chunks.iter().map(|c| c.records).sum()
    }
}

/// Records one writer handed over, kept whole and shared: every chunk
/// that covers some of them — in the file they were written as, or in a
/// file later written from that file's chunks — views a range of them.
type Part = Arc<Vec<Record>>;

/// The records `start..end` of one part.
#[derive(Clone, Debug)]
struct Piece {
    part: Part,
    start: usize,
    end: usize,
}

impl Piece {
    /// All of `records`, trimmed first: a part with spare capacity is
    /// shrunk to its length, so a file never holds slack.
    fn whole(mut records: Vec<Record>) -> Piece {
        records.shrink_to_fit();
        Piece {
            end: records.len(),
            part: Arc::new(records),
            start: 0,
        }
    }

    fn records(&self) -> &[Record] {
        &self.part[self.start..self.end]
    }

    fn len(&self) -> usize {
        self.end - self.start
    }

    /// The first `len` records, and the rest.
    fn split_at(self, len: usize) -> (Piece, Piece) {
        let mid = self.start + len;
        let head = Piece {
            part: Arc::clone(&self.part),
            start: self.start,
            end: mid,
        };
        (head, Piece { start: mid, ..self })
    }
}

/// One chunk's records, borrowed where they are stored: the pieces of the
/// parts its writer handed over that the chunk covers, in order
/// ([`Dfs::read_chunk`]).
#[derive(Clone, Copy, Debug)]
pub struct Chunk<'a> {
    pieces: &'a [Piece],
    len: usize,
}

impl<'a> Chunk<'a> {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chunk holds no record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records, in order.
    pub fn iter(&self) -> ChunkIter<'a> {
        ChunkIter {
            pieces: self.pieces.iter(),
            current: [].iter(),
            left: self.len,
        }
    }

    /// The records as the slices they are stored in, in order: one for
    /// each piece of a part the chunk covers.
    pub fn slices(&self) -> impl Iterator<Item = &'a [Record]> + 'a {
        self.pieces.iter().map(Piece::records)
    }

    /// A copy of the records, in order.
    pub fn to_vec(&self) -> Vec<Record> {
        self.iter().cloned().collect()
    }
}

impl<'a> IntoIterator for Chunk<'a> {
    type Item = &'a Record;
    type IntoIter = ChunkIter<'a>;

    fn into_iter(self) -> ChunkIter<'a> {
        self.iter()
    }
}

/// Iterator over a chunk's records, piece after piece.
#[derive(Clone, Debug)]
pub struct ChunkIter<'a> {
    pieces: slice::Iter<'a, Piece>,
    current: slice::Iter<'a, Record>,
    left: usize,
}

impl<'a> Iterator for ChunkIter<'a> {
    type Item = &'a Record;

    fn next(&mut self) -> Option<&'a Record> {
        loop {
            if let Some(rec) = self.current.next() {
                self.left -= 1;
                return Some(rec);
            }
            self.current = self.pieces.next()?.records().iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for ChunkIter<'_> {}

/// One chunk's records as an owned handle: reading it
/// ([`Dfs::read_chunk_shared`]) or cloning it bumps a refcount and copies
/// no record, so map tasks stream their input straight off the stored
/// parts.
#[derive(Clone, Debug)]
pub struct SharedChunk {
    pieces: Arc<[Piece]>,
    len: usize,
}

impl SharedChunk {
    /// The records, borrowed.
    pub fn chunk(&self) -> Chunk<'_> {
        Chunk {
            pieces: &self.pieces,
            len: self.len,
        }
    }
}

/// A chunk of one piece: all of `records`.
impl From<Vec<Record>> for SharedChunk {
    fn from(records: Vec<Record>) -> Self {
        let len = records.len();
        SharedChunk {
            pieces: Arc::new([Piece::whole(records)]),
            len,
        }
    }
}

struct StoredChunk {
    hosts: Vec<NodeId>,
    bytes: u64,
    records: SharedChunk,
    /// CRC-32 over the chunk's encoded records. Filled at write time when
    /// the integrity layer is armed, lazily on first verified read
    /// otherwise (files written before the plan was installed); never
    /// computed at all on corruption-free runs, so the hot path is
    /// untouched.
    crc: OnceLock<u32>,
}

/// What a verified read discovered about one chunk's replicas.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkIntegrity {
    /// Replicas whose payload failed CRC verification, in host order.
    pub corrupt: Vec<NodeId>,
    /// Extra virtual time the reader spent fetching and discarding the
    /// corrupt copies before a clean replica verified (one remote
    /// retrieve per bad replica).
    pub reread_cost: SimDuration,
}

/// CRC-32 of the chunk's payload (the concatenated record encodings),
/// computed once and cached — the digest a write boundary seals the
/// chunk with.
fn chunk_crc(c: &StoredChunk) -> u32 {
    *c.crc.get_or_init(|| encoded_crc(c.records.chunk(), None))
}

/// CRC-32 over the concatenated record encodings, fed record by record
/// from one reused buffer. `flip` simulates the payload a reader fetches
/// from a corrupt replica: the byte at `salt % total` XOR-perturbed, where
/// `total` is the summed [`Record::size_bytes`] — the encoded length —
/// which CRC-32 detects with certainty.
fn encoded_crc<'r>(
    records: impl IntoIterator<Item = &'r Record> + Clone,
    flip: Option<usize>,
) -> u32 {
    // The flip's offset from the start of the record being encoded.
    let mut pos = flip.and_then(|salt| {
        let total: u64 = records.clone().into_iter().map(Record::size_bytes).sum();
        (total > 0).then(|| salt % total as usize)
    });
    let mut buf = Vec::new();
    let mut h = Crc32::new();
    for rec in records {
        buf.clear();
        rec.key.encode_into(&mut buf);
        rec.value.encode_into(&mut buf);
        if let Some(p) = pos {
            match buf.get_mut(p) {
                Some(byte) => {
                    *byte ^= 0x55;
                    pos = None;
                }
                None => pos = Some(p - buf.len()),
            }
        }
        h.update(&buf);
    }
    h.finish()
}

/// The chunk size limit of a file of `total` bytes written as about
/// `num_chunks` equal chunks.
fn chunk_limit(total: u64, num_chunks: usize) -> u64 {
    (total / num_chunks.max(1) as u64).max(1)
}

/// Where a file's chunk boundaries fall, under the one rule: a chunk
/// closes before the record that would take it past `limit`, so only a
/// record larger than that has a chunk of its own above the limit.
struct Cuts {
    limit: u64,
    /// `(records, bytes)` of every closed chunk, in order.
    closed: Vec<(usize, u64)>,
    /// Records and bytes of the open chunk.
    len: usize,
    bytes: u64,
}

impl Cuts {
    fn new(limit: u64) -> Self {
        Cuts {
            limit,
            closed: Vec::new(),
            len: 0,
            bytes: 0,
        }
    }

    /// The next record, of `size` bytes.
    fn record(&mut self, size: u64) {
        if self.bytes + size > self.limit && self.len > 0 {
            self.closed.push((self.len, self.bytes));
            (self.len, self.bytes) = (0, 0);
        }
        self.len += 1;
        self.bytes += size;
    }

    /// The next `records`, of `bytes` in total: taken whole when the open
    /// chunk holds them all — then no boundary can fall among them — and
    /// sized one by one otherwise.
    fn part<'r>(&mut self, records: impl ExactSizeIterator<Item = &'r Record>, bytes: u64) {
        if self.bytes + bytes <= self.limit {
            self.len += records.len();
            self.bytes += bytes;
        } else {
            for rec in records {
                self.record(rec.size_bytes());
            }
        }
    }

    /// Every chunk's `(records, bytes)`, the open one closed.
    fn finish(mut self) -> Vec<(usize, u64)> {
        if self.len > 0 {
            self.closed.push((self.len, self.bytes));
        }
        self.closed
    }
}

/// Outcome of one background re-replication sweep
/// ([`Dfs::re_replicate`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReReplication {
    /// Chunks that received at least one new replica.
    pub chunks: usize,
    /// Bytes copied (one full chunk per new replica).
    pub bytes: u64,
    /// Virtual time the copies took, priced on the network and disk
    /// models. Re-replication runs in the background, so callers record
    /// this rather than serializing it into a job's makespan.
    pub duration: SimDuration,
}

/// The in-memory distributed file system.
pub struct Dfs {
    cluster: Cluster,
    config: DfsConfig,
    /// Chunk table keyed by file name. A `BTreeMap` on purpose: sweeps
    /// (`crash_node`, `under_replicated`, `re_replicate`) iterate it and
    /// their results are observable, so iteration order must be the sorted
    /// file-name order, not a hash order.
    files: BTreeMap<String, Vec<StoredChunk>>,
    /// Nodes declared dead, in crash order. Their replicas are gone; new
    /// placements avoid them.
    dead: Vec<NodeId>,
    /// Corruption plan consulted at read boundaries. Quiet by default;
    /// installed by the runtime via [`Dfs::set_corruption`].
    corruption: CorruptionPlan,
}

impl Dfs {
    /// Creates an empty DFS over `cluster`.
    pub fn new(cluster: Cluster, config: DfsConfig) -> Self {
        Dfs {
            cluster,
            config,
            files: BTreeMap::new(),
            dead: Vec::new(),
            corruption: CorruptionPlan::none(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// Installs the corruption plan consulted at read boundaries.
    pub fn set_corruption(&mut self, plan: CorruptionPlan) {
        self.corruption = plan;
    }

    /// The installed corruption plan (quiet by default).
    pub fn corruption(&self) -> &CorruptionPlan {
        &self.corruption
    }

    /// True when chunk reads verify CRCs: the plan can corrupt chunk
    /// replicas and verification is enabled. Delegates to the plan so
    /// every read and write boundary in this file makes the identical
    /// call.
    fn verifies_chunks(&self) -> bool {
        self.corruption.verifies_chunks()
    }

    /// Writes `records` as `name`, splitting into chunks of at most the
    /// configured size and placing replicas deterministically.
    /// Overwrites any existing file of the same name.
    pub fn write_file(&mut self, name: &str, records: Vec<Record>) -> DfsFile {
        let mut cuts = Cuts::new(self.config.chunk_size_bytes);
        for rec in &records {
            cuts.record(rec.size_bytes());
        }
        self.write_pieces(name, vec![Piece::whole(records)], cuts.finish())
    }

    /// Writes `records` as `name` targeting approximately `num_chunks`
    /// equal-size chunks. Used by experiments to control the number of map
    /// tasks (and hence waves) precisely.
    pub fn write_file_with_chunks(
        &mut self,
        name: &str,
        records: Vec<Record>,
        num_chunks: usize,
    ) -> DfsFile {
        let sizes: Vec<u64> = records.iter().map(Record::size_bytes).collect();
        let mut cuts = Cuts::new(chunk_limit(sizes.iter().sum(), num_chunks));
        for sz in sizes {
            cuts.record(sz);
        }
        self.write_pieces(name, vec![Piece::whole(records)], cuts.finish())
    }

    /// Writes the records of `parts`, in order, as `name`: the file
    /// [`Dfs::write_file`] — or [`Dfs::write_file_with_chunks`] when
    /// `num_chunks` is set — writes from their concatenation, without
    /// concatenating them. Each part comes with its records'
    /// `Record::size_bytes` summed, which a job's tasks know already (the
    /// blocks of a [`PartWriter`](crate::PartWriter)); only a part that a
    /// chunk boundary falls inside is sized record by record. The file
    /// keeps each part's vector as it was handed over, trimmed of spare
    /// capacity; no record moves.
    pub fn write_file_parts(
        &mut self,
        name: &str,
        parts: Vec<(Vec<Record>, u64)>,
        num_chunks: Option<usize>,
    ) -> DfsFile {
        self.write_spliced(name, parts, Vec::new(), num_chunks)
    }

    /// Writes the records of `parts`, then those of every chunk of file
    /// `source`, as `name`: the file [`Dfs::write_file_parts`] writes from
    /// `parts` followed by the source's chunks as parts. The new chunks
    /// keep the parts and view the source's, so no record is copied, and
    /// `source` may be `name` itself. Fails as [`Dfs::read_chunk`] does on
    /// a chunk that cannot be read.
    pub fn write_file_parts_then(
        &mut self,
        name: &str,
        parts: Vec<(Vec<Record>, u64)>,
        source: &str,
        num_chunks: Option<usize>,
    ) -> Result<DfsFile> {
        let count = self
            .files
            .get(source)
            .ok_or_else(|| Error::NotFound(format!("dfs file {source}")))?
            .len();
        let views = self.views(source, 0..count)?;
        Ok(self.write_spliced(name, parts, views, num_chunks))
    }

    /// Writes the records of chunks `chunks` of file `source`, in the order
    /// given, as `name` cut into about `num_chunks` equal chunks — the file
    /// [`Dfs::write_file_with_chunks`] writes from their concatenation. The
    /// new chunks view the parts the source's chunks view, so no record is
    /// copied, and the file outlives the source being deleted or
    /// overwritten. Fails as [`Dfs::read_chunk`] does on a chunk that
    /// cannot be read.
    pub fn write_file_from_chunks(
        &mut self,
        name: &str,
        source: &str,
        chunks: &[usize],
        num_chunks: usize,
    ) -> Result<DfsFile> {
        let views = self.views(source, chunks.iter().copied())?;
        Ok(self.write_spliced(name, Vec::new(), views, Some(num_chunks)))
    }

    /// Chunks `chunks` of file `source` as a read finds them, each with its
    /// bytes.
    fn views(
        &self,
        source: &str,
        chunks: impl Iterator<Item = usize>,
    ) -> Result<Vec<(SharedChunk, u64)>> {
        chunks
            .map(|chunk| {
                let c = self.readable(source, chunk)?;
                Ok((c.records.clone(), c.bytes))
            })
            .collect()
    }

    /// Writes the records of `parts`, then those of `views`, as `name`,
    /// under the one [`Cuts`] rule: each part is kept and each view's
    /// pieces are shared.
    fn write_spliced(
        &mut self,
        name: &str,
        parts: Vec<(Vec<Record>, u64)>,
        views: Vec<(SharedChunk, u64)>,
        num_chunks: Option<usize>,
    ) -> DfsFile {
        let limit = match num_chunks {
            Some(n) => {
                let bytes = parts.iter().map(|(_, b)| b);
                chunk_limit(bytes.chain(views.iter().map(|(_, b)| b)).sum(), n)
            }
            None => self.config.chunk_size_bytes,
        };
        let mut cuts = Cuts::new(limit);
        for (records, bytes) in &parts {
            debug_assert_eq!(
                records.iter().map(Record::size_bytes).sum::<u64>(),
                *bytes,
                "a part's bytes are its records' sizes summed"
            );
            cuts.part(records.iter(), *bytes);
        }
        for (chunk, bytes) in &views {
            cuts.part(chunk.chunk().iter(), *bytes);
        }
        let pieces = parts
            .into_iter()
            .map(|(records, _)| Piece::whole(records))
            .chain(views.iter().flat_map(|(c, _)| c.pieces.iter().cloned()))
            .collect();
        self.write_pieces(name, pieces, cuts.finish())
    }

    /// Stores as `name` a file whose records are those of `pieces`, in
    /// order, and whose chunks hold `cuts` — `(records, bytes)` each, in
    /// order: each chunk views the pieces its records lie in, and replicas
    /// are placed deterministically.
    fn write_pieces(&mut self, name: &str, pieces: Vec<Piece>, cuts: Vec<(usize, u64)>) -> DfsFile {
        let mut placement = Placement::new(
            self.cluster.num_nodes(),
            self.config.seed ^ fx_hash_bytes(name.as_bytes()),
        );
        // Write boundary: when the integrity layer is armed, checksum each
        // chunk as it is sealed so read boundaries have something to
        // verify against. Quiet runs skip this entirely (the lazy cell
        // covers files that predate an installed plan).
        let checksum_on_write = self.verifies_chunks();
        let mut rest = pieces.into_iter().filter(|p| p.len() > 0);
        let mut open: Option<Piece> = None;
        // An empty file still exists in the namespace with zero chunks.
        let chunks: Vec<StoredChunk> = cuts
            .into_iter()
            .map(|(len, bytes)| {
                let mut covered = Vec::with_capacity(1);
                let mut left = len;
                while left > 0 {
                    let piece = open
                        .take()
                        .or_else(|| rest.next())
                        .expect("the cuts count only records the pieces hold");
                    if piece.len() <= left {
                        left -= piece.len();
                        covered.push(piece);
                    } else {
                        let (head, tail) = piece.split_at(left);
                        covered.push(head);
                        open = Some(tail);
                        left = 0;
                    }
                }
                let records = SharedChunk {
                    pieces: covered.into(),
                    len,
                };
                let crc = OnceLock::new();
                if checksum_on_write {
                    let _ = crc.set(encoded_crc(records.chunk(), None));
                }
                StoredChunk {
                    hosts: placement.pick_avoiding(self.config.replication, &self.dead),
                    bytes,
                    records,
                    crc,
                }
            })
            .collect();
        self.files.insert(name.to_owned(), chunks);
        self.stat(name).expect("the file was just stored")
    }

    /// Returns the metadata handle of an existing file.
    pub fn stat(&self, name: &str) -> Result<DfsFile> {
        let chunks = self
            .files
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("dfs file {name}")))?;
        Ok(DfsFile {
            name: name.to_owned(),
            chunks: chunks
                .iter()
                .enumerate()
                .map(|(index, c)| ChunkMeta {
                    index,
                    bytes: c.bytes,
                    records: c.records.len,
                    hosts: c.hosts.clone(),
                })
                .collect(),
        })
    }

    /// Reads the records of one chunk.
    pub fn read_chunk(&self, name: &str, chunk: usize) -> Result<Chunk<'_>> {
        Ok(self.readable(name, chunk)?.records.chunk())
    }

    /// Reads one chunk as a shared handle — a refcount bump, no record
    /// copies. Map tasks stream their input straight off shared chunk
    /// storage instead of materializing a private `Vec` first.
    pub fn read_chunk_shared(&self, name: &str, chunk: usize) -> Result<SharedChunk> {
        Ok(self.readable(name, chunk)?.records.clone())
    }

    /// One chunk as a read finds it: it exists, has a live replica, and —
    /// when the integrity layer verifies — a replica that passes its CRC.
    fn readable(&self, name: &str, chunk: usize) -> Result<&StoredChunk> {
        let chunks = self
            .files
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("dfs file {name}")))?;
        let c = chunks
            .get(chunk)
            .ok_or_else(|| Error::NotFound(format!("chunk {chunk} of {name}")))?;
        if c.hosts.is_empty() {
            return Err(Error::DataLoss(format!(
                "all replicas of chunk {chunk} of {name} lost to node crashes"
            )));
        }
        self.verify_chunk(name, chunk, c)?;
        Ok(c)
    }

    /// Reads a whole file in chunk order.
    pub fn read_file(&self, name: &str) -> Result<Vec<Record>> {
        let chunks = self
            .files
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("dfs file {name}")))?;
        if let Some(idx) = chunks.iter().position(|c| c.hosts.is_empty()) {
            return Err(Error::DataLoss(format!(
                "all replicas of chunk {idx} of {name} lost to node crashes"
            )));
        }
        for (idx, c) in chunks.iter().enumerate() {
            self.verify_chunk(name, idx, c)?;
        }
        let mut out = Vec::with_capacity(chunks.iter().map(|c| c.records.len).sum());
        for c in chunks {
            out.extend(c.records.chunk().iter().cloned());
        }
        Ok(out)
    }

    /// Read-boundary verification: fail fast with
    /// [`Error::DataCorruption`] — naming file, chunk, and the replica
    /// set — when *every* replica of the chunk fails its CRC. With at
    /// least one clean replica the read proceeds (callers charge the
    /// wasted fetches via [`Dfs::chunk_integrity`]).
    fn verify_chunk(&self, name: &str, chunk: usize, c: &StoredChunk) -> Result<()> {
        if !self.verifies_chunks() {
            return Ok(());
        }
        let stored = chunk_crc(c);
        let clean = c
            .hosts
            .iter()
            .any(|&h| self.replica_crc(name, chunk, c, h) == stored);
        if clean {
            return Ok(());
        }
        Err(Error::DataCorruption(format!(
            "all {} replicas of chunk {chunk} of {name} failed checksum verification (hosts {:?})",
            c.hosts.len(),
            c.hosts.iter().map(|h| h.0).collect::<Vec<_>>(),
        )))
    }

    /// The CRC a reader observes fetching this chunk from `host`: the
    /// write-time digest for a clean replica, the digest of the perturbed
    /// payload when the corruption plan flipped a byte in that copy.
    fn replica_crc(&self, name: &str, chunk: usize, c: &StoredChunk, host: NodeId) -> u32 {
        if self.corruption.chunk_replica_corrupt(name, chunk, host) {
            encoded_crc(c.records.chunk(), Some(host.0 as usize))
        } else {
            chunk_crc(c)
        }
    }

    /// Replicas of one chunk whose payload fails CRC verification, in
    /// host order. Pure in the DFS state — every read of the same chunk
    /// discovers the same set. Empty when the integrity layer is quiet,
    /// verification is off, or the file/chunk does not exist.
    pub fn corrupt_replicas(&self, name: &str, chunk: usize) -> Vec<NodeId> {
        if !self.verifies_chunks() {
            return Vec::new();
        }
        let Some(c) = self.files.get(name).and_then(|cs| cs.get(chunk)) else {
            return Vec::new();
        };
        let stored = chunk_crc(c);
        c.hosts
            .iter()
            .copied()
            .filter(|&h| self.replica_crc(name, chunk, c, h) != stored)
            .collect()
    }

    /// What a verified read of this chunk discovers and what it costs:
    /// the corrupt replicas plus one wasted remote retrieve per bad copy.
    /// `None` when every replica is clean (the common case — callers can
    /// skip all integrity accounting).
    pub fn chunk_integrity(&self, name: &str, chunk: usize) -> Option<ChunkIntegrity> {
        let corrupt = self.corrupt_replicas(name, chunk);
        if corrupt.is_empty() {
            return None;
        }
        let bytes = self
            .files
            .get(name)
            .and_then(|cs| cs.get(chunk))
            .map_or(0, |c| c.bytes);
        let reread_cost = self
            .retrieve_cost_remote(bytes)
            .mul_f64(corrupt.len() as f64);
        Some(ChunkIntegrity {
            corrupt,
            reread_cost,
        })
    }

    /// Removes replicas that failed verification from a chunk's host set
    /// so they are never served again, returning the quarantined hosts.
    /// At least one clean replica must remain (an all-corrupt chunk is
    /// left untouched — reads of it fail fast instead). The chunk drops
    /// below its replication target, so the next [`Dfs::re_replicate`]
    /// sweep restores it from a clean copy.
    pub fn quarantine_corrupt_replicas(&mut self, name: &str, chunk: usize) -> Vec<NodeId> {
        let bad = self.corrupt_replicas(name, chunk);
        if bad.is_empty() {
            return bad;
        }
        if let Some(c) = self.files.get_mut(name).and_then(|cs| cs.get_mut(chunk)) {
            if bad.len() >= c.hosts.len() {
                return Vec::new();
            }
            c.hosts.retain(|h| !bad.contains(h));
        }
        bad
    }

    /// Removes a file; removing a missing file is a no-op.
    pub fn delete(&mut self, name: &str) {
        self.files.remove(name);
    }

    /// True if `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// Time for a task to durably store `bytes`: a local disk write plus one
    /// (pipelined) network hop when replication > 1.
    pub fn store_cost(&self, bytes: u64) -> SimDuration {
        let mut d = self.cluster.disk.write(bytes);
        if self.config.replication > 1 {
            d += self.cluster.network.volume(bytes);
        }
        d
    }

    /// Time to retrieve `bytes` from a local replica.
    pub fn retrieve_cost_local(&self, bytes: u64) -> SimDuration {
        self.cluster.disk.read(bytes)
    }

    /// Time to retrieve `bytes` from a remote replica.
    pub fn retrieve_cost_remote(&self, bytes: u64) -> SimDuration {
        self.cluster.disk.read(bytes) + self.cluster.network.transfer(bytes)
    }

    /// Declares `node` dead: every replica it held is gone and future
    /// placements avoid it. Idempotent. Returns the chunks that lost their
    /// *last* replica — permanently unavailable data — sorted by
    /// `(file, chunk index)` for determinism.
    pub fn crash_node(&mut self, node: NodeId) -> Vec<(String, usize)> {
        if self.dead.contains(&node) {
            return Vec::new();
        }
        self.dead.push(node);
        let mut lost = Vec::new();
        for (name, chunks) in &mut self.files {
            for (idx, c) in chunks.iter_mut().enumerate() {
                let before = c.hosts.len();
                c.hosts.retain(|h| *h != node);
                if before > 0 && c.hosts.is_empty() {
                    lost.push((name.clone(), idx));
                }
            }
        }
        lost.sort();
        lost
    }

    /// True if `node` has been declared dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead.contains(&node)
    }

    /// Live replica count of one chunk. 0 means the data is lost.
    pub fn live_replicas(&self, name: &str, chunk: usize) -> Result<usize> {
        let chunks = self
            .files
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("dfs file {name}")))?;
        chunks
            .get(chunk)
            .map(|c| c.hosts.len())
            .ok_or_else(|| Error::NotFound(format!("chunk {chunk} of {name}")))
    }

    /// The replication target given the current live-node count: the
    /// configured factor, capped at the number of surviving nodes.
    fn target_replication(&self) -> usize {
        let live = (self.cluster.num_nodes() as usize).saturating_sub(self.dead.len());
        self.config.replication.min(live.max(1))
    }

    /// Chunks holding fewer live replicas than the target (but at least
    /// one — lost chunks cannot be re-replicated), as
    /// `(file, chunk index, live replicas)` sorted for determinism.
    pub fn under_replicated(&self) -> Vec<(String, usize, usize)> {
        let target = self.target_replication();
        let mut out = Vec::new();
        for (name, chunks) in &self.files {
            for (idx, c) in chunks.iter().enumerate() {
                if !c.hosts.is_empty() && c.hosts.len() < target {
                    out.push((name.clone(), idx, c.hosts.len()));
                }
            }
        }
        out.sort();
        out
    }

    /// Number of currently under-replicated chunks — the health counter
    /// reports and tests assert re-replication progress against.
    pub fn under_replicated_count(&self) -> usize {
        self.under_replicated().len()
    }

    /// Background re-replication sweep: every under-replicated chunk gains
    /// replicas on live nodes until it reaches the target. New hosts are
    /// chosen by a seeded hash over `(file, chunk)`, so the sweep is a pure
    /// function of the DFS state. The returned [`ReReplication`] prices the
    /// copies (network transfer + disk write per new replica) for the
    /// caller to record; the sweep itself does not advance any clock.
    pub fn re_replicate(&mut self) -> ReReplication {
        let target = self.target_replication();
        let live: Vec<NodeId> = self
            .cluster
            .nodes()
            .filter(|n| !self.dead.contains(n))
            .collect();
        let mut rep = ReReplication::default();
        if live.is_empty() {
            return rep;
        }
        let names: Vec<String> = self.files.keys().cloned().collect();
        let seed = self.config.seed;
        for name in names {
            let chunks = self.files.get_mut(&name).expect("name from keys()");
            for (idx, c) in chunks.iter_mut().enumerate() {
                if c.hosts.is_empty() || c.hosts.len() >= target {
                    continue;
                }
                let mut buf = Vec::with_capacity(name.len() + 16);
                buf.extend_from_slice(&seed.to_le_bytes());
                buf.extend_from_slice(name.as_bytes());
                buf.extend_from_slice(&(idx as u64).to_le_bytes());
                let offset = fx_hash_bytes(&buf) as usize % live.len();
                let mut added = false;
                for k in 0..live.len() {
                    if c.hosts.len() >= target {
                        break;
                    }
                    let candidate = live[(offset + k) % live.len()];
                    if !c.hosts.contains(&candidate) {
                        c.hosts.push(candidate);
                        rep.bytes += c.bytes;
                        rep.duration += self.cluster.network.transfer(c.bytes)
                            + self.cluster.disk.write(c.bytes);
                        added = true;
                    }
                }
                if added {
                    rep.chunks += 1;
                }
            }
        }
        rep
    }

    /// The Table 1 `f` term: average store+retrieve cost per byte, in
    /// seconds. The retrieve half averages local and remote reads weighted
    /// by the expected locality of `replication` replicas on this cluster.
    pub fn f_per_byte(&self) -> f64 {
        let probe = 1u64 << 20;
        let store = self.store_cost(probe).as_secs_f64();
        let p_local = (self.config.replication as f64 / self.cluster.num_nodes() as f64).min(1.0);
        let retrieve = p_local * self.retrieve_cost_local(probe).as_secs_f64()
            + (1.0 - p_local) * self.retrieve_cost_remote(probe).as_secs_f64();
        (store + retrieve) / probe as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartWriter;
    use efind_common::Datum;
    use proptest::prelude::*;

    /// The chunk CRC as it was computed before it streamed: the whole
    /// chunk encoded into one buffer, the flip applied to that buffer.
    fn encoded_crc_whole(records: &[Record], flip: Option<usize>) -> u32 {
        let mut buf = Vec::new();
        for rec in records {
            rec.key.encode_into(&mut buf);
            rec.value.encode_into(&mut buf);
        }
        if let Some(salt) = flip {
            if !buf.is_empty() {
                let pos = salt % buf.len();
                buf[pos] ^= 0x55;
            }
        }
        efind_common::crc32(&buf)
    }

    #[test]
    fn streamed_crc_equals_the_whole_buffer_crc() {
        let kinds = [
            Datum::Null,
            Datum::Bool(true),
            Datum::Int(-7),
            Datum::Float(2.5),
            Datum::Text("chunk".into()),
            Datum::Bytes(vec![9; 13]),
            Datum::List(vec![Datum::Int(1), Datum::Text("x".into())]),
        ];
        let mut chunks: Vec<Vec<Record>> = vec![Vec::new()];
        for (i, key) in kinds.iter().enumerate() {
            chunks.push(vec![Record::new(
                key.clone(),
                kinds[(i + 3) % kinds.len()].clone(),
            )]);
        }
        for len in 2..=kinds.len() {
            chunks.push(
                (0..len)
                    .map(|i| Record::new(kinds[i].clone(), kinds[len - 1 - i].clone()))
                    .collect(),
            );
        }
        for records in &chunks {
            assert_eq!(encoded_crc(records, None), encoded_crc_whole(records, None));
            let total: u64 = records.iter().map(Record::size_bytes).sum();
            for salt in 0..total.max(1) as usize + 3 {
                assert_eq!(
                    encoded_crc(records, Some(salt)),
                    encoded_crc_whole(records, Some(salt)),
                    "salt {salt} over {records:?}"
                );
            }
        }
    }

    fn dfs() -> Dfs {
        Dfs::new(
            Cluster::edbt_testbed(),
            DfsConfig {
                chunk_size_bytes: 1024,
                replication: 3,
                seed: 1,
            },
        )
    }

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(i as i64, Datum::Bytes(vec![0u8; 100])))
            .collect()
    }

    /// How a table case writes its file.
    enum Cut {
        /// `write_file` under this `chunk_size_bytes`.
        Bytes(u64),
        /// `write_file_with_chunks` with this chunk count.
        Count(usize),
    }

    /// Chunk boundaries decide task counts and with them virtual time, so
    /// they are pinned: `(records, bytes, crc)` per chunk, captured from the
    /// writer that sized every record twice and grew each chunk by doubling.
    #[test]
    fn chunk_boundaries_bytes_and_crcs_are_pinned() {
        // A record with an `n`-byte payload takes 9 + 5 + n bytes.
        let mixed: Vec<usize> = (0..40).map(|i| (i * 37) % 211).collect();
        type Chunks = Vec<(usize, u64, u32)>;
        let cases: Vec<(&str, Cut, Vec<usize>, Chunks)> = vec![
            ("empty", Cut::Bytes(1024), vec![], vec![]),
            ("empty by count", Cut::Count(4), vec![], vec![]),
            (
                "one oversized record",
                Cut::Bytes(1024),
                vec![5000],
                vec![(1, 5014, 3600109240)],
            ),
            (
                "oversized in the middle",
                Cut::Bytes(1024),
                vec![100, 5000, 100, 100],
                vec![
                    (1, 114, 2974995253),
                    (1, 5014, 636423255),
                    (2, 228, 2783793062),
                ],
            ),
            (
                "exact fit",
                Cut::Bytes(1024),
                vec![114; 16],
                vec![(8, 1024, 3769763407), (8, 1024, 4285993906)],
            ),
            (
                "one byte over",
                Cut::Bytes(1023),
                vec![114; 16],
                vec![
                    (7, 896, 3175665804),
                    (7, 896, 362115758),
                    (2, 256, 1461423478),
                ],
            ),
            (
                "more chunks than records",
                Cut::Count(10),
                vec![10, 20, 30],
                vec![(1, 24, 2605343295), (1, 34, 313966716), (1, 44, 3438446551)],
            ),
            (
                "zero chunks asked",
                Cut::Count(0),
                vec![10, 20, 30],
                vec![(3, 102, 1868281062)],
            ),
            (
                "mixed by size",
                Cut::Bytes(512),
                mixed.clone(),
                vec![
                    (5, 440, 1057900103),
                    (4, 385, 1879419439),
                    (2, 309, 1793077573),
                    (4, 429, 269250485),
                    (2, 331, 2511072708),
                    (4, 473, 423681615),
                    (4, 432, 2299283182),
                    (3, 396, 225182858),
                    (4, 413, 259585278),
                    (2, 323, 3618341166),
                    (4, 457, 1002709121),
                    (2, 345, 233017847),
                ],
            ),
            (
                "mixed by count",
                Cut::Count(7),
                mixed,
                vec![
                    (7, 664, 4243310087),
                    (4, 470, 1486287050),
                    (5, 576, 1946268044),
                    (5, 657, 817927957),
                    (6, 659, 2033551507),
                    (5, 582, 506581585),
                    (5, 663, 3837839770),
                    (3, 462, 361419991),
                ],
            ),
        ];
        for (label, cut, payloads, expected) in cases {
            let data: Vec<Record> = payloads
                .iter()
                .enumerate()
                .map(|(i, n)| Record::new(i as i64, Datum::Bytes(vec![i as u8; *n])))
                .collect();
            let mut d = dfs();
            let num_chunks = match cut {
                Cut::Bytes(chunk_size_bytes) => {
                    d.config.chunk_size_bytes = chunk_size_bytes;
                    d.write_file("f", data.clone());
                    None
                }
                Cut::Count(n) => {
                    d.write_file_with_chunks("f", data.clone(), n);
                    Some(n)
                }
            };
            let written = chunks_of(&d, "f");
            let got: Chunks = written.iter().map(|c| (c.0, c.1, c.2)).collect();
            assert_eq!(got, expected, "{label}");
            assert_eq!(d.read_file("f").unwrap(), data, "{label}");

            // The parts write cuts the same chunks however the records are
            // split: into three parts at every pair of positions (empty
            // parts, an oversized record alone or inside a part), and one
            // record a part with empty parts between.
            let n = data.len();
            let mut splits: Vec<Vec<Vec<Record>>> = Vec::new();
            for i in 0..=n {
                for j in i..=n {
                    splits.push(vec![
                        data[..i].to_vec(),
                        data[i..j].to_vec(),
                        data[j..].to_vec(),
                    ]);
                }
            }
            splits.push(
                data.iter()
                    .flat_map(|r| [Vec::new(), vec![r.clone()]])
                    .chain([Vec::new()])
                    .collect(),
            );
            for parts in splits {
                let shape: Vec<usize> = parts.iter().map(Vec::len).collect();
                let parts: Vec<(Vec<Record>, u64)> = parts
                    .into_iter()
                    .map(|p| {
                        let bytes = p.iter().map(Record::size_bytes).sum();
                        (p, bytes)
                    })
                    .collect();
                let copied = copying_write(&d, "f", parts.clone(), num_chunks);
                let meta = d.write_file_parts("f", parts, num_chunks);
                assert_eq!(stored(&d, "f"), copied, "{label}, parts {shape:?}");
                assert_eq!(chunks_of(&d, "f"), written, "{label}, parts {shape:?}");
                assert_eq!(meta.total_records(), n, "{label}, parts {shape:?}");
                assert_eq!(d.read_file("f").unwrap(), data, "{label}, parts {shape:?}");
            }

            // Written from the views of every chunk, the file is the one
            // written from the records.
            if let Some(n) = num_chunks {
                let all: Vec<usize> = (0..written.len()).collect();
                d.write_file_from_chunks("g", "f", &all, n).unwrap();
                let viewed = stored(&d, "g");
                d.write_file_with_chunks("g", data.clone(), n);
                assert_eq!(viewed, stored(&d, "g"), "{label}, from chunk views");
            }
        }
    }

    /// The records of a parts write, handed out a chunk at a time: how
    /// the writer filled each chunk before chunks viewed the parts.
    struct Parts {
        rest: std::vec::IntoIter<(Vec<Record>, u64)>,
        current: std::vec::IntoIter<Record>,
    }

    impl Parts {
        /// The next `len` records, moved into one exactly-sized block.
        fn take(&mut self, len: usize) -> Arc<[Record]> {
            (0..len).map(|_| self.next_record()).collect()
        }

        fn next_record(&mut self) -> Record {
            loop {
                if let Some(rec) = self.current.next() {
                    return rec;
                }
                let (records, _) = self.rest.next().expect("the cuts count only held records");
                self.current = records.into_iter();
            }
        }
    }

    /// A stored chunk: its records, bytes, CRC and hosts.
    type Stored = (Vec<Record>, u64, u32, Vec<NodeId>);

    /// The chunks the copying writer stored for `write_file_parts(name,
    /// parts, num_chunks)` on `d` — each chunk a block its records were
    /// moved into — left unstored: the reference the views are checked
    /// against.
    fn copying_write(
        d: &Dfs,
        name: &str,
        parts: Vec<(Vec<Record>, u64)>,
        num_chunks: Option<usize>,
    ) -> Vec<Stored> {
        let limit = match num_chunks {
            Some(n) => chunk_limit(parts.iter().map(|(_, bytes)| bytes).sum(), n),
            None => d.config.chunk_size_bytes,
        };
        let mut cuts = Cuts::new(limit);
        for (records, bytes) in &parts {
            cuts.part(records.iter(), *bytes);
        }
        let mut parts = Parts {
            rest: parts.into_iter(),
            current: Vec::new().into_iter(),
        };
        let mut placement = Placement::new(
            d.cluster.num_nodes(),
            d.config.seed ^ fx_hash_bytes(name.as_bytes()),
        );
        cuts.finish()
            .into_iter()
            .map(|(len, bytes)| {
                let records = parts.take(len);
                let crc = encoded_crc(&records[..], None);
                let hosts = placement.pick_avoiding(d.config.replication, &d.dead);
                (records.to_vec(), bytes, crc, hosts)
            })
            .collect()
    }

    /// Every chunk of `name` as stored.
    fn stored(d: &Dfs, name: &str) -> Vec<Stored> {
        d.files[name]
            .iter()
            .map(|c| {
                (
                    c.records.chunk().to_vec(),
                    c.bytes,
                    chunk_crc(c),
                    c.hosts.clone(),
                )
            })
            .collect()
    }

    /// A file written from another's chunk views — some chunks, out of
    /// order, as the adaptive re-plan writes the splits it sends back — is
    /// the file written from their records, and keeps them when the source
    /// is deleted or overwritten.
    #[test]
    fn a_file_written_from_chunk_views_outlives_its_source() {
        let mut d = dfs();
        let meta = d.write_file_with_chunks("src", records(60), 10);
        assert_eq!(meta.chunks.len(), 10);
        let order = [7, 2, 3, 4, 5, 6, 8, 9];
        let want: Vec<Record> = order
            .iter()
            .flat_map(|&i| d.read_chunk("src", i).unwrap().to_vec())
            .collect();
        d.write_file_with_chunks("views", want.clone(), 6);
        let expected = stored(&d, "views");
        d.write_file_from_chunks("views", "src", &order, 6).unwrap();
        assert_eq!(stored(&d, "views"), expected);
        // No record was copied: every piece is a range of the source's one
        // part, and a chunk of eight records spans two source chunks.
        let source = Arc::clone(&d.files["src"][0].records.pieces[0].part);
        let views = &d.files["views"];
        assert!(views
            .iter()
            .flat_map(|c| c.records.pieces.iter())
            .all(|piece| Arc::ptr_eq(&piece.part, &source)));
        assert!(views.iter().any(|c| c.records.pieces.len() > 1));
        drop(source);

        d.write_file("src", records(3));
        assert_eq!(stored(&d, "views"), expected, "source overwritten");
        d.delete("src");
        assert_eq!(stored(&d, "views"), expected, "source deleted");
        assert_eq!(d.read_file("views").unwrap(), want);
        // A source chunk that cannot be read fails the write.
        assert!(d.write_file_from_chunks("again", "src", &[0], 1).is_err());
        assert!(!d.exists("again"));
    }

    #[test]
    fn a_stored_part_holds_no_spare_capacity() {
        let mut d = dfs();
        let slack = |n: usize| {
            let mut v = Vec::with_capacity(2 * n + 3);
            v.extend(records(n));
            v
        };
        d.write_file("whole", slack(40));
        d.write_file_with_chunks("counted", slack(40), 3);
        let parts = [0, 17, 5, 0, 30]
            .into_iter()
            .map(|n| {
                let p = slack(n);
                let bytes = p.iter().map(Record::size_bytes).sum();
                (p, bytes)
            })
            .collect();
        d.write_file_parts("parts", parts, Some(4));
        for name in ["whole", "counted", "parts"] {
            for c in &d.files[name] {
                for piece in c.records.pieces.iter() {
                    assert_eq!(piece.part.capacity(), piece.part.len(), "{name}");
                    assert!(piece.len() > 0, "{name}: an empty piece");
                }
            }
        }
    }

    /// A payload length: mostly small, now and then one that makes its
    /// record larger than a small chunk limit.
    fn payload() -> impl Strategy<Value = usize> {
        prop_oneof![9 => 0usize..120, 1 => 1500usize..3000]
    }

    /// A task's output: its writer's first block capacity and its
    /// records' payload lengths, some tasks empty.
    fn task() -> impl Strategy<Value = (usize, Vec<usize>)> {
        let payloads = prop_oneof![
            1 => Just(Vec::new()),
            3 => prop::collection::vec(payload(), 0..1000),
        ];
        (0usize..1500, payloads)
    }

    /// `records` emitted into a writer whose first block holds `first`.
    fn written(first: usize, records: &[Record]) -> PartWriter {
        let mut w = PartWriter::with_capacity(first);
        records.iter().cloned().for_each(|r| w.push(r));
        w
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The file written from the tasks' writer blocks is the file
        /// written from their concatenated records — records, chunk
        /// boundaries, bytes, CRCs and hosts — wherever the boundaries fall
        /// among the blocks, by size or by count, with oversized records
        /// and empty tasks. So is the file written from some tasks' blocks
        /// followed by the chunks of a file holding the others' records.
        #[test]
        fn a_file_written_from_writer_blocks_is_the_file_written_from_its_records(
            tasks in prop::collection::vec(task(), 0..4),
            chunk_size_bytes in 200u64..6000,
            num_chunks in proptest::option::of(0usize..40),
            split in 0usize..4,
            source_chunks in 0usize..9,
        ) {
            let mut d = dfs();
            d.config.chunk_size_bytes = chunk_size_bytes;
            let mut next = 0i64;
            let tasks: Vec<(usize, Vec<Record>)> = tasks
                .into_iter()
                .map(|(first, payloads)| {
                    let records = payloads
                        .into_iter()
                        .map(|n| {
                            next += 1;
                            Record::new(next, Datum::Bytes(vec![next as u8; n]))
                        })
                        .collect();
                    (first, records)
                })
                .collect();
            let all: Vec<Record> = tasks.iter().flat_map(|(_, r)| r.iter().cloned()).collect();
            match num_chunks {
                Some(n) => d.write_file_with_chunks("f", all.clone(), n),
                None => d.write_file("f", all.clone()),
            };
            let want = stored(&d, "f");

            let parts = |tasks: &[(usize, Vec<Record>)]| -> Vec<(Vec<Record>, u64)> {
                tasks
                    .iter()
                    .flat_map(|(first, records)| written(*first, records).into_parts())
                    .collect()
            };
            d.write_file_parts("f", parts(&tasks), num_chunks);
            prop_assert_eq!(&stored(&d, "f"), &want);

            let (head, tail) = tasks.split_at(split.min(tasks.len()));
            let rest: Vec<Record> = tail.iter().flat_map(|(_, r)| r.iter().cloned()).collect();
            d.write_file_with_chunks("src", rest, source_chunks);
            d.write_file_parts_then("f", parts(head), "src", num_chunks).unwrap();
            prop_assert_eq!(&stored(&d, "f"), &want);
            prop_assert_eq!(d.read_file("f").unwrap(), all);
        }
    }

    /// Writing a file from its own chunks after some parts keeps its
    /// records, and a missing source fails the write.
    #[test]
    fn a_file_can_be_written_from_parts_then_its_own_chunks() {
        let mut d = dfs();
        let data = records(30);
        d.write_file("f", data.clone());
        let want = stored(&d, "f");
        d.write_file("f", data[10..].to_vec());
        let head = written(0, &data[..10]).into_parts().collect();
        d.write_file_parts_then("f", head, "f", None).unwrap();
        assert_eq!(stored(&d, "f"), want);
        assert!(d
            .write_file_parts_then("h", Vec::new(), "nope", None)
            .is_err());
        assert!(!d.exists("h"));
    }

    /// `(records, bytes, crc, hosts)` of every chunk of `name`.
    fn chunks_of(d: &Dfs, name: &str) -> Vec<(usize, u64, u32, Vec<NodeId>)> {
        d.files[name]
            .iter()
            .map(|c| (c.records.len, c.bytes, chunk_crc(c), c.hosts.clone()))
            .collect()
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = dfs();
        let data = records(50);
        let meta = d.write_file("input", data.clone());
        assert!(meta.chunks.len() > 1, "should split: {}", meta.chunks.len());
        assert_eq!(meta.total_records(), 50);
        assert_eq!(d.read_file("input").unwrap(), data);
    }

    #[test]
    fn chunks_respect_size_limit() {
        let mut d = dfs();
        let meta = d.write_file("input", records(50));
        for c in &meta.chunks {
            assert!(c.bytes <= 1024 + 200, "chunk of {} bytes", c.bytes);
            assert_eq!(c.hosts.len(), 3);
        }
    }

    #[test]
    fn chunk_order_preserved() {
        let mut d = dfs();
        let data = records(30);
        let meta = d.write_file("input", data.clone());
        let mut collected = Vec::new();
        for c in &meta.chunks {
            collected.extend(d.read_chunk("input", c.index).unwrap().iter().cloned());
        }
        assert_eq!(collected, data);
    }

    #[test]
    fn target_chunk_count() {
        let mut d = dfs();
        let meta = d.write_file_with_chunks("input", records(100), 10);
        assert!(
            (8..=12).contains(&meta.chunks.len()),
            "{} chunks",
            meta.chunks.len()
        );
    }

    #[test]
    fn missing_files_error() {
        let d = dfs();
        assert!(d.stat("nope").is_err());
        assert!(d.read_chunk("nope", 0).is_err());
        assert!(d.read_file("nope").is_err());
    }

    #[test]
    fn overwrite_replaces() {
        let mut d = dfs();
        d.write_file("f", records(10));
        d.write_file("f", records(2));
        assert_eq!(d.read_file("f").unwrap().len(), 2);
    }

    #[test]
    fn delete_and_exists() {
        let mut d = dfs();
        d.write_file("f", records(1));
        assert!(d.exists("f"));
        d.delete("f");
        assert!(!d.exists("f"));
        d.delete("f"); // no-op
    }

    #[test]
    fn empty_file_is_stattable() {
        let mut d = dfs();
        let meta = d.write_file("empty", vec![]);
        assert_eq!(meta.chunks.len(), 0);
        assert!(d.exists("empty"));
        assert_eq!(d.read_file("empty").unwrap().len(), 0);
    }

    #[test]
    fn crash_strips_replicas_and_tracks_health() {
        let mut d = dfs();
        let meta = d.write_file("input", records(50));
        let victim = meta.chunks[0].hosts[0];
        assert_eq!(d.live_replicas("input", 0).unwrap(), 3);
        assert_eq!(d.under_replicated_count(), 0);
        let lost = d.crash_node(victim);
        assert!(lost.is_empty(), "3x replication survives one crash");
        assert!(d.is_dead(victim));
        assert_eq!(d.live_replicas("input", 0).unwrap(), 2);
        assert!(d.under_replicated_count() > 0);
        // Idempotent: crashing the same node again changes nothing.
        assert!(d.crash_node(victim).is_empty());
        // Reads still work off the surviving replicas.
        assert_eq!(d.read_file("input").unwrap().len(), 50);
    }

    #[test]
    fn re_replication_restores_the_target() {
        let mut d = dfs();
        let meta = d.write_file("input", records(50));
        let victim = meta.chunks[0].hosts[0];
        d.crash_node(victim);
        let before = d.under_replicated_count();
        assert!(before > 0);
        let rep = d.re_replicate();
        assert_eq!(rep.chunks, before);
        assert!(rep.bytes > 0);
        assert!(!rep.duration.is_zero());
        assert_eq!(d.under_replicated_count(), 0);
        // New replicas never land on the dead node; a repeat sweep is a
        // no-op; double-run determinism.
        for c in &d.stat("input").unwrap().chunks {
            assert!(!c.hosts.contains(&victim));
            let mut hosts = c.hosts.clone();
            hosts.sort();
            hosts.dedup();
            assert_eq!(hosts.len(), c.hosts.len(), "duplicate replica host");
        }
        assert_eq!(d.re_replicate(), ReReplication::default());
    }

    #[test]
    fn losing_every_replica_is_a_diagnosable_data_loss() {
        let mut d = Dfs::new(
            Cluster::edbt_testbed(),
            DfsConfig {
                chunk_size_bytes: 1024,
                replication: 1,
                seed: 1,
            },
        );
        let meta = d.write_file("input", records(50));
        let victim = meta.chunks[0].hosts[0];
        let lost = d.crash_node(victim);
        assert!(lost.contains(&("input".to_owned(), 0)), "{lost:?}");
        let err = d.read_chunk("input", 0).unwrap_err();
        assert!(
            matches!(err, Error::DataLoss(_)),
            "expected DataLoss, got {err}"
        );
        assert!(err.to_string().contains("input"));
        assert!(d.read_chunk_shared("input", 0).is_err());
        assert!(d.read_file("input").is_err());
        assert_eq!(d.live_replicas("input", 0).unwrap(), 0);
        // A lost chunk cannot be re-replicated — there is no source copy.
        d.re_replicate();
        assert_eq!(d.live_replicas("input", 0).unwrap(), 0);
    }

    #[test]
    fn writes_after_a_crash_avoid_the_dead_node() {
        let mut d = dfs();
        d.crash_node(NodeId(3));
        let meta = d.write_file("fresh", records(50));
        for c in &meta.chunks {
            assert!(!c.hosts.contains(&NodeId(3)), "{:?}", c.hosts);
        }
    }

    #[test]
    fn costs_scale_with_bytes() {
        let d = dfs();
        assert!(d.store_cost(1 << 20) < d.store_cost(1 << 24));
        assert!(d.retrieve_cost_local(1 << 20) < d.retrieve_cost_remote(1 << 20));
        let f = d.f_per_byte();
        assert!(f > 0.0 && f < 1e-6, "f = {f} s/byte");
    }

    #[test]
    fn quiet_corruption_plan_checks_nothing() {
        let mut d = dfs();
        let data = records(50);
        d.write_file("input", data.clone());
        d.set_corruption(CorruptionPlan::new(9));
        assert!(d.corrupt_replicas("input", 0).is_empty());
        assert!(d.chunk_integrity("input", 0).is_none());
        assert!(d.quarantine_corrupt_replicas("input", 0).is_empty());
        assert_eq!(d.read_file("input").unwrap(), data);
    }

    #[test]
    fn partial_corruption_serves_clean_data_and_prices_rereads() {
        let mut d = dfs();
        let data = records(50);
        d.write_file("input", data.clone());
        // High per-replica rate: at 3x replication, some chunk ends up
        // with 1–2 corrupt copies but a clean one surviving somewhere.
        let mut hit = None;
        for seed in 0..64 {
            d.set_corruption(CorruptionPlan::new(seed).chunks(0.4));
            let stat = d.stat("input").unwrap();
            let per_chunk: Vec<_> = stat
                .chunks
                .iter()
                .map(|c| (c.index, c.hosts.len(), d.corrupt_replicas("input", c.index)))
                .collect();
            // Need a seed where some chunk is partially corrupt and no
            // chunk lost every replica (reads must still succeed).
            if per_chunk.iter().any(|(_, hosts, bad)| bad.len() >= *hosts) {
                continue;
            }
            if let Some((idx, _, bad)) = per_chunk
                .into_iter()
                .find(|(_, hosts, bad)| !bad.is_empty() && bad.len() < *hosts)
            {
                hit = Some((seed, idx, bad));
                break;
            }
        }
        let (seed, chunk, bad) = hit.expect("some seed produces partial corruption");
        d.set_corruption(CorruptionPlan::new(seed).chunks(0.4));
        // The read still succeeds (clean replica exists) and returns the
        // exact written records — corruption costs time, never answers.
        let mut collected = Vec::new();
        for c in &d.stat("input").unwrap().chunks {
            collected.extend(d.read_chunk("input", c.index).unwrap().iter().cloned());
        }
        assert_eq!(collected, data);
        let integ = d.chunk_integrity("input", chunk).unwrap();
        assert_eq!(integ.corrupt, bad);
        assert!(!integ.reread_cost.is_zero());
        // Quarantine drops the bad replicas; re-replication restores the
        // target from the clean copy.
        let q = d.quarantine_corrupt_replicas("input", chunk);
        assert_eq!(q, bad);
        assert!(d.live_replicas("input", chunk).unwrap() < 3);
        // Repair on a corruption-free DFS state (the plan stays pure, so
        // fresh hosts may draw corrupt again; quiet it for the assert).
        d.set_corruption(CorruptionPlan::none());
        let rep = d.re_replicate();
        assert!(rep.chunks >= 1);
        assert_eq!(d.live_replicas("input", chunk).unwrap(), 3);
    }

    #[test]
    fn all_replicas_corrupt_is_a_diagnosable_data_corruption() {
        let mut d = dfs();
        d.write_file("input", records(50));
        d.set_corruption(CorruptionPlan::new(1).chunks(1.0));
        let err = d.read_chunk("input", 0).unwrap_err();
        assert!(
            matches!(err, Error::DataCorruption(_)),
            "expected DataCorruption, got {err}"
        );
        let msg = err.to_string();
        assert!(msg.contains("input") && msg.contains("chunk 0"), "{msg}");
        assert!(d.read_chunk_shared("input", 0).is_err());
        assert!(d.read_file("input").is_err());
        // All-corrupt chunks are not quarantined: there is no clean
        // replica to keep, and the read path already fails fast.
        assert!(d.quarantine_corrupt_replicas("input", 0).is_empty());
        assert_eq!(d.live_replicas("input", 0).unwrap(), 3);
    }

    #[test]
    fn verification_off_serves_without_checking() {
        let mut d = dfs();
        let data = records(20);
        d.write_file("input", data.clone());
        d.set_corruption(CorruptionPlan::new(1).chunks(1.0).without_verification());
        // Undetected by construction: reads pass, integrity reports are
        // empty. The analyzer warns about this configuration (EF018).
        assert_eq!(d.read_file("input").unwrap(), data);
        assert!(d.corrupt_replicas("input", 0).is_empty());
    }
}
