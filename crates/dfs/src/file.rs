//! File namespace, chunking, cost accounting, and chunk integrity.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::vec;

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

struct StoredChunk {
    hosts: Vec<NodeId>,
    bytes: u64,
    /// Shared so map tasks can read a chunk without copying it
    /// ([`Dfs::read_chunk_shared`]).
    records: Arc<[Record]>,
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
    *c.crc.get_or_init(|| encoded_crc(&c.records, None))
}

/// CRC-32 over the concatenated record encodings, fed record by record
/// from one reused buffer. `flip` simulates the payload a reader fetches
/// from a corrupt replica: the byte at `salt % total` XOR-perturbed, where
/// `total` is the summed [`Record::size_bytes`] — the encoded length —
/// which CRC-32 detects with certainty.
fn encoded_crc(records: &[Record], flip: Option<usize>) -> u32 {
    // The flip's offset from the start of the record being encoded.
    let mut pos = flip.and_then(|salt| {
        let total: u64 = records.iter().map(Record::size_bytes).sum();
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
    fn part(&mut self, records: &[Record], bytes: u64) {
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

/// The records of a parts write, handed out a chunk at a time.
struct Parts {
    rest: vec::IntoIter<(Vec<Record>, u64)>,
    current: vec::IntoIter<Record>,
}

impl Parts {
    /// The next `len` records, moved into one exactly-sized block.
    fn take(&mut self, len: usize) -> Arc<[Record]> {
        while self.current.len() == 0 {
            match self.rest.next() {
                Some((records, _)) => self.current = records.into_iter(),
                None => break,
            }
        }
        if self.current.len() >= len {
            // One part holds the chunk: an exact-length iterator, so one
            // allocation and a straight move.
            return self.current.by_ref().take(len).collect();
        }
        // A chunk across parts: still exact-length, each record pulled
        // from the part that holds it.
        (0..len).map(|_| self.next_record()).collect()
    }

    fn next_record(&mut self) -> Record {
        loop {
            if let Some(rec) = self.current.next() {
                return rec;
            }
            let (records, _) = self
                .rest
                .next()
                .expect("the cuts count only records the parts hold");
            self.current = records.into_iter();
        }
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
        let mut rest = records.into_iter();
        self.write_chunks(name, cuts.finish(), |len| rest.by_ref().take(len).collect())
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
        let mut rest = records.into_iter();
        self.write_chunks(name, cuts.finish(), |len| rest.by_ref().take(len).collect())
    }

    /// Writes the records of `parts`, in order, as `name`: the file
    /// [`Dfs::write_file`] — or [`Dfs::write_file_with_chunks`] when
    /// `num_chunks` is set — writes from their concatenation, without
    /// concatenating them. Each part comes with its records'
    /// `Record::size_bytes` summed, which a job's tasks know already; only
    /// a part that a chunk boundary falls inside is sized record by record,
    /// and each record moves once, into its chunk.
    pub fn write_file_parts(
        &mut self,
        name: &str,
        parts: Vec<(Vec<Record>, u64)>,
        num_chunks: Option<usize>,
    ) -> DfsFile {
        let limit = match num_chunks {
            Some(n) => chunk_limit(parts.iter().map(|(_, bytes)| bytes).sum(), n),
            None => self.config.chunk_size_bytes,
        };
        let mut cuts = Cuts::new(limit);
        for (records, bytes) in &parts {
            debug_assert_eq!(
                records.iter().map(Record::size_bytes).sum::<u64>(),
                *bytes,
                "a part's bytes are its records' sizes summed"
            );
            cuts.part(records, *bytes);
        }
        let mut parts = Parts {
            rest: parts.into_iter(),
            current: Vec::new().into_iter(),
        };
        self.write_chunks(name, cuts.finish(), |len| parts.take(len))
    }

    /// Stores a file whose chunks hold `cuts` — `(records, bytes)` each, in
    /// order — and whose records `chunk(len)` moves into a chunk's shared
    /// block `len` at a time, placing replicas deterministically.
    fn write_chunks(
        &mut self,
        name: &str,
        cuts: Vec<(usize, u64)>,
        mut chunk: impl FnMut(usize) -> Arc<[Record]>,
    ) -> DfsFile {
        let mut placement = Placement::new(
            self.cluster.num_nodes(),
            self.config.seed ^ fx_hash_bytes(name.as_bytes()),
        );
        // Write boundary: when the integrity layer is armed, checksum each
        // chunk as it is sealed so read boundaries have something to
        // verify against. Quiet runs skip this entirely (the lazy cell
        // covers files that predate an installed plan).
        let checksum_on_write = self.verifies_chunks();
        // An empty file still exists in the namespace with zero chunks.
        let chunks: Vec<StoredChunk> = cuts
            .into_iter()
            .map(|(len, bytes)| {
                let records = chunk(len);
                let crc = OnceLock::new();
                if checksum_on_write {
                    let _ = crc.set(encoded_crc(&records, None));
                }
                StoredChunk {
                    hosts: placement.pick_avoiding(self.config.replication, &self.dead),
                    bytes,
                    records,
                    crc,
                }
            })
            .collect();
        let meta = DfsFile {
            name: name.to_owned(),
            chunks: chunks
                .iter()
                .enumerate()
                .map(|(index, c)| ChunkMeta {
                    index,
                    bytes: c.bytes,
                    records: c.records.len(),
                    hosts: c.hosts.clone(),
                })
                .collect(),
        };
        self.files.insert(name.to_owned(), chunks);
        meta
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
                    records: c.records.len(),
                    hosts: c.hosts.clone(),
                })
                .collect(),
        })
    }

    /// Reads the records of one chunk.
    pub fn read_chunk(&self, name: &str, chunk: usize) -> Result<&[Record]> {
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
        Ok(&c.records[..])
    }

    /// Reads one chunk as a shared handle — a refcount bump, no record
    /// copies. Map tasks stream their input straight off shared chunk
    /// storage instead of materializing a private `Vec` first.
    pub fn read_chunk_shared(&self, name: &str, chunk: usize) -> Result<Arc<[Record]>> {
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
        Ok(c.records.clone())
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
        Ok(chunks
            .iter()
            .flat_map(|c| c.records.iter().cloned())
            .collect())
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
            encoded_crc(&c.records, Some(host.0 as usize))
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

    /// Nodes declared dead so far, in crash order.
    pub fn dead_nodes(&self) -> &[NodeId] {
        &self.dead
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
    use efind_common::Datum;

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
                let parts = parts
                    .into_iter()
                    .map(|p| {
                        let bytes = p.iter().map(Record::size_bytes).sum();
                        (p, bytes)
                    })
                    .collect();
                let meta = d.write_file_parts("f", parts, num_chunks);
                assert_eq!(chunks_of(&d, "f"), written, "{label}, parts {shape:?}");
                assert_eq!(meta.total_records(), n, "{label}, parts {shape:?}");
                assert_eq!(d.read_file("f").unwrap(), data, "{label}, parts {shape:?}");
            }
        }
    }

    /// `(records, bytes, crc, hosts)` of every chunk of `name`.
    fn chunks_of(d: &Dfs, name: &str) -> Vec<(usize, u64, u32, Vec<NodeId>)> {
        d.files[name]
            .iter()
            .map(|c| (c.records.len(), c.bytes, chunk_crc(c), c.hosts.clone()))
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
        assert_eq!(d.dead_nodes(), &[victim]);
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
