#![warn(missing_docs)]

//! Distributed file system simulation.
//!
//! Plays the role HDFS plays in the paper's testbed: files are split into
//! chunks (64 MB, replication 3 in the paper; both configurable here),
//! chunks are placed on nodes, and MapReduce schedules map tasks near chunk
//! replicas. The cost of "storing and retrieving a byte from the
//! distributed file system" is the `f` term of Table 1, used by the
//! re-partitioning strategy's `Cost_result` (Eq. 3).
//!
//! Records are kept in memory — the simulation models *costs*, not
//! capacity — but chunking, replica placement, and locality are faithful.
//!
//! Node crashes are faithful too: [`Dfs::crash_node`] strips a dead node's
//! replicas, [`Dfs::under_replicated`] exposes per-chunk replica health,
//! and [`Dfs::re_replicate`] restores the replication target in the
//! background (priced on the network/disk models). A chunk whose last
//! replica dies is permanently lost — reads fail with a `DataLoss` error.
//!
//! A task writes its output into a [`PartWriter`], whose blocks never move:
//! the output file keeps them as its parts, and a file written from another
//! file's chunks views their parts, so no write copies a record.

pub mod file;
pub mod placement;
pub mod writer;

pub use file::{Chunk, ChunkIter, ChunkMeta, Dfs, DfsConfig, DfsFile, ReReplication, SharedChunk};
pub use writer::PartWriter;
