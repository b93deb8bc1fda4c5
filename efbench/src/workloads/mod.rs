//! The seven workloads. Each one is a pre-built scenario plus one complete
//! (enhanced) job that an iteration runs on it; the table in the README
//! says why each exists.

mod lookup;
mod q9;
mod scanjoin;
mod wc;

use std::time::Instant;

use efind_cluster::Cluster;
use efind_common::{Error, Result};
use efind_dfs::Dfs;
use efind_mapreduce::JobStats;

use crate::digest::Digest;
use crate::pipeline::Layers;
use crate::trace::Tracer;

/// Workload names, in the order `efbench run` goes through them.
pub const NAMES: [&str; 7] = [
    "wc_shuffle",
    "scanjoin_write",
    "lookup_hot",
    "lookup_cold",
    "lookup_repart",
    "lookup_armed",
    "q9_adaptive",
];

/// Input size: the benchmark's, or a hundredth of it for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the README states.
    Full,
    /// Inputs small enough for a debug-build test to run in a second.
    Tiny,
}

impl Scale {
    /// `full` at full scale, `tiny` in the smoke test.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// Host time of the three set-up layers, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Input generation (`efind-workloads` generators, the word stream).
    pub generate_ns: u64,
    /// Index construction (`KvStore::build`).
    pub index_build_ns: u64,
    /// Loading inputs into the DFS.
    pub dfs_load_ns: u64,
}

/// Runs `f`, adding its host time to `slot`.
pub fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot += started.elapsed().as_nanos() as u64;
    out
}

/// What one iteration reports besides its output.
pub struct Ran {
    /// Virtual makespan of the job, seconds.
    pub virtual_s: f64,
    /// Statistics of every constituent MapReduce job, in order.
    pub jobs: Vec<JobStats>,
    /// Mid-job plan changes (adaptive runs only).
    pub replans: u32,
}

/// A prepared scenario and the job an iteration runs on it.
pub trait Workload {
    /// Untimed work an iteration needs first, where the job mutates its
    /// inputs (a fresh DFS after crashes and quarantines).
    fn prepare(&mut self) {}

    /// The timed section: one complete job through the program's own
    /// entry point.
    fn run(&mut self) -> Result<Ran>;

    /// The same job issued as the bench's own call sequence, with spans
    /// around each layer boundary and replays afterwards.
    fn run_traced(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> Result<Ran>;

    /// The simulated cluster the job runs on.
    fn cluster(&self) -> &Cluster;

    /// The DFS the job reads and writes.
    fn dfs(&self) -> &Dfs;

    /// The DFS file an iteration writes its answer to.
    fn output_file(&self) -> &str;

    /// Digest of the correct output, computed in the bench without the
    /// framework.
    fn reference(&self) -> Digest;

    /// Checks and layer metrics that need runs of their own, made once
    /// outside the timed loop of a traced run.
    fn sweep(&mut self, _layers: &mut Layers) -> Result<()> {
        Ok(())
    }
}

/// Builds workload `name` from `seed`: input generation, DFS load, index
/// build and catalog warm-up.
pub fn setup(
    name: &str,
    seed: u64,
    scale: Scale,
    times: &mut SetupTimes,
) -> Result<Box<dyn Workload>> {
    use lookup::Variant;
    Ok(match name {
        "wc_shuffle" => Box::new(wc::WordCount::setup(seed, scale, times)),
        "scanjoin_write" => Box::new(scanjoin::ScanJoin::setup(seed, scale, times)),
        "lookup_hot" => Box::new(lookup::Lookup::setup(Variant::Hot, seed, scale, times)?),
        "lookup_cold" => Box::new(lookup::Lookup::setup(Variant::Cold, seed, scale, times)?),
        "lookup_repart" => Box::new(lookup::Lookup::setup(Variant::Repart, seed, scale, times)?),
        "lookup_armed" => Box::new(lookup::Lookup::setup(Variant::Armed, seed, scale, times)?),
        "q9_adaptive" => Box::new(q9::Q9::setup(seed, scale, times)?),
        other => {
            return Err(Error::InvalidConfig(format!(
                "unknown workload {other}; expected one of {NAMES:?}"
            )))
        }
    })
}

/// Digest of DFS file `name`, read chunk by chunk in place.
pub fn file_digest(dfs: &Dfs, name: &str) -> Result<Digest> {
    let mut digest = Digest::default();
    for chunk in dfs.stat(name)?.chunks {
        for rec in dfs.read_chunk(name, chunk.index)? {
            digest.add(rec);
        }
    }
    Ok(digest)
}

/// Sums every counter of `jobs` whose name ends in `suffix`.
pub fn counter_sum(jobs: &[JobStats], suffix: &str) -> i64 {
    jobs.iter()
        .flat_map(|j| j.counters.iter_sorted())
        .filter(|(name, _)| name.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}
