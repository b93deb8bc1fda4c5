//! Persistent cross-job statistics: the re-optimization store.
//!
//! The adaptive runtime (§4) measures real selectivities, lookup
//! redundancy, and index serve times mid-job — and then throws them away
//! when the job ends. This module keeps them: operator subtrees are
//! fingerprinted over their structure (operator shape, index
//! identities, key kinds, placement — never plan-node addresses), and at
//! each job boundary the harvested [`OperatorStatsEstimate`] is appended
//! to a bounded previous-N-runs history per fingerprint. On the next
//! compile, [`crate::runtime::EFindRuntime`] prefers the measured history
//! over the `statsx` estimates whenever a fingerprint matches, so run 2
//! of a repeated workload picks the Fig. 8 winning strategy up front with
//! no mid-job replan.
//!
//! Contract:
//!
//! - **Deterministic.** Entries live in a [`BTreeMap`] keyed by
//!   fingerprint; histories evict oldest-first at a fixed capacity; the
//!   serialized form is a pure function of the store's content. A
//!   double run writes byte-identical store files.
//! - **Off the hot path.** Store I/O happens only at job boundaries
//!   ([`StatStore::load`] / [`StatStore::save`]); nothing here reads a
//!   clock or draws randomness.
//! - **Never a panic.** The on-disk form is one CRC-guarded text file
//!   (`efind-common::crc`). A missing file starts empty; a corrupt or
//!   version-bumped file is rejected with a [`LoadStatus`] the runtime
//!   turns into a named counter and an estimate fallback.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use efind_common::crc::crc32;
use efind_common::hash::{fx_hash_bytes, mix64};

use crate::cost::{CostEnv, OperatorStatsEstimate, Placement};
use crate::jobconf::BoundOperator;
use crate::plan::{doubled_n1_probe, OperatorPlan};
use crate::statsx::tokens;

/// On-disk schema version; bump on any incompatible format change so old
/// binaries reject new stores cleanly instead of misparsing them.
pub const STORE_VERSION: u32 = 1;

/// Default bound on the per-fingerprint run history.
pub const DEFAULT_HISTORY: usize = 8;

/// A stable 64-bit hash of an operator subtree's neutral shape.
///
/// Two [`BoundOperator`]s that would compile to the same plan search
/// space produce the same fingerprint across processes and plan
/// re-constructions; anything that changes the search space (operator
/// name, index set, key kinds, placement, volatility) changes it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:016x})", self.0)
    }
}

fn placement_label(p: Placement) -> &'static str {
    match p {
        Placement::Head => "head",
        Placement::Body => "body",
        Placement::Tail => "tail",
    }
}

/// Fingerprints one bound operator at its placement.
///
/// The hash covers a canonical text rendering of that structure, so it is
/// invariant under re-binding the same operator/accessor structure and
/// under anything address- or allocation-dependent.
pub fn fingerprint_operator(bound: &BoundOperator, placement: Placement) -> Fingerprint {
    let mut text = String::with_capacity(128);
    let _ = write!(
        text,
        "efind-fp v1|op={}|arity={}|placement={}|volatile={}",
        bound.op.name(),
        bound.indices.len(),
        placement_label(placement),
        bound.volatile
    );
    text.push_str("|keys=");
    for (i, kind) in bound.key_kinds.iter().enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(kind.label());
    }
    for accessor in &bound.indices {
        let scheme = accessor.partition_scheme();
        let _ = write!(
            text,
            "|idx={}:{}:{}:{}:{}",
            accessor.name(),
            accessor.key_kind().label(),
            scheme.is_some(),
            scheme.map(|s| s.num_partitions()).unwrap_or(0),
            accessor.deterministic()
        );
    }
    Fingerprint(mix64(fx_hash_bytes(text.as_bytes())))
}

/// Fingerprints a concrete plan *under* an operator shape: the shape hash
/// mixed with the access order and per-index strategy labels. Distinct
/// strategies for the same shape yield distinct plan fingerprints.
pub fn fingerprint_plan(shape: Fingerprint, plan: &OperatorPlan) -> u64 {
    let mut text = String::with_capacity(8 * plan.choices.len());
    for choice in &plan.choices {
        let _ = write!(text, "{}:{};", choice.index, choice.strategy.label());
    }
    mix64(shape.0 ^ mix64(fx_hash_bytes(text.as_bytes())))
}

/// One completed run's observation for a fingerprint: the plan that
/// executed and the statistics harvested under it. `statsx` charges
/// lookup counters before caching/dedup, so the stats are comparable
/// across plans — a run executed under any strategy lets the planner
/// re-derive the winner.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// [`fingerprint_plan`] of the plan the run executed (0 if unknown).
    pub plan_fp: u64,
    /// Statistics observed during the run.
    pub stats: OperatorStatsEstimate,
}

/// How a [`StatStore::load`] resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadStatus {
    /// No file at the path; started empty.
    Created,
    /// File parsed and CRC-verified.
    Loaded,
    /// File present but unreadable (bad header, CRC mismatch, or parse
    /// failure); started empty. Surfaced as `efind.statstore.corrupt`.
    Corrupt,
    /// File carries a different schema version; started empty. Surfaced
    /// as `efind.statstore.version.mismatch`.
    VersionMismatch,
}

/// The bounded, versioned cross-job statistics store.
#[derive(Clone, Debug)]
pub struct StatStore {
    capacity: usize,
    entries: BTreeMap<u64, Vec<RunRecord>>,
}

impl StatStore {
    /// Creates an empty store keeping at most `capacity` runs per
    /// fingerprint (floored at 1).
    pub fn new(capacity: usize) -> Self {
        StatStore {
            capacity: capacity.max(1),
            entries: BTreeMap::new(),
        }
    }

    /// The per-fingerprint history bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct fingerprints with history.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no fingerprint has history.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends one run's observation, evicting the oldest run beyond the
    /// capacity bound (deterministic ring-buffer discipline).
    pub fn record(&mut self, shape: Fingerprint, plan_fp: u64, stats: OperatorStatsEstimate) {
        let runs = self.entries.entry(shape.0).or_default();
        runs.push(RunRecord { plan_fp, stats });
        while runs.len() > self.capacity {
            runs.remove(0);
        }
    }

    /// The recorded history for a shape, oldest first.
    pub fn runs(&self, shape: Fingerprint) -> &[RunRecord] {
        self.entries.get(&shape.0).map_or(&[], Vec::as_slice)
    }

    /// The measured estimate the planner should prefer for `shape`: the
    /// element-wise mean over the history's runs whose index arity
    /// matches the most recent run (an arity change means the operator
    /// was rebound; stale-arity runs are ignored, not averaged in).
    pub fn measured(&self, shape: Fingerprint) -> Option<OperatorStatsEstimate> {
        let runs = self.entries.get(&shape.0)?;
        let arity = runs.last()?.stats.indices.len();
        let same: Vec<&OperatorStatsEstimate> = runs
            .iter()
            .filter(|r| r.stats.indices.len() == arity)
            .map(|r| &r.stats)
            .collect();
        OperatorStatsEstimate::mean_of(&same)
    }

    /// Serializes to the single-file text form:
    ///
    /// ```text
    /// efind-statstore v1 crc=<crc32 of body, hex>
    /// cap=<capacity>
    /// fp <fingerprint hex>
    ///   run plan=<plan fingerprint hex> n1=… s1=… spre=… spost=… smap=…
    ///     idx nik=… sik=… siv=… tj=… miss=… theta=… scheme=… shuffleable=… partitions=… fail=…
    /// ```
    ///
    /// The body reuses the `statsx` catalog token vocabulary, so the same
    /// f64 `Display` round-trip guarantees apply.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = String::new();
        let _ = writeln!(body, "cap={}", self.capacity);
        for (fp, runs) in &self.entries {
            let _ = writeln!(body, "fp {fp:016x}");
            for run in runs {
                let _ = writeln!(
                    body,
                    "  run plan={:016x} {}",
                    run.plan_fp,
                    tokens::op_line(&run.stats)
                );
                for idx in &run.stats.indices {
                    let _ = writeln!(body, "    idx {}", tokens::idx_line(idx));
                }
            }
        }
        let mut out = format!(
            "efind-statstore v{} crc={:08x}\n",
            STORE_VERSION,
            crc32(body.as_bytes())
        );
        out.push_str(&body);
        out.into_bytes()
    }

    /// Parses [`to_bytes`](Self::to_bytes) output. The version token is
    /// checked before the CRC so a schema bump reports
    /// [`LoadStatus::VersionMismatch`], not `Corrupt`; any header, CRC,
    /// or token failure reports `Corrupt`. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<StatStore, LoadStatus> {
        let text = std::str::from_utf8(bytes).map_err(|_| LoadStatus::Corrupt)?;
        let (header, body) = text.split_once('\n').ok_or(LoadStatus::Corrupt)?;
        let mut toks = header.split_whitespace();
        if toks.next() != Some("efind-statstore") {
            return Err(LoadStatus::Corrupt);
        }
        let version = toks.next().ok_or(LoadStatus::Corrupt)?;
        if version != "v1" {
            return if version
                .strip_prefix('v')
                .is_some_and(|n| n.parse::<u32>().is_ok())
            {
                Err(LoadStatus::VersionMismatch)
            } else {
                Err(LoadStatus::Corrupt)
            };
        }
        let want = toks
            .next()
            .and_then(|t| t.strip_prefix("crc="))
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or(LoadStatus::Corrupt)?;
        if toks.next().is_some() || crc32(body.as_bytes()) != want {
            return Err(LoadStatus::Corrupt);
        }
        Self::parse_body(body).ok_or(LoadStatus::Corrupt)
    }

    fn parse_body(body: &str) -> Option<StatStore> {
        let mut store = StatStore::new(DEFAULT_HISTORY);
        let mut cur_fp: Option<u64> = None;
        for line in body.lines() {
            if let Some(rest) = line.strip_prefix("cap=") {
                store.capacity = rest.parse::<usize>().ok()?.max(1);
            } else if let Some(rest) = line.strip_prefix("fp ") {
                let fp = u64::from_str_radix(rest.trim(), 16).ok()?;
                store.entries.insert(fp, Vec::new());
                cur_fp = Some(fp);
            } else if let Some(rest) = line.strip_prefix("  run ") {
                let runs = store.entries.get_mut(&cur_fp?)?;
                let mut op = tokens::blank_op();
                let mut plan_fp = None;
                for tok in rest.split_whitespace() {
                    if let Some(p) = tok.strip_prefix("plan=") {
                        plan_fp = Some(u64::from_str_radix(p, 16).ok()?);
                    } else if !tokens::apply_op(&mut op, tok) {
                        return None;
                    }
                }
                runs.push(RunRecord {
                    plan_fp: plan_fp?,
                    stats: op,
                });
            } else if let Some(rest) = line.strip_prefix("    idx ") {
                let run = store.entries.get_mut(&cur_fp?)?.last_mut()?;
                let mut idx = tokens::blank_idx();
                for tok in rest.split_whitespace() {
                    if !tokens::apply_idx(&mut idx, tok) {
                        return None;
                    }
                }
                run.stats.indices.push(idx);
            } else if !line.trim().is_empty() {
                return None;
            }
        }
        Some(store)
    }

    /// Loads a store from `path`. Missing file → empty store with
    /// [`LoadStatus::Created`]; unreadable or rejected file → empty store
    /// with the rejecting status. Only called at job boundaries.
    pub fn load(path: &Path, capacity: usize) -> (StatStore, LoadStatus) {
        match fs::read(path) {
            Err(_) => (StatStore::new(capacity), LoadStatus::Created),
            Ok(bytes) => match StatStore::from_bytes(&bytes) {
                Ok(store) => (store, LoadStatus::Loaded),
                Err(status) => (StatStore::new(capacity), status),
            },
        }
    }

    /// Writes the store to `path`. Only called at job boundaries.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_bytes())
    }
}

/// A measured-stats injection the compiler threads to the analyzer: which
/// operator got store-served statistics, plus the EF023 probe values
/// (best full-enumeration cost and the same cost with `N1` doubled).
#[derive(Clone, Debug)]
pub struct MeasuredOp {
    /// Operator name the measured stats replaced estimates for.
    pub operator: String,
    /// The shape fingerprint that matched.
    pub fingerprint: Fingerprint,
    /// The measured statistics served to the planner.
    pub stats: OperatorStatsEstimate,
    /// Best full-enumeration plan cost under the measured stats.
    pub full_est_secs: f64,
    /// Best full-enumeration plan cost with `N1` doubled — must not be
    /// cheaper (EF023 monotonicity probe).
    pub est_at_double_n1_secs: f64,
}

impl MeasuredOp {
    /// Builds the injection record, computing both probe costs.
    pub fn probe(
        operator: &str,
        fingerprint: Fingerprint,
        stats: &OperatorStatsEstimate,
        env: &CostEnv,
        placement: Placement,
    ) -> MeasuredOp {
        let (full_est_secs, est_at_double_n1_secs) = doubled_n1_probe(stats, env, placement);
        MeasuredOp {
            operator: operator.to_owned(),
            fingerprint,
            stats: stats.clone(),
            full_est_secs,
            est_at_double_n1_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::IndexStatsEstimate;
    use crate::plan::{forced_plan, Strategy};

    fn stats(n1: f64, theta: f64) -> OperatorStatsEstimate {
        OperatorStatsEstimate {
            n1,
            s1: 100.0,
            spre: 40.0,
            spost: 60.0,
            smap: 80.0,
            indices: vec![IndexStatsEstimate {
                nik: 1.0,
                sik: 8.0,
                siv: 120.0,
                tj_secs: 1.0e-3,
                miss_ratio: 0.75,
                theta,
                has_partition_scheme: true,
                shuffleable: true,
                partitions: 16,
                failure_rate: 0.01,
            }],
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let mut store = StatStore::new(4);
        store.record(Fingerprint(0xAB), 7, stats(1000.0, 3.0));
        store.record(Fingerprint(0xAB), 9, stats(2000.0, 4.0));
        store.record(Fingerprint(0x02), 1, stats(500.0, 1.0));
        let bytes = store.to_bytes();
        let back = StatStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.capacity(), 4);
        assert_eq!(back.len(), 2);
        assert_eq!(back.runs(Fingerprint(0xAB)).len(), 2);
        assert_eq!(back.runs(Fingerprint(0xAB))[1].plan_fp, 9);
        assert_eq!(bytes, back.to_bytes());
    }

    #[test]
    fn eviction_is_oldest_first_at_capacity() {
        let mut store = StatStore::new(2);
        for i in 0..5 {
            store.record(Fingerprint(1), i, stats(1000.0 + i as f64, 2.0));
        }
        let runs = store.runs(Fingerprint(1));
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].plan_fp, 3);
        assert_eq!(runs[1].plan_fp, 4);
    }

    #[test]
    fn default_history_ring_evicts_across_the_eighth_run() {
        // Pins the ring discipline at the shipped DEFAULT_HISTORY = 8:
        // the 8th run fills the ring without eviction, the 9th evicts
        // exactly the oldest entry, and the order survives persistence.
        let mut store = StatStore::new(DEFAULT_HISTORY);
        for i in 0..DEFAULT_HISTORY as u64 {
            store.record(Fingerprint(7), i, stats(1000.0 + i as f64, 2.0));
        }
        assert_eq!(store.runs(Fingerprint(7)).len(), DEFAULT_HISTORY);
        assert_eq!(store.runs(Fingerprint(7))[0].plan_fp, 0);

        store.record(Fingerprint(7), 8, stats(2000.0, 2.0));
        assert_eq!(store.runs(Fingerprint(7)).len(), DEFAULT_HISTORY);
        assert_eq!(store.runs(Fingerprint(7))[0].plan_fp, 1);

        store.record(Fingerprint(7), 9, stats(2001.0, 2.0));
        let plan_fps: Vec<u64> = store
            .runs(Fingerprint(7))
            .iter()
            .map(|r| r.plan_fp)
            .collect();
        assert_eq!(plan_fps, (2..=9).collect::<Vec<u64>>());

        let back = StatStore::from_bytes(&store.to_bytes()).unwrap();
        let restored: Vec<u64> = back
            .runs(Fingerprint(7))
            .iter()
            .map(|r| r.plan_fp)
            .collect();
        assert_eq!(restored, plan_fps);
    }

    #[test]
    fn measured_averages_matching_arity_only() {
        let mut store = StatStore::new(8);
        store.record(Fingerprint(1), 0, stats(1000.0, 2.0));
        store.record(Fingerprint(1), 0, stats(3000.0, 4.0));
        let m = store.measured(Fingerprint(1)).unwrap();
        assert!((m.n1 - 2000.0).abs() < 1e-9);
        assert!((m.indices[0].theta - 3.0).abs() < 1e-9);
        // A rebound operator (different arity) invalidates older runs.
        let mut rebound = stats(9000.0, 5.0);
        rebound.indices.push(rebound.indices[0].clone());
        store.record(Fingerprint(1), 0, rebound);
        let m = store.measured(Fingerprint(1)).unwrap();
        assert_eq!(m.indices.len(), 2);
        assert!((m.n1 - 9000.0).abs() < 1e-9);
    }

    #[test]
    fn corrupt_bytes_rejected_not_panicked() {
        let store = {
            let mut s = StatStore::new(2);
            s.record(Fingerprint(5), 5, stats(100.0, 1.0));
            s
        };
        let good = store.to_bytes();
        // Bit-flip one body byte: CRC catches it.
        let mut flipped = good.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x40;
        assert_eq!(
            StatStore::from_bytes(&flipped).unwrap_err(),
            LoadStatus::Corrupt
        );
        // Truncation: either the header or the CRC fails.
        assert_eq!(
            StatStore::from_bytes(&good[..good.len() / 2]).unwrap_err(),
            LoadStatus::Corrupt
        );
        assert_eq!(StatStore::from_bytes(b"").unwrap_err(), LoadStatus::Corrupt);
        assert_eq!(
            StatStore::from_bytes(b"not a store\n").unwrap_err(),
            LoadStatus::Corrupt
        );
    }

    #[test]
    fn version_bump_rejected_cleanly() {
        let store = StatStore::new(2);
        let mut bytes = store.to_bytes();
        let pos = bytes.iter().position(|&b| b == b'1').unwrap();
        bytes[pos] = b'2';
        assert_eq!(
            StatStore::from_bytes(&bytes).unwrap_err(),
            LoadStatus::VersionMismatch
        );
    }

    #[test]
    fn plan_fingerprints_distinct_per_strategy() {
        let shape = Fingerprint(0xD00D);
        let caps = [(true, true)];
        let fps: Vec<u64> = [
            Strategy::Baseline,
            Strategy::Cache,
            Strategy::Repartition,
            Strategy::IndexLocality,
        ]
        .iter()
        .map(|&s| fingerprint_plan(shape, &forced_plan(&caps, s)))
        .collect();
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "strategies {i} and {j} collide");
            }
        }
    }
}
