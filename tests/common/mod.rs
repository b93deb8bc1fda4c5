//! What the integration suites mean by "the observable", said once: the
//! labeled-value vector they compare, the two fingerprints that stand in
//! for a counter map and an output file, the seed-list override, and the
//! pinned values more than one suite checks against. Re-pinning a golden
//! is an edit here and nowhere else. [`layers`] is the harness the
//! injection suites share.

#![expect(
    dead_code,
    reason = "each test binary compiles this module and uses its own subset"
)]

pub mod layers;

use efind::Strategy;
use efind_common::fx_hash_bytes;
use efind_dfs::Dfs;
use efind_mapreduce::JobStats;
use efind_workloads::multi::MultiConfig;

/// Labeled virtual observables; whole vectors are compared at once so a
/// mismatch prints every value next to its expectation.
pub type Observables = Vec<(String, u64)>;

pub fn obs(label: impl Into<String>, value: u64) -> (String, u64) {
    (label.into(), value)
}

/// Stable fingerprint of a counter map: hash of the sorted
/// `name=value` lines.
pub fn counter_fingerprint(stats: &JobStats) -> u64 {
    use std::fmt::Write as _;
    let mut text = String::new();
    for (k, v) in stats.counters.iter_sorted() {
        let _ = writeln!(text, "{k}={v}");
    }
    fx_hash_bytes(text.as_bytes())
}

/// Stable fingerprint of a DFS file's full contents, in chunk order.
pub fn file_fingerprint(dfs: &Dfs, name: &str) -> u64 {
    let mut buf = Vec::new();
    for rec in dfs.read_file(name).expect("output file missing") {
        buf.extend_from_slice(&rec.encode());
    }
    fx_hash_bytes(&buf)
}

/// A suite's pinned seed matrix, overridable by setting `var` to a
/// comma-separated list of integers, as `scripts/ci.sh` does.
pub fn seeds_from_env(var: &str, pinned: &[u64]) -> Vec<u64> {
    seeds_from(var, std::env::var(var).ok().as_deref(), pinned)
}

/// The seeds `var` set to `value` selects: `pinned` when unset, else the
/// listed ones, comma-separated decimal or `0x`-hex integers with
/// surrounding spaces and `_` digit separators allowed, as the seeds are
/// spelled in the test sources (`0xEF1D_0001`). Panics naming `var` and
/// the token on an empty or unparsable one, so a mistyped override fails
/// instead of sweeping other seeds.
pub fn seeds_from(var: &str, value: Option<&str>, pinned: &[u64]) -> Vec<u64> {
    let Some(list) = value else {
        return pinned.to_vec();
    };
    list.split(',')
        .map(|tok| {
            let digits = tok.trim().replace('_', "");
            match digits.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => digits.parse(),
            }
            .unwrap_or_else(|_| panic!("{var}: {tok:?} is not a seed (decimal or 0x-hex)"))
        })
        .collect()
}

/// The multi-index configuration `tests/hotpath_golden.rs` pins.
pub fn golden_config() -> MultiConfig {
    MultiConfig {
        num_events: 3_000,
        num_users: 200,
        num_ads: 500,
        num_sites: 100,
        site_value_bytes: 200,
        chunks: 30,
        ..MultiConfig::default()
    }
}

/// The pinned observables of [`golden_config`] under a chained strategy
/// (cache) and a shuffle strategy (re-partitioning): what the plain run
/// produces (`hotpath_golden`) and what every injection layer, configured
/// but quiet, must reproduce bit for bit (the quiet cells of `injection`
/// and of each layer's suite).
pub fn multi_index_goldens() -> [(Strategy, Observables); 2] {
    [
        (
            Strategy::Cache,
            vec![
                obs("total.nanos", 117_260_797),
                obs("jobs", 1),
                obs("job0.makespan.nanos", 117_260_797),
                obs("job0.shuffle.bytes", 168_648),
                obs("job0.counters.fingerprint", 3_799_603_285_767_459_785),
                obs("output.records", 961),
                obs("output.fingerprint", 14_711_040_664_649_218_481),
            ],
        ),
        (
            Strategy::Repartition,
            vec![
                obs("total.nanos", 21_230_168),
                obs("jobs", 4),
                obs("job0.makespan.nanos", 7_494_530),
                obs("job0.shuffle.bytes", 330_000),
                obs("job0.counters.fingerprint", 506_267_820_866_738_143),
                obs("output.records", 961),
                obs("output.fingerprint", 14_711_040_664_649_218_481),
            ],
        ),
    ]
}

/// The pinned observables of the plain runner's 200-word, three-reducer
/// word count on the four-node testbed (`hotpath_golden`), which a quiet
/// tenancy mix must reproduce (`tenancy`).
pub const WORDCOUNT_MAKESPAN_NANOS: u64 = 208_274;
pub const WORDCOUNT_SHUFFLE_BYTES: u64 = 3_475;
pub const WORDCOUNT_COUNTER_FP: u64 = 15_743_512_941_036_554_716;
pub const WORDCOUNT_OUTPUT_FP: u64 = 4_377_774_887_622_299_384;
