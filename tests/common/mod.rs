//! What the integration suites mean by "the observable", said once: the
//! labeled-value vector they compare, the two fingerprints that stand in
//! for a counter map and an output file, the `EFIND_*_SEEDS` override, and
//! the pinned values more than one suite checks against. Re-pinning a
//! golden is an edit here and nowhere else.

#![expect(
    dead_code,
    reason = "each test binary compiles this module and uses its own subset"
)]

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
/// comma-separated list of integers (decimal or 0x-hex), as
/// `scripts/ci.sh` does. An unset or unparsable variable keeps `pinned`.
pub fn seeds_from_env(var: &str, pinned: &[u64]) -> Vec<u64> {
    let parsed: Vec<u64> = std::env::var(var)
        .unwrap_or_default()
        .split(',')
        .filter_map(|tok| {
            let tok = tok.trim();
            tok.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| tok.parse())
                .ok()
        })
        .collect();
    if parsed.is_empty() {
        pinned.to_vec()
    } else {
        parsed
    }
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
/// produces (`hotpath_golden`) and what every configured-but-quiet
/// injection layer must reproduce bit for bit (the `zero_*` cells of
/// `fault_injection`, `node_crash` and `integrity`).
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
