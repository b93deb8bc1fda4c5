//! Determinism guarantees checked where they hold: a quiet injection
//! layer draws nothing and computes no checksum, the injection plans draw
//! only through `efind_common::det`, and the clippy gate's crate gates the
//! workspace's own lint table.
//!
//! Counter names are checked by `efind_common::intern` as they are
//! interned, and hash iteration is forbidden by clippy (`Cargo.toml`).

mod common;

use std::path::Path;

use common::layers::{num_nodes, Composition, CORRUPTION, FAULTS, MODES};
use efind::{EFindRuntime, Mode, Strategy};
use efind_common::crc::crcs_by_thread;
use efind_common::det::draws_by_thread;
use efind_workloads::multi::{self, MultiConfig};

/// The calling thread's draws and checksums while `layers` run a job of
/// one chunk and one reducer under `mode`. The runner fans a phase out to
/// worker threads only when it has more than one task, so the job's map
/// and reduce tasks run on the calling thread and are counted here.
fn draws_and_crcs(layers: &Composition, mode: &Mode) -> (u64, u64) {
    let mut s = multi::scenario(&MultiConfig {
        num_events: 300,
        num_users: 30,
        num_ads: 50,
        num_sites: 20,
        site_value_bytes: 64,
        chunks: 1,
        ..MultiConfig::default()
    });
    s.ijob.num_reducers = 1;
    layers.apply(&mut s.efind_config);
    let mut rt = EFindRuntime::with_config(&s.cluster, &mut s.dfs, s.efind_config.clone());
    let (draws, crcs) = (draws_by_thread(), crcs_by_thread());
    rt.run(&s.ijob, mode.clone())
        .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
    (draws_by_thread() - draws, crcs_by_thread() - crcs)
}

/// All five layers configured from a seed but quiet: the plans answer
/// their own quiet checks before any draw, so under every strategy and
/// the adaptive mode the run draws nothing and checksums nothing.
#[test]
fn quiet_layers_draw_nothing_and_compute_no_checksum() {
    for seed in [7, 0xEF1D_0001] {
        let quiet = Composition::quiet(seed, num_nodes());
        for mode in &MODES {
            assert_eq!(
                draws_and_crcs(&quiet, mode),
                (0, 0),
                "seed {seed:#x}, {mode:?}: (draws, checksums) of a quiet run"
            );
        }
    }
}

/// The counts see an armed layer: corruption alone draws and checksums.
#[test]
fn armed_corruption_draws_and_computes_checksums() {
    let layers = Composition::armed(7, CORRUPTION, num_nodes(), 0);
    let (draws, crcs) = draws_and_crcs(&layers, &Mode::Uniform(Strategy::Baseline));
    assert!(draws > 0 && crcs > 0, "draws {draws}, checksums {crcs}");
}

/// Faults alone draw, and compute no checksum.
#[test]
fn armed_faults_draw() {
    let layers = Composition::armed(7, FAULTS, num_nodes(), 0);
    let (draws, crcs) = draws_and_crcs(&layers, &Mode::Uniform(Strategy::Baseline));
    assert!(draws > 0, "no draw with faults armed");
    assert_eq!(crcs, 0, "checksums with only faults armed");
}

/// The files of the injection plans. Each plan decides through
/// `efind_common::det::draw_unit`, a pure function of its seed and the
/// decision's identity.
const INJECTION_FILES: [&str; 4] = [
    "crates/cluster/src/chaos.rs",
    "crates/cluster/src/corrupt.rs",
    "crates/cluster/src/netsplit.rs",
    "crates/core/src/fault.rs",
];

/// Hashers, mixers and generators a plan could draw from instead, each
/// with its own stream that no other plan shares or can reproduce.
const RAW_DRAWS: [&str; 8] = [
    "fx_hash_bytes",
    "fx_hash_datum",
    "mix64",
    "SmallRng",
    "StdRng",
    "thread_rng",
    "seed_from_u64",
    "from_entropy",
];

/// The `(line, name)` of each raw draw `source` names before its
/// `#[cfg(test)]` module, skipping `//` comment lines.
fn raw_draws(source: &str) -> Vec<(usize, &'static str)> {
    source
        .lines()
        .enumerate()
        .take_while(|(_, line)| line.trim() != "#[cfg(test)]")
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
        .flat_map(|(i, line)| {
            line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .filter_map(move |word| RAW_DRAWS.iter().find(|r| **r == word))
                .map(move |name| (i + 1, *name))
        })
        .collect()
}

#[test]
fn injection_plans_draw_only_through_det() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for file in INJECTION_FILES {
        let source = std::fs::read_to_string(root.join(file)).expect(file);
        assert_eq!(raw_draws(&source), [], "{file} draws outside det");
    }
}

/// A plan that mixes its own draw is flagged on every line naming the
/// mixer; comments and the test module are not.
#[test]
fn raw_draw_check_flags_a_hand_rolled_mixer() {
    let chaos = "\
// Raw hash draw inside an injection module.
pub fn should_kill(seed: u64, node: u64) -> bool {
    mix64(seed ^ node) % 100 < 5
}

fn mix64(x: u64) -> u64 {
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}
";
    assert_eq!(raw_draws(chaos), [(3, "mix64"), (6, "mix64")]);
    let exempt = "// mix64 in a comment\n#[cfg(test)]\nmod tests { use rand::rngs::SmallRng; }\n";
    assert_eq!(raw_draws(exempt), []);
}

#[test]
fn clippy_gate_fixture_carries_the_workspace_lint_table() {
    // The gate's crate is a workspace of its own and cannot inherit the
    // root's lint table, so it carries a copy; the copy must not drift,
    // or CI would gate a policy the workspace does not use.
    fn clippy_table(manifest: &Path) -> Vec<String> {
        let text = std::fs::read_to_string(manifest).expect("manifest readable");
        let mut lines = text.lines();
        assert!(
            lines.any(|line| line == "[workspace.lints.clippy]"),
            "no lint table in {}",
            manifest.display()
        );
        lines
            .take_while(|line| !line.trim().is_empty() && !line.starts_with('['))
            .map(|line| line.trim().to_owned())
            .collect()
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let table = clippy_table(&root.join("Cargo.toml"));
    assert!(table.contains(&r#"iter_over_hash_type = "forbid""#.to_owned()));
    assert!(table.contains(&r#"disallowed_methods = "forbid""#.to_owned()));
    assert_eq!(
        clippy_table(&root.join("scripts/clippy-gate/Cargo.toml")),
        table
    );
}
