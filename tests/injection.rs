//! The injection contract over compositions of every layer: all five
//! layers armed at once and seed-drawn masks, the quiet composition, and
//! properties over random seeds and masks.
//!
//! The harness and the contract live in `common/layers.rs`; each layer
//! alone, and the combinations the gray-failure and integrity scenarios
//! pin, are checked by that layer's suite (`fault_injection`,
//! `node_crash`, `integrity`, `netsplit`, `fault_props`). Set
//! `EFIND_SEEDS` to a comma-separated list of integers (decimal or 0x-hex)
//! to sweep other seeds, as `scripts/ci.sh` does.

mod common;

use common::layers::{
    assert_quiet_matches_goldens, check_cell, check_cells, equals_plain, num_nodes, pick,
    pinned_cells, plain_run, Composition, ALL, CORRUPTION, CRASHES, EVERY_MODE, MODES,
    TAIL_DYNAMIC, WORK,
};
use common::seeds_from;
use proptest::prelude::*;

/// The composed masks a seed runs: all five layers, and two drawn from
/// the seed.
fn composed_masks(seed: u64) -> Vec<u8> {
    let drawn = |i: &str| 1 + pick(seed, i, ALL as usize) as u8;
    vec![ALL, drawn("mask.0"), drawn("mask.1")]
}

/// The composed matrix: every seed × composed mask × mode cell holds the
/// contract, every layer mechanism does work somewhere, and
/// `Mode::Dynamic` records crashes and partitions in its ledgers.
#[test]
fn composed_matrix_holds_the_contract() {
    let checked = check_cells(pinned_cells(composed_masks, EVERY_MODE));
    let work: Vec<(&str, u64)> = WORK
        .iter()
        .map(|(label, _)| (*label, checked.work(label)))
        .collect();
    println!("work: {work:?}");
    checked.assert_work(&work.iter().map(|(label, _)| *label).collect::<Vec<_>>());
    assert!(
        checked.dynamic_records(|j| !j.recovery.is_empty()),
        "no Dynamic cell recorded a crash"
    );
    assert!(
        checked.dynamic_records(|j| !j.partition.is_empty()),
        "no Dynamic cell recorded a partition"
    );
}

/// The reduce-phase re-plan (Fig. 10(b)) under shuffle corruption and
/// crashes: every pinned cell of the tail workload under `Mode::Dynamic`
/// holds the contract, and its first job — the map phase and the split
/// reduce phase — verifies its shuffle and lists its crashes as
/// `Runner::finish` does for any job.
#[test]
fn reduce_phase_replan_cells_hold_the_contract() {
    assert!(
        plain_run(TAIL_DYNAMIC[0]).replanned,
        "the tail workload must re-plan its tail after the first reduce wave"
    );
    let masks = |_| vec![CORRUPTION, CRASHES, CORRUPTION | CRASHES];
    let checked = check_cells(pinned_cells(masks, TAIL_DYNAMIC));
    checked.assert_work(&["work.corruption.shuffle", "work.crashes"]);
}

/// The quiet cell: with every layer configured but quiet, the golden
/// workload reproduces the hotpath goldens exactly.
#[test]
fn quiet_cell_matches_hotpath_goldens() {
    assert_quiet_matches_goldens(&Composition::quiet(7, num_nodes()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Quiet is plain for any seed: under every mode, all five layers
    /// configured but quiet change no observable.
    #[test]
    fn quiet_layers_change_no_observable(seed in any::<u64>()) {
        equals_plain(&Composition::quiet(seed, num_nodes()), EVERY_MODE)
            .map_err(|e| TestCaseError::fail(format!("seed={seed:#x}: {e}")))?;
    }

    /// The armed checks beyond the pinned seeds: any seed, any nonempty
    /// mask, any mode.
    #[test]
    fn random_cells_hold_the_contract(
        seed in any::<u64>(),
        mask in 1u8..=ALL,
        m in 0usize..MODES.len(),
    ) {
        check_cell(seed, mask, m).map_err(TestCaseError::fail)?;
    }
}

/// A set seed override is read exactly, as the seeds are spelled in the
/// sources: `_` separators and spaces are allowed, and a set variable
/// never falls back to the pinned seeds (it once did whenever no token
/// parsed, so `0xEF1D_0001` silently swept the pinned matrix).
#[test]
fn seed_override_selects_exactly_the_listed_seeds() {
    let pinned = [0xEF1D_0001, 0xC0FF_EE42];
    let seeds = |value| seeds_from("EFIND_SEEDS", value, &pinned);
    assert_eq!(seeds(None), pinned);
    assert_eq!(seeds(Some("0xEF1D_0001")), [0xEF1D_0001]);
    assert_eq!(seeds(Some("41")), [41]);
    assert_eq!(seeds(Some(" 53 ")), [53]);
    assert_eq!(
        seeds(Some("0xEF1D0010, 0x5EED_5EED,7")),
        [0xEF1D_0010, 0x5EED_5EED, 7]
    );
}

/// An empty token is a typo, not a request for the pinned seeds.
#[test]
#[should_panic(expected = "EFIND_SEEDS: \"\" is not a seed")]
fn seed_override_with_an_empty_token_panics() {
    seeds_from("EFIND_SEEDS", Some("1,,2"), &[3]);
}

/// So is a token that is no integer.
#[test]
#[should_panic(expected = "EFIND_SEEDS: \"0xEF1G\" is not a seed")]
fn seed_override_with_a_bad_token_panics() {
    seeds_from("EFIND_SEEDS", Some("1,0xEF1G"), &[3]);
}
