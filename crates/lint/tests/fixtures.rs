//! Fixture-corpus tests: one known-bad snippet per rule (L003, L004, L006,
//! L007) plus a waived variant, asserting exact diagnostic codes through
//! the library and exit status through the `efind-lint` binary, and the
//! clippy gate's fixture crate kept on the workspace's lint table.

use std::path::{Path, PathBuf};
use std::process::Command;

use efind_lint::{scan_paths, LintCode};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// `(fixture path under bad/ and waived/, codes the bad variant emits)`.
const CASES: &[(&str, &[LintCode])] = &[
    ("crates/cluster/src/chaos.rs", &[LintCode::L003]),
    ("crates/core/src/l004.rs", &[LintCode::L004]),
    ("crates/dfs/src/l006.rs", &[LintCode::L006]),
    ("crates/core/src/l007.rs", &[LintCode::L007]),
];

fn scan_one(variant: &str, rel: &str) -> efind_lint::LintReport {
    let root = fixtures_root().join(variant);
    let file = root.join(rel);
    assert!(file.is_file(), "missing fixture {}", file.display());
    scan_paths(&root, &[file]).expect("fixture scan failed")
}

#[test]
fn bad_fixtures_emit_exact_codes() {
    for (rel, expected) in CASES {
        let report = scan_one("bad", rel);
        let mut active: Vec<LintCode> = report.active().map(|f| f.code).collect();
        active.sort();
        active.dedup();
        assert_eq!(&active, expected, "codes for bad/{rel}");
        assert!(!report.is_passing(), "bad/{rel} must fail the gate");
    }
}

#[test]
fn waived_fixtures_pass_but_still_report() {
    for (rel, expected) in CASES {
        let report = scan_one("waived", rel);
        assert!(
            report.is_passing(),
            "waived/{rel} must pass, got:\n{}",
            report.to_text()
        );
        // Every waived variant still *reports* its findings, with the
        // justification attached — waivers are visible, not silent.
        for code in *expected {
            let f = report
                .findings
                .iter()
                .find(|f| f.code == *code)
                .unwrap_or_else(|| panic!("waived/{rel} lost its {code} finding"));
            let reason = f.waived.as_deref().unwrap_or_default();
            assert!(!reason.is_empty(), "waived/{rel} {code} has no reason");
        }
    }
}

fn run_binary(variant: &str, json: bool) -> (i32, String) {
    let root = fixtures_root().join(variant);
    let files: Vec<String> = CASES
        .iter()
        .map(|(rel, _)| root.join(rel).to_string_lossy().into_owned())
        .collect();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_efind-lint"));
    cmd.arg("--root").arg(&root);
    if json {
        cmd.arg("--json");
    }
    let out = cmd.args(&files).output().expect("efind-lint did not run");
    (
        out.status.code().expect("no exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn clean_statstore_idiom_has_no_findings() {
    // The cross-job statstore pattern — job-boundary file I/O, ordered
    // iteration, registered counters, arithmetic-only hot loops — must be
    // invisible to every rule, L006 and L007 in particular.
    let report = scan_one("clean", "crates/core/src/statstore_io.rs");
    assert!(
        report.findings.is_empty(),
        "statstore idiom must be lint-clean:\n{}",
        report.to_text()
    );
}

#[test]
fn binary_fails_on_bad_corpus() {
    let (code, stdout) = run_binary("bad", false);
    assert_eq!(code, 1, "bad corpus must exit 1:\n{stdout}");
    for rule in ["L003", "L004", "L006", "L007"] {
        assert!(
            stdout.contains(&format!("error[{rule}]")),
            "{rule} missing:\n{stdout}"
        );
    }
}

#[test]
fn binary_passes_on_waived_corpus() {
    let (code, stdout) = run_binary("waived", false);
    assert_eq!(code, 0, "waived corpus must exit 0:\n{stdout}");
    assert!(stdout.contains("0 un-waived finding(s)"), "{stdout}");
}

#[test]
fn binary_json_mode_reports_findings() {
    let (code, stdout) = run_binary("bad", true);
    assert_eq!(code, 1);
    assert!(stdout.trim_start().starts_with('{'), "not JSON:\n{stdout}");
    assert!(stdout.contains("\"code\": \"L003\""), "{stdout}");
    assert!(stdout.contains("\"waived\": null"), "{stdout}");
    let (code, stdout) = run_binary("waived", true);
    assert_eq!(code, 0);
    assert!(stdout.contains("\"active\": 0"), "{stdout}");
}

#[test]
fn workspace_scan_skips_fixture_corpus() {
    // Walking up from the lint crate: the repo root is two levels above
    // the manifest dir. The full-workspace scan must ignore the fixture
    // corpus, or the seeded bad files would fail the real gate.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
        .to_path_buf();
    let report = efind_lint::scan_workspace(&repo_root).expect("workspace scan");
    assert!(
        !report.findings.iter().any(|f| f.file.contains("fixtures")),
        "fixture findings leaked into the workspace scan"
    );
    assert!(
        report.is_passing(),
        "workspace must be lint-clean:\n{}",
        report.to_text()
    );
}

#[test]
fn clippy_gate_fixture_carries_the_workspace_lint_table() {
    // The gate's fixture crate is a workspace of its own and cannot
    // inherit the root's lint table, so it carries a copy; the copy must
    // not drift, or CI would gate a policy the workspace does not use.
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
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root");
    let root = clippy_table(&repo_root.join("Cargo.toml"));
    assert!(root.iter().any(|l| l.starts_with("iter_over_hash_type")));
    assert_eq!(
        clippy_table(&fixtures_root().join("clippy/Cargo.toml")),
        root
    );
}
