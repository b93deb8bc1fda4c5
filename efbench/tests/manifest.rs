//! `BENCHMARK.json` at the repository root is what `efbench manifest`
//! prints.

use efbench::json::Value;

#[test]
fn committed_manifest_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        Value::parse(&committed).unwrap(),
        Value::parse(&efbench::cli::manifest()).unwrap(),
        "regenerate with: cargo run --release --manifest-path efbench/Cargo.toml -- manifest > BENCHMARK.json"
    );
}
