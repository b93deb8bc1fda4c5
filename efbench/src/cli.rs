//! Command line of the `efbench` binary.
//!
//! ```text
//! efbench --workload W --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//! efbench run [--seed N] [--seconds S] [--out DIR] [--workload W]...
//! efbench compare BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]
//! efbench manifest
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::bench::{self, RunArgs};
use crate::compare;
use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::{Scale, NAMES};

/// Seconds one run measures; `BENCHMARK.json` states the same number.
pub const RUN_SECONDS: u64 = 10;

/// Why each workload exists, in `NAMES` order (one line each, for
/// `BENCHMARK.json`; the README has the long form).
const WHYS: [&str; 7] = [
    "No index at all: DFS read, map, partition, sort/group, reduce. Every core/index optimisation must show no change here.",
    "Uses the DFS the other way round: the tagged-input write is inside the timed section, plus large reduce groups and a 0.3 GB working set.",
    "Map-only join whose keys fit the 1024-entry cache (hit ratio 0.80): the per-lookup framework path and cache hits do the work, index and shuffle do little.",
    "Same layer, opposite regime: working set 100x the cache (hit ratio 0.01), so index serve and cache insert/evict dominate; a hit-path win that taxes misses shows here.",
    "The same lookups routed through a shuffle job with reducer-side dedup: the paper's preferred plan, lowest virtual time, and the simulator's slowest host path.",
    "lookup_hot with faults, a node crash, corruption, partitions and hedging armed: guards the armed paths; the answer must equal the quiet run's.",
    "TPC-H Q9, five indices, a Dynamic then an Optimized run: planner, cost model, compile, re-plan and 240-task schedules matter here and nowhere else.",
];

fn usage(msg: &str) -> ! {
    eprintln!("efbench: {msg}");
    eprintln!(
        "usage: efbench --workload W --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n       \
         efbench run [--seed N] [--seconds S] [--out DIR] [--workload W]...\n       \
         efbench compare BASE.json[,...] NEW.json[,...]\n       \
         efbench manifest\n\
         workloads: {}",
        NAMES.join(" ")
    );
    std::process::exit(2)
}

/// Flags shared by the single-run form and `efbench run`.
struct Flags {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    memory_probe: bool,
    dir: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Flags {
    let mut flags = Flags {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        memory_probe: false,
        dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        // What an untraced run starts its own child with; takes no value.
        if flag == "--memory-probe" {
            flags.memory_probe = true;
            continue;
        }
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value();
                if !NAMES.contains(&w.as_str()) {
                    usage(&format!("unknown workload {w}"));
                }
                flags.workloads.push(w.clone());
            }
            "--seed" => {
                flags.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a whole number"));
            }
            "--seconds" => {
                flags.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .unwrap_or_else(|| usage("--seconds needs a number in (0, 3600]"));
            }
            "--trace" => {
                flags.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                };
            }
            "--trace-dir" | "--out" => flags.dir = Some(PathBuf::from(value())),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    flags
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&parse_flags(&args[1..])),
        Some("compare") => compare_files(&args[1..]),
        Some("manifest") => {
            println!("{}", manifest());
            0
        }
        _ => run_one(&parse_flags(args)),
    }
}

/// The form the harness calls: one workload, one process, one result line.
fn run_one(flags: &Flags) -> i32 {
    let [workload] = flags.workloads.as_slice() else {
        usage("exactly one --workload is needed");
    };
    let args = RunArgs {
        workload: workload.clone(),
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
        scale: Scale::Full,
        trace_dir: flags.dir.clone(),
        probe_exe: std::env::current_exe().ok(),
    };
    if flags.memory_probe {
        return match bench::memory_probe(&args) {
            Ok(probe) => {
                println!("{}", probe.to_json_line());
                0
            }
            Err(e) => {
                eprintln!("efbench: {workload}: {e}");
                1
            }
        };
    }
    match bench::run(&args) {
        Ok(result) => {
            for m in &result.metrics {
                println!("{workload} {} {} {}", m.name, m.value, m.unit);
            }
            for note in &result.notes {
                println!("{workload} # {note}");
            }
            println!("{}", result.to_json_line());
            i32::from(!result.correct())
        }
        Err(e) => {
            eprintln!("efbench: {workload}: {e}");
            1
        }
    }
}

/// Runs every workload, untraced then traced, each in a child process of
/// its own (so peak memory belongs to that workload), and writes
/// `DIR/results.json`.
fn run_all(flags: &Flags) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("efbench: cannot find own executable: {e}");
            return 2;
        }
    };
    let out = flags
        .dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("efbench/out"));
    let workloads: Vec<String> = if flags.workloads.is_empty() {
        NAMES.iter().map(|s| (*s).to_owned()).collect()
    } else {
        flags.workloads.clone()
    };
    let mut members = Vec::new();
    let mut failed = false;
    for workload in &workloads {
        let mut sections = Vec::new();
        let (mut attempted, mut failures) = (0.0, 0.0);
        for (key, trace) in [("end_to_end", "0"), ("per_layer", "1")] {
            let child = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &flags.seed.to_string()])
                .args(["--seconds", &flags.seconds.to_string()])
                .arg("--trace-dir")
                .arg(&out)
                .stderr(Stdio::inherit())
                .output();
            let stdout = match child {
                Ok(child) => String::from_utf8_lossy(&child.stdout).into_owned(),
                Err(e) => {
                    eprintln!("efbench: cannot start child for {workload}: {e}");
                    return 2;
                }
            };
            let mut lines: Vec<&str> = stdout.lines().collect();
            let result = lines.pop().and_then(|l| Value::parse(l).ok());
            for line in lines {
                println!("{line}");
            }
            let Some(result) = result else {
                eprintln!("efbench: {workload} --trace {trace} printed no result");
                failed = true;
                continue;
            };
            attempted += result
                .get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            failures += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            sections.push((
                key.to_owned(),
                result.get("metrics").cloned().unwrap_or(Value::Null),
            ));
        }
        failed |= failures > 0.0;
        let mut parts = vec![
            ("correct".to_owned(), Value::Bool(failures == 0.0)),
            ("attempted".to_owned(), Value::Num(attempted)),
            ("failed".to_owned(), Value::Num(failures)),
        ];
        parts.extend(sections);
        members.push((workload.clone(), Value::Obj(parts)));
    }
    let doc = Value::Obj(vec![
        ("seed".to_owned(), Value::Num(flags.seed as f64)),
        ("seconds".to_owned(), Value::Num(flags.seconds)),
        ("workloads".to_owned(), Value::Obj(members)),
    ]);
    let path = out.join("results.json");
    if let Err(e) =
        std::fs::create_dir_all(&out).and_then(|()| std::fs::write(&path, format!("{doc}\n")))
    {
        eprintln!("efbench: cannot write {}: {e}", path.display());
        return 2;
    }
    println!("wrote {}", path.display());
    i32::from(failed)
}

fn read_side(list: &str) -> Vec<Value> {
    list.split(',')
        .map(|path| {
            let text = std::fs::read_to_string(Path::new(path))
                .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
            Value::parse(&text).unwrap_or_else(|e| usage(&format!("{path}: {e}")))
        })
        .collect()
}

fn compare_files(args: &[String]) -> i32 {
    let [base, new] = args else {
        usage("compare needs two comma-separated lists of results.json files");
    };
    let (rows, failures) = compare::compare(&read_side(base), &read_side(new));
    compare::report(&rows, &failures)
}

/// The text of `BENCHMARK.json`, generated from the metric tables.
pub fn manifest() -> String {
    let s = |text: &str| Value::Str(text.to_owned());
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|i| s(i)).collect());
    let doc = Value::Obj(vec![
        (
            "command".to_owned(),
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "efbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".to_owned(), strings(&["efbench"])),
        ("run_seconds".to_owned(), Value::Num(RUN_SECONDS as f64)),
        (
            "workloads".to_owned(),
            Value::Arr(
                NAMES
                    .iter()
                    .zip(WHYS)
                    .map(|(name, why)| {
                        Value::Obj(vec![
                            ("name".to_owned(), s(name)),
                            ("why".to_owned(), s(why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_owned(),
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::Obj(vec![
                            ("name".to_owned(), s(m.name)),
                            ("unit".to_owned(), s(m.unit)),
                            ("better".to_owned(), s("lower")),
                            ("bound".to_owned(), Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".to_owned(),
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::Obj(vec![
                            ("name".to_owned(), s(m.name)),
                            ("unit".to_owned(), s(m.unit)),
                            ("better".to_owned(), s(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_keeps_within_the_harness_limits() {
        let doc = Value::parse(&manifest()).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(manifest().len() < 64 * 1024);
        for why in WHYS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let Some(Value::Arr(workloads)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        assert!((2..=8).contains(&workloads.len()));
    }
}
