//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run --release -p efind-bench --bin figures            # all, full scale
//! cargo run --release -p efind-bench --bin figures -- --quick # scaled down
//! cargo run --release -p efind-bench --bin figures -- --only fig11a
//! cargo run --release -p efind-bench --bin figures -- --csv out/   # also write CSV series
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let only: Option<String> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1).cloned());
    let csv_dir: Option<String> = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1).cloned());
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create csv directory {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let ids: Vec<&str> = match &only {
        Some(id) => vec![id.as_str()],
        None => efind_bench::ALL_FIGURES.to_vec(),
    };

    for id in ids {
        #[expect(
            clippy::disallowed_types,
            reason = "progress display on stderr only; never charged to virtual time"
        )]
        let start = std::time::Instant::now();
        match efind_bench::run_figure(id, quick) {
            Ok(figure) => {
                println!("{}", figure.render());
                eprintln!(
                    "[{} generated in {:.1}s wall]",
                    id,
                    start.elapsed().as_secs_f64()
                );
                if let Some(dir) = &csv_dir {
                    let path = format!("{dir}/{id}.csv");
                    let mut csv = String::from("group,config,virtual_seconds,replanned\n");
                    for (group, rows) in &figure.groups {
                        for m in rows {
                            csv.push_str(&format!(
                                "{group},{},{:.6},{}\n",
                                m.label, m.secs, m.replanned
                            ));
                        }
                    }
                    if let Err(e) = std::fs::write(&path, csv) {
                        eprintln!("cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            Err(e) => {
                eprintln!("error generating {id}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
