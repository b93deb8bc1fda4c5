// Fixture: the cross-job statstore idiom, distilled. Job-boundary file
// I/O, CRC-checked parsing, ordered (BTreeMap) iteration over the
// fingerprint entries, a registered load-anomaly counter literal (L004),
// and a measured-history averaging loop — a float sum in data order, not
// hash order (L006), with no per-iteration injection dispatch (L007).
// The scan must report nothing.

use std::collections::BTreeMap;
use std::path::Path;

pub struct Store {
    entries: BTreeMap<u64, Vec<f64>>,
}

impl Store {
    // Job-boundary I/O: one read at attach time; a missing or damaged
    // file degrades to an empty store plus a named counter.
    pub fn load(path: &Path, counters: &mut Counters) -> Store {
        let entries = match std::fs::read(path) {
            Ok(bytes) => match parse(&bytes) {
                Some(entries) => entries,
                None => {
                    counters.add("efind.statstore.corrupt", 1);
                    BTreeMap::new()
                }
            },
            Err(_) => BTreeMap::new(),
        };
        Store { entries }
    }

    // Job-boundary I/O: one write at job end.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut body = String::new();
        for (fp, runs) in &self.entries {
            body.push_str(&format!("fp {fp:016x} runs {}\n", runs.len()));
        }
        std::fs::write(path, body)
    }

    // Hot-path consumer: averaging measured history is pure arithmetic —
    // no injection plan is consulted per iteration.
    pub fn measured(&self, fp: u64) -> Option<f64> {
        let runs = self.entries.get(&fp)?;
        let mut sum = 0.0;
        for run in runs {
            sum += run;
        }
        Some(sum / runs.len().max(1) as f64)
    }
}

fn parse(bytes: &[u8]) -> Option<BTreeMap<u64, Vec<f64>>> {
    let text = std::str::from_utf8(bytes).ok()?;
    let mut entries = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let fp = u64::from_str_radix(parts.next()?, 16).ok()?;
        let runs = parts.map(|t| t.parse().ok()).collect::<Option<Vec<f64>>>()?;
        entries.insert(fp, runs);
    }
    Some(entries)
}

pub struct Counters;

impl Counters {
    pub fn add(&mut self, _name: &str, _delta: i64) {}
}
