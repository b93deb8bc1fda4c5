//! Each item breaks one determinism rule; the comment names the lint that
//! must catch it.

use std::collections::HashMap;

/// A wall-clock read: `clippy::disallowed_types`.
pub fn elapsed_nanos() -> u128 {
    std::time::Instant::now().elapsed().as_nanos()
}

/// Hash iteration in `for` form: `clippy::iter_over_hash_type`.
pub fn render(stats: &HashMap<String, u64>) -> String {
    let mut out = String::new();
    for (k, v) in stats {
        out.push_str(&format!("{k}={v}\n"));
    }
    out
}

/// Hash iteration in method form: `clippy::disallowed_methods`.
pub fn names(stats: &HashMap<String, u64>) -> Vec<&String> {
    stats.keys().collect()
}

/// The panic scope the runner and the query compiler declare.
pub mod runner {
    #![deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]

    /// A panic on an error path: `clippy::unwrap_used`.
    pub fn first(fields: &[String]) -> &String {
        fields.first().unwrap()
    }
}

/// A float sum in hash order with its iteration waived: the order of the
/// additions is the hasher's, so the rounding is too. Hash iteration is
/// forbidden, and an `#[expect]` of a forbidden lint is an error of its
/// own (`E0453`). That error stops its compile before any lint runs, so
/// this breach sits in the test build, which `--all-targets` compiles
/// apart from the library.
#[cfg(test)]
mod waived_hash_sum {
    use std::collections::HashMap;

    pub fn mean_load(loads: &HashMap<u64, f64>) -> f64 {
        let mut total = 0.0f64;
        #[expect(
            clippy::iter_over_hash_type,
            reason = "loads are summed; no order reaches the output"
        )]
        for (_, v) in loads {
            total += *v;
        }
        total / loads.len().max(1) as f64
    }
}
