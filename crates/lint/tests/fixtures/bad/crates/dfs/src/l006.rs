// Fixture: float accumulation in a hash iteration that clippy's gate
// waives; the `expect` marks the loop's order as the hasher's.
use std::collections::HashMap;

pub fn mean_load(loads: &HashMap<u64, f64>) -> f64 {
    let mut total = 0.0f64;
    #[expect(
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        reason = "loads are summed; no order reaches the output"
    )]
    for v in loads.values() {
        total += *v;
    }
    total / loads.len().max(1) as f64
}
