// Fixture: the same accumulation, justified (exact dyadic values).
use std::collections::HashMap;

pub fn sum_load(loads: &HashMap<u64, f64>) -> f64 {
    let mut total = 0.0f64;
    #[expect(
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        reason = "loads are summed; see the float waiver below for why order is safe"
    )]
    for v in loads.values() {
        // efind-lint: allow(float-accum, loads are multiples of 0.25 so addition is exact and order-free)
        total += *v;
    }
    total
}
