//! Human-readable formatting helpers for reports and the figure harness.

/// Formats a duration in seconds adaptively (µs/ms/s).
pub fn human_secs(secs: f64) -> String {
    if secs < 1e-3 {
        format!("{:.1} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_units() {
        assert_eq!(human_secs(0.0000005), "0.5 µs");
        assert_eq!(human_secs(0.25), "250.00 ms");
        assert_eq!(human_secs(12.5), "12.50 s");
    }
}
