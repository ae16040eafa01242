//! The arithmetic every reported number goes through.

/// The median of `values` (mean of the two middle values when the count is
/// even). Sorts in place; `None` when empty.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    Some(if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    })
}

/// The `p`-th percentile (`0 < p <= 100`) of `values` by nearest rank: the
/// smallest value with at least `p` percent of the sample at or below it.
/// Sorts in place; `None` when empty.
pub fn percentile(values: &mut [f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = (p / 100.0 * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// `num / den`, or zero when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One layer's estimated share of a frame's host time: what one call costs
/// and how many such calls a frame takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Part {
    /// The probe's metric name.
    pub name: &'static str,
    /// Median self time of one call, ns.
    pub ns_per_call: f64,
    /// Calls per wire frame on this workload.
    pub calls_per_frame: f64,
}

/// Splits the end-to-end `host_ns_per_frame` into what the probes account
/// for and the rest. Returns `(accounted_ns, glue_ns, accounted_share)`;
/// the glue may be negative when the probes, run hot and in isolation,
/// overestimate their layers in situ.
pub fn residual(host_ns_per_frame: f64, parts: &[Part]) -> (f64, f64, f64) {
    let accounted: f64 = parts
        .iter()
        .map(|p| p.ns_per_call * p.calls_per_frame)
        .sum();
    (
        accounted,
        host_ns_per_frame - accounted,
        ratio(accounted, host_ns_per_frame),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0]), Some(3.0));
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), Some(5.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&mut v, 50.0), Some(50.0));
        assert_eq!(percentile(&mut v, 90.0), Some(90.0));
        assert_eq!(percentile(&mut v, 99.0), Some(99.0));
        assert_eq!(percentile(&mut v, 100.0), Some(100.0));
        assert_eq!(percentile(&mut v, 0.5), Some(1.0));
        assert_eq!(percentile(&mut [7.0, 3.0], 99.0), Some(7.0));
        assert_eq!(percentile(&mut [], 99.0), None);
    }

    #[test]
    fn residual_splits_accounted_from_glue() {
        let parts = [
            Part {
                name: "sim.dispatch_ns",
                ns_per_call: 50.0,
                calls_per_frame: 6.0,
            },
            Part {
                name: "wire.parse_ns",
                ns_per_call: 100.0,
                calls_per_frame: 1.0,
            },
        ];
        let (accounted, glue, share) = residual(1000.0, &parts);
        assert_eq!(accounted, 400.0);
        assert_eq!(glue, 600.0);
        assert!((share - 0.4).abs() < 1e-12);
        let (_, glue, share) = residual(300.0, &parts);
        assert_eq!(glue, -100.0);
        assert!(share > 1.0);
        assert_eq!(residual(0.0, &[]), (0.0, 0.0, 0.0));
    }
}
