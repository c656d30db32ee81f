//! Order statistics used to summarise samples: quartiles, the
//! percentile rule for latency tails, and fastest-pass selection.

/// Percentiles a latency tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Fewest samples beyond a reported tail percentile.
const MIN_BEYOND: f64 = 10.0;

/// Below this many samples only the median is reported: no percentile
/// would have ten samples beyond it and still be a tail.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// The highest percentile in [`TAIL_PERCENTILES`] that leaves at least
/// ten of `n` samples beyond it, or `None` below 40 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9)
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks. `None` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    let last = sorted.len().checked_sub(1)?;
    let rank = p / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Quartiles `[q1, q2, q3]` by the "exclusive" method, as Python's
/// `statistics.quantiles(values, n=4)` computes them, so that spreads
/// printed here agree with those computed from the same values there.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Index of the fastest of several passes of identical work.
/// Interference from the rest of the machine only ever lengthens a
/// pass, so the shortest one is the best estimate of the work's cost.
pub fn fastest(walls: &[f64]) -> Option<usize> {
    walls
        .iter()
        .enumerate()
        .filter(|(_, w)| w.is_finite())
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tail_below_forty_samples() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 40..3_000 {
            let p = tail_percentile(n).expect("n >= 40 has a tail");
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).rev().collect();
        assert_eq!(median(&v), Some(51.0));
        assert_eq!(percentile(&v, 90.0), Some(91.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let r = relative_iqr(&v).unwrap();
        assert!((r - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn fastest_pass_is_the_shortest_finite_one() {
        assert_eq!(fastest(&[1.2, 0.9, 1.0]), Some(1));
        assert_eq!(fastest(&[f64::NAN, 2.0, 3.0]), Some(1));
        assert_eq!(fastest(&[0.5, 0.5]), Some(0), "ties keep the first pass");
        assert_eq!(fastest(&[]), None);
    }
}
