//! Correctness checks on the program's outputs. Each compares against
//! an independent computation or a property the output must have, never
//! against a stored copy, and returns a message naming what is wrong.

/// One estimated point of an `S(t)` curve or figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Trip duration (h) or platoon capacity.
    pub x: f64,
    /// The estimate.
    pub y: f64,
    /// 95 % confidence half-width.
    pub half_width: f64,
    /// Replications behind it.
    pub samples: u64,
}

impl Estimate {
    /// The bit patterns of the estimate, for exact comparison.
    pub fn bits(&self) -> [u64; 4] {
        [
            self.x.to_bits(),
            self.y.to_bits(),
            self.half_width.to_bits(),
            self.samples,
        ]
    }
}

/// Result of one check.
pub type Check = Result<(), String>;

/// Every point is a probability strictly inside (0, 1), has a finite
/// half-width, and is backed by exactly `budget` replications.
pub fn unsafety_points(label: &str, points: &[Estimate], budget: u64) -> Check {
    if points.is_empty() {
        return Err(format!("{label}: no points"));
    }
    for p in points {
        if !(p.y > 0.0 && p.y < 1.0) {
            return Err(format!("{label}: S({}) = {} is not in (0, 1)", p.x, p.y));
        }
        if !p.half_width.is_finite() || p.half_width < 0.0 {
            return Err(format!(
                "{label}: S({}) has half-width {}",
                p.x, p.half_width
            ));
        }
        if p.samples != budget {
            return Err(format!(
                "{label}: S({}) rests on {} replications, budget {budget}",
                p.x, p.samples
            ));
        }
    }
    Ok(())
}

/// `S(t)` never decreases along the time grid (a first-passage
/// probability of an absorbing state is monotone in `t`).
pub fn non_decreasing(label: &str, points: &[Estimate]) -> Check {
    for w in points.windows(2) {
        if w[1].y < w[0].y {
            return Err(format!(
                "{label}: S({}) = {} < S({}) = {}",
                w[1].x, w[1].y, w[0].x, w[0].y
            ));
        }
    }
    Ok(())
}

/// Strictly increasing along `values` (e.g. `S(6h)` over ascending λ at
/// one `n`).
pub fn increasing(label: &str, values: &[f64]) -> Check {
    for w in values.windows(2) {
        if w[1] <= w[0] {
            return Err(format!("{label}: {} does not exceed {}", w[1], w[0]));
        }
    }
    Ok(())
}

/// Two passes of identical work produced identical bits.
pub fn bitwise_equal(label: &str, a: &[Estimate], b: &[Estimate]) -> Check {
    if a.len() != b.len() {
        return Err(format!("{label}: {} points vs {}", a.len(), b.len()));
    }
    for (p, q) in a.iter().zip(b) {
        if p.bits() != q.bits() {
            return Err(format!("{label}: {p:?} differs from {q:?}"));
        }
    }
    Ok(())
}

/// Standard errors a simulated estimate may lie from an exact value:
/// with the 95 % half-width `1.96 σ`, five σ is a false alarm about
/// once in 1.7 million checks of an unbiased, normally distributed
/// estimate.
pub const SIGMAS: f64 = 5.0;

/// Relative slack for a few-replication variance estimate: below it a
/// deviation passes even if the half-width understates σ.
pub const RELATIVE_FLOOR: f64 = 0.02;

/// A simulated estimate agrees with an exact value within
/// `SIGMAS · σ`, with `σ = half_width / 1.96`, or within
/// `RELATIVE_FLOOR` of the exact value.
pub fn matches_exact(label: &str, estimate: f64, half_width: f64, exact: f64) -> Check {
    let sigma = half_width / 1.96;
    let tolerance = (SIGMAS * sigma).max(RELATIVE_FLOOR * exact.abs());
    if !estimate.is_finite() || (estimate - exact).abs() > tolerance {
        return Err(format!(
            "{label}: simulated {estimate} ± {half_width} (95 %) vs exact {exact}, \
             tolerance {tolerance}"
        ));
    }
    Ok(())
}

/// A fraction lies in [0, 1].
pub fn unit_fraction(label: &str, value: f64) -> Check {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("{label}: {value} is not in [0, 1]"))
    }
}

/// The last checkpoint of a finished study covers the whole budget and
/// belongs to the model that was studied.
pub fn final_checkpoint(watermark: u64, budget: u64, fingerprint: u64, model: u64) -> Check {
    if watermark != budget {
        return Err(format!(
            "checkpoint watermark {watermark} differs from the budget {budget}"
        ));
    }
    if fingerprint != model {
        return Err(format!(
            "checkpoint fingerprint {fingerprint:016x} is not the model's {model:016x}"
        ));
    }
    Ok(())
}

/// A service job finished without a restart, with the estimates an
/// in-process evaluation of the same spec gives.
pub fn service_job(
    id: &str,
    state: &str,
    restarts: u64,
    served: &[Estimate],
    local: &[Estimate],
) -> Check {
    if state != "finished" {
        return Err(format!("{id}: state {state}, expected finished"));
    }
    if restarts != 0 {
        return Err(format!("{id}: {restarts} restarts"));
    }
    bitwise_equal(id, served, local)
}

/// Folds check results into the list of failure messages.
pub fn collect(failures: &mut Vec<String>, checks: impl IntoIterator<Item = Check>) {
    failures.extend(checks.into_iter().filter_map(Result::err));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> Vec<Estimate> {
        [2.0, 4.0, 6.0]
            .iter()
            .enumerate()
            .map(|(i, &x)| Estimate {
                x,
                y: 1e-7 * (i + 1) as f64,
                half_width: 2e-8,
                samples: 4_000,
            })
            .collect()
    }

    #[test]
    fn points_check_bites_on_each_property() {
        let good = curve();
        assert!(unsafety_points("c", &good, 4_000).is_ok());
        for perturb in [
            |p: &mut Estimate| p.y = 0.0,
            |p: &mut Estimate| p.y = 1.0,
            |p: &mut Estimate| p.y = f64::NAN,
            |p: &mut Estimate| p.half_width = f64::INFINITY,
            |p: &mut Estimate| p.samples -= 1,
        ] {
            let mut bad = good.clone();
            perturb(&mut bad[1]);
            assert!(unsafety_points("c", &bad, 4_000).is_err(), "{bad:?}");
        }
        assert!(unsafety_points("c", &[], 4_000).is_err());
    }

    #[test]
    fn monotonicity_checks_bite() {
        let mut bad = curve();
        assert!(non_decreasing("c", &bad).is_ok());
        bad[2].y = bad[1].y * 0.999;
        assert!(non_decreasing("c", &bad).is_err());
        assert!(increasing("n=10", &[1e-9, 1e-7, 1e-5]).is_ok());
        assert!(increasing("n=10", &[1e-9, 1e-7, 1e-7]).is_err());
    }

    #[test]
    fn bitwise_checks_bite_on_one_ulp() {
        let a = curve();
        let mut b = a.clone();
        assert!(bitwise_equal("p", &a, &b).is_ok());
        b[0].y = f64::from_bits(b[0].y.to_bits() + 1);
        assert!(bitwise_equal("p", &a, &b).is_err());
        assert!(bitwise_equal("p", &a, &a[..2]).is_err());
    }

    #[test]
    fn exact_comparison_bites_beyond_five_sigma() {
        // σ = 1.96e-3 / 1.96 = 1e-3; exact 0.1 → tolerance 5e-3.
        assert!(matches_exact("S(2h)", 0.104, 1.96e-3, 0.1).is_ok());
        assert!(matches_exact("S(2h)", 0.106, 1.96e-3, 0.1).is_err());
        assert!(matches_exact("S(2h)", f64::NAN, 1.96e-3, 0.1).is_err());
        // A collapsed half-width still gets the relative floor.
        assert!(matches_exact("S(2h)", 0.1015, 0.0, 0.1).is_ok());
        assert!(matches_exact("S(2h)", 0.1025, 0.0, 0.1).is_err());
    }

    #[test]
    fn fraction_and_checkpoint_checks_bite() {
        assert!(unit_fraction("f", 0.0).is_ok());
        assert!(unit_fraction("f", 1.0).is_ok());
        assert!(unit_fraction("f", 1.0 + 1e-12).is_err());
        assert!(unit_fraction("f", -1e-12).is_err());
        assert!(unit_fraction("f", f64::NAN).is_err());
        assert!(final_checkpoint(4_000, 4_000, 7, 7).is_ok());
        assert!(final_checkpoint(3_000, 4_000, 7, 7).is_err());
        assert!(final_checkpoint(4_000, 4_000, 7, 8).is_err());
    }

    #[test]
    fn service_job_check_bites() {
        let local = curve();
        assert!(service_job("job-1", "finished", 0, &local, &local).is_ok());
        assert!(service_job("job-1", "failed", 0, &local, &local).is_err());
        assert!(service_job("job-1", "finished", 1, &local, &local).is_err());
        let mut served = local.clone();
        served[2].half_width *= 1.0 + 1e-12;
        assert!(service_job("job-1", "finished", 0, &served, &local).is_err());
    }

    #[test]
    fn collect_keeps_only_failures() {
        let mut f = Vec::new();
        collect(
            &mut f,
            [Ok(()), Err("a".to_owned()), Ok(()), Err("b".into())],
        );
        assert_eq!(f, vec!["a".to_owned(), "b".to_owned()]);
    }
}
