//! Exact references from `ahs-ctmc` for the correctness checks: the
//! smallest configuration (n = 1) has a state space small enough to
//! solve by uniformization.

use ahs_core::{AhsError, AhsModel, Params};
use ahs_ctmc::{poisson_weights, transient_distribution, SanMarkovModel, StateSpace};

/// Failure rate of the exact-reference configuration: large enough that
/// every quantity compared has signal at a few thousand replications.
pub const LAMBDA: f64 = 0.1;

/// Truncation tolerance of the uniformization sums.
const TOL: f64 = 1e-12;

/// The n = 1, λ = [`LAMBDA`] configuration the exact references solve.
pub fn reference_params() -> Params {
    Params::builder()
        .n(1)
        .lambda(LAMBDA)
        .build()
        .expect("n = 1, λ = 0.1 are valid parameters")
}

/// `S(t)` = P(`KO_total` marked at `t`) for every `t` in `times`.
pub fn unsafety(times: &[f64]) -> Result<Vec<f64>, AhsError> {
    let model = AhsModel::build(&reference_params())?;
    let ko = model.handles().ko_total;
    let space = explore(&model)?;
    Ok(times
        .iter()
        .map(|&t| {
            let pi = transient_distribution(&space, t, TOL);
            space.probability(&pi, |m| m.is_marked(ko))
        })
        .collect())
}

/// The fraction of `[0, horizon]` during which at least one vehicle is
/// recovering, in expectation:
/// `(1/T) ∫₀ᵀ P(class A, B or C marked at t) dt`.
///
/// Computed in one uniformization pass: with `P = I + Q/q` and
/// `πₖ = π₀ Pᵏ`, `∫₀ᵀ π(t) dt = (1/q) Σₖ πₖ · P(N > k)` for
/// `N ~ Poisson(qT)`.
pub fn recovery_fraction(horizon: f64) -> Result<f64, AhsError> {
    let model = AhsModel::build(&reference_params())?;
    let h = model.handles();
    let (ca, cb, cc) = (h.class_a, h.class_b, h.class_c);
    let space = explore(&model)?;
    let recovering: Vec<f64> = space
        .states()
        .iter()
        .map(|m| f64::from(u8::from(m.tokens(ca) + m.tokens(cb) + m.tokens(cc) > 0)))
        .collect();

    let n = space.len();
    let q = space.max_exit_rate() * 1.02 + 1e-12;
    let (left, weights) = poisson_weights(q * horizon, TOL);
    let mut pi = space.initial().to_vec();
    let mut next = vec![0.0; n];
    let mut cdf = 0.0;
    let mut integral = 0.0;
    for k in 0..left + weights.len() {
        if k >= left {
            cdf += weights[k - left];
        }
        let tail = (1.0 - cdf).max(0.0);
        integral += tail * pi.iter().zip(&recovering).map(|(p, r)| p * r).sum::<f64>();
        // π ← π P, with P = I + Q/q.
        next.copy_from_slice(&pi);
        for (r, &pr) in pi.iter().enumerate() {
            if pr == 0.0 {
                continue;
            }
            next[r] -= pr * space.exit_rates()[r] / q;
            for (c, rate) in space.rates().row(r) {
                next[c] += pr * rate / q;
            }
        }
        std::mem::swap(&mut pi, &mut next);
    }
    Ok(integral / q / horizon)
}

fn explore(model: &AhsModel) -> Result<StateSpace<ahs_san::Marking>, AhsError> {
    let adapter = SanMarkovModel::new(model.san()).map_err(ctmc_error)?;
    StateSpace::explore(&adapter, 200_000).map_err(ctmc_error)
}

fn ctmc_error(e: ahs_ctmc::CtmcError) -> AhsError {
    AhsError::InvalidParameter {
        name: "exact_reference",
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafety_is_a_growing_probability() {
        let s = unsafety(&[2.0, 6.0]).unwrap();
        assert!(s[0] > 0.0 && s[0] < s[1] && s[1] < 1.0, "{s:?}");
    }

    #[test]
    fn recovery_fraction_is_a_fraction_and_grows_with_the_trip() {
        let short = recovery_fraction(1.0).unwrap();
        let long = recovery_fraction(10.0).unwrap();
        assert!(short > 0.0 && short < long && long < 1.0, "{short} {long}");
    }
}
