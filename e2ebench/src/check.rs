//! The benchmark's own arithmetic: an f64 CSR product, rounding-error
//! bounds, and the seeded exact solutions the right-hand sides come
//! from. Nothing here calls into the engines, so every check below is
//! made against computations the program under test does not perform.

use std::cmp::Ordering;

use memsci_sparse::Csr;

/// Unit roundoff of f64.
const U: f64 = f64::EPSILON / 2.0;

/// `γ_k = k·u / (1 − k·u)`, the bound on the relative error of a
/// length-`k` floating-point sum of products.
pub fn gamma(k: usize) -> f64 {
    let ku = k as f64 * U;
    ku / (1.0 - ku)
}

/// SplitMix64: a tiny, fully specified generator, so the inputs depend
/// on `--seed` alone and not on any crate's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `(seed, tag)`: distinct tags give independent inputs
    /// under one seed.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut s = SplitMix(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next_u64();
        s
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The seeded exact solution `x*`: entries of magnitude in `[0.5, 1.5)`
/// with random signs, so no entry is zero and the right-hand side
/// mixes cancelling and reinforcing terms.
pub fn x_star(n: usize, seed: u64, tag: u64) -> Vec<f64> {
    let mut rng = SplitMix::new(seed, tag);
    (0..n)
        .map(|_| {
            let magnitude = 0.5 + rng.unit();
            if rng.next_u64() & 1 == 0 {
                magnitude
            } else {
                -magnitude
            }
        })
        .collect()
}

/// A system `A·x = b` built from a seeded exact solution:
/// `b = fl(A·x*)` with the benchmark's own product.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The seeded exact solution.
    pub x_star: Vec<f64>,
    /// The right-hand side.
    pub b: Vec<f64>,
}

impl Problem {
    /// The problem for `(seed, tag)` on `a`.
    pub fn new(a: &Csr, seed: u64, tag: u64) -> Self {
        let x_star = x_star(a.cols(), seed, tag);
        let b = csr_mul(a, &x_star);
        Problem { x_star, b }
    }
}

/// `y = A·x` with the benchmark's own row loop.
pub fn csr_mul(a: &Csr, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), a.cols(), "x length");
    (0..a.rows())
        .map(|r| {
            let (cols, vals) = a.row(r);
            cols.iter()
                .zip(vals)
                .map(|(&c, &v)| v * x[c as usize])
                .sum()
        })
        .collect()
}

/// `Σ_j |a_ij·x_j|` per row: the scale of each row's rounding error.
pub fn abs_row_products(a: &Csr, x: &[f64]) -> Vec<f64> {
    (0..a.rows())
        .map(|r| {
            let (cols, vals) = a.row(r);
            cols.iter()
                .zip(vals)
                .map(|(&c, &v)| (v * x[c as usize]).abs())
                .sum()
        })
        .collect()
}

fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// The longest row of `a` (the `k` of its dot products).
fn max_row_len(a: &Csr) -> usize {
    (0..a.rows()).map(|r| a.row(r).0.len()).max().unwrap_or(0)
}

/// Relative residual `‖b − A·x‖₂ / ‖b‖₂` computed here, together with
/// a bound on its own rounding error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Residual {
    /// The computed relative residual.
    pub relative: f64,
    /// Upper bound on `|computed − true|` (relative to `‖b‖₂`).
    pub rounding: f64,
}

impl Residual {
    /// True when the true relative residual can be at or below `tol`:
    /// the computed value minus its own rounding bound does not exceed
    /// it.
    pub fn meets(&self, tol: f64) -> bool {
        self.relative.is_finite() && self.relative - self.rounding <= tol
    }
}

/// Recomputes the true relative residual of `x` with the benchmark's
/// own product.
pub fn relative_residual(a: &Csr, b: &[f64], x: &[f64]) -> Residual {
    if x.iter().any(|v| !v.is_finite()) {
        return Residual {
            relative: f64::INFINITY,
            rounding: 0.0,
        };
    }
    let ax = csr_mul(a, x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect();
    let k = max_row_len(a) + 1;
    let scale: Vec<f64> = abs_row_products(a, x)
        .iter()
        .zip(b)
        .map(|(s, bi)| gamma(k) * (s + bi.abs()))
        .collect();
    let b_norm = norm2(b);
    Residual {
        relative: norm2(&r) / b_norm,
        rounding: norm2(&scale) / b_norm,
    }
}

/// Checks every entry of an engine product `y ≈ A·x` against the
/// benchmark's own product within the f64 summation bound
/// `2·γ_k·Σ_j |a_ij·x_j|` (`k` = the row's length): an exactly rounded
/// row is within `u·|y|` of the true value and the reference is within
/// `γ_k·Σ|a·x|` of it. Returns the first violating row.
pub fn within_summation_bound(a: &Csr, x: &[f64], y: &[f64]) -> Result<(), String> {
    let want = csr_mul(a, x);
    let scale = abs_row_products(a, x);
    for r in 0..a.rows() {
        let k = a.row(r).0.len();
        let bound = 2.0 * gamma(k) * scale[r];
        let diff = (y[r] - want[r]).abs();
        // A NaN on either side compares as `None` and fails too.
        if !matches!(
            diff.partial_cmp(&bound),
            Some(Ordering::Less | Ordering::Equal)
        ) {
            return Err(format!(
                "row {r}: engine {} vs reference {} differ by {diff:e} > bound {bound:e}",
                y[r], want[r]
            ));
        }
    }
    Ok(())
}

/// The smallest strict row-diagonal-dominance margin
/// `min_i (|a_ii| − Σ_{j≠i} |a_ij|)`; positive when `a` is strictly
/// diagonally dominant, which bounds `‖A⁻¹‖_∞ ≤ 1/margin` (Varah).
pub fn dominance_margin(a: &Csr) -> f64 {
    (0..a.rows())
        .map(|r| {
            let (cols, vals) = a.row(r);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c as usize == r {
                    diag += v.abs();
                } else {
                    off += v.abs();
                }
            }
            diag - off
        })
        .fold(f64::INFINITY, f64::min)
}

/// Bounds the error of a solution against the seeded `x*` it was built
/// from (`b = fl(A·x*)`).
///
/// For a strictly diagonally dominant `A`,
/// `‖x − x*‖_∞ ≤ ‖A⁻¹‖_∞·‖A·x − A·x*‖_∞ ≤ (‖r‖_∞ + e)/margin`, where
/// `e` covers the rounding of `b` and of the recomputed `r`. Otherwise
/// the relative error must stay below `fallback_rel`, a conditioning
/// allowance stated by the caller. Returns the measured error and the
/// bound on failure.
pub fn solution_error(
    a: &Csr,
    b: &[f64],
    x: &[f64],
    x_star: &[f64],
    fallback_rel: f64,
) -> Result<(), String> {
    let err: Vec<f64> = x.iter().zip(x_star).map(|(xi, si)| xi - si).collect();
    let margin = dominance_margin(a);
    if margin > 0.0 {
        let ax = csr_mul(a, x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect();
        let k = max_row_len(a) + 1;
        let e = gamma(k)
            * (norm_inf(&abs_row_products(a, x))
                + norm_inf(b)
                + norm_inf(&abs_row_products(a, x_star)));
        let bound = 1.01 * (norm_inf(&r) + e) / margin;
        let got = norm_inf(&err);
        if got <= bound {
            Ok(())
        } else {
            Err(format!(
                "‖x − x*‖∞ = {got:e} exceeds the dominance bound {bound:e}"
            ))
        }
    } else {
        let rel = norm2(&err) / norm2(x_star);
        if rel <= fallback_rel {
            Ok(())
        } else {
            Err(format!("‖x − x*‖/‖x*‖ = {rel:e} exceeds {fallback_rel:e}"))
        }
    }
}

/// FNV-1a over the bits of a solution and its iteration count: the
/// fingerprint that rounds and traced runs must reproduce exactly.
pub fn digest(mut h: u64, x: &[f64], iterations: usize) -> u64 {
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(iterations as u64);
    for v in x {
        eat(v.to_bits());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsci_sparse::Coo;

    fn small() -> Csr {
        // [ 4 -1  0 ]
        // [-1  4 -1 ]
        // [ 0 -1  4 ]
        Coo::from_triplets(
            3,
            3,
            [
                (0, 0, 4.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (1, 1, 4.0),
                (1, 2, -1.0),
                (2, 1, -1.0),
                (2, 2, 4.0),
            ],
        )
        .unwrap()
        .to_csr()
    }

    #[test]
    fn csr_product_matches_hand_computation() {
        let y = csr_mul(&small(), &[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![2.0, 4.0, 10.0]);
        assert_eq!(
            abs_row_products(&small(), &[1.0, -2.0, 3.0]),
            vec![6.0, 12.0, 14.0]
        );
    }

    #[test]
    fn residual_is_zero_at_the_solution_and_one_at_zero() {
        let a = small();
        let xs = vec![1.0, 2.0, 3.0];
        let b = csr_mul(&a, &xs);
        let at = relative_residual(&a, &b, &xs);
        assert_eq!(at.relative, 0.0);
        assert!(at.meets(0.0));
        let zero = relative_residual(&a, &b, &[0.0; 3]);
        assert!((zero.relative - 1.0).abs() < 1e-15);
        assert!(!zero.meets(1e-8));
        let lost = relative_residual(&a, &b, &[f64::NAN, 0.0, 0.0]);
        assert!(!lost.meets(1e300));
    }

    #[test]
    fn residual_tracks_a_known_perturbation() {
        let a = small();
        let xs = vec![1.0, 2.0, 3.0];
        let b = csr_mul(&a, &xs);
        // Perturb x[1] by 1e-6: r = −A·e₁·1e-6 = 1e-6·(1, −4, 1).
        let x = vec![1.0, 2.0 + 1e-6, 3.0];
        let got = relative_residual(&a, &b, &x).relative;
        let want = 1e-6 * 18f64.sqrt() / (4.0 + 16.0 + 100.0f64).sqrt();
        assert!(
            (got - want).abs() < 1e-12 * want.max(1.0),
            "{got} vs {want}"
        );
    }

    #[test]
    fn summation_bound_accepts_rounding_and_rejects_one_ulp_too_many() {
        // Row 0: 1e16 + 1 − 1e16 in f64 left to right gives 0, the exact
        // value is 1. 2·γ_3·Σ|a·x| = 2·γ_3·(2e16 + 1) ≈ 13.3, so 0 and 1
        // pass and 20 fails.
        let a = Coo::from_triplets(1, 3, [(0, 0, 1e16), (0, 1, 1.0), (0, 2, -1e16)])
            .unwrap()
            .to_csr();
        let x = [1.0, 1.0, 1.0];
        assert!(within_summation_bound(&a, &x, &[0.0]).is_ok());
        assert!(within_summation_bound(&a, &x, &[1.0]).is_ok());
        assert!(within_summation_bound(&a, &x, &[13.0]).is_ok());
        assert!(within_summation_bound(&a, &x, &[20.0]).is_err());
        // An exact row leaves no slack at all.
        let b = Coo::from_triplets(1, 2, [(0, 0, 2.0), (0, 1, 3.0)])
            .unwrap()
            .to_csr();
        assert!(within_summation_bound(&b, &[1.0, 1.0], &[5.0]).is_ok());
        let next = f64::from_bits(5.0f64.to_bits() + 1);
        let slack = 2.0 * gamma(2) * 5.0;
        assert!(next - 5.0 <= slack);
        assert!(within_summation_bound(&b, &[1.0, 1.0], &[5.0 + 4.0 * slack]).is_err());
        assert!(within_summation_bound(&b, &[1.0, 1.0], &[f64::NAN]).is_err());
        // An empty row must be exactly zero.
        let e = Coo::from_triplets(1, 1, []).unwrap().to_csr();
        assert!(within_summation_bound(&e, &[7.0], &[0.0]).is_ok());
        assert!(within_summation_bound(&e, &[7.0], &[1e-300]).is_err());
    }

    #[test]
    fn x_star_is_seeded_nonzero_and_distinct_per_seed_and_tag() {
        let a = x_star(64, 7, 1);
        assert_eq!(a, x_star(64, 7, 1));
        assert_ne!(a, x_star(64, 8, 1));
        assert_ne!(a, x_star(64, 7, 2));
        assert!(a.iter().all(|v| (0.5..1.5).contains(&v.abs())));
        assert!(a.iter().any(|&v| v < 0.0) && a.iter().any(|&v| v > 0.0));
        // The right-hand side is the benchmark's own product.
        let m = small();
        let p = Problem::new(&m, 7, 1);
        assert_eq!(p.x_star, x_star(3, 7, 1));
        assert_eq!(p.b[0], 4.0 * p.x_star[0] - p.x_star[1]);
        assert_eq!(p.b, csr_mul(&m, &p.x_star));
    }

    #[test]
    fn dominance_bound_holds_and_catches_a_wrong_solution() {
        let a = small();
        assert_eq!(dominance_margin(&a), 2.0);
        let xs = x_star(3, 3, 0);
        let b = csr_mul(&a, &xs);
        let mut x = xs.clone();
        x[2] += 1e-9;
        assert!(solution_error(&a, &b, &x, &xs, 0.0).is_ok());
        // An error of 1e-3 explained by its residual (‖A·e‖∞ = 3e-3,
        // margin 2) passes; the same error with a zero residual, i.e.
        // a right-hand side that was not built from this x*, fails.
        let shifted: Vec<f64> = xs.iter().map(|v| v + 1e-3).collect();
        assert!(solution_error(&a, &b, &shifted, &xs, 0.0).is_ok());
        assert!(solution_error(&a, &b, &xs, &shifted, 0.0).is_err());
        // Without dominance the caller's relative allowance decides.
        let nd = Coo::from_triplets(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 1.0)])
            .unwrap()
            .to_csr();
        assert!(dominance_margin(&nd) < 0.0);
        let xs2 = vec![1.0, 1.0];
        let b2 = csr_mul(&nd, &xs2);
        assert!(solution_error(&nd, &b2, &[1.0, 1.0 + 1e-9], &xs2, 1e-6).is_ok());
        assert!(solution_error(&nd, &b2, &[1.0, 1.1], &xs2, 1e-6).is_err());
    }

    #[test]
    fn digest_sees_every_bit_and_the_iteration_count() {
        let d = digest(0, &[1.0, 2.0], 5);
        assert_eq!(d, digest(0, &[1.0, 2.0], 5));
        assert_ne!(d, digest(0, &[1.0, 2.0], 6));
        assert_ne!(
            d,
            digest(0, &[1.0, f64::from_bits(2.0f64.to_bits() + 1)], 5)
        );
        assert_ne!(digest(0, &[0.0], 0), digest(0, &[-0.0], 0));
    }
}
