//! Thin SVD via one-sided Jacobi (Hestenes) rotations, run as a fused
//! sweep over contiguous columns.

use crate::{vector, LinalgError, Matrix, Result};

/// Maximum number of full sweeps over all column pairs.
const MAX_SWEEPS: usize = 64;

/// Thin singular value decomposition `A = U Σ Vᵀ` of a tall (or square)
/// matrix with `rows ≥ cols`.
///
/// * `u` is `rows × cols` with orthonormal columns,
/// * `sigma` holds the `cols` singular values in decreasing order,
/// * `v` is `cols × cols` orthogonal.
///
/// # Algorithm
///
/// One-sided Jacobi (Hestenes): repeatedly apply plane rotations on the
/// *right* of a working copy `W` of `A`, chosen to orthogonalize pairs of
/// columns of `W`. At convergence the columns of `W` are orthogonal; their
/// norms are the singular values, the normalized columns form `U`, and the
/// accumulated rotations form `V`. The method is simple, backward-stable and
/// computes small singular values to high *relative* accuracy. The
/// workspace runs it from `1008 × 41` (Abilene) up to `1008 × 484`
/// (synthetic backbones) and beyond in the scale sweep.
///
/// For a mean-centered data matrix `Y`, the right singular vectors are the
/// principal components and `σₖ²/(t−1)` are the variances captured along
/// them, which is exactly the quantity the subspace method thresholds.
///
/// # Fused sweep
///
/// The cyclic sweep visits pairs `(p, q)`, `p < q`, row by row. `W` is
/// held transposed (`n × t`, column `j` as row `j`) so every column is
/// contiguous, `V` is accumulated transposed for the same reason, and
/// each column's squared norm `wⱼ·wⱼ` is cached. The textbook loop's
/// three `dot` chains per pair shrink to one: after a rotation, a single
/// pass over the two new columns re-sums both squared norms together
/// with the inner product `w_p·w_{q+1}` that the next pair needs (a pair
/// after a skipped one computes its inner product with a fresh `dot`).
/// Each of these sums runs over the same values in the same order as the
/// `dot` it replaces, so it has the same bits. Every value the sweep
/// computes is therefore bitwise the textbook loop's, and so are `u`,
/// `sigma` and `v`: the rewrite changes storage, never arithmetic.
///
/// # Example
///
/// ```
/// use netanom_linalg::{Matrix, decomposition::Svd};
/// let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0], vec![0.0, 0.0]]);
/// let svd = Svd::new(&a).unwrap();
/// assert!((svd.sigma[0] - 4.0).abs() < 1e-12);
/// assert!((svd.sigma[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors as columns (`rows × cols`).
    pub u: Matrix,
    /// Singular values, decreasing.
    pub sigma: Vec<f64>,
    /// Right singular vectors as columns (`cols × cols`).
    pub v: Matrix,
}

impl Svd {
    /// Compute the thin SVD of `a`.
    ///
    /// Requires `rows ≥ cols` (the data-matrix orientation used throughout
    /// the workspace: timesteps × links). Returns
    /// [`LinalgError::DimensionMismatch`] otherwise,
    /// [`LinalgError::Empty`] for empty input, and
    /// [`LinalgError::NonFinite`] naming the first NaN or infinite entry.
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.is_empty() {
            return Err(LinalgError::Empty { op: "svd" });
        }
        if a.rows() < a.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "svd (requires rows >= cols)",
                lhs: a.shape(),
                rhs: (a.cols(), a.rows()),
            });
        }
        a.check_finite("svd")?;
        let (t, n) = a.shape();
        // Row j of `w` is column j of the working matrix W.
        let mut w = a.transpose();
        let mut vt = Matrix::identity(n);
        // `norm_sq[j]` is `vector::dot(w_j, w_j)`, bit for bit.
        let mut norm_sq: Vec<f64> = (0..n).map(|j| vector::dot(w.row(j), w.row(j))).collect();

        let frob = a.frobenius_norm().max(f64::MIN_POSITIVE);
        let tol = 1e-15 * frob * frob;

        let mut sweeps = 0;
        loop {
            let mut rotated = false;
            for p in 0..n {
                // `w_p·w_q`, when the previous pair's pass computed it.
                let mut fused_gamma = None;
                for q in (p + 1)..n {
                    let alpha = norm_sq[p];
                    let beta = norm_sq[q];
                    let gamma = fused_gamma
                        .take()
                        .unwrap_or_else(|| vector::dot(w.row(p), w.row(q)));
                    // Columns already orthogonal (relative to their sizes)?
                    if gamma.abs() <= tol || gamma.abs() <= 1e-15 * (alpha * beta).sqrt() {
                        continue;
                    }
                    rotated = true;
                    // Rotation that zeroes the (p,q) entry of WᵀW.
                    let zeta = (beta - alpha) / (2.0 * gamma);
                    let t = if zeta >= 0.0 {
                        1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
                    } else {
                        -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    let (wp, wq) = w.row_pair_mut(p, q);
                    vector::rotate_pair(c, s, wp, wq);
                    let (vp, vq) = vt.row_pair_mut(p, q);
                    vector::rotate_pair(c, s, vp, vq);
                    if q + 1 < n {
                        let (pp, qq, pz) = sums_after_rotation(w.row(p), w.row(q), w.row(q + 1));
                        (norm_sq[p], norm_sq[q], fused_gamma) = (pp, qq, Some(pz));
                    } else {
                        norm_sq[p] = vector::dot(w.row(p), w.row(p));
                        norm_sq[q] = vector::dot(w.row(q), w.row(q));
                    }
                }
            }
            sweeps += 1;
            if !rotated {
                break;
            }
            if sweeps >= MAX_SWEEPS {
                return Err(LinalgError::NonConvergence {
                    algorithm: "one-sided Jacobi SVD",
                    iterations: sweeps,
                });
            }
        }

        // Column norms are the singular values; the last sweep rotated
        // nothing, so every cached squared norm is exactly `dot(w, w)`.
        let sigma: Vec<f64> = norm_sq.iter().map(|x| x.sqrt()).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            sigma[j]
                .partial_cmp(&sigma[i])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let sigma: Vec<f64> = order.iter().map(|&j| sigma[j]).collect();
        // A null direction leaves its U column zero. Callers that need a
        // full orthonormal U can complete the basis, but the subspace
        // method never uses null columns of U.
        let u = Matrix::from_fn(t, n, |i, j| {
            if sigma[j] > 0.0 {
                w[(order[j], i)] / sigma[j]
            } else {
                0.0
            }
        });
        let v = Matrix::from_fn(n, n, |k, j| vt[(order[j], k)]);
        Ok(Svd { u, sigma, v })
    }

    /// Numerical rank: the number of singular values above
    /// `rtol * sigma_max`.
    pub fn rank(&self, rtol: f64) -> usize {
        match self.sigma.first() {
            None | Some(&0.0) => 0,
            Some(&smax) => self.sigma.iter().take_while(|&&s| s > rtol * smax).count(),
        }
    }

    /// Reconstruct `U Σ Vᵀ`; useful for accuracy checks.
    pub fn reconstruct(&self) -> Matrix {
        let us = Matrix::from_fn(self.u.rows(), self.u.cols(), |i, j| {
            self.u[(i, j)] * self.sigma[j]
        });
        us.matmul(&self.v.transpose())
            .expect("shapes are consistent by construction")
    }
}

/// `(x·x, y·y, x·z)` in one pass: three independent sequential chains,
/// each summed in ascending order from the same starting zero as
/// [`vector::dot`], so each result is bitwise the `dot` it replaces
/// while the three chains' additions overlap in the pipeline.
fn sums_after_rotation(x: &[f64], y: &[f64], z: &[f64]) -> (f64, f64, f64) {
    assert!(x.len() == y.len() && y.len() == z.len(), "length mismatch");
    // The identity `Iterator::sum` (and so `dot`) starts from; its sign
    // is not the same across toolchains.
    let zero: f64 = std::iter::empty::<f64>().sum();
    let (mut xx, mut yy, mut xz) = (zero, zero, zero);
    for ((&xi, &yi), &zi) in x.iter().zip(y).zip(z) {
        xx += xi * xi;
        yy += yi * yi;
        xz += xi * zi;
    }
    (xx, yy, xz)
}

#[cfg(test)]
#[path = "../../tests/support/svd_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_known_values() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0], vec![0.0, 0.0]]);
        let svd = Svd::new(&a).unwrap();
        assert!((svd.sigma[0] - 4.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction() {
        let a = Matrix::from_fn(30, 8, |i, j| {
            ((i * 3 + j * 5) as f64).sin() * (j as f64 + 1.0)
        });
        let svd = Svd::new(&a).unwrap();
        assert!(svd.reconstruct().approx_eq(&a, 1e-9 * a.frobenius_norm()));
    }

    #[test]
    fn u_and_v_orthonormal() {
        // Hash-style fill gives a generic full-rank matrix.
        let a = Matrix::from_fn(25, 6, |i, j| {
            let h = (i * 6 + j).wrapping_mul(2654435761) % 1000;
            h as f64 / 500.0 - 1.0
        });
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 6, "test matrix must be full rank");
        assert!(svd.u.gram().approx_eq(&Matrix::identity(6), 1e-10));
        assert!(svd.v.gram().approx_eq(&Matrix::identity(6), 1e-10));
    }

    #[test]
    fn singular_values_decreasing_and_nonnegative() {
        let a = Matrix::from_fn(40, 10, |i, j| ((i * j + 1) as f64).ln());
        let svd = Svd::new(&a).unwrap();
        for pair in svd.sigma.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        assert!(svd.sigma.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn rank_deficient_matrix() {
        // Two identical columns -> rank 1.
        let a = Matrix::from_fn(10, 2, |i, _| (i as f64) + 1.0);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(1e-10), 1);
        assert!(svd.sigma[1] < 1e-10 * svd.sigma[0]);
    }

    #[test]
    fn zero_matrix() {
        let svd = Svd::new(&Matrix::zeros(5, 3)).unwrap();
        assert_eq!(svd.sigma, vec![0.0, 0.0, 0.0]);
        assert_eq!(svd.rank(1e-12), 0);
    }

    #[test]
    fn rejects_wide_matrix() {
        assert!(matches!(
            Svd::new(&Matrix::zeros(2, 5)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            Svd::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_entries_by_position() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = Matrix::from_fn(6, 3, |i, j| (i + j) as f64);
            a[(4, 2)] = bad;
            a[(5, 0)] = bad;
            let err = Svd::new(&a).unwrap_err();
            // The first offender in row-major order is named.
            assert!(
                matches!(
                    err,
                    LinalgError::NonFinite {
                        op: "svd",
                        at: (4, 2),
                        ..
                    }
                ),
                "{err:?}"
            );
            assert!(err.to_string().contains("(4, 2)"), "{err}");
        }
    }

    #[test]
    fn agrees_with_eigendecomposition_of_gram() {
        use crate::decomposition::SymmetricEigen;
        let a = Matrix::from_fn(50, 7, |i, j| {
            ((i as f64) * 0.1).sin() * (j as f64 + 1.0) + ((i * j) as f64 * 0.01).cos()
        });
        let svd = Svd::new(&a).unwrap();
        let eig = SymmetricEigen::new(&a.gram()).unwrap();
        for k in 0..7 {
            let from_eig = eig.eigenvalues[k].max(0.0).sqrt();
            assert!(
                (svd.sigma[k] - from_eig).abs() <= 1e-8 * svd.sigma[0].max(1.0),
                "sigma[{k}]: svd={} eig={}",
                svd.sigma[k],
                from_eig
            );
        }
    }

    #[test]
    fn square_orthogonal_input() {
        // A rotation matrix has all singular values equal to 1.
        let th = 0.7_f64;
        let a = Matrix::from_rows(&[vec![th.cos(), -th.sin()], vec![th.sin(), th.cos()]]);
        let svd = Svd::new(&a).unwrap();
        assert!((svd.sigma[0] - 1.0).abs() < 1e-12);
        assert!((svd.sigma[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_column() {
        let a = Matrix::from_fn(4, 1, |i, _| (i + 1) as f64);
        let svd = Svd::new(&a).unwrap();
        assert!((svd.sigma[0] - (1.0f64 + 4.0 + 9.0 + 16.0).sqrt()).abs() < 1e-12);
        assert_eq!(svd.v[(0, 0)].abs(), 1.0);
    }

    /// Hashed pseudo-random entries in [-10, 10).
    fn hashed(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let mut h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d))
                .wrapping_add((j as u64).wrapping_mul(0x27d4_eb2f_1656_67c5));
            h ^= h >> 33;
            h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            h ^= h >> 33;
            (h % 2000) as f64 / 100.0 - 10.0
        })
    }

    #[test]
    fn fused_sweep_is_bitwise_the_reference() {
        let mut duplicated = hashed(40, 9, 5);
        for i in 0..40 {
            duplicated[(i, 6)] = duplicated[(i, 2)];
            duplicated[(i, 8)] = duplicated[(i, 2)];
        }
        let cases = [
            ("square t = n", hashed(17, 17, 1)),
            ("tall", hashed(60, 23, 2)),
            ("duplicate columns", duplicated),
            ("zero matrix", Matrix::zeros(12, 5)),
            ("single column", hashed(9, 1, 3)),
            ("one entry", hashed(1, 1, 4)),
            ("wide", hashed(80, 64, 6)),
        ];
        for (what, a) in &cases {
            reference::assert_svd_bitwise(a, &Svd::new(a).unwrap(), what);
        }
    }
}
