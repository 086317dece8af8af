//! Cyclic Jacobi eigendecomposition for symmetric matrices.

use crate::{vector, LinalgError, Matrix, Result};

/// Maximum number of full Jacobi sweeps before declaring non-convergence.
///
/// Cyclic Jacobi's off-diagonal norm shrinks linearly for the first few
/// sweeps and quadratically once rotations stop interfering, so the
/// sweep count grows roughly logarithmically in `n`, not linearly.
/// Measured on this implementation (hashed dense symmetric and
/// covariance-shaped inputs): `n = 64` converges in 8 sweeps,
/// `n = 128` in 9, `n = 256` in 9–10, `n = 512` in 10. Extrapolating
/// the ≈ +1 sweep per doubling puts `n = 2048` — the largest size the
/// workspace reaches today, via the truncated solver's dense fallback
/// on synthetic thousand-link topologies — at ≈ 12 sweeps. A budget
/// of 64 is therefore ~5× headroom over every constructible input.
/// Non-finite input is refused before the first sweep, and finite
/// symmetric input always converges, so exhausting the budget signals
/// overflow mid-sweep, not an undersized budget.
const MAX_SWEEPS: usize = 64;

/// Relative tolerance on the asymmetry check in [`SymmetricEigen::new`].
const SYMMETRY_RTOL: f64 = 1e-8;

/// Eigendecomposition `A = V Λ Vᵀ` of a symmetric matrix.
///
/// Eigenvalues are returned in **decreasing** order, matching the PCA
/// convention where the first principal component captures the most
/// variance. `eigenvectors` holds the corresponding unit eigenvectors as
/// **columns**.
///
/// # Algorithm
///
/// Classic cyclic Jacobi: sweep over all off-diagonal pairs `(p, q)`,
/// annihilating each with a Givens rotation chosen by the stable
/// `t = sign(θ)/(|θ| + √(θ² + 1))` formula (Golub & Van Loan §8.5). The
/// accumulated rotations form `V`. Each sweep is `O(n³)` and the iteration
/// converges quadratically, so the total cost is a small multiple of `n³`.
///
/// # Example
///
/// ```
/// use netanom_linalg::{Matrix, decomposition::SymmetricEigen};
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
/// let eig = SymmetricEigen::new(&a).unwrap();
/// assert!((eig.eigenvalues[0] - 3.0).abs() < 1e-12);
/// assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in decreasing order.
    pub eigenvalues: Vec<f64>,
    /// Unit eigenvectors as columns, `eigenvectors.col(k)` pairing with
    /// `eigenvalues[k]`.
    pub eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Decompose a symmetric matrix.
    ///
    /// Returns [`LinalgError::NonFinite`] naming the first NaN or
    /// infinite entry, [`LinalgError::NotSymmetric`] if the input's
    /// asymmetry exceeds a small relative tolerance,
    /// [`LinalgError::Empty`] for a `0 × 0` input, and
    /// [`LinalgError::NonConvergence`] if the sweep budget is exhausted
    /// (finite symmetric input always converges).
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.is_empty() {
            return Err(LinalgError::Empty {
                op: "symmetric eigendecomposition",
            });
        }
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "symmetric eigendecomposition",
                lhs: a.shape(),
                rhs: (a.cols(), a.rows()),
            });
        }
        a.check_finite("symmetric eigendecomposition")?;
        let scale = a.max_abs().max(1.0);
        if let Some(asym) = a.asymmetry() {
            if asym > SYMMETRY_RTOL * scale {
                // Locate the worst offender for the error message.
                let mut worst = (0usize, 0usize, 0.0f64);
                for i in 0..a.rows() {
                    for j in (i + 1)..a.cols() {
                        let d = (a[(i, j)] - a[(j, i)]).abs();
                        if d > worst.2 {
                            worst = (i, j, d);
                        }
                    }
                }
                return Err(LinalgError::NotSymmetric {
                    at: (worst.0, worst.1),
                });
            }
        }

        let n = a.rows();
        // Work on a symmetrized copy so tiny asymmetries cannot bias the
        // rotations.
        let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        // The accumulated rotations are stored *transposed* (`vt[k]` is
        // the k-th eigenvector candidate as a row): the per-rotation
        // update then touches two contiguous rows instead of two
        // strided columns, which lets `vector::rotate_pair`
        // autovectorize it. Pure storage change — each element sees
        // exactly the arithmetic the column-major accumulation
        // performed, and the final extraction transposes back.
        let mut vt = Matrix::identity(n);

        let off = |m: &Matrix| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += m[(i, j)] * m[(i, j)];
                }
            }
            s.sqrt()
        };

        let frob = m.frobenius_norm().max(f64::MIN_POSITIVE);
        let tol = 1e-14 * frob;

        let mut converged = false;
        let mut sweeps = 0;
        while sweeps < MAX_SWEEPS {
            if off(&m) <= tol {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    // Stable tangent of the rotation angle.
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Apply the rotation to columns p and q of m: walk
                    // each row once and update its (p, q) element pair.
                    // The same update order (ascending k, columns before
                    // rows) and the same scalar expressions as the
                    // textbook loop — the column pass must stay scalar
                    // and strided because consecutive k touch
                    // row-distant elements, and reordering it against
                    // the row pass would change results bitwise.
                    for k in 0..n {
                        let row = m.row_mut(k);
                        let (mkp, mkq) = (row[p], row[q]);
                        row[p] = c * mkp - s * mkq;
                        row[q] = s * mkp + c * mkq;
                    }
                    // Rows p and q are contiguous: rotate the pair with
                    // the autovectorized kernel. Per element this is
                    // exactly the scalar `(c·mpk − s·mqk, s·mpk + c·mqk)`
                    // update — vectorization is across independent
                    // elements, so the pass is bitwise the scalar loop.
                    let (rp, rq) = m.row_pair_mut(p, q);
                    vector::rotate_pair(c, s, rp, rq);
                    // Accumulate into the transposed eigenvector matrix:
                    // another contiguous row pair.
                    let (vp, vq) = vt.row_pair_mut(p, q);
                    vector::rotate_pair(c, s, vp, vq);
                }
            }
            sweeps += 1;
        }
        if !converged && off(&m) > tol {
            return Err(LinalgError::NonConvergence {
                algorithm: "cyclic Jacobi",
                iterations: sweeps,
            });
        }

        // Sort by decreasing eigenvalue.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            m[(j, j)]
                .partial_cmp(&m[(i, i)])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let eigenvalues: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
        // Transpose back while applying the sort order: column k of the
        // result is row order[k] of the transposed accumulator.
        let eigenvectors = Matrix::from_fn(n, n, |i, k| vt[(order[k], i)]);

        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Decompose a covariance matrix for a model refit: run the Jacobi
    /// sweep and clamp eigenvalues that cancellation drove slightly
    /// negative back to zero.
    ///
    /// This is the refit entry point for streaming model maintenance:
    /// covariances assembled from incremental sufficient statistics
    /// (`(Σyyᵀ − n·μμᵀ)/(n−1)`) are symmetric by construction but only
    /// positive semi-definite up to roundoff, so the smallest eigenvalues
    /// can come out at `−ε`. A subspace model's residual variance must be
    /// non-negative, hence the clamp.
    pub fn of_covariance(cov: &Matrix) -> Result<Self> {
        let mut eig = Self::new(cov)?;
        for l in &mut eig.eigenvalues {
            if *l < 0.0 {
                *l = 0.0;
            }
        }
        Ok(eig)
    }

    /// Dimension of the decomposed matrix.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Reconstruct `V Λ Vᵀ`; useful for accuracy checks.
    pub fn reconstruct(&self) -> Matrix {
        let lambda = Matrix::from_diag(&self.eigenvalues);
        // `(VΛ)·Vᵀ` via the N·T kernel: no transposed copy, and entry
        // (i, j) accumulates the same ascending-k terms the explicit
        // transpose route would.
        self.eigenvectors
            .matmul(&lambda)
            .and_then(|vl| vl.matmul_nt(&self.eigenvectors))
            .expect("shapes are consistent by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn two_by_two_known_spectrum() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_close(e.eigenvalues[0], 3.0, 1e-12);
        assert_close(e.eigenvalues[1], 1.0, 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_fixed_point() {
        let a = Matrix::from_diag(&[5.0, -1.0, 2.0]);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![5.0, 2.0, -1.0]);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let n = 12;
        let a = Matrix::from_fn(n, n, |i, j| {
            1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { 2.0 } else { 0.0 }
        });
        let e = SymmetricEigen::new(&a).unwrap();
        let vtv = e.eigenvectors.gram();
        assert!(vtv.approx_eq(&Matrix::identity(n), 1e-10));
    }

    #[test]
    fn reconstruction_accuracy() {
        let n = 15;
        let a = Matrix::from_fn(n, n, |i, j| ((i * j) as f64).sin() + ((j * i) as f64).sin());
        let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let e = SymmetricEigen::new(&sym).unwrap();
        assert!(e.reconstruct().approx_eq(&sym, 1e-9));
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let n = 9;
        let a = Matrix::from_fn(n, n, |i, j| ((i + j) as f64).cos());
        let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let e = SymmetricEigen::new(&sym).unwrap();
        let trace: f64 = (0..n).map(|i| sym[(i, i)]).sum();
        assert_close(e.eigenvalues.iter().sum::<f64>(), trace, 1e-10);
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            SymmetricEigen::new(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            SymmetricEigen::new(&Matrix::zeros(0, 0)),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn rejects_non_finite_entries_by_position() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut a = Matrix::identity(4);
            a[(1, 3)] = bad;
            a[(3, 1)] = bad;
            let err = SymmetricEigen::new(&a).unwrap_err();
            assert!(
                matches!(err, LinalgError::NonFinite { at: (1, 3), .. }),
                "{err:?}"
            );
            assert!(err.to_string().contains("symmetric eigendecomposition"));
            // The refit entry point reports the same error.
            let refit = SymmetricEigen::of_covariance(&a).unwrap_err();
            assert_eq!(refit.to_string(), err.to_string());
        }
    }

    #[test]
    fn one_by_one() {
        let e = SymmetricEigen::new(&Matrix::from_rows(&[vec![-4.0]])).unwrap();
        assert_eq!(e.eigenvalues, vec![-4.0]);
        assert_eq!(e.eigenvectors[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn psd_gram_has_nonnegative_spectrum() {
        let data = Matrix::from_fn(20, 6, |i, j| ((i * 7 + j * 3) % 13) as f64 - 6.0);
        let g = data.gram();
        let e = SymmetricEigen::new(&g).unwrap();
        for &l in &e.eigenvalues {
            assert!(l >= -1e-9, "negative eigenvalue {l} for PSD matrix");
        }
    }

    #[test]
    fn repeated_eigenvalues() {
        // 3*I has a triple eigenvalue; the basis must still be orthonormal.
        let a = Matrix::identity(3).scaled(3.0);
        let e = SymmetricEigen::new(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![3.0, 3.0, 3.0]);
        assert!(e.eigenvectors.gram().approx_eq(&Matrix::identity(3), 1e-12));
    }

    /// Transcription of the rotation-application loops as they existed
    /// before the row-pair restructure: strided column updates, a
    /// second strided pass for rows p and q, and a column-major
    /// eigenvector accumulator extracted with `select_columns`. The
    /// production path must match this bitwise — the restructure is a
    /// memory-layout change only.
    fn eigen_reference_scalar(a: &Matrix) -> (Vec<f64>, Matrix) {
        let n = a.rows();
        let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
        let mut v = Matrix::identity(n);
        let off = |m: &Matrix| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += m[(i, j)] * m[(i, j)];
                }
            }
            s.sqrt()
        };
        let frob = m.frobenius_norm().max(f64::MIN_POSITIVE);
        let tol = 1e-14 * frob;
        let mut sweeps = 0;
        while sweeps < MAX_SWEEPS {
            if off(&m) <= tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= tol / (n as f64) {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
            sweeps += 1;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            m[(j, j)]
                .partial_cmp(&m[(i, i)])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let eigenvalues: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
        (eigenvalues, v.select_columns(&order))
    }

    #[test]
    fn restructured_sweep_is_bitwise_original() {
        // Hashed pseudo-random symmetric matrices of several sizes,
        // including ones large enough for many sweeps and rotation
        // skips to fire.
        for (n, seed) in [(3usize, 1u64), (8, 2), (17, 3), (33, 4)] {
            let a = Matrix::from_fn(n, n, |i, j| {
                let (lo, hi) = (i.min(j) as u64, i.max(j) as u64);
                let mut h = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(lo.wrapping_mul(0x2545_f491_4f6c_dd1d))
                    .wrapping_add(hi.wrapping_mul(0x27d4_eb2f_1656_67c5));
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
                h ^= h >> 33;
                (h % 2000) as f64 / 100.0 - 10.0
            });
            let e = SymmetricEigen::new(&a).unwrap();
            let (ref_vals, ref_vecs) = eigen_reference_scalar(&a);
            assert_eq!(e.eigenvalues.len(), ref_vals.len());
            for (got, want) in e.eigenvalues.iter().zip(&ref_vals) {
                assert_eq!(got.to_bits(), want.to_bits(), "eigenvalue drift at n={n}");
            }
            for i in 0..n {
                for k in 0..n {
                    assert_eq!(
                        e.eigenvectors[(i, k)].to_bits(),
                        ref_vecs[(i, k)].to_bits(),
                        "eigenvector drift at n={n}, ({i},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn eigen_pairs_satisfy_definition() {
        let n = 7;
        let a = Matrix::from_fn(n, n, |i, j| 1.0 / ((i + j + 1) as f64)); // Hilbert, symmetric
        let e = SymmetricEigen::new(&a).unwrap();
        for k in 0..n {
            let v = e.eigenvectors.col(k);
            let av = a.matvec(&v).unwrap();
            let lv: Vec<f64> = v.iter().map(|x| x * e.eigenvalues[k]).collect();
            assert!(
                crate::vector::approx_eq(&av, &lv, 1e-9),
                "eigenpair {k} violates A v = λ v"
            );
        }
    }
}
