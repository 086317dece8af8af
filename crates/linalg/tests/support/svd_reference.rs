//! Transcription of `Svd::new` as it was before the fused sweep:
//! `Vec<Vec>` working columns, a strided column-major `V` accumulator,
//! and three fresh `vector::dot` chains per column pair.
//! The production path must match it bitwise.
//!
//! Shared by the unit tests in `src/decomposition/svd.rs` and the
//! integration proptests (both include it with `#[path]`); the including
//! module must have `vector`, `Matrix` and `Svd` in scope.

use super::{vector, Matrix, Svd};

/// Assert `got` bitwise equal to the reference decomposition of `a`;
/// `what` labels a failure.
pub fn assert_svd_bitwise(a: &Matrix, got: &Svd, what: &str) {
    let (u, sigma, v) = svd_reference_scalar(a).expect("reference converges");
    let bits = |x: &[f64]| x.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.sigma), bits(&sigma), "sigma drift: {what}");
    assert_eq!(
        bits(got.u.as_slice()),
        bits(u.as_slice()),
        "u drift: {what}"
    );
    assert_eq!(
        bits(got.v.as_slice()),
        bits(v.as_slice()),
        "v drift: {what}"
    );
}

/// `(u, sigma, v)` of the thin SVD of `a` (`rows ≥ cols`, non-empty),
/// or `None` if the sweep budget runs out.
pub fn svd_reference_scalar(a: &Matrix) -> Option<(Matrix, Vec<f64>, Matrix)> {
    const MAX_SWEEPS: usize = 64;
    let n = a.cols();
    let mut w: Vec<Vec<f64>> = (0..n).map(|j| a.col(j)).collect();
    let mut v = Matrix::identity(n);

    let frob = a.frobenius_norm().max(f64::MIN_POSITIVE);
    let tol = 1e-15 * frob * frob;

    let mut sweeps = 0;
    loop {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let alpha = vector::dot(&w[p], &w[p]);
                let beta = vector::dot(&w[q], &w[q]);
                let gamma = vector::dot(&w[p], &w[q]);
                if gamma.abs() <= tol || gamma.abs() <= 1e-15 * (alpha * beta).sqrt() {
                    continue;
                }
                rotated = true;
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = if zeta >= 0.0 {
                    1.0 / (zeta + (1.0 + zeta * zeta).sqrt())
                } else {
                    -1.0 / (-zeta + (1.0 + zeta * zeta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                for i in 0..w[p].len() {
                    let wip = w[p][i];
                    let wiq = w[q][i];
                    w[p][i] = c * wip - s * wiq;
                    w[q][i] = s * wip + c * wiq;
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
        if !rotated {
            break;
        }
        if sweeps >= MAX_SWEEPS {
            return None;
        }
    }

    let sigma: Vec<f64> = w.iter().map(|col| vector::norm(col)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        sigma[j]
            .partial_cmp(&sigma[i])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut u = Matrix::zeros(a.rows(), n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut sigma_sorted = Vec::with_capacity(n);
    for (new_j, &old_j) in order.iter().enumerate() {
        let s = sigma[old_j];
        sigma_sorted.push(s);
        if s > 0.0 {
            let unit: Vec<f64> = w[old_j].iter().map(|x| x / s).collect();
            u.set_col(new_j, &unit);
        } else {
            u.set_col(new_j, &vec![0.0; a.rows()]);
        }
        for k in 0..n {
            v_sorted[(k, new_j)] = v[(k, old_j)];
        }
    }
    Some((u, sigma_sorted, v_sorted))
}
