//! Micro-benchmarks of the linear-algebra substrate at the paper's
//! problem sizes (1008 × 49 measurement matrices).
//!
//! The paper reports that the complete SVD of its 1008 × 49 matrix takes
//! "less than two seconds on a 1.0 GHz Intel-based laptop" — the
//! `svd_1008x49` bench is the direct modern equivalent. `svd_1008x484`
//! is the bootstrap fit of the ledger's m = 484 workloads (one week of
//! bins on a 484-link synthetic backbone).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use netanom_linalg::decomposition::{Cholesky, Qr, Svd, SymmetricEigen};
use netanom_linalg::Matrix;

/// Deterministic structured data: one week of bins over `links` links
/// (49 is the Sprint shape).
fn week_matrix(links: usize) -> Matrix {
    Matrix::from_fn(1008, links, |i, j| {
        let phase = i as f64 * std::f64::consts::TAU / 144.0;
        let smooth = 1e7 * phase.sin() * ((j % 5) as f64 + 1.0);
        let noise = ((i * links + j).wrapping_mul(2654435761) % 65536) as f64 * 100.0;
        5e7 + smooth + noise
    })
}

fn bench_decompositions(c: &mut Criterion) {
    let (centered, _) = week_matrix(49).mean_centered_columns();
    let (centered_m484, _) = week_matrix(484).mean_centered_columns();
    let cov = centered.gram().scaled(1.0 / 1007.0);

    let mut group = c.benchmark_group("decompositions");
    group.sample_size(10);

    group.bench_function("svd_1008x49", |b| {
        b.iter(|| Svd::new(black_box(&centered)).expect("converges"))
    });
    group.bench_function("svd_1008x484", |b| {
        b.iter(|| Svd::new(black_box(&centered_m484)).expect("converges"))
    });
    group.bench_function("covariance_eigen_49x49", |b| {
        b.iter(|| SymmetricEigen::new(black_box(&cov)).expect("converges"))
    });
    group.bench_function("gram_1008x49", |b| b.iter(|| black_box(&centered).gram()));

    // QR least squares at the Fourier-fit shape (1008 × 17).
    let basis = Matrix::from_fn(1008, 17, |i, j| {
        if j == 0 {
            1.0
        } else {
            let period = [1008.0, 720.0, 432.0, 144.0, 72.0, 36.0, 18.0, 9.0][(j - 1) / 2];
            let w = std::f64::consts::TAU / period * i as f64;
            if (j - 1) % 2 == 0 {
                w.sin()
            } else {
                w.cos()
            }
        }
    });
    let rhs: Vec<f64> = (0..1008).map(|i| (i as f64 * 0.01).sin()).collect();
    group.bench_function("qr_least_squares_1008x17", |b| {
        b.iter(|| {
            Qr::new(black_box(&basis))
                .expect("tall matrix")
                .solve_least_squares(black_box(&rhs))
                .expect("full rank")
        })
    });

    // Cholesky at the multi-flow shape (5 × 5 Gram).
    let theta = Matrix::from_fn(49, 5, |i, j| ((i * (j + 1)) as f64 * 0.37).sin());
    let gram = theta.gram().add(&Matrix::identity(5).scaled(1e-6)).unwrap();
    group.bench_function("cholesky_solve_5x5", |b| {
        b.iter(|| {
            Cholesky::new(black_box(&gram))
                .expect("SPD")
                .solve(black_box(&[1.0, 2.0, 3.0, 4.0, 5.0]))
                .expect("dims")
        })
    });

    group.finish();
}

criterion_group!(benches, bench_decompositions);
criterion_main!(benches);
