//! Benchmarks of the packed GEMM kernel layer (`linalg::kernel`), the
//! engine under every product in the workspace.
//!
//! `gemm/{matmul,matmul_nt,gram}_{m512,m1024,m2048}` and
//! `gemm/matmul_tn_{m512,m1024}` time the packed path on the shapes the
//! scale scenarios exercise: square `m × m` products for
//! `matmul`/`matmul_nt`/`matmul_tn` (the truncated refit's `A·Q`,
//! `A·Aᵀ`, and Rayleigh–Ritz `QᵀZ` steps) and a 288-bin training
//! window for `gram` (the covariance build). The `*_m512_ref` ids time the serial
//! reference kernels — the same row-axpy/dot loop nests the crate ran
//! before the packed layer — so
//! `median(matmul_m512_ref) / median(matmul_m512)` in the committed
//! baseline is the packed-vs-old kernel ratio.
//!
//! Committed baseline: `scripts/bench-baseline-gemm.jsonl` (diffed by
//! `scripts/bench-compare.sh`).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use netanom_linalg::{kernel, Matrix};

const TRAIN_BINS: usize = 288;

/// Deterministic dense operand with full-range structure (no zeros, so
/// timings are input-independent by construction).
fn operand(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let h = (i * cols + j + salt).wrapping_mul(2654435761) % 8192;
        h as f64 / 4096.0 - 1.0 + 0.25
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    // Multi-second iterations at m = 2048; keep sample counts minimal.
    group.sample_size(2);
    for m in [512usize, 1024, 2048] {
        let a = operand(m, m, 1);
        let b = operand(m, m, 2);
        let data = operand(TRAIN_BINS, m, 3);
        group.bench_function(&format!("matmul_m{m}"), |bch| {
            bch.iter(|| black_box(&a).matmul(black_box(&b)).unwrap())
        });
        group.bench_function(&format!("matmul_nt_m{m}"), |bch| {
            bch.iter(|| black_box(&a).matmul_nt(black_box(&b)).unwrap())
        });
        group.bench_function(&format!("gram_m{m}"), |bch| {
            bch.iter(|| black_box(&data).gram())
        });
        if m <= 1024 {
            group.bench_function(&format!("matmul_tn_m{m}"), |bch| {
                bch.iter(|| black_box(&a).matmul_tn(black_box(&b)).unwrap())
            });
        }
        // Reference-kernel counterparts at the smallest size only (the
        // serial loops take minutes beyond it).
        if m == 512 {
            group.bench_function(&format!("matmul_m{m}_ref"), |bch| {
                bch.iter(|| kernel::matmul_reference(black_box(&a), black_box(&b)).unwrap())
            });
            group.bench_function(&format!("matmul_nt_m{m}_ref"), |bch| {
                bch.iter(|| kernel::matmul_nt_reference(black_box(&a), black_box(&b)).unwrap())
            });
            group.bench_function(&format!("gram_m{m}_ref"), |bch| {
                bch.iter(|| kernel::gram_reference(black_box(&data)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
