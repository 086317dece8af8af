//! Packed, cache-blocked GEMM: the BLAS-class kernel layer.
//!
//! Every matrix product in this crate bottoms out here. The layer
//! follows the classic BLIS/GotoBLAS decomposition of a general matrix
//! multiply `C += A·B`:
//!
//! * **Panel packing** (`pack`). The operands are copied, one cache
//!   block at a time, into contiguous *panels*: `A` into `MR`-row
//!   panels laid out k-major (`[k][MR]`), `B` into `NR`-column panels
//!   (`[k][NR]`). Packing pays one pass of memory traffic to make every
//!   subsequent micro-kernel read perfectly sequential and
//!   stride-free, and it absorbs all four operand orientations
//!   (`A·B`, `A·Bᵀ`, `Aᵀ·B`, `AᵀA`) so a single micro-kernel serves
//!   every product in the crate.
//! * **Cache blocking.** Loops over `NC`-wide column blocks of `C`
//!   (packed `B` stays in L2/L3), `KC`-deep slices of the shared
//!   dimension (one packed `A` block stays in L2), and `MC`-tall row
//!   blocks, following [`Tiles`].
//! * **Register-blocked micro-kernel** (`micro`). The innermost unit
//!   computes an `MR × NR` tile of `C` held entirely in accumulator
//!   registers, reading one `MR`-slice of packed `A` and one
//!   `NR`-slice of packed `B` per `k` step. The tile is plain loops
//!   over fixed-size arrays that the autovectorizer unrolls into wide
//!   lanes of the build's target (256-bit AVX2 under the workspace's
//!   `x86-64-v3` setting).
//!
//! # Accumulation-order contract
//!
//! Per output element, every product accumulates its `k`-terms in
//! strictly ascending order into a single accumulator, rounding the
//! multiply and the add separately (`acc += a·b`). Every route is
//! therefore **bitwise identical to the naive mul-then-add `i j k`
//! triple loop**. Three design choices guarantee that order:
//!
//! 1. the `KC` loop sits *outside* the row/column tile loops, and each
//!    micro-kernel invocation loads the partial `C` tile, extends it,
//!    and stores it back — so `k`-blocks extend a running sum instead
//!    of being reduced pairwise;
//! 2. vectorization is across independent output elements (the `NR`
//!    lanes), never across `k`, so no reduction is reassociated;
//! 3. edge tiles are zero-padded in the *packed panels* (adding
//!    `+ 0·x` terms only to discarded padding lanes), not handled by a
//!    differently-ordered scalar loop.
//!
//! The reference kernels in this module ([`matmul_reference`],
//! [`matmul_nt_reference`], [`matmul_tn_reference`],
//! [`gram_reference`]) realize that order with plain loop nests, and
//! the packed path is pinned against them bitwise in the unit and
//! property tests. Because the order also matches the per-vector
//! `dot`/`axpy` routes, batched scoring and identification stay
//! bitwise equal to their per-vector forms. The old pre-kernel loops
//! skipped `a[i][k] == 0.0` terms, which made throughput
//! data-dependent and silently dropped NaN/∞ propagation from the
//! skipped `B` row; no path here ever skips, so `0 × NaN` poisons the
//! product everywhere.
//!
//! # Shape routing
//!
//! [`use_packed`] routes a product to the packed path only when the
//! operand shapes amortize the packing traffic (roughly one tile of
//! useful work); tiny, skinny, or degenerate shapes fall through to
//! the reference kernel, which follows the same per-element order, so
//! routing is purely a performance decision and never observable in
//! results.

pub(crate) mod micro;
pub(crate) mod pack;

use micro::{MR, NR};

use crate::{parallel, Matrix, Result};

/// Cache-block sizes for one packed product, in elements (`f64`).
///
/// Chosen for the common 32 KiB L1d / 512 KiB–1 MiB L2 hierarchy:
/// one packed `B` panel (`KC × NR` = 16 KiB) lives in L1 across a whole
/// row of micro-tiles, one packed `A` block (`MC × KC` = 256 KiB) lives
/// in L2 across a whole `NC` sweep, and the packed `B` block
/// (`KC × NC` ≤ 2 MiB) streams from L3. All three clamp to the actual
/// operand dimensions, so small products never over-allocate.
#[derive(Debug, Clone, Copy)]
pub struct Tiles {
    /// Row-block height of packed `A` (`MC`).
    pub mc: usize,
    /// Depth of the shared dimension per packed block (`KC`).
    pub kc: usize,
    /// Column-block width of packed `B` (`NC`).
    pub nc: usize,
}

/// Default `MC` (rows of `A` packed per block).
const MC: usize = 128;
/// Default `KC` (shared-dimension depth per packed block).
const KC: usize = 256;
/// Default `NC` (columns of `B` packed per block).
const NC: usize = 1024;

/// Select cache-block sizes for an `m × k · k × n` product, clamped to
/// the operand dimensions (degenerate dimensions clamp to 1 so the
/// packing loops stay well-formed even for empty edge cases the callers
/// already short-circuit).
pub fn tiles_for(m: usize, k: usize, n: usize) -> Tiles {
    Tiles {
        mc: MC.min(m.max(1)),
        kc: KC.min(k.max(1)),
        nc: NC.min(n.max(1)),
    }
}

/// Minimum multiply-add count before panel packing pays for itself.
///
/// Packing costs one read+write pass over the operands (`O(mk + kn)`
/// per `KC` block); the measured crossover on the workspace's shapes
/// sits near a few tens of thousands of flops. Below it, products route
/// to the bitwise-identical reference kernels.
const MIN_PACKED_FLOPS: usize = 32 * 1024;

/// `true` when an `m × k · k × n` product should take the packed path.
///
/// Requires at least one tile's worth of work in every dimension
/// (`k ≥ 8`, a couple of micro-tile lanes in `m`/`n`) and
/// `MIN_PACKED_FLOPS` of total work; everything else — including the
/// `1 × n`, `n × 1` and empty shapes — degrades gracefully to the
/// reference kernels.
pub fn use_packed(m: usize, k: usize, n: usize) -> bool {
    m >= 2 && n >= 2 && k >= 8 && m * k * n >= MIN_PACKED_FLOPS
}

/// A borrowed row-major `rows × cols` block of `f64`s — the raw form
/// the kernel layer operates on, so packed products run equally over
/// [`Matrix`] storage and over scratch buffers (the fused SPE kernel
/// centers rows into a stack of scratch blocks and multiplies those).
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
}

impl<'a> View<'a> {
    /// View over a whole matrix.
    pub(crate) fn of(m: &'a Matrix) -> Self {
        View {
            data: m.as_slice(),
            rows: m.rows(),
            cols: m.cols(),
        }
    }

    /// View over a raw row-major buffer.
    pub(crate) fn new(data: &'a [f64], rows: usize, cols: usize) -> Self {
        debug_assert_eq!(data.len(), rows * cols);
        View { data, rows, cols }
    }

    #[inline]
    fn row(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows);
        self.data[i * self.cols + j]
    }
}

/// One GEMM operand: a [`View`] read as-is or transposed.
///
/// The packing layer absorbs the orientation, so the micro-kernel only
/// ever sees contiguous panels regardless of how the operand is stored.
#[derive(Clone, Copy)]
pub(crate) enum Operand<'a> {
    /// Use the view as stored (row-major).
    N(View<'a>),
    /// Use the transpose of the stored view.
    T(View<'a>),
}

impl<'a> Operand<'a> {
    /// Row-major operand over a matrix.
    pub(crate) fn normal(m: &'a Matrix) -> Self {
        Operand::N(View::of(m))
    }

    /// Transposed operand over a matrix.
    pub(crate) fn transposed(m: &'a Matrix) -> Self {
        Operand::T(View::of(m))
    }

    /// Logical element `(i, j)`.
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        match self {
            Operand::N(v) => v.at(i, j),
            Operand::T(v) => v.at(j, i),
        }
    }
}

/// Compute `block += A[first_row..first_row+mb] · B` into a contiguous
/// row block of the output (the unit of the row-parallel fan-out).
///
/// `block` holds `mb` whole rows of width `ldc = n`; `first_row` is the
/// block's global row offset, which only matters for `upper_only`:
/// when set, micro-tiles lying strictly below the main diagonal of the
/// *global* output are skipped (the symmetric `gram` path computes the
/// upper triangle and mirrors afterwards; tiles straddling the diagonal
/// are computed in full — their below-diagonal lanes are bitwise the
/// mirrored values anyway, multiplication being commutative).
pub(crate) fn gemm_block(
    a: &Operand,
    b: &Operand,
    first_row: usize,
    block: &mut [f64],
    n: usize,
    kdim: usize,
    upper_only: bool,
) {
    debug_assert_eq!(block.len() % n.max(1), 0);
    let Some(mb) = block.len().checked_div(n) else {
        return;
    };
    if mb == 0 || kdim == 0 {
        return;
    }
    let t = tiles_for(mb, kdim, n);
    let mut apack = vec![0.0; t.mc.div_ceil(MR) * MR * t.kc];
    let mut bpack = vec![0.0; t.nc.div_ceil(NR) * NR * t.kc];
    let mut jc = 0;
    while jc < n {
        let ncb = t.nc.min(n - jc);
        let mut pc = 0;
        while pc < kdim {
            let kcb = t.kc.min(kdim - pc);
            pack::pack_b(b, pc, kcb, jc, ncb, &mut bpack);
            let mut ic = 0;
            while ic < mb {
                let mcb = t.mc.min(mb - ic);
                // Whole A block strictly below the diagonal: nothing to
                // compute in the upper-triangle mode.
                if upper_only && jc + ncb <= first_row + ic {
                    ic += mcb;
                    continue;
                }
                pack::pack_a(a, first_row + ic, mcb, pc, kcb, &mut apack);
                macro_kernel(
                    &apack, &bpack, kcb, block, n, ic, mcb, jc, ncb, first_row, upper_only,
                );
                ic += mcb;
            }
            pc += kcb;
        }
        jc += ncb;
    }
}

/// Run the micro-kernel over every `MR × NR` tile of one packed
/// `A`-block × packed `B`-block pair, updating `C` in place.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    apack: &[f64],
    bpack: &[f64],
    kc: usize,
    c: &mut [f64],
    ldc: usize,
    ic: usize,
    mcb: usize,
    jc: usize,
    ncb: usize,
    first_row: usize,
    upper_only: bool,
) {
    let a_panels = mcb.div_ceil(MR);
    let b_panels = ncb.div_ceil(NR);
    for jp in 0..b_panels {
        let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
        let nr_eff = NR.min(ncb - jp * NR);
        for ip in 0..a_panels {
            let tile_row = ic + ip * MR;
            let tile_col = jc + jp * NR;
            // Upper-triangle mode: skip tiles whose every column lies
            // strictly left of (below) the diagonal.
            if upper_only && tile_col + nr_eff <= first_row + tile_row {
                continue;
            }
            let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
            let mr_eff = MR.min(mcb - ip * MR);
            micro::kernel_update(
                kc, apanel, bpanel, c, ldc, tile_row, tile_col, mr_eff, nr_eff,
            );
        }
    }
}

/// Reference GEMM `A·B` — the naive ascending-`k` row-axpy triple loop
/// the packed kernel is pinned against (and the fallback for shapes too
/// small to amortize packing). No zero-skip: `0 × NaN` propagates.
///
/// Returns an error if `a.cols() != b.rows()`.
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(crate::LinalgError::DimensionMismatch {
            op: "matmul_reference",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.cols());
    gemm_reference(
        &Operand::normal(a),
        &Operand::normal(b),
        0,
        out.data_mut(),
        b.cols(),
        a.cols(),
        false,
    );
    Ok(out)
}

/// Reference `A·Bᵀ` (`b` stored `n × k`), ascending-`k` per element.
///
/// Returns an error if `a.cols() != b.cols()`.
pub fn matmul_nt_reference(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(crate::LinalgError::DimensionMismatch {
            op: "matmul_nt_reference",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.rows(), b.rows());
    gemm_reference(
        &Operand::normal(a),
        &Operand::transposed(b),
        0,
        out.data_mut(),
        b.rows(),
        a.cols(),
        false,
    );
    Ok(out)
}

/// Reference `Aᵀ·B` (`a` stored `k × m`), ascending-`k` per element.
///
/// Returns an error if `a.rows() != b.rows()`.
pub fn matmul_tn_reference(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(crate::LinalgError::DimensionMismatch {
            op: "matmul_tn_reference",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut out = Matrix::zeros(a.cols(), b.cols());
    gemm_reference(
        &Operand::transposed(a),
        &Operand::normal(b),
        0,
        out.data_mut(),
        b.cols(),
        a.rows(),
        false,
    );
    Ok(out)
}

/// Reference Gram product `AᵀA`: upper triangle in ascending-`k`
/// (data-row) order, mirrored to the lower triangle. No zero-skip.
pub fn gram_reference(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), a.cols());
    if a.cols() == 0 {
        return out;
    }
    let (n, kdim) = (a.cols(), a.rows());
    gemm_reference(
        &Operand::transposed(a),
        &Operand::normal(a),
        0,
        out.data_mut(),
        n,
        kdim,
        true,
    );
    mirror_upper(&mut out);
    out
}

/// Copy the upper triangle onto the lower one (`out[b][a] = out[a][b]`).
fn mirror_upper(out: &mut Matrix) {
    for a in 0..out.rows() {
        for b in (a + 1)..out.cols() {
            out[(b, a)] = out[(a, b)];
        }
    }
}

/// `A·B` over operands of logical shapes `m × kdim` and `kdim × n`: the
/// body of [`Matrix::matmul`], [`Matrix::matmul_nt`] and
/// [`Matrix::matmul_tn`], which differ only in the operand orientations.
pub(crate) fn product(a: &Operand, b: &Operand, m: usize, n: usize, kdim: usize) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    if m > 0 && n > 0 {
        run_product(a, b, &mut out, m, n, kdim, false, m * kdim * n, |_| 1.0);
    }
    out
}

/// `aᵀa`: the body of [`Matrix::gram`]. Only the upper triangle is
/// computed (micro-tiles strictly below the global diagonal are skipped
/// inside the kernel, and row blocks are weighted by their share of it),
/// then mirrored — the per-entry operation sequence matches a serial
/// `(i, a, b)` loop nest, so the result is thread-count independent.
pub(crate) fn gram(a: &Matrix) -> Matrix {
    let (n, kdim) = (a.cols(), a.rows());
    let mut out = Matrix::zeros(n, n);
    if n > 0 {
        let (at, an) = (Operand::transposed(a), Operand::normal(a));
        run_product(
            &at,
            &an,
            &mut out,
            n,
            n,
            kdim,
            true,
            kdim * n * n / 2,
            |start| (n - start) as f64,
        );
        mirror_upper(&mut out);
    }
    out
}

/// The routed-and-parallel product driver behind [`Matrix`]'s product
/// methods: pick packed vs reference by shape, fan the `m` output rows
/// across workers, and run the chosen path inside each block. Results
/// are independent of both decisions — each output row is computed
/// identically whichever worker owns it and whichever side of the
/// packing crossover the shape lands on.
#[allow(clippy::too_many_arguments)]
fn run_product(
    a: &Operand,
    b: &Operand,
    out: &mut Matrix,
    m: usize,
    n: usize,
    kdim: usize,
    upper_only: bool,
    flops: usize,
    weight: impl Fn(usize) -> f64,
) {
    let packed = use_packed(m, kdim, n);
    let workers = parallel::workers_for(flops, m);
    let boundaries = parallel::balanced_boundaries(m, workers, weight);
    parallel::for_row_blocks(out.data_mut(), n, &boundaries, |first_row, block| {
        if packed {
            gemm_block(a, b, first_row, block, n, kdim, upper_only);
        } else {
            gemm_reference(a, b, first_row, block, n, kdim, upper_only);
        }
    });
}

/// Scalar reference GEMM over a row block: per output element, terms
/// accumulate in strictly ascending `k` — the order every kernel in
/// this crate honors. Used directly for small shapes and as the pinning
/// reference for the packed path. The loop nest adapts to the operand
/// orientations so both sides are walked contiguously where possible,
/// which changes nothing about the per-element order.
pub(crate) fn gemm_reference(
    a: &Operand,
    b: &Operand,
    first_row: usize,
    block: &mut [f64],
    n: usize,
    kdim: usize,
    upper_only: bool,
) {
    if n == 0 {
        return;
    }
    let mb = block.len() / n;
    for li in 0..mb {
        let i = first_row + li;
        let row = &mut block[li * n..(li + 1) * n];
        let j0 = if upper_only { i.min(n) } else { 0 };
        match (a, b) {
            // B row-major: middle-k loop, axpy of B's row k.
            (_, Operand::N(bm)) => {
                for k in 0..kdim {
                    let aik = a.at(i, k);
                    let brow = &bm.row(k)[j0..n];
                    for (o, &bv) in row[j0..].iter_mut().zip(brow) {
                        *o += aik * bv;
                    }
                }
            }
            // A and Bᵀ both row-major along k: per-element dot.
            (Operand::N(am), Operand::T(bm)) => {
                let arow = am.row(i);
                for (j, o) in row.iter_mut().enumerate().skip(j0) {
                    let mut acc = *o;
                    for (&av, &bv) in arow.iter().zip(bm.row(j)) {
                        acc += av * bv;
                    }
                    *o = acc;
                }
            }
            // Doubly transposed: strided fallback (unused by the crate's
            // products, kept for completeness).
            (Operand::T(_), Operand::T(bm)) => {
                for (j, o) in row.iter_mut().enumerate().skip(j0) {
                    let mut acc = *o;
                    for k in 0..kdim {
                        acc += a.at(i, k) * bm.at(j, k);
                    }
                    *o = acc;
                }
            }
        }
    }
}
