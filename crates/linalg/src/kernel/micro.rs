//! The register-blocked micro-kernel: one `MR × NR` tile of `C`,
//! accumulated entirely in registers.
//!
//! Per `k` step the kernel reads `MR` packed `A` lanes and `NR` packed
//! `B` lanes and performs `MR × NR` multiply-adds into a fixed-size
//! accumulator array. The loops run over `[f64; MR]`/`[f64; NR]` array
//! references so the autovectorizer unrolls them fully and emits wide
//! multiply and add lanes across the `NR` dimension (never a fused
//! FMA: Rust does not contract `acc += a * b` for `f64`).
//! Vectorization is across *independent output elements*, never across
//! `k`, so the per-element operation order is exactly the ascending-`k`
//! order of the naive triple loop — the bitwise contract `kernel`
//! documents.
//!
//! Tile shape: `NR = 8` puts two 4-lane (AVX) or four 2-lane (SSE2)
//! vectors in flight per `A` lane. `MR = 4` when wide registers are
//! available (the 4×8 accumulator block fills 8 of 16 YMM registers,
//! leaving room for the `B` lanes and broadcasts); `MR = 2` on bare
//! x86-64, where 16 XMM registers cannot hold a 4×8 block without
//! spilling to the stack every iteration. The choice only affects
//! speed, never results.

/// Micro-tile rows (`A` panel height).
#[cfg(target_feature = "avx")]
pub(crate) const MR: usize = 4;
/// Micro-tile rows (`A` panel height).
#[cfg(not(target_feature = "avx"))]
pub(crate) const MR: usize = 2;

/// Micro-tile columns (`B` panel width).
pub(crate) const NR: usize = 8;

/// Accumulate `kc` rank-1 updates of one packed-`A` × packed-`B` panel
/// pair into `acc`.
#[inline(always)]
fn micro_tile(kc: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [[f64; NR]; MR]) {
    let asteps = apanel.chunks_exact(MR).take(kc);
    let bsteps = bpanel.chunks_exact(NR).take(kc);
    for (a, b) in asteps.zip(bsteps) {
        // Fixed-size views: lets the compiler drop every bounds check
        // and fully unroll both register loops.
        let a: &[f64; MR] = a.try_into().expect("chunk is MR long");
        let b: &[f64; NR] = b.try_into().expect("chunk is NR long");
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] += ai * b[j];
            }
        }
    }
}

/// Copy the `mr_eff × nr_eff` valid corner of the `C` tile at
/// `(tile_row, tile_col)` into a zero-initialized `MR × NR` stack
/// scratch tile, for edge tiles: the register loops then run over the
/// scratch tile at full width and never read past `C`; padding lanes
/// start at `0.0` and accumulate only discarded garbage.
#[inline]
fn load_edge_tile(
    c: &[f64],
    ldc: usize,
    tile_row: usize,
    tile_col: usize,
    mr_eff: usize,
    nr_eff: usize,
) -> [[f64; NR]; MR] {
    let mut tile = [[0.0_f64; NR]; MR];
    for (i, trow) in tile.iter_mut().enumerate().take(mr_eff) {
        let off = (tile_row + i) * ldc + tile_col;
        trow[..nr_eff].copy_from_slice(&c[off..off + nr_eff]);
    }
    tile
}

/// Write the `mr_eff × nr_eff` valid corner of a scratch tile back to
/// `C` — the counterpart of [`load_edge_tile`]. Padding lanes are never
/// written, so neighbouring `C` elements (other tiles' data, or rows
/// past the matrix edge) are untouched.
#[inline]
fn store_edge_tile(
    tile: &[[f64; NR]; MR],
    c: &mut [f64],
    ldc: usize,
    tile_row: usize,
    tile_col: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    for (i, trow) in tile.iter().enumerate().take(mr_eff) {
        let off = (tile_row + i) * ldc + tile_col;
        c[off..off + nr_eff].copy_from_slice(&trow[..nr_eff]);
    }
}

/// Load the `mr_eff × nr_eff` valid corner of the `C` tile at
/// `(tile_row, tile_col)`, extend it by `kc` packed rank-1 updates, and
/// store the valid corner back.
///
/// Loading `C` first (rather than accumulating from zero and adding at
/// writeback) is what keeps multi-`KC`-block products in strictly
/// ascending `k` order per element. Padding lanes compute garbage from
/// the packed zeros and are never written back.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn kernel_update(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
    c: &mut [f64],
    ldc: usize,
    tile_row: usize,
    tile_col: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    if mr_eff == MR && nr_eff == NR {
        let mut acc = [[0.0_f64; NR]; MR];
        for (i, arow) in acc.iter_mut().enumerate() {
            let off = (tile_row + i) * ldc + tile_col;
            arow.copy_from_slice(&c[off..off + NR]);
        }
        micro_tile(kc, apanel, bpanel, &mut acc);
        for (i, arow) in acc.iter().enumerate() {
            let off = (tile_row + i) * ldc + tile_col;
            c[off..off + NR].copy_from_slice(arow);
        }
    } else {
        let mut acc = load_edge_tile(c, ldc, tile_row, tile_col, mr_eff, nr_eff);
        micro_tile(kc, apanel, bpanel, &mut acc);
        store_edge_tile(&acc, c, ldc, tile_row, tile_col, mr_eff, nr_eff);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_tile_is_ascending_k_per_element() {
        let kc = 5;
        let apanel: Vec<f64> = (0..kc * MR).map(|i| (i as f64).sin()).collect();
        let bpanel: Vec<f64> = (0..kc * NR).map(|i| (i as f64).cos()).collect();
        let mut acc = [[0.0; NR]; MR];
        micro_tile(kc, &apanel, &bpanel, &mut acc);
        for i in 0..MR {
            for j in 0..NR {
                // Scalar ascending-k reference with a single accumulator.
                let mut want = 0.0_f64;
                for k in 0..kc {
                    want += apanel[k * MR + i] * bpanel[k * NR + j];
                }
                assert_eq!(acc[i][j], want, "element ({i},{j})");
            }
        }
    }

    #[test]
    fn kernel_update_extends_partial_sums_in_order() {
        // Two KC blocks back to back must equal one pass over the
        // concatenated k range, bitwise.
        let (k1, k2) = (3usize, 4usize);
        let ka = k1 + k2;
        let apanel: Vec<f64> = (0..ka * MR).map(|i| 1.0 / (i + 1) as f64).collect();
        let bpanel: Vec<f64> = (0..ka * NR).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let ldc = NR + 3;
        let mut split = vec![0.0; MR * ldc];
        kernel_update(k1, &apanel, &bpanel, &mut split, ldc, 0, 0, MR, NR);
        kernel_update(
            k2,
            &apanel[k1 * MR..],
            &bpanel[k1 * NR..],
            &mut split,
            ldc,
            0,
            0,
            MR,
            NR,
        );
        let mut whole = vec![0.0; MR * ldc];
        kernel_update(ka, &apanel, &bpanel, &mut whole, ldc, 0, 0, MR, NR);
        assert_eq!(split, whole);
    }

    #[test]
    fn edge_tile_helpers_roundtrip_only_the_valid_corner() {
        let ldc = NR + 3;
        let (mr_eff, nr_eff) = (MR - 1, NR - 1);
        let c: Vec<f64> = (0..(MR + 1) * ldc).map(|i| i as f64).collect();
        let tile = load_edge_tile(&c, ldc, 1, 2, mr_eff, nr_eff);
        // Valid corner copied, padding zero-initialized.
        for i in 0..mr_eff {
            for j in 0..nr_eff {
                assert_eq!(tile[i][j], c[(1 + i) * ldc + 2 + j]);
            }
            assert_eq!(tile[i][nr_eff], 0.0);
        }
        assert_eq!(tile[mr_eff], [0.0; NR]);
        // Store writes the corner back and nothing else.
        let mut out = vec![f64::NAN; c.len()];
        store_edge_tile(&tile, &mut out, ldc, 1, 2, mr_eff, nr_eff);
        for (idx, v) in out.iter().enumerate() {
            let (i, j) = (idx / ldc, idx % ldc);
            if (1..1 + mr_eff).contains(&i) && (2..2 + nr_eff).contains(&j) {
                assert_eq!(*v, c[idx], "corner ({i},{j})");
            } else {
                assert!(v.is_nan(), "lane ({i},{j}) was written");
            }
        }
    }

    #[test]
    fn kernel_update_never_touches_padding_lanes() {
        let kc = 2;
        let apanel = vec![1.0; kc * MR];
        let bpanel = vec![1.0; kc * NR];
        let ldc = NR;
        let mut c = vec![f64::NAN; MR * ldc];
        // Valid corner 1×2 only; everything else must stay NaN.
        c[0] = 0.0;
        c[1] = 0.0;
        kernel_update(kc, &apanel, &bpanel, &mut c, ldc, 0, 0, 1, 2);
        assert_eq!(c[0], kc as f64);
        assert_eq!(c[1], kc as f64);
        for (i, v) in c.iter().enumerate().skip(2) {
            assert!(v.is_nan(), "lane {i} was written");
        }
    }
}
