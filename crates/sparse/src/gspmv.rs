//! SPMV and GSPMV kernels.
//!
//! The paper's "basic kernel" multiplies one 3×3 block by a 3×`m` slab of
//! the multivector with the multiplication of each matrix element
//! unrolled by `m` (§IV-A1, produced there by a code generator emitting
//! SSE/AVX). This module holds the *portable* kernels: monomorphized
//! over `const M: usize` so the `m`-wide inner loops are
//! fixed-trip-count arrays that LLVM unrolls and autovectorizes, plus a
//! strip-mined generic any-`m` fallback and a naive ablation baseline.
//! The explicit-SIMD kernels live in `crate::simd`, and every public
//! entry point here routes its row ranges through the process-wide
//! [`crate::backend::active_backend`] — override with
//! `MRHS_KERNEL_BACKEND=scalar|simd`.
//!
//! All row kernels are generic over [`BlockGet`], the block-fetch
//! abstraction that lets full storage (`&[Block3]`) and dedup storage
//! (pool-indirect indices, `crate::dedup`) share one kernel body — and
//! therefore produce bitwise-identical results.
//!
//! Thread blocking follows the paper: block rows are split into chunks of
//! balanced non-zero count and each chunk writes a disjoint slice of `Y`.

use crate::backend::{self, KernelBackend, KernelKind};
use crate::bcrs::BcrsMatrix;
use crate::block::Block3;
use crate::instrument;
use crate::multivec::MultiVec;
use crate::BLOCK_DIM;
use std::ops::Range;

/// Block fetch for row kernels: entry `k` of the CSR structure resolves
/// to a 3×3 block. Full storage fetches `blocks[k]`; dedup storage
/// fetches `pool[pool_idx[k]]`. `Copy + Sync` so chunked drivers can
/// hand the same view to every rayon job.
pub(crate) trait BlockGet: Copy + Sync {
    fn block(&self, k: usize) -> &Block3;
}

impl BlockGet for &[Block3] {
    #[inline(always)]
    fn block(&self, k: usize) -> &Block3 {
        &self[k]
    }
}

/// Counts one full-storage GSPMV call under `gspmv/m{m}/…`, tags the
/// dispatched backend, and opens the `kernel/gspmv/m{m}` span. The
/// matrix stream is what BCRS physically holds: 72 B per block, 4 B per
/// column index, 4 B per row pointer. Called only from the public entry
/// points, never from the internal row kernels, so delegation does not
/// double-count.
fn instrument_full(
    a: &BcrsMatrix,
    m: usize,
    b: &dyn KernelBackend,
) -> crate::instrument::KernelGuard {
    let nb = a.nb_rows() as u64;
    let nnzb = a.nnz_blocks() as u64;
    instrument::record_kernel_call("gspmv", m, nb, nnzb, 4 * nb + 76 * nnzb);
    instrument::record_backend(b.name());
    instrument::kernel_span("gspmv", m)
}

/// The `m` sizes with dedicated monomorphized kernels. Mirrors the set of
/// generated kernels in the paper's experiments (m up to 32 on clusters,
/// 42 on single node; sizes in between fall back to the generic kernel).
/// This is [`crate::backend::WIDTH_GRID`] — the per-backend grid is
/// exposed through [`crate::backend::KernelBackend::specialized_widths`].
pub const SPECIALIZED_M: &[usize] = &backend::WIDTH_GRID;

/// Single-vector SPMV on plain slices: `y = A·x`.
///
/// `x` must have `a.n_cols()` entries and `y` must have `a.n_rows()`.
/// Runs the active backend's row kernel at `m = 1` (the SIMD backend
/// delegates widths below one vector to the monomorphized kernels, so
/// this is the scalar fixed-`1` kernel everywhere today).
pub fn spmv_serial(a: &BcrsMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.n_cols(), "x length mismatch");
    assert_eq!(y.len(), a.n_rows(), "y length mismatch");
    backend::active_backend().gspmv_rows(a, x, y, 1, 0..a.nb_rows());
}

/// Serial GSPMV: `Y = A·X` with `X`, `Y` row-major multivectors,
/// through the active backend.
pub fn gspmv_serial(a: &BcrsMatrix, x: &MultiVec, y: &mut MultiVec) {
    gspmv_serial_impl(backend::active_backend(), a, x, y);
}

/// Serial GSPMV through an explicitly chosen backend kind — the entry
/// point ablations and the oracle registry use to pin a specific
/// implementation regardless of `MRHS_KERNEL_BACKEND`.
///
/// # Panics
/// When `kind` is unavailable on this host (SIMD without a vector ISA);
/// gate with [`crate::backend::backend_available`].
pub fn gspmv_serial_with(
    kind: KernelKind,
    a: &BcrsMatrix,
    x: &MultiVec,
    y: &mut MultiVec,
) {
    gspmv_serial_impl(require_backend(kind), a, x, y);
}

fn gspmv_serial_impl(
    b: &dyn KernelBackend,
    a: &BcrsMatrix,
    x: &MultiVec,
    y: &mut MultiVec,
) {
    check_shapes(a, x, y);
    let m = x.m();
    let _span = instrument_full(a, m, b);
    b.gspmv_rows(a, x.as_slice(), y.as_mut_slice(), m, 0..a.nb_rows());
}

/// Serial GSPMV that always uses the generic (non-unrolled) kernel.
/// Exists for the unrolled-vs-generic ablation bench.
pub fn gspmv_serial_generic(a: &BcrsMatrix, x: &MultiVec, y: &mut MultiVec) {
    check_shapes(a, x, y);
    gspmv_rows_generic(
        a.row_ptr(),
        a.col_idx(),
        a.blocks(),
        x.as_slice(),
        y.as_mut_slice(),
        x.m(),
        0..a.nb_rows(),
    );
}

/// Parallel GSPMV: block rows are chunked with balanced non-zero counts
/// (the paper's thread blocking) and chunks run on the rayon pool.
///
/// Every output row is accumulated entirely inside its own chunk in
/// fixed per-row order, so the result is **bitwise identical** to
/// [`gspmv_serial`] for any chunking, pool width, or interleaving.
pub fn gspmv(a: &BcrsMatrix, x: &MultiVec, y: &mut MultiVec) {
    gspmv_impl(backend::active_backend(), a, x, y);
}

/// Auto parallel GSPMV through an explicitly chosen backend kind
/// (panics when unavailable, like [`gspmv_serial_with`]).
pub fn gspmv_with(
    kind: KernelKind,
    a: &BcrsMatrix,
    x: &MultiVec,
    y: &mut MultiVec,
) {
    gspmv_impl(require_backend(kind), a, x, y);
}

fn gspmv_impl(
    b: &dyn KernelBackend,
    a: &BcrsMatrix,
    x: &MultiVec,
    y: &mut MultiVec,
) {
    check_shapes(a, x, y);
    let _span = instrument_full(a, x.m(), b);
    let nthreads = rayon::current_num_threads();
    if nthreads <= 1 || a.nnz_blocks() < 1 << 14 {
        b.gspmv_rows(a, x.as_slice(), y.as_mut_slice(), x.m(), 0..a.nb_rows());
        return;
    }
    gspmv_chunked_impl(b, a, x, y, nthreads * 4);
}

/// Parallel GSPMV with an explicit chunk count — the entry point the
/// oracle harness uses to prove the full-storage result is chunking-
/// independent. Bitwise identical to [`gspmv_serial`] for every
/// `nchunks` (row accumulation order never crosses a chunk boundary).
pub fn gspmv_chunked(
    a: &BcrsMatrix,
    x: &MultiVec,
    y: &mut MultiVec,
    nchunks: usize,
) {
    let b = backend::active_backend();
    check_shapes(a, x, y);
    let _span = instrument_full(a, x.m(), b);
    gspmv_chunked_impl(b, a, x, y, nchunks);
}

/// Chunked GSPMV through an explicitly chosen backend kind (panics when
/// unavailable, like [`gspmv_serial_with`]).
pub fn gspmv_chunked_with(
    kind: KernelKind,
    a: &BcrsMatrix,
    x: &MultiVec,
    y: &mut MultiVec,
    nchunks: usize,
) {
    let b = require_backend(kind);
    check_shapes(a, x, y);
    let _span = instrument_full(a, x.m(), b);
    gspmv_chunked_impl(b, a, x, y, nchunks);
}

fn require_backend(kind: KernelKind) -> &'static dyn KernelBackend {
    backend::backend_for(kind)
        .expect("requested kernel backend unavailable on this host")
}

fn gspmv_chunked_impl(
    b: &dyn KernelBackend,
    a: &BcrsMatrix,
    x: &MultiVec,
    y: &mut MultiVec,
    nchunks: usize,
) {
    let m = x.m();
    let chunks = balanced_row_chunks(a, nchunks);
    // Slice Y into disjoint per-chunk windows.
    let mut jobs: Vec<(Range<usize>, &mut [f64])> =
        Vec::with_capacity(chunks.len());
    let mut rest = y.as_mut_slice();
    let mut consumed = 0usize;
    for r in &chunks {
        let len = (r.end - r.start) * BLOCK_DIM * m;
        debug_assert_eq!(r.start * BLOCK_DIM * m, consumed);
        let (head, tail) = rest.split_at_mut(len);
        jobs.push((r.clone(), head));
        rest = tail;
        consumed += len;
    }
    let xs = x.as_slice();
    rayon::scope(|s| {
        for (rows, yslice) in jobs {
            s.spawn(move |_| b.gspmv_rows(a, xs, yslice, m, rows));
        }
    });
}

/// Parallel single-vector SPMV (the `m = 1` instantiation of the
/// parallel driver, with the same serial-fallback threshold).
pub fn spmv(a: &BcrsMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), a.n_cols());
    assert_eq!(y.len(), a.n_rows());
    let b = backend::active_backend();
    let nthreads = rayon::current_num_threads();
    if nthreads <= 1 || a.nnz_blocks() < 1 << 14 {
        b.gspmv_rows(a, x, y, 1, 0..a.nb_rows());
        return;
    }
    let chunks = balanced_row_chunks(a, nthreads * 4);
    let mut jobs: Vec<(Range<usize>, &mut [f64])> =
        Vec::with_capacity(chunks.len());
    let mut rest = y;
    for r in &chunks {
        let len = (r.end - r.start) * BLOCK_DIM;
        let (head, tail) = rest.split_at_mut(len);
        jobs.push((r.clone(), head));
        rest = tail;
    }
    rayon::scope(|s| {
        for (rows, yslice) in jobs {
            s.spawn(move |_| b.gspmv_rows(a, x, yslice, 1, rows));
        }
    });
}

/// Splits the block rows of `a` into at most `nchunks` contiguous ranges
/// with approximately equal stored-block counts. Every block row appears
/// in exactly one range.
pub fn balanced_row_chunks(a: &BcrsMatrix, nchunks: usize) -> Vec<Range<usize>> {
    balanced_chunks_from_parts(a.row_ptr(), a.nb_rows(), a.nnz_blocks(), nchunks)
}

/// The chunking policy on raw CSR parts, shared with dedup storage so
/// both formats chunk identically for a given structure.
#[allow(clippy::single_range_in_vec_init)]
pub(crate) fn balanced_chunks_from_parts(
    row_ptr: &[usize],
    nb: usize,
    nnzb: usize,
    nchunks: usize,
) -> Vec<Range<usize>> {
    if nb == 0 || nchunks <= 1 {
        return vec![0..nb];
    }
    let target = (nnzb / nchunks).max(1);
    let mut chunks = Vec::with_capacity(nchunks);
    let mut start = 0usize;
    let mut next_cut = target;
    for bi in 0..nb {
        if row_ptr[bi + 1] >= next_cut
            && bi + 1 > start
            && chunks.len() + 1 < nchunks
        {
            chunks.push(start..bi + 1);
            start = bi + 1;
            next_cut = row_ptr[bi + 1] + target;
        }
    }
    if start < nb || chunks.is_empty() {
        chunks.push(start..nb);
    }
    chunks
}

fn check_shapes(a: &BcrsMatrix, x: &MultiVec, y: &MultiVec) {
    check_mv_shapes(a.n_rows(), a.n_cols(), x, y);
}

/// Shape checks shared with [`crate::dedup::DedupBcrs`].
pub(crate) fn check_mv_shapes(
    n_rows: usize,
    n_cols: usize,
    x: &MultiVec,
    y: &MultiVec,
) {
    assert_eq!(x.n(), n_cols, "X row count must equal matrix columns");
    assert_eq!(y.n(), n_rows, "Y row count must equal matrix rows");
    assert_eq!(x.m(), y.m(), "X and Y must have the same number of columns");
}

/// Row-range dispatch of the portable monomorphized kernels — the
/// scalar backend's row kernel, also the delegation target for SIMD at
/// widths below one vector.
pub(crate) fn dispatch_rows_scalar<B: BlockGet>(
    row_ptr: &[usize],
    col_idx: &[u32],
    blocks: B,
    x: &[f64],
    y: &mut [f64],
    m: usize,
    rows: Range<usize>,
) {
    match m {
        1 => gspmv_rows_fixed::<1, B>(row_ptr, col_idx, blocks, x, y, rows),
        2 => gspmv_rows_fixed::<2, B>(row_ptr, col_idx, blocks, x, y, rows),
        4 => gspmv_rows_fixed::<4, B>(row_ptr, col_idx, blocks, x, y, rows),
        8 => gspmv_rows_fixed::<8, B>(row_ptr, col_idx, blocks, x, y, rows),
        12 => gspmv_rows_fixed::<12, B>(row_ptr, col_idx, blocks, x, y, rows),
        16 => gspmv_rows_fixed::<16, B>(row_ptr, col_idx, blocks, x, y, rows),
        24 => gspmv_rows_fixed::<24, B>(row_ptr, col_idx, blocks, x, y, rows),
        32 => gspmv_rows_fixed::<32, B>(row_ptr, col_idx, blocks, x, y, rows),
        42 => gspmv_rows_fixed::<42, B>(row_ptr, col_idx, blocks, x, y, rows),
        48 => gspmv_rows_fixed::<48, B>(row_ptr, col_idx, blocks, x, y, rows),
        _ => gspmv_rows_generic(row_ptr, col_idx, blocks, x, y, m, rows),
    }
}

/// The monomorphized basic kernel: each 3×3 block multiplies a 3×M slab.
/// `y` is the slice for `rows` only (disjoint output windows in the
/// parallel driver).
fn gspmv_rows_fixed<const M: usize, B: BlockGet>(
    row_ptr: &[usize],
    col_idx: &[u32],
    blocks: B,
    x: &[f64],
    y: &mut [f64],
    rows: Range<usize>,
) {
    let y_base = rows.start * BLOCK_DIM * M;
    for bi in rows {
        let mut acc = [[0.0f64; M]; BLOCK_DIM];
        for k in row_ptr[bi]..row_ptr[bi + 1] {
            let b = blocks.block(k);
            let xoff = col_idx[k] as usize * BLOCK_DIM * M;
            let xs = &x[xoff..xoff + BLOCK_DIM * M];
            let x0: &[f64; M] = xs[..M].try_into().unwrap();
            let x1: &[f64; M] = xs[M..2 * M].try_into().unwrap();
            let x2: &[f64; M] = xs[2 * M..].try_into().unwrap();
            // One fused M-wide pass per output row: three broadcasts,
            // three FMAs per element, everything at compile-time trip
            // counts — the shape the paper's generated SIMD kernels had.
            for i in 0..BLOCK_DIM {
                let (a0, a1, a2) = (b.get(i, 0), b.get(i, 1), b.get(i, 2));
                let acc_i = &mut acc[i];
                for j in 0..M {
                    acc_i[j] += a0 * x0[j] + a1 * x1[j] + a2 * x2[j];
                }
            }
        }
        let yo = bi * BLOCK_DIM * M - y_base;
        for i in 0..BLOCK_DIM {
            y[yo + i * M..yo + (i + 1) * M].copy_from_slice(&acc[i]);
        }
    }
}

/// Generic any-`m` kernel. Columns are strip-mined in fixed-width
/// groups of 8 and 4 (with a scalar remainder) so the hot inner loops
/// have compile-time trip counts and autovectorize even though `m` is a
/// runtime value; only the final `m mod 4` columns take the scalar
/// path. The naive fully-runtime loop lives on in
/// [`gspmv_rows_naive`] as the ablation baseline.
pub(crate) fn gspmv_rows_generic<B: BlockGet>(
    row_ptr: &[usize],
    col_idx: &[u32],
    blocks: B,
    x: &[f64],
    y: &mut [f64],
    m: usize,
    rows: Range<usize>,
) {
    let y_base = rows.start * BLOCK_DIM * m;
    let mut acc = vec![0.0f64; BLOCK_DIM * m];
    for bi in rows {
        acc.fill(0.0);
        for k in row_ptr[bi]..row_ptr[bi + 1] {
            let b = blocks.block(k);
            let xoff = col_idx[k] as usize * BLOCK_DIM * m;
            let xs = &x[xoff..xoff + BLOCK_DIM * m];
            for i in 0..BLOCK_DIM {
                let ai = [b.get(i, 0), b.get(i, 1), b.get(i, 2)];
                let acc_i = &mut acc[i * m..(i + 1) * m];
                for cc in 0..BLOCK_DIM {
                    let av = ai[cc];
                    let xr = &xs[cc * m..cc * m + m];
                    // 8-wide strips, then 4-wide, then scalar tail.
                    let mut j = 0;
                    while j + 8 <= m {
                        let xw: &[f64; 8] = xr[j..j + 8].try_into().unwrap();
                        let aw: &mut [f64] = &mut acc_i[j..j + 8];
                        for (a8, x8) in aw.iter_mut().zip(xw) {
                            *a8 += av * x8;
                        }
                        j += 8;
                    }
                    while j + 4 <= m {
                        let xw: &[f64; 4] = xr[j..j + 4].try_into().unwrap();
                        let aw: &mut [f64] = &mut acc_i[j..j + 4];
                        for (a4, x4) in aw.iter_mut().zip(xw) {
                            *a4 += av * x4;
                        }
                        j += 4;
                    }
                    while j < m {
                        acc_i[j] += av * xr[j];
                        j += 1;
                    }
                }
            }
        }
        let yo = bi * BLOCK_DIM * m - y_base;
        y[yo..yo + BLOCK_DIM * m].copy_from_slice(&acc);
    }
}

/// The fully-runtime-loop kernel: what GSPMV looks like with no
/// unrolling help at all. Kept (and exposed through
/// [`gspmv_serial_naive`]) purely as the ablation baseline.
fn gspmv_rows_naive(
    a: &BcrsMatrix,
    x: &[f64],
    y: &mut [f64],
    m: usize,
    rows: Range<usize>,
) {
    let y_base = rows.start * BLOCK_DIM * m;
    let mut acc = vec![0.0f64; BLOCK_DIM * m];
    for bi in rows {
        let (cols, blocks) = a.block_row(bi);
        acc.fill(0.0);
        for (c, b) in cols.iter().zip(blocks) {
            let xoff = *c as usize * BLOCK_DIM * m;
            let xs = &x[xoff..xoff + BLOCK_DIM * m];
            for i in 0..BLOCK_DIM {
                for cc in 0..BLOCK_DIM {
                    let av = b.get(i, cc);
                    for j in 0..m {
                        acc[i * m + j] += av * xs[cc * m + j];
                    }
                }
            }
        }
        let yo = bi * BLOCK_DIM * m - y_base;
        y[yo..yo + BLOCK_DIM * m].copy_from_slice(&acc);
    }
}

/// Serial GSPMV through the naive kernel (ablation baseline).
pub fn gspmv_serial_naive(a: &BcrsMatrix, x: &MultiVec, y: &mut MultiVec) {
    check_shapes(a, x, y);
    gspmv_rows_naive(a, x.as_slice(), y.as_mut_slice(), x.m(), 0..a.nb_rows());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block3;
    use crate::triplet::BlockTripletBuilder;

    /// Deterministic pseudo-random sparse SPD-ish test matrix.
    fn test_matrix(nb: usize, bandwidth: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for bi in 0..nb {
            t.add(bi, bi, Block3::scaled_identity(10.0));
            for d in 1..=bandwidth {
                if bi + d < nb {
                    let mut b = Block3::ZERO;
                    for v in b.0.iter_mut() {
                        *v = rng();
                    }
                    t.add_symmetric_pair(bi, bi + d, b);
                }
            }
        }
        t.build()
    }

    /// Approximate multivector equality: different kernels associate
    /// the per-block FMAs differently, so results differ at the last
    /// bit.
    fn assert_close(a: &MultiVec, b: &MultiVec, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}");
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(
                (u - v).abs() <= 1e-12 * u.abs().max(v.abs()).max(1.0),
                "{ctx}: {u} vs {v}"
            );
        }
    }

    fn dense_mat_vec(dense: &[f64], n: usize, x: &[f64]) -> Vec<f64> {
        (0..n).map(|i| (0..n).map(|j| dense[i * n + j] * x[j]).sum()).collect()
    }

    fn pseudo_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = test_matrix(7, 2);
        let n = a.n_rows();
        let dense = a.to_dense();
        let x = pseudo_vec(n, 42);
        let mut y = vec![0.0; n];
        spmv_serial(&a, &x, &mut y);
        let want = dense_mat_vec(&dense, n, &x);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn gspmv_each_column_matches_spmv() {
        let a = test_matrix(9, 3);
        let n = a.n_rows();
        for &m in &[1usize, 2, 3, 4, 5, 8, 12, 16, 17, 24, 32, 33] {
            let mut x = MultiVec::zeros(n, m);
            for j in 0..m {
                x.set_column(j, &pseudo_vec(n, 1000 + j as u64));
            }
            let mut y = MultiVec::zeros(n, m);
            gspmv_serial(&a, &x, &mut y);
            for j in 0..m {
                let mut yj = vec![0.0; n];
                spmv_serial(&a, &x.column(j), &mut yj);
                let got = y.column(j);
                for (g, w) in got.iter().zip(&yj) {
                    assert!((g - w).abs() < 1e-12, "m={m} col={j}");
                }
            }
        }
    }

    #[test]
    fn generic_and_specialized_kernels_agree() {
        let a = test_matrix(11, 4);
        let n = a.n_rows();
        for &m in SPECIALIZED_M {
            let mut x = MultiVec::zeros(n, m);
            for j in 0..m {
                x.set_column(j, &pseudo_vec(n, 7 + j as u64));
            }
            let mut y1 = MultiVec::zeros(n, m);
            let mut y2 = MultiVec::zeros(n, m);
            gspmv_serial(&a, &x, &mut y1);
            gspmv_serial_generic(&a, &x, &mut y2);
            assert_close(&y1, &y2, &format!("m={m}"));
        }
    }

    #[test]
    fn naive_strip_mined_and_specialized_all_agree() {
        let a = test_matrix(9, 3);
        let n = a.n_rows();
        // Sizes exercising every strip combination: 8s, 4s, and tails.
        for m in [1usize, 3, 5, 6, 7, 9, 11, 13, 15, 17, 20, 23] {
            let mut x = MultiVec::zeros(n, m);
            for j in 0..m {
                x.set_column(j, &pseudo_vec(n, 31 + j as u64));
            }
            let mut y1 = MultiVec::zeros(n, m);
            let mut y2 = MultiVec::zeros(n, m);
            let mut y3 = MultiVec::zeros(n, m);
            gspmv_serial(&a, &x, &mut y1);
            gspmv_serial_generic(&a, &x, &mut y2);
            gspmv_serial_naive(&a, &x, &mut y3);
            assert_close(&y1, &y2, &format!("m={m} generic"));
            assert_close(&y1, &y3, &format!("m={m} naive"));
        }
    }

    #[test]
    fn every_available_backend_agrees_with_scalar() {
        let a = test_matrix(13, 5);
        let n = a.n_rows();
        for m in [1usize, 4, 7, 8, 16, 19, 32] {
            let mut x = MultiVec::zeros(n, m);
            for j in 0..m {
                x.set_column(j, &pseudo_vec(n, 53 + j as u64));
            }
            let mut want = MultiVec::zeros(n, m);
            gspmv_serial_with(KernelKind::Scalar, &a, &x, &mut want);
            for kind in KernelKind::ALL {
                if !backend::backend_available(kind) {
                    continue;
                }
                let mut got = MultiVec::zeros(n, m);
                gspmv_serial_with(kind, &a, &x, &mut got);
                assert_close(&want, &got, &format!("m={m} {:?}", kind));
                // And the chunked driver stays bitwise within a kind.
                let mut chunked = MultiVec::zeros(n, m);
                gspmv_chunked_with(kind, &a, &x, &mut chunked, 3);
                assert_eq!(got, chunked, "m={m} {:?} chunked", kind);
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let a = test_matrix(500, 6);
        let n = a.n_rows();
        let m = 8;
        let mut x = MultiVec::zeros(n, m);
        for j in 0..m {
            x.set_column(j, &pseudo_vec(n, 99 + j as u64));
        }
        let mut y1 = MultiVec::zeros(n, m);
        let mut y2 = MultiVec::zeros(n, m);
        gspmv_serial(&a, &x, &mut y1);
        gspmv(&a, &x, &mut y2);
        assert_eq!(y1, y2);

        let xv = pseudo_vec(n, 5);
        let mut z1 = vec![0.0; n];
        let mut z2 = vec![0.0; n];
        spmv_serial(&a, &xv, &mut z1);
        spmv(&a, &xv, &mut z2);
        assert_eq!(z1, z2);
    }

    #[test]
    fn gspmv_overwrites_stale_output() {
        let a = test_matrix(4, 1);
        let n = a.n_rows();
        let x = MultiVec::zeros(n, 4);
        let mut y = MultiVec::zeros(n, 4);
        y.fill(123.0);
        gspmv_serial(&a, &x, &mut y);
        assert_eq!(y.max_abs(), 0.0);
    }

    #[test]
    fn balanced_chunks_cover_all_rows_exactly_once() {
        let a = test_matrix(103, 5);
        for &nc in &[1usize, 2, 3, 7, 16, 200] {
            let chunks = balanced_row_chunks(&a, nc);
            let mut next = 0;
            for c in &chunks {
                assert_eq!(c.start, next);
                assert!(c.end > c.start || chunks.len() == 1);
                next = c.end;
            }
            assert_eq!(next, a.nb_rows());
            assert!(chunks.len() <= nc.max(1));
        }
    }

    #[test]
    fn balanced_chunks_have_balanced_nnz() {
        let a = test_matrix(400, 8);
        let chunks = balanced_row_chunks(&a, 4);
        let nnz: Vec<usize> = chunks
            .iter()
            .map(|r| a.row_ptr()[r.end] - a.row_ptr()[r.start])
            .collect();
        let avg = a.nnz_blocks() as f64 / nnz.len() as f64;
        for v in &nnz {
            assert!((*v as f64) < 1.8 * avg, "imbalanced: {nnz:?}");
        }
    }

    #[test]
    fn empty_rows_are_handled() {
        // A matrix with some completely empty block rows.
        let mut t = BlockTripletBuilder::square(5);
        t.add(0, 0, Block3::IDENTITY);
        t.add(4, 4, Block3::scaled_identity(2.0));
        let a = t.build();
        let x = MultiVec::from_flat(15, 2, vec![1.0; 30]);
        let mut y = MultiVec::zeros(15, 2);
        gspmv_serial(&a, &x, &mut y);
        assert_eq!(y.get(0, 0), 1.0);
        assert_eq!(y.get(3, 0), 0.0); // empty row 1
        assert_eq!(y.get(12, 1), 2.0);
    }

    #[test]
    fn rectangular_gspmv() {
        let mut t = BlockTripletBuilder::new(2, 3);
        t.add(0, 2, Block3::IDENTITY);
        t.add(1, 0, Block3::scaled_identity(3.0));
        let a = t.build();
        let x = MultiVec::from_flat(9, 1, (1..=9).map(|v| v as f64).collect());
        let mut y = MultiVec::zeros(6, 1);
        gspmv_serial(&a, &x, &mut y);
        assert_eq!(y.column(0), vec![7.0, 8.0, 9.0, 3.0, 6.0, 9.0]);
    }
}
