//! Symmetric-storage GSPMV — beyond the paper.
//!
//! The paper's kernels "do not exploit any symmetry in the matrices"
//! (§IV) even though SD resistance matrices are symmetric. Storing only
//! the diagonal and strictly-upper blocks halves the dominant memory
//! stream, moving the bandwidth bound of Eq. 8 accordingly: each stored
//! off-diagonal block now contributes to two output rows (`y_i += B·x_j`
//! and `y_j += Bᵀ·x_i`).
//!
//! The scattered `y_j` writes preclude the disjoint-output-window thread
//! blocking of [`crate::gspmv::gspmv`], so the parallel kernel here uses
//! a two-phase scheme instead:
//!
//! 1. **Compute** — block rows are chunked with balanced stored-block
//!    counts; each chunk writes its *direct* contributions (diagonal,
//!    forward, and transpose terms landing inside the chunk) straight
//!    into its disjoint window of `Y`, and accumulates transpose terms
//!    that land *below* the chunk into a thread-private slab covering
//!    rows `chunk.end..nb` (strictly-upper storage guarantees every
//!    scattered write goes downward).
//! 2. **Reduce** — the same disjoint windows of `Y` are re-dealt to the
//!    pool and each thread adds every slab's overlap with its window.
//!
//! Both phases are monomorphized over the same [`SPECIALIZED_M`] set as
//! the full-storage kernels, and the auto driver falls back to the
//! serial kernel below the same stored-block threshold as `gspmv()`.
//!
//! **Determinism.** The floating-point summation order — and therefore
//! the exact bits of `Y` — depends only on the chunk boundaries, never
//! on which thread runs which chunk (windows are disjoint and each
//! window adds the slabs in fixed chunk-ascending order). The auto
//! driver [`SymmetricBcrs::gspmv_parallel`] therefore derives its chunk
//! count from the *matrix* ([`SymmetricBcrs::canonical_chunk_count`]),
//! not from the pool width, so its output is bitwise identical across
//! thread counts and repeated runs. (Earlier revisions chunked by
//! `rayon::current_num_threads()`, which silently changed the rounding
//! with `RAYON_NUM_THREADS` — the oracle harness now pins this down.)
//!
//! [`SPECIALIZED_M`]: crate::gspmv::SPECIALIZED_M

use crate::bcrs::BcrsMatrix;
use crate::block::Block3;
use crate::multivec::MultiVec;
use crate::BLOCK_DIM;
use std::ops::Range;

/// A symmetric block matrix storing the diagonal plus the strictly
/// upper triangle in block-CSR layout.
#[derive(Clone, Debug)]
pub struct SymmetricBcrs {
    nb: usize,
    /// Diagonal blocks, one per block row.
    diag: Vec<Block3>,
    /// CSR structure of the strictly-upper blocks.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    blocks: Vec<Block3>,
}

impl SymmetricBcrs {
    /// Builds from a full symmetric matrix, verifying symmetry within
    /// `tol`. Returns `None` if `a` is not symmetric.
    pub fn from_full(a: &BcrsMatrix, tol: f64) -> Option<Self> {
        if a.nb_rows() != a.nb_cols() || !a.is_symmetric_within(tol) {
            return None;
        }
        let nb = a.nb_rows();
        let mut diag = vec![Block3::ZERO; nb];
        let mut row_ptr = vec![0usize; nb + 1];
        let mut col_idx = Vec::new();
        let mut blocks = Vec::new();
        for bi in 0..nb {
            let (cols, blks) = a.block_row(bi);
            for (c, b) in cols.iter().zip(blks) {
                let bj = *c as usize;
                if bj == bi {
                    diag[bi] = *b;
                } else if bj > bi {
                    col_idx.push(*c);
                    blocks.push(*b);
                }
            }
            row_ptr[bi + 1] = blocks.len();
        }
        Some(SymmetricBcrs { nb, diag, row_ptr, col_idx, blocks })
    }

    /// Block rows.
    pub fn nb_rows(&self) -> usize {
        self.nb
    }

    /// Scalar dimension `3·nb` (the matrix is square).
    pub fn n_rows(&self) -> usize {
        self.nb * BLOCK_DIM
    }

    /// Stored blocks (diagonal + upper triangle).
    pub fn stored_blocks(&self) -> usize {
        self.nb + self.blocks.len()
    }

    /// Bytes streamed per multiply — roughly half the full-storage
    /// figure for matrices with many off-diagonal blocks. This is the
    /// `s_a`-weighted matrix term of the paper's Eq. 8 with the reduced
    /// block count (72 B per stored block, 4 B per upper column index,
    /// 4 B per row pointer).
    pub fn stream_bytes(&self) -> usize {
        self.stored_blocks() * 72 + self.blocks.len() * 4 + 4 * self.nb
    }

    /// `y = A·x` using symmetric storage (serial).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nb * BLOCK_DIM);
        assert_eq!(y.len(), self.nb * BLOCK_DIM);
        // diagonal pass
        for (bi, d) in self.diag.iter().enumerate() {
            let xb = [x[3 * bi], x[3 * bi + 1], x[3 * bi + 2]];
            let v = d.mul_vec(xb);
            y[3 * bi..3 * bi + 3].copy_from_slice(&v);
        }
        // upper blocks: forward and transposed contribution
        for bi in 0..self.nb {
            let xb = [x[3 * bi], x[3 * bi + 1], x[3 * bi + 2]];
            let mut acc = [0.0f64; 3];
            for k in self.row_ptr[bi]..self.row_ptr[bi + 1] {
                let bj = self.col_idx[k] as usize;
                let b = &self.blocks[k];
                let xj = [x[3 * bj], x[3 * bj + 1], x[3 * bj + 2]];
                let f = b.mul_vec(xj);
                acc[0] += f[0];
                acc[1] += f[1];
                acc[2] += f[2];
                let t = b.transpose().mul_vec(xb);
                y[3 * bj] += t[0];
                y[3 * bj + 1] += t[1];
                y[3 * bj + 2] += t[2];
            }
            y[3 * bi] += acc[0];
            y[3 * bi + 1] += acc[1];
            y[3 * bi + 2] += acc[2];
        }
    }

    /// `y = A·x` on slices, parallel when worthwhile (the `m = 1`
    /// instantiation of the chunked driver). Like
    /// [`Self::gspmv_parallel`], the result is bitwise independent of
    /// the pool width.
    pub fn spmv_parallel(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nb * BLOCK_DIM);
        assert_eq!(y.len(), self.nb * BLOCK_DIM);
        if self.stored_blocks() < PARALLEL_THRESHOLD {
            self.spmv(x, y);
            return;
        }
        self.run_chunked(x, y, 1, self.canonical_chunk_count(), false);
    }

    /// Counts one symmetric-storage GSPMV call under `gspmv_sym/m{m}/…`
    /// and opens its `kernel/gspmv_sym/m{m}` span. Flops count every
    /// *application*: each stored off-diagonal block hits two output
    /// rows (forward and transposed), so the flop total equals the
    /// full-storage one while the matrix stream is roughly halved.
    fn instrument_sym(&self, m: usize) -> crate::instrument::KernelGuard {
        let applied = (self.nb + 2 * self.blocks.len()) as u64;
        crate::instrument::record_kernel_call(
            "gspmv_sym",
            m,
            self.nb as u64,
            applied,
            self.stream_bytes() as u64,
        );
        crate::instrument::record_backend(crate::backend::active_backend().name());
        crate::instrument::kernel_span("gspmv_sym", m)
    }

    /// `Y = A·X` on row-major multivectors using symmetric storage
    /// (serial, monomorphized over `X.m()`).
    pub fn gspmv(&self, x: &MultiVec, y: &mut MultiVec) {
        let _span = self.instrument_sym(x.m());
        self.gspmv_impl(x, y);
    }

    fn gspmv_impl(&self, x: &MultiVec, y: &mut MultiVec) {
        let m = x.m();
        assert_eq!(x.n(), self.nb * BLOCK_DIM);
        assert_eq!(y.shape(), x.shape());
        // Serial = one chunk covering every row: all scattered writes
        // stay inside the window and the slab is empty.
        dispatch_sym_rows(
            self,
            x.as_slice(),
            y.as_mut_slice(),
            &mut [],
            self.nb,
            m,
            0..self.nb,
        );
    }

    /// Parallel `Y = A·X` with the same serial fallback threshold as
    /// the full-storage [`crate::gspmv::gspmv`].
    ///
    /// Both the fallback decision and the chunk count are pure
    /// functions of the matrix, so the output is **bitwise identical**
    /// across pool widths (`RAYON_NUM_THREADS` = 1, 2, 4, 8, …) and
    /// across repeated runs.
    pub fn gspmv_parallel(&self, x: &MultiVec, y: &mut MultiVec) {
        let _span = self.instrument_sym(x.m());
        if self.stored_blocks() < PARALLEL_THRESHOLD {
            self.gspmv_impl(x, y);
            return;
        }
        self.gspmv_chunked_impl(x, y, self.canonical_chunk_count());
    }

    /// The chunk count [`Self::gspmv_parallel`] uses above the serial
    /// threshold: a function of the stored-block count only, never of
    /// the pool width, so the parallel summation order is reproducible.
    pub fn canonical_chunk_count(&self) -> usize {
        self.stored_blocks().div_ceil(CHUNK_GRAIN).clamp(1, MAX_CHUNKS)
    }

    /// Parallel `Y = A·X` with an explicit chunk count — the entry
    /// point tests use to exercise the slab-and-reduce machinery for
    /// arbitrary chunkings. For a fixed `nchunks` the output is bitwise
    /// deterministic; *different* chunk counts round differently (they
    /// regroup the transpose-slab partial sums) and agree only within
    /// the kernel tolerance.
    pub fn gspmv_chunked(&self, x: &MultiVec, y: &mut MultiVec, nchunks: usize) {
        let _span = self.instrument_sym(x.m());
        self.gspmv_chunked_impl(x, y, nchunks);
    }

    fn gspmv_chunked_impl(&self, x: &MultiVec, y: &mut MultiVec, nchunks: usize) {
        let m = x.m();
        assert_eq!(x.n(), self.nb * BLOCK_DIM);
        assert_eq!(y.shape(), x.shape());
        if nchunks <= 1 || self.nb == 0 {
            self.gspmv_impl(x, y);
            return;
        }
        self.run_chunked(x.as_slice(), y.as_mut_slice(), m, nchunks, false);
    }

    /// Pool-free execution of the *identical* chunk schedule as
    /// [`Self::gspmv_chunked`]: phase-1 jobs in chunk order, then
    /// phase-2 jobs in chunk order, all on the calling thread. Exists
    /// so the oracle harness can prove the parallel result depends only
    /// on the chunking, not on execution interleaving — the two must
    /// match bitwise for every `nchunks`.
    pub fn gspmv_chunked_sequential(
        &self,
        x: &MultiVec,
        y: &mut MultiVec,
        nchunks: usize,
    ) {
        let m = x.m();
        assert_eq!(x.n(), self.nb * BLOCK_DIM);
        assert_eq!(y.shape(), x.shape());
        if nchunks <= 1 || self.nb == 0 {
            self.gspmv_impl(x, y);
            return;
        }
        self.run_chunked(x.as_slice(), y.as_mut_slice(), m, nchunks, true);
    }

    /// Diagonal blocks, one per block row (read-only view for reference
    /// implementations).
    pub fn diag_blocks(&self) -> &[Block3] {
        &self.diag
    }

    /// CSR structure of the strictly-upper blocks:
    /// `(row_ptr, col_idx, blocks)`.
    pub fn upper_parts(&self) -> (&[usize], &[u32], &[Block3]) {
        (&self.row_ptr, &self.col_idx, &self.blocks)
    }

    /// Two-phase chunked driver on raw row-major storage. With
    /// `sequential` the jobs run in chunk order on the calling thread
    /// instead of the pool; the values are identical either way.
    fn run_chunked(
        &self,
        xs: &[f64],
        ys: &mut [f64],
        m: usize,
        nchunks: usize,
        sequential: bool,
    ) {
        let chunks = self.balanced_row_chunks(nchunks);
        // Phase 1: compute. Each chunk owns a disjoint window of Y plus
        // a private slab for the rows below it.
        let mut slabs: Vec<Vec<f64>> = chunks
            .iter()
            .map(|r| vec![0.0f64; (self.nb - r.end) * BLOCK_DIM * m])
            .collect();
        {
            let mut jobs: Vec<(Range<usize>, &mut [f64], &mut Vec<f64>)> =
                Vec::with_capacity(chunks.len());
            let mut rest = &mut *ys;
            for (r, slab) in chunks.iter().zip(slabs.iter_mut()) {
                let (window, tail) =
                    rest.split_at_mut((r.end - r.start) * BLOCK_DIM * m);
                jobs.push((r.clone(), window, slab));
                rest = tail;
            }
            if sequential {
                for (rows, window, slab) in jobs {
                    dispatch_sym_rows(self, xs, window, slab, rows.end, m, rows);
                }
            } else {
                rayon::scope(|s| {
                    for (rows, window, slab) in jobs {
                        s.spawn(move |_| {
                            dispatch_sym_rows(
                                self, xs, window, slab, rows.end, m, rows,
                            );
                        });
                    }
                });
            }
        }
        // Phase 2: reduce. Re-deal the same disjoint windows; each adds
        // every slab's overlap with its rows. Slab `t` covers rows
        // `chunks[t].end..nb`, so only windows strictly below chunk `t`
        // see contributions from it.
        let slabs = &slabs;
        let chunks_ref = &chunks;
        let mut jobs: Vec<(Range<usize>, &mut [f64])> =
            Vec::with_capacity(chunks.len());
        let mut rest = ys;
        for r in chunks.iter() {
            let (window, tail) =
                rest.split_at_mut((r.end - r.start) * BLOCK_DIM * m);
            jobs.push((r.clone(), window));
            rest = tail;
        }
        let reduce = |rows: Range<usize>, window: &mut [f64]| {
            for (src_rows, slab) in chunks_ref.iter().zip(slabs) {
                let base = src_rows.end;
                if base >= rows.end {
                    continue;
                }
                // Overlap of [base, nb) with this window's rows.
                let lo = rows.start.max(base);
                let src = &slab[(lo - base) * BLOCK_DIM * m
                    ..(rows.end - base) * BLOCK_DIM * m];
                let dst = &mut window[(lo - rows.start) * BLOCK_DIM * m..];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
        };
        if sequential {
            for (rows, window) in jobs {
                reduce(rows, window);
            }
        } else {
            let reduce = &reduce;
            rayon::scope(|s| {
                for (rows, window) in jobs {
                    s.spawn(move |_| reduce(rows, window));
                }
            });
        }
    }

    /// Splits the block rows into at most `nchunks` contiguous ranges of
    /// approximately equal stored-block count (diagonal + upper blocks —
    /// the same weight the forward and transpose passes both scale with).
    #[allow(clippy::single_range_in_vec_init)]
    pub fn balanced_row_chunks(&self, nchunks: usize) -> Vec<Range<usize>> {
        let nb = self.nb;
        if nb == 0 || nchunks <= 1 {
            return vec![0..nb];
        }
        let total = self.stored_blocks();
        let target = (total / nchunks).max(1);
        let mut chunks = Vec::with_capacity(nchunks);
        let mut start = 0usize;
        let mut next_cut = target;
        for bi in 0..nb {
            // Cumulative weight through row bi: one diagonal block per
            // row plus the strictly-upper blocks.
            let through = bi + 1 + self.row_ptr[bi + 1];
            if through >= next_cut && bi + 1 > start && chunks.len() + 1 < nchunks {
                chunks.push(start..bi + 1);
                start = bi + 1;
                next_cut = through + target;
            }
        }
        if start < nb || chunks.is_empty() {
            chunks.push(start..nb);
        }
        chunks
    }
}

/// Stored-block count below which the auto drivers stay serial —
/// mirrors the threshold in [`crate::gspmv::gspmv`].
const PARALLEL_THRESHOLD: usize = 1 << 14;

/// Stored blocks per chunk targeted by
/// [`SymmetricBcrs::canonical_chunk_count`]. At the serial threshold
/// this yields 8 chunks, enough to keep small pools busy.
const CHUNK_GRAIN: usize = 1 << 11;

/// Upper bound on the canonical chunk count (slab memory scales with
/// the chunk count, so it is capped rather than scaling with the pool).
const MAX_CHUNKS: usize = 64;

/// Row-range symmetric kernel dispatch through the process-wide active
/// backend (see [`crate::backend`]).
///
/// Computes, for block rows `rows`:
/// * direct contributions (diagonal + forward + transpose terms landing
///   in `rows`) into `window` (the `Y` slice for exactly those rows),
/// * transpose contributions landing at row `slab_base` or below into
///   `slab` (row-major rows `slab_base..nb`, accumulated, not zeroed).
#[allow(clippy::too_many_arguments)]
fn dispatch_sym_rows(
    s: &SymmetricBcrs,
    x: &[f64],
    window: &mut [f64],
    slab: &mut [f64],
    slab_base: usize,
    m: usize,
    rows: Range<usize>,
) {
    crate::backend::active_backend()
        .sym_rows(s, x, window, slab, slab_base, m, rows);
}

/// The portable monomorphized symmetric row kernel — the scalar
/// backend's implementation of [`dispatch_sym_rows`]'s contract, also
/// the SIMD backend's delegation target for widths below one vector.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_sym_rows_scalar(
    s: &SymmetricBcrs,
    x: &[f64],
    window: &mut [f64],
    slab: &mut [f64],
    slab_base: usize,
    m: usize,
    rows: Range<usize>,
) {
    match m {
        1 => sym_rows_fixed::<1>(s, x, window, slab, slab_base, rows),
        2 => sym_rows_fixed::<2>(s, x, window, slab, slab_base, rows),
        4 => sym_rows_fixed::<4>(s, x, window, slab, slab_base, rows),
        8 => sym_rows_fixed::<8>(s, x, window, slab, slab_base, rows),
        12 => sym_rows_fixed::<12>(s, x, window, slab, slab_base, rows),
        16 => sym_rows_fixed::<16>(s, x, window, slab, slab_base, rows),
        24 => sym_rows_fixed::<24>(s, x, window, slab, slab_base, rows),
        32 => sym_rows_fixed::<32>(s, x, window, slab, slab_base, rows),
        42 => sym_rows_fixed::<42>(s, x, window, slab, slab_base, rows),
        48 => sym_rows_fixed::<48>(s, x, window, slab, slab_base, rows),
        _ => sym_rows_generic(s, x, window, slab, slab_base, m, rows),
    }
}

/// Monomorphized symmetric row-range kernel; see [`dispatch_sym_rows`]
/// for the contract.
fn sym_rows_fixed<const M: usize>(
    s: &SymmetricBcrs,
    x: &[f64],
    window: &mut [f64],
    slab: &mut [f64],
    slab_base: usize,
    rows: Range<usize>,
) {
    let y_base = rows.start * BLOCK_DIM * M;
    // Pass 1 — overwrite each window row with its diagonal + forward
    // terms. Must complete before any transpose term lands in-window
    // (transpose targets are strictly below their source row).
    for bi in rows.clone() {
        let xi = &x[bi * BLOCK_DIM * M..(bi + 1) * BLOCK_DIM * M];
        let mut acc = [[0.0f64; M]; BLOCK_DIM];
        block_madd_fixed::<M>(&s.diag[bi], xi, &mut acc, false);
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            let xj = &x[bj * BLOCK_DIM * M..(bj + 1) * BLOCK_DIM * M];
            block_madd_fixed::<M>(&s.blocks[k], xj, &mut acc, false);
        }
        let yo = bi * BLOCK_DIM * M - y_base;
        for i in 0..BLOCK_DIM {
            window[yo + i * M..yo + (i + 1) * M].copy_from_slice(&acc[i]);
        }
    }
    // Pass 2 — scatter transpose terms: in-window rows accumulate
    // directly, rows at or below `slab_base` accumulate into the slab.
    for bi in rows.clone() {
        let xi = &x[bi * BLOCK_DIM * M..(bi + 1) * BLOCK_DIM * M];
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            let b = &s.blocks[k];
            let target = if bj < rows.end {
                let yo = bj * BLOCK_DIM * M - y_base;
                &mut window[yo..yo + BLOCK_DIM * M]
            } else {
                let so = (bj - slab_base) * BLOCK_DIM * M;
                &mut slab[so..so + BLOCK_DIM * M]
            };
            let mut acc = [[0.0f64; M]; BLOCK_DIM];
            block_madd_fixed::<M>(b, xi, &mut acc, true);
            for i in 0..BLOCK_DIM {
                let t = &mut target[i * M..(i + 1) * M];
                for (tv, av) in t.iter_mut().zip(&acc[i]) {
                    *tv += av;
                }
            }
        }
    }
}

/// `acc (3×M) += B·x_slab` (or `Bᵀ·x_slab` when `transpose`) with
/// compile-time trip counts — the symmetric-storage version of the
/// paper's basic kernel.
#[inline]
fn block_madd_fixed<const M: usize>(
    b: &Block3,
    x: &[f64],
    acc: &mut [[f64; M]; BLOCK_DIM],
    transpose: bool,
) {
    let x0: &[f64; M] = x[..M].try_into().unwrap();
    let x1: &[f64; M] = x[M..2 * M].try_into().unwrap();
    let x2: &[f64; M] = x[2 * M..3 * M].try_into().unwrap();
    for i in 0..BLOCK_DIM {
        let (a0, a1, a2) = if transpose {
            (b.get(0, i), b.get(1, i), b.get(2, i))
        } else {
            (b.get(i, 0), b.get(i, 1), b.get(i, 2))
        };
        let acc_i = &mut acc[i];
        for j in 0..M {
            acc_i[j] += a0 * x0[j] + a1 * x1[j] + a2 * x2[j];
        }
    }
}

/// Any-`m` fallback with the same two-pass structure as
/// [`sym_rows_fixed`], the scalar backend's kernel for off-grid `m`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sym_rows_generic(
    s: &SymmetricBcrs,
    x: &[f64],
    window: &mut [f64],
    slab: &mut [f64],
    slab_base: usize,
    m: usize,
    rows: Range<usize>,
) {
    let y_base = rows.start * BLOCK_DIM * m;
    for bi in rows.clone() {
        let yo = bi * BLOCK_DIM * m - y_base;
        let yr = &mut window[yo..yo + BLOCK_DIM * m];
        let xi = &x[bi * BLOCK_DIM * m..(bi + 1) * BLOCK_DIM * m];
        block_mul_slab(&s.diag[bi], xi, yr, m, true);
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            let xj = &x[bj * BLOCK_DIM * m..(bj + 1) * BLOCK_DIM * m];
            accumulate_block(&s.blocks[k], xj, yr, m, false);
        }
    }
    for bi in rows.clone() {
        let xi = &x[bi * BLOCK_DIM * m..(bi + 1) * BLOCK_DIM * m];
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            let target = if bj < rows.end {
                let yo = bj * BLOCK_DIM * m - y_base;
                &mut window[yo..yo + BLOCK_DIM * m]
            } else {
                let so = (bj - slab_base) * BLOCK_DIM * m;
                &mut slab[so..so + BLOCK_DIM * m]
            };
            accumulate_block(&s.blocks[k], xi, target, m, true);
        }
    }
}

/// `y_slab (3×m) (+)= B·x_slab`, writing when `overwrite`.
fn block_mul_slab(b: &Block3, x: &[f64], y: &mut [f64], m: usize, overwrite: bool) {
    for i in 0..BLOCK_DIM {
        for j in 0..m {
            let mut acc = 0.0;
            for c in 0..BLOCK_DIM {
                acc += b.get(i, c) * x[c * m + j];
            }
            if overwrite {
                y[i * m + j] = acc;
            } else {
                y[i * m + j] += acc;
            }
        }
    }
}

/// `y_slab += B·x_slab` (or `Bᵀ·x_slab` when `transpose`).
fn accumulate_block(
    b: &Block3,
    x: &[f64],
    y: &mut [f64],
    m: usize,
    transpose: bool,
) {
    for i in 0..BLOCK_DIM {
        for c in 0..BLOCK_DIM {
            let a = if transpose { b.get(c, i) } else { b.get(i, c) };
            if a != 0.0 {
                let xr = &x[c * m..c * m + m];
                let yr = &mut y[i * m..i * m + m];
                for (yv, xv) in yr.iter_mut().zip(xr) {
                    *yv += a * xv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gspmv::{gspmv_serial, spmv_serial, SPECIALIZED_M};
    use crate::triplet::BlockTripletBuilder;

    fn random_symmetric(nb: usize, seed: u64) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for i in 0..nb {
            let mut d = Block3::ZERO;
            for v in d.0.iter_mut() {
                *v = next();
            }
            t.add(i, i, (d + d.transpose()) * 0.5 + Block3::scaled_identity(4.0));
            for off in 1..4 {
                if i + off < nb && next() > 0.0 {
                    let mut b = Block3::ZERO;
                    for v in b.0.iter_mut() {
                        *v = next();
                    }
                    t.add_symmetric_pair(i, i + off, b);
                }
            }
        }
        t.build()
    }

    fn pseudo_multivec(n: usize, m: usize, seed: u64) -> MultiVec {
        MultiVec::from_flat(
            n,
            m,
            (0..n * m)
                .map(|v| (((v as u64).wrapping_mul(seed | 1) % 23) as f64) - 11.0)
                .collect(),
        )
    }

    fn assert_matches_full(
        a: &BcrsMatrix,
        got: &MultiVec,
        x: &MultiVec,
        ctx: &str,
    ) {
        let mut want = MultiVec::zeros(x.n(), x.m());
        gspmv_serial(a, x, &mut want);
        for (u, v) in want.as_slice().iter().zip(got.as_slice()) {
            assert!(
                (u - v).abs() <= 1e-12 * u.abs().max(v.abs()).max(1.0),
                "{ctx}: {u} vs {v}"
            );
        }
    }

    #[test]
    fn rejects_asymmetric_matrix() {
        let mut t = BlockTripletBuilder::square(2);
        t.add(0, 0, Block3::IDENTITY);
        t.add(1, 1, Block3::IDENTITY);
        t.add(0, 1, Block3::scaled_identity(2.0)); // no transpose partner
        let a = t.build();
        assert!(SymmetricBcrs::from_full(&a, 1e-12).is_none());
    }

    #[test]
    fn stores_about_half_the_blocks() {
        let a = random_symmetric(40, 3);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let full = a.nnz_blocks();
        let half = s.stored_blocks();
        // exactly the diagonal plus half of the off-diagonal blocks
        assert_eq!(half, (full + a.nb_rows()) / 2, "{half} vs {full}");
        assert!(s.stream_bytes() < a.stream_bytes());
    }

    #[test]
    fn spmv_matches_full_storage() {
        let a = random_symmetric(30, 7);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv_serial(&a, &x, &mut y1);
        s.spmv(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() <= 1e-10 * u.abs().max(1.0), "{u} vs {v}");
        }
    }

    #[test]
    fn serial_gspmv_matches_full_storage_all_specialized_m() {
        let a = random_symmetric(25, 11);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        for &m in SPECIALIZED_M {
            let x = pseudo_multivec(n, m, 7);
            let mut y = MultiVec::zeros(n, m);
            s.gspmv(&x, &mut y);
            assert_matches_full(&a, &y, &x, &format!("serial m={m}"));
        }
        // And a non-specialized size through the generic fallback.
        let x = pseudo_multivec(n, 7, 13);
        let mut y = MultiVec::zeros(n, 7);
        s.gspmv(&x, &mut y);
        assert_matches_full(&a, &y, &x, "serial m=7 (generic)");
    }

    #[test]
    fn threaded_gspmv_matches_full_storage_all_specialized_m() {
        let a = random_symmetric(60, 17);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        for &m in SPECIALIZED_M {
            for nthreads in [2usize, 3, 5] {
                let x = pseudo_multivec(n, m, 29 + m as u64);
                let mut y = MultiVec::zeros(n, m);
                s.gspmv_chunked(&x, &mut y, nthreads);
                assert_matches_full(&a, &y, &x, &format!("m={m} t={nthreads}"));
            }
        }
    }

    #[test]
    fn threaded_generic_fallback_matches() {
        let a = random_symmetric(40, 5);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        for m in [3usize, 7, 10] {
            let x = pseudo_multivec(n, m, 3);
            let mut y = MultiVec::zeros(n, m);
            s.gspmv_chunked(&x, &mut y, 4);
            assert_matches_full(&a, &y, &x, &format!("generic m={m}"));
        }
    }

    #[test]
    fn threaded_handles_empty_and_dense_rows() {
        // Row 0 dense (couples to every other row), rows 2 and 5 empty
        // apart from the (implicit, zero) diagonal.
        let nb = 9;
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            if i != 2 && i != 5 {
                t.add(i, i, Block3::scaled_identity(3.0));
            }
        }
        for j in 1..nb {
            if j != 2 && j != 5 {
                t.add_symmetric_pair(0, j, Block3::scaled_identity(0.5 + j as f64));
            }
        }
        let a = t.build();
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        for m in [1usize, 4, 8] {
            let x = pseudo_multivec(n, m, 11);
            let mut y = MultiVec::zeros(n, m);
            s.gspmv_chunked(&x, &mut y, 3);
            assert_matches_full(&a, &y, &x, &format!("dense/empty m={m}"));
        }
    }

    #[test]
    fn spmv_parallel_matches_serial() {
        let a = random_symmetric(80, 23);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 29) as f64) - 14.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        s.spmv(&x, &mut y1);
        s.spmv_parallel(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() <= 1e-12 * u.abs().max(1.0));
        }
    }

    #[test]
    fn balanced_chunks_cover_rows_exactly_once() {
        let a = random_symmetric(103, 41);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        for nc in [1usize, 2, 3, 7, 16, 300] {
            let chunks = s.balanced_row_chunks(nc);
            let mut next = 0;
            for c in &chunks {
                assert_eq!(c.start, next);
                assert!(c.end > c.start || chunks.len() == 1);
                next = c.end;
            }
            assert_eq!(next, s.nb_rows());
            assert!(chunks.len() <= nc.max(1));
        }
    }

    #[test]
    fn diagonal_matrix_round_trip() {
        let a = BcrsMatrix::scaled_identity(6, 3.0);
        let s = SymmetricBcrs::from_full(&a, 0.0).unwrap();
        assert_eq!(s.stored_blocks(), 6);
        let x = vec![2.0; 18];
        let mut y = vec![0.0; 18];
        s.spmv(&x, &mut y);
        assert!(y.iter().all(|&v| (v - 6.0).abs() < 1e-14));
    }
}
