//! Runtime-dispatched kernel backends.
//!
//! The paper's kernels were emitted by a code generator targeting the
//! host's SIMD width (§IV-A1). This workspace's portable analogue is
//! monomorphization (`gspmv_rows_fixed::<M>` relies on LLVM
//! autovectorization at the build's baseline target features), which
//! leaves real speed on the table when the *running* CPU has wider
//! vectors than the build target (the common case: portable builds are
//! SSE2-baseline, servers have AVX2/AVX-512). This module closes that
//! gap with a [`KernelBackend`] trait and two implementations:
//!
//! * **scalar** — the original monomorphized kernels, kept bit-for-bit
//!   as the portable reference;
//! * **simd** — explicit `core::arch` intrinsics (AVX-512 / AVX2+FMA /
//!   NEON) with register-tiled `m`-lane micro-kernels, selected against
//!   the ISA detected *at run time* (see [`crate::simd`]).
//!
//! The backend is chosen **once per process** ([`active_backend`]):
//! `MRHS_KERNEL_BACKEND=scalar|simd` overrides, otherwise the
//! best backend for the detected ISA wins (SIMD when any vector ISA is
//! present, scalar otherwise). Every GSPMV entry point — full storage,
//! dedup storage, and the symmetric two-phase driver — routes its row
//! ranges through the active backend, so solvers, the distributed
//! engine, and the solve service inherit the dispatch for free.
//!
//! All backends share the determinism contracts the oracle pins down:
//! within one backend, serial/auto/chunked full-storage results are
//! bitwise identical (row accumulation never crosses a chunk), and the
//! dedup path is bitwise identical to full storage (same kernel, same
//! order, pool-indirect block fetch). *Across* backends results differ
//! only in rounding (the SIMD path uses fused multiply-adds), within
//! the oracle's `TolModel::KERNEL` bounds.

use crate::bcrs::BcrsMatrix;
use crate::dedup::DedupBcrs;
use crate::gspmv::dispatch_rows_scalar;
use crate::simd;
use crate::symmetric::{dispatch_sym_rows_scalar, SymmetricBcrs};
use std::ops::Range;
use std::sync::OnceLock;

/// The one width grid every backend currently specializes: the `m`
/// values with dedicated fast paths in the monomorphized kernels, the
/// SIMD chunk decomposition, and the dense MultiVec ops. Exposed
/// per-backend through [`KernelBackend::specialized_widths`] so
/// width-choosing layers (the solve service's batcher) query the
/// *active* backend instead of a constant that could drift.
pub const WIDTH_GRID: [usize; 10] = [1, 2, 4, 8, 12, 16, 24, 32, 42, 48];

/// Which kernel implementation family a backend belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Monomorphized portable kernels (the reference).
    Scalar,
    /// Explicit `core::arch` SIMD kernels.
    Simd,
}

impl KernelKind {
    /// Stable lowercase name (used in env overrides, telemetry counter
    /// tags, oracle backend names, and bench reports).
    pub const fn as_str(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Simd => "simd",
        }
    }

    /// Parses an `MRHS_KERNEL_BACKEND` value.
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "mono" | "monomorphized" => Some(KernelKind::Scalar),
            "simd" => Some(KernelKind::Simd),
            _ => None,
        }
    }

    /// All kinds, in dispatch-preference order.
    pub const ALL: [KernelKind; 2] = [KernelKind::Simd, KernelKind::Scalar];
}

/// Vector instruction set a backend's kernels target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Isa {
    /// x86-64 AVX-512F (8 f64 lanes).
    Avx512,
    /// x86-64 AVX2 + FMA (4 f64 lanes).
    Avx2,
    /// AArch64 Advanced SIMD (2 f64 lanes, baseline on aarch64).
    Neon,
    /// No explicit vector ISA — whatever the build baseline provides.
    Portable,
}

impl Isa {
    /// Stable lowercase name (recorded in bench reports).
    pub const fn as_str(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
            Isa::Portable => "portable",
        }
    }
}

/// Runtime CPU-feature detection, cached. AVX-512F beats AVX2 beats the
/// portable baseline on x86-64; NEON is unconditionally available on
/// aarch64.
pub fn detect_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Isa::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            return Isa::Neon;
        }
        #[allow(unreachable_code)]
        Isa::Portable
    })
}

/// One kernel implementation family: row-range kernels for every
/// storage format plus the width grid it specializes. Implementations
/// are zero-sized and `'static`; dispatch happens per *row range*, so
/// the virtual call is amortized over an entire chunk of block rows.
pub trait KernelBackend: Sync {
    /// Which family this is.
    fn kind(&self) -> KernelKind;

    /// The vector ISA the kernels use (`Portable` for scalar).
    fn isa(&self) -> Isa;

    /// Stable name for telemetry/report tagging.
    fn name(&self) -> &'static str {
        self.kind().as_str()
    }

    /// The `m` grid with dedicated fast paths — what the solve
    /// service's width snapping must use.
    fn specialized_widths(&self) -> &'static [usize] {
        &WIDTH_GRID
    }

    /// Full-storage GSPMV over `rows`; `y` is the slice for exactly
    /// those rows (disjoint windows in the chunked driver).
    fn gspmv_rows(
        &self,
        a: &BcrsMatrix,
        x: &[f64],
        y: &mut [f64],
        m: usize,
        rows: Range<usize>,
    );

    /// Dedup-storage GSPMV over `rows` — the same contract with blocks
    /// fetched through the pool indirection. Must be bitwise identical
    /// to [`Self::gspmv_rows`] on the expanded matrix.
    fn gspmv_rows_dedup(
        &self,
        d: &DedupBcrs,
        x: &[f64],
        y: &mut [f64],
        m: usize,
        rows: Range<usize>,
    );

    /// Fused row kernel for the shifted Chebyshev three-term
    /// recurrence (the SpMPV wavefront's per-cell step): for `rows`
    /// only, computes the next level
    /// `out = 2·(A·u_cur − mid·u_cur)/half − u_prev`, or just
    /// `(A·u_cur − mid·u_cur)/half` when `u_prev` is `None` (the first
    /// level, `u_1 = Ã·u_0`). `out` is the slice for exactly those
    /// rows; `u_cur`/`u_prev` span the full operand because the column
    /// gather reaches outside `rows`. Provided in terms of
    /// [`Self::gspmv_rows`] plus a portable elementwise combine, so
    /// every backend family serves the fused Chebyshev path;
    /// implementations may override with a fully fused kernel.
    #[allow(clippy::too_many_arguments)]
    fn cheb_shifted_rows(
        &self,
        a: &BcrsMatrix,
        u_cur: &[f64],
        u_prev: Option<&[f64]>,
        out: &mut [f64],
        mid: f64,
        half: f64,
        m: usize,
        rows: Range<usize>,
    ) {
        self.gspmv_rows(a, u_cur, out, m, rows.clone());
        let inv = 1.0 / half;
        let base = rows.start * crate::BLOCK_DIM * m;
        let cur = &u_cur[base..base + out.len()];
        match u_prev {
            None => {
                for (o, &c) in out.iter_mut().zip(cur) {
                    *o = (*o - mid * c) * inv;
                }
            }
            Some(up) => {
                let prev = &up[base..base + cur.len()];
                for ((o, &c), &p) in out.iter_mut().zip(cur).zip(prev) {
                    *o = 2.0 * ((*o - mid * c) * inv) - p;
                }
            }
        }
    }

    /// Symmetric-storage two-phase row kernel; see
    /// `symmetric::dispatch_sym_rows` for the window/slab contract.
    #[allow(clippy::too_many_arguments)]
    fn sym_rows(
        &self,
        s: &SymmetricBcrs,
        x: &[f64],
        window: &mut [f64],
        slab: &mut [f64],
        slab_base: usize,
        m: usize,
        rows: Range<usize>,
    );
}

/// The monomorphized reference backend.
struct ScalarBackend;

impl KernelBackend for ScalarBackend {
    fn kind(&self) -> KernelKind {
        KernelKind::Scalar
    }
    fn isa(&self) -> Isa {
        Isa::Portable
    }
    fn gspmv_rows(
        &self,
        a: &BcrsMatrix,
        x: &[f64],
        y: &mut [f64],
        m: usize,
        rows: Range<usize>,
    ) {
        dispatch_rows_scalar(a.row_ptr(), a.col_idx(), a.blocks(), x, y, m, rows);
    }
    fn gspmv_rows_dedup(
        &self,
        d: &DedupBcrs,
        x: &[f64],
        y: &mut [f64],
        m: usize,
        rows: Range<usize>,
    ) {
        dispatch_rows_scalar(
            d.row_ptr(),
            d.col_idx(),
            d.pool_blocks(),
            x,
            y,
            m,
            rows,
        );
    }
    fn sym_rows(
        &self,
        s: &SymmetricBcrs,
        x: &[f64],
        window: &mut [f64],
        slab: &mut [f64],
        slab_base: usize,
        m: usize,
        rows: Range<usize>,
    ) {
        dispatch_sym_rows_scalar(s, x, window, slab, slab_base, m, rows);
    }
}

/// Explicit-SIMD backend carrying the detected ISA. Widths narrower
/// than one vector delegate to the scalar backend (they would be all
/// scalar tail anyway, and the monomorphized kernels are better there).
struct SimdBackend(Isa);

impl SimdBackend {
    #[inline]
    fn narrow(&self, m: usize) -> bool {
        m < simd::min_vector_width(self.0)
    }
}

impl KernelBackend for SimdBackend {
    fn kind(&self) -> KernelKind {
        KernelKind::Simd
    }
    fn isa(&self) -> Isa {
        self.0
    }
    fn gspmv_rows(
        &self,
        a: &BcrsMatrix,
        x: &[f64],
        y: &mut [f64],
        m: usize,
        rows: Range<usize>,
    ) {
        if self.narrow(m) {
            return ScalarBackend.gspmv_rows(a, x, y, m, rows);
        }
        simd::gspmv_rows(
            self.0,
            a.row_ptr(),
            a.col_idx(),
            a.blocks(),
            x,
            y,
            m,
            rows,
        );
    }
    fn gspmv_rows_dedup(
        &self,
        d: &DedupBcrs,
        x: &[f64],
        y: &mut [f64],
        m: usize,
        rows: Range<usize>,
    ) {
        if self.narrow(m) {
            return ScalarBackend.gspmv_rows_dedup(d, x, y, m, rows);
        }
        simd::gspmv_rows(
            self.0,
            d.row_ptr(),
            d.col_idx(),
            d.pool_blocks(),
            x,
            y,
            m,
            rows,
        );
    }
    fn sym_rows(
        &self,
        s: &SymmetricBcrs,
        x: &[f64],
        window: &mut [f64],
        slab: &mut [f64],
        slab_base: usize,
        m: usize,
        rows: Range<usize>,
    ) {
        if self.narrow(m) {
            return ScalarBackend.sym_rows(s, x, window, slab, slab_base, m, rows);
        }
        simd::sym_rows(self.0, s, x, window, slab, slab_base, m, rows);
    }
}

static SCALAR: ScalarBackend = ScalarBackend;

/// The backend for an explicit kind, or `None` when the host cannot
/// run it (`Simd` without a detected vector ISA).
pub fn backend_for(kind: KernelKind) -> Option<&'static dyn KernelBackend> {
    match kind {
        KernelKind::Scalar => Some(&SCALAR),
        KernelKind::Simd => {
            let isa = detect_isa();
            if isa == Isa::Portable {
                return None;
            }
            static SIMD: OnceLock<SimdBackend> = OnceLock::new();
            Some(SIMD.get_or_init(|| SimdBackend(isa)))
        }
    }
}

/// Whether [`backend_for`] would succeed — what oracle backends and
/// bench ablations use to skip unavailable kinds.
pub fn backend_available(kind: KernelKind) -> bool {
    backend_for(kind).is_some()
}

/// Pure selection policy: the kind that an env override `requested`
/// plus a detected ISA resolve to. Unknown override values and `simd`
/// on a vector-less host fall back to the auto choice; auto picks SIMD
/// whenever a vector ISA is present.
pub fn select_kind(requested: Option<&str>, isa: Isa) -> KernelKind {
    let auto =
        if isa == Isa::Portable { KernelKind::Scalar } else { KernelKind::Simd };
    match requested.and_then(KernelKind::parse) {
        Some(KernelKind::Simd) if isa == Isa::Portable => KernelKind::Scalar,
        Some(k) => k,
        None => auto,
    }
}

/// The process-wide active backend, selected once on first use from
/// `MRHS_KERNEL_BACKEND` and the detected ISA.
pub fn active_backend() -> &'static dyn KernelBackend {
    static ACTIVE: OnceLock<&'static dyn KernelBackend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let kind = select_kind(
            std::env::var("MRHS_KERNEL_BACKEND").ok().as_deref(),
            detect_isa(),
        );
        backend_for(kind).unwrap_or(&SCALAR)
    })
}

/// The ISA of the SIMD dense-kernel fast path for width `m`, when the
/// active backend is SIMD and `m` spans at least one vector — the gate
/// the MultiVec dense ops (Gram, `X += P·C`, fused sub-mul-gram) use.
pub(crate) fn simd_dense_isa(m: usize) -> Option<Isa> {
    let b = active_backend();
    if b.kind() != KernelKind::Simd {
        return None;
    }
    let isa = b.isa();
    (m >= simd::min_vector_width(isa)).then_some(isa)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_policy() {
        // Explicit overrides win where runnable.
        assert_eq!(select_kind(Some("scalar"), Isa::Avx512), KernelKind::Scalar);
        assert_eq!(select_kind(Some("mono"), Isa::Avx2), KernelKind::Scalar);
        assert_eq!(select_kind(Some("simd"), Isa::Avx2), KernelKind::Simd);
        // SIMD without a vector ISA degrades to scalar.
        assert_eq!(select_kind(Some("simd"), Isa::Portable), KernelKind::Scalar);
        // Auto: SIMD when vectors exist, scalar otherwise.
        assert_eq!(select_kind(None, Isa::Avx512), KernelKind::Simd);
        assert_eq!(select_kind(None, Isa::Neon), KernelKind::Simd);
        assert_eq!(select_kind(None, Isa::Portable), KernelKind::Scalar);
        // Unknown values (a stale "generic" included) fall back to
        // auto, not a panic.
        assert_eq!(select_kind(Some("generic"), Isa::Avx512), KernelKind::Simd);
        assert_eq!(select_kind(Some("turbo"), Isa::Portable), KernelKind::Scalar);
        assert_eq!(select_kind(Some("turbo"), Isa::Avx2), KernelKind::Simd);
    }

    #[test]
    fn scalar_always_available() {
        assert!(backend_available(KernelKind::Scalar));
        // Whatever the host, the active backend resolves.
        let b = active_backend();
        assert!(!b.name().is_empty());
        assert!(b.specialized_widths().contains(&1));
    }

    #[test]
    fn simd_backend_matches_detection() {
        let isa = detect_isa();
        assert_eq!(backend_available(KernelKind::Simd), isa != Isa::Portable);
        if let Some(b) = backend_for(KernelKind::Simd) {
            assert_eq!(b.kind(), KernelKind::Simd);
            assert_eq!(b.isa(), isa);
        }
    }

    #[test]
    fn width_grid_is_sorted_and_starts_at_one() {
        assert_eq!(WIDTH_GRID[0], 1);
        assert!(WIDTH_GRID.windows(2).all(|w| w[0] < w[1]));
    }
}
