//! The registry of GSPMV implementations under differential test.
//!
//! Every backend is normalized to the same contract: multivector in,
//! multivector out, **original row ordering** — backends that operate
//! in a permuted space (the distributed engine) or on an alternative
//! storage format (symmetric half storage) do their own conversion, so
//! the runner can difference any backend against any other.
//!
//! Backends may declare a *bitwise group*: backends in the same group
//! must produce bit-identical output on every input, not just
//! tolerance-equal. The groups encode the determinism contracts the
//! kernels document:
//!
//! * full-storage serial, auto, and chunked at any chunk count all
//!   share one group (each output row is accumulated in the fixed
//!   per-row block order regardless of chunking);
//! * the symmetric pool and sequential drivers share one group *per
//!   chunk count* (the slab reduction groups partial sums by chunk, so
//!   bits depend on the chunk boundaries but never on thread
//!   interleaving).

use crate::corpus::CorpusEntry;
use mrhs_cluster::{DistEngine, DistributedMatrix};
use mrhs_sparse::partition::{contiguous_partition, Partition};
use mrhs_sparse::{
    backend_available, gspmv_chunked, gspmv_chunked_with, gspmv_serial,
    gspmv_serial_with, DedupBcrs, KernelKind, MultiVec,
};

/// One GSPMV implementation under test.
pub trait GspmvBackend: Sync {
    /// Stable display name, e.g. `sym_chunked(4)`.
    fn name(&self) -> String;

    /// Whether this backend can run this corpus entry at all
    /// (symmetric backends need half storage; the distributed engine
    /// needs a square symmetric-pattern matrix).
    fn supports(&self, entry: &CorpusEntry) -> bool;

    /// Whether this backend wants to run at this `m` (expensive
    /// backends may subsample the grid).
    fn wants_m(&self, _m: usize) -> bool {
        true
    }

    /// Computes `Y = R·X` in the original row ordering.
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec;

    /// Bitwise-equivalence group, if any.
    fn bitwise_group(&self) -> Option<String> {
        None
    }
}

fn sym(entry: &CorpusEntry) -> &mrhs_sparse::SymmetricBcrs {
    entry.symmetric.as_ref().expect("caller checked supports()")
}

/// `gspmv_serial` — the baseline everything else groups with.
pub struct SerialFull;

impl GspmvBackend for SerialFull {
    fn name(&self) -> String {
        "full_serial".into()
    }
    fn supports(&self, _: &CorpusEntry) -> bool {
        true
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let mut y = MultiVec::zeros(entry.matrix.n_rows(), x.m());
        gspmv_serial(&entry.matrix, x, &mut y);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        Some("full".into())
    }
}

/// The auto driver `gspmv` — must be bit-identical to serial whatever
/// the ambient pool width.
pub struct AutoFull;

impl GspmvBackend for AutoFull {
    fn name(&self) -> String {
        "full_auto".into()
    }
    fn supports(&self, _: &CorpusEntry) -> bool {
        true
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let mut y = MultiVec::zeros(entry.matrix.n_rows(), x.m());
        mrhs_sparse::gspmv(&entry.matrix, x, &mut y);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        Some("full".into())
    }
}

/// Full-storage chunked driver at an explicit chunk count — stands in
/// for "parallel at `n` threads" without needing `n` OS threads.
pub struct ChunkedFull(pub usize);

impl GspmvBackend for ChunkedFull {
    fn name(&self) -> String {
        format!("full_chunked({})", self.0)
    }
    fn supports(&self, _: &CorpusEntry) -> bool {
        true
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let mut y = MultiVec::zeros(entry.matrix.n_rows(), x.m());
        gspmv_chunked(&entry.matrix, x, &mut y, self.0);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        Some("full".into())
    }
}

/// Serial symmetric half-storage GSPMV.
pub struct SymSerial;

impl GspmvBackend for SymSerial {
    fn name(&self) -> String {
        "sym_serial".into()
    }
    fn supports(&self, entry: &CorpusEntry) -> bool {
        entry.symmetric.is_some()
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let s = sym(entry);
        let mut y = MultiVec::zeros(s.n_rows(), x.m());
        s.gspmv(x, &mut y);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        // Chunk count 1 falls back to the serial kernel.
        Some("sym(1)".into())
    }
}

/// Symmetric chunked driver (rayon pool execution) at an explicit
/// chunk count.
pub struct SymChunked(pub usize);

impl GspmvBackend for SymChunked {
    fn name(&self) -> String {
        format!("sym_chunked({})", self.0)
    }
    fn supports(&self, entry: &CorpusEntry) -> bool {
        entry.symmetric.is_some()
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let s = sym(entry);
        let mut y = MultiVec::zeros(s.n_rows(), x.m());
        s.gspmv_chunked(x, &mut y, self.0);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        Some(format!("sym({})", self.0))
    }
}

/// The same chunk schedule executed without the pool — proves the
/// symmetric kernel's bits depend on the chunk boundaries only, never
/// on thread interleaving.
pub struct SymChunkedSequential(pub usize);

impl GspmvBackend for SymChunkedSequential {
    fn name(&self) -> String {
        format!("sym_chunked_seq({})", self.0)
    }
    fn supports(&self, entry: &CorpusEntry) -> bool {
        entry.symmetric.is_some()
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let s = sym(entry);
        let mut y = MultiVec::zeros(s.n_rows(), x.m());
        s.gspmv_chunked_sequential(x, &mut y, self.0);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        Some(format!("sym({})", self.0))
    }
}

/// The symmetric auto driver — must be bit-identical to the canonical
/// chunk count, whatever the pool width.
pub struct SymAuto;

impl GspmvBackend for SymAuto {
    fn name(&self) -> String {
        "sym_auto".into()
    }
    fn supports(&self, entry: &CorpusEntry) -> bool {
        entry.symmetric.is_some()
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let s = sym(entry);
        let mut y = MultiVec::zeros(s.n_rows(), x.m());
        s.gspmv_parallel(x, &mut y);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        // Matches whichever chunk count the matrix canonically gets.
        None
    }
}

/// Full-storage serial GSPMV through an explicitly forced kernel
/// backend (scalar / SIMD). Each kind gets its own bitwise
/// group: different backends round FMA chains differently, so they are
/// only *tolerance*-equal to each other, while serial/chunked/dedup
/// within one kind must match bit for bit.
pub struct KindFull(pub KernelKind);

impl GspmvBackend for KindFull {
    fn name(&self) -> String {
        format!("full_serial[{}]", self.0.as_str())
    }
    fn supports(&self, _: &CorpusEntry) -> bool {
        true
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let mut y = MultiVec::zeros(entry.matrix.n_rows(), x.m());
        gspmv_serial_with(self.0, &entry.matrix, x, &mut y);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        Some(format!("full[{}]", self.0.as_str()))
    }
}

/// Chunked GSPMV through a forced kernel backend — per-row accumulation
/// order is chunk-independent, so it shares the kind's bitwise group.
pub struct KindChunked(pub KernelKind, pub usize);

impl GspmvBackend for KindChunked {
    fn name(&self) -> String {
        format!("full_chunked[{}]({})", self.0.as_str(), self.1)
    }
    fn supports(&self, _: &CorpusEntry) -> bool {
        true
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let mut y = MultiVec::zeros(entry.matrix.n_rows(), x.m());
        gspmv_chunked_with(self.0, &entry.matrix, x, &mut y, self.1);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        Some(format!("full[{}]", self.0.as_str()))
    }
}

/// Serial GSPMV on deduplicated block storage through a forced kernel
/// backend. Dedup shares the row kernels with full storage (same block
/// values, fetched through the pool), so it joins the kind's bitwise
/// group — proving dedup is a pure storage transform, not a numeric one.
pub struct DedupSerial(pub KernelKind);

impl GspmvBackend for DedupSerial {
    fn name(&self) -> String {
        format!("dedup_serial[{}]", self.0.as_str())
    }
    fn supports(&self, _: &CorpusEntry) -> bool {
        true
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let d = DedupBcrs::from_bcrs(&entry.matrix);
        let mut y = MultiVec::zeros(d.n_rows(), x.m());
        d.gspmv_serial_with(self.0, x, &mut y);
        y
    }
    fn bitwise_group(&self) -> Option<String> {
        Some(format!("full[{}]", self.0.as_str()))
    }
}

/// The distributed engine at `n` simulated nodes. Construction spawns
/// worker threads and permutes the matrix, so this backend trims the
/// `m` grid and builds a fresh engine per run (engines hold the
/// permuted matrix, which depends on the entry).
pub struct DistBackend {
    pub parts: usize,
}

impl DistBackend {
    fn partition(&self, entry: &CorpusEntry) -> Partition {
        contiguous_partition(&entry.matrix, self.parts)
    }
}

impl GspmvBackend for DistBackend {
    fn name(&self) -> String {
        format!("dist({})", self.parts)
    }
    fn supports(&self, entry: &CorpusEntry) -> bool {
        // DistributedMatrix permutes with `permute_symmetric`, which
        // needs a square matrix with symmetric *pattern*; the corpus
        // guarantees that exactly for its intended-symmetric entries.
        entry.symmetric.is_some() && entry.matrix.nb_rows() >= 1
    }
    fn wants_m(&self, m: usize) -> bool {
        // Engine construction dominates; sample the grid.
        matches!(m, 1 | 3 | 8 | 16 | 31 | 48)
    }
    fn run(&self, entry: &CorpusEntry, x: &MultiVec) -> MultiVec {
        let dm = DistributedMatrix::new(&entry.matrix, &self.partition(entry));
        let perm: Vec<usize> = dm.permutation().to_vec();
        let engine = DistEngine::new(dm);

        // Engine space is the permuted ordering: x_perm[new] = x[old].
        let n = entry.matrix.n_rows();
        let m = x.m();
        let mut x_perm = MultiVec::zeros(n, m);
        for (new, &old) in perm.iter().enumerate() {
            for c in 0..3 {
                for j in 0..m {
                    *x_perm.get_mut(3 * new + c, j) = x.get(3 * old + c, j);
                }
            }
        }
        let (y_perm, _stats) = engine.multiply(&x_perm);
        let mut y = MultiVec::zeros(n, m);
        for (new, &old) in perm.iter().enumerate() {
            for c in 0..3 {
                for j in 0..m {
                    *y.get_mut(3 * old + c, j) = y_perm.get(3 * new + c, j);
                }
            }
        }
        y
    }
}

/// The standard registry: every production GSPMV path plus the chunked
/// variants standing in for 1/2/4/8-thread execution, and the
/// distributed engine at 1, 3, and 5 partitions (one of which exceeds
/// `nb` for the smallest entries — `contiguous_partition` then leaves
/// partitions empty, which the engine must tolerate).
pub fn standard_backends() -> Vec<Box<dyn GspmvBackend>> {
    let mut v: Vec<Box<dyn GspmvBackend>> = vec![
        Box::new(SerialFull),
        Box::new(AutoFull),
        Box::new(SymSerial),
        Box::new(SymAuto),
    ];
    for n in [1usize, 2, 4, 8] {
        v.push(Box::new(ChunkedFull(n)));
        v.push(Box::new(SymChunked(n)));
        v.push(Box::new(SymChunkedSequential(n)));
    }
    for p in [1usize, 3, 5] {
        v.push(Box::new(DistBackend { parts: p }));
    }
    // Every kernel backend available on this host, forced explicitly:
    // serial, chunked, and dedup-storage runs per kind must be
    // bit-identical within the kind and tolerance-equal across kinds.
    for kind in KernelKind::ALL {
        if backend_available(kind) {
            v.push(Box::new(KindFull(kind)));
            v.push(Box::new(KindChunked(kind, 3)));
            v.push(Box::new(DedupSerial(kind)));
        }
    }
    v
}
