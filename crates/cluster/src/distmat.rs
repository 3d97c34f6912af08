//! Row-partitioned matrix with halo bookkeeping.
//!
//! After partitioning, the global matrix is permuted so each node owns
//! a contiguous block-row range, and each node's rows are split into
//! *two* local matrices — the structure the overlap discipline of
//! §IV-A2 needs at execution time:
//!
//! * `a_local`: the blocks whose columns the node owns. Multiplying by
//!   it needs no communication, so it runs while the halo is in flight.
//! * `a_remote`: the blocks referencing off-node columns, rewritten
//!   onto the compact halo index space (one column per distinct remote
//!   block row, sorted). It runs once the halo has arrived.
//!
//! Off-node columns appear once in the halo regardless of how many
//! local rows reference them — the deduplication that makes
//! communication volume scale with the partition surface, not with nnz.
//!
//! Communication *plans* are precomputed here too, once, at
//! construction: for every node, which peers it receives from (and
//! which rows), and — the inversion of that — which peers it must send
//! to. Executors ([`crate::exchange`], [`crate::engine`]) only read
//! these cached plans; nothing is recomputed per multiply.

use mrhs_sparse::partition::Partition;
use mrhs_sparse::reorder::permute_symmetric;
use mrhs_sparse::{BcrsMatrix, Block3};
use std::ops::Range;

/// A halo transfer plan: `(peer, rows)` pairs, with rows in ascending
/// global (permuted) block-row order within each peer.
pub type CommPlan = Vec<(usize, Vec<usize>)>;

/// One node's slice of the matrix.
#[derive(Clone, Debug)]
pub struct NodeMatrix {
    /// Global (permuted) block rows owned: `range.start..range.end`.
    pub rows: Range<usize>,
    /// Blocks on owned columns: `rows.len()` block rows ×
    /// `rows.len()` block columns in local indexing (own col `c` maps
    /// to `c − rows.start`). The overlappable part of the multiply.
    pub a_local: BcrsMatrix,
    /// Blocks on halo columns: `rows.len()` block rows ×
    /// `halo.len()` block columns (halo col at halo index `h` maps to
    /// `h`). Applied after the halo arrives.
    pub a_remote: BcrsMatrix,
    /// Global (permuted) block rows this node must receive, sorted.
    pub halo: Vec<usize>,
    /// Count of stored blocks whose column is owned locally (the part
    /// of the multiply that can overlap communication).
    pub nnzb_local: usize,
    /// Count of stored blocks referencing halo columns.
    pub nnzb_remote: usize,
}

impl NodeMatrix {
    /// Total stored blocks across both parts.
    pub fn nnz_blocks(&self) -> usize {
        self.nnzb_local + self.nnzb_remote
    }
}

/// A matrix distributed over `n_nodes` row partitions.
#[derive(Clone, Debug)]
pub struct DistributedMatrix {
    nodes: Vec<NodeMatrix>,
    /// `perm[new] = old` mapping from permuted to original block rows.
    perm: Vec<usize>,
    nb: usize,
    /// `range_starts[p] = nodes[p].rows.start` — non-decreasing, used
    /// for O(log p) ownership lookups.
    range_starts: Vec<usize>,
    /// Per node: which peers send to it, and which rows (cached).
    recv_plans: Vec<CommPlan>,
    /// Per node: which peers it must send to, and which rows (the
    /// inversion of `recv_plans`, cached).
    send_plans: Vec<CommPlan>,
}

impl DistributedMatrix {
    /// Partitions and permutes `a` (square, symmetric pattern assumed)
    /// according to `partition`.
    pub fn new(a: &BcrsMatrix, partition: &Partition) -> Self {
        assert_eq!(a.nb_rows(), a.nb_cols());
        let perm = partition.permutation();
        let permuted = permute_symmetric(a, &perm);
        let nb = permuted.nb_rows();

        // Contiguous ranges per node in the permuted ordering.
        let mut ranges: Vec<Range<usize>> = Vec::new();
        {
            let parts = partition.parts();
            let mut start = 0usize;
            for p in &parts {
                ranges.push(start..start + p.len());
                start += p.len();
            }
            assert_eq!(start, nb);
        }

        let nodes: Vec<NodeMatrix> = ranges
            .iter()
            .map(|range| build_node(&permuted, range.clone()))
            .collect();

        let range_starts: Vec<usize> = nodes.iter().map(|n| n.rows.start).collect();

        // Receive plans: one binary search per halo row. Halo rows are
        // sorted and node ranges are contiguous, so owners come out
        // grouped; still, group defensively by owner.
        let p = nodes.len();
        let recv_plans: Vec<CommPlan> = nodes
            .iter()
            .enumerate()
            .map(|(q, node)| {
                let mut plan: CommPlan = Vec::new();
                for &row in &node.halo {
                    let owner = owner_from_starts(&range_starts, nb, row);
                    debug_assert_ne!(owner, q);
                    match plan.last_mut() {
                        Some((peer, rows)) if *peer == owner => rows.push(row),
                        _ => plan.push((owner, vec![row])),
                    }
                }
                plan
            })
            .collect();

        // Send plans: invert the receive plans once.
        let mut send_plans: Vec<CommPlan> = vec![Vec::new(); p];
        for (dst, plan) in recv_plans.iter().enumerate() {
            for (src, rows) in plan {
                send_plans[*src].push((dst, rows.clone()));
            }
        }

        DistributedMatrix { nodes, perm, nb, range_starts, recv_plans, send_plans }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Global block-row count.
    pub fn nb_rows(&self) -> usize {
        self.nb
    }

    /// Per-node slices.
    pub fn nodes(&self) -> &[NodeMatrix] {
        &self.nodes
    }

    /// The permutation applied (`perm[new] = old`).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// The node owning permuted block row `row` — O(log p) binary
    /// search over the contiguous range starts.
    pub fn owner_of(&self, row: usize) -> usize {
        owner_from_starts(&self.range_starts, self.nb, row)
    }

    /// For node `p`: the halo rows grouped by owning peer, as
    /// `(peer, rows)` with rows in the order they appear in `halo`.
    /// Cached at construction.
    pub fn recv_plan(&self, p: usize) -> &[(usize, Vec<usize>)] {
        &self.recv_plans[p]
    }

    /// For node `p`: the owned rows it must ship, grouped by
    /// destination peer, as `(peer, rows)`. Cached at construction
    /// (the inversion of the receive plans).
    pub fn send_plan(&self, p: usize) -> &[(usize, Vec<usize>)] {
        &self.send_plans[p]
    }

    /// Total halo entries (block rows) each node receives; index = node.
    pub fn recv_volumes(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.halo.len()).collect()
    }

    /// Reconstructs one global (permuted) block row by merging the
    /// owner's `a_local` (columns offset back by `rows.start`) and
    /// `a_remote` (halo indices mapped back to global ids) — both are
    /// column-sorted within their own index space, so a two-pointer
    /// merge restores the exact global column order without storing
    /// the permuted matrix.
    pub fn global_block_row(&self, row: usize) -> (Vec<usize>, Vec<Block3>) {
        let node = &self.nodes[self.owner_of(row)];
        let bi = row - node.rows.start;
        let (lc, lb) = node.a_local.block_row(bi);
        let (rc, rb) = node.a_remote.block_row(bi);
        let mut cols = Vec::with_capacity(lc.len() + rc.len());
        let mut blocks = Vec::with_capacity(lc.len() + rc.len());
        let (mut i, mut j) = (0, 0);
        while i < lc.len() || j < rc.len() {
            let gl = lc.get(i).map(|&c| c as usize + node.rows.start);
            let gr = rc.get(j).map(|&c| node.halo[c as usize]);
            match (gl, gr) {
                (Some(l), Some(r)) if l < r => {
                    cols.push(l);
                    blocks.push(lb[i]);
                    i += 1;
                }
                (Some(_), Some(_)) | (None, Some(_)) => {
                    cols.push(gr.unwrap());
                    blocks.push(rb[j]);
                    j += 1;
                }
                (Some(l), None) => {
                    cols.push(l);
                    blocks.push(lb[i]);
                    i += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        (cols, blocks)
    }

    /// Builds the fused `k`-step exchange/compute context: for every
    /// node, the BFS rings of the `k`-level dependency frontier, the
    /// extended matrix over them, and the widened communication plans
    /// that fetch the whole frontier in **one** exchange. See
    /// [`PowerContext`].
    pub fn power_context(&self, k: usize) -> PowerContext {
        assert!(k >= 1, "power context needs k >= 1");
        let p = self.nodes.len();
        let nodes: Vec<NodePower> =
            (0..p).map(|q| self.build_node_power(q, k)).collect();

        // Widened receive plans: every frontier row (rings 1..k),
        // grouped by owner in ascending-row order per peer.
        let recv_plans: Vec<CommPlan> = (0..p)
            .map(|q| {
                let mut plan: CommPlan = Vec::new();
                let own = self.nodes[q].rows.len();
                let mut frontier: Vec<usize> = nodes[q].ext_cols[own..].to_vec();
                frontier.sort_unstable();
                for row in frontier {
                    let owner = self.owner_of(row);
                    debug_assert_ne!(owner, q);
                    match plan.iter_mut().find(|(peer, _)| *peer == owner) {
                        Some((_, rows)) => rows.push(row),
                        None => plan.push((owner, vec![row])),
                    }
                }
                plan
            })
            .collect();

        let mut send_plans: Vec<CommPlan> = vec![Vec::new(); p];
        for (dst, plan) in recv_plans.iter().enumerate() {
            for (src, rows) in plan {
                send_plans[*src].push((dst, rows.clone()));
            }
        }

        PowerContext { k, nodes, recv_plans, send_plans }
    }

    fn build_node_power(&self, q: usize, k: usize) -> NodePower {
        let node = &self.nodes[q];
        let own = node.rows.len();

        // BFS rings: ring 0 = owned rows, ring j = rows at graph
        // distance exactly j (symmetric pattern, so a row's columns are
        // its neighbors). The extended column space is rings 0..=k in
        // order [own | ring₁ | … | ring_k]; rows 0..prefix[k−1] carry
        // matrix rows (level p only needs values out to ring k−p).
        let mut visited: Vec<bool> = vec![false; self.nb];
        for r in node.rows.clone() {
            visited[r] = true;
        }
        let mut ext_cols: Vec<usize> = node.rows.clone().collect();
        let mut prefix = Vec::with_capacity(k + 1);
        prefix.push(own);
        let mut ring_start = 0;
        for _ in 1..=k {
            let mut next: Vec<usize> = Vec::new();
            for &r in &ext_cols[ring_start..] {
                let (cols, _) = self.global_block_row(r);
                for c in cols {
                    if !visited[c] {
                        visited[c] = true;
                        next.push(c);
                    }
                }
            }
            next.sort_unstable();
            ring_start = ext_cols.len();
            ext_cols.extend_from_slice(&next);
            prefix.push(ext_cols.len());
        }

        // Global id → extended column index, binary-searchable.
        let mut col_of_global: Vec<(usize, usize)> =
            ext_cols.iter().copied().enumerate().map(|(i, g)| (g, i)).collect();
        col_of_global.sort_unstable_by_key(|&(g, _)| g);

        // Extended matrix: rows = prefix[k−1] frontier rows, columns =
        // the full prefix[k] space, each row rebuilt from the global
        // matrix and remapped (then re-sorted) onto extended indices.
        let ext_rows = prefix[k - 1];
        let mut row_ptr = vec![0usize; ext_rows + 1];
        let mut cols_out: Vec<u32> = Vec::new();
        let mut blocks_out: Vec<Block3> = Vec::new();
        for (bi, &g) in ext_cols[..ext_rows].iter().enumerate() {
            let (cols, blocks) = self.global_block_row(g);
            let mut entries: Vec<(u32, Block3)> = cols
                .iter()
                .zip(&blocks)
                .map(|(&c, b)| {
                    let local = col_of_global
                        [col_of_global.partition_point(|&(gc, _)| gc < c)]
                    .1;
                    (local as u32, *b)
                })
                .collect();
            entries.sort_unstable_by_key(|&(c, _)| c);
            for (c, b) in entries {
                cols_out.push(c);
                blocks_out.push(b);
            }
            row_ptr[bi + 1] = cols_out.len();
        }
        let a_ext = BcrsMatrix::from_parts(
            ext_rows, prefix[k], row_ptr, cols_out, blocks_out,
        );

        NodePower { a_ext, prefix, ext_cols, col_of_global }
    }
}

/// One node's share of a fused `k`-level exchange context.
#[derive(Clone, Debug)]
pub struct NodePower {
    /// Extended matrix over the dependency frontier: `prefix[k−1]`
    /// block rows × `prefix[k]` block columns, both in extended local
    /// indexing (`[own | ring₁ | … | ring_k]`).
    pub a_ext: BcrsMatrix,
    /// `prefix[j]` = block rows within graph distance `j` of the owned
    /// range (`prefix[0]` = owned count). Level `p` of a fused group
    /// computes rows `0..prefix[k−p]`.
    pub prefix: Vec<usize>,
    /// Global (permuted) block row id of each extended index.
    pub ext_cols: Vec<usize>,
    /// `(global row, extended index)` sorted by global row, for
    /// scattering received frontier values.
    pub col_of_global: Vec<(usize, usize)>,
}

impl NodePower {
    /// Extended index of global block row `g` (must be in the frontier).
    pub fn ext_col(&self, g: usize) -> usize {
        let i = self.col_of_global.partition_point(|&(gc, _)| gc < g);
        debug_assert_eq!(self.col_of_global[i].0, g);
        self.col_of_global[i].1
    }
}

/// Precomputed state for fused `k`-step halo exchange: instead of `k`
/// round trips (one per multiply), each node fetches its whole
/// `k`-level dependency frontier — BFS rings 1..k of the partition
/// graph — in **one** widened exchange, then computes all `k`
/// recurrence levels locally on the extended matrix (level `p` over rows
/// `0..prefix[k−p]`, shrinking toward the owned range). `k` multiplies
/// thus cost one (larger) message per neighbor instead of `k`.
///
/// Built once per `k` by [`DistributedMatrix::power_context`] and
/// cached by the engine; executors only read it.
#[derive(Clone, Debug)]
pub struct PowerContext {
    /// Number of fused levels.
    pub k: usize,
    nodes: Vec<NodePower>,
    recv_plans: Vec<CommPlan>,
    send_plans: Vec<CommPlan>,
}

impl PowerContext {
    /// Node `q`'s extended matrix and frontier bookkeeping.
    pub fn node(&self, q: usize) -> &NodePower {
        &self.nodes[q]
    }

    /// The widened receive plan for node `q` (whole frontier, one
    /// exchange).
    pub fn recv_plan(&self, q: usize) -> &[(usize, Vec<usize>)] {
        &self.recv_plans[q]
    }

    /// The widened send plan for node `q`.
    pub fn send_plan(&self, q: usize) -> &[(usize, Vec<usize>)] {
        &self.send_plans[q]
    }
}

/// Binary search for the owner of `row` among contiguous, possibly
/// empty ranges described by their starts. Among nodes tied on the same
/// start, all but the last are empty, and `partition_point` lands on
/// the last — the only one that can own anything.
fn owner_from_starts(starts: &[usize], nb: usize, row: usize) -> usize {
    assert!(row < nb, "row {row} out of range (nb = {nb})");
    starts.partition_point(|&s| s <= row) - 1
}

fn build_node(permuted: &BcrsMatrix, rows: Range<usize>) -> NodeMatrix {
    let sub = permuted.submatrix(rows.clone());
    let own = rows.len();

    // Collect sorted unique halo columns.
    let mut halo: Vec<usize> = sub
        .col_idx()
        .iter()
        .map(|&c| c as usize)
        .filter(|c| !rows.contains(c))
        .collect();
    halo.sort_unstable();
    halo.dedup();

    // Split each row's blocks: own col c → c − rows.start into
    // `a_local`; halo col → its halo index into `a_remote`. Column
    // order within a row is preserved from the (sorted) submatrix, so
    // both parts come out column-sorted.
    let mut local_row_ptr = vec![0usize; own + 1];
    let mut local_cols: Vec<u32> = Vec::new();
    let mut local_blocks: Vec<Block3> = Vec::new();
    let mut remote_row_ptr = vec![0usize; own + 1];
    let mut remote_cols: Vec<u32> = Vec::new();
    let mut remote_blocks: Vec<Block3> = Vec::new();
    for bi in 0..own {
        let (cols, blks) = sub.block_row(bi);
        for (c, b) in cols.iter().zip(blks) {
            let c = *c as usize;
            if rows.contains(&c) {
                local_cols.push((c - rows.start) as u32);
                local_blocks.push(*b);
            } else {
                let h = halo.binary_search(&c).unwrap();
                remote_cols.push(h as u32);
                remote_blocks.push(*b);
            }
        }
        local_row_ptr[bi + 1] = local_cols.len();
        remote_row_ptr[bi + 1] = remote_cols.len();
    }
    let nnzb_local = local_cols.len();
    let nnzb_remote = remote_cols.len();
    let a_local =
        BcrsMatrix::from_parts(own, own, local_row_ptr, local_cols, local_blocks);
    let a_remote = BcrsMatrix::from_parts(
        own,
        halo.len(),
        remote_row_ptr,
        remote_cols,
        remote_blocks,
    );
    NodeMatrix { rows, a_local, a_remote, halo, nnzb_local, nnzb_remote }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::partition::contiguous_partition;
    use mrhs_sparse::{Block3, BlockTripletBuilder};

    fn chain(nb: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(4.0));
            if i + 1 < nb {
                t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
            }
        }
        t.build()
    }

    #[test]
    fn chain_halo_is_partition_boundary() {
        let a = chain(16);
        let part = contiguous_partition(&a, 4);
        let dm = DistributedMatrix::new(&a, &part);
        assert_eq!(dm.n_nodes(), 4);
        // interior nodes need one row from each side
        assert_eq!(dm.nodes()[1].halo.len(), 2);
        // end nodes need one
        assert_eq!(dm.nodes()[0].halo.len(), 1);
        assert_eq!(dm.nodes()[3].halo.len(), 1);
    }

    #[test]
    fn local_matrices_cover_all_blocks() {
        let a = chain(20);
        let part = contiguous_partition(&a, 3);
        let dm = DistributedMatrix::new(&a, &part);
        let total: usize = dm.nodes().iter().map(|n| n.nnz_blocks()).sum();
        assert_eq!(total, a.nnz_blocks());
        for n in dm.nodes() {
            assert_eq!(n.nnzb_local, n.a_local.nnz_blocks());
            assert_eq!(n.nnzb_remote, n.a_remote.nnz_blocks());
            assert_eq!(n.a_local.nb_cols(), n.rows.len(), "own column space");
            assert_eq!(n.a_remote.nb_cols(), n.halo.len(), "halo column space");
        }
    }

    #[test]
    fn recv_plan_points_at_true_owners() {
        let a = chain(12);
        let part = contiguous_partition(&a, 3);
        let dm = DistributedMatrix::new(&a, &part);
        for p in 0..3 {
            for (peer, rows) in dm.recv_plan(p) {
                assert_ne!(*peer, p);
                for r in rows {
                    assert!(dm.nodes()[*peer].rows.contains(r));
                }
            }
        }
    }

    #[test]
    fn send_plan_is_inverse_of_recv_plan() {
        let a = chain(18);
        let part = contiguous_partition(&a, 4);
        let dm = DistributedMatrix::new(&a, &part);
        for src in 0..4 {
            for (dst, rows) in dm.send_plan(src) {
                // every shipped row is owned by src …
                for r in rows {
                    assert!(dm.nodes()[src].rows.contains(r));
                }
                // … and appears verbatim in dst's receive plan for src.
                let recv = dm
                    .recv_plan(*dst)
                    .iter()
                    .find(|(peer, _)| *peer == src)
                    .expect("matching recv entry");
                assert_eq!(&recv.1, rows);
            }
        }
    }

    #[test]
    fn single_node_has_no_halo() {
        let a = chain(10);
        let part = contiguous_partition(&a, 1);
        let dm = DistributedMatrix::new(&a, &part);
        assert!(dm.nodes()[0].halo.is_empty());
        assert_eq!(dm.nodes()[0].nnzb_remote, 0);
        assert!(dm.recv_plan(0).is_empty());
        assert!(dm.send_plan(0).is_empty());
    }

    #[test]
    fn owner_of_is_consistent_with_ranges() {
        let a = chain(9);
        let part = contiguous_partition(&a, 3);
        let dm = DistributedMatrix::new(&a, &part);
        for row in 0..9 {
            let p = dm.owner_of(row);
            assert!(dm.nodes()[p].rows.contains(&row));
        }
    }

    #[test]
    fn global_block_row_reconstructs_permuted_matrix() {
        let a = chain(14);
        let part = contiguous_partition(&a, 4);
        let dm = DistributedMatrix::new(&a, &part);
        let permuted = permute_symmetric(&a, dm.permutation());
        for row in 0..14 {
            let (cols, blocks) = dm.global_block_row(row);
            let (want_cols, want_blocks) = permuted.block_row(row);
            let want_cols: Vec<usize> =
                want_cols.iter().map(|&c| c as usize).collect();
            assert_eq!(cols, want_cols, "row {row}");
            for (b, w) in blocks.iter().zip(want_blocks) {
                assert_eq!(b.0, w.0, "row {row}");
            }
        }
    }

    #[test]
    fn power_context_frontier_covers_k_rings() {
        let a = chain(16);
        let part = contiguous_partition(&a, 4);
        let dm = DistributedMatrix::new(&a, &part);
        for k in 1..=3 {
            let ctx = dm.power_context(k);
            for q in 0..4 {
                let np = ctx.node(q);
                let own = dm.nodes()[q].rows.len();
                assert_eq!(np.prefix[0], own);
                assert_eq!(np.prefix.len(), k + 1);
                // On a chain, each ring adds one row per open side.
                let sides = usize::from(q > 0) + usize::from(q < 3);
                for j in 1..=k {
                    assert_eq!(np.prefix[j] - np.prefix[j - 1], sides);
                }
                assert_eq!(np.a_ext.nb_rows(), np.prefix[k - 1]);
                assert_eq!(np.a_ext.nb_cols(), np.prefix[k]);
                // Widened plans fetch the whole frontier, one entry per
                // neighbouring peer, and sends invert receives.
                let frontier: usize =
                    ctx.recv_plan(q).iter().map(|(_, rows)| rows.len()).sum();
                assert_eq!(frontier, np.prefix[k] - own);
                for (peer, rows) in ctx.recv_plan(q) {
                    assert_ne!(*peer, q);
                    for r in rows {
                        assert!(dm.nodes()[*peer].rows.contains(r));
                    }
                    let send = ctx
                        .send_plan(*peer)
                        .iter()
                        .find(|(dst, _)| *dst == q)
                        .expect("inverse send entry");
                    assert_eq!(&send.1, rows);
                }
            }
        }
    }

    #[test]
    fn power_context_k1_matches_plain_halo() {
        let a = chain(12);
        let part = contiguous_partition(&a, 3);
        let dm = DistributedMatrix::new(&a, &part);
        let ctx = dm.power_context(1);
        for q in 0..3 {
            let np = ctx.node(q);
            let node = &dm.nodes()[q];
            // Ring 1 is exactly the classic halo.
            let ring1: Vec<usize> =
                np.ext_cols[np.prefix[0]..np.prefix[1]].to_vec();
            assert_eq!(ring1, node.halo);
        }
    }

    #[test]
    fn owner_of_skips_empty_partitions() {
        // More nodes than block rows: some partitions are empty and
        // share identical (empty) row ranges — ownership must still
        // resolve to the node that actually holds each row.
        let a = chain(3);
        let assignment = vec![0u32, 2, 4];
        let part = Partition::from_assignment(5, assignment);
        let dm = DistributedMatrix::new(&a, &part);
        assert_eq!(dm.n_nodes(), 5);
        for row in 0..3 {
            let p = dm.owner_of(row);
            assert!(
                dm.nodes()[p].rows.contains(&row),
                "row {row} resolved to node {p} with range {:?}",
                dm.nodes()[p].rows
            );
            assert!(!dm.nodes()[p].rows.is_empty());
        }
    }
}
