//! Per-layer metrics of the traced run, derived from the program's own
//! telemetry snapshot and the benchmark's spans ([`crate::probe`]).
//!
//! Which end-to-end metric each layer metric should move, and on which
//! workload:
//!
//! | metric(s) | should move |
//! |---|---|
//! | `sparse.gspmv.m*`, `sparse.gspmv.moff.us_per_col` | `steps_per_s`@sd_mrhs (m1, m8); `latency_ms_trim_mean`@serve_multitenant (m1–m4, off-grid) |
//! | `sparse.gspmv_sym.m*` | `latency_ms_tail`@serve_multitenant |
//! | `solvers.cg.*`, `solvers.cheb.*` | `steps_per_s`, `chunk_ms_trim_mean`@sd_mrhs |
//! | `solvers.block_cg.*` | `chunk_ms_trim_mean`@sd_mrhs; `latency_ms_*`@serve_multitenant |
//! | `solvers.block_bicgstab.*` | `latency_ms_tail`@serve_multitenant |
//! | `core.*`, `stokes.*` | `steps_per_s`, `chunk_ms_*`@sd_mrhs; `stokes.build_s` → `setup_s` |
//! | `service.*` | `latency_ms_*`, `goodput_rhs_per_s`@serve_multitenant |
//! | `cluster.*` | `latency_ms_tail`@serve_multitenant |
//! | `perfmodel.eq8_ratio.*` | none: whether a kernel change was predicted |
//! | `telemetry.overhead_frac` | none: the cost of tracing |
//! | `harness.*` | none: run validity (`samples` and `tail_pct` describe `latency_ms_*`) |
//!
//! A metric of a layer the workload does not run reads 0.

use crate::probe::SpanAgg;
use crate::Report;
use mrhs_perfmodel::{GspmvModel, MachineProfile};
use mrhs_sparse::MatrixStats;
use mrhs_telemetry::Snapshot;
use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sparse.gspmv.m1.calls", "count"),
    ("sparse.gspmv.m1.us_per_call", "us"),
    ("sparse.gspmv.m1.gbps_computed", "GB/s"),
    ("sparse.gspmv.m1.gflops", "Gflop/s"),
    ("sparse.gspmv.m2.calls", "count"),
    ("sparse.gspmv.m2.us_per_call", "us"),
    ("sparse.gspmv.m2.gbps_computed", "GB/s"),
    ("sparse.gspmv.m2.gflops", "Gflop/s"),
    ("sparse.gspmv.m4.calls", "count"),
    ("sparse.gspmv.m4.us_per_call", "us"),
    ("sparse.gspmv.m4.gbps_computed", "GB/s"),
    ("sparse.gspmv.m4.gflops", "Gflop/s"),
    ("sparse.gspmv.m8.calls", "count"),
    ("sparse.gspmv.m8.us_per_call", "us"),
    ("sparse.gspmv.m8.gbps_computed", "GB/s"),
    ("sparse.gspmv.m8.gflops", "Gflop/s"),
    ("sparse.gspmv.moff.us_per_col", "us"),
    ("sparse.gspmv_sym.m1.us_per_call", "us"),
    ("sparse.gspmv_sym.m2.us_per_call", "us"),
    ("sparse.gspmv_sym.m4.us_per_call", "us"),
    ("sparse.gspmv_sym.m8.us_per_call", "us"),
    ("solvers.cg.iters_per_solve", "count"),
    ("solvers.cg.ms_per_solve", "ms"),
    ("solvers.block_cg.iters_per_solve", "count"),
    ("solvers.block_cg.ms_per_solve", "ms"),
    ("solvers.block_cg.dense_self_frac", "ratio"),
    ("solvers.block_bicgstab.iters_per_solve", "count"),
    ("solvers.block_bicgstab.ms_per_solve", "ms"),
    ("solvers.cheb.ms_per_apply_m8", "ms"),
    ("solvers.cheb.ms_per_apply_m1", "ms"),
    ("core.assemble_ms_per_step", "ms"),
    ("core.cheb_single_ms_per_step", "ms"),
    ("core.first_solve_ms_per_step", "ms"),
    ("core.second_solve_ms_per_step", "ms"),
    ("core.cheb_vectors_ms_per_chunk", "ms"),
    ("core.calc_guesses_ms_per_chunk", "ms"),
    ("core.noise_ms_per_chunk", "ms"),
    ("core.self_ms_per_chunk", "ms"),
    ("core.block_iters", "count"),
    ("core.first_solve_iters", "count"),
    ("core.second_solve_iters", "count"),
    ("core.phase_closure", "ratio"),
    ("core.mrhs_speedup", "ratio"),
    ("stokes.assemble_ms_per_call", "ms"),
    ("stokes.advance_ms_per_call", "ms"),
    ("stokes.nnzb_per_row", "count"),
    ("stokes.build_s", "s"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_tail", "ms"),
    ("service.solve_ms_p50", "ms"),
    ("service.batch_width_mean", "count"),
    ("service.full_batch_frac", "ratio"),
    ("service.rejected_frac", "ratio"),
    ("service.expired_frac", "ratio"),
    ("service.solo_retry_frac", "ratio"),
    ("service.latency_closure", "ratio"),
    ("service.submit_us_p99", "us"),
    ("service.wait_ms_per_call", "ms"),
    ("service.register_ms_per_call", "ms"),
    ("service.unregister_ms_per_call", "ms"),
    ("service.queue_depth_cols_mean", "count"),
    ("cluster.apply_us_per_call", "us"),
    ("cluster.comm_wait_frac", "ratio"),
    ("cluster.halo_msgs_per_apply", "count"),
    ("perfmodel.eq8_ratio.m1", "ratio"),
    ("perfmodel.eq8_ratio.m2", "ratio"),
    ("perfmodel.eq8_ratio.m4", "ratio"),
    ("perfmodel.eq8_ratio.m8", "ratio"),
    ("telemetry.overhead_frac", "ratio"),
    ("harness.gen_lag_ms_p99", "ms"),
    ("harness.samples", "count"),
    ("harness.tail_pct", "%"),
    ("harness.failed_frac", "ratio"),
];

/// The grid widths reported one by one; every other width is "off
/// grid" and pooled into `moff`.
const GRID: [usize; 4] = [1, 2, 4, 8];

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Total seconds and calls of every `kernel/<kind>/m<w>` span.
pub fn kernel_totals(s: &Snapshot, kind: &str) -> BTreeMap<usize, (f64, u64)> {
    let prefix = format!("kernel/{kind}/m");
    s.spans
        .iter()
        .filter_map(|(name, st)| {
            let w = name.strip_prefix(&prefix)?.parse::<usize>().ok()?;
            Some((w, (st.secs(), st.count)))
        })
        .collect()
}

/// GSPMV per width (full and symmetric storage), from the kernels' own
/// call/flop/byte counters and spans.
pub fn sparse(s: &Snapshot, r: &mut Report) {
    const NAMES: [[&str; 4]; 4] = [
        [
            "sparse.gspmv.m1.calls",
            "sparse.gspmv.m1.us_per_call",
            "sparse.gspmv.m1.gbps_computed",
            "sparse.gspmv.m1.gflops",
        ],
        [
            "sparse.gspmv.m2.calls",
            "sparse.gspmv.m2.us_per_call",
            "sparse.gspmv.m2.gbps_computed",
            "sparse.gspmv.m2.gflops",
        ],
        [
            "sparse.gspmv.m4.calls",
            "sparse.gspmv.m4.us_per_call",
            "sparse.gspmv.m4.gbps_computed",
            "sparse.gspmv.m4.gflops",
        ],
        [
            "sparse.gspmv.m8.calls",
            "sparse.gspmv.m8.us_per_call",
            "sparse.gspmv.m8.gbps_computed",
            "sparse.gspmv.m8.gflops",
        ],
    ];
    const SYM: [&str; 4] = [
        "sparse.gspmv_sym.m1.us_per_call",
        "sparse.gspmv_sym.m2.us_per_call",
        "sparse.gspmv_sym.m4.us_per_call",
        "sparse.gspmv_sym.m8.us_per_call",
    ];
    let full = kernel_totals(s, "gspmv");
    let sym = kernel_totals(s, "gspmv_sym");
    for (k, &w) in GRID.iter().enumerate() {
        let (secs, calls) = full.get(&w).copied().unwrap_or_default();
        let c = |what: &str| s.counter(&format!("gspmv/m{w}/{what}")) as f64;
        let bytes = c("matrix_bytes") + c("vector_bytes");
        r.set(NAMES[k][0], calls as f64);
        r.set(NAMES[k][1], per(secs * 1e6, calls as f64));
        r.set(NAMES[k][2], per(bytes / 1e9, secs));
        r.set(NAMES[k][3], per(c("flops") / 1e9, secs));
        let (secs, calls) = sym.get(&w).copied().unwrap_or_default();
        r.set(SYM[k], per(secs * 1e6, calls as f64));
    }
    let (off_secs, off_cols) = full
        .iter()
        .filter(|(w, _)| !GRID.contains(w))
        .fold((0.0, 0.0), |(s, c), (w, (secs, calls))| {
            (s + secs, c + (*w as u64 * calls) as f64)
        });
    r.set("sparse.gspmv.moff.us_per_col", per(off_secs * 1e6, off_cols));
}

/// Solver totals from the solvers' spans and iteration counters.
/// `block_cg_kernels` is the kernel time spent inside block CG, for its
/// dense (Gram, update, m×m solve) self-time share.
pub fn solvers(s: &Snapshot, r: &mut Report, block_cg_kernels: Option<f64>) {
    for (solver, iters, ms) in [
        ("cg", "solvers.cg.iters_per_solve", "solvers.cg.ms_per_solve"),
        (
            "block_cg",
            "solvers.block_cg.iters_per_solve",
            "solvers.block_cg.ms_per_solve",
        ),
        (
            "block_bicgstab",
            "solvers.block_bicgstab.iters_per_solve",
            "solvers.block_bicgstab.ms_per_solve",
        ),
    ] {
        let solves = s.counter(&format!("solver/{solver}/solves")) as f64;
        let it = s.counter(&format!("solver/{solver}/iterations")) as f64;
        r.set(iters, per(it, solves));
        r.set(ms, per(s.span_secs(&format!("solver/{solver}")) * 1e3, solves));
    }
    if let Some(k) = block_cg_kernels {
        let total = s.span_secs("solver/block_cg");
        r.set("solvers.block_cg.dense_self_frac", per(total - k, total));
    }
}

/// The distributed operator as the service sees it (benchmark span)
/// plus the engine's own per-node phase spans and halo counters.
pub fn cluster(
    s: &Snapshot,
    probe: &BTreeMap<&'static str, SpanAgg>,
    r: &mut Report,
) {
    let applies = probe.get("cluster.apply").cloned().unwrap_or_default();
    r.set(
        "cluster.apply_us_per_call",
        per(applies.total_ns as f64 / 1e3, applies.count as f64),
    );
    let mut wait = 0.0;
    let mut busy = 0.0;
    let mut msgs = 0u64;
    for q in 0.. {
        let node = format!("engine/node{q}");
        if !s.spans.contains_key(&node) {
            break;
        }
        busy += s.span_secs(&node);
        wait += s.span_secs(&format!("{node}/comm_wait"));
        msgs += s.counter(&format!("{node}/halo_messages"));
    }
    r.set("cluster.comm_wait_frac", per(wait, busy));
    r.set(
        "cluster.halo_msgs_per_apply",
        per(msgs as f64, s.counter("engine/multiplies") as f64),
    );
}

/// Measured GSPMV time per call over the Eq. 8 prediction for the
/// workload's primary operator, per grid width.
pub fn eq8(
    s: &Snapshot,
    stats: &MatrixStats,
    host: MachineProfile,
    r: &mut Report,
) {
    const NAMES: [&str; 4] = [
        "perfmodel.eq8_ratio.m1",
        "perfmodel.eq8_ratio.m2",
        "perfmodel.eq8_ratio.m4",
        "perfmodel.eq8_ratio.m8",
    ];
    let model = GspmvModel::new(stats, host);
    let full = kernel_totals(s, "gspmv");
    for (k, &w) in GRID.iter().enumerate() {
        let (secs, calls) = full.get(&w).copied().unwrap_or_default();
        r.set(NAMES[k], per(per(secs, calls as f64), model.time(w)));
    }
}

/// Kernel time must fit inside the solver span that issued it.
pub fn check_kernel_within(
    r: &mut Report,
    kernel_secs: f64,
    solver_secs: f64,
    what: &str,
) {
    r.check(
        kernel_secs <= solver_secs * 1.001 + 1e-6,
        format!("kernel time {kernel_secs:.4}s exceeds its solver span {what} {solver_secs:.4}s"),
    );
}
