//! `sd_mrhs`: a Stokesian trajectory through Alg. 2, closed loop.
//!
//! One caller advances ~1,000 particles at occupancy 0.5 with
//! `run_mrhs_chunk` at m = 8 and the default `MrhsConfig` otherwise. It
//! covers Stokesian assembly, Chebyshev at m = 8 and m = 1, block CG at
//! m = 8 and two single-RHS CG solves per step, and touches no service
//! code: a serving change predicts no change here.

use crate::probe::{self, TimedNoise, TimedSystem};
use crate::stats::{cpu_seconds, median, peak_rss_mb, tail, trim_mean};
use crate::{layers, Report, SETUP_REPEATS};
use mrhs_core::{run_mrhs_chunk, run_original_step, ChunkReport, MrhsConfig};
use mrhs_core::{ResistanceSystem, StepTimings};
use mrhs_stokes::{GaussianNoise, MsdTracker, StokesianSystem, SystemBuilder};
use std::time::Instant;

const PARTICLES: usize = 1000;
const OCCUPANCY: f64 = 0.5;
const M: usize = 8;
/// Chunks per requested second: frozen, so the run does fixed work.
const CHUNKS_PER_SECOND: f64 = 3.0;
/// A step meets its latency limit within this wall time.
const STEP_LIMIT_MS: f64 = 250.0;
/// Per-step MSD growth (Å² per step) of a healthy trajectory.
const MSD_PER_STEP: (f64, f64) = (2e-4, 1e-2);
/// Steps of the Alg. 1 vs Alg. 2 comparison of the traced run.
const SPEEDUP_CHUNKS: usize = 2;
/// The initial configuration is part of the workload; the run seed
/// draws the Brownian forces.
const PACK_SEED: u64 = 20120521;

type Sys = TimedSystem<StokesianSystem>;
type Noise = TimedNoise<GaussianNoise>;

fn config() -> MrhsConfig {
    MrhsConfig { m: M, ..MrhsConfig::default() }
}

/// Packs and builds the system, then warms every lazily initialised
/// piece (kernel backend, allocator, caches) with one chunk on a copy.
fn setup(seed: u64) -> (Sys, Noise, f64) {
    let t = Instant::now();
    let system = SystemBuilder::new(PARTICLES)
        .volume_fraction(OCCUPANCY)
        .seed(PACK_SEED)
        .build();
    let noise = GaussianNoise::seed_from_u64(seed);
    let build_s = t.elapsed().as_secs_f64();
    let mut warm = system.clone();
    let mut warm_noise = GaussianNoise::seed_from_u64(!seed);
    run_mrhs_chunk(&mut warm, &mut warm_noise, &config());
    (
        TimedSystem { inner: system, step_ends: Vec::new() },
        TimedNoise(noise),
        build_s,
    )
}

/// What one pass over the fixed chunk count observed.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    chunk_ms: Vec<f64>,
    step_ms: Vec<f64>,
    reports: Vec<ChunkReport>,
    msd: f64,
    finite: bool,
}

fn pass(mut system: Sys, mut noise: Noise, chunks: usize) -> Pass {
    let cfg = config();
    let mut msd = MsdTracker::new(system.inner.particles());
    let mut chunk_ms = Vec::with_capacity(chunks);
    let mut step_ms = Vec::with_capacity(chunks * M);
    let mut reports = Vec::with_capacity(chunks);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    for _ in 0..chunks {
        system.step_ends.clear();
        let c0 = Instant::now();
        let report = {
            let _s = probe::span("core.run_mrhs_chunk");
            run_mrhs_chunk(&mut system, &mut noise, &cfg)
        };
        chunk_ms.push(c0.elapsed().as_secs_f64() * 1e3);
        let mut prev = c0;
        for &end in &system.step_ends {
            step_ms.push(end.duration_since(prev).as_secs_f64() * 1e3);
            prev = end;
        }
        msd.record(system.inner.particles(), M as f64 * system.dt());
        reports.push(report);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let finite = system.save_state().iter().all(|v| v.is_finite());
    Pass { wall_s, cpu_s, chunk_ms, step_ms, reports, msd: msd.msd(), finite }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let chunks = (seconds * CHUNKS_PER_SECOND).round().max(1.0) as usize;
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut state = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (system, noise, build_s) = setup(seed);
        // The first set-up also pays process start-up (backend
        // selection, first touch): it is measured from process start.
        setups.push(if i == 0 {
            crate::since_start()
        } else {
            t.elapsed().as_secs_f64()
        });
        builds.push(build_s);
        state = Some((system, noise));
    }
    let (system, noise) = state.expect("at least one set-up");
    let a0 = system.inner.assemble();
    r.fact("operator", format!("sd n={} nnzb={}", a0.n_rows(), a0.nnz_blocks()));
    r.fact("operator_bytes", a0.stream_bytes());
    r.fact("workers", 1);

    let fresh = |s: &Sys, n: &Noise| {
        (TimedSystem { inner: s.inner.clone(), step_ends: Vec::new() }, n.clone())
    };
    let (s1, n1) = fresh(&system, &noise);
    let untraced = pass(s1, n1, chunks);
    let p = if trace {
        mrhs_telemetry::set_enabled(true);
        mrhs_telemetry::trace::set_trace_enabled(true);
        probe::set_enabled(true);
        let before = mrhs_telemetry::snapshot();
        let (s2, n2) = fresh(&system, &noise);
        let traced = pass(s2, n2, chunks);
        let snap = mrhs_telemetry::snapshot().diff(&before);
        mrhs_telemetry::set_enabled(false);
        mrhs_telemetry::trace::set_trace_enabled(false);
        probe::set_enabled(false);
        per_layer(&mut r, &snap, &traced, &untraced, &a0, median(&builds));
        let (s3, n3) = fresh(&system, &noise);
        r.set("core.mrhs_speedup", mrhs_speedup(s3, n3));
        traced
    } else {
        untraced
    };

    // Correctness, after the timed window: every solve under the
    // iteration cap, a finite state, and diffusive motion in band.
    let cap = config().solve.max_iter;
    let steps = p.reports.len() * M;
    let mut failed_steps = 0u64;
    for rep in &p.reports {
        let head_ok = rep.block_iterations < cap;
        for s in &rep.steps {
            let ok = head_ok
                && s.first_solve_iterations < cap
                && s.second_solve_iterations < cap;
            failed_steps += u64::from(!ok);
        }
    }
    r.attempted = steps as u64;
    r.failed = failed_steps;
    r.check(p.finite, "particle state is not finite".into());
    let msd_per_step = p.msd / steps as f64;
    r.check(
        (MSD_PER_STEP.0..=MSD_PER_STEP.1).contains(&msd_per_step),
        format!("MSD per step {msd_per_step:.3e} outside {MSD_PER_STEP:?}"),
    );
    r.check(
        p.step_ms.len() == steps,
        "a step did not end with a full advance".into(),
    );

    if trace {
        r.set("harness.samples", p.step_ms.len() as f64);
        r.set("harness.tail_pct", tail(&p.step_ms).pct);
        r.set("harness.failed_frac", failed_steps as f64 / steps as f64);
        return r;
    }
    let ok_steps = (steps as u64 - failed_steps) as f64;
    let in_limit =
        p.step_ms.iter().filter(|&&ms| ms <= STEP_LIMIT_MS).count() as f64;
    r.set("setup_s", median(&setups));
    r.set("steps_per_s", steps as f64 / p.wall_s);
    r.set("chunk_ms_trim_mean", trim_mean(&p.chunk_ms));
    r.set("chunk_ms_tail", tail(&p.chunk_ms).value);
    r.set("rhs_per_s", 2.0 * ok_steps / p.wall_s);
    r.set("goodput_rhs_per_s", 2.0 * in_limit.min(ok_steps) / p.wall_s);
    r.set("latency_ms_trim_mean", trim_mean(&p.step_ms));
    r.set("latency_ms_tail", tail(&p.step_ms).value);
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("cpu_ms_per_op", p.cpu_s * 1e3 / steps as f64);
    r
}

fn per_layer(
    r: &mut Report,
    snap: &mrhs_telemetry::Snapshot,
    p: &Pass,
    untraced: &Pass,
    a0: &mrhs_sparse::BcrsMatrix,
    build_s: f64,
) {
    let probe = probe::take();
    let chunks = p.reports.len() as f64;
    let steps = chunks * M as f64;
    let mut t = StepTimings::default();
    let (mut block, mut first, mut second) = (0usize, 0usize, 0usize);
    for rep in &p.reports {
        block += rep.block_iterations;
        for s in &rep.steps {
            t.accumulate(&s.timings);
            first += s.first_solve_iterations;
            second += s.second_solve_iterations;
        }
    }
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    r.set("core.assemble_ms_per_step", ms(t.assemble) / steps);
    r.set("core.cheb_single_ms_per_step", ms(t.cheb_single) / steps);
    r.set("core.first_solve_ms_per_step", ms(t.first_solve) / steps);
    r.set("core.second_solve_ms_per_step", ms(t.second_solve) / steps);
    r.set("core.cheb_vectors_ms_per_chunk", ms(t.cheb_vectors) / chunks);
    r.set("core.calc_guesses_ms_per_chunk", ms(t.calc_guesses) / chunks);
    r.set("core.block_iters", block as f64 / chunks);
    r.set("core.first_solve_iters", first as f64 / steps);
    r.set("core.second_solve_iters", second as f64 / steps);
    // The phases StepTimings reports against the chunk wall time; the
    // remainder is the untimed spectral-bound estimate and bookkeeping.
    let chunk_total: f64 = p.chunk_ms.iter().sum();
    let closure = ms(t.total()) / chunk_total;
    r.set("core.phase_closure", closure);
    r.check(
        (0.85..=1.0 + 1e-6).contains(&closure),
        format!("StepTimings phases cover {closure:.4} of the chunk wall time"),
    );
    r.set("solvers.cheb.ms_per_apply_m8", ms(t.cheb_vectors) / chunks);
    r.set("solvers.cheb.ms_per_apply_m1", ms(t.cheb_single) / (steps - chunks));

    let get = |n: &str| probe.get(n).cloned().unwrap_or_default();
    let chunk_span = get("core.run_mrhs_chunk");
    r.set(
        "core.noise_ms_per_chunk",
        get("core.noise").total_ns as f64 / 1e6 / chunks,
    );
    r.set("core.self_ms_per_chunk", chunk_span.self_ns as f64 / 1e6 / chunks);
    r.set("stokes.assemble_ms_per_call", get("stokes.assemble").ms_per_call());
    r.set("stokes.advance_ms_per_call", get("stokes.advance").ms_per_call());
    r.set("stokes.nnzb_per_row", a0.blocks_per_row());
    r.set("stokes.build_s", build_s);

    layers::sparse(snap, r);
    let m8 = layers::kernel_totals(snap, "gspmv").get(&M).map_or(0.0, |k| k.0);
    layers::solvers(snap, r, Some(m8));
    layers::check_kernel_within(
        r,
        m8,
        snap.span_secs("solver/block_cg"),
        "solver/block_cg",
    );
    layers::eq8(snap, &a0.stats(), mrhs_perfmodel::measure::host_profile(), r);
    r.set("telemetry.overhead_frac", p.wall_s / untraced.wall_s - 1.0);
}

/// Alg. 2 against Alg. 1 from the same state and noise: per-step time
/// of the original algorithm over that of the MRHS chunks.
fn mrhs_speedup(system: Sys, noise: Noise) -> f64 {
    let cfg = config();
    let steps = SPEEDUP_CHUNKS * M;
    let mut orig = system.inner.clone();
    let mut orig_noise = noise.0.clone();
    let mut cache = None;
    let t = Instant::now();
    for _ in 0..steps {
        run_original_step(&mut orig, &mut orig_noise, &cfg, &mut cache);
    }
    let t_orig = t.elapsed().as_secs_f64();
    let p = pass(system, noise, SPEEDUP_CHUNKS);
    t_orig / p.wall_s
}
