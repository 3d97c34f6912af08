//! Benchmark-side spans around calls into each layer's public API.
//!
//! The program's own telemetry covers kernels, solvers, the Alg. 2
//! phases and the service; the layers it leaves dark from the outside —
//! Stokesian assembly and advance, the noise source, the distributed
//! operator as the service sees it, and the service's client calls
//! (`submit`, `Ticket::wait`, `register_*`, `unregister`) — are timed
//! here, in benchmark code, by wrapping the public types. Spans nest per
//! thread: a span's self time is its duration minus the time its child
//! spans on the same thread cover. While disabled (every end-to-end
//! run) a span reads no clock.

use mrhs_core::{NoiseSource, ResistanceSystem};
use mrhs_solvers::LinearOperator;
use mrhs_sparse::{BcrsMatrix, MultiVec};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static STATS: Mutex<BTreeMap<&'static str, SpanAgg>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Child time accumulated by each open span on this thread.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Everything recorded under one span name.
#[derive(Clone, Debug, Default)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every duration, for percentiles.
    pub samples_ns: Vec<u64>,
}

impl SpanAgg {
    pub fn ms_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Drains everything recorded so far.
pub fn take() -> BTreeMap<&'static str, SpanAgg> {
    std::mem::take(&mut *STATS.lock().expect("probe stats poisoned"))
}

/// An open span; records on drop.
pub struct Span {
    active: Option<(&'static str, Instant)>,
}

pub fn span(name: &'static str) -> Span {
    if !ON.load(Ordering::Relaxed) {
        return Span { active: None };
    }
    OPEN.with(|s| s.borrow_mut().push(0));
    Span { active: Some((name, Instant::now())) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((name, start)) = self.active.take() else { return };
        let ns = start.elapsed().as_nanos() as u64;
        let child = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let child = s.pop().unwrap_or(0);
            if let Some(parent) = s.last_mut() {
                *parent += ns;
            }
            child
        });
        let mut stats = STATS.lock().expect("probe stats poisoned");
        let agg = stats.entry(name).or_default();
        agg.count += 1;
        agg.total_ns += ns;
        agg.self_ns += ns.saturating_sub(child);
        agg.samples_ns.push(ns);
    }
}

/// A [`ResistanceSystem`] whose assembly and advance are spanned
/// (`stokes.assemble`, `stokes.advance`). It also notes when each time
/// step ends — Alg. 1 and Alg. 2 both finish a step with exactly one
/// full-`Δt` advance — so per-step wall time is observable from outside
/// `run_mrhs_chunk`; that costs one clock read per step and runs in
/// every mode.
pub struct TimedSystem<S> {
    pub inner: S,
    pub step_ends: Vec<Instant>,
}

impl<S: ResistanceSystem> ResistanceSystem for TimedSystem<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn assemble(&self) -> BcrsMatrix {
        let _s = span("stokes.assemble");
        self.inner.assemble()
    }

    fn advance(&mut self, u: &[f64], dt: f64) {
        {
            let _s = span("stokes.advance");
            self.inner.advance(u, dt);
        }
        if dt == self.inner.dt() {
            self.step_ends.push(Instant::now());
        }
    }

    fn dt(&self) -> f64 {
        self.inner.dt()
    }

    fn save_state(&self) -> Vec<f64> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.inner.restore_state(state)
    }

    fn add_external_forces(&self, out: &mut [f64]) {
        self.inner.add_external_forces(out)
    }
}

/// A [`NoiseSource`] whose draws are spanned (`core.noise`).
#[derive(Clone)]
pub struct TimedNoise<N>(pub N);

impl<N: NoiseSource> NoiseSource for TimedNoise<N> {
    fn fill_standard_normal(&mut self, out: &mut [f64]) {
        let _s = span("core.noise");
        self.0.fill_standard_normal(out)
    }
}

/// A [`LinearOperator`] whose applications are spanned
/// (`cluster.apply`): the distributed tenant's cost as the service sees
/// it.
pub struct TimedOperator<O>(pub O);

impl<O: LinearOperator> LinearOperator for TimedOperator<O> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let _s = span("cluster.apply");
        self.0.apply(x, y)
    }

    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        let _s = span("cluster.apply");
        self.0.apply_multi(x, y)
    }
}
