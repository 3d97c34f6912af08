//! `serve_multitenant`: open-loop serving of five tenants with requests
//! 1–4 columns wide: a sparse and a dense SPD tenant (mat1 and mat3
//! cutoffs, 300 particles) in symmetric storage (`register_auto`), a
//! nonsymmetric convection–diffusion band served with block BiCGStab,
//! an SPD tenant larger than a core's L2 behind a 2-partition
//! `DistEngine` (`register_operator`), and a churn tenant registered,
//! used and unregistered on a fixed schedule (its requests stop well
//! before each unregister, so any failure counts). Per-handle queues
//! thin the batches; it is the benchmark's only workload that writes
//! the registry beside solves, runs block BiCGStab and symmetric
//! storage, or touches `cluster`.
//!
//! The service runs one worker with one compute thread, so at most two
//! compute threads (the two `DistEngine` nodes) ever run at once: on a
//! two-core host a second worker next to the engine's threads made
//! latency follow the scheduler (IQR/median up to 0.35 over seeds).
//!
//! Rates are absolute and frozen here, and so are the operators; the
//! seed draws the arrival times and the right-hand sides. One generator
//! thread submits each request at its due time and never retries: a
//! refusal is a failure. Latency is measured from the due time, and how
//! late the generator ran is reported. The queue is sized to hold the
//! whole schedule. The batch width and linger are
//! `BatchPolicy::default()`, never a host-probed width. After the timed
//! window every returned solution's true residual is recomputed with a
//! plain loop over the blocks, not with the kernels under test.

use crate::probe::{self, TimedOperator};
use crate::stats::{cpu_seconds, median, peak_rss_mb, percentile, tail, trim_mean};
use crate::{layers, Report, SETUP_REPEATS};
use mrhs_cluster::{DistEngine, DistributedMatrix, PermutedEngine};
use mrhs_service::{
    BatchPolicy, MatrixHandle, MatrixRegistry, RequestOptions, ServiceConfig,
    ServiceStats, SolveError, SolveOutput, SolveService,
};
use mrhs_sparse::partition::contiguous_partition;
use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder, MultiVec};
use mrhs_stokes::{
    assemble_resistance, ResistanceConfig, StokesianSystem, SystemBuilder,
};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Table I cutoffs of mat1 and mat3.
const MAT1: f64 = 2.25;
const MAT3: f64 = 4.1;

/// A true relative residual above this fails the request.
const VERIFY_RTOL: f64 = 1e-5;
/// Churn tenant cycle: registered at the start of each period, used
/// until `CHURN_LAST`, unregistered at `CHURN_UNREGISTER`.
const CHURN_PERIOD: f64 = 2.0;
const CHURN_FIRST: f64 = 0.05;
const CHURN_LAST: f64 = 1.2;
const CHURN_UNREGISTER: f64 = 1.9;

/// How a tenant's operator is registered.
#[derive(Clone, Copy, PartialEq)]
enum Reg {
    Auto,
    Dist,
    Churn,
}

struct TenantSpec {
    name: &'static str,
    reg: Reg,
    /// Requests per second (for the churn tenant: while registered).
    rate: f64,
    max_width: usize,
}

/// Service workers (see the module docs).
const WORKERS: usize = 1;
/// Latency limit of `goodput_rhs_per_s`, ms.
const LIMIT_MS: f64 = 500.0;
/// Particles of the system the SD tenants are assembled from: small
/// enough that the worker is busy about a fifth of the time. With 600
/// particles it was busy ~40% of the time, and queueing behind the
/// dense tenant's solves made the latency figures jump with host speed.
const SD_PARTICLES: usize = 300;

const TENANTS: [TenantSpec; 5] = [
    TenantSpec { name: "mat1", reg: Reg::Auto, rate: 6.0, max_width: 4 },
    TenantSpec { name: "mat3", reg: Reg::Auto, rate: 3.0, max_width: 4 },
    TenantSpec { name: "band", reg: Reg::Auto, rate: 4.0, max_width: 4 },
    TenantSpec { name: "big", reg: Reg::Dist, rate: 4.0, max_width: 4 },
    TenantSpec { name: "churn", reg: Reg::Churn, rate: 5.0, max_width: 4 },
];

/// A diagonally dominant banded operator. Nonsymmetric, it is a
/// convection–diffusion band (downstream couplings ~2.3× the upstream
/// ones plus a skew entry); symmetric, it is SPD.
fn band_matrix(nb: usize, band: usize, symmetric: bool) -> BcrsMatrix {
    let (down, up) = if symmetric { (1.0, 1.0) } else { (1.4, 0.6) };
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let mut d = Block3::scaled_identity(6.0 + 2.0 * band as f64);
        if !symmetric {
            *d.get_mut(0, 1) = 0.3;
        }
        t.add(i, i, d);
        for off in 1..=band {
            let w = -1.0 / (1.0 + off as f64 + (i % 5) as f64 * 0.25);
            if i + off < nb {
                let mut lower = Block3::scaled_identity(w * down);
                if !symmetric {
                    *lower.get_mut(0, 2) = w * 0.25;
                }
                t.add(i, i + off, lower);
                t.add(i + off, i, Block3::scaled_identity(w * up));
            }
        }
    }
    t.build()
}

/// The operators are part of the workload, not of its inputs: they are
/// packed from a fixed seed, so the run seed draws only the traffic.
const PACK_SEED: u64 = 20120521;

/// The operator of every tenant, in `TENANTS` order.
fn build_tenants() -> Vec<BcrsMatrix> {
    let pack = |n: usize| {
        SystemBuilder::new(n).volume_fraction(0.5).seed(PACK_SEED).build()
    };
    let sd = |system: &StokesianSystem, s_cut: f64| {
        assemble_resistance(
            system.particles(),
            &ResistanceConfig { s_cut, ..Default::default() },
        )
    };
    let system = pack(SD_PARTICLES);
    TENANTS
        .iter()
        .map(|t| match t.name {
            "mat1" | "churn" => sd(&system, MAT1),
            "mat3" => sd(&system, MAT3),
            "band" => band_matrix(1000, 6, false),
            "big" => band_matrix(4000, 6, true),
            other => unreachable!("unknown tenant {other}"),
        })
        .collect()
}

/// Registers `a` the way tenant `t` is served.
fn register(reg: &MatrixRegistry, t: &TenantSpec, a: BcrsMatrix) -> MatrixHandle {
    let _s = probe::span("service.register");
    match t.reg {
        Reg::Auto | Reg::Churn => reg.register_auto(t.name, a, 1e-10).0,
        Reg::Dist => {
            let part = contiguous_partition(&a, 2);
            let engine = PermutedEngine::new(DistEngine::new(
                DistributedMatrix::new(&a, &part),
            ));
            reg.register_operator(t.name, Box::new(TimedOperator(engine)))
        }
    }
}

/// Starts a service and registers every tenant but the churn one.
fn start(
    data: &[BcrsMatrix],
    capacity: usize,
) -> (SolveService, Vec<Option<MatrixHandle>>) {
    let policy = BatchPolicy {
        queue_capacity: capacity.max(BatchPolicy::default().queue_capacity),
        ..BatchPolicy::default()
    };
    let cfg =
        ServiceConfig { workers: WORKERS, policy, ..ServiceConfig::default() };
    let svc = SolveService::start(MatrixRegistry::new(), cfg);
    let handles = TENANTS
        .iter()
        .zip(data)
        .map(|(t, d)| {
            (t.reg != Reg::Churn).then(|| register(svc.registry(), t, d.clone()))
        })
        .collect();
    (svc, handles)
}

/// splitmix64: decorrelates per-request streams drawn from one seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    /// Uniform in (0, 1].
    fn uniform(&mut self) -> f64 {
        self.0 = mix(self.0);
        ((self.0 >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// The right-hand side of request `idx`: entries uniform in [-0.5, 0.5).
fn rhs(seed: u64, idx: usize, n: usize, width: usize) -> MultiVec {
    let mut rng = Rng(mix(seed ^ mix(idx as u64 + 1)));
    let data = (0..n * width).map(|_| rng.uniform() - 0.5).collect();
    MultiVec::from_flat(n, width, data)
}

#[derive(Clone, Copy)]
enum Event {
    Submit { tenant: usize, width: usize },
    Register(usize),
    Unregister(usize),
}

/// The arrival schedule: `(due seconds after start, event)`, sorted.
fn schedule(seed: u64, duration: f64) -> Vec<(f64, Event)> {
    let mut rng = Rng(mix(seed));
    let mut events = Vec::new();
    for (k, t) in TENANTS.iter().enumerate() {
        let windows: Vec<(f64, f64)> = if t.reg == Reg::Churn {
            let mut v = Vec::new();
            let mut p0 = 0.0;
            while p0 + CHURN_UNREGISTER <= duration {
                events.push((p0, Event::Register(k)));
                events.push((p0 + CHURN_UNREGISTER, Event::Unregister(k)));
                v.push((p0 + CHURN_FIRST, p0 + CHURN_LAST));
                p0 += CHURN_PERIOD;
            }
            v
        } else {
            vec![(0.0, duration)]
        };
        // Each tenant sends exactly `rate × length` requests, one at a
        // uniformly random time in each slot of length `1/rate`: the
        // offered load is the same for every seed, and arrivals are
        // spread more evenly than Poisson bursts, whose chance
        // collisions would dominate the latency figures. Widths cycle
        // through 1..=max_width, so the column mix is fixed too.
        for (a, b) in windows {
            let n = (t.rate * (b - a)).round() as usize;
            let slot = (b - a) / n.max(1) as f64;
            for i in 0..n {
                let due = a + slot * (i as f64 + 1.0 - rng.uniform());
                let width = 1 + i % t.max_width;
                events.push((due, Event::Submit { tenant: k, width }));
            }
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    events
}

/// The outcome of one request.
struct Outcome {
    idx: usize,
    tenant: usize,
    due: Instant,
    result: Result<(SolveOutput, Instant), String>,
}

struct Replay {
    outcomes: Vec<Outcome>,
    lag_ms: Vec<f64>,
    cpu_s: f64,
    stats: ServiceStats,
}

/// Replays `events` open loop against `svc`: the calling thread is the
/// only generator; a collector thread waits on the tickets.
fn replay(
    svc: &SolveService,
    data: &[BcrsMatrix],
    handles: &mut [Option<MatrixHandle>],
    events: &[(f64, Event)],
    seed: u64,
) -> Replay {
    let (tx, rx) = mpsc::channel::<(usize, usize, Instant, mrhs_service::Ticket)>();
    let mut outcomes = Vec::new();
    let mut lag_ms = Vec::new();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now() + Duration::from_millis(20);
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done = Vec::new();
            for (idx, tenant, due, ticket) in rx {
                let submitted = ticket.submitted_at();
                let res = {
                    let _s = probe::span("service.wait");
                    ticket.wait()
                };
                let result = res
                    .map(|out| {
                        let finished = submitted + out.latency;
                        (out, finished)
                    })
                    .map_err(|e: SolveError| format!("{e:?}"));
                done.push(Outcome { idx, tenant, due, result });
            }
            done
        });
        for (idx, &(at, ev)) in events.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(at);
            let payload = match ev {
                Event::Submit { tenant, width } => {
                    Some((tenant, rhs(seed, idx, data[tenant].n_rows(), width)))
                }
                Event::Register(k) => {
                    let a = data[k].clone();
                    sleep_until(due);
                    handles[k] = Some(register(svc.registry(), &TENANTS[k], a));
                    None
                }
                Event::Unregister(k) => {
                    sleep_until(due);
                    if let Some(h) = handles[k].take() {
                        let _s = probe::span("service.unregister");
                        svc.unregister(h);
                    }
                    None
                }
            };
            let Some((tenant, b)) = payload else { continue };
            sleep_until(due);
            lag_ms.push(
                Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
            );
            let handle =
                handles[tenant].expect("tenant registered before its requests");
            let submitted = {
                let _s = probe::span("service.submit");
                svc.submit(handle, b, RequestOptions::default())
            };
            match submitted {
                Ok(ticket) => {
                    tx.send((idx, tenant, due, ticket)).expect("collector alive")
                }
                Err(e) => outcomes.push(Outcome {
                    idx,
                    tenant,
                    due,
                    result: Err(format!("refused: {e:?}")),
                }),
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    outcomes.extend(collected);
    outcomes.sort_by_key(|o| o.idx);
    Replay { outcomes, lag_ms, cpu_s: cpu_seconds() - cpu0, stats: svc.stats() }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// `y = A·x` by a plain loop over the stored blocks — independent of the
/// GSPMV kernels the service runs.
fn reference_matvec(a: &BcrsMatrix, x: &[f64], y: &mut [f64]) {
    for bi in 0..a.nb_rows() {
        let (cols, blocks) = a.block_row(bi);
        let mut acc = [0.0; 3];
        for (&c, b) in cols.iter().zip(blocks) {
            for (i, v) in acc.iter_mut().enumerate() {
                for j in 0..3 {
                    *v += b.get(i, j) * x[3 * c as usize + j];
                }
            }
        }
        y[3 * bi..3 * bi + 3].copy_from_slice(&acc);
    }
}

/// Verified columns per request (0 for a failure), with the reason of
/// every failure.
fn verify(
    rp: &Replay,
    data: &[BcrsMatrix],
    seed: u64,
) -> (Vec<usize>, Vec<String>) {
    let mut cols = Vec::with_capacity(rp.outcomes.len());
    let mut failures = Vec::new();
    for o in &rp.outcomes {
        let out = match &o.result {
            Ok((out, _)) => out,
            Err(e) => {
                failures.push(format!("request {}: {e}", o.idx));
                cols.push(0);
                continue;
            }
        };
        let a = &data[o.tenant];
        let n = a.n_rows();
        let b = rhs(seed, o.idx, n, out.solution.m());
        let mut ax = vec![0.0; n];
        let mut ok = true;
        let mut worst: f64 = 0.0;
        for j in 0..b.m() {
            let (bj, xj) = (b.column(j), out.solution.column(j));
            reference_matvec(a, &xj, &mut ax);
            let rn = bj
                .iter()
                .zip(&ax)
                .map(|(b, y)| (b - y) * (b - y))
                .sum::<f64>()
                .sqrt();
            let bn = bj.iter().map(|v| v * v).sum::<f64>().sqrt();
            // A NaN residual fails the comparison.
            ok &= rn / bn <= VERIFY_RTOL;
            worst = worst.max(rn / bn);
        }
        if ok {
            cols.push(b.m());
        } else {
            failures.push(format!(
                "request {}: true relative residual {worst:.3e}",
                o.idx
            ));
            cols.push(0);
        }
    }
    (cols, failures)
}

/// Set-up: build the operators, start the service, register, and warm
/// every tenant with one solve.
fn setup(
    seed: u64,
    capacity: usize,
) -> (Vec<BcrsMatrix>, SolveService, Vec<Option<MatrixHandle>>) {
    let data = build_tenants();
    let (svc, handles) = start(&data, capacity);
    let tickets: Vec<_> = handles
        .iter()
        .zip(&data)
        .filter_map(|(h, d)| {
            let b = rhs(!seed, 0, d.n_rows(), 1);
            Some(
                svc.submit((*h)?, b, RequestOptions::default())
                    .expect("warm-up accepted"),
            )
        })
        .collect();
    for t in tickets {
        t.wait().expect("warm-up solve");
    }
    (data, svc, handles)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut r = Report::default();
    let events = schedule(seed, seconds);
    let columns: usize = events
        .iter()
        .map(|(_, e)| if let Event::Submit { width, .. } = e { *width } else { 0 })
        .sum();

    let mut setups = Vec::new();
    let mut state = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = setup(seed, columns);
        setups.push(if i == 0 {
            crate::since_start()
        } else {
            t.elapsed().as_secs_f64()
        });
        state = Some(s);
    }
    let (data, svc, mut handles) = state.expect("at least one set-up");
    r.fact("workers", WORKERS);
    for (t, d) in TENANTS.iter().zip(&data) {
        r.fact(
            &format!("operator.{}", t.name),
            format!(
                "n={} nnzb={} bytes={}",
                d.n_rows(),
                d.nnz_blocks(),
                d.stream_bytes()
            ),
        );
    }

    let untraced = replay(&svc, &data, &mut handles, &events, seed);
    drop(svc);
    let rp = if trace {
        let (svc, mut handles) = start(&data, columns);
        mrhs_telemetry::set_enabled(true);
        mrhs_telemetry::trace::set_trace_enabled(true);
        probe::set_enabled(true);
        let before = mrhs_telemetry::snapshot();
        let traced = replay(&svc, &data, &mut handles, &events, seed);
        let snap = mrhs_telemetry::snapshot().diff(&before);
        mrhs_telemetry::set_enabled(false);
        mrhs_telemetry::trace::set_trace_enabled(false);
        probe::set_enabled(false);
        drop(svc);
        per_layer(&mut r, &snap, &traced, &untraced);
        traced
    } else {
        untraced
    };

    let (cols, failures) = verify(&rp, &data, seed);
    r.attempted = rp.outcomes.len() as u64;
    r.failed = failures.len() as u64;
    for f in failures.iter().take(5) {
        println!("failed: {f}");
    }
    if trace {
        let lat = latencies(&rp);
        r.set("harness.samples", lat.len() as f64);
        r.set("harness.tail_pct", tail(&lat).pct);
        r.set("harness.gen_lag_ms_p99", percentile(&rp.lag_ms, 99.0));
        r.set("harness.failed_frac", r.failed as f64 / r.attempted as f64);
        return r;
    }

    let ok: Vec<&Outcome> = rp
        .outcomes
        .iter()
        .zip(&cols)
        .filter(|(_, &c)| c > 0)
        .map(|(o, _)| o)
        .collect();
    let first_due =
        rp.outcomes.iter().map(|o| o.due).min().expect("non-empty schedule");
    let last_done = ok
        .iter()
        .filter_map(|o| o.result.as_ref().ok().map(|(_, f)| *f))
        .max()
        .unwrap_or(first_due);
    let window =
        last_done.saturating_duration_since(first_due).as_secs_f64().max(1e-9);
    let verified: usize = cols.iter().sum();
    let lat = latencies(&rp);
    let in_limit: usize = rp
        .outcomes
        .iter()
        .zip(&cols)
        .filter(|(o, &c)| c > 0 && latency_ms(o).is_some_and(|l| l <= LIMIT_MS))
        .map(|(_, &c)| c)
        .sum();
    r.set("setup_s", median(&setups));
    r.set("steps_per_s", ok.len() as f64 / window);
    let batches = batch_solve_ms(&rp);
    r.set("chunk_ms_trim_mean", trim_mean(&batches));
    r.set("chunk_ms_tail", tail(&batches).value);
    r.set("rhs_per_s", verified as f64 / window);
    r.set("goodput_rhs_per_s", in_limit as f64 / window);
    r.set("latency_ms_trim_mean", trim_mean(&lat));
    r.set("latency_ms_tail", tail(&lat).value);
    r.set("peak_rss_mb", peak_rss_mb());
    r.set("cpu_ms_per_op", rp.cpu_s * 1e3 / verified.max(1) as f64);
    r
}

/// Completion minus due time, ms (`None` for a failed request).
fn latency_ms(o: &Outcome) -> Option<f64> {
    let (_, done) = o.result.as_ref().ok()?;
    Some(done.saturating_duration_since(o.due).as_secs_f64() * 1e3)
}

fn latencies(rp: &Replay) -> Vec<f64> {
    rp.outcomes.iter().filter_map(latency_ms).collect()
}

/// One solve time per coalesced batch: the members of a batch share
/// their completion instant.
fn batch_solve_ms(rp: &Replay) -> Vec<f64> {
    let mut by_batch = BTreeMap::new();
    for o in &rp.outcomes {
        if let Ok((out, done)) = &o.result {
            by_batch.insert(*done, out.solve_time.as_secs_f64() * 1e3);
        }
    }
    by_batch.into_values().collect()
}

fn per_layer(
    r: &mut Report,
    snap: &mrhs_telemetry::Snapshot,
    rp: &Replay,
    untraced: &Replay,
) {
    let probe = probe::take();
    let outs: Vec<&SolveOutput> = rp
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok().map(|(out, _)| out))
        .collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let qw: Vec<f64> = outs.iter().map(|o| ms(o.queue_wait)).collect();
    let st: Vec<f64> = outs.iter().map(|o| ms(o.solve_time)).collect();
    r.set("service.queue_wait_ms_p50", median(&qw));
    r.set("service.queue_wait_ms_tail", tail(&qw).value);
    r.set("service.solve_ms_p50", median(&st));

    // queue_wait + solve_time tile the service-side latency: the two
    // clock reads that close a batch are microseconds apart.
    let (mut parts, mut whole) = (0.0, 0.0);
    for o in &outs {
        let (p, l) = (o.queue_wait + o.solve_time, o.latency);
        parts += p.as_secs_f64();
        whole += l.as_secs_f64();
        r.check(
            p <= l,
            format!("queue_wait + solve_time {p:?} exceed latency {l:?}"),
        );
    }
    let closure = parts / whole.max(1e-12);
    r.check(
        closure >= 0.999,
        format!("queue_wait + solve_time cover {closure:.5} of latency"),
    );
    r.set("service.latency_closure", closure);

    let s = &rp.stats;
    let attempted = rp.outcomes.len().max(1) as f64;
    r.set(
        "service.batch_width_mean",
        s.coalesced_columns as f64 / s.batches.max(1) as f64,
    );
    r.set(
        "service.full_batch_frac",
        s.full_batches as f64 / s.batches.max(1) as f64,
    );
    r.set("service.rejected_frac", s.rejected as f64 / attempted);
    r.set("service.expired_frac", s.expired as f64 / attempted);
    r.set(
        "service.solo_retry_frac",
        s.solo_retries as f64 / s.coalesced_columns.max(1) as f64,
    );
    let get = |n: &str| probe.get(n).cloned().unwrap_or_default();
    let submit: Vec<f64> = get("service.submit")
        .samples_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    r.set("service.submit_us_p99", percentile(&submit, 99.0));
    r.set("service.wait_ms_per_call", get("service.wait").ms_per_call());
    r.set("service.register_ms_per_call", get("service.register").ms_per_call());
    r.set(
        "service.unregister_ms_per_call",
        get("service.unregister").ms_per_call(),
    );
    r.set(
        "service.queue_depth_cols_mean",
        snap.histograms
            .get("service/queue_depth_cols")
            .map_or(0.0, |h| h.mean_ns()),
    );

    layers::sparse(snap, r);
    layers::cluster(snap, &probe, r);
    let solve_span =
        snap.span_secs("service/solve") + snap.span_secs("service/solo_retry");
    // Engine nodes run their kernels on their own threads, in parallel;
    // only the symmetric tenants' kernels run inside the worker's solve
    // span.
    layers::solvers(snap, r, None);
    let sym: f64 =
        layers::kernel_totals(snap, "gspmv_sym").values().map(|k| k.0).sum();
    layers::check_kernel_within(r, sym, solve_span, "service/solve");
    // Tracing cost on the workload's primary metric, positive when the
    // traced run is worse: the trimmed mean latency (the throughput is
    // the offered rate).
    let overhead =
        trim_mean(&latencies(rp)) / trim_mean(&latencies(untraced)) - 1.0;
    r.set("telemetry.overhead_frac", overhead);
}
