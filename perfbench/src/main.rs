//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <old-report> <new-report>
//! ```
//!
//! Two workloads, each a fixed amount of work derived from `--seconds`
//! and `--seed` (a chunk count, or an arrival schedule), never a time
//! window, so sample counts and the tail percentile read are identical
//! from run to run:
//!
//! * `sd_mrhs` — the paper's own workload, closed loop: a Stokesian
//!   trajectory through `run_mrhs_chunk` (Alg. 2, m = 8).
//! * `serve_multitenant` — five tenants on one worker: symmetric
//!   storage, block BiCGStab, a `DistEngine`, and registry churn.
//!
//! The host's speed swings by ~1.4× every few seconds; runs are long
//! (45 s in `BENCHMARK.json`) so that each averages many swings.
//!
//! `--trace 0` prints the end-to-end metrics with telemetry and tracing
//! off. `--trace 1` runs the same work untraced and then traced, and
//! prints the per-layer metrics (see `layers.rs`). Every metric is
//! printed by name and unit, then a fingerprint line, then, as the
//! last line, one JSON object `{correct, attempted, failed, metrics}`.
//! A failed correctness check makes the exit code 1.
//!
//! End-to-end metrics are defined on every workload; where a name comes
//! from one side, the other side reports its direct counterpart:
//!
//! | metric | `sd_mrhs` | `serve_multitenant` |
//! |---|---|---|
//! | `steps_per_s` | time steps per second | requests completed per second |
//! | `chunk_ms_*` | one `run_mrhs_chunk` call (m steps) | one coalesced batch solve |
//! | `rhs_per_s` | verified per-step solves per second (2 per step) | verified columns ÷ (last completion − first due) |
//! | `goodput_rhs_per_s` | the same, counting steps within the limit | columns completed within the limit |
//! | `latency_ms_*` | wall time of each step, seen from outside | completion − due time |
//! | `cpu_ms_per_op` | CPU per step | CPU per verified column |
//!
//! `*_trim_mean` is the mean of the middle 80% of the samples (see
//! [`stats::trim_mean`] for why not the median). `*_tail` is the highest
//! of p90/p99/p99.9 that leaves ten samples above it (`harness.tail_pct`
//! records which). `setup_s` is the median of five complete set-ups in
//! the run.

mod layers;
mod probe;
mod sd;
mod serve;
mod stats;

use mrhs_telemetry::json::Json;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Compute threads per solve. One keeps compute threads within the two
/// cores the benchmark is sized for and takes the nondeterminism of a
/// shared pool out of the timings.
pub const RAYON_THREADS: &str = "1";

/// Complete set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("chunk_ms_trim_mean", "ms", "lower"),
    ("chunk_ms_tail", "ms", "lower"),
    ("rhs_per_s", "1/s", "higher"),
    ("goodput_rhs_per_s", "1/s", "higher"),
    ("latency_ms_trim_mean", "ms", "lower"),
    ("latency_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
];

/// Seconds since process start (the `setup_s` origin).
pub fn since_start() -> f64 {
    start().elapsed().as_secs_f64()
}

fn start() -> &'static Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now)
}

/// What one workload run observed.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that failed, by description.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Host and operator facts for the fingerprint line.
    pub facts: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }

    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.check_failures.push(what);
        }
    }

    pub fn fact(&mut self, k: &str, v: impl ToString) {
        self.facts.push((k.to_string(), v.to_string()));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sd_mrhs|serve_multitenant> \
--seed <n> --seconds <s> --trace <0|1>\n       \
perfbench compare <old-report> <new-report>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|_| bad())?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare(&argv[1..]));
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Fixed before anything touches the pool; the program reads it once.
    std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS);
    mrhs_telemetry::set_enabled(false);
    mrhs_telemetry::trace::set_trace_enabled(false);
    mrhs_telemetry::flight::configure_dump_dir(None);

    let report = match args.workload.as_str() {
        "sd_mrhs" => sd::run(args.seed, args.seconds, args.trace),
        "serve_multitenant" => serve::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ok = emit(&args, report);
    std::process::exit(if ok { 0 } else { 1 });
}

/// Prints every metric by name and unit, the fingerprint line, and the
/// result object as the last line. Returns whether the run was correct.
fn emit(args: &Args, report: Report) -> bool {
    let spec: Vec<(&str, &str)> = if args.trace {
        layers::PER_LAYER.iter().map(|&(n, u)| (n, u)).collect()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    for name in report.metrics.keys() {
        assert!(
            spec.iter().any(|(n, _)| n == name),
            "metric {name} is not in this mode's metric list"
        );
    }
    let mut metrics = Vec::new();
    for (name, unit) in spec {
        let v = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<40} {v:>16.6} {unit}");
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(v)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    for f in &report.check_failures {
        println!("CHECK FAILED: {f}");
    }
    let mut fp = fingerprint(&args.workload);
    fp.extend(report.facts.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))));
    println!("fingerprint {}", Json::Obj(fp).to_string_compact());
    let correct = report.correct();
    let out = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::from_u64(report.attempted.max(1))),
        ("failed".into(), Json::from_u64(report.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", out.to_string_compact());
    correct
}

/// The host facts a comparison must hold fixed.
fn fingerprint(workload: &str) -> Vec<(String, Json)> {
    let cache = |idx: u32| {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{idx}/size"
        ))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
    };
    let backend = mrhs_sparse::backend::active_backend();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload".into(), Json::Str(workload.into())),
        ("nproc".into(), Json::from_u64(nproc as u64)),
        ("isa".into(), Json::Str(backend.isa().as_str().into())),
        ("backend".into(), Json::Str(backend.name().into())),
        ("rayon_num_threads".into(), Json::Str(RAYON_THREADS.into())),
        ("l2".into(), Json::Str(cache(2))),
        ("l3".into(), Json::Str(cache(3))),
    ]
}

/// `compare OLD NEW`: both files hold a run's standard output. Refuses
/// (exit 2) unless the fingerprints match, then prints each metric's
/// new/old ratio.
fn compare(files: &[String]) -> i32 {
    let [old, new] = files else {
        eprintln!("{USAGE}");
        return 2;
    };
    let load = |path: &str| -> Result<(Json, Json), String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let fp = text
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint "))
            .ok_or(format!("{path}: no fingerprint line"))?;
        let last = text.lines().last().ok_or(format!("{path}: empty"))?;
        Ok((Json::parse(fp)?, Json::parse(last)?))
    };
    let ((fp_old, res_old), (fp_new, res_new)) = match (load(old), load(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    if fp_old != fp_new {
        eprintln!(
            "perfbench compare: refused, fingerprints differ:\n  {}\n  {}",
            fp_old.to_string_compact(),
            fp_new.to_string_compact()
        );
        return 2;
    }
    let value = |res: &Json, name: &str| {
        res.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))?
            .as_f64()
    };
    let Some(names) = res_new.get("metrics").and_then(Json::as_obj) else {
        eprintln!("perfbench compare: {new}: no metrics");
        return 2;
    };
    for (name, _) in names {
        let (Some(a), Some(b)) = (value(&res_old, name), value(&res_new, name))
        else {
            continue;
        };
        let ratio = if a != 0.0 { b / a } else { f64::NAN };
        println!("{name:<40} {a:>14.6} {b:>14.6} {ratio:>8.4}x");
    }
    0
}
