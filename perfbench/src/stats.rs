//! Order statistics and process counters.

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile `p` (0–100) of `v` (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p)]
}

/// Share of the samples dropped at each end by [`trim_mean`].
pub const TRIM: f64 = 0.1;

/// Mean of the middle `1 - 2·TRIM` of `v` (0 when empty). The host
/// alternates between a fast and a ~1.4× slower state every few
/// seconds; a median jumps between the two as their mix in a run moves
/// past one half, while this mean moves with the mix and ignores rare
/// stalls.
pub fn trim_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = (s.len() as f64 * TRIM) as usize;
    let mid = &s[k..s.len() - k];
    mid.iter().sum::<f64>() / mid.len() as f64
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// A tail latency and the percentile it was read at.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub value: f64,
    pub pct: f64,
}

/// The highest of p99.9/p99/p90 that leaves at least ten samples above
/// it. With fewer than 100 samples no fixed percentile qualifies, and
/// the order statistic with exactly ten samples above it is used (its
/// percentile is recorded); with at most ten samples, the maximum.
/// Every workload does a fixed amount of work, so the sample count and
/// hence the percentile chosen are the same on every run.
pub fn tail(v: &[f64]) -> Tail {
    let n = v.len();
    if n == 0 {
        return Tail { value: 0.0, pct: 100.0 };
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    for p in [99.9, 99.0, 90.0] {
        let k = rank(n, p);
        if n - 1 - k >= 10 {
            return Tail { value: s[k], pct: p };
        }
    }
    let k = n.saturating_sub(11);
    Tail { value: s[k], pct: 100.0 * (k + 1) as f64 / n as f64 }
}

/// User + system CPU seconds of the whole process (all threads), from
/// `/proc/self/stat` in clock ticks of the kernel's fixed 100 Hz
/// `USER_HZ`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields restart after ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    // After ')': field 3 is index 0, so utime (14) and stime (15) sit
    // at 11 and 12.
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 90.0);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.pct, 75.0);
    }

    #[test]
    fn trim_mean_drops_a_tenth_at_each_end() {
        let mut v: Vec<f64> = (1..=18).map(f64::from).collect();
        v.extend([-1e9, 1e9]);
        assert_eq!(trim_mean(&v), 9.5);
        assert_eq!(trim_mean(&[4.0]), 4.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
