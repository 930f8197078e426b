//! Process-level readings, per-op samples, and the slicing that turns them
//! into medians.

use b2b_telemetry::MetricsSnapshot;
use std::time::{Duration, Instant};

/// Process user+sys CPU so far, in ms. `/proc/self/stat` counts in ticks of
/// `USER_HZ`, which Linux fixes at 100 on every mainstream architecture;
/// 10 ms resolution is under 1 % of a slice's CPU time.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, which may contain spaces.
    let rest = &stat[stat.rfind(')').expect("comm in stat") + 2..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11).and_then(|s| s.parse().ok()).expect("utime");
    let stime: u64 = fields.next().and_then(|s| s.parse().ok()).expect("stime");
    (utime + stime) as f64 * 10.0
}

/// Resident set size, in KiB.
pub fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS in status")
}

/// The filesystem type holding `path`, from the longest matching mount.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let abs = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median of `values` (mean of the middle two when even); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of already sorted `sorted`, as ns → µs.
pub fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

/// Median of `probe`'s wall time over `calls` calls, in µs.
pub fn median_call_us(calls: usize, mut probe: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<u64> = Vec::with_capacity(calls);
    for i in 0..calls {
        let t = Instant::now();
        probe(i);
        ns.push(t.elapsed().as_nanos() as u64);
    }
    ns.sort_unstable();
    percentile_us(&ns, 50.0)
}

/// What one client operation was, for the per-kind latency metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Write,
    Read,
    Veto,
}

/// One completed client operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the slicing attributes it: completion time on closed loops, due
    /// time on the open loop; ns since the run's `t0`.
    pub at_ns: u64,
    /// Start (closed loop) or due time (open loop) → terminal outcome known.
    pub latency_ns: u64,
    /// Open loop only: how long after its due time the op was sent.
    pub lag_ns: u64,
    pub kind: Kind,
    /// Updates this op installed (0 for reads, vetoes and failures).
    pub installed: u32,
    /// The outcome was the expected one.
    pub ok: bool,
}

/// Readings taken by the main thread at a slice boundary.
#[derive(Clone, Debug)]
pub struct Boundary {
    pub at_ns: u64,
    pub cpu_ms: f64,
    pub rss_kb: u64,
}

impl Boundary {
    pub fn now(t0: Instant) -> Boundary {
        Boundary {
            at_ns: t0.elapsed().as_nanos() as u64,
            cpu_ms: cpu_ms(),
            rss_kb: rss_kb(),
        }
    }
}

/// Sleeps until `t0 + at`.
pub fn sleep_until(t0: Instant, at: Duration) {
    if let Some(left) = at.checked_sub(t0.elapsed()) {
        std::thread::sleep(left);
    }
}

/// Per-slice figures of one slice.
#[derive(Clone, Debug, Default)]
pub struct SliceStats {
    pub ops: usize,
    pub updates_per_s: f64,
    pub cpu_ms_per_kupdate: f64,
    pub op_p50_us: f64,
    pub op_p95_us: f64,
    pub op_p99_us: f64,
    pub read_p50_us: f64,
    pub read_p99_us: f64,
    pub veto_p50_us: f64,
    pub lag_p99_us: f64,
}

/// Cuts `samples` at `bounds` (n + 1 boundaries → n slices). `op_*` are the
/// mutating operations, installed or vetoed; reads have their own figures.
/// A failed op counts as attempted and is left out of the percentiles.
pub fn slice_stats(samples: &[Sample], bounds: &[Boundary]) -> Vec<SliceStats> {
    bounds
        .windows(2)
        .map(|w| {
            let (from, to) = (&w[0], &w[1]);
            let secs = (to.at_ns - from.at_ns) as f64 / 1e9;
            let here: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.at_ns >= from.at_ns && s.at_ns < to.at_ns)
                .collect();
            let sorted = |pick: &dyn Fn(&Sample) -> bool| -> Vec<u64> {
                let mut v: Vec<u64> = here
                    .iter()
                    .filter(|s| s.ok && pick(s))
                    .map(|s| s.latency_ns)
                    .collect();
                v.sort_unstable();
                v
            };
            let ops = sorted(&|s| s.kind != Kind::Read);
            let reads = sorted(&|s| s.kind == Kind::Read);
            let vetoes = sorted(&|s| s.kind == Kind::Veto);
            let mut lags: Vec<u64> = here.iter().map(|s| s.lag_ns).collect();
            lags.sort_unstable();
            let installed: u64 = here.iter().map(|s| s.installed as u64).sum();
            SliceStats {
                ops: here.len(),
                updates_per_s: installed as f64 / secs,
                cpu_ms_per_kupdate: (to.cpu_ms - from.cpu_ms) / (installed.max(1) as f64 / 1e3),
                op_p50_us: percentile_us(&ops, 50.0),
                op_p95_us: percentile_us(&ops, 95.0),
                op_p99_us: percentile_us(&ops, 99.0),
                read_p50_us: percentile_us(&reads, 50.0),
                read_p99_us: percentile_us(&reads, 99.0),
                veto_p50_us: percentile_us(&vetoes, 50.0),
                lag_p99_us: percentile_us(&lags, 99.0),
            }
        })
        .collect()
}

/// Median over slices of one figure.
pub fn slice_median(slices: &[SliceStats], pick: impl Fn(&SliceStats) -> f64) -> f64 {
    median(&slices.iter().map(pick).collect::<Vec<_>>())
}

/// `(max − min) / median` of slice throughput.
pub fn slice_spread(slices: &[SliceStats]) -> f64 {
    let v: Vec<f64> = slices.iter().map(|s| s.updates_per_s).collect();
    let (min, max) = v
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
    let m = median(&v);
    if m > 0.0 {
        (max - min) / m
    } else {
        0.0
    }
}

/// Growth of the public telemetry registry between two snapshots.
pub struct Delta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name)) as f64
    }

    /// Sum over every counter whose name starts with `prefix` (the shard
    /// workers publish `shard_events:shard<i>`).
    pub fn counter_prefix(&self, prefix: &str) -> f64 {
        let sum = |s: &MetricsSnapshot| -> u64 {
            s.counters
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| *v)
                .sum()
        };
        sum(self.after).saturating_sub(sum(self.before)) as f64
    }

    /// `(observations, sum)` a histogram gained.
    pub fn histogram(&self, name: &str) -> (f64, f64) {
        let read = |s: &MetricsSnapshot| {
            s.histogram(name)
                .map(|h| (h.count, h.sum))
                .unwrap_or((0, 0))
        };
        let (c0, s0) = read(self.before);
        let (c1, s1) = read(self.after);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).map(|x| x * 1_000).collect();
        assert_eq!(percentile_us(&v, 50.0), 50.0);
        assert_eq!(percentile_us(&v, 99.0), 99.0);
    }

    #[test]
    fn readings_are_live() {
        assert!(rss_kb() > 0);
        assert!(cpu_ms() >= 0.0);
    }

    #[test]
    fn failed_ops_and_reads_stay_out_of_op_percentiles() {
        let b = |at_ns, cpu_ms| Boundary {
            at_ns,
            cpu_ms,
            rss_kb: 0,
        };
        let s = |at_ns, latency_ns, kind, ok| Sample {
            at_ns,
            latency_ns,
            lag_ns: 0,
            kind,
            installed: (ok && kind == Kind::Write) as u32,
            ok,
        };
        let samples = [
            s(10, 1_000, Kind::Write, true),
            s(20, 3_000, Kind::Veto, true),
            s(25, 500, Kind::Read, true),
            s(30, 9_000_000, Kind::Write, false),
            s(2_000_000_000, 1, Kind::Write, true),
        ];
        let stats = slice_stats(&samples, &[b(0, 0.0), b(1_000_000_000, 20.0)]);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].ops, 4);
        assert_eq!(stats[0].updates_per_s, 1.0);
        assert_eq!(stats[0].op_p50_us, 1.0);
        assert_eq!(stats[0].op_p99_us, 3.0);
        assert_eq!(stats[0].read_p50_us, 0.5);
        assert_eq!(stats[0].cpu_ms_per_kupdate, 20_000.0);
    }
}
