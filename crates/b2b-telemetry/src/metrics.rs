//! Deterministic metrics: named counters and virtual-time histograms.
//!
//! The registry is a `Clone + Send + Sync` handle over a mutex-guarded
//! `BTreeMap`, so iteration order — and therefore every exporter's output —
//! is deterministic. Values are only ever fed from virtual [`u64`]
//! milliseconds or event counts; the registry itself never reads a clock.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Upper bounds (inclusive) of the histogram buckets, in virtual ms.
///
/// A 1-2-5 ladder wide enough for every experiment in the bench suite; the
/// final implicit bucket is unbounded.
pub const BUCKET_BOUNDS: [u64; 14] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10_000, 20_000,
];

/// Maximum distinct `group` label values a metric family may expose before
/// [`MetricsSnapshot::to_prometheus`] folds the excess into a single
/// `group="__overflow"` series.
///
/// A 10k-group process would otherwise serve a multi-megabyte `/metrics`
/// page with 10k time series per family — unusable for a scraper and a
/// cardinality bomb for any downstream TSDB. 64 keeps small multi-group
/// runs fully inspectable while capping the page size. Truncation is never
/// silent: the folded remainder stays visible under the overflow label and
/// the page carries a [`GROUP_LABEL_OVERFLOW`] counter of elided series.
pub const GROUP_CARDINALITY_CAP: usize = 64;

/// The reserved `group` label value carrying everything beyond
/// [`GROUP_CARDINALITY_CAP`]: the sum (counters) or merge (histograms) of
/// all elided per-group series, so family totals stay exact.
pub const GROUP_OVERFLOW_LABEL: &str = "__overflow";

/// Name of the synthetic counter `to_prometheus` emits when any family
/// overflowed the group-cardinality cap: the total number of per-group
/// series folded into [`GROUP_OVERFLOW_LABEL`] across all families.
/// Absent when nothing overflowed, so its mere presence is the alert.
pub const GROUP_LABEL_OVERFLOW: &str = "group_label_overflow";

/// A latency histogram over [`BUCKET_BOUNDS`] plus an overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Per-bucket observation counts; `counts[i]` covers values up to and
    /// including `BUCKET_BOUNDS[i]`, the last entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean observed value, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (0.0 ≤ q ≤ 1.0) at bucket resolution: the upper
    /// bound of the first bucket whose cumulative count reaches the
    /// target rank, clamped to the observed maximum (exact when the
    /// quantile falls in the overflow bucket). Returns 0 when empty.
    ///
    /// Because buckets are mergeable, quantiles computed on a merged
    /// histogram equal quantiles computed over the pooled observations —
    /// the property fleet-wide aggregation relies on.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return match BUCKET_BOUNDS.get(i) {
                    Some(&bound) => bound.min(self.max),
                    None => self.max, // overflow bucket
                };
            }
        }
        self.max
    }

    /// Median (bucket resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket resolution).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A shareable, deterministic metrics registry.
///
/// Cloning shares the underlying maps; use [`MetricsRegistry::snapshot`] for
/// a point-in-time copy and [`MetricsSnapshot::merge`] for fleet-wide
/// aggregation.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to counter `name`, creating it at zero if absent.
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.counters.get_mut(name) {
            Some(slot) => *slot += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Records `value` into histogram `name`, creating it if absent. Like
    /// [`MetricsRegistry::add`], it looks the name up first, so only the
    /// first observation of a name allocates.
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.histograms.get_mut(name) {
            Some(histogram) => histogram.observe(value),
            None => {
                let mut histogram = Histogram::default();
                histogram.observe(value);
                inner.histograms.insert(name.to_string(), histogram);
            }
        }
    }

    /// Returns the current value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.counters.get(name).copied().unwrap_or(0)
    }

    /// Takes a point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            counters: inner.counters.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

/// A point-in-time, serializable copy of a registry.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values keyed by name, sorted.
    pub counters: BTreeMap<String, u64>,
    /// Histograms keyed by name, sorted.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Returns counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Returns histogram `name` if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into `self` (fleet-wide aggregation).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Serializes the snapshot to deterministic JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Parses a snapshot from JSON produced by [`MetricsSnapshot::to_json`].
    pub fn from_json(json: &str) -> Result<MetricsSnapshot, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Returns a copy of the snapshot with every metric key rewritten to
    /// carry a `group` label (`<name>|group=<g>`, the convention
    /// [`MetricsSnapshot::to_prometheus`] renders as a Prometheus label).
    /// Keys that already carry a group label are left untouched, so
    /// relabelling is idempotent per group. This is how a multi-group
    /// harness folds per-group registries into one labelled exposition
    /// off the hot path: each group keeps a plain registry, and only the
    /// export pays for the label strings.
    pub fn with_group_label(&self, group: u64) -> MetricsSnapshot {
        let label = |name: &str| {
            if name.contains("|group=") {
                name.to_string()
            } else {
                format!("{name}|group={group}")
            }
        };
        MetricsSnapshot {
            counters: self.counters.iter().map(|(k, v)| (label(k), *v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (label(k), h.clone()))
                .collect(),
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): every counter as a `counter`, every histogram as a
    /// cumulative-bucket `histogram` with `_sum` and `_count` series.
    ///
    /// Metric names are prefixed `b2b_` and sanitized to the Prometheus
    /// charset (`[a-zA-Z0-9_]`); iteration order is the registry's sorted
    /// order, so the output is deterministic.
    ///
    /// Keys of the form `<name>|group=<g>` (see
    /// [`MetricsSnapshot::with_group_label`]) render as a `group` label on
    /// the family `<name>` — up to [`GROUP_CARDINALITY_CAP`] distinct
    /// groups per family. Beyond the cap the first `cap` groups (sorted)
    /// stay labelled and the remainder is folded into one explicit
    /// `group="__overflow"` series ([`GROUP_OVERFLOW_LABEL`]), with a
    /// page-level [`GROUP_LABEL_OVERFLOW`] counter of elided series — so a
    /// 10k-group process still serves a scrapeable `/metrics` page *and*
    /// operators can see that (and how much) truncation happened.
    pub fn to_prometheus(&self) -> String {
        self.to_prometheus_with_cap(GROUP_CARDINALITY_CAP)
    }

    /// [`MetricsSnapshot::to_prometheus`] with an explicit per-family
    /// group-cardinality cap.
    pub fn to_prometheus_with_cap(&self, cap: usize) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 4);
            out.push_str("b2b_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        fn escape_label(value: &str) -> String {
            let mut out = String::with_capacity(value.len());
            for c in value.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out
        }
        /// Splits `<name>|group=<g>` into `(name, Some(g))`.
        fn split_group(key: &str) -> (&str, Option<&str>) {
            match key.split_once("|group=") {
                Some((base, g)) => (base, Some(g)),
                None => (key, None),
            }
        }
        // Families in sorted base-name order; within a family the
        // unlabelled series first, then groups sorted (None < Some).
        let mut counter_families: BTreeMap<&str, Vec<(Option<&str>, u64)>> = BTreeMap::new();
        for (key, value) in &self.counters {
            let (base, group) = split_group(key);
            counter_families
                .entry(base)
                .or_default()
                .push((group, *value));
        }
        let mut hist_families: BTreeMap<&str, Vec<(Option<&str>, &Histogram)>> = BTreeMap::new();
        for (key, h) in &self.histograms {
            let (base, group) = split_group(key);
            hist_families.entry(base).or_default().push((group, h));
        }

        let mut out = String::new();
        // Per-group series folded into `group="__overflow"` across every
        // family, surfaced at the end of the page as the
        // `group_label_overflow` counter.
        let mut overflowed_series = 0usize;
        for (base, mut series) in counter_families {
            let name = sanitize(base);
            let _ = writeln!(out, "# TYPE {name} counter");
            let groups = series.iter().filter(|(g, _)| g.is_some()).count();
            series.sort();
            if groups > cap {
                overflowed_series += groups - cap;
                let _ = writeln!(
                    out,
                    "# {name}: {} of {groups} group series folded into group=\"{GROUP_OVERFLOW_LABEL}\" (cap {cap})",
                    groups - cap
                );
                let mut labelled = 0usize;
                let mut overflow_total = 0u64;
                for (group, value) in series {
                    match group {
                        None => {
                            let _ = writeln!(out, "{name} {value}");
                        }
                        Some(g) if labelled < cap => {
                            labelled += 1;
                            let _ =
                                writeln!(out, "{name}{{group=\"{}\"}} {value}", escape_label(g));
                        }
                        Some(_) => overflow_total += value,
                    }
                }
                let _ = writeln!(
                    out,
                    "{name}{{group=\"{GROUP_OVERFLOW_LABEL}\"}} {overflow_total}"
                );
            } else {
                for (group, value) in series {
                    match group {
                        Some(g) => {
                            let _ =
                                writeln!(out, "{name}{{group=\"{}\"}} {value}", escape_label(g));
                        }
                        None => {
                            let _ = writeln!(out, "{name} {value}");
                        }
                    }
                }
            }
        }
        for (base, mut series) in hist_families {
            let name = sanitize(base);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let groups = series.iter().filter(|(g, _)| g.is_some()).count();
            series.sort_by_key(|(g, _)| *g);
            let merged;
            if groups > cap {
                overflowed_series += groups - cap;
                // Keep the first `cap` sorted groups labelled, merge the
                // rest into the explicit overflow series.
                let mut total = Histogram::default();
                let mut kept: Vec<(Option<&str>, &Histogram)> = Vec::with_capacity(cap + 1);
                let mut labelled = 0usize;
                for (group, h) in series {
                    match group {
                        None => kept.push((None, h)),
                        Some(_) if labelled < cap => {
                            labelled += 1;
                            kept.push((group, h));
                        }
                        Some(_) => total.merge(h),
                    }
                }
                let _ = writeln!(
                    out,
                    "# {name}: {} of {groups} group series folded into group=\"{GROUP_OVERFLOW_LABEL}\" (cap {cap})",
                    groups - cap
                );
                merged = total;
                kept.push((Some(GROUP_OVERFLOW_LABEL), &merged));
                series = kept;
            }
            for (group, h) in series {
                let label = |le: &str| match group {
                    Some(g) => format!("{{group=\"{}\",le=\"{le}\"}}", escape_label(g)),
                    None => format!("{{le=\"{le}\"}}"),
                };
                let mut cumulative = 0u64;
                for (i, c) in h.counts.iter().enumerate() {
                    cumulative += c;
                    match BUCKET_BOUNDS.get(i) {
                        Some(bound) => {
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                label(&bound.to_string())
                            );
                        }
                        None => {
                            let _ = writeln!(out, "{name}_bucket{} {cumulative}", label("+Inf"));
                        }
                    }
                }
                match group {
                    Some(g) => {
                        let g = escape_label(g);
                        let _ = writeln!(out, "{name}_sum{{group=\"{g}\"}} {}", h.sum);
                        let _ = writeln!(out, "{name}_count{{group=\"{g}\"}} {}", h.count);
                    }
                    None => {
                        let _ = writeln!(out, "{name}_sum {}", h.sum);
                        let _ = writeln!(out, "{name}_count {}", h.count);
                    }
                }
            }
        }
        if overflowed_series > 0 {
            let name = sanitize(GROUP_LABEL_OVERFLOW);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {overflowed_series}");
        }
        out
    }

    /// Renders a human-readable metrics table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let width = self
                .counters
                .keys()
                .map(|k| k.len())
                .max()
                .unwrap_or(0)
                .max("counter".len());
            let _ = writeln!(out, "{:<width$}  value", "counter");
            let _ = writeln!(out, "{:-<width$}  -----", "");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "{name:<width$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let width = self
                .histograms
                .keys()
                .map(|k| k.len())
                .max()
                .unwrap_or(0)
                .max("histogram".len());
            let _ = writeln!(
                out,
                "{:<width$}  count      sum      min      max     mean      p50      p95      p99",
                "histogram"
            );
            let _ = writeln!(
                out,
                "{:-<width$}  -----      ---      ---      ---     ----      ---      ---      ---",
                ""
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "{name:<width$}  {:>5}  {:>7}  {:>7}  {:>7}  {:>7.1}  {:>7}  {:>7}  {:>7}",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99()
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        reg.inc("a");
        reg.add("a", 2);
        reg.inc("b");
        assert_eq!(reg.counter("a"), 3);
        assert_eq!(reg.counter("b"), 1);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn histogram_bucket_edges() {
        let mut h = Histogram::default();
        // Exactly on a bound goes into that bucket (inclusive upper bound).
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        assert_eq!(h.counts[0], 2, "0 and 1 share the first bucket");
        assert_eq!(h.counts[1], 1, "2 is on the second bound");
        assert_eq!(h.counts[2], 1, "3 lands in the (2,5] bucket");
        // Overflow bucket.
        h.observe(u64::MAX);
        assert_eq!(*h.counts.last().expect("overflow bucket"), 1);
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        // Saturating sum must not wrap.
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn histogram_merge_tracks_extremes() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.observe(5);
        b.observe(100);
        b.observe(1);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 100);
        assert_eq!(a.sum, 106);
        // Merging an empty histogram changes nothing.
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, before);
    }

    #[test]
    fn registry_merge_is_fleet_aggregation() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.inc("rounds_started");
        a.observe("round_latency_ms", 10);
        b.add("rounds_started", 2);
        b.inc("retransmits");
        b.observe("round_latency_ms", 30);

        let mut fleet = a.snapshot();
        fleet.merge(&b.snapshot());
        assert_eq!(fleet.counter("rounds_started"), 3);
        assert_eq!(fleet.counter("retransmits"), 1);
        let h = fleet.histogram("round_latency_ms").expect("merged");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 40);
    }

    #[test]
    fn quantiles_at_bucket_resolution() {
        let mut h = Histogram::default();
        assert_eq!(h.p50(), 0, "empty histogram quantiles are 0");
        for v in [1u64, 2, 3, 4, 100] {
            h.observe(v);
        }
        assert_eq!(h.p50(), 5, "rank 3 of 5 lands in the (2,5] bucket");
        assert_eq!(h.p95(), 100);
        assert_eq!(h.p99(), 100);
        assert_eq!(h.quantile(0.0), 1, "q=0 is the first occupied bucket");
        // A quantile in the overflow bucket reports the exact max.
        let mut o = Histogram::default();
        o.observe(50_000);
        assert_eq!(o.p50(), 50_000);
        // The bound is clamped to the observed max for sparse data.
        let mut s = Histogram::default();
        s.observe(3);
        assert_eq!(s.p99(), 3, "clamped below the 5 ms bucket bound");
    }

    #[test]
    fn quantiles_survive_merge() {
        // Percentiles of a merged histogram must equal percentiles of the
        // pooled observations — the mergeability contract.
        let observations_a = [1u64, 5, 9, 14, 200];
        let observations_b = [2u64, 800, 950, 1000, 7000];
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut pooled = Histogram::default();
        for v in observations_a {
            a.observe(v);
            pooled.observe(v);
        }
        for v in observations_b {
            b.observe(v);
            pooled.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, pooled);
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), pooled.quantile(q), "q={q}");
        }
        assert_eq!(a.p50(), 20, "rank 5 of 10 lands in the (14,20] bucket");
        assert_eq!(a.p99(), 7000);
    }

    #[test]
    fn prometheus_text_exposition() {
        let reg = MetricsRegistry::new();
        reg.add("rounds_started", 3);
        reg.inc("partition_drops:org1->org2");
        reg.observe("round_latency_ms", 1);
        reg.observe("round_latency_ms", 6);
        reg.observe("round_latency_ms", 90_000);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("# TYPE b2b_rounds_started counter\nb2b_rounds_started 3\n"));
        // Illegal characters are sanitized to underscores.
        assert!(text.contains("b2b_partition_drops_org1__org2 1"));
        // Cumulative buckets: the le="1" bucket holds 1, le="10" holds 2,
        // +Inf holds all 3, and sum/count close the family.
        assert!(text.contains("# TYPE b2b_round_latency_ms histogram"));
        assert!(text.contains("b2b_round_latency_ms_bucket{le=\"1\"} 1"));
        assert!(text.contains("b2b_round_latency_ms_bucket{le=\"10\"} 2"));
        assert!(text.contains("b2b_round_latency_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("b2b_round_latency_ms_sum 90007"));
        assert!(text.contains("b2b_round_latency_ms_count 3"));
        // Deterministic bytes.
        assert_eq!(text, reg.snapshot().to_prometheus());
    }

    #[test]
    fn prometheus_group_labels_below_the_cap() {
        let g0 = MetricsRegistry::new();
        g0.add("rounds_started", 2);
        g0.observe("round_latency_ms", 1);
        let g1 = MetricsRegistry::new();
        g1.add("rounds_started", 5);
        g1.observe("round_latency_ms", 6);

        let mut fleet = g0.snapshot().with_group_label(0);
        fleet.merge(&g1.snapshot().with_group_label(1));
        // Relabelling is idempotent: already-labelled keys keep their group.
        assert_eq!(fleet.with_group_label(9), fleet);

        let text = fleet.to_prometheus();
        assert!(text.contains("# TYPE b2b_rounds_started counter"));
        assert!(text.contains("b2b_rounds_started{group=\"0\"} 2"));
        assert!(text.contains("b2b_rounds_started{group=\"1\"} 5"));
        assert!(text.contains("b2b_round_latency_ms_bucket{group=\"0\",le=\"1\"} 1"));
        assert!(text.contains("b2b_round_latency_ms_sum{group=\"1\"} 6"));
        assert!(text.contains("b2b_round_latency_ms_count{group=\"1\"} 1"));
        // One TYPE line per family, not per labelled series.
        assert_eq!(text.matches("# TYPE b2b_rounds_started counter").count(), 1);
        assert_eq!(
            text.matches("# TYPE b2b_round_latency_ms histogram")
                .count(),
            1
        );
    }

    #[test]
    fn prometheus_folds_overflow_above_the_cardinality_cap() {
        let mut fleet = MetricsSnapshot::default();
        for g in 0..10u64 {
            let reg = MetricsRegistry::new();
            reg.add("rounds_started", 1);
            reg.observe("round_latency_ms", g + 1);
            fleet.merge(&reg.snapshot().with_group_label(g));
        }
        let text = fleet.to_prometheus_with_cap(4);
        // The first `cap` sorted groups stay labelled...
        for g in 0..4 {
            assert!(text.contains(&format!("b2b_rounds_started{{group=\"{g}\"}} 1")));
        }
        // ...and the remainder is folded into an explicit overflow series,
        // never a silent unlabelled aggregate.
        assert!(text.contains("b2b_rounds_started{group=\"__overflow\"} 6\n"));
        assert!(!text.contains("b2b_rounds_started{group=\"9\"}"));
        assert!(text.contains(
            "# b2b_rounds_started: 6 of 10 group series folded into group=\"__overflow\" (cap 4)"
        ));
        // Histograms fold the same way: sum of groups 4..9 is 5+..+10 = 45.
        assert!(text.contains("b2b_round_latency_ms_sum{group=\"__overflow\"} 45"));
        assert!(text.contains("b2b_round_latency_ms_count{group=\"__overflow\"} 6"));
        assert!(text.contains("b2b_round_latency_ms_bucket{group=\"0\",le=\"1\"} 1"));
        // Both families overflowed 6 series each.
        assert!(text.contains("# TYPE b2b_group_label_overflow counter"));
        assert!(text.contains("b2b_group_label_overflow 12\n"));
        // Below the cap the same snapshot stays fully labelled.
        let labelled = fleet.to_prometheus_with_cap(64);
        assert!(labelled.contains("b2b_rounds_started{group=\"9\"} 1"));
        assert!(!labelled.contains("__overflow"));
    }

    #[test]
    fn prometheus_cap_boundary_exactly_at_and_one_past() {
        let build = |groups: u64| {
            let mut fleet = MetricsSnapshot::default();
            for g in 0..groups {
                let reg = MetricsRegistry::new();
                reg.add("rounds_started", 1);
                fleet.merge(&reg.snapshot().with_group_label(g));
            }
            fleet
        };
        // Exactly at the cap: every group labelled, no overflow machinery.
        let at = build(GROUP_CARDINALITY_CAP as u64).to_prometheus();
        assert!(at.contains(&format!(
            "b2b_rounds_started{{group=\"{}\"}} 1",
            GROUP_CARDINALITY_CAP - 1
        )));
        assert!(!at.contains("__overflow"));
        assert!(!at.contains("group_label_overflow"));
        // One past the cap: exactly one series folds and the counter says so.
        let past = build(GROUP_CARDINALITY_CAP as u64 + 1).to_prometheus();
        assert!(past.contains("b2b_rounds_started{group=\"__overflow\"} 1\n"));
        assert!(past.contains("b2b_group_label_overflow 1\n"));
        // Totals stay exact: labelled series + overflow = all groups.
        let labelled = past.matches("b2b_rounds_started{group=").count();
        assert_eq!(labelled, GROUP_CARDINALITY_CAP + 1); // cap labelled + __overflow
    }

    #[test]
    fn json_roundtrip_is_stable() {
        let reg = MetricsRegistry::new();
        reg.inc("z");
        reg.inc("a");
        reg.observe("lat", 7);
        let snap = reg.snapshot();
        let json = snap.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("parses");
        assert_eq!(back, snap);
        // Deterministic bytes: sorted keys, stable rendering.
        assert_eq!(json, back.to_json());
        assert!(json.find("\"a\"").expect("a") < json.find("\"z\"").expect("z"));
    }

    #[test]
    fn table_renders_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        reg.add("rounds_started", 4);
        reg.observe("round_latency_ms", 12);
        let table = reg.snapshot().render_table();
        assert!(table.contains("rounds_started"));
        assert!(table.contains("round_latency_ms"));
        assert!(table.contains('4'));
        assert_eq!(
            MetricsSnapshot::default().render_table(),
            "(no metrics recorded)\n"
        );
    }
}
