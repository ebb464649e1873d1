//! Named counters, gauges, and log2-bucketed histograms, plus the
//! [`Probe`] trait engines report them through.
//!
//! The cache engines count in their own state while they replay and
//! report once, at the end of a replay (`Cache::report_into`,
//! `MultiSim::report_into`, `AttributedCache::report`), so no probe call
//! sits on a per-access path. [`MetricRegistry`] is the collecting
//! implementation.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `0` counts the value `0`; bucket `i >= 1` counts values whose
/// bit length is `i`, i.e. the half-open range `[2^(i-1), 2^i)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Bucket index for a value: 0 for 0, else `1 + floor(log2 v)`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `i`.
    #[must_use]
    pub fn bucket_low(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records `n` samples of `value` (as `n` single records would).
    pub fn record(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(value);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 if empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupied buckets as `(bucket_low, count)` pairs, low to high.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_low(i), c))
            .collect()
    }

    /// Estimated value at quantile `q` (clamped to `0..=1`), or 0 if the
    /// histogram is empty.
    ///
    /// The histogram stores only power-of-two buckets, so the estimate
    /// interpolates linearly inside the bucket holding the `q`-th sample
    /// and is clamped to the observed maximum. Exact for bucket 0 (the
    /// value 0) and for the largest sample (`q = 1`).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                if i == 0 {
                    return 0;
                }
                let lo = Self::bucket_low(i);
                let width = lo; // bucket i spans [lo, 2*lo)
                let within = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + within * width as f64;
                return (est as u64).clamp(lo, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Merges another histogram's samples into this one. Bucket counts
    /// add, so merging per-shard histograms equals recording every sample
    /// into one histogram (order never matters).
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Condenses the histogram into the summary used by run reports.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets: self.nonzero_buckets(),
        }
    }
}

/// The report-friendly condensed form of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Estimated median sample (see [`Histogram::quantile`]).
    pub p50: u64,
    /// Estimated 95th-percentile sample.
    pub p95: u64,
    /// Estimated 99th-percentile sample.
    pub p99: u64,
    /// Occupied `(bucket_low, count)` pairs.
    pub buckets: Vec<(u64, u64)>,
}

/// Sink for metrics emitted by instrumented code.
///
/// Every method has a no-op default, so implementations override only
/// what they collect.
pub trait Probe {
    /// Adds `delta` to the named counter.
    fn counter_add(&self, _name: &str, _delta: u64) {}

    /// Sets the named gauge to `value`.
    fn gauge_set(&self, _name: &str, _value: f64) {}

    /// Records `count` samples of `value` into the named histogram.
    fn histogram_record(&self, _name: &str, _value: u64, _count: u64) {}
}

/// Why a miss happened, in the classical three-way decomposition used by
/// the attribution engine: the line was never referenced before
/// (compulsory), a fully-associative cache of the same capacity would
/// also have missed (capacity), or only the set mapping caused the miss
/// (conflict — the component code layout can fix).
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum AttrClass {
    /// First-ever reference to the line.
    Compulsory,
    /// The line had fallen out of an LRU stack of the cache's capacity.
    Capacity,
    /// The line was still LRU-stack resident; only set mapping evicted it.
    Conflict,
}

impl AttrClass {
    /// All classes, in reporting order.
    pub const ALL: [AttrClass; 3] = [
        AttrClass::Compulsory,
        AttrClass::Capacity,
        AttrClass::Conflict,
    ];

    /// Dense index (`0..3`).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            AttrClass::Compulsory => 0,
            AttrClass::Capacity => 1,
            AttrClass::Conflict => 2,
        }
    }

    /// Short label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AttrClass::Compulsory => "compulsory",
            AttrClass::Capacity => "capacity",
            AttrClass::Conflict => "conflict",
        }
    }

    /// Metric name in the `cache.attr.*` namespace.
    #[must_use]
    pub fn metric_name(self) -> &'static str {
        match self {
            AttrClass::Compulsory => "cache.attr.compulsory",
            AttrClass::Capacity => "cache.attr.capacity",
            AttrClass::Conflict => "cache.attr.conflict",
        }
    }
}

/// The probe type `AttributedCache::with_probe` accepts: any [`Probe`].
///
/// It adds no method; the attribution engine reports its `cache.attr.*`
/// metrics through the [`Probe`] methods once, from
/// `AttributedCache::report`.
pub trait AttributionProbe: Probe {}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe metric store; the collecting [`Probe`] implementation.
///
/// Names are sorted on readout, so reports are deterministic.
#[derive(Debug, Default)]
pub struct MetricRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value of a counter (0 if never written).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Snapshot of a histogram, if any samples were recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// All counters, sorted by name.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// All gauges, sorted by name.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.lock()
            .gauges
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// All histogram summaries, sorted by name.
    #[must_use]
    pub fn histograms(&self) -> Vec<(String, HistogramSummary)> {
        self.lock()
            .histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect()
    }

    /// Total number of distinct metric names of any kind.
    #[must_use]
    pub fn len(&self) -> usize {
        let inner = self.lock();
        inner.counters.len() + inner.gauges.len() + inner.histograms.len()
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds another registry into this one: counters add, histograms
    /// merge bucket-wise, gauges overwrite (last write wins — callers
    /// merging shards must fold them in a fixed order for deterministic
    /// gauge values).
    pub fn merge_from(&self, other: &MetricRegistry) {
        let theirs = other.lock();
        let mut inner = self.lock();
        for (name, &value) in &theirs.counters {
            if let Some(mine) = inner.counters.get_mut(name) {
                *mine += value;
            } else {
                inner.counters.insert(name.clone(), value);
            }
        }
        for (name, &value) in &theirs.gauges {
            inner.gauges.insert(name.clone(), value);
        }
        for (name, hist) in &theirs.histograms {
            if let Some(mine) = inner.histograms.get_mut(name) {
                mine.merge(hist);
            } else {
                inner.histograms.insert(name.clone(), hist.clone());
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().expect("metric registry poisoned")
    }
}

impl Probe for MetricRegistry {
    fn counter_add(&self, name: &str, delta: u64) {
        *self.lock().counters.entry(name.to_owned()).or_default() += delta;
    }

    fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_owned(), value);
    }

    fn histogram_record(&self, name: &str, value: u64, count: u64) {
        self.lock()
            .histograms
            .entry(name.to_owned())
            .or_default()
            .record(value, count);
    }
}

impl AttributionProbe for MetricRegistry {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_exact() {
        // Bucket 0 holds only 0; bucket i holds [2^(i-1), 2^i).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        for i in 1..64 {
            let lo = Histogram::bucket_low(i);
            assert_eq!(Histogram::bucket_index(lo), i, "low edge of bucket {i}");
            assert_eq!(
                Histogram::bucket_index(lo * 2 - 1),
                i,
                "high edge of bucket {i}"
            );
        }
    }

    #[test]
    fn histogram_aggregates() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 5, 9] {
            h.record(v, 1);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.max(), 9);
        assert!((h.mean() - 3.2).abs() < 1e-12);
        // 0 -> bucket 0; 1,1 -> bucket 1; 5 -> bucket 3 (low 4); 9 -> bucket 4 (low 8).
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 2), (4, 1), (8, 1)]);
    }

    #[test]
    fn a_batched_record_equals_single_records() {
        let (mut batched, mut single) = (Histogram::default(), Histogram::default());
        batched.record(5, 3);
        batched.record(0, 2);
        batched.record(9, 0);
        for v in [5, 5, 5, 0, 0] {
            single.record(v, 1);
        }
        assert_eq!(batched, single);
        assert_eq!(batched.max(), 5, "a zero-count record is no sample");
    }

    #[test]
    fn registry_collects_all_three_kinds() {
        let reg = MetricRegistry::new();
        reg.counter_add("cache.miss", 3);
        reg.counter_add("cache.miss", 2);
        reg.gauge_set("cache.occupancy", 0.75);
        reg.histogram_record("trace.burst", 10, 1);
        assert_eq!(reg.counter("cache.miss"), 5);
        assert_eq!(reg.gauge("cache.occupancy"), Some(0.75));
        assert_eq!(reg.histogram("trace.burst").unwrap().count(), 1);
        assert_eq!(reg.len(), 3);
        assert!(!reg.is_empty());
    }

    #[test]
    fn readouts_are_name_sorted() {
        let reg = MetricRegistry::new();
        reg.counter_add("z.last", 1);
        reg.counter_add("a.first", 1);
        let names: Vec<String> = reg.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "z.last"]);
    }

    #[test]
    fn quantiles_are_exact_at_the_edges() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for _ in 0..10 {
            h.record(0, 1);
        }
        assert_eq!(h.quantile(0.99), 0, "bucket 0 is exact");
        h.record(1000, 1);
        assert_eq!(h.quantile(1.0), 1000, "max is exact");
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn quantiles_are_monotone_and_bucket_bounded() {
        let mut h = Histogram::default();
        for v in [1, 2, 3, 5, 8, 13, 21, 34, 55, 89] {
            h.record(v, 1);
        }
        let mut last = 0;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
        // The median of ten samples is the 5th (value 8, bucket [8, 16)).
        let p50 = h.quantile(0.5);
        assert!((8..16).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile(1.0), 89);
    }

    #[test]
    fn summary_carries_percentiles() {
        let mut h = Histogram::default();
        for v in 0..100u64 {
            h.record(v, 1);
        }
        let s = h.summary();
        assert_eq!(s.p50, h.quantile(0.50));
        assert_eq!(s.p95, h.quantile(0.95));
        assert_eq!(s.p99, h.quantile(0.99));
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn attr_class_indices_are_dense() {
        for (i, class) in AttrClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i);
            assert!(class.metric_name().ends_with(class.label()));
        }
    }

    #[test]
    fn histogram_merge_equals_recording_all_samples() {
        let (mut a, mut b, mut whole) = (
            Histogram::default(),
            Histogram::default(),
            Histogram::default(),
        );
        for v in [0u64, 1, 7, 100] {
            a.record(v, 1);
            whole.record(v, 1);
        }
        for v in [3u64, 9000, 2] {
            b.record(v, 1);
            whole.record(v, 1);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn registry_merge_folds_shards_deterministically() {
        let total = MetricRegistry::new();
        let shard_a = MetricRegistry::new();
        let shard_b = MetricRegistry::new();
        shard_a.counter_add("cache.miss", 3);
        shard_a.gauge_set("trace.call_depth_hwm", 5.0);
        shard_a.histogram_record("trace.burst", 4, 1);
        shard_b.counter_add("cache.miss", 4);
        shard_b.counter_add("cache.hit", 1);
        shard_b.gauge_set("trace.call_depth_hwm", 7.0);
        shard_b.histogram_record("trace.burst", 16, 1);
        total.merge_from(&shard_a);
        total.merge_from(&shard_b);
        assert_eq!(total.counter("cache.miss"), 7);
        assert_eq!(total.counter("cache.hit"), 1);
        // Gauges: last merged shard wins, so merge order fixes the value.
        assert_eq!(total.gauge("trace.call_depth_hwm"), Some(7.0));
        let h = total.histogram("trace.burst").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 20);
    }

    #[test]
    fn registry_works_through_dyn_probe() {
        let reg = MetricRegistry::new();
        let p: &dyn Probe = &reg;
        p.counter_add("dyn.count", 7);
        assert_eq!(reg.counter("dyn.count"), 7);
    }
}
