//! A small metrics registry: named counters, gauges, and histograms that
//! producers update during a run and consumers snapshot at any virtual
//! time. Keys are sorted (BTreeMap) so snapshots serialize
//! deterministically.

use std::collections::BTreeMap;

use crate::sync::Mutex;

/// Fixed bucket boundaries for histograms: powers of two, in whatever
/// unit the caller observes (bytes, nanoseconds, ...). A value lands in
/// the first bucket whose upper bound is >= the value; values above the
/// last bound land in the overflow bucket.
const HIST_BOUNDS: [u64; 16] = [
    1,
    4,
    16,
    64,
    256,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
];

#[derive(Clone, Debug, PartialEq)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Hist),
}

/// Power-of-two-bucketed histogram state.
#[derive(Clone, Debug, PartialEq)]
pub struct Hist {
    /// Per-bucket counts; `buckets[i]` counts values `<= HIST_BOUNDS[i]`
    /// (and above the previous bound). The final slot is the overflow
    /// bucket.
    pub buckets: [u64; HIST_BOUNDS.len() + 1],
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Hist {
    fn new() -> Hist {
        Hist {
            buckets: [0; HIST_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }

    fn observe(&mut self, v: u64) {
        let idx = HIST_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(HIST_BOUNDS.len());
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Thread-safe registry of named counters, gauges, and histograms.
///
/// A name is bound to the first metric type that touches it; updates of a
/// different type to the same name are ignored rather than panicking, so
/// instrumentation can never bring a run down.
pub struct Metrics {
    map: Mutex<BTreeMap<String, Metric>>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::new()
    }
}

impl Metrics {
    /// Empty registry.
    pub fn new() -> Metrics {
        Metrics {
            map: Mutex::new(BTreeMap::new()),
        }
    }

    /// Add `delta` to the counter `name`, creating it at zero first.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut g = self.map.lock();
        match g.get_mut(name) {
            Some(Metric::Counter(c)) => *c += delta,
            Some(_) => {}
            None => {
                g.insert(name.to_string(), Metric::Counter(delta));
            }
        }
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut g = self.map.lock();
        match g.get_mut(name) {
            Some(Metric::Gauge(v)) => *v = value,
            Some(_) => {}
            None => {
                g.insert(name.to_string(), Metric::Gauge(value));
            }
        }
    }

    /// Record one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        let mut g = self.map.lock();
        match g.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(value),
            Some(_) => {}
            None => {
                let mut h = Hist::new();
                h.observe(value);
                g.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// Remove every metric (used between benchmark cases).
    pub fn clear(&self) {
        self.map.lock().clear();
    }

    /// Point-in-time copy of the whole registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            map: self.map.lock().clone(),
        }
    }
}

/// An immutable copy of a [`Metrics`] registry, taken at one instant.
pub struct MetricsSnapshot {
    map: BTreeMap<String, Metric>,
}

impl MetricsSnapshot {
    /// Value of the counter `name`, if it exists as a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.map.get(name) {
            Some(Metric::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Value of the gauge `name`, if it exists as a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.map.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram state for `name`, if it exists as a histogram.
    pub fn histogram(&self, name: &str) -> Option<&Hist> {
        match self.map.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// True if no metric was registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Serialize as a single JSON object, keys sorted. Counters become
    /// integers, gauges become numbers (non-finite → null), histograms
    /// become `{"count":..,"sum":..,"min":..,"max":..,"mean":..}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, metric)) in self.map.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&super::export::json_string(name));
            out.push(':');
            match metric {
                Metric::Counter(c) => out.push_str(&c.to_string()),
                Metric::Gauge(v) => out.push_str(&super::export::json_f64(*v)),
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
                        h.count,
                        h.sum,
                        h.min,
                        h.max,
                        super::export::json_f64(h.mean())
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

// ------------------------------------------------------- streaming histogram

/// Sub-bucket resolution of [`StreamHist`]: 2^4 = 16 linear sub-buckets
/// per power of two, giving a worst-case relative error of 1/16.
const STREAM_LIN_BITS: u32 = 4;

/// A log-linear streaming histogram over `u64` values, std-only and
/// allocation-light: values below 16 get exact buckets, larger values are
/// grouped into 16 linear sub-buckets per power of two (HDR-style), so
/// the whole `u64` range fits in at most 976 sparse buckets with ≤ 6.25 %
/// relative error. Snapshots are plain clones and [`StreamHist::merge`]
/// is an element-wise add, so per-part histograms combine exactly
/// (merge is associative and commutative by construction).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamHist {
    /// Sparse bucket counts, keyed by log-linear bucket index.
    buckets: BTreeMap<u16, u64>,
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

/// Log-linear bucket index of `v` (see [`StreamHist`]).
fn stream_bucket(v: u64) -> u16 {
    let lin = 1u64 << STREAM_LIN_BITS;
    if v < lin {
        return v as u16;
    }
    let msb = 63 - v.leading_zeros();
    let group = msb - STREAM_LIN_BITS + 1;
    let sub = (v >> (msb - STREAM_LIN_BITS)) & (lin - 1);
    ((u64::from(group) << STREAM_LIN_BITS) + sub) as u16
}

/// Smallest value mapping to bucket `idx` — the inverse of
/// [`stream_bucket`] on bucket boundaries.
fn stream_lower_bound(idx: u16) -> u64 {
    let lin = 1u64 << STREAM_LIN_BITS;
    let idx = u64::from(idx);
    if idx < lin {
        return idx;
    }
    let group = idx >> STREAM_LIN_BITS;
    let sub = idx & (lin - 1);
    let msb = group as u32 + STREAM_LIN_BITS - 1;
    (lin + sub) << (msb - STREAM_LIN_BITS)
}

impl StreamHist {
    /// Empty histogram.
    pub fn new() -> StreamHist {
        StreamHist::default()
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        *self.buckets.entry(stream_bucket(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Fold `other` into `self`. Element-wise bucket addition: merging is
    /// associative and commutative, and merging per-part snapshots gives
    /// bit-identical buckets to observing the union directly.
    pub fn merge(&mut self, other: &StreamHist) {
        for (idx, n) in &other.buckets {
            *self.buckets.entry(*idx).or_insert(0) += n;
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

    /// Value at quantile `q` in `[0, 1]`: the lower bound of the bucket
    /// holding the ⌈q·count⌉-th smallest observation (0 when empty).
    /// Monotone non-decreasing in `q`; exact when the observation sits on
    /// a bucket boundary.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return stream_lower_bound(*idx);
            }
        }
        stream_lower_bound(*self.buckets.keys().last().unwrap_or(&0))
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// One-line JSON summary: count/min/max/mean plus p50/p90/p99.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            self.count,
            self.min,
            self.max,
            super::export::json_f64(self.mean()),
            self.percentile(0.50),
            self.percentile(0.90),
            self.percentile(0.99),
        )
    }
}

// --------------------------------------------------- fixed-window aggregation

/// Aggregate of the samples that landed in one fixed time window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowAgg {
    /// Number of samples in the window (0 = the window is empty).
    pub count: u64,
    /// Sum of sample values; for counter deltas, `sum / window_secs` is
    /// the window's rate.
    pub sum: f64,
    /// Smallest sample (0.0 when empty).
    pub min: f64,
    /// Largest sample (0.0 when empty).
    pub max: f64,
}

impl WindowAgg {
    const EMPTY: WindowAgg = WindowAgg {
        count: 0,
        sum: 0.0,
        min: 0.0,
        max: 0.0,
    };

    fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Mean of the window's samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Fixed-window ring aggregation: samples carry a (virtual) timestamp,
/// land in the window `t / window_ns`, and each window keeps
/// count/sum/min/max. At most `cap` windows are retained — when a sample
/// opens a window beyond the ring's reach the oldest windows roll off,
/// so memory stays bounded on arbitrarily long runs. Gauge series read
/// min/mean/max per window; counter series add deltas and read
/// `sum / window_secs` as the window's rate.
#[derive(Clone, Debug)]
pub struct Windowed {
    window_ns: u64,
    cap: usize,
    /// Window index (t / window_ns) of `slots[0]`.
    first: u64,
    slots: std::collections::VecDeque<WindowAgg>,
    /// Samples dropped because their window had already rolled off.
    pub dropped: u64,
}

impl Windowed {
    /// Ring of at most `cap` windows of `window_ns` nanoseconds each.
    pub fn new(window_ns: u64, cap: usize) -> Windowed {
        Windowed {
            window_ns: window_ns.max(1),
            cap: cap.max(1),
            first: 0,
            slots: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// Window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Record `value` at virtual time `t_ns`.
    pub fn observe(&mut self, t_ns: u64, value: f64) {
        let idx = t_ns / self.window_ns;
        if self.slots.is_empty() {
            self.first = idx;
            self.slots.push_back(WindowAgg::EMPTY);
        }
        if idx < self.first {
            // The sample's window already rolled off (or predates the
            // first sample): late data is counted, not resurrected.
            self.dropped += 1;
            return;
        }
        while idx >= self.first + self.slots.len() as u64 {
            self.slots.push_back(WindowAgg::EMPTY);
            if self.slots.len() > self.cap {
                self.slots.pop_front();
                self.first += 1;
            }
        }
        self.slots[(idx - self.first) as usize].observe(value);
    }

    /// The retained windows, oldest first, as `(window_start_ns, agg)`.
    /// Empty windows between samples are materialised with `count == 0`.
    pub fn windows(&self) -> Vec<(u64, WindowAgg)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, agg)| ((self.first + i as u64) * self.window_ns, *agg))
            .collect()
    }

    /// Counter-rate view: `(window_start_ns, sum / window_secs)`.
    pub fn rates(&self) -> Vec<(u64, f64)> {
        let secs = self.window_ns as f64 / 1e9;
        self.windows()
            .into_iter()
            .map(|(t, agg)| (t, agg.sum / secs))
            .collect()
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms() {
        let m = Metrics::new();
        m.counter_add("c", 2);
        m.counter_add("c", 3);
        m.gauge_set("g", 1.5);
        m.gauge_set("g", 2.5);
        m.observe("h", 10);
        m.observe("h", 1000);
        let s = m.snapshot();
        assert_eq!(s.counter("c"), Some(5));
        assert_eq!(s.gauge("g"), Some(2.5));
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 1000);
    }

    #[test]
    fn type_conflicts_are_ignored() {
        let m = Metrics::new();
        m.counter_add("x", 1);
        m.gauge_set("x", 9.0);
        m.observe("x", 7);
        let s = m.snapshot();
        assert_eq!(s.counter("x"), Some(1));
        assert_eq!(s.gauge("x"), None);
    }

    #[test]
    fn snapshot_json_is_sorted_and_valid() {
        let m = Metrics::new();
        m.gauge_set("zz", f64::INFINITY);
        m.counter_add("aa", 1);
        m.observe("mm", 3);
        let json = m.snapshot().to_json();
        assert!(json.find("\"aa\"").unwrap() < json.find("\"mm\"").unwrap());
        assert!(json.find("\"mm\"").unwrap() < json.find("\"zz\"").unwrap());
        assert!(json.contains("\"zz\":null"));
        super::super::json::validate(&json).expect("snapshot must be valid JSON");
    }

    // --- StreamHist properties (via desim::prop::forall) ---

    #[test]
    fn stream_hist_bucket_boundaries_are_exact() {
        // Every bucket lower bound maps back to its own bucket, and an
        // observation sitting exactly on a boundary is reported exactly.
        for idx in 0u16..976 {
            let lb = stream_lower_bound(idx);
            assert_eq!(
                stream_bucket(lb),
                idx,
                "boundary {lb} must stay in bucket {idx}"
            );
            let mut h = StreamHist::new();
            h.observe(lb);
            assert_eq!(
                h.percentile(0.5),
                lb,
                "boundary value must round-trip exactly"
            );
        }
        crate::prop::forall(2000, 0x5eed_0001, |rng| {
            let v = rng.next_u64();
            let b = stream_bucket(v);
            let lb = stream_lower_bound(b);
            assert!(lb <= v, "lower bound {lb} must not exceed value {v}");
            if b < u16::MAX {
                // v sits strictly below the next bucket's lower bound.
                let next = stream_lower_bound(b + 1);
                if next > lb {
                    assert!(v < next, "{v} must sit below next boundary {next}");
                }
            }
        });
    }

    #[test]
    fn stream_hist_percentiles_are_monotone() {
        crate::prop::forall(200, 0x5eed_0002, |rng| {
            let mut h = StreamHist::new();
            let n = rng.range_usize(1, 200);
            for _ in 0..n {
                h.observe(rng.next_u64() >> rng.range_u64(0, 60) as u32);
            }
            let mut last = 0u64;
            for i in 0..=100 {
                let p = h.percentile(i as f64 / 100.0);
                assert!(
                    p >= last,
                    "percentile must be monotone: p{i} = {p} < {last}"
                );
                last = p;
            }
            assert!(h.percentile(0.0) >= stream_lower_bound(stream_bucket(h.min)));
            assert_eq!(h.percentile(1.0), stream_lower_bound(stream_bucket(h.max)));
        });
    }

    #[test]
    fn stream_hist_merge_is_associative_and_matches_union() {
        crate::prop::forall(100, 0x5eed_0003, |rng| {
            let mut parts: Vec<StreamHist> = Vec::new();
            let mut union = StreamHist::new();
            for _ in 0..3 {
                let mut h = StreamHist::new();
                for _ in 0..rng.range_usize(0, 50) {
                    let v = rng.next_u64() >> 20;
                    h.observe(v);
                    union.observe(v);
                }
                parts.push(h);
            }
            // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == direct observation of the union.
            let mut left = parts[0].clone();
            left.merge(&parts[1]);
            left.merge(&parts[2]);
            let mut bc = parts[1].clone();
            bc.merge(&parts[2]);
            let mut right = parts[0].clone();
            right.merge(&bc);
            assert_eq!(left, right, "merge must be associative");
            assert_eq!(left, union, "merged parts must equal the union");
        });
    }

    #[test]
    fn stream_hist_json_is_valid() {
        let mut h = StreamHist::new();
        for v in [1u64, 100, 10_000, 1 << 30] {
            h.observe(v);
        }
        super::super::json::validate(&h.to_json()).expect("hist json");
    }

    // --- Windowed aggregation ---

    #[test]
    fn windowed_empty_has_no_windows() {
        let w = Windowed::new(1_000_000, 8);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert!(w.windows().is_empty());
        assert!(w.rates().is_empty());
    }

    #[test]
    fn windowed_single_sample() {
        let mut w = Windowed::new(1_000_000, 8);
        w.observe(2_500_000, 3.0);
        let ws = w.windows();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].0, 2_000_000, "window start snaps to the grid");
        assert_eq!(ws[0].1.count, 1);
        assert_eq!(ws[0].1.min, 3.0);
        assert_eq!(ws[0].1.max, 3.0);
        assert_eq!(ws[0].1.mean(), 3.0);
        // Rate view: 3.0 per 1 ms window = 3000.0 per second.
        assert!((w.rates()[0].1 - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_rollover_drops_oldest_and_counts_late() {
        let mut w = Windowed::new(100, 4);
        for t in 0..10u64 {
            w.observe(t * 100, t as f64);
        }
        assert_eq!(w.len(), 4, "ring keeps at most cap windows");
        let ws = w.windows();
        assert_eq!(ws[0].0, 600, "oldest retained window starts at t=600");
        assert_eq!(ws[3].0, 900);
        assert_eq!(w.dropped, 0);
        // A late sample aimed at a rolled-off window is dropped and counted.
        w.observe(0, 42.0);
        assert_eq!(w.dropped, 1);
        assert_eq!(w.windows()[0].1.count, 1, "late data must not resurrect");
    }

    #[test]
    fn windowed_gap_windows_are_empty_not_missing() {
        let mut w = Windowed::new(10, 16);
        w.observe(5, 1.0);
        w.observe(35, 2.0);
        let ws = w.windows();
        assert_eq!(ws.len(), 4);
        assert_eq!(ws[1].1.count, 0, "gap window is present and empty");
        assert_eq!(ws[1].1.mean(), 0.0);
        assert_eq!(ws[3].1.count, 1);
    }
}
