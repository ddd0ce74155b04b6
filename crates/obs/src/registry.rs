//! The lock-free metrics registry.
//!
//! Shape: a registry is a named directory of **slots** created up front
//! (setup-time, mutex-guarded, may allocate) and **handles** that record
//! into those slots (hot-path, one relaxed atomic op, never allocates).
//! Handles are `Clone + Send + Sync` — cloning bumps an `Arc`, so the
//! same counter can be held by the engine, the coordinator and a worker
//! thread at once.
//!
//! Asking a registry for an already-registered name returns a handle to
//! the **same** slot, so layers that instrument independently (engine,
//! accountant, store) converge on one metrics vocabulary without passing
//! handles around.

use crate::clock::Clock;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.  Relaxed; never allocates.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.  Relaxed; never allocates.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared storage of one histogram: fixed log2 buckets plus running
/// count and sum, all atomics — recording is lock-free and
/// allocation-free.
#[derive(Debug)]
pub struct HistogramSlots {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramSlots {
    fn new() -> Self {
        HistogramSlots {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log2 histogram.
///
/// Bucket `0` holds the value `0`; bucket `i` (for `1 <= i < 63`) holds
/// values in `[2^(i-1), 2^i - 1]` — i.e. the values of bit width `i` —
/// and bucket `63` absorbs everything from `2^62` up.  The mapping is
/// [`Histogram::bucket_index`]; bounds via [`Histogram::bucket_bounds`].
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramSlots>);

impl Histogram {
    /// Records one value.  Three relaxed atomic ops; never allocates.
    pub fn record(&self, v: u64) {
        let slots = &*self.0;
        slots.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        slots.count.fetch_add(1, Ordering::Relaxed);
        slots.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The bucket a value lands in: `0` for `0`, otherwise the value's
    /// bit width clamped to the last bucket.
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Inclusive `[lo, hi]` value range of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
        match i {
            0 => (0, 0),
            _ if i == HISTOGRAM_BUCKETS - 1 => (1 << (HISTOGRAM_BUCKETS - 2), u64::MAX),
            _ => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Count in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.0.buckets[i].load(Ordering::Relaxed)
    }

    /// An upper bound on the `q`-quantile (`0.0..=1.0`): the upper edge
    /// of the first bucket whose cumulative count reaches `q * count`.
    /// Returns 0 on an empty histogram.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            seen += self.bucket_count(i);
            if seen >= target {
                return Self::bucket_bounds(i).1;
            }
        }
        Self::bucket_bounds(HISTOGRAM_BUCKETS - 1).1
    }

    /// Starts a RAII span: the elapsed clock time from now until the
    /// returned [`SpanTimer`] drops is recorded into this histogram.
    pub fn span(&self, clock: &Clock) -> SpanTimer {
        SpanTimer {
            histogram: self.clone(),
            clock: clock.clone(),
            start_ns: clock.now_ns(),
        }
    }
}

/// A RAII phase timer: created by [`Histogram::span`], records the
/// elapsed nanoseconds into its histogram when dropped.  Creating,
/// holding and dropping a span never allocates.
#[derive(Debug)]
pub struct SpanTimer {
    histogram: Histogram,
    clock: Clock,
    start_ns: u64,
}

impl SpanTimer {
    /// Elapsed nanoseconds so far (the value a drop right now would
    /// record).
    pub fn elapsed_ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        let elapsed = self.elapsed_ns();
        self.histogram.record(elapsed);
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: &'static str,
    slot: Slot,
}

/// The named directory of metric slots.  Cloning shares the directory.
#[derive(Clone)]
pub struct MetricsRegistry {
    entries: Arc<Mutex<Vec<Entry>>>,
    clock: Clock,
}

impl MetricsRegistry {
    /// An empty registry over the real monotonic clock.
    pub fn new() -> Self {
        Self::with_clock(Clock::monotonic())
    }

    /// An empty registry over an explicit clock (tests pass a
    /// [`Clock::fake`]).
    pub fn with_clock(clock: Clock) -> Self {
        MetricsRegistry {
            entries: Arc::new(Mutex::new(Vec::new())),
            clock,
        }
    }

    /// The registry's clock, for building span timers consistent with
    /// its histograms.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    fn register(&self, name: &'static str, make: impl FnOnce() -> Slot) -> Slot {
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            return match &entry.slot {
                Slot::Counter(c) => Slot::Counter(c.clone()),
                Slot::Gauge(g) => Slot::Gauge(g.clone()),
                Slot::Histogram(h) => Slot::Histogram(h.clone()),
            };
        }
        let slot = make();
        let clone = match &slot {
            Slot::Counter(c) => Slot::Counter(c.clone()),
            Slot::Gauge(g) => Slot::Gauge(g.clone()),
            Slot::Histogram(h) => Slot::Histogram(h.clone()),
        };
        entries.push(Entry { name, slot });
        clone
    }

    /// Registers (or retrieves) the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &'static str) -> Counter {
        match self.register(name, || Slot::Counter(Counter(Arc::new(AtomicU64::new(0))))) {
            Slot::Counter(c) => c,
            _ => panic!("metric {name} is registered as a non-counter"),
        }
    }

    /// Registers (or retrieves) the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match self.register(name, || Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0))))) {
            Slot::Gauge(g) => g,
            _ => panic!("metric {name} is registered as a non-gauge"),
        }
    }

    /// Registers (or retrieves) the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match self.register(name, || {
            Slot::Histogram(Histogram(Arc::new(HistogramSlots::new())))
        }) {
            Slot::Histogram(h) => h,
            _ => panic!("metric {name} is registered as a non-histogram"),
        }
    }

    /// Text exposition of every registered metric, sorted by name —
    /// counters and gauges one per line, histograms with count / sum /
    /// mean / quantile upper bounds plus their non-empty buckets.  This
    /// is the snapshot `nsctl` prints as the phase-time table.
    pub fn render(&self) -> String {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| entries[i].name);
        let mut out = String::new();
        for &i in &order {
            let entry = &entries[i];
            match &entry.slot {
                Slot::Counter(c) => {
                    writeln!(out, "counter {} {}", entry.name, c.get()).unwrap();
                }
                Slot::Gauge(g) => {
                    writeln!(out, "gauge {} {}", entry.name, g.get()).unwrap();
                }
                Slot::Histogram(h) => {
                    let count = h.count();
                    let mean = h.sum().checked_div(count).unwrap_or(0);
                    writeln!(
                        out,
                        "histogram {} count={} sum={} mean={} p50<={} p90<={} p99<={}",
                        entry.name,
                        count,
                        h.sum(),
                        mean,
                        h.quantile_upper_bound(0.50),
                        h.quantile_upper_bound(0.90),
                        h.quantile_upper_bound(0.99),
                    )
                    .unwrap();
                    for b in 0..HISTOGRAM_BUCKETS {
                        let n = h.bucket_count(b);
                        if n > 0 {
                            let (lo, hi) = Histogram::bucket_bounds(b);
                            writeln!(out, "  bucket[{lo},{hi}] {n}").unwrap();
                        }
                    }
                }
            }
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name, same slot.
        assert_eq!(registry.counter("c").get(), 5);
        let g = registry.gauge("g");
        g.set(17);
        g.set(3);
        assert_eq!(registry.gauge("g").get(), 3);
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact() {
        // Bucket 0 is {0}; bucket i is the values of bit width i.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        // Every power of two opens a new bucket; its predecessor closes
        // the previous one.
        for i in 2..63 {
            let lo = 1u64 << (i - 1);
            assert_eq!(Histogram::bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(
                Histogram::bucket_index(lo - 1),
                i - 1,
                "upper edge of bucket {}",
                i - 1
            );
            assert_eq!(Histogram::bucket_bounds(i).0, lo);
            if i < 62 {
                assert_eq!(Histogram::bucket_bounds(i).1, (1 << i) - 1);
            }
        }
        // The last bucket absorbs the top of the range.
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(1 << 62), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(1 << 63), HISTOGRAM_BUCKETS - 1);
        assert_eq!(
            Histogram::bucket_bounds(HISTOGRAM_BUCKETS - 1),
            (1 << 62, u64::MAX)
        );
        // Round-trip: each recorded value lands inside its bucket's
        // bounds.
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h");
        for v in [0u64, 1, 2, 3, 4, 255, 256, 1023, 1024, u64::MAX] {
            h.record(v);
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo},{hi}]");
        }
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn quantile_upper_bounds_walk_the_buckets() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("q");
        assert_eq!(h.quantile_upper_bound(0.5), 0);
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        // 9 of 10 values are 1 (bucket 1, upper bound 1); the p99 must
        // climb into 1000's bucket [512, 1023].
        assert_eq!(h.quantile_upper_bound(0.50), 1);
        assert_eq!(h.quantile_upper_bound(0.90), 1);
        assert_eq!(h.quantile_upper_bound(0.99), 1023);
    }

    #[test]
    fn span_timers_over_a_fake_clock_are_deterministic() {
        let (clock, driver) = Clock::fake();
        let registry = MetricsRegistry::with_clock(clock);
        let h = registry.histogram("span_ns");
        {
            let span = h.span(registry.clock());
            driver.advance_ns(700);
            assert_eq!(span.elapsed_ns(), 700);
        }
        {
            let _span = h.span(registry.clock());
            driver.advance_ns(300);
        }
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1000);
        // 700 has bit width 10 -> bucket 10 [512, 1023]; 300 has bit
        // width 9 -> bucket 9 [256, 511].
        assert_eq!(h.bucket_count(10), 1);
        assert_eq!(h.bucket_count(9), 1);
        // Re-running the identical schedule doubles every slot exactly.
        let (clock2, driver2) = Clock::fake();
        let registry2 = MetricsRegistry::with_clock(clock2);
        let h2 = registry2.histogram("span_ns");
        for ns in [700, 300] {
            let _span = h2.span(registry2.clock());
            driver2.advance_ns(ns);
        }
        assert_eq!(h2.sum(), h.sum());
        assert_eq!(h2.count(), h.count());
    }

    #[test]
    fn render_lists_metrics_sorted_with_buckets() {
        let registry = MetricsRegistry::new();
        registry.counter("b_counter").add(2);
        registry.gauge("a_gauge").set(9);
        let h = registry.histogram("c_hist");
        h.record(3);
        let text = registry.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "gauge a_gauge 9");
        assert_eq!(lines[1], "counter b_counter 2");
        assert!(lines[2].starts_with("histogram c_hist count=1 sum=3 mean=3"));
        assert_eq!(lines[3], "  bucket[2,3] 1");
    }
}
