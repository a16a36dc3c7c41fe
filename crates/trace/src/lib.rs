//! `locert-trace` — workspace-wide tracing and metrics for the locert
//! reproduction.
//!
//! The paper's upper bounds are claims about *resources* (certificate bits
//! as functions of `n`, `t`, `k`); this crate gives every layer of the
//! workspace a way to report where those resources — and the wall time
//! spent computing them — actually go. Three pieces:
//!
//! - **hierarchical spans** ([`span!`]): RAII guards that
//!   aggregate wall time per call-tree path. Spans on the same path are
//!   merged (name → calls + total ns), so per-vertex instrumentation stays
//!   bounded in memory;
//! - **a metrics registry**: named atomic [`Counter`]s and fixed-bucket
//!   [`Histogram`]s (power-of-two buckets), safe to update from any
//!   thread;
//! - **structured export** ([`snapshot`] → [`export`]): JSON and Chrome
//!   trace events, with a hand-rolled JSON reader/writer ([`json`]) since the workspace is offline and
//!   serde-free. [`export`] owns the `locert-trace/v2` metrics document
//!   (its one writer and one reader) and [`journal`] owns the JSONL
//!   event journal, so no other crate encodes or decodes either format.
//!
//! Everything is gated on a global subscriber flag ([`enable`]): while
//! disabled — the default — every instrumentation point is a single
//! relaxed atomic load and **nothing is recorded**, so instrumented hot
//! paths cost nothing measurable in ordinary builds and benches.
//!
//! Metric names follow the workspace convention `layer.component.metric`
//! (e.g. `core.framework.verifier.invocations`,
//! `treedepth.exact.branches`); see DESIGN.md §6 for the taxonomy.
//!
//! # Example
//!
//! ```
//! locert_trace::enable();
//! {
//!     let _outer = locert_trace::span!("example.outer");
//!     for _ in 0..3 {
//!         let _inner = locert_trace::span!("example.inner");
//!         locert_trace::add("example.work.items", 2);
//!         locert_trace::record("example.work.size", 17);
//!     }
//! }
//! let snap = locert_trace::snapshot();
//! assert_eq!(snap.counters["example.work.items"], 6);
//! locert_trace::disable();
//! locert_trace::reset();
//! ```

pub mod export;
pub mod journal;
pub mod json;
pub mod ledger;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global subscriber flag
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the global subscriber on: spans, counters and histograms start
/// recording.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the global subscriber off (the default). Instrumentation points
/// reduce to one relaxed atomic load; nothing is recorded.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the global subscriber is on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Registry: counters + histograms + span forest
// ---------------------------------------------------------------------------

struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCells>>>,
    /// Aggregated span forest, merged in as outermost spans close.
    roots: Mutex<BTreeMap<&'static str, AggNode>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        roots: Mutex::new(BTreeMap::new()),
    })
}

/// Zeroes every registered counter and histogram and clears the recorded
/// span forest. Registered names (and any cached [`Counter`]/[`Histogram`]
/// handles) stay valid. Call between measurement units (e.g. between
/// experiments) with no spans open.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().expect("counter registry").values() {
        c.store(0, Ordering::SeqCst);
    }
    for h in reg.histograms.lock().expect("histogram registry").values() {
        h.reset();
    }
    reg.roots.lock().expect("span forest").clear();
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A handle to a named monotone counter. Cloning is cheap; increments are
/// atomic and may come from any thread. Increments are dropped while the
/// subscriber is [`disable`]d.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Registers (or looks up) the counter `name`.
    pub fn named(name: &str) -> Counter {
        let mut map = registry().counters.lock().expect("counter registry");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter { cell }
    }

    /// Adds `v` (a no-op while the subscriber is disabled).
    #[inline]
    pub fn add(&self, v: u64) {
        if enabled() {
            self.cell.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }
}

/// Convenience: `Counter::named(name).add(v)`, gated on [`enabled`] before
/// touching the registry lock.
#[inline]
pub fn add(name: &str, v: u64) {
    if enabled() {
        Counter::named(name).add(v);
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of buckets: bucket 0 holds the value 0; bucket `i ≥ 1` holds
/// values `v` with `⌊log₂ v⌋ = i − 1` (i.e. `2^{i−1} ≤ v < 2^i`); the last
/// bucket absorbs everything from `2^{NUM_BUCKETS−2}` up.
pub const NUM_BUCKETS: usize = 40;

/// The bucket a value lands in — stable across versions and platforms
/// (this mapping is part of the export format).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the overflow
/// bucket).
pub fn bucket_le(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

struct HistogramCells {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::SeqCst);
        }
        self.count.store(0, Ordering::SeqCst);
        self.sum.store(0, Ordering::SeqCst);
        self.min.store(u64::MAX, Ordering::SeqCst);
        self.max.store(0, Ordering::SeqCst);
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }
}

/// A handle to a named fixed-bucket histogram (power-of-two buckets, see
/// [`bucket_index`]). Cloning is cheap; recording is atomic and lock-free.
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// Registers (or looks up) the histogram `name`.
    pub fn named(name: &str) -> Histogram {
        let mut map = registry().histograms.lock().expect("histogram registry");
        let cells = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCells::new()))
            .clone();
        Histogram { cells }
    }

    /// Records one observation (a no-op while the subscriber is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.cells.record(v);
        }
    }
}

/// Observations gathered on one thread without atomics, for
/// [`Histogram::merge`] to add to a named histogram in one step: a hot
/// loop that records once per item pays a plain add per item instead of
/// five atomic updates. The merged state equals recording each value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalHistogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

impl Histogram {
    /// Adds every observation of `local` (a no-op while the subscriber
    /// is disabled or `local` is empty).
    pub fn merge(&self, local: &LocalHistogram) {
        if !enabled() || local.count == 0 {
            return;
        }
        let cells = &self.cells;
        for (cell, &c) in cells.buckets.iter().zip(&local.buckets) {
            if c > 0 {
                cell.fetch_add(c, Ordering::Relaxed);
            }
        }
        cells.count.fetch_add(local.count, Ordering::Relaxed);
        cells.sum.fetch_add(local.sum, Ordering::Relaxed);
        cells.min.fetch_min(local.min, Ordering::Relaxed);
        cells.max.fetch_max(local.max, Ordering::Relaxed);
    }
}

/// Convenience: `Histogram::named(name).record(v)`, gated on [`enabled`]
/// before touching the registry lock.
#[inline]
pub fn record(name: &str, v: u64) {
    if enabled() {
        Histogram::named(name).record(v);
    }
}

/// A read-only copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (`None` when empty).
    pub min: Option<u64>,
    /// Largest observation (`None` when empty).
    pub max: Option<u64>,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending;
    /// the overflow bucket's bound is `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, when any.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One aggregated node of the span tree: every entry through the same
/// call-tree path merges here.
#[derive(Debug, Clone, Default)]
struct AggNode {
    calls: u64,
    total_ns: u64,
    children: BTreeMap<&'static str, AggNode>,
}

impl AggNode {
    fn merge(&mut self, other: AggNode) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        for (name, child) in other.children {
            self.children.entry(name).or_default().merge(child);
        }
    }
}

/// An exported span-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (static, from the [`span!`] site).
    pub name: String,
    /// Number of times this path was entered.
    pub calls: u64,
    /// Total wall time across all entries, in nanoseconds.
    pub total_ns: u64,
    /// Child spans, sorted by name.
    pub children: Vec<SpanNode>,
}

fn to_span_nodes(map: &BTreeMap<&'static str, AggNode>) -> Vec<SpanNode> {
    map.iter()
        .map(|(&name, agg)| SpanNode {
            name: name.to_string(),
            calls: agg.calls,
            total_ns: agg.total_ns,
            children: to_span_nodes(&agg.children),
        })
        .collect()
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    children: BTreeMap<&'static str, AggNode>,
}

thread_local! {
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one span entry; created by [`span`](fn@span) or
/// [`span!`]. Guards must be dropped in LIFO order on the thread that
/// created them (plain lexical scoping guarantees this). While the subscriber is disabled the
/// guard is disarmed and records nothing.
#[must_use = "a span records on drop; binding it to `_` closes it immediately"]
pub struct Span {
    armed: bool,
}

/// Enters a span named `name`. Prefer the [`span!`] macro.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { armed: false };
    }
    STACK.with(|s| {
        s.borrow_mut().push(ActiveSpan {
            name,
            start: Instant::now(),
            children: BTreeMap::new(),
        });
    });
    Span { armed: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let finished = STACK.with(|s| s.borrow_mut().pop());
        let Some(active) = finished else { return };
        let node = AggNode {
            calls: 1,
            total_ns: active.start.elapsed().as_nanos() as u64,
            children: active.children,
        };
        let merged_into_parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(parent) = stack.last_mut() {
                parent
                    .children
                    .entry(active.name)
                    .or_default()
                    .merge(node.clone());
                true
            } else {
                false
            }
        });
        if !merged_into_parent {
            let mut roots = registry().roots.lock().expect("span forest");
            roots.entry(active.name).or_default().merge(node);
        }
    }
}

/// Enters a hierarchical span: `let _guard = span!("layer.component.op");`.
/// Compiles to one relaxed atomic load when the subscriber is disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A point-in-time copy of the whole registry: counters, histograms, and
/// the aggregated span forest. Take one with [`snapshot`] after the spans
/// of interest have closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter name → value. Zero-valued counters are omitted.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → state. Empty histograms are omitted.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Root spans, sorted by name.
    pub spans: Vec<SpanNode>,
}

/// Copies the current registry state out (see [`Snapshot`]).
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("counter registry")
        .iter()
        .map(|(name, cell)| (name.clone(), cell.load(Ordering::SeqCst)))
        .filter(|&(_, v)| v > 0)
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("histogram registry")
        .iter()
        .filter_map(|(name, cells)| {
            let count = cells.count.load(Ordering::SeqCst);
            if count == 0 {
                return None;
            }
            let buckets = (0..NUM_BUCKETS)
                .filter_map(|i| {
                    let c = cells.buckets[i].load(Ordering::SeqCst);
                    (c > 0).then(|| (bucket_le(i), c))
                })
                .collect();
            Some((
                name.clone(),
                HistogramSnapshot {
                    count,
                    sum: cells.sum.load(Ordering::SeqCst),
                    min: Some(cells.min.load(Ordering::SeqCst)),
                    max: Some(cells.max.load(Ordering::SeqCst)),
                    buckets,
                },
            ))
        })
        .collect();
    let spans = to_span_nodes(&reg.roots.lock().expect("span forest"));
    Snapshot {
        counters,
        histograms,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests must not interleave: the registry and the
    /// subscriber flag are process-wide.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fresh() -> std::sync::MutexGuard<'static, ()> {
        let guard = serial();
        disable();
        reset();
        guard
    }

    #[test]
    fn bucket_boundaries_pinned() {
        // The bucket mapping is part of the export format: pin the
        // documented contract (bucket 0 = value 0; bucket i ≥ 1 holds
        // ⌊log₂ v⌋ = i − 1; the last bucket absorbs everything above).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        // Exact powers of two open a new bucket: 2^k lands in bucket k+1.
        for k in 0..38u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k as usize + 1, "v = 2^{k}");
            if v > 1 {
                assert_eq!(bucket_index(v - 1), k as usize, "v = 2^{k} - 1");
            }
        }
        // Everything from 2^38 up saturates into the overflow bucket.
        assert_eq!(bucket_index(1u64 << 38), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_le_matches_bucket_index() {
        // bucket_le(i) is the largest value mapped to bucket i, and its
        // successor starts bucket i + 1.
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(NUM_BUCKETS - 1), u64::MAX);
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_le(i)), i, "upper bound of {i}");
            if i < NUM_BUCKETS - 1 {
                assert_eq!(bucket_index(bucket_le(i) + 1), i + 1, "successor of {i}");
            }
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = fresh();
        {
            let _s = span!("test.disabled.span");
            add("test.disabled.counter", 3);
            record("test.disabled.histogram", 9);
        }
        let snap = snapshot();
        assert!(snap.spans.iter().all(|s| s.name != "test.disabled.span"));
        assert!(!snap.counters.contains_key("test.disabled.counter"));
        assert!(!snap.histograms.contains_key("test.disabled.histogram"));
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _g = fresh();
        enable();
        {
            let _outer = span!("test.outer");
            for _ in 0..3 {
                let _inner = span!("test.inner");
            }
        }
        disable();
        let snap = snapshot();
        let outer = snap
            .spans
            .iter()
            .find(|s| s.name == "test.outer")
            .expect("outer span recorded");
        assert_eq!(outer.calls, 1);
        let inner = outer
            .children
            .iter()
            .find(|s| s.name == "test.inner")
            .expect("inner nested under outer");
        assert_eq!(inner.calls, 3);
        reset();
    }

    #[test]
    fn concurrent_counter_increments_sum() {
        let _g = fresh();
        enable();
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                std::thread::spawn(move || {
                    let c = Counter::named("test.concurrent.counter");
                    let h = Histogram::named("test.concurrent.histogram");
                    for i in 0..per_thread {
                        c.add(1);
                        h.record(i % 37);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
        disable();
        let snap = snapshot();
        assert_eq!(
            snap.counters["test.concurrent.counter"],
            threads * per_thread
        );
        assert_eq!(
            snap.histograms["test.concurrent.histogram"].count,
            threads * per_thread
        );
        reset();
    }

    #[test]
    fn bucket_boundaries_are_stable() {
        // The mapping is part of the export format: value → bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        // Inclusive upper bounds.
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(2), 3);
        assert_eq!(bucket_le(3), 7);
        assert_eq!(bucket_le(NUM_BUCKETS - 1), u64::MAX);
        // Every value lands in the bucket whose bound covers it.
        for v in [0u64, 1, 2, 3, 4, 5, 100, 1023, 1024, 1 << 45] {
            let i = bucket_index(v);
            assert!(v <= bucket_le(i), "{v} above its bucket bound");
            if i > 0 {
                assert!(v > bucket_le(i - 1), "{v} below its bucket");
            }
        }
    }

    #[test]
    fn histogram_stats_track_min_max_sum() {
        let _g = fresh();
        enable();
        let h = Histogram::named("test.stats.histogram");
        for v in [5u64, 0, 17, 3] {
            h.record(v);
        }
        disable();
        let snap = snapshot();
        let s = &snap.histograms["test.stats.histogram"];
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 25);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(17));
        assert_eq!(s.mean(), Some(6.25));
        reset();
    }

    #[test]
    fn merging_a_local_histogram_equals_recording_each_value() {
        let _g = fresh();
        enable();
        let values = [5u64, 0, 17, 3, 1 << 45, 17, 2];
        let recorded = Histogram::named("test.merge.recorded");
        let merged = Histogram::named("test.merge.merged");
        let mut local = LocalHistogram::default();
        merged.merge(&local);
        for v in values {
            recorded.record(v);
            local.record(v);
        }
        merged.merge(&LocalHistogram::default());
        merged.merge(&local);
        recorded.record(9);
        let mut more = LocalHistogram::default();
        more.record(9);
        merged.merge(&more);
        disable();
        let snap = snapshot();
        assert_eq!(
            snap.histograms["test.merge.recorded"],
            snap.histograms["test.merge.merged"]
        );
        assert_eq!(snap.histograms["test.merge.merged"].count, 8);
        reset();
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_valid() {
        let _g = fresh();
        enable();
        let c = Counter::named("test.reset.counter");
        c.add(5);
        reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        let snap = snapshot();
        assert_eq!(snap.counters["test.reset.counter"], 2);
        disable();
        reset();
    }
}
