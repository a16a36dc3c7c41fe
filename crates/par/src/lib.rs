//! `locert-par` — a deterministic batch-parallel runtime.
//!
//! The certification workloads (per-vertex verification, exhaustive
//! certificate sweeps, fault campaigns, lower-bound labeling
//! enumerations) are flat index ranges — in the model every vertex
//! decides from its own radius-1 view in one round — *and* they must
//! stay reproducible: the experiment artifacts (journal JSONL, metrics
//! counters, report tables) are committed baselines compared byte for
//! byte. This crate provides the execution substrate for both demands —
//! a fixed thread pool built from `std::thread` and atomics only, plus
//! combinators whose results are byte-identical at any worker count:
//!
//! - [`Pool::par_map_collect`] writes each index's result into its own
//!   output slot, so the collected `Vec` never depends on the schedule;
//! - [`Pool::par_find_first`] returns the *least*-index match via an
//!   atomic best-index bound, so early exit drains deterministically;
//! - [`split_seed`] derives independent per-chunk RNG seeds from a base
//!   seed and a chunk index (vendored `rand`'s xoshiro/SplitMix stack),
//!   so randomized work is reproducible under any partitioning.
//!
//! Architecture: one batch per combinator call. The submitter queues the
//! batch under one mutex, wakes the workers, and then every participant
//! — the workers and the submitter itself — claims index chunks in
//! ascending order from the batch's atomic cursor until it passes `n`.
//! The submitter takes the batch off the queue, waits until no worker
//! still holds it, and re-raises the first leaf panic; a panic skips the
//! chunks not yet started and leaves the pool usable for the next batch.
//!
//! Observability: workers count `par.worker.tasks` (chunks run) and
//! `par.worker.parks` in `locert-trace` (one relaxed load per batch and
//! per park when disabled). They describe *scheduling*, which varies with
//! the worker count, so the metrics exporter files them as timings.
//!
//! Nested parallelism runs inline: a combinator invoked from inside a
//! pool chunk executes sequentially on the calling thread, which keeps
//! determinism local and makes deadlock impossible by construction.

pub mod cli;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Chunks per participant that [`par_map_collect`](Pool::par_map_collect)
/// aims for: enough to even out uneven item costs, few enough that
/// claiming stays a negligible share of the work.
const CHUNKS_PER_WORKER: usize = 4;

/// Chunks per participant that [`par_find_first`](Pool::par_find_first)
/// aims for, and its largest chunk: small chunks keep the least-index
/// pruning responsive, since a match found early cancels every later
/// chunk.
const FIND_CHUNKS_PER_WORKER: usize = 16;
const FIND_MAX_CHUNK: usize = 64;

thread_local! {
    /// Whether this thread runs pool chunks: always on workers, and on a
    /// submitter while it claims its own batch's chunks. Combinators check
    /// it and run inline, so nesting never re-enters the scheduler.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// One combinator call: a leaf over index chunks of `0..n`, claimed in
/// ascending order from `cursor`.
struct Batch<'f> {
    leaf: &'f (dyn Fn(Range<usize>) + Sync),
    n: usize,
    chunk: usize,
    /// Start of the next unclaimed chunk; at or past `n` once every
    /// chunk is claimed.
    cursor: AtomicUsize,
    /// Workers that may still touch the batch. Changed only under the
    /// queue lock, which orders a worker's chunk writes before the
    /// submitter's return.
    holders: AtomicUsize,
    panic: PanicSlot,
}

impl Batch<'_> {
    fn has_work(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.n && !self.panic.poisoned()
    }

    /// Claims and runs chunks until the cursor passes `n` (or a leaf has
    /// panicked); returns how many chunks ran here.
    fn run(&self) -> u64 {
        let mut ran = 0;
        while !self.panic.poisoned() {
            // The cursor only hands out disjoint chunks; it publishes no
            // data, so `Relaxed` suffices.
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                break;
            }
            let range = start..self.n.min(start + self.chunk);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.leaf)(range))) {
                self.panic.set(payload);
            }
            ran += 1;
        }
        ran
    }
}

/// A queued batch. The lifetime is erased: [`Retire`] takes the batch
/// off the queue and waits for its holders before the borrow ends.
struct Queued(*const Batch<'static>);

// SAFETY: `Batch` is `Sync`, and a queued pointer is only dereferenced
// while the batch is alive (see `Retire`).
unsafe impl Send for Queued {}

#[derive(Default)]
struct Queue {
    batches: VecDeque<Queued>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Workers park here while no queued batch has work left.
    work: Condvar,
    /// Submitters wait here for their batch's holders to let go.
    idle: Condvar,
}

impl Shared {
    /// The queue lock. Every update leaves the queue valid, and a
    /// submitter must always be able to retire its batch, so a poisoned
    /// lock is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Waits on `condvar`, recovering a poisoned lock like [`Shared::lock`].
fn wait<'a>(condvar: &Condvar, queue: MutexGuard<'a, Queue>) -> MutexGuard<'a, Queue> {
    condvar.wait(queue).unwrap_or_else(PoisonError::into_inner)
}

/// Takes a published batch off the queue and waits until no worker holds
/// it. Runs on drop, so the batch cannot be freed while queued or held,
/// whatever path leaves the submitting frame.
struct Retire<'a> {
    shared: &'a Shared,
    batch: &'a Batch<'a>,
}

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        let batch = self.batch;
        let mut queue = self.shared.lock();
        queue.batches.retain(|q| !std::ptr::eq(q.0.cast(), batch));
        while batch.holders.load(Ordering::Relaxed) > 0 {
            queue = wait(&self.shared.idle, queue);
        }
    }
}

/// A fixed thread pool. See the crate docs for the architecture and the
/// determinism contract.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool with `threads` workers. `threads <= 1` spawns no workers:
    /// every combinator then runs inline on the caller, which is also the
    /// reference schedule the parallel paths must reproduce.
    pub fn new(threads: usize) -> Pool {
        let worker_count = if threads <= 1 { 0 } else { threads };
        let shared = Arc::new(Shared::default());
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("locert-par-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// The degree of parallelism: worker count, or 1 for an inline pool.
    pub fn threads(&self) -> usize {
        self.workers.len().max(1)
    }

    /// Whether a batch of `n` items should skip the scheduler entirely.
    fn inline(&self, n: usize) -> bool {
        self.workers.is_empty() || n <= 1 || IN_TASK.with(Cell::get)
    }

    /// Applies `leaf` to the chunks `[k·chunk, (k+1)·chunk) ∩ 0..n` on
    /// the workers and the calling thread. Side effects of different
    /// chunks may interleave arbitrarily — deterministic results are the
    /// job of the combinators built on top.
    ///
    /// # Panics
    ///
    /// Re-raises the first leaf panic on the calling thread once no
    /// participant still runs a chunk; chunks not yet started are
    /// skipped.
    fn par_chunks(&self, n: usize, chunk: usize, leaf: &(dyn Fn(Range<usize>) + Sync)) {
        let batch = Batch {
            leaf,
            n,
            chunk: chunk.max(1),
            cursor: AtomicUsize::new(0),
            holders: AtomicUsize::new(0),
            panic: PanicSlot::default(),
        };
        {
            let _retire = Retire {
                shared: &self.shared,
                batch: &batch,
            };
            let queued = Queued((&batch as *const Batch<'_>).cast());
            self.shared.lock().batches.push_back(queued);
            self.shared.work.notify_all();
            IN_TASK.with(|f| f.set(true));
            batch.run();
            IN_TASK.with(|f| f.set(false));
        }
        batch.panic.rethrow();
    }

    /// Maps `0..n` through `f` into a `Vec`, one indexed output slot per
    /// element: the result is identical to `(0..n).map(f).collect()` at
    /// any worker count.
    pub fn par_map_collect<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        if self.inline(n) {
            return (0..n).map(f).collect();
        }
        let mut out: Vec<MaybeUninit<T>> = (0..n).map(|_| MaybeUninit::uninit()).collect();
        let slots = SendPtr(out.as_mut_ptr());
        let chunk = n / (self.threads() * CHUNKS_PER_WORKER);
        self.par_chunks(n, chunk, &|range| {
            for i in range {
                // SAFETY: chunks are disjoint, i < n, and the vector
                // outlives the batch (par_chunks returns once it drained).
                unsafe { (*slots.slot(i)).write(f(i)) };
            }
        });
        // On a leaf panic par_chunks re-raised and we never get here; the
        // MaybeUninit vector then drops without touching the (partially
        // initialized) payloads, leaking them — safe, and the price of
        // not tracking per-slot initialization.
        let mut out = std::mem::ManuallyDrop::new(out);
        // SAFETY: every slot 0..n was written by exactly one chunk.
        unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), n, out.capacity()) }
    }

    /// Finds the match with the **least index**: semantically identical
    /// to `(0..n).find_map(...)` at any worker count. Chunks are claimed
    /// in ascending order and skip every index above the best match
    /// found so far (a shared atomic bound), so the early exit stays
    /// deterministic *and* cheap.
    pub fn par_find_first<T: Send>(
        &self,
        n: usize,
        f: impl Fn(usize) -> Option<T> + Sync,
    ) -> Option<(usize, T)> {
        if self.inline(n) {
            return (0..n).find_map(|i| f(i).map(|t| (i, t)));
        }
        let best = AtomicUsize::new(usize::MAX);
        let found: Mutex<Option<(usize, T)>> = Mutex::new(None);
        let chunk = (n / (self.threads() * FIND_CHUNKS_PER_WORKER)).clamp(1, FIND_MAX_CHUNK);
        self.par_chunks(n, chunk, &|range| {
            for i in range {
                if i > best.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(t) = f(i) {
                    let mut slot = found.lock().expect("find-first slot");
                    if i < best.load(Ordering::Relaxed) {
                        best.store(i, Ordering::Relaxed);
                        *slot = Some((i, t));
                    }
                    return;
                }
            }
        });
        found.into_inner().expect("find-first slot")
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// First-panic-wins payload slot shared by a batch.
#[derive(Default)]
struct PanicSlot {
    poisoned: AtomicBool,
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl PanicSlot {
    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    fn set(&self, payload: Box<dyn Any + Send>) {
        self.payload
            .lock()
            .expect("panic slot")
            .get_or_insert(payload);
        self.poisoned.store(true, Ordering::SeqCst);
    }

    fn rethrow(&self) {
        if let Some(payload) = self.payload.lock().expect("panic slot").take() {
            resume_unwind(payload);
        }
    }
}

/// A `Sync` raw pointer to indexed output slots, shared by every chunk.
/// (The method takes `&self` so closures capture the wrapper, not the
/// raw-pointer field — edition-2021 disjoint capture would otherwise
/// unwrap the `Sync` shell.)
struct SendPtr<T>(*mut MaybeUninit<T>);

impl<T> SendPtr<T> {
    fn slot(&self, i: usize) -> *mut MaybeUninit<T> {
        self.0.wrapping_add(i)
    }
}
// SAFETY: the only field is the slot pointer; chunks write disjoint
// indices through it, each `T` is `Send` to the submitter, and the
// allocation outlives the batch.
unsafe impl<T: Send> Sync for SendPtr<T> {}

fn worker_loop(shared: &Shared) {
    IN_TASK.with(|f| f.set(true));
    let mut queue = shared.lock();
    while !queue.shutdown {
        // SAFETY: a queued batch is alive: its `Retire` takes it off the
        // queue under this lock, then waits for its holders, before the
        // batch is freed. Registering as a holder below, still under the
        // lock, keeps it alive after the lock is released.
        let mut queued = queue.batches.iter().map(|q| unsafe { &*q.0 });
        let Some(batch) = queued.find(|b| b.has_work()) else {
            if locert_trace::enabled() {
                locert_trace::add("par.worker.parks", 1);
            }
            queue = wait(&shared.work, queue);
            continue;
        };
        batch.holders.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        let ran = batch.run();
        if ran > 0 && locert_trace::enabled() {
            locert_trace::add("par.worker.tasks", ran);
        }
        queue = shared.lock();
        if batch.holders.fetch_sub(1, Ordering::Relaxed) == 1 {
            shared.idle.notify_all();
        }
    }
}

/// Derives an independent RNG seed for chunk `index` of a computation
/// seeded by `seed`: feeds both through the vendored `rand` SplitMix64 →
/// xoshiro256++ pipeline so sibling chunks get decorrelated streams. Pure
/// function — reproducible under any partitioning of the work.
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mixed = seed
        ^ index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x243F_6A88_85A3_08D3);
    StdRng::seed_from_u64(mixed).next_u64()
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();
/// Thread count requested by [`configure_threads`] before first use.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// Sets the global pool's worker count. Must run before the first
/// [`global`] call (e.g. while parsing CLI flags); returns `false` if the
/// pool already exists, in which case the request is ignored.
pub fn configure_threads(threads: usize) -> bool {
    if GLOBAL.get().is_some() {
        return false;
    }
    REQUESTED.store(threads.max(1), Ordering::SeqCst);
    true
}

/// The process-wide pool. Thread count resolution order:
/// [`configure_threads`] (the `--threads` flag), the `LOCERT_THREADS`
/// environment variable, then `std::thread::available_parallelism`.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let requested = REQUESTED.load(Ordering::SeqCst);
        let threads = if requested > 0 {
            requested
        } else if let Some(n) = env_threads() {
            n
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        Pool::new(threads)
    })
}

/// `LOCERT_THREADS` as a positive integer, if set and well-formed; the
/// pool falls back to the machine's parallelism otherwise.
fn env_threads() -> Option<usize> {
    parse_threads(&std::env::var("LOCERT_THREADS").ok()?)
}

/// A thread count: a positive integer, surrounding whitespace allowed.
/// The one parse rule for `LOCERT_THREADS` and `--threads`.
pub(crate) fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse().ok().filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn thread_counts_are_trimmed_positive_integers() {
        assert_eq!(parse_threads(" 3 "), Some(3));
        for raw in ["0", "x", ""] {
            assert_eq!(parse_threads(raw), None, "{raw:?}");
        }
    }

    #[test]
    fn map_collect_matches_sequential_at_any_width() {
        let expect: Vec<u64> = (0..1000).map(|i| (i as u64) * 3 + 1).collect();
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let got = pool.par_map_collect(1000, |i| (i as u64) * 3 + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn chunks_cover_every_index_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..5000).map(|_| AtomicU64::new(0)).collect();
        pool.par_chunks(5000, 64, &|range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn find_first_returns_least_index() {
        // Matches at many indices; the least (97) must win always.
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            for _ in 0..20 {
                let got = pool.par_find_first(4096, |i| (i % 97 == 0 && i > 0).then_some(i));
                assert_eq!(got, Some((97, 97)), "threads = {threads}");
            }
        }
    }

    #[test]
    fn split_seed_is_pure_and_decorrelated() {
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
        let streams: std::collections::BTreeSet<u64> =
            (0..100).map(|i| split_seed(42, i)).collect();
        assert_eq!(streams.len(), 100, "seed collision across chunks");
        assert_ne!(split_seed(42, 0), split_seed(43, 0));
    }

    #[test]
    fn nested_combinators_run_inline() {
        let pool = Pool::new(4);
        let out = pool.par_map_collect(64, |i| {
            // Nested call from inside a chunk: must not deadlock.
            let inner = global().par_map_collect(8, |j| j * i);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..64).map(|i| (0..8).map(|j| j * i).sum()).collect();
        assert_eq!(out, expect);
    }
}
