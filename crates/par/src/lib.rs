//! `locert-par` — a deterministic work-stealing parallel runtime.
//!
//! The certification workloads (per-vertex verification, exhaustive
//! certificate sweeps, fault campaigns, lower-bound labeling
//! enumerations) are embarrassingly parallel *and* must stay
//! reproducible: the experiment artifacts (journal JSONL, metrics
//! counters, report tables) are committed baselines compared byte for
//! byte. This crate provides the execution substrate for both demands —
//! a scoped work-stealing thread pool built from `std::thread` and
//! atomics only (the build environment has no crates.io access, so rayon
//! is not an option), plus combinators whose results are byte-identical
//! at any worker count:
//!
//! - [`Pool::par_map_collect`] writes each index's result into its own
//!   output slot, so the collected `Vec` never depends on steal order;
//! - [`Pool::par_reduce_ordered`] folds per-chunk results in canonical
//!   chunk order (the chunk decomposition is a pure function of `n` and
//!   `chunk`, never of the schedule);
//! - [`Pool::par_find_first`] returns the *least*-index match via an
//!   atomic best-index bound, so early exit drains deterministically;
//! - [`split_seed`] derives independent per-chunk RNG seeds from a base
//!   seed and a chunk index (vendored `rand`'s xoshiro/SplitMix stack),
//!   so randomized work is reproducible under any partitioning.
//!
//! Architecture: one fixed-capacity Chase–Lev deque per worker
//! (`deque`), a mutex-guarded global injector for external submissions
//! and deque overflow (the one lock in the system; every hot path is
//! deque push/pop/steal), a generation-counted parking lot, and panic
//! propagation that re-raises the first payload on the submitting thread
//! after the batch has fully drained (no deadlock, no lost tasks).
//!
//! Observability: workers maintain `par.worker.tasks`, `par.worker.steals`
//! and `par.worker.parks` counters through `locert-trace`, flushed at
//! park/shutdown boundaries; a disabled subscriber costs one relaxed
//! atomic load at the flush point. These counters describe *scheduling*,
//! which legitimately varies with the worker count — the metrics exporter
//! files them in the non-deterministic section of the dump.
//!
//! Nested parallelism runs inline: a combinator invoked from inside a
//! pool task executes sequentially on the calling worker, which keeps
//! determinism local and makes deadlock impossible by construction.

pub mod cli;
mod deque;
mod task;

use deque::Deque;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use task::RawTask;

/// Per-worker deque capacity (tasks beyond this spill to the injector).
const DEQUE_CAPACITY: usize = 256;

/// Leaves per worker that [`default_chunk`] aims for: small enough to
/// balance uneven leaf costs by stealing, large enough to amortize the
/// per-task allocation.
const CHUNKS_PER_WORKER: usize = 4;

thread_local! {
    /// `(shared-state address, worker index)` of the pool worker this
    /// thread belongs to; `(0, 0)` on non-worker threads.
    static CURRENT_WORKER: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    /// Whether this thread is currently executing a pool task (worker
    /// threads, or a submitter helping its own batch). Combinators check
    /// it and run inline, so nesting never re-enters the scheduler.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Runs `task` with [`IN_TASK`] set, so nested combinators inline.
fn run_task(task: RawTask) {
    IN_TASK.with(|f| f.set(true));
    // SAFETY: the task came from a queue, so it is owned and unrun.
    unsafe { task.run() };
    // Worker threads stay marked for their whole life (set again by the
    // worker loop); helper threads unmark so a submitter's *own* frames
    // keep full parallelism between batches.
    IN_TASK.with(|f| f.set(false));
}

struct SleepState {
    /// Wake generation; bumped (under the lock) by every notifier.
    generation: Mutex<u64>,
    condvar: Condvar,
    /// Workers that are parked or about to park (Dekker flag paired with
    /// the SeqCst queue publishes).
    sleepers: AtomicUsize,
}

struct Shared {
    deques: Vec<Deque>,
    injector: Mutex<VecDeque<RawTask>>,
    /// Mirror of the injector length so emptiness probes skip the lock.
    injector_len: AtomicUsize,
    sleep: SleepState,
    shutdown: AtomicBool,
}

impl Shared {
    fn push_injector(&self, task: RawTask) {
        let mut q = self.injector.lock().expect("injector");
        q.push_back(task);
        self.injector_len.store(q.len(), Ordering::SeqCst);
        drop(q);
        self.notify();
    }

    fn pop_injector(&self) -> Option<RawTask> {
        if self.injector_len.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let mut q = self.injector.lock().expect("injector");
        let task = q.pop_front();
        self.injector_len.store(q.len(), Ordering::SeqCst);
        task
    }

    /// Wakes parked workers if there are any. Publish work *before*
    /// calling this: the SeqCst store(queue)/load(sleepers) pairing
    /// against the worker's store(sleepers)/load(queue) guarantees at
    /// least one side sees the other.
    fn notify(&self) {
        if self.sleep.sleepers.load(Ordering::SeqCst) > 0 {
            let mut generation = self.sleep.generation.lock().expect("sleep lock");
            *generation = generation.wrapping_add(1);
            self.sleep.condvar.notify_all();
        }
    }

    /// Racy work probe used for park decisions only.
    fn any_work(&self) -> bool {
        self.injector_len.load(Ordering::SeqCst) > 0 || self.deques.iter().any(|d| !d.is_empty())
    }

    /// Steals one task from anywhere: injector first, then the deques in
    /// an order seeded by `rotor`. Valid from any thread.
    fn steal_somewhere(&self, rotor: &mut u64) -> Option<RawTask> {
        if let Some(task) = self.pop_injector() {
            return Some(task);
        }
        let n = self.deques.len();
        if n == 0 {
            return None;
        }
        *rotor = rotor.wrapping_mul(6364136223846793005).wrapping_add(1);
        let start = (*rotor >> 33) as usize % n;
        for k in 0..n {
            if let Some(task) = self.deques[(start + k) % n].steal() {
                return Some(task);
            }
        }
        None
    }
}

/// A scoped work-stealing thread pool. See the crate docs for the
/// architecture and the determinism contract.
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
        let shared = Arc::new(Shared {
            deques: (0..worker_count)
                .map(|_| Deque::new(DEQUE_CAPACITY))
                .collect(),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            sleep: SleepState {
                generation: Mutex::new(0),
                condvar: Condvar::new(),
                sleepers: AtomicUsize::new(0),
            },
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("locert-par-{index}"))
                    .spawn(move || worker_loop(&shared, index))
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

    /// The default leaf size for a batch of `n` items.
    fn default_chunk(&self, n: usize) -> usize {
        (n / (self.threads() * CHUNKS_PER_WORKER)).max(1)
    }

    fn submit(&self, task: RawTask) {
        let key = Arc::as_ptr(&self.shared) as usize;
        let (current_pool, index) = CURRENT_WORKER.with(Cell::get);
        if current_pool == key {
            match self.shared.deques[index].push(task) {
                Ok(()) => self.shared.notify(),
                Err(task) => self.shared.push_injector(task),
            }
        } else {
            self.shared.push_injector(task);
        }
    }

    /// Runs queued tasks (helping the workers) until `done` holds.
    fn help_until(&self, done: impl Fn() -> bool) {
        let mut rotor = 0x9E3779B97F4A7C15u64;
        let mut idle_spins = 0u32;
        while !done() {
            if let Some(task) = self.shared.steal_somewhere(&mut rotor) {
                run_task(task);
                idle_spins = 0;
            } else if idle_spins < 64 {
                idle_spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Applies `leaf` to every subrange of a canonical decomposition of
    /// `0..n` into pieces of at most `chunk` items. The decomposition
    /// (recursive halving) depends only on `n` and `chunk`, never on the
    /// schedule, so leaf boundaries are reproducible at any worker count.
    ///
    /// Side effects of different leaves may interleave arbitrarily —
    /// deterministic *aggregation* is the job of the combinators built on
    /// top ([`par_map_collect`](Pool::par_map_collect),
    /// [`par_reduce_ordered`](Pool::par_reduce_ordered)).
    ///
    /// # Panics
    ///
    /// Re-raises the first leaf panic on the calling thread after the
    /// whole batch has drained; the remaining leaves are skipped (their
    /// slots are still accounted, so nothing deadlocks).
    pub fn par_chunks(&self, n: usize, chunk: usize, leaf: impl Fn(Range<usize>) + Sync) {
        if n == 0 {
            return;
        }
        let chunk = chunk.max(1);
        if self.inline(n) {
            for range in canonical_leaves(0..n, chunk) {
                leaf(range);
            }
            return;
        }
        let batch = Batch {
            pool: self,
            leaf: &leaf,
            chunk,
            remaining: AtomicUsize::new(n),
            panic: PanicSlot::default(),
        };
        batch.spawn(0..n);
        self.help_until(|| batch.remaining.load(Ordering::SeqCst) == 0);
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
        self.par_chunks(n, self.default_chunk(n), |range| {
            for i in range {
                // SAFETY: leaf ranges are disjoint, i < n, and the vector
                // outlives the batch (par_chunks blocks until drained).
                unsafe { (*slots.slot(i)).write(f(i)) };
            }
        });
        // On a leaf panic par_chunks re-raised and we never get here; the
        // MaybeUninit vector then drops without touching the (partially
        // initialized) payloads, leaking them — safe, and the price of
        // not tracking per-slot initialization.
        let mut out = std::mem::ManuallyDrop::new(out);
        // SAFETY: every slot 0..n was written by exactly one leaf.
        unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), n, out.capacity()) }
    }

    /// Ordered reduction: maps each canonical chunk of `0..n` through
    /// `map`, then folds the chunk results left to right in chunk order.
    /// Both the chunk decomposition and the fold order are pure functions
    /// of `(n, chunk)`, so for any `map`/`fold` — associative or not,
    /// floating-point or not — the result is byte-identical at any worker
    /// count. Returns `None` when `n == 0`.
    pub fn par_reduce_ordered<T: Send>(
        &self,
        n: usize,
        chunk: usize,
        map: impl Fn(Range<usize>) -> T + Sync,
        fold: impl Fn(T, T) -> T,
    ) -> Option<T> {
        let leaves: Vec<Range<usize>> = canonical_leaves(0..n, chunk.max(1)).collect();
        let mapped = self.par_map_collect(leaves.len(), |i| map(leaves[i].clone()));
        mapped.into_iter().reduce(fold)
    }

    /// Finds the match with the **least index**: semantically identical
    /// to `(0..n).find_map(...)` at any worker count. Workers prune
    /// ranges above the best index found so far (shared atomic bound), so
    /// the early exit stays deterministic *and* cheap.
    pub fn par_find_first<T: Send>(
        &self,
        n: usize,
        chunk: usize,
        f: impl Fn(usize) -> Option<T> + Sync,
    ) -> Option<(usize, T)> {
        if self.inline(n) {
            return (0..n).find_map(|i| f(i).map(|t| (i, t)));
        }
        let best = AtomicUsize::new(usize::MAX);
        let found: Mutex<Option<(usize, T)>> = Mutex::new(None);
        self.par_chunks(n, chunk.max(1), |range| {
            if range.start > best.load(Ordering::Relaxed) {
                return;
            }
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

    /// Runs `f` with a [`Scope`] on which tasks borrowing `'scope` data
    /// may be spawned; returns only after every spawned task finished.
    ///
    /// # Panics
    ///
    /// A panic in `f` or in any spawned task is re-raised here after the
    /// scope has fully drained (`f`'s payload wins when both happen).
    pub fn scope<'scope>(&self, f: impl FnOnce(&Scope<'scope, '_>)) {
        let scope = Scope {
            pool: self,
            remaining: AtomicUsize::new(0),
            panic: PanicSlot::default(),
            _scope: PhantomData,
        };
        let direct = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.help_until(|| scope.remaining.load(Ordering::SeqCst) == 0);
        if let Err(payload) = direct {
            resume_unwind(payload);
        }
        scope.panic.rethrow();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let mut generation = self.shared.sleep.generation.lock().expect("sleep lock");
            *generation = generation.wrapping_add(1);
            self.shared.sleep.condvar.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // A clean shutdown leaves no queued tasks (batches drain before
        // returning); dispose defensively anyway.
        while let Some(task) = self.shared.pop_injector() {
            // SAFETY: the task was never run.
            unsafe { task.dispose() };
        }
    }
}

/// First-panic-wins payload slot shared by a batch or scope.
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
        let mut slot = self.payload.lock().expect("panic slot");
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.poisoned.store(true, Ordering::SeqCst);
    }

    fn rethrow(&self) {
        if let Some(payload) = self.payload.lock().expect("panic slot").take() {
            resume_unwind(payload);
        }
    }
}

/// One `par_chunks` batch: the shared context its range tasks reference.
struct Batch<'f> {
    pool: &'f Pool,
    leaf: &'f (dyn Fn(Range<usize>) + Sync),
    chunk: usize,
    /// Indices not yet completed; the submitter blocks until zero.
    remaining: AtomicUsize,
    panic: PanicSlot,
}

impl Batch<'_> {
    fn spawn(&self, range: Range<usize>) {
        let this = SendRef(self);
        // SAFETY: the submitter blocks in `par_chunks` until `remaining`
        // hits zero, which requires this task (and all its splits) to
        // have run — so `self` outlives the task.
        let task = unsafe { RawTask::new(move || this.0.execute(range)) };
        self.pool.submit(task);
    }

    fn execute(&self, mut range: Range<usize>) {
        // Split the right half off for stealing until the leaf is small
        // enough; the decomposition matches `canonical_leaves` exactly.
        while range.len() > self.chunk {
            let mid = range.start + range.len().div_ceil(2);
            self.spawn(mid..range.end);
            range = range.start..mid;
        }
        if !self.panic.poisoned() {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.leaf)(range.clone()))) {
                self.panic.set(payload);
            }
        }
        self.remaining.fetch_sub(range.len(), Ordering::SeqCst);
    }
}

/// The canonical leaf decomposition of `range`: recursive halving (right
/// half split off first) until each piece holds at most `chunk` items,
/// yielded in ascending order. This is exactly the set of leaves
/// [`Pool::par_chunks`] executes, whatever the schedule.
fn canonical_leaves(range: Range<usize>, chunk: usize) -> impl Iterator<Item = Range<usize>> {
    let mut stack = vec![range];
    std::iter::from_fn(move || {
        let mut range = stack.pop()?;
        while range.len() > chunk {
            let mid = range.start + range.len().div_ceil(2);
            stack.push(mid..range.end);
            range = range.start..mid;
        }
        Some(range)
    })
}

/// A spawn handle tied to a [`Pool::scope`] invocation; tasks may borrow
/// anything that outlives `'scope`.
pub struct Scope<'scope, 'pool> {
    pool: &'pool Pool,
    remaining: AtomicUsize,
    panic: PanicSlot,
    /// Invariant over `'scope` (the usual scoped-spawn variance guard).
    _scope: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope, '_> {
    /// Spawns `f` onto the pool. On an inline pool the task runs
    /// immediately; panics are captured either way and re-raised when the
    /// scope closes.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'scope) {
        self.remaining.fetch_add(1, Ordering::SeqCst);
        let this = SendRef(self);
        let body = move || {
            let scope = this.0;
            if !scope.panic.poisoned() {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                    scope.panic.set(payload);
                }
            }
            scope.remaining.fetch_sub(1, Ordering::SeqCst);
        };
        if self.pool.workers.is_empty() {
            body();
        } else {
            // SAFETY: `Pool::scope` blocks until `remaining` is zero, so
            // the scope (and everything `f` borrows, which outlives
            // `'scope`) outlives the task.
            let task = unsafe { RawTask::new(body) };
            self.pool.submit(task);
        }
    }
}

/// A `Send + Sync` shared reference for moving borrows into erased tasks.
struct SendRef<'a, T: Sync + ?Sized>(&'a T);
impl<T: Sync + ?Sized> Clone for SendRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Sync + ?Sized> Copy for SendRef<'_, T> {}

/// A `Send + Sync` raw pointer for indexed output slots. (Methods take
/// `self` so closures capture the wrapper, not the raw-pointer field —
/// edition-2021 disjoint capture would otherwise unwrap the `Sync` shell.)
struct SendPtr<T>(*mut MaybeUninit<T>);

impl<T> SendPtr<T> {
    fn slot(self, i: usize) -> *mut MaybeUninit<T> {
        self.0.wrapping_add(i)
    }
}
// SAFETY: leaves write disjoint indices; the allocation outlives the batch.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

fn worker_loop(shared: &Shared, index: usize) {
    CURRENT_WORKER.with(|c| c.set((shared as *const Shared as usize, index)));
    IN_TASK.with(|f| f.set(true));
    let mut rotor = 0x9E3779B97F4A7C15u64 ^ (index as u64).wrapping_mul(0xA24BAED4963EE407);
    let mut tasks_run = 0u64;
    let mut steals = 0u64;
    let flush = |tasks_run: &mut u64, steals: &mut u64| {
        if locert_trace::enabled() {
            if *tasks_run > 0 {
                locert_trace::add("par.worker.tasks", *tasks_run);
            }
            if *steals > 0 {
                locert_trace::add("par.worker.steals", *steals);
            }
        }
        *tasks_run = 0;
        *steals = 0;
    };
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if let Some(task) = shared.deques[index].pop() {
            // Re-assert: executing a task may have run `run_task` frames
            // that cleared the flag on their way out.
            IN_TASK.with(|f| f.set(true));
            tasks_run += 1;
            // SAFETY: popped tasks are owned and unrun.
            unsafe { task.run() };
            continue;
        }
        let stolen = shared
            .pop_injector()
            .or_else(|| steal_peers(shared, index, &mut rotor));
        if let Some(task) = stolen {
            IN_TASK.with(|f| f.set(true));
            tasks_run += 1;
            steals += 1;
            // SAFETY: stolen tasks are owned and unrun.
            unsafe { task.run() };
            continue;
        }
        // Nothing anywhere: park. The generation is read under the lock
        // *before* registering as a sleeper; a notifier bumps it under
        // the same lock, so either we see new work in the re-check below
        // or the notifier sees `sleepers > 0` and blocks on the lock we
        // hold until the wait releases it.
        flush(&mut tasks_run, &mut steals);
        let mut generation = shared.sleep.generation.lock().expect("sleep lock");
        let seen = *generation;
        shared.sleep.sleepers.fetch_add(1, Ordering::SeqCst);
        if shared.shutdown.load(Ordering::SeqCst) || shared.any_work() {
            shared.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        if locert_trace::enabled() {
            locert_trace::add("par.worker.parks", 1);
        }
        while *generation == seen && !shared.shutdown.load(Ordering::SeqCst) {
            generation = shared
                .sleep
                .condvar
                .wait(generation)
                .expect("sleep condvar");
        }
        shared.sleep.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
    flush(&mut tasks_run, &mut steals);
}

fn steal_peers(shared: &Shared, me: usize, rotor: &mut u64) -> Option<RawTask> {
    let n = shared.deques.len();
    *rotor = rotor.wrapping_mul(6364136223846793005).wrapping_add(1);
    let start = (*rotor >> 33) as usize % n;
    for k in 0..n {
        let j = (start + k) % n;
        if j == me {
            continue;
        }
        if let Some(task) = shared.deques[j].steal() {
            return Some(task);
        }
    }
    None
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

/// `LOCERT_THREADS` as a positive integer, if set and well-formed.
fn env_threads() -> Option<usize> {
    let raw = std::env::var("LOCERT_THREADS").ok()?;
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
        pool.par_chunks(5000, 64, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn canonical_leaves_partition_the_range() {
        for (n, chunk) in [
            (0usize, 3usize),
            (1, 1),
            (17, 4),
            (100, 7),
            (64, 64),
            (5, 100),
        ] {
            let leaves: Vec<_> = canonical_leaves(0..n, chunk).collect();
            let mut next = 0;
            for leaf in &leaves {
                assert_eq!(leaf.start, next, "gap at n={n} chunk={chunk}");
                assert!(leaf.len() <= chunk && (!leaf.is_empty() || n == 0));
                next = leaf.end;
            }
            assert_eq!(next, n);
        }
    }

    #[test]
    fn ordered_reduction_is_schedule_independent() {
        // A deliberately non-associative fold: f64 sum of reciprocals.
        // Identical bits demand identical chunking and fold order.
        let reduce = |pool: &Pool| {
            pool.par_reduce_ordered(
                10_000,
                128,
                |range| range.map(|i| 1.0f64 / (i + 1) as f64).sum::<f64>(),
                |a, b| a + b,
            )
            .unwrap()
        };
        let reference = reduce(&Pool::new(1));
        for threads in [2, 4, 9] {
            let got = reduce(&Pool::new(threads));
            assert_eq!(got.to_bits(), reference.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn find_first_returns_least_index() {
        // Matches at many indices; the least (97) must win always.
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            for _ in 0..20 {
                let got = pool.par_find_first(4096, 32, |i| (i % 97 == 0 && i > 0).then_some(i));
                assert_eq!(got, Some((97, 97)), "threads = {threads}");
            }
        }
    }

    #[test]
    fn scope_runs_borrowing_tasks() {
        let pool = Pool::new(3);
        let data: Vec<u64> = (0..100).collect();
        let sums: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        pool.scope(|s| {
            for (part, slot) in data.chunks(25).zip(&sums) {
                s.spawn(move || {
                    slot.fetch_add(part.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        let total: u64 = sums.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(total, (0..100).sum::<u64>());
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
            // Nested call from inside a task: must not deadlock.
            let inner = global().par_map_collect(8, |j| j * i);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..64).map(|i| (0..8).map(|j| j * i).sum()).collect();
        assert_eq!(out, expect);
    }
}
