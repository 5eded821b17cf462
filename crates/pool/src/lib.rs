//! # stwa-pool
//!
//! A persistent, process-wide worker pool for data-parallel tensor
//! kernels. The seed kernels spawned fresh OS threads with
//! `std::thread::scope` on every large matmul; this crate replaces that
//! with workers spawned **once** and parked on a condvar between jobs.
//!
//! ## Model
//!
//! One job at a time, published by the calling thread. A job is an
//! indexed task range `0..tasks` plus a borrowed `Fn(usize)` body.
//! Workers (and the caller, which always participates) pull task
//! indices from a shared atomic counter — dynamic self-scheduling, so a
//! slow task on one worker never leaves the others idle while indexed
//! work remains. The caller returns only after every task has finished,
//! which is what makes lending stack-borrowed closures to `'static`
//! workers sound (see [`parallel_for`]).
//!
//! Kernels built on this pool stay **bitwise deterministic** regardless
//! of thread count: every task owns a disjoint slice of the output and
//! computes it with a fixed, thread-count-independent summation order.
//! Only the assignment of tasks to workers varies between runs.
//!
//! ## Sizing
//!
//! The default size is `std::thread::available_parallelism`, overridden
//! by the `STWA_THREADS` environment variable (useful for reproducible
//! benchmark runs and for forcing parallelism in tests on small hosts).
//! [`set_threads`] adjusts the cap at runtime; workers are spawned
//! lazily on first demand and never torn down (they park between jobs
//! and cost nothing while idle).
//!
//! ## Observability
//!
//! Every dispatch bumps the `pool.tasks` counter by the number of tasks
//! executed through the pool (inline fallback included, so single-core
//! hosts still report utilization) and sets the `pool.queue_depth`
//! gauge to the number of tasks offered to workers in the most recent
//! parallel dispatch.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Jobs smaller than this many tasks, or pools capped at one thread,
/// run inline on the caller without touching the job slot.
const MIN_PARALLEL_TASKS: usize = 2;

/// A raw pointer to the borrowed job body. Only dereferenced while the
/// publishing `parallel_for` frame is alive (it blocks until all tasks
/// complete), which is what makes the fake `Send + Sync` sound.
#[derive(Clone, Copy)]
struct JobFn(*const (dyn Fn(usize) + Sync));

unsafe impl Send for JobFn {}
unsafe impl Sync for JobFn {}

struct Job {
    body: JobFn,
    tasks: usize,
    /// Next task index to claim; `fetch_add` is the whole scheduler.
    next: AtomicUsize,
    /// Tasks not yet finished; the publisher waits for this to hit 0.
    remaining: AtomicUsize,
    /// Distinguishes this job from the previous occupant of the slot so
    /// a worker never re-enters a job it already drained.
    epoch: u64,
}

impl Job {
    /// Claim and run tasks until the index range is exhausted. Returns
    /// true if this call completed the job's final task.
    fn work(&self) -> bool {
        let mut finished_last = false;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return finished_last;
            }
            // Safety: the publisher keeps the closure alive until
            // `remaining` reaches 0, and we only decrement after the call.
            unsafe { (*self.body.0)(i) };
            finished_last = self.remaining.fetch_sub(1, Ordering::AcqRel) == 1;
        }
    }
}

struct Shared {
    /// The single published job, if any.
    slot: Mutex<Option<Arc<Job>>>,
    /// Wakes parked workers when a job is published.
    work_cv: Condvar,
    /// Signals the publisher that `remaining` hit zero.
    done: Mutex<()>,
    done_cv: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// Current thread cap (including the caller); see [`set_threads`].
    cap: AtomicUsize,
    /// Workers actually spawned so far (grows lazily up to `cap - 1`).
    spawned: Mutex<usize>,
    epoch: AtomicU64,
}

thread_local! {
    /// Set inside pool workers: nested `parallel_for` calls from a task
    /// body degrade to inline execution instead of deadlocking on the
    /// single job slot.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };

    /// Depth of [`sequential_scope`] guards on this thread. While
    /// nonzero, every dispatch from this thread runs inline.
    static SEQUENTIAL_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// RAII guard returned by [`sequential_scope`]. Dropping it re-enables
/// parallel dispatch for the thread (once every nested guard is gone).
pub struct SequentialScope {
    /// Pins the guard to the thread that created it: thread-local depth
    /// bookkeeping would corrupt if the guard were dropped elsewhere.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Force every `parallel_for`/`parallel_chunks` issued from the current
/// thread to run inline until the returned guard is dropped.
///
/// This is the data-parallel trainer's oversubscription escape: shard
/// worker threads each run a whole forward/backward pass, so the
/// coarse-grained shard parallelism already uses every core — letting
/// each worker also publish kernel jobs to the process-global pool
/// would oversubscribe it (and contend on the single job slot). A
/// worker opens a sequential scope once and every tensor kernel it
/// calls degrades to the inline path, which is bitwise-identical to
/// the parallel path by the pool's determinism contract.
///
/// Scopes nest: parallelism resumes when the outermost guard drops.
pub fn sequential_scope() -> SequentialScope {
    SEQUENTIAL_DEPTH.with(|d| d.set(d.get() + 1));
    SequentialScope {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for SequentialScope {
    fn drop(&mut self) {
        SEQUENTIAL_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Whether the current thread is inside a [`sequential_scope`].
pub fn in_sequential_scope() -> bool {
    SEQUENTIAL_DEPTH.with(|d| d.get() > 0)
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            slot: Mutex::new(None),
            work_cv: Condvar::new(),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        }),
        cap: AtomicUsize::new(configured_threads()),
        spawned: Mutex::new(0),
        epoch: AtomicU64::new(0),
    })
}

/// The pool size the process starts with: `STWA_THREADS` when set to a
/// positive integer, otherwise `available_parallelism`.
// The host's core budget is a deployment fact, not a code path: every
// thread count gives bitwise-identical results.
#[allow(clippy::disallowed_methods)]
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        if let Ok(v) = std::env::var("STWA_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// The current thread cap (caller included). Kernels use this to pick a
/// split strategy; 1 means every dispatch runs inline.
pub fn current_threads() -> usize {
    pool().cap.load(Ordering::Relaxed).max(1)
}

/// Adjust the thread cap at runtime (clamped to at least 1). Raising
/// the cap spawns the missing workers on the next dispatch; lowering it
/// leaves the extra workers parked. Intended for determinism tests and
/// benchmark sweeps; production runs size once via `STWA_THREADS`.
pub fn set_threads(n: usize) {
    pool().cap.store(n.max(1), Ordering::Relaxed);
}

fn worker_loop(shared: Arc<Shared>) {
    IN_WORKER.with(|w| w.set(true));
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut slot = shared.slot.lock().expect("pool slot");
            loop {
                match slot.as_ref() {
                    Some(job) if job.epoch != last_epoch => break Arc::clone(job),
                    _ => slot = shared.work_cv.wait(slot).expect("pool slot"),
                }
            }
        };
        last_epoch = job.epoch;
        if job.work() {
            let _done = shared.done.lock().expect("pool done");
            shared.done_cv.notify_all();
        }
    }
}

/// Make sure at least `want` workers exist (bounded by `cap - 1`; the
/// caller is the remaining thread).
fn ensure_workers(p: &'static Pool, want: usize) {
    let target = want.min(p.cap.load(Ordering::Relaxed).saturating_sub(1));
    let mut spawned = p.spawned.lock().expect("pool spawn count");
    while *spawned < target {
        let shared = Arc::clone(&p.shared);
        std::thread::Builder::new()
            .name(format!("stwa-pool-{}", *spawned))
            .spawn(move || worker_loop(shared))
            .expect("spawn pool worker");
        *spawned += 1;
    }
}

/// Run `body(i)` for every `i in 0..tasks`, in parallel when the pool
/// has capacity, inline otherwise. Returns after **all** tasks finish.
///
/// Tasks must be independent: each should touch a disjoint region of
/// any shared output. The pool guarantees nothing about the order or
/// the thread on which a given index runs.
pub fn parallel_for(tasks: usize, body: impl Fn(usize) + Sync) {
    if tasks == 0 {
        return;
    }
    stwa_observe::counter!("pool.tasks").add(tasks as u64);
    let threads = current_threads();
    let nested = IN_WORKER.with(|w| w.get()) || in_sequential_scope();
    if tasks < MIN_PARALLEL_TASKS || threads <= 1 || nested {
        for i in 0..tasks {
            body(i);
        }
        return;
    }
    let p = pool();
    ensure_workers(p, tasks - 1);
    stwa_observe::gauge!("pool.queue_depth").set(tasks as f64);
    stwa_observe::counter!("pool.dispatches").incr();

    let wide: &(dyn Fn(usize) + Sync) = &body;
    let job = Arc::new(Job {
        // Safety: lifetime-erased borrow; `parallel_for` does not return
        // until `remaining == 0`, after which no worker calls the body.
        body: JobFn(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(wide)
        } as *const _),
        tasks,
        next: AtomicUsize::new(0),
        remaining: AtomicUsize::new(tasks),
        epoch: p.epoch.fetch_add(1, Ordering::Relaxed) + 1,
    });

    {
        let mut slot = p.shared.slot.lock().expect("pool slot");
        *slot = Some(Arc::clone(&job));
    }
    p.shared.work_cv.notify_all();

    // The caller is a full participant: even with zero live workers the
    // job drains here.
    job.work();

    let mut done = p.shared.done.lock().expect("pool done");
    while job.remaining.load(Ordering::Acquire) > 0 {
        done = p.shared.done_cv.wait(done).expect("pool done");
    }
    drop(done);
    let mut slot = p.shared.slot.lock().expect("pool slot");
    *slot = None;
}

/// Split `data` into `chunks` nearly equal contiguous pieces and run
/// `body(start_offset, chunk)` for each, in parallel — `start_offset`
/// is the chunk's position in `data`, so callers can line up read-only
/// source slices. Chunk boundaries depend only on `data.len()` and
/// `chunks`, never on thread count, so deterministic bodies stay
/// deterministic.
pub fn parallel_chunks<T: Send>(data: &mut [T], chunks: usize, body: impl Fn(usize, &mut [T]) + Sync) {
    let len = data.len();
    let chunks = chunks.clamp(1, len.max(1));
    let per = len.div_ceil(chunks);
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(chunks, |ci| {
        let start = ci * per;
        let end = (start + per).min(len);
        if start < end {
            // Safety: chunks are disjoint subranges of `data`, and
            // `parallel_for` joins before `data`'s borrow ends.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            body(start, chunk);
        }
    });
}

/// A `Send + Sync` raw-pointer wrapper for handing disjoint output
/// regions to pool tasks. The caller is responsible for disjointness.
pub struct SendPtr<T>(pub *mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer. Use this instead of field access inside
    /// closures: a method call captures the whole `Sync` wrapper,
    /// whereas `.0` would capture only the raw (non-`Sync`) pointer
    /// under edition-2021 disjoint capture.
    pub fn get(self) -> *mut T {
        self.0
    }
}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Pool thread-cap changes are process-global; serialize the tests
    /// that touch them.
    static CAP_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn runs_every_task_exactly_once() {
        let _guard = CAP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        set_threads(configured_threads());
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn inline_when_capped_to_one_thread() {
        let _guard = CAP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(1);
        let counter = AtomicUsize::new(0);
        parallel_for(32, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        set_threads(configured_threads());
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn nested_dispatch_degrades_to_inline() {
        let _guard = CAP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(4);
        let counter = AtomicUsize::new(0);
        parallel_for(4, |_| {
            parallel_for(4, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        set_threads(configured_threads());
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn sequential_scope_forces_inline_dispatch() {
        let _guard = CAP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(4);
        {
            let _scope = sequential_scope();
            assert!(in_sequential_scope());
            // All tasks must run on this thread: observing a different
            // thread id would mean the pool dispatched anyway.
            let caller = std::thread::current().id();
            let off_thread = AtomicUsize::new(0);
            parallel_for(64, |_| {
                if std::thread::current().id() != caller {
                    off_thread.fetch_add(1, Ordering::Relaxed);
                }
            });
            assert_eq!(off_thread.load(Ordering::Relaxed), 0);
        }
        assert!(!in_sequential_scope());
        set_threads(configured_threads());
    }

    #[test]
    fn sequential_scopes_nest() {
        let _guard = CAP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let outer = sequential_scope();
        {
            let _inner = sequential_scope();
            assert!(in_sequential_scope());
        }
        // Inner guard dropped; the outer scope still holds.
        assert!(in_sequential_scope());
        drop(outer);
        assert!(!in_sequential_scope());
    }

    #[test]
    fn chunks_cover_slice_disjointly() {
        let _guard = CAP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(4);
        let mut data = vec![0u32; 1001];
        parallel_chunks(&mut data, 7, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        set_threads(configured_threads());
        assert!(data.iter().all(|&x| x == 1));
    }

    #[test]
    fn sequential_jobs_reuse_the_pool() {
        let _guard = CAP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_threads(3);
        for round in 1..=16usize {
            let total = AtomicUsize::new(0);
            parallel_for(round * 3, |i| {
                total.fetch_add(i, Ordering::Relaxed);
            });
            let n = round * 3;
            assert_eq!(total.load(Ordering::Relaxed), n * (n - 1) / 2);
        }
        set_threads(configured_threads());
    }
}
