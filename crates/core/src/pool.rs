//! A small persistent worker pool for data-parallel kernels.
//!
//! The batch entry points of this crate ([`crate::Encoder::encode_batch`],
//! [`crate::HdModel::predict_batch`]) used to fan work out with
//! [`std::thread::scope`], paying a thread spawn + join per call. Under a
//! serving workload that cost recurs on every batch, so this module keeps
//! one lazily-created, process-wide pool ([`global`]) whose workers park
//! on a condvar between calls.
//!
//! The design favours predictability over sophistication:
//!
//! * Every submission lands in one FIFO queue behind one mutex, and
//!   parked workers wake on one condvar. Jobs are per lane, not per
//!   item, so the lock is taken only a few times per `run` or `spawn`,
//!   and any idle worker can take any queued job: a burst never waits
//!   behind one worker wedged on a long job.
//! * Within one `run`, workers pull indexed tasks off a shared atomic
//!   counter, so chunks self-balance across lanes without further
//!   queueing.
//! * The *calling* thread always participates as a lane, and a `run`
//!   issued from inside a pool task executes fully inline. A `run` call
//!   can therefore never deadlock — the caller alone guarantees
//!   progress, and nesting never ties workers up waiting on each other.
//! * `run` only returns once every lane has finished, which is what makes
//!   lending non-`'static` borrows to the workers sound (see the single
//!   `unsafe` block below).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A boxed unit of work handed to a worker thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// True on pool worker threads. A nested `run` issued from inside a
    /// pool task executes inline instead of queueing: every queued lane
    /// job is awaited to completion by its `WaitGuard`, so nesting
    /// through the queue would let all workers block on jobs no free
    /// worker remains to execute.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The job queue shared by submitters and workers.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled on every submission and on close.
    jobs: Condvar,
}

/// The state guarded by [`PoolShared::queue`].
struct PoolQueue {
    jobs: VecDeque<Job>,
    /// Set on pool drop; workers exit once this is set *and* `jobs` is
    /// empty, so jobs queued before the drop still run.
    closed: bool,
}

impl PoolShared {
    /// Submits one job and wakes a parked worker. Must not be called on
    /// an empty pool (no workers) — those cases execute inline at the
    /// call site.
    fn push(&self, job: Job) {
        self.queue
            .lock()
            .expect("pool lock poisoned")
            .jobs
            .push_back(job);
        self.jobs.notify_one();
    }

    /// Claims the oldest queued job, parking while the queue is empty.
    /// Returns `None` once the pool has closed and the queue is drained.
    fn claim(&self) -> Option<Job> {
        let mut queue = self.queue.lock().expect("pool lock poisoned");
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            if queue.closed {
                return None;
            }
            // Parking atomically releases the lock `push` inserts
            // under, so a submission can never slip between the empty
            // check and the wait.
            queue = self.jobs.wait(queue).expect("pool lock poisoned");
        }
    }
}

/// A persistent pool of worker threads executing indexed task batches.
///
/// Most callers want the shared [`global`] pool; constructing a private
/// pool is mainly useful in tests and benchmarks that need an exact
/// thread count.
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use privehd_core::pool::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let hits = AtomicUsize::new(0);
/// pool.run(100, |_i| {
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .finish_non_exhaustive()
    }
}

/// Waits for the run to be *drained* (all task indices claimed, no lane
/// still executing the closure) even when the caller's own lane panics,
/// so the borrow lent to the workers stays alive until no lane can
/// touch it again. Queued lane jobs that have not started yet do NOT
/// hold the run back: when they are eventually dequeued they observe an
/// exhausted counter and exit without ever dereferencing the closure.
struct WaitGuard<'a>(&'a RunCtx);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.wait_drained();
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` worker threads (zero is allowed; every
    /// [`ThreadPool::run`] then executes inline on the caller).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            jobs: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("privehd-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads (the caller adds one more lane to every
    /// `run`).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Executes `f(0) … f(tasks − 1)`, fanning the indices out over the
    /// worker threads plus the calling thread, and returns once all of
    /// them have completed.
    ///
    /// Task indices are claimed from a shared counter, so tasks should be
    /// coarse enough (a chunk of items, not one item) to amortize the
    /// atomic increment.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked, after all lanes have stopped.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if tasks == 0 {
            return;
        }
        // The caller is always a lane; extra lanes are only worth queueing
        // when there is more than one task to share. Nested calls from
        // inside a pool task run inline (see `IN_POOL_WORKER`).
        let lanes = if IN_POOL_WORKER.with(std::cell::Cell::get) {
            0
        } else {
            self.workers.len().min(tasks - 1)
        };
        if lanes == 0 {
            for i in 0..tasks {
                f(i);
            }
            return;
        }

        // SAFETY: lifetime erasure only — the wide pointer is
        // dereferenced exclusively by lanes that claimed a task index,
        // which `wait_drained` keeps within this stack frame's lifetime
        // (see `RunCtx::work_lane`); stale queued jobs hold the pointer
        // without ever dereferencing it.
        let f_ptr: *const (dyn Fn(usize) + Send + Sync) =
            unsafe { std::mem::transmute(&f as &(dyn Fn(usize) + Send + Sync)) };
        let ctx = Arc::new(RunCtx {
            f: f_ptr,
            next: AtomicUsize::new(0),
            tasks,
            active: Mutex::new(0),
            drained: Condvar::new(),
            panicked: AtomicBool::new(false),
        });

        {
            for _ in 0..lanes {
                let ctx = Arc::clone(&ctx);
                self.shared.push(Box::new(move || ctx.work_lane()));
            }

            let guard = WaitGuard(&ctx);
            // The caller's lane: drain indices alongside the workers.
            loop {
                let i = ctx.next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                f(i);
            }
            // Blocks until every index is claimed and no lane still runs
            // `f`; queued stragglers later no-op against the exhausted
            // counter without delaying us.
            drop(guard);
        }

        if ctx.panicked.load(Ordering::SeqCst) {
            panic!("a pool task panicked");
        }
    }

    /// Queues one fire-and-forget `job` for execution on a worker
    /// thread, returning immediately. With zero workers the job runs
    /// inline on the caller — same degradation contract as
    /// [`ThreadPool::run`], so single-core deployments keep the old
    /// synchronous behavior.
    ///
    /// Unlike [`ThreadPool::run`] there is no completion barrier: a job
    /// that must signal completion does so itself (e.g. through a
    /// channel or a waker). Jobs queued before the pool drops are
    /// executed before the workers exit.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        if self.workers.is_empty() {
            job();
            return;
        }
        self.shared.push(Box::new(job));
    }

    /// Like [`ThreadPool::run`] but collects one `R` per task, in task
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if any task panicked.
    pub fn map<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Send + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        self.run(tasks, |i| {
            *slots[i].lock().expect("slot poisoned") = Some(f(i));
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("slot poisoned")
                    .expect("every task index ran")
            })
            .collect()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool lock poisoned");
            queue.closed = true;
        }
        self.shared.jobs.notify_all();
        for w in self.workers.drain(..) {
            w.join().expect("pool worker panicked outside a task");
        }
    }
}

/// Shared state of one `run` call. Queued lane jobs hold it via `Arc`,
/// possibly long after the originating `run` returned; only the raw
/// closure pointer must never be touched then, which the exhausted task
/// counter guarantees.
struct RunCtx {
    /// The caller's closure. Valid exactly while some lane can still
    /// claim a task index (the caller blocks in [`RunCtx::wait_drained`]
    /// until that window is over); a raw pointer rather than a
    /// transmuted `'static` reference so stale queued jobs never *hold*
    /// a dangling reference.
    f: *const (dyn Fn(usize) + Send + Sync),
    next: AtomicUsize,
    tasks: usize,
    /// Lanes currently inside `work_lane`'s claim-and-execute window.
    active: Mutex<usize>,
    drained: Condvar,
    panicked: AtomicBool,
}

// SAFETY: the pointee is `Sync` (`F: Send + Sync` in `run`), the atomics
// and lock guard all other fields, and pointer validity is enforced by
// the wait-drained protocol documented on the fields.
unsafe impl Send for RunCtx {}
// SAFETY: as above.
unsafe impl Sync for RunCtx {}

impl RunCtx {
    fn work_lane(&self) {
        {
            let mut active = self.active.lock().expect("pool lock poisoned");
            *active += 1;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            // Relaxed: the counter only partitions indices between
            // lanes; the closure and its captures were published to
            // this lane by the queue's mutex, not by this counter.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                break;
            }
            // SAFETY: this lane registered in `active` *before* claiming
            // the index, and indices below `tasks` can only be claimed
            // while the caller of `run` is still blocked in
            // `wait_drained` (it exhausts the counter itself before
            // checking), so `f` is alive for the whole call.
            let f = unsafe { &*self.f };
            f(i);
        }));
        if outcome.is_err() {
            self.panicked.store(true, Ordering::SeqCst);
        }
        let mut active = self.active.lock().expect("pool lock poisoned");
        *active -= 1;
        if *active == 0 {
            self.drained.notify_all();
        }
    }

    /// Blocks until every task index has been claimed and no lane is
    /// still executing the closure — the point after which `f` can be
    /// invalidated. Lane jobs still sitting in the queue are not waited
    /// for: once they run they observe the exhausted counter and exit
    /// without touching `f`.
    fn wait_drained(&self) {
        let mut active = self.active.lock().expect("pool lock poisoned");
        while *active > 0 || self.next.load(Ordering::SeqCst) < self.tasks {
            active = self.drained.wait(active).expect("pool lock poisoned");
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    while let Some(job) = shared.claim() {
        job();
    }
}

/// The shared process-wide pool, created on first use.
///
/// Its size defaults to `available_parallelism() − 1` workers (the caller
/// of [`ThreadPool::run`] is the remaining lane) and can be pinned with
/// the `PRIVEHD_POOL_THREADS` environment variable (total lane count;
/// `1` forces fully inline execution).
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let lanes = std::env::var("PRIVEHD_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            });
        ThreadPool::new(lanes.saturating_sub(1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = ThreadPool::new(0);
        let sum = AtomicU64::new(0);
        pool.run(10, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = ThreadPool::new(3);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn map_preserves_task_order() {
        let pool = ThreadPool::new(2);
        let out = pool.map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reusable_across_calls() {
        let pool = ThreadPool::new(2);
        for round in 1..=5u64 {
            let sum = AtomicU64::new(0);
            pool.run(64, |i| {
                sum.fetch_add(round * i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), round * (63 * 64 / 2));
        }
    }

    #[test]
    fn panicking_task_propagates_after_all_lanes_finish() {
        let pool = ThreadPool::new(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&completed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(32, |i| {
                if i == 5 {
                    panic!("boom");
                }
                seen.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a panicked run.
        let sum = AtomicU64::new(0);
        pool.run(8, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }

    #[test]
    // Wall-clock assertion: Miri's interpreter timing makes the "fast
    // run returns quickly" bound meaningless there.
    #[cfg_attr(miri, ignore)]
    fn finished_run_is_not_blocked_by_another_runs_stragglers() {
        use std::time::{Duration, Instant};
        // One worker, occupied by a slow run from another thread: a fast
        // run whose caller drains its own counter must return without
        // waiting for its queued lane job to surface behind the slow one.
        let pool = Arc::new(ThreadPool::new(1));
        let slow_pool = Arc::clone(&pool);
        let slow = std::thread::spawn(move || {
            slow_pool.run(2, |_| std::thread::sleep(Duration::from_millis(300)));
        });
        std::thread::sleep(Duration::from_millis(50)); // worker grabs the slow lane
        let start = Instant::now();
        pool.run(4, |_| {});
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "fast run stalled behind the slow run's queued lane job"
        );
        slow.join().unwrap();
    }

    #[test]
    fn nested_run_executes_inline_without_deadlock() {
        let pool = ThreadPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.run(8, |_outer| {
            // A nested run from inside a pool task must not queue jobs
            // (all workers could be blocked in WaitGuards) — it runs
            // inline on whichever lane issued it.
            pool.run(4, |_inner| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn spawn_runs_fire_and_forget_jobs_on_workers() {
        let pool = ThreadPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            pool.spawn(move || {
                tx.send(i).expect("receiver alive");
            });
        }
        let mut got: Vec<usize> = (0..16)
            .map(|_| {
                rx.recv_timeout(std::time::Duration::from_secs(10))
                    .expect("spawned job ran")
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn spawn_runs_inline_with_zero_workers() {
        let pool = ThreadPool::new(0);
        let flag = Arc::new(AtomicUsize::new(0));
        let f2 = Arc::clone(&flag);
        pool.spawn(move || {
            f2.store(7, Ordering::SeqCst);
        });
        // No barrier to wait on: with zero workers the job already ran
        // inline before `spawn` returned.
        assert_eq!(flag.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn burst_is_not_stranded_behind_a_wedged_worker() {
        use std::time::Duration;
        let pool = ThreadPool::new(2);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<usize>();
        // Wedge one worker on a long job...
        pool.spawn(move || {
            release_rx.recv_timeout(Duration::from_secs(30)).ok();
        });
        // ...then submit a burst. The free worker must drain all of it
        // rather than leave any job stranded until the blocker finishes.
        for i in 0..8 {
            let tx = done_tx.clone();
            pool.spawn(move || {
                tx.send(i).expect("receiver alive");
            });
        }
        let mut got: Vec<usize> = (0..8)
            .map(|_| {
                done_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("burst job stranded behind the wedged worker")
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        release_tx.send(()).expect("blocker alive");
    }

    #[test]
    fn jobs_queued_before_drop_still_run() {
        use std::time::Duration;
        const N: usize = 16;
        let pool = ThreadPool::new(1);
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        // Hold the only worker busy...
        pool.spawn(move || {
            started_tx.send(()).expect("test alive");
            release_rx.recv_timeout(Duration::from_secs(30)).ok();
        });
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker picked up the blocker");
        // ...queue N jobs behind it...
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..N {
            let ran = Arc::clone(&ran);
            pool.spawn(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        // ...close the pool while all N are still queued...
        let shared = Arc::clone(&pool.shared);
        let dropper = std::thread::spawn(move || drop(pool));
        {
            let queue = shared.queue.lock().unwrap();
            let queue = shared.jobs.wait_while(queue, |q| !q.closed).unwrap();
            assert_eq!(queue.jobs.len(), N);
        }
        // ...then release the worker: it must drain the queue before
        // it exits.
        release_tx.send(()).unwrap();
        dropper.join().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), N);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const ThreadPool;
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
    }
}
