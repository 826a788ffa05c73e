//! A long-lived worker pool for candidate evaluation: one FIFO job
//! queue behind one lock.
//!
//! A planning *service* evaluating many concurrent requests cannot
//! afford a thread spawn per evaluated chunk, nor per-request pools
//! that fight each other for cores. So one `Arc`'d executor is created
//! once, and its fixed set of workers serves every request in the
//! process.
//!
//! One queue is enough because callers balance their work before they
//! submit it. The evaluate stage carves class groups longest-first into
//! at most `threads` tasks, and a Fig. 5 sweep runs at most `threads`
//! lanes that pull cells from a shared cursor, so every scope is a
//! handful of already-balanced tasks (two at most on a two-worker
//! pool). Per-worker deques and work stealing would balance traffic that
//! never arrives. Workers take jobs oldest-first from one `VecDeque`
//! under one mutex and sleep on one condvar waited on under that same
//! lock. Every push, chaos ticket and shutdown changes the queue under
//! the lock before it notifies, so a worker that finds nothing to do
//! and waits cannot miss a wake-up, and no wait needs a timeout.
//!
//! Determinism: the executor never reorders *results*. Callers submit
//! tasks that write into caller-owned, order-indexed slots and reduce
//! serially after [`Executor::scope_run`] returns, so which worker ran
//! which task — and in what order — is unobservable (see
//! `exec::search`'s merge step).
//!
//! Scoped borrows: tasks may borrow from the submitting stack frame.
//! [`Executor::scope_run`] erases the lifetime to enqueue, then blocks
//! until every task of the scope has completed before returning — the
//! same guarantee `std::thread::scope` gives, on persistent workers.
//! The submitting thread also *helps*: it runs its scope's first job
//! itself, wakes one worker for each job it queues, and then runs any
//! of its jobs still queued (only those), so a scope makes progress
//! even on a pool with zero free workers (or, transitively, when a
//! worker submits a nested scope). A scope of at most one task has
//! nothing to share and is not a job at all: it runs on the caller, is
//! counted in neither [`Executor::tasks_executed`] nor the busy totals,
//! and its panic unwinds straight to the caller.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bfpp_sim::MetricsRegistry;

/// A borrowed task: runs once on some worker (or the submitter itself).
pub type ScopedTask<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Locks `m`, recovering from poisoning: no lock here is held while a
/// task runs, so a poisoned guard still protects consistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `threads`, or the machine's available parallelism when it is `0` —
/// the one spelling of that rule, which
/// [`SearchOptions::effective_threads`](crate::search::SearchOptions::effective_threads)
/// shares. The parallelism is read once per process (the query costs
/// ~20 µs, and a service resolves `0` on every request), so a later
/// change to the affinity mask or cgroup CPU quota is not seen — as the
/// global pool, sized at first use, does not see it either.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    match threads {
        0 => *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

/// One submitted scope's barrier: its outstanding job count and the
/// first panic any of its jobs raised (re-raised on the submitter after
/// the barrier), behind a lock the submitter sleeps on.
struct ScopeState {
    state: Mutex<(usize, Option<Box<dyn Any + Send>>)>,
    /// Signalled when the count reaches zero; the submitter is its only
    /// waiter.
    done: Condvar,
}

/// A queued unit of work: a lifetime-erased task plus the scope it
/// reports completion to.
struct Job {
    scope: Arc<ScopeState>,
    task: Box<dyn FnOnce() + Send + 'static>,
}

/// Everything an idle worker checks before it sleeps, behind the pool's
/// one lock.
#[derive(Default)]
struct Queue {
    /// Queued jobs, oldest first.
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// Chaos hook: each ticket makes one worker exit its loop as if its
    /// thread had died.
    exit_tickets: usize,
    /// Chaos hook: each ticket makes one worker sleep for the given
    /// duration before taking its next job (a transient stall, not a
    /// death — the worker stays live and resumes).
    stall_tickets: Vec<Duration>,
}

/// State shared by the workers and every submitter.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Idle workers wait here, under `queue`'s lock.
    wake: Condvar,
    /// Workers currently running their loop. Falls below the pool size
    /// when a worker dies (today only via an injected exit ticket; the
    /// job path never unwinds) and is restored by the supervisor
    /// ([`Executor::respawn_dead`]).
    live: AtomicUsize,
    /// How many dead workers the supervisor has replaced.
    respawned: AtomicUsize,
    /// Jobs executed, by workers and helping submitters alike.
    tasks_run: AtomicU64,
    /// Job-execution time spent by workers, in nanoseconds.
    busy_ns: AtomicU64,
    /// Job-execution time spent by helping submitters.
    helper_busy_ns: AtomicU64,
}

impl Shared {
    /// Runs one job, counts it, books its time into `busy`, and then
    /// reports its completion (and any panic) to its scope — so a scope
    /// that has returned has had all of its jobs booked. Never unwinds:
    /// a panicking task must not take a pooled worker down with it.
    fn run_job(&self, job: Job, busy: &AtomicU64) {
        let Job { scope, task } = job;
        let t0 = Instant::now();
        self.tasks_run.fetch_add(1, Ordering::Relaxed);
        let result = catch_unwind(AssertUnwindSafe(task));
        busy.fetch_add(
            u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        let mut state = lock(&scope.state);
        if let Err(payload) = result {
            // First panic wins; later ones are dropped (same as
            // `std::thread::scope`, which re-raises one).
            state.1.get_or_insert(payload);
        }
        state.0 -= 1;
        if state.0 == 0 {
            scope.done.notify_one();
        }
    }

    /// Takes the oldest queued job of `scope`, for its helping
    /// submitter, which must not run other scopes' work — that would
    /// delay its own return behind an unrelated, possibly long task.
    fn pop_scope_job(&self, scope: &Arc<ScopeState>) -> Option<Job> {
        let mut queue = lock(&self.queue);
        let pos = queue
            .jobs
            .iter()
            .position(|j| Arc::ptr_eq(&j.scope, scope))?;
        queue.jobs.remove(pos)
    }
}

/// The worker body: claim a pending chaos ticket, else run the oldest
/// job, else sleep until the queue changes. Returns on shutdown or to
/// an injected exit ticket; either way the caller's guard marks the
/// worker no longer live.
fn work(shared: &Shared) {
    let mut queue = lock(&shared.queue);
    loop {
        if queue.shutdown {
            return;
        }
        if queue.exit_tickets > 0 {
            // Simulated worker death: leave without draining. Queued
            // jobs stay claimable by the survivors and by helping
            // submitters, so no scope is stranded even before the
            // supervisor replaces this worker.
            queue.exit_tickets -= 1;
            return;
        }
        if let Some(stall) = queue.stall_tickets.pop() {
            drop(queue);
            std::thread::sleep(stall);
            queue = lock(&shared.queue);
        } else if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            shared.run_job(job, &shared.busy_ns);
            queue = lock(&shared.queue);
        } else {
            queue = shared
                .wake
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Spawns worker number `me`. The worker decrements `live` when its
/// loop exits for any reason, so supervision reads an accurate census
/// even if a future worker body gains a panic path.
fn spawn_worker(shared: &Arc<Shared>, me: usize) -> JoinHandle<()> {
    shared.live.fetch_add(1, Ordering::AcqRel);
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("bfpp-exec-{me}"))
        .spawn(move || {
            struct Census<'a>(&'a Shared);
            impl Drop for Census<'_> {
                fn drop(&mut self) {
                    self.0.live.fetch_sub(1, Ordering::AcqRel);
                }
            }
            let census = Census(&shared);
            work(&shared);
            drop(census);
        })
        .expect("spawning an executor worker")
}

/// A fixed pool of worker threads over one job queue, shared (`Arc`'d)
/// by every search request in the process. See the module docs for the
/// determinism and borrowing contracts.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Executor {
    /// Creates an executor with `threads` workers (`0` = the machine's
    /// available parallelism). Workers start immediately and live until
    /// the executor is dropped.
    pub fn new(threads: usize) -> Arc<Executor> {
        let threads = resolve_threads(threads);
        let shared = Arc::new(Shared::default());
        let workers = (0..threads).map(|me| spawn_worker(&shared, me)).collect();
        Arc::new(Executor {
            shared,
            workers: Mutex::new(workers),
            threads,
        })
    }

    /// The process-wide executor every plain `best_config*` call shares,
    /// sized to the machine's available parallelism and created on first
    /// use. (A planner service may also size its own.)
    pub fn global() -> &'static Arc<Executor> {
        static GLOBAL: OnceLock<Arc<Executor>> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(0))
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Workers currently running their loop. Below
    /// [`Executor::threads`] only while a dead worker awaits respawn.
    pub fn live_workers(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// How many dead workers the supervisor has replaced so far.
    pub fn workers_respawned(&self) -> usize {
        self.shared.respawned.load(Ordering::Acquire)
    }

    /// Jobs currently queued (a point-in-time depth; the next instant
    /// may differ).
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).jobs.len()
    }

    /// Jobs executed since the pool started (workers and helping
    /// submitters).
    pub fn tasks_executed(&self) -> u64 {
        self.shared.tasks_run.load(Ordering::Relaxed)
    }

    /// Cumulative job-execution nanoseconds of the workers, respawned
    /// ones included. Excludes helping submitters
    /// ([`Executor::helper_busy_ns`]).
    pub fn worker_busy_ns(&self) -> u64 {
        self.shared.busy_ns.load(Ordering::Relaxed)
    }

    /// Cumulative job-execution nanoseconds spent by helping
    /// submitters (scope owners running their own queued tasks).
    pub fn helper_busy_ns(&self) -> u64 {
        self.shared.helper_busy_ns.load(Ordering::Relaxed)
    }

    /// Mirrors the pool's telemetry into a registry: point-in-time
    /// gauges (`executor_threads`, `executor_live_workers`,
    /// `executor_queue_depth`) and monotonic totals
    /// (`executor_tasks_total`, `executor_workers_respawned_total`,
    /// `executor_busy_ns_total` for the workers and
    /// `executor_helper_busy_ns_total` for helping submitters). Call at
    /// snapshot time — the pool itself never touches a registry on its
    /// hot paths.
    pub fn export_metrics(&self, m: &MetricsRegistry) {
        m.gauge_set("executor_threads", self.threads as i64);
        m.gauge_set("executor_live_workers", self.live_workers() as i64);
        m.gauge_set("executor_queue_depth", self.queue_depth() as i64);
        m.counter_set("executor_tasks_total", self.tasks_executed());
        m.counter_set(
            "executor_workers_respawned_total",
            self.workers_respawned() as u64,
        );
        m.counter_set("executor_busy_ns_total", self.worker_busy_ns());
        m.counter_set("executor_helper_busy_ns_total", self.helper_busy_ns());
    }

    /// Chaos hook: make `n` workers exit their loops as if their
    /// threads had died. Progress is never lost — queued jobs remain
    /// claimable by surviving workers and helping submitters — but pool
    /// capacity drops until the supervisor respawns the dead (which
    /// [`Executor::scope_run`] triggers on its next submission).
    pub fn inject_worker_exit(&self, n: usize) {
        lock(&self.shared.queue).exit_tickets += n;
        // Wake sleepers so parked workers notice their tickets.
        self.shared.wake.notify_all();
    }

    /// Chaos hook: make `n` workers sleep `stall` before taking their
    /// next job — a transient stall (hung NIC, page fault storm), not a
    /// death. The stalled workers stay live and resume by themselves.
    pub fn inject_worker_stall(&self, stall: Duration, n: usize) {
        lock(&self.shared.queue)
            .stall_tickets
            .extend(std::iter::repeat_n(stall, n));
        self.shared.wake.notify_all();
    }

    /// The supervisor: joins every worker whose thread has exited and
    /// spawns a replacement under the same number, restoring the pool
    /// to its configured capacity. Returns how many workers were
    /// replaced. Called automatically at the top of
    /// [`Executor::scope_run`], so capacity self-heals on the next
    /// submission; callers may also invoke it directly (e.g. a service
    /// health check).
    pub fn respawn_dead(&self) -> usize {
        if self.shared.live.load(Ordering::Acquire) >= self.threads {
            return 0;
        }
        // Checked per handle under the lock: another supervisor call
        // may have already healed the pool.
        let mut workers = lock(&self.workers);
        let mut replaced = 0;
        for (me, slot) in workers.iter_mut().enumerate() {
            if slot.is_finished() {
                // Join cannot block: the thread has already exited.
                let _ = std::mem::replace(slot, spawn_worker(&self.shared, me)).join();
                replaced += 1;
            }
        }
        self.shared.respawned.fetch_add(replaced, Ordering::AcqRel);
        replaced
    }

    /// Runs every task to completion and then returns. Tasks may borrow
    /// from the caller's stack; the first panic raised by any task is
    /// re-raised here after *all* tasks have finished, leaving the pool
    /// healthy. A scope of at most one task runs on the calling thread.
    pub fn scope_run<'env>(&self, tasks: Vec<ScopedTask<'env>>) {
        // Self-healing: replace any worker that died since the last
        // submission, so capacity is restored before new work queues.
        // (Even at zero live workers the scope would still complete —
        // the submitter helps — but at degraded parallelism.)
        if self.shared.live.load(Ordering::Acquire) < self.threads {
            self.respawn_dead();
        }
        if tasks.len() <= 1 {
            // Nothing to share: the task runs here, as no job, and a
            // panic unwinds straight to the caller.
            tasks.into_iter().for_each(|task| task());
            return;
        }
        let n = tasks.len();
        let scope = Arc::new(ScopeState {
            state: Mutex::new((n, None)),
            done: Condvar::new(),
        });
        let mut jobs = tasks.into_iter().map(|task| {
            // SAFETY: the borrow-carrying closure is re-typed as
            // `'static` only to live in the queue; it is guaranteed to
            // have *run* (or been dropped by `run_job`'s panic path)
            // before `scope_run` returns, because this function blocks
            // until the scope's count reaches zero and every job
            // decrements it exactly once, after its task is gone. Hence
            // no borrow outlives the caller's frame — the
            // `std::thread::scope` argument.
            let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
            Job {
                scope: Arc::clone(&scope),
                task,
            }
        });
        let first = jobs.next().expect("a scope of two or more tasks");
        lock(&self.shared.queue).jobs.extend(jobs);
        // This thread runs the first job itself: wake one worker for
        // each queued one. A wake-up that finds no worker waiting is
        // not needed, since every worker checks the queue before it
        // waits, and this thread takes what is still queued.
        for _ in 1..n {
            self.shared.wake.notify_one();
        }
        self.shared.run_job(first, &self.shared.helper_busy_ns);

        // Help with this scope's own jobs, then wait out the ones
        // workers claimed.
        while let Some(job) = self.shared.pop_scope_job(&scope) {
            self.shared.run_job(job, &self.shared.helper_busy_ns);
        }
        let mut state = lock(&scope.state);
        while state.0 > 0 {
            state = scope
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = state.1.take() {
            drop(state);
            resume_unwind(payload);
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
        let workers = self
            .workers
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for handle in workers.drain(..) {
            // A worker that panicked outside a job (impossible today)
            // must not abort teardown.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_runs_borrowing_tasks_to_completion() {
        let pool = Executor::new(3);
        let mut slots = vec![0u64; 64];
        let tasks: Vec<ScopedTask<'_>> = slots
            .chunks_mut(7)
            .enumerate()
            .map(|(i, chunk)| {
                let task: ScopedTask<'_> = Box::new(move || {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = (i * 100 + j) as u64;
                    }
                });
                task
            })
            .collect();
        pool.scope_run(tasks);
        for (i, chunk) in slots.chunks(7).enumerate() {
            for (j, slot) in chunk.iter().enumerate() {
                assert_eq!(*slot, (i * 100 + j) as u64);
            }
        }
    }

    #[test]
    fn empty_scope_is_a_noop() {
        let pool = Executor::new(1);
        pool.scope_run(Vec::new());
    }

    #[test]
    fn sequential_scopes_reuse_the_pool() {
        let pool = Executor::new(2);
        let counter = AtomicU64::new(0);
        for _ in 0..20 {
            let tasks: Vec<ScopedTask<'_>> = (0..5)
                .map(|_| {
                    let task: ScopedTask<'_> = Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                    task
                })
                .collect();
            pool.scope_run(tasks);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn concurrent_submitters_share_the_workers() {
        let pool = Executor::new(2);
        let total = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let tasks: Vec<ScopedTask<'_>> = (0..3)
                            .map(|_| {
                                let task: ScopedTask<'_> = Box::new(|| {
                                    total.fetch_add(1, Ordering::Relaxed);
                                });
                                task
                            })
                            .collect();
                        pool.scope_run(tasks);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 10 * 3);
    }

    #[test]
    fn panicking_task_propagates_without_poisoning_the_pool() {
        let pool = Executor::new(2);
        let ran = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<ScopedTask<'_>> = vec![
                Box::new(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }),
                Box::new(|| panic!("task boom")),
                Box::new(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                }),
            ];
            pool.scope_run(tasks);
        }));
        assert!(result.is_err(), "the task panic must surface");
        assert_eq!(ran.load(Ordering::Relaxed), 2, "siblings still ran");
        // The pool survives and serves the next scope.
        let tasks: Vec<ScopedTask<'_>> = vec![Box::new(|| {
            ran.fetch_add(10, Ordering::Relaxed);
        })];
        pool.scope_run(tasks);
        assert_eq!(ran.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = Executor::global();
        let b = Executor::global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.threads() >= 1);
        let hit = AtomicU64::new(0);
        let tasks: Vec<ScopedTask<'_>> = vec![Box::new(|| {
            hit.fetch_add(1, Ordering::Relaxed);
        })];
        a.scope_run(tasks);
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    /// Spins until `cond` holds or ~5s elapse (worker death/respawn is
    /// asynchronous: the census updates when the thread body ends).
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("condition never held: {what}");
    }

    #[test]
    fn killed_workers_are_respawned_and_capacity_self_heals() {
        let pool = Executor::new(3);
        eventually("3 workers up", || pool.live_workers() == 3);
        pool.inject_worker_exit(2);
        eventually("2 workers died", || pool.live_workers() == 1);
        // The degraded pool still completes work (submitter helps).
        let n = AtomicU64::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..8)
            .map(|_| {
                let task: ScopedTask<'_> = Box::new(|| {
                    n.fetch_add(1, Ordering::Relaxed);
                });
                task
            })
            .collect();
        pool.scope_run(tasks);
        assert_eq!(n.load(Ordering::Relaxed), 8);
        // The supervisor restores full capacity (scope_run already
        // triggered it; drive it explicitly until the census settles).
        eventually("capacity restored", || {
            pool.respawn_dead();
            pool.live_workers() == 3
        });
        assert!(pool.workers_respawned() >= 2);
        // And the healed pool serves the next scope.
        let tasks: Vec<ScopedTask<'_>> = vec![Box::new(|| {
            n.fetch_add(100, Ordering::Relaxed);
        })];
        pool.scope_run(tasks);
        assert_eq!(n.load(Ordering::Relaxed), 108);
    }

    #[test]
    fn stalled_workers_recover_without_respawn() {
        let pool = Executor::new(2);
        eventually("2 workers up", || pool.live_workers() == 2);
        pool.inject_worker_stall(Duration::from_millis(50), 2);
        let n = AtomicU64::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..6)
            .map(|_| {
                let task: ScopedTask<'_> = Box::new(|| {
                    n.fetch_add(1, Ordering::Relaxed);
                });
                task
            })
            .collect();
        pool.scope_run(tasks);
        assert_eq!(n.load(Ordering::Relaxed), 6);
        assert_eq!(pool.live_workers(), 2, "a stall is not a death");
        assert_eq!(pool.workers_respawned(), 0);
    }

    #[test]
    fn telemetry_counts_tasks_and_exports_gauges() {
        let pool = Executor::new(2);
        let n = AtomicU64::new(0);
        for _ in 0..4 {
            let tasks: Vec<ScopedTask<'_>> = (0..8)
                .map(|_| {
                    let task: ScopedTask<'_> = Box::new(|| {
                        n.fetch_add(1, Ordering::Relaxed);
                    });
                    task
                })
                .collect();
            pool.scope_run(tasks);
        }
        assert_eq!(pool.tasks_executed(), 32, "every job is counted once");
        assert_eq!(pool.queue_depth(), 0, "scopes drain their queues");
        let m = MetricsRegistry::new();
        pool.export_metrics(&m);
        assert_eq!(m.counter("executor_tasks_total"), 32);
        assert_eq!(m.gauge("executor_threads"), 2);
        assert_eq!(m.gauge("executor_queue_depth"), 0);
        assert_eq!(m.counter("executor_workers_respawned_total"), 0);
        // A job books its time before its scope can return, so the
        // totals have settled once the scopes are done.
        assert_eq!(m.counter("executor_busy_ns_total"), pool.worker_busy_ns());
        assert_eq!(
            m.counter("executor_helper_busy_ns_total"),
            pool.helper_busy_ns()
        );
    }

    #[test]
    fn a_lone_task_runs_on_the_caller_as_no_job() {
        let pool = Executor::new(2);
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        let tasks: Vec<ScopedTask<'_>> = vec![Box::new(|| {
            *ran_on.lock().unwrap() = Some(std::thread::current().id());
        })];
        pool.scope_run(tasks);
        assert_eq!(*ran_on.lock().unwrap(), Some(caller));
        assert_eq!(pool.tasks_executed(), 0, "a lone task is not a job");
        assert_eq!(pool.worker_busy_ns() + pool.helper_busy_ns(), 0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<ScopedTask<'_>> = vec![Box::new(|| panic!("lone boom"))];
            pool.scope_run(tasks);
        }));
        let payload = result.expect_err("the lone task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"lone boom"));
        assert_eq!(pool.tasks_executed(), 0);
    }

    #[test]
    fn a_parked_worker_wakes_for_a_scope_the_submitter_cannot_finish() {
        let pool = Executor::new(2);
        eventually("2 workers up", || pool.live_workers() == 2);
        for _ in 0..20 {
            // Let both workers park on the empty queue.
            std::thread::sleep(Duration::from_millis(10));
            // Each task waits for the other, and the submitter runs only
            // one of them: a parked worker must wake for the second.
            // Waits carry no timeout, so a lost wake-up hangs here.
            let both = std::sync::Barrier::new(2);
            let tasks: Vec<ScopedTask<'_>> = (0..2)
                .map(|_| {
                    let task: ScopedTask<'_> = Box::new(|| {
                        both.wait();
                    });
                    task
                })
                .collect();
            pool.scope_run(tasks);
        }
        assert_eq!(pool.tasks_executed(), 40);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Executor::new(4);
        let n = AtomicU64::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..16)
            .map(|_| {
                let task: ScopedTask<'_> = Box::new(|| {
                    n.fetch_add(1, Ordering::Relaxed);
                });
                task
            })
            .collect();
        pool.scope_run(tasks);
        drop(pool);
        assert_eq!(n.load(Ordering::Relaxed), 16);
    }
}
