//! Real shared-memory collectives over OS threads.
//!
//! [`CommGroup::new`] hands out `n` [`CommHandle`]s; each participating
//! thread owns one and calls the same sequence of collective operations.
//! Reductions are computed in **rank order**, so floating-point results
//! are deterministic and identical on every rank — a property `bfpp-train`
//! relies on to assert bit-stable gradient equivalence across schedules.
//!
//! All operations are *synchronous rendezvous* collectives: every rank of
//! the group must call the same operation with compatible arguments; the
//! call returns once the result is available. Calling different
//! operations concurrently from ranks of the same group is a contract
//! violation and panics (when detectable).
//!
//! # Fault tolerance: deadlines and group poisoning
//!
//! A rendezvous can only complete if *every* rank shows up, so a peer
//! that panics, returns early, or hangs would classically strand the
//! rest of the group on a condition variable forever. This
//! implementation never blocks indefinitely:
//!
//! * every wait carries a **deadline** ([`CommGroup::with_timeout`];
//!   default [`DEFAULT_TIMEOUT`]). A rank whose wait expires *poisons*
//!   the group and returns [`CollectiveError::Timeout`];
//! * a handle dropped while its thread is panicking poisons the group
//!   ([`PoisonReason::Panicked`]); a harness shutting down an errored
//!   worker can poison explicitly via [`CommHandle::poison`];
//! * once poisoned, every blocked rank wakes immediately and every
//!   current or future operation returns
//!   [`CollectiveError::PeerFailed`] naming the rank that failed first.
//!   Poisoning is permanent: the group is dead, state is no longer
//!   consistent across ranks.
//!
//! The `try_*` methods surface these errors; the plain methods
//! (`all_reduce`, …) are convenience wrappers that panic on them, for
//! callers (and tests) that treat any fault as fatal.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a rank waits at a rendezvous before declaring the group dead.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Which collective a rank is participating in (used to detect mismatched
/// concurrent calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    AllReduce,
    ReduceScatter,
    AllGather,
    Broadcast,
    Barrier,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::AllReduce => "all_reduce",
            OpKind::ReduceScatter => "reduce_scatter",
            OpKind::AllGather => "all_gather",
            OpKind::Broadcast => "broadcast",
            OpKind::Barrier => "barrier",
        }
    }
}

/// Why a group was poisoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonReason {
    /// The poisoning rank's thread panicked with its handle live.
    Panicked,
    /// The poisoning rank's wait deadline expired.
    TimedOut,
    /// The poisoning rank shut down deliberately (harness error path).
    Shutdown,
}

impl fmt::Display for PoisonReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PoisonReason::Panicked => "panicked",
            PoisonReason::TimedOut => "timed out",
            PoisonReason::Shutdown => "shut down",
        })
    }
}

/// Why a collective operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// This rank's own wait deadline expired (it is the first failure:
    /// it poisoned the group on its way out).
    Timeout {
        /// The rank whose wait expired.
        rank: usize,
        /// The operation it was waiting in.
        op: &'static str,
        /// The deadline it waited for.
        waited: Duration,
    },
    /// Another rank failed first and poisoned the group.
    PeerFailed {
        /// The rank observing the failure.
        rank: usize,
        /// The rank that poisoned the group.
        peer: usize,
        /// Why the peer poisoned it.
        reason: PoisonReason,
    },
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::Timeout { rank, op, waited } => write!(
                f,
                "rank {rank} timed out after {waited:?} in {op} (group poisoned)"
            ),
            CollectiveError::PeerFailed { rank, peer, reason } => {
                write!(
                    f,
                    "rank {rank}: peer rank {peer} {reason}; group is poisoned"
                )
            }
        }
    }
}

impl Error for CollectiveError {}

#[derive(Debug)]
struct RoundState {
    /// Contributions deposited this round, indexed by rank.
    inputs: Vec<Option<Vec<f32>>>,
    /// Per-rank outputs, filled by the last arriving rank.
    outputs: Vec<Option<Vec<f32>>>,
    /// Operation of the in-flight round.
    op: Option<OpKind>,
    /// Root rank for broadcast rounds.
    root: usize,
    /// Number of ranks that have deposited.
    arrived: usize,
    /// Number of ranks that have collected their output.
    departed: usize,
    /// Monotonic round counter.
    generation: u64,
    /// Set once by the first failing rank; never cleared.
    poison: Option<(usize, PoisonReason)>,
}

#[derive(Debug)]
struct Shared {
    n: usize,
    timeout: Duration,
    state: Mutex<RoundState>,
    arrived_cv: Condvar,
    departed_cv: Condvar,
}

impl Shared {
    /// Locks the round state, recovering it if a rank panicked while
    /// holding the lock. The recovery is load-bearing: a rank panics
    /// under the lock when `compute` meets mismatched lengths or `round`
    /// catches a mismatched op, root or double join. Its handle's `Drop`
    /// (or a harness that caught the panic, via [`CommHandle::poison`])
    /// then takes this lock to poison the group, and a second panic
    /// inside that `Drop` would abort the process. The recovered state
    /// is safe to use: such a panic leaves a round that cannot complete,
    /// and the waiters leave it as soon as the group is poisoned.
    fn lock(&self) -> MutexGuard<'_, RoundState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records the group's first failure and wakes every waiter. Later
    /// poisonings are ignored — the first failure wins, so every rank
    /// reports the same culprit.
    fn poison(&self, rank: usize, reason: PoisonReason) {
        let mut st = self.lock();
        if st.poison.is_none() {
            st.poison = Some((rank, reason));
        }
        drop(st);
        self.arrived_cv.notify_all();
        self.departed_cv.notify_all();
    }
}

/// One rank's handle to a collective communication group.
///
/// Handles are `Send` (move one into each worker thread) but a single
/// handle must not be shared between threads.
///
/// Dropping a handle while its thread is panicking poisons the group so
/// peers blocked in a collective fail fast instead of hanging.
#[derive(Debug)]
pub struct CommHandle {
    rank: usize,
    shared: Arc<Shared>,
}

impl Drop for CommHandle {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.shared.poison(self.rank, PoisonReason::Panicked);
        }
    }
}

/// A group of `n` ranks. Constructed once; hands out the per-rank handles.
#[derive(Debug)]
pub struct CommGroup;

impl CommGroup {
    /// Creates a group of `n` ranks with the [`DEFAULT_TIMEOUT`] deadline
    /// and returns one handle per rank, ordered by rank.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    // Deliberately a factory: the group *is* its set of per-rank handles.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize) -> Vec<CommHandle> {
        Self::with_timeout(n, DEFAULT_TIMEOUT)
    }

    /// As [`CommGroup::new`], with an explicit rendezvous deadline: a
    /// rank blocked longer than `timeout` in any collective poisons the
    /// group and returns [`CollectiveError::Timeout`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[allow(clippy::new_ret_no_self)]
    pub fn with_timeout(n: usize, timeout: Duration) -> Vec<CommHandle> {
        assert!(n > 0, "group size must be positive");
        let shared = Arc::new(Shared {
            n,
            timeout,
            state: Mutex::new(RoundState {
                inputs: (0..n).map(|_| None).collect(),
                outputs: (0..n).map(|_| None).collect(),
                op: None,
                root: 0,
                arrived: 0,
                departed: 0,
                generation: 0,
                poison: None,
            }),
            arrived_cv: Condvar::new(),
            departed_cv: Condvar::new(),
        });
        (0..n)
            .map(|rank| CommHandle {
                rank,
                shared: Arc::clone(&shared),
            })
            .collect()
    }
}

impl CommHandle {
    /// This handle's rank within the group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the group.
    pub fn group_size(&self) -> usize {
        self.shared.n
    }

    /// Poisons the group on behalf of this rank: peers blocked in (or
    /// later entering) a collective return
    /// [`CollectiveError::PeerFailed`] immediately. Used by worker
    /// harnesses on their error-path shutdown; panics poison
    /// automatically through the handle's `Drop`.
    pub fn poison(&self, reason: PoisonReason) {
        self.shared.poison(self.rank, reason);
    }

    /// The error this rank reports for an observed poisoning.
    fn peer_failed(&self, poison: (usize, PoisonReason)) -> CollectiveError {
        CollectiveError::PeerFailed {
            rank: self.rank,
            peer: poison.0,
            reason: poison.1,
        }
    }

    /// One bounded wait step: returns `Err(Timeout)` (after poisoning
    /// the group) once `deadline` passes, the re-acquired guard
    /// otherwise, recovered from poisoning as in [`Shared::lock`].
    /// Spurious wakeups are fine — callers loop on their predicate.
    fn wait_step<'a>(
        &self,
        cv: &Condvar,
        mut st: MutexGuard<'a, RoundState>,
        deadline: Instant,
        op: OpKind,
    ) -> Result<MutexGuard<'a, RoundState>, CollectiveError> {
        let now = Instant::now();
        if now >= deadline {
            if st.poison.is_none() {
                st.poison = Some((self.rank, PoisonReason::TimedOut));
            }
            self.shared.arrived_cv.notify_all();
            self.shared.departed_cv.notify_all();
            return Err(CollectiveError::Timeout {
                rank: self.rank,
                op: op.name(),
                waited: self.shared.timeout,
            });
        }
        let (st, _) = cv
            .wait_timeout(st, deadline - now)
            .unwrap_or_else(PoisonError::into_inner);
        Ok(st)
    }

    /// One rendezvous round: deposit `input`, let the last arriving rank
    /// run `compute` over all inputs to produce per-rank outputs, return
    /// this rank's output.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::Timeout`] when this rank's deadline expires,
    /// [`CollectiveError::PeerFailed`] when the group is (or becomes)
    /// poisoned by another rank.
    fn round(
        &self,
        op: OpKind,
        root: usize,
        input: Vec<f32>,
        compute: impl FnOnce(&[Vec<f32>], usize) -> Vec<Vec<f32>>,
    ) -> Result<Vec<f32>, CollectiveError> {
        let shared = &*self.shared;
        let deadline = Instant::now() + shared.timeout;
        let mut st = shared.lock();
        // Wait for the previous round to fully drain before starting a new
        // one (a rank can race ahead to its next collective).
        loop {
            if let Some(p) = st.poison {
                return Err(self.peer_failed(p));
            }
            if st.departed == 0 || st.departed == shared.n {
                break;
            }
            st = self.wait_step(&shared.departed_cv, st, deadline, op)?;
        }
        if st.departed == shared.n {
            // Last round fully drained but not yet reset (we are the first
            // of the next round): reset.
            st.departed = 0;
            st.arrived = 0;
            st.op = None;
            for o in st.outputs.iter_mut() {
                *o = None;
            }
        }
        match st.op {
            None => {
                st.op = Some(op);
                st.root = root;
            }
            Some(existing) => {
                assert_eq!(
                    existing, op,
                    "collective mismatch: rank {} called {:?} while the group is in {:?}",
                    self.rank, op, existing
                );
                assert_eq!(
                    st.root, root,
                    "broadcast root mismatch on rank {}",
                    self.rank
                );
            }
        }
        assert!(
            st.inputs[self.rank].is_none(),
            "rank {} joined the same round twice (handle shared between threads?)",
            self.rank
        );
        st.inputs[self.rank] = Some(input);
        st.arrived += 1;
        let my_generation = st.generation;
        if st.arrived == shared.n {
            // Last to arrive: compute all outputs in rank order.
            let inputs: Vec<Vec<f32>> = st
                .inputs
                .iter_mut()
                .map(|i| i.take().expect("all ranks deposited"))
                .collect();
            let outputs = compute(&inputs, root);
            debug_assert_eq!(outputs.len(), shared.n);
            for (slot, out) in st.outputs.iter_mut().zip(outputs) {
                *slot = Some(out);
            }
            st.generation += 1;
            shared.arrived_cv.notify_all();
        } else {
            loop {
                if st.generation != my_generation {
                    break;
                }
                if let Some(p) = st.poison {
                    return Err(self.peer_failed(p));
                }
                st = self.wait_step(&shared.arrived_cv, st, deadline, op)?;
            }
        }
        let out = st.outputs[self.rank].take().expect("output ready");
        st.departed += 1;
        if st.departed == shared.n {
            shared.departed_cv.notify_all();
        }
        Ok(out)
    }

    /// Sums `data` element-wise across all ranks (in rank order) and
    /// writes the identical result back on every rank.
    ///
    /// # Errors
    ///
    /// [`CollectiveError`] when this rank times out or a peer fails.
    ///
    /// # Panics
    ///
    /// Panics if ranks pass slices of different lengths.
    pub fn try_all_reduce(&self, data: &mut [f32]) -> Result<(), CollectiveError> {
        let out = self.round(OpKind::AllReduce, 0, data.to_vec(), |inputs, _| {
            let sum = rank_ordered_sum(inputs);
            vec![sum; inputs.len()]
        })?;
        data.copy_from_slice(&out);
        Ok(())
    }

    /// Sums `data` across ranks and returns this rank's shard
    /// (`data.len() / n` contiguous elements).
    ///
    /// # Errors
    ///
    /// [`CollectiveError`] when this rank times out or a peer fails.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not divisible by the group size or ranks
    /// pass different lengths.
    pub fn try_reduce_scatter(&self, data: &[f32]) -> Result<Vec<f32>, CollectiveError> {
        let n = self.shared.n;
        assert!(
            data.len().is_multiple_of(n),
            "reduce_scatter length {} not divisible by group size {}",
            data.len(),
            n
        );
        self.round(OpKind::ReduceScatter, 0, data.to_vec(), move |inputs, _| {
            let sum = rank_ordered_sum(inputs);
            let shard = sum.len() / n;
            (0..n)
                .map(|r| sum[r * shard..(r + 1) * shard].to_vec())
                .collect()
        })
    }

    /// Concatenates every rank's `shard` in rank order and returns the
    /// full tensor (identical on every rank).
    ///
    /// # Errors
    ///
    /// [`CollectiveError`] when this rank times out or a peer fails.
    ///
    /// # Panics
    ///
    /// Panics if ranks pass shards of different lengths.
    pub fn try_all_gather(&self, shard: &[f32]) -> Result<Vec<f32>, CollectiveError> {
        self.round(OpKind::AllGather, 0, shard.to_vec(), |inputs, _| {
            let len = inputs[0].len();
            for (r, i) in inputs.iter().enumerate() {
                assert_eq!(i.len(), len, "all_gather shard length mismatch at rank {r}");
            }
            let full: Vec<f32> = inputs.iter().flat_map(|i| i.iter().copied()).collect();
            vec![full; inputs.len()]
        })
    }

    /// Copies `data` from `root` to every rank.
    ///
    /// # Errors
    ///
    /// [`CollectiveError`] when this rank times out or a peer fails.
    ///
    /// # Panics
    ///
    /// Panics if ranks disagree on `root`, or buffers have different
    /// lengths.
    pub fn try_broadcast(&self, data: &mut [f32], root: usize) -> Result<(), CollectiveError> {
        assert!(root < self.shared.n, "broadcast root out of range");
        let out = self.round(OpKind::Broadcast, root, data.to_vec(), |inputs, root| {
            let src = inputs[root].clone();
            for (r, i) in inputs.iter().enumerate() {
                assert_eq!(i.len(), src.len(), "broadcast length mismatch at rank {r}");
            }
            vec![src; inputs.len()]
        })?;
        data.copy_from_slice(&out);
        Ok(())
    }

    /// Blocks until every rank of the group has reached the barrier.
    ///
    /// # Errors
    ///
    /// [`CollectiveError`] when this rank times out or a peer fails.
    pub fn try_barrier(&self) -> Result<(), CollectiveError> {
        let _ = self.round(OpKind::Barrier, 0, Vec::new(), |inputs, _| {
            vec![Vec::new(); inputs.len()]
        })?;
        Ok(())
    }

    /// [`CommHandle::try_all_reduce`], panicking on faults.
    ///
    /// # Panics
    ///
    /// As `try_all_reduce`, plus on any [`CollectiveError`].
    pub fn all_reduce(&self, data: &mut [f32]) {
        self.try_all_reduce(data).expect("all_reduce failed");
    }

    /// [`CommHandle::try_reduce_scatter`], panicking on faults.
    ///
    /// # Panics
    ///
    /// As `try_reduce_scatter`, plus on any [`CollectiveError`].
    pub fn reduce_scatter(&self, data: &[f32]) -> Vec<f32> {
        self.try_reduce_scatter(data)
            .expect("reduce_scatter failed")
    }

    /// [`CommHandle::try_all_gather`], panicking on faults.
    ///
    /// # Panics
    ///
    /// As `try_all_gather`, plus on any [`CollectiveError`].
    pub fn all_gather(&self, shard: &[f32]) -> Vec<f32> {
        self.try_all_gather(shard).expect("all_gather failed")
    }

    /// [`CommHandle::try_broadcast`], panicking on faults.
    ///
    /// # Panics
    ///
    /// As `try_broadcast`, plus on any [`CollectiveError`].
    pub fn broadcast(&self, data: &mut [f32], root: usize) {
        self.try_broadcast(data, root).expect("broadcast failed");
    }

    /// [`CommHandle::try_barrier`], panicking on faults.
    ///
    /// # Panics
    ///
    /// On any [`CollectiveError`].
    pub fn barrier(&self) {
        self.try_barrier().expect("barrier failed");
    }
}

/// Deterministic sum: accumulate inputs strictly in rank order.
fn rank_ordered_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
    let len = inputs[0].len();
    for (r, i) in inputs.iter().enumerate() {
        assert_eq!(i.len(), len, "collective length mismatch at rank {r}");
    }
    let mut acc = inputs[0].clone();
    for input in &inputs[1..] {
        for (a, x) in acc.iter_mut().zip(input) {
            *a += *x;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_group<F, R>(n: usize, f: F) -> Vec<R>
    where
        F: Fn(usize, CommHandle) -> R + Send + Sync + 'static,
        R: Send + 'static,
    {
        let f = Arc::new(f);
        let handles = CommGroup::new(n);
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                let f = Arc::clone(&f);
                thread::spawn(move || f(rank, h))
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let results = run_group(4, |rank, h| {
            let mut v = vec![rank as f32, 10.0 * rank as f32];
            h.all_reduce(&mut v);
            v
        });
        for r in results {
            assert_eq!(r, vec![6.0, 60.0]);
        }
    }

    #[test]
    fn reduce_scatter_returns_rank_shard() {
        let results = run_group(2, |rank, h| {
            let v = vec![1.0 + rank as f32; 4]; // rank 0: 1s, rank 1: 2s
            h.reduce_scatter(&v)
        });
        // Sum is [3,3,3,3]; rank 0 gets first half, rank 1 second.
        assert_eq!(results[0], vec![3.0, 3.0]);
        assert_eq!(results[1], vec![3.0, 3.0]);
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let results = run_group(3, |rank, h| h.all_gather(&[rank as f32]));
        for r in results {
            assert_eq!(r, vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn broadcast_copies_from_root() {
        let results = run_group(3, |rank, h| {
            let mut v = vec![rank as f32; 2];
            h.broadcast(&mut v, 1);
            v
        });
        for r in results {
            assert_eq!(r, vec![1.0, 1.0]);
        }
    }

    #[test]
    fn reduce_scatter_then_all_gather_equals_all_reduce() {
        let results = run_group(4, |rank, h| {
            let v: Vec<f32> = (0..8).map(|i| (i + rank) as f32).collect();
            let mut ar = v.clone();
            h.all_reduce(&mut ar);
            let shard = h.reduce_scatter(&v);
            let ag = h.all_gather(&shard);
            (ar, ag)
        });
        for (ar, ag) in results {
            assert_eq!(ar, ag);
        }
    }

    #[test]
    fn repeated_rounds_are_deterministic() {
        let a = run_group(4, |rank, h| {
            let mut acc = vec![0.0f32; 4];
            for step in 0..50 {
                let mut v = vec![(rank * 37 + step) as f32 * 0.001; 4];
                h.all_reduce(&mut v);
                for (x, y) in acc.iter_mut().zip(&v) {
                    *x += *y;
                }
            }
            acc
        });
        let b = run_group(4, |rank, h| {
            let mut acc = vec![0.0f32; 4];
            for step in 0..50 {
                let mut v = vec![(rank * 37 + step) as f32 * 0.001; 4];
                h.all_reduce(&mut v);
                for (x, y) in acc.iter_mut().zip(&v) {
                    *x += *y;
                }
            }
            acc
        });
        assert_eq!(a, b, "rank-ordered reduction must be bit-stable");
        for r in &a[1..] {
            assert_eq!(*r, a[0], "all ranks must agree");
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let results = run_group(4, move |_rank, h| {
            c2.fetch_add(1, Ordering::SeqCst);
            h.barrier();
            // After the barrier, every rank must observe all arrivals.
            c2.load(Ordering::SeqCst)
        });
        for r in results {
            assert_eq!(r, 4);
        }
    }

    #[test]
    fn group_size_one_is_identity() {
        let results = run_group(1, |_rank, h| {
            let mut v = vec![5.0f32];
            h.all_reduce(&mut v);
            let s = h.reduce_scatter(&[1.0, 2.0]);
            let g = h.all_gather(&[9.0]);
            h.barrier();
            (v, s, g)
        });
        assert_eq!(results[0], (vec![5.0], vec![1.0, 2.0], vec![9.0]));
    }

    #[test]
    #[should_panic(expected = "group size must be positive")]
    fn empty_group_rejected() {
        CommGroup::new(0);
    }

    #[test]
    fn many_ranks_stress() {
        let results = run_group(16, |rank, h| {
            let mut v = vec![rank as f32];
            for _ in 0..20 {
                h.all_reduce(&mut v);
            }
            v[0]
        });
        // Sum 0..16 = 120; after 20 rounds: 120 * 16^19 is astronomically
        // big — instead verify all ranks agree.
        for r in &results[1..] {
            assert_eq!(*r, results[0]);
        }
    }

    #[test]
    fn absent_rank_times_out_and_reports() {
        // Three ranks rendezvous, the fourth never calls: someone's
        // deadline expires, poisons the group, and everyone else gets
        // PeerFailed(TimedOut) — nobody hangs.
        let mut handles = CommGroup::with_timeout(4, Duration::from_millis(100));
        let _absent = handles.pop().expect("rank 3 stays home");
        let joins: Vec<_> = handles
            .into_iter()
            .map(|h| {
                thread::spawn(move || {
                    let mut v = vec![1.0f32];
                    h.try_all_reduce(&mut v).unwrap_err()
                })
            })
            .collect();
        let errors: Vec<CollectiveError> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let timeouts = errors
            .iter()
            .filter(|e| matches!(e, CollectiveError::Timeout { .. }))
            .count();
        assert!(timeouts >= 1, "at least one rank must time out: {errors:?}");
        for e in &errors {
            match e {
                CollectiveError::Timeout { op, .. } => assert_eq!(*op, "all_reduce"),
                CollectiveError::PeerFailed { reason, .. } => {
                    assert_eq!(*reason, PoisonReason::TimedOut)
                }
            }
        }
    }

    #[test]
    fn explicit_poison_unblocks_waiters() {
        let mut handles = CommGroup::with_timeout(3, Duration::from_secs(30));
        let quitter = handles.pop().expect("rank 2");
        let joins: Vec<_> = handles
            .into_iter()
            .map(|h| {
                thread::spawn(move || {
                    let mut v = vec![1.0f32];
                    h.try_all_reduce(&mut v).unwrap_err()
                })
            })
            .collect();
        // Give the workers a moment to block, then bail out.
        thread::sleep(Duration::from_millis(50));
        quitter.poison(PoisonReason::Shutdown);
        for j in joins {
            let e = j.join().unwrap();
            assert_eq!(
                e,
                CollectiveError::PeerFailed {
                    rank: match e {
                        CollectiveError::PeerFailed { rank, .. } => rank,
                        _ => unreachable!(),
                    },
                    peer: 2,
                    reason: PoisonReason::Shutdown,
                }
            );
        }
    }

    #[test]
    fn poisoned_group_rejects_future_operations() {
        let handles = CommGroup::with_timeout(2, Duration::from_secs(30));
        handles[1].poison(PoisonReason::Shutdown);
        let mut v = vec![1.0f32];
        let e = handles[0].try_all_reduce(&mut v).unwrap_err();
        assert!(matches!(
            e,
            CollectiveError::PeerFailed {
                peer: 1,
                reason: PoisonReason::Shutdown,
                ..
            }
        ));
        // Still poisoned on the next call — poisoning is permanent.
        assert!(handles[0].try_barrier().is_err());
    }

    #[test]
    fn errors_display_usefully() {
        let t = CollectiveError::Timeout {
            rank: 1,
            op: "all_gather",
            waited: Duration::from_secs(5),
        };
        assert!(t.to_string().contains("rank 1"));
        assert!(t.to_string().contains("all_gather"));
        let p = CollectiveError::PeerFailed {
            rank: 0,
            peer: 3,
            reason: PoisonReason::Panicked,
        };
        assert!(p.to_string().contains("peer rank 3"));
        assert!(p.to_string().contains("panicked"));
    }
}
