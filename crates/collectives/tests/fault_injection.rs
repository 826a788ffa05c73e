//! Regression tests for the collective fault model: a rank that dies
//! mid-collective must never strand its peers.
//!
//! Each scenario runs under a watchdog (`run_with_watchdog`): the body
//! executes on a helper thread and the test fails — rather than hanging
//! CI forever — if it does not complete within a generous deadline.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use bfpp_collectives::thread::{CollectiveError, CommGroup, PoisonReason};

/// Runs `body` on a separate thread and panics if it does not finish
/// within `deadline`. This converts a would-be deadlock into a fast,
/// diagnosable test failure.
fn run_with_watchdog<F>(deadline: Duration, body: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let runner = thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    match rx.recv_timeout(deadline) {
        Ok(()) => runner.join().expect("test body panicked"),
        Err(_) => panic!(
            "watchdog: test body did not complete within {deadline:?} — \
             a collective is hanging instead of failing"
        ),
    }
}

#[test]
fn panicking_rank_unblocks_peers_with_peer_failed() {
    run_with_watchdog(Duration::from_secs(10), || {
        let n = 4;
        let victim = 2;
        // Long timeout on purpose: peers must be released by the panic
        // poisoning the group, NOT by their own deadlines expiring.
        let handles = CommGroup::with_timeout(n, Duration::from_secs(60));
        let start = Instant::now();
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                thread::spawn(move || {
                    if rank == victim {
                        // Warm up with one clean round so the panic lands
                        // mid-sequence, then die holding the handle.
                        h.try_barrier().expect("first barrier is clean");
                        panic!("injected fault on rank {rank}");
                    }
                    h.try_barrier().expect("first barrier is clean");
                    let mut v = vec![rank as f32; 8];
                    h.try_all_reduce(&mut v)
                })
            })
            .collect();
        for (rank, j) in joins.into_iter().enumerate() {
            if rank == victim {
                assert!(j.join().is_err(), "victim must have panicked");
                continue;
            }
            let err = j
                .join()
                .expect("peer threads must not panic")
                .expect_err("peers of a dead rank must observe a failure");
            assert_eq!(
                err,
                CollectiveError::PeerFailed {
                    rank,
                    peer: victim,
                    reason: PoisonReason::Panicked,
                },
                "peer {rank} must learn exactly who failed and why"
            );
        }
        // Released by poisoning, not by the 60 s rendezvous deadline.
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "peers took {:?} — they waited for a timeout instead of \
             being woken by the poison",
            start.elapsed()
        );
    });
}

#[test]
fn panic_before_first_collective_still_poisons() {
    run_with_watchdog(Duration::from_secs(10), || {
        let handles = CommGroup::with_timeout(2, Duration::from_secs(60));
        let mut it = handles.into_iter();
        let survivor = it.next().unwrap();
        let victim = it.next().unwrap();
        let vj = thread::spawn(move || {
            let _hold = victim;
            panic!("injected fault before any collective");
        });
        assert!(vj.join().is_err());
        let mut v = vec![1.0f32];
        let err = survivor.try_all_reduce(&mut v).unwrap_err();
        assert!(
            matches!(
                err,
                CollectiveError::PeerFailed {
                    peer: 1,
                    reason: PoisonReason::Panicked,
                    ..
                }
            ),
            "got {err:?}"
        );
    });
}

#[test]
fn timeout_is_bounded_and_typed() {
    run_with_watchdog(Duration::from_secs(10), || {
        let timeout = Duration::from_millis(200);
        let mut handles = CommGroup::with_timeout(3, timeout);
        let _absent = handles.pop().expect("rank 2 never participates");
        let start = Instant::now();
        let joins: Vec<_> = handles
            .into_iter()
            .map(|h| thread::spawn(move || h.try_barrier().unwrap_err()))
            .collect();
        let errors: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "errors must surface near the {timeout:?} deadline, not {elapsed:?}"
        );
        assert!(errors.iter().any(|e| matches!(
            e,
            CollectiveError::Timeout { op: "barrier", .. }
                | CollectiveError::PeerFailed {
                    reason: PoisonReason::TimedOut,
                    ..
                }
        )));
    });
}

#[test]
fn panic_under_the_group_lock_poisons_instead_of_aborting() {
    // A length mismatch panics inside the rendezvous, on whichever rank
    // arrives last and runs the reduction while holding the group's
    // state lock. Its handle then poisons the group while unwinding,
    // which takes that lock again; a panic there would abort the
    // process. The long slice moves from rank to rank across groups, so
    // the rank that passes it is sometimes the last to arrive and
    // sometimes not, whatever order the threads arrive in.
    run_with_watchdog(Duration::from_secs(30), || {
        let n = 3;
        for g in 0..50 {
            let long = g % n;
            let handles = CommGroup::with_timeout(n, Duration::from_secs(60));
            let joins: Vec<_> = handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| {
                    thread::spawn(move || {
                        let mut v = vec![1.0f32; if rank == long { 5 } else { 4 }];
                        let reduce = h.try_all_reduce(&mut v).unwrap_err();
                        (reduce, h.try_barrier().unwrap_err())
                    })
                })
                .collect();
            let results: Vec<_> = joins.into_iter().map(|j| j.join()).collect();
            let panicked: Vec<usize> = (0..n).filter(|&r| results[r].is_err()).collect();
            assert_eq!(panicked.len(), 1, "group {g}: exactly one rank panics");
            let culprit = panicked[0];
            for (rank, res) in results.into_iter().enumerate() {
                if rank == culprit {
                    continue;
                }
                let expected = CollectiveError::PeerFailed {
                    rank,
                    peer: culprit,
                    reason: PoisonReason::Panicked,
                };
                let (reduce, barrier) = res.expect("only the reducing rank panics");
                assert_eq!(reduce, expected, "group {g}: rank {rank}'s all_reduce");
                assert_eq!(barrier, expected, "group {g}: rank {rank}'s next barrier");
            }
        }
    });
}
