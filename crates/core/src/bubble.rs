//! Closed-form pipeline-bubble bounds (paper Eqs. 3 and 7).
//!
//! [`Schedule::exact_timing`](crate::Schedule::exact_timing) *measures*
//! the bubble of a concrete schedule; this module states what the paper
//! proves about it in closed form, so callers (notably the configuration
//! search's analytic pre-filter) can bound a candidate's batch time
//! without generating or simulating anything.
//!
//! The bound is a true lower bound on the makespan of *any* of the four
//! schedule kinds under per-kernel costs `f` (forward) and `b`
//! (backward), by a three-part chain argument:
//!
//! 1. **Warm-up.** The last pipeline device's first action is a forward
//!    at a stage `s ≥ N_PP − 1`; the forward chain below it runs
//!    `N_PP − 1` forwards on other devices, strictly earlier.
//! 2. **Serial work.** That device then executes all of its
//!    `N_mb · N_loop` forward/backward kernel pairs on one FIFO stream.
//! 3. **Drain.** Its final action is a backward at a stage
//!    `s ≥ N_PP − 1` (every stage it hosts has index ≥ `N_PP − 1`, and a
//!    device's last action is always a backward); the backward chain
//!    below that stage runs at least `N_PP − 1` more backwards, strictly
//!    later.
//!
//! Summing: `makespan ≥ (N_mb · N_loop + N_PP − 1) · (f + b)`, i.e. the
//! relative overhead over the ideal `N_mb · N_loop · (f + b)` is at least
//! `(N_PP − 1) / (N_mb · N_loop)` — Eq. (3) with `N_loop = 1`, Eq. (7)
//! in general. Communication can only add to this, never subtract, so
//! the bound holds for the simulator's richer cost model too. The
//! breadth-first schedule attains the bound exactly under uniform kernel
//! costs (verified against `exact_timing` in this module's tests).

/// Relative pipeline-bubble overhead `(N_PP − 1) / (N_mb · N_loop)` —
/// Eq. (3) for linear pipelines (`N_loop = 1`), Eq. (7) for looping ones.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn bubble_overhead(n_pp: u32, n_mb: u32, n_loop: u32) -> f64 {
    assert!(n_pp > 0, "N_PP must be positive");
    assert!(n_mb > 0, "N_mb must be positive");
    assert!(n_loop > 0, "N_loop must be positive");
    (n_pp - 1) as f64 / (n_mb as f64 * n_loop as f64)
}

/// Lower bound on the makespan, in the unit of `fwd_cost`/`bwd_cost`:
/// `(N_mb · N_loop + N_PP − 1) · (f + b)`. Exact for breadth-first under
/// uniform costs; a strict underestimate once communication is exposed.
///
/// # Panics
///
/// Panics if any degree argument is zero.
pub fn lower_bound_makespan(
    n_pp: u32,
    n_mb: u32,
    n_loop: u32,
    fwd_cost: u64,
    bwd_cost: u64,
) -> u64 {
    assert!(n_pp > 0, "N_PP must be positive");
    assert!(n_mb > 0, "N_mb must be positive");
    assert!(n_loop > 0, "N_loop must be positive");
    (n_mb as u64 * n_loop as u64 + n_pp as u64 - 1) * (fwd_cost + bwd_cost)
}

/// [`lower_bound_makespan`] with real-valued per-kernel durations, as the
/// search's pre-filter uses it: seconds in, seconds out.
///
/// # Panics
///
/// Panics if any degree argument is zero.
pub fn lower_bound_seconds(
    n_pp: u32,
    n_mb: u32,
    n_loop: u32,
    fwd_seconds: f64,
    bwd_seconds: f64,
) -> f64 {
    assert!(n_pp > 0, "N_PP must be positive");
    assert!(n_mb > 0, "N_mb must be positive");
    assert!(n_loop > 0, "N_loop must be positive");
    (n_mb as f64 * n_loop as f64 + (n_pp - 1) as f64) * (fwd_seconds + bwd_seconds)
}

/// Per-stage-device generalisation of [`lower_bound_seconds`] for
/// heterogeneous pipelines: device `d` has its own kernel costs
/// `(f_d, b_d)`, given as `per_device_costs[d] = (fwd_seconds,
/// bwd_seconds)` in pipeline order.
///
/// The chain argument generalises device by device. Pick any pipeline
/// device `d`. Its first action is a forward at a stage `s ≥ d`, so the
/// forward chain below it runs one forward on each of devices
/// `0, …, d − 1`, strictly earlier; it then executes its own
/// `N_mb · N_loop` serial kernel pairs; and its last action is a
/// backward at a stage `s ≥ d`, whose backward chain runs one backward
/// on each of devices `d − 1, …, 0`, strictly later. Hence for every
/// `d`:
///
/// ```text
/// makespan ≥ N_mb · N_loop · (f_d + b_d) + Σ_{i<d} (f_i + b_i)
/// ```
///
/// and the bound is the maximum over `d`. With uniform costs the
/// maximum is attained at `d = N_PP − 1` and the expression collapses
/// to `(N_mb · N_loop + N_PP − 1) · (f + b)` — exactly
/// [`lower_bound_seconds`] — so this is a strict generalisation, not a
/// second model. On a heterogeneous pipeline the maximising device is
/// usually the slowest one, but not always: a fast device deep in the
/// pipeline can dominate through its warm-up/drain chains.
///
/// # Panics
///
/// Panics if `per_device_costs` is empty or a degree argument is zero.
pub fn lower_bound_seconds_per_stage(
    n_mb: u32,
    n_loop: u32,
    per_device_costs: &[(f64, f64)],
) -> f64 {
    assert!(
        !per_device_costs.is_empty(),
        "a pipeline has at least one device"
    );
    assert!(n_mb > 0, "N_mb must be positive");
    assert!(n_loop > 0, "N_loop must be positive");
    let rounds = n_mb as f64 * n_loop as f64;
    let mut chain_below = 0.0; // Σ_{i<d} (f_i + b_i)
    let mut best = 0.0f64;
    for &(f, b) in per_device_costs {
        best = best.max(rounds * (f + b) + chain_below);
        chain_below += f + b;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Schedule, ScheduleKind};
    use bfpp_parallel::Placement;

    #[test]
    fn matches_the_paper_figures() {
        // Eq. (3): GPipe/1F1B with N_PP = 4, N_mb = 8 → 3/8.
        assert!((bubble_overhead(4, 8, 1) - 0.375).abs() < 1e-12);
        // Eq. (7): the lib.rs doctest shape, 3/32.
        assert!((bubble_overhead(4, 8, 4) - 3.0 / 32.0).abs() < 1e-12);
        // No pipeline, no bubble.
        assert_eq!(bubble_overhead(1, 6, 1), 0.0);
    }

    #[test]
    fn seconds_and_slots_agree() {
        let slots = lower_bound_makespan(4, 8, 2, 1, 2) as f64;
        let secs = lower_bound_seconds(4, 8, 2, 1.0, 2.0);
        assert!((slots - secs).abs() < 1e-9);
        // Identity with the overhead form: lb = ideal · (1 + overhead).
        let ideal = 8.0 * 2.0 * 3.0;
        assert!((secs - ideal * (1.0 + bubble_overhead(4, 8, 2))).abs() < 1e-9);
    }

    #[test]
    fn breadth_first_attains_the_bound() {
        // (4, 2, 9): N_mb need not be a multiple of N_PP.
        for (n_pp, n_loop, n_mb) in [(4, 4, 8), (8, 2, 12), (2, 8, 6), (2, 2, 4), (4, 2, 9)] {
            let s = Schedule::generate(
                ScheduleKind::BreadthFirst,
                Placement::looping(n_pp, n_loop),
                n_mb,
            )
            .unwrap();
            assert_eq!(
                s.exact_timing(1, 2).makespan(),
                lower_bound_makespan(n_pp, n_mb, n_loop, 1, 2),
                "pp={n_pp} loop={n_loop} mb={n_mb}"
            );
        }
    }

    #[test]
    fn per_stage_bound_reduces_to_the_homogeneous_form() {
        for (n_pp, n_mb, n_loop, f, b) in [
            (4u32, 8u32, 2u32, 1.0, 2.0),
            (8, 12, 1, 0.3, 0.7),
            (1, 6, 4, 2.0, 2.0),
        ] {
            let uniform = vec![(f, b); n_pp as usize];
            let per_stage = lower_bound_seconds_per_stage(n_mb, n_loop, &uniform);
            let scalar = lower_bound_seconds(n_pp, n_mb, n_loop, f, b);
            assert!(
                (per_stage - scalar).abs() < 1e-12,
                "pp={n_pp}: {per_stage} vs {scalar}"
            );
        }
    }

    #[test]
    fn per_stage_bound_tracks_the_slow_device() {
        // A 4-deep pipeline where device 2 is 4x slower: the bound is
        // dominated by device 2's serial work plus the chain below it,
        // and strictly exceeds both the fast-uniform bound and the
        // naive mean-cost bound.
        let costs = [(1.0, 1.0), (1.0, 1.0), (4.0, 4.0), (1.0, 1.0)];
        let bound = lower_bound_seconds_per_stage(8, 1, &costs);
        assert!((bound - (8.0 * 8.0 + 4.0)).abs() < 1e-12);
        assert!(bound > lower_bound_seconds(4, 8, 1, 1.0, 1.0));
        let mean_f = costs.iter().map(|c| c.0).sum::<f64>() / 4.0;
        let mean_b = costs.iter().map(|c| c.1).sum::<f64>() / 4.0;
        assert!(bound > lower_bound_seconds(4, 8, 1, mean_f, mean_b));
        // A fast device deep in the pipeline can still dominate via its
        // warm-up/drain chains when the slow device sits early.
        let early_slow = [(10.0, 10.0), (1.0, 1.0)];
        let b2 = lower_bound_seconds_per_stage(1, 1, &early_slow);
        assert!((b2 - (1.0 * 2.0 + 20.0)).abs() < 1e-12);
    }

    #[test]
    fn no_schedule_beats_the_bound() {
        // The soundness property the search's pruning relies on, checked
        // over every kind and a grid of shapes and kernel-cost ratios.
        for kind in ScheduleKind::ALL {
            for n_pp in [1u32, 2, 4] {
                for n_loop in [1u32, 2, 4] {
                    if n_loop > 1 && !kind.supports_looping() {
                        continue;
                    }
                    for n_mb in [1u32, 4, 8, 12] {
                        let placement = Placement::looping(n_pp, n_loop);
                        let Ok(s) = Schedule::generate(kind, placement, n_mb) else {
                            continue;
                        };
                        for (f, b) in [(1u64, 1u64), (1, 2), (3, 5)] {
                            let measured = s.exact_timing(f, b).makespan();
                            let bound = lower_bound_makespan(n_pp, n_mb, n_loop, f, b);
                            assert!(
                                measured >= bound,
                                "{kind} pp={n_pp} loop={n_loop} mb={n_mb} f={f} b={b}: \
                                 {measured} < {bound}"
                            );
                        }
                    }
                }
            }
        }
    }
}
