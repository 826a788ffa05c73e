//! Activation-checkpoint residency (paper Appendix A.2.2).
//!
//! Under activation checkpointing, one checkpoint per (micro-batch, stage)
//! is written when the stage's forward completes and freed when its
//! backward completes. The peak number of simultaneously live checkpoints
//! per device depends on the schedule: GPipe and breadth-first keep all
//! `N_mb · N_loop` alive at the forward/backward boundary, while 1F1B and
//! depth-first retire early micro-batches sooner.

use crate::action::Direction;
use crate::schedule::Schedule;

impl Schedule {
    /// Peak number of live activation checkpoints per device under the
    /// schedule's execution. Each checkpoint is one (micro-batch, stage)
    /// pair hosted by that device; multiply by the per-checkpoint bytes
    /// (`bfpp_model::checkpoint_memory_per_layer_bytes` × layers per
    /// stage) for a memory figure.
    ///
    /// A checkpoint is written when its forward ends and freed when its
    /// backward ends. A device runs its actions one after another in
    /// schedule order, so its action end times strictly increase along
    /// that order under any positive costs: the peak is the largest
    /// prefix sum of +1 (forward) / −1 (backward) over the device's
    /// action list, with no timing pass.
    pub fn peak_checkpoints_per_device(&self) -> Vec<u32> {
        self.devices()
            .map(|(_, actions)| {
                let mut live = 0i32;
                let mut peak = 0i32;
                for a in actions {
                    live += match a.dir {
                        Direction::Forward => 1,
                        Direction::Backward => -1,
                    };
                    peak = peak.max(live);
                }
                peak as u32
            })
            .collect()
    }

    /// The worst device's peak checkpoint count.
    pub fn peak_checkpoints(&self) -> u32 {
        self.peak_checkpoints_per_device()
            .into_iter()
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ScheduleKind;
    use bfpp_parallel::Placement;

    #[test]
    fn gpipe_peaks_at_all_microbatches() {
        let s = Schedule::generate(ScheduleKind::GPipe, Placement::linear(4), 8).unwrap();
        // Every device holds all 8 checkpoints at the fwd/bwd boundary.
        assert_eq!(s.peak_checkpoints_per_device(), vec![8, 8, 8, 8]);
    }

    #[test]
    fn breadth_first_peaks_at_mb_times_loop() {
        let s =
            Schedule::generate(ScheduleKind::BreadthFirst, Placement::looping(4, 2), 8).unwrap();
        // N_mb · N_loop = 16 per device (Eq. 14 first ratio).
        assert_eq!(s.peak_checkpoints(), 16);
    }

    #[test]
    fn one_f_one_b_uses_less_than_gpipe() {
        // §3.2: "PP_1f1b uses less activation memory".
        let n_mb = 16;
        let g = Schedule::generate(ScheduleKind::GPipe, Placement::linear(4), n_mb).unwrap();
        let o = Schedule::generate(ScheduleKind::OneFOneB, Placement::linear(4), n_mb).unwrap();
        assert!(o.peak_checkpoints() < g.peak_checkpoints());
        // 1F1B caps the in-flight micro-batches near N_PP on device 0.
        assert!(o.peak_checkpoints_per_device()[0] <= 4 + 1);
    }

    #[test]
    fn one_f_one_b_earlier_devices_hold_more() {
        let o = Schedule::generate(ScheduleKind::OneFOneB, Placement::linear(4), 16).unwrap();
        let peaks = o.peak_checkpoints_per_device();
        assert!(peaks[0] >= peaks[3]);
    }

    #[test]
    fn depth_first_uses_less_than_breadth_first_at_large_mb() {
        // §4.1: the depth-first schedule "allows lowering the activation
        // memory but only for a large number of micro-batches".
        let p = Placement::looping(4, 2);
        let df = Schedule::generate(ScheduleKind::DepthFirst, p, 32).unwrap();
        let bf = Schedule::generate(ScheduleKind::BreadthFirst, p, 32).unwrap();
        assert!(df.peak_checkpoints() < bf.peak_checkpoints());
    }

    #[test]
    fn small_pipeline_single_microbatch() {
        let s = Schedule::generate(ScheduleKind::GPipe, Placement::linear(1), 1).unwrap();
        assert_eq!(s.peak_checkpoints(), 1);
    }

    /// The live-checkpoint count replayed on the exact unit-cost timing:
    /// +1 at each forward end, −1 at each backward end, time-sorted with
    /// allocation before freeing at equal timestamps.
    fn peaks_on_exact_timing(s: &Schedule) -> Vec<u32> {
        let timing = s.exact_timing(1, 2);
        (0..s.n_pp())
            .map(|d| {
                let mut events: Vec<(u64, i32)> = timing
                    .device_timings(d)
                    .iter()
                    .map(|t| match t.action.dir {
                        Direction::Forward => (t.end, 1),
                        Direction::Backward => (t.end, -1),
                    })
                    .collect();
                events.sort_by_key(|&(time, delta)| (time, -delta));
                let (mut live, mut peak) = (0i32, 0i32);
                for (_, delta) in events {
                    live += delta;
                    peak = peak.max(live);
                }
                peak as u32
            })
            .collect()
    }

    #[test]
    fn action_order_peaks_equal_exact_timing_peaks() {
        for kind in ScheduleKind::ALL {
            for (n_pp, n_loop) in [(1, 1), (2, 1), (4, 1), (4, 2), (4, 4), (8, 2)] {
                let p = if n_loop == 1 {
                    Placement::linear(n_pp)
                } else {
                    Placement::looping(n_pp, n_loop)
                };
                for n_mb in [1, 2, 3, 4, 8, 12, 16] {
                    let Ok(s) = Schedule::generate(kind, p, n_mb) else {
                        continue;
                    };
                    assert_eq!(
                        s.peak_checkpoints_per_device(),
                        peaks_on_exact_timing(&s),
                        "{kind} {p} n_mb={n_mb}"
                    );
                }
            }
        }
    }
}
