//! The [`Schedule`] type and its generators.

use std::error::Error;
use std::fmt;

use bfpp_parallel::Placement;

use crate::action::Action;
use crate::generators;

/// The four pipeline schedules compared in the paper (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// Non-looped, forward-first (Huang et al. 2018).
    GPipe,
    /// Non-looped, one-forward-one-backward (Harlap et al. 2018).
    OneFOneB,
    /// Looped, depth-first: micro-batches in sequences of `N_PP`,
    /// interleaved 1F1B (Narayanan et al. 2021).
    DepthFirst,
    /// Looped, breadth-first: all micro-batches per stage, forward-first —
    /// the paper's schedule.
    BreadthFirst,
}

impl ScheduleKind {
    /// All kinds, in the paper's baseline-to-contribution order.
    pub const ALL: [ScheduleKind; 4] = [
        ScheduleKind::GPipe,
        ScheduleKind::OneFOneB,
        ScheduleKind::DepthFirst,
        ScheduleKind::BreadthFirst,
    ];

    /// Whether this schedule supports a looping placement (`N_loop > 1`).
    pub fn supports_looping(self) -> bool {
        matches!(self, ScheduleKind::DepthFirst | ScheduleKind::BreadthFirst)
    }
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ScheduleKind::GPipe => "gpipe",
            ScheduleKind::OneFOneB => "1f1b",
            ScheduleKind::DepthFirst => "depth-first",
            ScheduleKind::BreadthFirst => "breadth-first",
        })
    }
}

/// Why a schedule could not be generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// GPipe / 1F1B require a linear placement (`N_loop == 1`).
    LoopingNotSupported {
        /// The offending kind.
        kind: ScheduleKind,
        /// The requested loop count.
        n_loop: u32,
    },
    /// The depth-first schedule constrains `N_mb` to a multiple of `N_PP`
    /// (§4.1).
    MicrobatchesNotMultipleOfPipeline {
        /// Requested micro-batches.
        n_mb: u32,
        /// Pipeline degree.
        n_pp: u32,
    },
    /// Fewer micro-batches than the pipeline needs to be well-defined.
    NoMicrobatches,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::LoopingNotSupported { kind, n_loop } => {
                write!(
                    f,
                    "{kind} does not support looping placements (N_loop = {n_loop})"
                )
            }
            ScheduleError::MicrobatchesNotMultipleOfPipeline { n_mb, n_pp } => write!(
                f,
                "depth-first requires N_mb ({n_mb}) to be a multiple of N_PP ({n_pp})"
            ),
            ScheduleError::NoMicrobatches => f.write_str("at least one micro-batch is required"),
        }
    }
}

impl Error for ScheduleError {}

/// A complete pipeline schedule: per pipeline device, the exact order of
/// forward/backward actions it executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    kind: ScheduleKind,
    placement: Placement,
    n_mb: u32,
    /// Indexed by pipeline device; each inner vec is execution order.
    device_actions: Vec<Vec<Action>>,
}

impl Schedule {
    /// Generates the schedule of the given kind for `placement` and
    /// `n_mb` micro-batches.
    ///
    /// # Errors
    ///
    /// * [`ScheduleError::LoopingNotSupported`] for GPipe / 1F1B with
    ///   `N_loop > 1`;
    /// * [`ScheduleError::MicrobatchesNotMultipleOfPipeline`] for
    ///   depth-first when `N_mb % N_PP != 0`;
    /// * [`ScheduleError::NoMicrobatches`] when `n_mb == 0`.
    pub fn generate(
        kind: ScheduleKind,
        placement: Placement,
        n_mb: u32,
    ) -> Result<Schedule, ScheduleError> {
        if n_mb == 0 {
            return Err(ScheduleError::NoMicrobatches);
        }
        if !kind.supports_looping() && placement.is_looping() {
            return Err(ScheduleError::LoopingNotSupported {
                kind,
                n_loop: placement.n_loop(),
            });
        }
        let device_actions = match kind {
            ScheduleKind::GPipe => generators::gpipe(placement, n_mb),
            ScheduleKind::OneFOneB => generators::one_f_one_b(placement, n_mb),
            ScheduleKind::BreadthFirst => generators::breadth_first(placement, n_mb),
            ScheduleKind::DepthFirst => {
                if !n_mb.is_multiple_of(placement.n_pp()) {
                    return Err(ScheduleError::MicrobatchesNotMultipleOfPipeline {
                        n_mb,
                        n_pp: placement.n_pp(),
                    });
                }
                generators::depth_first(placement, n_mb)
            }
        };
        Ok(Schedule {
            kind,
            placement,
            n_mb,
            device_actions,
        })
    }

    /// The schedule's kind.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// The placement this schedule was generated for.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Number of micro-batches (`N_mb`).
    pub fn num_microbatches(&self) -> u32 {
        self.n_mb
    }

    /// Pipeline degree (`N_PP`).
    pub fn n_pp(&self) -> u32 {
        self.placement.n_pp()
    }

    /// The ordered action list of a pipeline device.
    ///
    /// # Panics
    ///
    /// Panics if `device >= N_PP`.
    pub fn device_actions(&self, device: u32) -> &[Action] {
        &self.device_actions[device as usize]
    }

    /// Iterates over `(device, actions)` pairs.
    pub fn devices(&self) -> impl Iterator<Item = (u32, &[Action])> {
        self.device_actions
            .iter()
            .enumerate()
            .map(|(d, a)| (d as u32, a.as_slice()))
    }

    /// Total number of actions across all devices
    /// (`2 · N_mb · N_stage`).
    pub fn num_actions(&self) -> usize {
        self.device_actions.iter().map(Vec::len).sum()
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} schedule, {} micro-batches, {}",
            self.kind, self.n_mb, self.placement
        )?;
        for (d, actions) in self.devices() {
            write!(f, "  dev{d}:")?;
            for a in actions {
                write!(f, " {a}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_generate_for_linear_placement() {
        let p = Placement::linear(4);
        for kind in ScheduleKind::ALL {
            let s = Schedule::generate(kind, p, 8).unwrap();
            assert_eq!(s.num_actions(), 2 * 8 * 4, "{kind}");
            assert_eq!(s.kind(), kind);
        }
    }

    #[test]
    fn non_looping_kinds_reject_looping_placement() {
        let p = Placement::looping(4, 2);
        for kind in [ScheduleKind::GPipe, ScheduleKind::OneFOneB] {
            let err = Schedule::generate(kind, p, 8).unwrap_err();
            assert!(matches!(err, ScheduleError::LoopingNotSupported { .. }));
            assert!(err.to_string().contains("looping"));
        }
    }

    #[test]
    fn depth_first_requires_multiple_of_pp() {
        let p = Placement::looping(4, 2);
        let err = Schedule::generate(ScheduleKind::DepthFirst, p, 6).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::MicrobatchesNotMultipleOfPipeline { .. }
        ));
        assert!(Schedule::generate(ScheduleKind::DepthFirst, p, 8).is_ok());
    }

    #[test]
    fn zero_microbatches_rejected() {
        let p = Placement::linear(2);
        assert_eq!(
            Schedule::generate(ScheduleKind::GPipe, p, 0).unwrap_err(),
            ScheduleError::NoMicrobatches
        );
    }

    #[test]
    fn breadth_first_supports_looping() {
        let p = Placement::looping(4, 4);
        let s = Schedule::generate(ScheduleKind::BreadthFirst, p, 8).unwrap();
        assert_eq!(s.num_actions(), 2 * 8 * 16);
    }

    #[test]
    fn display_lists_devices() {
        let p = Placement::linear(2);
        let s = Schedule::generate(ScheduleKind::GPipe, p, 2).unwrap();
        let text = s.to_string();
        assert!(text.contains("dev0:"));
        assert!(text.contains("dev1:"));
        assert!(text.contains("F0@s0"));
    }
}
