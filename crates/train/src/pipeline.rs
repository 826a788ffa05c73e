//! The multi-threaded pipeline executor.
//!
//! One OS thread per (pipeline device, data-parallel replica). Each
//! thread executes its device's [`bfpp_core::Schedule`] action list
//! **verbatim**: forward actions receive activations from the upstream
//! stage over a crossbeam channel, run the stage, and send downstream;
//! backward actions mirror this with gradients. Data parallelism uses the
//! deterministic thread collectives of [`bfpp_collectives::thread`]:
//!
//! * `DP_0` — gradients accumulate locally and are all-reduced once per
//!   stage at the end of the batch;
//! * `DP_PS` — gradients are reduce-scattered, each replica updates its
//!   shard, and the updated weights are all-gathered (ZeRO-2);
//! * `DP_FS` — weights live as shards; before every contiguous
//!   same-(stage, direction) run of the schedule the stage's weights are
//!   all-gathered, and at the end of every backward run the accumulated
//!   gradients are flushed with a reduce-scatter (ZeRO-3, with exactly
//!   the per-schedule repetition the paper analyzes in §4.2 — one
//!   gather/flush pair per run, so breadth-first pays the minimum).
//!
//! # Fault handling
//!
//! Every device thread runs inside a panic-catching harness. A thread
//! that panics, loses a channel peer, or sees a collective fail does not
//! strand the rest of the step:
//!
//! * its channel endpoints drop, so pipeline neighbours blocked on
//!   send/recv fail fast with a typed channel error;
//! * its data-parallel communication group is *poisoned*, so replicas
//!   blocked in a collective return
//!   [`bfpp_collectives::thread::CollectiveError::PeerFailed`] instead of
//!   hanging (with the group's rendezvous deadline as a backstop);
//! * the step as a whole returns a [`TrainError`] identifying the device
//!   and replica where the failure *originated* (injected faults and
//!   panics outrank the secondary channel/collective errors they cause).
//!
//! [`try_run_batch_stateful`] surfaces these errors; [`run_batch`] and
//! [`run_batch_stateful`] keep their infallible signatures and panic on
//! them. [`run_batch_with_retry`] retries a failed step from pristine
//! inputs with bounded exponential backoff, for transient faults
//! (injected via [`FaultPlan`] in tests and resilience experiments).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bfpp_collectives::thread::{CollectiveError, CommGroup, CommHandle, PoisonReason};
use bfpp_core::{Direction, Schedule, ScheduleKind};
use bfpp_parallel::{DataParallelism, Placement, StageId};
use bfpp_sim::MetricsRegistry;
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::layers::Stage;
use crate::loss::mse;
use crate::optim::{OptimizerKind, OptimizerState};
use crate::tensor::Tensor;

/// Configuration of one pipelined training step.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Pipeline schedule to execute.
    pub kind: ScheduleKind,
    /// Stage placement (defines `N_PP`, `N_loop`).
    pub placement: Placement,
    /// Sequential micro-batches per replica.
    pub n_mb: u32,
    /// Data-parallel replicas.
    pub n_dp: u32,
    /// Sharding level.
    pub dp: DataParallelism,
    /// The optimizer (its state is sharded across replicas under
    /// `DP_PS`/`DP_FS`, exactly as ZeRO shards it).
    pub optimizer: OptimizerKind,
    /// Quantize stage-boundary traffic (activations and their gradients)
    /// through binary16, as the paper's half-precision transfers do. The
    /// parameters and optimizer state stay fp32 (the "mixed precision"
    /// of §A.1).
    pub half_comms: bool,
}

/// The outcome of one pipelined training step.
#[derive(Debug)]
pub struct TrainResult {
    /// Updated stages (replica 0's view; all replicas are asserted
    /// identical by the collectives' determinism).
    pub stages: Vec<Stage>,
    /// Per-micro-batch losses in global order (replica-major).
    pub losses: Vec<f32>,
    /// Final reduced gradients per stage (full length, identical on all
    /// replicas).
    pub gradients: Vec<Vec<f32>>,
    /// Mean loss over the batch.
    pub mean_loss: f32,
}

/// Why a device thread failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureReason {
    /// The thread panicked; the payload message is preserved.
    Panicked(String),
    /// A data-parallel collective failed (peer died or rendezvous timed
    /// out).
    Collective(CollectiveError),
    /// A pipeline stage-boundary channel disconnected (the peer device
    /// thread is gone).
    ChannelClosed {
        /// What the thread was doing when the channel died.
        what: &'static str,
    },
    /// A [`FaultPlan`] fired with [`FaultKind::Error`].
    InjectedFault,
}

impl FailureReason {
    /// Primary reasons are root causes; channel/collective errors are
    /// usually secondary damage radiating from one.
    fn is_primary(&self) -> bool {
        matches!(
            self,
            FailureReason::Panicked(_) | FailureReason::InjectedFault
        )
    }
}

impl fmt::Display for FailureReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureReason::Panicked(msg) => write!(f, "panicked: {msg}"),
            FailureReason::Collective(e) => write!(f, "collective failed: {e}"),
            FailureReason::ChannelClosed { what } => {
                write!(f, "pipeline channel closed while {what}")
            }
            FailureReason::InjectedFault => f.write_str("injected transient fault"),
        }
    }
}

/// A pipelined training step failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// A device thread failed; the step's partial work was discarded.
    DeviceFailed {
        /// Pipeline device of the failing thread.
        device: u32,
        /// Data-parallel replica of the failing thread.
        replica: u32,
        /// Why it failed.
        reason: FailureReason,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::DeviceFailed {
                device,
                replica,
                reason,
            } => write!(
                f,
                "pipeline step failed: device {device} (replica {replica}) {reason}"
            ),
        }
    }
}

impl Error for TrainError {}

/// How an injected fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The device thread panics (exercises the catch/poison path).
    Panic,
    /// The device thread returns a typed error (exercises graceful
    /// shutdown).
    Error,
}

/// A deterministic fault to inject into one device thread, for tests and
/// resilience experiments. The fault fires at the device's first backward
/// action, once per run attempt, until its budget is exhausted — so a
/// budget of `k` makes the first `k` attempts fail and every later one
/// succeed (a *transient* fault under retry).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Pipeline device to sabotage.
    pub device: u32,
    /// Data-parallel replica to sabotage.
    pub replica: u32,
    /// How the fault manifests.
    pub kind: FaultKind,
    budget: Arc<AtomicU32>,
}

impl FaultPlan {
    /// A fault on `(device, replica)` that fires on the first
    /// `failing_attempts` run attempts (clones share the budget).
    pub fn transient(device: u32, replica: u32, failing_attempts: u32, kind: FaultKind) -> Self {
        FaultPlan {
            device,
            replica,
            kind,
            budget: Arc::new(AtomicU32::new(failing_attempts)),
        }
    }

    /// Consumes one unit of budget; true if the fault should fire now.
    fn fire(&self) -> bool {
        self.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
            .is_ok()
    }
}

/// Bounded retry with exponential backoff for [`run_batch_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Sleep before retry `k` is `backoff * 2^(k-1)`.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::from_millis(5),
        }
    }
}

/// Fault-handling knobs of one pipelined step. Kept separate from
/// [`TrainSpec`] (which describes the *training computation*) so specs
/// stay comparable across runs regardless of harness settings.
#[derive(Debug, Clone, Default)]
pub struct HarnessOptions {
    /// Fault to inject, if any.
    pub fault: Option<FaultPlan>,
    /// Retry policy for [`run_batch_with_retry`].
    pub retry: RetryPolicy,
    /// Rendezvous deadline for the data-parallel collectives; `None`
    /// uses [`bfpp_collectives::thread::DEFAULT_TIMEOUT`].
    pub collective_timeout: Option<Duration>,
}

/// A message crossing a stage boundary.
type Packet = (u32, Tensor);

struct Wiring {
    fwd_send: Vec<Option<Sender<Packet>>>,
    fwd_recv: Vec<Option<Receiver<Packet>>>,
    bwd_send: Vec<Option<Sender<Packet>>>,
    bwd_recv: Vec<Option<Receiver<Packet>>>,
}

/// What one device thread hands back.
struct DeviceOutcome {
    replica: u32,
    /// (stage, updated stage object, final full gradient, advanced
    /// optimizer state — shard-sized under sharded DP).
    stages: Vec<(StageId, Stage, Vec<f32>, OptimizerState)>,
    /// (micro-batch, loss) pairs if this device owns the last stage.
    losses: Vec<(u32, f32)>,
}

/// Runs one training step of `spec` starting from `stages` (the full
/// model, one entry per global stage, replicated to every data-parallel
/// worker internally) on `inputs`/`targets` (`n_dp · n_mb` micro-batches,
/// replica-major).
///
/// # Panics
///
/// Panics if shapes disagree with the spec, or the schedule cannot be
/// generated (e.g. depth-first with `n_mb` not a multiple of `N_PP`),
/// or a device thread fails (see [`try_run_batch_stateful`] for the
/// fallible form — device panics are caught there and surfaced as
/// [`TrainError`]; peers fail fast instead of hanging).
pub fn run_batch(
    spec: &TrainSpec,
    stages: Vec<Stage>,
    inputs: &[Tensor],
    targets: &[Tensor],
) -> TrainResult {
    let states = stages
        .iter()
        .map(|s| spec.optimizer.init_state(s.num_params()))
        .collect();
    run_batch_stateful(spec, stages, states, inputs, targets).0
}

/// Stateful form of [`run_batch`]: carries one full-length optimizer
/// state per stage across steps. Internally the state is distributed
/// exactly as ZeRO distributes it — replicated for `DP_0`, sharded per
/// replica for `DP_PS`/`DP_FS` — and reassembled on return.
///
/// # Panics
///
/// As [`run_batch`], plus if `states` does not hold one state per stage.
pub fn run_batch_stateful(
    spec: &TrainSpec,
    stages: Vec<Stage>,
    states: Vec<OptimizerState>,
    inputs: &[Tensor],
    targets: &[Tensor],
) -> (TrainResult, Vec<OptimizerState>) {
    try_run_batch_stateful(
        spec,
        stages,
        states,
        inputs,
        targets,
        &HarnessOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{e}"))
}

/// As [`run_batch_stateful`] with explicit [`HarnessOptions`], returning
/// [`TrainError`] instead of panicking when a device thread fails: the
/// failing thread's panic is caught, its communication group is poisoned
/// so data-parallel peers unblock, its channels disconnect so pipeline
/// neighbours fail fast, and the error names the device and replica
/// where the failure originated.
///
/// # Errors
///
/// [`TrainError::DeviceFailed`] when any device thread panics, loses a
/// peer, fails a collective, or trips an injected fault.
///
/// # Panics
///
/// Panics on *caller* contract violations: shape mismatches with the
/// spec, an ungenerable schedule, or a `states`/`stages` length mismatch
/// (all detected before any thread spawns).
pub fn try_run_batch_stateful(
    spec: &TrainSpec,
    stages: Vec<Stage>,
    states: Vec<OptimizerState>,
    inputs: &[Tensor],
    targets: &[Tensor],
    harness: &HarnessOptions,
) -> Result<(TrainResult, Vec<OptimizerState>), TrainError> {
    let n_stage = spec.placement.num_stages();
    assert_eq!(states.len(), stages.len(), "one optimizer state per stage");
    let n_pp = spec.placement.n_pp();
    let n_dp = spec.n_dp;
    assert_eq!(
        stages.len(),
        n_stage as usize,
        "one Stage per placement stage required"
    );
    assert_eq!(
        inputs.len(),
        (n_dp * spec.n_mb) as usize,
        "inputs must hold n_dp * n_mb micro-batches"
    );
    assert_eq!(inputs.len(), targets.len(), "inputs/targets mismatch");

    let schedule = Schedule::generate(spec.kind, spec.placement, spec.n_mb)
        .expect("schedule must be generable for the spec");
    schedule.validate().expect("generated schedules are valid");

    // Per-pipeline-device communication groups across replicas.
    let comm_timeout = harness
        .collective_timeout
        .unwrap_or(bfpp_collectives::thread::DEFAULT_TIMEOUT);
    let mut comms: Vec<Vec<CommHandle>> = (0..n_pp)
        .map(|_| CommGroup::with_timeout(n_dp as usize, comm_timeout))
        .collect();

    // Channels per replica per boundary.
    let mut wirings: Vec<Wiring> = Vec::with_capacity(n_dp as usize);
    for _ in 0..n_dp {
        let mut w = Wiring {
            fwd_send: Vec::new(),
            fwd_recv: Vec::new(),
            bwd_send: Vec::new(),
            bwd_recv: Vec::new(),
        };
        for _ in 0..n_stage.saturating_sub(1) {
            let (fs, fr) = unbounded();
            let (bs, br) = unbounded();
            w.fwd_send.push(Some(fs));
            w.fwd_recv.push(Some(fr));
            w.bwd_send.push(Some(bs));
            w.bwd_recv.push(Some(br));
        }
        wirings.push(w);
    }

    // (device, replica, what the thread produced), in spawn order.
    let mut results: Vec<(u32, u32, Result<DeviceOutcome, FailureReason>)> = Vec::new();
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for r in 0..n_dp {
            for d in 0..n_pp {
                let my_stages: Vec<(StageId, Stage)> = spec
                    .placement
                    .stages_of_device(d)
                    .into_iter()
                    .map(|s| (s, stages[s.0 as usize].clone()))
                    .collect();
                // Distribute optimizer state: replicated under DP_0,
                // rank-sharded under DP_PS/DP_FS (the ZeRO layout).
                let my_states: Vec<OptimizerState> = my_stages
                    .iter()
                    .map(|(sid, stage)| {
                        let full = &states[sid.0 as usize];
                        if spec.dp == DataParallelism::Unsharded || n_dp == 1 {
                            full.clone()
                        } else {
                            let sl = stage.num_params().div_ceil(n_dp as usize);
                            full.resized(sl * n_dp as usize)
                                .shard(r as usize * sl..(r as usize + 1) * sl)
                        }
                    })
                    .collect();
                let comm = comms[d as usize].remove(0);
                // Hand each thread only the channel endpoints it actually
                // uses (moved out, not cloned): if a peer dies, its
                // endpoints drop, the channel disconnects, and blocked
                // threads fail fast instead of deadlocking.
                let owns = |s: u32| spec.placement.device_of_stage(StageId(s)) == d;
                let wiring = &mut wirings[r as usize];
                let n_bounds = wiring.fwd_send.len();
                let mut fwd_send: Vec<Option<Sender<Packet>>> = vec![None; n_bounds];
                let mut bwd_recv: Vec<Option<Receiver<Packet>>> = vec![None; n_bounds];
                let mut fwd_recv: Vec<Option<Receiver<Packet>>> = vec![None; n_bounds];
                let mut bwd_send: Vec<Option<Sender<Packet>>> = vec![None; n_bounds];
                for b in 0..n_bounds as u32 {
                    // Boundary b sits between stage b and stage b+1.
                    if owns(b) {
                        fwd_send[b as usize] = wiring.fwd_send[b as usize].take();
                        bwd_recv[b as usize] = wiring.bwd_recv[b as usize].take();
                    }
                    if owns(b + 1) {
                        fwd_recv[b as usize] = wiring.fwd_recv[b as usize].take();
                        bwd_send[b as usize] = wiring.bwd_send[b as usize].take();
                    }
                }
                let my_inputs: Vec<Tensor> =
                    inputs[(r * spec.n_mb) as usize..((r + 1) * spec.n_mb) as usize].to_vec();
                let my_targets: Vec<Tensor> =
                    targets[(r * spec.n_mb) as usize..((r + 1) * spec.n_mb) as usize].to_vec();
                let schedule = &schedule;
                let spec = spec.clone();
                let fault = harness.fault.clone();
                handles.push((
                    d,
                    r,
                    scope.spawn(move || {
                        // Catch panics so one bad device cannot tear the whole
                        // process down, then poison its collective group so
                        // replicas blocked in a rendezvous unblock. Channel
                        // endpoints are owned by `device_main`, so either exit
                        // path drops them and pipeline neighbours fail fast.
                        let caught = catch_unwind(AssertUnwindSafe(|| {
                            device_main(
                                &spec,
                                schedule,
                                d,
                                r,
                                my_stages,
                                my_states,
                                &comm,
                                fwd_send,
                                fwd_recv,
                                bwd_send,
                                bwd_recv,
                                my_inputs,
                                my_targets,
                                fault.as_ref(),
                            )
                        }));
                        match caught {
                            Ok(Ok(outcome)) => Ok(outcome),
                            Ok(Err(reason)) => {
                                comm.poison(PoisonReason::Shutdown);
                                Err(reason)
                            }
                            Err(payload) => {
                                comm.poison(PoisonReason::Panicked);
                                Err(FailureReason::Panicked(panic_message(payload.as_ref())))
                            }
                        }
                    }),
                ));
            }
        }
        for (d, r, h) in handles {
            // `join` only fails if the harness itself panicked (the device
            // body is behind `catch_unwind`); fold that into a failure too.
            let res = h.join().unwrap_or_else(|payload| {
                Err(FailureReason::Panicked(panic_message(payload.as_ref())))
            });
            results.push((d, r, res));
        }
    });

    let mut outcomes: Vec<DeviceOutcome> = Vec::with_capacity(results.len());
    let mut failures: Vec<(u32, u32, FailureReason)> = Vec::new();
    for (d, r, res) in results {
        match res {
            Ok(o) => outcomes.push(o),
            Err(reason) => failures.push((d, r, reason)),
        }
    }
    if !failures.is_empty() {
        // Report the root cause: a panic or injected fault outranks the
        // channel/collective errors it radiates to the other threads.
        // Ties break by spawn order.
        let idx = failures
            .iter()
            .position(|(_, _, reason)| reason.is_primary())
            .unwrap_or(0);
        let (device, replica, reason) = failures.swap_remove(idx);
        return Err(TrainError::DeviceFailed {
            device,
            replica,
            reason,
        });
    }

    let stage_sizes: Vec<usize> = stages.iter().map(Stage::num_params).collect();
    Ok(assemble(spec, stages.len(), &stage_sizes, outcomes))
}

/// Retries [`try_run_batch_stateful`] per `harness.retry`, restarting
/// each attempt from the pristine `stages`/`states` the caller passed —
/// so a step that eventually succeeds is bit-identical to one that never
/// failed. Sleeps `backoff * 2^(k-1)` before retry `k`.
///
/// # Errors
///
/// The last attempt's [`TrainError`] once retries are exhausted.
pub fn run_batch_with_retry(
    spec: &TrainSpec,
    stages: &[Stage],
    states: &[OptimizerState],
    inputs: &[Tensor],
    targets: &[Tensor],
    harness: &HarnessOptions,
) -> Result<(TrainResult, Vec<OptimizerState>), TrainError> {
    run_batch_with_retry_instrumented(
        spec,
        stages,
        states,
        inputs,
        targets,
        harness,
        &MetricsRegistry::new(),
    )
}

/// [`run_batch_with_retry`], recording what the harness did into
/// `metrics`: `train_attempts_total` (total tries),
/// `train_retries_total` (tries after a failure), per-root-cause
/// failure counts (`train_failures_<cause>_total`), and one
/// `train_attempt_ns` / `train_backoff_ns` wall-clock sample per attempt
/// and per backoff sleep. Metrics are only ever added to, so one
/// registry can instrument a whole run of steps.
///
/// # Errors
///
/// As [`run_batch_with_retry`].
#[allow(clippy::too_many_arguments)]
pub fn run_batch_with_retry_instrumented(
    spec: &TrainSpec,
    stages: &[Stage],
    states: &[OptimizerState],
    inputs: &[Tensor],
    targets: &[Tensor],
    harness: &HarnessOptions,
    metrics: &MetricsRegistry,
) -> Result<(TrainResult, Vec<OptimizerState>), TrainError> {
    let mut attempt = 0u32;
    loop {
        metrics.counter_incr("train_attempts_total");
        let started = Instant::now();
        let result = try_run_batch_stateful(
            spec,
            stages.to_vec(),
            states.to_vec(),
            inputs,
            targets,
            harness,
        );
        metrics.observe_duration("train_attempt_ns", started.elapsed());
        match result {
            Ok(out) => return Ok(out),
            Err(e) if attempt < harness.retry.max_retries => {
                metrics.counter_incr(&failure_counter(&e));
                metrics.counter_incr("train_retries_total");
                attempt += 1;
                let exp = 1u32 << (attempt - 1).min(16);
                let started = Instant::now();
                thread::sleep(harness.retry.backoff.saturating_mul(exp));
                metrics.observe_duration("train_backoff_ns", started.elapsed());
            }
            Err(e) => {
                metrics.counter_incr(&failure_counter(&e));
                return Err(e);
            }
        }
    }
}

/// Counter name for a failed attempt, keyed by the root cause so a sweep
/// can distinguish injected faults from timeouts from genuine panics.
fn failure_counter(e: &TrainError) -> String {
    let kind = match e {
        TrainError::DeviceFailed { reason, .. } => match reason {
            FailureReason::InjectedFault => "injected",
            FailureReason::Panicked(_) => "panicked",
            FailureReason::Collective(_) => "collective",
            FailureReason::ChannelClosed { .. } => "channel",
        },
    };
    format!("train_failures_{kind}_total")
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn assemble(
    spec: &TrainSpec,
    n_stage: usize,
    stage_sizes: &[usize],
    outcomes: Vec<DeviceOutcome>,
) -> (TrainResult, Vec<OptimizerState>) {
    let mut stages: Vec<Option<Stage>> = (0..n_stage).map(|_| None).collect();
    let mut gradients: Vec<Vec<f32>> = vec![Vec::new(); n_stage];
    let mut losses: Vec<(u32, u32, f32)> = Vec::new();
    // Per stage, per replica: the returned optimizer state shard.
    let mut state_shards: Vec<Vec<Option<OptimizerState>>> = (0..n_stage)
        .map(|_| vec![None; spec.n_dp as usize])
        .collect();
    for o in outcomes {
        for (sid, stage, grad, state) in o.stages {
            state_shards[sid.0 as usize][o.replica as usize] = Some(state);
            if o.replica == 0 {
                stages[sid.0 as usize] = Some(stage);
                gradients[sid.0 as usize] = grad;
            }
        }
        for (mb, l) in o.losses {
            losses.push((o.replica, mb, l));
        }
    }
    let states: Vec<OptimizerState> = state_shards
        .into_iter()
        .enumerate()
        .map(|(si, shards)| {
            let shards: Vec<OptimizerState> = shards
                .into_iter()
                .map(|s| s.expect("state returned"))
                .collect();
            if spec.dp == DataParallelism::Unsharded || spec.n_dp == 1 {
                // Replicated: all identical; keep replica 0's.
                shards.into_iter().next().expect("replica 0")
            } else {
                OptimizerState::concat(&shards).resized(stage_sizes[si])
            }
        })
        .collect();
    losses.sort_by_key(|&(r, mb, _)| (r, mb));
    let loss_values: Vec<f32> = losses.iter().map(|&(_, _, l)| l).collect();
    let mean_loss = loss_values.iter().sum::<f32>() / loss_values.len().max(1) as f32;
    assert_eq!(
        loss_values.len(),
        (spec.n_dp * spec.n_mb) as usize,
        "every micro-batch must report a loss"
    );
    (
        TrainResult {
            stages: stages
                .into_iter()
                .map(|s| s.expect("every stage reassembled"))
                .collect(),
            losses: loss_values,
            gradients,
            mean_loss,
        },
        states,
    )
}

/// Pads `v` to a multiple of `n` with zeros.
fn padded(v: &[f32], n: usize) -> Vec<f32> {
    let len = v.len().div_ceil(n) * n;
    let mut out = v.to_vec();
    out.resize(len, 0.0);
    out
}

#[allow(clippy::too_many_arguments)]
fn device_main(
    spec: &TrainSpec,
    schedule: &Schedule,
    device: u32,
    replica: u32,
    mut my_stages: Vec<(StageId, Stage)>,
    mut my_states: Vec<OptimizerState>,
    comm: &CommHandle,
    fwd_send: Vec<Option<Sender<Packet>>>,
    fwd_recv: Vec<Option<Receiver<Packet>>>,
    bwd_send: Vec<Option<Sender<Packet>>>,
    bwd_recv: Vec<Option<Receiver<Packet>>>,
    inputs: Vec<Tensor>,
    targets: Vec<Tensor>,
    fault: Option<&FaultPlan>,
) -> Result<DeviceOutcome, FailureReason> {
    let n_stage = spec.placement.num_stages();
    let n_dp = spec.n_dp as usize;
    let use_fs = spec.dp == DataParallelism::FullySharded;
    let last_stage = StageId(n_stage - 1);

    let stage_index: HashMap<StageId, usize> = my_stages
        .iter()
        .enumerate()
        .map(|(i, (sid, _))| (*sid, i))
        .collect();

    // Gradient accumulators: "pending" holds contributions not yet
    // flushed (FS flushes per backward run; others flush once at the end).
    let mut pending: Vec<Vec<f32>> = my_stages
        .iter()
        .map(|(_, s)| vec![0.0; s.num_params()])
        .collect();
    // FS shards of parameters and of reduced gradients.
    let shard_len: Vec<usize> = my_stages
        .iter()
        .map(|(_, s)| s.num_params().div_ceil(n_dp))
        .collect();
    let mut param_shard: Vec<Vec<f32>> = Vec::with_capacity(my_stages.len());
    let mut grad_shard: Vec<Vec<f32>> = Vec::with_capacity(my_stages.len());
    for (i, (_, s)) in my_stages.iter().enumerate() {
        if use_fs {
            let full = padded(&s.param_vector(), n_dp);
            let r = replica as usize;
            param_shard.push(full[r * shard_len[i]..(r + 1) * shard_len[i]].to_vec());
        } else {
            param_shard.push(Vec::new());
        }
        grad_shard.push(vec![0.0; shard_len[i]]);
    }

    // Stashes: stage inputs (for backward recomputation) and last-stage
    // predictions (for the loss).
    let mut input_stash: HashMap<(u32, StageId), Tensor> = HashMap::new();
    let mut pred_stash: HashMap<u32, Tensor> = HashMap::new();
    let mut losses: Vec<(u32, f32)> = Vec::new();

    // Precompute run boundaries for the FS gather/flush protocol.
    let runs = schedule.stage_runs(device);
    let actions = schedule.device_actions(device);
    let mut run_start: HashMap<usize, usize> = HashMap::new();
    let mut run_end: HashMap<usize, usize> = HashMap::new();
    for (k, r) in runs.iter().enumerate() {
        run_start.insert(r.start, k);
        run_end.insert(r.start + r.len - 1, k);
    }

    for (i, a) in actions.iter().enumerate() {
        let si = stage_index[&a.stage];

        // FS: reconstruct this run's weights from the shards.
        if use_fs && run_start.contains_key(&i) {
            let full = comm
                .try_all_gather(&param_shard[si])
                .map_err(FailureReason::Collective)?;
            let n = my_stages[si].1.num_params();
            my_stages[si].1.set_param_vector(&full[..n]);
        }

        match a.dir {
            Direction::Forward => {
                let input = if a.stage.0 == 0 {
                    inputs[a.microbatch as usize].clone()
                } else {
                    let rx = fwd_recv[(a.stage.0 - 1) as usize]
                        .as_ref()
                        .expect("boundary channel exists");
                    let (mb, tensor) = rx.recv().map_err(|_| FailureReason::ChannelClosed {
                        what: "receiving forward activations",
                    })?;
                    assert_eq!(mb, a.microbatch, "forward packet order mismatch");
                    tensor
                };
                let out = my_stages[si].1.forward(&input);
                input_stash.insert((a.microbatch, a.stage), input);
                if a.stage == last_stage {
                    pred_stash.insert(a.microbatch, out);
                } else {
                    let mut out = out;
                    if spec.half_comms {
                        crate::half::quantize_slice(out.data_mut());
                    }
                    fwd_send[a.stage.0 as usize]
                        .as_ref()
                        .expect("boundary channel exists")
                        .send((a.microbatch, out))
                        .map_err(|_| FailureReason::ChannelClosed {
                            what: "sending forward activations",
                        })?;
                }
            }
            Direction::Backward => {
                if let Some(plan) = fault {
                    if plan.device == device && plan.replica == replica && plan.fire() {
                        match plan.kind {
                            FaultKind::Panic => {
                                panic!("injected fault: device {device} replica {replica}")
                            }
                            FaultKind::Error => return Err(FailureReason::InjectedFault),
                        }
                    }
                }
                let grad_out = if a.stage == last_stage {
                    let pred = pred_stash.remove(&a.microbatch).expect("forward ran");
                    let (loss, grad) = mse(&pred, &targets[a.microbatch as usize]);
                    losses.push((a.microbatch, loss));
                    grad
                } else {
                    let rx = bwd_recv[a.stage.0 as usize]
                        .as_ref()
                        .expect("boundary channel exists");
                    let (mb, tensor) = rx.recv().map_err(|_| FailureReason::ChannelClosed {
                        what: "receiving backward gradients",
                    })?;
                    assert_eq!(mb, a.microbatch, "backward packet order mismatch");
                    tensor
                };
                let input = input_stash
                    .remove(&(a.microbatch, a.stage))
                    .expect("forward stashed its input");
                let grad_in = my_stages[si]
                    .1
                    .backward(&input, &grad_out, &mut pending[si]);
                if a.stage.0 > 0 {
                    let mut grad_in = grad_in;
                    if spec.half_comms {
                        crate::half::quantize_slice(grad_in.data_mut());
                    }
                    bwd_send[(a.stage.0 - 1) as usize]
                        .as_ref()
                        .expect("boundary channel exists")
                        .send((a.microbatch, grad_in))
                        .map_err(|_| FailureReason::ChannelClosed {
                            what: "sending backward gradients",
                        })?;
                }
            }
        }

        // FS: flush gradients when a backward run ends (the stage's
        // buffers are about to be evicted).
        if use_fs && a.dir == Direction::Backward && run_end.contains_key(&i) {
            let flat = padded(&pending[si], n_dp);
            let shard = comm
                .try_reduce_scatter(&flat)
                .map_err(FailureReason::Collective)?;
            for (g, x) in grad_shard[si].iter_mut().zip(&shard) {
                *g += *x;
            }
            for p in pending[si].iter_mut() {
                *p = 0.0;
            }
        }
    }

    // Finalize: reduce (if not already), update, and report. Stages are
    // visited in ascending id so every replica issues the collectives in
    // the same order.
    let mut order: Vec<usize> = (0..my_stages.len()).collect();
    order.sort_by_key(|&i| my_stages[i].0);
    let mut results: Vec<(StageId, Stage, Vec<f32>, OptimizerState)> =
        Vec::with_capacity(my_stages.len());
    for i in order {
        let n = my_stages[i].1.num_params();
        let full_grad: Vec<f32> = match spec.dp {
            DataParallelism::Unsharded => {
                let mut g = pending[i].clone();
                comm.try_all_reduce(&mut g)
                    .map_err(FailureReason::Collective)?;
                let mut p = my_stages[i].1.param_vector();
                spec.optimizer.step(&mut my_states[i], &mut p, &g);
                my_stages[i].1.set_param_vector(&p);
                g
            }
            DataParallelism::PartiallySharded => {
                let flat = padded(&pending[i], n_dp);
                let g_shard = comm
                    .try_reduce_scatter(&flat)
                    .map_err(FailureReason::Collective)?;
                let p_full = padded(&my_stages[i].1.param_vector(), n_dp);
                let r = replica as usize;
                let mut p_shard = p_full[r * shard_len[i]..(r + 1) * shard_len[i]].to_vec();
                spec.optimizer
                    .step(&mut my_states[i], &mut p_shard, &g_shard);
                let p_new = comm
                    .try_all_gather(&p_shard)
                    .map_err(FailureReason::Collective)?;
                my_stages[i].1.set_param_vector(&p_new[..n]);
                let mut g = comm
                    .try_all_gather(&g_shard)
                    .map_err(FailureReason::Collective)?;
                g.truncate(n);
                g
            }
            DataParallelism::FullySharded => {
                spec.optimizer
                    .step(&mut my_states[i], &mut param_shard[i], &grad_shard[i]);
                let p_new = comm
                    .try_all_gather(&param_shard[i])
                    .map_err(FailureReason::Collective)?;
                my_stages[i].1.set_param_vector(&p_new[..n]);
                let mut g = comm
                    .try_all_gather(&grad_shard[i])
                    .map_err(FailureReason::Collective)?;
                g.truncate(n);
                g
            }
        };
        results.push((
            my_stages[i].0,
            my_stages[i].1.clone(),
            full_grad,
            my_states[i].clone(),
        ));
    }

    Ok(DeviceOutcome {
        replica,
        stages: results,
        losses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_mlp_stages, synthetic_batch};
    use crate::serial::run_serial;

    use crate::optim::OptimizerKind;

    fn spec(
        kind: ScheduleKind,
        placement: Placement,
        n_mb: u32,
        n_dp: u32,
        dp: DataParallelism,
    ) -> TrainSpec {
        TrainSpec {
            kind,
            placement,
            n_mb,
            n_dp,
            dp,
            optimizer: OptimizerKind::sgd(0.05),
            half_comms: false,
        }
    }

    fn setup(n_stage: u32, n_mb: u32, n_dp: u32) -> (Vec<Stage>, Vec<Tensor>, Vec<Tensor>) {
        let stages = build_mlp_stages(6, 10, 3, n_stage, 77);
        let (inputs, targets) = synthetic_batch(6, 3, n_dp * n_mb, 4, 123);
        (stages, inputs, targets)
    }

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn breadth_first_matches_serial_bitwise_dp0() {
        let (stages, inputs, targets) = setup(4, 4, 2);
        let serial = run_serial(stages.clone(), &inputs, &targets, 2, 0.05);
        let s = spec(
            ScheduleKind::BreadthFirst,
            Placement::looping(2, 2),
            4,
            2,
            DataParallelism::Unsharded,
        );
        let piped = run_batch(&s, stages, &inputs, &targets);
        assert_eq!(piped.losses, serial.losses, "losses must match exactly");
        for (sp, ss) in piped.stages.iter().zip(&serial.stages) {
            assert_eq!(
                sp.param_vector(),
                ss.param_vector(),
                "DP_0 weights must be bit-identical to serial"
            );
        }
        for (gp, gs) in piped.gradients.iter().zip(&serial.gradients) {
            assert_eq!(gp, gs, "DP_0 gradients must be bit-identical");
        }
    }

    #[test]
    fn all_schedules_agree_bitwise_under_dp0() {
        let (stages, inputs, targets) = setup(4, 8, 2);
        let looped = Placement::looping(2, 2);
        let linear = Placement::linear(2);
        let run = |kind: ScheduleKind, placement: Placement| {
            run_batch(
                &spec(kind, placement, 8, 2, DataParallelism::Unsharded),
                // Rebuild: stages are consumed per run.
                build_mlp_stages(6, 10, 3, placement.num_stages(), 77),
                &inputs,
                &targets,
            )
        };
        let _ = &stages;
        let bf = run(ScheduleKind::BreadthFirst, looped);
        let df = run(ScheduleKind::DepthFirst, looped);
        assert_eq!(bf.losses, df.losses);
        for (a, b) in bf.gradients.iter().zip(&df.gradients) {
            assert_eq!(a, b, "BF and DF gradients must be bit-identical");
        }
        // Linear placements have a different stage decomposition (2
        // stages), so compare GPipe vs 1F1B against each other.
        let gp = run(ScheduleKind::GPipe, linear);
        let ofob = run(ScheduleKind::OneFOneB, linear);
        assert_eq!(gp.losses, ofob.losses);
        for (a, b) in gp.gradients.iter().zip(&ofob.gradients) {
            assert_eq!(a, b, "GPipe and 1F1B gradients must be bit-identical");
        }
    }

    #[test]
    fn sharding_levels_agree_with_serial() {
        let (stages, inputs, targets) = setup(4, 4, 2);
        let serial = run_serial(stages.clone(), &inputs, &targets, 2, 0.05);
        for dp in DataParallelism::ALL {
            let s = spec(
                ScheduleKind::BreadthFirst,
                Placement::looping(2, 2),
                4,
                2,
                dp,
            );
            let piped = run_batch(&s, stages.clone(), &inputs, &targets);
            assert_eq!(piped.losses, serial.losses, "{dp}: losses");
            for (k, (sp, ss)) in piped.stages.iter().zip(&serial.stages).enumerate() {
                let diff = max_abs_diff(&sp.param_vector(), &ss.param_vector());
                assert!(
                    diff < 1e-5,
                    "{dp}: stage {k} weights diverge from serial by {diff}"
                );
            }
        }
    }

    #[test]
    fn fs_with_fragmented_schedule_still_correct() {
        // 1F1B + DP_FS fragments into per-micro-batch gather/flush pairs —
        // the expensive case the paper's Eq. (21) describes. It must still
        // be *correct*.
        let (stages, inputs, targets) = setup(2, 6, 2);
        let serial = run_serial(stages.clone(), &inputs, &targets, 2, 0.05);
        let s = spec(
            ScheduleKind::OneFOneB,
            Placement::linear(2),
            6,
            2,
            DataParallelism::FullySharded,
        );
        let piped = run_batch(&s, stages, &inputs, &targets);
        assert_eq!(piped.losses, serial.losses);
        for (sp, ss) in piped.stages.iter().zip(&serial.stages) {
            let diff = max_abs_diff(&sp.param_vector(), &ss.param_vector());
            assert!(diff < 1e-4, "diverged by {diff}");
        }
    }

    #[test]
    fn single_replica_single_device_degenerates_to_serial() {
        let (stages, inputs, targets) = setup(1, 3, 1);
        let serial = run_serial(stages.clone(), &inputs, &targets, 1, 0.05);
        let s = spec(
            ScheduleKind::GPipe,
            Placement::linear(1),
            3,
            1,
            DataParallelism::Unsharded,
        );
        let piped = run_batch(&s, stages, &inputs, &targets);
        assert_eq!(piped.losses, serial.losses);
        for (sp, ss) in piped.stages.iter().zip(&serial.stages) {
            assert_eq!(sp.param_vector(), ss.param_vector());
        }
    }

    #[test]
    fn training_reduces_loss_over_steps() {
        let mut stages = build_mlp_stages(6, 10, 3, 4, 9);
        let (inputs, targets) = synthetic_batch(6, 3, 8, 4, 55);
        let s = spec(
            ScheduleKind::BreadthFirst,
            Placement::looping(2, 2),
            4,
            2,
            DataParallelism::FullySharded,
        );
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..100 {
            let r = run_batch(&s, stages, &inputs, &targets);
            stages = r.stages;
            first.get_or_insert(r.mean_loss);
            last = r.mean_loss;
        }
        let first = first.unwrap();
        assert!(
            last < 0.7 * first,
            "training must make progress: {first} -> {last}"
        );
    }

    #[test]
    #[should_panic(expected = "n_dp * n_mb")]
    fn wrong_batch_count_rejected() {
        let (stages, inputs, targets) = setup(2, 4, 2);
        let s = spec(
            ScheduleKind::GPipe,
            Placement::linear(2),
            4,
            4, // wrong: inputs sized for n_dp = 2
            DataParallelism::Unsharded,
        );
        run_batch(&s, stages, &inputs, &targets);
    }

    #[test]
    fn half_precision_comms_stay_close_to_fp32() {
        // Quantizing boundary traffic through binary16 perturbs training
        // only within f16 rounding error — the property that makes the
        // paper's 2-byte transfers viable.
        let (stages, inputs, targets) = setup(4, 4, 2);
        let mk = |half_comms| TrainSpec {
            kind: ScheduleKind::BreadthFirst,
            placement: Placement::looping(2, 2),
            n_mb: 4,
            n_dp: 2,
            dp: DataParallelism::Unsharded,
            optimizer: OptimizerKind::sgd(0.05),
            half_comms,
        };
        let full = run_batch(&mk(false), stages.clone(), &inputs, &targets);
        let half = run_batch(&mk(true), stages, &inputs, &targets);
        // Losses differ slightly but not wildly.
        for (a, b) in full.losses.iter().zip(&half.losses) {
            assert!((a - b).abs() < 2e-3 * (1.0 + a.abs()), "{a} vs {b}");
        }
        // Weights stay close after one step.
        let diff = full
            .stages
            .iter()
            .zip(&half.stages)
            .map(|(x, y)| max_abs_diff(&x.param_vector(), &y.param_vector()))
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-3, "half comms shifted weights by {diff}");
        assert!(diff > 0.0, "quantization should be observable at all");
    }

    #[test]
    fn adam_with_sharded_state_matches_serial() {
        // Three stateful Adam steps: the pipelined executor shards the
        // optimizer state across replicas (ZeRO) and must still track the
        // serial full-state reference.
        use crate::optim::{OptimizerKind, OptimizerState};
        use crate::serial::run_serial_stateful;
        let (mut piped_stages, inputs, targets) = setup(4, 4, 2);
        let mut serial_stages = piped_stages.clone();
        let kind = OptimizerKind::adam(0.01);
        let mut piped_states: Vec<OptimizerState> = piped_stages
            .iter()
            .map(|s| kind.init_state(s.num_params()))
            .collect();
        let mut serial_states = piped_states.clone();
        let s = TrainSpec {
            kind: ScheduleKind::BreadthFirst,
            placement: Placement::looping(2, 2),
            n_mb: 4,
            n_dp: 2,
            dp: DataParallelism::FullySharded,
            optimizer: kind,
            half_comms: false,
        };
        for step in 0..3 {
            let (p, pst) = run_batch_stateful(&s, piped_stages, piped_states, &inputs, &targets);
            let (ser, sst) =
                run_serial_stateful(serial_stages, &inputs, &targets, 2, kind, serial_states);
            assert_eq!(p.losses, ser.losses, "step {step}: losses");
            piped_stages = p.stages;
            piped_states = pst;
            serial_stages = ser.stages;
            serial_states = sst;
            let diff = piped_stages
                .iter()
                .zip(&serial_stages)
                .map(|(a, b)| max_abs_diff(&a.param_vector(), &b.param_vector()))
                .fold(0.0f32, f32::max);
            assert!(diff < 1e-5, "step {step}: Adam diverged by {diff}");
        }
    }

    #[test]
    fn injected_panic_fails_step_and_names_device() {
        // Device 1 / replica 0 panics at its first backward action. Every
        // other thread must unwind promptly (channel disconnects plus
        // collective poisoning) and the step must report the *origin*,
        // not the secondary damage.
        let (stages, inputs, targets) = setup(2, 4, 2);
        let s = spec(
            ScheduleKind::GPipe,
            Placement::linear(2),
            4,
            2,
            DataParallelism::Unsharded,
        );
        let states: Vec<OptimizerState> = stages
            .iter()
            .map(|st| s.optimizer.init_state(st.num_params()))
            .collect();
        let harness = HarnessOptions {
            fault: Some(FaultPlan::transient(1, 0, 1, FaultKind::Panic)),
            // Backstop so a regression fails the test instead of hanging.
            collective_timeout: Some(std::time::Duration::from_secs(10)),
            ..HarnessOptions::default()
        };
        let err = try_run_batch_stateful(&s, stages, states, &inputs, &targets, &harness)
            .expect_err("injected panic must fail the step");
        match err {
            TrainError::DeviceFailed {
                device,
                replica,
                reason: FailureReason::Panicked(msg),
            } => {
                assert_eq!((device, replica), (1, 0), "must name the origin");
                assert!(msg.contains("injected fault"), "got: {msg}");
            }
            other => panic!("expected the panic as root cause, got {other}"),
        }
    }

    #[test]
    fn injected_error_reports_injected_fault() {
        let (stages, inputs, targets) = setup(2, 2, 1);
        let s = spec(
            ScheduleKind::GPipe,
            Placement::linear(2),
            2,
            1,
            DataParallelism::Unsharded,
        );
        let states: Vec<OptimizerState> = stages
            .iter()
            .map(|st| s.optimizer.init_state(st.num_params()))
            .collect();
        let harness = HarnessOptions {
            fault: Some(FaultPlan::transient(0, 0, 1, FaultKind::Error)),
            ..HarnessOptions::default()
        };
        let err = try_run_batch_stateful(&s, stages, states, &inputs, &targets, &harness)
            .expect_err("injected error must fail the step");
        assert_eq!(
            err,
            TrainError::DeviceFailed {
                device: 0,
                replica: 0,
                reason: FailureReason::InjectedFault,
            }
        );
    }

    #[test]
    fn transient_fault_with_retry_is_bit_identical_to_clean_run() {
        // One failing attempt, then success: because retry restarts from
        // the caller's pristine stages/states, the eventual result must be
        // bit-for-bit what a fault-free run produces.
        let (stages, inputs, targets) = setup(2, 4, 2);
        let s = spec(
            ScheduleKind::OneFOneB,
            Placement::linear(2),
            4,
            2,
            DataParallelism::Unsharded,
        );
        let states: Vec<OptimizerState> = stages
            .iter()
            .map(|st| s.optimizer.init_state(st.num_params()))
            .collect();
        let clean = run_batch_stateful(&s, stages.clone(), states.clone(), &inputs, &targets);
        let harness = HarnessOptions {
            fault: Some(FaultPlan::transient(1, 1, 1, FaultKind::Panic)),
            retry: RetryPolicy {
                max_retries: 2,
                backoff: std::time::Duration::from_millis(1),
            },
            collective_timeout: Some(std::time::Duration::from_secs(10)),
        };
        let (retried, retried_states) =
            run_batch_with_retry(&s, &stages, &states, &inputs, &targets, &harness)
                .expect("one transient failure is within the retry budget");
        assert_eq!(retried.losses, clean.0.losses, "losses must be identical");
        for (a, b) in retried.stages.iter().zip(&clean.0.stages) {
            assert_eq!(
                a.param_vector(),
                b.param_vector(),
                "retried weights must be bit-identical to a clean run"
            );
        }
        for (a, b) in retried.gradients.iter().zip(&clean.0.gradients) {
            assert_eq!(a, b, "retried gradients must be bit-identical");
        }
        assert_eq!(retried_states, clean.1, "optimizer state must match");
    }

    #[test]
    fn instrumented_retry_records_attempts_and_failures() {
        let (stages, inputs, targets) = setup(2, 4, 2);
        let s = spec(
            ScheduleKind::OneFOneB,
            Placement::linear(2),
            4,
            2,
            DataParallelism::Unsharded,
        );
        let states: Vec<OptimizerState> = stages
            .iter()
            .map(|st| s.optimizer.init_state(st.num_params()))
            .collect();
        let harness = HarnessOptions {
            fault: Some(FaultPlan::transient(1, 1, 1, FaultKind::Error)),
            retry: RetryPolicy {
                max_retries: 2,
                backoff: std::time::Duration::from_millis(1),
            },
            collective_timeout: Some(std::time::Duration::from_secs(10)),
        };
        let metrics = MetricsRegistry::new();
        run_batch_with_retry_instrumented(
            &s, &stages, &states, &inputs, &targets, &harness, &metrics,
        )
        .expect("one transient failure is within the retry budget");
        assert_eq!(metrics.counter("train_attempts_total"), 2);
        assert_eq!(metrics.counter("train_retries_total"), 1);
        assert_eq!(metrics.counter("train_failures_injected_total"), 1);
        let attempts = metrics
            .histogram("train_attempt_ns")
            .expect("attempts timed");
        assert_eq!(attempts.count(), 2);
        assert!(attempts.sum() > 0);
        let backoff = metrics
            .histogram("train_backoff_ns")
            .expect("backoff timed");
        assert!(
            backoff.sum() >= 1_000_000,
            "slept at least the 1 ms backoff"
        );
    }

    #[test]
    fn retries_exhausted_surfaces_the_error() {
        let (stages, inputs, targets) = setup(2, 2, 1);
        let s = spec(
            ScheduleKind::GPipe,
            Placement::linear(2),
            2,
            1,
            DataParallelism::Unsharded,
        );
        let states: Vec<OptimizerState> = stages
            .iter()
            .map(|st| s.optimizer.init_state(st.num_params()))
            .collect();
        let harness = HarnessOptions {
            // Fails 5 attempts; only 1 retry allowed (2 attempts total).
            fault: Some(FaultPlan::transient(0, 0, 5, FaultKind::Error)),
            retry: RetryPolicy {
                max_retries: 1,
                backoff: std::time::Duration::from_millis(1),
            },
            ..HarnessOptions::default()
        };
        let err = run_batch_with_retry(&s, &stages, &states, &inputs, &targets, &harness)
            .expect_err("budget outlasts the retries");
        assert!(matches!(
            err,
            TrainError::DeviceFailed {
                reason: FailureReason::InjectedFault,
                ..
            }
        ));
    }

    #[test]
    fn adam_state_reassembles_across_sharding_levels() {
        // The state returned by a sharded run must equal what a DP_0 run
        // keeps (element-wise updates shard exactly).
        use crate::optim::{OptimizerKind, OptimizerState};
        let (stages, inputs, targets) = setup(2, 4, 2);
        let kind = OptimizerKind::adam(0.01);
        let mk_states = |stages: &[Stage]| -> Vec<OptimizerState> {
            stages
                .iter()
                .map(|s| kind.init_state(s.num_params()))
                .collect()
        };
        let base = |dp| TrainSpec {
            kind: ScheduleKind::GPipe,
            placement: Placement::linear(2),
            n_mb: 4,
            n_dp: 2,
            dp,
            optimizer: kind,
            half_comms: false,
        };
        let (_, st_fs) = run_batch_stateful(
            &base(DataParallelism::FullySharded),
            stages.clone(),
            mk_states(&stages),
            &inputs,
            &targets,
        );
        let (_, st_dp0) = run_batch_stateful(
            &base(DataParallelism::Unsharded),
            stages.clone(),
            mk_states(&stages),
            &inputs,
            &targets,
        );
        for (a, b) in st_fs.iter().zip(&st_dp0) {
            match (a, b) {
                (
                    OptimizerState::Adam {
                        m: ma,
                        v: va,
                        t: ta,
                    },
                    OptimizerState::Adam {
                        m: mb,
                        v: vb,
                        t: tb,
                    },
                ) => {
                    assert_eq!(ta, tb);
                    let dm = ma
                        .iter()
                        .zip(mb)
                        .map(|(x, y)| (x - y).abs())
                        .fold(0.0f32, f32::max);
                    let dv = va
                        .iter()
                        .zip(vb)
                        .map(|(x, y)| (x - y).abs())
                        .fold(0.0f32, f32::max);
                    assert!(dm < 1e-6 && dv < 1e-6, "moments differ: {dm} {dv}");
                }
                _ => panic!("expected Adam states"),
            }
        }
    }
}
