//! The candidate IR of the configuration search (§5.1).
//!
//! The search's enumeration is factored out of the engine into a lazy
//! iterator of typed [`Candidate`]s, with every validity rule that used
//! to be an inline `continue` in the loop nest expressed as a named,
//! unit-testable predicate. A `Candidate` is *enumerable* — it satisfies
//! all structural divisibility rules — but not yet *measured*: whether it
//! fits memory and how fast it runs is decided by the pruning and
//! evaluation layers on top.
//!
//! [`Candidate`]s carry a total order ([`Candidate::order_key`]) that
//! mirrors the enumeration order, so "the first of equally fast
//! configurations wins" — the tie rule inherited from the original
//! serial engine — can be stated positionally ("minimum order among the
//! fastest") and preserved bit-for-bit by a parallel engine.

use bfpp_cluster::ClusterSpec;
use bfpp_core::ScheduleKind;
use bfpp_model::TransformerConfig;
use bfpp_parallel::{
    divisors, BatchConfig, DataParallelism, Grid, LayerSplit, ParallelConfig, Placement, RankCoord,
};

use crate::search::{Method, SearchOptions};

/// How a candidate apportions layers over its pipeline devices — a
/// search variable on heterogeneous fleets. This is a *strategy tag*,
/// kept `Copy` so [`Candidate`] stays a plain value; it resolves to a
/// concrete [`LayerSplit`] against a model and cluster through
/// [`Candidate::config_on`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SplitStrategy {
    /// The paper's uniform split: `num_layers / N_PP` everywhere.
    #[default]
    Uniform,
    /// Layers proportional to each pipeline device's peak flop/s
    /// (largest-remainder apportionment, every device keeps at least one
    /// layer) — so fast and slow stages finish their kernels in
    /// comparable time. Only enumerated on heterogeneous fleets.
    SpeedProportional,
}

/// One fully specified point of the search space: device grid, layer
/// placement, micro-batching, schedule kind and sharding level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// The device grid `N_DP × N_TP × N_PP`.
    pub grid: Grid,
    /// Layer-to-stage placement (carries `N_loop`).
    pub placement: Placement,
    /// Micro-batch count and size.
    pub batch: BatchConfig,
    /// The pipeline schedule to run.
    pub kind: ScheduleKind,
    /// The data-parallel sharding level.
    pub dp: DataParallelism,
    /// Layer apportionment strategy across pipeline devices.
    pub split: SplitStrategy,
}

impl Candidate {
    /// The candidate as a [`ParallelConfig`] with the uniform layer
    /// split. Use [`Candidate::config_on`] to resolve the candidate's
    /// split strategy against a concrete fleet.
    pub fn config(&self) -> ParallelConfig {
        ParallelConfig::new(self.grid, self.placement, self.batch, self.dp)
    }

    /// The candidate as a [`ParallelConfig`] with its split strategy
    /// resolved against `cluster`: [`SplitStrategy::SpeedProportional`]
    /// becomes a concrete [`LayerSplit::PerDevice`] via
    /// [`speed_proportional_layers`].
    pub fn config_on(&self, model: &TransformerConfig, cluster: &ClusterSpec) -> ParallelConfig {
        match self.split {
            SplitStrategy::Uniform => self.config(),
            SplitStrategy::SpeedProportional => self.config().with_layer_split(
                LayerSplit::PerDevice(speed_proportional_layers(model, cluster, self.grid).into()),
            ),
        }
    }

    /// The total order of the search space, matching enumeration order:
    /// `(N_TP, N_PP, S_mb, N_loop, kind, dp)` — plus the remaining
    /// fields as a tail so the order is consistent with equality even
    /// across candidates from different spaces. The split strategy is
    /// the last component: homogeneous searches (all-uniform) keep their
    /// historical order exactly.
    pub fn order_key(
        &self,
    ) -> (
        u32,
        u32,
        u32,
        u32,
        usize,
        DataParallelism,
        u32,
        u32,
        SplitStrategy,
    ) {
        let kind_rank = ScheduleKind::ALL
            .iter()
            .position(|k| *k == self.kind)
            .expect("every kind appears in ScheduleKind::ALL");
        (
            self.grid.n_tp,
            self.grid.n_pp,
            self.batch.microbatch_size,
            self.placement.n_loop(),
            kind_rank,
            self.dp,
            self.grid.n_dp,
            self.batch.num_microbatches,
            self.split,
        )
    }
}

/// Largest-remainder apportionment of the model's layers over the
/// pipeline devices, proportional to each device's peak flop/s (read at
/// the device's simulated column rank, DP 0 / TP 0). Every device keeps
/// at least one layer; the counts always sum to `num_layers`. The
/// result is a pure function of its inputs — no randomness — so
/// searches stay bit-identical across threading.
pub fn speed_proportional_layers(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    grid: Grid,
) -> Vec<u32> {
    let n_pp = grid.n_pp as usize;
    assert!(
        model.num_layers as usize >= n_pp,
        "every pipeline device needs at least one layer"
    );
    let speeds: Vec<f64> = (0..grid.n_pp)
        .map(|pp| cluster.peak_flops_of(grid.global_rank(RankCoord { dp: 0, tp: 0, pp })))
        .collect();
    let total: f64 = speeds.iter().sum();
    let layers = model.num_layers;
    let quota: Vec<f64> = speeds.iter().map(|s| layers as f64 * s / total).collect();
    let mut counts: Vec<u32> = quota.iter().map(|q| q.floor() as u32).collect();
    let assigned: u32 = counts.iter().sum();
    // Hand the remainder out by largest fractional part, ties to the
    // earlier device.
    let mut order: Vec<usize> = (0..n_pp).collect();
    order.sort_by(|&a, &b| {
        let (fa, fb) = (quota[a] - quota[a].floor(), quota[b] - quota[b].floor());
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    for &i in order.iter().cycle().take((layers - assigned) as usize) {
        counts[i] += 1;
    }
    // No starved devices: a stage must host at least one layer. Steal
    // from the heaviest entry (earliest on ties).
    while let Some(zero) = counts.iter().position(|&c| c == 0) {
        let max = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .expect("counts is non-empty");
        counts[max] -= 1;
        counts[zero] += 1;
    }
    counts
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order_key().cmp(&other.order_key())
    }
}

/// Whether a tensor-parallel width divides the whole cluster. Widths are
/// drawn from the divisors of the per-node GPU count, so this only
/// excludes degenerate clusters whose size is not a multiple of a node.
pub fn tensor_width_is_valid(num_gpus: u32, n_tp: u32) -> bool {
    n_tp > 0 && num_gpus.is_multiple_of(n_tp)
}

/// Whether a pipeline depth is admissible for a method: the no-pipeline
/// method fixes `N_PP = 1`; pipelined methods need at least two devices
/// and at most one stage per layer.
pub fn pipeline_depth_is_valid(method: Method, n_pp: u32, num_layers: u32) -> bool {
    match method {
        Method::NoPipeline => n_pp == 1,
        _ => n_pp >= 2 && n_pp <= num_layers,
    }
}

/// Whether a global batch splits evenly over the data-parallel replicas.
pub fn batch_shards_evenly(global_batch: u64, n_dp: u32) -> bool {
    n_dp > 0 && global_batch.is_multiple_of(n_dp as u64)
}

/// Whether a micro-batch size divides a replica's batch exactly.
pub fn microbatch_fits_replica(per_replica: u32, s_mb: u32) -> bool {
    s_mb > 0 && per_replica.is_multiple_of(s_mb)
}

/// Whether a loop count is admissible for a method: looped methods need
/// `N_stage = N_PP · N_loop` to divide the layer count (and not exceed
/// it); non-looped methods fix `N_loop = 1`.
pub fn loop_count_is_valid(method: Method, n_pp: u32, n_loop: u32, num_layers: u32) -> bool {
    match method {
        Method::BreadthFirst | Method::DepthFirst => {
            let stages = n_pp * n_loop;
            stages <= num_layers && num_layers.is_multiple_of(stages)
        }
        _ => n_loop == 1,
    }
}

/// The depth-first generator's structural requirements: it is only
/// defined for genuinely interleaved placements (`N_loop ≥ 2`) and for
/// micro-batch counts that fill its `N_PP`-sized rounds
/// (`N_mb ≡ 0 mod N_PP`). Other methods have no extra shape rule.
pub fn depth_first_shape_is_valid(method: Method, n_loop: u32, n_mb: u32, n_pp: u32) -> bool {
    method != Method::DepthFirst || (n_loop >= 2 && n_mb.is_multiple_of(n_pp))
}

/// The schedule's action count `2 · N_mb · N_PP · N_loop` (a forward and
/// a backward per micro-batch per stage) — the op-graph size the search
/// caps, and its estimate of a class's evaluation cost.
pub fn action_count(n_mb: u32, n_pp: u32, n_loop: u32) -> u64 {
    2 * n_mb as u64 * (n_pp as u64 * n_loop as u64)
}

/// Whether the [`action_count`] stays under the search's action cap (a
/// guard on the search's own runtime).
pub fn action_count_within(n_mb: u32, n_pp: u32, n_loop: u32, max_actions: u64) -> bool {
    action_count(n_mb, n_pp, n_loop) <= max_actions
}

/// The admissible pipeline depths for a method on `rest = N_GPU / N_TP`
/// devices, ascending.
pub fn pipeline_depths(method: Method, rest: u32, num_layers: u32) -> Vec<u32> {
    match method {
        Method::NoPipeline => vec![1],
        _ => divisors(rest)
            .into_iter()
            .filter(|&pp| pipeline_depth_is_valid(method, pp, num_layers))
            .collect(),
    }
}

/// The admissible micro-batch sizes for one replica batch, ascending:
/// divisors of `min(per_replica, max_microbatch)` that also divide the
/// replica batch.
pub fn microbatch_sizes(per_replica: u32, max_microbatch: u32) -> Vec<u32> {
    divisors(per_replica.min(max_microbatch))
        .into_iter()
        .filter(|&s| microbatch_fits_replica(per_replica, s))
        .collect()
}

/// The admissible loop counts for a method, ascending: powers of two up
/// to `max_loop` whose stage count divides the layer count (looped
/// methods), or just 1 (non-looped).
pub fn loop_counts(method: Method, n_pp: u32, num_layers: u32, max_loop: u32) -> Vec<u32> {
    match method {
        Method::BreadthFirst | Method::DepthFirst => (0..)
            .map(|i| 1u32 << i)
            .take_while(|&l| l <= max_loop)
            .filter(|&l| loop_count_is_valid(method, n_pp, l, num_layers))
            .collect(),
        _ => vec![1],
    }
}

/// Lazily enumerates every valid [`Candidate`] for `method` at
/// `global_batch`, in [`Candidate::order_key`] order. Divisor lists are
/// computed once per enumeration level, not per inner iteration. A model
/// with a zero dimension ([`TransformerConfig::check`]) has no valid
/// candidate: the sizing rules downstream divide by its dimensions.
pub fn enumerate(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    opts: &SearchOptions,
) -> impl Iterator<Item = Candidate> {
    let num_gpus = cluster.num_gpus();
    let spn = cluster.node.gpus_per_node;
    let model_ok = model.check().is_ok();
    let num_layers = model.num_layers;
    let max_microbatch = opts.max_microbatch;
    let max_loop = opts.max_loop;
    let max_actions = opts.max_actions;
    // Speed-proportional placement is only a distinct point on fleets
    // whose devices actually differ in speed; homogeneous searches keep
    // their historical candidate stream untouched.
    let speed_diverse = cluster.hetero().is_some_and(|h| {
        h.nodes()
            .iter()
            .any(|n| n.gpu.peak_fp16_flops != h.nodes()[0].gpu.peak_fp16_flops)
    });

    divisors(spn)
        .into_iter()
        .filter(move |&n_tp| model_ok && tensor_width_is_valid(num_gpus, n_tp))
        .flat_map(move |n_tp| {
            let rest = num_gpus / n_tp;
            pipeline_depths(method, rest, num_layers)
                .into_iter()
                .map(move |n_pp| (n_tp, n_pp, rest / n_pp))
        })
        .filter(move |&(_, _, n_dp)| batch_shards_evenly(global_batch, n_dp))
        .flat_map(move |(n_tp, n_pp, n_dp)| {
            let per_replica = (global_batch / n_dp as u64) as u32;
            microbatch_sizes(per_replica, max_microbatch)
                .into_iter()
                .map(move |s_mb| (n_tp, n_pp, n_dp, s_mb, per_replica / s_mb))
        })
        .flat_map(move |(n_tp, n_pp, n_dp, s_mb, n_mb)| {
            loop_counts(method, n_pp, num_layers, max_loop)
                .into_iter()
                .filter(move |&n_loop| depth_first_shape_is_valid(method, n_loop, n_mb, n_pp))
                .filter(move |&n_loop| action_count_within(n_mb, n_pp, n_loop, max_actions))
                .flat_map(move |n_loop| {
                    let splits: &[SplitStrategy] = if speed_diverse && n_pp > 1 {
                        &[SplitStrategy::Uniform, SplitStrategy::SpeedProportional]
                    } else {
                        &[SplitStrategy::Uniform]
                    };
                    method.kinds().iter().flat_map(move |&kind| {
                        method.dp_variants().iter().flat_map(move |&dp| {
                            splits.iter().map(move |&split| Candidate {
                                grid: Grid::new(n_dp, n_tp, n_pp),
                                placement: Placement::looping(n_pp, n_loop),
                                batch: BatchConfig::new(n_mb, s_mb),
                                kind,
                                dp,
                                split,
                            })
                        })
                    })
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfpp_cluster::presets;
    use bfpp_model::presets as models;

    fn opts() -> SearchOptions {
        SearchOptions {
            max_microbatch: 8,
            max_loop: 16,
            max_actions: 60_000,
            threads: 1,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn predicates_match_their_rules() {
        assert!(tensor_width_is_valid(64, 8));
        assert!(!tensor_width_is_valid(64, 0));
        assert!(!tensor_width_is_valid(60, 8));

        assert!(pipeline_depth_is_valid(Method::NoPipeline, 1, 64));
        assert!(!pipeline_depth_is_valid(Method::NoPipeline, 2, 64));
        assert!(pipeline_depth_is_valid(Method::BreadthFirst, 8, 64));
        assert!(!pipeline_depth_is_valid(Method::BreadthFirst, 1, 64));
        assert!(!pipeline_depth_is_valid(Method::BreadthFirst, 65, 64));

        assert!(batch_shards_evenly(48, 4));
        assert!(!batch_shards_evenly(7, 4));
        assert!(!batch_shards_evenly(7, 0));

        assert!(microbatch_fits_replica(48, 8));
        assert!(!microbatch_fits_replica(20, 8));
        assert!(!microbatch_fits_replica(20, 0));

        assert!(loop_count_is_valid(Method::BreadthFirst, 8, 8, 64));
        assert!(!loop_count_is_valid(Method::BreadthFirst, 8, 16, 64));
        assert!(
            !loop_count_is_valid(Method::BreadthFirst, 8, 3, 64),
            "24 ∤ 64"
        );
        assert!(loop_count_is_valid(Method::NonLooped, 8, 1, 64));
        assert!(!loop_count_is_valid(Method::NonLooped, 8, 2, 64));

        assert!(depth_first_shape_is_valid(Method::DepthFirst, 2, 16, 8));
        assert!(!depth_first_shape_is_valid(Method::DepthFirst, 1, 16, 8));
        assert!(!depth_first_shape_is_valid(Method::DepthFirst, 2, 12, 8));
        assert!(depth_first_shape_is_valid(Method::BreadthFirst, 1, 12, 8));

        assert!(action_count_within(12, 8, 8, 2_000));
        assert!(!action_count_within(12, 8, 8, 1_000));
    }

    #[test]
    fn list_builders_are_ascending_and_filtered() {
        assert_eq!(pipeline_depths(Method::NoPipeline, 64, 64), vec![1]);
        assert_eq!(pipeline_depths(Method::BreadthFirst, 8, 64), vec![2, 4, 8]);
        // Micro-batch sizes capped at 16 but still dividing 48 (16 ∤ 20).
        assert_eq!(microbatch_sizes(48, 16), vec![1, 2, 4, 8, 16]);
        assert_eq!(microbatch_sizes(20, 16), vec![1, 2, 4]);
        // Powers of two whose stage count divides 64 layers at N_PP = 8.
        assert_eq!(
            loop_counts(Method::BreadthFirst, 8, 64, 16),
            vec![1, 2, 4, 8]
        );
        assert_eq!(loop_counts(Method::NonLooped, 8, 64, 16), vec![1]);
    }

    #[test]
    fn enumeration_is_sorted_in_candidate_order() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        for method in Method::ALL {
            let cands: Vec<Candidate> = enumerate(&model, &cluster, method, 48, &opts()).collect();
            assert!(
                !cands.is_empty(),
                "{method} must have candidates at batch 48"
            );
            assert!(
                cands.windows(2).all(|w| w[0] < w[1]),
                "{method}: enumeration must be strictly ascending in order_key"
            );
        }
    }

    #[test]
    fn every_candidate_satisfies_the_predicates() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        let o = opts();
        for method in Method::ALL {
            for c in enumerate(&model, &cluster, method, 48, &o) {
                assert_eq!(c.grid.num_gpus(), cluster.num_gpus());
                assert!(pipeline_depth_is_valid(
                    method,
                    c.grid.n_pp,
                    model.num_layers
                ));
                assert!(batch_shards_evenly(48, c.grid.n_dp));
                assert!(loop_count_is_valid(
                    method,
                    c.grid.n_pp,
                    c.placement.n_loop(),
                    model.num_layers
                ));
                assert!(depth_first_shape_is_valid(
                    method,
                    c.placement.n_loop(),
                    c.batch.num_microbatches,
                    c.grid.n_pp
                ));
                assert!(action_count_within(
                    c.batch.num_microbatches,
                    c.grid.n_pp,
                    c.placement.n_loop(),
                    o.max_actions
                ));
                assert_eq!(c.config().global_batch_size(), 48);
            }
        }
    }

    #[test]
    fn depth_first_candidates_fill_their_rounds() {
        let model = models::bert_52b();
        let cluster = presets::dgx1_v100(8);
        for c in enumerate(&model, &cluster, Method::DepthFirst, 64, &opts()) {
            assert!(c.placement.n_loop() >= 2);
            assert_eq!(c.batch.num_microbatches % c.grid.n_pp, 0);
            assert_eq!(c.kind, ScheduleKind::DepthFirst);
            assert_eq!(c.dp, DataParallelism::Unsharded);
        }
    }

    #[test]
    fn speed_proportional_layers_favor_fast_devices_and_sum() {
        let model = models::bert_52b(); // 64 layers
        let cluster = presets::mixed_v100_a100(1, 1); // node 0 V100s, node 1 A100s
                                                      // pp is the outermost rank axis: pp=0 → rank 0 (V100 island),
                                                      // pp=1 → rank 8 (A100 island).
        let grid = Grid::new(1, 8, 2);
        let counts = speed_proportional_layers(&model, &cluster, grid);
        // Quotas 64·125/437 ≈ 18.3 and 64·312/437 ≈ 45.7; the one spare
        // layer goes to the larger fractional part (the A100 stage).
        assert_eq!(counts, vec![18, 46]);
        assert_eq!(counts.iter().sum::<u32>(), model.num_layers);
        assert_eq!(
            counts,
            speed_proportional_layers(&model, &cluster, grid),
            "apportionment is a pure function of its inputs"
        );
    }

    #[test]
    fn speed_proportional_layers_never_starve_a_stage() {
        // 4 layers over 4 stages, three slow and one fast: the raw
        // quotas floor to zero on the slow stages, and the repair loop
        // must hand every stage at least one layer while keeping the sum.
        let tiny = TransformerConfig::new("tiny-4l", 4, 8, 64, 128, 1000);
        let cluster = presets::mixed_v100_a100(3, 1);
        let counts = speed_proportional_layers(&tiny, &cluster, Grid::new(1, 8, 4));
        assert_eq!(counts.iter().sum::<u32>(), 4);
        assert!(counts.iter().all(|&c| c >= 1), "{counts:?}");
    }

    #[test]
    fn speed_proportional_is_enumerated_only_on_diverse_fleets() {
        let model = models::bert_52b();
        let o = opts();
        // Homogeneous fleets keep their historical candidate stream.
        let homogeneous = presets::dgx1_v100(16);
        assert!(
            enumerate(&model, &homogeneous, Method::BreadthFirst, 48, &o)
                .all(|c| c.split == SplitStrategy::Uniform)
        );
        // A mixed fleet enumerates both strategies, still in strict
        // candidate order, and every speed-proportional point resolves
        // to a valid per-device configuration.
        let mixed = presets::mixed_v100_a100(1, 1);
        let cands: Vec<Candidate> =
            enumerate(&model, &mixed, Method::BreadthFirst, 48, &o).collect();
        assert!(cands
            .iter()
            .any(|c| c.split == SplitStrategy::SpeedProportional));
        assert!(cands.iter().any(|c| c.split == SplitStrategy::Uniform));
        assert!(cands.windows(2).all(|w| w[0] < w[1]));
        for c in cands
            .iter()
            .filter(|c| c.split == SplitStrategy::SpeedProportional)
        {
            assert!(c.grid.n_pp > 1, "split is only a pipeline variable");
            let cfg = c.config_on(&model, &mixed);
            assert!(matches!(cfg.layer_split, LayerSplit::PerDevice(_)));
            assert!(cfg.validate(&model, &mixed).is_ok(), "{c:?}");
        }
    }

    #[test]
    fn order_key_ranks_kind_by_schedule_order() {
        let base = Candidate {
            grid: Grid::new(8, 1, 8),
            placement: Placement::linear(8),
            batch: BatchConfig::new(8, 1),
            kind: ScheduleKind::GPipe,
            dp: DataParallelism::Unsharded,
            split: SplitStrategy::Uniform,
        };
        let later = Candidate {
            kind: ScheduleKind::OneFOneB,
            ..base
        };
        assert!(base < later, "GPipe enumerates before 1F1B");
        let sharded = Candidate {
            dp: DataParallelism::FullySharded,
            ..base
        };
        assert!(base < sharded, "DP_0 enumerates before DP_FS");
    }
}
