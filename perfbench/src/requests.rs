//! The NDJSON request lines every planner workload sends, generated from
//! the workload seed. The program only ever sees these lines: each is
//! parsed with `bfpp_planner::wire::parse_line`, exactly as the daemon
//! parses a client's line.

use crate::stats::SplitMix64;

/// The seed whose inputs the stored expectations were recorded with.
pub const DEFAULT_SEED: u64 = 0;

/// The `cold_1t` jitter seeds. `--seed n` picks entry `n mod 8`; the
/// default seed picks the CI telemetry request's own seed, 7. Every
/// entry's answer is stored in `expect/cold_1t.tsv`.
pub const COLD_JITTER_SEEDS: [u64; 8] = [7, 11, 13, 17, 19, 23, 29, 31];

/// Methods of the Fig. 5a panel, in the paper's order (wire names).
pub const PANEL_METHODS: [&str; 4] = ["breadth_first", "depth_first", "non_looped", "no_pipeline"];

/// The paper's eleven Fig. 5a batch sizes.
pub const PANEL_BATCHES: [u64; 11] = [8, 9, 12, 16, 24, 32, 48, 64, 128, 256, 512];

/// Nodes of the Fig. 5a cluster.
pub const PANEL_NODES: u32 = 8;

/// GPUs per DGX-1 node.
pub const GPUS_PER_NODE: u32 = 8;

/// The straggler and link-degradation factor of every what-if.
pub const WHATIF_FACTOR: &str = "1.5";

/// The fleet node dropped and re-added at the end of every round.
pub const FLEET_DROP_NODE: u32 = 3;

/// The CI search limits the panel and fleet requests carry.
const LIMITS: &str = "\"max_microbatch\":4,\"max_loop\":8,\"max_actions\":30000";

/// The `cold_1t` jitter seed for workload seed `seed`.
pub fn cold_jitter_seed(seed: u64) -> u64 {
    COLD_JITTER_SEEDS[(seed % COLD_JITTER_SEEDS.len() as u64) as usize]
}

/// The CI telemetry request (1T on 32×DGX-A100-80GB, breadth-first,
/// batch 512), without its `eval` and `threads` fields, at the jitter
/// seed `seed` selects.
pub fn cold_1t_line(seed: u64) -> String {
    format!(
        "{{\"id\":\"cold-1t\",\"model\":\"1t\",\"cluster\":\"dgx_a100_80gb\",\"nodes\":32,\
         \"method\":\"breadth_first\",\"kernel\":\"a100\",\"batch\":512,\"max_microbatch\":8,\
         \"max_loop\":16,\"max_actions\":200000,\"jitter\":0.5,\"seed\":{}}}",
        cold_jitter_seed(seed)
    )
}

/// One Fig. 5a panel cell: 52b on 8×DGX-1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Wire method name.
    pub method: &'static str,
    /// Global batch.
    pub batch: u64,
}

impl Cell {
    /// Every panel cell, method-major.
    pub fn panel() -> Vec<Cell> {
        PANEL_METHODS
            .iter()
            .flat_map(|&method| {
                PANEL_BATCHES
                    .iter()
                    .map(move |&batch| Cell { method, batch })
            })
            .collect()
    }

    /// The cell's request line with a perturbation suffix `extra`
    /// (`""` for the clean request), identified by `id`.
    fn line(&self, id: &str, extra: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"model\":\"52b\",\"cluster\":\"dgx1_v100\",\"nodes\":{PANEL_NODES},\
             \"method\":\"{}\",\"batch\":{},{LIMITS}{extra}}}",
            self.method, self.batch
        )
    }

    fn id(&self, what: &str) -> String {
        format!("{}/b{}/{what}", self.method, self.batch)
    }

    /// The clean (priming) request.
    pub fn clean_line(&self) -> String {
        self.line(&self.id("clean"), "")
    }

    /// The what-if with GPU `device` as a straggler.
    pub fn straggler_line(&self, device: u32) -> String {
        self.line(
            &self.id(&format!("s{device}")),
            &format!(",\"straggler\":{{\"device\":{device},\"factor\":{WHATIF_FACTOR}}}"),
        )
    }

    /// The what-if with every link degraded.
    pub fn link_line(&self) -> String {
        self.line(
            &self.id("link"),
            &format!(",\"link_degradation\":{WHATIF_FACTOR}"),
        )
    }
}

/// The 4-node fleet request (52b, breadth-first, batch 48), optionally
/// carrying an elastic `delta` object.
pub fn fleet_line(id: &str, delta: Option<&str>) -> String {
    let delta = delta.map_or_else(String::new, |d| format!(",\"delta\":{d}"));
    format!(
        "{{\"id\":\"{id}\",\"model\":\"52b\",\"cluster\":\"dgx1_v100\",\"nodes\":4,\
         \"method\":\"breadth_first\",\"batch\":48,{LIMITS}{delta}}}"
    )
}

/// The drop half of the elastic flap.
pub fn fleet_drop_line() -> String {
    fleet_line(
        "fleet/drop",
        Some(&format!("{{\"drop_node\":{FLEET_DROP_NODE}}}")),
    )
}

/// The re-add half of the elastic flap. Its delta applies to the
/// client's current (post-drop) request, as an elastic client holds it.
pub fn fleet_readd_line() -> String {
    fleet_line("fleet/readd", Some("{\"add_node\":\"dgx1_v100\"}"))
}

/// The order in which GPU indices straggle: round `r` slows GPU
/// `rotation[r % 8]` of every node. A seeded permutation, so every run
/// of 8 rounds makes each of the 64 GPUs a straggler once.
pub fn straggler_rotation(seed: u64) -> Vec<u32> {
    SplitMix64::new(seed)
        .permutation(GPUS_PER_NODE as usize)
        .into_iter()
        .map(|g| g as u32)
        .collect()
}

/// The 8 straggler devices of round `round`: one GPU per node.
pub fn round_stragglers(rotation: &[u32], round: usize) -> Vec<u32> {
    let gpu = rotation[round % rotation.len()];
    (0..PANEL_NODES)
        .map(|node| node * GPUS_PER_NODE + gpu)
        .collect()
}

/// One round's what-if lines, in send order: per cell, its 8 straggler
/// what-ifs and then its link degradation.
pub fn whatif_lines(cells: &[Cell], stragglers: &[u32]) -> Vec<String> {
    cells
        .iter()
        .flat_map(|cell| {
            stragglers
                .iter()
                .map(|&d| cell.straggler_line(d))
                .chain(std::iter::once(cell.link_line()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_ci_request() {
        assert_eq!(cold_jitter_seed(DEFAULT_SEED), 7);
        assert!(cold_1t_line(DEFAULT_SEED).contains("\"seed\":7"));
        assert!(!cold_1t_line(DEFAULT_SEED).contains("threads"));
    }

    #[test]
    fn eight_rounds_cover_every_gpu_once() {
        let rot = straggler_rotation(42);
        let mut seen: Vec<u32> = (0..8).flat_map(|r| round_stragglers(&rot, r)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn a_round_is_398_requests() {
        let lines = whatif_lines(&Cell::panel(), &round_stragglers(&straggler_rotation(1), 0));
        assert_eq!(lines.len() + 2, 398);
    }
}
