//! The three closed-loop workloads. Each op is timed on its own; an op
//! whose answer check fails is counted as failed.
//!
//! * [`RegenPaper`] — one fresh `reproduce_all` process per op.
//! * [`Cold1t`] — one cold plan of the CI telemetry request per op, on a
//!   fresh `Planner` with the process-wide class cache cleared.
//! * [`Whatif5a`] — one round of 398 warm what-if and elastic re-plans
//!   per op, on one long-lived `Planner`.
//!
//! A traced op additionally records spans around each public layer call
//! and the registry deltas of the planners it used.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use bfpp_analytic::tradeoff::TradeoffModel;
use bfpp_bench::figures::{
    figure1, figure2, figure3, figure4, figure5_sweep_with, figure5_table, figure6, figure7,
    SweepRow,
};
use bfpp_bench::robustness::{most_graceful, robustness_table, straggler_sweep, SEVERITIES};
use bfpp_bench::tables::{table_5_1, table_e};
use bfpp_cluster::ClusterSpec;
use bfpp_exec::search::SearchOptions;
use bfpp_exec::{ClassCache, KernelModel, MetricsSnapshot};
use bfpp_model::TransformerConfig;
use bfpp_planner::wire::{done_line, parse_line, Request};
use bfpp_planner::{ClusterDelta, PlanRequest, Planner};

use crate::checks::{check_cold, warm_started, Expectations, RegenReference};
use crate::registry::RegistryTotals;
use crate::replica::Replica;
use crate::requests::{
    cold_1t_line, cold_jitter_seed, fleet_drop_line, fleet_line, fleet_readd_line,
    round_stragglers, straggler_rotation, whatif_lines, Cell, PANEL_BATCHES,
};
use crate::spans::{maybe_span, Tracer};
use crate::stats::{children_peak_rss_mib, own_peak_rss_mib};

/// One timed op.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Wall time of the op, ms.
    pub ms: f64,
    /// The answer check.
    pub check: Result<(), String>,
}

/// What traced ops accumulate beyond their spans.
#[derive(Debug)]
pub struct Traced<'t> {
    /// Where spans go.
    pub tracer: &'t Tracer,
    /// Registry deltas of every planner the ops used.
    pub registry: RegistryTotals,
    /// The same deltas, for the current (last) op only.
    pub last_op: RegistryTotals,
    /// Warm records held after each op, summed.
    pub warm_records: f64,
    /// Warm records quarantined by elastic drops, summed.
    pub quarantined: f64,
}

impl<'t> Traced<'t> {
    /// Accounting that starts empty.
    pub fn new(tracer: &'t Tracer) -> Self {
        Traced {
            tracer,
            registry: RegistryTotals::default(),
            last_op: RegistryTotals::default(),
            warm_records: 0.0,
            quarantined: 0.0,
        }
    }

    /// Starts op `op`: spans are stamped with it, and `last_op` counts
    /// from here.
    pub fn begin_op(&mut self, op: u64) {
        self.tracer.set_op(op);
        self.last_op = RegistryTotals::default();
    }

    /// Adds what one planner's registry counted between two snapshots
    /// taken during the current op.
    pub fn add_delta(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        self.registry.add_delta(before, after);
        self.last_op.add_delta(before, after);
    }
}

/// A closed-loop workload: one op in flight at a time.
pub trait Workload {
    /// Runs one op, traced when `traced` is given.
    fn op(&mut self, traced: Option<&mut Traced<'_>>) -> OpOutcome;

    /// Pushes the last op's requests through the evaluate sub-layers.
    fn replay_layers(&mut self, replica: &mut Replica<'_>);

    /// Peak resident set of the process doing the work, MiB.
    fn peak_rss_mib(&self) -> f64;
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A parsed planning line: its id, request and optional delta.
fn parse_plan(line: &str) -> Result<(String, PlanRequest, Option<ClusterDelta>), String> {
    match parse_line(line, "line") {
        Ok(Request::Plan { id, req, delta }) => Ok((id, *req, delta)),
        Ok(other) => Err(format!("not a plan request: {other:?}")),
        Err(e) => Err(format!("{}: {}", e.id, e.msg)),
    }
}

/// Parses, plans and renders one line on `planner`: the daemon's
/// request path without its session thread.
fn serve(
    planner: &Planner,
    line: &str,
    tracer: Option<&Tracer>,
) -> Result<(String, PlanRequest, String), String> {
    let (id, req, _) = maybe_span(tracer, "wire::parse_line", || parse_plan(line))?;
    let (result, report) = maybe_span(tracer, "Planner::plan", || planner.plan(&req));
    let done = maybe_span(tracer, "wire::done_line", || {
        done_line(&id, result.as_ref(), &report)
    });
    Ok((id, req, done))
}

/// `regen_paper`: the batch user's end-to-end run of the whole paper.
pub struct RegenPaper {
    exe: PathBuf,
    reference: RegenReference,
    in_process: bool,
    /// The last in-process op's sweeps: (model, cluster, rows,
    /// trade-off).
    sweeps: Vec<(
        TransformerConfig,
        ClusterSpec,
        Vec<SweepRow>,
        Option<TradeoffModel>,
    )>,
}

/// Cluster sizes Figure 6 extrapolates to (as `reproduce_all`).
const FIG6_SIZES: [u32; 8] = [256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// The paper's Figure 5b and 5c batch lists (6.6 B, and 6.6 B over
/// Ethernet); 5a's is the `whatif_5a` panel's.
const FIG5_BATCHES_6_6B: [u64; 12] = [8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512];
const FIG5_BATCHES_ETH: [u64; 7] = [64, 96, 128, 192, 256, 384, 512];

impl RegenPaper {
    /// Runs `exe` (a `reproduce_all` build) per op and checks its output
    /// against `reference`. With `in_process`, every op runs
    /// `reproduce_all`'s body in this process instead, as traced ops
    /// always do: the traced run's untraced baseline takes the same path
    /// as its traced ops.
    pub fn new(exe: PathBuf, reference: RegenReference, in_process: bool) -> Self {
        RegenPaper {
            exe,
            reference,
            in_process,
            sweeps: Vec::new(),
        }
    }

    fn run_process(&self) -> (f64, Result<String, String>) {
        let t0 = Instant::now();
        let child = Command::new(&self.exe)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => return (ms_since(t0), Err(format!("{}: {e}", self.exe.display()))),
        };
        let mut out = String::new();
        let read = child.stdout.take().map(|mut s| s.read_to_string(&mut out));
        let status = child.wait();
        let ms = ms_since(t0);
        let result = match (read, status) {
            (Some(Ok(_)), Ok(s)) if s.success() => Ok(out),
            (_, Ok(s)) => Err(format!("reproduce_all exited with {s}")),
            (_, Err(e)) => Err(format!("reproduce_all: {e}")),
        };
        (ms, result)
    }

    /// `reproduce_all`'s body, in-process, with a span per bench layer
    /// when traced. Returns the same stdout text.
    fn run_in_process(&mut self, mut traced: Option<&mut Traced<'_>>) -> String {
        let t = traced.as_ref().map(|tr| tr.tracer);
        let mut out = String::new();
        let section = |out: &mut String, title: &str| {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&format!("# {title}\n"));
        };

        section(&mut out, "Table 5.1");
        let table = maybe_span(t, "analytic", table_5_1);
        maybe_span(t, "render", || out.push_str(&table.to_text()));
        section(&mut out, "Figure 2 (CSV)");
        let table = maybe_span(t, "analytic", figure2);
        maybe_span(t, "render", || out.push_str(&table.to_csv()));
        section(&mut out, "Figure 3");
        out.push_str(&maybe_span(t, "analytic", figure3));
        for (title, fig) in [("Figure 4", figure4 as fn() -> _), ("Figure 7", figure7)] {
            section(&mut out, title);
            let (art, table) = maybe_span(t, "analytic", fig);
            out.push_str(&art);
            maybe_span(t, "render", || out.push_str(&table.to_text()));
        }

        let model = bfpp_model::presets::bert_52b();
        let cluster = bfpp_cluster::presets::dgx1_v100(8);
        let rows = maybe_span(t, "straggler_sweep", || {
            straggler_sweep(&model, &cluster, &SEVERITIES)
        });
        section(&mut out, "Straggler sensitivity (CSV)");
        maybe_span(t, "render", || {
            out.push_str(&robustness_table(&rows).to_csv())
        });
        if let Some((kind, worst)) = most_graceful(&rows) {
            out.push_str(&format!(
                "most graceful: {kind} (worst-case retention {:.1}%)\n",
                worst * 100.0
            ));
        }

        self.sweeps.clear();
        let peak = cluster.node.gpu.peak_fp16_flops;
        let m66 = bfpp_model::presets::bert_6_6b();
        let eth = bfpp_cluster::presets::dgx1_v100_ethernet(8);
        let panels: [(&str, &TransformerConfig, &ClusterSpec, &[u64]); 3] = [
            ("a", &model, &cluster, &PANEL_BATCHES),
            ("b", &m66, &cluster, &FIG5_BATCHES_6_6B),
            ("c", &m66, &eth, &FIG5_BATCHES_ETH),
        ];
        let table_e_names = ["E.1", "E.2", "E.3"];
        for (i, (panel, m, c, batches)) in panels.into_iter().enumerate() {
            let tradeoff = match panel {
                "a" => Some(maybe_span(t, "analytic", || {
                    TradeoffModel::paper_52b(m, peak)
                })),
                "b" => Some(maybe_span(t, "analytic", || {
                    TradeoffModel::paper_6_6b(m, peak)
                })),
                _ => None,
            };
            let planner = Planner::new();
            let before = planner.metrics_snapshot();
            let rows = maybe_span(t, "figure5_sweep_with", || {
                figure5_sweep_with(&planner, m, c, batches, &SearchOptions::default())
            });
            if let Some(tr) = traced.as_deref_mut() {
                tr.add_delta(&before, &planner.metrics_snapshot());
                tr.warm_records += planner.warm().map_or(0, |w| w.len()) as f64;
            }
            let n = c.num_gpus();
            section(&mut out, &format!("Figure 5{panel} (CSV)"));
            maybe_span(t, "render", || {
                out.push_str(&figure5_table(&rows, n).to_csv())
            });
            section(&mut out, &format!("Table {} (CSV)", table_e_names[i]));
            maybe_span(t, "render", || out.push_str(&table_e(&rows).to_csv()));
            if let Some(tradeoff) = &tradeoff {
                if panel == "a" {
                    section(&mut out, "Figure 1");
                    let table = maybe_span(t, "analytic", || figure1(&rows, n, tradeoff));
                    maybe_span(t, "render", || out.push_str(&table.to_text()));
                }
                section(&mut out, &format!("Figure 6{panel} (CSV)"));
                let table = maybe_span(t, "figure6", || {
                    figure6(m, c, &rows, n, tradeoff, &FIG6_SIZES)
                });
                maybe_span(t, "render", || out.push_str(&table.to_csv()));
            }
            self.sweeps.push((m.clone(), c.clone(), rows, tradeoff));
        }
        out
    }
}

impl Workload for RegenPaper {
    fn op(&mut self, traced: Option<&mut Traced<'_>>) -> OpOutcome {
        let (ms, output) = if self.in_process || traced.is_some() {
            // Empty, as in a fresh process.
            ClassCache::global().clear();
            let t = traced.as_ref().map(|tr| tr.tracer);
            let t0 = Instant::now();
            let out = maybe_span(t, "reproduce_all", || self.run_in_process(traced));
            (ms_since(t0), Ok(out))
        } else {
            self.run_process()
        };
        let check = output.and_then(|out| self.reference.check(&out));
        OpOutcome { ms, check }
    }

    fn replay_layers(&mut self, replica: &mut Replica<'_>) {
        // The op started on an empty class cache and gave each panel a
        // planner of its own.
        replica.forget();
        let kernel = KernelModel::v100();
        for (model, cluster, rows, tradeoff) in &self.sweeps {
            replica.forget_schedules();
            for row in rows {
                let req = PlanRequest::new(
                    model.clone(),
                    cluster.clone(),
                    row.method,
                    row.batch,
                    kernel.clone(),
                );
                replica.search(&req);
            }
            if let Some(tradeoff) = tradeoff {
                replica.figure6_profiles(model, cluster, rows, tradeoff, &FIG6_SIZES);
            }
        }
        replica.forget();
    }

    fn peak_rss_mib(&self) -> f64 {
        children_peak_rss_mib()
    }
}

/// `cold_1t`: the worst-case cold request of a long-running service.
pub struct Cold1t {
    line: String,
    jitter_seed: u64,
    stored: String,
    last: Option<PlanRequest>,
}

impl Cold1t {
    /// The request `seed` generates, checked against `stored` (the
    /// contents of `expect/cold_1t.tsv`).
    pub fn new(seed: u64, stored: String) -> Self {
        Cold1t {
            line: cold_1t_line(seed),
            jitter_seed: cold_jitter_seed(seed),
            stored,
            last: None,
        }
    }

    /// Plans the request once, cold, and returns its `done` line (for
    /// recording expectations).
    pub fn answer(&self) -> Result<String, String> {
        ClassCache::global().clear();
        serve(&Planner::new(), &self.line, None).map(|(_, _, done)| done)
    }
}

impl Workload for Cold1t {
    fn op(&mut self, traced: Option<&mut Traced<'_>>) -> OpOutcome {
        ClassCache::global().clear();
        let planner = Planner::new();
        let tracer = traced.as_ref().map(|t| t.tracer);
        let before = traced.as_ref().map(|_| planner.metrics_snapshot());
        let t0 = Instant::now();
        let served = maybe_span(tracer, "op", || serve(&planner, &self.line, tracer));
        let ms = ms_since(t0);
        if let (Some(tr), Some(before)) = (traced, before) {
            tr.add_delta(&before, &planner.metrics_snapshot());
            tr.warm_records += planner.warm().map_or(0, |w| w.len()) as f64;
        }
        let check = served.and_then(|(_, req, done)| {
            self.last = Some(req);
            check_cold(&self.stored, self.jitter_seed, &done)
        });
        OpOutcome { ms, check }
    }

    fn replay_layers(&mut self, replica: &mut Replica<'_>) {
        // A fresh planner on an empty class cache.
        if let Some(req) = &self.last {
            replica.forget();
            replica.search(req);
            replica.forget();
        }
    }

    fn peak_rss_mib(&self) -> f64 {
        own_peak_rss_mib()
    }
}

/// `whatif_5a`: warm what-if and elastic re-planning on one planner.
pub struct Whatif5a {
    planner: Planner,
    cells: Vec<Cell>,
    rotation: Vec<u32>,
    round: usize,
    expect: Expectations,
    fleet: Option<PlanRequest>,
    /// The last round's answers: (request id, `done` line).
    pub answers: Vec<(String, String)>,
    /// The last round's requests, per cell, then the elastic ones.
    last_requests: Vec<Vec<PlanRequest>>,
}

impl Whatif5a {
    /// A planner primed with nothing yet; `seed` picks the straggler
    /// rotation, `expect` holds the stored winners.
    pub fn new(seed: u64, expect: Expectations) -> Self {
        Whatif5a {
            planner: Planner::new(),
            cells: Cell::panel(),
            rotation: straggler_rotation(seed),
            round: 0,
            expect,
            fleet: None,
            answers: Vec::new(),
            last_requests: Vec::new(),
        }
    }

    /// Mutable access to the stored winners (tests corrupt them).
    pub fn expectations_mut(&mut self) -> &mut Expectations {
        &mut self.expect
    }

    /// Primes, cold, the Fig. 5a panel and the 4-node fleet, then runs
    /// `warmup_rounds` untimed rounds.
    ///
    /// # Errors
    ///
    /// When a priming line fails to parse.
    pub fn setup(&mut self, warmup_rounds: usize) -> Result<(), String> {
        for cell in &self.cells {
            serve(&self.planner, &cell.clean_line(), None)?;
        }
        let (_, fleet, _) = serve(&self.planner, &fleet_line("fleet", None), None)?;
        self.fleet = Some(fleet);
        for _ in 0..warmup_rounds {
            self.op(None);
        }
        Ok(())
    }
}

impl Workload for Whatif5a {
    fn op(&mut self, traced: Option<&mut Traced<'_>>) -> OpOutcome {
        let lines = whatif_lines(&self.cells, &round_stragglers(&self.rotation, self.round));
        self.round += 1;
        let (drop_line, readd_line) = (fleet_drop_line(), fleet_readd_line());
        let tracer = traced.as_ref().map(|t| t.tracer);
        let before = traced.as_ref().map(|_| self.planner.metrics_snapshot());
        let mut errors: Vec<String> = Vec::new();
        let mut answers: Vec<(String, String)> = Vec::with_capacity(lines.len() + 2);
        let mut requests: Vec<PlanRequest> = Vec::with_capacity(lines.len());
        let mut quarantined = 0usize;
        let planner = &self.planner;
        let fleet = self.fleet.clone();

        let t0 = Instant::now();
        maybe_span(tracer, "op", || {
            for line in &lines {
                match serve(planner, line, tracer) {
                    Ok((id, req, done)) => {
                        answers.push((id, done));
                        requests.push(req);
                    }
                    Err(e) => errors.push(e),
                }
            }
            let Some(fleet) = fleet else {
                errors.push("fleet not primed".to_string());
                return;
            };
            // The elastic flap: drop node 3 and re-plan the survivors,
            // then re-add it to the client's current request.
            let mut flap = || -> Result<(), String> {
                let (id, req, delta) =
                    maybe_span(tracer, "wire::parse_line", || parse_plan(&drop_line))?;
                let delta = delta.ok_or("drop line has no delta")?;
                let records = planner.warm().map_or(0, |w| w.len());
                let (degraded, result, report) =
                    maybe_span(tracer, "Planner::replan(drop)", || {
                        planner.replan(&req, &delta)
                    })
                    .map_err(|e| e.to_string())?;
                quarantined = records.saturating_sub(planner.warm().map_or(0, |w| w.len()));
                answers.push((
                    id.clone(),
                    maybe_span(tracer, "wire::done_line", || {
                        done_line(&id, result.as_ref(), &report)
                    }),
                ));
                let (id, _, delta) =
                    maybe_span(tracer, "wire::parse_line", || parse_plan(&readd_line))?;
                let delta = delta.ok_or("re-add line has no delta")?;
                let (restored, result, report) = maybe_span(tracer, "Planner::replan(add)", || {
                    planner.replan(&degraded, &delta)
                })
                .map_err(|e| e.to_string())?;
                if restored.cluster != fleet.cluster {
                    return Err("re-add did not restore the fleet".to_string());
                }
                answers.push((
                    id.clone(),
                    maybe_span(tracer, "wire::done_line", || {
                        done_line(&id, result.as_ref(), &report)
                    }),
                ));
                requests.push(degraded);
                requests.push(restored);
                Ok(())
            };
            if let Err(e) = flap() {
                errors.push(e);
            }
        });
        let ms = ms_since(t0);

        if let (Some(tr), Some(before)) = (traced, before) {
            tr.add_delta(&before, &self.planner.metrics_snapshot());
            tr.warm_records += self.planner.warm().map_or(0, |w| w.len()) as f64;
            tr.quarantined += quarantined as f64;
        }
        for (id, done) in &answers {
            let must_warm = id != "fleet/readd";
            if must_warm && !warm_started(done) {
                errors.push(format!("{id}: did not warm-start"));
            } else if let Err(e) = self.expect.check(id, done) {
                errors.push(e);
            }
        }
        // Replica groups: one per cell (its nine what-ifs share a warm
        // record), then each elastic topology on its own.
        let per_cell = lines.len() / self.cells.len().max(1);
        let (whatifs, elastic) = requests.split_at(requests.len().min(lines.len()));
        self.last_requests = whatifs
            .chunks(per_cell.max(1))
            .map(<[_]>::to_vec)
            .chain(elastic.iter().map(|r| vec![r.clone()]))
            .collect();
        self.answers = answers;
        let check = match errors.first() {
            None => Ok(()),
            Some(first) => Err(format!("{} failed checks; first: {first}", errors.len())),
        };
        OpOutcome { ms, check }
    }

    fn replay_layers(&mut self, replica: &mut Replica<'_>) {
        // The engine serves every request of a round from warm records,
        // cached class bases and cached schedules, so the replica fills
        // its maps untimed with each group's requests first and then
        // times them. Emptying the maps between groups only bounds
        // memory: every class a group needs is built in its warm-up.
        for group in &self.last_requests {
            for req in group {
                replica.warm(req);
            }
            for req in group {
                replica.search(req);
            }
            replica.forget();
        }
    }

    fn peak_rss_mib(&self) -> f64 {
        own_peak_rss_mib()
    }
}
