//! The benchmark harness.
//!
//! ```text
//! perfbench --workload NAME|all --seed N --seconds S --trace 0|1 \
//!           --root DIR --reproduce-all PATH [--spans DIR]
//! perfbench record --root DIR
//! ```
//!
//! `run.py` builds everything and calls the first form. It runs each
//! workload in worker processes of its own (`perfbench worker ...`)
//! and prints, as the last line of stdout, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `record` rewrites the stored expectations under
//! `expect/` from the program's current answers.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use perfbench::checks::{field, winner_of, Expectations, RegenReference};
use perfbench::layers::{compute, render_table, LayerInputs, LAYERS};
use perfbench::replica::Replica;
use perfbench::requests::{COLD_JITTER_SEEDS, DEFAULT_SEED, GPUS_PER_NODE};
use perfbench::spans::Tracer;
use perfbench::stats::{median, quantile, steal_share, steal_ticks};
use perfbench::workloads::{Cold1t, RegenPaper, Traced, Whatif5a, Workload};
use perfbench::{COLD_EXPECTATIONS, WHATIF_EXPECTATIONS, WORKLOADS};

/// Worker processes per untraced run: each sets up from launch, so the
/// run reports the median of this many set-ups.
const WORKERS: usize = 4;

/// Untimed warm-up rounds of `whatif_5a`: one full straggler rotation.
const WHATIF_WARMUP_ROUNDS: usize = GPUS_PER_NODE as usize;

/// A traced run alternates untraced and traced ops in blocks of one
/// straggler rotation, so both kinds see every `whatif_5a` straggler
/// GPU equally often.
const TRACE_BLOCK: usize = GPUS_PER_NODE as usize;

#[derive(Debug, Clone)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    reproduce_all: PathBuf,
    spans: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let get = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .cloned()
        };
        let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
        let num = |flag: &str| -> Result<f64, String> {
            need(flag)?
                .parse::<f64>()
                .map_err(|e| format!("{flag}: {e}"))
        };
        Ok(Opts {
            workload: need("--workload")?,
            seed: get("--seed").map_or(Ok(DEFAULT_SEED), |s| {
                s.parse().map_err(|e| format!("--seed: {e}"))
            })?,
            seconds: num("--seconds")?,
            trace: get("--trace").as_deref() == Some("1"),
            root: PathBuf::from(need("--root")?),
            reproduce_all: PathBuf::from(need("--reproduce-all")?),
            spans: get("--spans").map(PathBuf::from),
        })
    }

    fn worker_args(&self, seconds: f64) -> Vec<String> {
        let mut a = vec![
            "worker".to_string(),
            "--workload".into(),
            self.workload.clone(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
            "--root".into(),
            self.root.display().to_string(),
            "--reproduce-all".into(),
            self.reproduce_all.display().to_string(),
        ];
        if let Some(s) = &self.spans {
            a.extend(["--spans".into(), s.display().to_string()]);
        }
        a
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => Opts::parse(&args[1..]).and_then(|o| worker(&o)),
        Some("record") => args
            .iter()
            .position(|a| a == "--root")
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| "record needs --root".to_string())
            .and_then(|root| record(&PathBuf::from(root))),
        _ => Opts::parse(&args).and_then(|o| drive(&o)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one worker process reported.
#[derive(Debug, Default)]
struct WorkerReport {
    /// Launch-to-ready seconds.
    setup_s: Option<f64>,
    /// Each op's latency, ms.
    ops_ms: Vec<f64>,
    /// Seconds the ops loop ran.
    wall_s: f64,
    failed: u64,
    rss_mib: f64,
    layers: BTreeMap<String, f64>,
    exited_ok: bool,
}

fn spawn_worker(opts: &Opts, seconds: f64) -> Result<WorkerReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(opts.worker_args(seconds))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning a worker: {e}"))?;
    let mut rep = WorkerReport::default();
    let stdout = child.stdout.take().ok_or("worker has no stdout")?;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let parts: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| {
            parts
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        match parts.first().copied() {
            Some("ready") => rep.setup_s = Some(t0.elapsed().as_secs_f64()),
            Some("op") => {
                rep.ops_ms.push(num(1));
                if parts.get(2) != Some(&"1") {
                    rep.failed += 1;
                }
            }
            Some("wall") => rep.wall_s += num(1),
            Some("rss") => rep.rss_mib = num(1),
            Some("mismatch") => rep.failed += 1,
            Some("layer") if parts.len() == 3 => {
                rep.layers.insert(parts[1].to_string(), num(2));
            }
            _ => {}
        }
    }
    rep.exited_ok = child.wait().map_err(|e| e.to_string())?.success();
    Ok(rep)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn drive(opts: &Opts) -> Result<(), String> {
    if opts.workload == "all" {
        for w in WORKLOADS {
            drive(&Opts {
                workload: w.to_string(),
                ..opts.clone()
            })?;
        }
        return Ok(());
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?} or all)",
            opts.workload
        ));
    }
    if !opts.root.join("results").is_dir() {
        return Err(format!("{} holds no results/", opts.root.display()));
    }
    let (metrics, attempted, failed, correct) = if opts.trace {
        traced_metrics(opts)?
    } else {
        end_to_end_metrics(opts)?
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    std::io::stdout().flush().map_err(|e| e.to_string())
}

type Metrics = (Vec<(String, &'static str, f64)>, u64, u64, bool);

fn end_to_end_metrics(opts: &Opts) -> Result<Metrics, String> {
    let per = opts.seconds / WORKERS as f64;
    let (steal0, t0) = (steal_ticks(), Instant::now());
    let mut reports = Vec::new();
    for _ in 0..WORKERS {
        reports.push(spawn_worker(opts, per)?);
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let steal_pct = 100.0
        * steal_share(
            steal_ticks().saturating_sub(steal0),
            t0.elapsed().as_secs_f64(),
            cpus,
        );
    let setups: Vec<f64> = reports.iter().filter_map(|r| r.setup_s).collect();
    let ops: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.ops_ms.iter().copied())
        .collect();
    let wall: f64 = reports.iter().map(|r| r.wall_s).sum();
    let rss: Vec<f64> = reports.iter().map(|r| r.rss_mib).collect();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let correct = failed == 0
        && !ops.is_empty()
        && setups.len() == WORKERS
        && reports.iter().all(|r| r.exited_ok);
    let metrics = vec![
        ("setup_s".to_string(), "s", median(&setups), setups.len()),
        ("op_ms_p50".to_string(), "ms", median(&ops), ops.len()),
        (
            "ops_per_s".to_string(),
            "1/s",
            if wall > 0.0 {
                ops.len() as f64 / wall
            } else {
                0.0
            },
            ops.len(),
        ),
        ("peak_rss_mib".to_string(), "MiB", median(&rss), rss.len()),
    ];
    // Host CPU steal is the machine's neighbours taking its CPUs; on a
    // shared host it moves every time metric (README.md, "Sizing and
    // noise").
    eprintln!(
        "{} (seed {}): {} ops in {WORKERS} workers, {failed} failed; \
         host CPU steal {steal_pct:.1}% of {cpus} CPUs",
        opts.workload,
        opts.seed,
        ops.len(),
    );
    eprintln!(
        "{:<14} {:<5} {:>14} {:>8}",
        "metric", "unit", "value", "samples"
    );
    for (name, unit, v, n) in &metrics {
        eprintln!("{name:<14} {unit:<5} {v:>14.4} {n:>8}");
    }
    // The highest latency percentile with at least ten samples above
    // it: reported for reading, not gated.
    if ops.len() > 20 {
        let q = 1.0 - 10.0 / ops.len() as f64;
        let name = format!("op_ms_p{:.0}", q * 100.0);
        eprintln!(
            "{name:<14} ms    {:>14.4} {:>8}",
            quantile(&ops, q),
            ops.len()
        );
    }
    Ok((
        metrics.into_iter().map(|(n, u, v, _)| (n, u, v)).collect(),
        ops.len() as u64,
        failed,
        correct,
    ))
}

fn traced_metrics(opts: &Opts) -> Result<Metrics, String> {
    let rep = spawn_worker(opts, opts.seconds)?;
    let correct = rep.failed == 0 && !rep.ops_ms.is_empty() && rep.exited_ok;
    let metrics = LAYERS
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit,
                rep.layers.get(d.name).copied().unwrap_or(0.0),
            )
        })
        .collect();
    Ok((metrics, rep.ops_ms.len() as u64, rep.failed, correct))
}

fn build(opts: &Opts) -> Result<Box<dyn Workload>, String> {
    Ok(match opts.workload.as_str() {
        "regen_paper" => {
            let reference = RegenReference::load(&opts.root.join("results"))?;
            let mut w = RegenPaper::new(opts.reproduce_all.clone(), reference, opts.trace);
            report_warmup(w.op(None).check);
            Box::new(w)
        }
        "cold_1t" => {
            let mut w = Cold1t::new(opts.seed, COLD_EXPECTATIONS.to_string());
            report_warmup(w.op(None).check);
            Box::new(w)
        }
        "whatif_5a" => {
            let mut w = Whatif5a::new(opts.seed, Expectations::parse(WHATIF_EXPECTATIONS));
            w.setup(WHATIF_WARMUP_ROUNDS)?;
            Box::new(w)
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn report_warmup(check: Result<(), String>) {
    if let Err(e) = check {
        eprintln!("warm-up op failed its check: {e}");
    }
}

/// Runs ops until `seconds` have passed, reporting each op's latency
/// and check. With `traced`, blocks of untraced and traced ops
/// alternate, so both kinds run under the same conditions. Returns the
/// untraced latencies, the traced ones and the loop's wall seconds.
fn run_ops(
    w: &mut dyn Workload,
    seconds: f64,
    mut traced: Option<&mut Traced<'_>>,
    out: &mut impl Write,
) -> Result<(Vec<f64>, Vec<f64>, f64), String> {
    let (mut plain, mut timed) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut reported = 0;
    // A traced loop ends on a traced op: the replica replays the last op.
    let mut tracing = false;
    while t0.elapsed() < budget || plain.is_empty() || (traced.is_some() && !tracing) {
        let block = (plain.len() + timed.len()) / TRACE_BLOCK;
        let tr = match traced.as_deref_mut() {
            Some(tr) if block % 2 == 1 => {
                tr.begin_op(timed.len() as u64);
                Some(tr)
            }
            _ => None,
        };
        tracing = tr.is_some();
        let o = w.op(tr);
        if let Err(e) = &o.check {
            if reported < 3 {
                eprintln!("op failed its check: {e}");
                reported += 1;
            }
        }
        writeln!(out, "op {} {}", o.ms, u8::from(o.check.is_ok())).map_err(|e| e.to_string())?;
        if tracing {
            timed.push(o.ms);
        } else {
            plain.push(o.ms);
        }
    }
    Ok((plain, timed, t0.elapsed().as_secs_f64()))
}

fn worker(opts: &Opts) -> Result<(), String> {
    let mut w = build(opts)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "ready").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    if !opts.trace {
        let (_, _, wall) = run_ops(w.as_mut(), opts.seconds, None, &mut out)?;
        writeln!(out, "wall {wall}\nrss {}", w.peak_rss_mib()).map_err(|e| e.to_string())?;
        return Ok(());
    }

    // Traced run: untraced and traced ops in turn, then the layer
    // replica on the last traced op.
    let tracer = Tracer::new();
    let mut traced = Traced::new(&tracer);
    let (plain, timed, _) = run_ops(w.as_mut(), opts.seconds, Some(&mut traced), &mut out)?;
    let op_spans = tracer.stats_since(0);
    let mark = tracer.len();
    tracer.set_op(timed.len() as u64);
    let mut replica = Replica::new(&tracer);
    tracer.span("replica", || w.replay_layers(&mut replica));
    let replica_spans = tracer.stats_since(mark);
    let rows = compute(&LayerInputs {
        ops: timed.len() as u64,
        op_spans: &op_spans,
        replica_spans: &replica_spans,
        calls: &replica.calls,
        traced: &traced,
        untraced_p50_ms: median(&plain),
        traced_p50_ms: median(&timed),
    });
    for (d, v) in &rows {
        writeln!(out, "layer {} {}", d.name, v.value).map_err(|e| e.to_string())?;
    }
    eprint!("{}", render_table(&opts.workload, &rows));
    // The replica must do the engine's evaluate work: it replays the
    // last op, so compare with that op's registry delta.
    let last = &traced.last_op;
    let parity = [
        (
            "configs simulated",
            replica.calls.simulated,
            last.get("search_candidates_simulated_total"),
        ),
        (
            "classes built",
            replica.calls.class_builds,
            last.get("class_cache_misses_total"),
        ),
        (
            "schedules generated",
            replica.calls.schedules,
            last.get("search_cache_misses_total"),
        ),
    ];
    eprintln!("replica vs the registry on the last op:");
    for (what, replica_n, registry_n) in parity {
        eprintln!("  {what:<20} {replica_n:>8} {registry_n:>8}");
    }
    // A replica that simulates other configs than the engine times
    // other work: the run fails.
    let (_, simulated, registry_simulated) = parity[0];
    if simulated as f64 != registry_simulated {
        eprintln!(
            "replica mismatch: it simulated {simulated} configs, the engine {registry_simulated}"
        );
        writeln!(out, "mismatch").map_err(|e| e.to_string())?;
    }
    if let Some(dir) = &opts.spans {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
        std::fs::write(&path, tracer.to_jsonl()).map_err(|e| e.to_string())?;
        eprintln!("wrote {} spans to {}", tracer.len(), path.display());
    }
    Ok(())
}

/// Rewrites `expect/*.tsv` under `root/perfbench` from the program's
/// current answers: every cold_1t jitter seed, and every what-if of
/// every GPU (one full rotation).
fn record(root: &std::path::Path) -> Result<(), String> {
    let dir = root.join("perfbench").join("expect");
    let mut cold = String::from(
        "# cold_1t answers per jitter seed\n\
         # seed\tkind\tdp\ttp\tpp\tloops\tmicrobatch\ttflops\tenumerated\tsimulated\n",
    );
    for (i, seed) in COLD_JITTER_SEEDS.iter().enumerate() {
        let done = Cold1t::new(i as u64, String::new()).answer()?;
        cold.push_str(&format!(
            "{seed}\t{}\t{}\t{}\n",
            winner_of(&done)?,
            field(&done, "enumerated").unwrap_or("?"),
            field(&done, "simulated").unwrap_or("?")
        ));
    }
    std::fs::write(dir.join("cold_1t.tsv"), cold).map_err(|e| e.to_string())?;

    let mut w = Whatif5a::new(DEFAULT_SEED, Expectations::default());
    w.setup(0)?;
    let mut all = Expectations::default();
    for _ in 0..8 {
        w.op(None);
        for (id, done) in &w.answers {
            all.winners.insert(id.clone(), winner_of(done)?);
        }
    }
    std::fs::write(
        dir.join("whatif_5a.tsv"),
        all.render("whatif_5a winners per request id (written by `perfbench record`)"),
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "recorded {} cold_1t seeds and {} what-if ids",
        COLD_JITTER_SEEDS.len(),
        all.winners.len()
    );
    Ok(())
}
