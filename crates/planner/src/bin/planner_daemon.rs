//! `planner_daemon` — the planner as a supervised line-oriented
//! service.
//!
//! Reads one JSON request per stdin line, runs each as a concurrent
//! planning session over one shared [`Planner`] (shared worker pool,
//! schedule cache, warm-start store), and streams newline-delimited
//! JSON events to stdout. Requests submitted while earlier ones are
//! still searching share their caches — the second request for a
//! (model, cluster, method, batch) the daemon has already solved
//! warm-starts instead of re-enumerating.
//!
//! Request format (one object per line; `model`, `batch` required):
//!
//! ```json
//! {"id":"r1","model":"bert-52b","cluster":"dgx1_v100","nodes":8,
//!  "method":"breadth_first","batch":512,"threads":2,
//!  "max_microbatch":8,"max_loop":16,
//!  "deadline_ms":5000,"max_candidates":100000,
//!  "straggler":{"device":3,"factor":1.5},"jitter":0.01,"seed":7}
//! ```
//!
//! * `model` — a name `bfpp_model::presets::by_name` knows
//!   (`bert-52b`, `bert-6.6b`, `gpt-3`, `1t`).
//! * `cluster` — `dgx1_v100` (default), `dgx1_v100_ethernet`,
//!   `dgx_a100`, `dgx_a100_80gb`, `mixed_v100_a100`,
//!   `mixed_v100_a100_asym`, `paper`, `figure1`; `nodes` scales the
//!   node-count presets (default 8; the mixed presets split it into a
//!   V100 and an A100 island, V100s taking the extra node when odd).
//! * `method` — `breadth_first` (default), `depth_first`,
//!   `non_looped`, `no_pipeline`.
//! * `kernel` — `v100` (default), `a100`, `ideal`.
//! * `threads` — search worker count (`0` = available parallelism);
//!   `max_microbatch` / `max_loop` / `max_actions` — enumeration
//!   limits. Integers too large for their option are an `error`.
//! * `deadline_ms` / `max_candidates` — per-request budgets: the
//!   search stops at the bound with its best-so-far and reports
//!   `"timed_out":true`.
//! * `straggler` / `jitter` / `link_degradation` / `seed` — the
//!   perturbation for what-if re-planning; omitted = clean run.
//! * `delta` — an elastic topology change applied *before* planning:
//!   `{"drop_node":N}` removes node `N` from the line's cluster
//!   (quarantining the old topology's warm records first),
//!   `{"add_node":"<node-preset>"}` appends one (`dgx1_v100`,
//!   `dgx1_v100_ethernet`, `dgx_a100_40gb`, `dgx_a100_80gb`). The
//!   session plans the post-delta topology; a delta that does not
//!   apply is answered with an `error` line.
//!
//! Fields not listed here are ignored. A listed field with the wrong
//! type or outside its range (`jitter` in `[0, 1)`, `factor` and
//! `link_degradation` finite and at least 1, `nodes` at least 1 and at
//! most 256 for the mixed presets) is an `error` naming it. A line nested deeper than `bfpp_sim::json::MAX_DEPTH`
//! arrays or objects is an `error`, like any other malformed JSON.
//!
//! Control lines:
//!
//! * `{"drain": true}` cancels every live session, joins them, emits a
//!   final `{"event":"drained",...}` summary of the registry's session
//!   outcome counters, and exits 0 — the graceful-shutdown path.
//! * `{"ping": true}` answers immediately with
//!   `{"event":"pong","version":...}` — a liveness probe that touches
//!   nothing.
//! * `{"stats": true}` answers with `{"event":"stats",...}`: a snapshot
//!   of the planner's one metrics registry (session outcome counters,
//!   search metrics, executor gauges, latency-histogram summaries) as
//!   one JSON line, without disturbing live sessions.
//!
//! Responses (`id` echoes the request, or `line-N` if absent) are
//! typed by `"event"`: `improved`, `done` (terminal, with `cancelled`
//! and `timed_out` flags), `failed` (terminal: the session panicked
//! and was isolated — the daemon survives), `rejected` (terminal:
//! admission control declined; resubmit later), `progress` (periodic
//! per-session heartbeats, see `--progress-every-ms`), and `error`
//! (the line never became a session; JSON syntax errors name the byte
//! offset in `"at"`). Malformed input is answered, never fatal: the
//! daemon keeps reading.
//!
//! Flags:
//!
//! * `--max-in-flight N` (default 32) bounds concurrent sessions —
//!   excess requests get `rejected` instead of unbounded queueing.
//! * `--progress-every-ms N` emits a `progress` heartbeat for each
//!   live session every `N` milliseconds: candidates evaluated so far,
//!   the pruned split, best-so-far throughput, and elapsed time.
//! * `--metrics PATH` writes the final telemetry snapshot to `PATH` in
//!   Prometheus text exposition format on drain and on EOF exit.
//!
//! EOF on stdin drains every in-flight session before exiting, so
//! `printf '...' | planner_daemon` terminates once all streams have
//! ended with their terminal event.

use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bfpp_planner::wire::{
    done_line, error_line, failed_line, improved_line, parse_line, pong_line, progress_line,
    rejected_line, stats_line, Request, WireError,
};
use bfpp_planner::{CancelToken, PlanEvent, Planner};
use bfpp_sim::MetricsSnapshot;
use crossbeam::channel::RecvTimeoutError;

/// Default admission cap: enough for every realistic interactive load,
/// small enough that a runaway client gets `rejected` lines instead of
/// an unbounded thread pile-up.
const DEFAULT_MAX_IN_FLIGHT: usize = 32;

/// Parsed command-line flags.
struct Args {
    max_in_flight: usize,
    /// Heartbeat cadence; `None` = no `progress` lines.
    progress_every: Option<Duration>,
    /// Where to write the Prometheus text snapshot on exit.
    metrics_path: Option<String>,
}

/// One live (or finished) session the daemon supervises: the cancel
/// token reaches the session, the pump thread forwards its events.
struct Session {
    token: CancelToken,
    pump: JoinHandle<()>,
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| {
        eprintln!("planner_daemon: {msg}");
        std::process::exit(2);
    });
    let stdin = std::io::stdin();
    let out = Arc::new(Mutex::new(std::io::stdout()));
    let planner = Arc::new(Planner::with_admission(0, args.max_in_flight));
    let mut sessions: Vec<Session> = Vec::new();

    for (lineno, line) in stdin.lock().lines().enumerate() {
        let fallback_id = format!("line-{}", lineno + 1);
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                // An unreadable line (e.g. invalid UTF-8) is answered
                // like any other bad input; the daemon keeps serving.
                emit(
                    &out,
                    &error_line(&WireError {
                        id: fallback_id,
                        at: None,
                        msg: format!("unreadable input line: {e}"),
                    }),
                );
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        // Reap sessions whose pump already finished: a long-running
        // daemon must not accumulate one dead JoinHandle per request
        // served (admission control caps *live* sessions, not history).
        reap_finished(&mut sessions);
        match parse_line(&line, &fallback_id) {
            Ok(Request::Drain) => {
                drain(&out, &planner, std::mem::take(&mut sessions));
                write_metrics_file(&planner, args.metrics_path.as_deref());
                return;
            }
            Ok(Request::Ping) => emit(&out, &pong_line()),
            Ok(Request::Stats) => emit(&out, &stats_line(&planner.metrics_snapshot())),
            Ok(Request::Plan { id, req, delta }) => {
                // An elastic delta rewrites the request for the
                // post-change topology first (quarantining what the
                // change invalidates); a delta that does not apply is
                // answered as an error line, never a session.
                let req = match delta {
                    Some(d) => match planner.apply_delta(&req, &d) {
                        Ok(next) => next,
                        Err(e) => {
                            emit(
                                &out,
                                &error_line(&WireError {
                                    id,
                                    at: None,
                                    msg: format!("delta does not apply: {e}"),
                                }),
                            );
                            continue;
                        }
                    },
                    None => *req,
                };
                match planner.try_submit(req) {
                    Ok(handle) => {
                        let out = Arc::clone(&out);
                        let token = handle.cancel_token();
                        let progress_every = args.progress_every;
                        // One pump thread per session: forwards its events
                        // to stdout as they arrive, interleaved with other
                        // live sessions line-by-line. With a heartbeat
                        // cadence configured, the pump waits on the event
                        // stream with a timeout and turns each quiet
                        // period into a `progress` line — no extra ticker
                        // thread, and heartbeats can never reorder around
                        // the terminal event they precede.
                        let pump = std::thread::spawn(move || {
                            let started = Instant::now();
                            loop {
                                let ev = match progress_every {
                                    Some(period) => match handle.events().recv_timeout(period) {
                                        Ok(ev) => ev,
                                        Err(RecvTimeoutError::Timeout) => {
                                            let elapsed = started.elapsed().as_millis() as u64;
                                            emit(
                                                &out,
                                                &progress_line(&id, &handle.progress(), elapsed),
                                            );
                                            continue;
                                        }
                                        Err(RecvTimeoutError::Disconnected) => break,
                                    },
                                    None => match handle.recv() {
                                        Some(ev) => ev,
                                        None => break,
                                    },
                                };
                                match ev {
                                    PlanEvent::Improved(r) => {
                                        emit(&out, &improved_line(&id, &r));
                                    }
                                    PlanEvent::Done { result, report } => {
                                        emit(&out, &done_line(&id, result.as_ref(), &report));
                                        break;
                                    }
                                    PlanEvent::Failed { error } => {
                                        emit(&out, &failed_line(&id, &error));
                                        break;
                                    }
                                }
                            }
                        });
                        sessions.push(Session { token, pump });
                    }
                    Err(reason) => emit(&out, &rejected_line(&id, &reason)),
                }
            }
            Err(err) => emit(&out, &error_line(&err)),
        }
    }

    for session in sessions {
        let _ = session.pump.join();
    }
    write_metrics_file(&planner, args.metrics_path.as_deref());
    eprintln!("planner_daemon: {}", summary(&planner.metrics_snapshot()));
}

/// Writes the final telemetry snapshot as Prometheus text exposition —
/// the `--metrics` flag's exit artifact. A write failure is reported on
/// stderr but never changes the exit path: telemetry must not take the
/// daemon down with it.
fn write_metrics_file(planner: &Planner, path: Option<&str>) {
    let Some(path) = path else {
        return;
    };
    let text = planner.metrics_snapshot().render_prometheus();
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("planner_daemon: writing --metrics file {path:?}: {e}");
    }
}

/// Joins and drops every session whose pump thread has already exited
/// (its terminal event was emitted), keeping only live ones.
fn reap_finished(sessions: &mut Vec<Session>) {
    let mut i = 0;
    while i < sessions.len() {
        if sessions[i].pump.is_finished() {
            let _ = sessions.remove(i).pump.join();
        } else {
            i += 1;
        }
    }
}

/// The graceful-shutdown path: cancel every live session, join their
/// pumps (each session still emits its terminal event, so clients see
/// a complete protocol), report the session outcome counters, exit 0.
fn drain(out: &Arc<Mutex<std::io::Stdout>>, planner: &Planner, sessions: Vec<Session>) {
    for session in &sessions {
        session.token.cancel();
    }
    for session in sessions {
        let _ = session.pump.join();
    }
    let snap = planner.metrics_snapshot();
    let fields: Vec<String> = OUTCOMES
        .iter()
        .map(|(field, metric)| format!("\"{field}\":{}", snap.counter(metric)))
        .collect();
    emit(
        out,
        &format!("{{\"event\":\"drained\",{}}}", fields.join(",")),
    );
    eprintln!("planner_daemon: drained; {}", summary(&snap));
}

/// The session outcome counters the `drained` line and the exit summary
/// report, keyed by their `drained` field names.
const OUTCOMES: [(&str, &str); 7] = [
    ("submitted", "planner_requests_submitted_total"),
    ("completed", "planner_requests_completed_total"),
    ("cancelled", "planner_requests_cancelled_total"),
    ("failed", "planner_requests_failed_total"),
    ("timed_out", "planner_requests_timed_out_total"),
    ("rejected", "planner_requests_rejected_total"),
    ("leaked", "planner_sessions_leaked_total"),
];

fn summary(snap: &MetricsSnapshot) -> String {
    let mut parts: Vec<String> = OUTCOMES
        .iter()
        .map(|(field, metric)| format!("{} {}", snap.counter(metric), field.replace('_', " ")))
        .collect();
    parts.push(format!(
        "{} warm-started",
        snap.counter("search_warm_starts_total")
    ));
    parts.join(", ")
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        max_in_flight: DEFAULT_MAX_IN_FLIGHT,
        progress_every: None,
        metrics_path: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-in-flight" => {
                let v = args
                    .next()
                    .ok_or("--max-in-flight needs a value".to_string())?;
                let limit = v
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --max-in-flight value {v:?}"))?;
                if limit == 0 {
                    return Err("--max-in-flight must be at least 1".to_string());
                }
                parsed.max_in_flight = limit;
            }
            "--progress-every-ms" => {
                let v = args
                    .next()
                    .ok_or("--progress-every-ms needs a value".to_string())?;
                let ms = v
                    .parse::<u64>()
                    .map_err(|_| format!("invalid --progress-every-ms value {v:?}"))?;
                if ms == 0 {
                    return Err("--progress-every-ms must be at least 1".to_string());
                }
                parsed.progress_every = Some(Duration::from_millis(ms));
            }
            "--metrics" => {
                let path = args.next().ok_or("--metrics needs a path".to_string())?;
                parsed.metrics_path = Some(path);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn emit(out: &Mutex<std::io::Stdout>, line: &str) {
    let mut out = out.lock().unwrap_or_else(|p| p.into_inner());
    writeln!(out, "{line}").expect("writing to stdout");
    out.flush().expect("flushing stdout");
}
