//! # bfpp-bench — the benchmark harness
//!
//! One driver per table and figure of the paper. The `reproduce_*`
//! binaries print CSV (plus, where it helps, ASCII timelines) with the
//! same rows/series the paper reports; `reproduce_all` runs everything.
//! The Criterion benches under `benches/` measure the harness's own
//! moving parts (solver, schedule generation, collectives, search,
//! training step).

pub mod cli;
pub mod figures;
pub mod report;
pub mod robustness;
pub mod tables;

pub use cli::BenchArgs;

/// Parses a `--threads N` flag from an argument list (the search worker
/// count; `0` = available parallelism). Missing or malformed values fall
/// back to `0`.
pub fn threads_arg<S: AsRef<str>>(args: &[S]) -> usize {
    args.iter()
        .position(|a| a.as_ref() == "--threads")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.as_ref().parse().ok())
        .unwrap_or(0)
}

/// Parses a `--trace <path>` flag from an argument list: the file a
/// Chrome-trace JSON dump of the run's timelines should be written to
/// (open it in `ui.perfetto.dev` or `chrome://tracing`). Returns `None`
/// when the flag is absent or has no value.
pub fn trace_arg<S: AsRef<str>>(args: &[S]) -> Option<String> {
    args.iter()
        .position(|a| a.as_ref() == "--trace")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.as_ref().to_string())
}

/// Parses a `--mem-trace <path>` flag from an argument list: like
/// [`trace_arg`], but selects the memory-and-bandwidth trace variant —
/// the same time tracks plus stacked per-device `"memory (bytes)"`
/// counter tracks and per-link `"pp MB/s"` / `"dp MB/s"` bandwidth
/// counters (see `bfpp_exec::memprof`). Returns `None` when the flag is
/// absent or has no value.
pub fn mem_trace_arg<S: AsRef<str>>(args: &[S]) -> Option<String> {
    args.iter()
        .position(|a| a.as_ref() == "--mem-trace")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.as_ref().to_string())
}

/// Writes a Chrome-trace JSON string to `path` and confirms on stderr
/// (stderr so the CSV on stdout stays machine-readable).
///
/// # Panics
///
/// Panics if the file cannot be written — in a reproduction binary a
/// silently dropped trace is worse than an abort.
pub fn write_trace(path: &str, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("failed to write trace to {path}: {e}"));
    eprintln!("wrote Chrome trace to {path} (open in ui.perfetto.dev)");
}

#[cfg(test)]
mod tests {
    #[test]
    fn threads_arg_parses_the_flag() {
        assert_eq!(super::threads_arg(&["--threads", "4"]), 4);
        assert_eq!(super::threads_arg(&["52b", "--threads", "2", "--x"]), 2);
        assert_eq!(super::threads_arg(&["52b"]), 0);
        assert_eq!(super::threads_arg(&["--threads"]), 0);
        assert_eq!(super::threads_arg(&["--threads", "lots"]), 0);
        assert_eq!(super::threads_arg::<&str>(&[]), 0);
    }

    #[test]
    fn trace_arg_parses_the_flag() {
        assert_eq!(
            super::trace_arg(&["--trace", "out.json"]),
            Some("out.json".to_string())
        );
        assert_eq!(
            super::trace_arg(&["52b", "--threads", "2", "--trace", "t.json"]),
            Some("t.json".to_string())
        );
        assert_eq!(super::trace_arg(&["52b"]), None);
        assert_eq!(super::trace_arg(&["--trace"]), None);
        assert_eq!(super::trace_arg::<&str>(&[]), None);
    }

    #[test]
    fn mem_trace_arg_parses_the_flag() {
        assert_eq!(
            super::mem_trace_arg(&["--mem-trace", "mem.json"]),
            Some("mem.json".to_string())
        );
        assert_eq!(
            super::mem_trace_arg(&["52b", "--trace", "t.json", "--mem-trace", "m.json"]),
            Some("m.json".to_string())
        );
        // `--trace` and `--mem-trace` are independent flags.
        assert_eq!(super::mem_trace_arg(&["--trace", "t.json"]), None);
        assert_eq!(super::mem_trace_arg(&["--mem-trace"]), None);
        assert_eq!(super::mem_trace_arg::<&str>(&[]), None);
    }
}
