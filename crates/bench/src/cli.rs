//! Shared command-line parsing for the `reproduce_*` binaries.
//!
//! Every driver accepts the same small flag vocabulary (`--threads N`,
//! `--trace out.json`, `--mem-trace mem.json`, boolean switches like
//! `--ethernet`, plus at most one positional such as a model name).
//! [`BenchArgs`] parses that vocabulary once, so the sixteen binaries
//! share one definition of "which flags take values" instead of each
//! re-deriving the skip-the-flag-value positional scan.

use std::time::Duration;

use bfpp_exec::search::SearchOptions;

/// Flags whose following argument is a value, not a positional.
const VALUED_FLAGS: &[&str] = &[
    "--threads",
    "--trace",
    "--mem-trace",
    "--deadline-ms",
    "--max-candidates",
];

/// The parsed command line of a reproduction driver.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    args: Vec<String>,
}

impl BenchArgs {
    /// Parses the process's own arguments (program name skipped).
    pub fn from_env() -> BenchArgs {
        BenchArgs {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// Parses an explicit argument list (tests use this).
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> BenchArgs {
        BenchArgs {
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// The `--threads N` search worker count; `0` (available
    /// parallelism) when absent or malformed.
    pub fn threads(&self) -> usize {
        self.value("--threads")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// The `--trace <path>` value: the file a Chrome-trace JSON dump of
    /// the run's timelines should be written to (open it in
    /// `ui.perfetto.dev` or `chrome://tracing`). `None` when the flag is
    /// absent or has no value.
    pub fn trace(&self) -> Option<String> {
        self.value("--trace").map(str::to_string)
    }

    /// The `--mem-trace <path>` value: like [`BenchArgs::trace`], but
    /// selects the memory-and-bandwidth trace variant — the same time
    /// tracks plus stacked per-device `"memory (bytes)"` counter tracks
    /// and per-link `"pp MB/s"` / `"dp MB/s"` bandwidth counters (see
    /// `bfpp_exec::memprof`). `None` when the flag is absent or has no
    /// value.
    pub fn mem_trace(&self) -> Option<String> {
        self.value("--mem-trace").map(str::to_string)
    }

    /// Whether a boolean switch (e.g. `--ethernet`) is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The argument following the first `name`, if any.
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.args.iter().position(|a| a == name)?;
        self.args.get(i + 1).map(String::as_str)
    }

    /// The parsed `u64` value following `name`, if present and valid.
    fn valued_u64(&self, name: &str) -> Option<u64> {
        self.value(name).and_then(|v| v.parse().ok())
    }

    /// The `--deadline-ms N` search budget: stop at the bound with the
    /// best-so-far winner and `timed_out` reported. Wall-clock, so not
    /// part of the bit-stability contract.
    pub fn deadline(&self) -> Option<Duration> {
        self.valued_u64("--deadline-ms").map(Duration::from_millis)
    }

    /// The `--max-candidates N` search budget: visit at most N
    /// enumerated candidates. Deterministic (truncates at a fixed chunk
    /// boundary), unlike `--deadline-ms`.
    pub fn max_candidates(&self) -> Option<u64> {
        self.valued_u64("--max-candidates")
    }

    /// The first positional argument: the first token that neither
    /// starts with `--` nor is the value of a preceding valued flag.
    pub fn positional(&self) -> Option<&str> {
        self.args
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || !VALUED_FLAGS.contains(&self.args[i - 1].as_str()))
            .map(|(_, a)| a.as_str())
            .find(|a| !a.starts_with("--"))
    }

    /// [`BenchArgs::positional`] with a fallback (the usual
    /// default-model pattern).
    pub fn positional_or(&self, default: &str) -> String {
        self.positional().unwrap_or(default).to_string()
    }

    /// Search options carrying the command line's `--threads` choice
    /// and `--deadline-ms` / `--max-candidates` budgets (everything
    /// else at its default).
    pub fn search_options(&self) -> SearchOptions {
        SearchOptions {
            threads: self.threads(),
            deadline: self.deadline(),
            max_candidates: self.max_candidates(),
            ..SearchOptions::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_skips_flag_values() {
        let a = BenchArgs::new(["--threads", "2", "6.6b", "--trace", "t.json"]);
        assert_eq!(a.positional(), Some("6.6b"));
        assert_eq!(a.threads(), 2);
        assert_eq!(a.trace(), Some("t.json".to_string()));
        assert_eq!(a.mem_trace(), None);
        // "2" is --threads' value, not a positional; with the model
        // absent the default applies.
        let b = BenchArgs::new(["--threads", "2", "--ethernet"]);
        assert_eq!(b.positional(), None);
        assert_eq!(b.positional_or("52b"), "52b");
        assert!(b.flag("--ethernet"));
        assert!(!b.flag("--quick"));
    }

    #[test]
    fn threads_parses_the_flag() {
        assert_eq!(BenchArgs::new(["--threads", "4"]).threads(), 4);
        assert_eq!(
            BenchArgs::new(["52b", "--threads", "2", "--x"]).threads(),
            2
        );
        assert_eq!(BenchArgs::new(["52b"]).threads(), 0);
        assert_eq!(BenchArgs::new(["--threads"]).threads(), 0);
        assert_eq!(BenchArgs::new(["--threads", "lots"]).threads(), 0);
        assert_eq!(BenchArgs::new(Vec::<String>::new()).threads(), 0);
    }

    #[test]
    fn trace_parses_the_flag() {
        assert_eq!(
            BenchArgs::new(["--trace", "out.json"]).trace(),
            Some("out.json".to_string())
        );
        assert_eq!(
            BenchArgs::new(["52b", "--threads", "2", "--trace", "t.json"]).trace(),
            Some("t.json".to_string())
        );
        assert_eq!(BenchArgs::new(["52b"]).trace(), None);
        assert_eq!(BenchArgs::new(["--trace"]).trace(), None);
        assert_eq!(BenchArgs::new(Vec::<String>::new()).trace(), None);
    }

    #[test]
    fn mem_trace_parses_the_flag() {
        assert_eq!(
            BenchArgs::new(["--mem-trace", "mem.json"]).mem_trace(),
            Some("mem.json".to_string())
        );
        assert_eq!(
            BenchArgs::new(["52b", "--trace", "t.json", "--mem-trace", "m.json"]).mem_trace(),
            Some("m.json".to_string())
        );
        // `--trace` and `--mem-trace` are independent flags.
        assert_eq!(BenchArgs::new(["--trace", "t.json"]).mem_trace(), None);
        assert_eq!(BenchArgs::new(["--mem-trace"]).mem_trace(), None);
        assert_eq!(BenchArgs::new(Vec::<String>::new()).mem_trace(), None);
    }

    #[test]
    fn positional_in_first_place_wins_even_after_flags() {
        let a = BenchArgs::new(["52b", "--threads", "4"]);
        assert_eq!(a.positional(), Some("52b"));
        let b = BenchArgs::new(["--ethernet", "6.6b"]);
        assert_eq!(b.positional(), Some("6.6b"));
    }

    #[test]
    fn search_options_carry_threads() {
        let a = BenchArgs::new(["--threads", "3"]);
        assert_eq!(a.search_options().threads, 3);
        assert_eq!(BenchArgs::new(["x"]).search_options().threads, 0);
    }

    #[test]
    fn budget_flags_feed_search_options() {
        let a = BenchArgs::new(["--deadline-ms", "250", "--max-candidates", "5000", "52b"]);
        let opts = a.search_options();
        assert_eq!(opts.deadline, Some(Duration::from_millis(250)));
        assert_eq!(opts.max_candidates, Some(5000));
        // Budget values are flag values, not positionals.
        assert_eq!(a.positional(), Some("52b"));
        // Absent or malformed budgets fall back to unbounded.
        let b = BenchArgs::new(["--deadline-ms", "soon"]);
        assert_eq!(b.search_options().deadline, None);
        assert_eq!(b.search_options().max_candidates, None);
    }

    #[test]
    fn empty_args_are_fine() {
        let a = BenchArgs::new(Vec::<String>::new());
        assert_eq!(a.positional(), None);
        assert_eq!(a.threads(), 0);
        assert_eq!(a.trace(), None);
    }
}
