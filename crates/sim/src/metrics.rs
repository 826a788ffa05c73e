//! The workspace's one metrics registry: monotonic counters, gauges, and
//! deterministic log-bucketed histograms, with Prometheus text and
//! NDJSON renderers.
//!
//! Every count and wall-clock span the system keeps about itself lands
//! here: the planner's session lifecycle, the engine's per-request
//! search totals and phase spans, the training harness's retry loop and
//! the robustness sweep's lower/re-solve split. One request's own tally
//! travels in its typed `SearchReport` fields; anything that outlives a
//! request — or that a live process is asked distributional questions
//! about (the p99 plan latency, queue-wait trend, warm-start fraction)
//! — is recorded into a [`MetricsRegistry`]:
//!
//! * **Counters** are monotonic `u64` totals
//!   (`planner_requests_completed_total`, `executor_steals_total`).
//!   **Gauges** are signed instantaneous values (`planner_in_flight`).
//! * **Histograms** bucket `u64` observations (by convention
//!   nanoseconds, metric names ending `_ns`) into *fixed power-of-two
//!   boundaries*: bucket `k` holds `2^(k-1) ≤ v < 2^k` (bucket 0 holds
//!   exactly `0`). Boundaries are compiled in, never adapted to data, so
//!   the same observations produce bit-identical snapshots regardless
//!   of worker-thread count or arrival order, and
//!   [`Histogram::merge`] is associative and commutative — proptested
//!   in `tests/metrics_properties.rs`. Everything stored and rendered
//!   is integral: no float formatting can wobble across platforms.
//! * The registry is **lock-sharded** by metric-name hash (interior
//!   mutability spread over [`SHARDS`] mutexes, so hot counters on
//!   different names do not serialize), and every lock recovers from
//!   poisoning — metrics must survive a panicking session.
//!
//! Rendering: [`MetricsSnapshot::render_prometheus`] emits the text
//! exposition format (checkable with [`validate_prometheus`]);
//! [`MetricsSnapshot::render_ndjson`] emits one JSON object per line,
//! each of which passes [`validate_json`](crate::observe::validate_json).
//! Both iterate `BTreeMap`s, so output is byte-stable in name order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Number of histogram buckets: one for zero, one per power of two up
/// to `2^63`, and a final bucket for `v ≥ 2^63` (rendered as `+Inf`).
pub const BUCKETS: usize = 65;

/// The bucket index of an observation: `0` for `0`, else `k` such that
/// `2^(k-1) ≤ v < 2^k` (so the last bucket, 64, holds `v ≥ 2^63`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `i` (`0`, `2^i - 1`, …,
/// `u64::MAX` for the overflow bucket — the `le="+Inf"` of the
/// Prometheus rendering).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// A fixed-boundary log-bucketed histogram of `u64` observations.
///
/// Boundaries are powers of two (factor-2 resolution — coarse but
/// deterministic and merge-friendly; a latency p99 answered at 2×
/// resolution is exactly what a service dashboard needs). All state is
/// integral; `merge` is element-wise addition, hence associative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The count in bucket `i` (not cumulative).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// An upper bound on the `q`-quantile (`0.0 ≤ q ≤ 1.0`): the
    /// inclusive upper boundary of the bucket holding the `⌈q·count⌉`-th
    /// smallest observation. `0` when empty. Resolution is the bucket
    /// width (a factor of two), which is the deterministic trade-off.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Folds `other` into `self`. Element-wise addition on buckets,
    /// count and sum; min/max take the extremes — associative and
    /// commutative, so sub-results merge upward in any grouping.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Lock shards of the registry. Small and fixed: contention is per
/// name-hash, not per metric kind, and a snapshot visits each shard
/// once.
pub const SHARDS: usize = 8;

/// One shard's state: three name-keyed maps. `BTreeMap` so a snapshot
/// merge is already sorted.
#[derive(Debug, Default)]
struct Shard {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// FNV-1a: a stable, dependency-free name hash for shard selection.
/// (The std hasher is seeded per process; shard choice must not be —
/// not for correctness, which never depends on sharding, but so lock
/// contention profiles reproduce.)
fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// In debug builds, reject names the renderers cannot emit verbatim.
/// Metric names are internal identifiers, not user data — neither
/// renderer escapes them.
fn debug_check_name(name: &str) {
    debug_assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "metric name {name:?} must be a [A-Za-z0-9_:]+ identifier"
    );
}

/// The process-wide metrics registry: counters, gauges and histograms
/// keyed by name, sharded by name hash. Share it as an `Arc`; every
/// method takes `&self`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    shards: [Mutex<Shard>; SHARDS],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn shard(&self, name: &str) -> MutexGuard<'_, Shard> {
        debug_check_name(name);
        let i = (fnv1a(name) % SHARDS as u64) as usize;
        match self.shards[i].lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        *self
            .shard(name)
            .counters
            .entry(name.to_string())
            .or_insert(0) += delta;
    }

    /// Increments the named counter by one.
    pub fn counter_incr(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Sets the named counter to `v` if that does not decrease it — for
    /// exporters mirroring an external monotonic source (e.g. the
    /// executor's steal total) into the registry at snapshot time.
    pub fn counter_set(&self, name: &str, v: u64) {
        let mut shard = self.shard(name);
        let slot = shard.counters.entry(name.to_string()).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// The named counter's value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.shard(name).counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &str, v: i64) {
        self.shard(name).gauges.insert(name.to_string(), v);
    }

    /// Adds `delta` (may be negative) to the named gauge.
    pub fn gauge_add(&self, name: &str, delta: i64) {
        *self.shard(name).gauges.entry(name.to_string()).or_insert(0) += delta;
    }

    /// The named gauge's value (0 if never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.shard(name).gauges.get(name).copied().unwrap_or(0)
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        self.shard(name)
            .histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Records a wall-clock duration, in nanoseconds, into the named
    /// histogram (name it `*_ns`).
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.observe(name, u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A copy of the named histogram, if it has ever been observed.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.shard(name).histograms.get(name).cloned()
    }

    /// A consistent-per-shard, name-sorted copy of the whole registry.
    /// (Shards are visited one at a time — metrics written concurrently
    /// with a snapshot land in it or in the next one, never half-way.)
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for shard in &self.shards {
            let shard = match shard.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            for (k, v) in &shard.counters {
                *out.counters.entry(k.clone()).or_insert(0) += v;
            }
            for (k, v) in &shard.gauges {
                *out.gauges.entry(k.clone()).or_insert(0) += v;
            }
            for (k, h) in &shard.histograms {
                out.histograms.entry(k.clone()).or_default().merge(h);
            }
        }
        out
    }
}

/// A point-in-time copy of a [`MetricsRegistry`]: name-sorted maps,
/// mergeable (for multi-registry roll-ups) and renderable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The named counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's value (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds another snapshot into this one: counters and histogram
    /// buckets add, gauges add (a roll-up of instantaneous values sums
    /// them — in-flight across planners is the total in flight).
    /// Associative like [`Histogram::merge`].
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Prometheus text exposition: `# TYPE` comments, cumulative
    /// `_bucket{le="..."}` series per histogram, `_sum` and `_count`.
    /// Name-sorted within each metric kind; every rendered number is an
    /// integer, so the text is byte-stable for equal snapshots.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for i in 0..BUCKETS - 1 {
                if h.bucket(i) == 0 {
                    continue;
                }
                cumulative += h.bucket(i);
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper(i)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum(), h.count());
        }
        out
    }

    /// NDJSON: one JSON object per line per metric, name-sorted within
    /// each kind. Histogram bucket upper bounds are strings (`"255"`,
    /// `"+Inf"`) so the overflow bucket needs no special casing and no
    /// 64-bit integer is forced through a float. Each line passes
    /// [`validate_json`](crate::observe::validate_json).
    pub fn render_ndjson(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}"
            );
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{name}\",\"value\":{v}}}"
            );
        }
        for (name, h) in &self.histograms {
            let _ = write!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{name}\",\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"buckets\":[",
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
            );
            let mut first = true;
            for i in 0..BUCKETS {
                if h.bucket(i) == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let le = if i == BUCKETS - 1 {
                    "+Inf".to_string()
                } else {
                    bucket_upper(i).to_string()
                };
                let _ = write!(out, "{{\"le\":\"{le}\",\"count\":{}}}", h.bucket(i));
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// Validates Prometheus text exposition format: every line is a
/// `# TYPE`/`# HELP` comment or a `name[{labels}] value` sample whose
/// base name was declared by a preceding `# TYPE` (histogram samples
/// may use the `_bucket`/`_sum`/`_count` suffixes of their declared
/// base). Returns the 1-based line number and a message on the first
/// error — the renderer's test-side contract, like
/// [`validate_json`](crate::observe::validate_json) for the JSON side.
pub fn validate_prometheus(s: &str) -> Result<(), String> {
    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !s.starts_with(|c: char| c.is_ascii_digit())
    }
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    for (lineno, line) in s.lines().enumerate() {
        let err = |msg: String| Err(format!("line {}: {msg}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            if comment.starts_with("HELP ") {
                continue;
            }
            let Some(decl) = comment.strip_prefix("TYPE ") else {
                return err(format!("unknown comment {line:?}"));
            };
            let mut parts = decl.split(' ');
            let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            if !is_name(name) || parts.next().is_some() {
                return err(format!("malformed TYPE declaration {line:?}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return err(format!("unknown metric type {kind:?}"));
            }
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        // A sample: name, optional {labels}, one space, value.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: sample has no value: {line:?}", lineno + 1))?;
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return err(format!("unparseable sample value {value:?}"));
        }
        let name = series.split('{').next().unwrap_or("");
        if !is_name(name) {
            return err(format!("malformed metric name {name:?}"));
        }
        if let Some(rest) = series.strip_prefix(name) {
            let labels_ok = rest.is_empty()
                || (rest.starts_with('{')
                    && rest.ends_with('}')
                    && rest[1..rest.len() - 1].split(',').all(|kv| {
                        kv.split_once('=').is_some_and(|(k, v)| {
                            is_name(k) && v.len() >= 2 && v.starts_with('"') && v.ends_with('"')
                        })
                    }));
            if !labels_ok {
                return err(format!("malformed labels {rest:?}"));
            }
        }
        let declared = types.contains_key(name)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| types.get(base).map(String::as_str) == Some("histogram"))
            });
        if !declared {
            return err(format!("sample {name:?} has no preceding TYPE"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::validate_json;

    #[test]
    fn bucket_boundaries_are_the_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value is ≤ its bucket's upper bound and > the previous
        // bucket's.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 62, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper(i), "{v}");
            if i > 0 {
                assert!(v > bucket_upper(i - 1), "{v}");
            }
        }
    }

    #[test]
    fn histogram_counts_sums_and_extremes() {
        let mut h = Histogram::new();
        assert_eq!((h.count(), h.min(), h.max()), (0, None, None));
        for v in [10u64, 40, 15] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 65);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(40));
        assert_eq!(h.quantile(0.0), 15); // bucket of the smallest (8..=15)
        assert_eq!(h.quantile(1.0), 63); // bucket of the largest (32..=63)
    }

    #[test]
    fn merge_equals_observing_everything_in_one_histogram() {
        let values = [0u64, 1, 1, 7, 100, 5_000_000, u64::MAX];
        let mut all = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            all.observe(v);
            if i % 2 == 0 { &mut left } else { &mut right }.observe(v);
        }
        left.merge(&right);
        assert_eq!(left, all);
    }

    #[test]
    fn registry_roundtrip_and_snapshot() {
        let m = MetricsRegistry::new();
        m.counter_add("requests_total", 2);
        m.counter_incr("requests_total");
        m.counter_set("steals_total", 7);
        m.counter_set("steals_total", 3); // monotonic: no decrease
        m.gauge_set("in_flight", 4);
        m.gauge_add("in_flight", -1);
        m.observe("latency_ns", 1000);
        m.observe_duration("latency_ns", Duration::from_nanos(2000));
        assert_eq!(m.counter("requests_total"), 3);
        assert_eq!(m.counter("steals_total"), 7);
        assert_eq!(m.gauge("in_flight"), 3);
        assert_eq!(m.histogram("latency_ns").unwrap().count(), 2);
        let snap = m.snapshot();
        assert_eq!(snap.counter("requests_total"), 3);
        assert_eq!(snap.gauge("in_flight"), 3);
        assert_eq!(snap.histogram("latency_ns").unwrap().sum(), 3000);
        assert_eq!(snap.counter("never_touched"), 0);
    }

    #[test]
    fn snapshots_are_name_sorted_regardless_of_insertion_order() {
        let forward = MetricsRegistry::new();
        let backward = MetricsRegistry::new();
        let names = ["zeta", "alpha", "mid", "beta"];
        for n in names {
            forward.counter_incr(n);
            forward.observe(&format!("{n}_ns"), 42);
        }
        for n in names.iter().rev() {
            backward.counter_incr(n);
            backward.observe(&format!("{n}_ns"), 42);
        }
        let (a, b) = (forward.snapshot(), backward.snapshot());
        assert_eq!(a, b);
        assert_eq!(a.render_prometheus(), b.render_prometheus());
        assert_eq!(a.render_ndjson(), b.render_ndjson());
        let keys: Vec<&str> = a.counters.keys().map(String::as_str).collect();
        assert_eq!(keys, ["alpha", "beta", "mid", "zeta"]);
    }

    #[test]
    fn prometheus_rendering_validates_and_is_cumulative() {
        let m = MetricsRegistry::new();
        m.counter_add("requests_total", 5);
        m.gauge_set("depth", -2);
        m.observe("lat_ns", 3);
        m.observe("lat_ns", 3);
        m.observe("lat_ns", 900);
        let text = m.snapshot().render_prometheus();
        validate_prometheus(&text).expect(&text);
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("requests_total 5"), "{text}");
        assert!(text.contains("depth -2"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"3\"} 2"), "{text}");
        // 900 lands in 512..=1023; cumulative count there is 3.
        assert!(text.contains("lat_ns_bucket{le=\"1023\"} 3"), "{text}");
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("lat_ns_sum 906"), "{text}");
        assert!(text.contains("lat_ns_count 3"), "{text}");
    }

    #[test]
    fn ndjson_rendering_is_line_wise_valid_json() {
        let m = MetricsRegistry::new();
        m.counter_add("a_total", 1);
        m.gauge_set("b", -7);
        m.observe("c_ns", 0);
        m.observe("c_ns", u64::MAX);
        let text = m.snapshot().render_ndjson();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            validate_json(line).expect(line);
        }
        assert!(text.contains("\"le\":\"+Inf\""), "{text}");
        assert!(text.contains("\"le\":\"0\""), "{text}");
    }

    #[test]
    fn snapshot_merge_is_a_roll_up() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter_add("x", 1);
        b.counter_add("x", 2);
        a.gauge_set("g", 5);
        b.gauge_set("g", 7);
        a.observe("h_ns", 10);
        b.observe("h_ns", 20);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("x"), 3);
        assert_eq!(merged.gauge("g"), 12);
        assert_eq!(merged.histogram("h_ns").unwrap().count(), 2);
    }

    #[test]
    fn validator_rejects_malformed_exposition() {
        for bad in [
            "no_type_decl 5",
            "# TYPE x widget\nx 5",
            "# TYPE x counter\nx notanumber",
            "# TYPE x counter\nx{le=} 5",
            "# random comment",
        ] {
            assert!(validate_prometheus(bad).is_err(), "{bad:?}");
        }
        let good = "# TYPE x counter\nx 5\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n";
        validate_prometheus(good).unwrap();
    }
}
