//! Property tests for the telemetry registry (`sim::metrics`): merge
//! associativity, bucket determinism (insertion order and sharding can
//! never change a snapshot), and Prometheus well-formedness under
//! arbitrary observation streams.

use bfpp_sim::metrics::{
    bucket_index, bucket_upper, validate_prometheus, Histogram, MetricsRegistry, BUCKETS,
};
use proptest::prelude::*;

fn observations() -> impl Strategy<Value = Vec<u64>> {
    // Mix magnitudes so every bucket band gets traffic: small counts,
    // mid-range latencies, and full-width u64s (shifted to exercise the
    // high buckets, including the +Inf overflow bucket).
    let value = (0u64..1 << 20, 0u32..64).prop_map(|(v, shift)| v << (shift % 45) | v >> 7);
    proptest::collection::vec(value, 0..200)
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

proptest! {
    /// (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) == histogram of the concatenation:
    /// merge is associative, so sub-results can be folded upward in any
    /// grouping (shards, worker threads, multi-planner roll-ups).
    #[test]
    fn histogram_merge_is_associative(
        a in observations(),
        b in observations(),
        c in observations(),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut right_tail = hb.clone();
        right_tail.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right);
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &hist_of(&all));
    }

    /// Bucket boundaries are a fixed property of the value, and every
    /// value lands strictly inside its bucket's (lower, upper] band —
    /// the determinism the bit-stable snapshot guarantee rests on.
    #[test]
    fn buckets_are_deterministic_and_tile_the_domain(values in observations()) {
        for &v in &values {
            let i = bucket_index(v);
            prop_assert!(i < BUCKETS);
            prop_assert!(v <= bucket_upper(i));
            if i > 0 {
                prop_assert!(v > bucket_upper(i - 1));
            }
            // Same value, same bucket — trivially, but this pins the
            // function as pure (no adaptive state).
            prop_assert_eq!(i, bucket_index(v));
        }
    }

    /// A histogram (and the registry around it) is a multiset: any
    /// permutation of the observation stream yields identical snapshots
    /// and identical rendered bytes.
    #[test]
    fn observation_order_never_changes_a_snapshot(values in observations()) {
        let forward = MetricsRegistry::new();
        let backward = MetricsRegistry::new();
        for &v in &values {
            forward.observe("lat_ns", v);
            forward.counter_add("total", v & 0xff);
        }
        for &v in values.iter().rev() {
            backward.observe("lat_ns", v);
            backward.counter_add("total", v & 0xff);
        }
        let (fs, bs) = (forward.snapshot(), backward.snapshot());
        prop_assert_eq!(&fs, &bs);
        prop_assert_eq!(fs.render_prometheus(), bs.render_prometheus());
    }

    /// The Prometheus rendering stays well-formed for arbitrary
    /// contents: the text passes the exposition checker.
    #[test]
    fn renderers_stay_well_formed(values in observations()) {
        let m = MetricsRegistry::new();
        m.counter_add("requests_total", values.len() as u64);
        m.gauge_set("depth", values.first().copied().unwrap_or(0) as i64);
        for &v in &values {
            m.observe("lat_ns", v);
        }
        let snap = m.snapshot();
        let prom = snap.render_prometheus();
        prop_assert!(validate_prometheus(&prom).is_ok(), "{}", prom);
        // The histogram invariants survive rendering inputs of any
        // shape: cumulative +Inf bucket equals the count.
        let h = snap.histogram("lat_ns").unwrap();
        let total: u64 = (0..BUCKETS).map(|i| h.bucket(i)).sum();
        prop_assert_eq!(total, h.count());
        prop_assert_eq!(h.count(), values.len() as u64);
    }
}
