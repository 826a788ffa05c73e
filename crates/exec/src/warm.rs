//! Warm-start records: re-planning without re-enumeration.
//!
//! A planning service sees families of requests that differ only in
//! *duration-affecting* parameters — the same model, cluster, method,
//! batch and enumeration limits, re-planned under a new
//! [`Perturbation`](bfpp_sim::Perturbation)
//! (a straggler appeared, a link degraded). Everything the search does
//! before simulation is perturbation-independent:
//!
//! * the enumerated candidate list and its order,
//! * the closed-form memory filter (sizes only, no durations),
//! * the Eq. (3)/(7) throughput *upper bound* of each candidate
//!   ([`crate::prune::lower_bound_tflops`] — base durations; the search
//!   widens it by `max_speedup()` per request).
//!
//! So the prune stage classifies every cold candidate into an `Outcome`
//! (memory-pruned, or feasible with its throughput bound), and a
//! completed cold search records those outcomes. A warm request replays
//! that record — same chunking, same filter, same reduction — and only
//! the simulations run, each as a row fill and trace replay over its
//! class's base. The class cache ([`crate::ClassCache`]) is the one
//! store of bases: a warm start resolves each class there or builds it,
//! exactly as a cold search does. Bases are built from the class key
//! alone, so they hold under any perturbation, and row fill + replay is
//! bit-identical to lowering and solving the member (tested in `batch`
//! and `tests/batch_equivalence.rs`), which is what makes a warm search
//! return *exactly* what the cold search would have.
//!
//! A record also keeps two kinds of answer the cold search measured:
//!
//! * the measurement slot of every candidate it evaluated whose
//!   pipeline its perturbation left untouched (`grid.n_pp` within
//!   [`untouched_devices`](bfpp_sim::Perturbation::untouched_devices)):
//!   that candidate's clean measurement;
//! * its winner's slot under
//!   [`reference_probe`](bfpp_sim::Perturbation::reference_probe), which
//!   does not depend on the request.
//!
//! The reuse rule: a warm survivor whose `n_pp` is within its own
//! request's untouched count takes the recorded slot instead of being
//! re-timed, and the probe reuses the recorded one when the winner is
//! the record's winner. Both are exact: every op of a lowering sits on a
//! pipeline device `0..n_pp`, a factor of 1 returns the base duration
//! bit-for-bit, and replay is deterministic, so the re-timed row — and
//! its measurement — would equal the recorded one. The request key fixes
//! everything else a measurement depends on. A reused survivor still
//! counts as simulated, so every counter equals a fresh search's.
//!
//! The record cache is bounded by entry count (FIFO eviction): a record
//! is one outcome per enumerated candidate plus the probe, and holds no
//! class base.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use bfpp_cluster::ClusterSpec;
use bfpp_model::TransformerConfig;

use crate::candidates::Candidate;
use crate::kernel::KernelModel;
use crate::measure::Measurement;
use crate::search::{Method, SearchOptions};

/// One evaluated candidate's measurement, empty where lowering would
/// fail the candidate.
pub(crate) type Slot = Option<Measurement>;

/// The perturbation-independent fate of one enumerated candidate, in
/// enumeration order (so chunk boundaries replay exactly).
#[derive(Debug, Clone)]
pub(crate) enum Outcome {
    /// Memory lower bound exceeds the device: pruned under *every*
    /// perturbation, before any duration enters the picture.
    Memory,
    /// Feasible, with its throughput upper bound (Tflop/s per GPU,
    /// unwidened). Cold and warm searches re-decide throughput pruning
    /// from it per request: the best-so-far depends on the perturbation.
    /// `measured` is the slot the recording search evaluated the
    /// candidate into, kept only where its perturbation left the
    /// candidate untouched: a clean measurement. Boxed, since a record
    /// keeps one for only the few candidates its cold search evaluated.
    Feasible {
        cand: Candidate,
        ub_tflops: f64,
        measured: Option<Box<Slot>>,
    },
}

/// A completed cold search, as warm requests replay it. Immutable once
/// published.
#[derive(Debug)]
pub(crate) struct Record {
    /// One outcome per enumerated candidate, in enumeration order.
    pub(crate) outcomes: Vec<Outcome>,
    /// The cold winner and its slot under the reference probe, if
    /// anything won.
    pub(crate) probe: Option<(Candidate, Slot)>,
}

/// The request signature a warm start must match exactly: everything
/// that shapes enumeration, the analytic filters, and the recorded
/// measurements. The kernel model is part of the signature — the
/// recorded throughput bounds depend on it — so requests differing only
/// in kernel never share a record. Perturbation and thread count are
/// deliberately absent — those are the parameters a warm start is
/// allowed to vary (durations never change the candidate set, and
/// thread count never changes any result).
pub(crate) fn request_key(
    model: &TransformerConfig,
    cluster: &ClusterSpec,
    method: Method,
    global_batch: u64,
    kernel: &KernelModel,
    opts: &SearchOptions,
) -> String {
    format!(
        "{}{method:?}|kernel={kernel:?}|batch={global_batch}|mm={}|ml={}|ma={}",
        scope_prefix(model, cluster),
        opts.max_microbatch,
        opts.max_loop,
        opts.max_actions,
    )
}

/// The `(model, cluster)` prefix of [`request_key`] — the granularity of
/// keyed invalidation (a topology or model change invalidates every
/// batch/method record under it at once).
fn scope_prefix(model: &TransformerConfig, cluster: &ClusterSpec) -> String {
    format!("{model:?}|{cluster:?}|")
}

struct Entries {
    map: HashMap<String, Arc<Record>>,
    /// Insertion order for FIFO eviction (deterministic, unlike
    /// hash-map iteration order).
    order: Vec<String>,
}

/// A bounded, process-wide store of completed cold searches' records,
/// keyed by request signature and shared by every request of a
/// planner. Concurrency-safe; an evicted or invalidated record stays
/// valid for searches already holding its `Arc`.
#[derive(Debug)]
pub struct WarmCache {
    entries: Mutex<Entries>,
    max_entries: usize,
}

impl std::fmt::Debug for Entries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Entries")
            .field("len", &self.map.len())
            .finish_non_exhaustive()
    }
}

impl Default for WarmCache {
    fn default() -> Self {
        // 64 sweeps of one outcome per enumerated candidate each; the
        // class bases they replay over live in the class cache.
        WarmCache::with_max_entries(64)
    }
}

impl WarmCache {
    /// A cache with the default limit of 64 records.
    pub fn new() -> Self {
        WarmCache::default()
    }

    /// A cache bounded to `max_entries` records.
    pub fn with_max_entries(max_entries: usize) -> Self {
        WarmCache {
            entries: Mutex::new(Entries {
                map: HashMap::new(),
                order: Vec::new(),
            }),
            max_entries: max_entries.max(1),
        }
    }

    pub(crate) fn lookup(&self, key: &str) -> Option<Arc<Record>> {
        self.lock().map.get(key).cloned()
    }

    pub(crate) fn insert(&self, key: String, record: Record) {
        let mut entries = self.lock();
        if entries.map.insert(key.clone(), Arc::new(record)).is_none() {
            entries.order.push(key);
            while entries.order.len() > self.max_entries {
                let evicted = entries.order.remove(0);
                entries.map.remove(&evicted);
            }
        }
    }

    /// Drops every record for `(model, cluster)` — the keyed
    /// invalidation a re-planning service issues when a cluster's
    /// topology (or a model's definition) changes underneath its cached
    /// sweeps. Returns how many records were dropped.
    pub fn invalidate(&self, model: &TransformerConfig, cluster: &ClusterSpec) -> usize {
        let prefix = scope_prefix(model, cluster);
        let mut entries = self.lock();
        let before = entries.map.len();
        entries.map.retain(|k, _| !k.starts_with(&prefix));
        entries.order.retain(|k| !k.starts_with(&prefix));
        before - entries.map.len()
    }

    /// Drops every record.
    pub fn clear(&self) {
        let mut entries = self.lock();
        entries.map.clear();
        entries.order.clear();
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no records.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    fn lock(&self) -> MutexGuard<'_, Entries> {
        match self.entries.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}
