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
//! completed cold search records those outcomes as they are, plus the
//! topology-class bases ([`crate::batch::ClassBase`]) its survivors
//! resolved. A warm request replays that record — same chunking, same
//! filter, same reduction — and only the simulations run, each as a row
//! fill and trace replay over the recorded base of its class. Bases are
//! built from the class key alone, so they hold under any perturbation,
//! and row fill + replay is bit-identical to lowering and solving the
//! member (tested in `batch` and `tests/batch_equivalence.rs`), which
//! is what makes a warm search return *exactly* what the cold search
//! would have.
//!
//! The record cache is bounded two ways: entry count (FIFO eviction)
//! and per-record stored class-base size (ops), since bases dominate
//! memory. A record whose op budget is exhausted still warm-starts: a
//! missing base comes from the class cache or is rebuilt (and then
//! re-offered to the record), and neither counts toward
//! [`warm_hits`](crate::SearchReport::warm_hits).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use bfpp_cluster::ClusterSpec;
use bfpp_model::TransformerConfig;

use crate::batch::{ClassBase, ClassKey};
use crate::candidates::Candidate;
use crate::kernel::KernelModel;
use crate::search::{Method, SearchOptions};

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
    Feasible { cand: Candidate, ub_tflops: f64 },
}

/// One completed cold search, replayable under any perturbation:
/// per-candidate outcomes plus the topology-class bases its survivors
/// resolved (bounded by the owning cache's op budget, and refilled when
/// a replay rebuilds a base the budget dropped).
#[derive(Debug)]
pub struct SweepRecord {
    pub(crate) outcomes: Vec<Outcome>,
    classes: Mutex<HashMap<ClassKey, Arc<ClassBase>>>,
    ops_stored: AtomicU64,
    max_ops: u64,
}

impl SweepRecord {
    pub(crate) fn new(outcomes: Vec<Outcome>, max_ops: u64) -> Self {
        SweepRecord {
            outcomes,
            classes: Mutex::new(HashMap::new()),
            ops_stored: AtomicU64::new(0),
            max_ops,
        }
    }

    /// The cached topology-class base for `key`, if the record holds
    /// one. Class bases carry clean (unperturbed) structure only, so
    /// they are valid for any perturbation and any kernel — the record
    /// key already pins the kernel that produced the durations.
    pub(crate) fn class_base(&self, key: &ClassKey) -> Option<Arc<ClassBase>> {
        self.lock_classes().get(key).map(Arc::clone)
    }

    /// Offers a topology-class base for reuse by later warm runs,
    /// charged against the record's op budget. Silently dropped once the
    /// budget is spent — correctness never depends on a store
    /// succeeding. The existence check happens under the lock, before
    /// any budget is charged, so a duplicate offer (two warm sessions
    /// racing to rebuild the same evicted base) consumes nothing.
    pub(crate) fn store_class(&self, key: ClassKey, base: Arc<ClassBase>) {
        let ops = base.num_ops() as u64;
        let mut classes = self.lock_classes();
        if classes.contains_key(&key) {
            return;
        }
        if self.ops_stored.fetch_add(ops, Ordering::Relaxed) + ops > self.max_ops {
            self.ops_stored.fetch_sub(ops, Ordering::Relaxed);
            return;
        }
        classes.insert(key, base);
    }

    /// Number of topology-class bases currently held.
    pub fn classes_held(&self) -> usize {
        self.lock_classes().len()
    }

    fn lock_classes(&self) -> MutexGuard<'_, HashMap<ClassKey, Arc<ClassBase>>> {
        match self.classes.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
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
    map: HashMap<String, Arc<SweepRecord>>,
    /// Insertion order for FIFO eviction (deterministic, unlike
    /// hash-map iteration order).
    order: Vec<String>,
}

/// A bounded, process-wide store of [`SweepRecord`]s, shared by every
/// request of a planner. Concurrency-safe; an evicted or invalidated
/// record stays valid for searches already holding its `Arc`.
#[derive(Debug)]
pub struct WarmCache {
    entries: Mutex<Entries>,
    max_entries: usize,
    max_ops_per_record: u64,
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
        // 64 sweeps × 8M stored ops each. A record stores class bases at
        // ~33 bytes per op (see `ClassCache`), so a full record holds
        // ~260 MB. A record holds only the classes its search resolved:
        // 3.4M ops for the jittered 1T/32×A100 request.
        WarmCache::with_limits(64, 8_000_000)
    }
}

impl WarmCache {
    /// A cache with the default limits (64 records, 8M stored class-base
    /// ops each).
    pub fn new() -> Self {
        WarmCache::default()
    }

    /// A cache bounded to `max_entries` records of at most
    /// `max_ops_per_record` stored class-base ops each.
    pub fn with_limits(max_entries: usize, max_ops_per_record: u64) -> Self {
        WarmCache {
            entries: Mutex::new(Entries {
                map: HashMap::new(),
                order: Vec::new(),
            }),
            max_entries: max_entries.max(1),
            max_ops_per_record,
        }
    }

    pub(crate) fn lookup(&self, key: &str) -> Option<Arc<SweepRecord>> {
        self.lock().map.get(key).cloned()
    }

    pub(crate) fn insert(&self, key: String, record: SweepRecord) {
        let mut entries = self.lock();
        if entries.map.insert(key.clone(), Arc::new(record)).is_none() {
            entries.order.push(key);
            while entries.order.len() > self.max_entries {
                let evicted = entries.order.remove(0);
                entries.map.remove(&evicted);
            }
        }
    }

    pub(crate) fn record_budget(&self) -> u64 {
        self.max_ops_per_record
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
