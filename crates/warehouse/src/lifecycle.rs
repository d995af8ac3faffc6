//! Partition lifecycle: background compaction, merged-union caching, and
//! retention.
//!
//! Partitions enter the warehouse *hot* (one sample per ingest window, e.g.
//! per minute). Left alone they accumulate forever and every union query
//! starts from the leaves, so union cost grows linearly with the time span
//! queried. This module adds the lakehouse-style lifecycle from ROADMAP
//! item 4:
//!
//! * **Compaction** ([`LifecycleManager::compact_dataset`], or continuously
//!   via [`LifecycleManager::spawn_background`]): complete windows of hot
//!   partitions are merged into *warm* roll-ups, and complete windows of
//!   warm roll-ups into *cold* ones, via the paper's HB/HR merge paths —
//!   uniformity of the merged sample is preserved by construction, and the
//!   merge fan-in is recorded in lineage
//!   ([`swh_core::lineage::merged_lineage`]). Compacted outputs are written
//!   back as first-class partitions; on disk the protocol is
//!   tombstone-intent → durable output → retire inputs, so a crash at any
//!   step leaves a readable catalog ([`recover_store`]).
//! * **Merged-union caching** ([`UnionCache`]): repeated unions of the same
//!   partition span are answered from a size-bounded cache consulted by
//!   [`crate::Catalog::union_sample`] before planning, invalidated by
//!   roll-in/roll-out/compaction.
//! * **Retention** ([`LifecycleManager::enforce_retention`]): per-dataset
//!   expiry policies (age and footprint budget) retire the oldest
//!   partitions during the compactor's sweep.
//!
//! Together these make the cost of a union over a long time span
//! O(log span) stored samples instead of O(#partitions): a day is one cold
//! partition, the trailing hours are warm, and only the newest window is
//! read from hot leaves.

use crate::catalog::{Catalog, CatalogError};
use crate::codec::ValueCodec;
use crate::durable;
use crate::ids::{DatasetId, PartitionId, PartitionKey};
use crate::store::{DiskStore, StoreError};
use core::time::Duration;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use swh_core::lineage::merged_lineage;
use swh_core::sample::Sample;
use swh_core::value::SampleValue;
use swh_obs::journal::{record, EventKind};

/// Stream-id bit marking a *warm* compacted partition (an hour's worth of
/// hot inputs merged into one sample). The raw stream index occupies the
/// low bits, so `stream & !(WARM_STREAM_BIT | COLD_STREAM_BIT)` recovers
/// the stream the inputs came from.
pub const WARM_STREAM_BIT: u32 = 1 << 30;

/// Stream-id bit marking a *cold* compacted partition (a day's worth of
/// warm roll-ups merged into one sample).
pub const COLD_STREAM_BIT: u32 = 1 << 31;

/// Recover the raw (ingest-time) stream index from a possibly-compacted
/// partition's stream id by masking the tier bits off.
pub fn raw_stream(stream: u32) -> u32 {
    stream & !(WARM_STREAM_BIT | COLD_STREAM_BIT)
}

/// Lifecycle tier of a partition, encoded in its stream id's top bits.
///
/// A compacted partition keeps the *sequence number of the first raw
/// partition it covers* as its own `seq`, so `(tier, seq)` plus the
/// dataset's [`LifecyclePolicy`] fan-ins determine exactly which raw
/// sequence span `[lo, hi]` the sample summarizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Raw ingest partition (e.g. one minute), never compacted.
    Hot,
    /// First-level roll-up: `warm_fan_in` consecutive hot partitions.
    Warm,
    /// Second-level roll-up: `cold_fan_in` consecutive warm roll-ups.
    Cold,
}

impl Tier {
    /// Classify a stream id by its tier bits.
    pub fn of_stream(stream: u32) -> Tier {
        if stream & COLD_STREAM_BIT != 0 {
            Tier::Cold
        } else if stream & WARM_STREAM_BIT != 0 {
            Tier::Warm
        } else {
            Tier::Hot
        }
    }

    /// The stream id a partition of this tier carries for raw stream `raw`.
    pub fn stream(self, raw: u32) -> u32 {
        match self {
            Tier::Hot => raw,
            Tier::Warm => raw | WARM_STREAM_BIT,
            Tier::Cold => raw | COLD_STREAM_BIT,
        }
    }

    /// Lower-case tier name, as used in status output.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Hot => "hot",
            Tier::Warm => "warm",
            Tier::Cold => "cold",
        }
    }
}

/// Per-dataset lifecycle policy: compaction fan-ins plus retention limits.
///
/// Defaults model minutes → hours → days: 60 hot partitions per warm
/// roll-up, 24 warm roll-ups per cold one. A fan-in below 2 disables that
/// compaction level. Retention is off unless a limit is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecyclePolicy {
    /// Hot partitions merged into one warm roll-up (default 60).
    pub warm_fan_in: u64,
    /// Warm roll-ups merged into one cold roll-up (default 24).
    pub cold_fan_in: u64,
    /// Expire a partition once its span ends more than this many raw
    /// sequence numbers behind the dataset's newest covered sequence.
    pub max_age: Option<u64>,
    /// Expire oldest partitions while the dataset's total sample footprint
    /// (bytes) exceeds this budget.
    pub footprint_budget: Option<u64>,
}

impl Default for LifecyclePolicy {
    fn default() -> Self {
        Self {
            warm_fan_in: 60,
            cold_fan_in: 24,
            max_age: None,
            footprint_budget: None,
        }
    }
}

impl LifecyclePolicy {
    /// How many raw sequence numbers one partition of `tier` covers.
    pub fn span_len(self, tier: Tier) -> u64 {
        match tier {
            Tier::Hot => 1,
            Tier::Warm => self.warm_fan_in.max(1),
            Tier::Cold => self.warm_fan_in.max(1) * self.cold_fan_in.max(1),
        }
    }

    /// Inclusive raw-sequence span `[lo, hi]` covered by partition `p`
    /// under this policy.
    pub fn span_of(self, p: PartitionId) -> (u64, u64) {
        let len = self.span_len(Tier::of_stream(p.stream));
        (p.seq, p.seq + len - 1)
    }
}

/// Errors from lifecycle operations.
#[derive(Debug)]
pub enum LifecycleError {
    /// Underlying catalog operation failed.
    Catalog(CatalogError),
    /// Underlying store operation failed.
    Store(StoreError),
    /// A range union crossed into the middle of a compacted span: the span
    /// can only be answered whole, because its hot inputs were retired.
    MisalignedSpan {
        /// Dataset the query ran against.
        dataset: DatasetId,
        /// The compacted partition that straddles the requested range.
        partition: PartitionId,
        /// First raw sequence the compacted partition covers.
        lo: u64,
        /// Last raw sequence the compacted partition covers.
        hi: u64,
    },
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::Catalog(e) => write!(f, "catalog error: {e}"),
            LifecycleError::Store(e) => write!(f, "store error: {e}"),
            LifecycleError::MisalignedSpan {
                dataset,
                partition,
                lo,
                hi,
            } => write!(
                f,
                "range crosses compacted span {partition} of {dataset} (covers seqs {lo}..={hi}); \
                 widen the range to whole compacted spans"
            ),
        }
    }
}

impl std::error::Error for LifecycleError {}

impl From<CatalogError> for LifecycleError {
    fn from(e: CatalogError) -> Self {
        LifecycleError::Catalog(e)
    }
}

impl From<StoreError> for LifecycleError {
    fn from(e: StoreError) -> Self {
        LifecycleError::Store(e)
    }
}

impl From<io::Error> for LifecycleError {
    fn from(e: io::Error) -> Self {
        LifecycleError::Store(StoreError::Io(e))
    }
}

// ---------------------------------------------------------------------------
// Merged-union cache
// ---------------------------------------------------------------------------

/// Cache key: the exact partition selection a union was computed over, plus
/// the parameters that shape the merged sample. Two unions share an entry
/// only if they selected the same partitions of the same dataset with the
/// same footprint target `n_F` and merge probability bound.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    dataset: DatasetId,
    parts: Vec<PartitionId>,
    n_f: u64,
    p_bits: u64,
}

impl CacheKey {
    /// Build a key from an (unordered) selection. The partition list is
    /// sorted so any enumeration order of the same selection hits the same
    /// entry; `p_bound` is keyed by its exact bit pattern.
    pub fn new(dataset: DatasetId, mut parts: Vec<PartitionId>, n_f: u64, p_bound: f64) -> Self {
        parts.sort_unstable();
        Self {
            dataset,
            parts,
            n_f,
            p_bits: p_bound.to_bits(),
        }
    }

    /// Dataset the cached union belongs to.
    pub fn dataset(&self) -> DatasetId {
        self.dataset
    }

    /// Number of partitions in the cached selection.
    pub fn width(&self) -> usize {
        self.parts.len()
    }
}

#[derive(Debug)]
struct CacheEntry<T: SampleValue> {
    sample: Sample<T>,
    bytes: u64,
    last_used: u64,
}

#[derive(Debug)]
struct CacheInner<T: SampleValue> {
    map: BTreeMap<CacheKey, CacheEntry<T>>,
    epochs: BTreeMap<DatasetId, u64>,
    clock: u64,
    bytes: u64,
    lookups: u64,
    hits: u64,
}

#[derive(Debug)]
struct CacheMetrics {
    hits: swh_obs::Counter,
    misses: swh_obs::Counter,
    evictions: swh_obs::Counter,
    entries: swh_obs::Gauge,
    bytes: swh_obs::Gauge,
    hit_rate_ppm: swh_obs::Gauge,
}

impl CacheMetrics {
    fn in_registry(registry: &swh_obs::Registry) -> Self {
        Self {
            hits: registry.counter(
                "swh_union_cache_hits_total",
                "Union queries answered from the merged-union cache",
            ),
            misses: registry.counter(
                "swh_union_cache_misses_total",
                "Union queries that missed the merged-union cache",
            ),
            evictions: registry.counter(
                "swh_union_cache_evictions_total",
                "Merged-union cache entries evicted to stay under the byte budget",
            ),
            entries: registry.gauge(
                "swh_union_cache_entries",
                "Merged-union cache resident entries",
            ),
            bytes: registry.gauge(
                "swh_union_cache_bytes",
                "Merged-union cache resident bytes (sample footprints plus key overhead)",
            ),
            hit_rate_ppm: registry.gauge(
                "swh_union_cache_hit_rate_ppm",
                "Merged-union cache lifetime hit rate, parts per million (published after a warm-up of lookups)",
            ),
        }
    }
}

/// Don't publish the hit-rate gauge until this many lookups have been
/// observed: a freshly started process serves only compulsory misses, and
/// the builtin low-hit-rate alert must not fire on that warm-up.
const RATE_MIN_LOOKUPS: u64 = 64;

/// Fixed per-entry overhead charged on top of the sample footprint: key
/// partition ids (24 bytes each is a safe upper bound for id + map slot)
/// plus map/entry bookkeeping.
const ENTRY_BASE_BYTES: u64 = 64;

/// Size-bounded cache of merged union samples, keyed by the exact partition
/// selection (see [`CacheKey`]).
///
/// Consistency is epoch-based: every dataset has a monotonically increasing
/// epoch, bumped by [`UnionCache::invalidate_dataset`] (which the catalog
/// calls on roll-in, roll-out, and hence on every compaction). A union
/// query captures the epoch *under the catalog read lock that snapshots the
/// selection*, computes the merge outside the lock, and offers the result
/// with that epoch — [`UnionCache::insert`] refuses it if the dataset has
/// been invalidated in between, so a stale merge can never be cached over a
/// mutation that happened mid-flight.
///
/// Eviction is LRU by a logical clock, driven by a byte budget measured in
/// sample footprint bytes (plus small per-entry overhead). An entry larger
/// than the whole budget is simply not cached.
#[derive(Debug)]
pub struct UnionCache<T: SampleValue> {
    max_bytes: u64,
    inner: Mutex<CacheInner<T>>,
    metrics: CacheMetrics,
}

impl<T: SampleValue> UnionCache<T> {
    /// Cache bounded to `max_bytes` of resident sample footprint, reporting
    /// to the global metrics registry.
    pub fn new(max_bytes: u64) -> Self {
        Self::with_registry(swh_obs::global(), max_bytes)
    }

    /// Cache reporting into an explicit registry (tests pin exact counts).
    pub fn with_registry(registry: &swh_obs::Registry, max_bytes: u64) -> Self {
        Self {
            max_bytes,
            inner: Mutex::new(CacheInner {
                map: BTreeMap::new(),
                epochs: BTreeMap::new(),
                clock: 0,
                bytes: 0,
                lookups: 0,
                hits: 0,
            }),
            metrics: CacheMetrics::in_registry(registry),
        }
    }

    /// The byte budget this cache was built with.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Current invalidation epoch of `dataset`. Capture it while holding
    /// whatever lock makes the selection consistent, and pass it back to
    /// [`UnionCache::insert`].
    pub fn epoch(&self, dataset: DatasetId) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.epochs.get(&dataset).copied().unwrap_or(0)
    }

    /// Look up a cached union. A hit refreshes the entry's LRU position and
    /// clones the sample out.
    pub fn get(&self, key: &CacheKey) -> Option<Sample<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.lookups += 1;
        inner.clock += 1;
        let clock = inner.clock;
        let found = match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = clock;
                Some(entry.sample.clone())
            }
            None => None,
        };
        if found.is_some() {
            inner.hits += 1;
            self.metrics.hits.inc();
        } else {
            self.metrics.misses.inc();
        }
        self.publish_rate(&inner);
        found
    }

    /// Offer a freshly computed union for caching. `epoch` must be the
    /// value of [`UnionCache::epoch`] captured when the selection was
    /// snapshotted; if the dataset has been invalidated since, the insert
    /// is refused (returns `false`) — the result may describe partitions
    /// that no longer exist. Entries larger than the whole budget are also
    /// refused.
    pub fn insert(&self, key: CacheKey, sample: Sample<T>, epoch: u64) -> bool {
        let entry_bytes = sample.footprint_bytes() + key.parts.len() as u64 * 24 + ENTRY_BASE_BYTES;
        if entry_bytes > self.max_bytes {
            return false;
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.epochs.get(&key.dataset).copied().unwrap_or(0) != epoch {
            return false;
        }
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        while inner.bytes + entry_bytes > self.max_bytes {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = inner.map.remove(&victim) {
                inner.bytes -= evicted.bytes;
                self.metrics.evictions.inc();
            }
        }
        inner.clock += 1;
        let entry = CacheEntry {
            sample,
            bytes: entry_bytes,
            last_used: inner.clock,
        };
        inner.bytes += entry_bytes;
        inner.map.insert(key, entry);
        self.publish_sizes(&inner);
        true
    }

    /// Invalidate every cached union of `dataset` and bump its epoch so
    /// in-flight merges that started before the mutation cannot be inserted
    /// afterwards. Returns the number of entries dropped and records an
    /// [`EventKind::UnionCacheInvalidate`] journal event.
    pub fn invalidate_dataset(&self, dataset: DatasetId) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        *inner.epochs.entry(dataset).or_insert(0) += 1;
        let before = inner.map.len();
        let mut freed = 0;
        inner.map.retain(|k, e| {
            if k.dataset == dataset {
                freed += e.bytes;
                false
            } else {
                true
            }
        });
        inner.bytes -= freed;
        let dropped = (before - inner.map.len()) as u64;
        self.publish_sizes(&inner);
        record(EventKind::UnionCacheInvalidate, 0, 0, dataset.0, dropped);
        dropped
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// True when no union is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident bytes (sample footprints plus per-entry overhead).
    pub fn bytes(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .bytes
    }

    /// Lifetime (lookups, hits) counts.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        (inner.lookups, inner.hits)
    }

    fn publish_rate(&self, inner: &CacheInner<T>) {
        if inner.lookups >= RATE_MIN_LOOKUPS {
            let ppm = inner.hits.saturating_mul(1_000_000) / inner.lookups;
            self.metrics.hit_rate_ppm.set(ppm as i64);
        }
    }

    fn publish_sizes(&self, inner: &CacheInner<T>) {
        self.metrics.entries.set(inner.map.len() as i64);
        self.metrics.bytes.set(inner.bytes as i64);
    }
}

// ---------------------------------------------------------------------------
// Tombstone intents and crash recovery
// ---------------------------------------------------------------------------

/// A compaction intent, written durably *before* the merged output: which
/// inputs the listed output replaces. The tombstone is retained beside the
/// compacted partition afterwards so `fsck` can check the output's recorded
/// merge fan-in against the inputs it actually replaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TombRecord {
    /// Dataset the compaction ran in.
    pub dataset: DatasetId,
    /// The compacted output partition.
    pub output: PartitionId,
    /// The hot (or warm) inputs the output replaces, in id order.
    pub inputs: Vec<PartitionId>,
}

/// Path of the tombstone file for compacted partition `output`:
/// `<root>/ds<N>/p<stream>_<seq>.tomb`, beside the partition files.
pub fn tomb_path(store: &DiskStore, dataset: DatasetId, output: PartitionId) -> PathBuf {
    store
        .dataset_dir(dataset)
        .join(format!("p{}_{}.tomb", output.stream, output.seq))
}

/// Durably write a compaction tombstone (fsync-then-rename, like every
/// other store write).
pub fn write_tomb(store: &DiskStore, tomb: &TombRecord) -> io::Result<()> {
    let mut text = String::from("swh-tomb v1\n");
    text.push_str(&format!("dataset {}\n", tomb.dataset.0));
    text.push_str(&format!(
        "output p{}_{}\n",
        tomb.output.stream, tomb.output.seq
    ));
    for p in &tomb.inputs {
        text.push_str(&format!("input p{}_{}\n", p.stream, p.seq));
    }
    std::fs::create_dir_all(store.dataset_dir(tomb.dataset))?;
    durable::atomic_write(
        &tomb_path(store, tomb.dataset, tomb.output),
        text.as_bytes(),
    )
}

fn parse_part(body: &str) -> Option<PartitionId> {
    let body = body.strip_prefix('p')?;
    let (stream, seq) = body.split_once('_')?;
    Some(PartitionId {
        stream: stream.parse().ok()?,
        seq: seq.parse().ok()?,
    })
}

/// Parse a tombstone file written by [`write_tomb`].
pub fn read_tomb(path: &Path) -> io::Result<TombRecord> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("tomb: {what}"));
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    if lines.next() != Some("swh-tomb v1") {
        return Err(bad("missing header"));
    }
    let dataset = lines
        .next()
        .and_then(|l| l.strip_prefix("dataset "))
        .and_then(|n| n.parse().ok())
        .map(DatasetId)
        .ok_or_else(|| bad("missing dataset line"))?;
    let output = lines
        .next()
        .and_then(|l| l.strip_prefix("output "))
        .and_then(parse_part)
        .ok_or_else(|| bad("missing output line"))?;
    let mut inputs = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let p = line
            .strip_prefix("input ")
            .and_then(parse_part)
            .ok_or_else(|| bad("bad input line"))?;
        inputs.push(p);
    }
    Ok(TombRecord {
        dataset,
        output,
        inputs,
    })
}

/// List every tombstone of a dataset, in output-id order.
pub fn list_tombs(store: &DiskStore, dataset: DatasetId) -> Result<Vec<TombRecord>, StoreError> {
    let dir = store.dataset_dir(dataset);
    let mut tombs = Vec::new();
    let entries = match std::fs::read_dir(&dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(tombs),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some("tomb") {
            tombs.push(read_tomb(&path)?);
        }
    }
    tombs.sort_by_key(|t| t.output);
    Ok(tombs)
}

/// All datasets with a directory in the store (`ds<N>`), in id order.
pub fn store_datasets(store: &DiskStore) -> Result<Vec<DatasetId>, StoreError> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(store.root()) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let name = entry?.file_name();
        if let Some(n) = name.to_str().and_then(|n| n.strip_prefix("ds")) {
            if let Ok(n) = n.parse() {
                out.push(DatasetId(n));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// What [`recover_store`] found and did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Tombstones whose output never became durable (crash between intent
    /// and output write): removed, inputs left untouched.
    pub orphaned_tombs: u64,
    /// Input files retired because their tombstone's output *is* durable
    /// (crash between output write and input retirement): deleted now.
    pub retired_inputs: u64,
    /// Tombstones whose compaction had fully completed.
    pub validated: u64,
}

/// Roll the store forward through any compaction that crashed mid-protocol.
///
/// The compaction protocol is tombstone-intent → durable output → retire
/// inputs, so recovery is a pure function of which files exist:
///
/// * tombstone without its output → the merge never became durable; drop
///   the tombstone, the hot inputs are still the source of truth;
/// * tombstone with its output → the merge is durable; finish retiring any
///   inputs that survived the crash.
///
/// Idempotent: running it twice is a no-op. `swh store fsck` and
/// `swh lifecycle compact-now` both run it before anything else.
pub fn recover_store(store: &DiskStore) -> Result<RecoveryReport, StoreError> {
    let mut report = RecoveryReport::default();
    for dataset in store_datasets(store)? {
        for tomb in list_tombs(store, dataset)? {
            let out_key = PartitionKey {
                dataset,
                partition: tomb.output,
            };
            if store.contains(out_key) {
                for input in &tomb.inputs {
                    let in_key = PartitionKey {
                        dataset,
                        partition: *input,
                    };
                    if store.remove(in_key)? {
                        report.retired_inputs += 1;
                    }
                    // A retired input that was itself a roll-up leaves its
                    // own (now superseded) tombstone behind — drop it so it
                    // is not mistaken for a crashed compaction later.
                    let input_tomb = tomb_path(store, dataset, *input);
                    if input_tomb.exists() {
                        std::fs::remove_file(input_tomb)?;
                    }
                }
                report.validated += 1;
            } else {
                std::fs::remove_file(tomb_path(store, dataset, tomb.output))?;
                report.orphaned_tombs += 1;
            }
        }
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Policy persistence
// ---------------------------------------------------------------------------

/// File name of the per-store lifecycle policy table.
pub const POLICY_FILE: &str = "lifecycle.tsv";

fn opt_field(v: Option<u64>) -> String {
    v.map_or_else(|| "-".to_string(), |n| n.to_string())
}

fn parse_opt(s: &str) -> Result<Option<u64>, ()> {
    if s == "-" {
        Ok(None)
    } else {
        s.parse().map(Some).map_err(|_| ())
    }
}

/// Durably persist the per-dataset policy table to `<root>/lifecycle.tsv`
/// (one `dataset warm cold max_age budget` line per dataset, `-` for an
/// unset limit).
pub fn save_policies(
    root: &Path,
    policies: &BTreeMap<DatasetId, LifecyclePolicy>,
) -> io::Result<()> {
    let mut text = String::new();
    for (ds, p) in policies {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            ds.0,
            p.warm_fan_in,
            p.cold_fan_in,
            opt_field(p.max_age),
            opt_field(p.footprint_budget),
        ));
    }
    durable::atomic_write(&root.join(POLICY_FILE), text.as_bytes())
}

/// Load the policy table written by [`save_policies`]; a missing file is an
/// empty table.
pub fn load_policies(root: &Path) -> io::Result<BTreeMap<DatasetId, LifecyclePolicy>> {
    let text = match std::fs::read_to_string(root.join(POLICY_FILE)) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(e),
    };
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed lifecycle.tsv");
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let mut f = line.split('\t');
        let (Some(ds), Some(warm), Some(cold), Some(age), Some(budget), None) =
            (f.next(), f.next(), f.next(), f.next(), f.next(), f.next())
        else {
            return Err(bad());
        };
        let policy = LifecyclePolicy {
            warm_fan_in: warm.parse().map_err(|_| bad())?,
            cold_fan_in: cold.parse().map_err(|_| bad())?,
            max_age: parse_opt(age).map_err(|_| bad())?,
            footprint_budget: parse_opt(budget).map_err(|_| bad())?,
        };
        out.insert(DatasetId(ds.parse().map_err(|_| bad())?), policy);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The lifecycle manager
// ---------------------------------------------------------------------------

/// What one compaction pass (or sweep) accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Warm roll-ups built from complete hot windows.
    pub warm_built: u64,
    /// Cold roll-ups built from complete warm windows.
    pub cold_built: u64,
    /// Input partitions retired into roll-ups.
    pub inputs_retired: u64,
    /// Partitions expired by retention.
    pub expired: u64,
}

impl CompactionReport {
    /// Fold another report into this one.
    pub fn absorb(&mut self, other: CompactionReport) {
        self.warm_built += other.warm_built;
        self.cold_built += other.cold_built;
        self.inputs_retired += other.inputs_retired;
        self.expired += other.expired;
    }
}

#[derive(Debug)]
struct LifecycleMetrics {
    compactions: swh_obs::Counter,
    retired_inputs: swh_obs::Counter,
    expired: swh_obs::Counter,
    sweep_errors: swh_obs::Counter,
    backlog: swh_obs::Gauge,
    compacted_spans: swh_obs::Gauge,
}

impl LifecycleMetrics {
    fn in_registry(registry: &swh_obs::Registry) -> Self {
        Self {
            compactions: registry.counter(
                "swh_lifecycle_compactions_total",
                "Compacted roll-up partitions built (warm and cold)",
            ),
            retired_inputs: registry.counter(
                "swh_lifecycle_retired_inputs_total",
                "Input partitions retired into compacted roll-ups",
            ),
            expired: registry.counter(
                "swh_lifecycle_expired_partitions_total",
                "Partitions expired by retention policies",
            ),
            sweep_errors: registry.counter(
                "swh_lifecycle_sweep_errors_total",
                "Background compactor sweeps that failed",
            ),
            backlog: registry.gauge(
                "swh_lifecycle_backlog_partitions",
                "Input partitions sitting in complete windows awaiting compaction (measured at sweep start)",
            ),
            compacted_spans: registry.gauge(
                "swh_lifecycle_compacted_spans",
                "Warm and cold roll-up partitions resident in the catalog",
            ),
        }
    }
}

/// Coordinates compaction, retention, and span-aware range unions over one
/// catalog (optionally mirrored to a [`DiskStore`]).
///
/// All mutations go through the catalog's own locking; the manager holds no
/// lock across a merge. With a store attached, every compaction follows the
/// tombstone-intent → durable output → retire inputs protocol *before*
/// touching the catalog, so a crash at any step is repaired by
/// [`recover_store`] on the next open.
#[derive(Debug)]
pub struct LifecycleManager<T: ValueCodec> {
    catalog: Arc<Catalog<T>>,
    store: Option<DiskStore>,
    p_bound: f64,
    policies: RwLock<BTreeMap<DatasetId, LifecyclePolicy>>,
    metrics: LifecycleMetrics,
}

/// The partitions of raw stream `raw` among `parts` that a union of raw
/// sequences `lo..=hi` reads: cold roll-ups fully inside the range, warm
/// roll-ups over the remainder, then hot leaves. A compacted span that
/// straddles the range boundary is [`LifecycleError::MisalignedSpan`].
fn seq_range_selection(
    parts: impl Iterator<Item = PartitionId> + Clone,
    policy: LifecyclePolicy,
    dataset: DatasetId,
    raw: u32,
    lo: u64,
    hi: u64,
) -> Result<Vec<PartitionId>, LifecycleError> {
    let mut selected: BTreeSet<PartitionId> = BTreeSet::new();
    // Raw spans of the selected roll-ups.
    let mut covered: Vec<(u64, u64)> = Vec::new();
    let is_covered = |covered: &[(u64, u64)], a: u64, b: u64| {
        covered.iter().any(|&(clo, chi)| clo <= b && a <= chi)
    };
    for tier in [Tier::Cold, Tier::Warm] {
        for p in parts
            .clone()
            .filter(|p| Tier::of_stream(p.stream) == tier && raw_stream(p.stream) == raw)
        {
            let (plo, phi) = policy.span_of(p);
            if phi < lo || plo > hi {
                continue;
            }
            if plo < lo || phi > hi {
                return Err(LifecycleError::MisalignedSpan {
                    dataset,
                    partition: p,
                    lo: plo,
                    hi: phi,
                });
            }
            // Warm spans whose seqs a selected cold span already covers
            // cannot exist (compaction retires them), but guard anyway.
            if is_covered(&covered, plo, phi) {
                continue;
            }
            selected.insert(p);
            covered.push((plo, phi));
        }
    }
    for p in parts.filter(|p| {
        Tier::of_stream(p.stream) == Tier::Hot
            && p.stream == raw
            && (lo..=hi).contains(&p.seq)
            && !is_covered(&covered, p.seq, p.seq)
    }) {
        selected.insert(p);
    }
    Ok(selected.into_iter().collect())
}

impl<T: ValueCodec> LifecycleManager<T> {
    /// Manager over `catalog`, persisting compactions to `store` when
    /// given. `p_bound` is the merge probability bound used for roll-ups
    /// (the same one queries pass to `union_sample`).
    pub fn new(catalog: Arc<Catalog<T>>, store: Option<DiskStore>, p_bound: f64) -> Self {
        Self::with_registry(swh_obs::global(), catalog, store, p_bound)
    }

    /// [`LifecycleManager::new`] reporting into an explicit registry.
    pub fn with_registry(
        registry: &swh_obs::Registry,
        catalog: Arc<Catalog<T>>,
        store: Option<DiskStore>,
        p_bound: f64,
    ) -> Self {
        Self {
            catalog,
            store,
            p_bound,
            policies: RwLock::new(BTreeMap::new()),
            metrics: LifecycleMetrics::in_registry(registry),
        }
    }

    /// The catalog this manager compacts.
    pub fn catalog(&self) -> &Arc<Catalog<T>> {
        &self.catalog
    }

    /// The backing store, when compactions are persisted.
    pub fn store(&self) -> Option<&DiskStore> {
        self.store.as_ref()
    }

    /// Set (or replace) a dataset's lifecycle policy.
    pub fn set_policy(&self, dataset: DatasetId, policy: LifecyclePolicy) {
        self.policies
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(dataset, policy);
    }

    /// The dataset's policy (default when none was set).
    pub fn policy(&self, dataset: DatasetId) -> LifecyclePolicy {
        self.policies
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&dataset)
            .copied()
            .unwrap_or_default()
    }

    /// Snapshot of all explicitly-set policies.
    pub fn policies(&self) -> BTreeMap<DatasetId, LifecyclePolicy> {
        self.policies
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Load policies persisted in the store root (no-op without a store).
    /// Returns how many datasets had a policy.
    pub fn load_policies(&self) -> io::Result<usize> {
        let Some(store) = &self.store else {
            return Ok(0);
        };
        let loaded = load_policies(store.root())?;
        let n = loaded.len();
        *self
            .policies
            .write()
            .unwrap_or_else(PoisonError::into_inner) = loaded;
        Ok(n)
    }

    /// Persist the current policies to the store root (no-op without a
    /// store).
    pub fn save_policies(&self) -> io::Result<()> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        save_policies(store.root(), &self.policies())
    }

    /// Compact every complete window of `dataset`: hot → warm first, then
    /// warm → cold (so a sweep can cascade minutes all the way into days).
    pub fn compact_dataset<R: rand::Rng + ?Sized>(
        &self,
        dataset: DatasetId,
        rng: &mut R,
    ) -> Result<CompactionReport, LifecycleError> {
        let policy = self.policy(dataset);
        let mut report = CompactionReport::default();
        if policy.warm_fan_in >= 2 {
            report.absorb(self.compact_tier(dataset, policy, Tier::Hot, rng)?);
            if policy.cold_fan_in >= 2 {
                report.absorb(self.compact_tier(dataset, policy, Tier::Warm, rng)?);
            }
        }
        Ok(report)
    }

    /// Complete, uncompacted windows of `from`-tier partitions, as
    /// `(raw_stream, window_lo_seq, input_ids)` tuples.
    fn complete_windows(
        &self,
        dataset: DatasetId,
        policy: LifecyclePolicy,
        from: Tier,
    ) -> Vec<(u32, u64, Vec<PartitionId>)> {
        let Ok(parts) = self.catalog.partitions(dataset) else {
            return Vec::new();
        };
        let fan_in = match from {
            Tier::Hot => policy.warm_fan_in,
            Tier::Warm => policy.cold_fan_in,
            Tier::Cold => return Vec::new(),
        };
        let stride = policy.span_len(from);
        let width = stride * fan_in;
        let mut by_stream: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
        for p in parts {
            if Tier::of_stream(p.stream) == from {
                by_stream
                    .entry(raw_stream(p.stream))
                    .or_default()
                    .insert(p.seq);
            }
        }
        let mut windows = Vec::new();
        for (raw, seqs) in &by_stream {
            let mut done = BTreeSet::new();
            for &seq in seqs {
                let w = seq / width;
                if !done.insert(w) {
                    continue;
                }
                let inputs: Vec<PartitionId> = (0..fan_in)
                    .map(|i| w * width + i * stride)
                    .take_while(|s| seqs.contains(s))
                    .map(|s| PartitionId {
                        stream: from.stream(*raw),
                        seq: s,
                    })
                    .collect();
                if inputs.len() as u64 == fan_in {
                    windows.push((*raw, w * width, inputs));
                }
            }
        }
        windows
    }

    fn compact_tier<R: rand::Rng + ?Sized>(
        &self,
        dataset: DatasetId,
        policy: LifecyclePolicy,
        from: Tier,
        rng: &mut R,
    ) -> Result<CompactionReport, LifecycleError> {
        let to = match from {
            Tier::Hot => Tier::Warm,
            Tier::Warm => Tier::Cold,
            Tier::Cold => return Ok(CompactionReport::default()),
        };
        let mut report = CompactionReport::default();
        for (raw, lo, inputs) in self.complete_windows(dataset, policy, from) {
            let fan_in = inputs.len();
            let output = PartitionId {
                stream: to.stream(raw),
                seq: lo,
            };
            // The inputs stay resident (and readable) until the roll-up
            // replaces them below; the merge reads their shared samples in
            // place instead of copying them out.
            let samples = self.catalog.shared(dataset, &inputs)?;
            let parents: Vec<&[swh_core::lineage::LineageEvent]> =
                samples.iter().map(|s| s.lineage()).collect();
            let leaves = samples.iter().map(|s| Cow::Borrowed(&**s)).collect();
            let mut merged = swh_core::merge::merge_union(leaves, self.p_bound, rng)
                .map_err(CatalogError::from)?;
            // The merge DAG records one Merge per plan node; the roll-up is
            // semantically one k-ary merge, and fsck checks the recorded
            // fan-in against the tombstoned inputs — record it truthfully.
            merged.set_lineage(merged_lineage(&parents, fan_in as u32, 0));
            if let Some(store) = &self.store {
                let tomb = TombRecord {
                    dataset,
                    output,
                    inputs: inputs.clone(),
                };
                write_tomb(store, &tomb)?;
                store.save(
                    PartitionKey {
                        dataset,
                        partition: output,
                    },
                    &merged,
                )?;
                for p in &inputs {
                    store.remove(PartitionKey {
                        dataset,
                        partition: *p,
                    })?;
                    // An input that was itself a roll-up carries its own
                    // tombstone; the new tombstone supersedes its story.
                    let tomb = tomb_path(store, dataset, *p);
                    if tomb.exists() {
                        std::fs::remove_file(tomb)?;
                    }
                }
            }
            // One catalog transition: a union never sees the inputs gone
            // before the roll-up is in.
            self.catalog.replace(dataset, &inputs, output, merged)?;
            record(EventKind::Compaction, 0, 0, dataset.0, fan_in as u64);
            self.metrics.compactions.inc();
            self.metrics.retired_inputs.add(fan_in as u64);
            report.inputs_retired += fan_in as u64;
            match to {
                Tier::Warm => report.warm_built += 1,
                Tier::Cold => report.cold_built += 1,
                Tier::Hot => {}
            }
        }
        Ok(report)
    }

    /// Expire partitions per the dataset's retention policy: first by age
    /// (span ends more than `max_age` raw seqs behind the newest), then
    /// oldest-first while the dataset's footprint exceeds the budget.
    /// Returns how many partitions were expired.
    pub fn enforce_retention(&self, dataset: DatasetId) -> Result<u64, LifecycleError> {
        let policy = self.policy(dataset);
        if policy.max_age.is_none() && policy.footprint_budget.is_none() {
            return Ok(0);
        }
        let parts = match self.catalog.partitions(dataset) {
            Ok(p) => p,
            Err(CatalogError::UnknownDataset(_)) => return Ok(0),
            Err(e) => return Err(e.into()),
        };
        let latest = parts
            .iter()
            .map(|p| policy.span_of(*p).1)
            .max()
            .unwrap_or(0);
        let mut doomed: BTreeSet<PartitionId> = BTreeSet::new();
        if let Some(age) = policy.max_age {
            for p in &parts {
                if policy.span_of(*p).1 + age < latest {
                    doomed.insert(*p);
                }
            }
        }
        if let Some(budget) = policy.footprint_budget {
            let foots = self.catalog.footprints(dataset)?;
            let mut total: u64 = foots
                .iter()
                .filter(|(p, _)| !doomed.contains(p))
                .map(|(_, b)| b)
                .sum();
            let mut by_age: Vec<(PartitionId, u64)> = foots
                .into_iter()
                .filter(|(p, _)| !doomed.contains(p))
                .collect();
            by_age.sort_by_key(|(p, _)| policy.span_of(*p).1);
            for (p, bytes) in by_age {
                if total <= budget {
                    break;
                }
                doomed.insert(p);
                total -= bytes;
            }
        }
        let expired = doomed.len() as u64;
        for p in doomed {
            let key = PartitionKey {
                dataset,
                partition: p,
            };
            self.catalog.roll_out(key)?;
            if let Some(store) = &self.store {
                store.remove(key)?;
                let tomb = tomb_path(store, dataset, p);
                if tomb.exists() {
                    std::fs::remove_file(tomb)?;
                }
            }
        }
        if expired > 0 {
            record(EventKind::Retention, 0, 0, dataset.0, expired);
            self.metrics.expired.add(expired);
        }
        Ok(expired)
    }

    /// Input partitions sitting in complete windows awaiting compaction —
    /// the compactor's work queue depth for `dataset`.
    pub fn backlog(&self, dataset: DatasetId) -> u64 {
        let policy = self.policy(dataset);
        let mut n = 0;
        if policy.warm_fan_in >= 2 {
            n += self
                .complete_windows(dataset, policy, Tier::Hot)
                .iter()
                .map(|(_, _, inputs)| inputs.len() as u64)
                .sum::<u64>();
            if policy.cold_fan_in >= 2 {
                n += self
                    .complete_windows(dataset, policy, Tier::Warm)
                    .iter()
                    .map(|(_, _, inputs)| inputs.len() as u64)
                    .sum::<u64>();
            }
        }
        n
    }

    /// One full maintenance pass over every dataset: measure backlog,
    /// compact complete windows, enforce retention, refresh gauges.
    pub fn sweep<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<CompactionReport, LifecycleError> {
        let datasets = self.catalog.datasets();
        let backlog: u64 = datasets.iter().map(|ds| self.backlog(*ds)).sum();
        self.metrics.backlog.set(backlog as i64);
        let mut report = CompactionReport::default();
        for ds in datasets {
            report.absorb(self.compact_dataset(ds, rng)?);
            report.expired += self.enforce_retention(ds)?;
        }
        let spans: u64 = self
            .catalog
            .datasets()
            .into_iter()
            .filter_map(|ds| self.catalog.partitions(ds).ok())
            .flatten()
            .filter(|p| Tier::of_stream(p.stream) != Tier::Hot)
            .count() as u64;
        self.metrics.compacted_spans.set(spans as i64);
        Ok(report)
    }

    /// Union over the raw sequence range `seqs` of one raw stream,
    /// preferring the coarsest resident representation: cold roll-ups fully
    /// inside the range, then warm roll-ups over the remainder, then hot
    /// leaves. This is what makes long-span unions touch O(log span)
    /// samples. A compacted span that straddles the range boundary is an
    /// error ([`LifecycleError::MisalignedSpan`]) — its raw inputs were
    /// retired, so the range cannot be answered exactly.
    ///
    /// The partitions are chosen from the same catalog snapshot the union
    /// reads ([`Catalog`]'s selection and sample snapshot share one read
    /// lock), so a compaction running beside the call lands wholly before
    /// or wholly after it and the union always covers exactly `seqs`.
    pub fn union_seq_range<R: rand::Rng + ?Sized>(
        &self,
        dataset: DatasetId,
        raw: u32,
        seqs: std::ops::RangeInclusive<u64>,
        rng: &mut R,
    ) -> Result<Sample<T>, LifecycleError> {
        let policy = self.policy(dataset);
        let (lo, hi) = (*seqs.start(), *seqs.end());
        self.catalog.union_of(
            dataset,
            |parts| seq_range_selection(parts, policy, dataset, raw, lo, hi),
            self.p_bound,
            rng,
        )
    }

    /// Human/machine-readable lifecycle status of every dataset in the
    /// catalog, as JSON (tier counts, backlog, policy, footprint).
    pub fn status_json(&self) -> String {
        let mut out = String::from("{\"datasets\":[");
        let mut first = true;
        for ds in self.catalog.datasets() {
            let parts = self.catalog.partitions(ds).unwrap_or_default();
            let count = |t: Tier| {
                parts
                    .iter()
                    .filter(|p| Tier::of_stream(p.stream) == t)
                    .count()
            };
            let footprint: u64 = self
                .catalog
                .footprints(ds)
                .map(|f| f.iter().map(|(_, b)| b).sum())
                .unwrap_or(0);
            let p = self.policy(ds);
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"dataset\":{},\"hot\":{},\"warm\":{},\"cold\":{},\"backlog\":{},\
                 \"footprint_bytes\":{},\"policy\":{{\"warm_fan_in\":{},\"cold_fan_in\":{},\
                 \"max_age\":{},\"footprint_budget\":{}}}}}",
                ds.0,
                count(Tier::Hot),
                count(Tier::Warm),
                count(Tier::Cold),
                self.backlog(ds),
                footprint,
                p.warm_fan_in,
                p.cold_fan_in,
                p.max_age.map_or("null".into(), |v: u64| v.to_string()),
                p.footprint_budget
                    .map_or("null".into(), |v: u64| v.to_string()),
            ));
        }
        out.push_str("]}");
        out
    }
}

impl<T: ValueCodec + Sync> LifecycleManager<T> {
    /// Start the background compactor: a thread that runs
    /// [`LifecycleManager::sweep`] every `interval` until the returned
    /// handle is stopped (or dropped). Merge randomness comes from a
    /// dedicated RNG seeded with `seed`, so compaction never perturbs the
    /// caller's RNG streams.
    pub fn spawn_background(self: &Arc<Self>, interval: Duration, seed: u64) -> CompactorHandle {
        let mgr = Arc::clone(self);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("swh-compactor".into())
            .spawn(move || {
                let mut rng = swh_rand::seeded_rng(seed);
                let (lock, cvar) = &*flag;
                let mut stopped = lock.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if *stopped {
                        return;
                    }
                    drop(stopped);
                    if mgr.sweep(&mut rng).is_err() {
                        mgr.metrics.sweep_errors.inc();
                    }
                    stopped = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    if *stopped {
                        return;
                    }
                    (stopped, _) = cvar
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            })
            // swh-analyze: allow(panic) -- spawn with a static valid name only fails on OS thread exhaustion, unrecoverable here
            .expect("spawn swh-compactor");
        CompactorHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// Handle to a running background compactor ([
/// `LifecycleManager::spawn_background`]). Stopping (explicitly or by
/// dropping the handle) wakes the thread and joins it.
#[derive(Debug)]
pub struct CompactorHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl CompactorHandle {
    /// Signal the compactor to stop and wait for the current sweep to
    /// finish.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cvar.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Type-agnostic lifecycle status of a disk store (no catalog needed):
/// per-dataset tier counts from the file layout, tombstone counts, and the
/// persisted policy table. `swh lifecycle status` and the `/lifecycle`
/// serve route read this, so they work against stores of any element type.
pub fn store_status_json(store: &DiskStore) -> Result<String, StoreError> {
    let policies = load_policies(store.root()).unwrap_or_default();
    let mut out = String::from("{\"datasets\":[");
    let mut first = true;
    for ds in store_datasets(store)? {
        let keys = store.list(ds)?;
        let count = |t: Tier| {
            keys.iter()
                .filter(|k| Tier::of_stream(k.partition.stream) == t)
                .count()
        };
        let tombs = list_tombs(store, ds)?.len();
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"dataset\":{},\"hot\":{},\"warm\":{},\"cold\":{},\"tombstones\":{}",
            ds.0,
            count(Tier::Hot),
            count(Tier::Warm),
            count(Tier::Cold),
            tombs,
        ));
        if let Some(p) = policies.get(&ds) {
            out.push_str(&format!(
                ",\"policy\":{{\"warm_fan_in\":{},\"cold_fan_in\":{},\"max_age\":{},\
                 \"footprint_budget\":{}}}",
                p.warm_fan_in,
                p.cold_fan_in,
                p.max_age.map_or("null".into(), |v: u64| v.to_string()),
                p.footprint_budget
                    .map_or("null".into(), |v: u64| v.to_string()),
            ));
        }
        out.push('}');
    }
    out.push_str("]}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_core::footprint::FootprintPolicy;
    use swh_core::hybrid_reservoir::HybridReservoir;
    use swh_core::sampler::Sampler;
    use swh_rand::seeded_rng;

    fn sample(range: std::ops::Range<u64>, rng: &mut rand::rngs::SmallRng) -> Sample<u64> {
        HybridReservoir::new(FootprintPolicy::with_value_budget(32)).sample_batch(range, rng)
    }

    fn key(ds: u64, seq: u64) -> PartitionKey {
        PartitionKey {
            dataset: DatasetId(ds),
            partition: PartitionId::seq(seq),
        }
    }

    fn policy(warm: u64, cold: u64) -> LifecyclePolicy {
        LifecyclePolicy {
            warm_fan_in: warm,
            cold_fan_in: cold,
            max_age: None,
            footprint_budget: None,
        }
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swh-lifecycle-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn tier_stream_bits_roundtrip() {
        for raw in [0u32, 1, 7, (1 << 30) - 1] {
            for tier in [Tier::Hot, Tier::Warm, Tier::Cold] {
                let s = tier.stream(raw);
                assert_eq!(Tier::of_stream(s), tier);
                assert_eq!(raw_stream(s), raw);
            }
        }
    }

    #[test]
    fn policy_spans() {
        let p = policy(60, 24);
        assert_eq!(p.span_of(PartitionId::seq(17)), (17, 17));
        assert_eq!(
            p.span_of(PartitionId {
                stream: WARM_STREAM_BIT,
                seq: 120
            }),
            (120, 179)
        );
        assert_eq!(
            p.span_of(PartitionId {
                stream: COLD_STREAM_BIT,
                seq: 0
            }),
            (0, 1439)
        );
    }

    #[test]
    fn compaction_builds_warm_and_cold_tiers() {
        let mut rng = seeded_rng(11);
        let cat = Arc::new(Catalog::new());
        let ds = DatasetId(1);
        // 8 hot partitions; warm fan-in 4, cold fan-in 2 -> one cold span.
        for s in 0..8u64 {
            cat.roll_in(key(1, s), sample(s * 100..(s + 1) * 100, &mut rng))
                .unwrap();
        }
        let mgr = LifecycleManager::new(Arc::clone(&cat), None, 1e-3);
        mgr.set_policy(ds, policy(4, 2));
        assert_eq!(mgr.backlog(ds), 8);
        let report = mgr.compact_dataset(ds, &mut rng).unwrap();
        assert_eq!(report.warm_built, 2);
        assert_eq!(report.cold_built, 1);
        assert_eq!(report.inputs_retired, 10); // 8 hot + 2 warm
        let parts = cat.partitions(ds).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(Tier::of_stream(parts[0].stream), Tier::Cold);
        // The cold sample covers all 800 parent elements, with truthful
        // k-ary merge fan-in in lineage.
        let cold = cat
            .get(PartitionKey {
                dataset: ds,
                partition: parts[0],
            })
            .unwrap();
        assert_eq!(cold.parent_size(), 800);
        assert_eq!(
            swh_core::lineage::last_merge_fan_in(cold.lineage()),
            Some(2)
        );
        assert_eq!(mgr.backlog(ds), 0);
    }

    #[test]
    fn incomplete_windows_stay_hot() {
        let mut rng = seeded_rng(12);
        let cat = Arc::new(Catalog::new());
        let ds = DatasetId(1);
        // 4-partition windows; seqs 0..3 complete, 4..6 incomplete.
        for s in 0..7u64 {
            cat.roll_in(key(1, s), sample(s * 100..(s + 1) * 100, &mut rng))
                .unwrap();
        }
        let mgr = LifecycleManager::new(Arc::clone(&cat), None, 1e-3);
        mgr.set_policy(ds, policy(4, 0));
        let report = mgr.compact_dataset(ds, &mut rng).unwrap();
        assert_eq!(report.warm_built, 1);
        let parts = cat.partitions(ds).unwrap();
        assert_eq!(parts.len(), 4); // 1 warm + 3 hot stragglers
        assert_eq!(
            parts
                .iter()
                .filter(|p| Tier::of_stream(p.stream) == Tier::Hot)
                .count(),
            3
        );
    }

    #[test]
    fn union_seq_range_uses_coarse_spans_and_rejects_misaligned() {
        let mut rng = seeded_rng(13);
        let cat = Arc::new(Catalog::new());
        let ds = DatasetId(1);
        for s in 0..10u64 {
            cat.roll_in(key(1, s), sample(s * 100..(s + 1) * 100, &mut rng))
                .unwrap();
        }
        let mgr = LifecycleManager::new(Arc::clone(&cat), None, 1e-3);
        mgr.set_policy(ds, policy(4, 0));
        mgr.compact_dataset(ds, &mut rng).unwrap();
        // Whole range: 2 warm spans + 2 hot leaves.
        let s = mgr.union_seq_range(ds, 0, 0..=9, &mut rng).unwrap();
        assert_eq!(s.parent_size(), 1000);
        // Range cutting into a compacted span is refused.
        let err = mgr.union_seq_range(ds, 0, 2..=9, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            LifecycleError::MisalignedSpan { lo: 0, hi: 3, .. }
        ));
        // A range of only hot leaves still works.
        let s = mgr.union_seq_range(ds, 0, 8..=9, &mut rng).unwrap();
        assert_eq!(s.parent_size(), 200);
    }

    #[test]
    fn retention_expires_by_age_and_budget() {
        let mut rng = seeded_rng(14);
        let cat = Arc::new(Catalog::new());
        let ds = DatasetId(1);
        for s in 0..10u64 {
            cat.roll_in(key(1, s), sample(s * 100..(s + 1) * 100, &mut rng))
                .unwrap();
        }
        let mgr = LifecycleManager::new(Arc::clone(&cat), None, 1e-3);
        // Age: keep only spans ending within 4 of the newest (seq 9).
        mgr.set_policy(
            ds,
            LifecyclePolicy {
                warm_fan_in: 0,
                cold_fan_in: 0,
                max_age: Some(4),
                footprint_budget: None,
            },
        );
        let expired = mgr.enforce_retention(ds).unwrap();
        assert_eq!(expired, 5); // seqs 0..=4: 4 + 4 < 9 .. 0 + 4 < 9
        assert_eq!(cat.partitions(ds).unwrap().len(), 5);
        // Budget: shrink to ~2 partitions' footprint.
        let foots = cat.footprints(ds).unwrap();
        let per = foots[0].1;
        mgr.set_policy(
            ds,
            LifecyclePolicy {
                warm_fan_in: 0,
                cold_fan_in: 0,
                max_age: None,
                footprint_budget: Some(per * 2),
            },
        );
        mgr.enforce_retention(ds).unwrap();
        let left = cat.partitions(ds).unwrap();
        assert_eq!(left.len(), 2);
        assert_eq!(left[0].seq, 8); // oldest went first
    }

    #[test]
    fn union_cache_hits_and_lru_eviction() {
        let registry = swh_obs::Registry::new();
        let mut rng = seeded_rng(15);
        let a = sample(0..500, &mut rng);
        let bytes_per = a.footprint_bytes() + 24 + ENTRY_BASE_BYTES;
        let cache: UnionCache<u64> = UnionCache::with_registry(&registry, bytes_per * 2);
        let ds = DatasetId(1);
        let k = |seq| CacheKey::new(ds, vec![PartitionId::seq(seq)], 32, 1e-3);
        let epoch = cache.epoch(ds);
        assert!(cache.insert(k(0), a.clone(), epoch));
        assert!(cache.insert(k(1), a.clone(), epoch));
        assert_eq!(cache.len(), 2);
        // Touch k0 so k1 is the LRU victim.
        assert!(cache.get(&k(0)).is_some());
        assert!(cache.insert(k(2), a.clone(), epoch));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k(1)).is_none(), "LRU entry should be evicted");
        assert!(cache.get(&k(0)).is_some());
        // Key ordering is canonical: permuted selections share an entry.
        let k_ab = CacheKey::new(ds, vec![PartitionId::seq(5), PartitionId::seq(6)], 32, 1e-3);
        let k_ba = CacheKey::new(ds, vec![PartitionId::seq(6), PartitionId::seq(5)], 32, 1e-3);
        assert_eq!(k_ab, k_ba);
    }

    #[test]
    fn union_cache_epoch_rejects_stale_insert() {
        let registry = swh_obs::Registry::new();
        let mut rng = seeded_rng(16);
        let s = sample(0..100, &mut rng);
        let cache: UnionCache<u64> = UnionCache::with_registry(&registry, 1 << 20);
        let ds = DatasetId(1);
        let k = CacheKey::new(ds, vec![PartitionId::seq(0)], 32, 1e-3);
        let epoch = cache.epoch(ds);
        // A mutation lands between snapshot and insert.
        cache.invalidate_dataset(ds);
        assert!(!cache.insert(k.clone(), s.clone(), epoch));
        assert_eq!(cache.len(), 0);
        // With the fresh epoch the insert is accepted, and invalidation
        // drops it again.
        assert!(cache.insert(k.clone(), s, cache.epoch(ds)));
        assert_eq!(cache.invalidate_dataset(ds), 1);
        assert!(cache.get(&k).is_none());
    }

    #[test]
    fn tomb_roundtrip_and_recovery() {
        let mut rng = seeded_rng(17);
        let root = tmp_root("tomb");
        let store = DiskStore::open(&root).unwrap();
        let ds = DatasetId(3);
        let warm = PartitionId {
            stream: WARM_STREAM_BIT,
            seq: 0,
        };
        let tomb = TombRecord {
            dataset: ds,
            output: warm,
            inputs: vec![PartitionId::seq(0), PartitionId::seq(1)],
        };
        write_tomb(&store, &tomb).unwrap();
        assert_eq!(read_tomb(&tomb_path(&store, ds, warm)).unwrap(), tomb);
        assert_eq!(list_tombs(&store, ds).unwrap(), vec![tomb.clone()]);
        // Crash case A: tombstone but no durable output -> swept, inputs kept.
        for s in 0..2u64 {
            store
                .save(
                    PartitionKey {
                        dataset: ds,
                        partition: PartitionId::seq(s),
                    },
                    &sample(s * 100..(s + 1) * 100, &mut rng),
                )
                .unwrap();
        }
        let rep = recover_store(&store).unwrap();
        assert_eq!(rep.orphaned_tombs, 1);
        assert_eq!(store.list(ds).unwrap().len(), 2);
        // Crash case B: durable output, inputs not yet retired -> retired.
        write_tomb(&store, &tomb).unwrap();
        store
            .save(
                PartitionKey {
                    dataset: ds,
                    partition: warm,
                },
                &sample(0..200, &mut rng),
            )
            .unwrap();
        let rep = recover_store(&store).unwrap();
        assert_eq!(rep.retired_inputs, 2);
        assert_eq!(rep.validated, 1);
        let keys = store.list(ds).unwrap();
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].partition, warm);
        // Idempotent.
        let rep = recover_store(&store).unwrap();
        assert_eq!(
            rep,
            RecoveryReport {
                orphaned_tombs: 0,
                retired_inputs: 0,
                validated: 1
            }
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn policies_persist_roundtrip() {
        let root = tmp_root("policies");
        std::fs::create_dir_all(&root).unwrap();
        let mut table = BTreeMap::new();
        table.insert(DatasetId(1), policy(4, 2));
        table.insert(
            DatasetId(2),
            LifecyclePolicy {
                warm_fan_in: 60,
                cold_fan_in: 24,
                max_age: Some(10_000),
                footprint_budget: Some(1 << 30),
            },
        );
        save_policies(&root, &table).unwrap();
        assert_eq!(load_policies(&root).unwrap(), table);
        assert!(load_policies(&tmp_root("policies-missing"))
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn background_compactor_sweeps_and_stops() {
        let mut rng = seeded_rng(18);
        let cat = Arc::new(Catalog::new());
        let ds = DatasetId(1);
        for s in 0..4u64 {
            cat.roll_in(key(1, s), sample(s * 100..(s + 1) * 100, &mut rng))
                .unwrap();
        }
        let mgr = Arc::new(LifecycleManager::new(Arc::clone(&cat), None, 1e-3));
        mgr.set_policy(ds, policy(4, 0));
        let handle = mgr.spawn_background(Duration::from_millis(5), 99);
        // Wait (bounded) for the first sweep to compact the window.
        for _ in 0..400 {
            if cat.partitions(ds).map(|p| p.len()) == Ok(1) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
        let parts = cat.partitions(ds).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(Tier::of_stream(parts[0].stream), Tier::Warm);
    }

    #[test]
    fn status_json_reports_tiers() {
        let mut rng = seeded_rng(19);
        let cat = Arc::new(Catalog::new());
        for s in 0..5u64 {
            cat.roll_in(key(1, s), sample(s * 10..(s + 1) * 10, &mut rng))
                .unwrap();
        }
        let mgr = LifecycleManager::new(Arc::clone(&cat), None, 1e-3);
        mgr.set_policy(DatasetId(1), policy(4, 0));
        mgr.compact_dataset(DatasetId(1), &mut seeded_rng(20))
            .unwrap();
        let json = mgr.status_json();
        assert!(json.contains("\"hot\":1"), "{json}");
        assert!(json.contains("\"warm\":1"), "{json}");
        assert!(json.contains("\"warm_fan_in\":4"), "{json}");
    }
}
