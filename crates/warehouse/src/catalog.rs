//! Thread-safe in-memory catalog of partition samples.
//!
//! The catalog is the heart of the sample warehouse in Fig. 1: sampled
//! partitions `S_{i,j}` are *rolled in* as they are created, retrieved and
//! merged in arbitrary combinations (`S_{*,2}`, `S_{1-2,3-7}`, ...), and
//! *rolled out* when the corresponding full-scale partitions are dropped.

use crate::ids::{DatasetId, PartitionId, PartitionKey};
use crate::lifecycle::{CacheKey, UnionCache};
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};
use swh_core::merge::MergeError;
use swh_core::sample::Sample;
use swh_core::value::SampleValue;

/// A rolled-in partition sample plus bookkeeping.
#[derive(Debug, Clone)]
pub struct PartitionEntry<T: SampleValue> {
    /// The uniform partition sample.
    pub sample: Sample<T>,
    /// Monotonic roll-in sequence number (warehouse-wide).
    pub rolled_in_at: u64,
}

/// Errors from catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The referenced dataset has no partitions rolled in.
    UnknownDataset(DatasetId),
    /// The referenced partition is not in the catalog.
    UnknownPartition(PartitionKey),
    /// A partition with this key is already rolled in.
    DuplicatePartition(PartitionKey),
    /// The requested selection matched no partitions.
    EmptySelection,
    /// Merging the selected samples failed.
    Merge(MergeError),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownDataset(d) => write!(f, "unknown dataset {d}"),
            CatalogError::UnknownPartition(k) => write!(f, "unknown partition {k}"),
            CatalogError::DuplicatePartition(k) => write!(f, "partition {k} already present"),
            CatalogError::EmptySelection => write!(f, "selection matched no partitions"),
            CatalogError::Merge(e) => write!(f, "merge failed: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<MergeError> for CatalogError {
    fn from(e: MergeError) -> Self {
        CatalogError::Merge(e)
    }
}

/// Concurrent registry mapping `(dataset, partition)` to samples.
///
/// Reads (selection, merging into query samples) take a shared lock;
/// roll-in/roll-out take the exclusive lock briefly. Merging clones the
/// selected samples out of the catalog so the lock is never held across the
/// merge computation; a merged-union cache hit clones nothing but the
/// cached result.
///
/// ```
/// use swh_core::{FootprintPolicy, HybridReservoir, Sampler};
/// use swh_rand::seeded_rng;
/// use swh_warehouse::{Catalog, DatasetId, PartitionId, PartitionKey};
///
/// let mut rng = seeded_rng(1);
/// let policy = FootprintPolicy::with_value_budget(64);
/// let catalog = Catalog::new();
/// for day in 0..7u64 {
///     let sample = HybridReservoir::new(policy)
///         .sample_batch(day * 1_000..(day + 1) * 1_000, &mut rng);
///     catalog
///         .roll_in(
///             PartitionKey { dataset: DatasetId(1), partition: PartitionId::seq(day) },
///             sample,
///         )
///         .unwrap();
/// }
/// // Uniform sample over a weekend: days 5..7.
/// let weekend = catalog
///     .union_sample(DatasetId(1), |p| p.seq >= 5, 1e-3, &mut rng)
///     .unwrap();
/// assert_eq!(weekend.parent_size(), 2_000);
/// ```
#[derive(Debug)]
pub struct Catalog<T: SampleValue> {
    inner: RwLock<BTreeMap<DatasetId, BTreeMap<PartitionId, PartitionEntry<T>>>>,
    roll_seq: RwLock<u64>,
    cache: RwLock<Option<Arc<UnionCache<T>>>>,
    metrics: CatalogMetrics,
}

/// Cached handles to the catalog's operation counters. Handles are resolved
/// once per catalog so the per-op cost is one relaxed atomic increment, not
/// a registry lookup.
#[derive(Debug, Clone)]
struct CatalogMetrics {
    roll_ins: swh_obs::Counter,
    roll_outs: swh_obs::Counter,
    gets: swh_obs::Counter,
    selects: swh_obs::Counter,
    union_merges: swh_obs::Counter,
    union_serial: swh_obs::Counter,
    union_parallel: swh_obs::Counter,
    merge_ns: swh_obs::Histogram,
}

impl CatalogMetrics {
    fn in_registry(registry: &swh_obs::Registry) -> Self {
        Self {
            roll_ins: registry.counter(
                "swh_catalog_roll_ins_total",
                "Partition samples rolled into the catalog",
            ),
            roll_outs: registry.counter(
                "swh_catalog_roll_outs_total",
                "Partition samples rolled out of the catalog",
            ),
            gets: registry.counter(
                "swh_catalog_gets_total",
                "Single-partition sample retrievals",
            ),
            selects: registry.counter(
                "swh_catalog_selects_total",
                "Partition selection scans over the catalog",
            ),
            union_merges: registry.counter(
                "swh_catalog_union_merges_total",
                "Union-sample merge queries executed",
            ),
            union_serial: registry.counter(
                "swh_catalog_union_serial_total",
                "Union-sample queries the cost model ran inline on one worker",
            ),
            union_parallel: registry.counter(
                "swh_catalog_union_parallel_total",
                "Union-sample queries the cost model ran on more than one worker",
            ),
            merge_ns: registry.histogram(
                "swh_catalog_merge_ns",
                "Wall-clock nanoseconds per union-sample merge",
            ),
        }
    }
}

impl<T: SampleValue> Default for Catalog<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: SampleValue> Catalog<T> {
    /// Empty catalog, reporting its operation counts to the global
    /// [`swh_obs`] registry.
    pub fn new() -> Self {
        Self::with_registry(swh_obs::global())
    }

    /// Empty catalog reporting into an explicit metrics registry (tests use
    /// a private registry to assert exact counts).
    pub fn with_registry(registry: &swh_obs::Registry) -> Self {
        Self {
            inner: RwLock::new(BTreeMap::new()),
            roll_seq: RwLock::new(0),
            cache: RwLock::new(None),
            metrics: CatalogMetrics::in_registry(registry),
        }
    }

    /// Attach a merged-union cache: [`Catalog::union_sample`] consults it
    /// before planning a merge, and every roll-in/roll-out (including compactions, which are
    /// roll-outs plus a roll-in) invalidates the dataset's entries. Off by
    /// default — a cache is opt-in because it trades memory for repeat-
    /// union latency.
    pub fn enable_union_cache(&self, cache: Arc<UnionCache<T>>) {
        *self.cache.write().unwrap_or_else(PoisonError::into_inner) = Some(cache);
    }

    /// The attached merged-union cache, if any.
    pub fn union_cache(&self) -> Option<Arc<UnionCache<T>>> {
        self.cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn invalidate_cache(&self, dataset: DatasetId) {
        if let Some(cache) = self.union_cache() {
            cache.invalidate_dataset(dataset);
        }
    }

    /// Roll a partition sample into the warehouse.
    pub fn roll_in(&self, key: PartitionKey, sample: Sample<T>) -> Result<(), CatalogError> {
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let ds = map.entry(key.dataset).or_default();
        if ds.contains_key(&key.partition) {
            return Err(CatalogError::DuplicatePartition(key));
        }
        let mut seq = self
            .roll_seq
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        *seq += 1;
        ds.insert(
            key.partition,
            PartitionEntry {
                sample,
                rolled_in_at: *seq,
            },
        );
        drop(seq);
        drop(map);
        self.metrics.roll_ins.inc();
        swh_obs::journal::record(
            swh_obs::journal::EventKind::CatalogRollIn,
            0,
            0,
            key.dataset.0,
            key.partition.seq,
        );
        self.invalidate_cache(key.dataset);
        Ok(())
    }

    /// Roll a partition sample out, returning it.
    pub fn roll_out(&self, key: PartitionKey) -> Result<PartitionEntry<T>, CatalogError> {
        let mut map = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let ds = map
            .get_mut(&key.dataset)
            .ok_or(CatalogError::UnknownDataset(key.dataset))?;
        let entry = ds
            .remove(&key.partition)
            .ok_or(CatalogError::UnknownPartition(key))?;
        if ds.is_empty() {
            map.remove(&key.dataset);
        }
        drop(map);
        self.metrics.roll_outs.inc();
        swh_obs::journal::record(
            swh_obs::journal::EventKind::CatalogRollOut,
            0,
            0,
            key.dataset.0,
            key.partition.seq,
        );
        self.invalidate_cache(key.dataset);
        Ok(entry)
    }

    /// Clone one partition's sample out of the catalog.
    pub fn get(&self, key: PartitionKey) -> Result<Sample<T>, CatalogError> {
        self.metrics.gets.inc();
        let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        map.get(&key.dataset)
            .and_then(|ds| ds.get(&key.partition))
            .map(|e| e.sample.clone())
            .ok_or(CatalogError::UnknownPartition(key))
    }

    /// All datasets currently present.
    pub fn datasets(&self) -> Vec<DatasetId> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .copied()
            .collect()
    }

    /// All partitions of a dataset, in id order.
    pub fn partitions(&self, dataset: DatasetId) -> Result<Vec<PartitionId>, CatalogError> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&dataset)
            .map(|ds| ds.keys().copied().collect())
            .ok_or(CatalogError::UnknownDataset(dataset))
    }

    /// Per-partition sample footprints (bytes) of a dataset, in id order.
    /// Retention policies budget against this.
    pub fn footprints(&self, dataset: DatasetId) -> Result<Vec<(PartitionId, u64)>, CatalogError> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&dataset)
            .map(|ds| {
                ds.iter()
                    .map(|(id, e)| (*id, e.sample.footprint_bytes()))
                    .collect()
            })
            .ok_or(CatalogError::UnknownDataset(dataset))
    }

    /// Number of partitions rolled in across all datasets.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(BTreeMap::len)
            .sum()
    }

    /// True when the catalog holds no partitions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone the samples of the selected partitions (all partitions for
    /// which `select` returns true), in partition order.
    pub fn select(
        &self,
        dataset: DatasetId,
        mut select: impl FnMut(PartitionId) -> bool,
    ) -> Result<Vec<Sample<T>>, CatalogError> {
        self.metrics.selects.inc();
        let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let ds = map
            .get(&dataset)
            .ok_or(CatalogError::UnknownDataset(dataset))?;
        let picked: Vec<Sample<T>> = ds
            .iter()
            .filter(|(id, _)| select(**id))
            .map(|(_, e)| e.sample.clone())
            .collect();
        if picked.is_empty() {
            return Err(CatalogError::EmptySelection);
        }
        Ok(picked)
    }

    /// Produce a single uniform sample of the union of the selected
    /// partitions (the warehouse's query primitive: `S_K` for
    /// `K ⊆ {1..k}` in requirement 2 of §2).
    ///
    /// The selection runs through the union engine: it is planned once
    /// into a merge DAG ([`swh_core::merge::union_plan`]), the planner
    /// picks the worker count whose predicted wall-clock — critical path
    /// vs. work/`t`, plus per-worker spawn cost — is lowest on this machine
    /// ([`swh_core::planner::MergePlan::machine_threads`]), and the DAG
    /// runs on the work-stealing executor ([`swh_core::merge::run_union`]),
    /// inline when one worker wins. Per-node RNG streams make the result a
    /// pure function of the selection and the caller's RNG — never of the
    /// machine's thread count or steal order. The worker count is counted
    /// as serial (`1`) or parallel (`> 1`).
    ///
    /// With a merged-union cache attached
    /// ([`Catalog::enable_union_cache`]), the exact selection is looked up
    /// before any sample is cloned — a hit skips the copy and the merge —
    /// and the merged result is offered back under the invalidation epoch
    /// captured while the selection was snapshotted, so a roll-in/roll-out
    /// racing the merge can never leave a stale entry behind.
    pub fn union_sample<R: rand::Rng + ?Sized>(
        &self,
        dataset: DatasetId,
        mut select: impl FnMut(PartitionId) -> bool,
        p_bound: f64,
        rng: &mut R,
    ) -> Result<Sample<T>, CatalogError> {
        self.metrics.selects.inc();
        let cache = self.union_cache();
        let (picked, cached_key, epoch) = {
            let map = self.inner.read().unwrap_or_else(PoisonError::into_inner);
            let ds = map
                .get(&dataset)
                .ok_or(CatalogError::UnknownDataset(dataset))?;
            let picked: Vec<(&PartitionId, &PartitionEntry<T>)> =
                ds.iter().filter(|(id, _)| select(**id)).collect();
            let Some((_, first)) = picked.first() else {
                return Err(CatalogError::EmptySelection);
            };
            // Probe and epoch-capture happen under the read lock that
            // snapshotted the selection: any mutation serializes either
            // before (we see its invalidation) or after (it bumps the
            // epoch and our insert is refused). Samples are cloned only
            // on a miss.
            let (key, epoch) = match &cache {
                Some(c) => {
                    let ids = picked.iter().map(|(id, _)| **id).collect();
                    let key = CacheKey::new(dataset, ids, first.sample.policy().n_f(), p_bound);
                    if let Some(hit) = c.get(&key) {
                        return Ok(hit);
                    }
                    (Some(key), c.epoch(dataset))
                }
                None => (None, 0),
            };
            let picked: Vec<Sample<T>> = picked.iter().map(|(_, e)| e.sample.clone()).collect();
            (picked, key, epoch)
        };
        let scope = swh_obs::profile::scope_rooted("catalog/union_sample")
            .histogram(&self.metrics.merge_ns);
        let plan = swh_core::merge::union_plan(&picked);
        let workers = plan.machine_threads();
        if workers > 1 {
            self.metrics.union_parallel.inc();
        } else {
            self.metrics.union_serial.inc();
        }
        let merged = swh_core::merge::run_union(&plan, picked, p_bound, workers, rng)?;
        scope.end();
        self.metrics.union_merges.inc();
        if let (Some(c), Some(key)) = (&cache, cached_key) {
            c.insert(key, merged.clone(), epoch);
        }
        Ok(merged)
    }

    /// Fig. 1's grid queries (`S_{*,2}`, `S_{1-2,3-7}`, ...): a uniform
    /// sample of the union of all partitions whose stream index and
    /// sequence number fall in the given inclusive ranges.
    pub fn union_sample_grid<R: rand::Rng + ?Sized>(
        &self,
        dataset: DatasetId,
        streams: std::ops::RangeInclusive<u32>,
        seqs: std::ops::RangeInclusive<u64>,
        p_bound: f64,
        rng: &mut R,
    ) -> Result<Sample<T>, CatalogError> {
        self.union_sample(
            dataset,
            |p| streams.contains(&p.stream) && seqs.contains(&p.seq),
            p_bound,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_core::footprint::FootprintPolicy;
    use swh_core::hybrid_reservoir::HybridReservoir;
    use swh_core::sampler::Sampler;
    use swh_rand::seeded_rng;

    fn key(ds: u64, seq: u64) -> PartitionKey {
        PartitionKey {
            dataset: DatasetId(ds),
            partition: PartitionId::seq(seq),
        }
    }

    fn sample(range: std::ops::Range<u64>, rng: &mut rand::rngs::SmallRng) -> Sample<u64> {
        HybridReservoir::new(FootprintPolicy::with_value_budget(32)).sample_batch(range, rng)
    }

    #[test]
    fn roll_in_get_roll_out() {
        let mut rng = seeded_rng(1);
        let cat = Catalog::new();
        cat.roll_in(key(1, 0), sample(0..1000, &mut rng)).unwrap();
        cat.roll_in(key(1, 1), sample(1000..2000, &mut rng))
            .unwrap();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.partitions(DatasetId(1)).unwrap().len(), 2);
        let s = cat.get(key(1, 0)).unwrap();
        assert_eq!(s.parent_size(), 1000);
        let e = cat.roll_out(key(1, 0)).unwrap();
        assert_eq!(e.sample.parent_size(), 1000);
        assert_eq!(cat.len(), 1);
        assert!(matches!(
            cat.get(key(1, 0)),
            Err(CatalogError::UnknownPartition(_))
        ));
    }

    #[test]
    fn duplicate_roll_in_rejected() {
        let mut rng = seeded_rng(2);
        let cat = Catalog::new();
        cat.roll_in(key(1, 0), sample(0..100, &mut rng)).unwrap();
        let err = cat
            .roll_in(key(1, 0), sample(0..100, &mut rng))
            .unwrap_err();
        assert!(matches!(err, CatalogError::DuplicatePartition(_)));
    }

    #[test]
    fn union_sample_merges_selection() {
        let mut rng = seeded_rng(3);
        let cat = Catalog::new();
        for d in 0..7u64 {
            cat.roll_in(key(1, d), sample(d * 1000..(d + 1) * 1000, &mut rng))
                .unwrap();
        }
        // "Weekly" sample = union of days 0..7.
        let weekly = cat
            .union_sample(DatasetId(1), |_| true, 1e-3, &mut rng)
            .unwrap();
        assert_eq!(weekly.parent_size(), 7000);
        assert!(weekly.size() <= 32);
        // Partial selection: days 2..=3.
        let partial = cat
            .union_sample(DatasetId(1), |p| (2..=3).contains(&p.seq), 1e-3, &mut rng)
            .unwrap();
        assert_eq!(partial.parent_size(), 2000);
    }

    #[test]
    fn grid_query_selects_stream_and_seq_ranges() {
        // Fig. 1's D_{i,j} matrix: 3 streams x 8 days, values encode (i,j).
        let mut rng = seeded_rng(9);
        let cat = Catalog::new();
        for stream in 0..3u32 {
            for day in 0..8u64 {
                let base = (stream as u64 * 8 + day) * 1_000;
                let s = HybridReservoir::new(FootprintPolicy::with_value_budget(32))
                    .sample_batch(base..base + 1_000, &mut rng);
                cat.roll_in(
                    PartitionKey {
                        dataset: DatasetId(1),
                        partition: PartitionId::new(stream, day),
                    },
                    s,
                )
                .unwrap();
            }
        }
        // S_{1-2, 3-7}: streams 1..=2, days 3..=7 -> 10 partitions.
        let s = cat
            .union_sample_grid(DatasetId(1), 1..=2, 3..=7, 1e-3, &mut rng)
            .unwrap();
        assert_eq!(s.parent_size(), 10_000);
        for (v, _) in s.histogram().iter() {
            let part = v / 1_000;
            let (stream, day) = (part / 8, part % 8);
            assert!((1..=2).contains(&stream), "value from stream {stream}");
            assert!((3..=7).contains(&day), "value from day {day}");
        }
        // S_{*,2}: all streams, day 2 only.
        let s = cat
            .union_sample_grid(DatasetId(1), 0..=u32::MAX, 2..=2, 1e-3, &mut rng)
            .unwrap();
        assert_eq!(s.parent_size(), 3_000);
    }

    #[test]
    fn wide_union_is_deterministic_for_a_seeded_rng() {
        // Whatever path the cost model picks for these 8 partitions,
        // per-node RNG streams keyed by plan position make the result a
        // function of (selection, seed) only — two runs with the same seed
        // must agree exactly, whatever the thread count this machine
        // offers.
        let mut rng = seeded_rng(60);
        let cat = Catalog::new();
        for d in 0..8u64 {
            cat.roll_in(key(1, d), sample(d * 1000..(d + 1) * 1000, &mut rng))
                .unwrap();
        }
        let run = || {
            let mut rng = seeded_rng(61);
            cat.union_sample(DatasetId(1), |_| true, 1e-3, &mut rng)
                .unwrap()
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.parent_size(), 8_000);
        assert!(a.size() <= 32);
    }

    #[test]
    fn small_unions_stay_on_the_serial_plan() {
        // Regression test for the old fixed ">= 4 partitions go parallel"
        // rule: a union of a handful of tiny samples costs a few
        // microseconds of merge work, far below the per-worker spawn cost,
        // so the cost-based cutover must run it inline on one worker
        // regardless of how many cores the machine has — and give exactly
        // what the engine gives at one thread for the same RNG. The
        // counters in a private registry pin the routing.
        let registry = swh_obs::Registry::new();
        let cat = Catalog::with_registry(&registry);
        let mut rng = seeded_rng(41);
        let mut parts = Vec::new();
        for d in 0..6u64 {
            let s = sample(d * 100..(d + 1) * 100, &mut rng);
            parts.push(s.clone());
            cat.roll_in(key(1, d), s).unwrap();
        }
        let s = cat
            .union_sample(DatasetId(1), |_| true, 1e-3, &mut seeded_rng(42))
            .unwrap();
        assert_eq!(s.parent_size(), 600);
        let engine =
            swh_core::merge::merge_tree_parallel(parts, 1e-3, 1, &mut seeded_rng(42)).unwrap();
        assert_eq!(
            s, engine,
            "serial union differs from the engine at one thread"
        );
        assert_eq!(cat.metrics.union_serial.get(), 1);
        assert_eq!(cat.metrics.union_parallel.get(), 0);
        assert_eq!(cat.metrics.union_merges.get(), 1);
    }

    /// Sample value whose clones are counted, to see what a query copies.
    #[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    struct Counted(u64);

    static CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Counted(self.0)
        }
    }

    #[test]
    fn union_cache_hit_clones_only_the_cached_result() {
        let cat = Catalog::with_registry(&swh_obs::Registry::new());
        cat.enable_union_cache(Arc::new(UnionCache::with_registry(
            &swh_obs::Registry::new(),
            1 << 20,
        )));
        let mut rng = seeded_rng(78);
        for d in 0..8u64 {
            let s = HybridReservoir::new(FootprintPolicy::with_value_budget(32))
                .sample_batch((d * 1000..(d + 1) * 1000).map(Counted), &mut rng);
            cat.roll_in(key(1, d), s).unwrap();
        }
        let first = cat
            .union_sample(DatasetId(1), |_| true, 1e-3, &mut rng)
            .unwrap();
        let before = CLONES.load(std::sync::atomic::Ordering::Relaxed);
        let hit = cat
            .union_sample(DatasetId(1), |_| true, 1e-3, &mut rng)
            .unwrap();
        let clones = CLONES.load(std::sync::atomic::Ordering::Relaxed) - before;
        assert_eq!(hit, first);
        // The hit copies the cached union (at most n_F = 32 values), never
        // the eight 32-value partition samples behind it.
        assert!(clones <= 32, "cache hit cloned {clones} values");
    }

    #[test]
    fn union_cache_serves_repeat_unions_and_invalidates() {
        let registry = swh_obs::Registry::new();
        let cat = Catalog::with_registry(&registry);
        let cache = Arc::new(UnionCache::with_registry(&registry, 1 << 20));
        cat.enable_union_cache(Arc::clone(&cache));
        let mut rng = seeded_rng(77);
        for d in 0..6u64 {
            cat.roll_in(key(1, d), sample(d * 100..(d + 1) * 100, &mut rng))
                .unwrap();
        }
        let a = cat
            .union_sample(DatasetId(1), |_| true, 1e-3, &mut rng)
            .unwrap();
        let merges_after_first = cat.metrics.union_merges.get();
        let b = cat
            .union_sample(DatasetId(1), |_| true, 1e-3, &mut rng)
            .unwrap();
        assert_eq!(a, b, "hit must return the cached merge byte-identically");
        assert_eq!(
            cat.metrics.union_merges.get(),
            merges_after_first,
            "repeat union must not merge again"
        );
        assert_eq!(cache.stats(), (2, 1));
        // Any roll-in invalidates the dataset's entries; the next union
        // recomputes over the new selection.
        cat.roll_in(key(1, 6), sample(600..700, &mut rng)).unwrap();
        assert!(cache.is_empty(), "roll-in must invalidate cached unions");
        let c = cat
            .union_sample(DatasetId(1), |_| true, 1e-3, &mut rng)
            .unwrap();
        assert_eq!(c.parent_size(), 700);
        // The same selection now hits again.
        let d = cat
            .union_sample(DatasetId(1), |_| true, 1e-3, &mut rng)
            .unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn empty_selection_is_error() {
        let mut rng = seeded_rng(4);
        let cat = Catalog::new();
        cat.roll_in(key(1, 0), sample(0..100, &mut rng)).unwrap();
        let err = cat
            .union_sample(DatasetId(1), |_| false, 1e-3, &mut rng)
            .unwrap_err();
        assert_eq!(err, CatalogError::EmptySelection);
    }

    #[test]
    fn unknown_dataset_is_error() {
        let cat: Catalog<u64> = Catalog::new();
        assert!(matches!(
            cat.partitions(DatasetId(9)),
            Err(CatalogError::UnknownDataset(_))
        ));
    }

    #[test]
    fn roll_sequence_is_monotonic() {
        let mut rng = seeded_rng(5);
        let cat = Catalog::new();
        cat.roll_in(key(1, 0), sample(0..10, &mut rng)).unwrap();
        cat.roll_in(key(1, 1), sample(10..20, &mut rng)).unwrap();
        let a = cat.roll_out(key(1, 0)).unwrap().rolled_in_at;
        let b = cat.roll_out(key(1, 1)).unwrap().rolled_in_at;
        assert!(a < b);
    }

    #[test]
    fn concurrent_roll_in_from_threads() {
        let cat: Catalog<u64> = Catalog::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cat = &cat;
                scope.spawn(move || {
                    let mut rng = seeded_rng(100 + t);
                    for s in 0..16u64 {
                        cat.roll_in(
                            PartitionKey {
                                dataset: DatasetId(t),
                                partition: PartitionId::seq(s),
                            },
                            sample(s * 10..(s + 1) * 10, &mut rng),
                        )
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(cat.len(), 128);
        assert_eq!(cat.datasets().len(), 8);
    }
}
