//! The [`SampleWarehouse`] facade: Fig. 1 of the paper as one object.

use crate::catalog::{Catalog, CatalogError};
use crate::codec::ValueCodec;
use crate::ids::{DatasetId, PartitionId, PartitionKey};
use crate::ingest::SamplerConfig;
use crate::parallel::sample_partitions_parallel;
use crate::store::{DiskStore, StoreError};
use rand::Rng;
use std::sync::Arc;
use swh_core::footprint::FootprintPolicy;
use swh_core::lineage;
use swh_core::sample::Sample;
use swh_core::sampler::Sampler;
use swh_core::value::SampleValue;
use swh_obs::trace::Op;

/// Which algorithm the warehouse runs at ingestion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// Algorithm HB: needs the (expected) partition size at ingestion.
    HybridBernoulli,
    /// Algorithm HR: size-oblivious.
    HybridReservoir,
}

/// Errors from warehouse operations.
#[derive(Debug)]
pub enum WarehouseError {
    /// Catalog-level failure (unknown/duplicate partitions, merge failure).
    Catalog(CatalogError),
    /// Persistence failure.
    Store(StoreError),
    /// Algorithm HB was selected but no expected partition size was given.
    MissingExpectedSize,
}

impl std::fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarehouseError::Catalog(e) => write!(f, "{e}"),
            WarehouseError::Store(e) => write!(f, "{e}"),
            WarehouseError::MissingExpectedSize => {
                write!(
                    f,
                    "Algorithm HB requires the expected partition size a priori"
                )
            }
        }
    }
}

impl std::error::Error for WarehouseError {}

impl From<CatalogError> for WarehouseError {
    fn from(e: CatalogError) -> Self {
        WarehouseError::Catalog(e)
    }
}

impl From<StoreError> for WarehouseError {
    fn from(e: StoreError) -> Self {
        WarehouseError::Store(e)
    }
}

/// Outcome of [`SampleWarehouse::load_dataset`]: corrupt entries are
/// quarantined (not fatal), so a load reports what happened per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Partition samples decoded and rolled into the catalog.
    pub loaded: usize,
    /// Corrupt entries moved into the store's `quarantine/` directory.
    pub quarantined: usize,
    /// Entries skipped because the partition was already cataloged.
    pub skipped_duplicates: usize,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} loaded, {} quarantined, {} duplicate(s) skipped",
            self.loaded, self.quarantined, self.skipped_duplicates
        )
    }
}

/// A sample data warehouse shadowing a full-scale warehouse: per-partition
/// uniform samples, rolled in/out, merged on demand.
#[derive(Debug)]
pub struct SampleWarehouse<T: SampleValue> {
    catalog: Catalog<T>,
    policy: FootprintPolicy,
    algorithm: Algorithm,
    /// Exceedance probability used for HB rates and merge rate derivation.
    p_bound: f64,
}

impl<T: SampleValue> SampleWarehouse<T> {
    /// Create a warehouse sampling with the given algorithm and footprint
    /// bound. `p_bound` is the HB exceedance probability (the paper's
    /// experiments default to `0.001`); it also parameterizes merges.
    pub fn new(policy: FootprintPolicy, algorithm: Algorithm, p_bound: f64) -> Self {
        assert!(p_bound > 0.0 && p_bound < 1.0, "p_bound must lie in (0,1)");
        Self {
            catalog: Catalog::new(),
            policy,
            algorithm,
            p_bound,
        }
    }

    /// The footprint policy partitions are sampled under.
    pub fn policy(&self) -> FootprintPolicy {
        self.policy
    }

    /// Direct access to the catalog (e.g. for sliding-window maintenance).
    pub fn catalog(&self) -> &Catalog<T> {
        &self.catalog
    }

    fn sampler_config(&self, expected_n: Option<u64>) -> Result<SamplerConfig, WarehouseError> {
        match self.algorithm {
            Algorithm::HybridBernoulli => expected_n
                .map(|n| SamplerConfig::HybridBernoulli {
                    expected_n: n,
                    p_bound: self.p_bound,
                })
                .ok_or(WarehouseError::MissingExpectedSize),
            Algorithm::HybridReservoir => Ok(SamplerConfig::HybridReservoir),
        }
    }

    /// Sample one partition's values and roll the sample in.
    ///
    /// `expected_n` is required for Algorithm HB (the a priori partition
    /// size); HR ignores it.
    pub fn ingest_partition<R: Rng + ?Sized, I: IntoIterator<Item = T>>(
        &self,
        key: PartitionKey,
        values: I,
        expected_n: Option<u64>,
        rng: &mut R,
    ) -> Result<(), WarehouseError> {
        let config = self.sampler_config(expected_n)?;
        let mut sampler = config.build::<T>(self.policy);
        for v in values {
            sampler.observe(v, rng);
        }
        let sample = sampler.finalize(rng);
        self.catalog.roll_in(key, sample)?;
        Ok(())
    }

    /// Sample many partitions in parallel and roll them in as partitions
    /// `start_seq, start_seq + 1, ...` of stream 0.
    ///
    /// `expected_n` applies per partition (HB only).
    pub fn ingest_partitions_parallel<I>(
        &self,
        dataset: DatasetId,
        partitions: Vec<I>,
        expected_n: Option<u64>,
        threads: usize,
        seed: u64,
        start_seq: u64,
    ) -> Result<(), WarehouseError>
    where
        I: Iterator<Item = T> + Send,
    {
        let config = self.sampler_config(expected_n)?;
        let policy = self.policy;
        let samples = sample_partitions_parallel(
            partitions,
            move |_| config.build::<T>(policy),
            threads,
            seed,
        );
        for (i, sample) in samples.into_iter().enumerate() {
            self.catalog.roll_in(
                PartitionKey {
                    dataset,
                    partition: PartitionId::seq(start_seq + i as u64),
                },
                sample,
            )?;
        }
        Ok(())
    }

    /// Roll a partition sample out of the warehouse, returning it.
    pub fn roll_out(&self, key: PartitionKey) -> Result<Sample<T>, WarehouseError> {
        Ok(Arc::unwrap_or_clone(self.catalog.roll_out(key)?.sample))
    }

    /// Uniform sample of the union of the selected partitions.
    pub fn query_union<R: Rng + ?Sized>(
        &self,
        dataset: DatasetId,
        select: impl FnMut(PartitionId) -> bool,
        rng: &mut R,
    ) -> Result<Sample<T>, WarehouseError> {
        Ok(self
            .catalog
            .union_sample(dataset, select, self.p_bound, rng)?)
    }

    /// Uniform sample of the entire data set (all partitions).
    pub fn query_all<R: Rng + ?Sized>(
        &self,
        dataset: DatasetId,
        rng: &mut R,
    ) -> Result<Sample<T>, WarehouseError> {
        self.query_union(dataset, |_| true, rng)
    }
}

impl<T: ValueCodec> SampleWarehouse<T> {
    /// Persist every cataloged partition sample to a disk store.
    pub fn persist_all(&self, store: &DiskStore) -> Result<usize, WarehouseError> {
        let mut written = 0;
        for dataset in self.catalog.datasets() {
            for partition in self.catalog.partitions(dataset)? {
                let key = PartitionKey { dataset, partition };
                let sample = self.catalog.get(key)?;
                store.save(key, &sample)?;
                written += 1;
            }
        }
        Ok(written)
    }

    /// Load all stored partitions of a dataset into the catalog.
    ///
    /// A corrupt entry (bad magic, CRC mismatch, truncation) is moved into
    /// the store's `quarantine/` directory with a `.reason` sidecar and
    /// counted in the report instead of aborting the whole load; I/O
    /// failures and catalog errors other than duplicates remain fatal.
    pub fn load_dataset(
        &self,
        store: &DiskStore,
        dataset: DatasetId,
    ) -> Result<LoadReport, WarehouseError> {
        let _scope = swh_obs::profile::scope_rooted("warehouse/load_dataset").span(Op::Load);
        let mut report = LoadReport::default();
        let mut sampled = 0u64;
        let mut parents = 0u64;
        let mut purge_depth = 0u64;
        let mut fan_in = 0u64;
        for key in store.list(dataset)? {
            match store.load::<T>(key) {
                Ok(sample) => {
                    sampled += sample.size();
                    parents += sample.parent_size();
                    purge_depth = purge_depth.max(lineage::purge_depth(sample.lineage()));
                    fan_in = fan_in.max(lineage::max_merge_fan_in(sample.lineage()));
                    match self.catalog.roll_in(key, sample) {
                        Ok(()) => report.loaded += 1,
                        Err(CatalogError::DuplicatePartition(_)) => report.skipped_duplicates += 1,
                        Err(e) => return Err(e.into()),
                    }
                }
                Err(StoreError::Codec(e)) => {
                    store.quarantine(key, &e.to_string())?;
                    report.quarantined += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        if report.loaded > 0 {
            publish_sample_quality(sampled, parents, purge_depth, fan_in);
        }
        Ok(report)
    }
}

/// Outcome of [`publish_dataset_quality`]: how many stored samples fed the
/// gauges and how many were unreadable (and left untouched on disk).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QualityReport {
    /// Stored samples whose summary fed the gauges.
    pub summarized: usize,
    /// Files whose bytes could not be summarized (corrupt or foreign);
    /// they are skipped, never quarantined — the caller is read-only.
    pub skipped: usize,
}

/// Compute and publish the derived sample-quality gauges for a dataset
/// straight from the stored bytes, without decoding a single typed value:
/// parent and sample sizes come from the codec header, purge depth and
/// merge fan-in from the lineage section. Read-only observers (`swh serve`)
/// use this instead of a typed [`SampleWarehouse::load_dataset`], which
/// would falsely reject — and quarantine — stores of another element type.
/// Unreadable files are skipped and counted, never relocated.
pub fn publish_dataset_quality(
    store: &DiskStore,
    dataset: DatasetId,
) -> Result<QualityReport, WarehouseError> {
    let mut report = QualityReport::default();
    let mut sampled = 0u64;
    let mut parents = 0u64;
    let mut purge_depth = 0u64;
    let mut fan_in = 0u64;
    for key in store.list(dataset)? {
        match store.summary(key) {
            Ok(summary) => {
                report.summarized += 1;
                // Pre-v3 files do not record the realized size; leave them
                // out of the rate ratio so it stays consistent.
                if let Some(total) = summary.total {
                    sampled += total;
                    parents += summary.parent_size;
                }
                purge_depth = purge_depth.max(lineage::purge_depth(&summary.lineage));
                fan_in = fan_in.max(lineage::max_merge_fan_in(&summary.lineage));
            }
            Err(StoreError::Codec(_)) | Err(StoreError::NotFound(_)) => report.skipped += 1,
            Err(e) => return Err(e.into()),
        }
    }
    if report.summarized > 0 {
        publish_sample_quality(sampled, parents, purge_depth, fan_in);
    }
    Ok(report)
}

/// Publish the derived sample-quality gauges computed from loaded samples
/// and their lineage. The effective sampling rate is a ratio, and gauges
/// are integers — it is published in parts per million.
fn publish_sample_quality(sampled: u64, parents: u64, purge_depth: u64, fan_in: u64) {
    let g = swh_obs::global();
    let rate_ppm = if parents > 0 {
        ((sampled as f64 / parents as f64) * 1_000_000.0).round() as i64
    } else {
        0
    };
    g.gauge(
        "swh_sample_effective_rate_ppm",
        "Effective sampling rate of the last loaded dataset, parts per million",
    )
    .set(rate_ppm);
    g.gauge(
        "swh_sample_purge_depth",
        "Deepest lineage purge chain among the last loaded dataset's samples",
    )
    .set(purge_depth as i64);
    g.gauge(
        "swh_sample_merge_fan_in",
        "Largest lineage merge fan-in among the last loaded dataset's samples",
    )
    .set(fan_in as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_rand::seeded_rng;

    fn wh(n_f: u64, alg: Algorithm) -> SampleWarehouse<u64> {
        SampleWarehouse::new(FootprintPolicy::with_value_budget(n_f), alg, 1e-3)
    }

    fn key(seq: u64) -> PartitionKey {
        PartitionKey {
            dataset: DatasetId(1),
            partition: PartitionId::seq(seq),
        }
    }

    #[test]
    fn ingest_and_query_roundtrip_hr() {
        let mut rng = seeded_rng(1);
        let w = wh(64, Algorithm::HybridReservoir);
        for day in 0..7u64 {
            w.ingest_partition(key(day), day * 1000..(day + 1) * 1000, None, &mut rng)
                .unwrap();
        }
        let s = w.query_all(DatasetId(1), &mut rng).unwrap();
        assert_eq!(s.parent_size(), 7000);
        assert_eq!(s.size(), 64);
    }

    #[test]
    fn ingest_hb_requires_expected_size() {
        let mut rng = seeded_rng(2);
        let w = wh(64, Algorithm::HybridBernoulli);
        let err = w
            .ingest_partition(key(0), 0..1000u64, None, &mut rng)
            .unwrap_err();
        assert!(matches!(err, WarehouseError::MissingExpectedSize));
        w.ingest_partition(key(0), 0..1000u64, Some(1000), &mut rng)
            .unwrap();
        let s = w.query_all(DatasetId(1), &mut rng).unwrap();
        assert!(s.size() <= 64);
    }

    #[test]
    fn parallel_ingest_rolls_in_all_partitions() {
        let mut rng = seeded_rng(3);
        let w = wh(32, Algorithm::HybridReservoir);
        let parts: Vec<_> = (0..8u64).map(|p| p * 500..(p + 1) * 500).collect();
        w.ingest_partitions_parallel(DatasetId(1), parts, None, 4, 99, 0)
            .unwrap();
        assert_eq!(w.catalog().len(), 8);
        let s = w.query_all(DatasetId(1), &mut rng).unwrap();
        assert_eq!(s.parent_size(), 4000);
    }

    #[test]
    fn roll_out_removes_from_queries() {
        let mut rng = seeded_rng(4);
        let w = wh(32, Algorithm::HybridReservoir);
        w.ingest_partition(key(0), 0..1000u64, None, &mut rng)
            .unwrap();
        w.ingest_partition(key(1), 1000..2000u64, None, &mut rng)
            .unwrap();
        let out = w.roll_out(key(0)).unwrap();
        assert_eq!(out.parent_size(), 1000);
        let s = w.query_all(DatasetId(1), &mut rng).unwrap();
        assert_eq!(s.parent_size(), 1000);
    }

    #[test]
    fn persist_and_reload() {
        let mut rng = seeded_rng(5);
        let dir = std::env::temp_dir().join(format!("swh-wh-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();

        let w = wh(32, Algorithm::HybridReservoir);
        for day in 0..4u64 {
            w.ingest_partition(key(day), day * 100..(day + 1) * 100, None, &mut rng)
                .unwrap();
        }
        assert_eq!(w.persist_all(&store).unwrap(), 4);

        let w2 = wh(32, Algorithm::HybridReservoir);
        let report = w2.load_dataset(&store, DatasetId(1)).unwrap();
        assert_eq!(report.loaded, 4);
        assert_eq!(report.quarantined, 0);
        // Every partition sample must round-trip exactly.
        for day in 0..4u64 {
            assert_eq!(
                w.catalog().get(key(day)).unwrap(),
                w2.catalog().get(key(day)).unwrap(),
                "partition {day} changed across persistence"
            );
        }
        // Queries against the reloaded warehouse are drawn from the same
        // distribution (merge randomness may consume the RNG differently
        // because hash-map iteration order is not part of the format).
        let b = w2.query_all(DatasetId(1), &mut seeded_rng(7)).unwrap();
        assert_eq!(b.parent_size(), 400);
        assert_eq!(b.size(), 32);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dataset_quarantines_corrupt_entries() {
        let mut rng = seeded_rng(6);
        let dir = std::env::temp_dir().join(format!("swh-wh-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = DiskStore::open(&dir).unwrap();

        let w = wh(32, Algorithm::HybridReservoir);
        for day in 0..4u64 {
            w.ingest_partition(key(day), day * 100..(day + 1) * 100, None, &mut rng)
                .unwrap();
        }
        w.persist_all(&store).unwrap();
        // Corrupt one stored sample (payload bit flip).
        let bad = dir.join("ds1").join("p0_2.swhs");
        let mut bytes = std::fs::read(&bad).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&bad, bytes).unwrap();

        let w2 = wh(32, Algorithm::HybridReservoir);
        let report = w2.load_dataset(&store, DatasetId(1)).unwrap();
        assert_eq!(report.loaded, 3);
        assert_eq!(report.quarantined, 1);
        assert_eq!(w2.catalog().len(), 3);
        // The corrupt file moved aside with its reason.
        assert!(!bad.exists());
        let qfile = dir.join("quarantine").join("ds1").join("p0_2.swhs");
        assert!(qfile.exists());
        let mut reason = qfile.into_os_string();
        reason.push(".reason");
        assert_eq!(
            std::fs::read_to_string(std::path::PathBuf::from(reason)).unwrap(),
            "checksum mismatch"
        );
        // Loading again skips the already-cataloged partitions.
        let again = w2.load_dataset(&store, DatasetId(1)).unwrap();
        assert_eq!(again.loaded, 0);
        assert_eq!(again.skipped_duplicates, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
