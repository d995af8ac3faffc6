//! Disk-backed sample store.
//!
//! Persists encoded samples (see [`crate::codec`]) under a directory, one
//! file per partition key. The layout is
//! `<root>/ds<dataset>/p<stream>_<seq>.swhs`, human-inspectable and cheap
//! to list. Writes go through [`crate::durable::atomic_write`] (unique temp
//! file, fsync, rename, directory fsync) so a crash never leaves a torn
//! sample behind; [`DiskStore::open`] sweeps any crash-orphaned temp files.

use crate::codec::{
    decode_sample, encode_sample_with_events, summary_of_bytes, verify_sample_bytes, CodecError,
    SampleSummary, ValueCodec,
};
use crate::durable;
use crate::ids::{DatasetId, PartitionId, PartitionKey};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use swh_core::lineage::LineageEvent;
use swh_core::sample::Sample;
use swh_obs::journal::EventKind;
use swh_obs::trace::Op;

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The stored bytes failed to decode.
    Codec(CodecError),
    /// No sample stored under that key.
    NotFound(PartitionKey),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Codec(e) => write!(f, "codec error: {e}"),
            StoreError::NotFound(k) => write!(f, "no stored sample for {k}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// A directory of persisted partition samples.
#[derive(Debug, Clone)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `root`, removing any
    /// temp files orphaned by a crash mid-write. Opening must not race
    /// writers on the same root.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        durable::sweep_orphan_tmp(&root)?;
        Ok(Self { root })
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory holding a dataset's partition files (`<root>/ds<N>`). The
    /// lifecycle compactor writes its tombstone intents beside the partition
    /// files, so the layout is part of the store's public contract.
    pub fn dataset_dir(&self, dataset: DatasetId) -> PathBuf {
        self.root.join(format!("ds{}", dataset.0))
    }

    /// Whether a sample file exists under `key` (no decode, no read).
    pub fn contains(&self, key: PartitionKey) -> bool {
        self.file_path(key).exists()
    }

    fn file_path(&self, key: PartitionKey) -> PathBuf {
        self.dataset_dir(key.dataset).join(format!(
            "p{}_{}.swhs",
            key.partition.stream, key.partition.seq
        ))
    }

    /// Persist a sample under `key`, replacing any previous version. The
    /// stored lineage gains a trailing [`LineageEvent::StoreWrite`] (the
    /// in-memory sample is left untouched).
    pub fn save<T: ValueCodec>(
        &self,
        key: PartitionKey,
        sample: &Sample<T>,
    ) -> Result<(), StoreError> {
        let dir = self.dataset_dir(key.dataset);
        fs::create_dir_all(&dir)?;
        let scope = swh_obs::profile::scope_rooted("warehouse/store/save").span(Op::StoreWrite);
        let bytes = encode_sample_with_events(sample, &[LineageEvent::StoreWrite]);
        scope.event(EventKind::StoreWrite, bytes.len() as u64, 0);
        durable::atomic_write(&self.file_path(key), &bytes)?;
        scope.end();
        Ok(())
    }

    /// Load the sample stored under `key`.
    pub fn load<T: ValueCodec>(&self, key: PartitionKey) -> Result<Sample<T>, StoreError> {
        let path = self.file_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(StoreError::NotFound(key)),
            Err(e) => return Err(e.into()),
        };
        Ok(decode_sample(&bytes)?)
    }

    /// Verify the stored bytes under `key` without decoding values:
    /// length, CRC trailer, magic, and version. Type-agnostic, so `fsck`
    /// can check stores regardless of the element type they hold.
    pub fn verify(&self, key: PartitionKey) -> Result<(), StoreError> {
        let path = self.file_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(StoreError::NotFound(key)),
            Err(e) => return Err(e.into()),
        };
        verify_sample_bytes(&bytes)?;
        Ok(())
    }

    /// Read the lineage record stored under `key` without decoding the
    /// typed value payload (the lineage section sits behind a byte-length
    /// footer, so this works regardless of the element type). `fsck` and
    /// `swh serve` use this to inspect samples they cannot type.
    pub fn lineage(&self, key: PartitionKey) -> Result<Vec<LineageEvent>, StoreError> {
        let path = self.file_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(StoreError::NotFound(key)),
            Err(e) => return Err(e.into()),
        };
        Ok(crate::codec::lineage_of_bytes(&bytes)?)
    }

    /// Read the type-agnostic [`SampleSummary`] stored under `key`: header
    /// fields shared by every element type plus the lineage section, never
    /// a typed value. `swh serve` derives the sample-quality gauges from
    /// this, so it works against stores it cannot type.
    pub fn summary(&self, key: PartitionKey) -> Result<SampleSummary, StoreError> {
        let path = self.file_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(StoreError::NotFound(key)),
            Err(e) => return Err(e.into()),
        };
        Ok(summary_of_bytes(&bytes)?)
    }

    /// Move the (presumed corrupt) file under `key` into the store's
    /// `quarantine/` subdirectory with a `.reason` sidecar, instead of
    /// deleting it — the bytes stay available for post-mortems.
    pub fn quarantine(&self, key: PartitionKey, reason: &str) -> Result<(), StoreError> {
        durable::quarantine_file(&self.root, &self.file_path(key), reason)?;
        Ok(())
    }

    /// Delete the sample stored under `key` (roll-out). Returns whether a
    /// file was removed.
    pub fn remove(&self, key: PartitionKey) -> Result<bool, StoreError> {
        match fs::remove_file(self.file_path(key)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// List all partition keys stored for a dataset, in id order.
    pub fn list(&self, dataset: DatasetId) -> Result<Vec<PartitionKey>, StoreError> {
        let dir = self.dataset_dir(dataset);
        let mut keys = Vec::new();
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(keys),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name.strip_suffix(".swhs") else {
                continue;
            };
            let Some(body) = stem.strip_prefix('p') else {
                continue;
            };
            let Some((stream, seq)) = body.split_once('_') else {
                continue;
            };
            if let (Ok(stream), Ok(seq)) = (stream.parse(), seq.parse()) {
                keys.push(PartitionKey {
                    dataset,
                    partition: PartitionId { stream, seq },
                });
            }
        }
        keys.sort();
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_core::footprint::FootprintPolicy;
    use swh_core::hybrid_reservoir::HybridReservoir;
    use swh_core::sampler::Sampler;
    use swh_rand::seeded_rng;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swh-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

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
    fn save_load_roundtrip() {
        let mut rng = seeded_rng(1);
        let store = DiskStore::open(tmp_root("roundtrip")).unwrap();
        let s = sample(0..5000, &mut rng);
        store.save(key(1, 0), &s).unwrap();
        let back: Sample<u64> = store.load(key(1, 0)).unwrap();
        assert_eq!(back, s);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn load_missing_is_not_found() {
        let store = DiskStore::open(tmp_root("missing")).unwrap();
        assert!(matches!(
            store.load::<u64>(key(1, 0)),
            Err(StoreError::NotFound(_))
        ));
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn list_returns_sorted_keys() {
        let mut rng = seeded_rng(2);
        let store = DiskStore::open(tmp_root("list")).unwrap();
        for seq in [5u64, 1, 3] {
            store.save(key(2, seq), &sample(0..100, &mut rng)).unwrap();
        }
        let keys = store.list(DatasetId(2)).unwrap();
        let seqs: Vec<u64> = keys.iter().map(|k| k.partition.seq).collect();
        assert_eq!(seqs, vec![1, 3, 5]);
        // Unknown dataset lists empty.
        assert!(store.list(DatasetId(99)).unwrap().is_empty());
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn remove_rolls_out() {
        let mut rng = seeded_rng(3);
        let store = DiskStore::open(tmp_root("remove")).unwrap();
        store.save(key(1, 0), &sample(0..100, &mut rng)).unwrap();
        assert!(store.remove(key(1, 0)).unwrap());
        assert!(!store.remove(key(1, 0)).unwrap());
        assert!(matches!(
            store.load::<u64>(key(1, 0)),
            Err(StoreError::NotFound(_))
        ));
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut rng = seeded_rng(4);
        let store = DiskStore::open(tmp_root("overwrite")).unwrap();
        let a = sample(0..100, &mut rng);
        let b = sample(100..300, &mut rng);
        store.save(key(1, 0), &a).unwrap();
        store.save(key(1, 0), &b).unwrap();
        let got: Sample<u64> = store.load(key(1, 0)).unwrap();
        assert_eq!(got, b);
        fs::remove_dir_all(store.root()).unwrap();
    }

    /// The headline crash matrix: for every injected crash point, reopening
    /// the store yields the previous or the new sample — never an error,
    /// never a torn read — and recovery leaves zero `.tmp` files behind.
    #[test]
    fn crash_matrix_previous_or_new_never_torn() {
        use crate::durable::{count_orphan_tmp, fault, CrashPoint};
        let mut rng = seeded_rng(5);
        let root = tmp_root("crash-matrix");
        let old = sample(0..1000, &mut rng);
        let new = sample(1000..3000, &mut rng);
        let matrix = [
            (CrashPoint::AfterTempCreate, false),
            (CrashPoint::AfterPartialPayload, false),
            (CrashPoint::AfterPayload, false),
            (CrashPoint::BeforeRename, false),
            (CrashPoint::AfterRename, true),
            (CrashPoint::AfterDirSync, true),
        ];
        for (point, expect_new) in matrix {
            let store = DiskStore::open(&root).unwrap();
            store.save(key(1, 0), &old).unwrap();
            fault::arm(point);
            assert!(store.save(key(1, 0), &new).is_err(), "{point:?}");
            // Simulated restart: reopen sweeps orphans, then read back.
            let store = DiskStore::open(&root).unwrap();
            let got: Sample<u64> = store.load(key(1, 0)).unwrap();
            let expect = if expect_new { &new } else { &old };
            assert_eq!(&got, expect, "torn or wrong sample after {point:?}");
            assert_eq!(
                count_orphan_tmp(&root).unwrap(),
                0,
                "orphan tmp left after recovery from {point:?}"
            );
        }
        fault::disarm();
        fs::remove_dir_all(&root).unwrap();
    }

    /// A crash before the *first* save of a key must leave the key absent
    /// (NotFound), not a torn file.
    #[test]
    fn crash_on_first_save_leaves_key_absent() {
        use crate::durable::{fault, CrashPoint};
        let mut rng = seeded_rng(6);
        let root = tmp_root("crash-first");
        let store = DiskStore::open(&root).unwrap();
        fault::arm(CrashPoint::AfterPartialPayload);
        assert!(store.save(key(1, 0), &sample(0..500, &mut rng)).is_err());
        let store = DiskStore::open(&root).unwrap();
        assert!(matches!(
            store.load::<u64>(key(1, 0)),
            Err(StoreError::NotFound(_))
        ));
        assert_eq!(crate::durable::count_orphan_tmp(&root).unwrap(), 0);
        fault::disarm();
        fs::remove_dir_all(&root).unwrap();
    }

    /// Concurrent saves to the same key no longer tear each other's temp
    /// file: every save succeeds and the survivor is one of the samples.
    #[test]
    fn concurrent_saves_to_one_key_never_tear() {
        let root = tmp_root("concurrent-key");
        let store = DiskStore::open(&root).unwrap();
        let samples: Vec<Sample<u64>> = (0..4u64)
            .map(|i| {
                let mut rng = seeded_rng(100 + i);
                sample(i * 1000..(i + 1) * 1000, &mut rng)
            })
            .collect();
        std::thread::scope(|scope| {
            for s in &samples {
                let store = store.clone();
                scope.spawn(move || {
                    for _ in 0..25 {
                        store.save(key(7, 0), s).unwrap();
                    }
                });
            }
        });
        let got: Sample<u64> = store.load(key(7, 0)).unwrap();
        assert!(samples.contains(&got), "torn sample survived");
        assert_eq!(crate::durable::count_orphan_tmp(&root).unwrap(), 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn verify_and_quarantine_corrupt_entry() {
        let mut rng = seeded_rng(7);
        let root = tmp_root("verify-quarantine");
        let store = DiskStore::open(&root).unwrap();
        store.save(key(3, 1), &sample(0..200, &mut rng)).unwrap();
        store.verify(key(3, 1)).unwrap();
        // Flip a payload byte: verify reports the checksum mismatch.
        let path = root.join("ds3").join("p0_1.swhs");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, bytes).unwrap();
        let err = store.verify(key(3, 1)).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Codec(CodecError::ChecksumMismatch)
        ));
        store.quarantine(key(3, 1), "checksum mismatch").unwrap();
        assert!(!path.exists());
        let qfile = root.join("quarantine").join("ds3").join("p0_1.swhs");
        assert!(qfile.exists());
        let mut reason = qfile.into_os_string();
        reason.push(".reason");
        assert_eq!(
            fs::read_to_string(PathBuf::from(reason)).unwrap(),
            "checksum mismatch"
        );
        // The quarantined entry no longer lists.
        assert!(store.list(DatasetId(3)).unwrap().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }
}
