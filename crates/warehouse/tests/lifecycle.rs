//! Integration contract of the partition lifecycle: a compacted-then-
//! unioned span is distributionally identical to the leaf union (uniform
//! inclusion, chi-square tested), the no-compaction path is byte-identical
//! to a plain catalog union, the merged-union cache never serves a stale
//! result under concurrent roll-ins, retention composes with compaction,
//! and (with `--features failpoints`) a crash at every step of the
//! compaction write protocol leaves a recoverable, fsck-clean store.

use std::sync::Arc;
use swh_core::footprint::FootprintPolicy;
use swh_core::hybrid_reservoir::HybridReservoir;
use swh_core::sampler::Sampler;
use swh_rand::seeded_rng;
use swh_rand::stats::{chi_square_p_value, chi_square_statistic};
use swh_warehouse::catalog::Catalog;
use swh_warehouse::ids::{DatasetId, PartitionId, PartitionKey};
use swh_warehouse::lifecycle::{LifecycleManager, LifecyclePolicy, UnionCache};

const DS: DatasetId = DatasetId(1);

fn key(seq: u64) -> PartitionKey {
    PartitionKey {
        dataset: DS,
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

/// `parts` hot partitions of `per_part` consecutive values each, sampled
/// at reservoir budget `n_f`, rolled into a fresh catalog.
fn seeded_catalog(
    parts: u64,
    per_part: u64,
    n_f: u64,
    rng: &mut rand::rngs::SmallRng,
) -> Arc<Catalog<u64>> {
    let catalog = Arc::new(Catalog::new());
    for seq in 0..parts {
        let lo = seq * per_part;
        let sample = HybridReservoir::new(FootprintPolicy::with_value_budget(n_f))
            .sample_batch(lo..lo + per_part, rng);
        catalog.roll_in(key(seq), sample).unwrap();
    }
    catalog
}

/// The headline distributional property: rolling eight hot partitions
/// into warm and cold tiers and unioning the roll-up must leave every
/// element of the underlying span equally likely to appear — the same
/// uniformity guarantee the flat leaf union carries. Chi-square over the
/// whole domain across repeated independently-seeded trials.
#[test]
fn compacted_union_is_distributionally_uniform() {
    const PARTS: u64 = 8;
    const PER_PART: u64 = 50;
    const DOMAIN: usize = (PARTS * PER_PART) as usize;
    const TRIALS: u64 = 2_000;

    let mut incl = vec![0u64; DOMAIN];
    let mut drawn = 0u64;
    for trial in 0..TRIALS {
        let mut rng = seeded_rng(0xA11CE + trial);
        let catalog = seeded_catalog(PARTS, PER_PART, 16, &mut rng);
        let manager = LifecycleManager::new(Arc::clone(&catalog), None, 1e-3);
        manager.set_policy(DS, policy(4, 2));
        let report = manager.sweep(&mut rng).unwrap();
        assert_eq!(report.warm_built, 2, "trial {trial}");
        assert_eq!(report.cold_built, 1, "trial {trial}");
        // Only the single cold roll-up remains; the union reads it alone.
        assert_eq!(catalog.partitions(DS).unwrap().len(), 1);
        let merged = catalog.union_sample(DS, |_| true, 1e-3, &mut rng).unwrap();
        assert_eq!(merged.parent_size(), PARTS * PER_PART, "trial {trial}");
        for (v, c) in merged.histogram().iter() {
            assert_eq!(c, 1, "distinct inputs stay distinct");
            incl[*v as usize] += 1;
            drawn += 1;
        }
    }
    let expect = drawn as f64 / DOMAIN as f64;
    let exp = vec![expect; DOMAIN];
    let stat = chi_square_statistic(&incl, &exp);
    let pv = chi_square_p_value(stat, (DOMAIN - 1) as f64);
    assert!(
        pv > 1e-4,
        "compacted union not uniform: chi2={stat:.1} p={pv:.2e}"
    );
}

/// When no window is complete, a sweep must be a perfect no-op: the union
/// drawn afterwards is byte-identical to one drawn from an untouched
/// catalog with the same RNG seed.
#[test]
fn no_compaction_path_is_byte_identical() {
    let mut build_rng = seeded_rng(0xBEEF);
    let plain = seeded_catalog(8, 50, 16, &mut build_rng);
    let mut build_rng = seeded_rng(0xBEEF);
    let swept = seeded_catalog(8, 50, 16, &mut build_rng);

    let manager = LifecycleManager::new(Arc::clone(&swept), None, 1e-3);
    // Fan-in larger than the partition count: no complete window exists.
    manager.set_policy(DS, policy(16, 16));
    let mut sweep_rng = seeded_rng(1);
    let report = manager.sweep(&mut sweep_rng).unwrap();
    assert_eq!(report.warm_built + report.cold_built + report.expired, 0);

    let mut rng_a = seeded_rng(0x5eed);
    let mut rng_b = seeded_rng(0x5eed);
    let a = plain.union_sample(DS, |_| true, 1e-3, &mut rng_a).unwrap();
    let b = swept.union_sample(DS, |_| true, 1e-3, &mut rng_b).unwrap();
    assert_eq!(a, b, "idle sweep must not perturb the union");
}

/// The merged-union cache under a concurrent writer: a reader unions in a
/// loop while another thread rolls partitions in one by one. Every union
/// the reader sees must be consistent with *some* prefix of the roll-ins
/// (parent size is a multiple of the per-partition row count), and once
/// the writer joins, the next union must see all partitions — a stale
/// cache hit would pin the old parent size.
#[test]
fn union_cache_is_never_stale_under_concurrent_roll_in() {
    const PER_PART: u64 = 40;
    const TOTAL: u64 = 12;

    let mut rng = seeded_rng(0xCAC4E);
    let catalog = seeded_catalog(2, PER_PART, 16, &mut rng);
    let cache = Arc::new(UnionCache::with_registry(
        &swh_obs::Registry::new(),
        1 << 20,
    ));
    catalog.enable_union_cache(Arc::clone(&cache));

    let writer_catalog = Arc::clone(&catalog);
    let writer = std::thread::spawn(move || {
        let mut rng = seeded_rng(0xF00D);
        for seq in 2..TOTAL {
            let lo = seq * PER_PART;
            let sample = HybridReservoir::new(FootprintPolicy::with_value_budget(16))
                .sample_batch(lo..lo + PER_PART, &mut rng);
            writer_catalog.roll_in(key(seq), sample).unwrap();
            std::thread::yield_now();
        }
    });

    let mut reader_rng = seeded_rng(0xFEED);
    loop {
        let merged = catalog
            .union_sample(DS, |_| true, 1e-3, &mut reader_rng)
            .unwrap();
        assert_eq!(
            merged.parent_size() % PER_PART,
            0,
            "union must cover a whole prefix of roll-ins"
        );
        if merged.parent_size() == TOTAL * PER_PART {
            break;
        }
        std::thread::yield_now();
    }
    writer.join().unwrap();

    // All roll-ins visible; a repeat union is now a cache hit and still
    // reports the full parent population.
    let before = cache.stats();
    let merged = catalog
        .union_sample(DS, |_| true, 1e-3, &mut reader_rng)
        .unwrap();
    let merged2 = catalog
        .union_sample(DS, |_| true, 1e-3, &mut reader_rng)
        .unwrap();
    let after = cache.stats();
    assert_eq!(merged.parent_size(), TOTAL * PER_PART);
    assert_eq!(merged2, merged, "cache hit must be byte-identical");
    assert!(after.1 > before.1, "repeat union must hit the cache");
}

/// Retention composes with compaction in one sweep: hot partitions roll
/// into warm spans, and spans whose age exceeds the policy expire — while
/// recent data keeps answering unions.
/// Rows in minute partition `seq` of the race test: uneven, so a union
/// that drops or double-counts any partition shows in its parent size.
fn minute_rows(seq: u64) -> u64 {
    5 + seq % 7
}

/// A union racing the compactor must cover exactly its range. A writer
/// rolls in minutes and sweeps compaction after every hour (4 minutes;
/// 12-minute days) while a reader unions whole-day spans near the newest
/// rolled-in day, where compaction is busiest. Day-aligned spans are
/// aligned in every compaction state, so each union must succeed and its
/// parent size must equal the raw rows of its range — however the
/// partitions it reads were tiered at that instant.
#[test]
fn union_seq_range_covers_its_range_while_compaction_runs() {
    use rand::Rng;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const DAY: u64 = 12;
    const DAYS: u64 = 150;
    const MIN_UNIONS: usize = 1_000;

    /// Clears the writing flag however the writer ends, so a writer that
    /// panics fails the test instead of leaving the reader waiting.
    struct Done<'a>(&'a AtomicBool);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.store(false, Ordering::Release);
        }
    }

    let catalog: Arc<Catalog<u64>> = Arc::new(Catalog::new());
    let manager = LifecycleManager::new(Arc::clone(&catalog), None, 1e-3);
    manager.set_policy(DS, policy(4, 3));
    let published = AtomicU64::new(0);
    let writing = AtomicBool::new(true);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _done = Done(&writing);
            let mut rng = seeded_rng(0xACE);
            for seq in 0..DAYS * DAY {
                let lo = seq * 100;
                let sample = HybridReservoir::new(FootprintPolicy::with_value_budget(8))
                    .sample_batch(lo..lo + minute_rows(seq), &mut rng);
                catalog.roll_in(key(seq), sample).unwrap();
                published.store(seq + 1, Ordering::Release);
                if (seq + 1) % 4 == 0 {
                    manager.sweep(&mut rng).unwrap();
                }
            }
        });
        let mut rng = seeded_rng(0xBEE);
        let mut unions = 0;
        loop {
            let writer_done = !writing.load(Ordering::Acquire);
            if writer_done && unions >= MIN_UNIONS {
                break;
            }
            let days = published.load(Ordering::Acquire) / DAY;
            if days == 0 {
                assert!(!writer_done, "the writer stopped before a whole day");
                std::thread::yield_now();
                continue;
            }
            let last = rng.random_range(days.saturating_sub(2)..days);
            let first = rng.random_range(last.saturating_sub(2)..=last);
            let (lo, hi) = (first * DAY, (last + 1) * DAY - 1);
            let rows: u64 = (lo..=hi).map(minute_rows).sum();
            match manager.union_seq_range(DS, 0, lo..=hi, &mut rng) {
                Ok(s) => assert_eq!(s.parent_size(), rows, "union {lo}..={hi}"),
                Err(e) => panic!("union {lo}..={hi} failed: {e}"),
            }
            unions += 1;
        }
    });
}

#[test]
fn retention_and_compaction_compose_in_one_sweep() {
    let mut rng = seeded_rng(0xDEAD);
    let catalog = seeded_catalog(8, 50, 16, &mut rng);
    let manager = LifecycleManager::new(Arc::clone(&catalog), None, 1e-3);
    manager.set_policy(
        DS,
        LifecyclePolicy {
            warm_fan_in: 2,
            cold_fan_in: 16,
            max_age: Some(3),
            footprint_budget: None,
        },
    );
    let report = manager.sweep(&mut rng).unwrap();
    assert_eq!(report.warm_built, 4, "8 hot -> 4 warm");
    assert!(report.expired > 0, "old warm spans must expire");
    let remaining = catalog.partitions(DS).unwrap();
    assert!(!remaining.is_empty(), "recent spans must survive");
    let merged = catalog.union_sample(DS, |_| true, 1e-3, &mut rng).unwrap();
    assert!(merged.parent_size() < 400, "expired rows left the union");
    assert!(merged.parent_size() >= 100, "recent rows still unioned");
}

/// Crash matrix over the compaction write protocol (needs
/// `--features failpoints`): kill the first durable write of a sweep at
/// every [`CrashPoint`], then reopen the store — recovery must leave all
/// hot inputs authoritative, no tombstones, and a working union. The
/// post-output crash windows (output durable, inputs not yet retired) are
/// driven directly through the protocol's public pieces.
#[cfg(feature = "failpoints")]
mod crash_matrix {
    use super::*;
    use std::path::PathBuf;
    use swh_core::lineage::last_merge_fan_in;
    use swh_core::merge::merge_union;
    use swh_warehouse::durable::{fault, CrashPoint};
    use swh_warehouse::lifecycle::{list_tombs, recover_store, write_tomb, TombRecord};
    use swh_warehouse::store::DiskStore;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swh-lifecycle-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Rebuild a catalog from whatever the store holds and union it.
    fn reopen_and_union(root: &PathBuf, expect_rows: u64) {
        let store = DiskStore::open(root).unwrap();
        recover_store(&store).unwrap();
        let catalog: Catalog<u64> = Catalog::new();
        for k in store.list(DS).unwrap() {
            catalog.roll_in(k, store.load(k).unwrap()).unwrap();
        }
        let mut rng = seeded_rng(3);
        let merged = catalog.union_sample(DS, |_| true, 1e-3, &mut rng).unwrap();
        assert_eq!(merged.parent_size(), expect_rows);
    }

    #[test]
    fn crash_during_tombstone_write_leaves_hot_inputs_authoritative() {
        for point in [
            CrashPoint::AfterTempCreate,
            CrashPoint::AfterPartialPayload,
            CrashPoint::AfterPayload,
            CrashPoint::BeforeRename,
            CrashPoint::AfterRename,
            CrashPoint::AfterDirSync,
        ] {
            let root = tmp_root(&format!("tomb-{point:?}"));
            let store = DiskStore::open(&root).unwrap();
            let mut rng = seeded_rng(7);
            let catalog = seeded_catalog(4, 50, 16, &mut rng);
            for seq in 0..4 {
                store
                    .save(key(seq), &catalog.get(key(seq)).unwrap())
                    .unwrap();
            }
            let manager = LifecycleManager::new(Arc::clone(&catalog), Some(store.clone()), 1e-3);
            manager.set_policy(DS, policy(2, 2));
            fault::arm(point);
            let err = manager.sweep(&mut rng);
            fault::disarm();
            assert!(err.is_err(), "{point:?}: armed sweep must fail");

            // The catalog was never touched — the failed protocol ran
            // strictly before any catalog mutation.
            assert_eq!(catalog.partitions(DS).unwrap().len(), 4, "{point:?}");

            // Reopen: recovery sweeps whatever the crash left, the four
            // hot inputs stay the source of truth, the union still works.
            let reopened = DiskStore::open(&root).unwrap();
            recover_store(&reopened).unwrap();
            assert_eq!(list_tombs(&reopened, DS).unwrap().len(), 0, "{point:?}");
            assert_eq!(reopened.list(DS).unwrap().len(), 4, "{point:?}");
            reopen_and_union(&root, 200);
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn crash_after_output_durable_retires_inputs_on_recovery() {
        let root = tmp_root("post-output");
        let store = DiskStore::open(&root).unwrap();
        let mut rng = seeded_rng(11);
        let catalog = seeded_catalog(4, 50, 16, &mut rng);
        for seq in 0..4 {
            store
                .save(key(seq), &catalog.get(key(seq)).unwrap())
                .unwrap();
        }
        // Run the protocol by hand up to the crash: tombstone durable,
        // merged output durable, inputs 0 and 1 NOT yet removed.
        let warm = PartitionId {
            stream: swh_warehouse::WARM_STREAM_BIT,
            seq: 0,
        };
        let inputs = vec![PartitionId::seq(0), PartitionId::seq(1)];
        write_tomb(
            &store,
            &TombRecord {
                dataset: DS,
                output: warm,
                inputs: inputs.clone(),
            },
        )
        .unwrap();
        let merged = merge_union(
            vec![
                std::borrow::Cow::Owned(catalog.get(key(0)).unwrap()),
                std::borrow::Cow::Owned(catalog.get(key(1)).unwrap()),
            ],
            1e-3,
            &mut rng,
        )
        .unwrap();
        store
            .save(
                PartitionKey {
                    dataset: DS,
                    partition: warm,
                },
                &merged,
            )
            .unwrap();

        // Reopen: recovery must finish the retirement.
        let reopened = DiskStore::open(&root).unwrap();
        let report = recover_store(&reopened).unwrap();
        assert_eq!(report.retired_inputs, 2);
        assert_eq!(report.validated, 1);
        assert_eq!(report.orphaned_tombs, 0);
        // Idempotent.
        let again = recover_store(&reopened).unwrap();
        assert_eq!(again.retired_inputs, 0);

        // The tombstone survives for fsck and matches the output lineage.
        let tombs = list_tombs(&reopened, DS).unwrap();
        assert_eq!(tombs.len(), 1);
        let lineage = reopened
            .lineage(PartitionKey {
                dataset: DS,
                partition: warm,
            })
            .unwrap();
        assert_eq!(
            last_merge_fan_in(&lineage),
            Some(tombs[0].inputs.len() as u64)
        );

        // warm(0..2) + hot 2 + hot 3 answer the full span.
        reopen_and_union(&root, 200);
        std::fs::remove_dir_all(&root).ok();
    }
}
