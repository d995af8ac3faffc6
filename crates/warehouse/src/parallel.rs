//! Parallel partition sampling on scoped worker threads.
//!
//! "We would like to be able to parallelize the sampling of the initial
//! batch to minimize ingestion time" (§2). Partitions are distributed over
//! a bounded pool of worker threads; each worker samples its partitions
//! independently with its own deterministic RNG, and results are returned
//! in partition order so downstream merges are reproducible.
//!
//! Every run publishes worker utilization into the process-wide `swh-obs`
//! registry: per-worker busy time (`swh_parallel_worker_busy_ns`), the
//! number of partitions drained from the shared queue, total elements
//! observed, and the purge work reported by each partition's sampler.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use swh_core::sample::Sample;
use swh_core::sampler::Sampler;
use swh_core::stats::SamplerStats;
use swh_core::value::SampleValue;
use swh_obs::trace::Op;
use swh_obs::Registry;
use swh_rand::seeded_rng;

/// Workers buffer their partition streams into chunks of this size and feed
/// them to [`Sampler::observe_batch`]; byte-identity of batches makes the
/// chunk size invisible in the results.
const WORKER_CHUNK: usize = 4096;

/// Sample many partitions concurrently, publishing worker metrics to the
/// global [`swh_obs`] registry.
///
/// * `partitions` — one value-iterator per partition (consumed).
/// * `make_sampler` — builds a fresh sampler for a partition, given the
///   partition index; called on the worker thread.
/// * `threads` — number of worker threads (capped at the partition count).
/// * `seed` — base RNG seed; partition `i` samples with seed `seed + i`.
///
/// Returns the finalized samples in partition order. Results depend only on
/// `(partitions, seed)` — never on `threads` — because every partition gets
/// its own RNG stream.
///
/// # Panics
/// Panics if `threads == 0` or a worker panics.
pub fn sample_partitions_parallel<T, I, S, F>(
    partitions: Vec<I>,
    make_sampler: F,
    threads: usize,
    seed: u64,
) -> Vec<Sample<T>>
where
    T: SampleValue,
    I: Iterator<Item = T> + Send,
    S: Sampler<T>,
    F: Fn(usize) -> S + Sync,
{
    sample_partitions_parallel_in(swh_obs::global(), partitions, make_sampler, threads, seed)
}

/// [`sample_partitions_parallel`] against an explicit metrics registry
/// (tests use a private registry to assert exact counts).
// swh-analyze: hot -- the worker loop inside is the parallel-ingest inner loop
pub fn sample_partitions_parallel_in<T, I, S, F>(
    registry: &Registry,
    partitions: Vec<I>,
    make_sampler: F,
    threads: usize,
    seed: u64,
) -> Vec<Sample<T>>
where
    T: SampleValue,
    I: Iterator<Item = T> + Send,
    S: Sampler<T>,
    F: Fn(usize) -> S + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let n = partitions.len();
    if n == 0 {
        // swh-analyze: allow(blocking-in-hot-path) -- empty-input early exit; Vec::new does not allocate
        return Vec::new();
    }
    let _scope = swh_obs::profile::scope_rooted("warehouse/parallel_ingest").span(Op::Ingest);
    let threads = threads.min(n);
    let worker_busy = registry.histogram(
        "swh_parallel_worker_busy_ns",
        "Busy wall-clock nanoseconds per parallel-ingest worker",
    );
    let partitions_total = registry.counter(
        "swh_parallel_partitions_total",
        "Partitions drained from the parallel-ingest work queue",
    );
    let elements_total = registry.counter(
        "swh_parallel_elements_total",
        "Data elements observed by parallel-ingest workers",
    );
    let purges_total = registry.counter(
        "swh_parallel_purges_total",
        "Sampler purge invocations during parallel ingest",
    );
    let purge_ns_total = registry.counter(
        "swh_parallel_purge_ns_total",
        "Nanoseconds spent inside sampler purges during parallel ingest",
    );
    // Work distribution: an atomic cursor claims partition indices in
    // arrival (FIFO) order — no queue lock, and scheduling matches the
    // order partitions were handed in, unlike the old `Vec::pop` (LIFO)
    // drain. Each slot starts Pending, is Taken by exactly one worker (the
    // cursor hands out each index once), and ends Done; the per-slot mutex
    // is only ever touched by that worker and the collection loop after
    // the scope joins, so it is uncontended — it exists to hand the
    // iterator/result across threads without `unsafe`.
    let slots: Vec<Mutex<Slot<T, I>>> = partitions
        .into_iter()
        .map(|p| Mutex::new(Slot::Pending(p)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let make_sampler = &make_sampler;
    let slots = &slots;
    let cursor = &cursor;
    let worker_busy = &worker_busy;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let partitions_total = partitions_total.clone();
            scope.spawn(move || {
                // Worker-level scope, also the worker's busy time: per-
                // partition work nests under it (`parallel/worker/partition`),
                // so the worker node's *self* time is exactly the claim/queue
                // overhead — the time this worker spent not sampling.
                let _worker =
                    swh_obs::profile::scope_rooted("parallel/worker").histogram(worker_busy);
                let mut drained = 0u64;
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= slots.len() {
                        break;
                    }
                    // Plain data behind the lock: a poisoned mutex (some
                    // worker panicked mid-store) leaves it fully usable, so
                    // recover the guard instead of propagating the panic.
                    let taken = std::mem::replace(
                        // swh-analyze: allow(blocking-in-hot-path) -- uncontended by construction: the cursor hands this slot to exactly one worker
                        &mut *slots[idx].lock().unwrap_or_else(PoisonError::into_inner),
                        Slot::Taken,
                    );
                    let Slot::Pending(stream) = taken else {
                        // The cursor hands out each index exactly once; a
                        // re-claimed slot is a scheduler bug worth a crash.
                        unreachable!("partition {idx} claimed twice");
                    };
                    drained += 1;
                    let _part = swh_obs::profile::scope("partition");
                    let mut rng = seeded_rng(seed.wrapping_add(idx as u64));
                    let mut sampler = make_sampler(idx);
                    // Buffer the stream into chunks and drain each with one
                    // observe_batch call, hitting the samplers' phase-aware
                    // bulk paths. The Sampler contract guarantees batches
                    // are byte-identical to element-wise observation for
                    // any chunking, so results are unchanged.
                    let mut stream = stream;
                    // swh-analyze: allow(blocking-in-hot-path) -- one buffer per partition, reused across every chunk
                    let mut buf: Vec<T> = Vec::with_capacity(WORKER_CHUNK);
                    loop {
                        buf.clear();
                        buf.extend(stream.by_ref().take(WORKER_CHUNK));
                        if buf.is_empty() {
                            break;
                        }
                        sampler.observe_batch(&buf, &mut rng);
                    }
                    let (sample, stats) = sampler.finalize_with_stats(&mut rng);
                    // swh-analyze: allow(blocking-in-hot-path) -- uncontended result handoff, once per partition
                    *slots[idx].lock().unwrap_or_else(PoisonError::into_inner) =
                        Slot::Done(sample, stats);
                }
                partitions_total.add(drained);
            });
        }
    });
    let samples: Vec<Sample<T>> = slots
        .iter()
        .map(|slot| {
            let done = std::mem::replace(
                // swh-analyze: allow(blocking-in-hot-path) -- post-join collection: all workers have exited
                &mut *slot.lock().unwrap_or_else(PoisonError::into_inner),
                Slot::Taken,
            );
            let Slot::Done(sample, stats) = done else {
                // Scope join guarantees every slot was filled; an unfinished
                // slot is a worker bug worth a crash.
                unreachable!("every partition produced a sample");
            };
            elements_total.add(stats.observed());
            purges_total.add(stats.purges);
            purge_ns_total.add(stats.purge_ns);
            sample
        })
        .collect();
    samples
}

/// Lifecycle of one partition in the parallel work array: waiting with its
/// input iterator, claimed by a worker, or finished with its sample.
enum Slot<T: SampleValue, I> {
    Pending(I),
    Taken,
    Done(Sample<T>, SamplerStats),
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_core::footprint::FootprintPolicy;
    use swh_core::hybrid_reservoir::HybridReservoir;
    use swh_core::sample::SampleKind;

    fn policy(n_f: u64) -> FootprintPolicy {
        FootprintPolicy::with_value_budget(n_f)
    }

    #[test]
    fn parallel_matches_partition_structure() {
        let parts: Vec<_> = (0..16u64).map(|p| p * 1000..(p + 1) * 1000).collect();
        let samples =
            sample_partitions_parallel(parts, |_| HybridReservoir::<u64>::new(policy(64)), 4, 42);
        assert_eq!(samples.len(), 16);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.parent_size(), 1000, "partition {i}");
            assert_eq!(s.size(), 64);
            assert_eq!(s.kind(), SampleKind::Reservoir);
            // Values must come from the right slice.
            for (v, _) in s.histogram().iter() {
                let lo = i as u64 * 1000;
                assert!((lo..lo + 1000).contains(v));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let make =
            || -> Vec<std::ops::Range<u64>> { (0..8u64).map(|p| p * 100..(p + 1) * 100).collect() };
        let a =
            sample_partitions_parallel(make(), |_| HybridReservoir::<u64>::new(policy(16)), 4, 7);
        let b = sample_partitions_parallel(
            make(),
            |_| HybridReservoir::<u64>::new(policy(16)),
            2, // different thread count must not change results
            7,
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn chunked_workers_match_element_wise_sampling() {
        // The worker loop buffers streams into observe_batch chunks; the
        // Sampler byte-identity contract says that must not change any
        // sample. Check against a serial element-wise reference that uses
        // the same per-partition RNG streams.
        let seed = 99u64;
        let parts: Vec<_> = (0..6u64).map(|p| p * 9_000..(p + 1) * 9_000).collect();
        let expected: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(i, range)| {
                let mut rng = seeded_rng(seed.wrapping_add(i as u64));
                let mut s = HybridReservoir::<u64>::new(policy(64));
                for v in range.clone() {
                    s.observe(v, &mut rng);
                }
                s.finalize(&mut rng)
            })
            .collect();
        let got =
            sample_partitions_parallel(parts, |_| HybridReservoir::<u64>::new(policy(64)), 3, seed);
        assert_eq!(got, expected);
    }

    #[test]
    fn more_threads_than_partitions() {
        let parts: Vec<_> = (0..2u64).map(|p| p * 10..(p + 1) * 10).collect();
        let samples =
            sample_partitions_parallel(parts, |_| HybridReservoir::<u64>::new(policy(16)), 64, 1);
        assert_eq!(samples.len(), 2);
    }

    #[test]
    fn workers_claim_partitions_in_arrival_order() {
        // With one worker the claim order is fully observable: the cursor
        // must hand out partitions first-to-last (the old `Vec::pop` drain
        // claimed them last-to-first).
        let order = Mutex::new(Vec::new());
        let parts: Vec<_> = (0..6u64).map(|p| p * 10..(p + 1) * 10).collect();
        let samples = sample_partitions_parallel(
            parts,
            |idx| {
                order
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(idx);
                HybridReservoir::<u64>::new(policy(16))
            },
            1,
            5,
        );
        assert_eq!(samples.len(), 6);
        assert_eq!(
            *order.lock().unwrap_or_else(PoisonError::into_inner),
            vec![0, 1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn empty_partition_list() {
        let samples = sample_partitions_parallel(
            Vec::<std::ops::Range<u64>>::new(),
            |_| HybridReservoir::<u64>::new(policy(16)),
            4,
            1,
        );
        assert!(samples.is_empty());
    }

    #[test]
    fn worker_metrics_account_for_every_partition_and_element() {
        let registry = Registry::new();
        let parts: Vec<_> = (0..10u64).map(|p| p * 500..(p + 1) * 500).collect();
        let samples = sample_partitions_parallel_in(
            &registry,
            parts,
            |_| HybridReservoir::<u64>::new(policy(32)),
            3,
            11,
        );
        assert_eq!(samples.len(), 10);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("swh_parallel_partitions_total"), 10);
        assert_eq!(snap.counter("swh_parallel_elements_total"), 10 * 500);
        // 3 workers ran, each recording one busy-time observation.
        assert_eq!(snap.histogram("swh_parallel_worker_busy_ns").count, 3);
        // Every partition overflows 32 slots, so each purged at least once.
        let purges = snap.counter("swh_parallel_purges_total");
        assert!(purges >= 10, "expected ≥10 purges, got {purges}");
    }
}
