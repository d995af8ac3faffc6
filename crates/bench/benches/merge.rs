//! Merge-cost micro-benchmarks: the HBMerge-vs-HRMerge trade-off of §4.3
//! ("samples produced by Algorithm HB are much less expensive to merge than
//! those produced by Algorithm HR").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use swh_core::footprint::FootprintPolicy;
use swh_core::hybrid_bernoulli::HybridBernoulli;
use swh_core::hybrid_reservoir::HybridReservoir;
use swh_core::merge::{hb_merge, hr_merge, merge_all};
use swh_core::sample::Sample;
use swh_core::sampler::Sampler;
use swh_rand::seeded_rng;

fn hb_samples(n_f: u64, parts: u64, per: u64) -> Vec<Sample<u64>> {
    let policy = FootprintPolicy::with_value_budget(n_f);
    let mut rng = seeded_rng(1);
    (0..parts)
        .map(|p| HybridBernoulli::new(policy, per).sample_batch(p * per..(p + 1) * per, &mut rng))
        .collect()
}

fn hr_samples(n_f: u64, parts: u64, per: u64) -> Vec<Sample<u64>> {
    let policy = FootprintPolicy::with_value_budget(n_f);
    let mut rng = seeded_rng(2);
    (0..parts)
        .map(|p| HybridReservoir::new(policy).sample_batch(p * per..(p + 1) * per, &mut rng))
        .collect()
}

fn bench_pairwise(c: &mut Criterion) {
    let per = 1 << 15;
    let mut group = c.benchmark_group("pairwise_merge");
    for n_f in [1024u64, 4096, 8192] {
        let hb = hb_samples(n_f, 2, per);
        group.bench_with_input(BenchmarkId::new("HBMerge", n_f), &hb, |b, samples| {
            let mut rng = seeded_rng(3);
            b.iter(|| {
                let m = hb_merge(samples[0].clone(), samples[1].clone(), 1e-3, &mut rng)
                    .expect("merge");
                black_box(m.size())
            })
        });
        let hr = hr_samples(n_f, 2, per);
        group.bench_with_input(BenchmarkId::new("HRMerge", n_f), &hr, |b, samples| {
            let mut rng = seeded_rng(4);
            b.iter(|| {
                let m = hr_merge(samples[0].clone(), samples[1].clone(), &mut rng).expect("merge");
                black_box(m.size())
            })
        });
    }
    group.finish();
}

fn bench_merge_chain(c: &mut Criterion) {
    let per = 1 << 13;
    let n_f = 2048;
    let mut group = c.benchmark_group("serial_merge_chain");
    group.sample_size(10);
    for parts in [8u64, 32, 128] {
        let hb = hb_samples(n_f, parts, per);
        group.bench_with_input(BenchmarkId::new("HB", parts), &hb, |b, samples| {
            let mut rng = seeded_rng(5);
            b.iter(|| {
                let m = merge_all(samples.clone(), 1e-3, &mut rng).expect("merge");
                black_box(m.size())
            })
        });
        let hr = hr_samples(n_f, parts, per);
        group.bench_with_input(BenchmarkId::new("HR", parts), &hr, |b, samples| {
            let mut rng = seeded_rng(6);
            b.iter(|| {
                let m = merge_all(samples.clone(), 1e-3, &mut rng).expect("merge");
                black_box(m.size())
            })
        });
    }
    group.finish();
}

/// The union engine vs. the paper's serial fold over the same partitions:
/// one planned merge DAG (pairwise and multiway hypergeometric nodes) run
/// inline on one thread over borrowed leaves, as the catalog lends them.
fn bench_union_engine(c: &mut Criterion) {
    use swh_core::merge::merge_tree_parallel;
    let per = 1 << 13;
    let n_f = 2048;
    let mut group = c.benchmark_group("union_engine_vs_fold");
    group.sample_size(10);
    for parts in [16u64, 64] {
        let samples = hr_samples(n_f, parts, per);
        group.bench_with_input(
            BenchmarkId::new("serial_fold", parts),
            &samples,
            |b, samples| {
                let mut rng = seeded_rng(7);
                b.iter(|| {
                    let m = merge_all(samples.clone(), 1e-3, &mut rng).expect("merge");
                    black_box(m.size())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("engine_1t", parts),
            &samples,
            |b, samples| {
                let mut rng = seeded_rng(8);
                b.iter(|| {
                    let leaves = samples.iter().map(std::borrow::Cow::Borrowed).collect();
                    let m = merge_tree_parallel(leaves, 1e-3, 1, &mut rng).expect("merge");
                    black_box(m.size())
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_pairwise, bench_merge_chain, bench_union_engine
}
criterion_main!(benches);
