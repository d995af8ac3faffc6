//! Purge-operator micro-benchmarks: `purgeBernoulli` (Fig. 3) and
//! `purgeReservoir` (Fig. 4) on differently shaped histograms, plus the
//! compact-vs-expanded ablation (purging in compact form avoids
//! materializing the bag — the design decision both figures embody).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use swh_core::histogram::CompactHistogram;
use swh_core::purge::{purge_bernoulli, purge_reservoir};
use swh_rand::seeded_rng;
use swh_rand::zipf::Zipf;

/// Histogram with `distinct` values and ~`total` elements, Zipf-shaped
/// counts (a few heavy values, many light ones).
fn skewed_histogram(distinct: u64, total: u64) -> CompactHistogram<u64> {
    let mut rng = seeded_rng(1);
    let zipf = Zipf::new(distinct, 1.0);
    let mut h = CompactHistogram::new();
    for _ in 0..total {
        h.insert_one(zipf.sample(&mut rng));
    }
    h
}

/// Histogram of all-distinct values (every entry a singleton).
fn flat_histogram(total: u64) -> CompactHistogram<u64> {
    CompactHistogram::from_bag(0..total)
}

fn bench_purge_bernoulli(c: &mut Criterion) {
    let mut group = c.benchmark_group("purge_bernoulli");
    for (name, hist) in [
        ("flat_8192", flat_histogram(8192)),
        ("skewed_8192of256", skewed_histogram(256, 8192)),
        ("skewed_65536of1024", skewed_histogram(1024, 65_536)),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &hist, |b, h| {
            let mut rng = seeded_rng(2);
            b.iter(|| {
                let mut h = h.clone();
                purge_bernoulli(&mut h, 0.5, &mut rng);
                black_box(h.total())
            })
        });
    }
    group.finish();
}

fn bench_purge_reservoir(c: &mut Criterion) {
    let mut group = c.benchmark_group("purge_reservoir");
    for (name, hist, m) in [
        ("flat_8192_to_4096", flat_histogram(8192), 4096u64),
        (
            "skewed_8192of256_to_4096",
            skewed_histogram(256, 8192),
            4096,
        ),
        (
            "skewed_65536of1024_to_8192",
            skewed_histogram(1024, 65_536),
            8192,
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &(hist, m),
            |b, (h, m)| {
                let mut rng = seeded_rng(3);
                b.iter(|| black_box(purge_reservoir(h, *m, &mut rng).total()))
            },
        );
    }
    group.finish();
}

/// Ablation: purging in compact form (Fig. 4) vs the naive
/// expand → shuffle-truncate → rebuild pipeline.
fn bench_compact_vs_expanded(c: &mut Criterion) {
    use rand::seq::SliceRandom;
    let mut group = c.benchmark_group("purge_compact_vs_expanded");
    let hist = skewed_histogram(1024, 65_536);
    let m = 8192u64;

    group.bench_function("compact_fig4", |b| {
        let mut rng = seeded_rng(4);
        b.iter(|| black_box(purge_reservoir(&hist, m, &mut rng).total()))
    });
    group.bench_function("expand_shuffle_rebuild", |b| {
        let mut rng = seeded_rng(5);
        b.iter(|| {
            let mut bag = hist.expand();
            bag.shuffle(&mut rng);
            bag.truncate(m as usize);
            let h = CompactHistogram::from_bag(bag);
            black_box(h.total())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_purge_bernoulli, bench_purge_reservoir, bench_compact_vs_expanded
}
criterion_main!(benches);
