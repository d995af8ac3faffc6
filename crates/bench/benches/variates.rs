//! Random-variate generator micro-benchmarks, including the alias-method
//! ablation the paper discusses in §4.2 (alias tables pay off when many
//! draws are taken from one fixed hypergeometric vector, as in symmetric
//! pairwise merge trees).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use swh_rand::binomial::binomial;
use swh_rand::hypergeometric::{draw, sample_multivariate, Hypergeometric};
use swh_rand::normal::normal_quantile;
use swh_rand::seeded_rng;
use swh_rand::zipf::Zipf;

fn bench_binomial(c: &mut Criterion) {
    let mut group = c.benchmark_group("binomial");
    // The three strategy regimes: direct coin flips, waiting-time,
    // inversion-from-mode.
    for (name, n, p) in [
        ("direct_n10", 10u64, 0.3f64),
        ("waiting_n1e5_p1e-4", 100_000, 1e-4),
        ("inversion_n1e5_p0.4", 100_000, 0.4),
    ] {
        group.bench_function(name, |b| {
            let mut rng = seeded_rng(1);
            b.iter(|| black_box(binomial(&mut rng, n, p)))
        });
    }
    group.finish();
}

fn bench_hypergeometric(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypergeometric");
    let (d1, d2, k) = (1u64 << 20, 1u64 << 20, 8192u64);

    group.bench_function("build_pmf_k8192", |b| {
        b.iter(|| black_box(Hypergeometric::new(d1, d2, k).mean()))
    });

    let h = Hypergeometric::new(d1, d2, k);
    group.bench_function("sample_inversion", |b| {
        let mut rng = seeded_rng(2);
        b.iter(|| black_box(h.sample(&mut rng)))
    });

    let table = h.alias_table();
    group.bench_function("sample_alias", |b| {
        let mut rng = seeded_rng(3);
        b.iter(|| black_box(table.sample(&mut rng)))
    });

    // Ablation: one-shot draw (build + sample) vs amortized alias use —
    // quantifies when the alias table pays for its construction.
    group.bench_function("one_shot_build_and_sample", |b| {
        let mut rng = seeded_rng(4);
        b.iter(|| {
            let h = Hypergeometric::new(d1, d2, 512);
            black_box(h.sample(&mut rng))
        })
    });

    // What every merge pays per split: the windowed single draw, against
    // `build_pmf_k8192` + `sample_inversion` for a one-shot table.
    group.bench_function("draw_k8192", |b| {
        let mut rng = seeded_rng(5);
        b.iter(|| black_box(draw(d1, d2, k, &mut rng)))
    });
    // A 16-way multiway node's split at the paper's n_F.
    let groups = [1u64 << 15; 16];
    group.bench_function("multivariate_16x_k8192", |b| {
        let mut rng = seeded_rng(6);
        b.iter(|| black_box(sample_multivariate(&mut rng, &groups, k)))
    });
    group.finish();
}

fn bench_scalar_functions(c: &mut Criterion) {
    let mut group = c.benchmark_group("scalar");
    group.bench_function("normal_quantile", |b| {
        let mut u = 0.001f64;
        b.iter(|| {
            u = if u > 0.998 { 0.001 } else { u + 0.00001 };
            black_box(normal_quantile(u))
        })
    });
    let zipf = Zipf::new(4000, 1.0);
    group.bench_function("zipf_sample_n4000", |b| {
        let mut rng = seeded_rng(5);
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    group.finish();
}

fn bench_skip_distance(c: &mut Criterion) {
    use swh_rand::skip::{ReservoirSkip, SkipMode};
    let mut group = c.benchmark_group("skip_generation");
    for (name, mode, t) in [
        ("algorithm_x_t1e3", SkipMode::Sequential, 1_000u64),
        ("algorithm_z_t1e3", SkipMode::Rejection, 1_000),
        ("algorithm_x_t1e6", SkipMode::Sequential, 1_000_000),
        ("algorithm_z_t1e6", SkipMode::Rejection, 1_000_000),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &t, |b, &t| {
            let mut rng = seeded_rng(6);
            let mut gen = ReservoirSkip::with_mode(64, mode, &mut rng);
            b.iter(|| black_box(gen.skip(t, &mut rng)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_binomial, bench_hypergeometric, bench_scalar_functions, bench_skip_distance
}
criterion_main!(benches);
