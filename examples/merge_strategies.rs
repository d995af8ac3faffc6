//! Tour of the merge operators: serial fold (the paper's setup), direct
//! multiway merge (Theorem 1 generalized), and the union engine — one
//! planned merge DAG of pairwise and multiway nodes, run inline and on
//! every host thread — all producing uniform samples of the same union.
//!
//! ```sh
//! cargo run --release --example merge_strategies
//! ```

use sample_warehouse::sampling::{
    hr_merge_multiway, merge_all, merge_tree_parallel, merge_union, FootprintPolicy,
    HybridReservoir, Sample, Sampler,
};
use sample_warehouse::variates::seeded_rng;
use std::borrow::Cow;
use std::time::Instant;

/// Hand owned samples to the union engine (which also accepts borrowed
/// ones, and then copies none of them).
fn owned(samples: Vec<Sample<u64>>) -> Vec<Cow<'static, Sample<u64>>> {
    samples.into_iter().map(Cow::Owned).collect()
}

fn partitions(parts: u64, per: u64, n_f: u64, rng: &mut rand::rngs::SmallRng) -> Vec<Sample<u64>> {
    let policy = FootprintPolicy::with_value_budget(n_f);
    (0..parts)
        .map(|p| HybridReservoir::new(policy).sample_batch(p * per..(p + 1) * per, rng))
        .collect()
}

fn main() {
    let mut rng = seeded_rng(4);
    let (parts, per, n_f) = (64u64, 32_768u64, 4_096u64);
    println!("{} partitions x {} elements, n_F = {}\n", parts, per, n_f);
    println!(
        "{:<28} {:>10} {:>12} {:>10}",
        "strategy", "time", "sample size", "covers"
    );

    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    type Runner = Box<dyn Fn(Vec<Sample<u64>>, &mut rand::rngs::SmallRng) -> Sample<u64>>;
    let strategies: Vec<(&str, Runner)> = vec![
        (
            "serial fold (paper)",
            Box::new(|s, rng| merge_all(s, 1e-3, rng).unwrap()),
        ),
        (
            "direct multiway",
            Box::new(|s, rng| hr_merge_multiway(s, rng).unwrap()),
        ),
        (
            "union engine, 1 thread",
            Box::new(|s, rng| merge_tree_parallel(owned(s), 1e-3, 1, rng).unwrap()),
        ),
        (
            "union engine, all threads",
            Box::new(move |s, rng| merge_tree_parallel(owned(s), 1e-3, threads, rng).unwrap()),
        ),
        (
            "union engine, planned",
            Box::new(|s, rng| merge_union(owned(s), 1e-3, rng).unwrap()),
        ),
    ];

    for (name, run) in strategies {
        let samples = partitions(parts, per, n_f, &mut rng);
        let start = Instant::now();
        let merged = run(samples, &mut rng);
        let t = start.elapsed();
        println!(
            "{name:<28} {:>10.2?} {:>12} {:>10}",
            t,
            merged.size(),
            merged.parent_size()
        );
        assert_eq!(merged.parent_size(), parts * per);
    }
    println!(
        "\nAll strategies yield a statistically identical uniform sample of the union;\n\
         they differ only in cost."
    );
}
