//! Schedule-independence contract of the planner-driven parallel union:
//! for a fixed caller RNG state the union result is **byte-identical**
//! across thread counts (`1, 2, 8, 64`) and across repeated runs (whose
//! steal orders differ) — and a planner-driven multiway union remains
//! statistically uniform.

use std::borrow::Cow;
use std::collections::BTreeSet;
use swh_core::merge::merge_tree_parallel;
use swh_core::planner::{plan_union, NodeShape, PlanOp};
use swh_core::{
    CompactHistogram, FootprintPolicy, HybridBernoulli, HybridReservoir, Sample, SampleKind,
    Sampler,
};
use swh_rand::seeded_rng;
use swh_rand::stats::{chi_square_p_value, chi_square_statistic};

fn policy(n_f: u64) -> FootprintPolicy {
    FootprintPolicy::with_value_budget(n_f)
}

/// A shape-diverse union input: equal-size reservoirs (multiway fan-in
/// plus a leftover pair), distinct-size reservoirs, small exhaustive
/// partitions (re-stream chain), and Bernoulli-phase hybrids (pairwise
/// rate equalization). Deterministic: every call builds the same samples.
fn mixed_partitions(n_f: u64) -> Vec<Sample<u64>> {
    let mut rng = seeded_rng(0xC0FFEE);
    let mut parts = Vec::new();
    // Eighteen equal-size reservoir partitions (all at the `n_f` cap, the
    // largest bounded size, so they sort adjacent): one fan-in-16 multiway
    // forms plus a leftover equal pair.
    for p in 0..18u64 {
        let lo = p * 4_000;
        parts.push(HybridReservoir::new(policy(n_f)).sample_batch(lo..lo + 4_000, &mut rng));
    }
    // Five distinct-size full reservoir samples (degenerate |S| = |D|).
    for (i, len) in [9u64, 11, 13, 17, 23].into_iter().enumerate() {
        let lo = 50_000 + (i as u64) * 100;
        parts.push(Sample::from_parts(
            CompactHistogram::from_bag((lo..lo + len).collect::<Vec<_>>()),
            SampleKind::Reservoir,
            len,
            policy(n_f),
        ));
    }
    // Three small exhaustive partitions.
    for p in 0..3u64 {
        let lo = 100_000 + p * 40;
        parts.push(HybridReservoir::new(policy(n_f)).sample_batch(lo..lo + 20, &mut rng));
    }
    // Two Bernoulli-phase hybrids.
    for p in 0..2u64 {
        let lo = 200_000 + p * 4_000;
        parts.push(HybridBernoulli::new(policy(n_f), 4_000).sample_batch(lo..lo + 4_000, &mut rng));
    }
    parts
}

#[test]
fn mixed_plan_exercises_every_operator() {
    let parts = mixed_partitions(64);
    assert!(parts.iter().any(|s| s.kind() == SampleKind::Exhaustive));
    let shapes: Vec<NodeShape> = parts.iter().map(NodeShape::of).collect();
    let plan = plan_union(&shapes, 64);
    let ops: BTreeSet<&'static str> = plan
        .nodes
        .iter()
        .map(|n| match &n.op {
            PlanOp::Leaf { .. } => "leaf",
            PlanOp::Pair { .. } => "pair",
            PlanOp::Multiway { .. } => "multiway",
        })
        .collect();
    for op in ["leaf", "pair", "multiway"] {
        assert!(ops.contains(op), "plan never uses {op}: {ops:?}");
    }
}

#[test]
fn union_is_byte_identical_across_thread_counts_and_runs() {
    let parts = mixed_partitions(64);
    let run = |threads: usize| {
        let mut rng = seeded_rng(911);
        let leaves = parts.iter().map(Cow::Borrowed).collect();
        merge_tree_parallel(leaves, 1e-3, threads, &mut rng).expect("union merges")
    };
    let reference = run(1);
    // Mixed provenance (exhaustive, Bernoulli and reservoir inputs) still
    // merges into one bounded sample of the whole union.
    let parents: u64 = parts.iter().map(Sample::parent_size).sum();
    assert_eq!(reference.parent_size(), parents);
    assert!(reference.size() <= 64);
    for threads in [2usize, 8, 64] {
        assert_eq!(run(threads), reference, "threads={threads} diverged");
    }
    // Steal orders differ run to run; results must not.
    for rep in 0..5 {
        assert_eq!(run(8), reference, "repetition {rep} diverged");
    }
}

#[test]
fn owned_and_borrowed_leaves_union_identically() {
    // Lending the leaves only saves their copies: the same caller RNG
    // state gives the same union either way, and the lent samples are
    // untouched.
    let parts = mixed_partitions(64);
    let before = parts.clone();
    let borrowed = merge_tree_parallel(
        parts.iter().map(Cow::Borrowed).collect(),
        1e-3,
        2,
        &mut seeded_rng(912),
    )
    .expect("union merges");
    assert_eq!(parts, before, "a borrowed leaf changed");
    let owned = merge_tree_parallel(
        parts.into_iter().map(Cow::Owned).collect(),
        1e-3,
        2,
        &mut seeded_rng(912),
    )
    .expect("union merges");
    assert_eq!(borrowed, owned);
}

#[test]
fn planner_driven_multiway_union_is_uniform() {
    // Five full reservoir samples of distinct sizes over disjoint ranges:
    // the planner collapses these into a single multiway node, so every
    // element of the 40-element union must appear with probability
    // k/N = 6/40 in the merged sample.
    let ranges: [(u64, u64); 5] = [(0, 6), (6, 13), (13, 21), (21, 30), (30, 40)];
    let build = || -> Vec<Sample<u64>> {
        ranges
            .iter()
            .map(|&(lo, hi)| {
                Sample::from_parts(
                    CompactHistogram::from_bag((lo..hi).collect::<Vec<_>>()),
                    SampleKind::Reservoir,
                    hi - lo,
                    policy(16),
                )
            })
            .collect()
    };
    let shapes: Vec<NodeShape> = build().iter().map(NodeShape::of).collect();
    let plan = plan_union(&shapes, 16);
    assert_eq!(plan.merge_node_count(), 1);
    assert!(matches!(
        plan.nodes[plan.root].op,
        PlanOp::Multiway { ref children } if children.len() == 5
    ));

    let trials = 20_000usize;
    let mut incl = vec![0u64; 40];
    let mut rng = seeded_rng(7);
    for _ in 0..trials {
        let leaves = build().into_iter().map(Cow::Owned).collect();
        let m = merge_tree_parallel(leaves, 1e-3, 2, &mut rng).expect("union merges");
        assert_eq!(m.size(), 6, "multiway k = min sample size");
        assert_eq!(m.parent_size(), 40);
        for (v, c) in m.histogram().iter() {
            assert_eq!(c, 1, "union of distinct values stays distinct");
            incl[*v as usize] += u64::from(c > 0);
        }
    }
    let total: u64 = incl.iter().sum();
    let expect = total as f64 / 40.0;
    let exp = vec![expect; 40];
    let stat = chi_square_statistic(&incl, &exp);
    let pv = chi_square_p_value(stat, 39.0);
    assert!(
        pv > 1e-4,
        "multiway union not uniform: chi2={stat:.1} p={pv:.2e}"
    );
}
