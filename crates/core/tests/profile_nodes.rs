//! End-to-end profiling contract of the planner-driven parallel union: a
//! 64-partition union run under an enabled profiler yields **exactly one
//! profile node per merge-plan node**, named by the plan's node labels,
//! with self-time that accounts for the union's wall-clock.
//!
//! This lives in an integration test (own process) because the library's
//! unit tests also run profiled unions; sharing the global profile registry
//! with them would pollute the node set.

use std::collections::BTreeSet;
use swh_core::merge::merge_tree_parallel;
use swh_core::planner::{plan_union, NodeShape};
use swh_core::{FootprintPolicy, HybridBernoulli, Sample, Sampler};
use swh_obs::{profile, Stopwatch};
use swh_rand::seeded_rng;

#[test]
fn union_of_64_partitions_yields_one_profile_node_per_plan_node() {
    const PARTS: u64 = 64;
    const PER_PART: u64 = 2_000;
    const N_F: u64 = 128;

    let mut rng = seeded_rng(64);
    let parts: Vec<Sample<u64>> = (0..PARTS)
        .map(|p| {
            HybridBernoulli::new(FootprintPolicy::with_value_budget(N_F), PER_PART)
                .sample_batch(p * PER_PART..(p + 1) * PER_PART, &mut rng)
        })
        .collect();

    // The expected node set is the plan itself: plan_union is a pure
    // function of the input shapes, so recomputing it here must yield
    // exactly the labels the executor opened.
    let shapes: Vec<NodeShape> = parts.iter().map(NodeShape::of).collect();
    let plan = plan_union(&shapes, N_F);
    let expected: BTreeSet<String> = plan.merge_node_labels().map(|l| l.to_string()).collect();
    assert_eq!(
        expected.len(),
        63,
        "a 64-leaf plan over Bernoulli partitions has 63 pair nodes"
    );

    profile::set_enabled(true);
    profile::reset();
    let wall = Stopwatch::start();
    let leaves = parts.into_iter().map(std::borrow::Cow::Owned).collect();
    let merged = merge_tree_parallel(leaves, 1e-3, 1, &mut rng).expect("union merges");
    let wall_ns = wall.elapsed_ns();
    profile::set_enabled(false);
    assert_eq!(merged.parent_size(), PARTS * PER_PART);

    let snap = profile::snapshot();
    let mut seen = BTreeSet::new();
    for node in snap.with_prefix("union/node/") {
        // Only the node scopes themselves, not anything nested under them.
        let Some(name) = node.path.strip_prefix("union/node/") else {
            continue;
        };
        if name.contains('/') {
            continue;
        }
        assert_eq!(node.count, 1, "plan node {name} profiled more than once");
        assert!(
            seen.insert(node.path.clone()),
            "duplicate profile node {name}"
        );
    }
    assert_eq!(seen, expected, "profile nodes must match the merge plan");

    // At threads=1 all union work happens under either the plan-node
    // scopes or the flat per-merge `merge/<rule>/s<bucket>` scopes (whose
    // time nests out of the node scopes' self-time), so together they must
    // fit inside the union wall-clock and account for a meaningful share.
    let under = snap.self_ns_under("union/node/") + snap.self_ns_under("merge/");
    assert!(under > 0, "union recorded no self-time");
    assert!(
        under <= wall_ns.saturating_mul(11) / 10,
        "profiled self-time {under}ns exceeds union wall-clock {wall_ns}ns"
    );
}
