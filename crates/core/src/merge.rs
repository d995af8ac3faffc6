//! Merging partition samples into a uniform sample of the union (§4).
//!
//! This module implements the paper's two merge functions and a provenance
//! dispatcher:
//!
//! * [`hb_merge`] — `HBMerge` (Fig. 6). Exhaustive inputs are re-streamed
//!   into a resumed Algorithm HB; two Bernoulli samples are rate-equalized
//!   with `purgeBernoulli` and joined (falling back to a bounded reservoir
//!   when the joined footprint would exceed `F`); reservoir inputs are
//!   delegated to `HRMerge`.
//! * [`hr_merge`] — `HRMerge` (Fig. 8). Exhaustive inputs are re-streamed
//!   into a resumed Algorithm HR; two simple random samples are merged by
//!   drawing the split `L` from the hypergeometric distribution of Eq. (2)
//!   and subsampling each side (`Theorem 1` guarantees the result is a
//!   simple random sample of size `k = min(|S1|, |S2|)` from `D1 ∪ D2`).
//! * [`merge`] — picks the right rule from the two samples' provenance, and
//!   [`merge_all`] folds it over any number of partition samples (the
//!   paper's serial pairwise merge, kept as the experiments' baseline).
//! * [`merge_union`] — the warehouse's union engine: one planned merge DAG
//!   ([`crate::planner::plan_union`]) run on the work-stealing executor,
//!   combining the pairwise rules with alias-cached symmetric splits
//!   (§4.2) and multiway hypergeometric nodes ([`hr_merge_multiway`]).
//!
//! All rules require the two samples to share the same footprint policy and
//! refuse concise samples (not uniform, §3.3).

use crate::histogram::CompactHistogram;
use crate::hybrid_bernoulli::HybridBernoulli;
use crate::hybrid_reservoir::HybridReservoir;
use crate::invariant::invariant;
use crate::lineage::{merged_lineage, merged_lineage_with_purges, LineageEvent, PurgeKind};
use crate::planner::{plan_union, MergePlan, NodeShape, PlanOp};
use crate::purge::{purge_bernoulli, purge_reservoir};
use crate::qbound::q_approx;
use crate::sample::{Sample, SampleKind};
use crate::sampler::Sampler;
use crate::value::SampleValue;
use rand::Rng;
use std::sync::{Mutex, OnceLock, PoisonError};
use swh_obs::journal::EventKind;
use swh_obs::trace::Op;
use swh_obs::{profile, Gauge};
use swh_rand::checked::index_u64;
use swh_rand::hypergeometric::Hypergeometric;
use swh_rand::seeded_rng;
use swh_rand::skip::ReservoirSkip;

/// Record one completed merge in the journal under its own span.
fn note_merge(fan_in: u32, split_l: u64) {
    swh_obs::journal::record_span_event(Op::Merge, EventKind::Merge, fan_in as u64, split_l);
}

/// Cumulative nanoseconds pool workers of the DAG executor spent *idle*
/// (queues empty, parked on the wake condvar) during parallel unions, as
/// opposed to computing merge nodes. Together with the `union/node/*`
/// profile scopes this splits union wall-clock into queue-wait vs.
/// compute, which is what makes scheduling gaps in
/// `BENCH_ingest_throughput.json` attributable from metrics alone.
fn merge_node_wait_gauge() -> &'static Gauge {
    static GAUGE: OnceLock<Gauge> = OnceLock::new();
    GAUGE.get_or_init(|| {
        swh_obs::global().gauge(
            "swh_merge_node_wait_ns",
            "cumulative ns merge executor workers spent idle waiting for ready nodes",
        )
    })
}

/// Number of log-2 size buckets a profile path can carry (`s0`..`s64`,
/// matching [`profile::size_bucket`]'s range).
const MERGE_BUCKETS: usize = 65;

/// Row index of the merge rule the dispatch will take for these inputs,
/// in [`merge_scope_paths`] order (`restream`, `hr`, `hb`).
fn merge_kind_index(k1: SampleKind, k2: SampleKind) -> usize {
    match (k1, k2) {
        (SampleKind::Exhaustive, _) | (_, SampleKind::Exhaustive) => 0,
        (SampleKind::Reservoir, _) | (_, SampleKind::Reservoir) => 1,
        _ => 2,
    }
}

/// Pre-rendered `merge/<rule>/s<bucket>` profile paths, row-major by
/// [`merge_kind_index`]. Built once, off the timed path: formatting these
/// per merge inside the scope used to cost more than small merges
/// themselves.
fn merge_scope_paths() -> &'static [String] {
    static PATHS: OnceLock<Vec<String>> = OnceLock::new();
    PATHS.get_or_init(|| {
        let mut paths = Vec::with_capacity(3 * MERGE_BUCKETS);
        for rule in ["restream", "hr", "hb"] {
            for bucket in 0..MERGE_BUCKETS {
                paths.push(format!("merge/{rule}/s{bucket}"));
            }
        }
        paths
    })
}

/// Profile scope for one pairwise merge, tagged with the rule and the
/// log-2 bucket of the combined input size — the raw material for
/// [`crate::costmodel::CostModel::fit`]. Idle when profiling is off, so
/// the disabled cost is one relaxed load and the path table is never
/// built. The path is looked up in a pre-rendered table, never formatted
/// here.
// swh-analyze: hot
fn merge_profile_scope(k1: SampleKind, k2: SampleKind, in_size: u64) -> profile::Scope {
    if !profile::enabled() {
        return profile::Scope::idle();
    }
    let idx = merge_kind_index(k1, k2) * MERGE_BUCKETS + profile::size_bucket(in_size) as usize;
    profile::scope_rooted(&merge_scope_paths()[idx])
}

/// Why two samples could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// One of the inputs is a concise sample; concise sampling is not
    /// uniform (§3.3) so no uniform merge exists.
    ConciseNotMergeable,
    /// The inputs were collected under different footprint policies.
    PolicyMismatch,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::ConciseNotMergeable => {
                write!(f, "concise samples are not uniform and cannot be merged")
            }
            MergeError::PolicyMismatch => {
                write!(
                    f,
                    "samples were collected under different footprint policies"
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

fn check_mergeable<T: SampleValue>(s1: &Sample<T>, s2: &Sample<T>) -> Result<(), MergeError> {
    if matches!(s1.kind(), SampleKind::Concise { .. })
        || matches!(s2.kind(), SampleKind::Concise { .. })
    {
        return Err(MergeError::ConciseNotMergeable);
    }
    if s1.policy() != s2.policy() {
        return Err(MergeError::PolicyMismatch);
    }
    Ok(())
}

/// Stream every data-element value represented by `hist` into `sampler`.
/// No expansion is materialized; pairs are walked in place (the paper: "no
/// expansion of S_i is required for such extraction").
fn stream_into<T: SampleValue, S: Sampler<T>, R: Rng + ?Sized>(
    sampler: &mut S,
    hist: &CompactHistogram<T>,
    rng: &mut R,
) {
    for (v, c) in hist.iter() {
        for _ in 0..c {
            sampler.observe(v.clone(), rng);
        }
    }
}

/// `HBMerge` (Fig. 6): merge two samples produced by Algorithm HB (or any
/// samples with the same provenance vocabulary) over disjoint partitions.
///
/// `p_bound` is the target exceedance probability used to derive the merged
/// Bernoulli rate `q(|D1| + |D2|, p, n_F)`.
pub fn hb_merge<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    check_mergeable(&s1, &s2)?;
    let combined_n = s1.parent_size() + s2.parent_size();

    // Fig. 6 lines 1–4: at least one sample is exhaustive — re-stream its
    // values into Algorithm HB resumed from the other sample. When both are
    // exhaustive, stream the SMALLER one (the paper's figure is agnostic;
    // the cost of this branch is exactly the streamed sample's size).
    if s1.kind() == SampleKind::Exhaustive || s2.kind() == SampleKind::Exhaustive {
        let (exhaustive, other) = match (s1.kind(), s2.kind()) {
            (SampleKind::Exhaustive, SampleKind::Exhaustive) => {
                if s1.size() <= s2.size() {
                    (s1, s2)
                } else {
                    (s2, s1)
                }
            }
            (SampleKind::Exhaustive, _) => (s1, s2),
            _ => (s2, s1),
        };
        if other.kind() == SampleKind::Reservoir {
            // Resuming HB from a reservoir prior is legal, but HR handles
            // this case without needing a population-size estimate.
            return hr_merge_with_exhaustive(exhaustive, other, rng);
        }
        let ex_lineage = exhaustive.lineage().to_vec();
        let hist = exhaustive.into_histogram();
        let mut hb = HybridBernoulli::resume(other, combined_n, p_bound, rng);
        stream_into(&mut hb, &hist, rng);
        let merged = hb.finalize(rng);
        let lin = merged_lineage(&[&ex_lineage, merged.lineage()], 2, 0);
        note_merge(2, 0);
        return Ok(merged.with_lineage(lin));
    }

    // Fig. 6 lines 5–7: at least one reservoir sample — use HRMerge
    // (a Bernoulli sample is conditionally a simple random sample, §3.2).
    if s1.kind() == SampleKind::Reservoir || s2.kind() == SampleKind::Reservoir {
        return hr_merge_reservoirs(s1, s2, rng);
    }

    // Fig. 6 lines 8–16: both Bernoulli.
    let (q1, q2) = match (s1.kind(), s2.kind()) {
        (SampleKind::Bernoulli { q: a, .. }, SampleKind::Bernoulli { q: b, .. }) => (a, b),
        _ => unreachable!("all other kinds handled above"),
    };
    let policy = s1.policy();
    let n_f = policy.n_f();
    let q = q_approx(combined_n, p_bound, n_f).min(q1).min(q2);
    // Audit the q-decay trajectory: the merged rate must stay at or below
    // the Eq. 1 bound for the combined parent.
    crate::audit::global().note_q_decay(q, q_approx(combined_n, p_bound, n_f));
    let lin1 = s1.lineage().to_vec();
    let lin2 = s2.lineage().to_vec();
    let mut h1 = s1.into_histogram();
    let mut h2 = s2.into_histogram();
    // Equalize both samples to rate q: Bern(q/q_i) of a Bern(q_i) sample is
    // a Bern(q) sample (§3.1).
    purge_bernoulli(&mut h1, q / q1, rng);
    purge_bernoulli(&mut h2, q / q2, rng);
    let mut purges = vec![
        (PurgeKind::Bernoulli, h1.total()),
        (PurgeKind::Bernoulli, h2.total()),
    ];
    note_merge(2, 0);
    if h1.joined_slots(&h2) <= n_f && h1.total() + h2.total() <= n_f {
        h1.join(h2);
        let lineage = merged_lineage_with_purges(&[&lin1, &lin2], &purges, 2, 0);
        return Ok(Sample::from_parts(
            h1,
            SampleKind::Bernoulli { q, p_bound },
            combined_n,
            policy,
        )
        .with_lineage(lineage));
    }
    // Low-probability fallback (lines 14–16): reservoir of size n_F over
    // the concatenation of the two equalized samples. A simple random
    // subsample of a Bernoulli sample is uniform (§3.2).
    let hist = reservoir_of_concatenation(h1, h2, n_f, rng);
    purges.push((PurgeKind::Reservoir, hist.total()));
    let lineage = merged_lineage_with_purges(&[&lin1, &lin2], &purges, 2, 0);
    Ok(Sample::from_parts(hist, SampleKind::Reservoir, combined_n, policy).with_lineage(lineage))
}

/// `HRMerge` (Fig. 8): merge two samples produced by Algorithm HR over
/// disjoint partitions.
pub fn hr_merge<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    check_mergeable(&s1, &s2)?;
    // Fig. 8 lines 1–4: at least one exhaustive sample (stream the smaller
    // when both are).
    if s1.kind() == SampleKind::Exhaustive || s2.kind() == SampleKind::Exhaustive {
        let (exhaustive, other) = match (s1.kind(), s2.kind()) {
            (SampleKind::Exhaustive, SampleKind::Exhaustive) => {
                if s1.size() <= s2.size() {
                    (s1, s2)
                } else {
                    (s2, s1)
                }
            }
            (SampleKind::Exhaustive, _) => (s1, s2),
            _ => (s2, s1),
        };
        return hr_merge_with_exhaustive(exhaustive, other, rng);
    }
    hr_merge_reservoirs(s1, s2, rng)
}

/// Re-stream an exhaustive sample's values into Algorithm HR resumed from
/// `other` (which must be exhaustive or reservoir; a Bernoulli sample is
/// first reinterpreted as a conditional simple random sample, §3.2).
fn hr_merge_with_exhaustive<T: SampleValue, R: Rng + ?Sized>(
    exhaustive: Sample<T>,
    other: Sample<T>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let other = match other.kind() {
        SampleKind::Bernoulli { .. } => {
            // Conditioned on its realized size, a Bernoulli sample is a
            // simple random sample of its parent.
            let policy = other.policy();
            let parent = other.parent_size();
            let lineage = other.lineage().to_vec();
            Sample::from_parts(
                other.into_histogram(),
                SampleKind::Reservoir,
                parent,
                policy,
            )
            .with_lineage(lineage)
        }
        _ => other,
    };
    let ex_lineage = exhaustive.lineage().to_vec();
    let hist = exhaustive.into_histogram();
    let mut hr = HybridReservoir::resume(other, rng);
    stream_into(&mut hr, &hist, rng);
    let merged = hr.finalize(rng);
    let lin = merged_lineage(&[&ex_lineage, merged.lineage()], 2, 0);
    note_merge(2, 0);
    Ok(merged.with_lineage(lin))
}

/// Fig. 8 lines 5–12: merge two simple random samples via the
/// hypergeometric split of Theorem 1. Bernoulli inputs are treated as
/// conditional simple random samples of their realized sizes.
fn hr_merge_reservoirs<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    hr_merge_split(s1, s2, rng, |n1, n2, k, rng| {
        Hypergeometric::new(n1, n2, k).sample(rng)
    })
}

/// The body of [`hr_merge_reservoirs`] with the Eq. (2) split `L` drawn by
/// `split(|D1|, |D2|, k, rng)` — by inversion, or from a shared alias
/// table for the engine's cached pairs.
fn hr_merge_split<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    rng: &mut R,
    split: impl FnOnce(u64, u64, u64, &mut R) -> u64,
) -> Result<Sample<T>, MergeError> {
    let policy = s1.policy();
    let (n1, n2) = (s1.parent_size(), s2.parent_size());
    // Degenerate cases: an empty *partition* contributes nothing.
    if n1 == 0 {
        return Ok(s2);
    }
    if n2 == 0 {
        return Ok(s1);
    }
    let k = s1.size().min(s2.size());
    let lin1 = s1.lineage().to_vec();
    let lin2 = s2.lineage().to_vec();
    let mut h1 = s1.into_histogram();
    let mut h2 = s2.into_histogram();
    // Fig. 8 lines 6–10: draw the split from Eq. (2) and subsample each
    // side to its share.
    let l = split(n1, n2, k, rng);
    invariant!(
        l <= k.min(h1.total()),
        "HRMerge split L = {l} exceeds min(k = {k}, |S1| = {})",
        h1.total()
    );
    purge_reservoir(&mut h1, l, rng);
    purge_reservoir(&mut h2, k - l, rng);
    let purges = [
        (PurgeKind::Reservoir, h1.total()),
        (PurgeKind::Reservoir, h2.total()),
    ];
    h1.join(h2);
    debug_assert_eq!(h1.total(), k);
    note_merge(2, l);
    crate::audit::global().note_split(n1, n2, k, l);
    Ok(
        Sample::from_parts(h1, SampleKind::Reservoir, n1 + n2, policy)
            .with_lineage(merged_lineage_with_purges(&[&lin1, &lin2], &purges, 2, l)),
    )
}

/// Reservoir sample of size `n_f` over the concatenation `h1 ++ h2`
/// (the fallback of Fig. 6, lines 15–16): first `purgeReservoir(h1, n_f)`,
/// then continue the same reservoir process over `h2`'s values.
fn reservoir_of_concatenation<T: SampleValue, R: Rng + ?Sized>(
    h1: CompactHistogram<T>,
    h2: CompactHistogram<T>,
    n_f: u64,
    rng: &mut R,
) -> CompactHistogram<T> {
    let n1 = h1.total();
    let mut h1 = h1;
    purge_reservoir(&mut h1, n_f, rng);
    let mut bag = h1.into_bag();
    let mut t = n1;
    let mut gen = ReservoirSkip::new(n_f, rng);
    let mut next = if bag.len() as u64 == n_f && t >= n_f {
        t + gen.skip(t, rng)
    } else {
        0 // still filling; set once full
    };
    for (v, c) in h2.iter() {
        for _ in 0..c {
            t += 1;
            if (bag.len() as u64) < n_f {
                bag.push(v.clone());
                if bag.len() as u64 == n_f {
                    next = t + gen.skip(t.max(n_f), rng);
                }
            } else if t == next {
                let victim = rng.random_range(0..bag.len());
                bag[victim] = v.clone();
                next = t + gen.skip(t, rng);
            }
        }
    }
    CompactHistogram::from_bag(bag)
}

/// Merge two partition samples, choosing `HBMerge` or `HRMerge` from their
/// provenance exactly as the paper's dispatch does.
///
/// ```
/// use swh_core::{merge, FootprintPolicy, HybridReservoir, Sampler};
/// use swh_rand::seeded_rng;
///
/// let mut rng = seeded_rng(1);
/// let policy = FootprintPolicy::with_value_budget(256);
/// let monday = HybridReservoir::new(policy).sample_batch(0..50_000u64, &mut rng);
/// let tuesday = HybridReservoir::new(policy).sample_batch(50_000..80_000u64, &mut rng);
/// let both = merge(monday, tuesday, 1e-3, &mut rng).unwrap();
/// assert_eq!(both.parent_size(), 80_000);   // uniform over the union
/// assert!(both.size() <= 256);              // still within the bound
/// ```
pub fn merge<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    check_mergeable(&s1, &s2)?;
    let _prof = merge_profile_scope(s1.kind(), s2.kind(), s1.size() + s2.size());
    match (s1.kind(), s2.kind()) {
        (SampleKind::Reservoir, _) | (_, SampleKind::Reservoir) => {
            if s1.kind() == SampleKind::Exhaustive || s2.kind() == SampleKind::Exhaustive {
                hr_merge(s1, s2, rng)
            } else {
                hr_merge_reservoirs(s1, s2, rng)
            }
        }
        _ => hb_merge(s1, s2, p_bound, rng),
    }
}

/// Serial pairwise merge of any number of partition samples (the paper's
/// experimental setup executes "a sequence of pairwise merges (serially) to
/// create a uniform sample of the entire data set").
///
/// # Panics
/// Panics if `samples` is empty.
pub fn merge_all<T: SampleValue, R: Rng + ?Sized>(
    samples: Vec<Sample<T>>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let mut iter = samples.into_iter();
    let Some(mut acc) = iter.next() else {
        panic!("merge_all needs at least one sample");
    };
    for s in iter {
        acc = merge(acc, s, p_bound, rng)?;
    }
    Ok(acc)
}

/// Deterministic RNG stream for plan node `idx`. Seeds are derived from a
/// base drawn once from the caller's RNG, decorrelated across node indices
/// by a golden-ratio odd multiplier, so every node's draws depend only on
/// the caller RNG state and the node's identity — never on which worker
/// runs the node or in what order.
fn plan_node_rng(base: u64, idx: usize) -> impl Rng {
    seeded_rng(base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index_u64(idx).wrapping_add(1)))
}

/// `HRMerge` of two equal-size simple random samples with the split served
/// from the union's shared [`HypergeometricCache`] (§4.2) — the executor's
/// `CachedPair` operator. Statistically identical to
/// [`hr_merge_reservoirs`]; only the split's sampling algorithm differs
/// (alias table vs. direct inversion), and cached table construction is
/// deterministic per key, so cache state never affects results.
fn plan_cached_merge<T: SampleValue, R: Rng + ?Sized>(
    s1: Sample<T>,
    s2: Sample<T>,
    cache: &Mutex<HypergeometricCache>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    check_mergeable(&s1, &s2)?;
    let _prof = merge_profile_scope(s1.kind(), s2.kind(), s1.size() + s2.size());
    hr_merge_split(s1, s2, rng, |n1, n2, k, rng| {
        let mut tables = cache.lock().unwrap_or_else(PoisonError::into_inner);
        tables.split(n1, n2, k, rng)
    })
}

/// Resolve one plan node's inputs: values the executor handed over for
/// executed dependencies, leaf samples fetched from the caller's inputs for
/// completed ones.
fn gather_inputs<T: SampleValue>(
    plan: &MergePlan,
    children: &[usize],
    taken: Vec<Option<Sample<T>>>,
    fetch_leaf: &(dyn Fn(usize) -> Sample<T> + Sync),
) -> Vec<Sample<T>> {
    debug_assert_eq!(children.len(), taken.len());
    children
        .iter()
        .zip(taken)
        .map(|(&c, v)| match v {
            Some(s) => s,
            None => match &plan.nodes[c].op {
                PlanOp::Leaf { input } => fetch_leaf(*input),
                _ => panic!("executed dependency produced no value"),
            },
        })
        .collect()
}

/// Execute one merge-plan node under its profile scope with its own
/// deterministic RNG stream.
fn exec_plan_node<T: SampleValue>(
    plan: &MergePlan,
    idx: usize,
    taken: Vec<Option<Sample<T>>>,
    fetch_leaf: &(dyn Fn(usize) -> Sample<T> + Sync),
    cache: &Mutex<HypergeometricCache>,
    p_bound: f64,
    base: u64,
) -> Result<Sample<T>, MergeError> {
    let node = &plan.nodes[idx];
    let _node_scope = profile::scope_rooted(&node.label);
    let mut rng = plan_node_rng(base, idx);
    let mut inputs = gather_inputs(plan, &plan.children(idx), taken, fetch_leaf);
    match &node.op {
        PlanOp::Leaf { .. } => panic!("leaf nodes are provided by the caller"),
        PlanOp::Pair { .. } => {
            let (Some(b), Some(a)) = (inputs.pop(), inputs.pop()) else {
                panic!("pair node needs two inputs");
            };
            merge(a, b, p_bound, &mut rng)
        }
        PlanOp::CachedPair { .. } => {
            let (Some(b), Some(a)) = (inputs.pop(), inputs.pop()) else {
                panic!("cached pair node needs two inputs");
            };
            plan_cached_merge(a, b, cache, &mut rng)
        }
        PlanOp::Multiway { .. } => hr_merge_multiway(inputs, &mut rng),
    }
}

/// The union engine's merge plan for `samples`: [`plan_union`] over their
/// shapes at their footprint bound.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn union_plan<T: SampleValue>(samples: &[Sample<T>]) -> MergePlan {
    let shapes: Vec<NodeShape> = samples.iter().map(NodeShape::of).collect();
    let n_f = samples.first().map_or(0, |s| s.policy().n_f());
    plan_union(&shapes, n_f)
}

/// Run `plan` (built by [`union_plan`] over the same `samples`) on the
/// dependency-aware work-stealing executor ([`crate::executor`]) with at
/// most `workers` pool workers — inline on the calling thread when
/// `workers` is 1. This is the warehouse's one union engine: every merge
/// of two or more samples outside the paper's serial-fold baseline runs
/// here.
///
/// One base seed is drawn from the caller's RNG up front; each plan node
/// then derives its own RNG stream via [`plan_node_rng`], so the result is
/// **byte-identical run to run, across worker counts, and across steal
/// orders** — `workers = 1` produces exactly the same sample as
/// `workers = 64` for the same caller RNG state. Lineage Merge/Purge
/// events are recorded per node exactly as the pairwise operators record
/// them; only the association order differs from [`merge_all`].
///
/// # Panics
/// Panics if `samples` is empty or does not match the plan's leaves, or
/// if `workers` is zero.
pub fn run_union<T: SampleValue, R: Rng + ?Sized>(
    plan: &MergePlan,
    samples: Vec<Sample<T>>,
    p_bound: f64,
    workers: usize,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    assert!(!samples.is_empty(), "a union needs at least one sample");
    assert!(workers > 0, "a union needs at least one worker");
    debug_assert_eq!(
        plan.nodes
            .iter()
            .filter(|n| matches!(n.op, PlanOp::Leaf { .. }))
            .count(),
        samples.len(),
        "plan was not built over these samples"
    );
    let base = rng.random::<u64>();
    let workers = workers.min(plan.merge_node_count().max(1));
    let leaves: Vec<Mutex<Option<Sample<T>>>> =
        samples.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let fetch_leaf = |input: usize| -> Sample<T> {
        let taken = {
            let mut slot = leaves[input].lock().unwrap_or_else(PoisonError::into_inner);
            slot.take()
        };
        match taken {
            Some(s) => s,
            None => panic!("plan leaf {input} consumed twice"),
        }
    };
    if let PlanOp::Leaf { input } = &plan.nodes[plan.root].op {
        return Ok(fetch_leaf(*input));
    }
    let n = plan.nodes.len();
    let mut deps = Vec::with_capacity(n);
    let mut completed = Vec::with_capacity(n);
    for (i, node) in plan.nodes.iter().enumerate() {
        deps.push(plan.children(i));
        completed.push(matches!(node.op, PlanOp::Leaf { .. }));
    }
    let costs: Vec<u64> = plan.nodes.iter().map(|node| node.cost).collect();
    let cache = Mutex::new(HypergeometricCache::new());
    let exec = |idx: usize, taken: Vec<Option<Sample<T>>>| {
        exec_plan_node(plan, idx, taken, &fetch_leaf, &cache, p_bound, base)
    };
    crate::executor::run_dag(
        &deps,
        &completed,
        &costs,
        plan.root,
        workers,
        &exec,
        &|ns| {
            merge_node_wait_gauge().add(i64::try_from(ns).unwrap_or(i64::MAX));
        },
    )
}

/// Uniform sample of the union of `samples` — the warehouse's union
/// primitive. The union is planned once ([`union_plan`]); its worker count
/// is [`MergePlan::machine_threads`] (the measured cost model over the
/// machine's parallelism), so small unions run inline on one thread. The
/// worker count never affects the result (see [`run_union`]).
///
/// # Panics
/// Panics if `samples` is empty.
pub fn merge_union<T: SampleValue, R: Rng + ?Sized>(
    samples: Vec<Sample<T>>,
    p_bound: f64,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let plan = union_plan(&samples);
    let workers = plan.machine_threads();
    run_union(&plan, samples, p_bound, workers, rng)
}

/// [`merge_union`] with an explicit worker budget instead of the planner's
/// pick — for benches, profiles and schedule-independence tests. Same
/// plan, same engine, same result for the same caller RNG state.
///
/// # Panics
/// Panics if `samples` is empty or `threads` is zero.
pub fn merge_tree_parallel<T: SampleValue, R: Rng + ?Sized>(
    samples: Vec<Sample<T>>,
    p_bound: f64,
    threads: usize,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let plan = union_plan(&samples);
    run_union(&plan, samples, p_bound, threads, rng)
}

/// Direct `m`-way generalization of `HRMerge` (Fig. 8 / Theorem 1): the
/// merged sample size is `k = min_i |S_i|`, and the per-partition shares
/// `(L_1, ..., L_m)` are drawn from the **multivariate** hypergeometric
/// distribution over the parent sizes, after which each sample is
/// subsampled to its share and all are joined.
///
/// Every input is treated as a simple random sample of its realized size
/// (exhaustive samples *are* simple random samples of size `|D_i|`;
/// Bernoulli samples are conditionally so, §3.2). Note that one tiny
/// partition therefore caps `k` — chained [`merge_all`] re-streams small
/// exhaustive partitions instead and usually yields larger samples.
///
/// # Panics
/// Panics if `samples` is empty.
pub fn hr_merge_multiway<T: SampleValue, R: Rng + ?Sized>(
    mut samples: Vec<Sample<T>>,
    rng: &mut R,
) -> Result<Sample<T>, MergeError> {
    let Some(first) = samples.first() else {
        panic!("hr_merge_multiway needs at least one sample");
    };
    let policy = first.policy();
    if samples.iter().any(|s| s.policy() != policy) {
        return Err(MergeError::PolicyMismatch);
    }
    if samples
        .iter()
        .any(|s| matches!(s.kind(), SampleKind::Concise { .. }))
    {
        return Err(MergeError::ConciseNotMergeable);
    }
    if samples.len() == 1 {
        let Some(only) = samples.pop() else {
            panic!("a one-element vector pops an element");
        };
        return Ok(only);
    }
    let total_in: u64 = samples.iter().map(Sample::size).sum();
    let _prof = merge_profile_scope(SampleKind::Reservoir, SampleKind::Reservoir, total_in);
    // Drop empty partitions (they contribute nothing, and zero-size
    // samples of non-empty parents would needlessly force k = 0).
    samples.retain(|s| s.parent_size() > 0);
    if samples.is_empty() {
        return Ok(Sample::from_parts(
            CompactHistogram::new(),
            SampleKind::Reservoir,
            0,
            policy,
        ));
    }
    let k = samples.iter().map(Sample::size).min().unwrap_or(0);
    let parents: Vec<u64> = samples.iter().map(Sample::parent_size).collect();
    let total_parent: u64 = parents.iter().sum();
    let fan_in = samples.len() as u32;
    let shares = swh_rand::hypergeometric::sample_multivariate(rng, &parents, k);
    let mut merged = CompactHistogram::new();
    let mut purges = Vec::with_capacity(samples.len());
    let mut lineages: Vec<Vec<LineageEvent>> = Vec::with_capacity(samples.len());
    for (s, share) in samples.into_iter().zip(shares) {
        lineages.push(s.lineage().to_vec());
        let mut h = s.into_histogram();
        purge_reservoir(&mut h, share, rng);
        purges.push((PurgeKind::Reservoir, h.total()));
        merged.join(h);
    }
    debug_assert_eq!(merged.total(), k);
    let parent_lineages: Vec<&[LineageEvent]> = lineages.iter().map(Vec::as_slice).collect();
    note_merge(fan_in, 0);
    Ok(
        Sample::from_parts(merged, SampleKind::Reservoir, total_parent, policy).with_lineage(
            merged_lineage_with_purges(&parent_lineages, &purges, fan_in, 0),
        ),
    )
}

/// Cache of alias tables keyed by `(|D1|, |D2|, k)` for the repeated
/// symmetric merges of §4.2: "the alias method can be used to increase
/// generation efficiency" when "merges are performed in a symmetric
/// pairwise fashion", because a balanced merge tree over equal partitions
/// reuses one hypergeometric distribution per level. Each union run by
/// [`run_union`] shares one cache across its `CachedPair` nodes.
#[derive(Debug, Default)]
pub struct HypergeometricCache {
    tables: crate::fxhash::FxHashMap<(u64, u64, u64), swh_rand::alias::AliasTable>,
}

impl HypergeometricCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct distributions cached.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Draw the left share `L` for a merge of simple random samples over
    /// parents of sizes `d1`, `d2` with merged size `k`, building (and
    /// caching) the alias table on first use.
    pub fn split<R: Rng + ?Sized>(&mut self, d1: u64, d2: u64, k: u64, rng: &mut R) -> u64 {
        let table = self
            .tables
            .entry((d1, d2, k))
            .or_insert_with(|| Hypergeometric::new(d1, d2, k).alias_table());
        table.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::FootprintPolicy;
    use swh_rand::seeded_rng;
    use swh_rand::stats::{chi_square_p_value, chi_square_statistic};

    fn policy(n_f: u64) -> FootprintPolicy {
        FootprintPolicy::with_value_budget(n_f)
    }

    fn reservoir_sample(
        range: std::ops::Range<u64>,
        n_f: u64,
        rng: &mut rand::rngs::SmallRng,
    ) -> Sample<u64> {
        HybridReservoir::new(policy(n_f)).sample_batch(range, rng)
    }

    fn bernoulli_sample(
        range: std::ops::Range<u64>,
        n_f: u64,
        p: f64,
        rng: &mut rand::rngs::SmallRng,
    ) -> Sample<u64> {
        let n = range.end - range.start;
        HybridBernoulli::with_p_bound(policy(n_f), n, p).sample_batch(range, rng)
    }

    #[test]
    fn hr_merge_size_is_min_of_inputs() {
        let mut rng = seeded_rng(1);
        let s1 = reservoir_sample(0..10_000, 64, &mut rng);
        let s2 = reservoir_sample(10_000..50_000, 64, &mut rng);
        assert_eq!(s1.size(), 64);
        assert_eq!(s2.size(), 64);
        let m = hr_merge(s1, s2, &mut rng).unwrap();
        assert_eq!(m.size(), 64);
        assert_eq!(m.parent_size(), 50_000);
        assert_eq!(m.kind(), SampleKind::Reservoir);
    }

    #[test]
    fn hr_merge_is_uniform_over_union() {
        // Merge reservoir samples of two unequal partitions; every element
        // of the union must be included with probability k/(N1+N2).
        let mut rng = seeded_rng(2);
        let (n1, n2, n_f, trials) = (30u64, 90u64, 12u64, 20_000usize);
        let mut incl = vec![0u64; (n1 + n2) as usize];
        for _ in 0..trials {
            let s1 = reservoir_sample(0..n1, n_f, &mut rng);
            let s2 = reservoir_sample(n1..n1 + n2, n_f, &mut rng);
            let m = hr_merge(s1, s2, &mut rng).unwrap();
            assert_eq!(m.size(), n_f);
            for (v, c) in m.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * n_f as f64 / (n1 + n2) as f64;
        let exp: Vec<f64> = vec![expect; (n1 + n2) as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n1 + n2 - 1) as f64);
        assert!(pv > 1e-4, "HR merge not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn hb_merge_bernoulli_pair_is_uniform() {
        let mut rng = seeded_rng(3);
        let (n1, n2, n_f, trials) = (60u64, 60u64, 16u64, 20_000usize);
        let mut incl = vec![0u64; (n1 + n2) as usize];
        let mut total = 0u64;
        for _ in 0..trials {
            let s1 = bernoulli_sample(0..n1, n_f, 1e-3, &mut rng);
            let s2 = bernoulli_sample(n1..n1 + n2, n_f, 1e-3, &mut rng);
            let m = hb_merge(s1, s2, 1e-3, &mut rng).unwrap();
            assert!(m.size() <= n_f);
            for (v, c) in m.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
                total += 1;
            }
        }
        let expect = total as f64 / (n1 + n2) as f64;
        let exp: Vec<f64> = vec![expect; (n1 + n2) as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n1 + n2 - 1) as f64);
        assert!(pv > 1e-4, "HB merge not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn hb_merge_exhaustive_pair_stays_exhaustive_when_small() {
        let mut rng = seeded_rng(4);
        let s1 = bernoulli_sample(0..10, 64, 1e-3, &mut rng);
        let s2 = bernoulli_sample(10..20, 64, 1e-3, &mut rng);
        assert_eq!(s1.kind(), SampleKind::Exhaustive);
        assert_eq!(s2.kind(), SampleKind::Exhaustive);
        let m = hb_merge(s1, s2, 1e-3, &mut rng).unwrap();
        assert_eq!(m.kind(), SampleKind::Exhaustive);
        assert_eq!(m.size(), 20);
        assert_eq!(m.parent_size(), 20);
    }

    #[test]
    fn hb_merge_exhaustive_with_bernoulli() {
        let mut rng = seeded_rng(5);
        // Small exhaustive partition + large Bernoulli partition.
        let s1 = bernoulli_sample(0..20, 128, 1e-3, &mut rng);
        assert_eq!(s1.kind(), SampleKind::Exhaustive);
        let s2 = bernoulli_sample(1_000..60_000, 128, 1e-3, &mut rng);
        assert!(matches!(s2.kind(), SampleKind::Bernoulli { .. }));
        let m = hb_merge(s1, s2, 1e-3, &mut rng).unwrap();
        assert!(m.size() <= 128);
        assert_eq!(m.parent_size(), 20 + 59_000);
        assert!(matches!(
            m.kind(),
            SampleKind::Bernoulli { .. } | SampleKind::Reservoir
        ));
    }

    /// Plain `Bern(q)` sample with the given footprint policy — clean input
    /// for exercising the merge fallback without HB's phase machinery.
    fn plain_bernoulli(
        range: std::ops::Range<u64>,
        q: f64,
        n_f: u64,
        rng: &mut rand::rngs::SmallRng,
    ) -> Sample<u64> {
        let s =
            crate::bernoulli::BernoulliSampler::new(q, policy(n_f), rng).sample_batch(range, rng);
        // Rebrand through from_parts_unchecked so the policy check in merge
        // sees matching budgets (plain Bernoulli samples can exceed n_F; the
        // merge purges them down immediately).
        s
    }

    #[test]
    fn hb_merge_fallback_to_reservoir_bounds_size() {
        // A loose target p makes the merged Bernoulli rate aggressive, so
        // the joined sample frequently exceeds n_F, exercising the
        // low-probability fallback (Fig. 6 lines 14–16).
        let mut rng = seeded_rng(6);
        let n_f = 32u64;
        let mut saw_fallback = false;
        for _ in 0..200 {
            let s1 = plain_bernoulli(0..500, 0.2, n_f, &mut rng);
            let s2 = plain_bernoulli(500..1_000, 0.2, n_f, &mut rng);
            let m = hb_merge(s1, s2, 0.4, &mut rng).unwrap();
            assert!(m.size() <= n_f, "size {} exceeds bound", m.size());
            if m.kind() == SampleKind::Reservoir {
                saw_fallback = true;
                assert_eq!(m.size(), n_f);
            }
        }
        assert!(
            saw_fallback,
            "expected the reservoir fallback to fire at p=0.4"
        );
    }

    #[test]
    fn hb_merge_fallback_is_uniform() {
        // Uniformity must survive the fallback path. Inputs are clean
        // Bern(q) samples so any bias would come from the merge itself.
        let mut rng = seeded_rng(7);
        let (n, n_f, trials) = (80u64, 16u64, 20_000usize);
        let mut incl = vec![0u64; n as usize];
        let mut total = 0u64;
        let mut fallbacks = 0usize;
        for _ in 0..trials {
            let s1 = plain_bernoulli(0..n / 2, 0.5, n_f, &mut rng);
            let s2 = plain_bernoulli(n / 2..n, 0.5, n_f, &mut rng);
            let m = hb_merge(s1, s2, 0.4, &mut rng).unwrap();
            if m.kind() == SampleKind::Reservoir {
                fallbacks += 1;
            }
            for (v, c) in m.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
                total += 1;
            }
        }
        assert!(
            fallbacks > trials / 20,
            "fallback too rare to test ({fallbacks})"
        );
        let expect = total as f64 / n as f64;
        let exp: Vec<f64> = vec![expect; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(pv > 1e-4, "fallback not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn hr_merge_exhaustive_with_reservoir() {
        let mut rng = seeded_rng(8);
        let s1 = reservoir_sample(0..20, 64, &mut rng);
        assert_eq!(s1.kind(), SampleKind::Exhaustive);
        let s2 = reservoir_sample(20..10_000, 64, &mut rng);
        assert_eq!(s2.kind(), SampleKind::Reservoir);
        let m = hr_merge(s1, s2, &mut rng).unwrap();
        assert_eq!(m.size(), 64);
        assert_eq!(m.parent_size(), 10_000);
    }

    #[test]
    fn merge_dispatch_mixed_bernoulli_reservoir() {
        let mut rng = seeded_rng(9);
        let s1 = bernoulli_sample(0..50_000, 128, 1e-3, &mut rng);
        let s2 = reservoir_sample(50_000..100_000, 128, &mut rng);
        let m = merge(s1, s2, 1e-3, &mut rng).unwrap();
        assert_eq!(m.kind(), SampleKind::Reservoir);
        assert!(m.size() <= 128);
        assert_eq!(m.parent_size(), 100_000);
    }

    #[test]
    fn merge_all_chains_many_partitions() {
        let mut rng = seeded_rng(10);
        let parts: Vec<Sample<u64>> = (0..16u64)
            .map(|p| reservoir_sample(p * 1_000..(p + 1) * 1_000, 64, &mut rng))
            .collect();
        let m = merge_all(parts, 1e-3, &mut rng).unwrap();
        assert_eq!(m.parent_size(), 16_000);
        assert_eq!(m.size(), 64);
    }

    #[test]
    fn merge_all_uniform_across_four_partitions() {
        let mut rng = seeded_rng(11);
        let (n_parts, per, n_f, trials) = (4u64, 25u64, 10u64, 15_000usize);
        let n = n_parts * per;
        let mut incl = vec![0u64; n as usize];
        for _ in 0..trials {
            let parts: Vec<Sample<u64>> = (0..n_parts)
                .map(|p| reservoir_sample(p * per..(p + 1) * per, n_f, &mut rng))
                .collect();
            let m = merge_all(parts, 1e-3, &mut rng).unwrap();
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * n_f as f64 / n as f64;
        let exp: Vec<f64> = vec![expect; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(
            pv > 1e-4,
            "chained merge not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    /// The parallel tree must be a pure function of (inputs, caller RNG
    /// state): identical across runs AND across thread budgets.
    #[test]
    fn parallel_tree_deterministic_across_thread_counts() {
        let mut rng = seeded_rng(40);
        let parts: Vec<Sample<u64>> = (0..16u64)
            .map(|p| reservoir_sample(p * 1_000..(p + 1) * 1_000, 64, &mut rng))
            .collect();
        let run = |threads: usize| {
            let mut rng = seeded_rng(77);
            merge_tree_parallel(parts.clone(), 1e-3, threads, &mut rng).unwrap()
        };
        let serial = run(1);
        assert_eq!(serial, run(8), "thread count changed the result");
        assert_eq!(serial, run(3), "odd thread budget changed the result");
        assert_eq!(serial, run(1), "identical seeds must reproduce the sample");
        assert_eq!(serial.parent_size(), 16_000);
        assert_eq!(serial.size(), 64);
    }

    #[test]
    fn parallel_tree_handles_single_and_odd_inputs() {
        let mut rng = seeded_rng(42);
        let parts: Vec<Sample<u64>> = (0..5u64)
            .map(|p| reservoir_sample(p * 100..(p + 1) * 100, 16, &mut rng))
            .collect();
        let one = merge_tree_parallel(parts[..1].to_vec(), 1e-3, 4, &mut rng).unwrap();
        assert_eq!(one, parts[0], "a one-sample union is that sample");
        let odd = merge_tree_parallel(parts, 1e-3, 4, &mut rng).unwrap();
        assert_eq!(odd.parent_size(), 500);
        assert_eq!(odd.size(), 16);
    }

    #[test]
    fn parallel_tree_uniform_across_four_partitions() {
        // Mirror of merge_all_uniform_across_four_partitions through the
        // tree-parallel path: the documented uniformity contract must hold
        // regardless of merge association order or threading.
        let mut rng = seeded_rng(41);
        let (n_parts, per, n_f, trials) = (4u64, 25u64, 10u64, 15_000usize);
        let n = n_parts * per;
        let mut incl = vec![0u64; n as usize];
        for _ in 0..trials {
            let parts: Vec<Sample<u64>> = (0..n_parts)
                .map(|p| reservoir_sample(p * per..(p + 1) * per, n_f, &mut rng))
                .collect();
            let m = merge_tree_parallel(parts, 1e-3, 2, &mut rng).unwrap();
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * n_f as f64 / n as f64;
        let exp: Vec<f64> = vec![expect; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(
            pv > 1e-4,
            "tree-parallel merge not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    #[test]
    fn merge_rejects_concise() {
        let mut rng = seeded_rng(12);
        let c = Sample::from_parts_unchecked(
            CompactHistogram::from_bag(vec![1u64]),
            SampleKind::Concise { q: 0.5 },
            100,
            policy(8),
        );
        let s = reservoir_sample(0..100, 8, &mut rng);
        assert_eq!(
            merge(c, s, 1e-3, &mut rng).unwrap_err(),
            MergeError::ConciseNotMergeable
        );
    }

    #[test]
    fn merge_rejects_policy_mismatch() {
        let mut rng = seeded_rng(13);
        let s1 = reservoir_sample(0..100, 8, &mut rng);
        let s2 = reservoir_sample(100..200, 16, &mut rng);
        assert_eq!(
            merge(s1, s2, 1e-3, &mut rng).unwrap_err(),
            MergeError::PolicyMismatch
        );
    }

    #[test]
    fn merge_empty_reservoir_sample_with_exhaustive_does_not_panic() {
        // Regression: a size-0 sample with a NON-empty parent (possible
        // when a tiny partition's Bernoulli draw selects nothing and an
        // HR merge pins k at 0) used to panic when later merged with an
        // exhaustive sample (empty-bag victim selection).
        let mut rng = seeded_rng(30);
        let empty_nonempty_parent = Sample::from_parts(
            CompactHistogram::<u64>::new(),
            SampleKind::Reservoir,
            500,
            policy(8),
        );
        let exhaustive = reservoir_sample(0..6, 8, &mut rng);
        assert_eq!(exhaustive.kind(), SampleKind::Exhaustive);
        let m = merge(
            empty_nonempty_parent.clone(),
            exhaustive.clone(),
            1e-3,
            &mut rng,
        )
        .unwrap();
        assert_eq!(m.parent_size(), 506);
        // The degenerate capacity-0 reservoir stays empty.
        assert_eq!(m.size(), 0);
        // Symmetric order too.
        let m = merge(exhaustive, empty_nonempty_parent, 1e-3, &mut rng).unwrap();
        assert_eq!(m.parent_size(), 506);
    }

    #[test]
    fn merge_with_empty_partition_is_identity() {
        let mut rng = seeded_rng(14);
        let empty = Sample::from_parts(
            CompactHistogram::<u64>::new(),
            SampleKind::Reservoir,
            0,
            policy(8),
        );
        let s = reservoir_sample(0..1_000, 8, &mut rng);
        let expected_size = s.size();
        let m = hr_merge(empty, s, &mut rng).unwrap();
        assert_eq!(m.size(), expected_size);
        assert_eq!(m.parent_size(), 1_000);
    }

    #[test]
    fn hr_merge_degenerate_full_samples_cover_union() {
        // Degenerate N = n on both sides: each partition sample IS its
        // partition, and the union still fits the budget, so the merged
        // sample must be the whole union with every count 1.
        let mut rng = seeded_rng(31);
        let s1 = reservoir_sample(0..8, 64, &mut rng);
        let s2 = reservoir_sample(8..20, 64, &mut rng);
        assert_eq!(s1.size(), s1.parent_size());
        assert_eq!(s2.size(), s2.parent_size());
        let m = hr_merge(s1, s2, &mut rng).unwrap();
        assert_eq!(m.kind(), SampleKind::Exhaustive);
        assert_eq!(m.size(), 20);
        for v in 0..20u64 {
            assert_eq!(m.histogram().count(&v), 1);
        }
    }

    #[test]
    fn hr_merge_reservoir_full_parent_samples() {
        // Degenerate N = n with Reservoir provenance: each sample contains
        // its entire parent, so the Eq. (2) split runs with d1 = |D1| and
        // d2 = |D2|. The merge must still return an SRS of size
        // min(|S1|, |S2|) drawn from the union.
        let mut rng = seeded_rng(32);
        let full = |range: std::ops::Range<u64>| {
            Sample::from_parts(
                CompactHistogram::from_bag(range.clone().collect::<Vec<_>>()),
                SampleKind::Reservoir,
                range.end - range.start,
                policy(16),
            )
        };
        let m = hr_merge(full(0..10), full(10..16), &mut rng).unwrap();
        assert_eq!(m.kind(), SampleKind::Reservoir);
        assert_eq!(m.size(), 6);
        assert_eq!(m.parent_size(), 16);
        for (v, c) in m.histogram().iter() {
            assert_eq!(c, 1);
            assert!(*v < 16);
        }
    }

    #[test]
    fn multiway_merge_size_and_domain() {
        let mut rng = seeded_rng(22);
        let parts: Vec<Sample<u64>> = (0..8u64)
            .map(|p| reservoir_sample(p * 2_000..(p + 1) * 2_000, 48, &mut rng))
            .collect();
        let m = hr_merge_multiway(parts, &mut rng).unwrap();
        assert_eq!(m.size(), 48);
        assert_eq!(m.parent_size(), 16_000);
        for (v, _) in m.histogram().iter() {
            assert!(*v < 16_000);
        }
    }

    #[test]
    fn multiway_merge_is_uniform() {
        // 3 partitions of 20 elements, samples of 8, merged directly:
        // every element included with probability 8/60.
        let mut rng = seeded_rng(23);
        let trials = 20_000usize;
        let mut incl = vec![0u64; 60];
        for _ in 0..trials {
            let parts: Vec<Sample<u64>> = (0..3u64)
                .map(|p| reservoir_sample(p * 20..(p + 1) * 20, 8, &mut rng))
                .collect();
            let m = hr_merge_multiway(parts, &mut rng).unwrap();
            assert_eq!(m.size(), 8);
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * 8.0 / 60.0;
        let exp = vec![expect; 60];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, 59.0);
        assert!(pv > 1e-4, "multiway not uniform: chi2={stat:.1} p={pv:.2e}");
    }

    #[test]
    fn multiway_single_sample_passthrough() {
        let mut rng = seeded_rng(24);
        let s = reservoir_sample(0..1_000, 16, &mut rng);
        let expected = s.size();
        let m = hr_merge_multiway(vec![s], &mut rng).unwrap();
        assert_eq!(m.size(), expected);
    }

    #[test]
    fn cached_pair_union_is_uniform() {
        // Two equal-size reservoirs plan to one alias-cached pair (§4.2);
        // the engine's cached split must keep the union uniform.
        let mut rng = seeded_rng(25);
        let plan = union_plan(&[
            reservoir_sample(0..40, 4, &mut rng),
            reservoir_sample(40..80, 4, &mut rng),
        ]);
        assert!(matches!(
            plan.nodes[plan.root].op,
            PlanOp::CachedPair { .. }
        ));
        let trials = 15_000usize;
        let mut incl = vec![0u64; 80];
        for _ in 0..trials {
            let parts = vec![
                reservoir_sample(0..40, 4, &mut rng),
                reservoir_sample(40..80, 4, &mut rng),
            ];
            let m = merge_union(parts, 1e-3, &mut rng).unwrap();
            assert_eq!(m.size(), 4);
            for (v, _) in m.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * 4.0 / 80.0;
        let exp = vec![expect; 80];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, 79.0);
        assert!(
            pv > 1e-4,
            "cached pair not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    #[test]
    fn hypergeometric_cache_builds_one_table_per_key() {
        let mut rng = seeded_rng(26);
        let mut cache = HypergeometricCache::new();
        assert!(cache.is_empty());
        for _ in 0..10 {
            assert!(cache.split(1_000, 1_000, 16, &mut rng) <= 16);
            assert!(cache.split(2_000, 2_000, 16, &mut rng) <= 16);
        }
        assert_eq!(cache.len(), 2, "one alias table per (d1, d2, k)");
    }

    #[test]
    fn multiway_rejects_concise() {
        let mut rng = seeded_rng(26);
        let c = Sample::from_parts_unchecked(
            CompactHistogram::from_bag(vec![1u64]),
            SampleKind::Concise { q: 0.5 },
            100,
            policy(8),
        );
        let s = reservoir_sample(0..100, 8, &mut rng);
        assert_eq!(
            hr_merge_multiway(vec![c, s], &mut rng).unwrap_err(),
            MergeError::ConciseNotMergeable
        );
    }

    #[test]
    fn merge_records_equalization_purges_in_lineage() {
        let mut rng = seeded_rng(50);
        // HR path: the two split purges land in the lineage right before
        // the Merge record, and their survivors sum to the merged size.
        let s1 = reservoir_sample(0..10_000, 64, &mut rng);
        let s2 = reservoir_sample(10_000..50_000, 64, &mut rng);
        let m = hr_merge(s1, s2, &mut rng).unwrap();
        let lin = m.lineage();
        assert!(matches!(lin.last(), Some(LineageEvent::Merge { .. })));
        let tail = &lin[lin.len() - 3..];
        let survivors: u64 = tail[..2]
            .iter()
            .map(|e| match e {
                LineageEvent::Purge {
                    kind: PurgeKind::Reservoir,
                    survivors,
                } => *survivors,
                other => panic!("expected split purge before merge, got {other:?}"),
            })
            .sum();
        assert_eq!(survivors, m.size());

        // HB path: rate equalization records a Bernoulli purge per input.
        let b1 = bernoulli_sample(0..60_000, 128, 1e-3, &mut rng);
        let b2 = bernoulli_sample(60_000..120_000, 128, 1e-3, &mut rng);
        assert!(matches!(b1.kind(), SampleKind::Bernoulli { .. }));
        let m = hb_merge(b1, b2, 1e-3, &mut rng).unwrap();
        let purges = m
            .lineage()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    LineageEvent::Purge {
                        kind: PurgeKind::Bernoulli,
                        ..
                    }
                )
            })
            .count();
        assert!(
            purges >= 2,
            "equalization purges missing: {:?}",
            m.lineage()
        );

        // Multiway: one split purge per input partition.
        let parts: Vec<Sample<u64>> = (0..3u64)
            .map(|p| reservoir_sample(p * 1_000..(p + 1) * 1_000, 16, &mut rng))
            .collect();
        let m = hr_merge_multiway(parts, &mut rng).unwrap();
        let lin = m.lineage();
        let merge_at = lin
            .iter()
            .position(|e| matches!(e, LineageEvent::Merge { fan_in: 3, .. }))
            .unwrap();
        let split_survivors: u64 = lin[..merge_at]
            .iter()
            .rev()
            .take(3)
            .map(|e| match e {
                LineageEvent::Purge { survivors, .. } => *survivors,
                other => panic!("expected split purges before merge, got {other:?}"),
            })
            .sum();
        assert_eq!(split_survivors, m.size());
    }

    #[test]
    fn hypergeometric_split_respects_sizes() {
        // Repeated HR merges: left share L must average k·N1/(N1+N2).
        let mut rng = seeded_rng(15);
        let (n1, n2, n_f) = (1_000u64, 3_000u64, 32u64);
        let trials = 2_000;
        let mut left_total = 0u64;
        for _ in 0..trials {
            let s1 = reservoir_sample(0..n1, n_f, &mut rng);
            let s2 = reservoir_sample(n1..n1 + n2, n_f, &mut rng);
            let m = hr_merge(s1, s2, &mut rng).unwrap();
            left_total += m
                .histogram()
                .iter()
                .filter(|(v, _)| **v < n1)
                .map(|(_, c)| c)
                .sum::<u64>();
        }
        let mean_left = left_total as f64 / trials as f64;
        let expect = n_f as f64 * n1 as f64 / (n1 + n2) as f64; // 8
        assert!(
            (mean_left - expect).abs() < 0.3,
            "mean {mean_left} vs {expect}"
        );
    }
}
