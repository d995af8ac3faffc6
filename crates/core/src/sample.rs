//! The sample container stored in the warehouse.
//!
//! A [`Sample`] couples a compact histogram with the *provenance* needed to
//! merge it later (§4 of the paper): whether the sampler terminated in
//! phase 1 (exhaustive), phase 2 (Bernoulli at a known rate `q`), or
//! phase 3 / HR phase 2 (reservoir of known capacity), plus the size of the
//! parent partition it was drawn from.

use crate::footprint::FootprintPolicy;
use crate::histogram::CompactHistogram;
use crate::lineage::{self, LineageEvent, PurgeKind};
use crate::value::SampleValue;

/// Provenance of a finalized sample — the paper's `h_i` flag plus the
/// parameters each merge rule needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SampleKind {
    /// The sampler stayed in phase 1: the "sample" is the exact frequency
    /// histogram of the entire parent partition.
    Exhaustive,
    /// A `Bern(q)` sample (Algorithm HB phase 2). `p_bound` is the target
    /// exceedance probability used to derive `q` (needed when re-deriving
    /// rates during merges).
    Bernoulli {
        /// Sampling rate actually applied.
        q: f64,
        /// Target `P{|S| > n_F}` used to compute `q`.
        p_bound: f64,
    },
    /// A simple random sample of fixed size (reservoir).
    Reservoir,
    /// A Gibbons–Matias concise sample, retained at final rate `q`.
    /// **Not uniform** (§3.3 of the paper) and not mergeable; provided only
    /// so the non-uniformity experiment can round-trip through [`Sample`].
    Concise {
        /// Final sampling rate after all purges.
        q: f64,
    },
}

impl SampleKind {
    /// The paper's phase number for this provenance (1, 2, or 3); the
    /// non-uniform concise scheme, which has no phase in the paper, maps
    /// to 0.
    pub fn phase(&self) -> u8 {
        match self {
            SampleKind::Exhaustive => 1,
            SampleKind::Bernoulli { .. } => 2,
            SampleKind::Reservoir => 3,
            SampleKind::Concise { .. } => 0,
        }
    }
}

impl std::fmt::Display for SampleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleKind::Exhaustive => write!(f, "exhaustive"),
            SampleKind::Bernoulli { q, .. } => write!(f, "bernoulli(q={q:.6})"),
            SampleKind::Reservoir => write!(f, "reservoir"),
            SampleKind::Concise { q } => write!(f, "concise(q={q:.6}, NOT uniform)"),
        }
    }
}

/// A finalized, compact, uniform sample of one (possibly merged) partition.
#[derive(Debug, Clone)]
pub struct Sample<T: SampleValue> {
    hist: CompactHistogram<T>,
    kind: SampleKind,
    /// Size of the parent data (sub)set this sample represents (`|D|`).
    parent_size: u64,
    /// Footprint bound the sample was collected under.
    policy: FootprintPolicy,
    /// Recorded history (phase transitions, purges, merges, store events).
    /// Deliberately excluded from `PartialEq`: two samples holding the same
    /// data and provenance are the same sample regardless of the route
    /// either took to get there.
    lineage: Vec<LineageEvent>,
}

impl<T: SampleValue> PartialEq for Sample<T> {
    fn eq(&self, other: &Self) -> bool {
        self.hist == other.hist
            && self.kind == other.kind
            && self.parent_size == other.parent_size
            && self.policy == other.policy
    }
}

impl<T: SampleValue> Sample<T> {
    /// Assemble a sample from parts. Intended for the sampler finalizers and
    /// the merge operators; library users normally obtain samples from
    /// [`crate::sampler::Sampler::finalize`].
    ///
    /// # Panics
    /// Panics if the histogram's size exceeds the parent size, or if a
    /// non-exhaustive sample exceeds the footprint's value budget.
    pub fn from_parts(
        hist: CompactHistogram<T>,
        kind: SampleKind,
        parent_size: u64,
        policy: FootprintPolicy,
    ) -> Self {
        assert!(
            hist.total() <= parent_size,
            "sample of {} values cannot come from parent of {}",
            hist.total(),
            parent_size
        );
        if kind != SampleKind::Exhaustive {
            assert!(
                hist.total() <= policy.n_f(),
                "non-exhaustive sample size {} exceeds bound n_F = {}",
                hist.total(),
                policy.n_f()
            );
        }
        Self {
            hist,
            kind,
            parent_size,
            policy,
            lineage: Vec::new(),
        }
    }

    /// Assemble a sample without the footprint assertion. Needed for the
    /// *unbounded* reference schemes (plain Bernoulli, Algorithm SB) whose
    /// size may legitimately exceed `n_F`; the bounded algorithms use
    /// [`from_parts`](Self::from_parts).
    ///
    /// # Panics
    /// Panics if the histogram's size exceeds the parent size.
    pub fn from_parts_unchecked(
        hist: CompactHistogram<T>,
        kind: SampleKind,
        parent_size: u64,
        policy: FootprintPolicy,
    ) -> Self {
        assert!(
            hist.total() <= parent_size,
            "sample of {} values cannot come from parent of {}",
            hist.total(),
            parent_size
        );
        Self {
            hist,
            kind,
            parent_size,
            policy,
            lineage: Vec::new(),
        }
    }

    /// Number of data elements in the sample (`|S|`).
    pub fn size(&self) -> u64 {
        self.hist.total()
    }

    /// Number of distinct values in the sample.
    pub fn distinct(&self) -> usize {
        self.hist.distinct()
    }

    /// Provenance of the sample.
    pub fn kind(&self) -> SampleKind {
        self.kind
    }

    /// Size `|D|` of the parent partition the sample was drawn from.
    pub fn parent_size(&self) -> u64 {
        self.parent_size
    }

    /// The footprint policy the sample was collected under.
    pub fn policy(&self) -> FootprintPolicy {
        self.policy
    }

    /// Effective sampling fraction `|S| / |D|` (1.0 for an empty parent).
    pub fn sampling_fraction(&self) -> f64 {
        if self.parent_size == 0 {
            1.0
        } else {
            self.size() as f64 / self.parent_size as f64
        }
    }

    /// The sample's recorded history, oldest event first.
    pub fn lineage(&self) -> &[LineageEvent] {
        &self.lineage
    }

    /// Append one event to the lineage (bounded by
    /// [`lineage::MAX_LINEAGE`]; overflow collapses into a trailing
    /// [`LineageEvent::Truncated`] counter).
    pub fn push_lineage(&mut self, ev: LineageEvent) {
        lineage::push_capped(&mut self.lineage, ev);
    }

    /// Replace the lineage wholesale (codec decode, merge assembly).
    pub fn set_lineage(&mut self, events: Vec<LineageEvent>) {
        self.lineage = events;
    }

    /// Builder-style [`set_lineage`](Self::set_lineage).
    pub fn with_lineage(mut self, events: Vec<LineageEvent>) -> Self {
        self.lineage = events;
        self
    }

    /// Borrow the compact histogram.
    pub fn histogram(&self) -> &CompactHistogram<T> {
        &self.hist
    }

    /// Consume into the compact histogram.
    pub fn into_histogram(self) -> CompactHistogram<T> {
        self.hist
    }

    /// Expand into a bag of values.
    pub fn expand(&self) -> Vec<T> {
        self.hist.expand()
    }

    /// Current footprint in value slots.
    pub fn slots(&self) -> u64 {
        self.hist.slots()
    }

    /// Current footprint in bytes under the sample's policy.
    pub fn footprint_bytes(&self) -> u64 {
        self.policy.slots_to_bytes(self.hist.slots())
    }

    /// Derive a smaller uniform sample of exactly `k` elements (simple
    /// random subsample; no-op when `|S| ≤ k`). A simple random subsample
    /// of a uniform sample is uniform (§3.2), so the result carries
    /// [`SampleKind::Reservoir`] provenance.
    ///
    /// # Panics
    /// Panics if called on a concise (non-uniform) sample.
    pub fn subsample<R: rand::Rng + ?Sized>(&self, k: u64, rng: &mut R) -> Sample<T> {
        assert!(
            !matches!(self.kind, SampleKind::Concise { .. }),
            "subsampling a non-uniform concise sample does not yield a uniform sample"
        );
        let hist = crate::purge::purge_reservoir(&self.hist, k, rng);
        let kind = if self.kind == SampleKind::Exhaustive && hist.total() == self.parent_size {
            SampleKind::Exhaustive
        } else {
            SampleKind::Reservoir
        };
        let survivors = hist.total();
        let mut out = Sample::from_parts(hist, kind, self.parent_size, self.policy)
            .with_lineage(self.lineage.clone());
        out.push_lineage(LineageEvent::Purge {
            kind: PurgeKind::Reservoir,
            survivors,
        });
        out
    }

    /// Derive a Bernoulli-thinned uniform sample: each element retained
    /// independently with probability `ratio`. For a `Bern(q)` sample the
    /// result is a true `Bern(q·ratio)` sample (§3.1); for other uniform
    /// provenances it is a uniform sample with binomial size, carried as
    /// `Bernoulli` with the effective overall rate.
    ///
    /// # Panics
    /// Panics unless `0 < ratio ≤ 1`, or if called on a concise sample.
    pub fn thin<R: rand::Rng + ?Sized>(&self, ratio: f64, rng: &mut R) -> Sample<T> {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "thinning ratio must lie in (0, 1]"
        );
        assert!(
            !matches!(self.kind, SampleKind::Concise { .. }),
            "thinning a non-uniform concise sample does not yield a uniform sample"
        );
        let mut hist = self.hist.clone();
        crate::purge::purge_bernoulli(&mut hist, ratio, rng);
        let kind = match self.kind {
            SampleKind::Bernoulli { q, p_bound } => SampleKind::Bernoulli {
                q: q * ratio,
                p_bound,
            },
            SampleKind::Exhaustive => SampleKind::Bernoulli {
                q: ratio,
                p_bound: 1.0,
            },
            _ => {
                let eff = if self.parent_size > 0 {
                    (self.size() as f64 / self.parent_size as f64) * ratio
                } else {
                    ratio
                };
                SampleKind::Bernoulli {
                    q: eff.min(1.0),
                    p_bound: 1.0,
                }
            }
        };
        let survivors = hist.total();
        let mut out = Sample::from_parts(hist, kind, self.parent_size, self.policy)
            .with_lineage(self.lineage.clone());
        out.push_lineage(LineageEvent::Purge {
            kind: PurgeKind::Bernoulli,
            survivors,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> FootprintPolicy {
        FootprintPolicy::with_value_budget(16)
    }

    #[test]
    fn accessors() {
        let h = CompactHistogram::from_bag(vec![1u64, 1, 2]);
        let s = Sample::from_parts(h, SampleKind::Reservoir, 100, policy());
        assert_eq!(s.size(), 3);
        assert_eq!(s.distinct(), 2);
        assert_eq!(s.parent_size(), 100);
        assert_eq!(s.kind().phase(), 3);
        assert!((s.sampling_fraction() - 0.03).abs() < 1e-12);
        assert_eq!(s.slots(), 3); // pair (1,2) + singleton 2
        assert_eq!(s.footprint_bytes(), 24);
    }

    #[test]
    fn phases_match_paper() {
        assert_eq!(SampleKind::Exhaustive.phase(), 1);
        assert_eq!(
            SampleKind::Bernoulli {
                q: 0.5,
                p_bound: 0.01
            }
            .phase(),
            2
        );
        assert_eq!(SampleKind::Reservoir.phase(), 3);
    }

    #[test]
    fn exhaustive_may_exceed_n_f() {
        // An exhaustive histogram may represent more data elements than n_F
        // as long as its *compact* footprint fits (many duplicates).
        let mut h = CompactHistogram::new();
        h.insert_count(7u64, 1000);
        let s = Sample::from_parts(h, SampleKind::Exhaustive, 1000, policy());
        assert_eq!(s.size(), 1000);
        assert_eq!(s.slots(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds bound")]
    fn non_exhaustive_over_budget_panics() {
        let h = CompactHistogram::from_bag((0..20u64).collect::<Vec<_>>());
        Sample::from_parts(h, SampleKind::Reservoir, 100, policy());
    }

    #[test]
    #[should_panic(expected = "cannot come from parent")]
    fn sample_larger_than_parent_panics() {
        let h = CompactHistogram::from_bag(vec![1u64, 2, 3]);
        Sample::from_parts(h, SampleKind::Reservoir, 2, policy());
    }

    #[test]
    fn subsample_shrinks_uniformly() {
        use swh_rand::seeded_rng;
        let mut rng = seeded_rng(21);
        let h = CompactHistogram::from_bag((0..100u64).collect::<Vec<_>>());
        let s = Sample::from_parts(
            h,
            SampleKind::Reservoir,
            10_000,
            FootprintPolicy::with_value_budget(128),
        );
        let small = s.subsample(10, &mut rng);
        assert_eq!(small.size(), 10);
        assert_eq!(small.kind(), SampleKind::Reservoir);
        assert_eq!(small.parent_size(), 10_000);
        // No-op when k >= |S|.
        let same = s.subsample(500, &mut rng);
        assert_eq!(same.size(), 100);
    }

    #[test]
    fn subsample_of_full_exhaustive_stays_exhaustive() {
        use swh_rand::seeded_rng;
        let mut rng = seeded_rng(22);
        let h = CompactHistogram::from_bag(vec![1u64, 1, 2]);
        let s = Sample::from_parts(
            h,
            SampleKind::Exhaustive,
            3,
            FootprintPolicy::with_value_budget(8),
        );
        let same = s.subsample(10, &mut rng);
        assert_eq!(same.kind(), SampleKind::Exhaustive);
        let cut = s.subsample(2, &mut rng);
        assert_eq!(cut.kind(), SampleKind::Reservoir);
        assert_eq!(cut.size(), 2);
    }

    #[test]
    fn thin_composes_bernoulli_rates() {
        use swh_rand::seeded_rng;
        let mut rng = seeded_rng(23);
        let h = CompactHistogram::from_bag((0..50u64).collect::<Vec<_>>());
        let s = Sample::from_parts(
            h,
            SampleKind::Bernoulli {
                q: 0.5,
                p_bound: 1e-3,
            },
            100,
            FootprintPolicy::with_value_budget(128),
        );
        let t = s.thin(0.4, &mut rng);
        match t.kind() {
            SampleKind::Bernoulli { q, .. } => assert!((q - 0.2).abs() < 1e-12),
            k => panic!("{k:?}"),
        }
        assert!(t.size() <= s.size());
    }

    #[test]
    #[should_panic(expected = "concise sample")]
    fn subsample_rejects_concise() {
        use swh_rand::seeded_rng;
        let h = CompactHistogram::from_bag(vec![1u64]);
        let s = Sample::from_parts_unchecked(
            h,
            SampleKind::Concise { q: 0.5 },
            10,
            FootprintPolicy::with_value_budget(8),
        );
        s.subsample(1, &mut seeded_rng(1));
    }

    #[test]
    fn empty_parent_fraction_is_one() {
        let s = Sample::from_parts(
            CompactHistogram::<u64>::new(),
            SampleKind::Exhaustive,
            0,
            policy(),
        );
        assert_eq!(s.sampling_fraction(), 1.0);
    }
}
