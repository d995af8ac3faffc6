//! Algorithm HR — hybrid reservoir sampling (§4.2, Fig. 7 of the paper).
//!
//! Like Algorithm HB, the sampler keeps an exact compact histogram while the
//! footprint permits (phase 1). When the footprint reaches the bound it
//! switches to reservoir mode (phase 2): the next element selected by the
//! skip function triggers `purgeReservoir(S, n_F)` — materializing a simple
//! random subsample of everything seen so far — followed by expansion and
//! the standard replace-a-victim step.
//!
//! HR needs **no a priori knowledge of the partition size** and always
//! delivers either the exact histogram or a reservoir sample of exactly
//! `n_F` elements, which is why its sample sizes are larger and more stable
//! than HB's (Figs. 15–16 of the paper) at the cost of costlier merges.

use crate::footprint::FootprintPolicy;
use crate::histogram::CompactHistogram;
use crate::invariant::invariant;
use crate::lineage::{push_capped, LineageEvent, PurgeKind};
use crate::purge::purge_reservoir;
use crate::sample::{Sample, SampleKind};
use crate::sampler::{flush_observe_segment, Sampler};
use crate::stats::SamplerStats;
use crate::value::SampleValue;
use rand::Rng;
use swh_obs::journal::{record, EventKind};
use swh_obs::trace::{next_span_id, Op, SpanId};
use swh_obs::{profile, Stopwatch};
use swh_rand::checked::{as_index, index_u64};
use swh_rand::skip::ReservoirSkip;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Exact,
    Reservoir,
}

impl Phase {
    /// Tag used in profiler scope paths (`observe/hr/<tag>/...`).
    fn tag(self) -> &'static str {
        match self {
            Phase::Exact => "exact",
            Phase::Reservoir => "reservoir",
        }
    }
}

/// Streaming Algorithm HR sampler.
///
/// ```
/// use swh_core::{FootprintPolicy, HybridReservoir, SampleKind, Sampler};
/// use swh_rand::seeded_rng;
///
/// let mut rng = seeded_rng(1);
/// let policy = FootprintPolicy::with_value_budget(512);
/// // No a priori size needed; the sample is pinned at n_F once sampling.
/// let sample = HybridReservoir::new(policy).sample_batch(0..100_000u64, &mut rng);
/// assert_eq!(sample.kind(), SampleKind::Reservoir);
/// assert_eq!(sample.size(), 512);
/// ```
#[derive(Debug, Clone)]
pub struct HybridReservoir<T: SampleValue> {
    policy: FootprintPolicy,
    phase: Phase,
    /// Compact sample (phase 1, and phase 2 before the lazy purge).
    hist: CompactHistogram<T>,
    /// Expanded bag (phase 2 after the first insertion).
    bag: Vec<T>,
    expanded: bool,
    observed: u64,
    next_include: u64,
    skip_gen: Option<ReservoirSkip>,
    stats: SamplerStats,
    /// Lineage accumulated during sampling, attached at finalize. Carries
    /// the prior's history when resumed.
    lineage: Vec<LineageEvent>,
    /// Journal span covering this sampler's life (clones share the ID).
    span: SpanId,
    /// `false` when resumed from a prior sample: the stats then cover
    /// only the streamed tail, so the run is excluded from the
    /// uniformity audit (its merge is audited at the merge sites).
    audit_fresh: bool,
}

impl<T: SampleValue> HybridReservoir<T> {
    /// Create an HR sampler under the given footprint bound.
    pub fn new(policy: FootprintPolicy) -> Self {
        // Reserve the phase-1 histogram up front: distinct values never
        // exceed the slot bound `n_F`, so the hot loop never rehashes.
        Self::with_histogram(policy, CompactHistogram::with_slot_capacity(policy.n_f()))
    }

    /// A phase-1 sampler whose exact histogram starts as `hist`: the
    /// reserved empty table of [`new`](Self::new), or the prior's own
    /// histogram (or an empty one) in [`resume`](Self::resume), which must
    /// not pay for an `n_F`-slot table it would discard.
    fn with_histogram(policy: FootprintPolicy, hist: CompactHistogram<T>) -> Self {
        let span = next_span_id();
        record(EventKind::SpanStart, span.raw(), 0, Op::Ingest.code(), 0);
        Self {
            policy,
            phase: Phase::Exact,
            hist,
            bag: Vec::new(),
            expanded: false,
            observed: 0,
            next_include: 0,
            skip_gen: None,
            stats: SamplerStats::default(),
            lineage: Vec::new(),
            span,
            audit_fresh: true,
        }
    }

    /// Resume sampling from a previously finalized sample, as `HRMerge`
    /// (Fig. 8, lines 1–4) requires.
    ///
    /// # Panics
    /// Panics if `prior` is a Bernoulli or concise sample: HR state only
    /// represents exhaustive or reservoir provenance. (`HRMerge` handles a
    /// Bernoulli input by treating it as a conditional simple random
    /// sample — see [`mod@crate::merge`].)
    pub fn resume<R: Rng + ?Sized>(prior: Sample<T>, rng: &mut R) -> Self {
        let policy = prior.policy();
        let parent = prior.parent_size();
        let kind = prior.kind();
        let prior_lineage = prior.lineage().to_vec();
        let hist = prior.into_histogram();
        let mut resumed = match kind {
            SampleKind::Exhaustive => {
                let mut s = Self::with_histogram(policy, hist);
                s.observed = parent;
                s
            }
            SampleKind::Reservoir => {
                let k = hist.total();
                let mut s = Self::with_histogram(policy, CompactHistogram::new());
                s.phase = Phase::Reservoir;
                // The prior is already a materialized reservoir sample:
                // expand it now so insertions need no purge.
                s.bag = hist.into_bag();
                s.expanded = true;
                s.observed = parent.max(k);
                if k == 0 {
                    // Degenerate capacity-0 reservoir (a merge with an
                    // empty sample of a non-empty parent): it stays empty
                    // forever, so no insertion may ever fire.
                    s.next_include = u64::MAX;
                    s.skip_gen = None;
                } else {
                    let mut gen = ReservoirSkip::new(k, rng);
                    s.next_include = s.observed + gen.skip(s.observed, rng);
                    s.skip_gen = Some(gen);
                }
                s
            }
            SampleKind::Bernoulli { .. } | SampleKind::Concise { .. } => {
                panic!("HybridReservoir::resume requires an exhaustive or reservoir prior")
            }
        };
        resumed.lineage = prior_lineage;
        resumed.audit_fresh = false;
        resumed
    }

    /// Current phase (1 or 2), matching the paper's numbering.
    pub fn phase(&self) -> u8 {
        match self.phase {
            Phase::Exact => 1,
            Phase::Reservoir => 2,
        }
    }

    /// Current footprint in value slots.
    ///
    /// Invariant: never exceeds `n_F` — in phase 2 before the lazy purge the
    /// histogram footprint sits exactly at the bound.
    pub fn current_slots(&self) -> u64 {
        if self.expanded {
            self.bag.len() as u64
        } else {
            self.hist.slots()
        }
    }

    /// Human-readable name of the current phase.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Exact => "exact histogram",
            Phase::Reservoir => "reservoir",
        }
    }

    /// Record a phase transition in the lineage and the journal (HR's own
    /// numbering: 1 = exact, 2 = reservoir; no rate, so `q` = 0).
    fn note_transition(&mut self, from: u8, to: u8) {
        let footprint_slots = self.current_slots();
        push_capped(
            &mut self.lineage,
            LineageEvent::PhaseTransition {
                from,
                to,
                q: 0.0,
                footprint_slots,
            },
        );
        record(
            EventKind::PhaseTransition,
            self.span.raw(),
            0,
            ((from as u64) << 8) | to as u64,
            self.current_slots(),
        );
    }

    /// Fig. 7 lines 3–5: the footprint hit the bound — switch to reservoir
    /// mode. The purge happens lazily at the first skip-selected insertion.
    fn leave_phase1<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        // Phase 1 ends at the first insertion that brings the footprint to
        // n_F and distinct ≤ slots, so a fresh sampler's histogram, reserved
        // for n_F slots, never outgrew its reservation. A resumed prior may
        // already sit at the bound (an exhaustive sample with footprint
        // n_F), and then its first insertion ends phase 1 at n_F + 1.
        invariant!(
            index_u64(self.hist.distinct()) <= self.policy.n_f() + u64::from(!self.audit_fresh),
            "phase-1 histogram outgrew its n_F reservation: {} distinct > {} (resumed: {})",
            self.hist.distinct(),
            self.policy.n_f(),
            !self.audit_fresh
        );
        self.stats.enter_phase2(self.observed);
        self.phase = Phase::Reservoir;
        self.note_transition(1, 2);
        let mut gen = ReservoirSkip::new(self.policy.n_f(), rng);
        self.next_include = self.observed + gen.skip(self.observed, rng);
        self.skip_gen = Some(gen);
    }

    /// Materialize the pending lazy purge: a simple random subsample of
    /// size `n_F` over everything seen so far, expanded to bag form for
    /// in-place victim replacement.
    fn materialize_reservoir<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        debug_assert!(!self.expanded);
        let start = Stopwatch::start();
        // At most n_F elements (the switch fires when the footprint reaches
        // n_F with all singletons) is already the subsample.
        if self.hist.total() > self.policy.n_f() {
            self.hist = purge_reservoir(&self.hist, self.policy.n_f(), rng);
        }
        self.stats.record_purge(start.elapsed_ns());
        self.note_purge(self.hist.total());
        self.bag = std::mem::take(&mut self.hist).into_bag();
        self.expanded = true;
        invariant!(
            index_u64(self.bag.len()) <= self.policy.n_f(),
            "footprint {} exceeds n_F = {} after the lazy purge",
            self.bag.len(),
            self.policy.n_f()
        );
    }

    /// Record a purge in the lineage and the journal.
    fn note_purge(&mut self, survivors: u64) {
        push_capped(
            &mut self.lineage,
            LineageEvent::Purge {
                kind: PurgeKind::Reservoir,
                survivors,
            },
        );
        record(
            EventKind::Purge,
            self.span.raw(),
            0,
            PurgeKind::Reservoir.code() as u64,
            survivors,
        );
    }
}

impl<T: SampleValue> std::fmt::Display for HybridReservoir<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HR[phase {} ({}), {}/{} slots, {} observed]",
            self.phase(),
            self.phase_name(),
            self.current_slots(),
            self.policy.n_f(),
            self.observed,
        )
    }
}

impl<T: SampleValue> Sampler<T> for HybridReservoir<T> {
    fn observe<R: Rng + ?Sized>(&mut self, value: T, rng: &mut R) {
        self.observed += 1;
        match self.phase {
            Phase::Exact => {
                self.hist.insert_one(value);
                self.stats.include();
                if self.policy.compact_overflows(self.hist.slots()) {
                    self.leave_phase1(rng);
                }
            }
            Phase::Reservoir => {
                if self.observed == self.next_include {
                    if !self.expanded {
                        self.materialize_reservoir(rng);
                    }
                    let victim = rng.random_range(0..self.bag.len());
                    self.bag[victim] = value;
                    self.stats.include();
                    let gen = self
                        .skip_gen
                        .as_mut()
                        // swh-analyze: allow(panic) -- phase-2 insertions only fire when next_include is finite, which implies a generator (degenerate reservoirs pin next_include to u64::MAX)
                        .expect("phase 2 has a skip generator");
                    self.next_include = self.observed + gen.skip(self.observed, rng);
                } else {
                    self.stats.reject();
                }
            }
        }
        self.stats.record_footprint(self.current_slots());
    }

    /// Phase-aware bulk path. Byte-identical to the element-wise loop for
    /// any chunking of the stream: phase 1 inserts until the footprint
    /// trips (splitting the slice at a mid-batch transition), phase 2
    /// advances the skip counter across whole rejected groups and touches
    /// the RNG only at inclusions.
    fn observe_batch<R: Rng + ?Sized>(&mut self, values: &[T], rng: &mut R) {
        let profiled = profile::enabled();
        let mut seg_sw = Stopwatch::start();
        let mut seg_phase = self.phase;
        let mut seg_obs = self.observed;
        let mut rest = values;
        while !rest.is_empty() {
            if profiled && self.phase != seg_phase {
                flush_observe_segment("hr", seg_phase.tag(), self.observed - seg_obs, &seg_sw);
                seg_sw = Stopwatch::start();
                seg_phase = self.phase;
                seg_obs = self.observed;
            }
            match self.phase {
                Phase::Exact => {
                    // Phase-1 slots are monotone non-decreasing (and the
                    // switch purges nothing), so recording the footprint at
                    // the group boundary reproduces the per-element
                    // high-water mark exactly.
                    let mut used = 0usize;
                    for v in rest {
                        used += 1;
                        self.observed += 1;
                        self.hist.insert_one(v.clone());
                        self.stats.include();
                        if self.policy.compact_overflows(self.hist.slots()) {
                            self.leave_phase1(rng);
                            break;
                        }
                    }
                    self.stats.record_footprint(self.current_slots());
                    rest = &rest[used..];
                }
                Phase::Reservoir => {
                    let remaining = index_u64(rest.len());
                    // Between calls `next_include > observed` (pinned to
                    // u64::MAX by degenerate resumed reservoirs), so the
                    // subtraction never underflows and the whole-group
                    // rejection test never overflows.
                    if self.next_include - self.observed > remaining {
                        self.observed += remaining;
                        self.stats.rejections += remaining;
                        self.stats.record_footprint(self.current_slots());
                        break;
                    }
                    let gap = self.next_include - self.observed - 1;
                    let idx = as_index(gap);
                    self.observed = self.next_include;
                    self.stats.rejections += gap;
                    if !self.expanded {
                        self.materialize_reservoir(rng);
                    }
                    let victim = rng.random_range(0..self.bag.len());
                    self.bag[victim] = rest[idx].clone();
                    self.stats.include();
                    let gen = self
                        .skip_gen
                        .as_mut()
                        // swh-analyze: allow(panic) -- as in observe: a finite next_include implies a generator (degenerate reservoirs pin next_include to u64::MAX)
                        .expect("phase 2 has a skip generator");
                    self.next_include = self.observed + gen.skip(self.observed, rng);
                    self.stats.record_footprint(self.current_slots());
                    rest = &rest[idx + 1..];
                }
            }
        }
        if profiled && self.observed > seg_obs {
            flush_observe_segment("hr", seg_phase.tag(), self.observed - seg_obs, &seg_sw);
        }
    }

    fn observed(&self) -> u64 {
        self.observed
    }

    fn current_size(&self) -> u64 {
        if self.expanded {
            self.bag.len() as u64
        } else {
            self.hist.total()
        }
    }

    fn finalize<R2: Rng + ?Sized>(self, rng: &mut R2) -> Sample<T> {
        self.finalize_with_stats(rng).0
    }

    fn stats(&self) -> SamplerStats {
        self.stats
    }

    fn finalize_with_stats<R2: Rng + ?Sized>(mut self, rng: &mut R2) -> (Sample<T>, SamplerStats) {
        // Feed the statistical self-audit before finalization mutates the
        // state: the stats carry the full inclusion and footprint history.
        let audit = crate::audit::global();
        if self.audit_fresh {
            audit.note_sampler_run(
                self.stats.inclusions,
                crate::audit::expected_inclusions_hr(
                    self.observed,
                    self.policy.n_f(),
                    self.stats.to_phase2_at,
                ),
            );
        }
        audit.note_footprint(self.stats.footprint_hwm, self.policy.n_f());
        let close_lineage = |mut lineage: Vec<LineageEvent>, observed: u64, span: SpanId| {
            push_capped(&mut lineage, LineageEvent::Ingested { elements: observed });
            record(EventKind::Ingest, span.raw(), 0, observed, 0);
            record(EventKind::SpanEnd, span.raw(), 0, 0, 0);
            lineage
        };
        let sample = match self.phase {
            Phase::Exact => Sample::from_parts(
                self.hist,
                SampleKind::Exhaustive,
                self.observed,
                self.policy,
            ),
            Phase::Reservoir => {
                let (hist, size_is_everything) = if self.expanded {
                    // The bag holds at most n_F values: reserving its
                    // length spares the rebuild every rehash, and the
                    // shrink gives back what duplicates left unused (a
                    // no-op for a bag of distinct values).
                    let mut hist = CompactHistogram::with_slot_capacity(index_u64(self.bag.len()));
                    for v in self.bag {
                        hist.insert_one(v);
                    }
                    hist.shrink_to_fit();
                    (hist, false)
                } else {
                    // The stream ended between the phase switch and the
                    // first skip-selected insertion. The histogram still
                    // holds every element seen up to the switch.
                    let everything = self.hist.total() == self.observed;
                    (self.hist, everything)
                };
                if size_is_everything {
                    // Nothing was ever skipped: the sample is exhaustive.
                    let s = Sample::from_parts(
                        hist,
                        SampleKind::Exhaustive,
                        self.observed,
                        self.policy,
                    )
                    .with_lineage(close_lineage(
                        self.lineage,
                        self.observed,
                        self.span,
                    ));
                    return (s, self.stats);
                }
                let mut hist = hist;
                if hist.total() > self.policy.n_f() {
                    // Materialize the pending lazy purge: a reservoir of
                    // n_F over the prefix; elements after the switch were
                    // skipped by the skip distribution, so uniformity over
                    // the whole stream is preserved (§3.2 conditioning).
                    let start = Stopwatch::start();
                    hist = purge_reservoir(&hist, self.policy.n_f(), rng);
                    self.stats.record_purge(start.elapsed_ns());
                    push_capped(
                        &mut self.lineage,
                        LineageEvent::Purge {
                            kind: PurgeKind::Reservoir,
                            survivors: hist.total(),
                        },
                    );
                    record(
                        EventKind::Purge,
                        self.span.raw(),
                        0,
                        PurgeKind::Reservoir.code() as u64,
                        hist.total(),
                    );
                }
                Sample::from_parts(hist, SampleKind::Reservoir, self.observed, self.policy)
            }
        };
        let sample = sample.with_lineage(close_lineage(self.lineage, self.observed, self.span));
        (sample, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_rand::seeded_rng;
    use swh_rand::stats::{chi_square_p_value, chi_square_statistic};

    fn policy(n_f: u64) -> FootprintPolicy {
        FootprintPolicy::with_value_budget(n_f)
    }

    #[test]
    fn small_distinct_population_stays_exact() {
        let mut rng = seeded_rng(1);
        let values: Vec<u64> = (0..50_000u64).map(|i| i % 16).collect();
        let s = HybridReservoir::new(policy(64)).sample_batch(values, &mut rng);
        assert_eq!(s.kind(), SampleKind::Exhaustive);
        assert_eq!(s.size(), 50_000);
    }

    #[test]
    fn unique_population_ends_in_reservoir_of_exact_capacity() {
        let mut rng = seeded_rng(2);
        let n = 100_000u64;
        let n_f = 1024u64;
        let s = HybridReservoir::new(policy(n_f)).sample_batch(0..n, &mut rng);
        assert_eq!(s.kind(), SampleKind::Reservoir);
        assert_eq!(s.size(), n_f, "HR sample size is pinned at n_F");
        assert_eq!(s.parent_size(), n);
    }

    #[test]
    fn footprint_invariant_holds_throughout() {
        let mut rng = seeded_rng(3);
        let n_f = 128u64;
        let mut hr = HybridReservoir::new(policy(n_f));
        for v in 0..50_000u64 {
            hr.observe(v, &mut rng);
            assert!(
                hr.current_slots() <= n_f,
                "slots {} at v={v}",
                hr.current_slots()
            );
        }
        let s = hr.finalize(&mut rng);
        assert!(s.slots() <= n_f);
        assert_eq!(s.size(), n_f);
    }

    #[test]
    fn every_element_equally_likely_after_hybrid_transition() {
        let mut rng = seeded_rng(4);
        let (n, n_f, trials) = (120u64, 16u64, 30_000usize);
        let mut incl = vec![0u64; n as usize];
        for _ in 0..trials {
            let s = HybridReservoir::new(policy(n_f)).sample_batch(0..n, &mut rng);
            assert_eq!(s.size(), n_f);
            for (v, c) in s.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * n_f as f64 / n as f64;
        let exp: Vec<f64> = vec![expect; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(
            pv > 1e-4,
            "inclusion not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    #[test]
    fn stream_ending_right_after_switch_is_handled() {
        // Force the switch, then stop before any skip-selected insertion
        // can fire. The finalized sample must be a uniform subsample of
        // size n_F (or exhaustive if nothing was skipped).
        let mut rng = seeded_rng(5);
        let n_f = 16u64;
        let mut hr = HybridReservoir::new(policy(n_f));
        for v in 0..n_f {
            hr.observe(v, &mut rng); // 16 distinct singletons: slots = 16
        }
        assert_eq!(hr.phase(), 2);
        let s = hr.finalize(&mut rng);
        // Nothing was skipped: all 16 elements are present.
        assert_eq!(s.kind(), SampleKind::Exhaustive);
        assert_eq!(s.size(), n_f);
    }

    #[test]
    fn stream_ending_with_pending_purge_truncates_uniformly() {
        // Values with duplicates so that the switch happens when the
        // histogram holds more *elements* than n_F; stop immediately.
        let mut rng = seeded_rng(6);
        let n_f = 8u64;
        let mut hr = HybridReservoir::new(policy(n_f));
        // 4 pairs -> 8 slots after 8 arrivals of 4 distinct values... each
        // value twice: slots = 2*4 = 8 = n_F triggers switch; total = 8.
        for v in [1u64, 1, 2, 2, 3, 3, 4, 4] {
            hr.observe(v, &mut rng);
        }
        assert_eq!(hr.phase(), 2);
        // A few more arrivals that are skipped (never selected) keep the
        // histogram unexpanded but make it non-exhaustive.
        // next_include is at least observed+1 = 9; observe exactly until
        // just before it so no insertion occurs.
        let upto = hr.next_include - 1;
        let had_skipped_arrivals = upto > hr.observed;
        for v in hr.observed..upto {
            hr.observe(v + 100, &mut rng);
        }
        let s = hr.finalize(&mut rng);
        assert!(s.size() <= n_f);
        if had_skipped_arrivals {
            // Some arrivals were passed over: the sample is a proper subset.
            assert_eq!(s.kind(), SampleKind::Reservoir);
        } else {
            // The skip was 1, so the stream ended exactly at the switch.
            assert_eq!(s.kind(), SampleKind::Exhaustive);
        }
    }

    /// The batched fast path must be indistinguishable from the per-element
    /// loop: same sample, same statistics, same RNG draw sequence — for any
    /// chunking, including the 1 → 2 switch landing mid-batch and the lazy
    /// purge firing inside a batch.
    #[test]
    fn observe_batch_is_byte_identical_to_observe() {
        for &(n, n_f, seed) in &[
            // Stays exact.
            (100u64, 256u64, 31u64),
            // Switch mid-batch, lazy purge at the first batched inclusion.
            (50_000, 128, 32),
            // Duplicate-heavy stream exercising (value, count) pairs.
            (10_000, 64, 33),
        ] {
            for &chunk in &[1usize, 5, 97, 4096] {
                let values: Vec<u64> = (0..n).map(|i| i % (3 * n / 4).max(1)).collect();
                let mut r1 = seeded_rng(seed);
                let mut one = HybridReservoir::new(policy(n_f));
                for v in &values {
                    one.observe(*v, &mut r1);
                }
                let mut r2 = seeded_rng(seed);
                let mut batched = HybridReservoir::new(policy(n_f));
                for c in values.chunks(chunk) {
                    batched.observe_batch(c, &mut r2);
                }
                // purge_ns is wall-clock time, the one legitimately
                // non-deterministic field.
                let mask = |mut s: SamplerStats| {
                    s.purge_ns = 0;
                    s
                };
                assert_eq!(
                    mask(one.stats()),
                    mask(batched.stats()),
                    "stats diverge at n={n} n_f={n_f} chunk={chunk}"
                );
                // Both paths must have consumed the same number of draws.
                assert_eq!(
                    r1.random::<u64>(),
                    r2.random::<u64>(),
                    "RNG streams diverge at n={n} n_f={n_f} chunk={chunk}"
                );
                let s1 = one.finalize(&mut r1);
                let s2 = batched.finalize(&mut r2);
                assert_eq!(s1, s2, "samples diverge at n={n} n_f={n_f} chunk={chunk}");
            }
        }
    }

    #[test]
    fn duplicate_heavy_reservoir_keeps_no_n_f_sized_table() {
        // 2048 values twice reach the n_F = 4096 footprint, then 200k
        // copies of one value: the reservoir holds 4096 values but only a
        // few dozen distinct ones, and finalize must not keep the table it
        // reserved for 4096.
        let mut rng = seeded_rng(12);
        let stream: Vec<u64> = (0..2048u64)
            .flat_map(|v| [v, v])
            .chain(std::iter::repeat_n(7, 200_000))
            .collect();
        let s = HybridReservoir::new(policy(4096)).sample_batch(stream, &mut rng);
        assert_eq!((s.kind(), s.size()), (SampleKind::Reservoir, 4096));
        assert!(s.distinct() < 256, "{} distinct", s.distinct());
        let capacity = s.histogram().capacity();
        assert!(capacity < 1024, "kept a table for {capacity} values");
    }

    #[test]
    fn resume_from_exhaustive() {
        let mut rng = seeded_rng(7);
        let s = HybridReservoir::new(policy(64)).sample_batch(0..10u64, &mut rng);
        let mut hr = HybridReservoir::resume(s, &mut rng);
        hr.observe_all(10..20u64, &mut rng);
        let merged = hr.finalize(&mut rng);
        assert_eq!(merged.kind(), SampleKind::Exhaustive);
        assert_eq!(merged.size(), 20);
    }

    #[test]
    fn resume_from_reservoir_keeps_capacity() {
        let mut rng = seeded_rng(8);
        let n_f = 32u64;
        let s = HybridReservoir::new(policy(n_f)).sample_batch(0..10_000u64, &mut rng);
        assert_eq!(s.kind(), SampleKind::Reservoir);
        let mut hr = HybridReservoir::resume(s, &mut rng);
        hr.observe_all(10_000..20_000u64, &mut rng);
        let merged = hr.finalize(&mut rng);
        assert_eq!(merged.size(), n_f);
        assert_eq!(merged.parent_size(), 20_000);
    }

    #[test]
    fn resume_reservoir_remains_uniform() {
        // Stream 0..60 through HR with n_f 12, then resume with 60..120;
        // every element should appear with frequency 12/120.
        let mut rng = seeded_rng(9);
        let (n_f, trials) = (12u64, 20_000usize);
        let mut incl = vec![0u64; 120];
        for _ in 0..trials {
            let s = HybridReservoir::new(policy(n_f)).sample_batch(0..60u64, &mut rng);
            let mut hr = HybridReservoir::resume(s, &mut rng);
            hr.observe_all(60..120u64, &mut rng);
            for (v, _) in hr.finalize(&mut rng).histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * 12.0 / 120.0;
        let exp: Vec<f64> = vec![expect; 120];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, 119.0);
        assert!(
            pv > 1e-4,
            "resumed HR not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    #[test]
    #[should_panic(expected = "exhaustive or reservoir prior")]
    fn resume_rejects_bernoulli() {
        let mut rng = seeded_rng(10);
        let h = CompactHistogram::from_bag(vec![1u64]);
        let s = Sample::from_parts(
            h,
            SampleKind::Bernoulli {
                q: 0.5,
                p_bound: 1e-3,
            },
            10,
            policy(8),
        );
        HybridReservoir::resume(s, &mut rng);
    }
}
