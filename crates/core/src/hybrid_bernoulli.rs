//! Algorithm HB — hybrid Bernoulli sampling (§4.1, Fig. 2 of the paper).
//!
//! The sampler attempts to keep an **exact** compact histogram of the
//! partition (phase 1). If the histogram footprint reaches the bound `F`,
//! it takes a `Bern(q)` subsample (`purgeBernoulli`) and continues as a
//! Bernoulli sampler at rate `q` (phase 2), where `q = q(N, p, n_F)` is
//! chosen from the *a priori known* partition size `N` so that the sample
//! size exceeds `n_F` only with probability `p` (Eq. 1). In the unlikely
//! event the sample still reaches `n_F` values, it falls back to reservoir
//! sampling of size `n_F` (phase 3).
//!
//! Depending on the terminal phase, the finalized [`Sample`] is an exact
//! histogram of the partition, (essentially) a `Bern(q)` sample, or a
//! simple random sample of size `n_F` — always **uniform**, always within
//! the footprint bound, and compact whenever possible.

use crate::footprint::FootprintPolicy;
use crate::histogram::CompactHistogram;
use crate::invariant::invariant;
use crate::lineage::{push_capped, LineageEvent, PurgeKind};
use crate::purge::{purge_bernoulli, purge_reservoir};
use crate::qbound::q_approx;
use crate::sample::{Sample, SampleKind};
use crate::sampler::{flush_observe_segment, Sampler};
use crate::stats::SamplerStats;
use crate::value::SampleValue;
use rand::Rng;
use swh_obs::journal::{record, EventKind};
use swh_obs::profile;
use swh_obs::trace::{next_span_id, Op, SpanId};
use swh_obs::Stopwatch;
use swh_rand::checked::{as_index, index_u64};
use swh_rand::skip::{BernoulliSkip, ReservoirSkip};

/// Default target probability that a phase-2 sample exceeds `n_F`
/// (the paper's experiments use `p = 0.001`).
pub const DEFAULT_P_BOUND: f64 = 1e-3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Exact,
    Bernoulli,
    Reservoir,
}

impl Phase {
    /// Tag used in `observe/hb/{phase}/s{bucket}` profile paths.
    fn tag(self) -> &'static str {
        match self {
            Phase::Exact => "exact",
            Phase::Bernoulli => "bernoulli",
            Phase::Reservoir => "reservoir",
        }
    }
}

/// Streaming Algorithm HB sampler.
///
/// ```
/// use swh_core::{FootprintPolicy, HybridBernoulli, SampleKind, Sampler};
/// use swh_rand::seeded_rng;
///
/// let mut rng = seeded_rng(1);
/// let policy = FootprintPolicy::with_value_budget(512);
/// // HB needs the (expected) partition size a priori to derive its rate.
/// let sample = HybridBernoulli::new(policy, 100_000)
///     .sample_batch(0..100_000u64, &mut rng);
/// assert!(matches!(sample.kind(), SampleKind::Bernoulli { .. }));
/// assert!(sample.size() <= 512);
/// ```
#[derive(Debug, Clone)]
pub struct HybridBernoulli<T: SampleValue> {
    policy: FootprintPolicy,
    /// A priori expected population size `N` used to derive `q`.
    expected_n: u64,
    p_bound: f64,
    /// Phase-2 Bernoulli rate `q(N, p, n_F)`.
    q: f64,
    /// Phase-2 gap generator at rate `q`, sharing one cached `ln(1 − q)`
    /// across every geometric draw. Rebuilt when `resume` adopts a prior's
    /// rate.
    gaps: BernoulliSkip,
    phase: Phase,
    /// Compact sample: `S` in phase 1, the precomputed subsample `S′`
    /// afterwards (until expansion).
    hist: CompactHistogram<T>,
    /// Expanded bag of values (valid once `expanded`).
    bag: Vec<T>,
    expanded: bool,
    /// Elements observed so far (the paper's `i`).
    observed: u64,
    /// Phase 2: elements still to pass over before the next inclusion.
    skip_remaining: u64,
    /// Phase 3: 1-based index of the next element to include.
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

impl<T: SampleValue> HybridBernoulli<T> {
    /// Create an HB sampler for a partition of known (expected) size
    /// `expected_n`, with the default exceedance probability `p = 0.001`.
    pub fn new(policy: FootprintPolicy, expected_n: u64) -> Self {
        Self::with_p_bound(policy, expected_n, DEFAULT_P_BOUND)
    }

    /// Create an HB sampler with an explicit exceedance probability.
    ///
    /// # Panics
    /// Panics unless `0 < p_bound < 1` and `expected_n ≥ 1`.
    pub fn with_p_bound(policy: FootprintPolicy, expected_n: u64, p_bound: f64) -> Self {
        // Reserve the phase-1 histogram up front: distinct values never
        // exceed the slot bound `n_F`, so the hot loop never rehashes.
        let hist = CompactHistogram::with_slot_capacity(policy.n_f());
        Self::with_histogram(policy, expected_n, p_bound, hist)
    }

    /// [`with_p_bound`](Self::with_p_bound) over a given starting
    /// histogram: the reserved empty table, or a resumed prior's own
    /// histogram, which must not pay for an `n_F`-slot table it would
    /// discard.
    fn with_histogram(
        policy: FootprintPolicy,
        expected_n: u64,
        p_bound: f64,
        hist: CompactHistogram<T>,
    ) -> Self {
        let q = q_approx(expected_n, p_bound, policy.n_f());
        invariant!(
            q > 0.0 && q <= 1.0,
            "q(N={expected_n}, p={p_bound}, n_F={}) = {q} is outside (0, 1]",
            policy.n_f()
        );
        let span = next_span_id();
        record(EventKind::SpanStart, span.raw(), 0, Op::Ingest.code(), 0);
        Self {
            policy,
            expected_n,
            p_bound,
            q,
            gaps: BernoulliSkip::new(q),
            phase: Phase::Exact,
            hist,
            bag: Vec::new(),
            expanded: false,
            observed: 0,
            skip_remaining: 0,
            next_include: 0,
            skip_gen: None,
            stats: SamplerStats::default(),
            lineage: Vec::new(),
            span,
            audit_fresh: true,
        }
    }

    /// Resume sampling from a previously finalized sample, as `HBMerge`
    /// (Fig. 6, lines 1–4) requires: the running sample is initialized to
    /// `prior` and the algorithm placed in the phase matching the prior's
    /// provenance. `expected_total_n` is the size of the *combined* parent
    /// (prior partition plus the values about to be streamed), used to
    /// derive `q` if the sampler later enters phase 2 from phase 1.
    ///
    /// # Panics
    /// Panics if `prior` is a concise sample (not uniform, not resumable),
    /// or if a Bernoulli/reservoir prior exceeds the policy's budget.
    pub fn resume<R: Rng + ?Sized>(
        prior: Sample<T>,
        expected_total_n: u64,
        p_bound: f64,
        rng: &mut R,
    ) -> Self {
        let policy = prior.policy();
        let n_f = policy.n_f();
        let parent = prior.parent_size();
        let kind = prior.kind();
        let prior_lineage = prior.lineage().to_vec();
        let hist = prior.into_histogram();
        let mut resumed = match kind {
            SampleKind::Exhaustive => {
                let mut s = Self::with_histogram(policy, expected_total_n, p_bound, hist);
                s.observed = parent;
                // The prior was within bounds by construction; if it sits at
                // the boundary the next insertion will trigger the switch.
                s
            }
            SampleKind::Bernoulli {
                q,
                p_bound: prior_p,
            } => {
                assert!(hist.total() <= n_f, "Bernoulli prior exceeds budget");
                let mut s = Self::with_histogram(policy, expected_total_n, prior_p, hist);
                // Continue at the prior's rate: the already-collected part
                // was sampled at q and cannot be re-rated upward.
                invariant!(
                    q > 0.0 && q <= 1.0,
                    "resumed Bernoulli rate {q} is outside (0, 1]"
                );
                s.q = q;
                s.gaps = BernoulliSkip::new(q);
                s.advance_phase(Phase::Bernoulli);
                s.observed = parent;
                s.skip_remaining = s.gaps.skip(rng);
                s
            }
            SampleKind::Reservoir => {
                assert!(hist.total() <= n_f, "reservoir prior exceeds budget");
                let k = hist.total();
                let mut s = Self::with_histogram(policy, expected_total_n, p_bound, hist);
                s.advance_phase(Phase::Reservoir);
                s.observed = parent.max(k);
                if k == 0 {
                    // Degenerate capacity-0 reservoir: stays empty; no
                    // insertion may ever fire (see HybridReservoir::resume).
                    s.next_include = u64::MAX;
                    s.skip_gen = None;
                } else {
                    let mut gen = ReservoirSkip::new(k, rng);
                    s.next_include = s.observed + gen.skip(s.observed, rng);
                    s.skip_gen = Some(gen);
                }
                s
            }
            SampleKind::Concise { .. } => {
                panic!("concise samples are not uniform and cannot be resumed")
            }
        };
        resumed.lineage = prior_lineage;
        resumed.audit_fresh = false;
        resumed
    }

    /// The phase-2 Bernoulli rate `q`.
    pub fn rate(&self) -> f64 {
        self.q
    }

    /// Current phase (1, 2, or 3), matching the paper's numbering.
    pub fn phase(&self) -> u8 {
        match self.phase {
            Phase::Exact => 1,
            Phase::Bernoulli => 2,
            Phase::Reservoir => 3,
        }
    }

    /// Current footprint in value slots (compact or expanded, whichever is
    /// live). Never exceeds `n_F` — the invariant the tests assert.
    pub fn current_slots(&self) -> u64 {
        if self.expanded {
            self.bag.len() as u64
        } else {
            self.hist.slots()
        }
    }

    /// The a priori population size `N` this sampler derived its rate from.
    pub fn expected_n(&self) -> u64 {
        self.expected_n
    }

    fn expand_in_place(&mut self) {
        debug_assert!(!self.expanded);
        let mut bag = std::mem::take(&mut self.hist).into_bag();
        // Phase 2 grows the bag to at most n_F before the phase-3 switch;
        // reserve once so inclusions never reallocate.
        bag.reserve(as_index(self.policy.n_f()).saturating_sub(bag.len()));
        self.bag = bag;
        self.expanded = true;
    }

    /// Enter `next`, asserting (under `debug_invariants`) that HB phases
    /// only ever advance 1 → 2 → 3 and never revisit an earlier phase.
    fn advance_phase(&mut self, next: Phase) {
        invariant!(
            self.phase < next,
            "HB phase transition must be monotone, attempted {:?} -> {next:?}",
            self.phase
        );
        self.phase = next;
    }

    /// Fig. 2 lines 3–10: footprint hit the bound; precompute the Bernoulli
    /// subsample `S′` and pick the next phase.
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
        let start = Stopwatch::start();
        purge_bernoulli(&mut self.hist, self.q, rng);
        self.stats.record_purge(start.elapsed_ns());
        self.stats.enter_phase2(self.observed);
        self.note_purge(PurgeKind::Bernoulli, self.hist.total());
        if self.hist.total() < self.policy.n_f() {
            self.advance_phase(Phase::Bernoulli);
            self.note_transition(1, 2, self.q);
            // Audit the adopted rate against the Eq. 1 bound for this
            // sampler's own parameters (non-trivial when `resume` adopted
            // a prior partition's rate).
            crate::audit::global().note_q_decay(
                self.q,
                crate::qbound::q_approx(self.expected_n.max(1), self.p_bound, self.policy.n_f()),
            );
            self.skip_remaining = self.gaps.skip(rng);
        } else {
            // Subsample too large (low probability): reservoir fallback.
            let start = Stopwatch::start();
            if self.hist.total() > self.policy.n_f() {
                self.hist = purge_reservoir(&self.hist, self.policy.n_f(), rng);
            }
            self.stats.record_purge(start.elapsed_ns());
            self.stats.enter_phase3(self.observed);
            self.note_purge(PurgeKind::Reservoir, self.hist.total());
            self.advance_phase(Phase::Reservoir);
            self.note_transition(1, 3, 0.0);
            let mut gen = ReservoirSkip::new(self.policy.n_f(), rng);
            self.next_include = self.observed + gen.skip(self.observed, rng);
            self.skip_gen = Some(gen);
        }
        invariant!(
            self.hist.total() <= self.policy.n_f(),
            "footprint {} exceeds n_F = {} after the phase-1 purge",
            self.hist.total(),
            self.policy.n_f()
        );
    }

    /// Record a phase transition in the lineage and the journal.
    fn note_transition(&mut self, from: u8, to: u8, q: f64) {
        let footprint_slots = self.current_slots();
        push_capped(
            &mut self.lineage,
            LineageEvent::PhaseTransition {
                from,
                to,
                q,
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

    /// Record a purge in the lineage and the journal.
    fn note_purge(&mut self, kind: PurgeKind, survivors: u64) {
        push_capped(&mut self.lineage, LineageEvent::Purge { kind, survivors });
        record(
            EventKind::Purge,
            self.span.raw(),
            0,
            kind.code() as u64,
            survivors,
        );
    }

    /// Human-readable name of the current phase.
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Exact => "exact histogram",
            Phase::Bernoulli => "bernoulli",
            Phase::Reservoir => "reservoir",
        }
    }
}

impl<T: SampleValue> std::fmt::Display for HybridBernoulli<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HB[phase {} ({}), q={:.6}, {}/{} slots, {} observed]",
            self.phase(),
            self.phase_name(),
            self.q,
            self.current_slots(),
            self.policy.n_f(),
            self.observed,
        )
    }
}

impl<T: SampleValue> Sampler<T> for HybridBernoulli<T> {
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
            Phase::Bernoulli => {
                if self.skip_remaining > 0 {
                    self.skip_remaining -= 1;
                    self.stats.reject();
                    return;
                }
                if !self.expanded {
                    self.expand_in_place();
                }
                self.bag.push(value);
                self.stats.include();
                self.skip_remaining = self.gaps.skip(rng);
                if self.bag.len() as u64 == self.policy.n_f() {
                    // Sample hit the hard bound (low probability): switch to
                    // reservoir mode.
                    self.stats.enter_phase3(self.observed);
                    self.advance_phase(Phase::Reservoir);
                    self.note_transition(2, 3, 0.0);
                    let mut gen = ReservoirSkip::new(self.policy.n_f(), rng);
                    self.next_include = self.observed + gen.skip(self.observed, rng);
                    self.skip_gen = Some(gen);
                }
            }
            Phase::Reservoir => {
                if self.observed == self.next_include {
                    if !self.expanded {
                        // Entered phase 3 directly from phase 1.
                        self.expand_in_place();
                    }
                    let victim = rng.random_range(0..self.bag.len());
                    self.bag[victim] = value;
                    self.stats.include();
                    let gen = self
                        .skip_gen
                        .as_mut()
                        // swh-analyze: allow(panic) -- phase-3 insertions only fire when next_include is finite, which implies a generator (degenerate reservoirs pin next_include to u64::MAX)
                        .expect("phase 3 has a skip generator");
                    self.next_include = self.observed + gen.skip(self.observed, rng);
                } else {
                    self.stats.reject();
                }
            }
        }
        self.stats.record_footprint(self.current_slots());
    }

    /// Phase-aware bulk path. Byte-identical to the element-wise loop for
    /// any chunking of the stream: each phase consumes as much of the slice
    /// as it can with the same RNG draws, and a phase transition landing
    /// mid-batch splits the slice and continues in the new phase.
    fn observe_batch<R: Rng + ?Sized>(&mut self, values: &[T], rng: &mut R) {
        // Phase segments for the profiler: the phase advances at most twice
        // per batch, so flushing one `observe/hb/{phase}/s{bucket}` record
        // per segment keeps the cost at batch (not element) granularity.
        let profiled = profile::enabled();
        let mut seg_sw = Stopwatch::start();
        let mut seg_phase = self.phase;
        let mut seg_obs = self.observed;
        let mut rest = values;
        while !rest.is_empty() {
            if profiled && self.phase != seg_phase {
                flush_observe_segment("hb", seg_phase.tag(), self.observed - seg_obs, &seg_sw);
                seg_sw = Stopwatch::start();
                seg_phase = self.phase;
                seg_obs = self.observed;
            }
            match self.phase {
                Phase::Exact => {
                    // Insert until the footprint trips or the batch ends.
                    // Phase-1 slots are monotone non-decreasing, so
                    // recording the footprint at the group boundaries (and
                    // just before the purge) reproduces the per-element
                    // high-water mark exactly.
                    let mut used = 0usize;
                    for v in rest {
                        used += 1;
                        self.observed += 1;
                        let pre_insert = self.hist.slots();
                        self.hist.insert_one(v.clone());
                        self.stats.include();
                        if self.policy.compact_overflows(self.hist.slots()) {
                            self.stats.record_footprint(pre_insert);
                            self.leave_phase1(rng);
                            break;
                        }
                    }
                    self.stats.record_footprint(self.current_slots());
                    rest = &rest[used..];
                }
                Phase::Bernoulli => {
                    let remaining = index_u64(rest.len());
                    if self.skip_remaining >= remaining {
                        // The pending geometric gap swallows the whole
                        // group: one bulk counter update, no RNG draws —
                        // exactly what the per-element loop would do.
                        self.skip_remaining -= remaining;
                        self.observed += remaining;
                        self.stats.rejections += remaining;
                        break;
                    }
                    // Jump straight to the element the gap selects; the
                    // inclusion below mirrors `observe` line for line.
                    let idx = as_index(self.skip_remaining);
                    self.observed += self.skip_remaining + 1;
                    self.stats.rejections += self.skip_remaining;
                    if !self.expanded {
                        self.expand_in_place();
                    }
                    self.bag.push(rest[idx].clone());
                    self.stats.include();
                    self.skip_remaining = self.gaps.skip(rng);
                    if index_u64(self.bag.len()) == self.policy.n_f() {
                        self.stats.enter_phase3(self.observed);
                        self.advance_phase(Phase::Reservoir);
                        self.note_transition(2, 3, 0.0);
                        let mut gen = ReservoirSkip::new(self.policy.n_f(), rng);
                        self.next_include = self.observed + gen.skip(self.observed, rng);
                        self.skip_gen = Some(gen);
                    }
                    self.stats.record_footprint(self.current_slots());
                    rest = &rest[idx + 1..];
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
                        // Entered phase 3 directly from phase 1.
                        self.expand_in_place();
                    }
                    let victim = rng.random_range(0..self.bag.len());
                    self.bag[victim] = rest[idx].clone();
                    self.stats.include();
                    let gen = self
                        .skip_gen
                        .as_mut()
                        // swh-analyze: allow(panic) -- as in observe: a finite next_include implies a generator (degenerate reservoirs pin next_include to u64::MAX)
                        .expect("phase 3 has a skip generator");
                    self.next_include = self.observed + gen.skip(self.observed, rng);
                    self.stats.record_footprint(self.current_slots());
                    rest = &rest[idx + 1..];
                }
            }
        }
        if profiled && self.observed > seg_obs {
            flush_observe_segment("hb", seg_phase.tag(), self.observed - seg_obs, &seg_sw);
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

    fn finalize<R2: Rng + ?Sized>(self, _rng: &mut R2) -> Sample<T> {
        let hist = if self.expanded {
            CompactHistogram::from_bag(self.bag)
        } else {
            self.hist
        };
        let kind = match self.phase {
            Phase::Exact => SampleKind::Exhaustive,
            Phase::Bernoulli => SampleKind::Bernoulli {
                q: self.q,
                p_bound: self.p_bound,
            },
            Phase::Reservoir => SampleKind::Reservoir,
        };
        let mut lineage = self.lineage;
        push_capped(
            &mut lineage,
            LineageEvent::Ingested {
                elements: self.observed,
            },
        );
        record(EventKind::Ingest, self.span.raw(), 0, self.observed, 0);
        record(EventKind::SpanEnd, self.span.raw(), 0, 0, 0);
        // Feed the statistical self-audit: observed inclusions vs the
        // closed-form expectation for this run's phase trajectory, and
        // the footprint high-water mark vs n_F.
        let audit = crate::audit::global();
        if self.audit_fresh {
            audit.note_sampler_run(
                self.stats.inclusions,
                crate::audit::expected_inclusions_hb(
                    self.observed,
                    self.q,
                    self.policy.n_f(),
                    self.stats.to_phase2_at,
                    self.stats.to_phase3_at,
                ),
            );
        }
        audit.note_footprint(self.stats.footprint_hwm, self.policy.n_f());
        Sample::from_parts(hist, kind, self.observed, self.policy).with_lineage(lineage)
    }

    fn stats(&self) -> SamplerStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_rand::seeded_rng;

    fn policy(n_f: u64) -> FootprintPolicy {
        FootprintPolicy::with_value_budget(n_f)
    }

    #[test]
    fn small_distinct_population_stays_exact() {
        let mut rng = seeded_rng(1);
        // 10 distinct values repeated: footprint 20 slots < 64.
        let values: Vec<u64> = (0..10_000u64).map(|i| i % 10).collect();
        let s = HybridBernoulli::new(policy(64), 10_000).sample_batch(values, &mut rng);
        assert_eq!(s.kind(), SampleKind::Exhaustive);
        assert_eq!(s.size(), 10_000);
        for v in 0..10u64 {
            assert_eq!(s.histogram().count(&v), 1_000);
        }
    }

    #[test]
    fn unique_population_ends_in_bernoulli() {
        let mut rng = seeded_rng(2);
        let n = 100_000u64;
        let s = HybridBernoulli::new(policy(1024), n).sample_batch(0..n, &mut rng);
        match s.kind() {
            SampleKind::Bernoulli { q, .. } => {
                // E|S| = Nq, a bit under n_F.
                let mean = n as f64 * q;
                assert!(mean < 1024.0 && mean > 900.0, "mean {mean}");
            }
            k => panic!("expected Bernoulli, got {k:?}"),
        }
        assert!(s.size() <= 1024);
        assert!(s.size() > 800, "size {} unexpectedly small", s.size());
    }

    #[test]
    fn footprint_invariant_holds_throughout() {
        let mut rng = seeded_rng(3);
        let n_f = 128u64;
        let mut hb = HybridBernoulli::new(policy(n_f), 50_000);
        for v in 0..50_000u64 {
            hb.observe(v, &mut rng);
            assert!(
                hb.current_slots() <= n_f,
                "slots {} at v={v}",
                hb.current_slots()
            );
            assert!(
                hb.current_size() <= n_f.max(hb.observed()),
                "size over bound"
            );
        }
        let s = hb.finalize(&mut rng);
        assert!(s.slots() <= n_f);
    }

    #[test]
    fn tiny_p_forces_reservoir_rarely() {
        // With p = 0.5 the Bernoulli rate is aggressive, so phase 3 should
        // occur in an appreciable fraction of runs; with p = 1e-5 it should
        // be (nearly) absent.
        let mut rng = seeded_rng(4);
        let n = 20_000u64;
        let runs = 200;
        let count_phase3 = |p: f64, rng: &mut rand::rngs::SmallRng| {
            (0..runs)
                .filter(|_| {
                    let s =
                        HybridBernoulli::with_p_bound(policy(256), n, p).sample_batch(0..n, rng);
                    s.kind() == SampleKind::Reservoir
                })
                .count()
        };
        let aggressive = count_phase3(0.5, &mut rng);
        let conservative = count_phase3(1e-5, &mut rng);
        assert!(
            aggressive > 20,
            "p=0.5 should often overflow, got {aggressive}/{runs}"
        );
        assert_eq!(conservative, 0, "p=1e-5 should essentially never overflow");
    }

    #[test]
    fn every_element_equally_likely_after_hybrid_transition() {
        // End-to-end uniformity across the phase-1 → phase-2 transition:
        // each of n elements must appear with equal frequency.
        let mut rng = seeded_rng(5);
        let (n, n_f, trials) = (200u64, 32u64, 30_000usize);
        let mut incl = vec![0u64; n as usize];
        let mut total = 0u64;
        for _ in 0..trials {
            let s = HybridBernoulli::new(policy(n_f), n).sample_batch(0..n, &mut rng);
            for (v, c) in s.histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
                total += 1;
            }
        }
        let expect = total as f64 / n as f64;
        for (v, &c) in incl.iter().enumerate() {
            let z = (c as f64 - expect) / expect.sqrt();
            assert!(
                z.abs() < 5.0,
                "element {v}: count {c}, expect {expect:.1}, z={z:.2}"
            );
        }
    }

    #[test]
    fn mean_sample_size_tracks_nq() {
        let mut rng = seeded_rng(6);
        let (n, n_f) = (50_000u64, 512u64);
        let trials = 100;
        let mut sum = 0u64;
        let mut q_used = 0.0;
        for _ in 0..trials {
            let s = HybridBernoulli::new(policy(n_f), n).sample_batch(0..n, &mut rng);
            if let SampleKind::Bernoulli { q, .. } = s.kind() {
                q_used = q;
            }
            sum += s.size();
        }
        let mean = sum as f64 / trials as f64;
        let expect = n as f64 * q_used;
        assert!(
            (mean / expect - 1.0).abs() < 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn resume_from_exhaustive_continues_phase1() {
        let mut rng = seeded_rng(7);
        let s = HybridBernoulli::new(policy(64), 10).sample_batch(0..10u64, &mut rng);
        assert_eq!(s.kind(), SampleKind::Exhaustive);
        let mut hb = HybridBernoulli::resume(s, 20, 1e-3, &mut rng);
        hb.observe_all(10..20u64, &mut rng);
        let merged = hb.finalize(&mut rng);
        assert_eq!(merged.kind(), SampleKind::Exhaustive);
        assert_eq!(merged.size(), 20);
        assert_eq!(merged.parent_size(), 20);
    }

    #[test]
    fn resume_from_bernoulli_keeps_rate() {
        let mut rng = seeded_rng(8);
        let n = 100_000u64;
        let s = HybridBernoulli::new(policy(512), n).sample_batch(0..n, &mut rng);
        let q1 = match s.kind() {
            SampleKind::Bernoulli { q, .. } => q,
            k => panic!("{k:?}"),
        };
        let hb = HybridBernoulli::resume(s, 2 * n, 1e-3, &mut rng);
        assert_eq!(hb.rate(), q1);
        assert_eq!(hb.phase(), 2);
    }

    /// The batched fast path must be indistinguishable from the per-element
    /// loop: same sample, same statistics, same RNG draw sequence — for any
    /// chunking, across all three phases, including transitions that land
    /// mid-batch.
    #[test]
    fn observe_batch_is_byte_identical_to_observe() {
        let mut saw_phase3 = false;
        for &(n, n_f, p_bound, seed) in &[
            // Stays exact: small distinct population.
            (50u64, 128u64, 1e-3, 23u64),
            // 1 → 2 transition mid-batch (slots hit 32 inside a 64-chunk).
            (200, 32, 1e-3, 21),
            // Aggressive rate: overflows into phase 3.
            (20_000, 64, 0.99, 22),
            // Duplicate-heavy stream exercising (value, count) pairs.
            (5_000, 48, 0.5, 24),
        ] {
            for &chunk in &[1usize, 3, 7, 64, 1024] {
                let values: Vec<u64> = (0..n).map(|i| i % (3 * n / 4).max(1)).collect();
                let mut r1 = seeded_rng(seed);
                let mut one = HybridBernoulli::with_p_bound(policy(n_f), n, p_bound);
                for v in &values {
                    one.observe(*v, &mut r1);
                }
                let mut r2 = seeded_rng(seed);
                let mut batched = HybridBernoulli::with_p_bound(policy(n_f), n, p_bound);
                for c in values.chunks(chunk) {
                    batched.observe_batch(c, &mut r2);
                }
                saw_phase3 |= one.phase() == 3;
                // purge_ns is wall-clock time, the one legitimately
                // non-deterministic field.
                let mask = |mut s: SamplerStats| {
                    s.purge_ns = 0;
                    s
                };
                assert_eq!(
                    mask(one.stats()),
                    mask(batched.stats()),
                    "stats diverge at n={n} n_f={n_f} p={p_bound} chunk={chunk}"
                );
                // Both paths must have consumed the same number of draws.
                assert_eq!(
                    r1.random::<u64>(),
                    r2.random::<u64>(),
                    "RNG streams diverge at n={n} n_f={n_f} p={p_bound} chunk={chunk}"
                );
                let s1 = one.finalize(&mut r1);
                let s2 = batched.finalize(&mut r2);
                assert_eq!(
                    s1, s2,
                    "samples diverge at n={n} n_f={n_f} p={p_bound} chunk={chunk}"
                );
            }
        }
        assert!(saw_phase3, "test matrix never exercised phase 3");
    }

    #[test]
    fn observed_counts_all_arrivals() {
        let mut rng = seeded_rng(9);
        let mut hb = HybridBernoulli::new(policy(16), 1000);
        hb.observe_all(0..1000u64, &mut rng);
        assert_eq!(hb.observed(), 1000);
    }

    #[test]
    #[should_panic(expected = "concise samples are not uniform")]
    fn resume_rejects_concise() {
        let mut rng = seeded_rng(10);
        let h = CompactHistogram::from_bag(vec![1u64]);
        let s = Sample::from_parts_unchecked(h, SampleKind::Concise { q: 0.5 }, 10, policy(8));
        HybridBernoulli::resume(s, 20, 1e-3, &mut rng);
    }
}
