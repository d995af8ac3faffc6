//! The hypergeometric distribution used by `HRMerge`.
//!
//! When merging two reservoir samples drawn from disjoint partitions `D1` and
//! `D2`, the number `L` of elements the merged sample of size `k` takes from
//! the first sample must follow (Eq. 2 of the paper)
//!
//! ```text
//! P(l) = C(|D1|, l) · C(|D2|, k−l) / C(|D1|+|D2|, k),   l = 0..k,
//! ```
//!
//! i.e. a hypergeometric distribution. The paper's Eq. (3) gives the
//! recurrence
//!
//! ```text
//! P(l+1) = (k−l)(|D1|−l) / ((l+1)(|D2|−k+l+1)) · P(l)
//! ```
//!
//! [`draw`] — the split sampler every merge uses — evaluates it outward
//! from the mode over only the window that carries the mass, so one draw
//! costs `O(√k)`, not `O(k)`. [`Hypergeometric`] tabulates the whole pmf in
//! log space (inversion or a Walker/Vose [`AliasTable`] over it) for tests
//! and benchmarks that need the full distribution.

use crate::alias::AliasTable;
use crate::checked::{as_index, exact_f64, index_u64};
use crate::stats::ln_choose;
use rand::Rng;

/// Smallest term, relative to the mode's, that [`draw`]'s window keeps:
/// 2⁻⁶⁴. The pmf is unimodal, so every term beyond the first one below
/// this is smaller still, and the dropped tails never weigh more than a
/// rounding error of the inversion.
const WINDOW_FLOOR: f64 = 1.0 / 18_446_744_073_709_551_616.0;

/// Draw the split `L` of Eq. (2) — how many of a simple random sample of
/// size `k` from `D1 ∪ D2` fall in `D1`, with `d1 = |D1|`, `d2 = |D2|` —
/// in time proportional to the distribution's spread (`O(√k)`), not its
/// support.
///
/// Starting from the mode, the Eq. (3) recurrence is evaluated outward on
/// both sides until the terms fall below 2⁻⁶⁴ of the mode's; that window is
/// normalized and inverted with one uniform, the same single uniform
/// [`Hypergeometric::sample`] consumes. With the same uniform both invert
/// the same cumulative distribution up to the dropped tails, so a seeded
/// split practically never differs between the two.
///
/// ```
/// use swh_rand::{hypergeometric::draw, seeded_rng};
///
/// let mut rng = seeded_rng(7);
/// let l = draw(1 << 26, 1 << 26, 8192, &mut rng);
/// assert!(l <= 8192);
/// // A degenerate support has one outcome.
/// assert_eq!(draw(6, 4, 10, &mut rng), 6);
/// ```
///
/// # Panics
/// Panics if `k > d1 + d2`, or if a count exceeds 2⁵³.
pub fn draw<R: Rng + ?Sized>(d1: u64, d2: u64, k: u64, rng: &mut R) -> u64 {
    assert!(
        k <= d1 + d2,
        "merged size k={k} exceeds population {d1}+{d2}"
    );
    let u = rng.random::<f64>();
    // Feasible support: max(0, k - d2) ..= min(k, d1).
    let lo = k.saturating_sub(d2);
    let hi = k.min(d1);
    if lo == hi {
        return lo;
    }
    // Eq. (3): P(l+1)/P(l), positive for lo <= l < hi.
    let ratio = |l: u64| {
        exact_f64(k - l) * exact_f64(d1 - l) / (exact_f64(l + 1) * exact_f64(d2 + l + 1 - k))
    };
    // The mode floor((k+1)(d1+1)/(d1+d2+2)), in u128 so the product cannot
    // overflow; it never exceeds k + 1, so it fits back in a u64.
    let mode = (u128::from(k) + 1) * (u128::from(d1) + 1) / (u128::from(d1) + u128::from(d2) + 2);
    let mode = u64::try_from(mode).map_or(hi, |m| m.clamp(lo, hi));
    // Terms relative to the mode's, left tail first (pushed outward, then
    // reversed into support order).
    let mut terms = Vec::new();
    let (mut t, mut l) = (1.0f64, mode);
    while l > lo {
        t /= ratio(l - 1);
        if t < WINDOW_FLOOR {
            break;
        }
        terms.push(t);
        l -= 1;
    }
    let first = l;
    terms.reverse();
    terms.push(1.0);
    let (mut t, mut l) = (1.0f64, mode);
    while l < hi {
        t *= ratio(l);
        if t < WINDOW_FLOOR {
            break;
        }
        terms.push(t);
        l += 1;
    }
    // Invert: the first l whose cumulative mass reaches u of the window's.
    // Summing in the same order as the scan makes the last cumulative value
    // equal the total exactly, so the scan always stops inside the window.
    let target = u * terms.iter().sum::<f64>();
    let mut acc = 0.0;
    for (i, &t) in terms.iter().enumerate() {
        acc += t;
        if acc >= target {
            return first + index_u64(i);
        }
    }
    first + index_u64(terms.len() - 1)
}

/// Precomputed hypergeometric distribution `P(l)`, `l = 0..=k`.
///
/// Parameters mirror the paper's notation: `d1 = |D1|`, `d2 = |D2|`, and `k`
/// is the merged sample size with `k ≤ d1 + d2`. Building the table costs
/// one `ln` and one `exp` per support point, so merges draw their splits
/// with [`draw`] instead; the table serves tests and benchmarks that need
/// the whole pmf, and the alias method.
///
/// ```
/// use swh_rand::{seeded_rng, Hypergeometric};
///
/// // How many of a 10-element SRS from a 60+40 union come from the
/// // 60-element side?
/// let h = Hypergeometric::new(60, 40, 10);
/// assert!((h.mean() - 6.0).abs() < 1e-12);
/// let mut rng = seeded_rng(7);
/// let l = h.sample(&mut rng);
/// assert!(l <= 10);
/// ```
#[derive(Debug, Clone)]
pub struct Hypergeometric {
    d1: u64,
    d2: u64,
    k: u64,
    /// Normalized pmf values; `probs[l] = P(L = l)`.
    probs: Vec<f64>,
    /// Cumulative distribution, for inversion sampling.
    cdf: Vec<f64>,
}

impl Hypergeometric {
    /// Build the pmf via the log-space recurrence of Eq. (3).
    ///
    /// # Panics
    /// Panics if `k > d1 + d2`.
    pub fn new(d1: u64, d2: u64, k: u64) -> Self {
        assert!(
            k <= d1 + d2,
            "merged size k={k} exceeds population {d1}+{d2}"
        );
        // Feasible support: max(0, k - d2) ..= min(k, d1).
        let lo = k.saturating_sub(d2);
        let hi = k.min(d1);
        debug_assert!(lo <= hi);

        // Log pmf via recurrence, anchored at lo with value 0 (unnormalized).
        let len = as_index(k + 1);
        let mut ln_p = vec![f64::NEG_INFINITY; len];
        ln_p[as_index(lo)] = 0.0;
        let mut cur = 0.0f64;
        for l in lo..hi {
            // Eq. (3): P(l+1)/P(l) = (k-l)(d1-l) / ((l+1)(d2-k+l+1)).
            let num = exact_f64(k - l) * exact_f64(d1 - l);
            let den = exact_f64(l + 1) * exact_f64(d2 + l + 1 - k);
            cur += (num / den).ln();
            ln_p[as_index(l + 1)] = cur;
        }
        // Exp-normalize.
        let max = ln_p[as_index(lo)..=as_index(hi)]
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        let mut probs = vec![0.0f64; len];
        let mut total = 0.0;
        for l in lo..=hi {
            let v = (ln_p[as_index(l)] - max).exp();
            probs[as_index(l)] = v;
            total += v;
        }
        let mut cdf = Vec::with_capacity(len);
        let mut acc = 0.0;
        for p in probs.iter_mut() {
            *p /= total;
            acc += *p;
            cdf.push(acc);
        }
        // Clamp the final cumulative value to exactly one.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self {
            d1,
            d2,
            k,
            probs,
            cdf,
        }
    }

    /// `P(L = l)`; zero outside the feasible support.
    pub fn pmf(&self, l: u64) -> f64 {
        usize::try_from(l)
            .ok()
            .and_then(|i| self.probs.get(i))
            .copied()
            .unwrap_or(0.0)
    }

    /// Exact pmf computed directly from Eq. (2) via log binomial
    /// coefficients. Exposed so tests and benchmarks can cross-check the
    /// recurrence.
    pub fn pmf_direct(&self, l: u64) -> f64 {
        if l > self.k {
            return 0.0;
        }
        (ln_choose(self.d1, l) + ln_choose(self.d2, self.k - l)
            - ln_choose(self.d1 + self.d2, self.k))
        .exp()
    }

    /// The full normalized probability vector (length `k + 1`).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Merged sample size `k`.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// Expected value `k·d1/(d1+d2)`.
    pub fn mean(&self) -> f64 {
        exact_f64(self.k) * exact_f64(self.d1) / exact_f64(self.d1 + self.d2)
    }

    /// Draw `L` by inversion: binary search of the cumulative distribution.
    ///
    /// This is the paper's "straightforward inversion approach"; it costs
    /// `O(log k)` per draw after the `O(k)` table construction.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u = rng.random::<f64>();
        // partition_point returns the count of elements < u, i.e. the first
        // index with cdf >= u.
        index_u64(self.cdf.partition_point(|&c| c < u))
    }

    /// Build an alias table for `O(1)` repeated draws (§4.2 of the paper:
    /// symmetric pairwise merge trees reuse a small set of distributions).
    pub fn alias_table(&self) -> AliasTable {
        AliasTable::new(&self.probs)
    }
}

/// Draw a multivariate hypergeometric vector: the composition
/// `(L_1, ..., L_m)` of a simple random sample of size `k` drawn from the
/// union of `m` disjoint groups with sizes `populations[i]`.
///
/// Generalizes Eq. (2) to `m`-way merges: `L_i` counts how many of the `k`
/// merged elements come from group `i`. Sampled by the chain rule —
/// `L_1 ~ HG(N_1, N_2 + ... + N_m, k)`, then `L_2` from the remainder, etc.
/// — with one [`draw`] per group, so a 16-way split costs 15 windowed
/// draws, not 15 full pmf tables.
///
/// # Panics
/// Panics if `k` exceeds the total population.
pub fn sample_multivariate<R: Rng + ?Sized>(rng: &mut R, populations: &[u64], k: u64) -> Vec<u64> {
    let total: u64 = populations.iter().sum();
    assert!(k <= total, "draw {k} exceeds total population {total}");
    let mut remaining_total = total;
    let mut remaining_k = k;
    let mut out = Vec::with_capacity(populations.len());
    for (i, &n_i) in populations.iter().enumerate() {
        if remaining_k == 0 {
            out.push(0);
            continue;
        }
        let rest = remaining_total - n_i;
        if i + 1 == populations.len() {
            // Last group takes the remainder.
            out.push(remaining_k);
            break;
        }
        let l = draw(n_i, rest, remaining_k, rng);
        out.push(l);
        remaining_k -= l;
        remaining_total = rest;
    }
    while out.len() < populations.len() {
        out.push(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use crate::stats::{chi_square_p_value, chi_square_statistic, ln_choose};

    #[test]
    fn pmf_sums_to_one() {
        for &(d1, d2, k) in &[(10u64, 10u64, 5u64), (100, 50, 30), (7, 3, 9), (1, 99, 1)] {
            let h = Hypergeometric::new(d1, d2, k);
            let s: f64 = h.probs().iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "sum {s} for ({d1},{d2},{k})");
        }
    }

    #[test]
    fn recurrence_matches_direct_formula() {
        for &(d1, d2, k) in &[(20u64, 30u64, 10u64), (5, 5, 5), (1000, 2000, 100)] {
            let h = Hypergeometric::new(d1, d2, k);
            for l in 0..=k {
                let a = h.pmf(l);
                let b = h.pmf_direct(l);
                assert!((a - b).abs() < 1e-10, "({d1},{d2},{k}) l={l}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn support_respects_bounds() {
        // k - d2 > 0 forces a lower bound on l.
        let h = Hypergeometric::new(5, 3, 6);
        assert_eq!(h.pmf(0), 0.0);
        assert_eq!(h.pmf(1), 0.0);
        assert_eq!(h.pmf(2), 0.0);
        assert!(h.pmf(3) > 0.0);
        assert!(h.pmf(5) > 0.0);
        assert_eq!(h.pmf(6), 0.0); // l cannot exceed min(k, d1) = 5
    }

    #[test]
    fn degenerate_cases() {
        // All from D1.
        let h = Hypergeometric::new(10, 0, 4);
        assert!((h.pmf(4) - 1.0).abs() < 1e-12);
        // k = 0: always l = 0.
        let h = Hypergeometric::new(10, 10, 0);
        assert!((h.pmf(0) - 1.0).abs() < 1e-12);
        let mut rng = seeded_rng(3);
        assert_eq!(h.sample(&mut rng), 0);
    }

    #[test]
    fn large_populations_are_stable() {
        // Sizes comparable to the paper's 2^26 experiments.
        let h = Hypergeometric::new(1 << 26, 1 << 26, 8192);
        let s: f64 = h.probs().iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        let mean: f64 = h
            .probs()
            .iter()
            .enumerate()
            .map(|(l, p)| l as f64 * p)
            .sum();
        assert!((mean - h.mean()).abs() / h.mean() < 1e-6);
    }

    #[test]
    fn inversion_sampling_goodness_of_fit() {
        let h = Hypergeometric::new(30, 50, 20);
        let mut rng = seeded_rng(99);
        let trials = 40_000usize;
        let mut counts = [0u64; 21];
        for _ in 0..trials {
            counts[h.sample(&mut rng) as usize] += 1;
        }
        // Pool cells with expectation < 5.
        let mut obs = Vec::new();
        let mut exp = Vec::new();
        let (mut po, mut pe) = (0u64, 0.0f64);
        for l in 0..=20u64 {
            po += counts[l as usize];
            pe += h.pmf(l) * trials as f64;
            if pe >= 5.0 {
                obs.push(po);
                exp.push(pe);
                po = 0;
                pe = 0.0;
            }
        }
        if pe > 0.0 {
            *obs.last_mut().unwrap() += po;
            *exp.last_mut().unwrap() += pe;
        }
        let stat = chi_square_statistic(&obs, &exp);
        let pv = chi_square_p_value(stat, (obs.len() - 1) as f64);
        assert!(pv > 1e-4, "chi2={stat:.2} p={pv:.2e}");
    }

    #[test]
    fn alias_sampling_matches_inversion_distribution() {
        let h = Hypergeometric::new(25, 40, 15);
        let table = h.alias_table();
        let mut rng = seeded_rng(123);
        let trials = 40_000usize;
        let mut counts = [0u64; 16];
        for _ in 0..trials {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        let mut obs = Vec::new();
        let mut exp = Vec::new();
        let (mut po, mut pe) = (0u64, 0.0f64);
        for l in 0..=15u64 {
            po += counts[l as usize];
            pe += h.pmf(l) * trials as f64;
            if pe >= 5.0 {
                obs.push(po);
                exp.push(pe);
                po = 0;
                pe = 0.0;
            }
        }
        if pe > 0.0 {
            *obs.last_mut().unwrap() += po;
            *exp.last_mut().unwrap() += pe;
        }
        let stat = chi_square_statistic(&obs, &exp);
        let pv = chi_square_p_value(stat, (obs.len() - 1) as f64);
        assert!(pv > 1e-4, "chi2={stat:.2} p={pv:.2e}");
    }

    #[test]
    #[should_panic(expected = "exceeds population")]
    fn rejects_oversized_k() {
        Hypergeometric::new(3, 3, 7);
    }

    // Eq. (3) edge cases: the recurrence must survive the boundary
    // configurations HRMerge can feed it.

    #[test]
    fn eq3_edge_k_zero_always_draws_zero() {
        let h = Hypergeometric::new(12, 7, 0);
        assert!((h.pmf(0) - 1.0).abs() < 1e-12);
        let mut rng = seeded_rng(41);
        for _ in 0..200 {
            assert_eq!(h.sample(&mut rng), 0);
        }
    }

    #[test]
    fn eq3_edge_k_equals_union_size_takes_everything() {
        // k = |S1| + |S2|: the merged sample is the whole union, so L = |S1|
        // with probability one.
        let h = Hypergeometric::new(6, 4, 10);
        assert!((h.pmf(6) - 1.0).abs() < 1e-12);
        for l in 0..6u64 {
            assert_eq!(h.pmf(l), 0.0, "pmf({l}) must vanish");
        }
        let mut rng = seeded_rng(42);
        for _ in 0..200 {
            assert_eq!(h.sample(&mut rng), 6);
        }
    }

    #[test]
    fn eq3_edge_empty_partition_contributes_nothing() {
        // |S1| = 0: every draw comes from the other side.
        let h = Hypergeometric::new(0, 8, 3);
        assert!((h.pmf(0) - 1.0).abs() < 1e-12);
        let mut rng = seeded_rng(43);
        for _ in 0..200 {
            assert_eq!(h.sample(&mut rng), 0);
        }
        // Symmetric case: |S2| = 0 forces L = k.
        let h = Hypergeometric::new(8, 0, 3);
        assert!((h.pmf(3) - 1.0).abs() < 1e-12);
        for _ in 0..200 {
            assert_eq!(h.sample(&mut rng), 3);
        }
    }

    #[test]
    fn eq3_edge_degenerate_single_point_support() {
        // N = n on both sides (k = d1 = d2 = 1 and friends): the support
        // collapses to one point and the recurrence must not divide by zero.
        for &(d1, d2, k) in &[(1u64, 1u64, 2u64), (1, 0, 1), (0, 1, 1), (2, 2, 4)] {
            let h = Hypergeometric::new(d1, d2, k);
            let s: f64 = h.probs().iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "({d1},{d2},{k}) sum {s}");
            assert!((h.pmf(d1.min(k)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn multivariate_sums_to_k_and_respects_bounds() {
        let mut rng = seeded_rng(31);
        let pops = [10u64, 0, 25, 5];
        for _ in 0..500 {
            let l = sample_multivariate(&mut rng, &pops, 12);
            assert_eq!(l.iter().sum::<u64>(), 12);
            for (li, ni) in l.iter().zip(&pops) {
                assert!(li <= ni, "{l:?} vs {pops:?}");
            }
            assert_eq!(l[1], 0, "empty group must contribute nothing");
        }
    }

    #[test]
    fn multivariate_k_zero_and_k_total() {
        let mut rng = seeded_rng(32);
        assert_eq!(sample_multivariate(&mut rng, &[3, 4], 0), vec![0, 0]);
        assert_eq!(sample_multivariate(&mut rng, &[3, 4], 7), vec![3, 4]);
    }

    #[test]
    fn multivariate_matches_joint_pmf() {
        // 3 groups of sizes (4, 3, 3), k = 4: chi-square the joint
        // distribution of (L1, L2) against the multivariate hypergeometric
        // pmf C(4,l1) C(3,l2) C(3,k-l1-l2) / C(10,4).
        let pops = [4u64, 3, 3];
        let k = 4u64;
        let mut rng = seeded_rng(33);
        let trials = 50_000usize;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..trials {
            let l = sample_multivariate(&mut rng, &pops, k);
            *counts.entry((l[0], l[1])).or_insert(0u64) += 1;
        }
        let denom = ln_choose(10, k);
        let mut obs = Vec::new();
        let mut exp = Vec::new();
        for l1 in 0..=4u64 {
            for l2 in 0..=3u64 {
                if l1 + l2 > k || k - l1 - l2 > 3 {
                    continue;
                }
                let l3 = k - l1 - l2;
                let p = (ln_choose(4, l1) + ln_choose(3, l2) + ln_choose(3, l3) - denom).exp();
                let e = p * trials as f64;
                if e >= 5.0 {
                    obs.push(counts.get(&(l1, l2)).copied().unwrap_or(0));
                    exp.push(e);
                }
            }
        }
        let stat = chi_square_statistic(&obs, &exp);
        let pv = chi_square_p_value(stat, (obs.len() - 1) as f64);
        assert!(pv > 1e-4, "joint pmf mismatch: chi2={stat:.1} p={pv:.2e}");
    }

    /// χ² p-value of `counts` (indexed by `l`) against the pmf `probs` over
    /// `trials` draws, pooling adjacent cells until each expects ≥ 5.
    fn fit_p_value(counts: &[u64], probs: &[f64], trials: usize) -> f64 {
        let mut obs = Vec::new();
        let mut exp = Vec::new();
        let (mut po, mut pe) = (0u64, 0.0f64);
        for (l, &p) in probs.iter().enumerate() {
            po += counts.get(l).copied().unwrap_or(0);
            pe += p * trials as f64;
            if pe >= 5.0 {
                obs.push(po);
                exp.push(pe);
                po = 0;
                pe = 0.0;
            }
        }
        assert!(!obs.is_empty(), "no cell expects 5 draws");
        *obs.last_mut().unwrap() += po;
        *exp.last_mut().unwrap() += pe;
        if obs.len() < 2 {
            // One pooled cell: the fit is exact iff every draw landed in it.
            return if obs[0] == trials as u64 { 1.0 } else { 0.0 };
        }
        let stat = chi_square_statistic(&obs, &exp);
        chi_square_p_value(stat, (obs.len() - 1) as f64)
    }

    #[test]
    fn draw_matches_eq2_across_the_parameter_grid() {
        // Degenerate supports (lo == hi): k = 0, k = d1 + d2, an empty side.
        let mut rng = seeded_rng(71);
        for &(d1, d2, k, only) in &[
            (12u64, 7u64, 0u64, 0u64),
            (6, 4, 10, 6),
            (0, 8, 3, 0),
            (8, 0, 3, 3),
            (1, 1, 2, 1),
        ] {
            for _ in 0..200 {
                assert_eq!(draw(d1, d2, k, &mut rng), only, "({d1},{d2},{k})");
            }
        }
        // Wide and narrow supports, against Eq. (2) as tabulated by the
        // log-space recurrence (itself checked against the direct formula
        // above): d1 = 1, a support pinned near hi, a tiny D1 beside a huge
        // D2, d2 ≥ 2⁴⁰, and the paper's k = 8192 over 2²⁶-row partitions.
        let trials = 20_000usize;
        for &(d1, d2, k) in &[
            (1u64, 99u64, 10u64),
            (30, 50, 20),
            (1_000, 3, 500),
            (5_000, 1 << 40, 100_000),
            (1 << 40, 1 << 41, 8_192),
            (1 << 26, 1 << 26, 8_192),
            (20_000, 12_000, 8_192),
        ] {
            let h = Hypergeometric::new(d1, d2, k);
            let mut counts = vec![0u64; (k + 1) as usize];
            for _ in 0..trials {
                let l = draw(d1, d2, k, &mut rng);
                assert!(l <= k.min(d1) && k - l <= d2, "({d1},{d2},{k}) drew {l}");
                counts[l as usize] += 1;
            }
            let pv = fit_p_value(&counts, h.probs(), trials);
            assert!(pv > 1e-4, "({d1},{d2},{k}): p={pv:.2e}");
        }
    }

    #[test]
    fn draw_inverts_the_same_cdf_as_the_table() {
        // Same uniform, same split: the window drops only mass below 2^-64
        // of the mode's, so seeded splits agree with table inversion.
        for &(d1, d2, k) in &[(30u64, 50u64, 20u64), (1 << 26, 1 << 26, 8_192), (7, 3, 9)] {
            let h = Hypergeometric::new(d1, d2, k);
            let (mut a, mut b) = (seeded_rng(5), seeded_rng(5));
            for _ in 0..2_000 {
                assert_eq!(draw(d1, d2, k, &mut a), h.sample(&mut b), "({d1},{d2},{k})");
            }
        }
    }

    #[test]
    fn multivariate_marginals_match_eq2_for_sixteen_groups() {
        // Each L_i of a multivariate hypergeometric draw is HG(N_i, N - N_i,
        // k), and so is any group union: check all 16 marginals and the
        // first eight groups' sum.
        let pops: Vec<u64> = (0..16u64).map(|i| 40 + 23 * i + (i % 3) * 100).collect();
        let total: u64 = pops.iter().sum();
        let k = 64u64;
        let trials = 20_000usize;
        let mut rng = seeded_rng(72);
        let mut marginal = vec![vec![0u64; (k + 1) as usize]; pops.len()];
        let mut first_half = vec![0u64; (k + 1) as usize];
        for _ in 0..trials {
            let l = sample_multivariate(&mut rng, &pops, k);
            assert_eq!(l.iter().sum::<u64>(), k);
            for (i, &li) in l.iter().enumerate() {
                marginal[i][li as usize] += 1;
            }
            first_half[l[..8].iter().sum::<u64>() as usize] += 1;
        }
        for (i, counts) in marginal.iter().enumerate() {
            let h = Hypergeometric::new(pops[i], total - pops[i], k);
            let pv = fit_p_value(counts, h.probs(), trials);
            assert!(pv > 1e-4, "group {i} marginal: p={pv:.2e}");
        }
        let half: u64 = pops[..8].iter().sum();
        let h = Hypergeometric::new(half, total - half, k);
        let pv = fit_p_value(&first_half, h.probs(), trials);
        assert!(pv > 1e-4, "first-half sum: p={pv:.2e}");
    }

    #[test]
    #[should_panic(expected = "exceeds population")]
    fn draw_rejects_oversized_k() {
        draw(3, 3, 7, &mut seeded_rng(1));
    }

    #[test]
    #[should_panic(expected = "exceeds total population")]
    fn multivariate_rejects_oversized_k() {
        sample_multivariate(&mut seeded_rng(1), &[2, 2], 5);
    }
}
