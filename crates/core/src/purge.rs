//! The purge operators of Figs. 3 and 4: subsample a compact histogram
//! without ever expanding it to a bag.
//!
//! * [`purge_bernoulli`] takes a `Bern(q)` subsample in place by thinning
//!   each `(value, count)` pair with a binomial draw (Fig. 3).
//! * [`purge_reservoir`] takes a simple random subsample of a given size by
//!   streaming reservoir sampling over the (implicitly expanded) pairs,
//!   using the skip function and count-weighted victim selection (Fig. 4).
//!   Victim lookup uses a Fenwick tree over the in-progress counts, so each
//!   eviction costs `O(log #pairs)` instead of the figure's linear scan. It
//!   reads its input and returns the subsample, so a merge can subsample a
//!   shared sample without copying it first.

use crate::histogram::CompactHistogram;
use crate::invariant::invariant;
use crate::value::SampleValue;
use rand::Rng;
use swh_rand::binomial::BinomialRate;
use swh_rand::checked::index_u64;
use swh_rand::skip::ReservoirSkip;

/// Fig. 3 — `purgeBernoulli(S, q)`: replace each count `n` with a
/// `Binomial(n, q)` draw, dropping pairs that reach zero. The result is a
/// `Bern(q)` subsample of the bag `S` represents.
///
/// # Panics
/// Panics unless `0 ≤ q ≤ 1`.
pub fn purge_bernoulli<T: SampleValue, R: Rng + ?Sized>(
    hist: &mut CompactHistogram<T>,
    q: f64,
    rng: &mut R,
) {
    assert!((0.0..=1.0).contains(&q), "q must lie in [0, 1], got {q}");
    if q == 1.0 {
        return;
    }
    // One rate for every pair: precompute the waiting-time constants once.
    let rate = BinomialRate::new(q);
    hist.transform_counts(|_, n| rate.sample(rng, n));
}

/// Fig. 4 — `purgeReservoir(S, M)`: a simple random subsample of exactly
/// `m` data elements of `hist` (a copy of it when `|S| ≤ m`), built in
/// compact form throughout. Only the surviving values are cloned.
#[must_use = "the subsample is returned; the input is left as it was"]
pub fn purge_reservoir<T: SampleValue, R: Rng + ?Sized>(
    hist: &CompactHistogram<T>,
    m: u64,
    rng: &mut R,
) -> CompactHistogram<T> {
    if hist.total() <= m {
        return hist.clone();
    }
    if m == 0 {
        return CompactHistogram::new();
    }
    // Snapshot the pairs; the stream order is the (arbitrary but fixed)
    // iteration order, which does not affect uniformity.
    let pairs: Vec<(&T, u64)> = hist.iter().collect();
    let mut new_counts = vec![0u64; pairs.len()];
    let mut tree = Fenwick::new(pairs.len());

    let mut skip_gen = ReservoirSkip::new(m, rng);
    // j: 1-based index of the next element of the implicit bag to include.
    let mut j: u64 = 1;
    // l: current number of elements in the reservoir.
    let mut level: u64 = 0;
    // b: upper bucket boundary of the current pair.
    let mut b: u64 = 0;

    for (i, (_, old_count)) in pairs.iter().enumerate() {
        b += old_count;
        while j <= b {
            if level == m {
                // Evict a uniformly chosen current reservoir element.
                let target = rng.random_range(1..=m);
                let victim = tree.find_prefix(target);
                tree.add(victim, -1);
                new_counts[victim] -= 1;
                level -= 1;
            }
            new_counts[i] += 1;
            tree.add(i, 1);
            level += 1;
            // Next inclusion: deterministic while filling, skip-based after.
            j += if level < m { 1 } else { skip_gen.skip(j, rng) };
        }
    }
    debug_assert_eq!(level, m);

    // Build the subsample from the survivors, reserved for exactly their
    // number of distinct values (at most `m`).
    let kept = new_counts.iter().filter(|&&n| n > 0).count();
    let mut out = CompactHistogram::with_slot_capacity(index_u64(kept));
    for ((v, _), n) in pairs.into_iter().zip(new_counts) {
        if n > 0 {
            out.insert_count(v.clone(), n);
        }
    }
    invariant!(
        out.total() == m,
        "purgeReservoir kept {} elements, the target was {m}",
        out.total()
    );
    out
}

/// Fenwick (binary indexed) tree over pair counts, supporting point update
/// and "find smallest index with prefix sum ≥ target" in `O(log n)`.
struct Fenwick {
    tree: Vec<i64>,
    /// Smallest power of two ≥ len, for the binary-lifting search.
    top: usize,
}

impl Fenwick {
    fn new(len: usize) -> Self {
        let top = len.next_power_of_two().max(1);
        Self {
            tree: vec![0; len + 1],
            top,
        }
    }

    /// Add `delta` at index `i` (0-based).
    fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Smallest 0-based index `l` such that `sum(counts[0..=l]) ≥ target`
    /// (`target ≥ 1`).
    fn find_prefix(&self, target: u64) -> usize {
        let mut pos = 0usize;
        let mut remaining = target as i64;
        let mut step = self.top;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos // 0-based: pos is the count of indices fully skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_rand::seeded_rng;

    #[test]
    fn fenwick_basic() {
        let mut f = Fenwick::new(5);
        for (i, c) in [3i64, 0, 2, 5, 1].iter().enumerate() {
            f.add(i, *c);
        }
        // counts: [3,0,2,5,1]; prefix sums: [3,3,5,10,11]
        assert_eq!(f.find_prefix(1), 0);
        assert_eq!(f.find_prefix(3), 0);
        assert_eq!(f.find_prefix(4), 2);
        assert_eq!(f.find_prefix(5), 2);
        assert_eq!(f.find_prefix(6), 3);
        assert_eq!(f.find_prefix(10), 3);
        assert_eq!(f.find_prefix(11), 4);
        f.add(0, -3);
        assert_eq!(f.find_prefix(1), 2);
    }

    #[test]
    fn bernoulli_purge_rate_one_is_identity() {
        let mut h = CompactHistogram::from_bag(vec![1u64, 1, 2, 3, 3, 3]);
        let before = h.clone();
        purge_bernoulli(&mut h, 1.0, &mut seeded_rng(1));
        assert_eq!(h, before);
    }

    #[test]
    fn bernoulli_purge_rate_zero_empties() {
        let mut h = CompactHistogram::from_bag(vec![1u64, 2, 3]);
        purge_bernoulli(&mut h, 0.0, &mut seeded_rng(1));
        assert!(h.is_empty());
        assert_eq!(h.slots(), 0);
    }

    #[test]
    fn bernoulli_purge_thins_at_rate_q() {
        let mut rng = seeded_rng(42);
        let q = 0.3;
        let trials = 2_000;
        let mut kept = 0u64;
        for _ in 0..trials {
            let mut h = CompactHistogram::new();
            h.insert_count(1u64, 50);
            h.insert_count(2u64, 30);
            h.insert_count(3u64, 20);
            purge_bernoulli(&mut h, q, &mut rng);
            kept += h.total();
        }
        let mean = kept as f64 / trials as f64;
        let expect = 100.0 * q;
        // Standard error of the mean ≈ sqrt(100·q(1−q)/trials) ≈ 0.10.
        assert!((mean - expect).abs() < 0.6, "mean {mean} vs {expect}");
    }

    #[test]
    fn bernoulli_purge_keeps_bookkeeping_consistent() {
        let mut rng = seeded_rng(3);
        let mut h = CompactHistogram::new();
        for v in 0..100u64 {
            h.insert_count(v, (v % 7) + 1);
        }
        purge_bernoulli(&mut h, 0.4, &mut rng);
        let rebuilt = CompactHistogram::from_bag(h.expand());
        assert_eq!(h, rebuilt);
        assert_eq!(h.total(), rebuilt.total());
        assert_eq!(h.slots(), rebuilt.slots());
    }

    #[test]
    fn reservoir_purge_yields_exact_size() {
        let mut rng = seeded_rng(5);
        for &m in &[1u64, 7, 50, 99] {
            let mut h = CompactHistogram::new();
            for v in 0..20u64 {
                h.insert_count(v, 5);
            }
            let h = purge_reservoir(&h, m, &mut rng);
            assert_eq!(h.total(), m, "m={m}");
            // Rebuild check.
            let rebuilt = CompactHistogram::from_bag(h.expand());
            assert_eq!(h, rebuilt);
        }
    }

    #[test]
    fn reservoir_purge_noop_when_small() {
        let h = CompactHistogram::from_bag(vec![1u64, 2, 2]);
        assert_eq!(purge_reservoir(&h, 10, &mut seeded_rng(1)), h);
    }

    #[test]
    fn reservoir_purge_to_zero() {
        let h = CompactHistogram::from_bag(vec![1u64, 2, 2]);
        assert!(purge_reservoir(&h, 0, &mut seeded_rng(1)).is_empty());
    }

    #[test]
    fn reservoir_purge_subset_of_original() {
        let mut rng = seeded_rng(9);
        let mut h = CompactHistogram::new();
        h.insert_count(1u64, 10);
        h.insert_count(2u64, 3);
        let sub = purge_reservoir(&h, 6, &mut rng);
        for (v, c) in sub.iter() {
            assert!(c <= h.count(v), "count inflated for {v:?}");
        }
    }

    #[test]
    fn reservoir_purge_is_uniform_over_elements() {
        // Bag of 20 distinct values, subsample 10; each element must appear
        // with frequency ~1/2.
        let mut rng = seeded_rng(11);
        let trials = 20_000usize;
        let mut incl = [0u64; 20];
        for _ in 0..trials {
            let h = CompactHistogram::from_bag((0..20u64).collect::<Vec<_>>());
            for (v, c) in purge_reservoir(&h, 10, &mut rng).iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
            }
        }
        for (v, &c) in incl.iter().enumerate() {
            let freq = c as f64 / trials as f64;
            // sd of freq ≈ sqrt(0.25/20000) ≈ 0.0035; allow 5 sd.
            assert!((freq - 0.5).abs() < 0.02, "value {v}: freq {freq}");
        }
    }

    #[test]
    fn reservoir_purge_uniform_with_duplicates() {
        // Bag {a,a,a,b}: a subsample of size 2 contains b with probability
        // C(3,1)/C(4,2) = 3/6 = 1/2.
        let mut rng = seeded_rng(13);
        let trials = 20_000usize;
        let mut b_present = 0u64;
        for _ in 0..trials {
            let mut h = CompactHistogram::new();
            h.insert_count(0u64, 3);
            h.insert_count(1u64, 1);
            if purge_reservoir(&h, 2, &mut rng).count(&1) == 1 {
                b_present += 1;
            }
        }
        let freq = b_present as f64 / trials as f64;
        assert!((freq - 0.5).abs() < 0.02, "freq {freq}");
    }
}
