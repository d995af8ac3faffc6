//! Compact `(value, count)` histogram — the storage representation shared by
//! every bounded sampler in the paper.
//!
//! Requirement 4 of §2: duplicate values are stored in `(value, count)`
//! format, and singletons (count 1) are stored as the bare value. The
//! histogram tracks its own footprint in value slots (see
//! [`crate::footprint::FootprintPolicy`]): `2·(pairs) + singletons`.

use crate::fxhash::FxHashMap;
use crate::value::SampleValue;

/// A bag of values stored compactly as value → multiplicity, with footprint
/// accounting.
///
/// ```
/// use swh_core::histogram::CompactHistogram;
///
/// let mut h = CompactHistogram::from_bag(vec![7u64, 7, 7, 9]);
/// assert_eq!(h.count(&7), 3);
/// assert_eq!(h.total(), 4);       // four data elements
/// assert_eq!(h.slots(), 3);       // one (7,3) pair + singleton 9
/// h.join(CompactHistogram::from_bag(vec![9u64, 10]));
/// assert_eq!(h.count(&9), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CompactHistogram<T: SampleValue> {
    counts: FxHashMap<T, u64>,
    /// Total number of data elements represented (sum of counts).
    total: u64,
    /// Number of values with count exactly 1.
    singletons: u64,
}

impl<T: SampleValue> Default for CompactHistogram<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: SampleValue> CompactHistogram<T> {
    /// Empty histogram.
    pub fn new() -> Self {
        Self {
            counts: FxHashMap::default(),
            total: 0,
            singletons: 0,
        }
    }

    /// Empty histogram with hash capacity pre-reserved for `slots` value
    /// slots. Since every distinct value occupies at least one slot, a
    /// histogram whose footprint stays within `slots` never rehashes — the
    /// samplers reserve `n_F` up front so the phase-1 hot loop is free of
    /// incremental growth.
    pub fn with_slot_capacity(slots: u64) -> Self {
        // A bound beyond the address space cannot be reserved (or reached);
        // fall back to growth-on-demand rather than overcommitting.
        let cap = usize::try_from(slots).unwrap_or(0);
        Self {
            counts: FxHashMap::with_capacity_and_hasher(cap, Default::default()),
            total: 0,
            singletons: 0,
        }
    }

    /// Number of distinct values the map can hold before reallocating.
    /// Exposed for the `debug_invariants` no-reallocation checks.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.counts.capacity()
    }

    /// Release hash capacity beyond what the current distinct values need
    /// (after building into a table reserved for an upper bound).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
    }

    /// Build from a bag of values (the inverse of [`expand`](Self::expand)).
    pub fn from_bag<I: IntoIterator<Item = T>>(bag: I) -> Self {
        let mut h = Self::new();
        for v in bag {
            h.insert_one(v);
        }
        h
    }

    /// Number of data elements represented (the sample *size* `|S|`).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values.
    #[inline]
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Number of singleton values (count exactly 1).
    #[inline]
    pub fn singletons(&self) -> u64 {
        self.singletons
    }

    /// Footprint in value slots: 2 per `(value, count)` pair, 1 per
    /// singleton.
    #[inline]
    pub fn slots(&self) -> u64 {
        2 * self.counts.len() as u64 - self.singletons
    }

    /// True when no elements are represented.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Multiplicity of `v` (zero when absent).
    pub fn count(&self, v: &T) -> u64 {
        self.counts.get(v).copied().unwrap_or(0)
    }

    /// The `insertValue` function of §4.1: add one occurrence of `v`.
    pub fn insert_one(&mut self, v: T) {
        self.insert_count(v, 1);
    }

    /// Add `n` occurrences of `v` in one step (used by `join` and by merge
    /// streaming, which feed whole pairs).
    pub fn insert_count(&mut self, v: T, n: u64) {
        if n == 0 {
            return;
        }
        let c = self.counts.entry(v).or_insert(0);
        let before = *c;
        *c += n;
        let after = *c;
        self.total += n;
        match (before, after) {
            (0, 1) => self.singletons += 1,
            (0, _) => {}
            (1, _) => self.singletons -= 1,
            _ => {}
        }
    }

    /// Remove one occurrence of `v`. Returns `true` if an occurrence was
    /// present and removed.
    pub fn remove_one(&mut self, v: &T) -> bool {
        match self.counts.get_mut(v) {
            None => false,
            Some(c) => {
                *c -= 1;
                match *c {
                    0 => {
                        self.singletons -= 1;
                        self.counts.remove(v);
                    }
                    1 => self.singletons += 1,
                    _ => {}
                }
                self.total -= 1;
                true
            }
        }
    }

    /// Set the multiplicity of `v` to `n` (removing it when `n == 0`).
    /// Used by the purge operators, which rewrite counts wholesale.
    pub fn set_count(&mut self, v: T, n: u64) {
        let old = self.counts.get(&v).copied().unwrap_or(0);
        if old == n {
            return;
        }
        match (old, n) {
            (0, _) => {
                self.counts.insert(v, n);
                if n == 1 {
                    self.singletons += 1;
                }
            }
            (_, 0) => {
                self.counts.remove(&v);
                if old == 1 {
                    self.singletons -= 1;
                }
            }
            _ => {
                self.counts.insert(v, n);
                if old == 1 {
                    self.singletons -= 1;
                }
                if n == 1 {
                    self.singletons += 1;
                }
            }
        }
        self.total = self.total + n - old;
    }

    /// Apply `f(value, count) -> new_count` to every pair, dropping pairs
    /// whose new count is zero. This is the traversal primitive of the
    /// purge operators (Figs. 3 and 4).
    pub fn transform_counts(&mut self, mut f: impl FnMut(&T, u64) -> u64) {
        let mut total = 0u64;
        let mut singles = 0u64;
        self.counts.retain(|v, c| {
            let n = f(v, *c);
            *c = n;
            total += n;
            if n == 1 {
                singles += 1;
            }
            n > 0
        });
        self.total = total;
        self.singletons = singles;
    }

    /// The `expand` function of §4.1: convert to a bag of values.
    /// E.g. `{(a,2), b, (c,3)}` expands to `{a,a,b,c,c,c}`.
    pub fn expand(&self) -> Vec<T> {
        let mut bag = Vec::with_capacity(self.total as usize);
        for (v, &c) in &self.counts {
            for _ in 0..c {
                bag.push(v.clone());
            }
        }
        bag
    }

    /// Consume the histogram into a bag, avoiding one clone per distinct
    /// value relative to [`expand`](Self::expand).
    pub fn into_bag(self) -> Vec<T> {
        let mut bag = Vec::with_capacity(self.total as usize);
        for (v, c) in self.counts {
            for _ in 0..c.saturating_sub(1) {
                bag.push(v.clone());
            }
            bag.push(v);
        }
        bag
    }

    /// The `join` function of Fig. 6: multiset union of two compact
    /// histograms without expansion. `(v, n1)` and `(v, n2)` become
    /// `(v, n1 + n2)`.
    pub fn join(&mut self, other: Self) {
        for (v, c) in other.counts {
            self.insert_count(v, c);
        }
    }

    /// Footprint in slots of the join of two histograms, computed **without
    /// materializing it** (the paper notes the `if` clause of Fig. 6 line 12
    /// "can be evaluated without actually invoking join in its entirety").
    pub fn joined_slots(&self, other: &Self) -> u64 {
        let mut slots = self.slots() + other.slots();
        // Values present in both: the two entries collapse into one pair.
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (self, other)
        } else {
            (other, self)
        };
        for (v, &c_small) in &small.counts {
            if let Some(&c_large) = large.counts.get(v) {
                // Cost before: cost(c_small) + cost(c_large); after: 2.
                let before = pair_slots(c_small) + pair_slots(c_large);
                slots = slots - before + 2;
            }
        }
        slots
    }

    /// Iterate over `(value, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, u64)> {
        self.counts.iter().map(|(v, &c)| (v, c))
    }

    /// Pairs sorted by value — deterministic order for tests, display, and
    /// serialization.
    pub fn sorted_pairs(&self) -> Vec<(T, u64)> {
        let mut pairs: Vec<(T, u64)> = self.counts.iter().map(|(v, &c)| (v.clone(), c)).collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        pairs
    }

    /// Draw a value uniformly from the represented bag (weighted by count)
    /// **without expanding**. Linear in the number of distinct values.
    pub fn random_element<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.total == 0 {
            return None;
        }
        let mut target = rng.random_range(0..self.total);
        for (v, &c) in &self.counts {
            if target < c {
                return Some(v);
            }
            target -= c;
        }
        unreachable!("count bookkeeping out of sync");
    }
}

/// Slot cost of one histogram entry with multiplicity `c`.
#[inline]
fn pair_slots(c: u64) -> u64 {
    if c == 1 {
        1
    } else {
        2
    }
}

impl<T: SampleValue> PartialEq for CompactHistogram<T> {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
    }
}

impl<T: SampleValue> Eq for CompactHistogram<T> {}

impl<T: SampleValue> FromIterator<T> for CompactHistogram<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::from_bag(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_rand::seeded_rng;

    #[test]
    fn reserved_histogram_never_reallocates() {
        let mut h = CompactHistogram::<u64>::with_slot_capacity(256);
        let cap = h.capacity();
        assert!(cap >= 256);
        // 256 distinct values occupy exactly the reserved slot bound; the
        // map must hold them without rehashing.
        for v in 0..256u64 {
            h.insert_one(v);
            assert_eq!(h.capacity(), cap, "rehash at {v}");
        }
        assert_eq!(h.slots(), 256);
    }

    #[test]
    fn insert_and_count() {
        let mut h = CompactHistogram::new();
        h.insert_one(5u64);
        h.insert_one(5);
        h.insert_one(7);
        assert_eq!(h.count(&5), 2);
        assert_eq!(h.count(&7), 1);
        assert_eq!(h.count(&9), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.singletons(), 1);
    }

    #[test]
    fn slot_accounting_matches_paper_model() {
        let mut h = CompactHistogram::new();
        assert_eq!(h.slots(), 0);
        h.insert_one(1u64); // singleton: 1 slot
        assert_eq!(h.slots(), 1);
        h.insert_one(1); // now a pair: 2 slots
        assert_eq!(h.slots(), 2);
        h.insert_one(1); // still one pair
        assert_eq!(h.slots(), 2);
        h.insert_one(2); // pair + singleton
        assert_eq!(h.slots(), 3);
        h.insert_one(3);
        assert_eq!(h.slots(), 4);
    }

    #[test]
    fn slots_never_exceed_total() {
        let mut h = CompactHistogram::new();
        let mut rng = seeded_rng(1);
        use rand::Rng;
        for _ in 0..10_000 {
            h.insert_one(rng.random_range(0..500u64));
            assert!(h.slots() <= h.total());
        }
    }

    #[test]
    fn remove_one_updates_bookkeeping() {
        let mut h = CompactHistogram::from_bag(vec![1u64, 1, 1, 2, 2, 3]);
        assert_eq!(h.slots(), 5); // (1,3)=2, (2,2)=2, 3=1
        assert!(h.remove_one(&1));
        assert_eq!(h.count(&1), 2);
        assert!(h.remove_one(&1));
        assert_eq!(h.count(&1), 1);
        assert_eq!(h.singletons(), 2);
        assert!(h.remove_one(&1));
        assert_eq!(h.count(&1), 0);
        assert_eq!(h.distinct(), 2);
        assert!(!h.remove_one(&99));
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn expand_and_from_bag_roundtrip() {
        let bag = vec![3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let h = CompactHistogram::from_bag(bag.clone());
        let mut expanded = h.expand();
        expanded.sort_unstable();
        let mut sorted = bag;
        sorted.sort_unstable();
        assert_eq!(expanded, sorted);
    }

    #[test]
    fn into_bag_matches_expand() {
        let h = CompactHistogram::from_bag(vec![1u64, 1, 2, 3, 3, 3]);
        let mut a = h.expand();
        let mut b = h.into_bag();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn join_is_multiset_union() {
        let mut a = CompactHistogram::from_bag(vec![1u64, 1, 2, 4]);
        let b = CompactHistogram::from_bag(vec![1u64, 3, 4, 4]);
        a.join(b);
        assert_eq!(a.count(&1), 3);
        assert_eq!(a.count(&2), 1);
        assert_eq!(a.count(&3), 1);
        assert_eq!(a.count(&4), 3);
        assert_eq!(a.total(), 8);
    }

    #[test]
    fn joined_slots_predicts_join() {
        let cases = vec![
            (vec![1u64, 1, 2, 4], vec![1u64, 3, 4, 4]),
            (vec![], vec![1, 2, 3]),
            (vec![5, 5, 5], vec![5]),
            (vec![1, 2, 3], vec![4, 5, 6]),
            (vec![1], vec![1]),
        ];
        for (x, y) in cases {
            let a = CompactHistogram::from_bag(x.clone());
            let b = CompactHistogram::from_bag(y.clone());
            let predicted = a.joined_slots(&b);
            let mut joined = a.clone();
            joined.join(b);
            assert_eq!(predicted, joined.slots(), "bags {x:?} / {y:?}");
        }
    }

    #[test]
    fn set_count_transitions() {
        let mut h = CompactHistogram::new();
        h.set_count(1u64, 5);
        assert_eq!((h.total(), h.singletons(), h.slots()), (5, 0, 2));
        h.set_count(1, 1);
        assert_eq!((h.total(), h.singletons(), h.slots()), (1, 1, 1));
        h.set_count(1, 0);
        assert!(h.is_empty());
        assert_eq!(h.slots(), 0);
        h.set_count(2, 0); // no-op on absent value
        assert!(h.is_empty());
    }

    #[test]
    fn transform_counts_rebuilds_bookkeeping() {
        let mut h = CompactHistogram::from_bag(vec![1u64, 1, 1, 2, 2, 3, 4]);
        // Halve every count (integer division).
        h.transform_counts(|_, c| c / 2);
        assert_eq!(h.count(&1), 1);
        assert_eq!(h.count(&2), 1);
        assert_eq!(h.count(&3), 0);
        assert_eq!(h.count(&4), 0);
        assert_eq!(h.total(), 2);
        assert_eq!(h.singletons(), 2);
        assert_eq!(h.slots(), 2);
    }

    #[test]
    fn random_element_is_count_weighted() {
        let h = CompactHistogram::from_bag(vec![1u64, 1, 1, 1, 1, 1, 1, 1, 1, 2]);
        let mut rng = seeded_rng(7);
        let trials = 20_000;
        let ones = (0..trials)
            .filter(|_| *h.random_element(&mut rng).unwrap() == 1)
            .count();
        let freq = ones as f64 / trials as f64;
        assert!((freq - 0.9).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn random_element_empty_is_none() {
        let h: CompactHistogram<u64> = CompactHistogram::new();
        assert!(h.random_element(&mut seeded_rng(1)).is_none());
    }

    #[test]
    fn sorted_pairs_are_sorted() {
        let h = CompactHistogram::from_bag(vec![9u64, 1, 5, 5, 1, 9, 9]);
        assert_eq!(h.sorted_pairs(), vec![(1, 2), (5, 2), (9, 3)]);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = CompactHistogram::from_bag(vec![1u64, 2, 2, 3]);
        let b = CompactHistogram::from_bag(vec![3u64, 2, 1, 2]);
        assert_eq!(a, b);
    }
}
