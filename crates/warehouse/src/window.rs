//! Sliding-window maintenance of partition samples.
//!
//! "As new daily samples are rolled in and old daily samples are rolled
//! out, the system would approximate stream sampling algorithms such as
//! those described in [1, 11], but with support for parallel processing"
//! (§2). A [`SlidingWindow`] keeps the samples of the most recent `w`
//! temporal partitions of one data set; querying it yields a uniform sample
//! of the window's union — a moving-window sample maintained entirely from
//! per-partition samples.

use std::borrow::Cow;
use std::collections::VecDeque;
use swh_core::merge::{merge_union, MergeError};
use swh_core::sample::Sample;
use swh_core::value::SampleValue;

/// Samples of the last `w` partitions of one data set.
#[derive(Debug, Clone)]
pub struct SlidingWindow<T: SampleValue> {
    capacity: usize,
    entries: VecDeque<(u64, Sample<T>)>,
}

impl<T: SampleValue> SlidingWindow<T> {
    /// Window over the most recent `capacity` partitions.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        Self {
            capacity,
            entries: VecDeque::with_capacity(capacity + 1),
        }
    }

    /// Window capacity in partitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of partitions currently in the window.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no partitions have been rolled in.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Roll in the sample of the next temporal partition (`seq` must be
    /// strictly increasing); rolls out and returns the evicted oldest
    /// sample when the window overflows.
    ///
    /// # Panics
    /// Panics if `seq` is not greater than the last rolled-in sequence.
    pub fn roll_in(&mut self, seq: u64, sample: Sample<T>) -> Option<(u64, Sample<T>)> {
        if let Some((last, _)) = self.entries.back() {
            assert!(
                seq > *last,
                "window sequence must increase ({seq} after {last})"
            );
        }
        self.entries.push_back((seq, sample));
        if self.entries.len() > self.capacity {
            self.entries.pop_front()
        } else {
            None
        }
    }

    /// Sequence numbers currently covered, oldest first.
    pub fn seqs(&self) -> Vec<u64> {
        self.entries.iter().map(|(s, _)| *s).collect()
    }

    /// Total parent size covered by the window.
    pub fn parent_size(&self) -> u64 {
        self.entries.iter().map(|(_, s)| s.parent_size()).sum()
    }

    /// Produce a uniform sample of the union of the window's partitions.
    /// The resident samples are lent to the union engine, not copied.
    ///
    /// # Panics
    /// Panics if the window is empty.
    pub fn window_sample<R: rand::Rng + ?Sized>(
        &self,
        p_bound: f64,
        rng: &mut R,
    ) -> Result<Sample<T>, MergeError> {
        assert!(!self.entries.is_empty(), "window is empty");
        let samples = self.entries.iter().map(|(_, s)| Cow::Borrowed(s)).collect();
        merge_union(samples, p_bound, rng)
    }
}

/// Tumbling (non-overlapping) window: partitions accumulate until the
/// window is full, at which point one merged sample of the whole window is
/// emitted and the window restarts — e.g. seven daily partitions folding
/// into one weekly sample, weekly samples into monthly, and so on up a
/// roll-up hierarchy.
#[derive(Debug)]
pub struct TumblingWindow<T: SampleValue> {
    width: usize,
    pending: Vec<(u64, Sample<T>)>,
    p_bound: f64,
}

impl<T: SampleValue> TumblingWindow<T> {
    /// Window of `width` partitions; merges use exceedance bound `p_bound`.
    ///
    /// # Panics
    /// Panics if `width == 0` or `p_bound` is not in `(0, 1)`.
    pub fn new(width: usize, p_bound: f64) -> Self {
        assert!(width > 0, "window width must be positive");
        assert!(p_bound > 0.0 && p_bound < 1.0, "p_bound must lie in (0,1)");
        Self {
            width,
            pending: Vec::with_capacity(width),
            p_bound,
        }
    }

    /// Partitions currently accumulated (always `< width` after `roll_in`
    /// returns).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Add the next partition sample. When this fills the window, returns
    /// `(first_seq, last_seq, merged_sample)` and restarts.
    pub fn roll_in<R: rand::Rng + ?Sized>(
        &mut self,
        seq: u64,
        sample: Sample<T>,
        rng: &mut R,
    ) -> Result<Option<(u64, u64, Sample<T>)>, MergeError> {
        if let Some((last, _)) = self.pending.last() {
            assert!(
                seq > *last,
                "window sequence must increase ({seq} after {last})"
            );
        }
        self.pending.push((seq, sample));
        if self.pending.len() < self.width {
            return Ok(None);
        }
        let (first, last) = match (self.pending.first(), self.pending.last()) {
            (Some(f), Some(l)) => (f.0, l.0),
            _ => panic!("pending is non-empty right after a push"),
        };
        let samples = std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(_, s)| Cow::Owned(s))
            .collect();
        let merged = merge_union(samples, self.p_bound, rng)?;
        Ok(Some((first, last, merged)))
    }

    /// Flush a partially filled window (end of stream): merged sample of
    /// whatever is pending, or `None` if the window is empty.
    pub fn flush<R: rand::Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<Option<Sample<T>>, MergeError> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        let samples = std::mem::take(&mut self.pending)
            .into_iter()
            .map(|(_, s)| Cow::Owned(s))
            .collect();
        Ok(Some(merge_union(samples, self.p_bound, rng)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_core::footprint::FootprintPolicy;
    use swh_core::hybrid_reservoir::HybridReservoir;
    use swh_core::sampler::Sampler;
    use swh_rand::seeded_rng;
    use swh_rand::stats::{chi_square_p_value, chi_square_statistic};

    fn day_sample(day: u64, per_day: u64, n_f: u64, rng: &mut rand::rngs::SmallRng) -> Sample<u64> {
        let lo = day * per_day;
        HybridReservoir::new(FootprintPolicy::with_value_budget(n_f))
            .sample_batch(lo..lo + per_day, rng)
    }

    #[test]
    fn window_evicts_oldest() {
        let mut rng = seeded_rng(1);
        let mut w = SlidingWindow::new(7);
        for day in 0..10u64 {
            let evicted = w.roll_in(day, day_sample(day, 1000, 32, &mut rng));
            if day < 7 {
                assert!(evicted.is_none());
            } else {
                assert_eq!(evicted.unwrap().0, day - 7);
            }
        }
        assert_eq!(w.len(), 7);
        assert_eq!(w.seqs(), vec![3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(w.parent_size(), 7000);
    }

    #[test]
    fn window_sample_covers_only_current_window() {
        let mut rng = seeded_rng(2);
        let mut w = SlidingWindow::new(3);
        let per_day = 500u64;
        for day in 0..6u64 {
            w.roll_in(day, day_sample(day, per_day, 16, &mut rng));
        }
        // Window now covers days 3..6, i.e. values [1500, 3000).
        let s = w.window_sample(1e-3, &mut rng).unwrap();
        assert_eq!(s.parent_size(), 3 * per_day);
        for (v, _) in s.histogram().iter() {
            assert!((1500..3000).contains(v), "value {v} outside window");
        }
    }

    #[test]
    fn window_sample_is_uniform_over_window() {
        let mut rng = seeded_rng(3);
        let (days, per_day, n_f, trials) = (3u64, 40u64, 12u64, 15_000usize);
        let n = days * per_day;
        let mut incl = vec![0u64; n as usize];
        for _ in 0..trials {
            let mut w = SlidingWindow::new(days as usize);
            for day in 0..days {
                w.roll_in(day, day_sample(day, per_day, n_f, &mut rng));
            }
            let s = w.window_sample(1e-3, &mut rng).unwrap();
            for (v, _) in s.histogram().iter() {
                incl[*v as usize] += 1;
            }
        }
        let expect = trials as f64 * n_f as f64 / n as f64;
        let exp: Vec<f64> = vec![expect; n as usize];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, (n - 1) as f64);
        assert!(
            pv > 1e-4,
            "window sample not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    #[test]
    fn tumbling_window_emits_weekly_rollups() {
        let mut rng = seeded_rng(10);
        let mut weekly: TumblingWindow<u64> = TumblingWindow::new(7, 1e-3);
        let mut emitted = Vec::new();
        for day in 0..20u64 {
            if let Some((first, last, sample)) = weekly
                .roll_in(day, day_sample(day, 500, 16, &mut rng), &mut rng)
                .unwrap()
            {
                emitted.push((first, last, sample));
            }
        }
        assert_eq!(emitted.len(), 2);
        assert_eq!((emitted[0].0, emitted[0].1), (0, 6));
        assert_eq!((emitted[1].0, emitted[1].1), (7, 13));
        assert_eq!(emitted[0].2.parent_size(), 7 * 500);
        // Days 14..20 still pending; flush the partial window.
        assert_eq!(weekly.pending(), 6);
        let partial = weekly.flush(&mut rng).unwrap().unwrap();
        assert_eq!(partial.parent_size(), 6 * 500);
        assert!(weekly.flush(&mut rng).unwrap().is_none());
    }

    #[test]
    fn tumbling_window_sample_covers_window_only() {
        let mut rng = seeded_rng(11);
        let mut w: TumblingWindow<u64> = TumblingWindow::new(3, 1e-3);
        let mut out = None;
        for day in 0..3u64 {
            out = w
                .roll_in(day, day_sample(day, 400, 8, &mut rng), &mut rng)
                .unwrap();
        }
        let (_, _, s) = out.expect("window full");
        for (v, _) in s.histogram().iter() {
            assert!(*v < 1200, "value {v} outside the window");
        }
    }

    #[test]
    #[should_panic(expected = "sequence must increase")]
    fn rejects_non_monotone_seq() {
        let mut rng = seeded_rng(4);
        let mut w = SlidingWindow::new(3);
        w.roll_in(5, day_sample(5, 100, 16, &mut rng));
        w.roll_in(5, day_sample(5, 100, 16, &mut rng));
    }

    #[test]
    #[should_panic(expected = "window is empty")]
    fn empty_window_sample_panics() {
        let w: SlidingWindow<u64> = SlidingWindow::new(3);
        w.window_sample(1e-3, &mut seeded_rng(1)).unwrap();
    }
}
