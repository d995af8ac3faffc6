//! Incremental maintenance of a total-data-set sample — the paper's first
//! warehousing scenario (§2): "an initial batch of data from an operational
//! system would be bulk loaded, followed up periodically by smaller sets of
//! data reflecting additions to the operational system over time … then
//! merge samples acquired from the update stream so as to maintain a sample
//! of the total data set."
//!
//! [`IncrementalSample`] holds the running uniform sample; each update
//! batch is sampled independently (HB with a known batch size, or HR) and
//! merged in. The footprint stays bounded by the policy no matter how many
//! deltas arrive.

use crate::ingest::SamplerConfig;
use rand::Rng;
use swh_core::footprint::FootprintPolicy;
use swh_core::merge::{merge, MergeError};
use swh_core::sample::Sample;
use swh_core::sampler::Sampler;
use swh_core::value::SampleValue;

/// A continuously maintained uniform sample of a growing data set.
#[derive(Debug)]
pub struct IncrementalSample<T: SampleValue> {
    policy: FootprintPolicy,
    p_bound: f64,
    current: Option<Sample<T>>,
    batches: u64,
    batches_total: swh_obs::Counter,
    merge_ns: swh_obs::Histogram,
}

impl<T: SampleValue> IncrementalSample<T> {
    /// Create an empty maintainer, reporting to the global [`swh_obs`]
    /// registry.
    ///
    /// # Panics
    /// Panics unless `0 < p_bound < 1`.
    pub fn new(policy: FootprintPolicy, p_bound: f64) -> Self {
        Self::with_registry(swh_obs::global(), policy, p_bound)
    }

    /// [`IncrementalSample::new`] against an explicit metrics registry.
    ///
    /// # Panics
    /// Panics unless `0 < p_bound < 1`.
    pub fn with_registry(
        registry: &swh_obs::Registry,
        policy: FootprintPolicy,
        p_bound: f64,
    ) -> Self {
        assert!(p_bound > 0.0 && p_bound < 1.0, "p_bound must lie in (0,1)");
        Self {
            policy,
            p_bound,
            current: None,
            batches: 0,
            batches_total: registry.counter(
                "swh_maintenance_batches_total",
                "Update batches absorbed into incrementally maintained samples",
            ),
            merge_ns: registry.histogram(
                "swh_maintenance_merge_ns",
                "Wall-clock nanoseconds per incremental batch merge",
            ),
        }
    }

    /// Number of batches absorbed so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Total data-set size covered so far.
    pub fn covered(&self) -> u64 {
        self.current.as_ref().map_or(0, Sample::parent_size)
    }

    /// The current uniform sample of everything absorbed (None before the
    /// first batch).
    pub fn sample(&self) -> Option<&Sample<T>> {
        self.current.as_ref()
    }

    /// Absorb one update batch: sample it (Algorithm HB when
    /// `expected_n` is given, HR otherwise) and merge into the running
    /// sample.
    pub fn apply_batch<R: Rng + ?Sized, I: IntoIterator<Item = T>>(
        &mut self,
        values: I,
        expected_n: Option<u64>,
        rng: &mut R,
    ) -> Result<(), MergeError> {
        let config = match expected_n {
            Some(n) => SamplerConfig::HybridBernoulli {
                expected_n: n,
                p_bound: self.p_bound,
            },
            None => SamplerConfig::HybridReservoir,
        };
        let mut sampler = config.build::<T>(self.policy);
        for v in values {
            sampler.observe(v, rng);
        }
        let delta = sampler.finalize(rng);
        self.batches += 1;
        self.batches_total.inc();
        self.current = Some(match self.current.take() {
            None => delta,
            Some(base) => {
                let _scope = swh_obs::profile::scope_rooted("warehouse/maintenance/merge")
                    .histogram(&self.merge_ns);
                merge(base, delta, self.p_bound, rng)?
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swh_rand::seeded_rng;
    use swh_rand::stats::{chi_square_p_value, chi_square_statistic};

    #[test]
    fn bulk_plus_deltas_covers_everything() {
        let mut rng = seeded_rng(1);
        let policy = FootprintPolicy::with_value_budget(1024);
        let mut inc = IncrementalSample::new(policy, 1e-3);
        // Bulk load.
        inc.apply_batch(0..100_000u64, Some(100_000), &mut rng)
            .unwrap();
        assert_eq!(inc.covered(), 100_000);
        // Ten smaller deltas.
        for d in 0..10u64 {
            let lo = 100_000 + d * 5_000;
            inc.apply_batch(lo..lo + 5_000, Some(5_000), &mut rng)
                .unwrap();
        }
        assert_eq!(inc.batches(), 11);
        assert_eq!(inc.covered(), 150_000);
        let s = inc.sample().unwrap();
        assert!(s.size() <= 1024);
        assert!(s.slots() <= 1024);
    }

    #[test]
    fn maintained_sample_is_uniform_over_total() {
        // Bulk of 60 + three deltas of 20: every element of the 120 must be
        // equally represented across runs.
        let mut rng = seeded_rng(2);
        let policy = FootprintPolicy::with_value_budget(16);
        let trials = 20_000usize;
        let mut incl = vec![0u64; 120];
        let mut total = 0u64;
        for _ in 0..trials {
            let mut inc = IncrementalSample::new(policy, 1e-3);
            inc.apply_batch(0..60u64, None, &mut rng).unwrap();
            for d in 0..3u64 {
                let lo = 60 + d * 20;
                inc.apply_batch(lo..lo + 20, None, &mut rng).unwrap();
            }
            for (v, c) in inc.sample().unwrap().histogram().iter() {
                assert_eq!(c, 1);
                incl[*v as usize] += 1;
                total += 1;
            }
        }
        let expect = total as f64 / 120.0;
        let exp = vec![expect; 120];
        let stat = chi_square_statistic(&incl, &exp);
        let pv = chi_square_p_value(stat, 119.0);
        assert!(
            pv > 1e-4,
            "incremental sample not uniform: chi2={stat:.1} p={pv:.2e}"
        );
    }

    #[test]
    fn empty_maintainer_state() {
        let inc: IncrementalSample<u64> =
            IncrementalSample::new(FootprintPolicy::with_value_budget(8), 1e-3);
        assert!(inc.sample().is_none());
        assert_eq!(inc.covered(), 0);
        assert_eq!(inc.batches(), 0);
    }

    #[test]
    fn tiny_deltas_absorbed_exhaustively() {
        let mut rng = seeded_rng(3);
        let policy = FootprintPolicy::with_value_budget(64);
        let mut inc = IncrementalSample::new(policy, 1e-3);
        for d in 0..20u64 {
            inc.apply_batch(d * 3..(d + 1) * 3, None, &mut rng).unwrap();
        }
        // 60 distinct values fit in... 60 slots, just under the bound: the
        // maintained sample stays exhaustive until the footprint forces
        // sampling.
        let s = inc.sample().unwrap();
        assert_eq!(s.parent_size(), 60);
        assert!(s.size() <= 64);
    }
}
