//! Output checks and failure accounting.
//!
//! Every op the benchmark makes is checked, and every failed check counts
//! in the report's `error_rate`. Two failure shapes are known program
//! defects; the result line's `failed` counts the failures of any other
//! shape, and any such failure also makes the run's `correct` false:
//!
//! * (a) `swh query/estimate --from/--to` on a compacted store selects
//!   roll-ups by their first sequence number, so a range that cuts a
//!   roll-up is answered (over the wrong rows) instead of refused.
//! * (b) `LifecycleManager::union_seq_range` picks partitions and unions
//!   them under separate catalog snapshots, so a union racing the
//!   background compactor can cover the wrong rows without an error.

use crate::inputs::{seq_of, Truth};
use swh_core::sample::Sample;

/// Why an op failed.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// Known defect (a): a CLI range that cuts a roll-up was answered.
    CutRangeAnswered,
    /// Known defect (b): a union raced a compaction and was wrong.
    UnionRacedCompaction(String),
    /// Anything else.
    Other(String),
}

/// Tally of checked ops.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Failures attributed to known defect (a).
    pub defect_a: u64,
    /// Failures attributed to known defect (b).
    pub defect_b: u64,
    /// Failures of any other shape.
    pub other: u64,
    /// The first few failure messages, for the report.
    pub examples: Vec<String>,
}

impl Tally {
    /// Record the outcome of one op.
    pub fn record(&mut self, outcome: Result<(), Failure>) {
        self.attempted += 1;
        let Err(f) = outcome else { return };
        let msg = match &f {
            Failure::CutRangeAnswered => {
                self.defect_a += 1;
                "defect (a): CLI answered a range that cuts a roll-up".to_string()
            }
            Failure::UnionRacedCompaction(m) => {
                self.defect_b += 1;
                format!("defect (b): {m}")
            }
            Failure::Other(m) => {
                self.other += 1;
                m.clone()
            }
        };
        if self.examples.len() < 5 {
            self.examples.push(msg);
        }
    }

    /// All failed ops.
    pub fn failed(&self) -> u64 {
        self.defect_a + self.defect_b + self.other
    }
}

/// Check a union sample of raw partitions `lo..=hi`: it covers exactly the
/// range's rows, its footprint is at most `n_f` value slots (a compact
/// histogram of an exhaustive sample may represent more values than that),
/// and every value comes from a partition inside the range.
pub fn check_union(
    sample: &Sample<i64>,
    lo: u64,
    hi: u64,
    truth: &Truth,
    n_f: u64,
) -> Result<(), String> {
    let want = truth.rows(lo, hi);
    if sample.parent_size() != want {
        return Err(format!(
            "union of {lo}..={hi} covers {} rows, the range holds {want}",
            sample.parent_size()
        ));
    }
    if sample.slots() > n_f {
        return Err(format!(
            "union of {lo}..={hi} occupies {} slots, more than n_F = {n_f}",
            sample.slots()
        ));
    }
    if let Some((v, _)) = sample
        .histogram()
        .iter()
        .find(|(v, _)| !(lo..=hi).contains(&seq_of(**v)))
    {
        return Err(format!(
            "union of {lo}..={hi} holds value {v} of partition {}",
            seq_of(*v)
        ));
    }
    Ok(())
}

/// Show that [`check_union`] flags a union with one partition dropped, and
/// accepts the full union. Runs at the start of every benchmark run.
pub fn self_test() -> Result<(), String> {
    use crate::inputs::{partition, PartStats, Shape};
    use swh_core::footprint::FootprintPolicy;
    use swh_core::sampler::Sampler;
    use swh_warehouse::ingest::SamplerConfig;
    use swh_warehouse::{Catalog, DatasetId, PartitionId, PartitionKey};

    let shape = Shape { rows_mid: 600 };
    let n_f = 64;
    let mut rng = swh_rand::seeded_rng(1);
    let catalog = Catalog::<i64>::with_registry(&swh_obs::Registry::new());
    let mut truth = Truth::new();
    let ds = DatasetId(0);
    for seq in 0..6 {
        let values = partition(1, 0, seq, shape);
        truth.push(PartStats::of(&values));
        let mut s =
            SamplerConfig::HybridReservoir.build::<i64>(FootprintPolicy::with_value_budget(n_f));
        s.observe_batch(&values, &mut rng);
        let key = PartitionKey {
            dataset: ds,
            partition: PartitionId::seq(seq),
        };
        catalog
            .roll_in(key, s.finalize(&mut rng))
            .map_err(|e| e.to_string())?;
    }
    let full = catalog
        .union_sample(ds, |_| true, 1e-3, &mut rng)
        .map_err(|e| e.to_string())?;
    check_union(&full, 0, 5, &truth, n_f).map_err(|e| format!("full union rejected: {e}"))?;
    let dropped = catalog
        .union_sample(ds, |p| p.seq != 3, 1e-3, &mut rng)
        .map_err(|e| e.to_string())?;
    match check_union(&dropped, 0, 5, &truth, n_f) {
        Err(_) => Ok(()),
        Ok(()) => Err("a union with partition 3 dropped passed the check".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_flags_a_dropped_partition() {
        self_test().unwrap();
    }

    #[test]
    fn tally_counts_every_failure() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err(Failure::CutRangeAnswered));
        t.record(Err(Failure::UnionRacedCompaction("x".into())));
        t.record(Err(Failure::Other("y".into())));
        assert_eq!((t.attempted, t.failed(), t.other), (4, 3, 1));
    }
}
