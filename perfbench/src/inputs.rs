//! Seeded input generation and the ground truth the checks compare with.
//!
//! Every value encodes the raw partition sequence number it belongs to
//! (`seq * VALUE_STRIDE + offset`), so a sampled value can be traced back to
//! its partition and checked against the requested range. The same
//! `(seed, seq)` always yields the same partition.

use rand::Rng;
use swh_aqp::query::Predicate;
use swh_workloads::{DataDistribution, DataSpec};

/// Values of partition `seq` lie in `[seq * VALUE_STRIDE, (seq + 1) *
/// VALUE_STRIDE)`.
pub const VALUE_STRIDE: i64 = 1 << 24;

/// Raw partition a value was generated for.
pub fn seq_of(v: i64) -> u64 {
    (v.div_euclid(VALUE_STRIDE)) as u64
}

/// The paper's partition size (Figs. 12-16: 32K elements per partition).
pub const PAPER_ROWS: u64 = swh_workloads::grid::PAPER_PARTITION_SIZE;

/// The paper's sample footprint (Figs. 9-16: `n_F` = 8192).
pub const PAPER_N_F: u64 = swh_workloads::grid::PAPER_N_F;

/// The paper's three data distributions (§5, Figs. 12-14), drawn with equal
/// weight per partition. Zipf over 4000 values is the duplicate-heavy one:
/// its samples stay exhaustive histograms.
pub const DISTRIBUTIONS: [DataDistribution; 3] = [
    DataDistribution::Unique,
    DataDistribution::PAPER_UNIFORM,
    DataDistribution::PAPER_ZIPF,
];

/// Shape of a workload's partitions.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Geometric middle of the partition sizes. Sizes are log-uniform over
    /// `[rows_mid / sqrt(10), rows_mid * sqrt(10)]`, a tenfold spread.
    pub rows_mid: u64,
}

/// Predicates the queries draw from; the truth table tracks each one.
pub fn predicates() -> [Predicate; 3] {
    [
        Predicate::True,
        Predicate::ModEq {
            modulus: 2,
            remainder: 0,
        },
        Predicate::ModEq {
            modulus: 5,
            remainder: 1,
        },
    ]
}

/// Generate partition `seq` of stream `tag` under `seed`: a size from the
/// tenfold log-uniform range, one of [`DISTRIBUTIONS`], values from
/// `swh-workloads` offset into the partition's value range.
///
/// Sizes and distributions are stratified rather than drawn independently:
/// the size's position in the range steps by the golden ratio from a seeded
/// start, and the distribution cycles from a seeded start. So every run of
/// consecutive partitions holds the same mix of sizes and distributions
/// whatever the seed, and a figure's run-to-run spread is not the spread
/// of a random size mix.
pub fn partition(seed: u64, tag: u64, seq: u64, shape: Shape) -> Vec<i64> {
    let mut stream = swh_rand::seeded_rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag);
    let (start, first): (f64, usize) = (stream.random(), stream.random_range(0..3));
    let mut rng =
        swh_rand::seeded_rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.rotate_left(40) ^ seq);
    let u = (start + seq as f64 * 0.618_033_988_749_894_9).fract() - 0.5;
    let rows = (shape.rows_mid as f64 * 10f64.powf(u)) as u64;
    let dist = DISTRIBUTIONS[(first + seq as usize) % DISTRIBUTIONS.len()];
    let base = seq as i64 * VALUE_STRIDE;
    let values: Vec<i64> = DataSpec::new(dist, rows, rng.random())
        .stream()
        .map(|v| base + v as i64)
        .collect();
    debug_assert!(values.iter().all(|&v| seq_of(v) == seq));
    values
}

/// Per-partition totals for each of [`predicates`]: matching rows and their
/// sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct PartStats {
    count: [u64; 3],
    sum: [f64; 3],
}

impl PartStats {
    /// Totals of one partition's values.
    pub fn of(values: &[i64]) -> Self {
        let mut s = Self::default();
        for (i, p) in predicates().iter().enumerate() {
            // An integer sum is exact: a partition's values stay far below
            // 2^63 in total.
            let (mut n, mut sum) = (0u64, 0i64);
            for &v in values {
                if p.eval(v) {
                    n += 1;
                    sum += v;
                }
            }
            s.count[i] = n;
            s.sum[i] = sum as f64;
        }
        s
    }

    /// Rows in the partition.
    pub fn rows(&self) -> u64 {
        self.count[0]
    }
}

/// Prefix sums of [`PartStats`] over dense raw sequence numbers `0..len`.
#[derive(Debug, Clone, Default)]
pub struct Truth {
    prefix: Vec<PartStats>,
}

impl Truth {
    /// Empty table.
    pub fn new() -> Self {
        Self {
            prefix: vec![PartStats::default()],
        }
    }

    /// Append the next partition (sequence number `self.len()`).
    pub fn push(&mut self, s: PartStats) {
        let last = *self.prefix.last().expect("prefix starts non-empty");
        let mut next = last;
        for i in 0..3 {
            next.count[i] += s.count[i];
            next.sum[i] += s.sum[i];
        }
        self.prefix.push(next);
    }

    fn range(&self, lo: u64, hi: u64) -> PartStats {
        let (a, b) = (self.prefix[lo as usize], self.prefix[hi as usize + 1]);
        let mut s = PartStats::default();
        for i in 0..3 {
            s.count[i] = b.count[i] - a.count[i];
            s.sum[i] = b.sum[i] - a.sum[i];
        }
        s
    }

    /// True row count of raw partitions `lo..=hi`.
    pub fn rows(&self, lo: u64, hi: u64) -> u64 {
        self.range(lo, hi).rows()
    }

    /// True `(count, sum)` of predicate `pred` (an index into
    /// [`predicates`]) over raw partitions `lo..=hi`.
    pub fn matching(&self, pred: usize, lo: u64, hi: u64) -> (u64, f64) {
        let s = self.range(lo, hi);
        (s.count[pred], s.sum[pred])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_are_seeded_and_encode_their_seq() {
        let shape = Shape { rows_mid: 1000 };
        let a = partition(7, 1, 42, shape);
        assert_eq!(a, partition(7, 1, 42, shape));
        assert_ne!(a, partition(8, 1, 42, shape));
        assert!((316..=3163).contains(&(a.len() as u64)));
        assert!(a.iter().all(|&v| seq_of(v) == 42));
    }

    #[test]
    fn truth_ranges() {
        let mut t = Truth::new();
        t.push(PartStats::of(&[0, 1, 2]));
        t.push(PartStats::of(&[VALUE_STRIDE + 5]));
        assert_eq!(t.rows(0, 1), 4);
        assert_eq!(t.rows(1, 1), 1);
        assert_eq!(t.matching(1, 0, 0), (2, 2.0));
    }
}
