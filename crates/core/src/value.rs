//! The value type abstraction for sampled data elements.
//!
//! A *data set* in the paper is a bag of values — column values of a
//! relational table, instance values of an XML leaf node, etc. The sampling
//! machinery is generic over any such value type through [`SampleValue`].

use std::fmt::Debug;
use std::hash::Hash;

/// Types that can be stored in warehouse samples.
///
/// Requirements follow directly from the algorithms:
/// * `Eq + Hash` — compact `(value, count)` histogram storage;
/// * `Ord` — deterministic iteration order for reproducible experiments and
///   canonical serialized form;
/// * `Clone` — values move between compact and expanded representations;
/// * `Send + 'static` — partitions are sampled on parallel threads;
/// * `Sync` — the union engine's workers read shared input samples in
///   place instead of copying them.
///
/// The footprint model (see [`crate::footprint::FootprintPolicy`]) assumes
/// fixed-width values, matching the paper's accounting where a bound of `F`
/// bytes corresponds to exactly `n_F` data-element values. Variable-width
/// types (e.g. `String`) can still be sampled; the bound is then interpreted
/// in value slots rather than bytes.
pub trait SampleValue: Clone + Eq + Hash + Ord + Debug + Send + Sync + 'static {}

impl<T: Clone + Eq + Hash + Ord + Debug + Send + Sync + 'static> SampleValue for T {}

#[cfg(test)]
mod tests {
    use super::*;

    fn accepts<T: SampleValue>() {}

    #[test]
    fn common_types_are_sample_values() {
        accepts::<u64>();
        accepts::<i32>();
        accepts::<String>();
        accepts::<(u32, u32)>();
        accepts::<Vec<u8>>();
    }
}
