//! Model-based testing of the warehouse catalog: random operation
//! sequences executed against both the real `Catalog` and a trivial
//! in-memory model must agree at every step.
//!
//! Operation sequences are generated from a seeded RNG (small key spaces so
//! duplicates and missing keys are common), one sequence per case index.

use rand::rngs::SmallRng;
use rand::Rng;
use sample_warehouse::sampling::{FootprintPolicy, HybridReservoir, Sample, Sampler};
use sample_warehouse::variates::seeded_rng;
use sample_warehouse::warehouse::catalog::{Catalog, CatalogError};
use sample_warehouse::warehouse::{DatasetId, PartitionId, PartitionKey};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    RollIn { dataset: u64, seq: u64, parent: u64 },
    RollOut { dataset: u64, seq: u64 },
    Get { dataset: u64, seq: u64 },
    Partitions { dataset: u64 },
    UnionAll { dataset: u64 },
}

fn random_op(rng: &mut SmallRng) -> Op {
    // Small key spaces so collisions (duplicates, missing keys) are common.
    let dataset = rng.random_range(0u64..3);
    let seq = rng.random_range(0u64..5);
    match rng.random_range(0u8..5) {
        0 => Op::RollIn {
            dataset,
            seq,
            parent: rng.random_range(1u64..500),
        },
        1 => Op::RollOut { dataset, seq },
        2 => Op::Get { dataset, seq },
        3 => Op::Partitions { dataset },
        _ => Op::UnionAll { dataset },
    }
}

fn key(dataset: u64, seq: u64) -> PartitionKey {
    PartitionKey {
        dataset: DatasetId(dataset),
        partition: PartitionId::seq(seq),
    }
}

#[test]
fn catalog_agrees_with_model() {
    let mut rng = seeded_rng(7);
    let policy = FootprintPolicy::with_value_budget(16);
    for case in 0..48u64 {
        let n_ops = rng.random_range(1..60usize);
        let ops: Vec<Op> = (0..n_ops).map(|_| random_op(&mut rng)).collect();
        let catalog: Catalog<u64> = Catalog::new();
        // Model: (dataset, seq) -> sample.
        let mut model: BTreeMap<(u64, u64), Sample<u64>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::RollIn {
                    dataset,
                    seq,
                    parent,
                } => {
                    let sample = HybridReservoir::new(policy).sample_batch(0..parent, &mut rng);
                    let real = catalog.roll_in(key(dataset, seq), sample.clone());
                    if let std::collections::btree_map::Entry::Vacant(e) =
                        model.entry((dataset, seq))
                    {
                        assert!(real.is_ok(), "case {case}");
                        e.insert(sample);
                    } else {
                        assert!(
                            matches!(real, Err(CatalogError::DuplicatePartition(_))),
                            "case {case}"
                        );
                    }
                }
                Op::RollOut { dataset, seq } => {
                    let real = catalog.roll_out(key(dataset, seq));
                    match model.remove(&(dataset, seq)) {
                        Some(expected) => {
                            assert_eq!(*real.unwrap().sample, expected, "case {case}");
                        }
                        None => assert!(real.is_err(), "case {case}"),
                    }
                }
                Op::Get { dataset, seq } => {
                    let real = catalog.get(key(dataset, seq));
                    match model.get(&(dataset, seq)) {
                        Some(expected) => assert_eq!(&real.unwrap(), expected, "case {case}"),
                        None => assert!(real.is_err(), "case {case}"),
                    }
                }
                Op::Partitions { dataset } => {
                    let expected: Vec<u64> = model
                        .keys()
                        .filter(|(d, _)| *d == dataset)
                        .map(|(_, s)| *s)
                        .collect();
                    match catalog.partitions(DatasetId(dataset)) {
                        Ok(real) => {
                            let real: Vec<u64> = real.into_iter().map(|p| p.seq).collect();
                            assert_eq!(real, expected, "case {case}");
                        }
                        Err(_) => assert!(expected.is_empty(), "case {case}"),
                    }
                }
                Op::UnionAll { dataset } => {
                    let expected_parent: u64 = model
                        .iter()
                        .filter(|((d, _), _)| *d == dataset)
                        .map(|(_, s)| s.parent_size())
                        .sum();
                    let present = model.keys().any(|(d, _)| *d == dataset);
                    match catalog.union_sample(DatasetId(dataset), |_| true, 1e-3, &mut rng) {
                        Ok(s) => {
                            assert!(present, "case {case}");
                            assert_eq!(s.parent_size(), expected_parent, "case {case}");
                            assert!(s.size() <= 16, "case {case}");
                        }
                        Err(_) => assert!(!present, "case {case}"),
                    }
                }
            }
            // Global invariant: total partition count agrees.
            assert_eq!(catalog.len(), model.len(), "case {case}");
        }
    }
}
