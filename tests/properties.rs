//! Randomized property tests for the core invariants listed in DESIGN.md §5:
//! footprint bounds, histogram/bag equivalence, purge semantics, merge
//! cardinalities, and codec round-trips.
//!
//! Each property runs a fixed number of cases generated from a seeded RNG,
//! so failures are deterministic and reproducible from the case index.

use sample_warehouse::sampling::histogram::CompactHistogram;
use sample_warehouse::sampling::purge::{purge_bernoulli, purge_reservoir};
use sample_warehouse::sampling::{
    merge, FootprintPolicy, HybridBernoulli, HybridReservoir, Sample, SampleKind, Sampler,
};
use sample_warehouse::variates::seeded_rng;
use sample_warehouse::warehouse::codec::{decode_sample, encode_sample};

use rand::rngs::SmallRng;
use rand::Rng;

const CASES: u64 = 64;

/// A bag of small integers (lots of duplicates) of length 0..300.
fn bag(rng: &mut SmallRng) -> Vec<u64> {
    let len = rng.random_range(0..300usize);
    (0..len).map(|_| rng.random_range(0u64..40)).collect()
}

#[test]
fn histogram_matches_multiset_model() {
    let mut rng = seeded_rng(0xA1);
    for case in 0..CASES {
        let values = bag(&mut rng);
        let hist = CompactHistogram::from_bag(values.clone());
        // Model: sorted bag.
        let mut model = values.clone();
        model.sort_unstable();
        let mut expanded = hist.expand();
        expanded.sort_unstable();
        assert_eq!(expanded, model, "case {case}");
        assert_eq!(hist.total() as usize, values.len());
        // Slots never exceed total; distinct counts match dedup.
        let mut dedup = model.clone();
        dedup.dedup();
        assert_eq!(hist.distinct(), dedup.len());
        assert!(hist.slots() <= hist.total());
        // Singleton accounting.
        let singles = dedup
            .iter()
            .filter(|v| values.iter().filter(|x| x == v).count() == 1)
            .count() as u64;
        assert_eq!(hist.singletons(), singles, "case {case}");
    }
}

#[test]
fn histogram_join_is_multiset_union() {
    let mut rng = seeded_rng(0xA2);
    for case in 0..CASES {
        let a = bag(&mut rng);
        let b = bag(&mut rng);
        let mut ha = CompactHistogram::from_bag(a.clone());
        let hb = CompactHistogram::from_bag(b.clone());
        let predicted = ha.joined_slots(&hb);
        ha.join(hb);
        assert_eq!(ha.slots(), predicted, "case {case}");
        let mut combined = a;
        combined.extend(b);
        combined.sort_unstable();
        let mut expanded = ha.expand();
        expanded.sort_unstable();
        assert_eq!(expanded, combined, "case {case}");
    }
}

#[test]
fn purge_bernoulli_is_subsample() {
    let mut rng = seeded_rng(0xA3);
    for case in 0..CASES {
        let values = bag(&mut rng);
        let q: f64 = rng.random();
        let orig = CompactHistogram::from_bag(values);
        let mut h = orig.clone();
        purge_bernoulli(&mut h, q, &mut rng);
        assert!(h.total() <= orig.total(), "case {case}");
        for (v, c) in h.iter() {
            assert!(c <= orig.count(v), "count inflated for {v:?} (case {case})");
        }
        // Internal bookkeeping still consistent.
        assert_eq!(CompactHistogram::from_bag(h.expand()), h, "case {case}");
    }
}

#[test]
fn purge_reservoir_exact_size() {
    let mut rng = seeded_rng(0xA4);
    for case in 0..CASES {
        let values = bag(&mut rng);
        let m = rng.random_range(0u64..400);
        let orig = CompactHistogram::from_bag(values);
        let before = orig.clone();
        let h = purge_reservoir(&orig, m, &mut rng);
        assert_eq!(orig, before, "the purged input changed, case {case}");
        assert_eq!(h.total(), orig.total().min(m), "case {case}");
        for (v, c) in h.iter() {
            assert!(c <= orig.count(v), "case {case}");
        }
        assert_eq!(CompactHistogram::from_bag(h.expand()), h, "case {case}");
    }
}

#[test]
fn hb_footprint_never_exceeded() {
    let mut rng = seeded_rng(0xA5);
    for case in 0..CASES {
        let len = rng.random_range(1..2_000usize);
        let values: Vec<u64> = (0..len).map(|_| rng.random_range(0u64..10_000)).collect();
        let n_f = rng.random_range(8u64..128);
        let policy = FootprintPolicy::with_value_budget(n_f);
        let n = values.len() as u64;
        let mut hb = HybridBernoulli::new(policy, n);
        for v in &values {
            hb.observe(*v, &mut rng);
            assert!(
                hb.current_slots() <= n_f,
                "slots {} > n_f {n_f} (case {case})",
                hb.current_slots()
            );
        }
        let s = hb.finalize(&mut rng);
        assert!(s.slots() <= n_f);
        assert!(s.kind() == SampleKind::Exhaustive || s.size() <= n_f);
        assert_eq!(s.parent_size(), n, "case {case}");
    }
}

#[test]
fn hr_footprint_never_exceeded() {
    let mut rng = seeded_rng(0xA6);
    for case in 0..CASES {
        let len = rng.random_range(1..2_000usize);
        let values: Vec<u64> = (0..len).map(|_| rng.random_range(0u64..10_000)).collect();
        let n_f = rng.random_range(8u64..128);
        let policy = FootprintPolicy::with_value_budget(n_f);
        let mut hr = HybridReservoir::new(policy);
        for v in &values {
            hr.observe(*v, &mut rng);
            assert!(hr.current_slots() <= n_f, "case {case}");
        }
        let s = hr.finalize(&mut rng);
        assert!(s.slots() <= n_f);
        // HR: non-exhaustive samples have exactly n_F elements *or* the
        // stream ended with the lazy purge pending a smaller total.
        if s.kind() == SampleKind::Reservoir {
            assert!(s.size() <= n_f, "case {case}");
        }
    }
}

#[test]
fn hb_phase_transitions_recorded_exactly_once() {
    // Algorithm HB leaves phase 1 at most once and enters phase 3 at most
    // once per run; its stats must agree with the terminal provenance.
    // p = 0.5 makes the 2→3 overflow common enough to exercise all arms.
    let mut rng = seeded_rng(0xA7);
    let mut saw_phase2 = 0u32;
    let mut saw_phase3 = 0u32;
    for case in 0..200u64 {
        let n = rng.random_range(1u64..5_000);
        let n_f = rng.random_range(8u64..128);
        let policy = FootprintPolicy::with_value_budget(n_f);
        let mut hb = HybridBernoulli::with_p_bound(policy, n, 0.5);
        for v in 0..n {
            hb.observe(v, &mut rng);
        }
        let phase = hb.phase();
        let (sample, stats) = hb.finalize_with_stats(&mut rng);
        assert_eq!(stats.observed(), n, "case {case}");
        assert!(stats.footprint_hwm <= n_f, "case {case}");
        match phase {
            1 => {
                assert_eq!(stats.to_phase2_at, None, "case {case}");
                assert_eq!(stats.to_phase3_at, None, "case {case}");
                assert_eq!(stats.purges, 0, "case {case}");
                assert_eq!(sample.kind(), SampleKind::Exhaustive);
            }
            2 => {
                let p2 = stats.to_phase2_at.expect("phase 2 run records 1→2");
                assert!(p2 >= 1 && p2 <= n, "case {case}");
                assert_eq!(stats.to_phase3_at, None, "case {case}");
                assert_eq!(stats.purges, 1, "one purgeBernoulli (case {case})");
                saw_phase2 += 1;
            }
            3 => {
                let p2 = stats.to_phase2_at.expect("phase 3 run still records 1→2");
                let p3 = stats.to_phase3_at.expect("phase 3 run records 2→3");
                assert!(p2 <= p3, "transitions ordered (case {case})");
                assert!(p3 <= n, "case {case}");
                assert!(stats.purges >= 1, "case {case}");
                saw_phase3 += 1;
            }
            p => panic!("impossible phase {p}"),
        }
    }
    assert!(
        saw_phase2 > 10,
        "generator never reached phase 2 ({saw_phase2})"
    );
    assert!(
        saw_phase3 > 0,
        "generator never reached phase 3 ({saw_phase3})"
    );
}

#[test]
fn sampled_values_come_from_stream() {
    let mut rng = seeded_rng(0xA8);
    for case in 0..CASES {
        let len = rng.random_range(1..500usize);
        let values: Vec<u64> = (0..len).map(|_| rng.random_range(0u64..50)).collect();
        let policy = FootprintPolicy::with_value_budget(16);
        let orig = CompactHistogram::from_bag(values.clone());
        let s = HybridReservoir::new(policy).sample_batch(values, &mut rng);
        for (v, c) in s.histogram().iter() {
            assert!(
                c <= orig.count(v),
                "sample invented occurrences of {v:?} (case {case})"
            );
        }
    }
}

#[test]
fn merge_size_and_parent_invariants() {
    let mut rng = seeded_rng(0xA9);
    for case in 0..CASES {
        let n1 = rng.random_range(1u64..3_000);
        let n2 = rng.random_range(1u64..3_000);
        let n_f = rng.random_range(8u64..64);
        let policy = FootprintPolicy::with_value_budget(n_f);
        let s1 = HybridReservoir::new(policy).sample_batch(0..n1, &mut rng);
        let s2 = HybridReservoir::new(policy).sample_batch(n1..n1 + n2, &mut rng);
        let m = merge(s1, s2, 1e-3, &mut rng).unwrap();
        assert_eq!(m.parent_size(), n1 + n2, "case {case}");
        assert!(
            m.size() <= n_f.max(m.parent_size().min(n_f)),
            "merged size {} exceeds bound {n_f} (case {case})",
            m.size()
        );
        assert!(m.slots() <= n_f);
        // Values come from the union domain.
        for (v, _) in m.histogram().iter() {
            assert!(*v < n1 + n2, "case {case}");
        }
    }
}

#[test]
fn codec_roundtrip_arbitrary_samples() {
    let mut rng = seeded_rng(0xAA);
    for case in 0..CASES {
        let values = bag(&mut rng);
        let n_f = rng.random_range(8u64..128);
        let policy = FootprintPolicy::with_value_budget(n_f);
        let s: Sample<u64> = HybridReservoir::new(policy).sample_batch(values, &mut rng);
        let bytes = encode_sample(&s);
        let back: Sample<u64> = decode_sample(&bytes).unwrap();
        assert_eq!(back.histogram(), s.histogram(), "case {case}");
        assert_eq!(back.kind(), s.kind());
        assert_eq!(back.parent_size(), s.parent_size());
        assert_eq!(back.policy(), s.policy());
    }
}

#[test]
fn codec_rejects_random_garbage() {
    // Random bytes must never panic — either decode (vanishingly unlikely)
    // or produce a clean error.
    let mut rng = seeded_rng(0xAB);
    for _ in 0..256 {
        let len = rng.random_range(0..200usize);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
        let _ = decode_sample::<u64>(&bytes);
    }
}

#[test]
fn alias_table_encodes_arbitrary_weights() {
    use sample_warehouse::variates::alias::AliasTable;
    let mut rng = seeded_rng(0xAC);
    for case in 0..CASES {
        let len = rng.random_range(1..64usize);
        let weights: Vec<f64> = (0..len).map(|_| rng.random::<f64>() * 100.0).collect();
        let total: f64 = weights.iter().sum();
        if total <= 1e-9 {
            continue;
        }
        let table = AliasTable::new(&weights);
        let probs = table.outcome_probabilities();
        for (p, w) in probs.iter().zip(&weights) {
            assert!(
                (p - w / total).abs() < 1e-9,
                "{p} vs {} (case {case})",
                w / total
            );
        }
    }
}

#[test]
fn hypergeometric_recurrence_matches_direct() {
    use sample_warehouse::variates::Hypergeometric;
    let mut rng = seeded_rng(0xAD);
    for case in 0..CASES {
        let d1 = rng.random_range(1u64..200);
        let d2 = rng.random_range(1u64..200);
        let k_frac: f64 = rng.random();
        let k = ((d1 + d2) as f64 * k_frac) as u64;
        let h = Hypergeometric::new(d1, d2, k);
        let sum: f64 = h.probs().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "case {case}");
        for l in 0..=k {
            assert!(
                (h.pmf(l) - h.pmf_direct(l)).abs() < 1e-9,
                "l={l} (case {case})"
            );
        }
    }
}

#[test]
fn merge_fuzz_across_provenances() {
    // Merge any combination of exhaustive / Bernoulli / reservoir
    // provenances: must never error or violate the bound invariants.
    let mut rng = seeded_rng(0xAE);
    for case in 0..CASES {
        let n1 = rng.random_range(1u64..2_000);
        let n2 = rng.random_range(1u64..2_000);
        let scheme1 = rng.random_range(0u8..3);
        let scheme2 = rng.random_range(0u8..3);
        let n_f = rng.random_range(8u64..64);
        let policy = FootprintPolicy::with_value_budget(n_f);
        let build = |scheme: u8, range: std::ops::Range<u64>, rng: &mut SmallRng| -> Sample<u64> {
            let n = range.end - range.start;
            match scheme {
                0 => HybridReservoir::new(policy).sample_batch(range, rng),
                1 => HybridBernoulli::new(policy, n).sample_batch(range, rng),
                // Tiny stream with duplicates: forces exhaustive outcomes.
                _ => HybridReservoir::new(policy).sample_batch(range.map(|v| v % 7), rng),
            }
        };
        let s1 = build(scheme1, 0..n1, &mut rng);
        let s2 = build(scheme2, n1..n1 + n2, &mut rng);
        let m = merge(s1, s2, 1e-3, &mut rng).unwrap();
        assert_eq!(m.parent_size(), n1 + n2, "case {case}");
        assert!(m.slots() <= n_f);
        if m.kind() != SampleKind::Exhaustive {
            assert!(m.size() <= n_f, "case {case}");
        }
    }
}

#[test]
fn merged_sample_values_subset_of_inputs() {
    let mut rng = seeded_rng(0xAF);
    for case in 0..CASES {
        let n1 = rng.random_range(10u64..500);
        let n2 = rng.random_range(10u64..500);
        let policy = FootprintPolicy::with_value_budget(32);
        // Distinguishable domains: partition 1 even, partition 2 odd.
        let s1 = HybridReservoir::new(policy).sample_batch((0..n1).map(|v| v * 2), &mut rng);
        let s2 = HybridReservoir::new(policy).sample_batch((0..n2).map(|v| v * 2 + 1), &mut rng);
        let m = merge(s1, s2, 1e-3, &mut rng).unwrap();
        let from_p1: u64 = m
            .histogram()
            .iter()
            .filter(|(v, _)| *v % 2 == 0)
            .map(|(_, c)| c)
            .sum();
        let from_p2 = m.size() - from_p1;
        assert!(from_p1 <= n1, "case {case}");
        assert!(from_p2 <= n2, "case {case}");
    }
}
