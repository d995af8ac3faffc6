//! Ingestion and merge throughput: the batched fast path vs the
//! per-element path.
//!
//! Two experiments, one artifact (`bench_results/BENCH_ingest_throughput.json`
//! + CSV):
//!
//! * **ingest** — elements/second for Algorithms HB and HR when the stream
//!   is fed element-by-element (`observe`) vs in chunks (`observe_batch`)
//!   at several batch sizes. Batches are byte-identical to the element-wise
//!   loop, so this isolates pure dispatch/bulk-path overhead: the phase-2
//!   and phase-3 bulk paths skip whole runs of rejected elements with one
//!   cached-ln geometric draw per inclusion.
//! * **union** — merging 16 and 64 partition samples with the serial fold
//!   (`merge_all`) vs the union engine: the planner-driven merge DAG
//!   (`merge_tree_parallel`). Three numbers per partition count: the
//!   engine's wall-clock at one thread (the inline path every small
//!   warehouse union takes), its wall-clock on all host threads, and the
//!   elapsed time of a balanced tree's level schedule on the simulated
//!   cluster (`SWH_CPUS`, default 4) — the same methodology figures 9–11
//!   use to reproduce the paper's multi-machine testbed on a single-core
//!   host. The engine beats the fold even on one core: multiway fan-in
//!   does strictly less work per merged element than the fold's chain of
//!   pairwise hypergeometric splits, and it reads its borrowed leaves
//!   without copying them.
//!
//! With `SWH_PERF_ASSERT=1` the binary exits non-zero if the batched path
//! regresses below per-element, or if, at the widest partition count, the
//! engine loses to the serial fold at one thread (>= 1.0x) or on all host
//! threads (wall-clock, any host — the win is work reduction, not
//! threads), or the simulated cluster tree does. CI runs it at smoke scale
//! as a cheap perf gate (>= 1.0x); at default/paper scale the all-threads
//! gate tightens to the PR-8 acceptance floor of >= 1.5x over the serial
//! fold at 64 partitions.

use rand::Rng;
use std::borrow::Cow;
use swh_bench::{section, simulated_cpus, simulated_makespan, time_secs, CsvOut, Scale};
use swh_core::footprint::FootprintPolicy;
use swh_core::merge::{merge, merge_all, merge_tree_parallel};
use swh_core::sample::Sample;
use swh_core::sampler::Sampler;
use swh_rand::seeded_rng;
use swh_warehouse::ingest::{ConfiguredSampler, SamplerConfig};

#[derive(Clone, Copy)]
enum Algo {
    Hb,
    Hr,
}

impl Algo {
    fn label(self) -> &'static str {
        match self {
            Algo::Hb => "HB",
            Algo::Hr => "HR",
        }
    }

    fn config(self, expected_n: u64) -> SamplerConfig {
        match self {
            Algo::Hb => SamplerConfig::HybridBernoulli {
                expected_n,
                p_bound: 1e-3,
            },
            Algo::Hr => SamplerConfig::HybridReservoir,
        }
    }
}

/// Minimum over `reps` timed runs of `f` (minimum, not mean: scheduling
/// noise only ever adds time).
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps.max(1)).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn ingest_secs(algo: Algo, stream: &[u64], n_f: u64, batch: Option<usize>, seed: u64) -> f64 {
    let policy = FootprintPolicy::with_value_budget(n_f);
    let mut rng = seeded_rng(seed);
    let mut sampler: ConfiguredSampler<u64> = algo.config(stream.len() as u64).build(policy);
    let (_, secs) = time_secs(|| {
        match batch {
            Some(b) => {
                for chunk in stream.chunks(b) {
                    sampler.observe_batch(chunk, &mut rng);
                }
            }
            None => {
                for &v in stream {
                    sampler.observe(v, &mut rng);
                }
            }
        }
        sampler.finalize(&mut rng)
    });
    secs
}

/// Run the balanced merge tree serially, timing every pairwise merge, and
/// return the elapsed time of its level-by-level schedule on `cpus`
/// simulated workers (LPT makespan per level, levels in sequence — exactly
/// how figures 9–11 turn single-core per-job CPU times into the paper's
/// cluster elapsed times). Nodes of one level have no mutual dependencies,
/// so the level makespan is an achievable schedule.
fn tree_schedule_secs<R: Rng + ?Sized>(samples: Vec<Sample<u64>>, cpus: usize, rng: &mut R) -> f64 {
    let mut elapsed = 0.0;
    let mut work = samples;
    while work.len() > 1 {
        let mut durations = Vec::with_capacity(work.len() / 2);
        let mut next = Vec::with_capacity(work.len().div_ceil(2));
        let mut iter = work.into_iter();
        while let Some(a) = iter.next() {
            match iter.next() {
                Some(b) => {
                    let (m, t) = time_secs(|| merge(a, b, 1e-3, rng).expect("uniform merge"));
                    durations.push(t);
                    next.push(m);
                }
                None => next.push(a),
            }
        }
        elapsed += simulated_makespan(&durations, cpus);
        work = next;
    }
    elapsed
}

/// Build `parts` HR partition samples for the union experiment (outside any
/// timer).
fn partition_samples(parts: u64, n_f: u64, seed: u64) -> Vec<Sample<u64>> {
    let policy = FootprintPolicy::with_value_budget(n_f);
    let part_size = 4 * n_f;
    (0..parts)
        .map(|p| {
            let mut rng = seeded_rng(seed.wrapping_add(p));
            let mut s = SamplerConfig::HybridReservoir.build::<u64>(policy);
            let values: Vec<u64> = (p * part_size..(p + 1) * part_size).collect();
            s.observe_batch(&values, &mut rng);
            s.finalize(&mut rng)
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let n = scale.speedup_population();
    let n_f = scale.n_f();
    let reps = scale.repetitions();
    let batch_sizes: &[usize] = &[64, 1024, 4096, 16384];
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let perf_assert = std::env::var("SWH_PERF_ASSERT").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut failures: Vec<String> = Vec::new();

    section(&format!(
        "Ingest throughput: {n} unique values, n_F = {n_f}, scale = {scale}, \
         {threads} host threads"
    ));
    let mut csv = CsvOut::new(
        "ingest_throughput",
        "section,algorithm,mode,batch,partitions,secs,throughput_eps,speedup",
    );

    println!(
        "{:>4} {:>12} {:>8} {:>12} {:>14} {:>8}",
        "alg", "mode", "batch", "secs", "elems_per_sec", "speedup"
    );
    let stream: Vec<u64> = (0..n).collect();
    for algo in [Algo::Hb, Algo::Hr] {
        let base = best_of(reps, || ingest_secs(algo, &stream, n_f, None, 0x16e57));
        let base_eps = n as f64 / base.max(1e-9);
        println!(
            "{:>4} {:>12} {:>8} {:>12.4} {:>14.0} {:>8.2}",
            algo.label(),
            "per_element",
            1,
            base,
            base_eps,
            1.0
        );
        csv.row(format!(
            "ingest,{},per_element,1,1,{base:.6},{base_eps:.0},1.00",
            algo.label()
        ));
        for &b in batch_sizes {
            let secs = best_of(reps, || ingest_secs(algo, &stream, n_f, Some(b), 0x16e57));
            let eps = n as f64 / secs.max(1e-9);
            let speedup = base / secs.max(1e-9);
            println!(
                "{:>4} {:>12} {:>8} {:>12.4} {:>14.0} {:>8.2}",
                algo.label(),
                "batched",
                b,
                secs,
                eps,
                speedup
            );
            csv.row(format!(
                "ingest,{},batched,{b},1,{secs:.6},{eps:.0},{speedup:.2}",
                algo.label()
            ));
            if b == 4096 && speedup < 1.0 {
                failures.push(format!(
                    "{} batched@4096 is {speedup:.2}x per-element (expected >= 1.0x)",
                    algo.label()
                ));
            }
        }
    }

    let cpus = simulated_cpus();
    section(&format!(
        "Union merge: serial fold vs union engine ({cpus} simulated CPUs)"
    ));
    println!(
        "{:>18} {:>10} {:>12} {:>8}",
        "mode", "partitions", "secs", "speedup"
    );
    for parts in [16u64, 64] {
        let samples = partition_samples(parts, n_f, 0xCA7A);
        let serial = best_of(reps, || {
            let input = samples.clone();
            let mut rng = seeded_rng(0x5E71A);
            time_secs(|| merge_all(input, 1e-3, &mut rng).expect("uniform merge")).1
        });
        // The engine reads borrowed leaves, as the catalog lends them.
        let engine_1t = best_of(reps, || {
            let input = samples.iter().map(Cow::Borrowed).collect();
            let mut rng = seeded_rng(0x5E71A);
            time_secs(|| merge_tree_parallel(input, 1e-3, 1, &mut rng).expect("uniform merge")).1
        });
        let tree = best_of(reps, || {
            let input = samples.iter().map(Cow::Borrowed).collect();
            let mut rng = seeded_rng(0x5E71A);
            time_secs(|| {
                merge_tree_parallel(input, 1e-3, threads, &mut rng).expect("uniform merge")
            })
            .1
        });
        let sim = best_of(reps, || {
            let input = samples.clone();
            let mut rng = seeded_rng(0x5E71A);
            tree_schedule_secs(input, cpus, &mut rng)
        });
        let speedup = serial / tree.max(1e-9);
        let engine_1t_speedup = serial / engine_1t.max(1e-9);
        let sim_speedup = serial / sim.max(1e-9);
        println!(
            "{:>18} {parts:>10} {serial:>12.4} {:>8.2}",
            "serial_fold", 1.0
        );
        println!(
            "{:>18} {parts:>10} {engine_1t:>12.4} {engine_1t_speedup:>8.2}",
            "engine_1t"
        );
        println!(
            "{:>18} {parts:>10} {tree:>12.4} {speedup:>8.2}",
            "tree_parallel_wall"
        );
        println!(
            "{:>18} {parts:>10} {sim:>12.4} {sim_speedup:>8.2}",
            format!("tree_parallel_sim{cpus}")
        );
        csv.row(format!("union,HR,serial_fold,0,{parts},{serial:.6},0,1.00"));
        csv.row(format!(
            "union,HR,engine_1t,0,{parts},{engine_1t:.6},0,{engine_1t_speedup:.2}"
        ));
        csv.row(format!(
            "union,HR,tree_parallel_wall,0,{parts},{tree:.6},0,{speedup:.2}"
        ));
        csv.row(format!(
            "union,HR,tree_parallel_sim{cpus},0,{parts},{sim:.6},0,{sim_speedup:.2}"
        ));
        if parts == 64 && sim_speedup < 1.0 {
            failures.push(format!(
                "simulated tree-parallel union over {parts} partitions on {cpus} CPUs is \
                 {sim_speedup:.2}x the serial fold (expected >= 1.0x)"
            ));
        }
        // The engine replaced every serial merge path in the warehouse, so
        // at one thread it must not lose to the fold it replaced.
        if parts == 64 && engine_1t_speedup < 1.0 {
            failures.push(format!(
                "union engine at one thread over {parts} partitions is \
                 {engine_1t_speedup:.2}x the serial fold (expected >= 1.0x)"
            ));
        }
        // Work reduction, not thread count, is what the planned DAG is
        // gated on — so the wall-clock floor applies on every host. Smoke
        // scale only checks "no regression"; real scales hold the PR-8
        // acceptance floor.
        let wall_floor = if scale == Scale::Smoke { 1.0 } else { 1.5 };
        if parts == 64 && speedup < wall_floor {
            failures.push(format!(
                "planned-DAG union over {parts} partitions is {speedup:.2}x the serial fold \
                 (expected >= {wall_floor:.1}x on {threads} threads)"
            ));
        }
    }

    csv.finish();
    if !failures.is_empty() {
        eprintln!("\nperf regressions detected:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        if perf_assert {
            std::process::exit(1);
        }
    }
}
