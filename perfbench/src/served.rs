//! Set-up shared by the two long-lived-process workloads: sample a day or
//! more of per-minute partitions in memory, compact them hourly under the
//! default 60 x 24 policy, persist them, reload them into a serving catalog
//! with a merged-union cache attached, and warm the cache. The query step
//! and the query layer metrics both workloads read are here too.
//!
//! The reload runs `DiskStore::list` + `DiskStore::load` + `Catalog::roll_in`
//! over the dataset, the loop `SampleWarehouse::load_dataset` runs:
//! `LifecycleManager` needs an `Arc<Catalog>`, which `SampleWarehouse` cannot
//! hand out, so a serving process cannot use `load_dataset` itself.

use crate::check::{check_union, Failure};
use crate::common::{Args, QuerySpec};
use crate::counters::{Counters, Reading};
use crate::inputs::{partition, PartStats, Shape, Truth};
use crate::report::{Metric, Outcome, Recorder};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use swh_core::footprint::FootprintPolicy;
use swh_core::sample::{Sample, SampleKind};
use swh_core::sampler::Sampler;
use swh_warehouse::ingest::SamplerConfig;
use swh_warehouse::lifecycle::{LifecycleManager, LifecyclePolicy, Tier, UnionCache};
use swh_warehouse::{
    encode_sample, Catalog, DatasetId, DiskStore, LifecycleError, PartitionId, PartitionKey,
};

/// Merge probability bound for compaction and unions (the paper's default).
pub const P_BOUND: f64 = 1e-3;

/// The one dataset every workload uses.
pub const DS: DatasetId = DatasetId(0);

/// Input generation stream tag for history partitions.
pub const HISTORY_TAG: u64 = 1;

/// Minutes per hour and per day under the default policy.
pub const HOUR: u64 = 60;
/// See [`HOUR`].
pub const DAY: u64 = 1440;

/// What history a long-lived process starts from.
#[derive(Debug, Clone, Copy)]
pub struct History {
    /// Whole days (cold roll-ups after compaction).
    pub days: u64,
    /// Whole hours after the days (warm roll-ups).
    pub hours: u64,
    /// Minutes after the hours (hot partitions).
    pub minutes: u64,
    /// Sample footprint target `n_F` (Algorithm HR).
    pub n_f: u64,
    /// Partition sizes and duplicate share.
    pub shape: Shape,
    /// Merged-union cache budget in bytes.
    pub cache_bytes: u64,
}

impl History {
    /// Raw partitions in the history.
    pub fn partitions(&self) -> u64 {
        self.days * DAY + self.hours * HOUR + self.minutes
    }

    /// Sequence numbers where an aligned range may start (and, minus one,
    /// end) once the history is compacted: day starts, hour starts after
    /// the days, every hot minute, and the end.
    pub fn cut_points(&self) -> Vec<u64> {
        let mut cuts: Vec<u64> = (0..self.days).map(|d| d * DAY).collect();
        let warm0 = self.days * DAY;
        cuts.extend((0..self.hours).map(|h| warm0 + h * HOUR));
        let hot0 = warm0 + self.hours * HOUR;
        cuts.extend(hot0..=self.partitions());
        cuts
    }
}

/// A loaded, compacted, cache-warmed serving catalog.
pub struct Served {
    /// The serving catalog.
    pub catalog: Arc<Catalog<i64>>,
    /// Lifecycle manager over it (store attached).
    pub manager: Arc<LifecycleManager<i64>>,
    /// Its merged-union cache.
    pub cache: Arc<UnionCache<i64>>,
    /// True totals per raw partition.
    pub truth: Truth,
    /// Bytes of roll-up files compaction produced.
    pub rollup_bytes: u64,
    /// Largest compaction backlog a set-up sweep found.
    pub backlog: u64,
    /// Samples that ended in reservoir form, and samples built.
    pub reservoir: (u64, u64),
}

/// Sample one partition's values and finalize, in `core.sampler.*` spans.
pub fn sample_values(
    rec: &mut Recorder,
    config: SamplerConfig,
    n_f: u64,
    values: &[i64],
    rng: &mut rand::rngs::SmallRng,
) -> Sample<i64> {
    let mut sampler = config.build::<i64>(FootprintPolicy::with_value_budget(n_f));
    if rec.tracer.on() {
        rec.add("rows.observed", values.len() as u64);
    }
    rec.tracer.span("core.sampler.observe", || {
        sampler.observe_batch(values, rng)
    });
    rec.tracer
        .span("core.sampler.finalize", || sampler.finalize(rng))
}

/// Whether a sample ended in reservoir (phase-3) form.
pub fn is_reservoir(s: &Sample<i64>) -> bool {
    matches!(s.kind(), SampleKind::Reservoir)
}

/// Re-encode a saved sample in a span of its own: `DiskStore::save`
/// encodes internally, so the traced run replays the encode to time it.
pub fn replay_encode(rec: &mut Recorder, traced: bool, sample: &Sample<i64>) {
    if traced {
        rec.replay(true, "replay.encode", |t| {
            t.span("warehouse.codec.encode", || {
                std::hint::black_box(encode_sample(sample));
            })
        });
    }
}

/// Bytes of the files under `dir` whose names end in one of `suffixes`.
pub fn dir_bytes(dir: &Path, suffixes: &[&str]) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.filter_map(Result::ok)
        .filter(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy();
            suffixes.iter().any(|s| n.ends_with(s))
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Bytes of the warm and cold roll-up files in the store.
pub fn rollup_file_bytes(store: &DiskStore) -> Result<u64, String> {
    Ok(store
        .list(DS)
        .map_err(|e| e.to_string())?
        .into_iter()
        .filter(|k| Tier::of_stream(k.partition.stream) != Tier::Hot)
        .filter_map(|k| {
            let name = format!("p{}_{}.swhs", k.partition.stream, k.partition.seq);
            std::fs::metadata(store.dataset_dir(DS).join(name)).ok()
        })
        .map(|m| m.len())
        .sum())
}

/// Build the serving catalog from history under `dir`. Input generation
/// runs outside every op, so it is not set-up time. `warm` lists the spans
/// whose unions warm the cache.
pub fn set_up(
    h: &History,
    seed: u64,
    dir: &Path,
    rec: &mut Recorder,
    warm: &[(u64, u64)],
) -> Result<Served, String> {
    let mut rng = swh_rand::seeded_rng(seed ^ 0x5e7u64);
    let staging = Arc::new(Catalog::<i64>::new());
    // The compactor sweeps after every hour, as a serving process's
    // background compactor would, so at most a day of raw partitions is
    // resident at once.
    let compactor = LifecycleManager::new(Arc::clone(&staging), None, P_BOUND);
    compactor.set_policy(DS, LifecyclePolicy::default());
    let mut truth = Truth::new();
    let mut reservoir = (0u64, 0u64);
    let mut backlog = 0;
    for seq in 0..h.partitions() {
        let values = partition(seed, HISTORY_TAG, seq, h.shape);
        truth.push(PartStats::of(&values));
        let op = rec.start("setup.ingest");
        let sample = sample_values(
            rec,
            SamplerConfig::HybridReservoir,
            h.n_f,
            &values,
            &mut rng,
        );
        reservoir.0 += u64::from(is_reservoir(&sample));
        reservoir.1 += 1;
        let key = PartitionKey {
            dataset: DS,
            partition: PartitionId::seq(seq),
        };
        let r = rec
            .tracer
            .span("warehouse.roll_in", || staging.roll_in(key, sample));
        rec.finish(op, None, values.len() as u64);
        rec.check(r.map_err(|e| Failure::Other(format!("history roll-in: {e}"))));
        if (seq + 1) % HOUR == 0 || seq + 1 == h.partitions() {
            backlog = backlog.max(compactor.backlog(DS));
            let op = rec.start("setup.compact");
            let r = rec
                .tracer
                .span("warehouse.lifecycle.sweep", || compactor.sweep(&mut rng));
            rec.finish(op, None, 0);
            rec.check(
                r.map(|_| ())
                    .map_err(|e| Failure::Other(format!("compaction: {e}"))),
            );
        }
    }

    let store = DiskStore::open(dir).map_err(|e| e.to_string())?;
    let parts = staging.partitions(DS).map_err(|e| e.to_string())?;
    for p in parts {
        let key = PartitionKey {
            dataset: DS,
            partition: p,
        };
        let sample = staging.get(key).map_err(|e| e.to_string())?;
        let op = rec.start("setup.persist");
        let traced = op.traced();
        let r = rec
            .tracer
            .span("warehouse.store.save", || store.save(key, &sample));
        rec.finish(op, None, 0);
        rec.check(r.map_err(|e| Failure::Other(format!("persist: {e}"))));
        replay_encode(rec, traced, &sample);
    }
    drop(staging);
    let rollup_bytes = rollup_file_bytes(&store)?;

    let catalog = Arc::new(Catalog::<i64>::new());
    let op = rec.start("setup.load");
    let loaded: Result<(), String> = {
        let s = rec.tracer.begin("warehouse.load_dataset");
        let r = (|| {
            for key in store.list(DS).map_err(|e| e.to_string())? {
                let sample = rec
                    .tracer
                    .span("warehouse.store.decode", || store.load::<i64>(key))
                    .map_err(|e| e.to_string())?;
                rec.tracer
                    .span("warehouse.roll_in", || catalog.roll_in(key, sample))
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        })();
        rec.tracer.end(s);
        r
    };
    rec.finish(op, None, 0);
    rec.check(loaded.map_err(|e| Failure::Other(format!("reload: {e}"))));

    let cache = Arc::new(UnionCache::new(h.cache_bytes));
    catalog.enable_union_cache(Arc::clone(&cache));
    let manager = Arc::new(LifecycleManager::new(
        Arc::clone(&catalog),
        Some(store),
        P_BOUND,
    ));
    manager.set_policy(DS, LifecyclePolicy::default());
    for &(lo, hi) in warm {
        let op = rec.start("setup.warmup");
        let r = rec.tracer.span("warehouse.union", || {
            manager.union_seq_range(DS, 0, lo..=hi, &mut rng)
        });
        rec.finish(op, None, 0);
        rec.check(match r {
            Ok(s) => check_union(&s, lo, hi, &truth, h.n_f).map_err(Failure::Other),
            Err(e) => Err(Failure::Other(format!("warm-up union {lo}..={hi}: {e}"))),
        });
    }
    Ok(Served {
        catalog,
        manager,
        cache,
        truth,
        rollup_bytes,
        backlog,
        reservoir,
    })
}

/// Figures one set-up yields: its wall time, its compaction sweep, and its
/// history ingest.
#[derive(Debug, Clone, Copy)]
pub struct SetupFigures {
    /// Set-up wall time (input generation excluded), s.
    pub setup_s: f64,
    /// Wall time of the set-up's compaction sweeps, s.
    pub compact_s: f64,
    /// History rows / wall of the history ingest ops.
    pub ingest_rows_per_s: f64,
    /// Median history ingest op, ms.
    pub ingest_p50_ms: f64,
    /// 90th-percentile history ingest op, ms.
    pub ingest_p90_ms: f64,
}

impl SetupFigures {
    /// The line a set-up-only child prints.
    pub fn line(&self) -> String {
        format!(
            "setup-figures {} {} {} {} {}",
            self.setup_s,
            self.compact_s,
            self.ingest_rows_per_s,
            self.ingest_p50_ms,
            self.ingest_p90_ms
        )
    }

    /// Parse [`SetupFigures::line`] from the last line of `out`.
    pub fn parse(out: &str) -> Option<Self> {
        let v: Vec<f64> = out
            .lines()
            .last()?
            .strip_prefix("setup-figures ")?
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        match v[..] {
            [setup_s, compact_s, ingest_rows_per_s, ingest_p50_ms, ingest_p90_ms] => Some(Self {
                setup_s,
                compact_s,
                ingest_rows_per_s,
                ingest_p50_ms,
                ingest_p90_ms,
            }),
            _ => None,
        }
    }

    /// Median of each figure over `reps`.
    pub fn median(reps: &[SetupFigures]) -> SetupFigures {
        let m = |f: fn(&SetupFigures) -> f64| {
            crate::stats::median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        SetupFigures {
            setup_s: m(|r| r.setup_s),
            compact_s: m(|r| r.compact_s),
            ingest_rows_per_s: m(|r| r.ingest_rows_per_s),
            ingest_p50_ms: m(|r| r.ingest_p50_ms),
            ingest_p90_ms: m(|r| r.ingest_p90_ms),
        }
    }
}

/// [`set_up`], returning the set-up's figures as well.
pub fn measured_set_up(
    h: &History,
    seed: u64,
    dir: &Path,
    rec: &mut Recorder,
    warm: &[(u64, u64)],
) -> Result<(Served, SetupFigures), String> {
    let busy = rec.busy_s();
    let n0 = rec.count("setup.ingest");
    let c0 = rec.count("setup.compact");
    let ingest_busy = rec.busy_s_of(&["setup.ingest"]);
    let served = set_up(h, seed, dir, rec, warm)?;
    let mut lat = rec.latencies("setup.ingest")[n0..].to_vec();
    let rows = served.truth.rows(0, h.partitions() - 1) as f64;
    let figures = SetupFigures {
        setup_s: rec.busy_s() - busy,
        compact_s: rec.latencies("setup.compact")[c0..].iter().sum::<f64>() / 1e3,
        ingest_rows_per_s: rows / (rec.busy_s_of(&["setup.ingest"]) - ingest_busy),
        ingest_p50_ms: crate::stats::percentile(&mut lat, 0.5).unwrap_or(f64::NAN),
        ingest_p90_ms: crate::stats::percentile(&mut lat, 0.9).unwrap_or(f64::NAN),
    };
    Ok((served, figures))
}

/// One more set-up, in a child process of this benchmark so its memory and
/// heap state do not touch the serving process. The timed phase pauses
/// around it.
pub fn child_set_up(args: &Args, workload: &str, rep: usize) -> Result<SetupFigures, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let dir = args.work.join(format!("setup-{rep}"));
    let out = std::process::Command::new(exe)
        .arg("--swh")
        .arg(&args.swh)
        .args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", "--setup-only"])
        .arg(&dir)
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), SetupFigures::parse(&text)) {
        (true, Some(f)) => Ok(f),
        _ => Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Partitions of the serving catalog a union of `lo..=hi` touches, from
/// `Catalog::partitions` and `LifecyclePolicy::span_of`.
pub fn nodes_touched(served: &Served, lo: u64, hi: u64) -> u64 {
    let policy = served.manager.policy(DS);
    served
        .catalog
        .partitions(DS)
        .map(|parts| {
            parts
                .into_iter()
                .filter(|p| {
                    let (a, b) = policy.span_of(*p);
                    a <= hi && b >= lo
                })
                .count() as u64
        })
        .unwrap_or(0)
}

/// Resident partitions per tier: (hot, warm, cold).
pub fn tiers(catalog: &Catalog<i64>) -> (u64, u64, u64) {
    let mut t = (0, 0, 0);
    for p in catalog.partitions(DS).unwrap_or_default() {
        match Tier::of_stream(p.stream) {
            Tier::Hot => t.0 += 1,
            Tier::Warm => t.1 += 1,
            Tier::Cold => t.2 += 1,
        }
    }
    t
}

/// Set-ups per run of a served workload; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Run the next extra set-up in a child process once the timed phase has
/// reached its share, so the set-ups spread evenly over the run. Returns
/// how long the timed phase paused for it, if one ran.
pub fn spread_set_up(
    args: &Args,
    rec: &mut Recorder,
    workload: &str,
    reps: &mut Vec<SetupFigures>,
) -> Result<Option<Duration>, String> {
    if rec.timed_share() * (SETUP_REPS as f64) < reps.len() as f64 {
        return Ok(None);
    }
    let start = Instant::now();
    reps.push(child_set_up(args, workload, reps.len())?);
    let pause = start.elapsed();
    rec.pause(pause);
    Ok(Some(pause))
}

/// Run the set-ups the timed phase left over, print every set-up's wall
/// time, and return the median figures.
pub fn finish_set_ups(
    args: &Args,
    workload: &str,
    reps: &mut Vec<SetupFigures>,
) -> Result<SetupFigures, String> {
    while reps.len() < SETUP_REPS {
        reps.push(child_set_up(args, workload, reps.len())?);
    }
    println!(
        "set-up seconds per repetition: {:?}",
        reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()
    );
    Ok(SetupFigures::median(reps))
}

/// What the queries of a served workload tallied.
#[derive(Debug, Default)]
pub struct QueryTally {
    /// Cache stats `(lookups, hits)` when the timed phase began.
    pub cache0: (u64, u64),
    /// Queries whose span repeats one asked since the last invalidation.
    pub repeats: u64,
    /// Partitions touched by traced queries, and traced queries.
    pub nodes: (u64, u64),
    /// Union wall (ns) and count of cache hits.
    pub hits: (u64, u64),
    /// Union wall (ns) and count of cache misses.
    pub misses: (u64, u64),
    /// 95% CIs that covered the truth, and CIs checked.
    pub covered: (u64, u64),
}

/// One query op: `union_seq_range` over raw partitions `lo..=hi` and
/// `Query::estimate`, timed together and checked. When `racing`, the
/// background compactor runs beside it, and a wrong union counts as the
/// race (b) if the catalog moved during the call or the same union asked
/// again comes out right.
#[allow(clippy::too_many_arguments)]
pub fn query(
    rec: &mut Recorder,
    served: &Served,
    n_f: u64,
    (lo, hi): (u64, u64),
    q: &QuerySpec,
    rng: &mut rand::rngs::SmallRng,
    racing: bool,
    tally: &mut QueryTally,
) {
    let counters = Counters::global();
    let m0 = counters.mutations();
    let (_, h0) = served.cache.stats();
    let op = rec.start("query");
    let traced = op.traced();
    let tu = Instant::now();
    let union = rec.tracer.span("warehouse.union", || {
        served.manager.union_seq_range(DS, 0, lo..=hi, rng)
    });
    let union_ns = tu.elapsed().as_nanos() as u64;
    let est = union
        .as_ref()
        .ok()
        .map(|s| rec.tracer.span("aqp.estimate", || q.query.estimate(s)));
    rec.finish(op, None, 0);
    let moved = counters.mutations() != m0;
    let (_, h1) = served.cache.stats();
    let split = if h1 > h0 {
        &mut tally.hits
    } else {
        &mut tally.misses
    };
    split.0 += union_ns;
    split.1 += 1;
    let check = |u: &Result<Sample<i64>, LifecycleError>| match u {
        Ok(s) => check_union(s, lo, hi, &served.truth, n_f),
        Err(e) => Err(format!("union {lo}..={hi}: {e}")),
    };
    let verdict = check(&union).map_err(|m| {
        // The compactor's counters are bumped after its catalog edit, so a
        // race can finish before they move: ask again to tell it apart
        // from a wrong answer that repeats.
        let transient = racing
            && (moved
                || (0..3)
                    .any(|_| check(&served.manager.union_seq_range(DS, 0, lo..=hi, rng)).is_ok()));
        if transient {
            Failure::UnionRacedCompaction(m)
        } else {
            Failure::Other(m)
        }
    });
    rec.check(verdict);
    if let (Some(e), Some(truth)) = (est, q.truth(&served.truth, lo, hi)) {
        let (a, b) = e.confidence_interval(0.95);
        tally.covered.1 += 1;
        tally.covered.0 += u64::from(a <= truth && truth <= b);
    }
    if traced {
        tally.nodes.0 += nodes_touched(served, lo, hi);
        tally.nodes.1 += 1;
    }
}

/// The per-layer metrics both served workloads read from their queries:
/// nodes touched, cache figures over the timed phase, span repeat share
/// and CI coverage. `run` holds the registry counters over the timed phase.
pub fn query_layers(
    out: &mut Outcome,
    rec: &Recorder,
    served: &Served,
    run: &Reading,
    tally: &QueryTally,
) {
    let queries = rec.count("query");
    let (lookups1, hits1) = served.cache.stats();
    let lookups = lookups1 - tally.cache0.0;
    out.layer(
        "warehouse.union.nodes",
        tally.nodes.0 as f64 / tally.nodes.1.max(1) as f64,
        "count",
        tally.nodes.1 as usize,
    );
    out.layer(
        "warehouse.cache.hit_rate",
        (hits1 - tally.cache0.1) as f64 / lookups.max(1) as f64,
        "share",
        lookups as usize,
    );
    out.layer(
        "warehouse.cache.evictions",
        run.cache_evictions as f64,
        "count",
        1,
    );
    out.layer("warehouse.cache.bytes", served.cache.bytes() as f64, "B", 1);
    out.layer(
        "warehouse.cache.repeat_share",
        tally.repeats as f64 / queries.max(1) as f64,
        "share",
        queries,
    );
    out.layer(
        "aqp.ci_coverage",
        tally.covered.0 as f64 / tally.covered.1.max(1) as f64,
        "share",
        tally.covered.1 as usize,
    );
}

/// Report-only query figures: `query_ms_p99` and the union wall of cache
/// hits and misses.
pub fn query_extras(rec: &Recorder, tally: &QueryTally) -> Vec<Metric> {
    let mut lat = rec.latencies("query");
    let mean_us = |(ns, n): (u64, u64)| ns as f64 / n.max(1) as f64 / 1e3;
    vec![
        Metric {
            name: "query_ms_p99",
            value: crate::stats::percentile(&mut lat, 0.99).unwrap_or(f64::NAN),
            unit: "ms",
            samples: lat.len(),
        },
        Metric {
            name: "warehouse.cache.hit_us",
            value: mean_us(tally.hits),
            unit: "us",
            samples: tally.hits.1 as usize,
        },
        Metric {
            name: "warehouse.cache.miss_us",
            value: mean_us(tally.misses),
            unit: "us",
            samples: tally.misses.1 as usize,
        },
    ]
}
