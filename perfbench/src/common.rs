//! Pieces every workload shares: run arguments, query drawing, the
//! per-layer metrics read the same way on every workload, and peak RSS.

use crate::counters::Reading;
use crate::inputs::Truth;
use crate::report::{Outcome, Recorder};
use rand::Rng;
use std::path::PathBuf;
use std::time::Duration;
use swh_aqp::query::{Predicate, Query};

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Input seed.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: Duration,
    /// Working directory for stores and input files (inside the checkout).
    pub work: PathBuf,
    /// The `swh` binary.
    pub swh: PathBuf,
}

/// Aggregate a query computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agg {
    /// `COUNT`.
    Count,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
    /// A quantile.
    Quantile(f64),
}

/// A drawn query: aggregate, predicate index, and the program's query.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Aggregate.
    pub agg: Agg,
    /// Index into [`crate::inputs::predicates`].
    pub pred: usize,
    /// The query as the program takes it.
    pub query: Query,
}

impl QuerySpec {
    /// Draw an aggregate uniformly from count/sum/avg/q50/q90 and a
    /// predicate (half the queries unfiltered).
    pub fn draw(rng: &mut impl Rng, preds: &[Predicate; 3]) -> Self {
        let pred = if rng.random_bool(0.5) {
            0
        } else {
            rng.random_range(1..3)
        };
        let p = preds[pred].clone();
        let (agg, query) = match rng.random_range(0..5u32) {
            0 => (Agg::Count, Query::count(p)),
            1 => (Agg::Sum, Query::sum(p)),
            2 => (Agg::Avg, Query::avg(p)),
            3 => (Agg::Quantile(0.5), Query::quantile(0.5, p)),
            _ => (Agg::Quantile(0.9), Query::quantile(0.9, p)),
        };
        Self { agg, pred, query }
    }

    /// The true answer over raw partitions `lo..=hi`, where the truth
    /// table can give it (not for quantiles).
    pub fn truth(&self, truth: &Truth, lo: u64, hi: u64) -> Option<f64> {
        let (count, sum) = truth.matching(self.pred, lo, hi);
        match self.agg {
            Agg::Count => Some(count as f64),
            Agg::Sum => Some(sum),
            Agg::Avg if count > 0 => Some(sum / count as f64),
            _ => None,
        }
    }
}

/// Lifecycle figures a workload gathers its own way.
#[derive(Debug, Clone, Copy)]
pub struct Lifecycle {
    /// Roll-ups built.
    pub compactions: u64,
    /// Inputs retired into roll-ups.
    pub retired: u64,
    /// Largest compaction backlog seen.
    pub backlog_max: u64,
    /// Roll-up bytes on disk per row ingested.
    pub rewrite_bytes_per_row: f64,
    /// Resident (hot, warm, cold) partitions at the end.
    pub tiers: (u64, u64, u64),
}

/// Add the per-layer metrics every workload reads the same way: span
/// totals, registry counters over the run, and the benchmark's own figures.
pub fn common_layers(
    out: &mut Outcome,
    rec: &Recorder,
    run: &Reading,
    reservoir: (u64, u64),
    lc: Lifecycle,
) {
    let t = &rec.tracer;
    let observe = t.agg("core.sampler.observe");
    let rows = rec.counted("rows.observed");
    out.layer(
        "core.sampler.observe_ns_per_row",
        observe.wall_ns as f64 / rows.max(1) as f64,
        "ns/row",
        observe.count as usize,
    );
    let us = |out: &mut Outcome, metric: &'static str, span: &str| {
        let a = t.agg(span);
        out.layer(metric, a.mean_us(), "us", a.count as usize);
    };
    us(out, "core.sampler.finalize_us", "core.sampler.finalize");
    out.layer(
        "core.sample.reservoir_share",
        reservoir.0 as f64 / reservoir.1.max(1) as f64,
        "share",
        reservoir.1 as usize,
    );
    us(out, "warehouse.codec.encode_us", "warehouse.codec.encode");
    us(out, "warehouse.store.save_us", "warehouse.store.save");
    out.layer("warehouse.store.fsyncs", run.fsyncs as f64, "count", 1);
    out.layer(
        "warehouse.store.fsync_us",
        run.fsync_ns as f64 / run.fsyncs.max(1) as f64 / 1e3,
        "us",
        run.fsyncs as usize,
    );
    us(out, "warehouse.store.decode_us", "warehouse.store.decode");
    let load = t.agg("warehouse.load_dataset");
    out.layer(
        "warehouse.load_dataset_ms",
        load.mean_us() / 1e3,
        "ms",
        load.count as usize,
    );
    us(out, "warehouse.roll_in_us", "warehouse.roll_in");
    us(out, "warehouse.union_us", "warehouse.union");
    let unions = run.union_parallel + run.union_serial;
    out.layer(
        "warehouse.union.parallel_share",
        run.union_parallel as f64 / unions.max(1) as f64,
        "share",
        unions as usize,
    );
    out.layer(
        "warehouse.lifecycle.compactions",
        lc.compactions as f64,
        "count",
        1,
    );
    out.layer(
        "warehouse.lifecycle.retired_inputs",
        lc.retired as f64,
        "count",
        1,
    );
    out.layer(
        "warehouse.lifecycle.backlog_max",
        lc.backlog_max as f64,
        "count",
        1,
    );
    out.layer(
        "warehouse.lifecycle.rewrite_bytes_per_row",
        lc.rewrite_bytes_per_row,
        "B/row",
        1,
    );
    out.layer(
        "warehouse.lifecycle.tier_hot",
        lc.tiers.0 as f64,
        "count",
        1,
    );
    out.layer(
        "warehouse.lifecycle.tier_warm",
        lc.tiers.1 as f64,
        "count",
        1,
    );
    out.layer(
        "warehouse.lifecycle.tier_cold",
        lc.tiers.2 as f64,
        "count",
        1,
    );
    us(out, "aqp.estimate_us", "aqp.estimate");
    out.layer(
        "driver.tracing_overhead_pct",
        rec.tracing_overhead_pct(),
        "%",
        1,
    );
    // Uncovered: run wall time inside no op, no replay and no extra set-up.
    let wall = rec.wall_s();
    let replays: f64 = t
        .aggs()
        .filter(|(name, _)| name.starts_with("replay."))
        .map(|(_, a)| a.wall_ns as f64 / 1e9)
        .sum();
    out.layer(
        "driver.uncovered_pct",
        100.0 * (wall - rec.busy_s() - replays - rec.paused_s()).max(0.0) / wall,
        "%",
        1,
    );
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Peak resident set of the largest child process waited for so far
/// (`getrusage(RUSAGE_CHILDREN)`, kept apart from this process's own), MiB.
pub fn children_peak_rss_mib() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s,
    /// the first of which is `ru_maxrss` (KiB).
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable `struct rusage` with the C layout, and
    // getrusage writes nothing else.
    let r = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if r == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        f64::NAN
    }
}
