//! `query_catalog`: a read-only analyst against a warm, compacted catalog.
//!
//! Set-up samples 1 day + 7 hours + 25 minutes of per-minute HR partitions
//! at the paper's operating point (32K rows per partition, `n_F` = 8192),
//! compacts them hourly under the default 60 x 24 policy,
//! persists and reloads them into a catalog with a 64 MiB merged-union
//! cache, and warms the cache with the 64 most popular spans. One
//! closed-loop client then runs `LifecycleManager::union_seq_range` +
//! `Query::estimate` over Zipf-popular (s = 1) aligned, mixed-tier spans.
//! Nothing is written.

use crate::common::{common_layers, peak_rss_mib, Args, Lifecycle, QuerySpec};
use crate::counters::Counters;
use crate::inputs::{predicates, Shape, PAPER_N_F, PAPER_ROWS};
use crate::report::{Metric, Outcome, Recorder};
use crate::served::{
    finish_set_ups, measured_set_up, query, query_extras, query_layers, spread_set_up, tiers,
    History, QueryTally, DS,
};

/// The history this workload serves.
pub const HISTORY: History = History {
    days: 1,
    hours: 7,
    minutes: 25,
    n_f: PAPER_N_F,
    shape: Shape {
        rows_mid: PAPER_ROWS,
    },
    cache_bytes: 64 << 20,
};

/// Spans whose unions warm the cache during set-up.
const WARM_SPANS: usize = 64;

/// The spans a set-up warms the cache with.
pub fn warm_spans() -> Vec<(u64, u64)> {
    spans()[..WARM_SPANS].to_vec()
}

/// All aligned spans of the compacted history, in popularity order. The
/// order is part of the workload (the analyst's fixed set of favourite
/// spans), not of its inputs, so it does not change with `--seed`.
fn spans() -> Vec<(u64, u64)> {
    use rand::seq::SliceRandom;
    let cuts = HISTORY.cut_points();
    let mut spans = Vec::new();
    for (i, &a) in cuts.iter().enumerate() {
        for &b in &cuts[i + 1..] {
            spans.push((a, b - 1));
        }
    }
    spans.shuffle(&mut swh_rand::seeded_rng(0x5a4e));
    spans
}

/// Run the workload.
pub fn run(args: &Args, rec: &mut Recorder) -> Result<(Outcome, Vec<Metric>), String> {
    let counters = Counters::global();
    let at_start = counters.read();
    let spans = spans();
    let zipf = swh_rand::Zipf::new(spans.len() as u64, 1.0);

    let dir = args.work.join("setup-0");
    let (served, first) = measured_set_up(&HISTORY, args.seed, &dir, rec, &spans[..WARM_SPANS])?;
    let mut reps = vec![first];
    let history_rows = served.truth.rows(0, HISTORY.partitions() - 1);

    let mut rng = swh_rand::seeded_rng(args.seed ^ 0x9c);
    let preds = predicates();
    let before = counters.read();
    let mut tally = QueryTally {
        cache0: served.cache.stats(),
        ..QueryTally::default()
    };
    let mut seen = vec![false; spans.len()];
    rec.start_timed(args.seconds);
    while !rec.timed_out() {
        if spread_set_up(args, rec, "query_catalog", &mut reps)?.is_some() {
            continue;
        }
        let idx = zipf.sample(&mut rng) as usize - 1;
        tally.repeats += u64::from(std::mem::replace(&mut seen[idx], true));
        let q = QuerySpec::draw(&mut rng, &preds);
        query(
            rec,
            &served,
            HISTORY.n_f,
            spans[idx],
            &q,
            &mut rng,
            false,
            &mut tally,
        );
    }
    let setup = finish_set_ups(args, "query_catalog", &mut reps)?;
    let peak_rss = peak_rss_mib();
    let run = counters.read().since(&before);
    let whole = counters.read().since(&at_start);
    let queries = rec.count("query");

    let mut out = Outcome::default();
    let n = reps.len();
    out.e2e("setup_s", setup.setup_s, "s", n);
    out.e2e("ingest_rows_per_s", setup.ingest_rows_per_s, "rows/s", n);
    // Medians over the set-ups of each set-up's percentile.
    let ops = n * HISTORY.partitions() as usize;
    out.e2e("ingest_ms_p50", setup.ingest_p50_ms, "ms", ops);
    out.e2e("ingest_ms_p90", setup.ingest_p90_ms, "ms", ops);
    rec.latency_metrics(&mut out, &["query"], ["query_ms_p50", "query_ms_p90"]);
    out.e2e(
        "queries_per_s",
        rec.block_rate(&["query"], &["query"], false),
        "1/s",
        queries,
    );
    out.e2e("compact_s", setup.compact_s, "s", n);
    let store_dir = dir.join(format!("ds{}", DS.0));
    out.e2e(
        "store_bytes_per_row",
        crate::served::dir_bytes(&store_dir, &[".swhs", ".tomb"]) as f64 / history_rows as f64,
        "B/row",
        1,
    );
    out.e2e("peak_rss_mib", peak_rss, "MiB", 1);

    if rec.trace_run() {
        common_layers(
            &mut out,
            rec,
            &whole,
            served.reservoir,
            Lifecycle {
                compactions: whole.compactions,
                retired: whole.retired,
                backlog_max: served.backlog,
                rewrite_bytes_per_row: served.rollup_bytes as f64 / history_rows as f64,
                tiers: tiers(&served.catalog),
            },
        );
        query_layers(&mut out, rec, &served, &run, &tally);
    }
    Ok((out, query_extras(rec, &tally)))
}
