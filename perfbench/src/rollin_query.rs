//! `rollin_query`: writes beside reads.
//!
//! Set-up is the `query_catalog` set-up over 23 hours + 50 minutes of
//! history, so the first day completes early in the timed phase. Then
//! `spawn_background` compacts every 10 ms while one benchmark thread runs an
//! open-loop writer (a new partition every 20 ms: HR sample, `DiskStore::save`,
//! `Catalog::roll_in`) and, between roll-ins, closed-loop queries of recent
//! spans ending at the newest partition. Every roll-in and compaction bumps
//! the cache epoch.

use crate::check::Failure;
use crate::common::{common_layers, peak_rss_mib, Args, Lifecycle, QuerySpec};
use crate::counters::Counters;
use crate::inputs::{partition, predicates, PartStats, Shape, PAPER_N_F, PAPER_ROWS};
use crate::report::{Metric, Outcome, Recorder};
use crate::served::{
    dir_bytes, finish_set_ups, is_reservoir, measured_set_up, query, query_extras, query_layers,
    replay_encode, rollup_file_bytes, sample_values, spread_set_up, tiers, History, QueryTally,
    DAY, DS, HOUR,
};
use std::time::{Duration, Instant};
use swh_warehouse::ingest::SamplerConfig;
use swh_warehouse::{PartitionId, PartitionKey};

/// The history the writer extends.
pub const HISTORY: History = History {
    days: 0,
    hours: 23,
    minutes: 50,
    n_f: PAPER_N_F,
    shape: Shape {
        rows_mid: PAPER_ROWS,
    },
    cache_bytes: 64 << 20,
};

/// Open-loop writer period.
const WRITE_EVERY: Duration = Duration::from_millis(20);

/// Background compactor period.
const COMPACT_EVERY: Duration = Duration::from_millis(10);

/// Input generation stream tag for the writer's partitions.
const WRITER_TAG: u64 = 2;

/// Aligned starts of recent spans ending at `newest`, most recent first:
/// hour starts of the newest day while it is incomplete, then the last
/// three day starts. A start inside a complete day could be cut by that
/// day's cold roll-up, so none is offered.
fn recent_starts(newest: u64) -> Vec<u64> {
    let day = newest / DAY;
    let mut starts = Vec::new();
    if newest % DAY != DAY - 1 {
        let mut h = newest - newest % HOUR;
        while h > day * DAY && starts.len() < 6 {
            starts.push(h);
            h -= HOUR;
        }
    }
    for d in (day.saturating_sub(2)..=day).rev() {
        starts.push(d * DAY);
    }
    starts
}

/// The spans a set-up warms the cache with: every recent span ending at
/// the last history partition.
pub fn warm_spans() -> Vec<(u64, u64)> {
    let newest = HISTORY.partitions() - 1;
    recent_starts(newest)
        .into_iter()
        .map(|lo| (lo, newest))
        .collect()
}

/// Run the workload.
pub fn run(args: &Args, rec: &mut Recorder) -> Result<(Outcome, Vec<Metric>), String> {
    let counters = Counters::global();
    let newest0 = HISTORY.partitions() - 1;
    let warm = warm_spans();

    let dir = args.work.join("setup-0");
    let (mut served, first) = measured_set_up(&HISTORY, args.seed, &dir, rec, &warm)?;
    let mut reps = vec![first];
    let history_rows = served.truth.rows(0, newest0);

    let mut rng = swh_rand::seeded_rng(args.seed ^ 0x7011);
    let preds = predicates();
    let store = served.manager.store().expect("store attached").clone();
    let before = counters.read();
    let mut tally = QueryTally {
        cache0: served.cache.stats(),
        ..QueryTally::default()
    };
    let mut seen = Vec::<u64>::new();
    let mut late_ms = Vec::new();
    let (mut written_rows, mut backlog_max) = (0u64, 0u64);
    let mut reservoir = served.reservoir;
    let mut newest = newest0;
    let mut last_mutations = counters.mutations();

    let compactor = served
        .manager
        .spawn_background(COMPACT_EVERY, args.seed ^ 0xc0);
    rec.start_timed(args.seconds);
    let mut due = Instant::now();
    // The next partition's values, generated outside every op.
    let mut values = partition(args.seed, WRITER_TAG, newest + 1, HISTORY.shape);
    while !rec.timed_out() {
        // The writer's schedule pauses with the timed phase.
        if let Some(pause) = spread_set_up(args, rec, "rollin_query", &mut reps)? {
            due += pause;
            continue;
        }
        let now = Instant::now();
        if now >= due {
            late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
            let seq = newest + 1;
            let key = PartitionKey {
                dataset: DS,
                partition: PartitionId::seq(seq),
            };
            let op = rec.start("ingest");
            let traced = op.traced();
            let sample = sample_values(
                rec,
                SamplerConfig::HybridReservoir,
                HISTORY.n_f,
                &values,
                &mut rng,
            );
            let saved = rec
                .tracer
                .span("warehouse.store.save", || store.save(key, &sample));
            reservoir.0 += u64::from(is_reservoir(&sample));
            reservoir.1 += 1;
            let rolled = match saved {
                Ok(()) => rec
                    .tracer
                    .span("warehouse.roll_in", || served.catalog.roll_in(key, sample))
                    .map_err(|e| format!("roll-in {key}: {e}")),
                Err(e) => Err(format!("save {key}: {e}")),
            };
            rec.finish(op, Some(due), values.len() as u64);
            rec.check(rolled.map_err(Failure::Other));
            if traced {
                if let Ok(s) = served.catalog.get(key) {
                    replay_encode(rec, true, &s);
                }
                backlog_max = backlog_max.max(served.manager.backlog(DS));
            }
            written_rows += values.len() as u64;
            served.truth.push(PartStats::of(&values));
            newest = seq;
            due += WRITE_EVERY;
            values = partition(args.seed, WRITER_TAG, newest + 1, HISTORY.shape);
            continue;
        }

        // Queries between roll-ins. The cache is invalidated by every
        // catalog mutation; a span repeats if asked since the last one.
        let mutations = counters.mutations();
        if mutations != last_mutations {
            seen.clear();
            last_mutations = mutations;
        }
        let starts = recent_starts(newest);
        let zipf = swh_rand::Zipf::new(starts.len() as u64, 1.0);
        let lo = starts[zipf.sample(&mut rng) as usize - 1];
        if seen.contains(&lo) {
            tally.repeats += 1;
        } else {
            seen.push(lo);
        }
        let q = QuerySpec::draw(&mut rng, &preds);
        query(
            rec,
            &served,
            HISTORY.n_f,
            (lo, newest),
            &q,
            &mut rng,
            true,
            &mut tally,
        );
    }
    compactor.stop();
    let peak_rss = peak_rss_mib();
    let setup = finish_set_ups(args, "rollin_query", &mut reps)?;
    let run = counters.read().since(&before);
    let queries = rec.count("query");
    let rows = history_rows + written_rows;

    let mut out = Outcome::default();
    out.e2e("setup_s", setup.setup_s, "s", reps.len());
    out.e2e(
        "ingest_rows_per_s",
        rec.block_rate(&["ingest"], &["ingest"], true),
        "rows/s",
        rec.count("ingest"),
    );
    rec.latency_metrics(&mut out, &["ingest"], ["ingest_ms_p50", "ingest_ms_p90"]);
    rec.latency_metrics(&mut out, &["query"], ["query_ms_p50", "query_ms_p90"]);
    out.e2e(
        "queries_per_s",
        rec.block_rate(&["query"], &["query"], false),
        "1/s",
        queries,
    );
    out.e2e("compact_s", setup.compact_s, "s", reps.len());
    let store_dir = dir.join(format!("ds{}", DS.0));
    out.e2e(
        "store_bytes_per_row",
        dir_bytes(&store_dir, &[".swhs", ".tomb"]) as f64 / rows as f64,
        "B/row",
        1,
    );
    out.e2e("peak_rss_mib", peak_rss, "MiB", 1);

    if rec.trace_run() {
        let rollup = rollup_file_bytes(&store)?;
        common_layers(
            &mut out,
            rec,
            &run,
            reservoir,
            Lifecycle {
                compactions: run.compactions,
                retired: run.retired,
                backlog_max,
                rewrite_bytes_per_row: rollup as f64 / rows as f64,
                tiers: tiers(&served.catalog),
            },
        );
        query_layers(&mut out, rec, &served, &run, &tally);
    }
    let mut extra = query_extras(rec, &tally);
    extra.push(Metric {
        name: "driver.late_ms_p99",
        value: crate::stats::percentile(&mut late_ms, 0.99).unwrap_or(f64::NAN),
        unit: "ms",
        samples: late_ms.len(),
    });
    Ok((out, extra))
}
