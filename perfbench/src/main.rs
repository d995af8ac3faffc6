//! End-to-end benchmark of the sample warehouse.
//!
//! ```text
//! swh-perfbench --swh PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `cli_pipeline` (the `swh` binary as a file loader),
//! `query_catalog` (a read-only analyst in a long-lived process) and
//! `rollin_query` (an open-loop writer beside a closed-loop reader and the
//! background compactor). Inputs come from `--seed` alone. Every op is
//! timed from outside and its output checked. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` records spans around every call into the
//! program and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `NOTES.md` beside this crate for the metric definitions.

mod check;
mod cli_pipeline;
mod common;
mod counters;
mod inputs;
mod query_catalog;
mod report;
mod rollin_query;
mod served;
mod stats;
mod trace;

use common::Args;
use report::{print_report, Metric, Recorder};
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, as listed in `BENCHMARK.json`: the ones that stay
/// steady from run to run on a noisy shared machine. The report prints the
/// rest too, the latencies among them.
const E2E: [&str; 3] = ["setup_s", "store_bytes_per_row", "peak_rss_mib"];

/// Per-layer metrics, as listed in `BENCHMARK.json`.
const LAYERS: [&str; 28] = [
    "core.sampler.observe_ns_per_row",
    "core.sampler.finalize_us",
    "core.sample.reservoir_share",
    "warehouse.codec.encode_us",
    "warehouse.store.save_us",
    "warehouse.store.fsyncs",
    "warehouse.store.fsync_us",
    "warehouse.store.decode_us",
    "warehouse.load_dataset_ms",
    "warehouse.roll_in_us",
    "warehouse.union_us",
    "warehouse.union.nodes",
    "warehouse.union.parallel_share",
    "warehouse.cache.hit_rate",
    "warehouse.cache.evictions",
    "warehouse.cache.bytes",
    "warehouse.cache.repeat_share",
    "warehouse.lifecycle.compactions",
    "warehouse.lifecycle.retired_inputs",
    "warehouse.lifecycle.backlog_max",
    "warehouse.lifecycle.rewrite_bytes_per_row",
    "warehouse.lifecycle.tier_hot",
    "warehouse.lifecycle.tier_warm",
    "warehouse.lifecycle.tier_cold",
    "aqp.estimate_us",
    "aqp.ci_coverage",
    "driver.tracing_overhead_pct",
    "driver.uncovered_pct",
];

struct Cli {
    workload: String,
    trace: bool,
    args: Args,
    /// Only set up (in this directory), print the set-up's figures and
    /// exit: the extra set-ups a run spreads over its timed phase.
    setup_only: Option<PathBuf>,
}

fn parse() -> Result<Cli, String> {
    let mut it = std::env::args().skip(1);
    let (mut swh, mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None, None);
    let mut setup_only = None;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--swh" => swh = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value != "0"),
            "--setup-only" => setup_only = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let work =
        PathBuf::from(".bench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(Cli {
        workload,
        trace: trace.unwrap_or(false),
        args: Args {
            seed,
            seconds: Duration::from_secs_f64(seconds),
            work,
            swh: swh.ok_or("--swh is required")?,
        },
        setup_only,
    })
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn set_up_only(cli: &Cli, dir: &std::path::Path) -> Result<(), String> {
    let (history, warm) = match cli.workload.as_str() {
        "query_catalog" => (query_catalog::HISTORY, query_catalog::warm_spans()),
        "rollin_query" => (rollin_query::HISTORY, rollin_query::warm_spans()),
        other => return Err(format!("{other} has no separate set-up")),
    };
    let mut rec = Recorder::new(false);
    let (_, figures) = served::measured_set_up(&history, cli.args.seed, dir, &mut rec, &warm)?;
    if rec.tally.failed() > 0 {
        return Err(format!(
            "set-up failed its checks: {:?}",
            rec.tally.examples
        ));
    }
    println!("{}", figures.line());
    Ok(())
}

fn run(cli: &Cli) -> Result<(), String> {
    if let Some(dir) = &cli.setup_only {
        return set_up_only(cli, dir);
    }
    let self_test = check::self_test();
    std::fs::create_dir_all(&cli.args.work).map_err(|e| format!("work dir: {e}"))?;
    let mut rec = Recorder::new(cli.trace);
    let result = match cli.workload.as_str() {
        "cli_pipeline" => cli_pipeline::run(&cli.args, &mut rec),
        "query_catalog" => query_catalog::run(&cli.args, &mut rec),
        "rollin_query" => rollin_query::run(&cli.args, &mut rec),
        other => Err(format!(
            "unknown workload {other} (cli_pipeline|query_catalog|rollin_query)"
        )),
    };
    let _ = std::fs::remove_dir_all(&cli.args.work);
    // Commit the deletes now, while nothing is timed: on a filesystem
    // mounted with `discard` they would otherwise stall the next run's
    // first fsyncs.
    if let Ok(parent) = std::fs::File::open(".bench_work") {
        let _ = parent.sync_all();
    }
    let (out, extra) = result?;
    print_report(&cli.workload, &out, &rec, &extra);
    if cli.trace {
        println!("== {}: spans (count, wall ms, self ms) ==", cli.workload);
        for (name, a) in rec.tracer.aggs() {
            println!(
                "  {:<36} {:>9} {:>12.3} {:>12.3}",
                name,
                a.count,
                a.wall_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
        let path = PathBuf::from(".bench_work")
            .join(format!("trace-{}-{}.tsv", cli.workload, cli.args.seed));
        rec.tracer
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    if let Err(e) = &self_test {
        println!("checker self-test FAILED: {e}");
    } else {
        println!("checker self-test passed: a union with one partition dropped is flagged");
    }

    let (names, list): (&[&str], &Vec<Metric>) = if cli.trace {
        (&LAYERS, &out.layers)
    } else {
        (&E2E, &out.e2e)
    };
    let mut picked = Vec::new();
    for name in names {
        let m = list
            .iter()
            .find(|m| m.name == *name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        picked.push(m);
    }
    // `failed` counts the failures no known defect explains; the verdict
    // line above counts every failure, the known defects' too.
    let t = &rec.tally;
    let correct = self_test.is_ok() && t.other == 0;
    println!("{}", json_line(correct, t.attempted, t.other, &picked));
    Ok(())
}

fn main() {
    let cli = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&cli) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
