//! The `swh` subcommands. Each command takes parsed [`Args`] and a writer,
//! so the integration tests can drive them without spawning processes.

use crate::args::{ArgError, Args};
use rand::rngs::SmallRng;
use std::borrow::Cow;
use std::error::Error;
use std::io::{BufRead, Write};
use swh_aqp::profile::profile;
use swh_aqp::quantiles::estimate_median;
use swh_aqp::query::{Predicate, Query};
use swh_core::footprint::FootprintPolicy;
use swh_core::merge::merge_union;
use swh_core::sample::Sample;
use swh_core::sampler::Sampler;
use swh_core::SamplerStats;
use swh_rand::seeded_rng;
use swh_warehouse::ids::{DatasetId, PartitionId, PartitionKey};
use swh_warehouse::ingest::SamplerConfig;
use swh_warehouse::store::DiskStore;

/// All program errors surface as `Box<dyn Error>`; the binary maps them to
/// exit code 1.
pub type CmdResult = Result<(), Box<dyn Error>>;

/// Parsed input values buffer into chunks of this size before draining
/// through the samplers' bulk `observe_batch` path; batches are
/// byte-identical to element-wise observation, so the chunk size never
/// affects `--seed` reproducibility.
const INGEST_CHUNK: usize = 4096;

/// Dispatch a parsed command line.
pub fn run(args: &Args, out: &mut dyn Write) -> CmdResult {
    // `--verbose` (level 1) or `--verbose N`; applies to every command.
    if let Some(v) = args.get("verbose") {
        swh_obs::set_verbosity(v.parse::<u8>().unwrap_or(u8::from(v != "false")));
    }
    match args.command.as_str() {
        "help" | "--help" | "-h" => help(out),
        "ingest" => ingest(args, out),
        "ls" => ls(args, out),
        "show" => show(args, out),
        "query" => query(args, out),
        "profile" => profile_cmd(args, out),
        "estimate" => estimate(args, out),
        "metrics" => metrics_cmd(args, out),
        "rm" => rm(args, out),
        "serve" => serve_cmd(args, out),
        "trace" => trace_cmd(args, out),
        "store" => store_cmd(args, out),
        "lifecycle" => lifecycle_cmd(args, out),
        "bench" => bench_cmd(args, out),
        "alerts" => crate::alerts::run(args, out),
        "top" => crate::top::run(args, out),
        other => Err(format!("unknown command '{other}'; run `swh help`").into()),
    }
}

fn help(out: &mut dyn Write) -> CmdResult {
    writeln!(
        out,
        "swh - sample data warehouse (Brown & Haas, ICDE 2006)\n\
         \n\
         USAGE: swh <command> [flags]\n\
         \n\
         COMMANDS\n\
         \x20 ingest    sample a partition's values into the store\n\
         \x20           --store DIR --dataset N --partition SEQ [--stream S]\n\
         \x20           [--nf 8192] [--algorithm hr|hb] [--expected N] [--seed X]\n\
         \x20           [--file PATH]   (reads integers one per line; default stdin)\n\
         \x20           [--generate unique:N|uniform:N:MAX|zipf:N:DOMAIN[:S]]\n\
         \x20 ls        list stored partitions\n\
         \x20           --store DIR [--dataset N]\n\
         \x20 show      inspect one stored partition sample\n\
         \x20           --store DIR --dataset N --partition SEQ [--stream S] [--top K]\n\
         \x20 query     merge a range of partitions into one uniform sample\n\
         \x20           --store DIR --dataset N [--from SEQ] [--to SEQ] [--seed X]\n\
         \x20 profile   column profile from the merged sample\n\
         \x20           --store DIR --dataset N [--mcv 5] [--seed X]\n\
         \x20 profile union\n\
         \x20           profile a synthetic multi-partition union: per-node\n\
         \x20           merge-tree self-times, top scopes, measured cost model\n\
         \x20           [--partitions 64] [--per-part 20000] [--nf 1024]\n\
         \x20           [--threads 1] [--top 12] [--p 0.001] [--seed X]\n\
         \x20           [--json] [--out FILE] [--cost-model FILE]\n\
         \x20 estimate  approximate aggregates with a 95% CI\n\
         \x20           --store DIR --dataset N --op count|sum|avg|median|qNN\n\
         \x20           [--mod M --rem R]              (predicate: value % M == R)\n\
         \x20           [--pred true|mod:M:R|between:LO:HI|in:V1,V2,...]\n\
         \x20 metrics   run a synthetic workload and print its metrics\n\
         \x20           [--n 40000] [--fan-out 4] [--nf 1024] [--seed X]\n\
         \x20           [--format prom|json|both]\n\
         \x20 rm        roll a partition sample out of the store\n\
         \x20           --store DIR --dataset N --partition SEQ [--stream S]\n\
         \x20 serve     HTTP exposition endpoint: /metrics /metrics.json\n\
         \x20           /traces /lineage/<dataset>/<partition> /lifecycle\n\
         \x20           --store DIR [--addr 127.0.0.1:9184] [--requests N]\n\
         \x20 trace     print the in-process span/event journal\n\
         \x20           [--store DIR --dataset N [--seed X]]  (replays a merge)\n\
         \x20 store     offline store maintenance\n\
         \x20           fsck --store DIR   verify every stored file, quarantine\n\
         \x20           corrupt entries, remove orphaned temp files, recover\n\
         \x20           interrupted compactions, validate compaction lineage\n\
         \x20 lifecycle partition tiering: compaction, retention, policies\n\
         \x20           status --store DIR              tier/tombstone summary\n\
         \x20           compact-now --store DIR [--dataset N] [--seed X] [--p F]\n\
         \x20           policy --store DIR --dataset N [--warm N] [--cold N]\n\
         \x20           [--max-age N|none] [--budget BYTES|none]\n\
         \x20 bench history\n\
         \x20           append BENCH_*.json metrics to history.jsonl and compare\n\
         \x20           against per-metric baselines; --check fails on regression\n\
         \x20           [--dir bench_results] [--baseline FILE] [--history FILE]\n\
         \x20           [--check]\n\
         \x20 alerts check\n\
         \x20           evaluate alert rules once; exit non-zero on any firing\n\
         \x20           [--rules FILE] [--metrics FILE | --url HOST:PORT |\n\
         \x20           --workload [--partitions 8] [--per-part 20000] [--nf 512]]\n\
         \x20           [--cost-model FILE] [--fit-out FILE]\n\
         \x20           [--incidents DIR [--incident-cap 8]]\n\
         \x20 top       live terminal view of a running `swh serve`\n\
         \x20           [--url 127.0.0.1:9184] [--interval-ms 1000]\n\
         \x20           [--iterations 0]    (0 = refresh forever)\n\
         \n\
         GLOBAL FLAGS\n\
         \x20 --stats           after ingest/query/profile/estimate, print the\n\
         \x20                   process metrics registry (same formats as metrics)\n\
         \x20 --format FMT      exposition format: prom | json | both (default)\n\
         \x20 --verbose [N]     progress chatter on stderr (or SWH_VERBOSE=N)"
    )?;
    Ok(())
}

fn open_store(args: &Args) -> Result<DiskStore, Box<dyn Error>> {
    Ok(DiskStore::open(args.require("store")?)?)
}

/// Resolve `--dataset` as either a numeric id or a registered name (names
/// live in `names.tsv` inside the store directory and are auto-created on
/// ingest).
fn dataset_from(args: &Args, create: bool) -> Result<DatasetId, Box<dyn Error>> {
    let raw = args.require("dataset")?;
    if let Ok(id) = raw.parse::<u64>() {
        return Ok(DatasetId(id));
    }
    let registry = swh_warehouse::registry::DatasetRegistry::open(args.require("store")?)?;
    if create {
        Ok(registry.resolve_or_create(raw)?)
    } else {
        registry
            .lookup(raw)
            .ok_or_else(|| format!("unknown dataset name '{raw}'").into())
    }
}

fn key_from(args: &Args, create_dataset: bool) -> Result<PartitionKey, Box<dyn Error>> {
    Ok(PartitionKey {
        dataset: dataset_from(args, create_dataset)?,
        partition: PartitionId {
            stream: args.parsed_or("stream", 0u32, "integer")?,
            seq: args.require_parsed("partition", "integer")?,
        },
    })
}

fn rng_from(args: &Args) -> Result<SmallRng, ArgError> {
    Ok(seeded_rng(args.parsed_or("seed", 0x5eed_u64, "integer")?))
}

/// Write the process-wide metrics registry in the format(s) selected by
/// `--format prom|json|both` (default `both`).
fn write_snapshot(args: &Args, out: &mut dyn Write) -> CmdResult {
    let snap = swh_obs::global().snapshot();
    match args.get("format").unwrap_or("both") {
        "prom" => write!(out, "{}", snap.to_prometheus())?,
        "json" => writeln!(out, "{}", snap.to_json())?,
        "both" => {
            write!(out, "{}", snap.to_prometheus())?;
            writeln!(out, "{}", snap.to_json())?;
        }
        other => return Err(format!("unknown --format '{other}' (prom|json|both)").into()),
    }
    Ok(())
}

/// Publish one finalized sampler's [`SamplerStats`] into the global registry
/// so `--stats` expositions carry the per-run phase/purge story.
fn publish_sampler_stats(stats: &SamplerStats) {
    swh_warehouse::ingest::publish_sampler_stats(swh_obs::global(), stats);
}

fn ingest(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = open_store(args)?;
    let key = key_from(args, true)?;
    let n_f: u64 = args.parsed_or("nf", 8192, "integer")?;
    let policy = FootprintPolicy::with_value_budget(n_f);
    let mut rng = rng_from(args)?;

    let config = match args.get("algorithm").unwrap_or("hr") {
        "hr" => SamplerConfig::HybridReservoir,
        "hb" => SamplerConfig::HybridBernoulli {
            expected_n: args.require_parsed("expected", "integer (HB needs --expected)")?,
            p_bound: args.parsed_or("p", 1e-3, "probability")?,
        },
        other => return Err(format!("unknown algorithm '{other}' (hr|hb)").into()),
    };
    let mut sampler = config.build::<i64>(policy);

    // Parsed values buffer into chunks that drain through the samplers'
    // bulk observe path; batches are byte-identical to element-wise
    // observation, so `--seed` reproducibility is unaffected.
    let mut read_values = |reader: &mut dyn BufRead| -> Result<(), Box<dyn Error>> {
        let mut line = String::new();
        let mut lineno = 0u64;
        let mut chunk: Vec<i64> = Vec::with_capacity(INGEST_CHUNK);
        while reader.read_line(&mut line)? != 0 {
            lineno += 1;
            let t = line.trim();
            if !t.is_empty() {
                let v: i64 = t
                    .parse()
                    .map_err(|_| format!("line {lineno}: '{t}' is not an integer"))?;
                chunk.push(v);
                if chunk.len() == INGEST_CHUNK {
                    sampler.observe_batch(&chunk, &mut rng);
                    chunk.clear();
                }
            }
            line.clear();
        }
        if !chunk.is_empty() {
            sampler.observe_batch(&chunk, &mut rng);
        }
        Ok(())
    };
    // `--file PATH` or a bare positional path both work.
    let file = args
        .get("file")
        .or_else(|| args.positionals().first().map(String::as_str));
    match (args.get("generate"), file) {
        (Some(spec), _) => {
            let values = generate_values(spec, &mut rng)?;
            sampler.observe_batch(&values, &mut rng);
        }
        (None, Some(path)) => {
            let f = std::fs::File::open(path)?;
            read_values(&mut std::io::BufReader::new(f))?;
        }
        (None, None) => {
            let stdin = std::io::stdin();
            read_values(&mut stdin.lock())?;
        }
    }

    let (sample, stats) = sampler.finalize_with_stats(&mut rng);
    publish_sampler_stats(&stats);
    writeln!(
        out,
        "ingested {}: {} of {} values, kind {}, footprint {} bytes",
        key,
        sample.size(),
        sample.parent_size(),
        sample.kind(),
        sample.footprint_bytes()
    )?;
    store.save(key, &sample)?;
    if args.flag("stats") {
        writeln!(out, "sampler stats: {stats}")?;
        write_snapshot(args, out)?;
    }
    Ok(())
}

/// Scan a store directory for `dsN` dataset subdirectories.
fn scan_datasets(root: &std::path::Path) -> Result<Vec<DatasetId>, Box<dyn Error>> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let name = entry?.file_name();
        if let Some(n) = name.to_str().and_then(|s| s.strip_prefix("ds")) {
            if let Ok(id) = n.parse() {
                ids.push(DatasetId(id));
            }
        }
    }
    ids.sort();
    Ok(ids)
}

fn ls(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = open_store(args)?;
    let datasets: Vec<DatasetId> = match args.get("dataset") {
        Some(_) => vec![dataset_from(args, false)?],
        None => scan_datasets(store.root())?,
    };
    if datasets.is_empty() {
        writeln!(out, "(store is empty)")?;
        return Ok(());
    }
    writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>12} {:<24}",
        "dataset", "partition", "parent", "sample", "kind"
    )?;
    for dataset in datasets {
        for key in store.list(dataset)? {
            let s: Sample<i64> = store.load(key)?;
            writeln!(
                out,
                "{:>8} {:>10} {:>12} {:>12} {:<24}",
                key.dataset.0,
                format!("({},{})", key.partition.stream, key.partition.seq),
                s.parent_size(),
                s.size(),
                s.kind().to_string()
            )?;
        }
    }
    Ok(())
}

fn show(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = open_store(args)?;
    let key = key_from(args, false)?;
    let top: usize = args.parsed_or("top", 10, "integer")?;
    let s: Sample<i64> = store.load(key)?;
    writeln!(out, "partition {key}")?;
    writeln!(out, "  kind            : {}", s.kind())?;
    writeln!(out, "  parent size     : {}", s.parent_size())?;
    writeln!(out, "  sample size     : {}", s.size())?;
    writeln!(out, "  distinct values : {}", s.distinct())?;
    writeln!(
        out,
        "  footprint       : {} bytes (bound {})",
        s.footprint_bytes(),
        s.policy().f_bytes()
    )?;
    let mut pairs = s.histogram().sorted_pairs();
    pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    writeln!(out, "  top values      :")?;
    for (v, c) in pairs.into_iter().take(top) {
        writeln!(out, "    {v:>12} x {c}")?;
    }
    Ok(())
}

/// Merge the selected partitions of a dataset into one uniform sample.
///
/// `--from`/`--to` select by the raw sequences a partition covers under
/// the store's saved lifecycle policy (a roll-up covers its whole window),
/// so a range that cuts through a roll-up is refused with
/// [`LifecycleError::MisalignedSpan`] instead of answered over the wrong
/// rows.
fn merged_sample(
    args: &Args,
    store: &DiskStore,
    rng: &mut SmallRng,
) -> Result<Sample<i64>, Box<dyn Error>> {
    use swh_warehouse::lifecycle::{load_policies, LifecycleError};

    let dataset = dataset_from(args, false)?;
    let from: u64 = args.parsed_or("from", 0, "integer")?;
    let to: u64 = args.parsed_or("to", u64::MAX, "integer")?;
    let p_bound: f64 = args.parsed_or("p", 1e-3, "probability")?;
    let policy = load_policies(store.root())?
        .get(&dataset)
        .copied()
        .unwrap_or_default();
    let mut keys = Vec::new();
    for key in store.list(dataset)? {
        let (lo, hi) = policy.span_of(key.partition);
        if hi < from || lo > to {
            continue;
        }
        if lo < from || hi > to {
            return Err(LifecycleError::MisalignedSpan {
                dataset,
                partition: key.partition,
                lo,
                hi,
            }
            .into());
        }
        keys.push(key);
    }
    if keys.is_empty() {
        return Err(format!("no partitions of dataset {dataset} in range {from}..={to}").into());
    }
    let mut samples = Vec::with_capacity(keys.len());
    for key in keys {
        samples.push(Cow::Owned(store.load::<i64>(key)?));
    }
    let g = swh_obs::global();
    g.counter(
        "swh_cli_merge_partitions_total",
        "partition samples fed into CLI merges",
    )
    .add(samples.len() as u64);
    let _scope = swh_obs::profile::scope_rooted("cli/merge")
        .histogram(&g.histogram("swh_cli_merge_ns", "wall time of CLI merges"));
    Ok(merge_union(samples, p_bound, rng)?)
}

fn query(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = open_store(args)?;
    let mut rng = rng_from(args)?;
    let s = merged_sample(args, &store, &mut rng)?;
    writeln!(out, "uniform sample of the selected union:")?;
    writeln!(out, "  rows covered : {}", s.parent_size())?;
    writeln!(out, "  sample size  : {}", s.size())?;
    writeln!(out, "  kind         : {}", s.kind())?;
    if let Some(path) = args.get("export") {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "value,count")?;
        for (v, c) in s.histogram().sorted_pairs() {
            writeln!(f, "{v},{c}")?;
        }
        writeln!(out, "  exported     : {path}")?;
    }
    if args.flag("stats") {
        write_snapshot(args, out)?;
    }
    Ok(())
}

fn profile_cmd(args: &Args, out: &mut dyn Write) -> CmdResult {
    if args.positionals().first().map(String::as_str) == Some("union") {
        return profile_union(args, out);
    }
    let store = open_store(args)?;
    let mut rng = rng_from(args)?;
    let mcv: usize = args.parsed_or("mcv", 5, "integer")?;
    let s = merged_sample(args, &store, &mut rng)?;
    let p = profile(&s, mcv);
    writeln!(out, "column profile ({} rows):", p.rows)?;
    writeln!(
        out,
        "  sample          : {} values ({})",
        p.sample_size,
        if p.exact { "exact" } else { "approximate" }
    )?;
    writeln!(
        out,
        "  distinct values : >= {} observed, ~{:.0} estimated",
        p.distinct_lower_bound, p.distinct_estimate
    )?;
    if let (Some(min), Some(max)) = (&p.min, &p.max) {
        writeln!(out, "  range           : {min} ..= {max}")?;
    }
    if let Some(m) = estimate_median(&s, 0.95) {
        writeln!(
            out,
            "  median          : ~{} (95% CI [{}, {}])",
            m.value, m.lo, m.hi
        )?;
    }
    writeln!(out, "  most common     :")?;
    for (v, e) in &p.most_common {
        let (lo, hi) = e.confidence_interval(0.95);
        writeln!(
            out,
            "    {v:>12} ~ {:.0} (95% CI [{lo:.0}, {hi:.0}])",
            e.value
        )?;
    }
    if args.flag("stats") {
        write_snapshot(args, out)?;
    }
    Ok(())
}

/// `swh profile union` — run a synthetic multi-partition union under the
/// hierarchical profiler and report where the time went.
///
/// Partitions are ingested through Algorithm HB's bulk `observe_batch`
/// path (so the observe-phase segments feed the cost model) and merged
/// through the planner-driven merge DAG, so the reported scopes are the
/// plan's node labels (`union/node/pw*` pairwise merges, `mw*f<n>`
/// multiway fan-in, `rs*` re-stream combines) plus the
/// flat per-merge `merge/<rule>/s<bucket>` scopes that feed the cost
/// model. Threads default to 1 so every plan node's self-time is
/// attributed on one thread and their sum accounts for the union
/// wall-clock.
fn profile_union(args: &Args, out: &mut dyn Write) -> CmdResult {
    use swh_core::HybridBernoulli;
    use swh_obs::profile;

    let partitions: u64 = args.parsed_or("partitions", 64, "integer")?;
    let per_part: u64 = args.parsed_or("per-part", 20_000, "integer")?;
    let nf: u64 = args.parsed_or("nf", 1024, "integer")?;
    let threads: usize = args.parsed_or("threads", 1, "integer")?;
    let top: usize = args.parsed_or("top", 12, "integer")?;
    let p_bound: f64 = args.parsed_or("p", 1e-3, "number")?;
    let mut rng = rng_from(args)?;
    if partitions == 0 || per_part == 0 {
        return Err("--partitions and --per-part must be > 0".into());
    }

    profile::set_enabled(true);
    profile::reset();

    let parts: Vec<Sample<u64>> = (0..partitions)
        .map(|pi| {
            let mut sampler =
                HybridBernoulli::new(FootprintPolicy::with_value_budget(nf), per_part);
            let values: Vec<u64> = (pi * per_part..(pi + 1) * per_part).collect();
            for chunk in values.chunks(INGEST_CHUNK) {
                sampler.observe_batch(chunk, &mut rng);
            }
            sampler.finalize(&mut rng)
        })
        .collect();

    let wall = swh_obs::Stopwatch::start();
    let leaves = parts.into_iter().map(Cow::Owned).collect();
    let merged = swh_core::merge::merge_tree_parallel(leaves, p_bound, threads, &mut rng)?;
    let wall_ns = wall.elapsed_ns().max(1);
    profile::set_enabled(false);

    let snap = profile::snapshot();
    let tree_nodes = snap
        .with_prefix("union/node/")
        .filter(|n| {
            n.path
                .strip_prefix("union/node/")
                .is_some_and(|rest| !rest.contains('/'))
        })
        .count();
    // Union work lives under the plan-node scopes plus the flat per-merge
    // `merge/...` scopes (which nest out of the node scopes' self-time).
    let node_self_ns = snap.self_ns_under("union/node/") + snap.self_ns_under("merge/");
    let pct = 100.0 * node_self_ns as f64 / wall_ns as f64;

    if args.flag("json") || args.get("out").is_some() {
        let doc = format!(
            "{{\"wall_ns\": {wall_ns}, \"merge_tree_nodes\": {tree_nodes}, \
             \"node_self_ns\": {node_self_ns}, \"profile\": {}}}\n",
            snap.to_json()
        );
        if let Some(path) = args.get("out") {
            std::fs::write(path, &doc)?;
            writeln!(out, "profile written to {path}")?;
        }
        if args.flag("json") {
            write!(out, "{doc}")?;
        }
    }
    if !args.flag("json") {
        writeln!(
            out,
            "profiled union: {partitions} partitions x {per_part} values \
             (nf {nf}, threads {threads}, p {p_bound})"
        )?;
        writeln!(out, "  merged size      : {} values", merged.size())?;
        writeln!(out, "  union wall-clock : {:.3} ms", wall_ns as f64 / 1e6)?;
        writeln!(
            out,
            "  merge-tree nodes : {tree_nodes}, self {:.3} ms ({pct:.1}% of wall)",
            node_self_ns as f64 / 1e6
        )?;
        writeln!(out, "  top self-time scopes:")?;
        writeln!(
            out,
            "    {:>8} {:>12} {:>12} {:>10}  path",
            "count", "total_ms", "self_ms", "mean_us"
        )?;
        for node in snap.top_self(top) {
            writeln!(
                out,
                "    {:>8} {:>12.3} {:>12.3} {:>10.2}  {}",
                node.count,
                node.total_ns as f64 / 1e6,
                node.self_ns as f64 / 1e6,
                node.mean_ns() / 1e3,
                node.path
            )?;
        }
    }
    if let Some(path) = args.get("cost-model") {
        let model = swh_core::CostModel::fit(&snap);
        std::fs::write(path, model.to_json())?;
        writeln!(out, "cost model: {} entries -> {path}", model.entries.len())?;
    }
    Ok(())
}

/// `swh bench <subcommand>` — bench-result tooling. Only `history` today.
fn bench_cmd(args: &Args, out: &mut dyn Write) -> CmdResult {
    match args.positionals().first().map(String::as_str) {
        Some("history") => crate::bench_history::run(args, out),
        other => Err(format!(
            "unknown bench subcommand {:?}; try `swh bench history`",
            other.unwrap_or("")
        )
        .into()),
    }
}

fn estimate(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = open_store(args)?;
    let mut rng = rng_from(args)?;
    let s = merged_sample(args, &store, &mut rng)?;
    // Predicate: either the structured --pred form ("mod:M:R",
    // "between:LO:HI", "in:V1,V2", "true") or the legacy --mod/--rem pair.
    let predicate = match args.get("pred") {
        Some(p) => Predicate::parse(p).map_err(|e| format!("--pred: {e}"))?,
        None => {
            let modulus: i64 = args.parsed_or("mod", 1, "integer")?;
            let remainder: i64 = args.parsed_or("rem", 0, "integer")?;
            if modulus <= 0 {
                return Err("--mod must be positive".into());
            }
            if modulus == 1 {
                Predicate::True
            } else {
                Predicate::ModEq { modulus, remainder }
            }
        }
    };
    let op = args.require("op")?;
    let query = match op {
        "count" => Query::count(predicate.clone()),
        "sum" => Query::sum(predicate.clone()),
        "avg" => Query::avg(predicate.clone()),
        "median" => Query::quantile(0.5, predicate.clone()),
        other => {
            if let Some(q) = other.strip_prefix("q") {
                // qNN = quantile, e.g. q95.
                let pct: f64 = q
                    .parse()
                    .map_err(|_| format!("bad quantile op '{other}'"))?;
                if !(pct > 0.0 && pct < 100.0) {
                    return Err(
                        format!("quantile must lie strictly between 0 and 100, got {pct}").into(),
                    );
                }
                Query::quantile(pct / 100.0, predicate.clone())
            } else {
                return Err(format!("unknown op '{other}' (count|sum|avg|median|qNN)").into());
            }
        }
    };
    let e = query.estimate(&s);
    let (lo, hi) = e.confidence_interval(0.95);
    writeln!(
        out,
        "{}({}) ~ {:.2}   95% CI [{:.2}, {:.2}]{}",
        op.to_uppercase(),
        render_pred(&predicate),
        e.value,
        lo,
        hi,
        if e.exact { "   (exact)" } else { "" }
    )?;
    if args.flag("stats") {
        write_snapshot(args, out)?;
    }
    Ok(())
}

/// Run a small self-contained synthetic workload through the instrumented
/// ingest, parallel-sampling, and merge paths, then expose the resulting
/// metrics. Exists so `swh metrics` shows the full metric surface without
/// needing a populated store.
fn metrics_cmd(args: &Args, out: &mut dyn Write) -> CmdResult {
    use swh_warehouse::catalog::Catalog;
    use swh_warehouse::ingest::{SplitPolicy, StreamRouter};
    use swh_warehouse::parallel::sample_partitions_parallel;

    let n: u64 = args.parsed_or("n", 40_000, "integer")?;
    let fan_out: usize = args.parsed_or("fan-out", 4, "integer")?;
    let n_f: u64 = args.parsed_or("nf", 1024, "integer")?;
    let seed: u64 = args.parsed_or("seed", 0x5eed, "integer")?;
    let policy = FootprintPolicy::with_value_budget(n_f);
    let mut rng = rng_from(args)?;

    // 1. Route one synthetic stream over `fan_out` parallel HR samplers,
    // feeding chunks through the bulk routing path.
    let mut router = StreamRouter::<i64>::new(
        fan_out,
        SamplerConfig::HybridReservoir,
        policy,
        SplitPolicy::RoundRobin,
    );
    let stream: Vec<i64> = (0..n as i64).collect();
    for chunk in stream.chunks(INGEST_CHUNK) {
        router.observe_chunk(chunk, &mut rng);
    }
    let routed = router.finalize(&mut rng);

    // 2. Thread-parallel per-partition sampling (worker busy-time metrics).
    let per_part = (n / fan_out.max(1) as u64).max(1);
    let partitions: Vec<_> = (0..fan_out as i64)
        .map(|p| (0..per_part as i64).map(move |i| p * 1_000_000 + i))
        .collect();
    let parallel = sample_partitions_parallel(
        partitions,
        |_| SamplerConfig::HybridReservoir.build::<i64>(policy),
        fan_out.min(4),
        seed,
    );

    // 3. One HB run so phase-transition and purge metrics are populated.
    let mut hb = SamplerConfig::HybridBernoulli {
        expected_n: n,
        p_bound: 1e-3,
    }
    .build::<i64>(policy);
    for chunk in stream.chunks(INGEST_CHUNK) {
        hb.observe_batch(chunk, &mut rng);
    }
    let (hb_sample, hb_stats) = hb.finalize_with_stats(&mut rng);
    publish_sampler_stats(&hb_stats);

    // 4. Roll everything into a catalog and merge it (catalog + merge metrics).
    let catalog = Catalog::new();
    let dataset = DatasetId(1);
    for (seq, sample) in routed
        .into_iter()
        .chain(parallel)
        .chain(std::iter::once(hb_sample))
        .enumerate()
    {
        catalog.roll_in(
            PartitionKey {
                dataset,
                partition: PartitionId {
                    stream: 0,
                    seq: seq as u64,
                },
            },
            sample,
        )?;
    }
    let merged = catalog.union_sample(dataset, |_| true, 1e-3, &mut rng)?;
    swh_obs::progress!(
        1,
        "metrics workload: {n} elements x {fan_out} samplers, merged {} rows",
        merged.parent_size()
    );
    write_snapshot(args, out)?;
    Ok(())
}

/// Parse a `--generate` spec and produce the synthetic values:
/// `unique:N` (1..=N), `uniform:N:MAX`, `zipf:N:DOMAIN[:S]`.
fn generate_values(spec: &str, rng: &mut SmallRng) -> Result<Vec<i64>, Box<dyn Error>> {
    use rand::Rng as _;
    let parts: Vec<&str> = spec.split(':').collect();
    let parse_n = |s: &str| -> Result<u64, Box<dyn Error>> {
        s.parse()
            .map_err(|_| format!("bad count '{s}' in --generate").into())
    };
    match parts.as_slice() {
        ["unique", n] => Ok((1..=parse_n(n)? as i64).collect()),
        ["uniform", n, max] => {
            let (n, max) = (parse_n(n)?, parse_n(max)?.max(1) as i64);
            Ok((0..n).map(|_| rng.random_range(1..=max)).collect())
        }
        ["zipf", n, domain] | ["zipf", n, domain, _] => {
            let s: f64 = if parts.len() == 4 {
                parts[3].parse().map_err(|_| "bad zipf exponent")?
            } else {
                1.0
            };
            let z = swh_rand::zipf::Zipf::new(parse_n(domain)?, s);
            let n = parse_n(n)?;
            Ok((0..n).map(|_| z.sample(rng) as i64).collect())
        }
        _ => Err(format!(
            "bad --generate spec '{spec}' (unique:N | uniform:N:MAX | zipf:N:DOMAIN[:S])"
        )
        .into()),
    }
}

fn render_pred(p: &Predicate) -> String {
    if *p == Predicate::True {
        "*".to_string()
    } else {
        p.to_string()
    }
}

/// Parse the `<partition>` path segment of `/lineage/<dataset>/<partition>`:
/// either a bare sequence number (stream 0) or `<stream>_<seq>`, matching
/// the on-disk `p<stream>_<seq>.swhs` naming.
fn parse_partition(s: &str) -> Option<PartitionId> {
    match s.split_once('_') {
        Some((stream, seq)) => Some(PartitionId {
            stream: stream.parse().ok()?,
            seq: seq.parse().ok()?,
        }),
        None => Some(PartitionId {
            stream: 0,
            seq: s.parse().ok()?,
        }),
    }
}

/// `swh serve`: the zero-dependency HTTP exposition endpoint. Serves the
/// global metrics registry (`/metrics`, `/metrics.json`), the event journal
/// (`/traces`), and per-sample lineage records (`/lineage/<dataset>/<partition>`)
/// read from the store without decoding typed payloads. `--requests N`
/// bounds the server's lifetime so tests and CI get a self-terminating run.
fn serve_cmd(args: &Args, out: &mut dyn Write) -> CmdResult {
    let root = std::path::PathBuf::from(args.require("store")?);
    let addr = args.get("addr").unwrap_or("127.0.0.1:9184");
    let requests: Option<u64> = args
        .get("requests")
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid --requests '{v}' (expected integer)"))
        })
        .transpose()?;
    let store = DiskStore::open(&root)?;
    // Summarize what the store holds before serving: the derived
    // sample-quality gauges (effective rate, purge depth, merge fan-in)
    // come straight from sample headers and lineage, never from a typed
    // decode — a read-only serve must not misread (or quarantine) a store
    // holding another element type. Unreadable files are skipped.
    for dataset in scan_datasets(store.root())? {
        let report = swh_warehouse::publish_dataset_quality(&store, dataset)?;
        if report.skipped > 0 {
            writeln!(
                out,
                "serve: skipped {} unreadable sample(s) in ds{}",
                report.skipped, dataset.0
            )?;
        }
    }
    let lifecycle_store = store.clone();
    let server = swh_obs::serve::Server::bind(addr)?
        .with_lineage(Box::new(move |dataset, partition| {
            let dataset = match dataset.parse::<u64>() {
                Ok(id) => DatasetId(id),
                Err(_) => swh_warehouse::registry::DatasetRegistry::open(&root)
                    .ok()?
                    .lookup(dataset)?,
            };
            let partition = parse_partition(partition)?;
            let lineage = store.lineage(PartitionKey { dataset, partition }).ok()?;
            Some(swh_core::lineage::to_json(&lineage))
        }))
        .with_lifecycle(Box::new(move || {
            swh_warehouse::lifecycle::store_status_json(&lifecycle_store).ok()
        }));
    // Flush so a piped parent (tests, scrape scripts) sees the bound
    // address — port 0 resolves only here — before the accept loop blocks.
    writeln!(out, "listening on http://{}", server.local_addr()?)?;
    out.flush()?;
    server.serve(requests)?;
    Ok(())
}

/// `swh trace`: print the in-process span/event journal. The journal is
/// per-process, so with `--store` and `--dataset` the command first replays
/// a merge of that dataset's stored partitions; otherwise it runs a small
/// built-in ingest-and-merge workload so every event kind shows up.
fn trace_cmd(args: &Args, out: &mut dyn Write) -> CmdResult {
    let mut rng = rng_from(args)?;
    if args.get("store").is_some() && args.get("dataset").is_some() {
        let store = open_store(args)?;
        let merged = merged_sample(args, &store, &mut rng)?;
        writeln!(
            out,
            "merged {} rows into a {}-value sample; journal follows",
            merged.parent_size(),
            merged.size()
        )?;
    } else {
        let policy = FootprintPolicy::with_value_budget(64);
        let mut hb = SamplerConfig::HybridBernoulli {
            expected_n: 4096,
            p_bound: 1e-3,
        }
        .build::<i64>(policy);
        let first: Vec<i64> = (0..4096).collect();
        hb.observe_batch(&first, &mut rng);
        let a = hb.finalize(&mut rng);
        let mut hr = SamplerConfig::HybridReservoir.build::<i64>(policy);
        let second: Vec<i64> = (4096..8192).collect();
        hr.observe_batch(&second, &mut rng);
        let b = hr.finalize(&mut rng);
        merge_union(vec![Cow::Owned(a), Cow::Owned(b)], 1e-3, &mut rng)?;
    }
    let journal = swh_obs::journal::journal();
    write!(out, "{}", journal.dump())?;
    writeln!(out, "trace: {} event(s) recorded", journal.recorded())?;
    Ok(())
}

/// `swh store <subcommand>`: offline maintenance of a store directory.
fn store_cmd(args: &Args, out: &mut dyn Write) -> CmdResult {
    match args.positionals().first().map(String::as_str) {
        Some("fsck") => fsck(args, out),
        Some(other) => Err(format!("unknown store subcommand '{other}' (fsck)").into()),
        None => Err("store needs a subcommand; run `swh store fsck --store DIR`".into()),
    }
}

/// `swh lifecycle <subcommand>`: partition tiering against a store directory.
fn lifecycle_cmd(args: &Args, out: &mut dyn Write) -> CmdResult {
    match args.positionals().first().map(String::as_str) {
        Some("status") => lifecycle_status(args, out),
        Some("compact-now") => lifecycle_compact_now(args, out),
        Some("policy") => lifecycle_policy(args, out),
        Some(other) => Err(format!(
            "unknown lifecycle subcommand '{other}' (status|compact-now|policy)"
        )
        .into()),
        None => Err("lifecycle needs a subcommand; run `swh lifecycle status --store DIR`".into()),
    }
}

/// `swh lifecycle status`: the tier/tombstone/policy summary for a store,
/// as JSON — the same document `swh serve` exposes at `/lifecycle`.
fn lifecycle_status(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = open_store(args)?;
    writeln!(
        out,
        "{}",
        swh_warehouse::lifecycle::store_status_json(&store)?
    )?;
    Ok(())
}

/// `swh lifecycle policy`: read or update one dataset's lifecycle policy.
/// Policies persist in `lifecycle.tsv` beside the partition directories, so
/// every later `compact-now` (and any embedding process that calls
/// `LifecycleManager::load_policies`) picks them up.
fn lifecycle_policy(args: &Args, out: &mut dyn Write) -> CmdResult {
    use swh_warehouse::lifecycle::{load_policies, save_policies};

    let store = open_store(args)?;
    let dataset = dataset_from(args, true)?;
    let mut table = load_policies(store.root())?;
    let mut policy = table.get(&dataset).copied().unwrap_or_default();
    let mut changed = false;
    if let Some(v) = args.get("warm") {
        policy.warm_fan_in = parse_fan_in("warm", v)?;
        changed = true;
    }
    if let Some(v) = args.get("cold") {
        policy.cold_fan_in = parse_fan_in("cold", v)?;
        changed = true;
    }
    if let Some(v) = args.get("max-age") {
        policy.max_age = parse_optional_limit("max-age", v)?;
        changed = true;
    }
    if let Some(v) = args.get("budget") {
        policy.footprint_budget = parse_optional_limit("budget", v)?;
        changed = true;
    }
    if changed {
        table.insert(dataset, policy);
        save_policies(store.root(), &table)?;
    }
    let fmt = |limit: Option<u64>| limit.map_or("none".to_string(), |v| v.to_string());
    writeln!(
        out,
        "ds{}: warm fan-in {}, cold fan-in {}, max age {}, footprint budget {}{}",
        dataset.0,
        policy.warm_fan_in,
        policy.cold_fan_in,
        fmt(policy.max_age),
        fmt(policy.footprint_budget),
        if changed { " (saved)" } else { "" }
    )?;
    Ok(())
}

fn parse_fan_in(flag: &str, raw: &str) -> Result<u64, Box<dyn Error>> {
    match raw.parse::<u64>() {
        Ok(v) if v >= 2 => Ok(v),
        _ => Err(format!("invalid --{flag} '{raw}' (expected integer >= 2)").into()),
    }
}

fn parse_optional_limit(flag: &str, raw: &str) -> Result<Option<u64>, Box<dyn Error>> {
    if raw == "none" {
        return Ok(None);
    }
    raw.parse::<u64>()
        .map(Some)
        .map_err(|_| format!("invalid --{flag} '{raw}' (expected integer or 'none')").into())
}

/// `swh lifecycle compact-now`: one synchronous maintenance sweep over a
/// store — recover any interrupted compaction, load the stored partitions
/// into a catalog, roll complete windows into warm/cold tiers, and enforce
/// retention. All durable effects go through the tombstone protocol, so the
/// command is crash-safe at any point.
fn lifecycle_compact_now(args: &Args, out: &mut dyn Write) -> CmdResult {
    use std::sync::Arc;
    use swh_warehouse::catalog::Catalog;
    use swh_warehouse::lifecycle::{recover_store, LifecycleManager};

    let store = open_store(args)?;
    let recovery = recover_store(&store)?;
    if recovery.orphaned_tombs + recovery.retired_inputs > 0 {
        writeln!(
            out,
            "recovery: swept {} orphaned tombstone(s), retired {} leftover input(s)",
            recovery.orphaned_tombs, recovery.retired_inputs
        )?;
    }
    let datasets = if args.get("dataset").is_some() {
        vec![dataset_from(args, false)?]
    } else {
        scan_datasets(store.root())?
    };
    let catalog = Arc::new(Catalog::<i64>::new());
    let mut loaded = 0u64;
    for dataset in &datasets {
        for key in store.list(*dataset)? {
            catalog.roll_in(key, store.load::<i64>(key)?)?;
            loaded += 1;
        }
    }
    let p_bound: f64 = args.parsed_or("p", 1e-3, "number")?;
    let manager = LifecycleManager::new(Arc::clone(&catalog), Some(store), p_bound);
    manager.load_policies()?;
    if args.get("warm").is_some() || args.get("cold").is_some() {
        for dataset in &datasets {
            let mut policy = manager.policy(*dataset);
            if let Some(w) = args.get("warm") {
                policy.warm_fan_in = parse_fan_in("warm", w)?;
            }
            if let Some(c) = args.get("cold") {
                policy.cold_fan_in = parse_fan_in("cold", c)?;
            }
            manager.set_policy(*dataset, policy);
        }
    }
    let mut rng = rng_from(args)?;
    let report = manager.sweep(&mut rng)?;
    writeln!(
        out,
        "compacted {} partition(s) across {} dataset(s): {} warm roll-up(s), {} cold roll-up(s), \
         {} input(s) retired, {} expired",
        loaded,
        datasets.len(),
        report.warm_built,
        report.cold_built,
        report.inputs_retired,
        report.expired
    )?;
    Ok(())
}

/// Verify every stored file's header and checksum, quarantine the corrupt
/// ones (with a `.reason` sidecar under `quarantine/`), remove orphaned
/// temp files left behind by crashed writers, roll interrupted compactions
/// forward, and check every compacted partition's recorded merge fan-in
/// against the inputs its tombstone says it replaced.
fn fsck(args: &Args, out: &mut dyn Write) -> CmdResult {
    use swh_warehouse::fullstore::FullStore;
    use swh_warehouse::store::StoreError;

    let root = std::path::PathBuf::from(args.require("store")?);
    // Sweep before opening the stores: `open` would sweep the same files
    // silently, and fsck wants to report the count.
    let orphaned = swh_warehouse::sweep_orphan_tmp(&root)?;
    let store = DiskStore::open(&root)?;
    let full = FullStore::open(&root)?;

    // Roll interrupted compactions forward before verifying: a tombstone
    // without its merged output marks a crash before the output became
    // durable (the tombstone is swept, the inputs stay authoritative); a
    // tombstone with its output durable has any surviving inputs retired.
    let recovery = swh_warehouse::lifecycle::recover_store(&store)?;
    if recovery.orphaned_tombs + recovery.retired_inputs > 0 {
        writeln!(
            out,
            "fsck: compaction recovery swept {} orphaned tombstone(s), retired {} leftover input(s)",
            recovery.orphaned_tombs, recovery.retired_inputs
        )?;
    }

    let (mut clean, mut quarantined) = (0u64, 0u64);
    let (mut lineage_samples, mut lineage_events) = (0u64, 0u64);
    let mut tombs_checked = 0u64;
    for dataset in scan_datasets(store.root())? {
        for key in store.list(dataset)? {
            match store.verify(key) {
                Ok(()) => {
                    clean += 1;
                    // The file can vanish or turn unreadable between verify
                    // and this re-read (concurrent roll-out, transient I/O);
                    // report the file and keep checking the rest.
                    match store.lineage(key) {
                        Ok(events) => {
                            lineage_samples += 1;
                            lineage_events += events.len() as u64;
                        }
                        Err(e) => writeln!(out, "lineage unreadable for {key}: {e}")?,
                    }
                }
                Err(StoreError::Codec(e)) => {
                    writeln!(out, "quarantined sample {key}: {e}")?;
                    store.quarantine(key, &e.to_string())?;
                    quarantined += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        for key in full.list(dataset)? {
            match full.verify_partition(key) {
                Ok(()) => clean += 1,
                Err(StoreError::Codec(e)) => {
                    writeln!(out, "quarantined full-scale partition {key}: {e}")?;
                    full.quarantine(key, &e.to_string())?;
                    quarantined += 1;
                }
                Err(e) => return Err(e.into()),
            }
        }
        // Every surviving tombstone pairs a durable compacted output with
        // the inputs it replaced; the output's lineage must record a merge
        // with exactly that fan-in, or the roll-up is not the sample the
        // catalog thinks it is.
        for tomb in swh_warehouse::lifecycle::list_tombs(&store, dataset)? {
            let out_key = PartitionKey {
                dataset,
                partition: tomb.output,
            };
            tombs_checked += 1;
            let recorded = store
                .lineage(out_key)
                .ok()
                .as_deref()
                .and_then(swh_core::lineage::last_merge_fan_in);
            if recorded != Some(tomb.inputs.len() as u64) {
                let reason = format!(
                    "compaction fan-in mismatch: lineage records {:?}, tombstone lists {} input(s)",
                    recorded,
                    tomb.inputs.len()
                );
                writeln!(out, "quarantined compacted sample {out_key}: {reason}")?;
                store.quarantine(out_key, &reason)?;
                std::fs::remove_file(swh_warehouse::lifecycle::tomb_path(
                    &store,
                    dataset,
                    tomb.output,
                ))?;
                quarantined += 1;
            }
        }
    }
    writeln!(
        out,
        "fsck: {clean} file(s) ok, {quarantined} quarantined, {orphaned} orphaned tmp file(s) removed"
    )?;
    writeln!(
        out,
        "fsck: lineage intact on {lineage_samples} sample(s), {lineage_events} event(s) total"
    )?;
    if tombs_checked > 0 {
        writeln!(
            out,
            "fsck: compaction fan-in validated on {tombs_checked} tombstone(s)"
        )?;
    }
    Ok(())
}

fn rm(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = open_store(args)?;
    let key = key_from(args, false)?;
    if store.remove(key)? {
        writeln!(out, "rolled out {key}")?;
        Ok(())
    } else {
        Err(format!("no stored sample for {key}").into())
    }
}
