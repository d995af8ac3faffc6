//! `cli_pipeline`: a loader using `swh` as shipped, one child process at a
//! time. It is the only workload that runs the text parser and the
//! per-process decode.
//!
//! The run is a sequence of episodes, each on a fresh store, cycling
//! through four seeded input sets made before the timed phase. Partitions
//! are at the paper's operating point: tenfold around 32K rows, the
//! paper's three distributions with equal weight (Zipf the duplicate-heavy
//! one), Algorithm HB with `n_F` = 8192 and p = 1e-3. An episode's set-up
//! sets the policy (`swh lifecycle policy --warm 8 --cold 4`), ingests 16
//! partitions of history and compacts them. Its timed part ingests 32 more
//! (`swh ingest --file --algorithm hb --expected <rows>`), runs
//! `swh lifecycle compact-now` after every 8th, and after every 4th runs two
//! `swh estimate` calls (count, avg or q50) over seeded `--from/--to`
//! ranges. Three in four ranges are tier-aligned; one in four cuts through a
//! roll-up and must be refused.
//!
//! In the traced run each traced op is followed by an in-process replay of
//! what it did through the library's public API (sampler, `encode_sample`,
//! `DiskStore::save`; `DiskStore::load`, `Catalog::union_sample`,
//! `Query::estimate`), so the child's wall time splits into spawn floor,
//! library work and the remainder (read and parse, for ingest).

use crate::check::Failure;
use crate::common::{children_peak_rss_mib, common_layers, peak_rss_mib, Args, Lifecycle};
use crate::counters::Counters;
use crate::inputs::{partition, PartStats, Shape, Truth, PAPER_N_F, PAPER_ROWS, VALUE_STRIDE};
use crate::report::{Metric, Outcome, Recorder};
use crate::served::{dir_bytes, DS, P_BOUND};
use crate::stats::median;
use rand::Rng;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use swh_aqp::query::{Predicate, Query};
use swh_core::footprint::FootprintPolicy;
use swh_core::sampler::Sampler;
use swh_warehouse::ingest::SamplerConfig;
use swh_warehouse::lifecycle::Tier;
use swh_warehouse::{encode_sample, Catalog, DiskStore, PartitionId, PartitionKey};

/// Partitions per episode.
const PARTS: u64 = 48;
/// Hot partitions per warm roll-up.
const WARM: u64 = 8;
/// Warm roll-ups per cold roll-up.
const COLD: u64 = 4;
/// Partitions each episode's set-up ingests before its first timed op: two
/// warm windows, compacted once.
const HISTORY_PARTS: u64 = 16;
/// Sample footprint target: the paper's.
const N_F: u64 = PAPER_N_F;
/// Partition sizes: tenfold around the paper's 32K rows.
const SHAPE: Shape = Shape {
    rows_mid: PAPER_ROWS,
};
/// `compact-now` after every this many ingests.
const COMPACT_EVERY: u64 = 8;
/// Estimates after every this many ingests.
const ESTIMATE_EVERY: u64 = 4;
/// Estimates per estimate point.
const ESTIMATES: usize = 2;
/// Share of estimate ranges that cut through a roll-up.
const CUT_SHARE: f64 = 0.25;
/// `swh ingest` reads this many values per `observe_batch`.
const CLI_CHUNK: usize = 4096;
/// Input sets the episodes cycle through. Files are made once, before the
/// timed phase; nothing is deleted until the run ends, because deleting
/// files on a filesystem mounted with `discard` stalls later fsyncs.
const INPUT_SETS: u64 = 4;
/// `swh help` calls per traced episode (the per-process floor).
const SPAWN_PROBES: usize = 5;

/// One resident partition of the store, as the benchmark models it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Span {
    tier: Tier,
    lo: u64,
    hi: u64,
}

/// What the store should hold after each command.
#[derive(Debug, Default)]
struct Model {
    spans: Vec<Span>,
}

impl Model {
    fn ingest(&mut self, seq: u64) {
        self.spans.push(Span {
            tier: Tier::Hot,
            lo: seq,
            hi: seq,
        });
    }

    /// Starts of the complete windows of `fan_in` partitions of tier
    /// `from`, each `len` raw partitions long.
    fn complete(&self, from: Tier, len: u64, fan_in: u64) -> Vec<u64> {
        let width = len * fan_in;
        let has = |lo: u64| self.spans.iter().any(|s| s.tier == from && s.lo == lo);
        self.spans
            .iter()
            .filter(|s| s.tier == from && s.lo % width == 0)
            .map(|s| s.lo)
            .filter(|&w| (0..fan_in).all(|i| has(w + i * len)))
            .collect()
    }

    /// Inputs sitting in complete windows (the compaction backlog).
    fn backlog(&self) -> u64 {
        let hot = self.complete(Tier::Hot, 1, WARM).len() as u64 * WARM;
        hot + self.complete(Tier::Warm, WARM, COLD).len() as u64 * COLD
    }

    /// Roll complete windows up, hot to warm and then warm to cold, as
    /// `compact-now` should: (warm built, cold built, inputs retired).
    fn compact(&mut self) -> (u64, u64, u64) {
        let mut done = (0, 0, 0);
        for (from, to, len, fan_in) in [
            (Tier::Hot, Tier::Warm, 1, WARM),
            (Tier::Warm, Tier::Cold, WARM, COLD),
        ] {
            let width = len * fan_in;
            for w in self.complete(from, len, fan_in) {
                self.spans
                    .retain(|s| !(s.tier == from && (w..w + width).contains(&s.lo)));
                self.spans.push(Span {
                    tier: to,
                    lo: w,
                    hi: w + width - 1,
                });
                if to == Tier::Warm {
                    done.0 += 1;
                } else {
                    done.1 += 1;
                }
                done.2 += fan_in;
            }
        }
        self.spans.sort_by_key(|s| s.lo);
        done
    }

    /// An aligned range: from the start of one resident partition to the
    /// end of another.
    fn aligned(&self, rng: &mut impl Rng) -> (u64, u64) {
        let i = rng.random_range(0..self.spans.len());
        let j = rng.random_range(i..self.spans.len());
        (self.spans[i].lo, self.spans[j].hi)
    }

    /// A range that starts strictly inside a roll-up, if there is one.
    fn cutting(&self, rng: &mut impl Rng) -> Option<(u64, u64)> {
        let rolled: Vec<usize> = (0..self.spans.len())
            .filter(|&i| self.spans[i].tier != Tier::Hot)
            .collect();
        let &i = rolled.get(rng.random_range(0..rolled.len().max(1)))?;
        let s = self.spans[i];
        let lo = rng.random_range(s.lo + 1..=s.hi);
        let j = rng.random_range(i..self.spans.len());
        Some((lo, self.spans[j].hi))
    }

    /// Whether `lo..=hi` cuts a roll-up.
    fn cuts(&self, lo: u64, hi: u64) -> bool {
        self.spans
            .iter()
            .any(|s| s.tier != Tier::Hot && s.lo <= hi && s.hi >= lo && (s.lo < lo || s.hi > hi))
    }
}

/// A finished child process.
struct Child {
    ok: bool,
    out: String,
    err: String,
}

/// Run `swh` with `args`, waiting for it to exit.
fn swh(bin: &Path, args: &[&str]) -> Result<Child, String> {
    let o = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("spawning swh: {e}"))?;
    Ok(Child {
        ok: o.status.success(),
        out: String::from_utf8_lossy(&o.stdout).into_owned(),
        err: String::from_utf8_lossy(&o.stderr).trim().to_string(),
    })
}

/// The number written just before `word` in `text`.
fn number_before(text: &str, word: &str) -> Option<u64> {
    let at = text.find(word)?;
    text[..at].split_whitespace().last()?.parse().ok()
}

/// `(value, ci_lo, ci_hi, exact)` from a `swh estimate` line such as
/// `COUNT(*) ~ 1234.00   95% CI [1200.00, 1300.00]`.
fn parse_estimate(out: &str) -> Option<(f64, f64, f64, bool)> {
    let after = |w: &str| out.split_once(w).map(|(_, r)| r);
    let value = after("~ ")?.split_whitespace().next()?.parse().ok()?;
    let ci = after("[")?.split(']').next()?;
    let (a, b) = ci.split_once(',')?;
    Some((
        value,
        a.trim().parse().ok()?,
        b.trim().parse().ok()?,
        out.contains("(exact)"),
    ))
}

/// Per-run tallies beyond what the recorder keeps.
#[derive(Default)]
struct Tallies {
    rows: u64,
    setup_s: Vec<f64>,
    compact_s: Vec<f64>,
    bytes_per_row: Vec<f64>,
    reservoir: (u64, u64),
    compactions: u64,
    retired: u64,
    backlog_max: u64,
    rewrite_bytes_per_row: Vec<f64>,
    tiers: (u64, u64, u64),
    spawn_ms: Vec<f64>,
    ingest_residual: Vec<(f64, u64)>,
    estimate_residual_ms: Vec<f64>,
    nodes: (u64, u64),
    covered: (u64, u64),
    repeats: u64,
}

/// Run the workload.
pub fn run(args: &Args, rec: &mut Recorder) -> Result<(Outcome, Vec<Metric>), String> {
    let counters = Counters::global();
    let before = counters.read();
    let mut t = Tallies::default();
    let sets = (0..INPUT_SETS)
        .map(|i| make_inputs(args, i, &args.work.join(format!("in{i}"))))
        .collect::<Result<Vec<_>, _>>()?;
    rec.start_timed(args.seconds);
    let mut episode = 0u64;
    while !rec.timed_out() {
        let inputs = &sets[(episode % INPUT_SETS) as usize];
        run_episode(args, rec, episode, inputs, &mut t)?;
        episode += 1;
    }
    let peak_rss = children_peak_rss_mib();
    let run = counters.read().since(&before);
    let estimates = rec.count("estimate");

    let mut out = Outcome::default();
    let (ingest_ms, estimate_ms, compact_ms) = (
        rec.latencies("ingest"),
        rec.latencies("estimate"),
        rec.latencies("compact"),
    );
    out.e2e(
        "setup_s",
        median(&t.setup_s).unwrap_or(f64::NAN),
        "s",
        t.setup_s.len(),
    );
    out.e2e(
        "ingest_rows_per_s",
        rec.block_rate(&["ingest"], &["ingest"], true),
        "rows/s",
        rec.count("ingest"),
    );
    rec.latency_metrics(&mut out, &["ingest"], ["ingest_ms_p50", "ingest_ms_p90"]);
    rec.latency_metrics(&mut out, &["estimate"], ["query_ms_p50", "query_ms_p90"]);
    out.e2e(
        "queries_per_s",
        rec.block_rate(
            &["estimate"],
            &["setup", "ingest", "compact", "estimate"],
            false,
        ),
        "1/s",
        estimates,
    );
    out.e2e(
        "compact_s",
        median(&t.compact_s).unwrap_or(f64::NAN),
        "s",
        t.compact_s.len(),
    );
    out.e2e(
        "store_bytes_per_row",
        median(&t.bytes_per_row).unwrap_or(f64::NAN),
        "B/row",
        t.bytes_per_row.len(),
    );
    // The program runs in the `swh` children: the largest child's peak.
    out.e2e("peak_rss_mib", peak_rss, "MiB", 1);

    if rec.trace_run() {
        common_layers(
            &mut out,
            rec,
            &run,
            t.reservoir,
            Lifecycle {
                compactions: t.compactions,
                retired: t.retired,
                backlog_max: t.backlog_max,
                rewrite_bytes_per_row: median(&t.rewrite_bytes_per_row).unwrap_or(0.0),
                tiers: t.tiers,
            },
        );
        out.layer(
            "warehouse.union.nodes",
            t.nodes.0 as f64 / t.nodes.1.max(1) as f64,
            "count",
            t.nodes.1 as usize,
        );
        // The CLI keeps no merged-union cache: the layer is bypassed.
        out.layer("warehouse.cache.hit_rate", 0.0, "share", 0);
        out.layer("warehouse.cache.evictions", 0.0, "count", 0);
        out.layer("warehouse.cache.bytes", 0.0, "B", 0);
        out.layer(
            "warehouse.cache.repeat_share",
            t.repeats as f64 / estimates.max(1) as f64,
            "share",
            estimates,
        );
        out.layer(
            "aqp.ci_coverage",
            t.covered.0 as f64 / t.covered.1.max(1) as f64,
            "share",
            t.covered.1 as usize,
        );
    }

    let mean = |v: &[f64]| crate::stats::mean(v);
    let mut extra = vec![
        // A child's peak as `getrusage` reports it includes this process's
        // peak at the spawn; this shows how far below it stays.
        Metric {
            name: "driver.own_peak_rss_mib",
            value: peak_rss_mib(),
            unit: "MiB",
            samples: 1,
        },
        Metric {
            name: "cli.ingest_ms",
            value: mean(&ingest_ms),
            unit: "ms",
            samples: rec.count("ingest"),
        },
        Metric {
            name: "cli.estimate_ms",
            value: mean(&estimate_ms),
            unit: "ms",
            samples: estimates,
        },
        Metric {
            name: "cli.compact_ms",
            value: mean(&compact_ms),
            unit: "ms",
            samples: rec.count("compact"),
        },
    ];
    if rec.trace_run() {
        let (ns, rows) = t
            .ingest_residual
            .iter()
            .fold((0.0, 0u64), |(a, r), (ns, n)| (a + ns, r + n));
        extra.extend([
            Metric {
                name: "cli.spawn_ms",
                value: median(&t.spawn_ms).unwrap_or(f64::NAN),
                unit: "ms",
                samples: t.spawn_ms.len(),
            },
            Metric {
                name: "cli.ingest_residual_ns_per_row",
                value: ns / rows.max(1) as f64,
                unit: "ns/row",
                samples: t.ingest_residual.len(),
            },
            Metric {
                name: "cli.estimate_residual_ms",
                value: mean(&t.estimate_residual_ms),
                unit: "ms",
                samples: t.estimate_residual_ms.len(),
            },
        ]);
    }
    Ok((out, extra))
}

/// One set of episode inputs: value files (pre-read) and their truth. The
/// values themselves are not kept: every `swh` child is spawned from this
/// process, and a child's peak RSS as `getrusage` reports it is at least
/// this process's peak at the spawn, so the benchmark keeps its own memory
/// small. A traced replay regenerates the partition it needs.
struct Inputs {
    set: u64,
    files: Vec<PathBuf>,
    truth: Truth,
}

fn make_inputs(args: &Args, set: u64, dir: &Path) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("input dir: {e}"))?;
    let mut inputs = Inputs {
        set,
        files: Vec::new(),
        truth: Truth::new(),
    };
    for seq in 0..PARTS {
        let values = partition(args.seed, 100 + set, seq, SHAPE);
        let path = dir.join(format!("in{seq}.txt"));
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("input file: {e}"))?,
        );
        for v in &values {
            writeln!(f, "{v}").map_err(|e| format!("input file: {e}"))?;
        }
        f.flush().map_err(|e| format!("input file: {e}"))?;
        drop(f);
        // Pre-read, so every run starts with the inputs in the page cache.
        std::hint::black_box(std::fs::read(&path).map_err(|e| format!("input file: {e}"))?);
        inputs.truth.push(PartStats::of(&values));
        inputs.files.push(path);
    }
    Ok(inputs)
}

fn run_episode(
    args: &Args,
    rec: &mut Recorder,
    episode: u64,
    inputs: &Inputs,
    t: &mut Tallies,
) -> Result<(), String> {
    let base = args.work.join(format!("ep{episode}"));
    let store_dir = base.join("store");
    let ep = Episode {
        episode,
        inputs,
        store_arg: store_dir.to_string_lossy().into_owned(),
        replay_store: DiskStore::open(base.join("replay")).map_err(|e| e.to_string())?,
    };
    let bin = args.swh.as_path();
    let mut rng = swh_rand::seeded_rng(args.seed ^ episode.wrapping_mul(0xe9));
    let traced_episode = rec.trace_run() && episode.is_multiple_of(2);
    if traced_episode {
        for _ in 0..SPAWN_PROBES {
            let s = Instant::now();
            let c = swh(bin, &["help"])?;
            if c.ok {
                t.spawn_ms.push(s.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let spawn_ms = median(&t.spawn_ms).unwrap_or(0.0);

    // Set-up: a fresh store with the episode's policy, and its history.
    let op = rec.start("setup");
    let c = swh(
        bin,
        &[
            "lifecycle",
            "policy",
            "--store",
            &ep.store_arg,
            "--dataset",
            "0",
            "--warm",
            &WARM.to_string(),
            "--cold",
            &COLD.to_string(),
        ],
    )?;
    let mut setup = rec.finish(op, None, 0);
    rec.check(if c.ok {
        Ok(())
    } else {
        Err(Failure::Other(format!("lifecycle policy: {}", c.err)))
    });
    let mut model = Model::default();
    for seq in 0..HISTORY_PARTS {
        setup += ingest(args, rec, t, &ep, &mut model, seq, "setup", spawn_ms)?;
    }
    setup += compact_now(args, rec, t, &ep, &mut model, &mut rng, "setup")?;
    t.setup_s.push(setup.as_secs_f64());

    let mut compact_s = 0.0;
    let mut since_mutation: Vec<(u64, u64)> = Vec::new();
    for seq in HISTORY_PARTS..PARTS {
        ingest(args, rec, t, &ep, &mut model, seq, "ingest", spawn_ms)?;
        since_mutation.clear();
        if (seq + 1) % COMPACT_EVERY == 0 {
            let wall = compact_now(args, rec, t, &ep, &mut model, &mut rng, "compact")?;
            compact_s += wall.as_secs_f64();
            since_mutation.clear();
        }
        if (seq + 1) % ESTIMATE_EVERY == 0 {
            for _ in 0..ESTIMATES {
                let cut = rng.random_bool(CUT_SHARE);
                let (lo, hi) = match cut.then(|| model.cutting(&mut rng)).flatten() {
                    Some(r) => r,
                    None => model.aligned(&mut rng),
                };
                if since_mutation.contains(&(lo, hi)) {
                    t.repeats += 1;
                } else {
                    since_mutation.push((lo, hi));
                }
                let op_name = ["count", "avg", "q50"][rng.random_range(0..3usize)];
                estimate(
                    args,
                    rec,
                    t,
                    &inputs.truth,
                    &model,
                    &store_dir,
                    &ep.store_arg,
                    spawn_ms,
                    (lo, hi),
                    op_name,
                )?;
            }
        }
    }
    t.compact_s.push(compact_s);
    let ds_dir = store_dir.join(format!("ds{}", DS.0));
    let rows: u64 = inputs.truth.rows(0, PARTS - 1);
    t.bytes_per_row
        .push(dir_bytes(&ds_dir, &[".swhs", ".tomb"]) as f64 / rows as f64);
    if traced_episode {
        if let Ok(store) = DiskStore::open(&store_dir) {
            if let Ok(b) = crate::served::rollup_file_bytes(&store) {
                t.rewrite_bytes_per_row.push(b as f64 / rows as f64);
            }
        }
        if let Ok(c) = swh(bin, &["lifecycle", "status", "--store", &ep.store_arg]) {
            t.tiers = (
                number_after_key(&c.out, "\"hot\":").unwrap_or(0),
                number_after_key(&c.out, "\"warm\":").unwrap_or(0),
                number_after_key(&c.out, "\"cold\":").unwrap_or(0),
            );
        }
    }
    Ok(())
}

/// What every command of one episode shares.
struct Episode<'a> {
    episode: u64,
    inputs: &'a Inputs,
    store_arg: String,
    replay_store: DiskStore,
}

/// `swh ingest` partition `seq` as an op of `kind`, checked; a traced op is
/// replayed in process. Returns the op's wall time.
#[allow(clippy::too_many_arguments)]
fn ingest(
    args: &Args,
    rec: &mut Recorder,
    t: &mut Tallies,
    ep: &Episode,
    model: &mut Model,
    seq: u64,
    kind: &'static str,
    spawn_ms: f64,
) -> Result<Duration, String> {
    let rows = ep.inputs.truth.rows(seq, seq);
    let ingest_seed = args
        .seed
        .wrapping_mul(31)
        .wrapping_add(ep.episode * PARTS + seq);
    let op = rec.start(kind);
    let traced = op.traced();
    let c = swh(
        &args.swh,
        &[
            "ingest",
            "--store",
            &ep.store_arg,
            "--dataset",
            "0",
            "--partition",
            &seq.to_string(),
            "--algorithm",
            "hb",
            "--expected",
            &rows.to_string(),
            "--nf",
            &N_F.to_string(),
            "--seed",
            &ingest_seed.to_string(),
            "--file",
            &ep.inputs.files[seq as usize].to_string_lossy(),
        ],
    )?;
    let wall = rec.finish(op, None, rows);
    model.ingest(seq);
    t.rows += rows;
    t.reservoir.0 += u64::from(c.out.contains("kind reservoir"));
    t.reservoir.1 += 1;
    let parent = number_before(&c.out, "values,").unwrap_or(u64::MAX);
    let footprint = number_before(&c.out, "bytes").unwrap_or(u64::MAX);
    let bound = FootprintPolicy::with_value_budget(N_F).f_bytes();
    rec.check(if !c.ok {
        Err(Failure::Other(format!("ingest p{seq}: {}", c.err)))
    } else if parent != rows || footprint > bound {
        Err(Failure::Other(format!(
            "ingest p{seq}: {footprint}-byte sample of {parent} rows, expected <= {bound} bytes of {rows}"
        )))
    } else {
        Ok(())
    });
    if traced {
        let key = PartitionKey {
            dataset: DS,
            partition: PartitionId::seq(seq),
        };
        let values = partition(args.seed, 100 + ep.inputs.set, seq, SHAPE);
        let lib_ns = replay_ingest(rec, &ep.replay_store, key, &values, ingest_seed);
        let residual = wall.as_nanos() as f64 - spawn_ms * 1e6 - lib_ns as f64;
        t.ingest_residual.push((residual, rows));
    }
    Ok(wall)
}

/// `swh lifecycle compact-now` as an op of `kind`, checked against the
/// roll-ups the model predicts. Returns the op's wall time.
fn compact_now(
    args: &Args,
    rec: &mut Recorder,
    t: &mut Tallies,
    ep: &Episode,
    model: &mut Model,
    rng: &mut impl Rng,
    kind: &'static str,
) -> Result<Duration, String> {
    t.backlog_max = t.backlog_max.max(model.backlog());
    let seed_arg = rng.random::<u32>().to_string();
    let op = rec.start(kind);
    let c = swh(
        &args.swh,
        &[
            "lifecycle",
            "compact-now",
            "--store",
            &ep.store_arg,
            "--seed",
            &seed_arg,
        ],
    )?;
    let wall = rec.finish(op, None, 0);
    let want = model.compact();
    let got = (
        number_before(&c.out, "warm roll-up").unwrap_or(u64::MAX),
        number_before(&c.out, "cold roll-up").unwrap_or(u64::MAX),
        number_before(&c.out, "input(s) retired").unwrap_or(u64::MAX),
    );
    t.compactions += want.0 + want.1;
    t.retired += want.2;
    rec.check(if !c.ok {
        Err(Failure::Other(format!("compact-now: {}", c.err)))
    } else if got != want {
        Err(Failure::Other(format!(
            "compact-now built (warm, cold, retired) {got:?}, expected {want:?}"
        )))
    } else {
        Ok(())
    });
    Ok(wall)
}

/// The integer after `key` in a JSON document.
fn number_after_key(text: &str, key: &str) -> Option<u64> {
    let at = text.find(key)? + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[allow(clippy::too_many_arguments)]
fn estimate(
    args: &Args,
    rec: &mut Recorder,
    t: &mut Tallies,
    truth: &Truth,
    model: &Model,
    store_dir: &Path,
    store_arg: &str,
    spawn_ms: f64,
    (lo, hi): (u64, u64),
    op_name: &str,
) -> Result<(), String> {
    let seed_arg = (args.seed ^ lo.wrapping_mul(7919) ^ hi).to_string();
    let op = rec.start("estimate");
    let traced = op.traced();
    let c = swh(
        &args.swh,
        &[
            "estimate",
            "--store",
            store_arg,
            "--dataset",
            "0",
            "--op",
            op_name,
            "--from",
            &lo.to_string(),
            "--to",
            &hi.to_string(),
            "--seed",
            &seed_arg,
        ],
    )?;
    let wall = rec.finish(op, None, 0);
    let rows = truth.rows(lo, hi);
    let verdict = if model.cuts(lo, hi) {
        // The range cannot be answered exactly: it must be refused.
        if c.ok {
            Err(Failure::CutRangeAnswered)
        } else {
            Ok(())
        }
    } else if !c.ok {
        Err(Failure::Other(format!("estimate {lo}..={hi}: {}", c.err)))
    } else {
        match parse_estimate(&c.out) {
            None => Err(Failure::Other(format!(
                "estimate {lo}..={hi}: unreadable output {:?}",
                c.out
            ))),
            Some((v, a, b, exact)) => {
                let (domain_lo, domain_hi) =
                    (lo as i64 * VALUE_STRIDE, (hi as i64 + 1) * VALUE_STRIDE);
                let truth_v = match op_name {
                    "count" => Some(rows as f64),
                    "avg" => {
                        let (n, sum) = truth.matching(0, lo, hi);
                        Some(sum / n as f64)
                    }
                    _ => None,
                };
                if let Some(tv) = truth_v {
                    t.covered.1 += 1;
                    t.covered.0 += u64::from(a <= tv && tv <= b);
                }
                let sigma = (b - a) / (2.0 * 1.959_963_984_540_054);
                match op_name {
                    "count" if exact && (v - rows as f64).abs() > 0.5 => Err(format!(
                        "exact COUNT(*) of {lo}..={hi} is {v}, the range holds {rows} rows"
                    )),
                    "count" if (v - rows as f64).abs() > (6.0 * sigma).max(0.5) => Err(format!(
                        "COUNT(*) of {lo}..={hi} is {v} +- {sigma:.1}, the range holds {rows} rows"
                    )),
                    "avg" | "q50" if !(domain_lo as f64..domain_hi as f64).contains(&v) => Err(
                        format!("{op_name} of {lo}..={hi} is {v}, outside the range's values"),
                    ),
                    _ => Ok(()),
                }
                .map_err(Failure::Other)
            }
        }
    };
    let answered = c.ok;
    rec.check(verdict);
    if traced && answered {
        let (decode_ns, files) = replay_estimate(rec, store_dir, lo, hi, op_name, &seed_arg);
        t.nodes.0 += files;
        t.nodes.1 += 1;
        t.estimate_residual_ms
            .push((wall.as_nanos() as f64 - spawn_ms * 1e6 - decode_ns as f64) / 1e6);
    }
    Ok(())
}

/// Replay one ingest in process: the same values through the same sampler
/// with the same seed, `encode_sample`, and `DiskStore::save`. Returns the
/// library time the child also spent (observe + finalize + save), ns.
fn replay_ingest(
    rec: &mut Recorder,
    store: &DiskStore,
    key: PartitionKey,
    values: &[i64],
    seed: u64,
) -> u64 {
    rec.add("rows.observed", values.len() as u64);
    rec.tracer.set(true);
    let root = rec.tracer.begin("replay.ingest");
    let config = SamplerConfig::HybridBernoulli {
        expected_n: values.len() as u64,
        p_bound: P_BOUND,
    };
    let mut rng = swh_rand::seeded_rng(seed);
    let mut sampler = config.build::<i64>(FootprintPolicy::with_value_budget(N_F));
    let s = rec.tracer.begin("core.sampler.observe");
    for chunk in values.chunks(CLI_CHUNK) {
        sampler.observe_batch(chunk, &mut rng);
    }
    let mut lib = rec.tracer.end(s);
    let s = rec.tracer.begin("core.sampler.finalize");
    let (sample, _) = sampler.finalize_with_stats(&mut rng);
    lib += rec.tracer.end(s);
    let s = rec.tracer.begin("warehouse.store.save");
    // A failed replay write only shortens the replayed time; the child's
    // own write was checked.
    let _ = store.save(key, &sample);
    lib += rec.tracer.end(s);
    rec.tracer.span("warehouse.codec.encode", || {
        std::hint::black_box(encode_sample(&sample));
    });
    rec.tracer.end(root);
    rec.tracer.set(false);
    lib
}

/// Replay one estimate in process over the files the CLI read (every stored
/// partition whose first sequence number lies in `lo..=hi`): `DiskStore::load`,
/// `Catalog::roll_in`, `Catalog::union_sample`, `Query::estimate`. Returns
/// the decode time (ns) and the number of files.
fn replay_estimate(
    rec: &mut Recorder,
    store_dir: &Path,
    lo: u64,
    hi: u64,
    op: &str,
    seed: &str,
) -> (u64, u64) {
    let Ok(store) = DiskStore::open(store_dir) else {
        return (0, 0);
    };
    let keys: Vec<PartitionKey> = store
        .list(DS)
        .unwrap_or_default()
        .into_iter()
        .filter(|k| (lo..=hi).contains(&k.partition.seq))
        .collect();
    rec.tracer.set(true);
    let root = rec.tracer.begin("replay.estimate");
    let catalog = Catalog::<i64>::new();
    let mut decode = 0;
    let load = rec.tracer.begin("warehouse.load_dataset");
    for &key in &keys {
        let s = rec.tracer.begin("warehouse.store.decode");
        let loaded = store.load::<i64>(key);
        decode += rec.tracer.end(s);
        if let Ok(sample) = loaded {
            let _ = rec
                .tracer
                .span("warehouse.roll_in", || catalog.roll_in(key, sample));
        }
    }
    rec.tracer.end(load);
    let mut rng = swh_rand::seeded_rng(seed.parse().unwrap_or(0));
    let union = rec.tracer.span("warehouse.union", || {
        catalog.union_sample(DS, |_| true, P_BOUND, &mut rng)
    });
    if let Ok(u) = union {
        let q = match op {
            "count" => Query::count(Predicate::True),
            "avg" => Query::avg(Predicate::True),
            _ => Query::quantile(0.5, Predicate::True),
        };
        rec.tracer
            .span("aqp.estimate", || std::hint::black_box(q.estimate(&u)));
    }
    rec.tracer.end(root);
    rec.tracer.set(false);
    (decode, keys.len() as u64)
}
