//! Op recording and the human-readable report.

use crate::check::{Failure, Tally};
use crate::stats::{beyond, median, percentile};
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// Everything a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced run).
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Add an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.e2e.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.layers.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Split {
    n: [u64; 2],
    ns: [u64; 2],
}

/// Ops of one kind finished in one stretch of the run. Latencies are kept
/// as `f32` so the benchmark's own memory, which the process's peak RSS also
/// counts, stays small next to the program's.
#[derive(Debug, Clone, Default)]
struct Acc {
    wall_ms: Vec<f32>,
    busy_ns: u64,
    units: u64,
}

/// Stretches of the timed phase. Each figure is computed per stretch and
/// the median over them is reported, so a slow spell of a noisy shared
/// machine that covers part of a run moves the figure less.
const BLOCKS: usize = 5;

/// The timed phase: when it started (moved forward by pauses) and how long
/// it runs.
#[derive(Debug, Clone, Copy)]
struct Timed {
    start: Instant,
    len: Duration,
}

/// Records every op a workload makes: its wall time, whether it was
/// traced, and its check outcome. In the traced run ops of each kind
/// alternate between traced and untraced, so the two halves give the
/// tracing overhead on the same op mix.
#[derive(Debug)]
pub struct Recorder {
    /// The span recorder.
    pub tracer: Tracer,
    trace_run: bool,
    /// Check outcomes.
    pub tally: Tally,
    /// Per kind: ops before the timed phase, then one [`Acc`] per block.
    ops: BTreeMap<&'static str, [Acc; BLOCKS + 1]>,
    timed: Option<Timed>,
    split: BTreeMap<&'static str, Split>,
    busy_ns: u64,
    counts: BTreeMap<&'static str, u64>,
    born: Instant,
    paused: Duration,
}

/// An op in flight (see [`Recorder::start`]).
#[derive(Debug)]
pub struct Op {
    kind: &'static str,
    traced: bool,
    start: Instant,
    span: SpanId,
}

impl Op {
    /// Whether this op records spans.
    pub fn traced(&self) -> bool {
        self.traced
    }
}

impl Recorder {
    /// Recorder for a traced (`trace = true`) or untraced run.
    pub fn new(trace: bool) -> Self {
        Self {
            tracer: Tracer::new(trace),
            trace_run: trace,
            tally: Tally::default(),
            ops: BTreeMap::new(),
            timed: None,
            split: BTreeMap::new(),
            busy_ns: 0,
            counts: BTreeMap::new(),
            born: Instant::now(),
            paused: Duration::ZERO,
        }
    }

    /// Whether this is the traced run.
    pub fn trace_run(&self) -> bool {
        self.trace_run
    }

    /// Start an op of `kind`; its root span is named `kind`.
    pub fn start(&mut self, kind: &'static str) -> Op {
        let traced = self.trace_run && {
            let s = self.split.entry(kind).or_default();
            (s.n[0] + s.n[1]).is_multiple_of(2)
        };
        self.tracer.set(traced);
        let span = self.tracer.begin(kind);
        Op {
            kind,
            traced,
            start: Instant::now(),
            span,
        }
    }

    /// Finish an op that completed `units` of work (rows, for ingest):
    /// stop its clock and record its wall time, which it returns. Pass
    /// `from` to time the op from an earlier instant (an open-loop op's due
    /// time) instead of its start.
    pub fn finish(&mut self, op: Op, from: Option<Instant>, units: u64) -> Duration {
        let end = Instant::now();
        self.tracer.end(op.span);
        let busy = end.duration_since(op.start);
        let wall = end.duration_since(from.unwrap_or(op.start));
        self.busy_ns += busy.as_nanos() as u64;
        let slot = self.timed.map_or(0, |t| {
            let at = end.saturating_duration_since(t.start).as_secs_f64();
            1 + ((at / t.len.as_secs_f64() * BLOCKS as f64) as usize).min(BLOCKS - 1)
        });
        let acc = &mut self.ops.entry(op.kind).or_default()[slot];
        acc.wall_ms.push((wall.as_secs_f64() * 1e3) as f32);
        acc.busy_ns += busy.as_nanos() as u64;
        acc.units += units;
        let s = self.split.entry(op.kind).or_default();
        let i = usize::from(op.traced);
        s.n[i] += 1;
        s.ns[i] += busy.as_nanos() as u64;
        self.tracer.set(false);
        busy
    }

    /// Record an op's check outcome.
    pub fn check(&mut self, outcome: Result<(), Failure>) {
        self.tally.record(outcome);
    }

    /// Run the benchmark's own work (replays, probes) in a root span of its own,
    /// traced only when `op` was.
    pub fn replay<R>(
        &mut self,
        op_traced: bool,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.tracer.set(op_traced);
        let s = self.tracer.begin(name);
        let r = f(&mut self.tracer);
        self.tracer.end(s);
        self.tracer.set(false);
        r
    }

    /// Add `n` to the benchmark-side tally `key` (e.g. rows seen by traced
    /// sampler calls).
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }

    /// The tally `key`.
    pub fn counted(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Seconds since the recorder was made (the run's wall time so far).
    pub fn wall_s(&self) -> f64 {
        self.born.elapsed().as_secs_f64()
    }

    /// Start the timed phase: ops that end from now on are split into
    /// [`BLOCKS`] equal stretches of `len`.
    pub fn start_timed(&mut self, len: Duration) {
        self.timed = Some(Timed {
            start: Instant::now(),
            len,
        });
    }

    /// Move the timed phase forward by `d`, time the run spent on something
    /// else (an extra set-up).
    pub fn pause(&mut self, d: Duration) {
        self.paused += d;
        if let Some(t) = &mut self.timed {
            t.start += d;
        }
    }

    /// Seconds the timed phase was paused for.
    pub fn paused_s(&self) -> f64 {
        self.paused.as_secs_f64()
    }

    /// Whether the timed phase has run its length.
    pub fn timed_out(&self) -> bool {
        self.timed.is_some_and(|t| t.start.elapsed() >= t.len)
    }

    /// Share of the timed phase run so far.
    pub fn timed_share(&self) -> f64 {
        self.timed.map_or(0.0, |t| {
            t.start.elapsed().as_secs_f64() / t.len.as_secs_f64()
        })
    }

    /// Latencies (ms) recorded for `kind`.
    pub fn latencies(&self, kind: &str) -> Vec<f64> {
        self.ops.get(kind).map_or(Vec::new(), |accs| {
            accs.iter()
                .flat_map(|a| a.wall_ms.iter().map(|&v| f64::from(v)))
                .collect()
        })
    }

    /// Ops of `kind` recorded.
    pub fn count(&self, kind: &str) -> usize {
        self.ops
            .get(kind)
            .map_or(0, |accs| accs.iter().map(|a| a.wall_ms.len()).sum())
    }

    /// The `q` percentile of the latencies of `kinds` in each block of the
    /// timed phase; median over the blocks.
    pub fn block_percentile(&self, kinds: &[&str], q: f64) -> f64 {
        let per: Vec<f64> = (1..=BLOCKS)
            .filter_map(|b| {
                let mut v: Vec<f64> = kinds
                    .iter()
                    .filter_map(|k| self.ops.get(k))
                    .flat_map(|accs| accs[b].wall_ms.iter().map(|&v| f64::from(v)))
                    .collect();
                percentile(&mut v, q)
            })
            .collect();
        median(&per).unwrap_or(f64::NAN)
    }

    /// Work per second of busy time in each block of the timed phase;
    /// median over the blocks. The work is the units (`units = true`) or
    /// the number of the ops of `num`; the busy time is that of the ops of
    /// `den`.
    pub fn block_rate(&self, num: &[&str], den: &[&str], units: bool) -> f64 {
        let per: Vec<f64> = (1..=BLOCKS)
            .filter_map(|b| {
                let work: u64 = num
                    .iter()
                    .filter_map(|k| self.ops.get(k))
                    .map(|accs| {
                        if units {
                            accs[b].units
                        } else {
                            accs[b].wall_ms.len() as u64
                        }
                    })
                    .sum();
                let ns: u64 = den
                    .iter()
                    .filter_map(|k| self.ops.get(k))
                    .map(|accs| accs[b].busy_ns)
                    .sum();
                (ns > 0).then(|| work as f64 * 1e9 / ns as f64)
            })
            .collect();
        median(&per).unwrap_or(f64::NAN)
    }

    /// Seconds spent inside ops (program calls), summed over kinds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    /// Seconds spent inside ops of the given kinds.
    pub fn busy_s_of(&self, kinds: &[&str]) -> f64 {
        kinds
            .iter()
            .filter_map(|k| self.ops.get(k))
            .flat_map(|accs| accs.iter().map(|a| a.busy_ns as f64 / 1e9))
            .sum()
    }

    /// Tracing overhead in percent: traced ops' busy time against what the
    /// same ops cost untraced, weighted by kind.
    pub fn tracing_overhead_pct(&self) -> f64 {
        let (mut traced, mut untraced) = (0.0, 0.0);
        for s in self.split.values() {
            if s.n[0] == 0 || s.n[1] == 0 {
                continue;
            }
            traced += s.ns[1] as f64;
            untraced += s.n[1] as f64 * (s.ns[0] as f64 / s.n[0] as f64);
        }
        if untraced == 0.0 {
            0.0
        } else {
            100.0 * (traced / untraced - 1.0)
        }
    }

    /// Add the `_p50` and `_p90` end-to-end latency metrics `names` over
    /// the ops of `kinds`, each the median over time blocks.
    pub fn latency_metrics(&self, out: &mut Outcome, kinds: &[&str], names: [&'static str; 2]) {
        let n = kinds.iter().map(|k| self.count(k)).sum();
        out.e2e(names[0], self.block_percentile(kinds, 0.5), "ms", n);
        out.e2e(names[1], self.block_percentile(kinds, 0.9), "ms", n);
    }
}

/// Print the report: every metric by name with unit and sample count.
/// Tail percentiles print only with at least ten samples beyond them.
pub fn print_report(workload: &str, out: &Outcome, rec: &Recorder, extra: &[Metric]) {
    println!("== {workload}: check verdict ==");
    let t = &rec.tally;
    println!(
        "ops attempted {}  failed {}  (defect (a) {}, defect (b) {}, other {})  error_rate {:.6}",
        t.attempted,
        t.failed(),
        t.defect_a,
        t.defect_b,
        t.other,
        t.failed() as f64 / t.attempted.max(1) as f64
    );
    for e in &t.examples {
        println!("  failure: {e}");
    }
    let show = |m: &Metric| {
        let tail = if m.name.ends_with("_p99") {
            Some(0.99)
        } else if m.name.ends_with("_p90") {
            Some(0.9)
        } else {
            None
        };
        match tail {
            Some(q) if beyond(m.samples, q) < 10 => println!(
                "  {:<42} (not printed: {} samples, fewer than 10 beyond the percentile)",
                m.name, m.samples
            ),
            _ => println!(
                "  {:<42} {:>16.6} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            ),
        }
    };
    if !out.e2e.is_empty() {
        println!("== {workload}: end-to-end (BENCHMARK.json lists the gated ones) ==");
        out.e2e.iter().for_each(show);
    }
    if !out.layers.is_empty() {
        println!("== {workload}: per layer (traced run) ==");
        out.layers.iter().for_each(show);
    }
    if !extra.is_empty() {
        println!("== {workload}: workload-specific (report only) ==");
        extra.iter().for_each(show);
    }
}
