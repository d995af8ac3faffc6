//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every call it makes into the program:
//! name, start, end, parent span and request id. Spans stay in memory and
//! are written out when the run ends. Per-name totals (count, wall, self
//! time) are kept for every span; raw span records are kept up to a cap so a
//! long closed-loop run cannot exhaust memory.
//!
//! Self time is a span's duration minus the time its child spans cover.
//! Children are strictly nested on the benchmark's single thread, so the
//! covered time is the sum of their durations.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Raw span records kept for the written trace.
const MAX_RECORDS: usize = 200_000;

#[derive(Debug, Clone, Copy)]
struct Open {
    name: &'static str,
    start: Instant,
    parent: Option<u64>,
    id: u64,
    req: u64,
    child_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    id: u64,
    parent: Option<u64>,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations, ns.
    pub wall_ns: u64,
    /// Sum of self times (duration minus children), ns.
    pub self_ns: u64,
}

impl Agg {
    /// Mean wall per span in microseconds (0 when none).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Span recorder. When disabled, `begin`/`end` only track nothing and cost
/// a branch, so untraced ops and traced ops run the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    stack: Vec<Open>,
    next_id: u64,
    next_req: u64,
    records: Vec<Record>,
    dropped: u64,
    aggs: BTreeMap<&'static str, Agg>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
#[derive(Debug)]
pub struct SpanId(Option<u64>);

impl Tracer {
    /// A tracer; `enabled` selects the traced run.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            stack: Vec::new(),
            next_id: 0,
            next_req: 0,
            records: Vec::new(),
            dropped: 0,
            aggs: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded right now.
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (the traced run alternates ops to measure
    /// tracing overhead). Only valid between root spans.
    pub fn set(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.enabled = on;
    }

    /// Open a span. A span opened with no span open starts a new request.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let (parent, req) = match self.stack.last() {
            Some(p) => (Some(p.id), p.req),
            None => {
                self.next_req += 1;
                (None, self.next_req)
            }
        };
        self.next_id += 1;
        let id = self.next_id;
        self.stack.push(Open {
            name,
            start: Instant::now(),
            parent,
            id,
            req,
            child_ns: 0,
        });
        SpanId(Some(id))
    }

    /// Close a span opened by [`Tracer::begin`]; returns its duration in ns
    /// (0 when tracing was off).
    pub fn end(&mut self, span: SpanId) -> u64 {
        let Some(id) = span.0 else { return 0 };
        let open = self.stack.pop().expect("span ended without begin");
        assert_eq!(open.id, id, "spans must nest");
        let end = Instant::now();
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.wall_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.records.len() < MAX_RECORDS {
            self.records.push(Record {
                id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                start_ns: open.start.duration_since(self.t0).as_nanos() as u64,
                end_ns: end.duration_since(self.t0).as_nanos() as u64,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Totals for `name` (zeroed when no such span closed).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs.get(name).copied().unwrap_or_default()
    }

    /// Write every kept span as TSV (`id parent req name start_ns end_ns`)
    /// followed by the per-name totals.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "# id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for r in &self.records {
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}\t{}",
                r.id,
                r.parent.map_or("-".to_string(), |p| p.to_string()),
                r.req,
                r.name,
                r.start_ns,
                r.end_ns
            )?;
        }
        writeln!(f, "# dropped {} span records past the cap", self.dropped)?;
        writeln!(f, "# name\tcount\twall_ns\tself_ns")?;
        for (name, a) in &self.aggs {
            writeln!(f, "# {name}\t{}\t{}\t{}", a.count, a.wall_ns, a.self_ns)?;
        }
        f.flush()
    }

    /// Per-name totals, sorted by name, for the report.
    pub fn aggs(&self) -> impl Iterator<Item = (&&'static str, &Agg)> {
        self.aggs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root");
        let child = t.begin("child");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_ns = t.end(child);
        let root_ns = t.end(root);
        let r = t.agg("root");
        assert_eq!(r.count, 1);
        assert_eq!(r.wall_ns, root_ns);
        assert_eq!(r.self_ns, root_ns - child_ns);
        // The child closed first, so it is the first record.
        assert_eq!(t.records[0].parent, Some(t.records[1].id));
        assert_eq!(t.records[0].req, t.records[1].req);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        assert_eq!(t.end(s), 0);
        assert_eq!(t.agg("x").count, 0);
    }
}
