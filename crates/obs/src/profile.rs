//! Hierarchical wall-clock profiling: a lock-free profile tree keyed by
//! scope path.
//!
//! The span journal answers *what happened in which order*; this module
//! answers *where the time went*. Code marks regions with a [`Scope`],
//! opened by [`scope`] (path nested under the enclosing scope) or
//! [`scope_rooted`] (absolute path), or with [`record`] (a pre-measured
//! leaf duration), and every region aggregates into a node holding call
//! count, total and self nanoseconds, the maximum observation, and a
//! power-of-two latency histogram. `swh profile`, the `/profile` route on
//! `swh serve`, and [`CostModel::fit`] in `swh-core` all read the same
//! [`snapshot`]. The same [`Scope`] also feeds a registry histogram and a
//! journal span when asked, so a region is timed by one clock read however
//! many sinks it has.
//!
//! # Concurrency
//!
//! The hot path is wait-free after the first visit. Each `(thread, path)`
//! pair owns a private node, so every node has exactly **one writer**; a
//! thread resolves `path → node` through a thread-local cache and only
//! touches the global registry (a mutex) the first time it sees a path.
//! Updates use the same per-slot seqlock idiom as the event journal: the
//! writer flips the commit word odd, bumps the plain-atomic accumulators,
//! and flips it even; [`snapshot`] retries (then skips) any node whose
//! commit word is odd or changes under it, then merges the per-thread
//! shards by path. A skipped shard loses one snapshot's view of one
//! thread's counts — never tears them.
//!
//! # Self time
//!
//! Scopes form a stack per thread. When a scope closes, its elapsed time is
//! charged to the parent frame's child accumulator, so a node's *self* time
//! is its elapsed time minus the time spent in scopes nested under it *on
//! the same thread*. Work spawned onto other threads is not subtracted —
//! at one thread the self times of a tree of scopes sum to its root's
//! elapsed time, which is what `swh profile union --threads 1` checks.
//!
//! # Overhead
//!
//! Opening and closing a scope costs one `Instant` read each plus a
//! thread-local map lookup and ~8 relaxed atomic ops — some tens of
//! nanoseconds. Instrumentation sits on *batch* boundaries (a merge node,
//! an `observe_batch` phase segment, a worker partition), never inside
//! per-element loops; the `trace_overhead` bench gates the end-to-end cost
//! below 5%.

// The per-node seqlock below is machine-checked: the annotation puts this
// file under the analyzer's atomic-ordering rule.
// swh-analyze: protocol(seqlock)

use crate::journal::EventKind;
use crate::metrics::{bucket_of, bucket_quantile, Histogram};
use crate::timer::Stopwatch;
use crate::trace::{Op, OpenSpan};
use std::cell::RefCell;
use std::collections::BTreeMap;
// Under `--cfg loom` the seqlock atomics come from the model checker (the
// workspace aliases `loom` to swh-loomshim); `tests/loom.rs` drives the
// node seqlock through [`model_probe`]. The registry statics stay on std
// primitives either way — loom atomics must not live in process statics.
#[cfg(loom)]
use loom::hint::spin_loop;
#[cfg(loom)]
use loom::sync::atomic::{fence, AtomicU64, Ordering};
#[cfg(not(loom))]
use std::hint::spin_loop;
#[cfg(loom)]
use std::sync::atomic::AtomicBool;
#[cfg(not(loom))]
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of histogram buckets: one per power of two of a `u64`, plus zero.
const BUCKETS: usize = 65;

/// How many times [`snapshot`] re-reads a node that keeps changing under it
/// before skipping that thread's shard. A writer's critical section is a
/// handful of relaxed stores, so this is only reachable if the OS preempts
/// a writer mid-update.
const SNAPSHOT_RETRIES: usize = 256;

/// One `(thread, path)` profile node. Single writer (the owning thread);
/// any thread may read it through the seqlock protocol.
#[derive(Debug)]
struct Node {
    /// Seqlock commit word: odd while the writer is mid-update.
    commit: AtomicU64,
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    max_ns: AtomicU64,
    /// `buckets[bucket_of(total)]` counts per-call total latencies.
    buckets: [AtomicU64; BUCKETS],
}

impl Node {
    fn new() -> Self {
        Self {
            commit: AtomicU64::new(0),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Accumulate one call. Only the owning thread calls this, so the
    /// commit word toggles odd → even with no CAS loop; the release fence
    /// keeps the accumulator bumps from being reordered before the odd
    /// flip (mirrors `Journal::record`).
    // swh-analyze: hot
    fn record(&self, total_ns: u64, self_ns: u64) {
        // swh-analyze: allow(atomic-ordering) -- single writer: this thread wrote the commit word last, no payload is read through it
        let c = self.commit.load(Ordering::Relaxed);
        self.commit.store(c.wrapping_add(1), Ordering::Release);
        fence(Ordering::Release);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        self.self_ns.fetch_add(self_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(total_ns, Ordering::Relaxed);
        self.buckets[bucket_of(total_ns)].fetch_add(1, Ordering::Relaxed);
        self.commit.store(c.wrapping_add(2), Ordering::Release);
    }

    /// Seqlock read: `None` if the node kept changing for
    /// [`SNAPSHOT_RETRIES`] attempts.
    fn read(&self) -> Option<NodeShard> {
        for _ in 0..SNAPSHOT_RETRIES {
            let c1 = self.commit.load(Ordering::Acquire);
            if c1 & 1 == 1 {
                spin_loop();
                continue;
            }
            let shard = NodeShard {
                count: self.count.load(Ordering::Relaxed),
                total_ns: self.total_ns.load(Ordering::Relaxed),
                self_ns: self.self_ns.load(Ordering::Relaxed),
                max_ns: self.max_ns.load(Ordering::Relaxed),
                buckets: self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed)),
            };
            // Pairs with the release fence in `record`: the loads above
            // must complete before the commit word is re-read.
            fence(Ordering::Acquire);
            if self.commit.load(Ordering::Relaxed) == c1 {
                return Some(shard);
            }
        }
        None
    }
}

/// A consistent copy of one node's accumulators.
struct NodeShard {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    max_ns: u64,
    buckets: [u64; BUCKETS],
}

/// Registry entry: who owns the node and where it sits in first-seen order.
struct Shard {
    path: Arc<str>,
    seq: u64,
    node: Arc<Node>,
}

struct ProfileRegistry {
    shards: Mutex<Vec<Shard>>,
    // Registry counters are std atomics even under `--cfg loom`: the
    // registry lives in a process static, and model-checked atomics are
    // allocated per model execution.
    next_seq: std::sync::atomic::AtomicU64,
    /// Bumped by [`reset`]; thread-local caches compare and self-clear.
    epoch: std::sync::atomic::AtomicU64,
    enabled: AtomicBool,
}

fn registry() -> &'static ProfileRegistry {
    static GLOBAL: OnceLock<ProfileRegistry> = OnceLock::new();
    GLOBAL.get_or_init(|| ProfileRegistry {
        shards: Mutex::new(Vec::new()),
        next_seq: std::sync::atomic::AtomicU64::new(0),
        epoch: std::sync::atomic::AtomicU64::new(0),
        enabled: AtomicBool::new(true),
    })
}

/// One open scope frame on a thread's stack.
struct Frame {
    path: Arc<str>,
    /// Nanoseconds spent in scopes nested under this one (same thread).
    child_ns: u64,
}

#[derive(Default)]
struct ThreadProfile {
    epoch: u64,
    cache: BTreeMap<Arc<str>, Arc<Node>>,
    stack: Vec<Frame>,
}

impl ThreadProfile {
    /// Resolve `path` to this thread's private node, registering it
    /// globally on first sight. Takes `&str` so cache hits — the steady
    /// state of every hot record path — cost a map lookup and no
    /// allocation; the `Arc<str>` is only built on first sight.
    fn resolve(&mut self, path: &str) -> Arc<Node> {
        let epoch = registry().epoch.load(Ordering::Relaxed);
        if self.epoch != epoch {
            self.cache.clear();
            self.epoch = epoch;
        }
        if let Some(node) = self.cache.get(path) {
            return Arc::clone(node);
        }
        let path: Arc<str> = Arc::from(path);
        let node = Arc::new(Node::new());
        let reg = registry();
        // swh-analyze: allow(atomic-ordering) -- registration tiebreak counter; first-seen order is published under the shards lock
        let seq = reg.next_seq.fetch_add(1, Ordering::Relaxed);
        reg.shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Shard {
                path: Arc::clone(&path),
                seq,
                node: Arc::clone(&node),
            });
        self.cache.insert(path, node.clone());
        node
    }
}

thread_local! {
    static TLS: RefCell<ThreadProfile> = RefCell::new(ThreadProfile::default());
}

/// Enable or disable profiling process-wide (default: enabled). While
/// disabled, [`scope`] and [`record`] cost one relaxed load.
pub fn set_enabled(on: bool) {
    registry().enabled.store(on, Ordering::Relaxed);
}

/// Whether profiling is enabled.
pub fn enabled() -> bool {
    registry().enabled.load(Ordering::Relaxed)
}

/// Drop every profile node and invalidate all thread caches. Scopes still
/// open keep recording into detached nodes that no snapshot will see.
pub fn reset() {
    let reg = registry();
    // Bump the epoch first so threads racing `resolve` against the clear
    // re-register afterwards instead of reviving a dropped shard.
    reg.epoch.fetch_add(1, Ordering::Relaxed);
    reg.shards
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
}

/// A timed region, the workspace's one region type. It reads the clock
/// once at open and once at close, and feeds the same elapsed nanoseconds
/// to every sink it carries:
///
/// * its profile node, when profiling was enabled at open;
/// * a registry [`Histogram`] added with [`Scope::histogram`], recorded
///   even while profiling is off;
/// * a journal span added with [`Scope::span`]: `span_start` at that call,
///   events from [`Scope::event`], and `span_end` at close.
///
/// A scope closes when dropped or at [`Scope::end`], which also returns
/// the elapsed nanoseconds. With profiling off and no histogram it never
/// reads the clock. Scopes must close in LIFO order on their thread, which
/// the borrow rules of block-scoped guards enforce.
///
/// ```
/// use swh_obs::{profile, Histogram};
///
/// let latency = Histogram::new();
/// let ns = profile::scope_rooted("example/region")
///     .histogram(&latency)
///     .end();
/// assert_eq!(latency.sum(), ns);
/// ```
#[derive(Debug)]
pub struct Scope {
    /// Started when the first sink that needs a duration is armed.
    sw: Option<Stopwatch>,
    /// Whether this scope pushed a frame on its thread's profile stack.
    framed: bool,
    histogram: Option<Histogram>,
    span: Option<OpenSpan>,
}

/// Open a scope named `name` nested under the enclosing scope on this
/// thread (path `parent/name`, or `name` at the top of the stack).
pub fn scope(name: &str) -> Scope {
    if !enabled() {
        return Scope::idle();
    }
    let parent: Option<Arc<str>> = TLS
        .try_with(|tls| tls.borrow().stack.last().map(|f| Arc::clone(&f.path)))
        .ok()
        .flatten();
    let path: Arc<str> = match parent {
        Some(p) => Arc::from(format!("{p}/{name}")),
        None => Arc::from(name),
    };
    push(path)
}

/// Open a scope at an absolute `path`, ignoring the enclosing scope's name
/// but still participating in the stack: nested scopes build paths under
/// it, and its elapsed time is charged to the parent's child accumulator.
///
/// Used where the path must be stable regardless of caller — a merge-plan
/// node is `union/node/{pw,cp,mw,rs}{index}` whether the union ran on one
/// thread or eight, and the merge operators it invokes record under flat
/// `merge/{restream|hr|hb}/s{bucket}` paths regardless of plan shape.
pub fn scope_rooted(path: &str) -> Scope {
    if !enabled() {
        return Scope::idle();
    }
    push(Arc::from(path))
}

fn push(path: Arc<str>) -> Scope {
    // `try_with` so a scope opened during thread teardown degrades to an
    // unframed scope instead of panicking.
    let framed = TLS
        .try_with(|tls| {
            tls.borrow_mut().stack.push(Frame { path, child_ns: 0 });
        })
        .is_ok();
    Scope {
        sw: framed.then(Stopwatch::start),
        framed,
        histogram: None,
        span: None,
    }
}

impl Scope {
    /// A scope that records nothing and never reads the clock: what
    /// [`scope`] returns while profiling is off. Lets a hot caller skip
    /// its own path lookup before it opens a scope.
    pub fn idle() -> Self {
        Self {
            sw: None,
            framed: false,
            histogram: None,
            span: None,
        }
    }

    /// Also record the elapsed nanoseconds into `histogram` at close,
    /// whether or not profiling is enabled.
    pub fn histogram(mut self, histogram: &Histogram) -> Self {
        self.histogram = Some(histogram.clone());
        self.sw.get_or_insert_with(Stopwatch::start);
        self
    }

    /// Also open a root journal span for `op`: `span_start` now,
    /// `span_end` at close. Call at most once per scope.
    pub fn span(mut self, op: Op) -> Self {
        self.span = Some(OpenSpan::start(op));
        self
    }

    /// Record a journal event inside this scope's span; a no-op on a
    /// scope without one.
    pub fn event(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(span) = &self.span {
            span.event(kind, a, b);
        }
    }

    /// Close the scope now and return the elapsed nanoseconds (zero when
    /// neither profiling nor a histogram was armed, so the clock was never
    /// read).
    pub fn end(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        let elapsed = self.sw.take().map_or(0, |sw| sw.elapsed_ns());
        if std::mem::take(&mut self.framed) {
            // `try_with` so a guard dropped during thread teardown is a
            // no-op instead of a panic in `Drop`.
            let _ = TLS.try_with(|tls| {
                let mut tls = tls.borrow_mut();
                let Some(frame) = tls.stack.pop() else { return };
                let self_ns = elapsed.saturating_sub(frame.child_ns);
                let node = tls.resolve(&frame.path);
                node.record(elapsed, self_ns);
                if let Some(parent) = tls.stack.last_mut() {
                    parent.child_ns = parent.child_ns.saturating_add(elapsed);
                }
            });
        }
        if let Some(histogram) = self.histogram.take() {
            histogram.record(elapsed);
        }
        if let Some(span) = self.span.take() {
            span.end();
        }
        elapsed
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        self.close();
    }
}

/// Record a pre-measured duration under an absolute `path` (count 1,
/// total = self = `ns`), without touching the scope stack. Used where the
/// region boundaries are data-driven rather than lexical — an
/// `observe_batch` phase segment ends when the sampler changes phase, not
/// when a block closes.
// swh-analyze: hot
pub fn record(path: &str, ns: u64) {
    if !enabled() {
        return;
    }
    let _ = TLS.try_with(|tls| {
        let node = tls.borrow_mut().resolve(path);
        node.record(ns, ns);
    });
}

/// The log-2 size bucket used in profile path tags (`s{bucket}`):
/// `0` for 0, otherwise `1 + floor(log2 v)`. Shared with the histogram
/// buckets so cost-model sizes and latency buckets line up.
pub fn size_bucket(v: u64) -> u32 {
    bucket_of(v) as u32
}

/// Representative size for a bucket produced by [`size_bucket`]: the
/// geometric middle of `[2^(b-1), 2^b)`, `0` for bucket 0.
pub fn bucket_size_hint(bucket: u32) -> u64 {
    if bucket == 0 || bucket > 64 {
        return 0;
    }
    let lo = 1u64 << (bucket - 1);
    let hi = lo.saturating_mul(2);
    lo.saturating_add(hi) / 2
}

/// One merged profile node in a [`ProfileSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Scope path, `/`-separated.
    pub path: String,
    /// First-seen order across the process (stable tiebreak).
    pub seq: u64,
    /// Number of recorded calls.
    pub count: u64,
    /// Total elapsed nanoseconds across calls.
    pub total_ns: u64,
    /// Total minus time in same-thread nested scopes.
    pub self_ns: u64,
    /// Largest single call, in nanoseconds.
    pub max_ns: u64,
    /// Power-of-two latency buckets of per-call totals.
    pub buckets: Vec<u64>,
}

impl ProfileNode {
    /// Mean per-call total nanoseconds, zero when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean per-call self nanoseconds, zero when empty.
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }

    /// Estimated quantile of per-call total latency (≤ 2× relative error
    /// from log bucketing), clamped by the observed maximum.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        bucket_quantile(&self.buckets, self.max_ns, q)
    }
}

/// A point-in-time, thread-merged copy of the profile tree.
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    /// Nodes in first-seen order.
    pub nodes: Vec<ProfileNode>,
}

impl ProfileSnapshot {
    /// Node by exact path.
    pub fn get(&self, path: &str) -> Option<&ProfileNode> {
        self.nodes.iter().find(|n| n.path == path)
    }

    /// Nodes whose path starts with `prefix`.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a ProfileNode> {
        self.nodes
            .iter()
            .filter(move |n| n.path.starts_with(prefix))
    }

    /// Sum of self nanoseconds over nodes under `prefix`.
    pub fn self_ns_under(&self, prefix: &str) -> u64 {
        self.with_prefix(prefix).map(|n| n.self_ns).sum()
    }

    /// The `n` nodes with the largest self time, descending (path is the
    /// tiebreak so the order is deterministic).
    pub fn top_self(&self, n: usize) -> Vec<&ProfileNode> {
        let mut sorted: Vec<&ProfileNode> = self.nodes.iter().collect();
        sorted.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
        sorted.truncate(n);
        sorted
    }

    /// JSON rendering: `{"nodes": [{path, count, total_ns, self_ns,
    /// max_ns, mean_ns, p50_ns, p90_ns, p99_ns}, ...]}` in first-seen
    /// order.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n  {{\"path\": \"{}\", \"count\": {}, \"total_ns\": {}, \
                 \"self_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.1}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
                escape_json(&n.path),
                n.count,
                n.total_ns,
                n.self_ns,
                n.max_ns,
                n.mean_ns(),
                n.quantile_ns(0.50),
                n.quantile_ns(0.90),
                n.quantile_ns(0.99),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Copy the live profile tree: per-thread shards seqlock-read (a shard
/// whose writer is mid-update after bounded retries is skipped, never
/// returned torn) and merged by path, in first-seen order.
pub fn snapshot() -> ProfileSnapshot {
    let shards: Vec<(Arc<str>, u64, Arc<Node>)> = registry()
        .shards
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|s| (Arc::clone(&s.path), s.seq, Arc::clone(&s.node)))
        .collect();
    let mut merged: BTreeMap<Arc<str>, ProfileNode> = BTreeMap::new();
    for (path, seq, node) in shards {
        let Some(shard) = node.read() else { continue };
        let entry = merged
            .entry(Arc::clone(&path))
            .or_insert_with(|| ProfileNode {
                path: path.to_string(),
                seq,
                count: 0,
                total_ns: 0,
                self_ns: 0,
                max_ns: 0,
                buckets: vec![0; BUCKETS],
            });
        entry.seq = entry.seq.min(seq);
        entry.count += shard.count;
        entry.total_ns = entry.total_ns.saturating_add(shard.total_ns);
        entry.self_ns = entry.self_ns.saturating_add(shard.self_ns);
        entry.max_ns = entry.max_ns.max(shard.max_ns);
        for (dst, src) in entry.buckets.iter_mut().zip(shard.buckets.iter()) {
            *dst += src;
        }
    }
    let mut nodes: Vec<ProfileNode> = merged.into_values().collect();
    nodes.sort_by_key(|n| n.seq);
    ProfileSnapshot { nodes }
}

/// Model-checking probe, compiled only under `--cfg loom`: exposes the
/// private seqlock [`Node`] to `tests/loom.rs` without widening the public
/// API of normal builds. Loom tests must go through this probe (one fresh
/// node per model execution) and never touch the process-global registry,
/// whose statics are not model-checked.
#[cfg(loom)]
pub mod model_probe {
    /// A fresh, unregistered profile node driven directly.
    #[derive(Debug)]
    pub struct NodeProbe {
        node: super::Node,
    }

    impl NodeProbe {
        /// A probe around a fresh node; call inside `loom::model` only.
        #[allow(clippy::new_without_default)]
        pub fn new() -> Self {
            Self {
                node: super::Node::new(),
            }
        }

        /// The single-writer seqlock update (`Node::record`).
        pub fn record(&self, total_ns: u64, self_ns: u64) {
            self.node.record(total_ns, self_ns);
        }

        /// The seqlock read (`Node::read`); returns
        /// `(count, total_ns, self_ns, max_ns, bucket_sum)` on a
        /// consistent snapshot.
        pub fn read(&self) -> Option<(u64, u64, u64, u64, u64)> {
            self.node.read().map(|s| {
                (
                    s.count,
                    s.total_ns,
                    s.self_ns,
                    s.max_ns,
                    s.buckets.iter().sum(),
                )
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profile tree is process-global; tests that reset or disable it
    /// serialize on this lock so `cargo test`'s thread pool cannot
    /// interleave them.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn scope_records_count_and_time() {
        let _guard = test_lock();
        reset();
        {
            let _s = scope("unit/basic");
        }
        {
            let _s = scope("unit/basic");
        }
        let snap = snapshot();
        let node = snap.get("unit/basic").expect("node exists");
        assert_eq!(node.count, 2);
        assert!(node.total_ns >= node.self_ns);
        assert_eq!(node.buckets.iter().sum::<u64>(), node.count);
    }

    #[test]
    fn nesting_builds_paths_and_attributes_child_time() {
        let _guard = test_lock();
        reset();
        {
            let _outer = scope("unit/outer");
            {
                let _inner = scope("leaf");
                std::hint::black_box((0..20_000).sum::<u64>());
            }
        }
        let snap = snapshot();
        let outer = snap.get("unit/outer").expect("outer");
        let inner = snap.get("unit/outer/leaf").expect("inner nested path");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(
            outer.total_ns >= inner.total_ns,
            "outer {} < inner {}",
            outer.total_ns,
            inner.total_ns
        );
        // Outer self excludes exactly inner's elapsed time.
        assert_eq!(
            outer.self_ns,
            outer.total_ns - inner.total_ns.min(outer.total_ns)
        );
    }

    #[test]
    fn rooted_scope_ignores_parent_path_but_feeds_parent_self() {
        let _guard = test_lock();
        reset();
        {
            let _outer = scope("unit/root_outer");
            let _node = scope_rooted("absolute/path");
        }
        let snap = snapshot();
        assert!(snap.get("absolute/path").is_some());
        assert!(snap.get("unit/root_outer/absolute/path").is_none());
        let outer = snap.get("unit/root_outer").expect("outer");
        let inner = snap.get("absolute/path").expect("inner");
        assert_eq!(
            outer.self_ns,
            outer.total_ns - inner.total_ns.min(outer.total_ns)
        );
    }

    #[test]
    fn record_is_a_leaf_with_exact_values() {
        let _guard = test_lock();
        reset();
        record("unit/leaf", 7);
        record("unit/leaf", 9);
        let snap = snapshot();
        let node = snap.get("unit/leaf").expect("leaf");
        assert_eq!(node.count, 2);
        assert_eq!(node.total_ns, 16);
        assert_eq!(node.self_ns, 16);
        assert_eq!(node.max_ns, 9);
    }

    #[test]
    fn disabled_profiling_records_nothing() {
        let _guard = test_lock();
        reset();
        set_enabled(false);
        {
            let _s = scope("unit/disabled");
        }
        record("unit/disabled_leaf", 5);
        // A histogram sink keeps recording while profiling is off.
        let h = Histogram::new();
        let ns = scope_rooted("unit/disabled_hist").histogram(&h).end();
        set_enabled(true);
        let snap = snapshot();
        assert!(snap.get("unit/disabled").is_none());
        assert!(snap.get("unit/disabled_leaf").is_none());
        assert!(snap.get("unit/disabled_hist").is_none());
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), ns);
    }

    #[test]
    fn one_clock_read_feeds_node_histogram_and_end() {
        let _guard = test_lock();
        reset();
        let h = Histogram::new();
        let ns = scope_rooted("unit/one_clock").histogram(&h).end();
        let snap = snapshot();
        let node = snap.get("unit/one_clock").expect("node");
        assert_eq!(node.count, 1);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), node.total_ns);
        assert_eq!(node.total_ns, ns);
    }

    #[test]
    fn span_is_recorded_once_even_after_explicit_end() {
        let _guard = test_lock();
        let scope = scope_rooted("unit/span").span(Op::Fsck);
        let id = scope.span.as_ref().map(|s| s.id).expect("span open");
        scope.end(); // the drop after an explicit end must not re-record
        let kinds: Vec<EventKind> = crate::journal::journal()
            .snapshot()
            .into_iter()
            .filter(|e| e.span == id.raw())
            .map(|e| e.kind)
            .collect();
        assert_eq!(kinds, [EventKind::SpanStart, EventKind::SpanEnd]);
    }

    #[test]
    fn reset_clears_nodes_and_thread_caches() {
        let _guard = test_lock();
        reset();
        record("unit/to_clear", 1);
        assert!(snapshot().get("unit/to_clear").is_some());
        reset();
        assert!(snapshot().get("unit/to_clear").is_none());
        // The thread cache must re-register, not write into the dropped
        // shard.
        record("unit/to_clear", 2);
        let snap = snapshot();
        assert_eq!(snap.get("unit/to_clear").map(|n| n.total_ns), Some(2));
    }

    /// Satellite: N threads × M scopes — counts sum exactly once the
    /// writers join, and a racing snapshot never observes a torn node
    /// (each record is a fixed 3 ns, so `total == 3 × count` and the
    /// bucket sum equals the count in every consistent view).
    #[test]
    fn concurrent_writers_sum_exactly_and_snapshots_never_tear() {
        let _guard = test_lock();
        reset();
        const THREADS: u64 = 4;
        const PATHS: u64 = 8;
        const ITERS: u64 = 2_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for i in 0..ITERS {
                        let path = format!("unit/conc/p{}", i % PATHS);
                        record(&path, 3);
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..50 {
                    for node in snapshot().with_prefix("unit/conc/") {
                        assert_eq!(node.total_ns, 3 * node.count, "torn {node:?}");
                        assert_eq!(node.self_ns, node.total_ns, "torn {node:?}");
                        assert_eq!(
                            node.buckets.iter().sum::<u64>(),
                            node.count,
                            "torn {node:?}"
                        );
                    }
                }
            });
        });
        let snap = snapshot();
        let mut total = 0u64;
        for p in 0..PATHS {
            let node = snap
                .get(&format!("unit/conc/p{p}"))
                .expect("every path present");
            assert_eq!(node.count, THREADS * ITERS / PATHS);
            assert_eq!(node.total_ns, 3 * node.count);
            total += node.count;
        }
        assert_eq!(total, THREADS * ITERS);
    }

    #[test]
    fn top_self_orders_descending_and_json_is_shaped() {
        let _guard = test_lock();
        reset();
        record("unit/top/a", 10);
        record("unit/top/b", 30);
        record("unit/top/c", 20);
        let snap = snapshot();
        let top: Vec<&str> = snap.top_self(2).iter().map(|n| n.path.as_str()).collect();
        assert_eq!(top, vec!["unit/top/b", "unit/top/c"]);
        let json = snap.to_json();
        assert!(json.contains("\"path\": \"unit/top/a\""));
        assert!(json.contains("\"total_ns\": 30"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn size_bucket_and_hint_roundtrip() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 1);
        assert_eq!(size_bucket(4096), 13);
        assert_eq!(bucket_size_hint(0), 0);
        assert_eq!(bucket_size_hint(1), 1);
        // Hint sits inside its own bucket.
        for b in 1..=20u32 {
            assert_eq!(size_bucket(bucket_size_hint(b)), b, "bucket {b}");
        }
    }

    #[test]
    fn snapshot_seq_is_first_seen_order() {
        let _guard = test_lock();
        reset();
        record("unit/seq/z_first", 1);
        record("unit/seq/a_second", 1);
        let snap = snapshot();
        let paths: Vec<&str> = snap
            .with_prefix("unit/seq/")
            .map(|n| n.path.as_str())
            .collect();
        assert_eq!(paths, vec!["unit/seq/z_first", "unit/seq/a_second"]);
    }
}
