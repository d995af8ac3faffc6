//! Fixed-capacity lock-free ring-buffer event journal.
//!
//! The journal records *what happened in which order*, not when: events
//! carry a monotonic sequence number claimed with a single `fetch_add`, and
//! no wall-clock timestamps (the sampling crates are under a determinism
//! lint, and a deterministic trace diff is far more useful than one salted
//! with nanoseconds). The buffer holds the most recent `capacity` events;
//! older events are overwritten, never blocked on.
//!
//! Concurrency: each slot is a per-slot seqlock over plain atomics. A writer
//! claims a position with `head.fetch_add(1)` (that position *is* the
//! sequence number), marks the slot as in-progress, stores the event fields,
//! then publishes `seq + 1` as the slot's commit word. A reader copies the
//! fields and re-checks the commit word; any concurrent overwrite changes it
//! and the reader discards the torn copy. Writers never wait on readers or
//! on each other.

// The seqlock discipline below is machine-checked: the annotation puts this
// file under the analyzer's atomic-ordering rule (sequence-word publishes
// need Release or a release fence; Relaxed validation reads need an acquire
// fence in the same function).
// swh-analyze: protocol(seqlock)

use crate::trace::{Op, OpenSpan};
// Under `--cfg loom` the atomics come from the model checker (the workspace
// aliases `loom` to swh-loomshim), so `tests/loom.rs` can explore every
// bounded interleaving of `record` against `snapshot`.
#[cfg(loom)]
use loom::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// What a journal [`Event`] describes. The two payload words `a` and `b`
/// are interpreted per kind (see each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// A span began; `a` is an operation code chosen by the caller.
    SpanStart,
    /// A span ended; `a` is the number of journal events recorded while
    /// it was open (its "duration" in sequence numbers).
    SpanEnd,
    /// A partition was ingested; `a` is the element count.
    Ingest,
    /// A sampler crossed a phase boundary; `a` packs `from << 8 | to`,
    /// `b` is the footprint in slots at the transition.
    PhaseTransition,
    /// A purge ran; `a` is the purge kind (0 = Bernoulli, 1 = reservoir),
    /// `b` the number of surviving elements.
    Purge,
    /// Two or more samples merged; `a` is the fan-in, `b` the
    /// hypergeometric split `L` (zero when not applicable).
    Merge,
    /// A store wrote a partition file; payloads unused.
    StoreWrite,
    /// A store recovered (swept) an orphaned temp file; `a` counts the
    /// files removed.
    StoreRecovery,
    /// A store quarantined a corrupt file; payloads unused.
    StoreQuarantine,
    /// A partition sample rolled into the catalog; `a` is the dataset id,
    /// `b` the partition sequence number.
    CatalogRollIn,
    /// A partition sample rolled out of the catalog; `a` is the dataset
    /// id, `b` the partition sequence number.
    CatalogRollOut,
    /// A health alert rule transitioned to firing; `a` is the rule index
    /// in the engine's rule list, `b` the severity code.
    AlertFiring,
    /// A health alert rule resolved; `a` is the rule index, `b` the
    /// number of engine ticks it spent firing.
    AlertResolved,
    /// A lifecycle compaction merged hot/warm partitions into a coarser
    /// tier; `a` is the dataset id, `b` the merge fan-in.
    Compaction,
    /// A retention sweep expired partitions past their policy; `a` is the
    /// dataset id, `b` the number of partitions expired.
    Retention,
    /// The merged-union cache dropped a dataset's entries (roll-in,
    /// roll-out, or compaction changed the catalog under them); `a` is the
    /// dataset id, `b` the number of entries invalidated.
    UnionCacheInvalidate,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::SpanStart => 1,
            EventKind::SpanEnd => 2,
            EventKind::Ingest => 3,
            EventKind::PhaseTransition => 4,
            EventKind::Purge => 5,
            EventKind::Merge => 6,
            EventKind::StoreWrite => 7,
            EventKind::StoreRecovery => 8,
            EventKind::StoreQuarantine => 9,
            EventKind::CatalogRollIn => 10,
            EventKind::CatalogRollOut => 11,
            EventKind::AlertFiring => 12,
            EventKind::AlertResolved => 13,
            EventKind::Compaction => 14,
            EventKind::Retention => 15,
            EventKind::UnionCacheInvalidate => 16,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        Some(match code {
            1 => EventKind::SpanStart,
            2 => EventKind::SpanEnd,
            3 => EventKind::Ingest,
            4 => EventKind::PhaseTransition,
            5 => EventKind::Purge,
            6 => EventKind::Merge,
            7 => EventKind::StoreWrite,
            8 => EventKind::StoreRecovery,
            9 => EventKind::StoreQuarantine,
            10 => EventKind::CatalogRollIn,
            11 => EventKind::CatalogRollOut,
            12 => EventKind::AlertFiring,
            13 => EventKind::AlertResolved,
            14 => EventKind::Compaction,
            15 => EventKind::Retention,
            16 => EventKind::UnionCacheInvalidate,
            _ => return None,
        })
    }

    /// Stable lowercase name used in trace dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Ingest => "ingest",
            EventKind::PhaseTransition => "phase_transition",
            EventKind::Purge => "purge",
            EventKind::Merge => "merge",
            EventKind::StoreWrite => "store_write",
            EventKind::StoreRecovery => "store_recovery",
            EventKind::StoreQuarantine => "store_quarantine",
            EventKind::CatalogRollIn => "catalog_roll_in",
            EventKind::CatalogRollOut => "catalog_roll_out",
            EventKind::AlertFiring => "alert_firing",
            EventKind::AlertResolved => "alert_resolved",
            EventKind::Compaction => "compaction",
            EventKind::Retention => "retention",
            EventKind::UnionCacheInvalidate => "union_cache_invalidate",
        }
    }
}

/// One recorded event, copied out of the ring by [`Journal::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number (total order across all threads).
    pub seq: u64,
    /// Span the event belongs to (0 = none).
    pub span: u64,
    /// Parent span (0 = root / none).
    pub parent: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word, interpreted per [`EventKind`].
    pub a: u64,
    /// Second payload word, interpreted per [`EventKind`].
    pub b: u64,
}

impl Event {
    /// Single-line text rendering used by `/traces` and `swh trace`.
    pub fn render(&self) -> String {
        format!(
            "seq={} span={} parent={} kind={} a={} b={}",
            self.seq,
            self.span,
            self.parent,
            self.kind.name(),
            self.a,
            self.b
        )
    }
}

/// One ring slot: a seqlock commit word plus the event fields.
///
/// `commit == 0` means empty or mid-write; `commit == seq + 1` means the
/// fields hold the event with that sequence number.
#[derive(Debug)]
struct Slot {
    commit: AtomicU64,
    seq: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Self {
            commit: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            span: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Default capacity of the process-global journal.
pub const DEFAULT_CAPACITY: usize = 4096;

/// A fixed-capacity, lock-free ring buffer of [`Event`]s.
#[derive(Debug)]
pub struct Journal {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    enabled: AtomicBool,
}

impl Journal {
    /// A journal holding the most recent `capacity` events (rounded up to
    /// a power of two, minimum 8). Recording starts enabled.
    pub fn with_capacity(capacity: usize) -> Self {
        // Under the model checker a 2-slot ring keeps the interleaving
        // space explorable while still exercising slot overwrite.
        #[cfg(loom)]
        const MIN_CAPACITY: usize = 2;
        #[cfg(not(loom))]
        const MIN_CAPACITY: usize = 8;
        let cap = capacity.max(MIN_CAPACITY).next_power_of_two();
        Self {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events recorded since creation (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        // swh-analyze: allow(atomic-ordering) -- monotonic counter read on its own; no slot payload is inferred from it
        self.head.load(Ordering::Relaxed)
    }

    /// Events pushed out of the ring by newer ones — the journal's "drop"
    /// count, surfaced by `/healthz` so scrapers can tell when `/traces`
    /// is showing a truncated history.
    pub fn overwritten(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// Enable or disable recording. While disabled, [`Journal::record`]
    /// is a single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record an event; returns its sequence number (0 when disabled —
    /// sequence numbers of recorded events start at 1).
    // swh-analyze: hot
    pub fn record(&self, kind: EventKind, span: u64, parent: u64, a: u64, b: u64) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let seq = pos + 1;
        let slot = &self.slots[(pos & self.mask) as usize];
        // Seqlock write: invalidate, fill, publish. The release fence keeps
        // the field stores from being reordered before the invalidation, so
        // a reader pairing it with its acquire fence can never validate a
        // half-overwritten slot on weakly-ordered hardware.
        slot.commit.store(0, Ordering::Release);
        fence(Ordering::Release);
        slot.seq.store(seq, Ordering::Relaxed);
        slot.span.store(span, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.commit.store(seq, Ordering::Release);
        seq
    }

    /// Copy out every committed event, oldest first. Slots overwritten
    /// mid-copy are skipped rather than returned torn.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let c1 = slot.commit.load(Ordering::Acquire);
            if c1 == 0 {
                continue;
            }
            let ev = Event {
                seq: slot.seq.load(Ordering::Relaxed),
                span: slot.span.load(Ordering::Relaxed),
                parent: slot.parent.load(Ordering::Relaxed),
                kind: match EventKind::from_code(slot.kind.load(Ordering::Relaxed)) {
                    Some(k) => k,
                    None => continue,
                },
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            // Pairs with the release fence in `record`: the field loads
            // above must complete before the re-read of the commit word.
            fence(Ordering::Acquire);
            let c2 = slot.commit.load(Ordering::Acquire);
            if c1 == c2 && ev.seq == c1 {
                out.push(ev);
            }
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Render the journal as one event per line, oldest first.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for ev in self.snapshot() {
            out.push_str(&ev.render());
            out.push('\n');
        }
        out
    }
}

/// The process-wide journal used by samplers, merges, and stores.
pub fn journal() -> &'static Journal {
    static GLOBAL: OnceLock<Journal> = OnceLock::new();
    GLOBAL.get_or_init(|| Journal::with_capacity(DEFAULT_CAPACITY))
}

/// Record an event in the process-wide journal (convenience wrapper).
pub fn record(kind: EventKind, span: u64, parent: u64, a: u64, b: u64) -> u64 {
    journal().record(kind, span, parent, a, b)
}

/// Record a one-event root span in the process-wide journal: `span_start`
/// for `op`, one `kind` event with payloads `a`/`b`, and `span_end` — the
/// same records a [`Scope`](crate::profile::Scope) opened with
/// `.span(op)` writes around a single `.event(kind, a, b)`.
pub fn record_span_event(op: Op, kind: EventKind, a: u64, b: u64) {
    let span = OpenSpan::start(op);
    span.event(kind, a, b);
    span.end();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotonic_seq() {
        let j = Journal::with_capacity(16);
        for i in 0..5 {
            j.record(EventKind::Ingest, 1, 0, i, 0);
        }
        let evs = j.snapshot();
        assert_eq!(evs.len(), 5);
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(ev.seq, i as u64 + 1);
            assert_eq!(ev.a, i as u64);
            assert_eq!(ev.kind, EventKind::Ingest);
        }
    }

    #[test]
    fn ring_keeps_only_most_recent() {
        let j = Journal::with_capacity(8);
        for i in 0..20 {
            j.record(EventKind::Purge, 0, 0, i, 0);
        }
        let evs = j.snapshot();
        assert_eq!(evs.len(), 8);
        assert_eq!(evs.first().unwrap().seq, 13, "oldest surviving event");
        assert_eq!(evs.last().unwrap().seq, 20);
        assert_eq!(j.recorded(), 20);
        assert_eq!(j.overwritten(), 12);
        assert_eq!(Journal::with_capacity(8).overwritten(), 0);
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::with_capacity(8);
        j.set_enabled(false);
        assert_eq!(j.record(EventKind::Merge, 0, 0, 0, 0), 0);
        assert!(j.snapshot().is_empty());
        j.set_enabled(true);
        assert!(j.record(EventKind::Merge, 0, 0, 0, 0) > 0);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let j = Journal::with_capacity(64);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let j = &j;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        // Payloads are derived from seq by construction so a
                        // torn read is detectable below.
                        j.record(EventKind::Ingest, t, 0, i, t.wrapping_mul(i));
                    }
                });
            }
            // A racing reader: every event it sees must be internally
            // consistent (b == span * a).
            let j = &j;
            scope.spawn(move || {
                for _ in 0..100 {
                    for ev in j.snapshot() {
                        assert_eq!(ev.b, ev.span.wrapping_mul(ev.a), "torn event {ev:?}");
                    }
                }
            });
        });
        assert_eq!(j.recorded(), 40_000);
        let evs = j.snapshot();
        assert_eq!(evs.len(), 64);
        for ev in &evs {
            assert_eq!(ev.b, ev.span.wrapping_mul(ev.a));
        }
    }

    #[test]
    fn dump_renders_one_line_per_event() {
        let j = Journal::with_capacity(8);
        j.record(EventKind::PhaseTransition, 3, 1, (1 << 8) | 2, 512);
        let dump = j.dump();
        assert_eq!(
            dump,
            "seq=1 span=3 parent=1 kind=phase_transition a=258 b=512\n"
        );
    }

    #[test]
    fn global_journal_is_shared() {
        let before = journal().recorded();
        record(EventKind::StoreWrite, 0, 0, 0, 0);
        assert!(journal().recorded() > before);
    }
}
