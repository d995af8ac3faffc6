//! Span identity: IDs and operation codes.
//!
//! A span names one logical operation (ingesting a partition, merging a
//! dataset, writing a store file) so the flat event stream in the
//! [`journal`](crate::journal) can be grouped back into trees. Spans carry
//! no timestamps — their extent is measured in journal sequence numbers,
//! which is deterministic under the sampling crates' determinism lint.
//! A timed region opens one with [`Scope::span`](crate::profile::Scope::span);
//! a single-event span is [`record_span_event`](crate::journal::record_span_event).
//!
//! ```
//! use swh_obs::{journal, profile, EventKind, Op};
//!
//! let write = profile::scope_rooted("example/write").span(Op::StoreWrite);
//! write.event(EventKind::StoreWrite, 4096, 0);
//! drop(write); // records span_end
//! journal::record_span_event(Op::Recovery, EventKind::StoreRecovery, 2, 0);
//! ```

use crate::journal::{journal, EventKind};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a span. `SpanId::NONE` (zero) means "no span".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (parent of roots, span of free-standing events).
    pub const NONE: SpanId = SpanId(0);

    /// Raw numeric value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Allocate a fresh process-unique span ID (monotonic, starts at 1).
pub fn next_span_id() -> SpanId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    SpanId(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// The operation a span covers, recorded as the `a` payload of its
/// `span_start` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Op {
    /// Sampling one partition's stream.
    Ingest,
    /// Merging two or more partition samples.
    Merge,
    /// Writing a partition file to a store.
    StoreWrite,
    /// Loading a dataset from a store.
    Load,
    /// Store verification (`fsck`).
    Fsck,
    /// Serving the exposition endpoint.
    Serve,
    /// Startup recovery (orphan-tmp sweep).
    Recovery,
}

impl Op {
    /// Numeric code stored in the journal.
    pub fn code(self) -> u64 {
        match self {
            Op::Ingest => 1,
            Op::Merge => 2,
            Op::StoreWrite => 3,
            Op::Load => 4,
            Op::Fsck => 5,
            Op::Serve => 6,
            Op::Recovery => 7,
        }
    }

    /// Stable lowercase name for trace dumps.
    pub fn name(self) -> &'static str {
        match self {
            Op::Ingest => "ingest",
            Op::Merge => "merge",
            Op::StoreWrite => "store_write",
            Op::Load => "load",
            Op::Fsck => "fsck",
            Op::Serve => "serve",
            Op::Recovery => "recovery",
        }
    }
}

/// An open root span in the process-wide journal: `span_start` is
/// recorded at [`OpenSpan::start`], `span_end` at [`OpenSpan::end`] with
/// an `a` payload of the number of journal events recorded while it was
/// open. The one writer of span records, behind
/// [`Scope::span`](crate::profile::Scope::span) and
/// [`record_span_event`](crate::journal::record_span_event).
#[derive(Debug)]
pub(crate) struct OpenSpan {
    pub(crate) id: SpanId,
    started_at: u64,
}

impl OpenSpan {
    pub(crate) fn start(op: Op) -> Self {
        let id = next_span_id();
        let started_at = journal().record(EventKind::SpanStart, id.0, SpanId::NONE.0, op.code(), 0);
        Self { id, started_at }
    }

    pub(crate) fn event(&self, kind: EventKind, a: u64, b: u64) {
        journal().record(kind, self.id.0, SpanId::NONE.0, a, b);
    }

    pub(crate) fn end(self) {
        let j = journal();
        let extent = j.recorded().saturating_sub(self.started_at);
        j.record(EventKind::SpanEnd, self.id.0, SpanId::NONE.0, extent, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_unique_and_monotonic() {
        let a = next_span_id();
        let b = next_span_id();
        assert!(b.0 > a.0);
        assert_ne!(a, SpanId::NONE);
    }

    #[test]
    fn open_span_records_start_event_end_as_a_root() {
        let span = OpenSpan::start(Op::Merge);
        let id = span.id;
        span.event(EventKind::Merge, 2, 7);
        span.end();
        let mine: Vec<_> = journal()
            .snapshot()
            .into_iter()
            .filter(|e| e.span == id.0)
            .collect();
        let kinds: Vec<_> = mine.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [EventKind::SpanStart, EventKind::Merge, EventKind::SpanEnd]
        );
        assert!(mine.iter().all(|e| e.parent == SpanId::NONE.0));
        assert_eq!(mine[0].a, Op::Merge.code());
        assert_eq!((mine[1].a, mine[1].b), (2, 7));
        assert!(mine[2].a >= 1, "extent counts the inner event");
    }
}
