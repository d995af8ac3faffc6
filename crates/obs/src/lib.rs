#![warn(missing_docs)]

//! # swh-obs — observability for the sample warehouse
//!
//! The paper's premise is that sample maintenance must stay *cheap* relative
//! to full-warehouse ETL (§1, §5 of Brown & Haas, ICDE 2006). Verifying that
//! requires a measurement substrate: where does ingest time go, how often do
//! the hybrid samplers purge, when do they cross phase boundaries, and what
//! does a merge cost? This crate is that substrate — with **zero external
//! dependencies**, so it can sit below every other workspace crate.
//!
//! Building blocks:
//!
//! * [`Counter`] — monotone atomic counter.
//! * [`Gauge`] — signed atomic gauge with `record_max` for high-water marks.
//! * [`Histogram`] — log-bucketed (power-of-two) value histogram with
//!   `p50/p90/p99/max` estimation; the unit is whatever the caller records
//!   (latencies are recorded in nanoseconds by convention, suffix `_ns`).
//! * [`Registry`] — a named-metric registry. [`global()`] returns the
//!   process-wide instance; tests construct private registries for
//!   interference-free assertions.
//! * [`profile::Scope`] — the one timed-region type: a single clock read
//!   feeds the region's profile node, an optional [`Histogram`], and an
//!   optional journal span. [`Stopwatch`] is the clock underneath, used
//!   directly only where a raw duration is wanted rather than a region.
//! * [`Snapshot`] — a point-in-time copy of a registry, rendered with
//!   [`Snapshot::to_prometheus`] (text exposition) or [`Snapshot::to_json`].
//! * [`progress!`] — verbosity-gated progress output to stderr, replacing
//!   ad-hoc `eprintln!` in binaries so quiet runs are actually quiet.
//! * [`trace`] / [`journal`] — span IDs, operation codes, and a
//!   fixed-capacity lock-free event journal: who ingested, purged, merged,
//!   and wrote what, in a deterministic total order (sequence numbers, no
//!   wall clock).
//! * [`profile`] — a lock-free hierarchical wall-clock profile tree keyed
//!   by scope path: call counts, total/self nanoseconds, and latency
//!   histograms per node, merged across threads at snapshot time.
//! * [`json`] — a minimal parser for the JSON the workspace itself emits
//!   (bench results, baselines, the persisted cost model).
//! * [`serve::Server`] — a zero-dependency HTTP endpoint exposing
//!   `/metrics`, `/metrics.json`, `/traces`, `/profile`, `/healthz`,
//!   `/alerts`, `/health/deep`, and `/lineage/...` live.
//! * [`health`] — a declarative alert-rule engine (threshold,
//!   rate-of-change, and burn-rate rules over a ring of registry
//!   snapshots) with a firing→resolved state machine, journal events on
//!   every transition, and an incident flight-recorder that dumps
//!   journal/profile/gauge bundles to `incidents/<seq>/` when a rule
//!   fires.
//!
//! ```
//! use swh_obs::{profile, Registry};
//!
//! let registry = Registry::new();
//! let ingested = registry.counter("ingested_total", "elements ingested");
//! let latency = registry.histogram("batch_ns", "per-batch latency (ns)");
//! {
//!     let _scope = profile::scope_rooted("doc/batch").histogram(&latency);
//!     for _ in 0..1000 {
//!         ingested.inc();
//!     }
//! }
//! assert_eq!(latency.count(), 1);
//! let snap = registry.snapshot();
//! assert!(snap.to_prometheus().contains("ingested_total 1000"));
//! assert!(snap.to_json().contains("\"ingested_total\""));
//! ```

pub mod health;
pub mod journal;
pub mod json;
mod metrics;
pub mod profile;
mod progress;
mod registry;
pub mod serve;
mod timer;
pub mod trace;

pub use health::{AlertRule, Compare, FlightRecorder, HealthEngine, RuleKind, Severity};
pub use journal::{Event, EventKind, Journal};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use progress::{set_verbosity, verbosity, write_progress};
pub use registry::{global, MetricValue, Registry, Snapshot};
pub use timer::Stopwatch;
pub use trace::{next_span_id, Op, SpanId};
