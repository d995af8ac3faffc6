//! Counters the program already publishes in its global metrics registry.
//! The benchmark reads them around its calls; it adds none of its own.

use swh_obs::{Counter, Histogram};

/// Handles to the registry entries the report reads.
#[derive(Debug, Clone)]
pub struct Counters {
    fsync_total: Counter,
    fsync_ns: Histogram,
    union_parallel: Counter,
    union_serial: Counter,
    cache_evictions: Counter,
    compactions: Counter,
    retired: Counter,
    roll_ins: Counter,
    roll_outs: Counter,
}

/// A reading of [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reading {
    /// `swh_store_fsync_total`.
    pub fsyncs: u64,
    /// Sum of `swh_store_fsync_ns`.
    pub fsync_ns: u64,
    /// `swh_catalog_union_parallel_total`.
    pub union_parallel: u64,
    /// `swh_catalog_union_serial_total`.
    pub union_serial: u64,
    /// `swh_union_cache_evictions_total`.
    pub cache_evictions: u64,
    /// `swh_lifecycle_compactions_total`.
    pub compactions: u64,
    /// `swh_lifecycle_retired_inputs_total`.
    pub retired: u64,
    /// `swh_catalog_roll_ins_total`.
    pub roll_ins: u64,
    /// `swh_catalog_roll_outs_total`.
    pub roll_outs: u64,
}

impl Reading {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Reading) -> Reading {
        Reading {
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_ns: self.fsync_ns - earlier.fsync_ns,
            union_parallel: self.union_parallel - earlier.union_parallel,
            union_serial: self.union_serial - earlier.union_serial,
            cache_evictions: self.cache_evictions - earlier.cache_evictions,
            compactions: self.compactions - earlier.compactions,
            retired: self.retired - earlier.retired,
            roll_ins: self.roll_ins - earlier.roll_ins,
            roll_outs: self.roll_outs - earlier.roll_outs,
        }
    }
}

impl Counters {
    /// Resolve the handles in the global registry (creating entries the
    /// program has not touched yet, which it then shares).
    pub fn global() -> Self {
        let g = swh_obs::global();
        Self {
            fsync_total: g.counter(
                "swh_store_fsync_total",
                "Store fsync calls (file and directory)",
            ),
            fsync_ns: g.histogram(
                "swh_store_fsync_ns",
                "Wall-clock nanoseconds per store fsync (file and directory)",
            ),
            union_parallel: g.counter(
                "swh_catalog_union_parallel_total",
                "Union-sample queries the cost model routed to the parallel executor",
            ),
            union_serial: g.counter(
                "swh_catalog_union_serial_total",
                "Union-sample queries the cost model routed to the serial plan",
            ),
            cache_evictions: g.counter(
                "swh_union_cache_evictions_total",
                "Merged-union cache entries evicted to stay under the byte budget",
            ),
            compactions: g.counter(
                "swh_lifecycle_compactions_total",
                "Compacted roll-up partitions built (warm and cold)",
            ),
            retired: g.counter(
                "swh_lifecycle_retired_inputs_total",
                "Input partitions retired into compacted roll-ups",
            ),
            roll_ins: g.counter(
                "swh_catalog_roll_ins_total",
                "Partition samples rolled into the catalog",
            ),
            roll_outs: g.counter(
                "swh_catalog_roll_outs_total",
                "Partition samples rolled out of the catalog",
            ),
        }
    }

    /// Read every counter.
    pub fn read(&self) -> Reading {
        Reading {
            fsyncs: self.fsync_total.get(),
            fsync_ns: self.fsync_ns.sum(),
            union_parallel: self.union_parallel.get(),
            union_serial: self.union_serial.get(),
            cache_evictions: self.cache_evictions.get(),
            compactions: self.compactions.get(),
            retired: self.retired.get(),
            roll_ins: self.roll_ins.get(),
            roll_outs: self.roll_outs.get(),
        }
    }

    /// Catalog mutations so far (roll-ins plus roll-outs); a change across
    /// a union call that the benchmark did not make is the compactor's.
    pub fn mutations(&self) -> u64 {
        self.roll_ins.get() + self.roll_outs.get()
    }
}
