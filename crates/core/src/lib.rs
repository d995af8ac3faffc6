#![warn(missing_docs)]

//! Core sampling algorithms of *Techniques for Warehousing of Sample Data*
//! (Brown & Haas, ICDE 2006).
//!
//! The crate provides the paper's two new bounded-footprint **uniform**
//! sampling schemes and their merge operators, alongside the classical
//! schemes they are built from and compared against:
//!
//! | Scheme | Type | Uniform? | Bounded footprint? | Compact storage? |
//! |---|---|---|---|---|
//! | [`BernoulliSampler`] | `Bern(q)` | yes | **no** | yes |
//! | [`ReservoirSampler`] | simple random sample | yes | yes | no (bag) |
//! | [`ConciseSampler`] | Gibbons–Matias concise | **no** (§3.3) | yes | yes |
//! | [`HybridBernoulli`] (HB) | exhaustive → `Bern(q)` → reservoir | yes | yes | yes |
//! | [`HybridReservoir`] (HR) | exhaustive → reservoir | yes | yes | yes |
//! | [`StratifiedBernoulli`] (SB) | fixed-rate baseline | yes | no | no |
//!
//! Samples produced by HB and HR are [`Sample`] values carrying the
//! provenance (`Exhaustive`, `Bernoulli{q}`, or `Reservoir`) needed to merge
//! them: [`merge::hb_merge`] implements Fig. 6, [`merge::hr_merge`]
//! implements Fig. 8 (hypergeometric split, Theorem 1), [`merge::merge`]
//! dispatches on provenance exactly as the paper prescribes, and
//! [`merge::merge_union`] merges any number of samples through one planned
//! merge DAG.

pub mod audit;
pub mod bernoulli;
pub mod concise;
pub mod costmodel;
pub mod executor;
pub mod footprint;
pub mod fxhash;
pub mod histogram;
pub mod hybrid_bernoulli;
pub mod hybrid_reservoir;
pub(crate) mod invariant;
pub mod lineage;
pub mod merge;
pub mod planner;
pub mod purge;
pub mod qbound;
pub mod reservoir;
pub mod sample;
pub mod sampler;
pub mod sb;
pub mod stats;
pub mod stratified;
pub mod value;

pub use bernoulli::BernoulliSampler;
pub use concise::ConciseSampler;
pub use costmodel::{CostEntry, CostModel};
pub use footprint::FootprintPolicy;
pub use histogram::CompactHistogram;
pub use hybrid_bernoulli::HybridBernoulli;
pub use hybrid_reservoir::HybridReservoir;
pub use lineage::{LineageEvent, PurgeKind};
pub use merge::{
    hb_merge, hr_merge, hr_merge_multiway, merge, merge_all, merge_tree_parallel, merge_union,
    MergeError,
};
pub use planner::{plan_union, MergePlan, NodeShape, PlanNode, PlanOp, ShapeKind};
pub use qbound::{q_approx, q_exact};
pub use reservoir::ReservoirSampler;
pub use sample::{Sample, SampleKind};
pub use sampler::Sampler;
pub use sb::StratifiedBernoulli;
pub use stats::SamplerStats;
pub use stratified::StratifiedSample;
pub use value::SampleValue;
