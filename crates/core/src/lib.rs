//! # sdlo-core
//!
//! The paper's primary contribution: **compile-time cache-miss
//! characterization for imperfectly nested loops** via iteration-space
//! partitioning and symbolic stack distances (Sahoo et al., IPPS 2005,
//! §4–5).
//!
//! Pipeline:
//!
//! 1. [`partition::all_components`] splits the iteration space of every
//!    array reference into components whose instances share the same
//!    incoming dependence (Fig. 3),
//! 2. each component receives a symbolic [`StackDistance`] — the number of
//!    distinct elements accessed within its reuse span (Figs. 4–5),
//! 3. [`MissModel`] evaluates the components against concrete bounds/tile
//!    sizes and a cache capacity: every instance whose stack distance
//!    reaches the capacity is a predicted miss.
//!
//! The crate also ships the §3 baseline models ([`baselines`]) the paper
//! compares against conceptually, and a brute-force [`oracle`] used by the
//! test suite to pin the symbolic engine to ground truth on small sizes.

/// Revision of the model *semantics*: what the components of a
/// [`MissModel`] mean and how they are derived. Bump whenever partitioning
/// or stack-distance computation changes in a way that makes previously
/// built models stale — persisted model-cache entries are stamped with this
/// and silently rebuilt on mismatch.
pub const MODEL_REVISION: u32 = 1;

pub mod atree;
pub mod baselines;
pub mod dag;
pub mod extent;
pub mod model;
pub mod oracle;
pub mod partition;
pub mod tape;

pub use atree::{ANode, ATree};
pub use dag::{DagDelta, ModelDag, ReviseOutcome};
pub use extent::{seq_costs, subtree_costs, CostMap};
pub use model::{ComponentPrediction, MissModel, ModelError};
pub use partition::{all_components, Component, ComponentKind, StackDistance};
/// The tracing crate the model's spans go to, re-exported so a crate built
/// on the model (the linter) can record its own phases into the same
/// collector through this one dependency.
pub use sdlo_trace as trace;
pub use tape::{Tape, TapeEval};
