//! # dccs — Diversified Coherent Core Search on multi-layer graphs
//!
//! This crate implements the paper's primary contribution: the
//! **d-coherent core** (d-CC) notion and three algorithms for the
//! **Diversified Coherent Core Search (DCCS)** problem — given a multi-layer
//! graph `G`, a degree threshold `d`, a support threshold `s`, and a budget
//! `k`, find `k` d-CCs over layer subsets of size `s` whose union covers as
//! many vertices as possible.
//!
//! | Entry point | Algorithm | Approximation ratio |
//! |---|---|---|
//! | [`Algorithm::Greedy`] | `GD-DCCS` — enumerate every candidate d-CC, greedy max-k-cover | 1 − 1/e |
//! | [`Algorithm::BottomUp`] | `BU-DCCS` — bottom-up search tree with interleaved top-k maintenance | 1/4 |
//! | [`Algorithm::TopDown`] | `TD-DCCS` — top-down search tree with potential-set refinement | 1/4 |
//! | [`Algorithm::Exact`] | brute-force enumeration, a test oracle for tiny graphs | 1 |
//!
//! # Querying: one entry point
//!
//! Every query runs through a [`QueryService`]: a shared, epoch-versioned
//! graph snapshot with its preprocessing memos, pooled per-query search
//! contexts, and one worker crew. Two front ends sit on it:
//!
//! * [`DccsSession`] — one caller sweeping parameters over one graph. It
//!   owns a service, runs each query at its own thread width, returns
//!   typed [`DccsError`]s instead of panicking, and picks the right
//!   algorithm per query with [`Algorithm::Auto`].
//! * [`QueryService`] itself — many concurrent callers (`&self`), a result
//!   cache, and mutation commits ([`QueryService::commit`]).
//!
//! ```
//! use mlgraph::MultiLayerGraphBuilder;
//! use dccs::{Algorithm, DccsParams, DccsSession, QuerySpec};
//!
//! // Two layers, each containing a triangle on {0,1,2}; vertex 3 is sparse.
//! let mut b = MultiLayerGraphBuilder::new(4, 2);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
//!     b.add_edge(0, u, v).unwrap();
//!     b.add_edge(1, u, v).unwrap();
//! }
//! let g = b.build();
//!
//! let mut session = DccsSession::new(&g);
//! let result = session
//!     .query(DccsParams::new(2, 2, 1))
//!     .algorithm(Algorithm::Auto) // or Greedy / BottomUp / TopDown / Exact
//!     .run()?;
//! assert_eq!(result.cover.to_vec(), vec![0, 1, 2]);
//!
//! // Sweeps batch through one worker crew; results come back in order.
//! let sweep: Vec<QuerySpec> =
//!     (1..=2).map(|s| QuerySpec::new(DccsParams::new(2, s, 1))).collect();
//! let results = session.run_batch(&sweep)?;
//! assert_eq!(results.len(), 2);
//! # Ok::<(), dccs::DccsError>(())
//! ```
//!
//! [`greedy_dccs`], [`bottom_up_dccs`], [`top_down_dccs`] and
//! [`exact_dccs`] are one-line one-shots over a fresh session that keep
//! their historical panic on invalid parameters, so the frozen oracle tests
//! read as the paper does.
//!
//! Supporting modules expose the building blocks: the [`coverage`] module
//! implements the paper's `Update` procedure, [`preprocess`] the vertex
//! deletion / layer sorting / `InitTopK` preprocessing, [`refine`] the
//! top-down search's `RefineU` procedure, [`exact`] a brute-force oracle for
//! tiny inputs, and [`metrics`] the evaluation measures used in the paper's
//! Section VI.

// `deny` rather than `forbid`: the executor's job-lifetime erasure is the
// one audited exception (see `engine::erase_job`); everything else stays
// safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod analysis;
pub mod bottom_up;
pub mod config;
pub mod coverage;
pub mod engine;
pub mod error;
pub mod exact;
pub mod fault;
pub mod greedy;
pub mod lattice;
pub mod layer_subsets;
pub mod limits;
pub mod metrics;
pub mod preprocess;
pub mod refine;
pub mod result;
pub mod serve;
pub mod service;
pub mod session;
pub mod top_down;

pub use algorithm::Algorithm;
pub use analysis::{analyze_cores, analyze_result, jaccard, OverlapReport};
pub use bottom_up::bottom_up_dccs;
pub use config::{DccsOptions, DccsParams};
pub use coverage::{PruneBounds, TopKDiversified};
pub use engine::{
    auto_threads, plan_index, plan_index_with, IndexChoice, IndexPath, IndexPlan, PeelIndex,
    SharedSearchState,
};
pub use error::DccsError;
pub use exact::exact_dccs;
pub use greedy::greedy_dccs;
pub use lattice::{for_each_subset_core, naive_subset_cores, LatticeStats};
pub use limits::{CancelToken, LimitKind, QueryLimits};
pub use metrics::{complexes_found, containment_distribution, CoverSimilarity};
pub use result::{CoherentCore, DccsResult, PhaseTimes, SearchStats};
pub use serve::{DccIndex, Serve, ServePath};
pub use service::{
    CacheStats, CommitReceipt, GraphSnapshot, QueryService, ServiceOutcome, ServiceQuery,
};
pub use session::{DccsSession, Query, QuerySpec};
pub use top_down::top_down_dccs;
