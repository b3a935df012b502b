//! # mlgraph — multi-layer graph substrate
//!
//! This crate provides the data structures and utilities the DCCS algorithms
//! are built on:
//!
//! * [`VertexSet`] — a word-packed bitset over the vertex universe with a
//!   cached cardinality; the workhorse set representation used by every
//!   peeling and coverage routine.
//! * [`Csr`] — a compressed sparse row representation of one undirected
//!   layer (sorted, deduplicated adjacency lists).
//! * [`DenseSubgraph`] — a re-indexed subgraph with per-layer adjacency
//!   bitsets, for word-level peeling over small candidate universes.
//! * [`kernels`] — the runtime-dispatched bit-kernel layer (scalar /
//!   4×-unrolled / AVX2) every word-level loop above routes through,
//!   selected once per process and forceable via `DCCS_FORCE_KERNEL`.
//! * [`MultiLayerGraph`] / [`MultiLayerGraphBuilder`] — a set of CSR layers
//!   sharing one vertex universe, with optional vertex and layer labels.
//! * [`EdgeBatch`] — validated per-layer insert/delete batches applied
//!   atomically via [`MultiLayerGraph::apply_batch`], producing the next
//!   graph version plus the effective [`AppliedBatch`] delta.
//! * [`io`] — text edge-list and binary snapshot readers/writers.
//! * [`generators`] — seeded synthetic multi-layer graph generators
//!   (planted communities, power-law, temporal snapshots).
//! * [`sample`] — vertex-fraction / layer-fraction down-sampling used by the
//!   scalability experiments.
//! * [`algo`] — density measures over vertex subsets, used by the analysis
//!   tooling and the quasi-clique baseline comparison.
//!
//! Vertices are dense `u32` indices in `0..n`. All APIs treat layers as
//! `usize` indices in `0..l`.
//!
//! ```
//! use mlgraph::{MultiLayerGraphBuilder, VertexSet};
//!
//! let mut b = MultiLayerGraphBuilder::new(4, 2);
//! b.add_edge(0, 0, 1).unwrap();
//! b.add_edge(0, 1, 2).unwrap();
//! b.add_edge(1, 0, 1).unwrap();
//! let g = b.build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_layers(), 2);
//! assert_eq!(g.layer(0).degree(1), 2);
//!
//! let mut s = VertexSet::new(4);
//! s.insert(0);
//! s.insert(1);
//! assert_eq!(g.layer(0).degree_within(1, &s), 1);
//! ```

// `deny` rather than `forbid`: the AVX2 bit kernel is the one audited
// exception (see `kernels`); everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod batch;
pub mod bitset;
pub mod builder;
pub mod csr;
pub mod dense;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod kernels;
pub mod sample;
pub mod stats;

pub use batch::{AppliedBatch, EdgeBatch, LayerDelta};
pub use bitset::VertexSet;
pub use builder::MultiLayerGraphBuilder;
pub use csr::Csr;
pub use dense::DenseSubgraph;
pub use error::{GraphError, Result};
pub use graph::MultiLayerGraph;
pub use kernels::{BitKernel, KernelKind};
pub use stats::{GraphStats, LayerStats};

/// A vertex identifier: a dense index in `0..n`.
pub type Vertex = u32;

/// A layer identifier: a dense index in `0..l`.
pub type Layer = usize;
