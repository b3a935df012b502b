//! # coreness — core decomposition substrate
//!
//! Single-layer k-core machinery and the multi-layer `dCC` procedure of the
//! paper's Appendix B, shared by all three DCCS algorithms.
//!
//! * [`core_numbers`] — Batagelj–Zaversnik O(m) bin-sort core decomposition
//!   of one layer.
//! * [`d_core`] / [`d_core_within`] — the d-core of a layer, optionally
//!   restricted to a candidate vertex set. A DCCS query and an index build
//!   both take their layer cores from one threshold peel per layer and `d`,
//!   memoized by the query engine; no core-number table is kept.
//! * [`repair_d_core`] and [`PeelWorkspace::repair_d_core_delta`] —
//!   incremental d-core maintenance after an edge delta, checking only the
//!   region the delta can affect, with the full peels above kept as the
//!   frozen oracle.
//! * [`PeelWorkspace::shrink_d_core`] — a layer's d-core after removing
//!   vertices, cascading from them over caller-kept degree counters; the
//!   vertex-deletion fixpoint chains one per round.
//! * [`d_coherent_core`] — the `dCC` procedure: the d-coherent core
//!   `C_L^d(G)` of a multi-layer graph w.r.t. a layer subset `L`, computed by
//!   multi-layer peeling restricted to a candidate set (O((n + m)·|L|)).
//! * [`validate`] — d-denseness and maximality checkers used as test oracles.
//! * [`PeelWorkspace`] — reusable scratch buffers making steady-state
//!   peeling allocation-free; the free functions above borrow a thread-local
//!   instance, and the DCCS algorithms own explicit ones.
//!
//! ```
//! use mlgraph::MultiLayerGraphBuilder;
//! use coreness::{d_core, d_coherent_core};
//!
//! let mut b = MultiLayerGraphBuilder::new(4, 2);
//! // layer 0: 4-clique; layer 1: triangle {0,1,2}
//! for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
//!     b.add_edge(0, u, v).unwrap();
//! }
//! for (u, v) in [(0, 1), (1, 2), (0, 2)] {
//!     b.add_edge(1, u, v).unwrap();
//! }
//! let g = b.build();
//! assert_eq!(d_core(g.layer(0), 3).to_vec(), vec![0, 1, 2, 3]);
//! let all = g.full_vertex_set();
//! assert_eq!(d_coherent_core(&g, &[0, 1], 2, &all).to_vec(), vec![0, 1, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dcc;
pub mod peel;
pub mod validate;
pub mod workspace;

pub use dcc::{
    d_coherent_core, d_coherent_core_full, d_coherent_core_in, d_coherent_core_naive,
    min_degree_profile,
};
pub use peel::{
    core_numbers, core_numbers_within, core_numbers_within_into, d_core, d_core_within,
    d_core_within_into, degeneracy, repair_d_core,
};
pub use validate::{is_d_dense, is_d_dense_multilayer, is_maximal_d_coherent_core};
pub use workspace::{CancelProbe, PeelWorkspace};
