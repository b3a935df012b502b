//! # datasets — synthetic analogues of the paper's experiment datasets
//!
//! The paper evaluates on six real multi-layer graphs (Fig. 12): PPI,
//! Author, German, Wiki, English and Stack. Those datasets cannot be bundled
//! here, so this crate generates *seeded synthetic analogues* that preserve
//! the characteristics the DCCS algorithms are sensitive to:
//!
//! * the number of layers and the relative edge density per layer,
//! * inter-layer correlation (temporal snapshots share structure,
//!   biological layers share modules),
//! * planted dense modules recurring on subsets of layers (the structures
//!   d-CCs and quasi-cliques both look for), and
//! * for the PPI analogue, a planted ground-truth set of protein complexes
//!   used by the Fig. 32 experiment.
//!
//! The vertex counts of the four large datasets are scaled down so that the
//! full experiment suite runs on a laptop; `bench_dcc`'s `paper_figures`
//! group records each analogue's statistics beside the paper's (Fig. 12).
//! All generators are deterministic given the seed recorded in the dataset
//! spec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ground_truth;
pub mod registry;
pub mod spec;
pub mod synthetic;

pub use ground_truth::GroundTruth;
pub use registry::{all_datasets, generate, Dataset, DatasetId, Scale};
pub use spec::{DatasetSpec, PaperStats};
