//! Density measures over vertex subsets, used by the analysis tooling and
//! the quasi-clique baseline comparison.

mod density;

pub use density::{average_degree_within, edge_density_within, min_degree_within};
