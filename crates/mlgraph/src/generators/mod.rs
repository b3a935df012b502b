//! Seeded synthetic multi-layer graph generators.
//!
//! The experiments in the paper run on real datasets we cannot redistribute,
//! so the `datasets` crate composes these generators into synthetic
//! analogues. All generators are deterministic given their seed.
//!
//! * [`planted_communities`] — background noise plus planted dense modules
//!   recurring on chosen subsets of layers (the structure d-CCs detect).
//! * [`chung_lu_layers`] — power-law expected-degree layers sharing a common
//!   hub structure across layers.
//! * [`temporal_snapshots`] — layer `t+1` rewires a fraction of layer `t`,
//!   modelling the time-window snapshot graphs (German/Wiki/English/Stack).

mod chung_lu;
mod planted;
mod temporal;

pub use chung_lu::{chung_lu_layers, ChungLuConfig};
pub use planted::{planted_communities, PlantedCommunity, PlantedConfig, PlantedOutput};
pub use temporal::{temporal_batches, temporal_snapshots, TemporalConfig};

use crate::Vertex;
use rand::Rng;

/// Samples `m` distinct undirected edges uniformly at random over `n`
/// vertices (rejection sampling; intended for sparse graphs where
/// `m ≪ n²/2`). Used internally by several generators.
pub(crate) fn sample_edges<R: Rng>(rng: &mut R, n: usize, m: usize) -> Vec<(Vertex, Vertex)> {
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_edges);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    if n < 2 {
        return edges;
    }
    while edges.len() < m {
        let u = rng.gen_range(0..n as Vertex);
        let v = rng.gen_range(0..n as Vertex);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            edges.push(key);
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_edges_distinct_and_bounded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let edges = sample_edges(&mut rng, 10, 20);
        assert_eq!(edges.len(), 20);
        let mut set = std::collections::HashSet::new();
        for &(u, v) in &edges {
            assert!(u < v);
            assert!((v as usize) < 10);
            assert!(set.insert((u, v)));
        }
    }

    #[test]
    fn sample_edges_caps_at_complete_graph() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let edges = sample_edges(&mut rng, 4, 100);
        assert_eq!(edges.len(), 6);
    }

    #[test]
    fn sample_edges_tiny_universe() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        assert!(sample_edges(&mut rng, 1, 5).is_empty());
        assert!(sample_edges(&mut rng, 0, 5).is_empty());
    }
}
