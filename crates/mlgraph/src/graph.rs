//! [`MultiLayerGraph`]: an immutable set of CSR layers over one vertex set.

use crate::bitset::VertexSet;
use crate::csr::Csr;
use crate::error::{GraphError, Result};
use crate::{Layer, Vertex};
use serde::{Deserialize, Serialize};

/// A multi-layer graph `G = (V, E_1, …, E_l)`.
///
/// Every layer shares the same vertex universe `0..n`; vertices missing from
/// a layer simply have degree zero there, matching the paper's convention of
/// padding layers with isolated vertices.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiLayerGraph {
    layers: Vec<Csr>,
    vertex_labels: Option<Vec<String>>,
    layer_names: Vec<String>,
}

impl MultiLayerGraph {
    /// Assembles a graph from already-built layers. All layers must agree on
    /// the vertex count; this is an internal constructor used by the builder
    /// and the loaders.
    pub(crate) fn from_parts(
        layers: Vec<Csr>,
        vertex_labels: Option<Vec<String>>,
        layer_names: Vec<String>,
    ) -> Self {
        assert!(!layers.is_empty(), "a multi-layer graph needs at least one layer");
        let n = layers[0].num_vertices();
        assert!(
            layers.iter().all(|l| l.num_vertices() == n),
            "all layers must share the same vertex universe"
        );
        if let Some(labels) = &vertex_labels {
            assert_eq!(labels.len(), n, "one label per vertex required");
        }
        assert_eq!(layer_names.len(), layers.len(), "one name per layer required");
        MultiLayerGraph { layers, vertex_labels, layer_names }
    }

    /// The graph's layers, moved out — for loaders that re-attach metadata
    /// through [`MultiLayerGraph::from_parts`] without copying the CSRs.
    pub(crate) fn into_layers(self) -> Vec<Csr> {
        self.layers
    }

    /// Assembles a graph from already-built CSR layers sharing one vertex
    /// universe, with default layer names. This is the streaming-build
    /// entry point: callers can construct each layer's [`Csr`] in turn and
    /// drop the intermediate edge list before generating the next layer,
    /// capping peak memory at one layer's working set.
    pub fn from_layers(layers: Vec<Csr>) -> Result<Self> {
        if layers.is_empty() {
            return Err(GraphError::InvalidArgument("at least one layer is required".into()));
        }
        let n = layers[0].num_vertices();
        if let Some(bad) = layers.iter().find(|l| l.num_vertices() != n) {
            return Err(GraphError::InvalidArgument(format!(
                "all layers must share the same vertex universe (got {} and {})",
                n,
                bad.num_vertices()
            )));
        }
        let names = (0..layers.len()).map(|i| format!("layer{i}")).collect();
        Ok(MultiLayerGraph::from_parts(layers, None, names))
    }

    /// Builds a graph directly from per-layer edge lists over `n` vertices.
    pub fn from_edge_lists(n: usize, per_layer: &[Vec<(Vertex, Vertex)>]) -> Result<Self> {
        if per_layer.is_empty() {
            return Err(GraphError::InvalidArgument("at least one layer is required".into()));
        }
        for edges in per_layer {
            for &(u, v) in edges {
                if u as usize >= n || v as usize >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: u.max(v) as u64,
                        num_vertices: n,
                    });
                }
            }
        }
        let layers: Vec<Csr> = per_layer.iter().map(|e| Csr::from_edges(n, e)).collect();
        let names = (0..layers.len()).map(|i| format!("layer{i}")).collect();
        Ok(MultiLayerGraph::from_parts(layers, None, names))
    }

    /// Number of vertices in the shared universe (`|V(G)|`).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.layers[0].num_vertices()
    }

    /// Number of layers (`l(G)`).
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The CSR for layer `i`. Panics if `i` is out of range.
    #[inline]
    pub fn layer(&self, i: Layer) -> &Csr {
        &self.layers[i]
    }

    /// All layers, in order.
    #[inline]
    pub fn layers(&self) -> &[Csr] {
        &self.layers
    }

    /// Total number of edges summed over layers (`Σ_i |E_i|`).
    pub fn total_edges(&self) -> usize {
        self.layers.iter().map(|l| l.num_edges()).sum()
    }

    /// Number of distinct edges in the union graph (`|∪_i E_i|`).
    pub fn union_edge_count(&self) -> usize {
        self.union_graph().num_edges()
    }

    /// Builds the union graph: one layer containing every edge that exists on
    /// any layer.
    pub fn union_graph(&self) -> Csr {
        let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
        for layer in &self.layers {
            edges.extend(layer.edges());
        }
        Csr::from_edges(self.num_vertices(), &edges)
    }

    /// The label of vertex `v`, if the graph carries labels.
    pub fn vertex_label(&self, v: Vertex) -> Option<&str> {
        self.vertex_labels.as_ref().and_then(|l| l.get(v as usize)).map(|s| s.as_str())
    }

    /// All vertex labels, if present.
    pub fn vertex_labels(&self) -> Option<&[String]> {
        self.vertex_labels.as_deref()
    }

    /// The human-readable name of layer `i`.
    pub fn layer_name(&self, i: Layer) -> &str {
        &self.layer_names[i]
    }

    /// All layer names, in order.
    pub fn layer_names(&self) -> &[String] {
        &self.layer_names
    }

    /// Degree of `v` on layer `i`.
    #[inline]
    pub fn degree(&self, i: Layer, v: Vertex) -> usize {
        self.layers[i].degree(v)
    }

    /// Minimum degree of `v` over the given layers (`min_{i∈L} d_{G_i}(v)`).
    pub fn min_degree_over(&self, v: Vertex, layer_set: &[Layer]) -> usize {
        layer_set.iter().map(|&i| self.layers[i].degree(v)).min().unwrap_or(0)
    }

    /// Builds the multi-layer subgraph induced by `within`, re-indexed to
    /// `0..within.len()`. Returns the subgraph and the new-to-old vertex map.
    pub fn induced_subgraph(&self, within: &VertexSet) -> (MultiLayerGraph, Vec<Vertex>) {
        let mapping: Vec<Vertex> = within.to_vec();
        let mut inverse = vec![u32::MAX; self.num_vertices()];
        for (new, &old) in mapping.iter().enumerate() {
            inverse[old as usize] = new as u32;
        }
        let layers: Vec<Csr> = self
            .layers
            .iter()
            .map(|layer| {
                let mut edges = Vec::new();
                for &old_u in &mapping {
                    for &old_v in layer.neighbors(old_u) {
                        if old_v > old_u && within.contains(old_v) {
                            edges.push((inverse[old_u as usize], inverse[old_v as usize]));
                        }
                    }
                }
                Csr::from_edges(mapping.len(), &edges)
            })
            .collect();
        let labels = self
            .vertex_labels
            .as_ref()
            .map(|all| mapping.iter().map(|&old| all[old as usize].clone()).collect::<Vec<_>>());
        let sub = MultiLayerGraph::from_parts(layers, labels, self.layer_names.clone());
        (sub, mapping)
    }

    /// Restricts the graph to a subset of layers (by index), preserving the
    /// vertex universe. Layer order follows `layer_set`.
    pub fn select_layers(&self, layer_set: &[Layer]) -> Result<MultiLayerGraph> {
        if layer_set.is_empty() {
            return Err(GraphError::InvalidArgument("layer selection must be non-empty".into()));
        }
        let mut layers = Vec::with_capacity(layer_set.len());
        let mut names = Vec::with_capacity(layer_set.len());
        for &i in layer_set {
            if i >= self.num_layers() {
                return Err(GraphError::LayerOutOfRange {
                    layer: i,
                    num_layers: self.num_layers(),
                });
            }
            layers.push(self.layers[i].clone());
            names.push(self.layer_names[i].clone());
        }
        Ok(MultiLayerGraph::from_parts(layers, self.vertex_labels.clone(), names))
    }

    /// Checks structural invariants of every layer.
    pub fn validate(&self) -> bool {
        self.layers.iter().all(|l| l.validate())
    }

    /// A full vertex set over this graph's universe.
    pub fn full_vertex_set(&self) -> VertexSet {
        VertexSet::full(self.num_vertices())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MultiLayerGraphBuilder;

    /// The 4-layer example of Fig. 1 (15 vertices a..n,x,y) is approximated
    /// here with a small 3-layer graph used across the crate's tests.
    fn small_graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(6, 3);
        // layer 0: a 4-clique on {0,1,2,3}
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(0, u, v).unwrap();
        }
        // layer 1: a path 0-1-2-3-4
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            b.add_edge(1, u, v).unwrap();
        }
        // layer 2: triangle {1,2,4} plus edge 4-5
        for (u, v) in [(1, 2), (2, 4), (1, 4), (4, 5)] {
            b.add_edge(2, u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn shape_and_counts() {
        let g = small_graph();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_layers(), 3);
        assert_eq!(g.total_edges(), 6 + 4 + 4);
        assert!(g.validate());
    }

    #[test]
    fn union_graph_dedups_edges() {
        let g = small_graph();
        let u = g.union_graph();
        // edge (1,2) appears on layers 0, 1, 2 but only once in the union.
        assert!(u.has_edge(1, 2));
        assert_eq!(u.num_edges(), g.union_edge_count());
        assert!(u.num_edges() < g.total_edges());
    }

    #[test]
    fn min_degree_over_layers() {
        let g = small_graph();
        assert_eq!(g.min_degree_over(2, &[0]), 3);
        assert_eq!(g.min_degree_over(2, &[0, 1]), 2);
        assert_eq!(g.min_degree_over(2, &[0, 1, 2]), 2);
        assert_eq!(g.min_degree_over(5, &[0, 1, 2]), 0);
        assert_eq!(g.min_degree_over(0, &[]), 0);
    }

    #[test]
    fn induced_subgraph_restricts_all_layers() {
        let g = small_graph();
        let s = VertexSet::from_iter(6, [1, 2, 3, 4]);
        let (sub, mapping) = g.induced_subgraph(&s);
        assert_eq!(mapping, vec![1, 2, 3, 4]);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(sub.num_layers(), 3);
        // layer 0 edges among {1,2,3}: (1,2),(1,3),(2,3) -> 3 edges
        assert_eq!(sub.layer(0).num_edges(), 3);
        // layer 1 path restricted: (1,2),(2,3),(3,4) -> 3 edges
        assert_eq!(sub.layer(1).num_edges(), 3);
        // layer 2 triangle {1,2,4} -> 3 edges
        assert_eq!(sub.layer(2).num_edges(), 3);
        assert!(sub.validate());
    }

    #[test]
    fn select_layers_reorders_and_validates() {
        let g = small_graph();
        let sel = g.select_layers(&[2, 0]).unwrap();
        assert_eq!(sel.num_layers(), 2);
        assert_eq!(sel.layer(0).num_edges(), 4);
        assert_eq!(sel.layer(1).num_edges(), 6);
        assert_eq!(sel.layer_name(0), "layer2");
        assert!(g.select_layers(&[]).is_err());
        assert!(g.select_layers(&[9]).is_err());
    }

    #[test]
    fn from_edge_lists_checks_ranges() {
        let ok = MultiLayerGraph::from_edge_lists(3, &[vec![(0, 1)], vec![(1, 2)]]).unwrap();
        assert_eq!(ok.num_layers(), 2);
        let err = MultiLayerGraph::from_edge_lists(3, &[vec![(0, 5)]]);
        assert!(err.is_err());
        let err2 = MultiLayerGraph::from_edge_lists(3, &[]);
        assert!(err2.is_err());
    }

    #[test]
    fn from_layers_matches_edge_list_build_and_checks_universes() {
        let per_layer = vec![vec![(0u32, 1u32)], vec![(1u32, 2u32)]];
        let via_lists = MultiLayerGraph::from_edge_lists(3, &per_layer).unwrap();
        let layers: Vec<Csr> = per_layer.iter().map(|e| Csr::from_edges(3, e)).collect();
        let via_layers = MultiLayerGraph::from_layers(layers).unwrap();
        assert_eq!(via_lists, via_layers);
        assert!(MultiLayerGraph::from_layers(vec![]).is_err());
        let mismatched = vec![Csr::from_edges(3, &[(0, 1)]), Csr::from_edges(4, &[(0, 1)])];
        assert!(MultiLayerGraph::from_layers(mismatched).is_err());
    }

    #[test]
    fn full_vertex_set_covers_universe() {
        let g = small_graph();
        let all = g.full_vertex_set();
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn labels_propagate_through_induced_subgraph() {
        let mut b = MultiLayerGraphBuilder::with_labels(1);
        b.add_labeled_edge(0, "a", "b").unwrap();
        b.add_labeled_edge(0, "b", "c").unwrap();
        let g = b.build();
        let s = VertexSet::from_iter(3, [1, 2]);
        let (sub, _) = g.induced_subgraph(&s);
        assert_eq!(sub.vertex_label(0), Some("b"));
        assert_eq!(sub.vertex_label(1), Some("c"));
    }
}
