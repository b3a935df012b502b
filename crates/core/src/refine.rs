//! `RefineU` — the potential-set refinement of Section V-B used by the
//! top-down search.
//!
//! [`refine_u`] shrinks a parent potential vertex set `U_L` into the child
//! potential set `U_{L'}` using the two refinement rules of Fig. 9: degree
//! pruning on the Class-1 layers (layers that can no longer be removed) and
//! support pruning against the Class-2 layers. The child's exact d-CC
//! `C_{L'}` lies inside `U_{L'}`, so the search extracts it with one
//! restricted peel of `U_{L'}` over `L'` (see [`crate::top_down`]). Both
//! sets, the layer cores and the Class-1 peel live in the space of the
//! search's [`crate::engine::PeelIndex`]: dense rows or CSR adjacency.

use crate::engine::PeelIndex;
use coreness::PeelWorkspace;
use mlgraph::{Layer, Vertex, VertexSet};

/// Refines the parent potential set `U_L` into `U_{L'}` (Fig. 9).
///
/// `class1_layers` (`M_{L'}`) are the layers of `L'` that can no longer be
/// removed on the way down to level `s`; every surviving vertex must have
/// degree ≥ `d` inside the potential set on each of them. `class2_layers`
/// (`N_{L'}`) are the still-removable layers; every surviving vertex must be
/// contained in at least `s − |M_{L'}|` of their (preprocessed) d-cores.
///
/// Every set is in `index`'s index space. The Class-1 peel runs on `index`
/// and `ws`, under whatever probe `ws` carries; an aborted peel leaves the
/// result a superset of the refined set.
#[allow(clippy::too_many_arguments)]
pub fn refine_u(
    ws: &mut PeelWorkspace,
    index: &PeelIndex<'_>,
    d: u32,
    s: usize,
    parent_potential: &VertexSet,
    class1_layers: &[Layer],
    class2_layers: &[Layer],
    layer_cores: &[VertexSet],
) -> VertexSet {
    let mut u = parent_potential.clone();
    // Refinement method 2 (static): support within the Class-2 d-cores.
    let needed = s.saturating_sub(class1_layers.len());
    if needed > 0 {
        let victims: Vec<Vertex> = u
            .iter()
            .filter(|&v| {
                let support = class2_layers.iter().filter(|&&j| layer_cores[j].contains(v)).count();
                support < needed
            })
            .collect();
        for v in victims {
            u.remove(v);
        }
    }
    // Refinement method 1 (peeling): degree ≥ d on every Class-1 layer.
    // This is exactly a multi-layer threshold peel over the Class-1 layers.
    if class1_layers.is_empty() || d == 0 {
        return u;
    }
    index.peel(ws, class1_layers, d, &mut u);
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DccsOptions, DccsParams};
    use crate::engine::{plan_index_with, IndexChoice};
    use crate::preprocess::{preprocess, Preprocessed};
    use coreness::d_coherent_core;
    use mlgraph::{MultiLayerGraph, MultiLayerGraphBuilder};

    fn clique(b: &mut MultiLayerGraphBuilder, layer: usize, vs: &[u32]) {
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                b.add_edge(layer, vs[i], vs[j]).unwrap();
            }
        }
    }

    /// Layers 0–2 contain clique A = {0,1,2,3}; layers 0–1 contain clique
    /// B = {4,5,6,7}; layer 2 additionally links B loosely (a path).
    fn graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(8, 3);
        for layer in 0..3 {
            clique(&mut b, layer, &[0, 1, 2, 3]);
        }
        for layer in 0..2 {
            clique(&mut b, layer, &[4, 5, 6, 7]);
        }
        for (u, v) in [(4, 5), (5, 6), (6, 7)] {
            b.add_edge(2, u, v).unwrap();
        }
        b.build()
    }

    fn setup(d: u32, s: usize) -> (MultiLayerGraph, Preprocessed, PeelWorkspace) {
        let g = graph();
        let params = DccsParams::new(d, s, 2);
        let pre = preprocess(&g, &params, &DccsOptions::default());
        (g, pre, PeelWorkspace::new())
    }

    /// A CSR index over the active set, whose index space is vertex space.
    fn csr_index<'a>(g: &'a MultiLayerGraph, pre: &Preprocessed) -> PeelIndex<'a> {
        PeelIndex::new(g, None, plan_index_with(g, &pre.active, IndexChoice::Csr))
    }

    #[test]
    fn refine_u_degree_rule_removes_sparse_vertices() {
        let (g, pre, mut ws) = setup(3, 2);
        let ix = csr_index(&g, &pre);
        // Class 1 = {2}: on layer 2 only clique A is 3-dense.
        let u = refine_u(&mut ws, &ix, 3, 2, &pre.active, &[2], &[0, 1], &pre.layer_cores);
        assert_eq!(u.to_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn refine_u_support_rule_uses_class2_cores() {
        let (g, pre, mut ws) = setup(3, 2);
        let ix = csr_index(&g, &pre);
        // No Class-1 layers: every vertex must lie in ≥ 2 of the Class-2 cores.
        let u = refine_u(&mut ws, &ix, 3, 2, &pre.active, &[], &[0, 1, 2], &pre.layer_cores);
        // A is in 3 cores, B in 2 cores → all kept.
        assert_eq!(u.len(), 8);
        let u = refine_u(&mut ws, &ix, 3, 3, &pre.active, &[], &[0, 1, 2], &pre.layer_cores);
        // s = 3 requires membership in all three cores → only A.
        assert_eq!(u.to_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn refine_u_is_never_smaller_than_the_true_core() {
        let (g, pre, mut ws) = setup(3, 2);
        let ix = csr_index(&g, &pre);
        for (class1, class2) in [
            (vec![0], vec![1, 2]),
            (vec![0, 1], vec![2]),
            (vec![2], vec![0, 1]),
            (vec![], vec![0, 1, 2]),
        ] {
            let u = refine_u(&mut ws, &ix, 3, 2, &pre.active, &class1, &class2, &pre.layer_cores);
            // Any level-s descendant keeps every Class-1 layer and fills the
            // rest from Class-2; each such descendant's core must be inside U.
            let all: Vec<usize> = class1.iter().chain(class2.iter()).copied().collect();
            for &a in &all {
                for &b in &all {
                    if a < b && class1.iter().all(|c| *c == a || *c == b) {
                        let core = d_coherent_core(&g, &[a, b], 3, &pre.active);
                        assert!(core.is_subset_of(&u), "class1={class1:?} L={:?}", [a, b]);
                    }
                }
            }
        }
    }

    #[test]
    fn refine_u_with_d_zero_only_applies_support_rule() {
        let (g, pre, mut ws) = setup(2, 2);
        let ix = csr_index(&g, &pre);
        let u = refine_u(&mut ws, &ix, 0, 1, &pre.active, &[0], &[1, 2], &pre.layer_cores);
        assert_eq!(u.len(), pre.active.len());
    }
}
