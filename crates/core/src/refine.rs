//! `RefineU` and `RefineC` — the refinement procedures of Sections V-B and
//! V-C used by the top-down search.
//!
//! * [`refine_u`] shrinks a parent potential vertex set `U_L` into the child
//!   potential set `U_{L'}` using the two refinement rules of Fig. 9:
//!   degree pruning on the Class-1 layers (layers that can no longer be
//!   removed) and support pruning against the Class-2 layers.
//! * [`refine_c`] extracts the exact d-CC `C_{L'}^d(G)` from `U_{L'}` by
//!   walking the hierarchical [`crate::index::VertexIndex`]
//!   bottom-up (Fig. 10), discarding vertices via Lemma 9 and cascading
//!   degree-bound violations (`CascadeD`). A final restricted peel over the
//!   surviving vertices guarantees the output equals the true d-CC while
//!   keeping the O(n′·l′ + m′) bound (Lemma 10).

use crate::index::VertexIndex;
use mlgraph::{Layer, MultiLayerGraph, Vertex, VertexSet};

/// Refines the parent potential set `U_L` into `U_{L'}` (Fig. 9).
///
/// `class1_layers` (`M_{L'}`) are the layers of `L'` that can no longer be
/// removed on the way down to level `s`; every surviving vertex must have
/// degree ≥ `d` inside the potential set on each of them. `class2_layers`
/// (`N_{L'}`) are the still-removable layers; every surviving vertex must be
/// contained in at least `s − |M_{L'}|` of their (preprocessed) d-cores.
pub fn refine_u(
    g: &MultiLayerGraph,
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
    // This is exactly a multi-layer threshold peel over the Class-1 layers,
    // so it borrows the thread-shared peeling workspace.
    if class1_layers.is_empty() || d == 0 {
        return u;
    }
    coreness::workspace::with_thread_workspace(|ws| {
        ws.peel_in_place(g, class1_layers, d, &mut u);
    });
    u
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Unexplored,
    Undetermined,
    Discarded,
    Outside,
}

/// Extracts `C_{L'}^d(G)` from the potential set `U_{L'}` using the
/// hierarchical index (Fig. 10), then verifies the result with a restricted
/// peel so the output is exactly the d-CC.
pub fn refine_c(
    g: &MultiLayerGraph,
    d: u32,
    index: &VertexIndex,
    potential: &VertexSet,
    layers: &[Layer],
) -> VertexSet {
    let n = g.num_vertices();
    // Lemma 8: restrict to partitions I_h with h ≥ |L'|.
    let z = index.restrict_by_partition(potential, layers.len() as u32);
    if z.is_empty() {
        return z;
    }
    let layers_mask: u64 = layers.iter().fold(0u64, |m, &i| m | (1u64 << i));

    let mut state = vec![State::Outside; n];
    for v in z.iter() {
        state[v as usize] = State::Unexplored;
    }
    // d⁺_i(v): undetermined/unexplored neighbors of v in G_i[Z], per layer of L'.
    let mut d_plus: Vec<Vec<u32>> = layers
        .iter()
        .map(|&i| {
            let csr = g.layer(i);
            let mut deg = vec![0u32; n];
            for v in z.iter() {
                deg[v as usize] = csr.degree_within(v, &z) as u32;
            }
            deg
        })
        .collect();

    let cascade = |v: Vertex, state: &mut Vec<State>, d_plus: &mut Vec<Vec<u32>>| {
        // CascadeD: propagate the discard of `v` through undetermined
        // neighbors whose upper-bound degree drops below d.
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            for (j, &i) in layers.iter().enumerate() {
                for &u in g.layer(i).neighbors(x) {
                    if state[u as usize] != State::Undetermined {
                        continue;
                    }
                    let du = &mut d_plus[j][u as usize];
                    *du = du.saturating_sub(1);
                    if *du < d {
                        state[u as usize] = State::Discarded;
                        stack.push(u);
                    }
                }
            }
        }
    };

    for level in &index.levels {
        let on_level: Vec<Vertex> =
            level.iter().copied().filter(|&v| state[v as usize] != State::Outside).collect();
        if on_level.is_empty() {
            continue;
        }
        let has_undetermined = on_level.iter().any(|&v| state[v as usize] == State::Undetermined);
        if !has_undetermined {
            // Case 1: seed level — only unexplored or discarded vertices here.
            for &v in &on_level {
                if state[v as usize] != State::Unexplored {
                    continue;
                }
                let sound = index.layers_subset_of_lv(v, layers_mask)
                    && layers.iter().enumerate().all(|(j, _)| d_plus[j][v as usize] >= d);
                if !sound {
                    state[v as usize] = State::Discarded;
                    cascade(v, &mut state, &mut d_plus);
                } else if state[v as usize] == State::Unexplored {
                    state[v as usize] = State::Undetermined;
                    mark_higher_neighbors(index, v, &mut state);
                }
            }
        } else {
            // Case 2: check undetermined vertices, then discard the vertices
            // that no lower-level core vertex ever reached.
            for &v in &on_level {
                if state[v as usize] != State::Undetermined {
                    continue;
                }
                if layers.iter().enumerate().any(|(j, _)| d_plus[j][v as usize] < d) {
                    state[v as usize] = State::Discarded;
                    cascade(v, &mut state, &mut d_plus);
                } else {
                    mark_higher_neighbors(index, v, &mut state);
                }
            }
            for &v in &on_level {
                if state[v as usize] == State::Unexplored {
                    state[v as usize] = State::Discarded;
                    cascade(v, &mut state, &mut d_plus);
                }
            }
        }
    }

    let mut undetermined = VertexSet::new(n);
    for v in z.iter() {
        if state[v as usize] == State::Undetermined {
            undetermined.insert(v);
        }
    }
    // Final restricted peel: guarantees exactness (the index search never
    // discards a true core vertex, so the d-CC is a subset of `undetermined`
    // and one peel recovers it exactly).
    coreness::d_coherent_core(g, layers, d, &undetermined)
}

fn mark_higher_neighbors(index: &VertexIndex, v: Vertex, state: &mut [State]) {
    let lv = index.level_of[v as usize];
    for &u in index.union_graph.neighbors(v) {
        if state[u as usize] == State::Unexplored && index.level_of[u as usize] > lv {
            state[u as usize] = State::Undetermined;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DccsOptions, DccsParams};
    use crate::index::VertexIndex;
    use crate::preprocess::{preprocess, Preprocessed};
    use coreness::d_coherent_core;
    use mlgraph::MultiLayerGraphBuilder;

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

    fn setup(d: u32, s: usize) -> (MultiLayerGraph, Preprocessed, VertexIndex) {
        let g = graph();
        let params = DccsParams::new(d, s, 2);
        let pre = preprocess(&g, &params, &DccsOptions::default());
        let idx = VertexIndex::build(&g, d, &pre);
        (g, pre, idx)
    }

    #[test]
    fn refine_u_degree_rule_removes_sparse_vertices() {
        let (g, pre, _) = setup(3, 2);
        // Class 1 = {2}: on layer 2 only clique A is 3-dense.
        let u = refine_u(&g, 3, 2, &pre.active, &[2], &[0, 1], &pre.layer_cores);
        assert_eq!(u.to_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn refine_u_support_rule_uses_class2_cores() {
        let (g, pre, _) = setup(3, 2);
        // No Class-1 layers: every vertex must lie in ≥ 2 of the Class-2 cores.
        let u = refine_u(&g, 3, 2, &pre.active, &[], &[0, 1, 2], &pre.layer_cores);
        // A is in 3 cores, B in 2 cores → all kept.
        assert_eq!(u.len(), 8);
        let u = refine_u(&g, 3, 3, &pre.active, &[], &[0, 1, 2], &pre.layer_cores);
        // s = 3 requires membership in all three cores → only A.
        assert_eq!(u.to_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn refine_u_is_never_smaller_than_the_true_core() {
        let (g, pre, _) = setup(3, 2);
        for (class1, class2) in [
            (vec![0], vec![1, 2]),
            (vec![0, 1], vec![2]),
            (vec![2], vec![0, 1]),
            (vec![], vec![0, 1, 2]),
        ] {
            let u = refine_u(&g, 3, 2, &pre.active, &class1, &class2, &pre.layer_cores);
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
    fn refine_c_matches_plain_dcc() {
        let (g, pre, idx) = setup(3, 2);
        for layers in [vec![0usize, 1], vec![0, 2], vec![1, 2], vec![0, 1, 2]] {
            let expected = d_coherent_core(&g, &layers, 3, &pre.active);
            let got = refine_c(&g, 3, &idx, &pre.active, &layers);
            assert_eq!(got.to_vec(), expected.to_vec(), "layers {layers:?}");
        }
    }

    #[test]
    fn refine_c_respects_restricted_potential_sets() {
        let (g, pre, idx) = setup(3, 2);
        // Shrink the potential set to clique A only; the result must stay
        // inside it.
        let mut potential = pre.active.clone();
        for v in 4..8u32 {
            potential.remove(v);
        }
        let got = refine_c(&g, 3, &idx, &potential, &[0, 1]);
        let expected = d_coherent_core(&g, &[0, 1], 3, &potential);
        assert_eq!(got.to_vec(), expected.to_vec());
        assert_eq!(got.to_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn refine_c_empty_potential_set() {
        let (g, _, idx) = setup(3, 2);
        let empty = VertexSet::new(g.num_vertices());
        assert!(refine_c(&g, 3, &idx, &empty, &[0, 1]).is_empty());
    }

    #[test]
    fn refine_u_with_d_zero_only_applies_support_rule() {
        let (g, pre, _) = setup(2, 2);
        let u = refine_u(&g, 0, 1, &pre.active, &[0], &[1, 2], &pre.layer_cores);
        assert_eq!(u.len(), pre.active.len());
    }
}
