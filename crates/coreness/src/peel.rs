//! Single-layer core decomposition (Batagelj–Zaversnik bin-sort peeling).
//!
//! `core_numbers` computes the core number of every vertex in O(n + m); the
//! d-core of the layer is then just the set of vertices with core number
//! ≥ d. `d_core_within` restricts the computation to an arbitrary candidate
//! vertex subset, which is how the DCCS algorithms repeatedly shrink
//! per-layer d-cores after vertex deletions.

use crate::workspace::{with_thread_workspace, PeelWorkspace};
use mlgraph::{Csr, VertexSet};

/// Computes the core number of every vertex of `g` using the
/// Batagelj–Zaversnik bin-sort peeling algorithm (O(n + m)).
pub fn core_numbers(g: &Csr) -> Vec<u32> {
    core_numbers_within(g, &VertexSet::full(g.num_vertices()))
}

/// Core numbers of the subgraph induced by `within`. Vertices outside
/// `within` get core number 0.
///
/// Scratch buffers are borrowed from the calling thread's shared
/// [`PeelWorkspace`]; only the returned vector is allocated. Callers in a
/// loop can borrow an explicit workspace via [`core_numbers_within_into`].
pub fn core_numbers_within(g: &Csr, within: &VertexSet) -> Vec<u32> {
    let mut core = Vec::new();
    with_thread_workspace(|ws| ws.core_numbers_into(g, within, &mut core));
    core
}

/// [`core_numbers_within`] with an explicit workspace and output vector, for
/// allocation-free steady-state use.
pub fn core_numbers_within_into(
    ws: &mut PeelWorkspace,
    g: &Csr,
    within: &VertexSet,
    core: &mut Vec<u32>,
) {
    ws.core_numbers_into(g, within, core);
}

/// The d-core of `g`: the maximal vertex set whose induced subgraph has
/// minimum degree ≥ `d`.
pub fn d_core(g: &Csr, d: u32) -> VertexSet {
    d_core_within(g, d, &VertexSet::full(g.num_vertices()))
}

/// The d-core of the subgraph of `g` induced by `within`.
///
/// Implemented as a threshold peel on the thread-shared workspace (cheaper
/// than a full core decomposition when only one `d` is needed).
pub fn d_core_within(g: &Csr, d: u32, within: &VertexSet) -> VertexSet {
    let mut out = within.clone();
    with_thread_workspace(|ws| ws.peel_layer_in_place(g, d, &mut out));
    out
}

/// [`d_core_within`] with an explicit workspace and output set: copies
/// `within` into `out` and peels in place, allocation-free in steady state.
pub fn d_core_within_into(
    ws: &mut PeelWorkspace,
    g: &Csr,
    d: u32,
    within: &VertexSet,
    out: &mut VertexSet,
) {
    if out.capacity() != within.capacity() {
        *out = within.clone();
    } else {
        out.copy_from(within);
    }
    ws.peel_layer_in_place(g, d, out);
}

/// The degeneracy of `g`: the maximum core number over all vertices.
pub fn degeneracy(g: &Csr) -> u32 {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

/// Incrementally repairs a layer's d-core after an edge delta whose
/// deletions are not known, on the calling thread's shared workspace.
/// `layer` is the layer *after* the delta, `old_core` its exact d-core
/// before it, `inserted` the canonical edges the delta added; every
/// candidate is checked. See [`PeelWorkspace::repair_d_core`].
pub fn repair_d_core(
    layer: &Csr,
    d: u32,
    old_core: &VertexSet,
    inserted: &[(mlgraph::Vertex, mlgraph::Vertex)],
) -> VertexSet {
    let mut out = VertexSet::new(layer.num_vertices());
    with_thread_workspace(|ws| ws.repair_d_core(layer, d, old_core, inserted, &mut out));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgraph::VertexSet;

    /// A clique on {0,1,2,3} with a path 3-4-5 hanging off it.
    fn clique_with_tail() -> Csr {
        Csr::from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    }

    #[test]
    fn core_numbers_of_clique_with_tail() {
        let g = clique_with_tail();
        let core = core_numbers(&g);
        assert_eq!(core, vec![3, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn core_numbers_of_path() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(core_numbers(&g), vec![1, 1, 1, 1]);
    }

    #[test]
    fn core_numbers_of_cycle() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(core_numbers(&g), vec![2; 5]);
    }

    #[test]
    fn core_numbers_with_isolated_vertices() {
        let g = Csr::from_edges(4, &[(0, 1)]);
        assert_eq!(core_numbers(&g), vec![1, 1, 0, 0]);
    }

    #[test]
    fn core_numbers_empty_graph() {
        let g = Csr::empty(3);
        assert_eq!(core_numbers(&g), vec![0, 0, 0]);
        let g0 = Csr::empty(0);
        assert!(core_numbers(&g0).is_empty());
    }

    #[test]
    fn d_core_extraction() {
        let g = clique_with_tail();
        assert_eq!(d_core(&g, 0).len(), 6);
        assert_eq!(d_core(&g, 1).len(), 6);
        assert_eq!(d_core(&g, 2).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(d_core(&g, 3).to_vec(), vec![0, 1, 2, 3]);
        assert!(d_core(&g, 4).is_empty());
    }

    #[test]
    fn d_core_hierarchy_property() {
        // Property 2 analogue on a single layer: higher-d cores are nested.
        let g = clique_with_tail();
        let mut prev = d_core(&g, 0);
        for d in 1..=5 {
            let cur = d_core(&g, d);
            assert!(cur.is_subset_of(&prev), "d-core hierarchy violated at d={d}");
            prev = cur;
        }
    }

    #[test]
    fn restricted_core_numbers_ignore_outside_vertices() {
        let g = clique_with_tail();
        // Remove vertex 3: the clique loses a member, so core numbers drop.
        let within = VertexSet::from_iter(6, [0, 1, 2, 4, 5]);
        let core = core_numbers_within(&g, &within);
        assert_eq!(core[0], 2);
        assert_eq!(core[3], 0);
        assert_eq!(core[4], 1);
        let dc = d_core_within(&g, 2, &within);
        assert_eq!(dc.to_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn restricted_to_empty_set() {
        let g = clique_with_tail();
        let empty = VertexSet::new(6);
        assert!(core_numbers_within(&g, &empty).iter().all(|&c| c == 0));
        assert!(d_core_within(&g, 1, &empty).is_empty());
    }

    #[test]
    fn degeneracy_values() {
        assert_eq!(degeneracy(&clique_with_tail()), 3);
        assert_eq!(degeneracy(&Csr::empty(4)), 0);
        let star = Csr::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(degeneracy(&star), 1);
    }

    #[test]
    fn d_core_minimum_degree_invariant() {
        // Every vertex of the d-core has at least d neighbors inside it.
        let g = clique_with_tail();
        for d in 1..=3 {
            let core = d_core(&g, d);
            for v in core.iter() {
                assert!(g.degree_within(v, &core) >= d as usize);
            }
        }
    }

    #[test]
    fn two_cliques_different_sizes() {
        // Clique {0..4} (5-clique) and triangle {5,6,7}.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        edges.extend_from_slice(&[(5, 6), (6, 7), (5, 7)]);
        let g = Csr::from_edges(8, &edges);
        let core = core_numbers(&g);
        assert_eq!(&core[0..5], &[4, 4, 4, 4, 4]);
        assert_eq!(&core[5..8], &[2, 2, 2]);
        assert_eq!(d_core(&g, 3).to_vec(), vec![0, 1, 2, 3, 4]);
        assert_eq!(d_core(&g, 2).len(), 8);
    }
}
