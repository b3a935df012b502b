//! [`Csr`]: a compressed sparse row representation of one undirected layer.
//!
//! Neighbor lists are sorted and deduplicated, self loops are dropped, and
//! every undirected edge is stored in both endpoints' lists. This is the
//! per-layer storage used by [`crate::MultiLayerGraph`].

use crate::bitset::VertexSet;
use crate::Vertex;
use serde::{Deserialize, Serialize};

/// A single undirected graph layer in CSR form.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for vertex `v`.
    offsets: Vec<usize>,
    /// Concatenated, per-vertex sorted adjacency lists.
    neighbors: Vec<Vertex>,
    /// Number of undirected edges (each edge counted once).
    num_edges: usize,
}

impl Csr {
    /// Builds a CSR layer from an undirected edge list over `n` vertices.
    ///
    /// Duplicate edges and self loops are silently dropped; the edge
    /// direction of each pair is irrelevant.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut degree = vec![0usize; n];
        let mut clean: Vec<(Vertex, Vertex)> = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            debug_assert!((u as usize) < n && (v as usize) < n, "edge ({u},{v}) out of range");
            if u == v {
                continue;
            }
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            clean.push((a, b));
        }
        clean.sort_unstable();
        clean.dedup();
        for &(u, v) in &clean {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as Vertex; offsets[n]];
        for &(u, v) in &clean {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Csr { offsets, neighbors, num_edges: clean.len() }
    }

    /// Builds an empty layer (no edges) over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Csr { offsets: vec![0; n + 1], neighbors: Vec::new(), num_edges: 0 }
    }

    /// Rebuilds this layer with an edge delta applied. The result equals
    /// [`Csr::from_edges`] of the mutated edge list, bit for bit.
    ///
    /// The delta is sorted into one `(vertex, neighbour, insert?)` entry per
    /// endpoint. Each run of vertices the delta does not touch is copied as
    /// one adjacency slice, with its offsets shifted by the running size
    /// change; only the touched vertices' lists are merged with their
    /// entries. The cost is two block copies of the arrays plus
    /// `O(|delta| · log |delta|)`, with no per-vertex allocation.
    ///
    /// Both lists must be canonical (`u < v`), deduplicated, and *effective*:
    /// every inserted edge absent from this layer, every deleted edge present,
    /// and the two lists disjoint. [`crate::EdgeBatch`] validation establishes
    /// exactly these invariants before calling in here.
    pub fn rebuild_with_delta(
        &self,
        inserted: &[(Vertex, Vertex)],
        deleted: &[(Vertex, Vertex)],
    ) -> Csr {
        let n = self.num_vertices();
        // Mirror each canonical delta edge into both endpoints' entries.
        let mut delta: Vec<(Vertex, Vertex, bool)> =
            Vec::with_capacity(2 * (inserted.len() + deleted.len()));
        for &(u, v) in inserted {
            debug_assert!(u < v && (v as usize) < n, "insert ({u},{v}) not canonical/in range");
            debug_assert!(!self.has_edge(u, v), "insert ({u},{v}) already present");
            delta.extend([(u, v, true), (v, u, true)]);
        }
        for &(u, v) in deleted {
            debug_assert!(u < v && (v as usize) < n, "delete ({u},{v}) not canonical/in range");
            debug_assert!(self.has_edge(u, v), "delete ({u},{v}) not present");
            delta.extend([(u, v, false), (v, u, false)]);
        }
        delta.sort_unstable();

        let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
        let mut neighbors: Vec<Vertex> = Vec::with_capacity(
            (self.neighbors.len() + 2 * inserted.len()).saturating_sub(2 * deleted.len()),
        );
        // Copies the untouched vertices `from..to` (`to` may be `n`, which
        // also emits the closing offset) as one slice.
        let copy_run = |from: usize, to: usize, offsets: &mut Vec<usize>, out: &mut Vec<Vertex>| {
            let (old_base, new_base) = (self.offsets[from], out.len());
            let end = if to == n { n + 1 } else { to };
            offsets.extend(self.offsets[from..end].iter().map(|&o| o - old_base + new_base));
            out.extend_from_slice(&self.neighbors[old_base..self.offsets[to]]);
        };
        let mut next = 0usize;
        for entries in delta.chunk_by(|a, b| a.0 == b.0) {
            let v = entries[0].0 as usize;
            copy_run(next, v, &mut offsets, &mut neighbors);
            offsets.push(neighbors.len());
            // Merge v's sorted list with its sorted entries: copy the old
            // neighbours below each entry, then insert or skip the entry.
            let old = self.neighbors(v as Vertex);
            let mut k = 0usize;
            for &(_, u, insert) in entries {
                let below = k + old[k..].partition_point(|&x| x < u);
                neighbors.extend_from_slice(&old[k..below]);
                k = below;
                if insert {
                    neighbors.push(u);
                } else {
                    debug_assert_eq!(old.get(k), Some(&u), "deleted neighbour missing");
                    k += 1;
                }
            }
            neighbors.extend_from_slice(&old[k..]);
            next = v + 1;
        }
        copy_run(next, n, &mut offsets, &mut neighbors);
        Csr { offsets, neighbors, num_edges: self.num_edges + inserted.len() - deleted.len() }
    }

    /// Number of vertices in the universe.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges in this layer.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `v` in this layer.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted slice of neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        let (probe, target) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(probe).binary_search(&target).is_ok()
    }

    /// Degree of `v` counting only neighbors contained in `within`.
    ///
    /// The adjacency run is tested word-wise against the set's packed
    /// words through the dispatched [`crate::kernels::BitKernel`] — the
    /// CSR peel's inner loop — instead of per-neighbor `contains` calls.
    #[inline]
    pub fn degree_within(&self, v: Vertex, within: &VertexSet) -> usize {
        crate::kernels::kernel().sorted_and_count(self.neighbors(v), within.words())
    }

    /// Iterates every undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        (0..self.num_vertices() as Vertex)
            .flat_map(move |u| self.neighbors(u).iter().copied().map(move |v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Maximum degree over all vertices, or 0 for an empty universe.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as Vertex).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Number of edges with both endpoints inside `within`.
    pub fn edges_within(&self, within: &VertexSet) -> usize {
        within
            .iter()
            .map(|u| self.neighbors(u).iter().filter(|&&v| v > u && within.contains(v)).count())
            .sum()
    }

    /// Builds the subgraph induced by `within`, re-indexed to `0..within.len()`.
    ///
    /// Returns the induced CSR and the mapping from new index to original
    /// vertex id (sorted ascending).
    pub fn induced_subgraph(&self, within: &VertexSet) -> (Csr, Vec<Vertex>) {
        let mapping: Vec<Vertex> = within.to_vec();
        let mut inverse = vec![u32::MAX; self.num_vertices()];
        for (new, &old) in mapping.iter().enumerate() {
            inverse[old as usize] = new as u32;
        }
        let mut edges = Vec::new();
        for &old_u in &mapping {
            for &old_v in self.neighbors(old_u) {
                if old_v > old_u && within.contains(old_v) {
                    edges.push((inverse[old_u as usize], inverse[old_v as usize]));
                }
            }
        }
        (Csr::from_edges(mapping.len(), &edges), mapping)
    }

    /// Checks structural invariants; used by tests and the binary loader.
    pub fn validate(&self) -> bool {
        let n = self.num_vertices();
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() != self.neighbors.len() {
            return false;
        }
        let mut edge_count = 0usize;
        for v in 0..n as Vertex {
            let ns = self.neighbors(v);
            if !ns.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            for &u in ns {
                if u as usize >= n || u == v {
                    return false;
                }
                if self.neighbors(u).binary_search(&v).is_err() {
                    return false;
                }
                if u > v {
                    edge_count += 1;
                }
            }
        }
        edge_count == self.num_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Csr {
        // 0-1, 1-2, 0-2 triangle; 3 pendant attached to 2; vertex 4 isolated.
        Csr::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 2)])
    }

    #[test]
    fn basic_shape() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert!(g.validate());
    }

    #[test]
    fn duplicate_and_self_loops_dropped() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
        assert!(g.validate());
    }

    #[test]
    fn has_edge_symmetric() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(3, 0));
        assert!(!g.has_edge(4, 0));
    }

    #[test]
    fn degree_within_mask() {
        let g = triangle_plus_pendant();
        let s = VertexSet::from_iter(5, [0, 1, 2]);
        assert_eq!(g.degree_within(0, &s), 2);
        assert_eq!(g.degree_within(2, &s), 2);
        assert_eq!(g.degree_within(3, &s), 1);
        let empty = VertexSet::new(5);
        assert_eq!(g.degree_within(2, &empty), 0);
    }

    #[test]
    fn edges_iterator_unique() {
        let g = triangle_plus_pendant();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn edges_within_counts_induced_edges() {
        let g = triangle_plus_pendant();
        let s = VertexSet::from_iter(5, [0, 1, 2]);
        assert_eq!(g.edges_within(&s), 3);
        let t = VertexSet::from_iter(5, [2, 3, 4]);
        assert_eq!(g.edges_within(&t), 1);
    }

    #[test]
    fn induced_subgraph_reindexes() {
        let g = triangle_plus_pendant();
        let s = VertexSet::from_iter(5, [1, 2, 3]);
        let (sub, mapping) = g.induced_subgraph(&s);
        assert_eq!(mapping, vec![1, 2, 3]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        // new ids: 1->0, 2->1, 3->2
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 2));
        assert!(!sub.has_edge(0, 2));
        assert!(sub.validate());
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.validate());
        let g0 = Csr::empty(0);
        assert_eq!(g0.num_vertices(), 0);
        assert!(g0.validate());
    }

    #[test]
    fn max_degree() {
        let g = triangle_plus_pendant();
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn rebuild_with_delta_matches_from_edges() {
        let g = triangle_plus_pendant();
        // Drop the pendant edge and one triangle side, add two new edges.
        let rebuilt = g.rebuild_with_delta(&[(0, 4), (3, 4)], &[(2, 3), (0, 1)]);
        let oracle = Csr::from_edges(5, &[(1, 2), (2, 0), (0, 4), (3, 4)]);
        assert_eq!(rebuilt, oracle);
        assert!(rebuilt.validate());
    }

    #[test]
    fn rebuild_with_delta_empty_and_refill() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let emptied = g.rebuild_with_delta(&[], &[(0, 1), (1, 2)]);
        assert_eq!(emptied, Csr::empty(3));
        let refilled = emptied.rebuild_with_delta(&[(0, 2)], &[]);
        assert_eq!(refilled, Csr::from_edges(3, &[(0, 2)]));
        assert!(refilled.validate());
    }

    #[test]
    fn rebuild_with_delta_noop_is_identity() {
        let g = triangle_plus_pendant();
        assert_eq!(g.rebuild_with_delta(&[], &[]), g);
    }

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    // The rebuilt layer equals `from_edges` of the mutated edge list on
    // random graphs and valid deltas. Each case toggles random pairs
    // (deleting present edges, inserting absent ones), then forces one
    // shape: the empty delta, vertices 0 and n−1, adjacent changed
    // vertices, a vertex losing every edge, or an isolated vertex gaining
    // its first edge.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn rebuild_with_delta_equals_from_edges_of_the_mutated_list(
            n in 2usize..48,
            raw in prop::collection::vec((0u32..1000, 0u32..1000), 0..150),
            toggles in prop::collection::vec((0u32..1000, 0u32..1000), 0..24),
            shape in 0u32..6,
            pick in 0u32..1000,
        ) {
            let nv = n as Vertex;
            let canon = |u: Vertex, v: Vertex| if u < v { (u, v) } else { (v, u) };
            let x = pick % nv;
            // Shape 5 isolates `x` in the base graph.
            let base: Vec<(Vertex, Vertex)> = raw
                .iter()
                .map(|&(u, v)| (u % nv, v % nv))
                .filter(|&(u, v)| shape != 5 || (u != x && v != x))
                .collect();
            let g = Csr::from_edges(n, &base);
            // Edge -> insert? (true: absent, inserted; false: present, deleted).
            let mut delta: BTreeMap<(Vertex, Vertex), bool> = BTreeMap::new();
            let toggle = |delta: &mut BTreeMap<_, _>, u: Vertex, v: Vertex| {
                if u != v {
                    delta.insert(canon(u, v), !g.has_edge(u, v));
                }
            };
            for &(u, v) in &toggles {
                toggle(&mut delta, u % nv, v % nv);
            }
            match shape {
                0 => delta.clear(),
                1 => toggle(&mut delta, 0, nv - 1),
                2 => {
                    let y = (x + 1) % nv;
                    toggle(&mut delta, x, (x + 2) % nv);
                    toggle(&mut delta, y, (y + 2) % nv);
                }
                3 | 5 => {
                    delta.retain(|&(u, v), _| u != x && v != x);
                    if shape == 3 {
                        for &u in g.neighbors(x) {
                            delta.insert(canon(x, u), false);
                        }
                    } else {
                        toggle(&mut delta, x, (x + 1) % nv);
                    }
                }
                _ => {}
            }
            let inserted: Vec<_> = delta.iter().filter(|e| *e.1).map(|e| *e.0).collect();
            let deleted: Vec<_> = delta.iter().filter(|e| !*e.1).map(|e| *e.0).collect();
            let mut mutated: Vec<_> = g.edges().filter(|e| !deleted.contains(e)).collect();
            mutated.extend(&inserted);

            let rebuilt = g.rebuild_with_delta(&inserted, &deleted);
            prop_assert_eq!(&rebuilt, &Csr::from_edges(n, &mutated));
            prop_assert!(rebuilt.validate());
            if shape == 3 {
                prop_assert_eq!(rebuilt.degree(x), 0);
            }
            if shape == 5 {
                prop_assert_eq!(rebuilt.degree(x), 1);
            }
        }
    }
}
