//! [`EdgeBatch`]: a validated set of per-layer edge mutations applied
//! atomically to a [`MultiLayerGraph`].
//!
//! A batch collects insert and delete operations across any subset of layers.
//! [`MultiLayerGraph::apply_batch`] validates the whole batch up front
//! (ranges, self loops, insert/delete conflicts), canonicalizes and
//! deduplicates it, drops no-op operations (inserting a present edge,
//! deleting an absent one), and only then rebuilds the touched layers via
//! [`Csr::rebuild_with_delta`], which block-copies the runs of vertices the
//! delta leaves alone and merges only the changed adjacency lists. Untouched
//! layers are copied whole, not shared, so a commit costs a copy of every
//! layer plus work proportional to the delta. The receiver is never
//! modified: commit is "build the next version, then swap", which is what
//! lets the service tier keep answering queries on the old snapshot while a
//! commit is in flight.

use crate::csr::Csr;
use crate::error::{GraphError, Result};
use crate::graph::MultiLayerGraph;
use crate::{Layer, Vertex};

/// An ordered collection of edge insertions and deletions, grouped per layer
/// at application time. Built incrementally or parsed from text.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeBatch {
    inserts: Vec<(Layer, Vertex, Vertex)>,
    deletes: Vec<(Layer, Vertex, Vertex)>,
}

impl EdgeBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        EdgeBatch::default()
    }

    /// Records an edge insertion on `layer`. Direction is irrelevant.
    pub fn insert(&mut self, layer: Layer, u: Vertex, v: Vertex) -> &mut Self {
        self.inserts.push((layer, u, v));
        self
    }

    /// Records an edge deletion on `layer`. Direction is irrelevant.
    pub fn delete(&mut self, layer: Layer, u: Vertex, v: Vertex) -> &mut Self {
        self.deletes.push((layer, u, v));
        self
    }

    /// The recorded insertions, in submission order (not yet canonicalized).
    pub fn inserts(&self) -> &[(Layer, Vertex, Vertex)] {
        &self.inserts
    }

    /// The recorded deletions, in submission order (not yet canonicalized).
    pub fn deletes(&self) -> &[(Layer, Vertex, Vertex)] {
        &self.deletes
    }

    /// Total number of recorded operations.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch records no operations at all.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Parses a batch from text, one operation per line:
    ///
    /// ```text
    /// # comments and blank lines are skipped
    /// add <layer> <u> <v>
    /// del <layer> <u> <v>
    /// ```
    pub fn from_text(text: &str) -> Result<Self> {
        let mut batch = EdgeBatch::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            if fields.len() != 4 {
                return Err(GraphError::Parse {
                    line,
                    message: format!(
                        "expected `add|del <layer> <u> <v>`, got {} fields",
                        fields.len()
                    ),
                });
            }
            let invalid = |field: &str, what: &str| GraphError::Parse {
                line,
                message: format!("invalid {what} `{field}`"),
            };
            let layer = fields[1].parse::<Layer>().map_err(|_| invalid(fields[1], "layer"))?;
            let parse_vertex = |field: &str| -> Result<Vertex> {
                let id = field.parse::<u64>().map_err(|_| invalid(field, "vertex"))?;
                Vertex::try_from(id).map_err(|_| GraphError::Parse {
                    line,
                    message: format!("vertex id {id} exceeds the {} id limit", Vertex::MAX),
                })
            };
            let u = parse_vertex(fields[2])?;
            let v = parse_vertex(fields[3])?;
            match fields[0] {
                "add" => batch.insert(layer, u, v),
                "del" => batch.delete(layer, u, v),
                op => {
                    return Err(GraphError::Parse {
                        line,
                        message: format!("unknown operation `{op}` (expected add/del)"),
                    })
                }
            };
        }
        Ok(batch)
    }
}

/// The canonical, effective delta for one touched layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerDelta {
    /// The layer index the delta applies to.
    pub layer: Layer,
    /// Canonical (`u < v`), sorted, deduplicated edges actually inserted.
    pub inserted: Vec<(Vertex, Vertex)>,
    /// Canonical (`u < v`), sorted, deduplicated edges actually deleted.
    pub deleted: Vec<(Vertex, Vertex)>,
}

/// The effective outcome of one committed [`EdgeBatch`]: per-layer deltas for
/// the layers that actually changed, in ascending layer order. No-op
/// operations (duplicate submissions, inserts of present edges, deletes of
/// absent edges) have already been filtered out.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AppliedBatch {
    /// Deltas for the touched layers only, ascending by layer index.
    pub layers: Vec<LayerDelta>,
}

impl AppliedBatch {
    /// Total number of edges inserted across all layers.
    pub fn num_inserted(&self) -> usize {
        self.layers.iter().map(|d| d.inserted.len()).sum()
    }

    /// Total number of edges deleted across all layers.
    pub fn num_deleted(&self) -> usize {
        self.layers.iter().map(|d| d.deleted.len()).sum()
    }

    /// Whether the batch changed nothing.
    pub fn is_noop(&self) -> bool {
        self.layers.is_empty()
    }

    /// The indices of the layers the batch changed, ascending.
    pub fn touched_layers(&self) -> impl Iterator<Item = Layer> + '_ {
        self.layers.iter().map(|d| d.layer)
    }
}

impl MultiLayerGraph {
    /// Applies an [`EdgeBatch`], producing the next graph version and the
    /// effective per-layer delta. The receiver is left untouched.
    ///
    /// Errors on out-of-range layers or vertices, self loops, and on the same
    /// edge appearing in both the insert and delete lists of one layer (the
    /// batch would be order-dependent). Duplicate operations, inserts of
    /// edges already present, and deletes of absent edges are silently
    /// dropped; layers with no effective change are copied rather than
    /// rebuilt.
    pub fn apply_batch(&self, batch: &EdgeBatch) -> Result<(MultiLayerGraph, AppliedBatch)> {
        let n = self.num_vertices();
        let l = self.num_layers();
        let canonicalize =
            |ops: &[(Layer, Vertex, Vertex)]| -> Result<Vec<(Layer, Vertex, Vertex)>> {
                let mut out = Vec::with_capacity(ops.len());
                for &(layer, u, v) in ops {
                    if layer >= l {
                        return Err(GraphError::LayerOutOfRange { layer, num_layers: l });
                    }
                    if u as usize >= n || v as usize >= n {
                        return Err(GraphError::VertexOutOfRange {
                            vertex: u.max(v) as u64,
                            num_vertices: n,
                        });
                    }
                    if u == v {
                        return Err(GraphError::SelfLoop { vertex: u as u64 });
                    }
                    out.push(if u < v { (layer, u, v) } else { (layer, v, u) });
                }
                out.sort_unstable();
                out.dedup();
                Ok(out)
            };
        let inserts = canonicalize(&batch.inserts)?;
        let deletes = canonicalize(&batch.deletes)?;
        // Same canonical edge on both lists of one layer would make the
        // result depend on application order; reject the whole batch.
        {
            let mut di = deletes.iter().peekable();
            for op in &inserts {
                while di.peek().is_some_and(|d| *d < op) {
                    di.next();
                }
                if di.peek() == Some(&op) {
                    return Err(GraphError::InvalidArgument(format!(
                        "edge ({}, {}) on layer {} is both inserted and deleted",
                        op.1, op.2, op.0
                    )));
                }
            }
        }

        let mut deltas: Vec<LayerDelta> = Vec::new();
        let delta_for = |layer: Layer, deltas: &mut Vec<LayerDelta>| -> usize {
            match deltas.iter().position(|d| d.layer == layer) {
                Some(i) => i,
                None => {
                    deltas.push(LayerDelta { layer, inserted: Vec::new(), deleted: Vec::new() });
                    deltas.len() - 1
                }
            }
        };
        for (layer, u, v) in inserts {
            if !self.layer(layer).has_edge(u, v) {
                let i = delta_for(layer, &mut deltas);
                deltas[i].inserted.push((u, v));
            }
        }
        for (layer, u, v) in deletes {
            if self.layer(layer).has_edge(u, v) {
                let i = delta_for(layer, &mut deltas);
                deltas[i].deleted.push((u, v));
            }
        }
        deltas.retain(|d| !d.inserted.is_empty() || !d.deleted.is_empty());
        deltas.sort_unstable_by_key(|d| d.layer);

        let layers: Vec<Csr> = self
            .layers()
            .iter()
            .enumerate()
            .map(|(i, csr)| match deltas.iter().find(|d| d.layer == i) {
                Some(d) => csr.rebuild_with_delta(&d.inserted, &d.deleted),
                None => csr.clone(),
            })
            .collect();
        let next = MultiLayerGraph::from_parts(
            layers,
            self.vertex_labels().map(|labels| labels.to_vec()),
            self.layer_names().to_vec(),
        );
        Ok((next, AppliedBatch { layers: deltas }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_layer() -> MultiLayerGraph {
        MultiLayerGraph::from_edge_lists(5, &[vec![(0, 1), (1, 2), (2, 0)], vec![(0, 1), (3, 4)]])
            .unwrap()
    }

    #[test]
    fn apply_batch_inserts_and_deletes() {
        let g = two_layer();
        let mut b = EdgeBatch::new();
        b.insert(0, 3, 0).insert(1, 2, 1).delete(0, 2, 1).delete(1, 4, 3);
        let (next, applied) = g.apply_batch(&b).unwrap();
        assert!(next.layer(0).has_edge(0, 3));
        assert!(!next.layer(0).has_edge(1, 2));
        assert!(next.layer(1).has_edge(1, 2));
        assert!(!next.layer(1).has_edge(3, 4));
        assert!(next.validate());
        assert_eq!(applied.num_inserted(), 2);
        assert_eq!(applied.num_deleted(), 2);
        assert_eq!(applied.touched_layers().collect::<Vec<_>>(), vec![0, 1]);
        // The receiver is untouched.
        assert!(g.layer(0).has_edge(1, 2));
        assert!(!g.layer(0).has_edge(0, 3));
    }

    #[test]
    fn apply_batch_drops_noop_operations() {
        let g = two_layer();
        let mut b = EdgeBatch::new();
        // Insert a present edge (both directions), delete an absent one,
        // and submit a genuine operation twice.
        b.insert(0, 0, 1).insert(0, 1, 0).delete(0, 0, 4).insert(0, 0, 3).insert(0, 3, 0);
        let (next, applied) = g.apply_batch(&b).unwrap();
        assert_eq!(applied.num_inserted(), 1);
        assert_eq!(applied.num_deleted(), 0);
        assert_eq!(applied.layers[0].inserted, vec![(0, 3)]);
        assert_eq!(next.layer(0).num_edges(), 4);
    }

    #[test]
    fn apply_batch_empty_is_noop() {
        let g = two_layer();
        let (next, applied) = g.apply_batch(&EdgeBatch::new()).unwrap();
        assert!(applied.is_noop());
        assert_eq!(next, g);
    }

    #[test]
    fn apply_batch_can_empty_a_layer_and_refill() {
        let g = two_layer();
        let mut b = EdgeBatch::new();
        b.delete(1, 0, 1).delete(1, 3, 4);
        let (emptied, applied) = g.apply_batch(&b).unwrap();
        assert_eq!(emptied.layer(1).num_edges(), 0);
        assert_eq!(applied.num_deleted(), 2);
        let mut refill = EdgeBatch::new();
        refill.insert(1, 2, 4);
        let (next, _) = emptied.apply_batch(&refill).unwrap();
        assert_eq!(next.layer(1).num_edges(), 1);
        assert!(next.layer(1).has_edge(2, 4));
        assert!(next.validate());
    }

    #[test]
    fn apply_batch_rejects_invalid_operations() {
        let g = two_layer();
        let mut out_of_layer = EdgeBatch::new();
        out_of_layer.insert(7, 0, 1);
        assert!(matches!(
            g.apply_batch(&out_of_layer),
            Err(GraphError::LayerOutOfRange { layer: 7, .. })
        ));
        let mut out_of_range = EdgeBatch::new();
        out_of_range.delete(0, 0, 11);
        assert!(matches!(
            g.apply_batch(&out_of_range),
            Err(GraphError::VertexOutOfRange { vertex: 11, .. })
        ));
        let mut self_loop = EdgeBatch::new();
        self_loop.insert(0, 2, 2);
        assert!(matches!(g.apply_batch(&self_loop), Err(GraphError::SelfLoop { vertex: 2 })));
        let mut conflict = EdgeBatch::new();
        conflict.insert(0, 1, 2).delete(0, 2, 1);
        assert!(matches!(g.apply_batch(&conflict), Err(GraphError::InvalidArgument(_))));
        // The same edge on both lists of *different* layers is fine.
        let mut cross_layer = EdgeBatch::new();
        cross_layer.delete(0, 1, 2).insert(1, 1, 2);
        assert!(g.apply_batch(&cross_layer).is_ok());
    }

    #[test]
    fn apply_batch_preserves_labels_and_names() {
        let mut b = crate::MultiLayerGraphBuilder::with_labels(1);
        b.add_labeled_edge(0, "a", "b").unwrap();
        b.add_labeled_edge(0, "b", "c").unwrap();
        let g = b.build();
        let mut batch = EdgeBatch::new();
        batch.insert(0, 0, 2);
        let (next, _) = g.apply_batch(&batch).unwrap();
        assert_eq!(next.vertex_label(2), Some("c"));
        assert_eq!(next.layer_name(0), g.layer_name(0));
    }

    #[test]
    fn from_text_round_trip() {
        let text = "# demo batch\n\nadd 0 1 2\ndel 1 3 4\nadd 1 0 4\n";
        let batch = EdgeBatch::from_text(text).unwrap();
        assert_eq!(batch.inserts(), &[(0, 1, 2), (1, 0, 4)]);
        assert_eq!(batch.deletes(), &[(1, 3, 4)]);
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
    }

    #[test]
    fn from_text_rejects_malformed_lines() {
        for (text, needle) in [
            ("add 0 1", "got 3 fields"),
            ("frob 0 1 2", "unknown operation"),
            ("add x 1 2", "invalid layer"),
            ("add 0 1 potato", "invalid vertex"),
        ] {
            match EdgeBatch::from_text(text) {
                Err(GraphError::Parse { line: 1, message }) => {
                    assert!(message.contains(needle), "{message} vs {needle}")
                }
                other => panic!("expected parse error for {text:?}, got {other:?}"),
            }
        }
    }

    /// A vertex id above `u32::MAX` fails with the line it sits on; it must
    /// not wrap around to a small id and commit a different edge.
    #[test]
    fn from_text_rejects_vertex_ids_beyond_u32() {
        for (text, line, id) in [
            ("add 0 1 2\n\nadd 0 0 4294967297\n", 3, 4294967297u64),
            ("del 1 4294967296 1", 1, 4294967296),
        ] {
            match EdgeBatch::from_text(text) {
                Err(GraphError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "{text:?}");
                    assert!(message.contains(&format!("vertex id {id} exceeds")), "{message}");
                }
                other => panic!("expected parse error for {text:?}, got {other:?}"),
            }
        }
        let max = EdgeBatch::from_text("add 0 0 4294967295").unwrap();
        assert_eq!(max.inserts(), &[(0, 0, u32::MAX)]);
    }
}
