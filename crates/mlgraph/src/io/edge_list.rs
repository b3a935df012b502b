//! Plain-text multi-layer edge list format.
//!
//! Each non-empty, non-comment line is `src dst layer`, whitespace-separated.
//! Vertices are arbitrary string labels (interned in first-seen order);
//! layers are non-negative integers. Lines starting with `#` or `%` are
//! comments.
//!
//! ```text
//! # a tiny two-layer graph
//! a b 0
//! b c 0
//! a c 1
//! ```

use crate::builder::MultiLayerGraphBuilder;
use crate::error::{GraphError, Result};
use crate::graph::MultiLayerGraph;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Parses the edge-list format from any buffered reader.
pub fn parse_edge_list<R: BufRead>(reader: R) -> Result<MultiLayerGraph> {
    // Each record keeps its file line, so errors found while building
    // (self loops) name the line the user wrote.
    let mut records: Vec<(usize, String, String, usize)> = Vec::new();
    let mut num_layers = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (Some(src), Some(dst), Some(layer)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(GraphError::Parse {
                line: line_no,
                message: format!("expected `src dst layer`, got `{trimmed}`"),
            });
        };
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "too many fields; expected exactly 3".into(),
            });
        }
        let layer: usize = layer.parse().map_err(|_| GraphError::Parse {
            line: line_no,
            message: format!("layer `{layer}` is not a non-negative integer"),
        })?;
        // Layer `usize::MAX` would need one layer more than `usize` counts.
        let count = layer.checked_add(1).ok_or_else(|| GraphError::Parse {
            line: line_no,
            message: format!("layer `{layer}` is too large: the layer count would overflow"),
        })?;
        num_layers = num_layers.max(count);
        records.push((line_no, src.to_string(), dst.to_string(), layer));
    }
    if records.is_empty() {
        return Err(GraphError::InvalidArgument("edge list contains no edges".into()));
    }
    let mut builder = MultiLayerGraphBuilder::with_labels(num_layers);
    for (line_no, src, dst, layer) in &records {
        builder.add_labeled_edge(*layer, src, dst).map_err(|e| match e {
            GraphError::SelfLoop { vertex } => GraphError::Parse {
                line: *line_no,
                message: format!("self loop on vertex {vertex} (label `{src}`)"),
            },
            other => other,
        })?;
    }
    Ok(builder.build())
}

/// Reads the edge-list format from a file path.
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> Result<MultiLayerGraph> {
    let file = std::fs::File::open(path)?;
    parse_edge_list(BufReader::new(file))
}

/// Writes `g` in the edge-list format. Vertex labels are used when present,
/// otherwise the numeric index is written.
pub fn write_edge_list<W: Write>(g: &MultiLayerGraph, mut writer: W) -> Result<()> {
    writeln!(writer, "# multi-layer edge list: src dst layer")?;
    writeln!(writer, "# vertices={} layers={}", g.num_vertices(), g.num_layers())?;
    for (i, layer) in g.layers().iter().enumerate() {
        for (u, v) in layer.edges() {
            match (g.vertex_label(u), g.vertex_label(v)) {
                (Some(lu), Some(lv)) => writeln!(writer, "{lu} {lv} {i}")?,
                _ => writeln!(writer, "{u} {v} {i}")?,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "# comment\n\
        a b 0\n\
        b c 0\n\
        % another comment\n\
        \n\
        a c 1\n";

    #[test]
    fn parses_sample() {
        let g = parse_edge_list(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_layers(), 2);
        assert_eq!(g.layer(0).num_edges(), 2);
        assert_eq!(g.layer(1).num_edges(), 1);
        assert_eq!(g.vertex_label(0), Some("a"));
    }

    #[test]
    fn rejects_missing_fields() {
        let err = parse_edge_list(Cursor::new("a b\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_extra_fields() {
        let err = parse_edge_list(Cursor::new("a b 0 extra\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn rejects_non_numeric_layer() {
        let err = parse_edge_list(Cursor::new("a b x\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn rejects_a_layer_id_whose_count_overflows_on_its_own_line() {
        let text = format!("a b 3\nc d {}\n", usize::MAX);
        let err = parse_edge_list(Cursor::new(text)).unwrap_err();
        match err {
            GraphError::Parse { line: 2, message } => {
                assert!(message.contains(&usize::MAX.to_string()), "{message}")
            }
            other => panic!("expected a parse error on line 2, got {other:?}"),
        }
    }

    #[test]
    fn rejects_empty_input() {
        let err = parse_edge_list(Cursor::new("# only comments\n")).unwrap_err();
        assert!(matches!(err, GraphError::InvalidArgument(_)));
    }

    #[test]
    fn rejects_self_loop() {
        let err = parse_edge_list(Cursor::new("a a 0\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn self_loop_error_names_its_file_line() {
        let err = parse_edge_list(Cursor::new("# header\n\na b 0\nc c 0\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 4, .. }), "{err:?}");
    }

    #[test]
    fn roundtrip_write_then_parse() {
        let g = parse_edge_list(Cursor::new(SAMPLE)).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = parse_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_layers(), g.num_layers());
        assert_eq!(g2.total_edges(), g.total_edges());
    }

    #[test]
    fn file_roundtrip() {
        let g = parse_edge_list(Cursor::new(SAMPLE)).unwrap();
        let dir = std::env::temp_dir().join("mlgraph_edge_list_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.edges");
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        std::fs::write(&path, buf).unwrap();
        let g2 = read_edge_list(&path).unwrap();
        assert_eq!(g2.total_edges(), g.total_edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unlabeled_graph_written_with_indices() {
        let g = MultiLayerGraph::from_edge_lists(3, &[vec![(0, 1), (1, 2)]]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("0 1 0"));
        assert!(text.contains("1 2 0"));
    }
}
