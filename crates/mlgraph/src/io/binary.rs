//! Compact binary snapshot format for multi-layer graphs.
//!
//! Every snapshot is wrapped in a versioned, checksummed frame so that a
//! truncated or corrupted file fails with a typed [`GraphError::Corrupt`]
//! instead of panicking (or silently decoding garbage) mid-deserialize:
//!
//! ```text
//! magic       : 8 bytes  b"MLGRAPH2"
//! version     : u32      format version (currently 1)
//! payload len : u64      exact byte length of the payload
//! checksum    : u64      FNV-1a 64-bit hash of the payload
//! payload     : ...      format-specific body
//! ```
//!
//! The graph payload itself (little-endian):
//!
//! ```text
//! n          : u64      number of vertices
//! l          : u64      number of layers
//! per layer  : u64 edge count, then edge pairs as (u32, u32)
//! labels flag: u8       1 if vertex labels follow
//! labels     : for each vertex: u32 length + utf-8 bytes
//! layer names: for each layer: u32 length + utf-8 bytes
//! ```
//!
//! The framing helpers ([`frame`], [`unframe`], [`checksum64`]) are public
//! so other on-disk artifacts (notably the d-CC hierarchy index in the
//! `dccs` crate) get the same header + checksum treatment without
//! reimplementing it.

use crate::builder::MultiLayerGraphBuilder;
use crate::error::{GraphError, Result};
use crate::graph::MultiLayerGraph;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
use std::path::Path;

/// Magic prefix of framed graph snapshots.
pub const GRAPH_MAGIC: &[u8; 8] = b"MLGRAPH2";
/// Current graph snapshot format version.
pub const GRAPH_VERSION: u32 = 1;
/// Magic prefix of the legacy (unframed, unchecksummed) snapshot format.
const LEGACY_MAGIC: &[u8; 8] = b"MLGRAPH1";
/// Byte length of the frame header: magic + version + payload len + checksum.
const FRAME_HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// FNV-1a 64-bit hash of `data`.
///
/// Used as the frame checksum; dependency-free and deterministic across
/// platforms (the hash is defined on bytes, not on native word order).
pub fn checksum64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Wraps `payload` in a versioned frame: magic, version, payload length,
/// FNV-1a checksum, then the payload bytes.
pub fn frame(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates the frame around `data` and returns the payload slice.
///
/// Fails with [`GraphError::Corrupt`] on a short header, wrong magic,
/// unsupported version, payload-length mismatch (truncation or trailing
/// bytes), or checksum mismatch — never panics on malformed input.
pub fn unframe<'a>(magic: &[u8; 8], version: u32, data: &'a [u8]) -> Result<&'a [u8]> {
    if data.len() < FRAME_HEADER_LEN {
        return Err(GraphError::Corrupt(format!(
            "truncated header: need {FRAME_HEADER_LEN} bytes, have {}",
            data.len()
        )));
    }
    let found_magic = &data[..8];
    if found_magic != magic {
        if found_magic == LEGACY_MAGIC && magic == GRAPH_MAGIC {
            return Err(GraphError::Corrupt(
                "legacy MLGRAPH1 snapshot; regenerate it with this version".into(),
            ));
        }
        return Err(GraphError::Corrupt(format!(
            "bad magic {:?}: expected {:?}",
            String::from_utf8_lossy(found_magic),
            String::from_utf8_lossy(magic)
        )));
    }
    let found_version = u32::from_le_bytes(data[8..12].try_into().unwrap());
    if found_version != version {
        return Err(GraphError::Corrupt(format!(
            "unsupported format version {found_version} (expected {version})"
        )));
    }
    let declared_len = u64::from_le_bytes(data[12..20].try_into().unwrap());
    let payload = &data[FRAME_HEADER_LEN..];
    if declared_len != payload.len() as u64 {
        return Err(GraphError::Corrupt(format!(
            "payload length mismatch: header declares {declared_len} bytes, {} present",
            payload.len()
        )));
    }
    let declared_sum = u64::from_le_bytes(data[20..28].try_into().unwrap());
    let computed_sum = checksum64(payload);
    if declared_sum != computed_sum {
        return Err(GraphError::Corrupt(format!(
            "checksum mismatch: stored {declared_sum:#018x}, computed {computed_sum:#018x}"
        )));
    }
    Ok(payload)
}

/// Serializes `g` into a framed byte buffer.
pub fn to_bytes(g: &MultiLayerGraph) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + g.total_edges() * 8);
    buf.put_u64_le(g.num_vertices() as u64);
    buf.put_u64_le(g.num_layers() as u64);
    for layer in g.layers() {
        buf.put_u64_le(layer.num_edges() as u64);
        for (u, v) in layer.edges() {
            buf.put_u32_le(u);
            buf.put_u32_le(v);
        }
    }
    match g.vertex_labels() {
        Some(labels) => {
            buf.put_u8(1);
            for label in labels {
                buf.put_u32_le(label.len() as u32);
                buf.put_slice(label.as_bytes());
            }
        }
        None => buf.put_u8(0),
    }
    for i in 0..g.num_layers() {
        let name = g.layer_name(i);
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name.as_bytes());
    }
    Bytes::from(frame(GRAPH_MAGIC, GRAPH_VERSION, &buf.freeze()))
}

fn ensure(buf: &Bytes, needed: usize) -> Result<()> {
    if buf.remaining() < needed {
        Err(GraphError::Corrupt(format!(
            "unexpected end of snapshot: need {needed} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

fn read_string(buf: &mut Bytes) -> Result<String> {
    ensure(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    ensure(buf, len)?;
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec())
        .map_err(|_| GraphError::Corrupt("string field is not valid utf-8".into()))
}

/// Deserializes a graph from a framed byte buffer produced by [`to_bytes`].
pub fn from_bytes(buf: Bytes) -> Result<MultiLayerGraph> {
    unframe(GRAPH_MAGIC, GRAPH_VERSION, &buf)?;
    let mut buf = buf.slice(FRAME_HEADER_LEN..buf.len());
    ensure(&buf, 16)?;
    let n = buf.get_u64_le() as usize;
    let l = buf.get_u64_le() as usize;
    if l == 0 {
        return Err(GraphError::Corrupt("snapshot declares zero layers".into()));
    }
    let mut builder = MultiLayerGraphBuilder::new(n, l);
    for layer in 0..l {
        ensure(&buf, 8)?;
        let m = buf.get_u64_le() as usize;
        ensure(&buf, m * 8)?;
        for _ in 0..m {
            let u = buf.get_u32_le();
            let v = buf.get_u32_le();
            builder
                .add_edge(layer, u, v)
                .map_err(|e| GraphError::Corrupt(format!("invalid edge in snapshot: {e}")))?;
        }
    }
    ensure(&buf, 1)?;
    let has_labels = buf.get_u8() == 1;
    let labels = if has_labels {
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            labels.push(read_string(&mut buf)?);
        }
        Some(labels)
    } else {
        None
    };
    let mut names = Vec::with_capacity(l);
    for _ in 0..l {
        names.push(read_string(&mut buf)?);
    }
    if !buf.is_empty() {
        return Err(GraphError::Corrupt(format!(
            "trailing bytes after snapshot body: {} left over",
            buf.len()
        )));
    }
    // The builder runs in index mode, so the labels and names are attached
    // by re-assembling its layers, moved rather than copied.
    Ok(MultiLayerGraph::from_parts(builder.build().into_layers(), labels, names))
}

/// Writes a binary snapshot of `g` to `path`.
pub fn write_binary<P: AsRef<Path>>(g: &MultiLayerGraph, path: P) -> Result<()> {
    let bytes = to_bytes(g);
    let mut file = std::fs::File::create(path)?;
    file.write_all(&bytes)?;
    Ok(())
}

/// Reads a binary snapshot from `path`.
pub fn read_binary<P: AsRef<Path>>(path: P) -> Result<MultiLayerGraph> {
    let mut file = std::fs::File::open(path)?;
    let mut raw = Vec::new();
    file.read_to_end(&mut raw)?;
    from_bytes(Bytes::from(raw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MultiLayerGraphBuilder;

    fn labeled_graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::with_labels(2);
        b.add_labeled_edge(0, "a", "b").unwrap();
        b.add_labeled_edge(0, "b", "c").unwrap();
        b.add_labeled_edge(1, "a", "c").unwrap();
        b.set_layer_names(&["first", "second"]);
        b.build()
    }

    #[test]
    fn roundtrip_labeled() {
        let g = labeled_graph();
        let bytes = to_bytes(&g);
        let g2 = from_bytes(bytes).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.vertex_label(1), Some("b"));
        assert_eq!(g2.layer_name(1), "second");
    }

    #[test]
    fn roundtrip_unlabeled() {
        let g = MultiLayerGraph::from_edge_lists(4, &[vec![(0, 1)], vec![(2, 3), (0, 3)]]).unwrap();
        let g2 = from_bytes(to_bytes(&g)).unwrap();
        assert_eq!(g, g2);
        assert!(g2.vertex_labels().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = from_bytes(Bytes::from_static(b"NOTAGRPH\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")).unwrap_err();
        assert!(matches!(err, GraphError::Corrupt(_)));
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn legacy_magic_reported_clearly() {
        let mut raw = Vec::new();
        raw.extend_from_slice(b"MLGRAPH1");
        raw.extend_from_slice(&[0u8; 32]);
        let err = from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("legacy MLGRAPH1"));
    }

    #[test]
    fn wrong_version_rejected() {
        let g = labeled_graph();
        let mut raw = to_bytes(&g).to_vec();
        raw[8] = raw[8].wrapping_add(1);
        let err = from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("unsupported format version"));
    }

    #[test]
    fn every_truncation_fails_with_typed_error() {
        let g = labeled_graph();
        let bytes = to_bytes(&g);
        for cut in 0..bytes.len() {
            let err = from_bytes(bytes.slice(0..cut)).unwrap_err();
            assert!(matches!(err, GraphError::Corrupt(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn byte_flip_fails_checksum() {
        let g = labeled_graph();
        let base = to_bytes(&g).to_vec();
        // Flip a payload byte: the checksum catches it before decode.
        let mut raw = base.clone();
        let mid = 28 + (raw.len() - 28) / 2;
        raw[mid] ^= 0x40;
        let err = from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "got: {err}");
        // Flip a stored-checksum byte: same typed failure.
        let mut raw = base;
        raw[20] ^= 0x01;
        assert!(from_bytes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let g = labeled_graph();
        let mut raw = to_bytes(&g).to_vec();
        raw.push(0);
        let err = from_bytes(Bytes::from(raw)).unwrap_err();
        // An appended byte shows up as a payload-length mismatch.
        assert!(err.to_string().contains("length mismatch"), "got: {err}");
    }

    #[test]
    fn empty_buffer_rejected() {
        assert!(from_bytes(Bytes::new()).is_err());
    }

    #[test]
    fn frame_helpers_roundtrip() {
        let payload = b"hello index payload";
        let framed = frame(b"DCCINDEX", 7, payload);
        assert_eq!(unframe(b"DCCINDEX", 7, &framed).unwrap(), payload);
        assert!(unframe(b"MLGRAPH2", 7, &framed).is_err());
        assert!(unframe(b"DCCINDEX", 8, &framed).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let g = labeled_graph();
        let dir = std::env::temp_dir().join("mlgraph_binary_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.bin");
        write_binary(&g, &path).unwrap();
        let g2 = read_binary(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }
}
