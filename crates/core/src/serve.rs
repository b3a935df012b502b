//! Serve-from-index: a persistent d-CC hierarchy answering repeat queries.
//!
//! The paper's Section V observation is that the expensive part of a DCCS
//! query — deriving the candidate d-CC for every layer subset — depends only
//! on `(d, s)`, never on `k`. A [`DccIndex`] precomputes those candidate
//! lists once (in parallel on an executor crew, through the same
//! subset-lattice engine the peel path uses) and stores them verbatim, so a
//! later query is **hierarchy lookups + greedy coverage selection with no
//! re-peeling**. The artifact is serialized through the versioned,
//! checksummed frame of [`mlgraph::io::binary`], so it survives across
//! processes and a corrupt or truncated file fails with a typed
//! [`DccsError::IndexCorrupt`] instead of panicking.
//!
//! Bit-identity is by construction: the stored candidate list for `(d, s)`
//! is exactly what the query path's lattice walk ([`crate::lattice`]) emits
//! — same cores, same lexicographic subset order, empty subsets included — so
//! feeding it to the shared greedy selection engine reproduces the peel
//! path's answer (and hence the frozen `naive_subset_cores` oracle) for
//! every `k`. Preprocessing (vertex deletion) cannot perturb this: it only
//! removes vertices that belong to no candidate core, and a peel converges
//! to the same maximal d-CC from any superset seed.
//!
//! The index is **static**: it fingerprints the graph it was built for
//! (vertex/layer counts, per-layer edge counts, an FNV-1a edge hash) and
//! refuses to serve any other graph. Incremental maintenance under edge
//! updates is the ROADMAP's dynamic-graph follow-up.

use crate::algorithm::Algorithm;
use crate::config::DccsParams;
use crate::engine::{PoolRef, SearchContext};
use crate::error::DccsError;
use crate::fault::{self, site};
use crate::greedy::select_greedy;
use crate::lattice::collect_subset_cores;
use crate::limits::QueryMonitor;
use crate::result::{CoherentCore, DccsResult, SearchStats};
use crate::session::DccsSession;
use coreness::CoreHierarchy;
use mlgraph::io::binary::{frame, unframe};
use mlgraph::{MultiLayerGraph, VertexSet};
use std::path::Path;
use std::time::Instant;

/// Magic prefix of serialized [`DccIndex`] artifacts.
pub const INDEX_MAGIC: &[u8; 8] = b"DCCINDEX";
/// Current index artifact format version.
pub const INDEX_VERSION: u32 = 1;

/// How a query derives its candidate cores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Serve {
    /// Serve from the attached [`DccIndex`] when it covers the query's
    /// `(d, s)` and the algorithm is greedy-compatible; peel otherwise.
    #[default]
    Auto,
    /// Always re-peel; never consult the index.
    Peel,
    /// Require the index: fail with [`DccsError::IndexUnavailable`] instead
    /// of falling back to a peel.
    Index,
}

impl Serve {
    /// Stable lowercase name, as accepted by [`Serve::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Serve::Auto => "auto",
            Serve::Peel => "peel",
            Serve::Index => "index",
        }
    }

    /// Parses a serve-mode name as used by the CLI `--serve` flag.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "auto" => Some(Serve::Auto),
            "peel" => Some(Serve::Peel),
            "index" => Some(Serve::Index),
            _ => None,
        }
    }
}

/// Which path actually answered a query, recorded in
/// [`SearchStats::serve`] by the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServePath {
    /// Candidates were derived by peeling the graph.
    Peel,
    /// Candidates were read from a precomputed [`DccIndex`].
    Index,
}

/// One precomputed `(d, s)` candidate list.
#[derive(Clone, Debug, PartialEq, Eq)]
struct IndexEntry {
    d: u32,
    s: usize,
    /// Exactly what `collect_subset_cores` emits: one candidate per layer
    /// subset of size `s`, lexicographic subset order, empties included.
    candidates: Vec<CoherentCore>,
}

/// A persistent d-CC hierarchy index: per-`(d, s)` candidate core lists
/// plus a fingerprint of the graph they were computed from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DccIndex {
    num_vertices: usize,
    num_layers: usize,
    layer_edges: Vec<u64>,
    edge_hash: u64,
    entries: Vec<IndexEntry>,
}

/// FNV-1a mix of one 64-bit word into a running hash.
fn mix(hash: u64, x: u64) -> u64 {
    let mut hash = hash ^ x;
    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    hash
}

/// Order-sensitive FNV-1a hash over every layer's edge list.
fn edge_hash(g: &MultiLayerGraph) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for layer in g.layers() {
        hash = mix(hash, layer.num_edges() as u64);
        for (u, v) in layer.edges() {
            hash = mix(hash, (u64::from(u) << 32) | u64::from(v));
        }
    }
    hash
}

fn corrupt(message: impl Into<String>) -> DccsError {
    DccsError::IndexCorrupt { message: message.into() }
}

impl DccIndex {
    /// Builds an index over every requested coherence threshold `d`, for
    /// all subset sizes `1..=max_s` (`max_s == 0` or anything above the
    /// layer count means "all subset sizes"), sequentially on a fresh
    /// [`DccsSession`] ([`DccsSession::build_index`] builds on a wider
    /// crew).
    pub fn build(g: &MultiLayerGraph, ds: &[u32], max_s: usize) -> Self {
        DccsSession::new(g).build_index(ds, max_s)
    }

    /// Builds the index on a query's context and executor crew: the
    /// subset-lattice walk for each `(d, s)` fans its depth-1 branches out
    /// over `pool`, exactly as a live query would.
    pub(crate) fn build_on(
        ctx: &mut SearchContext,
        pool: &PoolRef<'_>,
        g: &MultiLayerGraph,
        ds: &[u32],
        max_s: usize,
    ) -> Self {
        let l = g.num_layers();
        let max_s = if max_s == 0 { l } else { max_s.min(l) };
        let mut ds = ds.to_vec();
        ds.sort_unstable();
        ds.dedup();

        let hierarchy = CoreHierarchy::build(g);
        let mut entries = Vec::with_capacity(ds.len() * max_s);
        for &d in &ds {
            let layer_cores: Vec<VertexSet> =
                (0..l).map(|layer| hierarchy.d_core(layer, d)).collect();
            for s in 1..=max_s {
                let (candidates, _) = collect_subset_cores(ctx, pool, g, d, s, &layer_cores);
                entries.push(IndexEntry { d, s, candidates });
            }
        }
        DccIndex {
            num_vertices: g.num_vertices(),
            num_layers: l,
            layer_edges: g.layers().iter().map(|layer| layer.num_edges() as u64).collect(),
            edge_hash: edge_hash(g),
            entries,
        }
    }

    /// Vertex count of the fingerprinted graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Layer count of the fingerprinted graph.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Number of `(d, s)` entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Total stored candidate cores across all entries.
    pub fn num_candidates(&self) -> usize {
        self.entries.iter().map(|e| e.candidates.len()).sum()
    }

    /// The distinct `d` values the index covers, ascending.
    pub fn d_values(&self) -> Vec<u32> {
        let mut ds: Vec<u32> = self.entries.iter().map(|e| e.d).collect();
        ds.sort_unstable();
        ds.dedup();
        ds
    }

    /// Per-entry summaries `(d, s, stored candidates)` in storage order.
    pub fn entry_summaries(&self) -> Vec<(u32, usize, usize)> {
        self.entries.iter().map(|e| (e.d, e.s, e.candidates.len())).collect()
    }

    /// The stored candidate list for `(d, s)`, if the index covers it.
    pub fn entry(&self, d: u32, s: usize) -> Option<&[CoherentCore]> {
        self.entries.iter().find(|e| e.d == d && e.s == s).map(|e| e.candidates.as_slice())
    }

    /// Whether the index holds an entry for `(d, s)`.
    pub fn covers(&self, d: u32, s: usize) -> bool {
        self.entry(d, s).is_some()
    }

    /// Checks the fingerprint against `g`; fails with
    /// [`DccsError::IndexUnavailable`] when the index was built for a
    /// different graph.
    pub fn matches(&self, g: &MultiLayerGraph) -> Result<(), DccsError> {
        let same = self.num_vertices == g.num_vertices()
            && self.num_layers == g.num_layers()
            && self
                .layer_edges
                .iter()
                .zip(g.layers())
                .all(|(&m, layer)| m == layer.num_edges() as u64)
            && self.edge_hash == edge_hash(g);
        if same {
            Ok(())
        } else {
            Err(DccsError::IndexUnavailable {
                message: format!(
                    "index fingerprint mismatch: built for {} vertices / {} layers, \
                     graph has {} / {}",
                    self.num_vertices,
                    self.num_layers,
                    g.num_vertices(),
                    g.num_layers()
                ),
            })
        }
    }

    /// Serializes the index into a framed, checksummed byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        let put_u64 = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes());
        let put_u32 = |buf: &mut Vec<u8>, v: u32| buf.extend_from_slice(&v.to_le_bytes());
        put_u64(&mut payload, self.num_vertices as u64);
        put_u64(&mut payload, self.num_layers as u64);
        for &m in &self.layer_edges {
            put_u64(&mut payload, m);
        }
        put_u64(&mut payload, self.edge_hash);
        put_u64(&mut payload, self.entries.len() as u64);
        for entry in &self.entries {
            put_u32(&mut payload, entry.d);
            put_u64(&mut payload, entry.s as u64);
            put_u64(&mut payload, entry.candidates.len() as u64);
            for core in &entry.candidates {
                put_u32(&mut payload, core.layers.len() as u32);
                for &layer in &core.layers {
                    put_u32(&mut payload, layer as u32);
                }
                let words = core.vertices.words();
                put_u64(&mut payload, words.len() as u64);
                for &w in words {
                    put_u64(&mut payload, w);
                }
            }
        }
        frame(INDEX_MAGIC, INDEX_VERSION, &payload)
    }

    /// Deserializes an index from a buffer produced by
    /// [`DccIndex::to_bytes`]. Any malformed input — bad frame, truncated
    /// body, out-of-range layer or vertex ids, trailing bytes — fails with
    /// [`DccsError::IndexCorrupt`]; this function never panics.
    pub fn from_bytes(data: &[u8]) -> Result<Self, DccsError> {
        // Unwrap the frame error's inner message: its `Display` prefix says
        // "graph snapshot", which is wrong for an index artifact.
        let payload = unframe(INDEX_MAGIC, INDEX_VERSION, data).map_err(|e| match e {
            mlgraph::GraphError::Corrupt(msg) => corrupt(msg),
            other => corrupt(other.to_string()),
        })?;
        let mut r = Reader { buf: payload };
        let num_vertices = r.usize64("vertex count")?;
        let num_layers = r.usize64("layer count")?;
        if num_layers == 0 {
            return Err(corrupt("index declares zero layers"));
        }
        let mut layer_edges = Vec::with_capacity(num_layers.min(r.buf.len() / 8 + 1));
        for _ in 0..num_layers {
            layer_edges.push(r.u64("layer edge count")?);
        }
        let edge_hash = r.u64("edge hash")?;
        let num_entries = r.usize64("entry count")?;
        let expected_words = num_vertices.div_ceil(64);
        let mut entries = Vec::new();
        for _ in 0..num_entries {
            let d = r.u32("entry d")?;
            let s = r.usize64("entry s")?;
            if s == 0 || s > num_layers {
                return Err(corrupt(format!("entry declares invalid subset size s={s}")));
            }
            let num_candidates = r.usize64("candidate count")?;
            let mut candidates = Vec::new();
            for _ in 0..num_candidates {
                let subset_len = r.u32("subset length")? as usize;
                if subset_len != s {
                    return Err(corrupt(format!(
                        "candidate subset has {subset_len} layers, entry declares s={s}"
                    )));
                }
                let mut layers = Vec::with_capacity(subset_len);
                for _ in 0..subset_len {
                    let layer = r.u32("subset layer id")? as usize;
                    if layer >= num_layers {
                        return Err(corrupt(format!(
                            "subset layer id {layer} out of range (l={num_layers})"
                        )));
                    }
                    layers.push(layer);
                }
                let num_words = r.usize64("vertex word count")?;
                if num_words != expected_words {
                    return Err(corrupt(format!(
                        "vertex set has {num_words} words, expected {expected_words} \
                         for {num_vertices} vertices"
                    )));
                }
                // Bound the allocation by what the buffer can actually
                // hold, so a mangled vertex count cannot drive a huge
                // allocation before the reads run dry.
                if r.buf.len() < num_words * 8 {
                    return Err(corrupt(format!(
                        "truncated index body reading vertex words: need {} bytes, have {}",
                        num_words * 8,
                        r.buf.len()
                    )));
                }
                let mut vertices = VertexSet::new(num_vertices);
                for word_idx in 0..num_words {
                    let mut word = r.u64("vertex word")?;
                    let base = word_idx * 64;
                    while word != 0 {
                        let bit = word.trailing_zeros() as usize;
                        word &= word - 1;
                        let v = base + bit;
                        if v >= num_vertices {
                            return Err(corrupt(format!(
                                "vertex id {v} out of range (n={num_vertices})"
                            )));
                        }
                        vertices.insert(v as u32);
                    }
                }
                candidates.push(CoherentCore::new(layers, vertices));
            }
            entries.push(IndexEntry { d, s, candidates });
        }
        if !r.buf.is_empty() {
            return Err(corrupt(format!(
                "trailing bytes after index body: {} left over",
                r.buf.len()
            )));
        }
        Ok(DccIndex { num_vertices, num_layers, layer_edges, edge_hash, entries })
    }

    /// Writes the framed artifact to `path`.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), DccsError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes())
            .map_err(|e| corrupt(format!("cannot write {}: {e}", path.display())))
    }

    /// Reads a framed artifact from `path`. I/O failures and corrupt
    /// contents both surface as [`DccsError::IndexCorrupt`].
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, DccsError> {
        let path = path.as_ref();
        let raw = std::fs::read(path)
            .map_err(|e| corrupt(format!("cannot read {}: {e}", path.display())))?;
        Self::from_bytes(&raw)
    }
}

/// Little-endian cursor over the index payload; every read is bounds-checked
/// and fails with [`DccsError::IndexCorrupt`] naming the field that ran dry.
struct Reader<'a> {
    buf: &'a [u8],
}

impl Reader<'_> {
    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], DccsError> {
        if self.buf.len() < n {
            return Err(corrupt(format!(
                "truncated index body reading {what}: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u32(&mut self, what: &str) -> Result<u32, DccsError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, DccsError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A u64 field holding a count or size; rejects values that cannot
    /// possibly fit in the remaining buffer, so a mangled count can never
    /// drive a huge allocation.
    fn usize64(&mut self, what: &str) -> Result<usize, DccsError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| corrupt(format!("{what} {v} overflows usize")))
    }
}

/// Answers a greedy DCCS query from the precomputed index: clone the stored
/// candidate list for `(d, s)` and run the shared greedy selection engine —
/// no preprocessing, no peeling, no lattice walk.
///
/// Limits are honoured at the same coarse granularity as the peel path:
/// each emitted candidate is charged against the budget and the cooperative
/// checkpoint is polled once per candidate plus a final time, so a tripped
/// deadline/token/budget yields the same flagged partial (selection over
/// everything emitted so far) the dispatch layer converts into a typed
/// error.
///
/// The caller (the service's serve routing) has already validated the parameters
/// and checked [`DccIndex::covers`].
pub(crate) fn serve_from_index_on(
    ctx: &mut SearchContext,
    g: &MultiLayerGraph,
    index: &DccIndex,
    params: &DccsParams,
) -> DccsResult {
    let start = Instant::now();
    let mut stats = SearchStats {
        algorithm: Some(Algorithm::Greedy),
        serve: Some(ServePath::Index),
        ..SearchStats::default()
    };

    let stored = index.entry(params.d, params.s).expect("serve routing checked coverage");
    let monitor = ctx.monitor().cloned();
    let monitor = monitor.as_deref();

    let search_start = Instant::now();
    let mut candidates = Vec::with_capacity(stored.len());
    for core in stored {
        if let Some(m) = monitor {
            m.charge_candidates(1);
        }
        candidates.push(core.clone());
        if let Some(kind) = monitor.and_then(QueryMonitor::check) {
            stats.limit_hit = Some(kind);
            stats.complete = false;
            break;
        }
    }
    stats.candidates_generated += candidates.len();
    stats.phase.search = search_start.elapsed();

    // Final poll, mirroring `greedy_dccs_on`: a probe-latched trip that no
    // per-candidate checkpoint observed (e.g. an empty entry) must still
    // flag the run incomplete.
    if stats.complete {
        if let Some(kind) = monitor.and_then(QueryMonitor::check) {
            stats.limit_hit = Some(kind);
            stats.complete = false;
        }
    }

    fault::fire(monitor, site::SELECT);
    let select_start = Instant::now();
    let cores = select_greedy(g.num_vertices(), candidates, params.k, &mut stats, &mut ctx.cover);
    stats.phase.select = select_start.elapsed();
    DccsResult::from_cores(g.num_vertices(), cores, stats, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DccsOptions;
    use crate::engine::with_pool;
    use crate::greedy::greedy_dccs;
    use mlgraph::MultiLayerGraphBuilder;

    /// The greedy module's fixture: two 4-cliques shared across layer pairs
    /// plus a triangle, 10 vertices, 3 layers.
    fn graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(10, 3);
        let clique = |b: &mut MultiLayerGraphBuilder, layer: usize, vs: &[u32]| {
            for i in 0..vs.len() {
                for j in (i + 1)..vs.len() {
                    b.add_edge(layer, vs[i], vs[j]).unwrap();
                }
            }
        };
        clique(&mut b, 0, &[0, 1, 2, 3]);
        clique(&mut b, 1, &[0, 1, 2, 3]);
        clique(&mut b, 1, &[4, 5, 6, 7]);
        clique(&mut b, 2, &[4, 5, 6, 7]);
        clique(&mut b, 2, &[7, 8, 9]);
        b.build()
    }

    #[test]
    fn build_covers_requested_grid_and_counts_binomials() {
        let g = graph();
        let index = DccIndex::build(&g, &[2, 3], 0);
        assert_eq!(index.num_entries(), 6); // 2 d-values × s ∈ {1,2,3}
        for &d in &[2u32, 3] {
            assert_eq!(index.entry(d, 1).unwrap().len(), 3); // C(3,1)
            assert_eq!(index.entry(d, 2).unwrap().len(), 3); // C(3,2)
            assert_eq!(index.entry(d, 3).unwrap().len(), 1); // C(3,3)
        }
        assert!(!index.covers(4, 1));
        assert_eq!(index.d_values(), vec![2, 3]);
    }

    #[test]
    fn stored_candidates_match_a_live_lattice_walk() {
        let g = graph();
        let index = DccIndex::build(&g, &[2], 0);
        let hierarchy = CoreHierarchy::build(&g);
        let layer_cores: Vec<VertexSet> = (0..3).map(|i| hierarchy.d_core(i, 2)).collect();
        let mut ctx = SearchContext::default();
        for s in 1..=3usize {
            let (live, _) =
                with_pool(1, |pool| collect_subset_cores(&mut ctx, pool, &g, 2, s, &layer_cores));
            assert_eq!(index.entry(2, s).unwrap(), live.as_slice(), "s={s}");
        }
    }

    #[test]
    fn serve_matches_peel_for_every_k() {
        let g = graph();
        let index = DccIndex::build(&g, &[2, 3], 0);
        let mut ctx = SearchContext::default();
        for d in [2u32, 3] {
            for s in [1usize, 2, 3] {
                for k in [1usize, 2, 3, 10] {
                    let params = DccsParams::new(d, s, k);
                    let peel = greedy_dccs(&g, &params);
                    let served = serve_from_index_on(&mut ctx, &g, &index, &params);
                    assert_eq!(served.cores, peel.cores, "d={d} s={s} k={k}");
                    assert_eq!(served.cover, peel.cover, "d={d} s={s} k={k}");
                    assert_eq!(
                        served.stats.candidates_generated, peel.stats.candidates_generated,
                        "d={d} s={s} k={k}"
                    );
                    assert_eq!(
                        served.stats.updates_accepted, peel.stats.updates_accepted,
                        "d={d} s={s} k={k}"
                    );
                    assert_eq!(served.stats.serve, Some(ServePath::Index));
                    assert_eq!(served.stats.dcc_calls, 0, "index path must not peel");
                }
            }
        }
    }

    #[test]
    fn threaded_build_matches_sequential_build() {
        let g = graph();
        let seq = DccIndex::build(&g, &[2, 3], 0);
        let par =
            DccsSession::with_options(&g, DccsOptions::with_threads(4)).build_index(&[2, 3], 0);
        assert_eq!(seq, par);
    }

    #[test]
    fn roundtrip_through_bytes_is_exact() {
        let g = graph();
        let index = DccIndex::build(&g, &[2, 3], 0);
        let bytes = index.to_bytes();
        let loaded = DccIndex::from_bytes(&bytes).unwrap();
        assert_eq!(index, loaded);
    }

    #[test]
    fn fingerprint_rejects_a_different_graph() {
        let g = graph();
        let index = DccIndex::build(&g, &[2], 0);
        assert!(index.matches(&g).is_ok());
        let mut b = MultiLayerGraphBuilder::new(10, 3);
        b.add_edge(0, 0, 1).unwrap();
        let other = b.build();
        let err = index.matches(&other).unwrap_err();
        assert!(matches!(err, DccsError::IndexUnavailable { .. }));
    }

    #[test]
    fn every_truncation_fails_with_typed_error() {
        let g = graph();
        let bytes = DccIndex::build(&g, &[2], 2).to_bytes();
        for cut in 0..bytes.len() {
            let err = DccIndex::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, DccsError::IndexCorrupt { .. }), "cut at {cut}");
        }
    }

    #[test]
    fn byte_flips_fail_with_typed_error() {
        let g = graph();
        let bytes = DccIndex::build(&g, &[2], 2).to_bytes();
        for pos in [0, 8, 12, 20, 28, bytes.len() / 2, bytes.len() - 1] {
            let mut mangled = bytes.clone();
            mangled[pos] ^= 0x5a;
            let err = DccIndex::from_bytes(&mangled).unwrap_err();
            assert!(matches!(err, DccsError::IndexCorrupt { .. }), "flip at {pos}");
        }
    }

    #[test]
    fn max_s_limits_the_entry_grid() {
        let g = graph();
        let index = DccIndex::build(&g, &[2], 2);
        assert!(index.covers(2, 1));
        assert!(index.covers(2, 2));
        assert!(!index.covers(2, 3));
    }
}
