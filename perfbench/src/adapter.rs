//! Every call the benchmark makes into the system under test: snapshot
//! load, sessions, the query service, commits, the layer replays, and the
//! answer checks. A change to the query API edits this file only.

use coreness::{is_d_dense_multilayer, PeelWorkspace};
use dccs::preprocess::{initial_layer_cores, preprocess_from};
pub use dccs::{Algorithm, CommitReceipt, DccsResult, IndexPath, SearchStats};
use dccs::{DccsOptions, DccsParams, DccsSession, GraphSnapshot, QueryService, ServiceQuery};
pub use mlgraph::{EdgeBatch, MultiLayerGraph as Graph, VertexSet};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One query as the workloads name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Key {
    pub d: u32,
    pub s: usize,
    pub k: usize,
    pub alg: Algorithm,
}

impl Key {
    pub fn new(d: u32, s: usize, k: usize, alg: Algorithm) -> Self {
        Key { d, s, k, alg }
    }

    fn params(self) -> DccsParams {
        DccsParams::new(self.d, self.s, self.k)
    }
}

/// Loads an `MLGRAPH2` snapshot (`mlgraph::io::read_binary`).
pub fn load(path: &Path) -> Result<Graph, String> {
    mlgraph::io::read_binary(path).map_err(|e| format!("load {}: {e}", path.display()))
}

/// Writes an `MLGRAPH2` snapshot (input preparation, untimed).
pub fn save(g: &Graph, path: &Path) -> Result<(), String> {
    mlgraph::io::write_binary(g, path).map_err(|e| format!("save {}: {e}", path.display()))
}

/// A long-lived session at `threads` intra-query threads.
pub type Session<'g> = DccsSession<'g>;

pub fn session(g: &Graph, threads: usize) -> Session<'_> {
    DccsSession::with_options(g, DccsOptions::with_threads(threads))
}

pub fn session_query(session: &mut Session<'_>, key: Key) -> Result<DccsResult, String> {
    session.query(key.params()).algorithm(key.alg).run().map_err(|e| format!("{key:?}: {e}"))
}

/// A cold one-shot query, as `dccs run` issues it: a fresh session per
/// query.
pub fn one_shot(g: &Graph, key: Key, threads: usize) -> Result<DccsResult, String> {
    session_query(&mut session(g, threads), key)
}

/// The concurrent query service over one graph.
pub type Service<'g> = QueryService<'g>;
pub type Snapshot<'g> = Arc<GraphSnapshot<'g>>;

pub fn service(g: &Graph) -> Service<'_> {
    QueryService::new(g, DccsOptions::default())
}

/// A service sharing a session's snapshot (and its warm shared tier).
pub fn service_over<'g>(session: &Session<'g>) -> Service<'g> {
    QueryService::over(session.snapshot().clone(), DccsOptions::default())
}

/// A second service over `svc`'s current snapshot (and its warm tier).
pub fn service_sharing<'g>(svc: &Service<'g>) -> Service<'g> {
    QueryService::over(svc.snapshot(), DccsOptions::default())
}

pub fn service_query(svc: &Service<'_>, key: Key) -> Result<DccsResult, String> {
    let query = ServiceQuery::new(key.params()).with_algorithm(key.alg);
    svc.query(&query).map_err(|e| format!("{key:?}: {e}"))
}

pub fn commit(svc: &Service<'_>, batch: &EdgeBatch) -> Result<CommitReceipt, String> {
    svc.commit(batch).map_err(|e| format!("commit: {e}"))
}

/// The currently published snapshot (a pin on its graph version).
pub fn pin<'g>(svc: &Service<'g>) -> Snapshot<'g> {
    svc.snapshot()
}

pub fn epoch_of(snapshot: &Snapshot<'_>) -> u64 {
    snapshot.epoch()
}

pub fn graph_of<'a>(snapshot: &'a Snapshot<'_>) -> &'a Graph {
    snapshot.graph()
}

/// (hits, misses) of the service's result cache.
pub fn cache_counts(svc: &Service<'_>) -> (u64, u64) {
    let stats = svc.cache_stats();
    (stats.hits, stats.misses)
}

/// Replays `coreness`' per-layer d-core peel over the full vertex set
/// (`initial_layer_cores`): returns its wall time and the cores.
pub fn replay_layer_cores(g: &Graph, d: u32) -> (Duration, Vec<VertexSet>) {
    let mut ws = PeelWorkspace::new();
    let start = Instant::now();
    let cores = initial_layer_cores(g, d, &mut ws);
    (start.elapsed(), cores)
}

/// Replays the vertex-deletion fixpoint (`preprocess_from`) from given
/// initial layer cores: returns its wall time and the vertices deleted.
pub fn replay_fixpoint(g: &Graph, key: Key, cores: Vec<VertexSet>) -> (Duration, usize) {
    let mut ws = PeelWorkspace::new();
    let start = Instant::now();
    let pre = preprocess_from(g, &key.params(), &DccsOptions::default(), &mut ws, cores);
    (start.elapsed(), pre.vertices_deleted)
}

/// Replays one commit's layer work the way `QueryService::commit` does
/// it: `MultiLayerGraph::apply_batch`, then `repair_d_core` on every
/// touched layer for every materialized `d`. `cores` holds, per `d`, the
/// layer cores before the batch and is repaired in place. Returns the
/// apply time, the repair time and the next graph version.
pub fn replay_commit(
    g: &Graph,
    batch: &EdgeBatch,
    cores: &mut [(u32, Vec<VertexSet>)],
) -> Result<(Duration, Duration, Graph), String> {
    let start = Instant::now();
    let (next, applied) = g.apply_batch(batch).map_err(|e| format!("apply_batch: {e}"))?;
    let apply = start.elapsed();
    let start = Instant::now();
    let mut ws = PeelWorkspace::new();
    for (d, layer_cores) in cores.iter_mut() {
        for delta in &applied.layers {
            let mut out = VertexSet::new(next.num_vertices());
            let old = &layer_cores[delta.layer];
            ws.repair_d_core(next.layer(delta.layer), *d, old, &delta.inserted, &mut out);
            layer_cores[delta.layer] = out;
        }
    }
    Ok((apply, start.elapsed(), next))
}

/// Checks one answer against the graph it was computed on: at most `k`
/// cores, each over exactly `s` distinct layers and d-dense on all of them,
/// and a cover equal to the union of the cores.
pub fn check_answer(g: &Graph, key: Key, r: &DccsResult) -> Result<(), String> {
    if r.cores.len() > key.k {
        return Err(format!("{key:?}: {} cores > k", r.cores.len()));
    }
    let mut union = VertexSet::new(g.num_vertices());
    for core in &r.cores {
        let mut layers = core.layers.clone();
        layers.dedup();
        if layers.len() != key.s || layers.iter().any(|&l| l >= g.num_layers()) {
            return Err(format!("{key:?}: core over layers {:?}", core.layers));
        }
        if !is_d_dense_multilayer(g, &core.layers, &core.vertices, key.d) {
            return Err(format!("{key:?}: core over {:?} is not d-dense", core.layers));
        }
        union.union_with(&core.vertices);
    }
    if union != r.cover {
        return Err(format!("{key:?}: cover is not the union of the cores"));
    }
    Ok(())
}

/// A hash of an answer's cores and cover: equal answers, equal
/// fingerprints (the hasher's keys are fixed).
pub fn fingerprint(r: &DccsResult) -> u64 {
    let mut h = DefaultHasher::new();
    for core in &r.cores {
        core.layers.hash(&mut h);
        core.vertices.words().hash(&mut h);
    }
    r.cover.words().hash(&mut h);
    h.finish()
}
