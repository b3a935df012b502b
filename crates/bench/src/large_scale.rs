//! The million-vertex bench tier: end-to-end generation, preprocessing,
//! warm-session query throughput and warm-service commit latency on
//! streaming Chung–Lu graphs, with peak-RSS and allocator-peak memory
//! accounting.
//!
//! The standard `BENCH_dcc.json` groups measure the engine on paper-scale
//! analogues (hundreds to tens of thousands of vertices). This tier drives
//! the full query path — candidate-universe construction, the dense-vs-CSR
//! index cost model, and the peel cascade — on graphs of 10^6+ vertices and
//! 10^7+ edges, whose candidate universes are far too large for flat dense
//! rows, so the search peels the CSR adjacency in place and builds no index.
//!
//! Memory is accounted two ways, both best-effort:
//!
//! * **peak RSS** — `VmHWM` from `/proc/self/status` (0 where absent), the
//!   OS-observed high-water mark of the whole process;
//! * **peak allocated bytes** — a counting [`std::alloc::GlobalAlloc`]
//!   wrapper installed by the `bench_dcc` binary through
//!   [`install_alloc_probe`] (0 when no probe is installed, e.g. under
//!   `cargo test`, where the library cannot own the global allocator).

use dccs::{
    Algorithm, DccsOptions, DccsParams, DccsSession, IndexPath, QueryService, ServiceQuery,
};
use mlgraph::generators::{chung_lu_layers, ChungLuConfig};
use mlgraph::{EdgeBatch, MultiLayerGraph, Vertex};
use serde_json::Value;
use std::sync::OnceLock;
use std::time::Instant;

/// Hooks into a counting global allocator owned by the host binary. The
/// library cannot install a `#[global_allocator]` itself (it forbids
/// `unsafe`, and a library-owned allocator would impose the tracking tax
/// on every dependent); the binary installs one and hands these two
/// function pointers over before running the suite.
#[derive(Clone, Copy)]
pub struct AllocProbe {
    /// Resets the allocator's peak counter to its current level.
    pub reset_peak: fn(),
    /// Reads the peak allocated-bytes counter.
    pub peak_bytes: fn() -> usize,
}

static ALLOC_PROBE: OnceLock<AllocProbe> = OnceLock::new();

/// Installs the binary's allocator probe. Later calls are ignored (the
/// first probe wins); the suite works without one, recording 0.
pub fn install_alloc_probe(probe: AllocProbe) {
    let _ = ALLOC_PROBE.set(probe);
}

fn reset_alloc_peak() {
    if let Some(probe) = ALLOC_PROBE.get() {
        (probe.reset_peak)();
    }
}

fn alloc_peak_bytes() -> usize {
    ALLOC_PROBE.get().map_or(0, |probe| (probe.peak_bytes)())
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where the proc file is absent or unreadable.
pub fn peak_rss_bytes() -> usize {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: usize = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// One large-scale measurement: a query shape driven through a warm
/// [`DccsSession`] on one generated graph, with the graph-shape, timing,
/// and memory columns the tier exists to record.
#[derive(Clone, Debug)]
pub struct LargeScaleMeasurement {
    /// Graph name (generator + shape).
    pub dataset: String,
    /// Number of vertices.
    pub vertices: usize,
    /// Number of layers.
    pub layers: usize,
    /// Total edge count summed over layers.
    pub edges: usize,
    /// Degree threshold.
    pub d: u32,
    /// Layer-subset size.
    pub s: usize,
    /// Result budget.
    pub k: usize,
    /// Executor width of the queries (`bench_dcc --threads`); the commit
    /// probes repair on the committing thread.
    pub threads: usize,
    /// Wall time of graph generation, seconds (shared across the
    /// measurements on one graph).
    pub generate_secs: f64,
    /// Preprocessing (vertex deletion + per-layer core fixpoints) wall
    /// time of the cold query, seconds.
    pub preprocess_secs: f64,
    /// Mean preprocessing phase of the warm queries, seconds — a lookup in
    /// the session's fixpoint memo, so it sits far below
    /// [`LargeScaleMeasurement::preprocess_secs`].
    pub warm_preprocess_secs: f64,
    /// Wall time of the cold (first) query, seconds.
    pub cold_query_secs: f64,
    /// Number of warm queries timed.
    pub warm_queries: usize,
    /// Total wall time of the warm queries, seconds.
    pub warm_secs: f64,
    /// `|Cov(R)|` of the answer (identical cold and warm).
    pub cover: usize,
    /// Adjacency representation the cost model picked (greedy records it).
    pub index_path: IndexPath,
    /// Heap bytes of the peeled adjacency index ([`dccs::SearchStats`]).
    pub index_bytes: usize,
    /// Capacity bytes of the peel workspace scratch buffers.
    pub peel_scratch_bytes: usize,
    /// Process peak RSS in bytes after the queries (0 where unavailable).
    pub peak_rss_bytes: usize,
    /// Peak allocated bytes over generation + queries (0 without a probe).
    pub peak_alloc_bytes: usize,
    /// Median wall time of [`COMMIT_PROBES`] mixed 16-edge commits on a
    /// warm [`QueryService`] holding this record's `d`, in milliseconds
    /// ([`median_commit_ms`]; 0 until [`large_scale_suite`] fills it in).
    pub commit_ms: f64,
}

impl LargeScaleMeasurement {
    /// Warm queries answered per second.
    pub fn throughput_qps(&self) -> f64 {
        if self.warm_secs <= 0.0 {
            return 0.0;
        }
        self.warm_queries as f64 / self.warm_secs
    }

    /// Renders the measurement as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("dataset", Value::from(self.dataset.as_str())),
            ("vertices", Value::from(self.vertices)),
            ("layers", Value::from(self.layers)),
            ("edges", Value::from(self.edges)),
            ("d", Value::from(self.d)),
            ("s", Value::from(self.s)),
            ("k", Value::from(self.k)),
            ("threads", Value::from(self.threads)),
            ("generate_secs", Value::from(self.generate_secs)),
            ("preprocess_secs", Value::from(self.preprocess_secs)),
            ("warm_preprocess_secs", Value::from(self.warm_preprocess_secs)),
            ("cold_query_secs", Value::from(self.cold_query_secs)),
            ("warm_queries", Value::from(self.warm_queries)),
            ("warm_secs", Value::from(self.warm_secs)),
            ("throughput_qps", Value::from(self.throughput_qps())),
            ("cover", Value::from(self.cover)),
            ("index_path", Value::from(format!("{:?}", self.index_path))),
            ("index_bytes", Value::from(self.index_bytes)),
            ("peel_scratch_bytes", Value::from(self.peel_scratch_bytes)),
            ("peak_rss_bytes", Value::from(self.peak_rss_bytes)),
            ("peak_alloc_bytes", Value::from(self.peak_alloc_bytes)),
            ("commit_ms", Value::from(self.commit_ms)),
        ])
    }
}

/// Total edge count summed over the graph's layers.
fn total_edges(g: &MultiLayerGraph) -> usize {
    g.layers().iter().map(mlgraph::Csr::num_edges).sum()
}

/// Drives one query shape through a warm session on `g` at `threads`
/// executor width: one cold query
/// (whose phase split yields the preprocessing fixpoint cost), then
/// `warm_queries` timed repeats asserted bit-identical to it (cores, cover
/// and work counters) and whose preprocessing must come from the memo. The
/// greedy algorithm is pinned — it is the one that peels through the
/// engine's planned adjacency index, so its stats carry the
/// `index_path` / `index_bytes` columns this tier exists to observe.
#[allow(clippy::too_many_arguments)]
pub fn measure_large_scale(
    g: &MultiLayerGraph,
    dataset: &str,
    generate_secs: f64,
    d: u32,
    s: usize,
    k: usize,
    warm_queries: usize,
    threads: usize,
) -> LargeScaleMeasurement {
    let params = DccsParams::new(d, s.min(g.num_layers()).max(1), k);
    let mut session = DccsSession::with_options(g, DccsOptions::with_threads(threads));

    let cold_start = Instant::now();
    let cold = session
        .query(params)
        .algorithm(Algorithm::Greedy)
        .run()
        .expect("unlimited large-scale bench query");
    let cold_query_secs = cold_start.elapsed().as_secs_f64();

    let warm_queries = warm_queries.max(1);
    let mut warm_preprocess_secs = 0.0;
    let warm_start = Instant::now();
    for _ in 0..warm_queries {
        let warm = session
            .query(params)
            .algorithm(Algorithm::Greedy)
            .run()
            .expect("unlimited large-scale bench query");
        assert!(
            warm.cores == cold.cores && warm.cover == cold.cover && warm.stats == cold.stats,
            "warm answers diverged from the cold query on {dataset}"
        );
        assert!(warm.stats.preprocess_memo_hit, "warm query on {dataset} re-ran preprocessing");
        warm_preprocess_secs += warm.stats.phase.preprocess.as_secs_f64();
    }
    let warm_secs = warm_start.elapsed().as_secs_f64();

    LargeScaleMeasurement {
        dataset: dataset.to_string(),
        vertices: g.num_vertices(),
        layers: g.num_layers(),
        edges: total_edges(g),
        d,
        s: params.s,
        k,
        threads,
        generate_secs,
        preprocess_secs: cold.stats.phase.preprocess.as_secs_f64(),
        warm_preprocess_secs: warm_preprocess_secs / warm_queries as f64,
        cold_query_secs,
        warm_queries,
        warm_secs,
        cover: cold.cover_size(),
        index_path: cold.stats.index_path.unwrap_or(IndexPath::Csr),
        index_bytes: cold.stats.index_bytes,
        peel_scratch_bytes: cold.stats.peel_scratch_bytes,
        peak_rss_bytes: peak_rss_bytes(),
        peak_alloc_bytes: alloc_peak_bytes(),
        commit_ms: 0.0,
    }
}

/// Commits timed per record by [`median_commit_ms`].
pub const COMMIT_PROBES: usize = 8;

/// Median wall time, in milliseconds, of [`COMMIT_PROBES`] chained commits
/// on a warm [`QueryService`] over `g`. One greedy query at `(d, s, k)`
/// first materializes the service's layer cores for `d`, so every commit
/// repairs them. Each batch has 16 edges on random layers, drawn from a
/// fixed seed: 12 inserts of absent pairs and 4 deletes of present edges of
/// the version it lands on. Each commit keeps the version it replaces
/// pinned across the call, as an in-flight reader would, so freeing it is
/// not timed.
pub fn median_commit_ms(g: &MultiLayerGraph, d: u32, s: usize, k: usize) -> f64 {
    let service = QueryService::new(g, DccsOptions::default());
    let params = DccsParams::new(d, s.min(g.num_layers()).max(1), k);
    service
        .query(&ServiceQuery::new(params).with_algorithm(Algorithm::Greedy))
        .expect("unlimited large-scale warm-up query");
    let mut state = 0xC0_331Du64;
    let mut below = |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let mut times: Vec<f64> = (0..COMMIT_PROBES)
        .map(|_| {
            let pinned = service.snapshot();
            let version = pinned.graph();
            let (n, l) = (version.num_vertices(), version.num_layers());
            let mut batch = EdgeBatch::new();
            let mut inserts = 0;
            while inserts < 12 {
                let (layer, u, v) = (below(l), below(n) as Vertex, below(n) as Vertex);
                if u != v && !version.layer(layer).has_edge(u, v) {
                    batch.insert(layer, u, v);
                    inserts += 1;
                }
            }
            let mut deletes = 0;
            while deletes < 4 {
                let (layer, u) = (below(l), below(n) as Vertex);
                let neighbors = version.layer(layer).neighbors(u);
                if !neighbors.is_empty() {
                    batch.delete(layer, u, neighbors[below(neighbors.len())]);
                    deletes += 1;
                }
            }
            let start = Instant::now();
            service.commit(&batch).expect("probe batches are valid");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    (times[COMMIT_PROBES / 2 - 1] + times[COMMIT_PROBES / 2]) / 2.0
}

/// The Chung–Lu shape of the tier at `vertices`: 3 layers at average
/// degree 7, so the flagship 10^6-vertex run carries ≥ 10^7 edges total
/// and the candidate universe overflows the flat dense-row word budget,
/// leaving the search on CSR.
pub fn large_scale_config(vertices: usize) -> ChungLuConfig {
    ChungLuConfig {
        num_vertices: vertices.max(64),
        num_layers: 3,
        avg_degree: 7.0,
        exponent: 2.5,
        layer_jitter: 0.2,
        seed: 0xDCC,
    }
}

/// The large-scale suite: one streaming Chung–Lu graph at `vertices`,
/// measured under two query shapes (a 2-layer-subset sweep and the
/// full-layer-set query) at `threads` executor width. Generation is timed
/// once and the allocator peak spans generation plus all queries of the
/// run. The commit probes run after every record's queries, so the memory
/// columns stay the queries'.
pub fn large_scale_suite(
    vertices: usize,
    warm_queries: usize,
    threads: usize,
) -> Vec<LargeScaleMeasurement> {
    reset_alloc_peak();
    let config = large_scale_config(vertices);
    let gen_start = Instant::now();
    let g = chung_lu_layers(&config).expect("large-scale Chung-Lu config is valid");
    let generate_secs = gen_start.elapsed().as_secs_f64();
    let name = format!("ChungLu-{}x{}", g.num_vertices(), g.num_layers());
    let mut measurements: Vec<LargeScaleMeasurement> = [(3u32, 2usize, 8usize), (2, 3, 8)]
        .iter()
        .map(|&(d, s, k)| {
            measure_large_scale(&g, &name, generate_secs, d, s, k, warm_queries, threads)
        })
        .collect();
    for m in &mut measurements {
        m.commit_ms = median_commit_ms(&g, m.d, m.s, m.k);
    }
    measurements
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_or_degrades_gracefully() {
        // On Linux the proc file exists and the process certainly holds
        // more than a page; elsewhere the probe must return 0, not panic.
        let rss = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 4096, "VmHWM should exceed a page, got {rss}");
        }
    }

    #[test]
    fn suite_measures_a_small_graph_end_to_end() {
        let measurements = large_scale_suite(2_000, 2, 2);
        assert_eq!(measurements.len(), 2);
        for m in &measurements {
            assert_eq!(m.vertices, 2_000);
            assert_eq!(m.layers, 3);
            assert!(m.edges > 2_000, "average degree 7 implies edges >> n");
            assert!(m.generate_secs > 0.0 && m.cold_query_secs > 0.0);
            assert!(m.warm_secs > 0.0 && m.throughput_qps() > 0.0);
            assert!(m.commit_ms > 0.0);
            assert_eq!(m.warm_queries, 2);
            assert_eq!(m.threads, 2);
            // No probe installed under cargo test: allocator peak reads 0.
            assert_eq!(m.peak_alloc_bytes, 0);
            let text = serde_json::to_string_pretty(&m.to_json());
            assert!(text.contains("\"throughput_qps\""));
            assert!(text.contains("\"warm_preprocess_secs\""));
            assert!(text.contains("\"index_path\""));
            assert!(text.contains("\"peak_rss_bytes\""));
            assert!(text.contains("\"peak_alloc_bytes\""));
            assert!(text.contains("\"commit_ms\""));
            assert!(text.contains("\"threads\": 2"));
        }
    }

    #[test]
    fn flagship_config_clears_the_paper_scale_floor() {
        let config = large_scale_config(1_000_000);
        let per_layer = (config.num_vertices as f64 * config.avg_degree / 2.0).round() as usize;
        assert!(config.num_vertices >= 1_000_000);
        assert!(
            per_layer * config.num_layers >= 10_000_000,
            "the 10^6-vertex run must target at least 10^7 edges"
        );
    }
}
