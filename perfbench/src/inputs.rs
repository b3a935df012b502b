//! Seeded input generation. Runs in the harness process, untimed: builds
//! each workload's graphs and edge batches with the repository's public
//! generators and writes them to the run's data directory — graphs as
//! `MLGRAPH2` snapshots, batches in `EdgeBatch::from_text` form. The
//! measured process sees only these files.

use crate::adapter::{save, EdgeBatch, Graph};
use datasets::registry::{generate, DatasetId, Scale};
use mlgraph::generators::{chung_lu_layers, temporal_batches, ChungLuConfig, TemporalConfig};
use std::fmt::Write as _;
use std::path::Path;

/// Edge operations per commit, on every workload.
pub const BATCH_SIZE: usize = 16;
/// Commits of the post-phase commit probe on the single-client workloads.
pub const PROBE_COMMITS: usize = 24;
/// Batches in the serve-churn stream: more than a run can commit.
pub const STREAM_BATCHES: usize = 1200;

/// Snapshot and batch file names inside a run's data directory.
pub const GRAPH: &str = "graph.bin";
pub const WIKI: &str = "wiki.bin";
pub const BATCHES: &str = "batches.txt";

/// A 64-bit mix of the run seed with a per-input salt.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A splitmix64 stream for the harness's own draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        derive(self.0, 0)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The scale-warm graph: streaming Chung–Lu, 2×10^5 vertices, 3 layers,
/// average degree 7 (the bench tier's 2×10^5 shape).
pub fn scale_warm_graph(seed: u64) -> Graph {
    chung_lu_layers(&ChungLuConfig {
        num_vertices: 200_000,
        num_layers: 3,
        avg_degree: 7.0,
        exponent: 2.5,
        layer_jitter: 0.2,
        seed: derive(seed, 1),
    })
    .expect("scale-warm Chung-Lu config is valid")
}

/// The paper-mix graphs: the registry's German analogue at `large` scale
/// (14 layers, 32,000 vertices) and its Wiki analogue at `full` scale (24
/// layers, 12,000 vertices), exactly as `dccs run --dataset` builds them.
/// They do not depend on the run seed: on these planted-story graphs the
/// cost of one query moves by 10–170% from one generator seed to the next,
/// which no fixed query mix averages out.
pub fn paper_mix_graphs() -> [Graph; 2] {
    [generate(DatasetId::German, Scale::Large).graph, generate(DatasetId::Wiki, Scale::Full).graph]
}

/// The serve-churn graph and its commit stream (`temporal_batches`): 14
/// layers, 8,000 vertices, 9,000 edges per layer, 16-edge batches.
pub fn serve_churn_stream(seed: u64) -> (Graph, Vec<EdgeBatch>) {
    let config = TemporalConfig {
        num_vertices: 8_000,
        num_layers: 14,
        edges_per_layer: 9_000,
        retain: 0.55,
        core_size: 200,
        core_bias: 0.3,
        seed: derive(seed, 4),
    };
    temporal_batches(&config, STREAM_BATCHES, BATCH_SIZE).expect("serve-churn config is valid")
}

/// Commit-probe batches for a graph without a stream generator: each batch
/// deletes `BATCH_SIZE / 2` present edges and inserts `BATCH_SIZE / 2`
/// random pairs, on random layers. Every batch is valid against the graph
/// version it lands on (an insert of a present edge or a delete of an
/// absent one is a no-op, never an error).
pub fn probe_batches(g: &Graph, seed: u64) -> Vec<EdgeBatch> {
    let mut rng = Rng::new(derive(seed, 5));
    let n = g.num_vertices();
    let l = g.num_layers();
    let edges: Vec<Vec<(u32, u32)>> = g.layers().iter().map(|c| c.edges().collect()).collect();
    (0..PROBE_COMMITS)
        .map(|_| {
            let mut batch = EdgeBatch::new();
            let mut deleted = Vec::new();
            for _ in 0..BATCH_SIZE / 2 {
                let layer = rng.below(l);
                let (u, v) = edges[layer][rng.below(edges[layer].len())];
                batch.delete(layer, u, v);
                deleted.push((layer, u, v));
            }
            let mut inserted = 0;
            while inserted < BATCH_SIZE / 2 {
                let (layer, u, v) = (rng.below(l), rng.below(n) as u32, rng.below(n) as u32);
                let e = (layer, u.min(v), u.max(v));
                if u != v && !deleted.contains(&e) {
                    batch.insert(e.0, e.1, e.2);
                    inserted += 1;
                }
            }
            batch
        })
        .collect()
}

/// Batches as `add|del <layer> <u> <v>` lines, one `=` line after each.
pub fn batches_to_text(batches: &[EdgeBatch]) -> String {
    let mut text = String::new();
    for batch in batches {
        for &(l, u, v) in batch.inserts() {
            let _ = writeln!(text, "add {l} {u} {v}");
        }
        for &(l, u, v) in batch.deletes() {
            let _ = writeln!(text, "del {l} {u} {v}");
        }
        text.push_str("=\n");
    }
    text
}

/// Parses [`batches_to_text`] output.
pub fn batches_from_text(text: &str) -> Result<Vec<EdgeBatch>, String> {
    text.split("=\n")
        .filter(|chunk| !chunk.trim().is_empty())
        .map(|chunk| EdgeBatch::from_text(chunk).map_err(|e| format!("batch: {e}")))
        .collect()
}

/// Reads the batches a run's data directory holds.
pub fn load_batches(dir: &Path) -> Result<Vec<EdgeBatch>, String> {
    let path = dir.join(BATCHES);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    batches_from_text(&text)
}

/// Generates and writes the inputs of `workload` into `dir`.
pub fn prepare(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let (graph, batches) = match workload {
        "scale-warm" => {
            let g = scale_warm_graph(seed);
            let batches = probe_batches(&g, seed);
            (g, batches)
        }
        "paper-mix" => {
            let [german, wiki] = paper_mix_graphs();
            save(&wiki, &dir.join(WIKI))?;
            let batches = probe_batches(&german, seed);
            (german, batches)
        }
        "serve-churn" => serve_churn_stream(seed),
        other => return Err(format!("unknown workload `{other}`")),
    };
    save(&graph, &dir.join(GRAPH))?;
    let path = dir.join(BATCHES);
    std::fs::write(&path, batches_to_text(&batches))
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_roundtrip_through_text() {
        let g = Graph::from_edge_lists(6, &[vec![(0, 1), (1, 2)], vec![(2, 3)]]).unwrap();
        let batches = probe_batches(&g, 7);
        assert_eq!(batches.len(), PROBE_COMMITS);
        assert_eq!(batches_from_text(&batches_to_text(&batches)).unwrap(), batches);
        let mut current = g;
        for batch in &batches {
            current = current.apply_batch(batch).expect("probe batches are valid").0;
        }
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(3), Rng::new(3));
        assert_eq!(a.next(), b.next());
        assert!(a.unit() < 1.0);
        assert_ne!(derive(1, 2), derive(2, 2));
    }
}
