//! Exactness guard for the vertex-deletion fixpoint (Section IV-C).
//!
//! The fixpoint shrinks each layer's d-core by a round's victims instead of
//! re-peeling it. A less-pruned fixpoint would change no answer, so answer
//! suites cannot see a cascade that stops early. These tests pin the
//! fixpoint itself against an oracle that runs the definition round by
//! round: re-peel every layer within the active set with
//! [`coreness::d_core_within`], recount each vertex's support, delete the
//! active vertices below `s`, and repeat until none is.
//!
//! * On random multi-layer graphs of several shapes, every `d` in `0..=4`,
//!   every `s ≤ l`, with and without vertex deletion,
//!   [`preprocess::preprocess_from`] equals the oracle on the active set,
//!   the layer cores, the support counts, the deletion count and the round
//!   count.
//! * GD, BU and TD queries through a session at 1, 2 and 4 threads report
//!   the oracle's deletion and round counts.

use coreness::{d_core_within, PeelWorkspace};
use dccs::preprocess::{self, initial_layer_cores};
use dccs::{Algorithm, DccsOptions, DccsParams, DccsSession};
use mlgraph::generators::{chung_lu_layers, ChungLuConfig};
use mlgraph::{MultiLayerGraph, Vertex, VertexSet};

/// The fixpoint as the definition states it, one full re-peel per round.
#[derive(Debug, PartialEq, Eq)]
struct Oracle {
    active: Vec<Vertex>,
    layer_cores: Vec<Vec<Vertex>>,
    support: Vec<u32>,
    vertices_deleted: usize,
    fixpoint_rounds: usize,
}

fn oracle(g: &MultiLayerGraph, d: u32, s: usize, vertex_deletion: bool) -> Oracle {
    let n = g.num_vertices();
    let peel_all = |active: &VertexSet| -> Vec<VertexSet> {
        (0..g.num_layers()).map(|i| d_core_within(g.layer(i), d, active)).collect()
    };
    let count = |cores: &[VertexSet], active: &VertexSet| -> Vec<u32> {
        let mut support = vec![0u32; n];
        for core in cores {
            for v in core.iter().filter(|&v| active.contains(v)) {
                support[v as usize] += 1;
            }
        }
        support
    };
    let mut active = g.full_vertex_set();
    let mut cores = peel_all(&active);
    let mut support = count(&cores, &active);
    let mut rounds = 0;
    loop {
        let victims: Vec<Vertex> =
            active.iter().filter(|&v| (support[v as usize] as usize) < s).collect();
        if !vertex_deletion || victims.is_empty() {
            break;
        }
        for v in victims {
            active.remove(v);
        }
        rounds += 1;
        cores = peel_all(&active);
        support = count(&cores, &active);
    }
    Oracle {
        vertices_deleted: n - active.len(),
        active: active.to_vec(),
        layer_cores: cores.iter().map(VertexSet::to_vec).collect(),
        support,
        fixpoint_rounds: rounds,
    }
}

/// Deterministic splitmix64 stream for the random graph shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `n` vertices, one layer per entry of `edges_per_layer`, each layer's
/// edges drawn uniformly (self loops dropped, duplicates merged).
fn uniform(rng: &mut Rng, n: usize, edges_per_layer: &[usize]) -> MultiLayerGraph {
    let lists: Vec<Vec<(Vertex, Vertex)>> = edges_per_layer
        .iter()
        .map(|&m| {
            (0..m)
                .map(|_| (rng.below(n) as Vertex, rng.below(n) as Vertex))
                .filter(|(u, v)| u != v)
                .collect()
        })
        .collect();
    MultiLayerGraph::from_edge_lists(n, &lists).expect("valid random layers")
}

/// Random graphs of several shapes: sparse and dense uniform layers,
/// layers of very different densities (the shape whose deletions cascade
/// over many rounds), and heavy-tailed Chung–Lu layers sharing hubs.
fn graphs() -> Vec<(String, MultiLayerGraph)> {
    let mut rng = Rng(0xF1C5);
    let mut out = Vec::new();
    for seed in 0..4 {
        let n = 30 + rng.below(30);
        out.push((format!("sparse-{seed}"), uniform(&mut rng, n, &[n * 3 / 2; 3])));
        out.push((format!("dense-{seed}"), uniform(&mut rng, n, &[n * 4; 2])));
        let uneven: Vec<usize> = (0..5).map(|_| n / 2 + rng.below(n * 3)).collect();
        out.push((format!("uneven-{seed}"), uniform(&mut rng, n, &uneven)));
        let config = ChungLuConfig {
            num_vertices: 120,
            num_layers: 4,
            avg_degree: 5.0,
            exponent: 2.3,
            layer_jitter: 0.4,
            seed: 7 + seed as u64,
        };
        out.push((format!("chung-lu-{seed}"), chung_lu_layers(&config).expect("valid config")));
    }
    out
}

fn options(vertex_deletion: bool, threads: usize) -> DccsOptions {
    DccsOptions { vertex_deletion, threads, ..DccsOptions::default() }
}

#[test]
fn fixpoint_equals_the_round_by_round_oracle() {
    // One workspace across every case: stale scratch must never leak.
    let mut ws = PeelWorkspace::new();
    let mut max_rounds = 0;
    for (name, g) in graphs() {
        for d in 0..=4u32 {
            let initial = initial_layer_cores(&g, d, &mut ws);
            for s in 1..=g.num_layers() {
                for vertex_deletion in [true, false] {
                    let want = oracle(&g, d, s, vertex_deletion);
                    let params = DccsParams::new(d, s, 2);
                    let opts = options(vertex_deletion, 1);
                    let pre =
                        preprocess::preprocess_from(&g, &params, &opts, &mut ws, initial.clone());
                    let got = Oracle {
                        active: pre.active.to_vec(),
                        layer_cores: pre.layer_cores.iter().map(VertexSet::to_vec).collect(),
                        support: pre.support,
                        vertices_deleted: pre.vertices_deleted,
                        fixpoint_rounds: pre.fixpoint_rounds,
                    };
                    assert_eq!(got, want, "{name} d={d} s={s} vertex_deletion={vertex_deletion}");
                    max_rounds = max_rounds.max(want.fixpoint_rounds);
                }
            }
        }
    }
    assert!(max_rounds >= 3, "the shapes must include multi-round fixpoints, saw {max_rounds}");
}

/// One session per (graph, options, algorithm, width) serves every
/// `(d, s)`: the memo is keyed by `(d, s, vertex_deletion)`, so each query
/// runs its own fixpoint.
#[test]
fn session_queries_report_the_oracle_counts_at_every_width() {
    for (name, g) in graphs() {
        for vertex_deletion in [true, false] {
            let mut want = Vec::new();
            for d in 0..=4u32 {
                for s in 1..=g.num_layers() {
                    let oracle = oracle(&g, d, s, vertex_deletion);
                    want.push((d, s, oracle.vertices_deleted, oracle.fixpoint_rounds));
                }
            }
            for algorithm in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown] {
                for threads in [1usize, 2, 4] {
                    let mut session =
                        DccsSession::with_options(&g, options(vertex_deletion, threads));
                    for &(d, s, deleted, rounds) in &want {
                        let result = session
                            .query(DccsParams::new(d, s, 3))
                            .algorithm(algorithm)
                            .run()
                            .expect("unlimited queries succeed");
                        let label = format!(
                            "{name} d={d} s={s} vertex_deletion={vertex_deletion} \
                             {algorithm:?} threads={threads}"
                        );
                        assert!(!result.stats.preprocess_memo_hit, "{label}: a new (d, s)");
                        assert_eq!(
                            (result.stats.vertices_deleted, result.stats.fixpoint_rounds),
                            (deleted, rounds),
                            "{label}"
                        );
                    }
                }
            }
        }
    }
}
