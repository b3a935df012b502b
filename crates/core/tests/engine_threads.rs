//! Thread-equivalence property tests for the unified search executor.
//!
//! The determinism contract of `dccs::engine` is that the worker count is
//! invisible in everything but wall-clock time: BU and TD (whose search
//! trees are walked in pre-order on the driver, each node's children peeled
//! as one fork-join batch) and the lattice-driven GD must produce the same
//! cores (layer subsets and vertex sets, in the same order), the same
//! cover, and the same work counters at 1, 2, 4, and 8 threads — and the
//! 1-thread engine run (every batch inline on the driver) must equal the
//! plain sequential entry points. Random small multi-layer graphs exercise
//! the full grid, including the ablation presets whose pruning interacts
//! with commit order.
//!
//! CI additionally runs this suite with `DCCS_FORCE_THREADS=4`, so even a
//! single-core runner drives the multi-worker queue and merge paths.

use dccs::{
    bottom_up_dccs, greedy_dccs, top_down_dccs, Algorithm, DccsOptions, DccsParams, DccsResult,
    DccsSession, IndexPath,
};
use mlgraph::{MultiLayerGraph, MultiLayerGraphBuilder, Vertex};
use proptest::prelude::*;

fn small_multilayer(
    n: usize,
    layers: usize,
    max_edges: usize,
) -> impl Strategy<Value = MultiLayerGraph> {
    prop::collection::vec(
        prop::collection::vec((0..n as Vertex, 0..n as Vertex), 0..max_edges),
        layers..=layers,
    )
    .prop_map(move |lists| {
        let cleaned: Vec<Vec<(Vertex, Vertex)>> = lists
            .into_iter()
            .map(|edges| edges.into_iter().filter(|(u, v)| u != v).collect())
            .collect();
        MultiLayerGraph::from_edge_lists(n, &cleaned).unwrap()
    })
}

/// Full identity: cores (layers + members, in order), cover, and stats.
/// Only `elapsed` may differ between the two runs.
fn assert_identical(a: &DccsResult, b: &DccsResult, label: &str) {
    assert_eq!(a.cores, b.cores, "{label}: cores differ");
    assert_eq!(a.cover.to_vec(), b.cover.to_vec(), "{label}: cover differs");
    assert_eq!(a.stats, b.stats, "{label}: work counters differ");
}

/// One query through a fresh session configured with `opts`.
fn run(
    algo: Algorithm,
    g: &MultiLayerGraph,
    params: &DccsParams,
    opts: &DccsOptions,
) -> DccsResult {
    DccsSession::with_options(g, *opts).query(*params).algorithm(algo).run().unwrap()
}

const ALGORITHMS: [(&str, Algorithm); 3] =
    [("GD", Algorithm::Greedy), ("BU", Algorithm::BottomUp), ("TD", Algorithm::TopDown)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_algorithm_is_thread_invariant(
        g in small_multilayer(18, 4, 70),
        d in 1u32..4,
        s in 1usize..5,
        k in 1usize..4,
    ) {
        let params = DccsParams::new(d, s, k);
        for (name, algo) in ALGORITHMS {
            let seq = run(algo, &g, &params, &DccsOptions::with_threads(1));
            for threads in [2usize, 4, 8] {
                let par = run(algo, &g, &params, &DccsOptions::with_threads(threads));
                assert_identical(&seq, &par, &format!("{name} d={d} s={s} k={k} t={threads}"));
            }
        }
    }

    #[test]
    fn one_thread_engine_equals_plain_sequential_entry_points(
        g in small_multilayer(16, 3, 60),
        d in 1u32..3,
        s in 1usize..4,
        k in 1usize..3,
    ) {
        let params = DccsParams::new(d, s, k);
        let opts = DccsOptions::with_threads(1);
        assert_identical(&greedy_dccs(&g, &params), &run(Algorithm::Greedy, &g, &params, &opts), "GD");
        assert_identical(&bottom_up_dccs(&g, &params), &run(Algorithm::BottomUp, &g, &params, &opts), "BU");
        assert_identical(&top_down_dccs(&g, &params), &run(Algorithm::TopDown, &g, &params, &opts), "TD");
    }

    #[test]
    fn ablations_stay_thread_invariant(
        g in small_multilayer(16, 4, 60),
        d in 1u32..3,
        s in 2usize..4,
    ) {
        // Pruning interacts with commit order; every ablation preset must
        // stay deterministic under the executor too.
        let params = DccsParams::new(d, s, 2);
        for base in [
            DccsOptions::no_preprocessing(),
            DccsOptions::no_init_topk(),
            DccsOptions { order_pruning: false, layer_pruning: false, ..DccsOptions::default() },
        ] {
            for (name, algo) in ALGORITHMS {
                let seq = run(algo, &g, &params, &DccsOptions { threads: 1, ..base });
                for threads in [4usize, 8] {
                    let par = run(algo, &g, &params, &DccsOptions { threads, ..base });
                    assert_identical(&seq, &par, &format!("{name} ablation d={d} s={s} t={threads}"));
                }
            }
        }
    }
}

/// Executor panic safety at every crew width: a pooled batch job that
/// panics must not take down its worker, leak queued jobs, or poison the
/// session. Arms the `batch.query` fault site, which only `run_batch` jobs
/// reach, on the test's own session. (Worker panics at the algorithm-level
/// sites are exercised in `fault_injection.rs`.)
#[test]
fn panicking_batch_job_leaves_the_crew_and_queue_intact() {
    use dccs::fault::{site, FaultMode, FaultPlan};
    use dccs::{DccsError, QuerySpec};

    // Two 6-cliques shared by 3 layers: enough structure for real queries.
    let mut b = MultiLayerGraphBuilder::new(16, 3);
    for layer in 0..3 {
        for base in [0u32, 8] {
            for i in 0..6 {
                for j in (i + 1)..6 {
                    b.add_edge(layer, base + i, base + j).unwrap();
                }
            }
        }
    }
    let g = b.build();
    let specs: Vec<QuerySpec> = (1..=3usize)
        .map(|s| QuerySpec::new(DccsParams::new(2, s, 2)).with_algorithm(Algorithm::Greedy))
        .collect();
    let reference: Vec<DccsResult> =
        specs.iter().map(|spec| DccsSession::new(&g).query(spec.params).run().unwrap()).collect();
    for threads in [1usize, 2, 4] {
        let opts = DccsOptions::with_threads(threads);
        let mut session = DccsSession::with_options(&g, opts);
        session.set_fault_plan(Some(FaultPlan::new(site::BATCH_QUERY, FaultMode::Panic, 1)));
        let batch = session.run_batch(&specs).expect("validation passes");
        session.set_fault_plan(None);
        // One job absorbed the panic; the queue kept draining: every other
        // slot holds its correct, complete result.
        let dead: Vec<usize> = (0..batch.len()).filter(|&i| batch[i].is_err()).collect();
        assert_eq!(dead.len(), 1, "threads={threads}: exactly one slot fails");
        assert!(
            matches!(batch[dead[0]].as_ref().unwrap_err(), DccsError::TaskPanicked { .. }),
            "threads={threads}: the failure is typed"
        );
        for (i, slot) in batch.iter().enumerate() {
            if let Ok(result) = slot {
                assert_identical(result, &reference[i], &format!("slot {i} threads={threads}"));
            }
        }
        // The crew survived: a fresh single query and a fresh batch on the
        // same session both come back complete and bit-identical.
        let single = session.query(specs[0].params).run().unwrap();
        assert_identical(&single, &reference[0], &format!("post-panic run threads={threads}"));
        let clean = session.run_batch(&specs).unwrap();
        for (i, slot) in clean.iter().enumerate() {
            let result = slot.as_ref().expect("no fault armed: every slot succeeds");
            assert_identical(result, &reference[i], &format!("clean slot {i} threads={threads}"));
        }
    }
}

/// Cost-model crossover: the stats must record the dense path on a small
/// dense universe and the CSR path on a wide sparse one — the shape
/// (German analogue at low `d`) where the dense rows used to lose to CSR.
#[test]
fn stats_record_the_cost_model_crossover() {
    // Two layers sharing an 8-clique: universe m = 8, one word per row.
    let mut b = MultiLayerGraphBuilder::new(32, 2);
    for layer in 0..2 {
        for i in 0..8u32 {
            for j in (i + 1)..8 {
                b.add_edge(layer, i, j).unwrap();
            }
        }
    }
    let dense_graph = b.build();
    for run in [greedy_dccs, bottom_up_dccs, top_down_dccs] {
        let r = run(&dense_graph, &DccsParams::new(2, 2, 2));
        let alg = r.stats.algorithm.unwrap().name();
        assert_eq!(r.stats.index_path, Some(IndexPath::Dense), "{alg}: small dense universe");
    }

    // Two layers, each a 4000-cycle: with d = 1 the universe is the whole
    // graph (m = 4000, 63 words per row) while the average degree is 2 —
    // scanning 63 words per degree query loses, the model must pick CSR.
    let mut b = MultiLayerGraphBuilder::new(4000, 2);
    for layer in 0..2 {
        for v in 0..4000u32 {
            b.add_edge(layer, v, (v + 1) % 4000).unwrap();
        }
    }
    let sparse_graph = b.build();
    for run in [greedy_dccs, bottom_up_dccs, top_down_dccs] {
        let r = run(&sparse_graph, &DccsParams::new(1, 2, 2));
        let alg = r.stats.algorithm.unwrap().name();
        assert_eq!(r.stats.index_path, Some(IndexPath::Csr), "{alg}: wide sparse universe → CSR");
        assert_eq!(r.cover_size(), 4000, "{alg}: the 1-CC of the double cycle is everything");
    }
}
