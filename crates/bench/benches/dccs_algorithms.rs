//! Criterion benchmark: the three DCCS algorithms end to end on a tiny
//! dataset analogue, for a small and a large support threshold, plus
//! greedy at one and four executor threads.

use criterion::{criterion_group, criterion_main, Criterion};
use datasets::{generate, DatasetId, Scale};
use dccs::{
    bottom_up_dccs, greedy_dccs, top_down_dccs, Algorithm, DccsOptions, DccsParams, DccsSession,
};

fn bench_small_s(c: &mut Criterion) {
    let ds = generate(DatasetId::German, Scale::Tiny);
    let params = DccsParams::new(3, 2, 10);
    let mut group = c.benchmark_group("dccs_small_s");
    group.sample_size(10);
    group.bench_function("GD-DCCS", |b| b.iter(|| greedy_dccs(&ds.graph, &params)));
    group.bench_function("BU-DCCS", |b| b.iter(|| bottom_up_dccs(&ds.graph, &params)));
    group.finish();
}

fn bench_large_s(c: &mut Criterion) {
    let ds = generate(DatasetId::German, Scale::Tiny);
    let l = ds.graph.num_layers();
    let params = DccsParams::new(3, l - 2, 10);
    let mut group = c.benchmark_group("dccs_large_s");
    group.sample_size(10);
    group.bench_function("GD-DCCS", |b| b.iter(|| greedy_dccs(&ds.graph, &params)));
    group.bench_function("TD-DCCS", |b| b.iter(|| top_down_dccs(&ds.graph, &params)));
    group.finish();
}

fn bench_parallel_greedy(c: &mut Criterion) {
    let ds = generate(DatasetId::Wiki, Scale::Tiny);
    let params = DccsParams::new(3, 2, 10);
    let greedy = |threads: usize| {
        DccsSession::with_options(&ds.graph, DccsOptions::with_threads(threads))
            .query(params)
            .algorithm(Algorithm::Greedy)
            .run()
            .unwrap()
    };
    let mut group = c.benchmark_group("parallel_greedy");
    group.sample_size(10);
    group.bench_function("1-thread", |b| b.iter(|| greedy(1)));
    group.bench_function("4-threads", |b| b.iter(|| greedy(4)));
    group.finish();
}

/// Greedy candidate generation: the subset-lattice engine (prefix-seeded
/// peels on a reused workspace) against the pre-refactor path (per-subset
/// core intersection + from-scratch allocating peel).
fn bench_candidate_generation(c: &mut Criterion) {
    let ds = generate(DatasetId::Wiki, Scale::Tiny);
    let mut group = c.benchmark_group("greedy_candidate_generation");
    group.sample_size(20);
    for s in [2usize, 3] {
        let params = DccsParams::new(3, s, 10);
        let pre = dccs::preprocess::preprocess(&ds.graph, &params, &dccs::DccsOptions::default());
        group.bench_function(&format!("engine/s{s}"), |b| {
            let mut ws = coreness::PeelWorkspace::new();
            b.iter(|| {
                let mut emitted = 0usize;
                dccs::for_each_subset_core(
                    &ds.graph,
                    params.d,
                    params.s,
                    &pre.layer_cores,
                    &mut ws,
                    |_, core| emitted += core.len(),
                );
                emitted
            });
        });
        group.bench_function(&format!("naive/s{s}"), |b| {
            b.iter(|| {
                // The shared frozen oracle (pre-refactor per-subset path).
                dccs::naive_subset_cores(&ds.graph, params.d, params.s, &pre.layer_cores)
                    .iter()
                    .map(|(_, core)| core.len())
                    .sum::<usize>()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_small_s,
    bench_large_s,
    bench_parallel_greedy,
    bench_candidate_generation
);
criterion_main!(benches);
