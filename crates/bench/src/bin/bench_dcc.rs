//! Records the `dCC` engine-vs-naive baseline and the executor's
//! thread-scaling measurements as `BENCH_dcc.json`.
//!
//! ```text
//! bench_dcc [--scale tiny|small|full|large] [--runs N] [--threads N]
//!           [--large-vertices N] [--out PATH]
//! ```
//!
//! The engine path (subset-lattice candidate generation on a reused
//! `PeelWorkspace`, the dense-vs-CSR index cost model) is compared against
//! the frozen pre-refactor path (`dccs::naive_subset_cores`) on the Wiki
//! and German analogues, then each algorithm is run end to end at 1 vs
//! `--threads` executor workers (the `thread_scaling` group, plus the
//! `subtree_scaling` group for BU/TD on perfbench paper-mix's search trees,
//! German at `Large` and Wiki at `Full` whatever `--scale` is — both
//! skipped with a `skipped_single_core` marker on one-core hosts);
//! per-configuration timings, the chosen index path, and the
//! geometric-mean speedup are printed and written as JSON. The
//! `index_regret` group times GD's, BU's and TD's search at each
//! engine-vs-naive configuration under forced CSR, forced dense and `Auto`,
//! recording `Auto`'s pick and its regret against the fastest. The
//! `paper_figures` group runs last: the paper's Section VI queries on the
//! registry analogues at `--scale` itself, one cold one-thread query per
//! row, with a time and cover summary per figure.
//!
//! `--scale large` keeps the standard comparison groups at `Tiny` (so
//! the recorded `geomean_speedup` stays comparable run over run) and
//! additionally drives the `large_scale` group at `--large-vertices`
//! (default 10^6) Chung–Lu vertices; every other scale still records a
//! scaled-down `large_scale` group so the key is always present. That
//! group's queries run at `--threads` and record it in each entry. This
//! binary owns a counting global allocator so the tier can report peak
//! allocated bytes next to the OS-level peak RSS.

use datasets::Scale;
use dccs_bench::dcc_baseline::{
    auto_selection_suite, baseline_suite, concurrent_service_suite, incremental_maintenance_suite,
    index_regret_suite, kernel_dispatch_suite, phase_breakdown_suite, serve_from_index_suite,
    single_core, subtree_scaling_suite, suite_to_json, thread_scaling_suite, SuiteResults,
    ThreadScaling,
};
use dccs_bench::large_scale::{install_alloc_probe, large_scale_suite, AllocProbe};
use dccs_bench::paper_figures::{paper_figures_suite, PaperFigures};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counting wrapper over the system allocator: tracks live bytes and
/// their high-water mark so the large-scale tier can record peak
/// allocated bytes. Lives in the binary because the bench library
/// forbids `unsafe` and must not impose the tracking tax on dependents.
struct TrackingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn track_add(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    // Most allocations set no new peak: a plain load skips the second
    // read-modify-write, which allocation-heavy searches would pay per call.
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn track_sub(size: usize) {
    LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            track_add(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            track_add(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track_sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            track_sub(layout.size());
            track_add(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

fn reset_alloc_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn alloc_peak_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

const USAGE: &str = "usage: bench_dcc [--scale tiny|small|full|large] [--runs N] [--threads N] \
                     [--large-vertices N] [--out PATH]";

fn main() {
    install_alloc_probe(AllocProbe { reset_peak: reset_alloc_peak, peak_bytes: alloc_peak_bytes });
    let mut scale = Scale::Tiny;
    let mut runs = 5usize;
    let mut threads = 4usize;
    let mut large_vertices = 1_000_000usize;
    let mut out_path = String::from("BENCH_dcc.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--scale" => {
                let value = args.next().unwrap_or_default();
                scale = match Scale::parse(&value) {
                    Some(s) => s,
                    None => {
                        eprintln!("unknown scale `{value}`\n{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--runs" => {
                let value = args.next().unwrap_or_default();
                runs = match value.parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--runs needs a number\n{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--threads" => {
                let value = args.next().unwrap_or_default();
                threads = match value.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--threads needs a number >= 1\n{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--large-vertices" => {
                let value = args.next().unwrap_or_default();
                large_vertices = match value.parse() {
                    Ok(n) if n >= 64 => n,
                    _ => {
                        eprintln!("--large-vertices needs a number >= 64\n{USAGE}");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                out_path = args.next().unwrap_or(out_path);
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    // `--scale large` pins the standard comparison groups at Tiny so the
    // recorded geomean stays comparable run over run; the large-scale
    // tier is what actually grows. Every other scale still records a
    // scaled-down large_scale group (one tenth of `--large-vertices`) so
    // the JSON key is always present.
    let standard_scale = if scale == Scale::Large { Scale::Tiny } else { scale };
    let tier_vertices =
        if scale == Scale::Large { large_vertices } else { (large_vertices / 10).max(64) };

    let comparisons = baseline_suite(standard_scale, runs);
    for c in &comparisons {
        println!(
            "{:>8} d={} s={} candidates={:>4}  engine {:>10.6}s  naive {:>10.6}s  speedup {:>5.2}x  [{:?}]",
            c.dataset,
            c.d,
            c.s,
            c.candidates,
            c.engine_secs,
            c.naive_secs,
            c.speedup(),
            c.index_path,
        );
    }
    // On a single-core host a 1-vs-N comparison measures only scheduling
    // overhead; record the groups as skipped instead of as ~0.9× noise.
    let skip_scaling = single_core();
    let scaling = if skip_scaling {
        println!("[bench] single core detected: skipping the thread/subtree scaling groups");
        Vec::new()
    } else {
        thread_scaling_suite(standard_scale, runs, threads)
    };
    print_scaling(&scaling);
    let auto = auto_selection_suite(standard_scale, runs);
    for a in &auto {
        let (best, best_secs) = a.best_fixed();
        println!(
            "{:>8} d={} s={} k={}  auto → {:<8} {:>10.6}s  best fixed {:<8} {:>10.6}s  efficiency {:>5.2}",
            a.dataset, a.d, a.s, a.k, a.chosen, a.auto_secs, best, best_secs,
            a.efficiency(),
        );
    }
    let index_regret = index_regret_suite(standard_scale, runs);
    for r in &index_regret {
        let (best, best_secs) = r.best();
        println!(
            "{:>8} {:<7} d={} s={}  csr {:>10.6}s  dense {}  auto → {:?} {:>10.6}s  best {:?} {:>10.6}s  regret {:>6.1}%",
            r.dataset,
            r.algorithm,
            r.d,
            r.s,
            r.csr_secs,
            r.dense_secs.map_or_else(|| format!("{:>11}", "over budget"), |s| format!("{s:>10.6}s")),
            r.auto_pick,
            r.auto_secs,
            best,
            best_secs,
            r.regret() * 100.0,
        );
    }
    let phases = phase_breakdown_suite(standard_scale, runs);
    for p in &phases {
        println!(
            "{:>8} {:<8} d={} s={}  preprocess {:>10.6}s  search {:>10.6}s  select {:>10.6}s{}",
            p.dataset,
            p.algorithm,
            p.d,
            p.s,
            p.preprocess_secs,
            p.search_secs,
            p.select_secs,
            if p.complete { "" } else { "  [INCOMPLETE]" },
        );
    }
    let kernels = kernel_dispatch_suite(runs);
    println!("[bench] dispatched bit kernel: {}", mlgraph::kernels::kernel().kind().name());
    for k in &kernels {
        println!(
            "kernel {:<20} words={:<3} scalar {:>10.6}s  {} {:>10.6}s  speedup {:>5.2}x",
            k.op,
            k.words,
            k.scalar_secs,
            k.kernel,
            k.dispatched_secs,
            k.speedup(),
        );
    }
    let serve = serve_from_index_suite(standard_scale, runs);
    for m in &serve {
        println!(
            "{:>8} d={} s={} k={}  build {:>10.6}s  {:>9} bytes  peel {:>10.6}s  index {:>10.6}s  speedup {:>6.2}x",
            m.dataset,
            m.d,
            m.s,
            m.k,
            m.build_secs,
            m.bytes,
            m.query_peel_secs,
            m.query_index_secs,
            m.speedup(),
        );
    }
    // Like the scaling groups, a 1-vs-N service comparison on one core
    // would only measure contention; record it as skipped instead.
    let concurrent = if skip_scaling {
        println!("[bench] single core detected: skipping the concurrent_service group");
        Vec::new()
    } else {
        concurrent_service_suite(standard_scale, runs, threads)
    };
    for c in &concurrent {
        println!(
            "{:>8} workers={:<2} requests={}  batch {:>10.6}s  {:>8.1} q/s  p50 {:>8.3}ms  p95 {:>8.3}ms  p99 {:>8.3}ms  cache {:>5.1}%",
            c.dataset,
            c.workers,
            c.requests,
            c.secs,
            c.qps(),
            c.p50_ms,
            c.p95_ms,
            c.p99_ms,
            c.cache_hit_rate * 100.0,
        );
    }
    let incremental = incremental_maintenance_suite(standard_scale, runs);
    for m in &incremental {
        println!(
            "{:>14} batch={:<4} x{}  {:>6} edges  incremental {:>10.6}s  recompute {:>10.6}s  {:>10.0} upd/s  speedup {:>6.2}x",
            m.dataset,
            m.batch_size,
            m.batches,
            m.edges,
            m.incremental_secs,
            m.recompute_secs,
            m.updates_per_sec(),
            m.speedup(),
        );
    }
    let warm_queries = runs.clamp(1, 8);
    println!(
        "[bench] large-scale tier: {tier_vertices} Chung-Lu vertices, {warm_queries} warm queries, {threads} threads"
    );
    let large = large_scale_suite(tier_vertices, warm_queries, threads);
    for m in &large {
        println!(
            "{:>16} n={} L={} edges={}  d={} s={}  gen {:>8.3}s  preprocess {:>8.3}s (warm {:>8.6}s)  cold {:>8.3}s  {:>7.2} q/s  commit {:>8.3}ms  [{:?}] index {} B  scratch {} B  rss {} B  alloc-peak {} B",
            m.dataset,
            m.vertices,
            m.layers,
            m.edges,
            m.d,
            m.s,
            m.generate_secs,
            m.preprocess_secs,
            m.warm_preprocess_secs,
            m.cold_query_secs,
            m.throughput_qps(),
            m.commit_ms,
            m.index_path,
            m.index_bytes,
            m.peel_scratch_bytes,
            m.peak_rss_bytes,
            m.peak_alloc_bytes,
        );
    }
    // The search-tree and paper-figure groups run last, after every group
    // their heap use could disturb: the search-tree group's German-large
    // and Wiki-full sessions left the process heap in a state that slowed
    // the `large_scale` commits timed after them from about 28 to 40 ms,
    // though the commit path itself runs as fast after a fresh start.
    let subtree = if skip_scaling { Vec::new() } else { subtree_scaling_suite(runs, threads) };
    print_scaling(&subtree);
    let figures = paper_figures_suite(scale);
    print_figures(&figures);
    let suites = SuiteResults {
        comparisons,
        scaling,
        subtree,
        scaling_skipped_single_core: skip_scaling,
        auto,
        index_regret,
        kernels,
        phases,
        serve,
        concurrent,
        incremental,
        large,
        figures: Some(figures),
    };
    let text = serde_json::to_string_pretty(&suite_to_json(scale, runs, &suites));
    if let Err(err) = std::fs::write(&out_path, text + "\n") {
        eprintln!("failed to write {out_path}: {err}");
        std::process::exit(1);
    }
    println!("[bench] wrote {out_path}");
}

/// Prints one scaling group's rows.
fn print_scaling(rows: &[ThreadScaling]) {
    for t in rows {
        println!(
            "{:>12} {:<8} d={} s={} k={:<2}  1-thread {:>10.6}s  {}-thread {:>10.6}s  speedup {:>5.2}x  search {:>5.2}x",
            t.dataset,
            t.algorithm,
            t.d,
            t.s,
            t.k,
            t.secs_1,
            t.threads,
            t.secs_n,
            t.speedup(),
            t.search_speedup(),
        );
    }
}

/// Prints the paper-figure group's query rows and its per-figure summaries.
fn print_figures(figures: &PaperFigures) {
    for (row, q) in figures.rows.iter().filter_map(|r| Some((r, r.query.as_ref()?))) {
        println!(
            "fig {:<5} {:>8} {:<7} d={} s={:<2} k={:<2}  total {:>10.6}s  cover {:>5}  candidates {:>6}  dCC {:>8}  pruned {:>6}",
            row.figure,
            row.dataset,
            q.algorithm,
            q.d,
            q.s,
            q.k,
            q.total_secs,
            q.cover,
            q.candidates,
            q.dcc_calls,
            q.pruned,
        );
    }
    let ratio = |r: Option<f64>| r.map_or_else(|| "-".to_string(), |r| format!("{r:.2}"));
    for s in figures.summaries() {
        let covers: Vec<String> =
            s.cover_over_gd.iter().map(|&(name, r)| format!("{name} {r:.2}")).collect();
        println!(
            "fig {:<5} summary  BU/GD time {}  TD/GD time {}  cover/GD: {}",
            s.figure,
            ratio(s.bu_over_gd_secs),
            ratio(s.td_over_gd_secs),
            covers.join(", "),
        );
    }
}
