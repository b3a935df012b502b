//! Engine-vs-naive, thread-scaling, and algorithm-auto-selection
//! measurements for the `dCC` peeling engine, recorded as `BENCH_dcc.json`
//! by the `bench_dcc` binary.
//!
//! Three groups are recorded on synthetic benchmark graphs:
//!
//! * **engine vs naive** — the subset-lattice candidate generation
//!   (prefix-seeded peels on a reused [`PeelWorkspace`], dense-vs-CSR chosen
//!   by the [`dccs::engine`] cost model) against the frozen pre-refactor
//!   oracle [`dccs::naive_subset_cores`] (per-subset intersection +
//!   allocating peel). Both paths produce identical candidate cores
//!   (checksummed to make sure); only the time differs.
//! * **thread scaling** — each DCCS algorithm end to end at 1 executor
//!   thread vs `N`, asserting the covers match (the executor's determinism
//!   contract) and recording both times.
//! * **subtree scaling** — BU and TD at 1 vs `N` threads on the search
//!   trees production runs: perfbench paper-mix's 16 BU and TD queries on
//!   German at `Large` and Wiki at `Full`, recording end-to-end and
//!   search-phase times. Each tree node's children peel as one fork-join
//!   batch, so this is where the trees' parallelism earns its place.
//! * **auto selection** — [`dccs::Algorithm::Auto`] against every fixed
//!   algorithm at the same `(d, s, k)`, recording which algorithm the
//!   session picked and how close its time lands to the best fixed choice,
//!   so the selection policy's quality is tracked in the perf trajectory.
//! * **index regret** — GD's search phase with the peeling index forced to
//!   CSR, forced to dense rows, and left to the `Auto` cost model, at every
//!   engine-vs-naive configuration: which representation `Auto` picked and
//!   how much slower it ran than the fastest one.
//! * **phase breakdown** — where each algorithm's end-to-end time goes
//!   (preprocess / search / select, from [`dccs::SearchStats::phase`]),
//!   plus the `complete` limit flag, so a future cancellation tax or a
//!   phase-level regression shows up in the recorded JSON.
//! * **serve from index** — [`dccs::DccIndex`] build time, serialized
//!   artifact size, and the repeat-query speedup of answering a greedy
//!   query from the precomputed hierarchy vs re-peeling it (both paths
//!   asserted to cover the same vertices before timing is recorded).
//! * **concurrent service** — a deterministic query mix (with repeats)
//!   batched through one [`dccs::QueryService`] at 1 vs N workers:
//!   throughput, p50/p95/p99 latency, and the result-cache hit rate, with
//!   the answers asserted identical across widths.
//! * **incremental maintenance** — temporal mutation batches (sizes 1, 16,
//!   256) committed through a warm [`dccs::QueryService`] (the per-`d`
//!   repair path) vs applied + re-peeled from scratch, recording
//!   updates/sec and the repair-vs-recompute speedup, with the post-stream
//!   answers asserted identical on both graphs.
//!
//! On a single-core host (`available_parallelism() == 1`) the scaling
//! groups (including `concurrent_service`) are **skipped** and recorded
//! with `"skipped_single_core": true` —
//! an N-worker crew on one core measures pure scheduling overhead, and the
//! ~0.9× "speedups" it produces would be read as regressions.

use crate::large_scale::LargeScaleMeasurement;
use crate::paper_figures::PaperFigures;
use crate::runner::{run_algorithm, Algorithm};
use coreness::PeelWorkspace;
use datasets::{generate, temporal_config, Dataset, DatasetId, Scale};
use dccs::{DccsOptions, DccsParams, IndexChoice, IndexPath};
use mlgraph::MultiLayerGraph;
use serde_json::Value;
use std::time::Instant;

/// One engine-vs-naive comparison at fixed `(dataset, d, s)`.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Dataset analogue name.
    pub dataset: String,
    /// Degree threshold.
    pub d: u32,
    /// Layer-subset size.
    pub s: usize,
    /// `C(l, s)` candidates generated per run.
    pub candidates: usize,
    /// Best-of-N wall time of the lattice + workspace engine, seconds.
    pub engine_secs: f64,
    /// Best-of-N wall time of the pre-refactor path, seconds.
    pub naive_secs: f64,
    /// Checksum over emitted cores (must match between the two paths).
    pub checksum: u64,
    /// Adjacency representation the cost model picked for the engine run.
    pub index_path: IndexPath,
}

impl Comparison {
    /// `naive_secs / engine_secs`.
    pub fn speedup(&self) -> f64 {
        self.naive_secs / self.engine_secs
    }

    /// Renders the comparison as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("dataset", Value::from(self.dataset.as_str())),
            ("d", Value::from(self.d)),
            ("s", Value::from(self.s)),
            ("candidates", Value::from(self.candidates)),
            ("engine_secs", Value::from(self.engine_secs)),
            ("naive_secs", Value::from(self.naive_secs)),
            ("speedup", Value::from(self.speedup())),
            ("index_path", Value::from(format!("{:?}", self.index_path))),
        ])
    }
}

/// One 1-vs-N-thread measurement of a full algorithm run.
#[derive(Clone, Debug)]
pub struct ThreadScaling {
    /// Dataset analogue name.
    pub dataset: String,
    /// Algorithm name (`GD-DCCS`, `BU-DCCS`, `TD-DCCS`).
    pub algorithm: &'static str,
    /// Degree threshold.
    pub d: u32,
    /// Layer-subset size.
    pub s: usize,
    /// Result budget.
    pub k: usize,
    /// Worker count of the multi-threaded run.
    pub threads: usize,
    /// Best-of-N wall time at 1 thread, seconds.
    pub secs_1: f64,
    /// Best-of-N wall time at `threads` workers, seconds.
    pub secs_n: f64,
    /// Search-phase time of the fastest 1-thread run, seconds.
    pub search_secs_1: f64,
    /// Search-phase time of the fastest `threads`-worker run, seconds.
    pub search_secs_n: f64,
    /// `|Cov(R)|` — identical at both thread counts by construction.
    pub cover: usize,
}

impl ThreadScaling {
    /// `secs_1 / secs_n` (> 1 means the threaded run was faster).
    pub fn speedup(&self) -> f64 {
        self.secs_1 / self.secs_n
    }

    /// `search_secs_1 / search_secs_n`: the speedup of the search phase
    /// alone.
    pub fn search_speedup(&self) -> f64 {
        self.search_secs_1 / self.search_secs_n
    }

    /// Renders the measurement as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("dataset", Value::from(self.dataset.as_str())),
            ("algorithm", Value::from(self.algorithm)),
            ("d", Value::from(self.d)),
            ("s", Value::from(self.s)),
            ("k", Value::from(self.k)),
            ("threads", Value::from(self.threads)),
            ("secs_1", Value::from(self.secs_1)),
            ("secs_n", Value::from(self.secs_n)),
            ("speedup", Value::from(self.speedup())),
            ("search_secs_1", Value::from(self.search_secs_1)),
            ("search_secs_n", Value::from(self.search_secs_n)),
            ("search_speedup", Value::from(self.search_speedup())),
            ("cover", Value::from(self.cover)),
        ])
    }
}

/// One `Auto`-vs-fixed-algorithm measurement at `(dataset, d, s, k)`.
#[derive(Clone, Debug)]
pub struct AutoSelection {
    /// Dataset analogue name.
    pub dataset: String,
    /// Degree threshold.
    pub d: u32,
    /// Layer-subset size.
    pub s: usize,
    /// Result budget.
    pub k: usize,
    /// Name of the algorithm `Auto` resolved to.
    pub chosen: &'static str,
    /// Best-of-N wall time of the `Auto` run, seconds.
    pub auto_secs: f64,
    /// Best-of-N wall time of each fixed algorithm, seconds.
    pub fixed_secs: Vec<(&'static str, f64)>,
    /// `|Cov(R)|` of the auto run (identical to its chosen fixed run).
    pub cover: usize,
}

impl AutoSelection {
    /// The fastest fixed algorithm and its time.
    pub fn best_fixed(&self) -> (&'static str, f64) {
        self.fixed_secs
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one fixed algorithm measured")
    }

    /// `best_fixed_secs / auto_secs` — 1.0 means the policy picked the
    /// fastest algorithm (modulo timing noise); below 1.0 quantifies how
    /// much a wrong pick cost.
    pub fn efficiency(&self) -> f64 {
        self.best_fixed().1 / self.auto_secs
    }

    /// Renders the measurement as a JSON object.
    pub fn to_json(&self) -> Value {
        let fixed = self
            .fixed_secs
            .iter()
            .map(|&(name, secs)| {
                Value::object(vec![("algorithm", Value::from(name)), ("secs", Value::from(secs))])
            })
            .collect();
        Value::object(vec![
            ("dataset", Value::from(self.dataset.as_str())),
            ("d", Value::from(self.d)),
            ("s", Value::from(self.s)),
            ("k", Value::from(self.k)),
            ("chosen", Value::from(self.chosen)),
            ("auto_secs", Value::from(self.auto_secs)),
            ("best_fixed", Value::from(self.best_fixed().0)),
            ("best_fixed_secs", Value::from(self.best_fixed().1)),
            ("efficiency", Value::from(self.efficiency())),
            ("cover", Value::from(self.cover)),
            ("fixed", Value::Array(fixed)),
        ])
    }
}

/// One index-regime measurement (the `index_regret` group of
/// `BENCH_dcc.json`): one algorithm's search phase — index planning and
/// build plus GD's lattice walk or BU's or TD's search tree — at one
/// `(dataset, d, s)`, with the peeling index forced to CSR, forced to dense
/// rows, and left to the `Auto` cost model. The three covers are asserted
/// identical before any time is recorded.
#[derive(Clone, Debug)]
pub struct IndexRegret {
    /// Dataset analogue name.
    pub dataset: String,
    /// Algorithm name ([`Algorithm::name`]: `GD-DCCS`, `BU-DCCS` or
    /// `TD-DCCS`).
    pub algorithm: &'static str,
    /// Degree threshold.
    pub d: u32,
    /// Layer-subset size.
    pub s: usize,
    /// Best-of-N search seconds with the index forced to CSR.
    pub csr_secs: f64,
    /// Best-of-N search seconds with the index forced dense; `None` when
    /// the rows exceed the dense word budget and the forced run fell back
    /// to CSR.
    pub dense_secs: Option<f64>,
    /// The representation `Auto` picked.
    pub auto_pick: IndexPath,
    /// Best-of-N search seconds on `Auto`.
    pub auto_secs: f64,
    /// `|Cov(R)|`, identical under every regime.
    pub cover: usize,
}

impl IndexRegret {
    /// The fastest forced regime and its seconds.
    pub fn best(&self) -> (IndexPath, f64) {
        match self.dense_secs {
            Some(dense) if dense < self.csr_secs => (IndexPath::Dense, dense),
            _ => (IndexPath::Csr, self.csr_secs),
        }
    }

    /// `auto_secs / best_secs − 1`: 0 when `Auto` ran as fast as the best
    /// regime, 1 when it took twice as long. Timing noise can push it
    /// slightly below 0.
    pub fn regret(&self) -> f64 {
        self.auto_secs / self.best().1 - 1.0
    }

    /// Renders the measurement as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("dataset", Value::from(self.dataset.as_str())),
            ("algorithm", Value::from(self.algorithm)),
            ("d", Value::from(self.d)),
            ("s", Value::from(self.s)),
            ("csr_secs", Value::from(self.csr_secs)),
            ("dense_secs", self.dense_secs.map_or(Value::Null, Value::from)),
            ("auto_pick", Value::from(format!("{:?}", self.auto_pick))),
            ("auto_secs", Value::from(self.auto_secs)),
            ("best", Value::from(format!("{:?}", self.best().0))),
            ("regret", Value::from(self.regret())),
            ("cover", Value::from(self.cover)),
        ])
    }
}

/// Per-phase wall-clock breakdown of one end-to-end algorithm run (the
/// `phase_breakdown` group of `BENCH_dcc.json`): where a query's time goes
/// — vertex-deletion preprocessing, the candidate search itself, and the
/// final max-k-cover selection — as recorded by
/// [`dccs::SearchStats::phase`]. The `complete` flag is the limit marker:
/// `true` means no query limit fired (the bench harness runs unlimited, so
/// anything else is a harness bug worth seeing in the JSON).
#[derive(Clone, Debug)]
pub struct PhaseBreakdown {
    /// Dataset analogue name.
    pub dataset: String,
    /// Algorithm name (`GD-DCCS`, `BU-DCCS`, `TD-DCCS`).
    pub algorithm: &'static str,
    /// Degree threshold.
    pub d: u32,
    /// Layer-subset size.
    pub s: usize,
    /// Preprocessing seconds of the fastest run.
    pub preprocess_secs: f64,
    /// Candidate-search seconds of the fastest run.
    pub search_secs: f64,
    /// Max-k-cover selection seconds of the fastest run.
    pub select_secs: f64,
    /// End-to-end seconds of the fastest run.
    pub total_secs: f64,
    /// Whether the run finished without tripping any query limit.
    pub complete: bool,
}

impl PhaseBreakdown {
    /// Renders the measurement as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("dataset", Value::from(self.dataset.as_str())),
            ("algorithm", Value::from(self.algorithm)),
            ("d", Value::from(self.d)),
            ("s", Value::from(self.s)),
            ("preprocess_secs", Value::from(self.preprocess_secs)),
            ("search_secs", Value::from(self.search_secs)),
            ("select_secs", Value::from(self.select_secs)),
            ("total_secs", Value::from(self.total_secs)),
            ("complete", Value::from(self.complete)),
        ])
    }
}

/// One serve-from-index measurement (the `serve_from_index` group of
/// `BENCH_dcc.json`): the cost of building and persisting a
/// [`dccs::DccIndex`] for one degree threshold, and what a *repeat* query
/// costs when answered from the artifact vs re-peeled from the graph. The
/// two answers are asserted identical before either time is recorded.
#[derive(Clone, Debug)]
pub struct ServeFromIndex {
    /// Dataset analogue name.
    pub dataset: String,
    /// Degree threshold the index was built for, covering subset sizes
    /// `1..=s` (the grid the measured query is served from — the full
    /// hierarchy of a many-layer graph is exponentially larger than any
    /// query working set, so the bench builds what it serves).
    pub d: u32,
    /// Layer-subset size of the measured query.
    pub s: usize,
    /// Result budget of the measured query.
    pub k: usize,
    /// Best-of-N seconds to build the full per-subset-size index for `d`.
    pub build_secs: f64,
    /// Serialized artifact size in bytes.
    pub bytes: usize,
    /// Best-of-N seconds of the greedy query answered by re-peeling.
    pub query_peel_secs: f64,
    /// Best-of-N seconds of the same query answered from the index.
    pub query_index_secs: f64,
    /// `|Cov(R)|` — identical on both paths by the bit-identity contract.
    pub cover: usize,
}

impl ServeFromIndex {
    /// `query_peel_secs / query_index_secs` — the repeat-query speedup.
    pub fn speedup(&self) -> f64 {
        self.query_peel_secs / self.query_index_secs
    }

    /// Renders the measurement as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("dataset", Value::from(self.dataset.as_str())),
            ("d", Value::from(self.d)),
            ("s", Value::from(self.s)),
            ("k", Value::from(self.k)),
            ("build_secs", Value::from(self.build_secs)),
            ("bytes", Value::from(self.bytes)),
            ("query_peel_secs", Value::from(self.query_peel_secs)),
            ("query_index_secs", Value::from(self.query_index_secs)),
            ("speedup", Value::from(self.speedup())),
            ("cover", Value::from(self.cover)),
        ])
    }
}

/// One concurrent-service measurement (the `concurrent_service` group of
/// `BENCH_dcc.json`): a deterministic query mix with repeats answered
/// through one [`dccs::QueryService`] at a fixed worker width, recording
/// throughput, latency percentiles, and the result-cache hit rate. The
/// suite runs the same mix at 1 and N workers so batch-level scaling and
/// the bit-identity contract both stay on the perf trajectory.
#[derive(Clone, Debug)]
pub struct ConcurrentService {
    /// Dataset analogue name.
    pub dataset: String,
    /// Worker-pool width the batch fanned out over.
    pub workers: usize,
    /// Requests in the mix (with repeats, so the cache gets hits).
    pub requests: usize,
    /// Best-of-N wall time of the whole batch, seconds.
    pub secs: f64,
    /// Per-query latency percentiles of the best repetition, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// `hits / (hits + misses)` of the best repetition's fresh cache.
    pub cache_hit_rate: f64,
    /// Sum of cover sizes over the mix — must match across widths.
    pub cover_sum: usize,
}

impl ConcurrentService {
    /// Requests answered per second in the best repetition.
    pub fn qps(&self) -> f64 {
        self.requests as f64 / self.secs
    }

    /// Renders the measurement as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("dataset", Value::from(self.dataset.as_str())),
            ("workers", Value::from(self.workers)),
            ("requests", Value::from(self.requests)),
            ("secs", Value::from(self.secs)),
            ("qps", Value::from(self.qps())),
            ("p50_ms", Value::from(self.p50_ms)),
            ("p95_ms", Value::from(self.p95_ms)),
            ("p99_ms", Value::from(self.p99_ms)),
            ("cache_hit_rate", Value::from(self.cache_hit_rate)),
            ("cover_sum", Value::from(self.cover_sum)),
        ])
    }
}

/// One incremental-maintenance measurement (the `incremental_maintenance`
/// group of `BENCH_dcc.json`): a temporal batch stream committed through
/// one warm [`dccs::QueryService`] (the repair path — bounded reach-set
/// growth for inserts, cascade re-peel within the old core for deletes, on
/// touched layers only) against the recompute-from-scratch baseline (apply
/// the batch, then re-peel every layer's `d`-core as a repair-less service
/// would at its next query). The final answers on both graphs are asserted
/// identical before either time is recorded.
#[derive(Clone, Debug)]
pub struct IncrementalMaintenance {
    /// Dataset analogue name (the temporal generator at the bench scale).
    pub dataset: String,
    /// Edge operations per committed batch.
    pub batch_size: usize,
    /// Batches committed per repetition.
    pub batches: usize,
    /// Total edge operations across the stream (inserts + deletes).
    pub edges: usize,
    /// Materialized per-`d` tier entries each commit repaired.
    pub repaired_ds: usize,
    /// Best-of-N seconds to commit the whole stream incrementally.
    pub incremental_secs: f64,
    /// Best-of-N seconds to apply + re-peel from scratch per batch.
    pub recompute_secs: f64,
    /// `|Cov(R)|` of the post-stream probe — identical on both paths.
    pub cover: usize,
}

impl IncrementalMaintenance {
    /// Edge operations maintained per second on the incremental path.
    pub fn updates_per_sec(&self) -> f64 {
        self.edges as f64 / self.incremental_secs
    }

    /// `recompute_secs / incremental_secs` (> 1 means repair beats
    /// re-peeling from scratch).
    pub fn speedup(&self) -> f64 {
        self.recompute_secs / self.incremental_secs
    }

    /// Renders the measurement as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("dataset", Value::from(self.dataset.as_str())),
            ("batch_size", Value::from(self.batch_size)),
            ("batches", Value::from(self.batches)),
            ("edges", Value::from(self.edges)),
            ("repaired_ds", Value::from(self.repaired_ds)),
            ("incremental_secs", Value::from(self.incremental_secs)),
            ("recompute_secs", Value::from(self.recompute_secs)),
            ("updates_per_sec", Value::from(self.updates_per_sec())),
            ("speedup", Value::from(self.speedup())),
            ("cover", Value::from(self.cover)),
        ])
    }
}

/// One scalar-vs-dispatched micro-comparison of a bit-kernel primitive
/// (the `kernel_dispatch` group of `BENCH_dcc.json`): the same operation
/// over the same words, once on the scalar reference kernel and once on
/// the kernel the process dispatched to (`DCCS_FORCE_KERNEL` or CPU
/// detection) — so the JSON records what the SIMD layer is actually worth
/// on the recording host.
#[derive(Clone, Debug)]
pub struct KernelDispatch {
    /// Primitive measured (`and_count`, `and_assign_count`, …).
    pub op: &'static str,
    /// Operand length in 64-bit words (row width of the simulated universe).
    pub words: usize,
    /// Best-of-N seconds on the scalar reference kernel.
    pub scalar_secs: f64,
    /// Best-of-N seconds on the dispatched kernel.
    pub dispatched_secs: f64,
    /// Name of the dispatched kernel (`scalar`, `unrolled`, `avx2`).
    pub kernel: &'static str,
}

impl KernelDispatch {
    /// `scalar_secs / dispatched_secs` (> 1 means the dispatched kernel is
    /// faster; ≈ 1 when the dispatch resolved to scalar itself).
    pub fn speedup(&self) -> f64 {
        self.scalar_secs / self.dispatched_secs
    }

    /// Renders the measurement as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("op", Value::from(self.op)),
            ("words", Value::from(self.words)),
            ("scalar_secs", Value::from(self.scalar_secs)),
            ("dispatched_secs", Value::from(self.dispatched_secs)),
            ("kernel", Value::from(self.kernel)),
            ("speedup", Value::from(self.speedup())),
        ])
    }
}

/// Deterministic mixed-density word patterns (no external RNG needed).
fn bench_words(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    (0..n)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match i % 7 {
                0 => 0,
                1 => !0,
                _ => state,
            }
        })
        .collect()
}

/// Measures the dispatched kernel against the scalar reference on the
/// primitives the peeling engines actually spend their words in, at row
/// widths bracketing the bench universes (8 words ≈ a 512-vertex dense
/// universe, 64 words ≈ 4096). Each measurement is the best of `runs`
/// timed repetitions of a fixed iteration count.
pub fn kernel_dispatch_suite(runs: usize) -> Vec<KernelDispatch> {
    use mlgraph::kernels::{kernel, kernel_for, BitKernel, KernelKind};
    let scalar = kernel_for(KernelKind::Scalar).expect("scalar kernel always available");
    let dispatched = kernel();
    let kernel_name = dispatched.kind().name();
    let mut out = Vec::new();
    for &words in &[8usize, 64] {
        let a = bench_words(1, words);
        let b = bench_words(2, words);
        let iterations = 4 << 20 >> words.trailing_zeros().min(6); // ~same total words per op
        let time_op = |k: &'static dyn BitKernel, op: &str| -> f64 {
            let mut buf = vec![0u64; words];
            let (secs, _) = best_of(runs, || {
                let mut checksum = 0u64;
                for _ in 0..iterations {
                    checksum = checksum.wrapping_add(match op {
                        "and_count" => k.and_count(&a, &b) as u64,
                        "and_assign_count" => k.and_assign_count(&mut buf, &a, &b) as u64,
                        "andnot_assign_count" => k.andnot_assign_count(&mut buf, &a, &b) as u64,
                        "or_inplace_count" => k.or_inplace_count(&mut buf, &b) as u64,
                        _ => unreachable!("unknown kernel op"),
                    });
                }
                checksum
            });
            secs
        };
        for op in ["and_count", "and_assign_count", "andnot_assign_count", "or_inplace_count"] {
            let scalar_secs = time_op(scalar, op);
            let dispatched_secs = time_op(dispatched, op);
            out.push(KernelDispatch {
                op,
                words,
                scalar_secs,
                dispatched_secs,
                kernel: kernel_name,
            });
        }
    }
    out
}

fn best_of<F: FnMut() -> u64>(runs: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        checksum = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, checksum)
}

/// Measures engine vs naive candidate generation on `ds` at `(d, s)`,
/// taking the best of `runs` timed repetitions per path.
///
/// # Panics
///
/// Panics if the two paths emit different cores (they never should; this is
/// the bench double-checking the equivalence the property tests prove).
pub fn compare_candidate_generation(ds: &Dataset, d: u32, s: usize, runs: usize) -> Comparison {
    let params = DccsParams::new(d, s, 10);
    let pre = dccs::preprocess::preprocess(&ds.graph, &params, &DccsOptions::default());
    let l = ds.graph.num_layers();

    let mut ws = PeelWorkspace::new();
    let mut index_path = IndexPath::Csr;
    let (engine_secs, engine_sum) = best_of(runs, || {
        let mut checksum = 0u64;
        let stats =
            dccs::for_each_subset_core(&ds.graph, d, s, &pre.layer_cores, &mut ws, |_, core| {
                for v in core.iter() {
                    checksum = checksum.wrapping_mul(31).wrapping_add(v as u64 + 1);
                }
            });
        index_path = stats.index_path;
        checksum
    });

    let (naive_secs, naive_sum) = best_of(runs, || {
        let mut checksum = 0u64;
        for (_, core) in dccs::naive_subset_cores(&ds.graph, d, s, &pre.layer_cores) {
            for v in core.iter() {
                checksum = checksum.wrapping_mul(31).wrapping_add(v as u64 + 1);
            }
        }
        checksum
    });

    assert_eq!(engine_sum, naive_sum, "engine and naive paths disagree on the emitted cores");
    Comparison {
        dataset: format!("{:?}", ds.id),
        d,
        s,
        candidates: dccs::layer_subsets::combinations(l, s).count(),
        engine_secs,
        naive_secs,
        checksum: engine_sum,
        index_path,
    }
}

/// Measures one algorithm end to end at 1 executor thread and at `threads`
/// at `(d, s, k = 10)`, asserting the covers agree (they must — the
/// executor is deterministic).
///
/// Caveat: each timed run is a one-shot session, so it includes the
/// worker spawn/join of that session's crew; on sub-millisecond inputs —
/// the tiny analogues — `secs_n` is dominated by that fixed cost and
/// understates the scheduling speedup larger inputs would see.
pub fn compare_thread_scaling(
    ds: &Dataset,
    algorithm: Algorithm,
    d: u32,
    s: usize,
    threads: usize,
    runs: usize,
) -> ThreadScaling {
    let params = DccsParams::new(d, s, 10);
    compare_scaling_at(&format!("{:?}", ds.id), &ds.graph, algorithm, &params, threads, runs)
}

/// [`compare_thread_scaling`] at any `params`, recording the row under
/// `dataset`.
fn compare_scaling_at(
    dataset: &str,
    g: &MultiLayerGraph,
    algorithm: Algorithm,
    params: &DccsParams,
    threads: usize,
    runs: usize,
) -> ThreadScaling {
    let (secs_1, search_secs_1, cover_1) = fastest_run(g, algorithm, params, 1, runs);
    let (secs_n, search_secs_n, cover_n) = fastest_run(g, algorithm, params, threads, runs);
    assert_eq!(cover_1, cover_n, "thread count changed the cover — determinism violated");
    ThreadScaling {
        dataset: dataset.to_string(),
        algorithm: algorithm.name(),
        d: params.d,
        s: params.s,
        k: params.k,
        threads,
        secs_1,
        secs_n,
        search_secs_1,
        search_secs_n,
        cover: cover_1,
    }
}

/// The fastest of `runs` one-shot runs at `threads`: its wall time and its
/// search-phase time, in seconds, and its cover.
fn fastest_run(
    g: &MultiLayerGraph,
    algorithm: Algorithm,
    params: &DccsParams,
    threads: usize,
    runs: usize,
) -> (f64, f64, usize) {
    let opts = DccsOptions::with_threads(threads);
    let mut fastest = (f64::INFINITY, 0.0, 0);
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        let outcome = run_algorithm(algorithm, g, params, &opts);
        let secs = start.elapsed().as_secs_f64();
        if secs < fastest.0 {
            fastest = (secs, outcome.result.stats.phase.search.as_secs_f64(), outcome.cover_size);
        }
    }
    fastest
}

/// Measures `Algorithm::Auto` against every fixed algorithm on `ds` at
/// `(d, s, k)`, asserting the auto run's cover matches its chosen fixed
/// algorithm's (the policy only *selects*; it must not change results).
pub fn compare_auto_selection(
    ds: &Dataset,
    d: u32,
    s: usize,
    k: usize,
    runs: usize,
) -> AutoSelection {
    let params = DccsParams::new(d, s, k);
    let opts = DccsOptions::default();
    let mut chosen = Algorithm::Auto;
    let mut auto_cover = 0usize;
    let (auto_secs, _) = best_of(runs, || {
        let outcome = run_algorithm(Algorithm::Auto, &ds.graph, &params, &opts);
        chosen = outcome.algorithm;
        auto_cover = outcome.cover_size;
        auto_cover as u64
    });
    let mut fixed_secs = Vec::new();
    for algorithm in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown] {
        let mut cover = 0usize;
        let (secs, _) = best_of(runs, || {
            let outcome = run_algorithm(algorithm, &ds.graph, &params, &opts);
            cover = outcome.cover_size;
            cover as u64
        });
        if algorithm == chosen {
            assert_eq!(cover, auto_cover, "auto's result must equal its chosen algorithm's result");
        }
        fixed_secs.push((algorithm.name(), secs));
    }
    AutoSelection {
        dataset: format!("{:?}", ds.id),
        d,
        s,
        k,
        chosen: chosen.name(),
        auto_secs,
        fixed_secs,
        cover: auto_cover,
    }
}

/// Times `algorithm`'s search phase on `ds` at `(d, s)` under each peeling
/// representation — forced CSR, forced dense, and `Auto` — taking the best
/// of `runs` cold one-shot queries each.
///
/// # Panics
///
/// Panics if the regimes' covers differ (the representations are
/// bit-identical by contract; this is the bench re-checking it).
pub fn compare_index_regret(
    ds: &Dataset,
    algorithm: Algorithm,
    d: u32,
    s: usize,
    runs: usize,
) -> IndexRegret {
    let params = DccsParams::new(d, s, 10);
    let time = |index: IndexChoice| {
        let opts = DccsOptions { index, ..DccsOptions::default() };
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..runs.max(1) {
            let outcome = run_algorithm(algorithm, &ds.graph, &params, &opts);
            best = best.min(outcome.result.stats.phase.search.as_secs_f64());
            last = Some(outcome.result);
        }
        let result = last.expect("at least one repetition runs");
        (best, result.stats.index_path.unwrap_or_default(), result.cover)
    };
    let (csr_secs, _, cover) = time(IndexChoice::Csr);
    let (dense_secs, dense_path, dense_cover) = time(IndexChoice::Dense);
    let (auto_secs, auto_pick, auto_cover) = time(IndexChoice::Auto);
    assert!(
        dense_cover == cover && auto_cover == cover,
        "index regimes diverged on {} {:?} d={d} s={s}",
        algorithm.name(),
        ds.id
    );
    IndexRegret {
        dataset: format!("{:?}", ds.id),
        algorithm: algorithm.name(),
        d,
        s,
        csr_secs,
        dense_secs: (dense_path == IndexPath::Dense).then_some(dense_secs),
        auto_pick,
        auto_secs,
        cover: cover.len(),
    }
}

/// Runs `measure` at every configuration of the baseline grid: the Wiki
/// and German analogues at `scale`, over a small `(d, s)` grid.
fn over_baseline_grid<T>(
    scale: Scale,
    mut measure: impl FnMut(&Dataset, u32, usize) -> T,
) -> Vec<T> {
    let mut out = Vec::new();
    for id in [DatasetId::Wiki, DatasetId::German] {
        let ds = generate(id, scale);
        for (d, s) in [(3u32, 2usize), (3, 3), (2, 2)] {
            if s <= ds.graph.num_layers() {
                out.push(measure(&ds, d, s));
            }
        }
    }
    out
}

/// The standard baseline suite recorded in `BENCH_dcc.json`: engine vs
/// naive candidate generation over the baseline grid.
pub fn baseline_suite(scale: Scale, runs: usize) -> Vec<Comparison> {
    over_baseline_grid(scale, |ds, d, s| compare_candidate_generation(ds, d, s, runs))
}

/// The index-regret suite: GD, BU and TD at every baseline-grid
/// configuration under each peeling representation. A record for
/// recalibrating the dense-vs-CSR crossover, not a gate: the cost model
/// prices one degree count, which GD's lattice pays per new layer and the
/// search trees pay per layer of every peel.
pub fn index_regret_suite(scale: Scale, runs: usize) -> Vec<IndexRegret> {
    over_baseline_grid(scale, |ds, d, s| {
        [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown]
            .map(|algorithm| compare_index_regret(ds, algorithm, d, s, runs))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Whether this host has a single hardware thread — the case where
/// 1-vs-N-worker wall-clock comparisons measure only scheduling overhead
/// and must be skipped rather than recorded as bogus sub-1× "speedups".
pub fn single_core() -> bool {
    detected_cores() == 1
}

/// The hardware thread count `available_parallelism` reports (1 when the
/// query fails) — recorded next to every `skipped_single_core` marker so a
/// skipped scaling group documents the host it was skipped on.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The human-readable reason attached to a skipped scaling group (empty
/// when the group actually ran).
fn scaling_skip_reason(skipped_single_core: bool) -> &'static str {
    if skipped_single_core {
        "single hardware thread: a 1-vs-N comparison measures scheduling overhead, not scaling"
    } else {
        ""
    }
}

/// The 1-vs-N-thread suite: every algorithm on the Wiki and German
/// analogues at a representative `(d, s)` each.
pub fn thread_scaling_suite(scale: Scale, runs: usize, threads: usize) -> Vec<ThreadScaling> {
    let mut out = Vec::new();
    for id in [DatasetId::Wiki, DatasetId::German] {
        let ds = generate(id, scale);
        let s = 2.min(ds.graph.num_layers());
        for algorithm in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown] {
            out.push(compare_thread_scaling(&ds, algorithm, 3, s, threads, runs));
        }
    }
    out
}

/// The search-tree suite: BU and TD at 1 vs `threads` on perfbench
/// paper-mix's 16 BU and TD queries (its `paper_mix_queries`), on the
/// graphs paper-mix loads — German at `Large` and Wiki at `Full`, whatever
/// scale the other groups run at. These are the trees production runs, so
/// each row's `search_speedup` is the record BU's and TD's per-node batches
/// are judged by.
pub fn subtree_scaling_suite(runs: usize, threads: usize) -> Vec<ThreadScaling> {
    use Algorithm::{BottomUp as Bu, TopDown as Td};
    // (d, s, k, algorithm) per graph, as paper-mix lists them.
    let german = [(2, 2, 20, Bu), (2, 4, 5, Bu), (3, 3, 10, Bu), (3, 6, 20, Bu), (4, 4, 5, Bu)];
    let german_td = [(3, 2, 10, Td), (4, 2, 20, Td), (2, 6, 5, Td)];
    let wiki = [(2, 6, 5, Bu), (3, 4, 10, Bu), (4, 2, 20, Bu)];
    let wiki_td = [(2, 3, 5, Td), (3, 3, 10, Td), (2, 4, 20, Td), (4, 4, 5, Td), (4, 2, 10, Td)];
    let mut out = Vec::new();
    for (id, scale, keys) in [
        (DatasetId::German, Scale::Large, [&german[..], &german_td[..]].concat()),
        (DatasetId::Wiki, Scale::Full, [&wiki[..], &wiki_td[..]].concat()),
    ] {
        let ds = generate(id, scale);
        let name = format!("{id:?}-{scale:?}");
        for (d, s, k, algorithm) in keys {
            let params = DccsParams::new(d, s, k);
            out.push(compare_scaling_at(&name, &ds.graph, algorithm, &params, threads, runs));
        }
    }
    out
}

/// Measures where one end-to-end run's time goes, keeping the phase split
/// of the fastest of `runs` repetitions.
pub fn compare_phase_breakdown(
    ds: &Dataset,
    algorithm: Algorithm,
    d: u32,
    s: usize,
    runs: usize,
) -> PhaseBreakdown {
    let params = DccsParams::new(d, s, 10);
    let mut best: Option<PhaseBreakdown> = None;
    for _ in 0..runs.max(1) {
        let outcome = run_algorithm(algorithm, &ds.graph, &params, &DccsOptions::default());
        let total = outcome.seconds();
        if best.as_ref().is_some_and(|b| b.total_secs <= total) {
            continue;
        }
        let phase = &outcome.result.stats.phase;
        best = Some(PhaseBreakdown {
            dataset: format!("{:?}", ds.id),
            algorithm: outcome.algorithm.name(),
            d,
            s,
            preprocess_secs: phase.preprocess.as_secs_f64(),
            search_secs: phase.search.as_secs_f64(),
            select_secs: phase.select.as_secs_f64(),
            total_secs: total,
            complete: outcome.result.stats.complete,
        });
    }
    best.expect("at least one repetition runs")
}

/// The phase-breakdown suite: every algorithm on the Wiki and German
/// analogues at the thread-scaling suite's representative `(d, s)`.
pub fn phase_breakdown_suite(scale: Scale, runs: usize) -> Vec<PhaseBreakdown> {
    let mut out = Vec::new();
    for id in [DatasetId::Wiki, DatasetId::German] {
        let ds = generate(id, scale);
        let s = 2.min(ds.graph.num_layers());
        for algorithm in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown] {
            out.push(compare_phase_breakdown(&ds, algorithm, 3, s, runs));
        }
    }
    out
}

/// The `Auto`-vs-fixed suite: the Wiki and German analogues over a small
/// and a large support threshold each, at the Fig. 13 default `k`.
pub fn auto_selection_suite(scale: Scale, runs: usize) -> Vec<AutoSelection> {
    let mut out = Vec::new();
    for id in [DatasetId::Wiki, DatasetId::German] {
        let ds = generate(id, scale);
        let l = ds.graph.num_layers();
        let small_s = 2.min(l);
        let large_s = l.saturating_sub(1).max(1);
        for s in [small_s, large_s] {
            out.push(compare_auto_selection(&ds, 3, s, 10, runs));
        }
    }
    out
}

/// Measures one serve-from-index configuration: index build time, artifact
/// size, and the repeat-query cost from the index vs from a fresh peel.
/// Both query paths run through warmed sessions (best of `runs` each), so
/// the comparison isolates candidate *derivation* — hierarchy lookup vs
/// re-peeling — not session setup.
pub fn compare_serve_from_index(
    ds: &Dataset,
    d: u32,
    s: usize,
    k: usize,
    runs: usize,
) -> ServeFromIndex {
    use dccs::{DccIndex, DccsSession, Serve};
    let g = &ds.graph;
    let params = DccsParams::new(d, s, k);

    let mut build_secs = f64::MAX;
    let mut index = None;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        let built = DccIndex::build(g, &[d], s);
        build_secs = build_secs.min(start.elapsed().as_secs_f64());
        index = Some(built);
    }
    let index = index.expect("at least one build runs");
    let bytes = index.to_bytes().len();

    let mut peel_session = DccsSession::new(g);
    let mut query_peel_secs = f64::MAX;
    let mut peel_cover = 0;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        let result = peel_session
            .query(params)
            .algorithm(Algorithm::Greedy)
            .serve(Serve::Peel)
            .run()
            .expect("peel query");
        query_peel_secs = query_peel_secs.min(start.elapsed().as_secs_f64());
        peel_cover = result.cover_size();
    }

    let mut index_session = DccsSession::new(g);
    index_session.attach_index(index).expect("index fits its own graph");
    let mut query_index_secs = f64::MAX;
    let mut index_cover = 0;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        let result = index_session
            .query(params)
            .algorithm(Algorithm::Greedy)
            .serve(Serve::Index)
            .run()
            .expect("index query");
        query_index_secs = query_index_secs.min(start.elapsed().as_secs_f64());
        index_cover = result.cover_size();
    }
    assert_eq!(peel_cover, index_cover, "serve paths diverged on {:?} d={d} s={s}", ds.id);

    ServeFromIndex {
        dataset: format!("{:?}", ds.id),
        d,
        s,
        k,
        build_secs,
        bytes,
        query_peel_secs,
        query_index_secs,
        cover: peel_cover,
    }
}

/// The serve-from-index suite: the Wiki and German analogues at the
/// baseline grid's two representative `(d, s)` points, `k = 10`.
pub fn serve_from_index_suite(scale: Scale, runs: usize) -> Vec<ServeFromIndex> {
    let mut out = Vec::new();
    for id in [DatasetId::Wiki, DatasetId::German] {
        let ds = generate(id, scale);
        let l = ds.graph.num_layers();
        for (d, s) in [(3u32, 2usize.min(l)), (2, 3usize.min(l))] {
            out.push(compare_serve_from_index(&ds, d, s, 10, runs));
        }
    }
    out
}

/// Nearest-rank percentile of an ascending-sorted sample (0 on empty).
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted_ms.len() as f64).ceil().max(1.0) as usize;
    sorted_ms[rank.min(sorted_ms.len()) - 1]
}

/// Measures one concurrent-service configuration: a `requests`-long mix
/// (four query shapes cycled, so every shape repeats and the result cache
/// gets hits) batched through a fresh [`dccs::QueryService`] at `workers`
/// width. A fresh service per repetition keeps the cache cold at the
/// start, so the recorded hit rate is the mix's intrinsic repeat rate, not
/// an artifact of earlier repetitions.
pub fn compare_concurrent_service(
    ds: &Dataset,
    workers: usize,
    requests: usize,
    runs: usize,
) -> ConcurrentService {
    use dccs::{QueryService, ServiceQuery};
    let g = &ds.graph;
    let l = g.num_layers().max(1);
    let shapes = [(3u32, 2usize, 10usize), (2, 2, 10), (3, 2, 5), (2, 3, 10)];
    let queries: Vec<ServiceQuery> = (0..requests)
        .map(|i| {
            let (d, s, k) = shapes[i % shapes.len()];
            ServiceQuery::new(DccsParams::new(d, s.min(l), k))
        })
        .collect();

    let mut best: Option<ConcurrentService> = None;
    for _ in 0..runs.max(1) {
        let opts = DccsOptions { threads: workers, ..DccsOptions::default() };
        let service = QueryService::new(g, opts);
        let start = Instant::now();
        let outcomes = service.run_batch(&queries).expect("bench mix is valid");
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_some_and(|b| b.secs <= secs) {
            continue;
        }
        let cover_sum = outcomes
            .iter()
            .map(|o| o.result.as_ref().expect("unlimited bench query").cover_size())
            .sum();
        let mut latencies: Vec<f64> =
            outcomes.iter().map(|o| o.latency.as_secs_f64() * 1e3).collect();
        latencies.sort_by(f64::total_cmp);
        let cache = service.cache_stats();
        best = Some(ConcurrentService {
            dataset: format!("{:?}", ds.id),
            workers,
            requests,
            secs,
            p50_ms: percentile(&latencies, 0.50),
            p95_ms: percentile(&latencies, 0.95),
            p99_ms: percentile(&latencies, 0.99),
            cache_hit_rate: cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            cover_sum,
        });
    }
    best.expect("at least one repetition runs")
}

/// The concurrent-service suite: the Wiki and German analogues, each mix
/// at 1 worker vs `threads`, with the cover checksum asserted identical
/// across widths (the service's bit-identity contract).
pub fn concurrent_service_suite(
    scale: Scale,
    runs: usize,
    threads: usize,
) -> Vec<ConcurrentService> {
    let mut out = Vec::new();
    for id in [DatasetId::Wiki, DatasetId::German] {
        let ds = generate(id, scale);
        let one = compare_concurrent_service(&ds, 1, 16, runs);
        let many = compare_concurrent_service(&ds, threads, 16, runs);
        assert_eq!(
            one.cover_sum, many.cover_sum,
            "service answers diverged between 1 and {threads} workers on {id:?}"
        );
        out.push(one);
        out.push(many);
    }
    out
}

/// Measures one incremental-maintenance configuration: `num_batches`
/// temporal batches of `batch_size` operations, committed through a warm
/// [`dccs::QueryService`] (one probe query materializes the shared `d`-core
/// tier, so every commit exercises the repair path) vs applied + re-peeled
/// from scratch per batch (every layer's `d`-core, the work a repair-less
/// service defers to its next query). The post-stream probe answer is
/// asserted identical on both graphs before timing is recorded.
pub fn compare_incremental_maintenance(
    scale: Scale,
    batch_size: usize,
    num_batches: usize,
    runs: usize,
) -> IncrementalMaintenance {
    use dccs::{DccsSession, QueryService, ServiceQuery};
    use mlgraph::generators::temporal_batches;
    use mlgraph::MultiLayerGraph;

    let config = temporal_config(scale);
    let (base, batches) =
        temporal_batches(&config, num_batches, batch_size).expect("bench temporal config is valid");
    let d = 3u32;
    let params = DccsParams::new(d, 2.min(base.num_layers()), 10);
    let edges: usize = batches.iter().map(mlgraph::EdgeBatch::len).sum();

    let mut incremental_secs = f64::MAX;
    let mut repaired_ds = 0usize;
    let mut service_cover = 0usize;
    for _ in 0..runs.max(1) {
        let service = QueryService::new(&base, DccsOptions::default());
        // Warm the shared tier: the probe materializes the d-core entries
        // the commits will repair (a cold service has nothing to maintain).
        service.query(&ServiceQuery::new(params)).expect("warm probe");
        let start = Instant::now();
        for batch in &batches {
            let receipt = service.commit(batch).expect("generated batches are valid");
            repaired_ds = repaired_ds.max(receipt.repaired_ds);
        }
        incremental_secs = incremental_secs.min(start.elapsed().as_secs_f64());
        service_cover =
            service.query(&ServiceQuery::new(params)).expect("post-stream probe").cover_size();
    }

    let mut recompute_secs = f64::MAX;
    let mut final_graph: Option<MultiLayerGraph> = None;
    for _ in 0..runs.max(1) {
        let mut mutated: Option<MultiLayerGraph> = None;
        let start = Instant::now();
        for batch in &batches {
            let src = mutated.as_ref().unwrap_or(&base);
            let (next, _) = src.apply_batch(batch).expect("generated batches are valid");
            // From-scratch tier rebuild: what the next query pays when the
            // commit throws the materialized cores away instead of
            // repairing them.
            let mut rebuilt = 0usize;
            for layer in 0..next.num_layers() {
                rebuilt += coreness::d_core(next.layer(layer), d).len();
            }
            std::hint::black_box(rebuilt);
            mutated = Some(next);
        }
        recompute_secs = recompute_secs.min(start.elapsed().as_secs_f64());
        final_graph = mutated;
    }

    let final_graph = final_graph.expect("at least one batch in the stream");
    let mut session = DccsSession::new(&final_graph);
    let fresh = session.query(params).run().expect("recompute probe");
    assert_eq!(
        service_cover,
        fresh.cover_size(),
        "incremental and recomputed answers diverged at batch_size {batch_size}"
    );

    IncrementalMaintenance {
        dataset: format!("Temporal-{scale:?}"),
        batch_size,
        batches: batches.len(),
        edges,
        repaired_ds,
        incremental_secs,
        recompute_secs,
        cover: service_cover,
    }
}

/// The incremental-maintenance suite: the temporal generator at the bench
/// scale, streamed at batch sizes 1, 16, and 256 (single-edge repairs,
/// small bursts, and bulk loads).
pub fn incremental_maintenance_suite(scale: Scale, runs: usize) -> Vec<IncrementalMaintenance> {
    [1usize, 16, 256]
        .iter()
        .map(|&batch_size| compare_incremental_maintenance(scale, batch_size, 4, runs))
        .collect()
}

/// Renders one scaling group: the single-core skip marker, the detected
/// core count and skip reason documenting the host, plus the measurements
/// (empty when skipped).
fn scaling_group_to_json(measurements: &[ThreadScaling], skipped_single_core: bool) -> Value {
    Value::object(vec![
        ("skipped_single_core", Value::from(skipped_single_core)),
        ("detected_cores", Value::from(detected_cores())),
        ("reason", Value::from(scaling_skip_reason(skipped_single_core))),
        ("measurements", Value::Array(measurements.iter().map(ThreadScaling::to_json).collect())),
    ])
}

/// Every group one `bench_dcc` run measured, rendered by [`suite_to_json`].
/// A group left empty renders as an empty list (and its geomean as 1).
#[derive(Clone, Debug, Default)]
pub struct SuiteResults {
    /// Engine-vs-naive candidate generation ([`baseline_suite`]).
    pub comparisons: Vec<Comparison>,
    /// 1-vs-N-thread runs ([`thread_scaling_suite`]).
    pub scaling: Vec<ThreadScaling>,
    /// BU/TD runs on paper-mix's search trees ([`subtree_scaling_suite`]).
    pub subtree: Vec<ThreadScaling>,
    /// Marks the scaling groups and `concurrent_service` as skipped on a
    /// one-core host; their lists are then empty (see [`single_core`]).
    pub scaling_skipped_single_core: bool,
    /// `Auto`-vs-fixed algorithm runs ([`auto_selection_suite`]).
    pub auto: Vec<AutoSelection>,
    /// Per-representation GD search runs ([`index_regret_suite`]).
    pub index_regret: Vec<IndexRegret>,
    /// Scalar-vs-dispatched kernel runs ([`kernel_dispatch_suite`]).
    pub kernels: Vec<KernelDispatch>,
    /// Phase splits ([`phase_breakdown_suite`]).
    pub phases: Vec<PhaseBreakdown>,
    /// Index-vs-peel repeat queries ([`serve_from_index_suite`]).
    pub serve: Vec<ServeFromIndex>,
    /// Service mixes at 1 and N workers ([`concurrent_service_suite`]).
    pub concurrent: Vec<ConcurrentService>,
    /// Repair-vs-recompute streams ([`incremental_maintenance_suite`]).
    pub incremental: Vec<IncrementalMaintenance>,
    /// The large-scale tier ([`crate::large_scale::large_scale_suite`]).
    pub large: Vec<LargeScaleMeasurement>,
    /// The paper's Section VI figures
    /// ([`crate::paper_figures::paper_figures_suite`]); `null` when absent.
    pub figures: Option<PaperFigures>,
}

/// Geometric mean of `values`, 1 for none.
fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (log_sum, n) = values.fold((0.0, 0usize), |(sum, n), x| (sum + x.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Renders one list of measurements as a JSON array.
fn array<T>(items: &[T], to_json: fn(&T) -> Value) -> Value {
    Value::Array(items.iter().map(to_json).collect())
}

/// Renders the suites as the `BENCH_dcc.json` document.
pub fn suite_to_json(scale: Scale, runs: usize, suites: &SuiteResults) -> Value {
    let skipped = suites.scaling_skipped_single_core;
    let regret_max = suites.index_regret.iter().map(IndexRegret::regret).fold(0.0, f64::max);
    Value::object(vec![
        ("benchmark", Value::from("dcc_candidate_generation_engine_vs_naive")),
        ("scale", Value::from(format!("{scale:?}"))),
        ("runs_per_measurement", Value::from(runs)),
        (
            "geomean_speedup",
            Value::from(geomean(suites.comparisons.iter().map(Comparison::speedup))),
        ),
        (
            "auto_selection_efficiency_geomean",
            Value::from(geomean(suites.auto.iter().map(AutoSelection::efficiency))),
        ),
        ("index_regret_max", Value::from(regret_max)),
        ("selected_kernel", Value::from(mlgraph::kernels::kernel().kind().name())),
        (
            "kernel_dispatch_speedup_geomean",
            Value::from(geomean(suites.kernels.iter().map(KernelDispatch::speedup))),
        ),
        (
            "serve_from_index_speedup_geomean",
            Value::from(geomean(suites.serve.iter().map(ServeFromIndex::speedup))),
        ),
        (
            "incremental_maintenance_speedup_geomean",
            Value::from(geomean(suites.incremental.iter().map(IncrementalMaintenance::speedup))),
        ),
        ("comparisons", array(&suites.comparisons, Comparison::to_json)),
        ("thread_scaling", scaling_group_to_json(&suites.scaling, skipped)),
        ("subtree_scaling", scaling_group_to_json(&suites.subtree, skipped)),
        ("auto_selection", array(&suites.auto, AutoSelection::to_json)),
        ("index_regret", array(&suites.index_regret, IndexRegret::to_json)),
        ("kernel_dispatch", array(&suites.kernels, KernelDispatch::to_json)),
        ("phase_breakdown", array(&suites.phases, PhaseBreakdown::to_json)),
        ("serve_from_index", array(&suites.serve, ServeFromIndex::to_json)),
        (
            "concurrent_service",
            Value::object(vec![
                ("skipped_single_core", Value::from(skipped)),
                ("detected_cores", Value::from(detected_cores())),
                ("reason", Value::from(scaling_skip_reason(skipped))),
                ("measurements", array(&suites.concurrent, ConcurrentService::to_json)),
            ]),
        ),
        ("incremental_maintenance", array(&suites.incremental, IncrementalMaintenance::to_json)),
        ("large_scale", array(&suites.large, LargeScaleMeasurement::to_json)),
        ("paper_figures", suites.figures.as_ref().map_or(Value::Null, PaperFigures::to_json)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_and_naive_agree_and_record_json() {
        let ds = generate(DatasetId::German, Scale::Tiny);
        let cmp = compare_candidate_generation(&ds, 2, 2, 1);
        assert!(cmp.engine_secs > 0.0 && cmp.naive_secs > 0.0);
        assert!(cmp.candidates > 0);
        let suites = SuiteResults { comparisons: vec![cmp], ..SuiteResults::default() };
        let text = serde_json::to_string_pretty(&suite_to_json(Scale::Tiny, 1, &suites));
        assert!(text.contains("\"geomean_speedup\""));
        assert!(text.contains("\"dataset\": \"German\""));
        assert!(text.contains("\"index_path\""));
        assert!(text.contains("\"thread_scaling\""));
        assert!(text.contains("\"subtree_scaling\""));
        assert!(text.contains("\"auto_selection\""));
    }

    /// On a single-core host the scaling groups carry the skip marker (and
    /// no measurements); on a multi-core host the marker is false. Either
    /// way both groups are present in the document.
    #[test]
    fn scaling_groups_record_the_single_core_skip() {
        let skipped = SuiteResults { scaling_skipped_single_core: true, ..SuiteResults::default() };
        let text = serde_json::to_string_pretty(&suite_to_json(Scale::Tiny, 1, &skipped));
        assert!(text.contains("\"skipped_single_core\": true"));
        assert!(text.contains("\"detected_cores\""));
        assert!(text.contains("single hardware thread"));
        let json = suite_to_json(Scale::Tiny, 1, &SuiteResults::default());
        let text = serde_json::to_string_pretty(&json);
        assert!(text.contains("\"skipped_single_core\": false"));
        assert!(text.contains("\"detected_cores\""));
        assert!(text.contains("\"reason\": \"\""));
        assert!(text.contains("\"subtree_scaling\""));
        assert!(text.contains("\"large_scale\""));
    }

    #[test]
    fn auto_selection_is_measured_and_recorded() {
        let ds = generate(DatasetId::German, Scale::Tiny);
        let auto = compare_auto_selection(&ds, 2, 2, 5, 1);
        assert!(auto.auto_secs > 0.0);
        assert_eq!(auto.fixed_secs.len(), 3);
        assert_ne!(auto.chosen, "AUTO", "auto must resolve to a concrete algorithm");
        assert!(auto.fixed_secs.iter().any(|&(name, _)| name == auto.chosen));
        assert!(auto.efficiency() > 0.0);
        let text = serde_json::to_string_pretty(&auto.to_json());
        assert!(text.contains("\"chosen\""));
        assert!(text.contains("\"efficiency\""));
    }

    #[test]
    fn index_regret_is_measured_and_recorded() {
        let ds = generate(DatasetId::German, Scale::Tiny);
        let rows: Vec<IndexRegret> = [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown]
            .map(|algorithm| compare_index_regret(&ds, algorithm, 2, 2, 1))
            .into();
        for m in &rows {
            assert!(m.csr_secs > 0.0 && m.auto_secs > 0.0, "{}", m.algorithm);
            assert!(m.dense_secs.is_some(), "a tiny universe's rows fit the word budget");
            assert!(m.best().1 <= m.csr_secs);
        }
        let suites = SuiteResults { index_regret: rows, ..SuiteResults::default() };
        let text = serde_json::to_string_pretty(&suite_to_json(Scale::Tiny, 1, &suites));
        assert!(text.contains("\"index_regret\""));
        assert!(text.contains("\"index_regret_max\""));
        assert!(text.contains("\"auto_pick\""));
        assert!(text.contains("\"regret\""));
        for name in ["GD-DCCS", "BU-DCCS", "TD-DCCS"] {
            assert!(text.contains(&format!("\"algorithm\": \"{name}\"")), "{name}");
        }
    }

    #[test]
    fn regret_is_measured_against_the_fastest_regime() {
        let mut m = IndexRegret {
            dataset: "G".into(),
            algorithm: "GD-DCCS",
            d: 2,
            s: 2,
            csr_secs: 2.0,
            dense_secs: Some(1.0),
            auto_pick: IndexPath::Csr,
            auto_secs: 2.0,
            cover: 1,
        };
        assert_eq!(m.best(), (IndexPath::Dense, 1.0));
        assert_eq!(m.regret(), 1.0);
        // Rows over the word budget: CSR is the only forced regime.
        m.dense_secs = None;
        assert_eq!(m.best(), (IndexPath::Csr, 2.0));
        assert_eq!(m.regret(), 0.0);
        let text = serde_json::to_string_pretty(&m.to_json());
        assert!(text.contains("\"dense_secs\": null"), "{text}");
    }

    #[test]
    fn phase_breakdown_is_measured_and_recorded() {
        let ds = generate(DatasetId::German, Scale::Tiny);
        let p = compare_phase_breakdown(&ds, Algorithm::BottomUp, 2, 2, 1);
        assert!(p.complete, "an unlimited bench run must finish");
        assert!(p.total_secs > 0.0);
        // The three phases partition the run (modulo dispatch overhead):
        // their sum cannot exceed the end-to-end wall clock.
        assert!(p.preprocess_secs + p.search_secs + p.select_secs <= p.total_secs);
        let suites = SuiteResults { phases: vec![p], ..SuiteResults::default() };
        let text = serde_json::to_string_pretty(&suite_to_json(Scale::Tiny, 1, &suites));
        assert!(text.contains("\"phase_breakdown\""));
        assert!(text.contains("\"preprocess_secs\""));
        assert!(text.contains("\"search_secs\""));
        assert!(text.contains("\"select_secs\""));
        assert!(text.contains("\"complete\": true"));
    }

    #[test]
    fn kernel_dispatch_is_measured_and_recorded() {
        let kernels = kernel_dispatch_suite(1);
        assert!(!kernels.is_empty());
        for k in &kernels {
            assert!(k.scalar_secs > 0.0 && k.dispatched_secs > 0.0, "{}", k.op);
            assert!(k.speedup() > 0.0);
        }
        let suites = SuiteResults { kernels, ..SuiteResults::default() };
        let text = serde_json::to_string_pretty(&suite_to_json(Scale::Tiny, 1, &suites));
        assert!(text.contains("\"selected_kernel\""));
        assert!(text.contains("\"kernel_dispatch\""));
        assert!(text.contains("\"kernel_dispatch_speedup_geomean\""));
        assert!(text.contains("\"and_count\""));
    }

    #[test]
    fn serve_from_index_is_measured_and_recorded() {
        let ds = generate(DatasetId::German, Scale::Tiny);
        let m = compare_serve_from_index(&ds, 2, 2, 5, 1);
        assert!(m.build_secs > 0.0);
        assert!(m.bytes > 0);
        assert!(m.query_peel_secs > 0.0 && m.query_index_secs > 0.0);
        assert!(m.speedup() > 0.0);
        let suites = SuiteResults { serve: vec![m], ..SuiteResults::default() };
        let text = serde_json::to_string_pretty(&suite_to_json(Scale::Tiny, 1, &suites));
        assert!(text.contains("\"serve_from_index\""));
        assert!(text.contains("\"serve_from_index_speedup_geomean\""));
        assert!(text.contains("\"build_secs\""));
        assert!(text.contains("\"query_index_secs\""));
    }

    #[test]
    fn concurrent_service_is_measured_and_recorded() {
        let ds = generate(DatasetId::German, Scale::Tiny);
        let one = compare_concurrent_service(&ds, 1, 8, 1);
        let two = compare_concurrent_service(&ds, 2, 8, 1);
        assert_eq!(one.cover_sum, two.cover_sum, "answers must not depend on width");
        assert!(one.secs > 0.0 && two.secs > 0.0);
        assert!(one.qps() > 0.0);
        // Eight requests over four shapes repeat each shape once: half the
        // cache-eligible queries must have hit.
        assert!(one.cache_hit_rate >= 0.5, "hit rate {}", one.cache_hit_rate);
        assert!(one.p50_ms <= one.p95_ms && one.p95_ms <= one.p99_ms);
        let suites = SuiteResults { concurrent: vec![one], ..SuiteResults::default() };
        let text = serde_json::to_string_pretty(&suite_to_json(Scale::Tiny, 1, &suites));
        assert!(text.contains("\"concurrent_service\""));
        assert!(text.contains("\"qps\""));
        assert!(text.contains("\"p99_ms\""));
        assert!(text.contains("\"cache_hit_rate\""));
    }

    #[test]
    fn incremental_maintenance_is_measured_and_recorded() {
        let m = compare_incremental_maintenance(Scale::Tiny, 8, 2, 1);
        assert_eq!(m.batches, 2);
        assert_eq!(m.edges, 16, "the generator fills every batch at tiny scale");
        assert!(m.repaired_ds >= 1, "the warm probe must materialize a tier to repair");
        assert!(m.incremental_secs > 0.0 && m.recompute_secs > 0.0);
        assert!(m.updates_per_sec() > 0.0);
        let suites = SuiteResults { incremental: vec![m], ..SuiteResults::default() };
        let text = serde_json::to_string_pretty(&suite_to_json(Scale::Tiny, 1, &suites));
        assert!(text.contains("\"incremental_maintenance\""));
        assert!(text.contains("\"incremental_maintenance_speedup_geomean\""));
        assert!(text.contains("\"updates_per_sec\""));
        assert!(text.contains("\"batch_size\": 8"));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let ms: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&ms, 0.50), 50.0);
        assert_eq!(percentile(&ms, 0.95), 95.0);
        assert_eq!(percentile(&ms, 0.99), 99.0);
    }

    #[test]
    fn thread_scaling_is_deterministic_and_recorded() {
        let ds = generate(DatasetId::German, Scale::Tiny);
        let ts = compare_thread_scaling(&ds, Algorithm::BottomUp, 2, 2, 2, 1);
        assert!(ts.secs_1 > 0.0 && ts.secs_n > 0.0);
        let json = ts.to_json();
        let text = serde_json::to_string_pretty(&json);
        assert!(text.contains("\"algorithm\": \"BU-DCCS\""));
        assert!(text.contains("\"threads\": 2"));
    }
}
