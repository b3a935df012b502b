//! The three workloads and the metrics they report.
//!
//! Each workload loads its snapshot(s) several times (set-up), answers
//! queries in a closed loop for the run's duration, checks every answer,
//! and times a stream of commits. The traced run adds the spans and the
//! layer replays the per-layer metrics come from.

use crate::adapter::{self, Algorithm, DccsResult, EdgeBatch, Graph, IndexPath, Key, SearchStats};
use crate::inputs::{self, derive, Rng};
use crate::stats::{mean, median, ms, peak_rss_mb, quantile, ratio, Metrics, Report};
use crate::trace::Tracer;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Intra-query threads of the session workloads: the two cores the
/// benchmark is sized for.
const THREADS: usize = 2;
/// serve-churn: requests between two commits.
const REQUESTS_PER_COMMIT: u64 = 32;
/// serve-churn: client threads.
const CLIENTS: u64 = 2;

/// One run's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub dir: PathBuf,
}

/// One answered query of the timed phase.
struct Sample {
    graph: usize,
    key: Key,
    latency: Duration,
    cover: usize,
    stats: SearchStats,
    cached: bool,
}

impl Sample {
    fn new(graph: usize, key: Key, latency: Duration, r: &DccsResult) -> Self {
        let (cover, stats) = (r.cover_size(), r.stats.clone());
        Sample { graph, key, latency, cover, cached: stats.served_from_cache, stats }
    }
}

/// One timed commit, on chain (service) `chain`.
struct CommitSample {
    chain: usize,
    latency: Duration,
    repaired_ds: usize,
    span: usize,
}

/// Everything a run measured; turned into metrics by [`Outcome::report`].
#[derive(Default)]
struct Outcome {
    tracer: Tracer,
    setup_s: Vec<f64>,
    load_s: Vec<f64>,
    samples: Vec<Sample>,
    wall: Duration,
    /// Wall time of each whole cycle of a workload's query list, and the
    /// cycle's length (empty for serve-churn, which has no cycles).
    cycles: Vec<f64>,
    cycle_len: usize,
    /// `VmHWM` at the end of the workload proper (before any commit probe).
    peak_rss_mb: f64,
    commits: Vec<CommitSample>,
    /// Replayed per-commit (apply_batch ms, repair ms), traced runs only.
    replayed_commits: Vec<(f64, f64)>,
    /// Replayed `initial_layer_cores` ms per (graph, d).
    layer_cores_ms: HashMap<(usize, u32), f64>,
    /// Replayed fixpoint ms per (graph, d, s).
    fixpoint_ms: HashMap<(usize, u32, usize), f64>,
    /// 1-thread ÷ 2-thread phase time: GD, BU, TD search and preprocess.
    speedup: [f64; 4],
    cache: (u64, u64),
    duplicate_fills: u64,
}

impl Outcome {
    fn new(origin: Instant, trace: bool) -> Self {
        Outcome { tracer: Tracer::new(origin, trace), ..Outcome::default() }
    }

    /// Records one answered query, with its phases as child spans unless
    /// it was a cache hit.
    fn answered(&mut self, sample: Sample, start: Instant, request: u64) {
        let span = self.tracer.root("query", request, start, start + sample.latency);
        if !sample.cached {
            let p = &sample.stats.phase;
            let phases = [("preprocess", p.preprocess), ("search", p.search), ("select", p.select)];
            self.tracer.children(span, &phases);
        }
        self.samples.push(sample);
    }

    /// Records a commit timed by [`timed_commit`] on chain `chain`.
    fn committed(
        &mut self,
        chain: usize,
        timed: Result<(Instant, Instant, usize), String>,
        report: &mut Report,
    ) {
        report.attempted += 1;
        match timed {
            Ok((start, end, repaired_ds)) => {
                let span = self.tracer.root("commit", self.commits.len() as u64, start, end);
                self.commits.push(CommitSample { chain, latency: end - start, repaired_ds, span });
            }
            Err(e) => report.fail(e),
        }
    }

    /// `commit_p50_ms`: the median commit time of each chain, averaged
    /// over the chains.
    fn commit_p50_ms(&self) -> f64 {
        let chains = self.commits.iter().map(|c| c.chain + 1).max().unwrap_or(0);
        let medians: Vec<f64> = (0..chains)
            .map(|chain| {
                let times: Vec<f64> = self
                    .commits
                    .iter()
                    .filter(|c| c.chain == chain)
                    .map(|c| ms(c.latency))
                    .collect();
                median(&times)
            })
            .collect();
        mean(&medians)
    }

    /// Replays each chain's committed batches from `g0` (materialized
    /// `ds`) and hangs the replayed apply and repair times under each
    /// commit span.
    fn replay_commits(&mut self, g0: &Graph, chains: &[&[EdgeBatch]], ds: &[u32]) {
        for (chain, batches) in chains.iter().enumerate() {
            let mut g = g0.clone();
            let mut cores: Vec<(u32, Vec<adapter::VertexSet>)> =
                ds.iter().map(|&d| (d, adapter::replay_layer_cores(&g, d).1)).collect();
            let spans: Vec<usize> =
                self.commits.iter().filter(|c| c.chain == chain).map(|c| c.span).collect();
            for (span, batch) in spans.into_iter().zip(batches.iter()) {
                let Ok((apply, repair, next)) = adapter::replay_commit(&g, batch, &mut cores)
                else {
                    continue;
                };
                self.tracer.children(span, &[("apply_batch", apply), ("repair", repair)]);
                self.replayed_commits.push((ms(apply), ms(repair)));
                g = next;
            }
        }
    }

    /// Replays `initial_layer_cores` and the deletion fixpoint for every
    /// (graph, d, s) the timed queries used.
    fn replay_preprocess(&mut self, graphs: &[&Graph]) {
        let mut shapes: Vec<(usize, u32, usize)> =
            self.samples.iter().map(|s| (s.graph, s.key.d, s.key.s)).collect();
        shapes.sort_unstable();
        shapes.dedup();
        for (graph, d, s) in shapes {
            let g = graphs[graph];
            let t0 = Instant::now();
            let (t, cores) = adapter::replay_layer_cores(g, d);
            self.tracer.root("replay.layer_cores", 0, t0, t0 + t);
            self.layer_cores_ms.insert((graph, d), ms(t));
            let key = Key::new(d, s, 1, Algorithm::Auto);
            let t0 = Instant::now();
            let (t, _) = adapter::replay_fixpoint(g, key, cores);
            self.tracer.root("replay.fixpoint", 0, t0, t0 + t);
            self.fixpoint_ms.insert((graph, d, s), ms(t));
        }
    }

    /// The run's metrics: end-to-end ones untraced, per-layer ones traced.
    fn report(&self, trace: bool, report: &mut Report) {
        let m = &mut report.metrics;
        let lat: Vec<f64> = self.samples.iter().map(|s| ms(s.latency)).collect();
        // Answered ÷ wall time; with cycles, per cycle and the median over
        // cycles, so a burst of load from outside moves one cycle only.
        let qps = if self.cycles.is_empty() {
            ratio(self.samples.len() as f64, self.wall.as_secs_f64())
        } else {
            ratio(self.cycle_len as f64, median(&self.cycles))
        };
        report.notes.push(format!(
            "{} timed queries in {:.2} s, {} commits; cycle walls {:.3?} s",
            self.samples.len(),
            self.wall.as_secs_f64(),
            self.commits.len(),
            self.cycles
        ));
        if !trace {
            m.put("setup_s", median(&self.setup_s), "s");
            m.put("qps", qps, "1/s");
            m.put("query_p50_ms", quantile(&lat, 0.5), "ms");
            m.put("query_p90_ms", quantile(&lat, 0.9), "ms");
            m.put("commit_p50_ms", self.commit_p50_ms(), "ms");
            m.put("peak_rss_mb", self.peak_rss_mb, "MB");
            let covers: Vec<f64> = self.samples.iter().map(|s| s.cover as f64).collect();
            m.put("cover_mean", mean(&covers), "vertices");
            return;
        }
        self.per_layer(m, qps);
    }

    fn per_layer(&self, m: &mut Metrics, qps: f64) {
        let computed: Vec<&Sample> = self.samples.iter().filter(|s| !s.cached).collect();
        let each =
            |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> { computed.iter().map(|s| f(s)).collect() };
        m.put("mlgraph.load_s", median(&self.load_s), "s");
        let apply: Vec<f64> = self.replayed_commits.iter().map(|c| c.0).collect();
        let repair: Vec<f64> = self.replayed_commits.iter().map(|c| c.1).collect();
        m.put("mlgraph.apply_batch_ms", mean(&apply), "ms");
        m.put(
            "coreness.layer_cores_ms",
            mean(&each(&|s| self.layer_cores_ms.get(&(s.graph, s.key.d)).copied().unwrap_or(0.0))),
            "ms",
        );
        m.put("coreness.repair_ms", mean(&repair), "ms");
        let pre = each(&|s| ms(s.stats.phase.preprocess));
        m.put("preprocess.ms", mean(&pre), "ms");
        let busy: f64 = computed.iter().map(|s| ms(s.latency)).sum();
        m.put("preprocess.share", ratio(pre.iter().sum(), busy), "ratio");
        m.put(
            "preprocess.fixpoint_ms",
            mean(&each(&|s| {
                self.fixpoint_ms.get(&(s.graph, s.key.d, s.key.s)).copied().unwrap_or(0.0)
            })),
            "ms",
        );
        m.put(
            "preprocess.vertices_deleted",
            mean(&each(&|s| s.stats.vertices_deleted as f64)),
            "count",
        );
        for (name, path) in [
            ("engine.queries.dense", IndexPath::Dense),
            ("engine.queries.csr", IndexPath::Csr),
            ("engine.queries.compressed", IndexPath::CompressedDense),
        ] {
            let n = computed.iter().filter(|s| s.stats.index_path == Some(path)).count();
            m.put(name, n as f64, "count");
        }
        let max = |f: &dyn Fn(&Sample) -> f64| each(f).into_iter().fold(0.0, f64::max);
        m.put("engine.index_mb", max(&|s| s.stats.index_bytes as f64 / 1e6), "MB");
        m.put("engine.scratch_mb", max(&|s| s.stats.peel_scratch_bytes as f64 / 1e6), "MB");
        let [gd, bu, td, pre_speedup] = self.speedup;
        m.put("executor.speedup.gd", gd, "ratio");
        m.put("executor.speedup.bu", bu, "ratio");
        m.put("executor.speedup.td", td, "ratio");
        m.put("executor.speedup.preprocess", pre_speedup, "ratio");
        for (name, alg) in [
            ("search.ms.gd", Algorithm::Greedy),
            ("search.ms.bu", Algorithm::BottomUp),
            ("search.ms.td", Algorithm::TopDown),
        ] {
            let times: Vec<f64> = computed
                .iter()
                .filter(|s| s.stats.algorithm == Some(alg))
                .map(|s| ms(s.stats.phase.search))
                .collect();
            m.put(name, mean(&times), "ms");
        }
        let dcc = each(&|s| s.stats.dcc_calls as f64);
        let candidates = each(&|s| s.stats.candidates_generated as f64);
        m.put("search.dcc_calls", mean(&dcc), "count");
        m.put("search.candidates", mean(&candidates), "count");
        m.put("search.pruned", mean(&each(&|s| s.stats.subtrees_pruned as f64)), "count");
        m.put("search.useful_frac", ratio(candidates.iter().sum(), dcc.iter().sum()), "ratio");
        m.put("select.ms", mean(&each(&|s| ms(s.stats.phase.select))), "ms");
        m.put("service.self_ms", self.tracer.mean_self_ms("query"), "ms");
        let (hits, misses) = self.cache;
        m.put("service.cache_hit_frac", ratio(hits as f64, (hits + misses) as f64), "ratio");
        m.put("service.duplicate_fills", self.duplicate_fills as f64, "count");
        m.put("service.commit_self_ms", self.tracer.mean_self_ms("commit"), "ms");
        let repaired: Vec<f64> = self.commits.iter().map(|c| c.repaired_ds as f64).collect();
        m.put("service.repaired_ds", mean(&repaired), "count");
        m.put("trace.qps", qps, "1/s");
    }
}

/// Runs the workload named in `run`, filling `report`; returns the tracer
/// so the caller can write its spans.
pub fn execute(run: &Run, report: &mut Report) -> Result<Tracer, String> {
    let mut out = match run.workload.as_str() {
        "scale-warm" => scale_warm(run, report)?,
        "paper-mix" => paper_mix(run, report)?,
        "serve-churn" => serve_churn(run, report)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    out.report(run.trace, report);
    Ok(std::mem::take(&mut out.tracer))
}

/// Commits `batch`, returning its start, end and the number of repaired
/// `d`s. The pre-commit snapshot stays pinned across the call, as an
/// in-flight reader would hold it, so the old graph version is freed after
/// the timed call, not inside it.
fn timed_commit(
    svc: &adapter::Service<'_>,
    batch: &EdgeBatch,
) -> Result<(Instant, Instant, usize), String> {
    let _reader = adapter::pin(svc);
    let start = Instant::now();
    let receipt = adapter::commit(svc, batch)?;
    Ok((start, Instant::now(), receipt.repaired_ds))
}

/// The commit probe of the single-client workloads. Two services share
/// `svc`'s warm snapshot and commit one half of `batches` each, at the same
/// time, from two threads. With one committer per core, every run mixes
/// fast and slow cores the same way. (Where cores differ in speed, as
/// virtual CPUs can, a single committer lands on either one and its
/// median jumps from run to run.) Returns the chains for the replay.
fn commit_probe<'b>(
    out: &mut Outcome,
    svc: &adapter::Service<'_>,
    batches: &'b [EdgeBatch],
    report: &mut Report,
) -> [&'b [EdgeBatch]; 2] {
    let second = adapter::service_sharing(svc);
    let (a, b) = batches.split_at(batches.len() / 2);
    let timed: Vec<Vec<_>> = std::thread::scope(|scope| {
        [(svc, a), (&second, b)]
            .map(|(svc, chain)| {
                scope.spawn(move || chain.iter().map(|b| timed_commit(svc, b)).collect())
            })
            .into_iter()
            .map(|h| h.join().expect("commit probe thread panicked"))
            .collect()
    });
    for (chain, results) in timed.into_iter().enumerate() {
        for result in results {
            out.committed(chain, result, report);
        }
    }
    [a, b]
}

/// Runs `query(i)` for i = 0, 1, … in whole cycles of `cycle_len` until
/// `seconds` have passed, recording each cycle's wall time.
fn cycles(
    out: &mut Outcome,
    cycle_len: usize,
    seconds: f64,
    mut query: impl FnMut(&mut Outcome, usize),
) {
    out.cycle_len = cycle_len;
    let begin = Instant::now();
    let mut cycle_start = begin;
    let mut i = 0;
    loop {
        query(out, i);
        i += 1;
        if i % cycle_len == 0 {
            let now = Instant::now();
            out.cycles.push((now - cycle_start).as_secs_f64());
            cycle_start = now;
            if (now - begin).as_secs_f64() >= seconds {
                break;
            }
        }
    }
    out.wall = begin.elapsed();
}

/// Loads a snapshot, adding its load time to `load_s`.
fn load(run: &Run, file: &str, load_s: &mut f64) -> Result<Graph, String> {
    let start = Instant::now();
    let g = adapter::load(&run.dir.join(file))?;
    *load_s += start.elapsed().as_secs_f64();
    Ok(g)
}

/// One (graph version, key)'s first answer, as a fingerprint, and how
/// many answers to it were computed rather than served from a cache.
struct Seen {
    fingerprint: u64,
    computed: u64,
}

/// The answer checks: the first answer to each (graph version, key) in
/// full against its graph, every later one for equality with the first.
#[derive(Default)]
struct Answers(HashMap<(u64, Key), Seen>);

impl Answers {
    /// Checks `r`, an answer to `key` computed on graph `g` of version
    /// `version`. `g` is `None` when that version is no longer pinned; the
    /// answer is then checked for equality only.
    fn record(
        &mut self,
        version: u64,
        key: Key,
        r: &DccsResult,
        g: Option<&Graph>,
        report: &mut Report,
    ) {
        let fingerprint = adapter::fingerprint(r);
        let computed = u64::from(!r.stats.served_from_cache);
        if let Some(seen) = self.0.get_mut(&(version, key)) {
            seen.computed += computed;
            if seen.fingerprint != fingerprint {
                report.fail(format!("{key:?}: two answers differ on graph version {version}"));
            }
            return;
        }
        match g {
            Some(g) => {
                if let Err(e) = adapter::check_answer(g, key, r) {
                    report.fail(e);
                }
            }
            None => report.notes.push(format!(
                "{key:?}: graph version {version} no longer pinned; checked for equality only"
            )),
        }
        self.0.insert((version, key), Seen { fingerprint, computed });
    }

    /// Answers computed for a (version, key) that already had one.
    fn duplicate_fills(&self) -> u64 {
        self.0.values().map(|s| s.computed.saturating_sub(1)).sum()
    }
}

/// scale-warm: one warm session at 2 threads on the 2×10^5-vertex
/// Chung–Lu graph. The timed queries cycle (d, s) ∈ {2, 3}², each at
/// k = 1, 2, 3, 4, with automatic algorithm choice. Sixteen queries a
/// cycle put p50 and p90 inside groups of like queries, not between two.
fn scale_warm(run: &Run, report: &mut Report) -> Result<Outcome, String> {
    const PAIRS: [(u32, usize); 4] = [(2, 2), (2, 3), (3, 2), (3, 3)];
    const KS: [usize; 4] = [1, 2, 3, 4];
    let cycle = PAIRS.len() * KS.len();
    let key_at = |i: usize| {
        let (d, s) = PAIRS[(i / KS.len()) % PAIRS.len()];
        Key::new(d, s, KS[i % KS.len()], Algorithm::Auto)
    };
    let mut out = Outcome::new(Instant::now(), run.trace);
    let warm_up = |session: &mut adapter::Session<'_>, report: &mut Report| {
        for (d, s) in PAIRS {
            if let Err(e) = adapter::session_query(session, Key::new(d, s, 3, Algorithm::Auto)) {
                report.fail(e);
            }
        }
    };
    for _ in 1..SETUP_REPS {
        let (start, mut load_s) = (Instant::now(), 0.0);
        let g = load(run, inputs::GRAPH, &mut load_s)?;
        warm_up(&mut adapter::session(&g, THREADS), report);
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.load_s.push(load_s);
    }
    let (start, mut load_s) = (Instant::now(), 0.0);
    let g = load(run, inputs::GRAPH, &mut load_s)?;
    let mut session = adapter::session(&g, THREADS);
    warm_up(&mut session, report);
    out.setup_s.push(start.elapsed().as_secs_f64());
    out.load_s.push(load_s);

    let mut answers = Answers::default();
    cycles(&mut out, cycle, run.seconds, |out, i| {
        let key = key_at(i);
        report.attempted += 1;
        let start = Instant::now();
        match adapter::session_query(&mut session, key) {
            Ok(r) => {
                out.answered(Sample::new(0, key, start.elapsed(), &r), start, i as u64);
                answers.record(0, key, &r, Some(&g), report);
            }
            Err(e) => report.fail(e),
        }
    });
    out.peak_rss_mb = peak_rss_mb();

    let batches = inputs::load_batches(&run.dir)?;
    let chains = commit_probe(&mut out, &adapter::service_over(&session), &batches, report);
    if run.trace {
        out.replay_preprocess(&[&g]);
        out.replay_commits(&g, &chains, &[2, 3]);
    }
    Ok(out)
}

/// The paper-mix queries: (graph, d, s, k, algorithm), graph 0 German-
/// shaped and 1 Wiki-shaped. Sweeps s, d and k over GD, BU, TD and Auto,
/// leaving out queries over ~1.5 s and those that pick the compressed
/// index.
fn paper_mix_queries() -> Vec<(usize, Key)> {
    use Algorithm::{Auto, BottomUp as Bu, Greedy as Gd, TopDown as Td};
    let q = |g: usize, d: u32, s: usize, k: usize, alg: Algorithm| (g, Key::new(d, s, k, alg));
    vec![
        q(0, 2, 3, 5, Gd),
        q(0, 2, 4, 10, Gd),
        q(0, 3, 2, 20, Gd),
        q(0, 3, 3, 5, Gd),
        q(0, 3, 4, 10, Gd),
        q(0, 4, 2, 20, Gd),
        q(0, 4, 3, 5, Gd),
        q(0, 3, 6, 10, Gd),
        q(0, 2, 2, 20, Bu),
        q(0, 2, 4, 5, Bu),
        q(0, 3, 3, 10, Bu),
        q(0, 3, 6, 20, Bu),
        q(0, 4, 4, 5, Bu),
        q(0, 3, 2, 10, Td),
        q(0, 4, 2, 20, Td),
        q(0, 2, 6, 5, Td),
        q(0, 2, 3, 20, Auto),
        q(0, 3, 4, 5, Auto),
        q(0, 4, 6, 10, Auto),
        q(1, 2, 2, 20, Gd),
        q(1, 2, 3, 5, Gd),
        q(1, 3, 4, 10, Gd),
        q(1, 4, 3, 20, Gd),
        q(1, 2, 6, 5, Bu),
        q(1, 3, 4, 10, Bu),
        q(1, 4, 2, 20, Bu),
        q(1, 2, 3, 5, Td),
        q(1, 3, 3, 10, Td),
        q(1, 2, 4, 20, Td),
        q(1, 4, 4, 5, Td),
        q(1, 4, 2, 10, Td),
        q(1, 2, 4, 10, Auto),
        q(1, 3, 6, 20, Auto),
        q(1, 4, 3, 5, Auto),
    ]
}

/// paper-mix: cold one-shot queries, each on a fresh session at 2
/// threads, cycling through [`paper_mix_queries`] in whole cycles.
fn paper_mix(run: &Run, report: &mut Report) -> Result<Outcome, String> {
    let mut mix = paper_mix_queries();
    // The seed orders the cycle (the graphs are the registry's, fixed).
    let mut rng = Rng::new(derive(run.seed, 6));
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.below(i + 1));
    }
    let mut out = Outcome::new(Instant::now(), run.trace);
    let warm_key = Key::new(3, 2, 5, Algorithm::Auto);
    let mut graphs = Vec::new();
    for _ in 0..SETUP_REPS {
        let (start, mut load_s) = (Instant::now(), 0.0);
        graphs.clear();
        graphs.push(load(run, inputs::GRAPH, &mut load_s)?);
        graphs.push(load(run, inputs::WIKI, &mut load_s)?);
        for g in &graphs {
            if let Err(e) = adapter::one_shot(g, warm_key, THREADS) {
                report.fail(e);
            }
        }
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.load_s.push(load_s);
    }
    let graphs: Vec<&Graph> = graphs.iter().collect();

    let mut answers = Answers::default();
    cycles(&mut out, mix.len(), run.seconds, |out, i| {
        let (graph, key) = mix[i % mix.len()];
        report.attempted += 1;
        let start = Instant::now();
        match adapter::one_shot(graphs[graph], key, THREADS) {
            Ok(r) => {
                out.answered(Sample::new(graph, key, start.elapsed(), &r), start, i as u64);
                answers.record(graph as u64, key, &r, Some(graphs[graph]), report);
            }
            Err(e) => report.fail(e),
        }
    });
    out.peak_rss_mb = peak_rss_mb();

    let batches = inputs::load_batches(&run.dir)?;
    let svc = adapter::service(graphs[0]);
    for d in [2, 3] {
        // Materialize the layer cores the commits repair.
        if let Err(e) = adapter::service_query(&svc, Key::new(d, 4, 5, Algorithm::BottomUp)) {
            report.fail(e);
        }
    }
    let chains = commit_probe(&mut out, &svc, &batches, report);
    if run.trace {
        out.speedup = executor_probe(&out.samples[..mix.len()], &graphs, report);
        out.replay_preprocess(&graphs);
        out.replay_commits(graphs[0], &chains, &[2, 3]);
    }
    Ok(out)
}

/// Reruns `samples`' queries at 1 thread: 1-thread ÷ 2-thread phase time
/// for the GD, BU and TD search phases and for preprocessing (0 where no
/// query ran that algorithm).
fn executor_probe(samples: &[Sample], graphs: &[&Graph], report: &mut Report) -> [f64; 4] {
    let mut one = [0.0f64; 4];
    let mut two = [0.0f64; 4];
    for s in samples {
        report.attempted += 1;
        let r = match adapter::one_shot(graphs[s.graph], s.key, 1) {
            Ok(r) => r,
            Err(e) => {
                report.fail(e);
                continue;
            }
        };
        let slot = match s.stats.algorithm {
            Some(Algorithm::Greedy) => 0,
            Some(Algorithm::BottomUp) => 1,
            _ => 2,
        };
        one[slot] += ms(r.stats.phase.search);
        two[slot] += ms(s.stats.phase.search);
        one[3] += ms(r.stats.phase.preprocess);
        two[3] += ms(s.stats.phase.preprocess);
    }
    std::array::from_fn(|i| ratio(one[i], two[i]))
}

/// serve-churn request keys in popularity-rank order: d ∈ {2, 3}, s ∈
/// {4, 5}, k ∈ {5, 10, 15}, over GD, BU, TD and Auto. Computed, they take
/// 1–11 ms, spread evenly enough that no latency quantile sits on a step.
/// (s ≥ 4 keeps the deletion fixpoint short: at s = 2, 3 its round count,
/// and with it the query cost, swings by ±20% from graph to graph.)
fn churn_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for k in [5, 10, 15] {
        for (d, s) in [(2, 4), (3, 4), (2, 5), (3, 5)] {
            for alg in [Algorithm::Auto, Algorithm::BottomUp, Algorithm::Greedy, Algorithm::TopDown]
            {
                keys.push(Key::new(d, s, k, alg));
            }
        }
    }
    keys
}

/// Zipf exponent of the key popularity: about a third of requests hit the
/// result cache, so p50 and p90 both lie among computed answers.
const ZIPF: f64 = 0.5;

/// Cumulative Zipf weights over `n` ranks.
fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// serve-churn: one `QueryService`, two closed-loop clients at width 1
/// drawing keys by Zipf popularity, and one 16-edge commit from the
/// stream after every 32 requests.
fn serve_churn(run: &Run, report: &mut Report) -> Result<Outcome, String> {
    let keys = churn_keys();
    let cdf = zipf_cdf(keys.len(), ZIPF);
    let batches = inputs::load_batches(&run.dir)?;
    let origin = Instant::now();
    let mut out = Outcome::new(origin, run.trace);
    let warm_up = |svc: &adapter::Service<'_>, report: &mut Report| {
        // k = 1 is not a request key: this fills the layer-core memo for
        // both d, not the result cache.
        for d in [2, 3] {
            if let Err(e) = adapter::service_query(svc, Key::new(d, 4, 1, Algorithm::BottomUp)) {
                report.fail(e);
            }
        }
    };
    for _ in 1..SETUP_REPS {
        let (start, mut load_s) = (Instant::now(), 0.0);
        let g = load(run, inputs::GRAPH, &mut load_s)?;
        warm_up(&adapter::service(&g), report);
        out.setup_s.push(start.elapsed().as_secs_f64());
        out.load_s.push(load_s);
    }
    let (start, mut load_s) = (Instant::now(), 0.0);
    let g = load(run, inputs::GRAPH, &mut load_s)?;
    let svc = adapter::service(&g);
    warm_up(&svc, report);
    out.setup_s.push(start.elapsed().as_secs_f64());
    out.load_s.push(load_s);
    let cache_before = adapter::cache_counts(&svc);

    let requests = AtomicU64::new(0);
    let answers = Mutex::new(Answers::default());
    // Commits, in stream order: the outcome and report they land in, and
    // the index of the next batch.
    let committer = Mutex::new((out, Report::default(), 0usize));
    let begin = Instant::now();
    let clients: Vec<(Outcome, Report)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (svc, keys, cdf, answers, committer, requests, batches) =
                    (&svc, &keys, &cdf, &answers, &committer, &requests, &batches);
                scope.spawn(move || {
                    let mut rng = Rng::new(derive(run.seed, 100 + client));
                    let mut local = (Outcome::new(origin, run.trace), Report::default());
                    while begin.elapsed().as_secs_f64() < run.seconds {
                        let u = rng.unit();
                        let key = keys[cdf.iter().position(|&c| u < c).unwrap_or(keys.len() - 1)];
                        let pinned = adapter::pin(svc);
                        local.1.attempted += 1;
                        let start = Instant::now();
                        let r = match adapter::service_query(svc, key) {
                            Ok(r) => r,
                            Err(e) => {
                                local.1.fail(e);
                                continue;
                            }
                        };
                        let latency = start.elapsed();
                        let n = requests.fetch_add(1, Ordering::SeqCst) + 1;
                        local.0.answered(Sample::new(0, key, latency, &r), start, n);
                        verify(svc, &pinned, key, &r, answers, &mut local.1);
                        if n % REQUESTS_PER_COMMIT == 0 {
                            let mut guard = committer.lock().expect("no client panicked");
                            let (outcome, report, next) = &mut *guard;
                            if let Some(batch) = batches.get(*next) {
                                outcome.committed(0, timed_commit(svc, batch), report);
                                *next += 1;
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let (mut out, commit_report, _) = committer.into_inner().expect("no client panicked");
    out.wall = begin.elapsed();
    out.peak_rss_mb = peak_rss_mb();
    report.absorb(commit_report);
    for (client, client_report) in clients {
        out.samples.extend(client.samples);
        out.tracer.absorb(client.tracer);
        report.absorb(client_report);
    }
    let cache_after = adapter::cache_counts(&svc);
    out.cache = (cache_after.0 - cache_before.0, cache_after.1 - cache_before.1);
    let answers = answers.into_inner().expect("no client panicked");
    out.duplicate_fills = answers.duplicate_fills();

    // The final epoch's answers must equal a fresh session's on the final
    // graph: every key answered there, plus the most popular keys.
    let last = adapter::pin(&svc);
    let epoch = adapter::epoch_of(&last);
    let mut finals: Vec<(Key, u64)> = answers
        .0
        .iter()
        .filter(|((e, _), _)| *e == epoch)
        .map(|(&(_, key), s)| (key, s.fingerprint))
        .collect();
    for &key in keys.iter().take(4) {
        if !finals.iter().any(|(k, _)| *k == key) {
            report.attempted += 1;
            match adapter::service_query(&svc, key) {
                Ok(r) => finals.push((key, adapter::fingerprint(&r))),
                Err(e) => report.fail(e),
            }
        }
    }
    for (key, served) in finals {
        report.attempted += 1;
        match adapter::one_shot(adapter::graph_of(&last), key, 1) {
            Ok(fresh) if adapter::fingerprint(&fresh) == served => {}
            Ok(_) => {
                report.fail(format!("{key:?}: final-epoch answer differs from a fresh session"))
            }
            Err(e) => report.fail(e),
        }
    }
    if run.trace {
        let final_graph = adapter::graph_of(&last).clone();
        out.replay_preprocess(&[&final_graph]);
        out.replay_commits(&g, &[&batches], &[2, 3]);
    }
    Ok(out)
}

/// Checks one served answer against the graph version it names.
fn verify(
    svc: &adapter::Service<'_>,
    pinned: &adapter::Snapshot<'_>,
    key: Key,
    r: &DccsResult,
    answers: &Mutex<Answers>,
    report: &mut Report,
) {
    let Some(epoch) = r.stats.graph_epoch else {
        return report.fail(format!("{key:?}: answer carries no epoch"));
    };
    // A commit may land between the pin and the query; the query then ran
    // on the snapshot published right after it.
    let current;
    let snapshot = if adapter::epoch_of(pinned) == epoch {
        pinned
    } else {
        current = adapter::pin(svc);
        &current
    };
    let g = (adapter::epoch_of(snapshot) == epoch).then(|| adapter::graph_of(snapshot));
    answers.lock().expect("no client panicked").record(epoch, key, r, g, report);
}
