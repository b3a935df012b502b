//! `dccs` — command-line diversified coherent core search.
//!
//! ```text
//! dccs stats   (--input FILE | --dataset NAME [--scale S])
//! dccs run     (--input FILE | --dataset NAME [--scale S])
//!              [--algorithm auto|gd|bu|td|exact] [--index auto|csr|dense]
//!              [-d N] [-s N] [-k N] [--threads N] [--no-vd] [--no-sl] [--no-ir]
//! dccs compare (--input FILE | --dataset NAME [--scale S]) [-d N] [-s N] [-k N]
//!              [--threads N]
//! dccs generate --dataset NAME [--scale S] --output FILE
//! ```
//!
//! `--input` accepts the text edge-list format (`src dst layer`, `#`
//! comments); `--dataset` generates one of the built-in synthetic analogues
//! (PPI, Author, German, Wiki, English, Stack). All queries run through a
//! [`DccsSession`], so invalid parameters and malformed inputs surface as
//! one-line errors with a nonzero exit code — never a panic backtrace.

use datasets::{generate, temporal_config, DatasetId, Scale};
use dccs::fault::FaultPlan;
use dccs::{
    Algorithm, DccIndex, DccsError, DccsOptions, DccsParams, DccsSession, IndexChoice,
    QueryService, Serve,
};
use mlgraph::{EdgeBatch, GraphStats, MultiLayerGraph};
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod ndjson;

const USAGE: &str = "\
dccs — diversified coherent core search on multi-layer graphs

USAGE:
    dccs stats    (--input FILE | --dataset NAME [--scale tiny|small|full|large])
    dccs run      (--input FILE | --dataset NAME [--scale SCALE])
                  [--algorithm auto|gd|bu|td|exact] [--index auto|csr|dense]
                  [-d N] [-s N] [-k N]
                  [--threads N] [--no-vd] [--no-sl] [--no-ir]
                  [--timeout-ms N] [--budget N] [--degrade]
                  [--serve auto|peel|index] [--load-index FILE] [--save-index FILE]
    dccs serve    (--input FILE | --dataset NAME [--scale SCALE])
                  [--threads N] [--mix N] [--load-index FILE]
                  [plus every `run` default: -d/-s/-k, --algorithm, --serve,
                   --timeout-ms, --budget, --degrade, --index]
    dccs apply    ((--input FILE | --dataset NAME [--scale SCALE]) --batch FILE
                   | --stream N [--scale SCALE])
                  [plus every `run` default: -d/-s/-k, --algorithm, --serve,
                   --timeout-ms, --budget, --degrade, --index, --threads]
    dccs compare  (--input FILE | --dataset NAME [--scale SCALE]) [-d N] [-s N] [-k N]
                  [--threads N] [--index auto|csr|dense]
    dccs generate --dataset NAME [--scale SCALE] --output FILE
    dccs index build (--input FILE | --dataset NAME [--scale SCALE]) --output FILE
                  [-d N[,N...]] [--max-s N] [--threads N]
    dccs index info FILE

DEFAULTS: -d 4, -s 3, -k 10, --algorithm auto, --index auto, --scale small,
          --threads 1, --serve auto

--algorithm auto picks GD/BU/TD per query from the paper's regime
heuristics and the dense-vs-CSR cost model; the choice is printed with
the result. --index csr|dense overrides that cost model's peeling
representation for GD, BU and TD alike (for A/B runs; both produce
identical results, and the one used is printed as the index path).
--threads N spreads the search over N executor workers (0 = all
available cores). Results are identical at any thread count.

--timeout-ms N stops the query at the next cooperative checkpoint once N
milliseconds of wall clock pass; --budget N caps the number of candidate
d-CCs a query may generate. A tripped limit exits with code 3 (usage
errors exit 2, other runtime errors 1). --degrade retries an over-budget
exact query as the greedy algorithm instead of failing.

`index build` precomputes every candidate d-CC for the listed degree
thresholds (-d accepts a comma list) and layer-subset sizes up to --max-s
(default: all) and writes the artifact to --output. `run --load-index`
attaches such an artifact; --serve auto answers covered greedy queries
from it without re-peeling (bit-identical results), --serve index demands
it, --serve peel ignores it. A corrupt or mismatched artifact is a
one-line error. `run --save-index` writes the queried thresholds' index
after the run.

`serve` answers a stream of queries over one shared graph snapshot:
each stdin line is a JSON object ({\"id\":1,\"d\":2,\"s\":2,\"k\":5,
\"algorithm\":\"bu\",\"serve\":\"peel\",\"timeout_ms\":250,\"budget\":40,
\"degrade\":true} — every field optional, defaults from the flags), and
each answer is one JSON line in input order. A malformed or rejected
line yields an ok:false line for that request only; the stream
continues and the process still exits 0. --threads N sets the worker
pool width (0 = all cores; results are identical at any width). --mix N
skips stdin and drives N deterministic synthetic requests (with repeats,
to exercise the result cache). Throughput and p50/p95/p99 latency go to
stderr.

A serve line carrying \"op\":\"apply\" mutates the graph instead:
{\"id\":9,\"op\":\"apply\",\"insert\":[[layer,u,v],...],\"delete\":[...]}
commits the batch atomically at its place in the stream and answers with
the new epoch; queries ahead of it finish on the old snapshot, queries
after it see the mutated graph. A rejected batch fails its line only.

`apply` commits edge mutations one-shot, then answers a single query on
the result and prints the serving epoch. --batch FILE reads operations
as `add|del <layer> <u> <v>` lines (`#` comments allowed) against
--input/--dataset; --stream N instead generates a temporal graph plus N
evolution batches (sized by --scale) and commits them in order.
";

/// CLI failure modes: usage errors reprint the synopsis, everything else
/// (malformed input files, invalid parameters, blown exact budgets) is a
/// one-line message so scripted callers get clean stderr.
#[derive(Debug)]
enum CliError {
    /// Malformed command line — worth reprinting the usage text.
    Usage(String),
    /// A valid invocation that failed on its input or parameters.
    Runtime(String),
    /// A query limit fired (deadline, budget, cancellation, memory
    /// ceiling): the invocation was fine, the query just ran out of its
    /// allowance. Scripted callers distinguish this via exit code 3.
    Limit(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Runtime(msg) | CliError::Limit(msg) => {
                write!(f, "{msg}")
            }
        }
    }
}

impl From<DccsError> for CliError {
    fn from(err: DccsError) -> Self {
        if err.is_limit() {
            CliError::Limit(err.to_string())
        } else {
            CliError::Runtime(err.to_string())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Limit(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(3)
        }
    }
}

struct Options {
    input: Option<String>,
    dataset: Option<DatasetId>,
    scale: Scale,
    output: Option<String>,
    algorithm: Algorithm,
    /// Degree thresholds: `run` queries the first, `index build` covers all.
    ds: Vec<u32>,
    s: Option<usize>,
    k: usize,
    max_s: Option<usize>,
    save_index: Option<String>,
    load_index: Option<String>,
    /// `serve` only: drive N synthetic requests instead of reading stdin.
    mix: Option<usize>,
    /// `apply` only: mutation batch file (`add|del <layer> <u> <v>` lines).
    batch: Option<String>,
    /// `apply` only: commit N generated temporal evolution batches.
    stream: Option<usize>,
    opts: DccsOptions,
    /// The `DCCS_FAULT_INJECT` plan, installed on every engine a command makes.
    fault: Option<FaultPlan>,
}

impl Options {
    /// The single degree threshold used by `run`/`compare`.
    fn d(&self) -> u32 {
        self.ds[0]
    }
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut out = Options {
        input: None,
        dataset: None,
        scale: Scale::Small,
        output: None,
        algorithm: Algorithm::Auto,
        ds: vec![4],
        s: None,
        k: 10,
        max_s: None,
        save_index: None,
        load_index: None,
        mix: None,
        batch: None,
        stream: None,
        opts: DccsOptions::default(),
        fault: fault_plan(std::env::var("DCCS_FAULT_INJECT"))?,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| -> Result<String, CliError> {
            iter.next().cloned().ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--input" => out.input = Some(value("--input")?),
            "--output" => out.output = Some(value("--output")?),
            "--dataset" => {
                let name = value("--dataset")?;
                out.dataset = Some(
                    DatasetId::parse(&name)
                        .ok_or_else(|| CliError::Usage(format!("unknown dataset `{name}`")))?,
                );
            }
            "--scale" => {
                let name = value("--scale")?;
                out.scale = Scale::parse(&name)
                    .ok_or_else(|| CliError::Usage(format!("unknown scale `{name}`")))?;
            }
            "--algorithm" => {
                let name = value("--algorithm")?;
                out.algorithm = Algorithm::parse(&name)
                    .ok_or_else(|| CliError::Usage(format!("unknown algorithm `{name}`")))?;
            }
            "--index" => {
                let name = value("--index")?;
                out.opts.index = IndexChoice::parse(&name)
                    .ok_or_else(|| CliError::Usage(format!("unknown index `{name}`")))?;
            }
            "-d" => {
                let list = value("-d")?;
                out.ds = list
                    .split(',')
                    .map(|part| part.trim().parse::<u32>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|_| {
                        CliError::Usage("-d must be a number or a comma list of numbers".into())
                    })?;
                if out.ds.is_empty() {
                    return Err(CliError::Usage("-d needs at least one number".into()));
                }
            }
            "-s" => {
                out.s = Some(
                    value("-s")?
                        .parse()
                        .map_err(|_| CliError::Usage("-s must be a number".into()))?,
                )
            }
            "-k" => {
                out.k = value("-k")?
                    .parse()
                    .map_err(|_| CliError::Usage("-k must be a number".into()))?
            }
            "--threads" => {
                out.opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| CliError::Usage("--threads must be a number".into()))?
            }
            "--no-vd" => out.opts.vertex_deletion = false,
            "--no-sl" => out.opts.sort_layers = false,
            "--no-ir" => out.opts.init_topk = false,
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| CliError::Usage("--timeout-ms must be a number".into()))?;
                out.opts.limits.deadline = Some(Duration::from_millis(ms));
            }
            "--budget" => {
                out.opts.limits.candidate_budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|_| CliError::Usage("--budget must be a number".into()))?,
                );
            }
            "--degrade" => out.opts.limits.degrade = true,
            "--serve" => {
                let name = value("--serve")?;
                out.opts.serve = Serve::parse(&name)
                    .ok_or_else(|| CliError::Usage(format!("unknown serve mode `{name}`")))?;
            }
            "--save-index" => out.save_index = Some(value("--save-index")?),
            "--load-index" => out.load_index = Some(value("--load-index")?),
            "--mix" => {
                out.mix = Some(
                    value("--mix")?
                        .parse()
                        .map_err(|_| CliError::Usage("--mix must be a number".into()))?,
                )
            }
            "--batch" => out.batch = Some(value("--batch")?),
            "--stream" => {
                out.stream = Some(
                    value("--stream")?
                        .parse()
                        .map_err(|_| CliError::Usage("--stream must be a number".into()))?,
                )
            }
            "--max-s" => {
                out.max_s = Some(
                    value("--max-s")?
                        .parse()
                        .map_err(|_| CliError::Usage("--max-s must be a number".into()))?,
                )
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
    }
    Ok(out)
}

/// Parses the `DCCS_FAULT_INJECT` value (see `dccs::fault`): unset means
/// no plan, and a malformed spec or unknown site is a usage error.
fn fault_plan(var: Result<String, std::env::VarError>) -> Result<Option<FaultPlan>, CliError> {
    let usage = |e: String| CliError::Usage(format!("DCCS_FAULT_INJECT: {e}"));
    match var {
        Ok(spec) => FaultPlan::parse(&spec).map(Some).map_err(usage),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(usage(e.to_string())),
    }
}

fn load_graph(opts: &Options) -> Result<MultiLayerGraph, CliError> {
    match (&opts.input, opts.dataset) {
        (Some(path), None) => mlgraph::io::read_edge_list(path)
            .map_err(|e| CliError::Runtime(format!("failed to load `{path}`: {e}"))),
        (None, Some(id)) => Ok(generate(id, opts.scale).graph),
        (Some(_), Some(_)) => {
            Err(CliError::Usage("use either --input or --dataset, not both".into()))
        }
        (None, None) => Err(CliError::Usage("one of --input or --dataset is required".into())),
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("a command is required".into()));
    };
    if command == "--help" || command == "-h" {
        println!("{USAGE}");
        return Ok(());
    }
    if command == "index" {
        return cmd_index(&args[1..]);
    }
    let opts = parse_options(&args[1..])?;
    match command.as_str() {
        "stats" => cmd_stats(&opts),
        "run" => cmd_run(&opts),
        "serve" => cmd_serve(&opts),
        "apply" => cmd_apply(&opts),
        "compare" => cmd_compare(&opts),
        "generate" => cmd_generate(&opts),
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

fn cmd_stats(opts: &Options) -> Result<(), CliError> {
    let g = load_graph(opts)?;
    let stats = GraphStats::compute(&g);
    println!("vertices        : {}", stats.num_vertices);
    println!("layers          : {}", stats.num_layers);
    println!("total edges     : {}", stats.total_edges);
    println!("union edges     : {}", stats.union_edges);
    for layer in &stats.layers {
        println!(
            "  layer {:>3} ({}): edges={} active={} max_deg={} avg_deg={:.2}",
            layer.layer,
            layer.name,
            layer.num_edges,
            layer.active_vertices,
            layer.max_degree,
            layer.avg_degree
        );
    }
    Ok(())
}

fn params_for(opts: &Options, g: &MultiLayerGraph) -> DccsParams {
    // Validation happens inside the session (`Query::run`), which turns a
    // bad combination into a one-line `DccsError` instead of a panic.
    let s = opts.s.unwrap_or_else(|| 3.min(g.num_layers()));
    DccsParams::new(opts.d(), s, opts.k)
}

fn print_result(name: &str, g: &MultiLayerGraph, result: &dccs::DccsResult) {
    println!("== {name} ==");
    println!("time            : {:.4}s", result.elapsed.as_secs_f64());
    let phase = &result.stats.phase;
    println!(
        "  preprocess    : {:.4}s | search: {:.4}s | select: {:.4}s",
        phase.preprocess.as_secs_f64(),
        phase.search.as_secs_f64(),
        phase.select.as_secs_f64()
    );
    if let Some(from) = result.stats.degraded_from {
        println!("degraded from   : {} (over budget; reran as greedy)", from.name());
    }
    println!("cover size      : {}", result.cover_size());
    println!("cores reported  : {}", result.num_cores());
    println!("candidates      : {}", result.stats.candidates_generated);
    println!("dCC calls       : {}", result.stats.dcc_calls);
    println!("subtrees pruned : {}", result.stats.subtrees_pruned);
    println!("vertices deleted: {}", result.stats.vertices_deleted);
    println!("fixpoint rounds : {}", result.stats.fixpoint_rounds);
    println!("preprocess memo : {}", if result.stats.preprocess_memo_hit { "hit" } else { "miss" });
    if let Some(path) = result.stats.index_path {
        println!("index path      : {path:?}");
    }
    if let Some(serve) = result.stats.serve {
        println!(
            "served from     : {}",
            match serve {
                dccs::ServePath::Index => "index (no re-peeling)",
                dccs::ServePath::Peel => "peel",
            }
        );
    }
    if let Some(epoch) = result.stats.graph_epoch {
        println!("graph epoch     : {epoch}");
    }
    if result.stats.served_from_cache {
        println!("cache           : hit (answered without running)");
    }
    for (i, core) in result.cores.iter().enumerate() {
        let layer_names: Vec<&str> = core.layers.iter().map(|&l| g.layer_name(l)).collect();
        println!("  core {:>2}: {} vertices on layers {:?}", i + 1, core.len(), layer_names);
    }
}

fn cmd_run(opts: &Options) -> Result<(), CliError> {
    let g = load_graph(opts)?;
    let params = params_for(opts, &g);
    let mut session = DccsSession::with_options(&g, opts.opts);
    session.set_fault_plan(opts.fault.clone());
    if let Some(path) = &opts.load_index {
        // Corrupt files and fingerprint mismatches both surface here as
        // one-line typed errors (exit 1) before any query runs.
        session.attach_index(DccIndex::load(path)?)?;
    }
    let result = session.query(params).algorithm(opts.algorithm).run()?;
    // The concrete algorithm that ran (resolved from `auto` if requested).
    let ran = result.stats.algorithm.map_or("?", Algorithm::name);
    let label = if opts.algorithm == Algorithm::Auto {
        format!("auto → {ran} (d={}, s={}, k={})", params.d, params.s, params.k)
    } else {
        format!("{ran} (d={}, s={}, k={})", params.d, params.s, params.k)
    };
    print_result(&label, &g, &result);
    if let Some(path) = &opts.save_index {
        let index = match session.index() {
            // Reuse an attached index when it already covers the queried
            // thresholds; otherwise build one on the session's crew.
            Some(index) if opts.ds.iter().all(|&d| index.d_values().contains(&d)) => {
                (*index).clone()
            }
            _ => session.build_index(&opts.ds, opts.max_s.unwrap_or(0)),
        };
        index.save(path)?;
        println!(
            "index saved     : {path} ({} entries, {} candidates)",
            index.num_entries(),
            index.num_candidates()
        );
    }
    Ok(())
}

/// `dccs serve`: answer an NDJSON request stream (or a synthetic `--mix`)
/// through one [`QueryService`] over a shared graph snapshot. Lines
/// carrying `"op":"apply"` commit mutation batches in stream order.
fn cmd_serve(opts: &Options) -> Result<(), CliError> {
    use std::io::{BufRead as _, Write as _};

    let g = load_graph(opts)?;
    let mut service = QueryService::new(&g, opts.opts);
    service.set_fault_plan(opts.fault.clone());
    if let Some(path) = &opts.load_index {
        service.attach_index(DccIndex::load(path)?)?;
    }
    let defaults = ndjson::RequestDefaults {
        d: opts.d(),
        s: opts.s.unwrap_or_else(|| 3.min(g.num_layers())),
        k: opts.k,
        algorithm: opts.algorithm,
        serve: opts.opts.serve,
        limits: opts.opts.limits,
    };
    let lines: Vec<String> = match opts.mix {
        Some(n) => synthetic_mix(&defaults, n),
        None => std::io::stdin()
            .lock()
            .lines()
            .collect::<Result<_, _>>()
            .map_err(|e| CliError::Runtime(format!("failed to read stdin: {e}")))?,
    };

    let responses = serve_stream(&service, &defaults, &lines)?;
    let mut stdout = std::io::stdout().lock();
    for line in &responses {
        writeln!(stdout, "{line}")
            .map_err(|e| CliError::Runtime(format!("failed to write stdout: {e}")))?;
    }
    Ok(())
}

/// Answers a decoded NDJSON stream on `service`, returning the response
/// lines in input order and printing throughput/latency stats to stderr.
///
/// Query runs between two applies form one segment handed to
/// [`QueryService::run_batch`], so they spread over the worker pool and
/// answer on the snapshot current at their submission; each apply line then
/// commits its batch before the next segment starts. A line that fails to
/// decode or validate keeps its slot as an `ok:false` response — the batch
/// itself must only ever see queries it would accept, because `run_batch`
/// rejects a batch containing invalid parameters wholesale.
fn serve_stream(
    service: &QueryService<'_>,
    defaults: &ndjson::RequestDefaults,
    lines: &[String],
) -> Result<Vec<String>, CliError> {
    enum Event {
        Query { id: u64, query: dccs::ServiceQuery },
        Apply { id: u64, batch: EdgeBatch },
        Reject { id: u64, message: String },
    }
    // Mutations never change the vertex or layer count, so parameter
    // validation against the initial snapshot stays correct all stream.
    let num_layers = service.snapshot().graph().num_layers();
    let mut events = Vec::new();
    for (lineno, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match ndjson::parse_line(line, lineno + 1, defaults) {
            Ok(ndjson::Line::Query(req)) => match req.query.spec.params.validate(num_layers) {
                Ok(()) => events.push(Event::Query { id: req.id, query: req.query }),
                Err(e) => events.push(Event::Reject { id: req.id, message: e.to_string() }),
            },
            Ok(ndjson::Line::Apply(apply)) => {
                events.push(Event::Apply { id: apply.id, batch: apply.batch })
            }
            Err((id, message)) => events.push(Event::Reject { id, message }),
        }
    }

    #[derive(Default)]
    struct Tally {
        ran: usize,
        ok: u64,
        errors: u64,
        limits: u64,
        hits: u64,
        applied: u64,
    }
    enum Slot {
        Run(u64, usize),
        Reject(u64, String),
    }
    let mut tally = Tally::default();
    let mut latencies: Vec<f64> = Vec::new();
    let mut responses: Vec<String> = Vec::with_capacity(events.len());
    let mut slots: Vec<Slot> = Vec::new();
    let mut queries: Vec<dccs::ServiceQuery> = Vec::new();

    let flush = |slots: &mut Vec<Slot>,
                 queries: &mut Vec<dccs::ServiceQuery>,
                 responses: &mut Vec<String>,
                 latencies: &mut Vec<f64>,
                 tally: &mut Tally|
     -> Result<(), CliError> {
        if slots.is_empty() {
            return Ok(());
        }
        let outcomes = service.run_batch(queries)?;
        tally.ran += outcomes.len();
        for slot in slots.drain(..) {
            let line = match slot {
                Slot::Reject(id, msg) => {
                    tally.errors += 1;
                    ndjson::error_response(id, &msg, false)
                }
                Slot::Run(id, i) => {
                    let outcome = &outcomes[i];
                    let ms = outcome.latency.as_secs_f64() * 1e3;
                    latencies.push(ms);
                    match &outcome.result {
                        Ok(result) => {
                            tally.ok += 1;
                            if result.stats.served_from_cache {
                                tally.hits += 1;
                            }
                            ndjson::ok_response(id, result, ms)
                        }
                        Err(err) => {
                            tally.errors += 1;
                            if err.is_limit() {
                                tally.limits += 1;
                            }
                            ndjson::dccs_error_response(id, err)
                        }
                    }
                }
            };
            responses.push(line);
        }
        queries.clear();
        Ok(())
    };

    let start = Instant::now();
    for event in events {
        match event {
            Event::Query { id, query } => {
                slots.push(Slot::Run(id, queries.len()));
                queries.push(query);
            }
            Event::Reject { id, message } => slots.push(Slot::Reject(id, message)),
            Event::Apply { id, batch } => {
                // Everything already queued answers on the pre-commit
                // snapshot; only later lines see the new epoch.
                flush(&mut slots, &mut queries, &mut responses, &mut latencies, &mut tally)?;
                let t = Instant::now();
                match service.commit(&batch) {
                    Ok(receipt) => {
                        tally.applied += 1;
                        responses.push(ndjson::apply_response(
                            id,
                            &receipt,
                            t.elapsed().as_secs_f64() * 1e3,
                        ));
                    }
                    // A rejected batch (bad layer/vertex, insert+delete
                    // conflict) fails its line only; the snapshot and the
                    // rest of the stream are untouched.
                    Err(err) => {
                        tally.errors += 1;
                        responses.push(ndjson::dccs_error_response(id, &err));
                    }
                }
            }
        }
    }
    flush(&mut slots, &mut queries, &mut responses, &mut latencies, &mut tally)?;
    let wall = start.elapsed();

    latencies.sort_by(f64::total_cmp);
    let secs = wall.as_secs_f64();
    let qps = if secs > 0.0 { tally.ran as f64 / secs } else { 0.0 };
    let cache = service.cache_stats();
    eprintln!(
        "served {} requests ({} ran, {} ok, {} errors, {} limit-tripped, {} applied) \
         in {secs:.3}s on {} workers ({qps:.1} q/s)",
        responses.len(),
        tally.ran,
        tally.ok,
        tally.errors,
        tally.limits,
        tally.applied,
        service.workers()
    );
    eprintln!(
        "cache           : {} hits | {} misses | {} entries (graph epoch {})",
        tally.hits,
        cache.misses,
        cache.entries,
        service.epoch()
    );
    eprintln!(
        "latency ms      : p50 {:.3} | p95 {:.3} | p99 {:.3}",
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99)
    );
    Ok(responses)
}

/// The deterministic `--mix N` driver: four query shapes derived from the
/// command-line defaults, cycled with repeats so the result cache gets
/// exercised, emitted through the same NDJSON decode path as stdin.
fn synthetic_mix(defaults: &ndjson::RequestDefaults, n: usize) -> Vec<String> {
    let d = defaults.d.max(1);
    let s = defaults.s.max(1);
    let k = defaults.k.max(1);
    let shapes = [
        (d, s, k),
        (d.max(2) - 1, s, k),
        (d, s.saturating_sub(1).max(1), k),
        (d, s, (k / 2).max(1)),
    ];
    (0..n)
        .map(|i| {
            let (d, s, k) = shapes[i % shapes.len()];
            format!("{{\"id\":{},\"d\":{d},\"s\":{s},\"k\":{k}}}", i + 1)
        })
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted sample (0 on empty).
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted_ms.len() as f64).ceil().max(1.0) as usize;
    sorted_ms[rank.min(sorted_ms.len()) - 1]
}

/// `dccs apply`: commit mutation batches through a [`QueryService`], then
/// answer one query on the resulting snapshot — a one-shot probe of the
/// incremental-maintenance path with the serving epoch printed.
fn cmd_apply(opts: &Options) -> Result<(), CliError> {
    match (&opts.batch, opts.stream) {
        (Some(_), Some(_)) => {
            Err(CliError::Usage("use either --batch or --stream, not both".into()))
        }
        (None, None) => Err(CliError::Usage("apply requires --batch FILE or --stream N".into())),
        (Some(path), None) => {
            let g = load_graph(opts)?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Runtime(format!("failed to read `{path}`: {e}")))?;
            let batch = EdgeBatch::from_text(&text)
                .map_err(|e| CliError::Runtime(format!("failed to parse `{path}`: {e}")))?;
            apply_and_query(opts, &g, &[batch])
        }
        (None, Some(n)) => {
            if opts.input.is_some() || opts.dataset.is_some() {
                return Err(CliError::Usage(
                    "--stream generates its own temporal graph; drop --input/--dataset".into(),
                ));
            }
            let config = temporal_config(opts.scale);
            let (g, batches) = mlgraph::generators::temporal_batches(&config, n, 32)
                .map_err(|e| CliError::Runtime(e.to_string()))?;
            apply_and_query(opts, &g, &batches)
        }
    }
}

/// Commits `batches` in order (printing each receipt), then runs one query
/// with the command-line parameters on the final snapshot.
fn apply_and_query(
    opts: &Options,
    g: &MultiLayerGraph,
    batches: &[EdgeBatch],
) -> Result<(), CliError> {
    let mut service = QueryService::new(g, opts.opts);
    service.set_fault_plan(opts.fault.clone());
    for batch in batches {
        let receipt = service.commit(batch)?;
        println!(
            "committed       : +{} -{} edges on {} layer(s) → epoch {}{}",
            receipt.inserted,
            receipt.deleted,
            receipt.layers_touched,
            receipt.epoch,
            if receipt.is_noop_commit() { " (no-op)" } else { "" }
        );
    }
    let snapshot = service.snapshot();
    let params = params_for(opts, snapshot.graph());
    let query = dccs::ServiceQuery::new(params)
        .with_algorithm(opts.algorithm)
        .with_serve(opts.opts.serve)
        .with_limits(opts.opts.limits);
    let result = service.query(&query)?;
    let ran = result.stats.algorithm.map_or("?", Algorithm::name);
    let label = format!(
        "apply → {ran} (d={}, s={}, k={}, epoch {})",
        params.d,
        params.s,
        params.k,
        service.epoch()
    );
    print_result(&label, snapshot.graph(), &result);
    Ok(())
}

fn cmd_index(args: &[String]) -> Result<(), CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError::Usage("index requires a subcommand (build or info)".into()));
    };
    match sub.as_str() {
        "build" => {
            let opts = parse_options(&args[1..])?;
            let Some(output) = &opts.output else {
                return Err(CliError::Usage("index build requires --output".into()));
            };
            let g = load_graph(&opts)?;
            let mut session = DccsSession::with_options(&g, opts.opts);
            session.set_fault_plan(opts.fault);
            let index = session.build_index(&opts.ds, opts.max_s.unwrap_or(0));
            index.save(output)?;
            let bytes = index.to_bytes().len();
            println!(
                "built index for d={:?} over {} vertices / {} layers",
                index.d_values(),
                index.num_vertices(),
                index.num_layers()
            );
            println!(
                "wrote {} entries ({} candidate cores, {bytes} bytes) to {output}",
                index.num_entries(),
                index.num_candidates()
            );
            Ok(())
        }
        "info" => {
            let Some(path) = args.get(1) else {
                return Err(CliError::Usage("index info requires a file path".into()));
            };
            if let Some(extra) = args.get(2) {
                return Err(CliError::Usage(format!("unexpected argument `{extra}`")));
            }
            let index = DccIndex::load(path)?;
            println!("index file      : {path}");
            println!(
                "graph shape     : {} vertices, {} layers",
                index.num_vertices(),
                index.num_layers()
            );
            println!("degree values   : {:?}", index.d_values());
            println!("entries         : {}", index.num_entries());
            println!("candidate cores : {}", index.num_candidates());
            for (d, s, candidates) in index.entry_summaries() {
                println!("  d={d} s={s}: {candidates} candidates");
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown index subcommand `{other}`"))),
    }
}

fn cmd_compare(opts: &Options) -> Result<(), CliError> {
    let g = load_graph(opts)?;
    let params = params_for(opts, &g);
    // One session for the whole comparison, but each algorithm runs alone
    // (not as a parallel batch): the printed times are a head-to-head, so
    // no run may contend with another, and `--threads` spreads each
    // individual search over the executor as before.
    let mut session = DccsSession::with_options(&g, opts.opts);
    session.set_fault_plan(opts.fault.clone());
    println!("algorithm  time(s)    cover  candidates");
    for algorithm in [Algorithm::Greedy, Algorithm::BottomUp, Algorithm::TopDown] {
        let r = session.query(params).algorithm(algorithm).run()?;
        println!(
            "{:<10} {:<10.4} {:<6} {}",
            r.stats.algorithm.map_or("?", Algorithm::name),
            r.elapsed.as_secs_f64(),
            r.cover_size(),
            r.stats.candidates_generated
        );
    }
    let auto = Algorithm::Auto.resolve(&g, &params);
    println!("auto selection: {}", auto.name());
    Ok(())
}

fn cmd_generate(opts: &Options) -> Result<(), CliError> {
    let Some(id) = opts.dataset else {
        return Err(CliError::Usage("generate requires --dataset".into()));
    };
    let Some(output) = &opts.output else {
        return Err(CliError::Usage("generate requires --output".into()));
    };
    let ds = generate(id, opts.scale);
    let file = std::fs::File::create(output)
        .map_err(|e| CliError::Runtime(format!("cannot create `{output}`: {e}")))?;
    mlgraph::io::write_edge_list(&ds.graph, std::io::BufWriter::new(file))
        .map_err(|e| CliError::Runtime(format!("failed to write `{output}`: {e}")))?;
    println!(
        "wrote {} ({} vertices, {} layers, {} edges) to {output}",
        ds.spec.name,
        ds.graph.num_vertices(),
        ds.graph.num_layers(),
        ds.graph.total_edges()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(args: &[&str]) -> Result<Options, CliError> {
        parse_options(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn run_args(args: &[&str]) -> Result<(), CliError> {
        run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_defaults() {
        let o = opts(&[]).unwrap();
        assert_eq!(o.d(), 4);
        assert_eq!(o.k, 10);
        assert!(o.s.is_none());
        assert_eq!(o.algorithm, Algorithm::Auto);
        assert_eq!(o.scale, Scale::Small);
    }

    #[test]
    fn parses_flags() {
        let o = opts(&[
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "3",
            "-s",
            "2",
            "-k",
            "5",
            "--algorithm",
            "td",
            "--threads",
            "4",
            "--no-vd",
        ])
        .unwrap();
        assert_eq!(o.dataset, Some(DatasetId::Ppi));
        assert_eq!(o.scale, Scale::Tiny);
        assert_eq!(o.d(), 3);
        assert_eq!(o.s, Some(2));
        assert_eq!(o.k, 5);
        assert_eq!(o.algorithm, Algorithm::TopDown);
        assert_eq!(o.opts.threads, 4);
        assert!(!o.opts.vertex_deletion);
        assert!(o.opts.sort_layers);
    }

    #[test]
    fn parses_every_algorithm_alias() {
        assert_eq!(opts(&["--algorithm", "auto"]).unwrap().algorithm, Algorithm::Auto);
        assert_eq!(opts(&["--algorithm", "gd"]).unwrap().algorithm, Algorithm::Greedy);
        assert_eq!(opts(&["--algorithm", "bu"]).unwrap().algorithm, Algorithm::BottomUp);
        assert_eq!(opts(&["--algorithm", "exact"]).unwrap().algorithm, Algorithm::Exact);
        assert!(opts(&["--algorithm", "quantum"]).is_err());
    }

    #[test]
    fn parses_index_override_and_rejects_garbage() {
        assert_eq!(opts(&[]).unwrap().opts.index, IndexChoice::Auto);
        assert_eq!(opts(&["--index", "csr"]).unwrap().opts.index, IndexChoice::Csr);
        assert_eq!(opts(&["--index", "dense"]).unwrap().opts.index, IndexChoice::Dense);
        assert_eq!(opts(&["--index", "auto"]).unwrap().opts.index, IndexChoice::Auto);
        // The usage-error path: unknown value (including the retired
        // compressed regime) and missing value.
        assert!(matches!(opts(&["--index", "btree"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--index", "compressed"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--index"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn end_to_end_run_with_forced_index() {
        for index in ["csr", "dense"] {
            assert!(
                run_args(&[
                    "run",
                    "--dataset",
                    "ppi",
                    "--scale",
                    "tiny",
                    "-d",
                    "2",
                    "-s",
                    "2",
                    "--algorithm",
                    "gd",
                    "--index",
                    index,
                ])
                .is_ok(),
                "--index {index} failed"
            );
        }
    }

    #[test]
    fn threads_defaults_to_sequential_and_rejects_garbage() {
        assert_eq!(opts(&[]).unwrap().opts.threads, 1);
        assert!(opts(&["--threads", "x"]).is_err());
        assert!(opts(&["--threads"]).is_err());
    }

    #[test]
    fn end_to_end_threaded_run() {
        assert!(run_args(&[
            "run",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "2",
            "-s",
            "2",
            "--threads",
            "2"
        ])
        .is_ok());
    }

    #[test]
    fn end_to_end_auto_and_exact_runs() {
        for algorithm in ["auto", "exact"] {
            assert!(
                run_args(&[
                    "run",
                    "--dataset",
                    "ppi",
                    "--scale",
                    "tiny",
                    "-d",
                    "3",
                    "-s",
                    "4",
                    "-k",
                    "2",
                    "--algorithm",
                    algorithm,
                ])
                .is_ok(),
                "algorithm {algorithm} failed"
            );
        }
    }

    #[test]
    fn exact_budget_overflow_is_a_limit_error_not_a_panic() {
        // PPI tiny at (d=3, s=3) has 26 non-empty candidates — over the
        // exact solver's 24-candidate budget. Limit errors get their own
        // class (exit code 3), distinct from usage and runtime errors.
        let err = run_args(&[
            "run",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "3",
            "-s",
            "3",
            "--algorithm",
            "exact",
        ])
        .unwrap_err();
        match err {
            CliError::Limit(msg) => assert!(msg.contains("budget"), "got: {msg}"),
            other => panic!("expected a limit error, got: {other:?}"),
        }
    }

    #[test]
    fn parses_limit_flags_and_rejects_garbage() {
        let o = opts(&["--timeout-ms", "250", "--budget", "40", "--degrade"]).unwrap();
        assert_eq!(o.opts.limits.deadline, Some(Duration::from_millis(250)));
        assert_eq!(o.opts.limits.candidate_budget, Some(40));
        assert!(o.opts.limits.degrade);
        // Off by default: unlimited queries skip the monitor entirely.
        let o = opts(&[]).unwrap();
        assert!(o.opts.limits.is_unlimited());
        assert!(!o.opts.limits.degrade);
        assert!(matches!(opts(&["--timeout-ms", "soon"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--timeout-ms"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--budget", "-3"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--budget"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn expired_deadline_is_a_limit_error() {
        // A zero deadline has already passed when the first checkpoint
        // fires; the partial best-so-far is summarized in the message.
        let err = run_args(&[
            "run",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "2",
            "-s",
            "2",
            "--timeout-ms",
            "0",
        ])
        .unwrap_err();
        match err {
            CliError::Limit(msg) => assert!(msg.contains("deadline"), "got: {msg}"),
            other => panic!("expected a limit error, got: {other:?}"),
        }
    }

    #[test]
    fn candidate_budget_flag_is_a_limit_error() {
        let err = run_args(&[
            "run",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "2",
            "-s",
            "2",
            "--budget",
            "1",
        ])
        .unwrap_err();
        match err {
            CliError::Limit(msg) => assert!(msg.contains("budget"), "got: {msg}"),
            other => panic!("expected a limit error, got: {other:?}"),
        }
    }

    #[test]
    fn degrade_flag_recovers_an_over_budget_exact_query() {
        // The same over-budget exact query as above, but with --degrade:
        // the session reruns it as greedy and the CLI exits cleanly.
        assert!(run_args(&[
            "run",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "3",
            "-s",
            "3",
            "--algorithm",
            "exact",
            "--degrade",
        ])
        .is_ok());
    }

    #[test]
    fn fault_specs_arm_the_engine_and_malformed_ones_are_usage_errors() {
        use std::env::VarError;
        assert!(fault_plan(Err(VarError::NotPresent)).unwrap().is_none());
        for bad in ["bu.evl:panic", "bu.eval:explode", "bu.eval", "bu.eval:panic:0"] {
            let err = fault_plan(Ok(bad.into())).map(|_| ()).unwrap_err();
            assert!(matches!(&err, CliError::Usage(msg) if msg.contains(bad)), "{bad}: {err:?}");
        }
        // A parsed plan reaches the engine of the command that runs.
        let args =
            ["--dataset", "ppi", "--scale", "tiny", "-d", "2", "-s", "2", "--algorithm", "bu"];
        let mut run_opts = opts(&args).unwrap();
        run_opts.fault = fault_plan(Ok("bu.eval:panic".into())).unwrap();
        match cmd_run(&run_opts) {
            Err(CliError::Runtime(msg)) => assert!(msg.contains("injected fault at bu.eval")),
            other => panic!("expected the injected panic as a runtime error, got: {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(opts(&["--dataset", "unknown"]).is_err());
        assert!(opts(&["--scale", "huge"]).is_err());
        assert!(opts(&["-d", "x"]).is_err());
        assert!(opts(&["--mystery"]).is_err());
        assert!(opts(&["--input"]).is_err());
    }

    #[test]
    fn run_requires_a_command_and_input() {
        assert!(run_args(&[]).is_err());
        assert!(run_args(&["run"]).is_err());
        assert!(run_args(&["bogus"]).is_err());
    }

    #[test]
    fn invalid_parameters_are_a_runtime_error_not_a_panic() {
        // s far beyond the layer count: must come back as Err, not unwind.
        let err =
            run_args(&["run", "--dataset", "ppi", "--scale", "tiny", "-s", "99"]).unwrap_err();
        match err {
            CliError::Runtime(msg) => {
                assert!(msg.contains("s=99"), "unexpected message: {msg}")
            }
            other => panic!("expected a runtime error, got: {other:?}"),
        }
        // k = 0 likewise.
        let err = run_args(&["run", "--dataset", "ppi", "--scale", "tiny", "-k", "0"]).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)));
    }

    #[test]
    fn malformed_graph_file_is_a_runtime_error_not_a_panic() {
        let dir = std::env::temp_dir().join("dccs_cli_test_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.edges");
        std::fs::write(&path, "this is not\nan edge list at all\n").unwrap();
        let path_str = path.to_string_lossy().to_string();
        let err = run_args(&["run", "--input", &path_str]).unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "got: {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn end_to_end_run_on_tiny_dataset() {
        assert!(
            run_args(&["run", "--dataset", "ppi", "--scale", "tiny", "-d", "2", "-s", "2"]).is_ok()
        );
    }

    #[test]
    fn end_to_end_compare_and_stats() {
        for cmd in ["compare", "stats"] {
            assert!(
                run_args(&[cmd, "--dataset", "ppi", "--scale", "tiny", "-d", "2", "-s", "2"])
                    .is_ok(),
                "command {cmd} failed"
            );
        }
    }

    #[test]
    fn parses_serve_and_index_flags_and_rejects_garbage() {
        let o =
            opts(&["--serve", "index", "--load-index", "a.dcx", "--save-index", "b.dcx"]).unwrap();
        assert_eq!(o.opts.serve, Serve::Index);
        assert_eq!(o.load_index.as_deref(), Some("a.dcx"));
        assert_eq!(o.save_index.as_deref(), Some("b.dcx"));
        assert_eq!(opts(&["--serve", "peel"]).unwrap().opts.serve, Serve::Peel);
        assert_eq!(opts(&[]).unwrap().opts.serve, Serve::Auto);
        assert!(matches!(opts(&["--serve", "cache"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--serve"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--load-index"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--max-s", "lots"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn parses_degree_lists() {
        assert_eq!(opts(&["-d", "2,3,4"]).unwrap().ds, vec![2, 3, 4]);
        assert_eq!(opts(&["-d", "2, 3"]).unwrap().ds, vec![2, 3]);
        assert_eq!(opts(&["-d", "5"]).unwrap().d(), 5);
        assert!(matches!(opts(&["-d", "2,x"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["-d", ""]), Err(CliError::Usage(_))));
    }

    #[test]
    fn index_build_info_and_serve_roundtrip() {
        let dir = std::env::temp_dir().join("dccs_cli_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ppi_tiny.dcx");
        let path_str = path.to_string_lossy().to_string();
        let base = ["--dataset", "ppi", "--scale", "tiny"];

        let mut build = vec!["index", "build"];
        build.extend_from_slice(&base);
        build.extend_from_slice(&["-d", "2,3", "--output", &path_str]);
        assert!(run_args(&build).is_ok());
        assert!(run_args(&["index", "info", &path_str]).is_ok());

        // Serving from the loaded artifact answers without re-peeling.
        for serve in ["auto", "index"] {
            let mut run = vec!["run"];
            run.extend_from_slice(&base);
            run.extend_from_slice(&[
                "-d",
                "2",
                "-s",
                "2",
                "--algorithm",
                "gd",
                "--load-index",
                &path_str,
                "--serve",
                serve,
            ]);
            assert!(run_args(&run).is_ok(), "--serve {serve} failed");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_index_writes_a_loadable_artifact() {
        let dir = std::env::temp_dir().join("dccs_cli_save_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("saved.dcx");
        let path_str = path.to_string_lossy().to_string();
        assert!(run_args(&[
            "run",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "2",
            "-s",
            "2",
            "--save-index",
            &path_str,
        ])
        .is_ok());
        assert!(run_args(&["index", "info", &path_str]).is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_or_mismatched_index_is_a_one_line_runtime_error() {
        let dir = std::env::temp_dir().join("dccs_cli_bad_index_test");
        std::fs::create_dir_all(&dir).unwrap();

        // Not an index at all.
        let garbage = dir.join("garbage.dcx");
        std::fs::write(&garbage, b"not an index").unwrap();
        let garbage_str = garbage.to_string_lossy().to_string();
        let err =
            run_args(&["run", "--dataset", "ppi", "--scale", "tiny", "--load-index", &garbage_str])
                .unwrap_err();
        match err {
            CliError::Runtime(msg) => assert!(!msg.contains('\n'), "one line: {msg}"),
            other => panic!("expected a runtime error, got: {other:?}"),
        }

        // Built for a different graph: the fingerprint check rejects it.
        let foreign = dir.join("foreign.dcx");
        let foreign_str = foreign.to_string_lossy().to_string();
        let mut build = vec!["index", "build", "--dataset", "author", "--scale", "tiny"];
        build.extend_from_slice(&["-d", "2", "--output", &foreign_str]);
        assert!(run_args(&build).is_ok());
        let err =
            run_args(&["run", "--dataset", "ppi", "--scale", "tiny", "--load-index", &foreign_str])
                .unwrap_err();
        match err {
            CliError::Runtime(msg) => {
                assert!(msg.contains("mismatch"), "got: {msg}");
                assert!(!msg.contains('\n'), "one line: {msg}");
            }
            other => panic!("expected a runtime error, got: {other:?}"),
        }

        std::fs::remove_file(garbage).ok();
        std::fs::remove_file(foreign).ok();
    }

    #[test]
    fn forced_index_serving_without_an_index_is_a_runtime_error() {
        let err = run_args(&[
            "run",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "2",
            "-s",
            "2",
            "--serve",
            "index",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "got: {err:?}");
    }

    #[test]
    fn index_subcommand_usage_errors() {
        assert!(matches!(run_args(&["index"]), Err(CliError::Usage(_))));
        assert!(matches!(run_args(&["index", "rebuild"]), Err(CliError::Usage(_))));
        assert!(matches!(run_args(&["index", "info"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_args(&["index", "build", "--dataset", "ppi", "--scale", "tiny"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_mix_flag_and_rejects_garbage() {
        assert_eq!(opts(&["--mix", "12"]).unwrap().mix, Some(12));
        assert_eq!(opts(&[]).unwrap().mix, None);
        assert!(matches!(opts(&["--mix", "lots"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--mix"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn end_to_end_serve_with_synthetic_mix() {
        // The --mix driver bypasses stdin, so serve runs hermetically; 9
        // requests over 4 shapes guarantee repeats, i.e. cache hits, and
        // exercise the full decode → batch → respond path. Worker widths 1
        // and 2 must both succeed (answers are checked bit-identical across
        // widths in the core service tests).
        for threads in ["1", "2"] {
            assert!(
                run_args(&[
                    "serve",
                    "--dataset",
                    "ppi",
                    "--scale",
                    "tiny",
                    "-d",
                    "2",
                    "-s",
                    "2",
                    "--mix",
                    "9",
                    "--threads",
                    threads,
                ])
                .is_ok(),
                "--threads {threads} failed"
            );
        }
    }

    #[test]
    fn serve_with_an_attached_index_answers_the_mix() {
        let dir = std::env::temp_dir().join("dccs_cli_serve_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.dcx");
        let path_str = path.to_string_lossy().to_string();
        let mut build = vec!["index", "build", "--dataset", "ppi", "--scale", "tiny"];
        build.extend_from_slice(&["-d", "1,2", "--output", &path_str]);
        assert!(run_args(&build).is_ok());
        assert!(run_args(&[
            "serve",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "2",
            "-s",
            "2",
            "--algorithm",
            "gd",
            "--mix",
            "8",
            "--load-index",
            &path_str,
        ])
        .is_ok());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn serve_keeps_going_past_limit_tripped_requests() {
        // A zero deadline trips every mixed-in request, but limit trips are
        // per-request responses, not process failures: serve still exits
        // cleanly after answering the stream.
        assert!(run_args(&[
            "serve",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "2",
            "-s",
            "2",
            "--mix",
            "4",
            "--timeout-ms",
            "0",
        ])
        .is_ok());
    }

    #[test]
    fn parses_apply_flags_and_rejects_garbage() {
        assert_eq!(opts(&["--batch", "ops.txt"]).unwrap().batch.as_deref(), Some("ops.txt"));
        assert_eq!(opts(&["--stream", "4"]).unwrap().stream, Some(4));
        let o = opts(&[]).unwrap();
        assert!(o.batch.is_none() && o.stream.is_none());
        assert!(matches!(opts(&["--batch"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--stream", "many"]), Err(CliError::Usage(_))));
        assert!(matches!(opts(&["--stream"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn apply_subcommand_usage_errors() {
        // Needs exactly one mutation source.
        let base = ["apply", "--dataset", "ppi", "--scale", "tiny"];
        assert!(matches!(run_args(&base), Err(CliError::Usage(_))));
        let mut both = base.to_vec();
        both.extend_from_slice(&["--batch", "x", "--stream", "2"]);
        assert!(matches!(run_args(&both), Err(CliError::Usage(_))));
        // --stream brings its own graph.
        let mut stream_with_dataset = base.to_vec();
        stream_with_dataset.extend_from_slice(&["--stream", "2"]);
        assert!(matches!(run_args(&stream_with_dataset), Err(CliError::Usage(_))));
    }

    #[test]
    fn end_to_end_apply_with_a_batch_file() {
        let dir = std::env::temp_dir().join("dccs_cli_apply_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ops.txt");
        std::fs::write(&path, "# demo\nadd 0 0 2\nadd 1 0 3\ndel 0 0 3\n").unwrap();
        let path_str = path.to_string_lossy().to_string();
        assert!(run_args(&[
            "apply",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "-d",
            "2",
            "-s",
            "2",
            "--batch",
            &path_str,
        ])
        .is_ok());
        // A malformed batch file is a one-line runtime error.
        std::fs::write(&path, "frob 0 1 2\n").unwrap();
        let err = run_args(&["apply", "--dataset", "ppi", "--scale", "tiny", "--batch", &path_str])
            .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "got: {err:?}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn end_to_end_apply_stream_commits_generated_batches() {
        assert!(run_args(&[
            "apply", "--stream", "2", "--scale", "tiny", "-d", "2", "-s", "2", "-k", "3",
        ])
        .is_ok());
    }

    #[test]
    fn serve_stream_commits_applies_in_order() {
        // Triangle {0,1,2} on both layers; the apply line grows it to a K4.
        let mut b = mlgraph::MultiLayerGraphBuilder::new(6, 2);
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            b.add_edge(0, u, v).unwrap();
            b.add_edge(1, u, v).unwrap();
        }
        let g = b.build();
        let service = QueryService::new(&g, DccsOptions::default());
        let defaults = ndjson::RequestDefaults {
            d: 2,
            s: 2,
            k: 1,
            algorithm: Algorithm::Auto,
            serve: Serve::Auto,
            limits: dccs::QueryLimits::none(),
        };
        let lines: Vec<String> = [
            r#"{"id":1}"#,
            r#"{"id":2,"op":"apply","insert":[[0,0,3],[0,1,3],[0,2,3],[1,0,3],[1,1,3],[1,2,3]]}"#,
            r#"{"id":3}"#,
            "not json",
            r#"{"id":5,"op":"apply","insert":[[9,0,1]]}"#,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let responses = serve_stream(&service, &defaults, &lines).unwrap();
        assert_eq!(responses.len(), 5);

        let field = |i: usize, name: &str| -> Option<serde_json::Value> {
            let serde_json::Value::Object(pairs) = ndjson::parse(&responses[i]).unwrap() else {
                panic!("response {i} is not an object: {}", responses[i]);
            };
            pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
        };
        // Responses come back in input order.
        for (i, id) in [1.0, 2.0, 3.0, 4.0, 5.0].into_iter().enumerate() {
            assert_eq!(field(i, "id"), Some(serde_json::Value::Number(id)));
        }
        // The pre-apply query sees the triangle, the post-apply one the K4.
        assert_eq!(field(0, "cover"), Some(serde_json::Value::Number(3.0)));
        assert_eq!(field(2, "cover"), Some(serde_json::Value::Number(4.0)));
        // The post-commit query answers on exactly the epoch the apply
        // published, which is newer than the pre-commit one.
        let epoch = |i: usize| match field(i, "epoch") {
            Some(serde_json::Value::Number(e)) => e,
            other => panic!("response {i} has no numeric epoch: {other:?}"),
        };
        assert_eq!(field(1, "op"), Some(serde_json::Value::String("apply".into())));
        assert_eq!(epoch(1), epoch(2));
        assert!(epoch(0) < epoch(1), "epochs: {} vs {}", epoch(0), epoch(1));
        assert_eq!(field(1, "inserted"), Some(serde_json::Value::Number(6.0)));
        // The malformed line and the out-of-range batch fail their slots
        // only; the stream still answered everything.
        assert_eq!(field(3, "ok"), Some(serde_json::Value::Bool(false)));
        assert_eq!(field(4, "ok"), Some(serde_json::Value::Bool(false)));
    }

    #[test]
    fn serve_stream_answers_past_a_deeply_nested_line() {
        let mut b = mlgraph::MultiLayerGraphBuilder::new(4, 2);
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            b.add_edge(0, u, v).unwrap();
            b.add_edge(1, u, v).unwrap();
        }
        let g = b.build();
        let service = QueryService::new(&g, DccsOptions::default());
        let defaults = ndjson::RequestDefaults {
            d: 2,
            s: 2,
            k: 1,
            algorithm: Algorithm::Auto,
            serve: Serve::Auto,
            limits: dccs::QueryLimits::none(),
        };
        let lines = [r#"{"id":1}"#.to_string(), "[".repeat(100_000), r#"{"id":3}"#.to_string()];
        let responses = serve_stream(&service, &defaults, &lines).unwrap();
        assert_eq!(responses.len(), 3);
        assert!(responses[0].starts_with(r#"{"id":1,"ok":true,"cover":3"#), "{}", responses[0]);
        assert!(responses[1].starts_with(r#"{"id":2,"ok":false"#), "{}", responses[1]);
        assert!(responses[1].contains("nesting deeper than 64"), "{}", responses[1]);
        assert!(responses[2].starts_with(r#"{"id":3,"ok":true,"cover":3"#), "{}", responses[2]);
    }

    #[test]
    fn serve_stream_rejects_vertex_ids_beyond_u32() {
        // Layer 0 is a K4 on {0,1,2,3} missing edge (0, 1), layer 1 the
        // full K4, so the 3-CC is empty. Vertex id 2^32 + 1 would wrap to 1
        // and complete the K4 if it were cast instead of checked.
        let mut b = mlgraph::MultiLayerGraphBuilder::new(5, 2);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            if (u, v) != (0, 1) {
                b.add_edge(0, u, v).unwrap();
            }
            b.add_edge(1, u, v).unwrap();
        }
        let g = b.build();
        let service = QueryService::new(&g, DccsOptions::default());
        let defaults = ndjson::RequestDefaults {
            d: 3,
            s: 2,
            k: 1,
            algorithm: Algorithm::Auto,
            serve: Serve::Auto,
            limits: dccs::QueryLimits::none(),
        };
        let lines: Vec<String> =
            [r#"{"id":1}"#, r#"{"id":2,"op":"apply","insert":[[0,0,4294967297]]}"#, r#"{"id":3}"#]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let responses = serve_stream(&service, &defaults, &lines).unwrap();
        assert_eq!(responses.len(), 3);
        assert!(responses[1].starts_with(r#"{"id":2,"ok":false"#), "{}", responses[1]);
        assert!(responses[1].contains("vertex id 4294967297 exceeds"), "{}", responses[1]);
        // Nothing was committed: the stream answers on, with the same cover.
        for i in [0, 2] {
            assert!(responses[i].contains(r#""ok":true,"cover":0"#), "{}", responses[i]);
        }
        assert_eq!(service.snapshot().graph().layer(0).num_edges(), 5);
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
    fn generate_then_reload_roundtrip() {
        let dir = std::env::temp_dir().join("dccs_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ppi_tiny.edges");
        let path_str = path.to_string_lossy().to_string();
        assert!(run_args(&[
            "generate",
            "--dataset",
            "ppi",
            "--scale",
            "tiny",
            "--output",
            &path_str
        ])
        .is_ok());
        assert!(run_args(&["run", "--input", &path_str, "-d", "2", "-s", "2"]).is_ok());
        std::fs::remove_file(path).ok();
    }
}
