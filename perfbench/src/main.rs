//! The repository benchmark: three seeded workloads over the DCCS query
//! engine, service and commit path, each printing its end-to-end metrics
//! (or, traced, its per-layer metrics) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scale-warm|paper-mix|serve-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! The process first generates the workload's inputs from the seed into
//! `.perfbench/` under the working directory (untimed), then runs the
//! workload in a child process of its own, so that the child's peak RSS
//! is the workload's alone. The child prints the result line; traced runs
//! also write their spans to `.perfbench/trace-<workload>-<seed>.jsonl`.

mod adapter;
mod inputs;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload scale-warm|paper-mix|serve-churn \
                     --seed N --seconds S --trace 0|1";
const WORKLOADS: [&str; 3] = ["scale-warm", "paper-mix", "serve-churn"];
/// Where inputs and traces go, relative to the working directory.
const DATA: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child: the directory holding the generated inputs.
    child: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 0, trace: false, child: None };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? == 1,
            "--child" => args.child = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.child {
        Some(dir) => child(&args, dir.clone()),
        None => harness(&args, &argv),
    }
}

/// Generates the inputs, runs the workload in a child process, cleans up.
fn harness(args: &Args, argv: &[String]) -> ExitCode {
    let dir =
        PathBuf::from(DATA).join(format!("{}-{}-{}", args.workload, args.seed, std::process::id()));
    let status = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| inputs::prepare(&args.workload, args.seed, &dir))
        .and_then(|()| {
            let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
            Command::new(exe)
                .args(argv)
                .arg("--child")
                .arg(&dir)
                .status()
                .map_err(|e| format!("spawn: {e}"))
        });
    let _ = std::fs::remove_dir_all(&dir);
    match status {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload on the prepared inputs and prints the result line.
fn child(args: &Args, dir: PathBuf) -> ExitCode {
    let run = workloads::Run {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        dir,
    };
    let mut report = stats::Report::default();
    let tracer = match workloads::execute(&run, &mut report) {
        Ok(tracer) => tracer,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(DATA).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }
    for note in &report.notes {
        eprintln!("perfbench: {note}");
    }
    eprintln!(
        "perfbench: {} attempted, {} failed (failed_frac {})",
        report.attempted,
        report.failed,
        stats::ratio(report.failed as f64, report.attempted as f64)
    );
    for (name, value, unit) in report.metrics.iter() {
        eprintln!("perfbench:   {name:<30} {value:>14.4} {unit}");
    }
    println!("{}", report.json());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
