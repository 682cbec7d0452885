//! The repository benchmark. It measures three workloads from outside the
//! program, by timing calls into the crates' public functions:
//!
//! * `short-reads`: `dna-short` pairs, FASTA on disk → `score.log` on disk
//!   through the streaming engine (`agatha align`'s path);
//! * `long-reads`: `dna-long` pairs through the same path;
//! * `serve-short`: an open loop of `dna-short` requests into an
//!   in-process `agatha serve` daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload short-reads --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. The last line of standard output is
//! the result; the line before it is the host fingerprint. See README.md
//! for the metrics and why each workload was chosen.

mod align;
mod corpus;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

use agatha_core::options::DEFAULT_PREFETCH_DEPTH;
use agatha_core::AgathaConfig;

/// Engine worker threads in every workload (never 0, which means "all
/// cores"). The align workloads add the prefetch reader thread.
pub const THREADS: usize = 1;

/// Where a run keeps its inputs, outputs and trace, relative to the
/// directory it runs in.
const WORK_DIR: &str = ".perfbench";

const USAGE: &str = "usage: perfbench --workload short-reads|long-reads|serve-short \
                     --seed N --seconds S --trace 0|1";

#[derive(Clone, Copy)]
enum Workload {
    ShortReads,
    LongReads,
    ServeShort,
}

pub struct RunOpts {
    workload: Workload,
    pub seed: u64,
    /// Minimum measured time.
    pub seconds: f64,
    pub trace: bool,
    /// This run's inputs and outputs; removed when the run ends.
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_path: PathBuf,
}

fn parse_args(args: &[String]) -> Result<RunOpts, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = match name {
        "short-reads" => Workload::ShortReads,
        "long-reads" => Workload::LongReads,
        "serve-short" => Workload::ServeShort,
        other => return Err(format!("unknown workload '{other}'")),
    };
    let seed: u64 = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1 (got '{other}')")),
    };
    let work = PathBuf::from(WORK_DIR);
    Ok(RunOpts {
        workload,
        seed,
        seconds,
        trace,
        work_dir: work.join(format!("{name}-seed{seed}-trace{}", u8::from(trace))),
        trace_path: work.join(format!("trace-{name}-seed{seed}.jsonl")),
    })
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).map(|c| c.trim().to_string()).ok(),
        None => (!head.is_empty()).then(|| head.to_string()),
    }
    .unwrap_or_else(|| "none".to_string())
}

/// Host and configuration: what the measured program resolved to.
fn fingerprint() -> String {
    let cfg = AgathaConfig::agatha();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"commit\": \"{}\", \"rustc\": \"{}\", \"simd_backend\": \"{}\", \
         \"fill\": \"{}\", \"precision\": \"{}\", \"block_dim\": \"{}\", \"worker_threads\": {THREADS}, \
         \"chunk\": {}, \"prefetch\": {DEFAULT_PREFETCH_DEPTH}, \"serve_rate_rps\": {}, \
         \"serve_deadline_ms\": {}}}",
        git_commit(),
        env!("PERFBENCH_RUSTC_VERSION"),
        agatha_align::simd::backend().name(),
        if cfg.simd_fill { "wavefront" } else { "scalar" },
        cfg.fill_precision.name(),
        cfg.block_dim.name(),
        align::CHUNK,
        serve::RATE_RPS,
        serve::DEADLINE_MS,
    )
}

fn main() -> ExitCode {
    // Each of these silently changes what would be measured.
    let overrides: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("AGATHA_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!("perfbench: refusing to run with {} set", overrides.join(", "));
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("fingerprint {}", fingerprint());
    let result = std::fs::create_dir_all(&opts.work_dir).map_err(|e| e.to_string()).and_then(
        |()| match opts.workload {
            Workload::ShortReads => align::run(&align::SHORT_READS, &opts),
            Workload::LongReads => align::run(&align::LONG_READS, &opts),
            Workload::ServeShort => serve::run(&opts),
        },
    );
    // Inputs and outputs are regenerated from the seed; only spans stay.
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    match result {
        Ok(out) if out.metrics.iter().all(|m| m.value.is_finite()) => {
            println!("{}", out.to_json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations failed a check",
                    out.failed, out.attempted
                );
                ExitCode::FAILURE
            }
        }
        Ok(out) => {
            eprintln!("perfbench: a metric is not finite: {}", out.to_json());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
