//! The FASTA → `score.log` workloads (`short-reads`, `long-reads`) and the
//! traced layer-by-layer decomposition every workload's per-layer metrics
//! come from.

use std::path::Path;
use std::time::Instant;

use agatha_align::block::BlockCtx;
use agatha_align::{Scoring, Task};
use agatha_core::bucketing::build_warps;
use agatha_core::options::DEFAULT_PREFETCH_DEPTH;
use agatha_core::warp_sim::simulate_warp;
use agatha_core::{
    run_task_ws, AgathaConfig, BatchEngine, KernelWorkspace, Pipeline, StreamOptions, TaskRun,
};
use agatha_gpu_sim::{sched, WARP_LANES};
use agatha_io::{open_fasta_pairs_model, write_score_log};

use crate::corpus::{self, FastaInputs};
use crate::report::{
    median, median_time, metric, peak_rss_mib, quantile, reset_peak_rss, Outcome, Tracer,
};
use crate::{RunOpts, THREADS};

/// `agatha align`'s default `--chunk` (the CLI keeps its constant private).
pub const CHUNK: usize = 4096;

/// Engine constructions timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 101;

/// One FASTA → `score.log` workload.
pub struct AlignWorkload {
    pub scenario: &'static str,
    /// Pairs in the corpus; one pass streams all of them.
    pub pairs: usize,
    /// Pairs checked against the scalar reference (a seeded sample when
    /// fewer than `pairs`).
    pub checked: usize,
}

/// Four CLI chunks of BWA-style short reads, so prefetch and carry-over act
/// at three chunk boundaries; a seeded quarter is checked.
pub const SHORT_READS: AlignWorkload =
    AlignWorkload { scenario: "dna-short", pairs: 16384, checked: 4096 };

/// CLR long reads: enough pairs that the heavy length tail averages out
/// between seeds. Checking all of them would take most of a run, so a
/// seeded sample is checked.
pub const LONG_READS: AlignWorkload =
    AlignWorkload { scenario: "dna-long", pairs: 4500, checked: 512 };

/// The benchmarked configuration: full AGAThA with the plain build's
/// defaults and a fixed worker count.
pub fn pipeline(scoring: Scoring) -> Pipeline {
    let mut p = Pipeline::new(scoring, AgathaConfig::agatha());
    p.host_threads = THREADS;
    p
}

pub fn run(w: &AlignWorkload, opts: &RunOpts) -> Result<Outcome, String> {
    let scoring = corpus::scoring(w.scenario)?;
    // Timed first, in a fresh process, as a user starting `agatha align`
    // pays it.
    let setup_s = median_time(SETUP_REPS, || Ok(pipeline(scoring).engine()))?;
    let corpus = corpus::generate(w.scenario, opts.seed, w.pairs)?;
    let inputs = corpus::write_fasta_inputs(&opts.work_dir, &corpus.tasks)?;
    let checked = corpus::sample_indices(w.pairs, w.checked, opts.seed);
    let (expected, reference_s) =
        corpus::reference_scores(&corpus.tasks, &checked, &corpus.scoring);
    let check = Check { indices: checked, expected, reference_s };
    // The program reads its input from the files; the benchmark's own copy
    // would only inflate the measured memory.
    drop(corpus);
    if opts.trace {
        let mut tr = Tracer::new();
        let mut out = trace_layers(scoring, &inputs, &check, opts.seconds, &mut tr, opts)?;
        tr.write_jsonl(&opts.trace_path)?;
        out.metrics.extend(crate::serve::layer_metrics(None, &Default::default()));
        Ok(out)
    } else {
        timed(scoring, &inputs, &check, w.pairs, setup_s, opts)
    }
}

/// Scalar reference scores for a sample of the corpus.
pub struct Check {
    pub indices: Vec<usize>,
    pub expected: Vec<i32>,
    /// Time the reference took for the sample.
    pub reference_s: f64,
}

impl Check {
    /// Sampled pairs whose score in `scores` differs from the reference or
    /// is missing.
    fn mismatches(&self, scores: &[i32]) -> u64 {
        let wrong = |(&i, &want): (&usize, &i32)| scores.get(i) != Some(&want);
        self.indices.iter().zip(&self.expected).filter(|&p| wrong(p)).count() as u64
    }
}

/// One timed FASTA → `score.log` pass through the streaming engine.
struct StreamPass {
    secs: f64,
    sim_ms: f64,
    chunks: usize,
    /// Scores as read back from the written `score.log`.
    scores: Vec<i32>,
}

/// `agatha align`'s path: `open_fasta_pairs_model` → prefetched stream with
/// the CLI's default chunk, prefetch depth and carry-over →
/// `write_score_log`. With a tracer, each chunk report is recorded as an
/// `engine.chunk` span covering the time since the previous report.
fn stream_pass(
    engine: &mut BatchEngine,
    scoring: &Scoring,
    inputs: &FastaInputs,
    out: &Path,
    mut tracer: Option<(&mut Tracer, usize)>,
) -> Result<StreamPass, String> {
    let t0 = Instant::now();
    let pairs = open_fasta_pairs_model(&inputs.refs, &inputs.queries, &scoring.model)?;
    let mut run =
        engine.align_stream_prefetched(pairs, DEFAULT_PREFETCH_DEPTH, StreamOptions::new(CHUNK));
    let mut scores = Vec::new();
    let mut last = t0;
    for chunk in run.by_ref() {
        let now = Instant::now();
        scores.extend(chunk.report.results.iter().map(|r| r.score));
        if let Some((tr, parent)) = tracer.as_mut() {
            let start = tr.ns(last);
            tr.record("engine.chunk", start, *parent, None);
        }
        last = now;
    }
    let summary = run.finish_checked().map_err(|e| e.to_string())?;
    write_score_log(out, &scores)?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(StreamPass {
        secs,
        sim_ms: summary.elapsed_ms,
        chunks: summary.chunks,
        scores: corpus::read_score_log(out)?,
    })
}

/// Repeat streaming passes for at least `opts.seconds` and report the
/// end-to-end metrics: per-pass figures, median over the passes.
fn timed(
    scoring: Scoring,
    inputs: &FastaInputs,
    check: &Check,
    pairs: usize,
    setup_s: f64,
    opts: &RunOpts,
) -> Result<Outcome, String> {
    let mut engine = pipeline(scoring).engine();
    let out = opts.work_dir.join("score.log");
    reset_peak_rss()?;
    let start = Instant::now();
    let (mut attempted, mut failed, mut consistent) = (0u64, 0u64, true);
    let (mut rates, mut goodputs) = (Vec::new(), Vec::new());
    let mut first: Option<StreamPass> = None;
    let mut peak_rss = 0.0;
    while first.is_none() || start.elapsed().as_secs_f64() < opts.seconds {
        let pass = stream_pass(&mut engine, &scoring, inputs, &out, None)?;
        if first.is_none() {
            // One pass is one `agatha align` job. Later passes would add
            // allocator arenas of their prefetch threads, which come and go
            // with thread timing.
            peak_rss = peak_rss_mib()?;
        }
        // Every pass must score every pair like the reference and like the
        // first pass, and simulate the same device time.
        let mut bad = check.mismatches(&pass.scores) + pairs.abs_diff(pass.scores.len()) as u64;
        if let Some(f) = &first {
            bad += f.scores.iter().zip(&pass.scores).filter(|(a, b)| a != b).count() as u64;
            consistent &= f.sim_ms == pass.sim_ms;
        }
        attempted += pairs as u64;
        failed += bad;
        rates.push(pairs as f64 / pass.secs);
        goodputs.push((pairs as u64).saturating_sub(bad) as f64 / pass.secs);
        first.get_or_insert(pass);
    }
    let sim_ms = first.map_or(0.0, |f| f.sim_ms);
    let mut out =
        Outcome { attempted, failed, correct: failed == 0 && consistent, metrics: Vec::new() };
    out.metrics = vec![
        metric("pairs_per_s", median(&mut rates), "pairs/s"),
        metric("sim_ms", sim_ms, "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
        metric("ok_frac", 1.0 - out.fail_frac(), "ratio"),
        metric("goodput_rps", median(&mut goodputs), "req/s"),
    ];
    Ok(out)
}

/// What one traced decomposition computed, beyond its spans.
struct Decomposition {
    tasks: Vec<Task>,
    scores: Vec<i32>,
    sim_ms: f64,
    /// The `decompose` span: kernel through schedule.
    layers_span: usize,
    cells: u64,
    blocks: u64,
    i16_tasks: usize,
    b16_tasks: usize,
    warps: usize,
    slot_fill: f64,
    idle_lane_frac: f64,
    slot_util: f64,
    makespan_cycles: f64,
}

/// Call the layers' public functions in order on this thread, with a span
/// around each call: parse every pair, run the kernel per task, pack warps,
/// simulate each warp, schedule the device, write `score.log`.
fn decompose(
    p: &Pipeline,
    inputs: &FastaInputs,
    out: &Path,
    tr: &mut Tracer,
    root: usize,
) -> Result<Decomposition, String> {
    let cfg = &p.config;
    let mut pairs = open_fasta_pairs_model(&inputs.refs, &inputs.queries, &p.scoring.model)?;
    let mut tasks = Vec::new();
    loop {
        let s = tr.now();
        let Some(task) = pairs.next().transpose()? else { break };
        tr.record("ioutil.parse", s, root, Some(u64::from(task.id)));
        tasks.push(task);
    }

    let layers_span = tr.open("decompose", Some(root));
    let mut ws = KernelWorkspace::new();
    let mut runs: Vec<TaskRun> = Vec::with_capacity(tasks.len());
    for t in &tasks {
        let s = tr.now();
        let run = run_task_ws(&mut ws, t, &p.scoring, cfg);
        tr.record("kernel.run_task", s, layers_span, Some(u64::from(t.id)));
        runs.push(run);
    }

    let s = tr.now();
    let workloads: Vec<u64> = tasks.iter().map(|t| u64::from(t.antidiags())).collect();
    let warps = build_warps(
        &workloads,
        cfg.subwarps_per_warp(),
        cfg.tasks_per_subwarp,
        p.default_strategy(),
    );
    tr.record("bucketing.build_warps", s, layers_span, None);

    let mut warp_cycles = Vec::with_capacity(warps.len());
    let mut idle_lane_cycles = 0.0;
    for w in &warps {
        let queues: Vec<Vec<&TaskRun>> =
            w.queues.iter().map(|q| q.iter().map(|&i| &runs[i]).collect()).collect();
        let s = tr.now();
        let outcome = simulate_warp(&queues, cfg, &p.cost);
        tr.record("warp_sim.simulate_warp", s, layers_span, None);
        warp_cycles.push(outcome.cycles);
        idle_lane_cycles += outcome.idle_lane_cycles;
    }

    let s = tr.now();
    let device = sched::schedule(&warp_cycles, p.spec.warp_slots());
    tr.record("sched.schedule", s, layers_span, None);
    tr.close(layers_span);

    let scores: Vec<i32> = runs.iter().map(|r| r.result.score).collect();
    let s = tr.now();
    write_score_log(out, &scores)?;
    tr.record("ioutil.write_score_log", s, root, None);

    let lane_cycles: f64 = warp_cycles.iter().sum::<f64>() * WARP_LANES as f64;
    let capacity = cfg.subwarps_per_warp() * cfg.tasks_per_subwarp;
    let i16_tasks = tasks
        .iter()
        .zip(&runs)
        .filter(|(t, r)| {
            BlockCtx::with_block_dim(t.ref_len(), t.query_len(), &p.scoring, r.block_dim as usize)
                .i16_exact
        })
        .count();
    Ok(Decomposition {
        scores,
        sim_ms: p.spec.cycles_to_ms(device.makespan_cycles),
        layers_span,
        cells: runs.iter().map(TaskRun::computed_cells).sum(),
        blocks: runs.iter().map(|r| r.blocks).sum(),
        i16_tasks,
        b16_tasks: runs.iter().filter(|r| r.block_dim == 16).count(),
        warps: warps.len(),
        slot_fill: tasks.len() as f64 / (warps.len() * capacity).max(1) as f64,
        idle_lane_frac: if lane_cycles > 0.0 { idle_lane_cycles / lane_cycles } else { 0.0 },
        slot_util: device.utilization,
        makespan_cycles: device.makespan_cycles,
        tasks,
    })
}

/// The traced run: repeat (decomposition, untraced `align_batch` on the same
/// tasks, one streaming pass) for at least `min_secs`, check that all three
/// agree with each other and with the reference, and derive the per-layer
/// metrics from the spans recorded in `tr`.
pub fn trace_layers(
    scoring: Scoring,
    inputs: &FastaInputs,
    check: &Check,
    min_secs: f64,
    tr: &mut Tracer,
    opts: &RunOpts,
) -> Result<Outcome, String> {
    let p = pipeline(scoring);
    let mut engine = p.engine();
    let (dec_out, stream_out) =
        (opts.work_dir.join("decomposed.log"), opts.work_dir.join("score.log"));
    let start = Instant::now();
    let (mut attempted, mut failed, mut consistent) = (0u64, 0u64, true);
    let (mut overhead, mut chunks) = (Vec::new(), 0);
    let mut last: Option<Decomposition> = None;
    let mut passes = 0usize;
    while last.is_none() || start.elapsed().as_secs_f64() < min_secs {
        let root = tr.open("pass", None);
        let d = decompose(&p, inputs, &dec_out, tr, root)?;
        tr.close(root);

        let t = Instant::now();
        let batch = p.align_batch(&d.tasks);
        overhead.push(tr.span_s(d.layers_span) / t.elapsed().as_secs_f64() - 1.0);
        let batch_scores: Vec<i32> = batch.results.iter().map(|r| r.score).collect();
        consistent &= batch_scores == d.scores && batch.elapsed_ms == d.sim_ms;

        let root = tr.open("stream", None);
        let sp = stream_pass(&mut engine, &scoring, inputs, &stream_out, Some((&mut *tr, root)))?;
        tr.close(root);
        consistent &= sp.scores == d.scores;
        chunks = sp.chunks;

        attempted += d.tasks.len() as u64;
        failed += check.mismatches(&d.scores);
        passes += 1;
        last = Some(d);
    }
    let d = last.expect("at least one traced pass");
    let per_pass = |name: &str| tr.total_s(name) / passes as f64;
    let kernel_s = per_pass("kernel.run_task");
    let parse_s = per_pass("ioutil.parse");
    let n = d.tasks.len().max(1) as f64;
    let mut task_us: Vec<f64> = tr.durations_s("kernel.run_task").iter().map(|s| s * 1e6).collect();
    let mut chunk_ms: Vec<f64> = tr.durations_s("engine.chunk").iter().map(|s| s * 1e3).collect();
    let metrics = vec![
        metric("ioutil.parse_s", parse_s, "s"),
        metric("ioutil.mb_per_s", inputs.bytes as f64 / 1e6 / parse_s, "MB/s"),
        metric("kernel.busy_s", kernel_s, "s"),
        metric("kernel.gcups", d.cells as f64 / kernel_s / 1e9, "GCUPS"),
        metric("kernel.cells", d.cells as f64, "count"),
        metric("kernel.blocks", d.blocks as f64, "count"),
        metric("kernel.task_p50_us", quantile(&mut task_us, 0.50), "us"),
        metric("kernel.task_p99_us", quantile(&mut task_us, 0.99), "us"),
        metric("kernel.i16_share", d.i16_tasks as f64 / n, "ratio"),
        metric("kernel.b16_share", d.b16_tasks as f64 / n, "ratio"),
        metric("bucketing.busy_s", per_pass("bucketing.build_warps"), "s"),
        metric("bucketing.warps", d.warps as f64, "count"),
        metric("bucketing.slot_fill", d.slot_fill, "ratio"),
        metric("warp_sim.busy_s", per_pass("warp_sim.simulate_warp"), "s"),
        metric("warp_sim.idle_lane_frac", d.idle_lane_frac, "ratio"),
        metric("sched.busy_s", per_pass("sched.schedule"), "s"),
        metric("sched.slot_util", d.slot_util, "ratio"),
        metric("sched.makespan_cycles", d.makespan_cycles, "cycles"),
        metric("engine.chunks", chunks as f64, "count"),
        metric("engine.chunk_p50_ms", quantile(&mut chunk_ms, 0.50), "ms"),
        metric("engine.chunk_p99_ms", quantile(&mut chunk_ms, 0.99), "ms"),
        metric("reference.pairs_per_s", check.indices.len() as f64 / check.reference_s, "pairs/s"),
        metric("trace.overhead_frac", median(&mut overhead), "ratio"),
    ];
    Ok(Outcome { attempted, failed, correct: failed == 0 && consistent, metrics })
}
