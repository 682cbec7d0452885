//! The `serve-short` workload: an open loop of `dna-short` requests, sent at
//! a fixed rate over one connection into an in-process
//! `agatha_serve::serve` daemon.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use agatha_align::Scoring;
use agatha_core::options::DEFAULT_PREFETCH_DEPTH;
use agatha_serve::protocol::align_request_line;
use agatha_serve::{parse_response, serve, MetricsSnapshot, ServeConfig, ServeHandle, Status};

use crate::corpus;
use crate::report::{
    median, metric, peak_rss_mib, quantile, reset_peak_rss, Metric, Outcome, Span, Tracer,
};
use crate::{align, RunOpts, THREADS};

/// Offered load: about a third of what one worker of the plain (scalar
/// fill) build completes on `dna-short` pairs, leaving headroom for a
/// host that runs slower for a while.
pub const RATE_RPS: f64 = 400.0;

/// Deadline every request carries; a reply later than this after the
/// request was due counts as failed.
pub const DEADLINE_MS: u64 = 250;

const SCENARIO: &str = "dna-short";

/// Distinct pairs; requests cycle through them.
const CORPUS_PAIRS: usize = 2048;

/// Daemon starts timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 101;

/// Consecutive windows the requests are split into for the latency
/// quantiles; the median over the windows is reported, so one stall of the
/// host moves one window, not the result. At 20 s a window holds 1,000
/// requests, 10 beyond its p99.
const WINDOWS: usize = 8;

/// Time between connecting and the first request being due.
const LEAD: Duration = Duration::from_millis(50);

/// Longest wait for the next reply before the missing ones count as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

fn config(scoring: Scoring) -> ServeConfig {
    let mut cfg = ServeConfig::new(scoring);
    cfg.threads = THREADS;
    cfg.prefetch = DEFAULT_PREFETCH_DEPTH;
    cfg
}

/// Start a daemon and connect to it; returns once the first ping is
/// answered.
fn start(scoring: Scoring) -> Result<(ServeHandle, TcpStream, BufReader<TcpStream>), String> {
    let handle = serve(config(scoring))?;
    let ready = || -> Result<(TcpStream, BufReader<TcpStream>), String> {
        let mut stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        stream.write_all(b"{\"cmd\":\"ping\"}\n").map_err(|e| format!("ping: {e}"))?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| format!("ping reply: {e}"))?;
        match parse_response(line.trim_end())?.status {
            Status::Ok => Ok((stream, reader)),
            other => Err(format!("ping answered {other:?}")),
        }
    };
    match ready() {
        Ok((stream, reader)) => Ok((handle, stream, reader)),
        Err(e) => {
            handle.shutdown();
            Err(e)
        }
    }
}

struct Reply {
    at: Instant,
    status: Status,
    score: Option<i32>,
}

/// Per request: when it was due, when it went out, and its reply.
struct Load {
    due: Vec<Instant>,
    sent: Vec<Instant>,
    replies: Vec<Option<Reply>>,
    /// When the receiver stopped waiting.
    end: Instant,
}

/// Send `requests` requests on schedule from one thread, request `i`
/// aligning `texts[i % texts.len()]`, while another thread reads replies.
fn open_loop(
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    texts: &[(String, String)],
    requests: usize,
) -> Result<Load, String> {
    reader.get_ref().set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| e.to_string())?;
    let period = Duration::from_secs_f64(1.0 / RATE_RPS);
    let t0 = Instant::now() + LEAD;
    let due: Vec<Instant> = (0..requests).map(|i| t0 + period.mul_f64(i as f64)).collect();
    let n = requests;
    std::thread::scope(|s| {
        let due = &due;
        let sender = s.spawn(move || -> Result<Vec<Instant>, String> {
            let mut stream = stream;
            let mut sent = Vec::with_capacity(n);
            for (i, &at) in due.iter().enumerate() {
                let (r, q) = &texts[i % texts.len()];
                let line = align_request_line(i as i64, r, q, Some(DEADLINE_MS)) + "\n";
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                stream.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
                sent.push(Instant::now());
            }
            Ok(sent)
        });
        let receiver = s.spawn(move || {
            let mut reader = reader;
            let mut replies: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
            let (mut left, mut line) = (n, String::new());
            while left > 0 {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let at = Instant::now();
                let Ok(r) = parse_response(line.trim_end()) else { continue };
                let slot =
                    r.id.and_then(|id| usize::try_from(id).ok()).and_then(|i| replies.get_mut(i));
                if let Some(slot @ None) = slot {
                    *slot = Some(Reply { at, status: r.status, score: r.score });
                    left -= 1;
                }
            }
            (replies, Instant::now())
        });
        let sent = sender.join().expect("sender thread panicked");
        let (replies, end) = receiver.join().expect("receiver thread panicked");
        Ok(Load { due: due.clone(), sent: sent?, replies, end })
    })
}

pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let scoring = corpus::scoring(SCENARIO)?;
    // Timed first, in a fresh process, as a user starting `agatha serve`
    // pays it.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (handle, stream, reader) = start(scoring)?;
        setup.push(t.elapsed().as_secs_f64());
        drop((stream, reader));
        handle.shutdown();
    }
    let corpus = corpus::generate(SCENARIO, opts.seed, CORPUS_PAIRS)?;
    let pairs = corpus.tasks.len();
    let all: Vec<usize> = (0..pairs).collect();
    let (expected, reference_s) = corpus::reference_scores(&corpus.tasks, &all, &scoring);
    let texts: Vec<(String, String)> = corpus
        .tasks
        .iter()
        .map(|t| (t.reference.to_string_seq(), t.query.to_string_seq()))
        .collect();
    let requests = ((opts.seconds * RATE_RPS).round() as usize).max(1);
    // The daemon reports no simulated time: `sim_ms` is the cost model's
    // time for the distinct pairs as one batch.
    let batch = align::pipeline(scoring).align_batch(&corpus.tasks);
    let batch_ok = batch.results.iter().map(|r| r.score).eq(expected.iter().copied());

    // Started before the load, so every request's instants fall after its
    // origin.
    let mut tr = Tracer::new();
    let (handle, stream, reader) = start(scoring)?;
    reset_peak_rss()?;
    let load = open_loop(stream, reader, &texts, requests);
    let peak_rss = peak_rss_mib();
    let snap = handle.shutdown();
    let load = load?;

    let deadline = Duration::from_millis(DEADLINE_MS);
    // Correct replies, and those of them that came within the deadline.
    let (mut completed, mut ok, mut wrong) = (0u64, 0u64, 0u64);
    let mut latency_ms = Vec::with_capacity(requests);
    let mut last_reply = load.due[0];
    for (i, (&due, reply)) in load.due.iter().zip(&load.replies).enumerate() {
        let replied = reply.as_ref().map_or(load.end, |r| r.at);
        latency_ms.push((replied - due).as_secs_f64() * 1e3);
        if let Some(r) = reply.as_ref().filter(|r| r.status == Status::Ok) {
            last_reply = last_reply.max(r.at);
            if r.score != Some(expected[i % pairs]) {
                wrong += 1;
                continue;
            }
            completed += 1;
            ok += u64::from(r.at - due <= deadline);
        }
    }
    let mut lag_ms: Vec<f64> =
        load.sent.iter().zip(&load.due).map(|(&s, &d)| (s - d).as_secs_f64() * 1e3).collect();
    let mut out = Outcome {
        attempted: requests as u64,
        failed: requests as u64 - ok,
        correct: wrong == 0 && batch_ok,
        metrics: Vec::new(),
    };
    if opts.trace {
        for (i, (&due, &sent)) in load.due.iter().zip(&load.sent).enumerate() {
            let (start_ns, req) = (tr.ns(due), Some(i as u64));
            tr.push(Span {
                name: "loadgen.send",
                start_ns,
                end_ns: tr.ns(sent),
                parent: None,
                req,
            });
            if let Some(r) = &load.replies[i] {
                tr.push(Span {
                    name: "serve.request",
                    start_ns,
                    end_ns: tr.ns(r.at),
                    parent: None,
                    req,
                });
            }
        }
        // The shared layers, decomposed on the same pairs from FASTA.
        let inputs = corpus::write_fasta_inputs(&opts.work_dir, &corpus.tasks)?;
        let check = align::Check { indices: all, expected, reference_s };
        let layers = align::trace_layers(scoring, &inputs, &check, 0.0, &mut tr, opts)?;
        tr.write_jsonl(&opts.trace_path)?;
        let snapshot = opts.trace_path.with_extension("snapshot.json");
        std::fs::write(&snapshot, snap.to_json())
            .map_err(|e| format!("write {}: {e}", snapshot.display()))?;
        out.attempted += layers.attempted;
        out.failed += layers.failed;
        out.correct &= layers.correct;
        out.metrics = layers.metrics;
        let figures = LoadFigures {
            sent: load.sent.len(),
            lag_p99_ms: quantile(&mut lag_ms, 0.99),
            reply_p50_ms: windowed(&latency_ms, 0.50),
            reply_p99_ms: windowed(&latency_ms, 0.99),
        };
        out.metrics.extend(layer_metrics(Some(&snap), &figures));
        return Ok(out);
    }
    // The serve window: from the first request's due time to the last reply.
    let window_s = (last_reply - load.due[0]).as_secs_f64().max(f64::MIN_POSITIVE);
    out.metrics = vec![
        metric("pairs_per_s", completed as f64 / window_s, "pairs/s"),
        metric("sim_ms", batch.elapsed_ms, "ms"),
        metric("setup_s", median(&mut setup), "s"),
        metric("peak_rss_mb", peak_rss?, "MiB"),
        metric("ok_frac", 1.0 - out.fail_frac(), "ratio"),
        metric("goodput_rps", ok as f64 / window_s, "req/s"),
    ];
    Ok(out)
}

/// The median over [`WINDOWS`] consecutive windows of each window's `q`
/// quantile of `samples`.
fn windowed(samples: &[f64], q: f64) -> f64 {
    let size = samples.len().div_ceil(WINDOWS);
    let mut per_window: Vec<f64> =
        samples.chunks(size.max(1)).map(|w| quantile(&mut w.to_vec(), q)).collect();
    median(&mut per_window)
}

/// What the load generator measured in one open loop (all 0 when it did
/// not run). Reply latencies are timed from each request's due time.
#[derive(Default)]
pub struct LoadFigures {
    pub sent: usize,
    pub lag_p99_ms: f64,
    pub reply_p50_ms: f64,
    pub reply_p99_ms: f64,
}

/// The `serve` and `loadgen` layer metrics: the daemon's metrics at drain
/// (0 for workloads that never start it) and the load generator's figures.
pub fn layer_metrics(snap: Option<&MetricsSnapshot>, load: &LoadFigures) -> Vec<Metric> {
    let v = |f: fn(&MetricsSnapshot) -> f64| snap.map_or(0.0, f);
    vec![
        metric("serve.queue_p50_us", v(|s| s.queue.p50_us()), "us"),
        metric("serve.queue_p99_us", v(|s| s.queue.p99_us()), "us"),
        metric("serve.service_p50_us", v(|s| s.service.p50_us()), "us"),
        metric("serve.service_p99_us", v(|s| s.service.p99_us()), "us"),
        metric("serve.batches", v(|s| s.batches as f64), "count"),
        metric("serve.batch_mean", v(|s| s.completed as f64 / s.batches.max(1) as f64), "req"),
        metric("serve.rejected", v(|s| s.rejected as f64), "count"),
        metric("serve.dropped", v(|s| s.dropped_deadline as f64), "count"),
        metric("serve.cancelled", v(|s| s.cancelled as f64), "count"),
        metric("loadgen.sent", load.sent as f64, "count"),
        metric("loadgen.lag_p99_ms", load.lag_p99_ms, "ms"),
        metric("loadgen.reply_p50_ms", load.reply_p50_ms, "ms"),
        metric("loadgen.reply_p99_ms", load.reply_p99_ms, "ms"),
    ]
}
