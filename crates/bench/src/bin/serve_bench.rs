//! Latency-injection harness for the online alignment service: boots the
//! in-process daemon, estimates its closed-loop capacity, then drives
//! open-loop paced load at fractions of that capacity — under, at, and
//! over saturation — and reports sustained req/sec plus queue/total
//! latency percentiles (p50/p99/p999) per load point.
//!
//! Each request carries a deadline, so the over-saturation point shows the
//! SLO machinery doing its job: the bounded queue answers 503 immediately
//! and overstaying requests are dropped before kernel dispatch instead of
//! dragging the tail. Writes `BENCH_serve.json` so CI tracks the serving
//! trajectory run over run.
//!
//! Run with `cargo run --release -p agatha-bench --bin serve_bench`;
//! pass `quick` to run only the under-saturation point (the CI smoke
//! configuration).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use agatha_align::Scoring;
use agatha_serve::protocol::align_request_line;
use agatha_serve::{parse_response, serve, MetricsSnapshot, ServeConfig, Status};

const SEED: u64 = 1234;
const WINDOW_MS: u64 = 2;
/// Per-request SLO: generous next to the under-saturation tail, tight next
/// to an overloaded queue — so drops appear exactly when load exceeds
/// capacity.
const DEADLINE_MS: u64 = 100;
/// Queue bound: small enough that over-saturation hits 503s within the
/// bench's burst instead of silently absorbing it.
const MAX_QUEUE: usize = 512;

fn scoring() -> Scoring {
    Scoring::new(2, 4, 4, 2, 60, 16)
}

/// Fixed-seed sequence-pair corpus (LCG bases with periodic mismatches).
fn pairs(count: usize, len_base: usize) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut x = SEED | 1;
    for _ in 0..count {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let len = len_base + (x >> 33) as usize % len_base;
        let mut r = String::new();
        let mut q = String::new();
        for k in 0..len {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let c = ['A', 'C', 'G', 'T'][(x >> 33) as usize % 4];
            r.push(c);
            q.push(if k % 17 == 0 { 'G' } else { c });
        }
        out.push((r, q));
    }
    out
}

fn daemon_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(scoring());
    cfg.window_ns = WINDOW_MS * 1_000_000;
    cfg.max_queue = MAX_QUEUE;
    cfg
}

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone().expect("clone socket"));
    (stream, reader)
}

/// Closed-loop capacity estimate: one pipelined burst, fresh daemon.
fn estimate_capacity(corpus: &[(String, String)]) -> f64 {
    const BURST: usize = 192;
    let handle = serve(daemon_config()).expect("daemon starts");
    let (mut writer, mut reader) = connect(handle.addr());
    let t0 = Instant::now();
    for i in 0..BURST {
        let (r, q) = &corpus[i % corpus.len()];
        let line = align_request_line(i as i64, r, q, None);
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
    }
    let mut line = String::new();
    for _ in 0..BURST {
        line.clear();
        assert!(reader.read_line(&mut line).expect("recv") > 0, "daemon hung up mid-burst");
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-6);
    handle.shutdown();
    BURST as f64 / secs
}

struct PointResult {
    label: &'static str,
    offered_rps: f64,
    sent: usize,
    completed: u64,
    dropped: u64,
    rejected: u64,
    sustained_rps: f64,
    snap: MetricsSnapshot,
}

/// One open-loop load point: a paced sender, a counting receiver, and the
/// server's own histogram snapshot at drain.
fn run_point(
    corpus: &[(String, String)],
    label: &'static str,
    offered_rps: f64,
    sent: usize,
) -> PointResult {
    let handle = serve(daemon_config()).expect("daemon starts");
    let (mut writer, mut reader) = connect(handle.addr());
    let receiver = std::thread::spawn(move || {
        let (mut completed, mut dropped, mut rejected) = (0u64, 0u64, 0u64);
        let mut line = String::new();
        for _ in 0..sent {
            line.clear();
            if reader.read_line(&mut line).expect("recv") == 0 {
                break;
            }
            match parse_response(line.trim_end()).map(|r| r.status) {
                Ok(Status::Ok) => completed += 1,
                Ok(Status::Dropped) => dropped += 1,
                Ok(Status::Rejected) => rejected += 1,
                _ => {}
            }
        }
        (completed, dropped, rejected)
    });

    // Open loop: send on the paced schedule regardless of responses —
    // that is what makes queueing (and the tail) visible.
    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let start = Instant::now();
    for i in 0..sent {
        let due = start + interval.mul_f64(i as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let (r, q) = &corpus[i % corpus.len()];
        let line = align_request_line(i as i64, r, q, Some(DEADLINE_MS));
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send");
    }
    let (completed, dropped, rejected) = receiver.join().expect("receiver panicked");
    let wall = start.elapsed().as_secs_f64().max(1e-6);
    let snap = handle.shutdown();
    PointResult {
        label,
        offered_rps,
        sent,
        completed,
        dropped,
        rejected,
        sustained_rps: completed as f64 / wall,
        snap,
    }
}

fn point_json(p: &PointResult) -> String {
    format!(
        "    {{\n      \"label\": \"{}\",\n      \"offered_rps\": {:.1},\n      \
         \"sent\": {},\n      \"completed\": {},\n      \"dropped_deadline\": {},\n      \
         \"rejected\": {},\n      \"sustained_rps\": {:.1},\n      \
         \"queue_p50_us\": {:.1},\n      \"queue_p99_us\": {:.1},\n      \
         \"queue_p999_us\": {:.1},\n      \"total_p50_us\": {:.1},\n      \
         \"total_p99_us\": {:.1},\n      \"total_p999_us\": {:.1}\n    }}",
        p.label,
        p.offered_rps,
        p.sent,
        p.completed,
        p.dropped,
        p.rejected,
        p.sustained_rps,
        p.snap.queue.p50_us(),
        p.snap.queue.p99_us(),
        p.snap.queue.p999_us(),
        p.snap.total.p50_us(),
        p.snap.total.p99_us(),
        p.snap.total.p999_us(),
    )
}

fn main() {
    let quick = std::env::args().nth(1).is_some_and(|a| a == "quick");
    let corpus = pairs(96, 150);

    let capacity = estimate_capacity(&corpus).max(50.0);
    let multipliers: &[(&'static str, f64)] = if quick {
        &[("under", 0.5)]
    } else {
        &[("under", 0.5), ("saturation", 1.0), ("over", 2.0)]
    };

    let base_requests = if quick { 400 } else { 1200 };
    let mut points = Vec::new();
    for &(label, mult) in multipliers {
        let offered = capacity * mult;
        // Bound each point's wall clock at ~4s even when capacity is low.
        let sent = base_requests.min((offered * 4.0) as usize).max(50);
        points.push(run_point(&corpus, label, offered, sent));
    }

    let body: Vec<String> = points.iter().map(point_json).collect();
    // The kernel configuration the daemon actually served with: block
    // geometry (`AGATHA_BLOCK` override, else the paper's 8×8 tile), fill
    // precision (`AGATHA_PRECISION`), and the resolved wavefront backend
    // (`AGATHA_BACKEND`, clamped to what the CPU supports). Serving numbers
    // from different kernel configs are not comparable, same as
    // `fill_backend` in the pipeline bench. Resolve the backend *after*
    // building a config: `AgathaConfig` installs the env-default backend
    // choice on first construction.
    let daemon_cfg = daemon_config();
    let block_dim = daemon_cfg.config.block_dim.name();
    let default_precision = daemon_cfg.config.fill_precision.name();
    let fill_backend = agatha_align::simd::backend().name();
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"seed\": {SEED},\n  \
         \"window_ms\": {WINDOW_MS},\n  \"deadline_ms\": {DEADLINE_MS},\n  \
         \"max_queue\": {MAX_QUEUE},\n  \"block_dim\": \"{block_dim}\",\n  \
         \"default_precision\": \"{default_precision}\",\n  \
         \"fill_backend\": \"{fill_backend}\",\n  \
         \"capacity_est_rps\": {:.1},\n  \"load_points\": [\n{}\n  ]\n}}\n",
        capacity,
        body.join(",\n"),
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    print!("{json}");
}
