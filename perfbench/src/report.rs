//! What every workload reports: named metrics, the result line, quantiles,
//! the process memory high-water mark, and the in-memory span recorder of
//! traced runs.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One named measurement with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run of a workload produced.
pub struct Outcome {
    /// Operations attempted: pairs aligned (align) or requests sent (serve).
    pub attempted: u64,
    /// Operations that failed: parse errors, wrong or missing scores, and
    /// (serve) rejected, dropped or late replies.
    pub failed: u64,
    /// False when any output disagreed with the scalar reference or a
    /// consistency check between the layers failed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `failed / attempted`, the share of operations that failed.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Nearest-rank quantile: the smallest sample with at least a `q` share of
/// the samples at or below it. Sorts `samples` in place; 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

/// The middle sample, or the mean of the two middle ones; 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    let low = quantile(samples, 0.5);
    match samples.len() {
        n if n % 2 == 0 && n > 0 => (low + samples[n / 2]) / 2.0,
        _ => low,
    }
}

/// Median wall time of `reps` calls of `f`; what `f` returns is dropped
/// outside the timed region.
pub fn median_time<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let made = f()?;
        times.push(t.elapsed().as_secs_f64());
        drop(made);
    }
    Ok(median(&mut times))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: give free heap memory back to the system.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
}

/// Restart the process's peak-RSS mark (`VmHWM`) at the current RSS. Memory
/// the benchmark freed while making its inputs is first given back to the
/// system: how much of it the allocator would otherwise keep resident
/// depends on the seed's sequence lengths, and would move the mark.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only walks the
    // allocator's own free lists under its locks; any thread may call it at
    // any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// The process's peak RSS since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// One traced call: which layer, when, under which parent span, and for
/// which request (the pair id, where the call serves one pair).
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

/// Spans kept in memory during a traced run and written out at its end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Trace time of `at`, in nanoseconds since the tracer started.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// Start a span that encloses later ones; end it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(Span { name, start_ns: now, end_ns: now, parent, req: None })
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Record a span that started at `start_ns` and ends now.
    pub fn record(&mut self, name: &'static str, start_ns: u64, parent: usize, req: Option<u64>) {
        let end_ns = self.now();
        self.push(Span { name, start_ns, end_ns, parent: Some(parent), req });
    }

    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn span_s(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req)
            );
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}
