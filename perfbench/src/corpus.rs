//! Workload inputs: pairs drawn from the `agatha-datasets` scenario registry
//! under the run's seed, the FASTA files the program reads, and the scalar
//! reference scores every output is checked against.

use std::path::{Path, PathBuf};
use std::time::Instant;

use agatha_align::guided::{guided_align_ws, GuidedWorkspace};
use agatha_align::{Scoring, Task};
use agatha_datasets::Scenario;
use agatha_io::{write_fasta, FastaRecord};

/// Registry draws per corpus pair (see [`generate`]).
const POOL: usize = 4;

/// Pairs drawn from one registered scenario under a seed.
pub struct Corpus {
    pub scoring: Scoring,
    pub tasks: Vec<Task>,
}

fn find(scenario: &str) -> Result<&'static Scenario, String> {
    agatha_datasets::scenarios::find(scenario)
        .ok_or_else(|| format!("scenario '{scenario}' is not registered"))
}

/// The scoring `scenario` aligns under.
pub fn scoring(scenario: &str) -> Result<Scoring, String> {
    Ok((find(scenario)?.scoring)())
}

/// `pairs` pairs of `scenario`: a length-stratified subsample of a
/// [`POOL`]-times larger registry draw under `seed`. Every length quantile of
/// the draw is represented once, so a heavy length tail (`dna-long`) weighs
/// the same under every seed; the kept pairs stay in the draw's order and
/// are renumbered from 0.
pub fn generate(scenario: &str, seed: u64, pairs: usize) -> Result<Corpus, String> {
    let s = find(scenario)?;
    let pool = (s.tasks)(seed, pairs * POOL);
    let mut by_len: Vec<usize> = (0..pool.len()).collect();
    by_len.sort_by_key(|&i| (pool[i].antidiags(), i));
    let mut keep: Vec<usize> = by_len.into_iter().skip(POOL / 2).step_by(POOL).collect();
    keep.sort_unstable();
    let tasks = keep
        .into_iter()
        .enumerate()
        .map(|(id, i)| Task { id: id as u32, ..pool[i].clone() })
        .collect();
    Ok(Corpus { scoring: (s.scoring)(), tasks })
}

/// A reference/query FASTA file pair on disk.
pub struct FastaInputs {
    pub refs: PathBuf,
    pub queries: PathBuf,
    /// Size of both files together.
    pub bytes: u64,
}

pub fn write_fasta_inputs(dir: &Path, tasks: &[Task]) -> Result<FastaInputs, String> {
    let refs = dir.join("ref.fasta");
    let queries = dir.join("query.fasta");
    let side = |name: &str, seq: fn(&Task) -> &agatha_align::PackedSeq| -> Vec<FastaRecord> {
        tasks
            .iter()
            .map(|t| FastaRecord { name: format!("{name}{}", t.id), seq: seq(t).clone() })
            .collect()
    };
    write_fasta(&refs, &side("r", |t| &t.reference))?;
    write_fasta(&queries, &side("q", |t| &t.query))?;
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).map_err(|e| e.to_string());
    let bytes = size(&refs)? + size(&queries)?;
    Ok(FastaInputs { refs, queries, bytes })
}

/// Every `stride`-th pair from a seed-chosen offset, `want` pairs in all
/// (every pair when `want` covers the corpus).
pub fn sample_indices(pairs: usize, want: usize, seed: u64) -> Vec<usize> {
    if want >= pairs {
        return (0..pairs).collect();
    }
    let stride = pairs / want;
    let offset = (seed % stride as u64) as usize;
    (0..want).map(|k| offset + k * stride).collect()
}

/// Scores of the pairs at `indices` from the scalar reference
/// (`guided_align_ws`, one thread), with the time it took.
pub fn reference_scores(tasks: &[Task], indices: &[usize], scoring: &Scoring) -> (Vec<i32>, f64) {
    let mut ws = GuidedWorkspace::new();
    let t = Instant::now();
    let scores = indices
        .iter()
        .map(|&i| guided_align_ws(&tasks[i].reference, &tasks[i].query, scoring, &mut ws).score)
        .collect();
    (scores, t.elapsed().as_secs_f64())
}

/// Read a `score.log` back from disk.
pub fn read_score_log(path: &Path) -> Result<Vec<i32>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .map(|l| {
            l.trim().parse::<i32>().map_err(|e| format!("{}: bad score '{l}': {e}", path.display()))
        })
        .collect()
}
