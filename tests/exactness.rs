//! Workspace exactness contract: every MM2-target engine — the scalar
//! reference, the block-grid driver, the AGAThA kernel under every
//! configuration, and all MM2-target baselines — produces identical results
//! on identical inputs.

use agatha_suite::align::block::{block_grid_align, FillPrecision};
use agatha_suite::align::guided::guided_align;
use agatha_suite::align::simd::{self, BackendChoice};
use agatha_suite::align::{Scoring, Task};
use agatha_suite::baselines::{run_baseline, Baseline};
use agatha_suite::core::{kernel::run_task, AgathaConfig, Pipeline};
use agatha_suite::datasets::{generate, scenarios, DatasetSpec, Tech};
use agatha_suite::gpu_sim::GpuSpec;

fn small_dataset(tech: Tech, seed: u64, reads: usize) -> agatha_suite::datasets::Dataset {
    generate(&DatasetSpec { name: format!("{} test", tech.name()), tech, seed, reads })
}

#[test]
fn agatha_matches_reference_on_generated_data() {
    for tech in [Tech::HiFi, Tech::Clr, Tech::Ont] {
        let d = small_dataset(tech, 42, 20);
        for t in &d.tasks {
            let want = guided_align(&t.reference, &t.query, &d.scoring);
            let got = run_task(t, &d.scoring, &AgathaConfig::agatha());
            assert!(
                got.result.same_alignment(&want),
                "{:?} task {}\n got {:?}\nwant {want:?}",
                tech,
                t.id,
                got.result
            );
        }
    }
}

#[test]
fn all_configurations_agree() {
    let d = small_dataset(Tech::Clr, 7, 12);
    let configs = [
        AgathaConfig::baseline(),
        AgathaConfig::baseline().with_rw(true),
        AgathaConfig::baseline().with_rw(true).with_sd(true),
        AgathaConfig::agatha(),
        AgathaConfig::agatha().with_slice_width(1),
        AgathaConfig::agatha().with_slice_width(7),
        AgathaConfig::agatha().with_slice_width(128),
        AgathaConfig::agatha().with_subwarp(16),
        AgathaConfig::agatha().with_subwarp(32),
    ];
    for t in &d.tasks {
        let want = guided_align(&t.reference, &t.query, &d.scoring);
        for cfg in &configs {
            let got = run_task(t, &d.scoring, cfg);
            assert!(
                got.result.same_alignment(&want),
                "config {cfg:?} task {}\n got {:?}\nwant {want:?}",
                t.id,
                got.result
            );
        }
    }
}

#[test]
fn block_grid_driver_agrees() {
    let d = small_dataset(Tech::Ont, 13, 10);
    for t in &d.tasks {
        let want = guided_align(&t.reference, &t.query, &d.scoring);
        let got = block_grid_align(&t.reference, &t.query, &d.scoring);
        assert!(got.same_alignment(&want), "task {}", t.id);
    }
}

#[test]
fn mm2_target_baselines_agree_with_cpu() {
    let d = small_dataset(Tech::Clr, 21, 16);
    let spec = GpuSpec::rtx_a6000();
    let cpu = run_baseline(Baseline::CpuSse4, &d.tasks, &d.scoring, &spec);
    for engine in [Baseline::Gasal2Mm2, Baseline::SalobaMm2, Baseline::ManymapMm2] {
        let rep = run_baseline(engine, &d.tasks, &d.scoring, &spec);
        assert_eq!(rep.scores, cpu.scores, "{}", engine.name());
    }
    let agatha = Pipeline::new(d.scoring, AgathaConfig::agatha()).align_batch(&d.tasks);
    let agatha_scores: Vec<i32> = agatha.results.iter().map(|r| r.score).collect();
    assert_eq!(agatha_scores, cpu.scores, "AGAThA");
}

#[test]
fn diff_target_engines_run_but_may_differ() {
    // Diff-Target engines have different semantics; they must still run and
    // produce plausible (non-negative) scores for every task.
    let d = small_dataset(Tech::HiFi, 33, 12);
    let spec = GpuSpec::rtx_a6000();
    for engine in
        [Baseline::Gasal2Diff, Baseline::SalobaDiff, Baseline::ManymapDiff, Baseline::Logan]
    {
        let rep = run_baseline(engine, &d.tasks, &d.scoring, &spec);
        assert_eq!(rep.scores.len(), d.tasks.len(), "{}", engine.name());
        assert!(rep.scores.iter().all(|&s| s >= 0), "{}", engine.name());
        assert!(rep.elapsed_ms > 0.0);
    }
}

#[test]
fn handcrafted_edge_cases() {
    let scorings = [
        Scoring::new(2, 4, 4, 2, 10, 4),
        Scoring::new(1, 9, 16, 1, 5, 1),
        Scoring::new(5, 1, 1, 1, 1000, 64),
    ];
    let pairs = [
        ("A", "A"),
        ("A", "T"),
        ("ACGT", "ACGTACGTACGTACGTACGTACGTACGT"),
        ("ACGTACGTACGTACGTACGTACGTACGT", "A"),
        ("NNNNNNNN", "ACGTACGT"),
        ("ACGTNACGT", "ACGTNACGT"),
    ];
    for s in &scorings {
        for (r, q) in pairs {
            let t = Task::from_strs(0, r, q);
            let want = guided_align(&t.reference, &t.query, s);
            for cfg in [AgathaConfig::baseline(), AgathaConfig::agatha()] {
                let got = run_task(&t, s, &cfg);
                assert!(
                    got.result.same_alignment(&want),
                    "pair ({r}, {q}) scoring {s:?} cfg {cfg:?}"
                );
            }
        }
    }
}

#[test]
fn host_choices_leave_simulated_time_identical() {
    // Fill mode, lane precision and wavefront backend are host-side
    // choices: they may change wall time, never what the simulated device
    // does. Every one of them must reproduce the default run's scores,
    // simulated milliseconds and kernel statistics exactly.
    let wavefront = AgathaConfig::agatha().with_simd_fill(true);
    let mut configs = vec![AgathaConfig::agatha(), AgathaConfig::agatha().with_simd_fill(false)];
    for p in [FillPrecision::Auto, FillPrecision::I32, FillPrecision::I16] {
        configs.push(wavefront.clone().with_fill_precision(p));
    }
    for (name, reads) in [("dna-short", 48), ("dna-long", 3)] {
        let sc = scenarios::find(name).expect("registered scenario");
        let scoring = (sc.scoring)();
        let tasks = (sc.tasks)(11, reads);
        let want = Pipeline::new(scoring, AgathaConfig::agatha()).align_batch(&tasks);
        let check = |cfg: &AgathaConfig, label: &str| {
            let got = Pipeline::new(scoring, cfg.clone()).align_batch(&tasks);
            assert_eq!(got.results, want.results, "{name}, {label}: scores");
            assert_eq!(
                got.elapsed_ms.to_bits(),
                want.elapsed_ms.to_bits(),
                "{name}, {label}: simulated ms {} vs {}",
                got.elapsed_ms,
                want.elapsed_ms
            );
            assert_eq!(got.stats, want.stats, "{name}, {label}: kernel stats");
        };
        for cfg in &configs {
            check(cfg, &format!("{cfg:?}"));
        }
        let restore = simd::backend_choice();
        for backend in simd::supported_backends() {
            simd::set_backend_choice(BackendChoice::Fixed(backend));
            check(&wavefront, backend.name());
        }
        simd::set_backend_choice(restore);
    }
}
