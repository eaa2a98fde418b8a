//! Evolution offspring-path microbenchmark: times one generation of
//! parallel offspring production (`produce_generation` — mutation,
//! crossover, replay/legality checks, lineage stamping) and a full
//! `evolutionary_search_with_stats` pass, serial (1 worker) vs parallel.
//!
//! Emits `BENCH_evolution.json` (via `--json`) with wall-clock medians,
//! the offspring stage's share of a serial search pass, and the
//! serial/parallel offspring ratio. The committed baseline in `results/`
//! pins that *ratio* — a machine-independent number — and
//! `--check <baseline.json>` exits non-zero when the current ratio
//! regresses by more than 25%, which is the CI gate for the parallel
//! offspring path. Independently of any baseline, the run hard-fails if
//! offspring produced at 1 worker and at N workers are not bit-identical
//! (the determinism contract of docs/PARALLELISM.md).
//!
//! Run: `cargo run -p ansor-bench --release --bin evolution-bench -- \
//!        --json BENCH_evolution.json`
//! Gate: `... --bin evolution-bench -- --check results/BENCH_evolution.json`
//!
//! `--trajectory <path> [--trajectory-key <key>]` additionally upserts the
//! measured ratio into the cross-PR trajectory file
//! (`results/BENCH_trajectory.json`).

use std::collections::HashSet;
use std::sync::Arc;

use ansor_bench::{maybe_dump_json, maybe_record_trajectory, print_table, time_ms, Args};
use ansor_core::{
    evolutionary_search_with_stats, generate_sketches, produce_generation, sample_program,
    AnnotationConfig, CostModel, EvolutionConfig, Individual, LearnedCostModel, SearchTask,
};
use hwsim::{HardwareTarget, Measurer};
use rand::prelude::*;
use serde::{Deserialize, Serialize};
use tensor_ir::{DagBuilder, Expr, Reducer, State};

#[derive(Serialize, Deserialize)]
struct BenchReport {
    /// Population size (= offspring lanes per generation).
    population: usize,
    /// Generations per full-search pass.
    generations: usize,
    /// Parallel worker count used for the parallel measurements.
    threads: usize,
    /// One generation of offspring production, ms.
    offspring_serial_ms: f64,
    offspring_parallel_ms: f64,
    /// One full evolutionary-search pass (scoring + offspring + fold), ms.
    search_serial_ms: f64,
    search_parallel_ms: f64,
    /// Offspring stage's share of the serial search pass — the fraction
    /// of evolution the refactor moved onto the worker pool.
    offspring_share: f64,
    /// Offspring serial/parallel ratio — the gated, machine-independent
    /// number (≈1.0 on a single hardware core; > 1 with real cores).
    offspring_speedup: f64,
    /// Whether offspring at 1 worker and at `threads` workers were
    /// bit-identical (signatures, lineages, flags). Always required.
    identical_output: bool,
}

fn mm_relu_task() -> SearchTask {
    let mut b = DagBuilder::new();
    let a = b.placeholder("A", &[128, 128]);
    let w = b.constant("B", &[128, 128]);
    let c = b.compute_reduce("C", &[128, 128], &[128], Reducer::Sum, |ax| {
        Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
            * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
    });
    b.compute("D", &[128, 128], |ax| {
        Expr::max(
            Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
            Expr::float(0.0),
        )
    });
    SearchTask::new(
        "evolution:bench",
        Arc::new(b.build().unwrap()),
        HardwareTarget::intel_20core(),
    )
}

fn init_pop(task: &SearchTask, sketches: &[ansor_core::Sketch], n: usize) -> Vec<Individual> {
    let cfg = AnnotationConfig::default();
    let mut rng = StdRng::seed_from_u64(0xE701);
    let mut out = Vec::new();
    while out.len() < n {
        let id = rng.gen_range(0..sketches.len());
        if let Some(state) = sample_program(&sketches[id], task, &cfg, &mut rng) {
            out.push(Individual::new(state, id));
        }
    }
    out
}

/// Order-sensitive fingerprint of one offspring batch.
fn fingerprint(offspring: &[ansor_core::Offspring]) -> Vec<(u64, &'static str, bool, bool)> {
    offspring
        .iter()
        .map(|o| {
            (
                o.individual.signature(),
                o.individual.lineage.op.name(),
                o.fresh,
                o.crossover_fell_back,
            )
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let reps = args.pick(3, 5, 9);
    let population = args.pick(32, 128, 256);
    let generations = args.pick(2, 4, 8);
    let threads = args.threads.unwrap_or(4);

    let task = mm_relu_task();
    let sketches = generate_sketches(&task);
    let pop = init_pop(&task, &sketches, population);

    // Train the cost model on the initial population so crossover's
    // per-node scores are realistic (an untrained model scores all-zero
    // and crossover never fires).
    let mut model = LearnedCostModel::new();
    let mut measurer = Measurer::new(task.target.clone());
    let states: Vec<State> = pop.iter().map(|p| State::clone(&p.state)).collect();
    let secs: Vec<f64> = states.iter().map(|s| measurer.measure(s).seconds).collect();
    model.update(&task, &states, &secs);

    let cfg = EvolutionConfig {
        population,
        generations,
        crossover_prob: 0.5,
        ..Default::default()
    };
    let state_refs: Vec<&State> = pop.iter().map(|p| &*p.state).collect();
    let scores = model.predict_refs(&task, &state_refs);
    let generation_seed = ansor_runtime::derive_seed(0xE702, 0);

    // One generation of offspring production. Reseeding the plan RNG per
    // rep keeps every repetition identical.
    let mut one_generation = || {
        let mut rng = StdRng::seed_from_u64(0xE703);
        produce_generation(
            &task,
            &sketches,
            &pop,
            &scores,
            &model,
            &cfg,
            generation_seed,
            &mut rng,
        )
    };
    ansor_runtime::set_threads(1);
    let serial_offspring = one_generation();
    let offspring_serial_ms = time_ms(reps, &mut one_generation);
    ansor_runtime::set_threads(threads);
    let parallel_offspring = one_generation();
    let offspring_parallel_ms = time_ms(reps, &mut one_generation);

    // The determinism contract, checked on every bench run: offspring at
    // 1 worker and at `threads` workers must be bit-identical.
    let identical_output = fingerprint(&serial_offspring) == fingerprint(&parallel_offspring);

    // A full search pass, serial vs parallel.
    let banned = HashSet::new();
    let mut full_search = || {
        let mut rng = StdRng::seed_from_u64(0xE704);
        evolutionary_search_with_stats(
            &task,
            &sketches,
            pop.clone(),
            &model,
            &cfg,
            16,
            &banned,
            0xE705,
            &mut rng,
        )
    };
    ansor_runtime::set_threads(1);
    let search_serial_ms = time_ms(reps, &mut full_search);
    ansor_runtime::set_threads(threads);
    let search_parallel_ms = time_ms(reps, &mut full_search);
    ansor_runtime::set_threads(0);

    let report = BenchReport {
        population,
        generations,
        threads,
        offspring_serial_ms,
        offspring_parallel_ms,
        search_serial_ms,
        search_parallel_ms,
        offspring_share: (offspring_serial_ms * generations as f64) / search_serial_ms.max(1e-9),
        offspring_speedup: offspring_serial_ms / offspring_parallel_ms.max(1e-9),
        identical_output,
    };

    if args.tables_enabled() {
        print_table(
            &format!("Evolution offspring path (population {population}, {generations} gens)"),
            &[
                "stage",
                "serial (ms)",
                &format!("{threads} workers (ms)"),
                "speedup",
            ],
            &[
                vec![
                    "offspring generation".into(),
                    format!("{offspring_serial_ms:.2}"),
                    format!("{offspring_parallel_ms:.2}"),
                    format!("{:.2}x", report.offspring_speedup),
                ],
                vec![
                    "full search pass".into(),
                    format!("{search_serial_ms:.2}"),
                    format!("{search_parallel_ms:.2}"),
                    format!("{:.2}x", search_serial_ms / search_parallel_ms.max(1e-9)),
                ],
                vec![
                    "offspring share of serial pass".into(),
                    format!("{:.0}%", report.offspring_share * 100.0),
                    "-".into(),
                    "-".into(),
                ],
                vec![
                    "bit-identical at 1 vs N workers".into(),
                    if identical_output { "yes" } else { "NO" }.into(),
                    "-".into(),
                    "-".into(),
                ],
            ],
        );
    }
    maybe_dump_json(&args, &report);
    maybe_record_trajectory(
        &args,
        "evolution-bench",
        "offspring_speedup",
        report.offspring_speedup,
    );

    if !identical_output {
        eprintln!("DETERMINISM FAILURE: offspring differ between 1 and {threads} workers");
        std::process::exit(1);
    }

    // Regression gate: the offspring serial/parallel ratio is
    // machine-independent, so CI compares against the committed baseline
    // with a 25% allowance.
    if let Some(i) = args.flags.iter().position(|f| f == "--check") {
        let path = args.flags.get(i + 1).unwrap_or_else(|| {
            eprintln!("--check requires a baseline path");
            std::process::exit(2);
        });
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("--check: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let baseline: BenchReport = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("--check: cannot parse {path}: {e}");
            std::process::exit(2);
        });
        let floor = baseline.offspring_speedup * 0.75;
        println!(
            "offspring speedup {:.2}x vs baseline {:.2}x (floor {floor:.2}x)",
            report.offspring_speedup, baseline.offspring_speedup
        );
        if report.offspring_speedup < floor {
            eprintln!("REGRESSION: parallel offspring speedup fell >25% below baseline");
            std::process::exit(1);
        }
    }
}
