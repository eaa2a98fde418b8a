//! Hardware-sensitivity study: the paper's motivation (§2) is *portable*
//! performance — the same computation definition retargeted by search
//! instead of hand-tuning per platform. This harness tunes one conv2d on a
//! family of simulated machines and reports how the best schedule's shape
//! (parallel extent, vector length, tile footprint) tracks the hardware.
//!
//! Run: `cargo run -p ansor-bench --release --bin sensitivity`

use ansor_bench::{check_claims, maybe_dump_json, print_table, Args, Claim};
use ansor_core::{auto_schedule, SearchTask, TuningOptions};
use hwsim::{HardwareTarget, Measurer};
use serde::Serialize;
use tensor_ir::{analysis, lower, Annotation};

#[derive(Serialize)]
struct Row {
    machine: String,
    gflops: f64,
    parallel_extent: i64,
    vector_len: i64,
    l1_kib: i64,
}

fn main() {
    let args = Args::parse();
    let tel = args.telemetry();
    let trials = args.pick(48, 300, 1000);
    let dag = ansor_workloads::build_case("C2D", 1, 1).expect("case");
    let flops = dag.flop_count();

    let base = HardwareTarget::intel_20core();
    let machines: Vec<(String, HardwareTarget)> = vec![
        (
            "4 cores".into(),
            HardwareTarget {
                num_cores: 4,
                ..base.clone()
            },
        ),
        ("20 cores".into(), base.clone()),
        (
            "64 cores".into(),
            HardwareTarget {
                num_cores: 64,
                ..base.clone()
            },
        ),
        (
            "4-wide SIMD".into(),
            HardwareTarget {
                vector_lanes: 4,
                ..base.clone()
            },
        ),
        (
            "16-wide SIMD".into(),
            HardwareTarget {
                vector_lanes: 16,
                ..base.clone()
            },
        ),
        (
            "8 KiB L1".into(),
            HardwareTarget {
                l1_bytes: 8 * 1024,
                ..base.clone()
            },
        ),
        (
            "128 KiB L1".into(),
            HardwareTarget {
                l1_bytes: 128 * 1024,
                ..base.clone()
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, target) in &machines {
        let task = SearchTask::new(format!("c2d:{name}"), dag.clone(), target.clone());
        let mut measurer = Measurer::new(target.clone());
        measurer.set_telemetry(tel.clone());
        let options = TuningOptions {
            num_measure_trials: trials,
            seed: 3,
            telemetry: tel.clone(),
            ..Default::default()
        };
        let result = auto_schedule(&task, options, &mut measurer);
        let best = result.best.expect("schedule found");
        let program = lower(&best.state).expect("lowerable");
        let an = analysis::analyze(&program);
        // The dominant (reduction) statement characterizes the schedule.
        let main = an
            .iter()
            .max_by(|a, b| a.trip_count().partial_cmp(&b.trip_count()).unwrap())
            .expect("statements exist");
        let vec_len = main
            .loops
            .iter()
            .rev()
            .find(|l| l.ann == Annotation::Vectorize)
            .map(|l| l.extent)
            .unwrap_or(1);
        eprintln!(
            "{name}: {:.1} GFLOP/s, parallel {}, vector {}",
            flops / result.best_seconds / 1e9,
            main.parallel_extent(),
            vec_len
        );
        rows.push(Row {
            machine: name.clone(),
            gflops: flops / result.best_seconds / 1e9,
            parallel_extent: main.parallel_extent(),
            vector_len: vec_len,
            l1_kib: target.l1_bytes / 1024,
        });
    }

    if args.tables_enabled() {
        print_table(
            "Hardware sensitivity: best conv2d schedule per simulated machine",
            &[
                "machine",
                "GFLOP/s",
                "parallel extent",
                "vector len",
                "L1 KiB",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.machine.clone(),
                        format!("{:.1}", r.gflops),
                        r.parallel_extent.to_string(),
                        r.vector_len.to_string(),
                        r.l1_kib.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }
    // GFLOP/s ÷ the next larger machine's, the larger of two steps: rows
    // 0 → 1 → 2 add cores, rows 3 → 1 → 4 SIMD lanes.
    let g = |i: usize| rows[i].gflops;
    let cores = f64::max(g(0) / g(1), g(1) / g(2));
    let lanes = f64::max(g(3) / g(1), g(1) / g(4));
    let covers = "machines of 7 whose parallel extent covers the core count (Known deviation 8)";
    let covered = (machines.iter().zip(&rows))
        .filter(|((_, target), row)| row.parallel_extent >= i64::from(target.num_cores))
        .count() as f64;
    maybe_dump_json(&args, &rows);
    args.finish_telemetry(&tel);
    check_claims(&[
        Claim::below("GFLOP/s ÷ at more cores (4 → 20 → 64)", "< 1", cores, 1.0),
        Claim::below("GFLOP/s ÷ at wider SIMD (4 → 8 → 16)", "< 1", lanes, 1.0),
        Claim::at_least(covers, "7", covered, args.pick(7.0, 6.0, 6.0)),
    ]);
}
