//! **Figure 6**: single-operator benchmark on the 20-core Intel CPU.
//!
//! 10 operators (C1D, C2D, C3D, GMM, GRP, DIL, DEP, T2D, CAP, NRM) × 4
//! shape configurations × batch {1, 16}, tuned by four search frameworks
//! (Halide-like beam search, FlexTensor-like, AutoTVM-like, Ansor) with an
//! equal measurement-trial budget, plus the vendor-library stand-in
//! ("PyTorch"), which performs no search but — as in §7.1 — gets AVX-512
//! while the search frameworks have it disabled.
//!
//! For each operator the table reports the geometric mean of throughputs
//! over the four shapes, normalized to the best framework (the paper's
//! y-axis).
//!
//! Run: `cargo run -p ansor-bench --release --bin fig6_single_op`

use ansor_baselines::{search_frameworks, vendor::vendor_seconds};
use ansor_bench::{geomean, maybe_dump_json, normalize_to_best, print_table, Args, Scale};
use ansor_core::SearchTask;
use ansor_workloads::{build_case, OP_CLASSES};
use hwsim::HardwareTarget;
use serde::Serialize;

#[derive(Serialize)]
struct OpResult {
    op: String,
    batch: i64,
    /// Framework name → normalized performance.
    normalized: Vec<(String, f64)>,
    /// Framework name → geomean GFLOP/s.
    gflops: Vec<(String, f64)>,
}

/// §7.1's footnote, "Ansor can match PyTorch after utilizing AVX-512": GMM
/// shape 0, batch 16, with AVX-512 enabled for Ansor too.
#[derive(Serialize)]
struct Avx512Footnote {
    ansor_gflops: f64,
    pytorch_gflops: f64,
    /// `ansor_gflops / pytorch_gflops`.
    ratio: f64,
}

#[derive(Serialize)]
struct Record {
    cases: Vec<OpResult>,
    avx512_gmm_b16: Avx512Footnote,
}

fn main() {
    let args = Args::parse();
    let tel = args.telemetry();
    let trials = args.pick(48, 200, 1000);
    let shapes: Vec<usize> = if args.scale == Scale::Smoke {
        vec![0]
    } else {
        vec![0, 1, 2, 3]
    };
    let ops: Vec<&str> = if args.scale == Scale::Smoke {
        vec!["GMM", "C2D", "T2D", "NRM"]
    } else {
        OP_CLASSES.to_vec()
    };
    let target = HardwareTarget::intel_20core();
    let vendor_target = HardwareTarget::intel_20core_avx512();

    let frameworks = search_frameworks();
    let mut names: Vec<String> = vec!["PyTorch".into()];
    names.extend(frameworks.iter().map(|f| f.name().to_string()));

    let mut results: Vec<OpResult> = Vec::new();
    for &batch in &[1i64, 16] {
        for &op in &ops {
            // throughput[framework][shape]
            let mut tput: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
            for &shape in &shapes {
                let dag = build_case(op, shape, batch).expect("valid case");
                let flops = dag.flop_count();
                let task = SearchTask::new(format!("{op}:s{shape}b{batch}"), dag, target.clone());
                // Vendor library (no trials, AVX-512).
                let v = vendor_seconds(&task, &vendor_target);
                tput[0].push(flops / v / 1e9);
                for (fi, fw) in frameworks.iter().enumerate() {
                    let r = fw.tune_traced(&task, trials, 1000 + shape as u64, &tel);
                    tput[fi + 1].push(flops / r.best_seconds / 1e9);
                    eprintln!(
                        "  {op} shape{shape} b{batch} {}: {:.1} GFLOP/s",
                        fw.name(),
                        flops / r.best_seconds / 1e9
                    );
                }
            }
            let geo: Vec<f64> = tput.iter().map(|t| geomean(t)).collect();
            let norm = normalize_to_best(&geo);
            results.push(OpResult {
                op: op.to_string(),
                batch,
                normalized: names.iter().cloned().zip(norm).collect(),
                gflops: names.iter().cloned().zip(geo).collect(),
            });
        }
    }

    if args.tables_enabled() {
        for &batch in &[1i64, 16] {
            let mut headers: Vec<&str> = vec!["op"];
            headers.extend(names.iter().map(|s| s.as_str()));
            let rows: Vec<Vec<String>> = results
                .iter()
                .filter(|r| r.batch == batch)
                .map(|r| {
                    let mut row = vec![r.op.clone()];
                    row.extend(r.normalized.iter().map(|(_, v)| format!("{v:.2}")));
                    row
                })
                .collect();
            print_table(
                &format!(
                    "Figure 6: normalized performance, batch size = {batch} (higher is better)"
                ),
                &headers,
                &rows,
            );
        }
    }

    // Summary statistics matching the paper's claims.
    let mut ansor_best = 0;
    let mut total = 0;
    for r in &results {
        total += 1;
        let ansor = r.normalized.iter().find(|(n, _)| n == "Ansor").unwrap().1;
        if ansor >= 0.999 {
            ansor_best += 1;
        }
    }
    println!(
        "\nAnsor performs best on {ansor_best} of {total} (op, batch) cases \
         (paper: 19 of 20).\nExpected: large Ansor wins on NRM (rfactor \
         parallelizes the reduction) and T2D (unrolling folds the zero \
         multiplications); PyTorch competitive on GMM batch 16 (AVX-512)."
    );

    // §7.1's footnote: "Ansor can match PyTorch after utilizing AVX-512".
    let avx512_gmm_b16 = {
        let dag = build_case("GMM", 0, 16).expect("valid case");
        let flops = dag.flop_count();
        let task = SearchTask::new("GMM:avx512", dag, vendor_target.clone());
        let pytorch_gflops = flops / vendor_seconds(&task, &vendor_target) / 1e9;
        let ansor = frameworks.last().expect("Ansor is last");
        let r = ansor.tune_traced(&task, trials, 4242, &tel);
        let ansor_gflops = flops / r.best_seconds / 1e9;
        Avx512Footnote {
            ansor_gflops,
            pytorch_gflops,
            ratio: ansor_gflops / pytorch_gflops,
        }
    };
    println!(
        "\nGMM b16 with AVX-512 enabled for Ansor too: Ansor {:.0} vs PyTorch \
         {:.0} GFLOP/s ({:.2}x).",
        avx512_gmm_b16.ansor_gflops, avx512_gmm_b16.pytorch_gflops, avx512_gmm_b16.ratio
    );
    maybe_dump_json(
        &args,
        &Record {
            cases: results,
            avx512_gmm_b16,
        },
    );
    args.finish_telemetry(&tel);
}
