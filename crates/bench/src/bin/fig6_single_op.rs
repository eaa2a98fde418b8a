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
use ansor_bench::{
    check_claims, geomean, maybe_dump_json, normalize_to_best, print_table, Args, Claim, Scale,
};
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
    let ansor = |r: &OpResult| r.normalized.last().expect("Ansor is last").1;
    let cases = format!(
        "(op, batch) cases of {} where Ansor is best or tied (within 0.1 %; Known deviation 2)",
        results.len()
    );
    let wins = results.iter().filter(|r| ansor(r) >= 0.999).count() as f64;
    // The best other framework's NRM cell is below 1.00 only where Ansor wins.
    let nrm = (results.iter().filter(|r| r.op == "NRM"))
        .flat_map(|r| r.normalized.iter().filter(|(name, _)| name != "Ansor"))
        .fold(0.0, |best, (_, v)| f64::max(best, *v));
    let avx512 = avx512_gmm_b16.ratio;
    maybe_dump_json(
        &args,
        &Record {
            cases: results,
            avx512_gmm_b16,
        },
    );
    args.finish_telemetry(&tel);
    check_claims(&[
        Claim::at_least(cases, "19 of 20", wins, args.pick(2.0, 15.0, 15.0)),
        Claim::below("NRM, best other framework's cell", "< 1", nrm, 1.0),
        Claim::at_least("GMM b16 with AVX-512, Ansor ÷ PyTorch", "≈ 1", avx512, 1.0),
    ]);
}
