//! **Figure 8**: subgraph benchmark — "ConvLayer" (conv2d + batch norm +
//! ReLU) and "TBG" (transpose + batch matmul, the multi-head attention
//! pattern) on the Intel CPU ("@C") and the NVIDIA-V100-like GPU ("@G"),
//! batch sizes 1 and 16, four shape configurations each.
//!
//! Matches §7.2's framework set: Halide's beam search is CPU-only (its GPU
//! support was experimental), FlexTensor cannot fuse the batch-norm/ReLU
//! chain into the convolution, and the vendor stand-in plays the
//! MKL-DNN/CuDNN role.
//!
//! Run: `cargo run -p ansor-bench --release --bin fig8_subgraph`

use ansor_baselines::{search_frameworks, vendor::vendor_seconds, SearchFramework};
use ansor_bench::{
    check_claims, geomean, maybe_dump_json, normalize_to_best, print_table, Args, Claim, Scale,
};
use ansor_core::SearchTask;
use ansor_workloads::subgraphs::{conv_layer, tbg};
use hwsim::{HardwareTarget, TargetKind};
use serde::Serialize;
use std::sync::Arc;
use tensor_ir::ComputeDag;

#[derive(Serialize)]
struct CaseResult {
    subgraph: String,
    target: String,
    batch: i64,
    normalized: Vec<(String, f64)>,
}

fn conv_layer_shapes(batch: i64, shape: usize) -> Arc<ComputeDag> {
    match shape {
        0 => conv_layer(batch, 64, 64, 56, 3, 1, 1),
        1 => conv_layer(batch, 128, 128, 28, 3, 1, 1),
        2 => conv_layer(batch, 256, 256, 14, 3, 1, 1),
        _ => conv_layer(batch, 512, 512, 7, 3, 1, 1),
    }
}

fn tbg_shapes(batch: i64, shape: usize) -> Arc<ComputeDag> {
    // (heads × batch, seq, per-head dim) from common attention configs.
    match shape {
        0 => tbg(batch * 12, 128, 64),
        1 => tbg(batch * 16, 128, 64),
        2 => tbg(batch * 12, 384, 64),
        _ => tbg(batch * 8, 512, 64),
    }
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
    let cpu = HardwareTarget::intel_20core();
    let gpu = HardwareTarget::nvidia_v100();
    let frameworks = search_frameworks();

    let mut results = Vec::new();
    for &batch in &[1i64, 16] {
        for (sub, build) in [
            (
                "ConvLayer",
                conv_layer_shapes as fn(i64, usize) -> Arc<ComputeDag>,
            ),
            ("TBG", tbg_shapes as fn(i64, usize) -> Arc<ComputeDag>),
        ] {
            for target in [&cpu, &gpu] {
                let is_gpu = target.kind == TargetKind::Gpu;
                let mut names: Vec<String> = vec!["Vendor".into()];
                let active: Vec<&Box<dyn SearchFramework>> = frameworks
                    .iter()
                    .filter(|f| !(is_gpu && f.name() == "Halide"))
                    .collect();
                names.extend(active.iter().map(|f| f.name().to_string()));
                let mut tput: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
                for &shape in &shapes {
                    let dag = build(batch, shape);
                    let flops = dag.flop_count();
                    let task =
                        SearchTask::new(format!("{sub}:s{shape}b{batch}"), dag, target.clone());
                    // The vendor library runs on the same device; on the
                    // CPU it gets the AVX-512 variant (§7.1 asymmetry).
                    let vendor_target = if is_gpu {
                        gpu.clone()
                    } else {
                        HardwareTarget::intel_20core_avx512()
                    };
                    tput[0].push(flops / vendor_seconds(&task, &vendor_target) / 1e9);
                    for (fi, fw) in active.iter().enumerate() {
                        let r = fw.tune_traced(&task, trials, 77 + shape as u64, &tel);
                        tput[fi + 1].push(flops / r.best_seconds / 1e9);
                        eprintln!(
                            "  {sub}@{} s{shape} b{batch} {}: {:.1} GFLOP/s",
                            if is_gpu { "G" } else { "C" },
                            fw.name(),
                            flops / r.best_seconds / 1e9
                        );
                    }
                }
                let geo: Vec<f64> = tput.iter().map(|t| geomean(t)).collect();
                let norm = normalize_to_best(&geo);
                results.push(CaseResult {
                    subgraph: sub.to_string(),
                    target: if is_gpu { "G".into() } else { "C".into() },
                    batch,
                    normalized: names.into_iter().zip(norm).collect(),
                });
            }
        }
    }

    if args.tables_enabled() {
        let mut headers = vec!["case", "Vendor"];
        headers.extend(frameworks.iter().map(|f| f.name()));
        for &batch in &[1i64, 16] {
            let rows: Vec<Vec<String>> = results
                .iter()
                .filter(|r| r.batch == batch)
                .map(|r| {
                    let mut row = vec![format!("{} @{}", r.subgraph, r.target)];
                    // A framework that does not run on the target (Halide
                    // on the GPU) reads "—".
                    row.extend(headers[1..].iter().map(|h| {
                        r.normalized
                            .iter()
                            .find(|(name, _)| name == h)
                            .map_or("—".into(), |(_, v)| format!("{v:.2}"))
                    }));
                    row
                })
                .collect();
            print_table(
                &format!("Figure 8: subgraph benchmark, batch = {batch} (normalized, 1.00 = best)"),
                &headers,
                &rows,
            );
        }
    }
    let cell = |r: &CaseResult, name: &str| {
        let cell = r.normalized.iter().find(|c| c.0 == name);
        cell.expect("the framework ran").1
    };
    let wins = results.iter().filter(|r| cell(r, "Ansor") >= 0.999).count() as f64;
    let cases = format!(
        "cases of {} where Ansor is best or tied (within 0.1 %; Known deviation 4)",
        results.len()
    );
    // Per batch the cases run ConvLayer @C, @G, TBG @C, @G. FlexTensor
    // cannot fuse ConvLayer's batch norm and ReLU: its ConvLayer ÷ TBG @G.
    let flextensor = |r: &CaseResult| cell(r, "FlexTensor");
    let fusion = (results.chunks(4))
        .map(|b| flextensor(&b[1]) / flextensor(&b[3]))
        .fold(0.0, f64::max);
    let (floor, cap) = args.pick((2.0, 1.13), (7.0, 1.0), (7.0, 1.0));
    maybe_dump_json(&args, &results);
    args.finish_telemetry(&tel);
    check_claims(&[
        Claim::at_least(cases, "8 of 8", wins, floor),
        Claim::below("FlexTensor ConvLayer ÷ TBG, @G", "< 1", fusion, cap),
    ]);
}
