//! Analytical machine model: estimates the execution time of a lowered
//! program on a [`HardwareTarget`].
//!
//! This is the repo's substitute for compiling with LLVM/CUDA and running on
//! real hardware. The model is a classical tiled-roofline analysis: per
//! innermost statement it combines
//!
//! - peak compute throughput, derated by vectorization efficiency (lane
//!   quantization, gather/scatter penalties) and by reduction-chain ILP
//!   (dependent FMA latency vs. independent accumulators),
//! - a multi-level cache traffic model (a tile-fit analysis over the
//!   statement's [`Footprints`] table that charges each cache boundary
//!   crossing against its bandwidth),
//! - loop maintenance overhead (removed by unrolling, amortized by
//!   vectorization),
//! - multi-core parallel scaling with launch/task overheads and shared
//!   memory bandwidth, or a GPU SM/occupancy/coalescing model.
//!
//! It is deterministic: the same program always takes the same time, so it
//! can serve as the "ground truth hardware" that the learned cost model of
//! the paper approximates.

use serde::{Deserialize, Serialize};
use tensor_ir::analysis::{with_footprints, AccessType, Footprint, Footprints, StoreAnalysis};
use tensor_ir::{Annotation, Program};

use crate::target::{HardwareTarget, TargetKind};

/// Cache utilization factor: conflict misses mean only a fraction of the
/// nominal capacity is usable by a tile.
const CACHE_UTIL: f64 = 0.7;

/// Per-store cost breakdown (useful for debugging and EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreCost {
    /// Compute-bound time, seconds.
    pub compute_s: f64,
    /// L2-boundary traffic time, seconds.
    pub l2_s: f64,
    /// L3-boundary traffic time, seconds.
    pub l3_s: f64,
    /// DRAM traffic time, seconds.
    pub dram_s: f64,
    /// Loop/parallel/kernel overheads, seconds.
    pub overhead_s: f64,
    /// Final (roofline) time for this statement, seconds.
    pub total_s: f64,
    /// Parallel hardware units used.
    pub units_used: f64,
}

/// Estimates the execution time of a program in seconds.
pub fn estimate_seconds(program: &Program, target: &HardwareTarget) -> f64 {
    seconds_of_statements(&tensor_ir::analysis::analyze(program), target)
}

/// Execution time, in seconds, of the program whose analyzed statements
/// these are: the sum of their [`StoreCost::total_s`], in order.
pub fn seconds_of_statements(stores: &[StoreAnalysis], target: &HardwareTarget) -> f64 {
    stores
        .iter()
        .map(|s| store_cost(s, target).total_s)
        .sum::<f64>()
        + 1e-7
}

/// The cost breakdown of each analyzed statement.
pub fn cost_of_statements(stores: &[StoreAnalysis], target: &HardwareTarget) -> Vec<StoreCost> {
    stores.iter().map(|s| store_cost(s, target)).collect()
}

/// One statement's cost, priced from its footprints in the thread's
/// reused table.
fn store_cost(s: &StoreAnalysis, t: &HardwareTarget) -> StoreCost {
    with_footprints(|table| {
        table.fill(s, t.line_elems());
        match t.kind {
            TargetKind::Cpu => cpu_store_cost(s, t, table),
            TargetKind::Gpu => gpu_store_cost(s, t, table),
        }
    })
}

/// Human-readable cost breakdown: one line per innermost statement with
/// its bound (compute / L2 / L3 / DRAM), useful for understanding why a
/// schedule is slow.
pub fn explain(program: &Program, target: &HardwareTarget) -> String {
    use std::fmt::Write as _;
    let analyses = tensor_ir::analysis::analyze(program);
    let costs = cost_of_statements(&analyses, target);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>10} {:>8} {:<8}",
        "statement", "time", "units", "bound", ""
    );
    for (c, a) in costs.iter().zip(&analyses) {
        let name = &program.dag.nodes[a.buffer].name;
        let bound = [
            ("compute", c.compute_s),
            ("L2", c.l2_s),
            ("L3", c.l3_s),
            ("DRAM", c.dram_s),
        ]
        .into_iter()
        .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
        .map(|(n, _)| n)
        .unwrap_or("compute");
        let _ = writeln!(
            out,
            "{:<12} {:>9.3} us {:>10.0} {:>8} {}",
            name,
            c.total_s * 1e6,
            c.units_used,
            bound,
            if a.reduce.is_some() { "(reduce)" } else { "" }
        );
    }
    let total: f64 = costs.iter().map(|c| c.total_s).sum();
    let _ = writeln!(out, "total: {:.3} us", total * 1e6);
    out
}

/// Bytes crossing the boundary below a cache of `cap_bytes` over the
/// statement's execution: the outermost sub-nest whose accesses' lines fit
/// in the usable capacity stays resident, and each re-entry of it with a
/// changed region refetches that region. No cache: every access's whole
/// footprint.
fn crossing(fp: &Footprints, s: &StoreAnalysis, cap_bytes: i64, line: f64) -> f64 {
    let resident = if cap_bytes <= 0 {
        0
    } else {
        fit(fp, s, cap_bytes as f64 * CACHE_UTIL, line)
    };
    s.accesses
        .iter()
        .enumerate()
        .map(|(k, a)| {
            let Footprint { lines, outer, .. } = fp.at(k, resident);
            let write_factor = match a.access {
                AccessType::Read => 1.0,
                AccessType::Write => 1.0,
                AccessType::ReadWrite => 2.0, // read + write back
            };
            (outer * lines * line * write_factor)
                .min(2.0 * a.buffer_elems as f64 * 4.0 * outer.sqrt())
        })
        .sum()
}

/// The outermost level from which every inner sub-nest's footprint fits in
/// `cap` bytes (the innermost statement always fits).
fn fit(fp: &Footprints, s: &StoreAnalysis, cap: f64, line: f64) -> usize {
    let mut fit = s.loops.len();
    for lvl in (0..=s.loops.len()).rev() {
        let bytes: f64 = (0..s.accesses.len())
            .map(|k| fp.at(k, lvl).lines * line)
            .sum();
        if bytes <= cap {
            fit = lvl;
        } else {
            break;
        }
    }
    fit
}

fn cpu_store_cost(s: &StoreAnalysis, t: &HardwareTarget, fp: &Footprints) -> StoreCost {
    let trips = s.trip_count();
    let flops = s.flops_per_iter() * trips;

    // ---- Vectorization ----
    let (vec_speedup, vec_level) = vector_speedup(s, t);

    // ---- Reduction ILP ----
    let red_factor = if s.reduce.is_some() {
        let indep = s.independent_accumulators();
        (indep / t.fma_latency).min(1.0).max(1.0 / t.fma_latency)
    } else {
        1.0
    };

    // Loads per iteration that hit L1 still cost issue slots; add a small
    // per-access cost so pure load-bound element-wise ops are not free.
    let access_cycles_per_iter =
        s.accesses.iter().map(|a| a.count as f64).sum::<f64>() * 0.5 / vec_speedup.max(1.0);
    // Select guards folded by unrolling eliminate dead work (T2D's zero
    // multiplications).
    let fold = s.guard_fold_factor();
    let flop_cycles = flops * fold / (t.flops_per_cycle * vec_speedup * red_factor);
    let issue_cycles = access_cycles_per_iter * trips * fold;
    let compute_cycles = flop_cycles.max(issue_cycles);

    // ---- Loop overhead ----
    let overhead_cycles = loop_overhead_cycles(s, t, vec_level, fp);

    // ---- Memory traffic ----
    let (l2_bytes, l3_bytes, dram_bytes) = memory_traffic(s, t, fp);

    // ---- Parallel scaling ----
    let preq = s.parallel_extent() as f64;
    let units = preq.min(t.num_cores as f64).max(1.0);
    // Load balance: quantization of parallel chunks over cores.
    let balance = if preq > 1.0 {
        preq / ((preq / units).ceil() * units)
    } else {
        1.0
    };
    // Task overhead is charged per work chunk; runtimes chunk large
    // parallel loops, so the count saturates independent of core count.
    let par_overhead = if preq > 1.0 {
        t.parallel_launch_s + preq.min(64.0) * t.parallel_task_s
    } else {
        0.0
    };

    let core_hz = t.freq_ghz * 1e9;
    let compute_s = (compute_cycles + overhead_cycles) / core_hz / (units * balance);
    let l2_s = l2_bytes / (t.l2_bw_gbs * 1e9) / (units * balance);
    let l3_s = if t.l3_bw_gbs > 0.0 {
        l3_bytes / (t.l3_bw_gbs * 1e9)
    } else {
        0.0
    };
    let dram_s = dram_bytes / (t.mem_bw_gbs * 1e9);
    let total_s = compute_s.max(l2_s).max(l3_s).max(dram_s) + par_overhead;
    StoreCost {
        compute_s,
        l2_s,
        l3_s,
        dram_s,
        overhead_s: par_overhead,
        total_s,
        units_used: units,
    }
}

/// Vector speedup of the statement and the vectorized loop level (if any).
fn vector_speedup(s: &StoreAnalysis, t: &HardwareTarget) -> (f64, Option<usize>) {
    let Some((lvl, extent)) = s.vectorized_level() else {
        return (1.0, None);
    };
    let lanes = t.vector_lanes as f64;
    let e = extent as f64;
    // Lane quantization: an extent of 12 on 8 lanes needs 2 vector ops, so
    // the speedup over 12 scalar ops is 6; extents below the lane count
    // still finish in one (partially masked) op.
    let mut speedup = e / (e / lanes).ceil();
    // Access patterns relative to the vectorized loop.
    for a in &s.accesses {
        let stride = a.strides[lvl].abs();
        match a.access {
            AccessType::Read => {
                if stride > 1 {
                    // Gather.
                    speedup *= 0.35;
                }
            }
            AccessType::Write | AccessType::ReadWrite => {
                if stride > 1 {
                    // Scatter: mostly defeats vectorization.
                    speedup *= 0.2;
                }
            }
        }
    }
    (speedup.max(1.0), Some(lvl))
}

/// Total loop-maintenance cycles for the statement's nest.
fn loop_overhead_cycles(
    s: &StoreAnalysis,
    t: &HardwareTarget,
    vec_level: Option<usize>,
    fp: &Footprints,
) -> f64 {
    let mut cycles = 0.0;
    // Body size below each level, for pragma-driven implicit unrolling.
    let mut unrolled_body = 1.0;
    for (i, l) in s.loops.iter().enumerate().rev() {
        if matches!(vec_level, Some(v) if i > v) {
            // Loops inside the vectorized loop do not exist at runtime
            // (they would have been unrolled into the vector body).
            continue;
        }
        unrolled_body *= l.extent as f64;
        let implicit_unroll = s.pragma_unroll > 0 && unrolled_body <= s.pragma_unroll as f64;
        if l.ann == Annotation::Unroll || implicit_unroll {
            continue; // no maintenance cost; body replicated
        }
        if Some(i) == vec_level {
            // One maintenance op per vector, not per element.
            continue;
        }
        cycles += fp.iterations(i) * t.loop_overhead_cycles;
    }
    // Excessive unrolling blows up the instruction cache.
    if s.extent_product(Annotation::Unroll) * s.flops_per_iter() > 4096.0 {
        cycles += s.trip_count() * 0.5; // icache / decode pressure
    }
    cycles
}

/// Footprint-based traffic estimate: bytes crossing the L1, L2 and L3
/// boundaries over the whole statement execution.
fn memory_traffic(s: &StoreAnalysis, t: &HardwareTarget, fp: &Footprints) -> (f64, f64, f64) {
    let l2 = crossing(fp, s, t.l1_bytes, t.line_bytes as f64);
    let (l3, dram) = outer_traffic(s, t, fp);
    (l2, l3, dram)
}

/// The bytes of [`memory_traffic`] past L1: crossing the L2 boundary, and
/// reaching DRAM (the same bytes when there is no L3).
fn outer_traffic(s: &StoreAnalysis, t: &HardwareTarget, fp: &Footprints) -> (f64, f64) {
    let line = t.line_bytes as f64;
    let l3 = crossing(fp, s, t.l2_bytes, line);
    let dram = if t.l3_bytes > 0 {
        crossing(fp, s, t.l3_bytes, line)
    } else {
        l3
    };
    (l3, dram)
}

fn gpu_store_cost(s: &StoreAnalysis, t: &HardwareTarget, fp: &Footprints) -> StoreCost {
    let trips = s.trip_count();
    let flops = s.flops_per_iter() * trips;
    let blocks = s.extent_product(Annotation::BindBlock);
    let threads = s.extent_product(Annotation::BindThread);
    let total_threads = blocks * threads;
    // Warp quantization.
    let warp = 32.0;
    let warp_eff = if threads > 0.0 {
        threads / ((threads / warp).ceil() * warp)
    } else {
        1.0 / warp
    };
    // Occupancy over the whole device.
    let sms = t.num_cores as f64;
    let occupancy = (total_threads / (sms * t.max_threads_per_sm as f64 * 0.25))
        .min(1.0)
        .max(1.0 / (sms * warp));
    // Coalescing: stride of each access w.r.t. the innermost thread-bound
    // loop (threadIdx.x in CUDA terms).
    let tx = s
        .loops
        .iter()
        .rposition(|l| l.ann == Annotation::BindThread);
    let mut coalesce = 1.0f64;
    if let Some(tx) = tx {
        for a in &s.accesses {
            let stride = a.strides[tx].abs();
            if stride > 1 {
                coalesce = coalesce.min(1.0 / (stride.min(32) as f64).sqrt());
            }
        }
    } else {
        coalesce = 1.0 / 8.0;
    }
    // Reduction ILP matters on GPU too (each thread runs its own chain).
    let red_factor = if s.reduce.is_some() {
        (s.independent_accumulators() / t.fma_latency)
            .min(1.0)
            .max(1.0 / t.fma_latency)
    } else {
        1.0
    };
    let peak = t.core_flops() * sms;
    let compute_s = flops * s.guard_fold_factor() / (peak * occupancy * warp_eff * red_factor);
    // Memory: L2-fit model over the per-block sub-nest (the L1 boundary is
    // not priced).
    let (l3_bytes, dram_bytes) = outer_traffic(s, t, fp);
    let l2_s = l3_bytes / (t.l2_bw_gbs * 1e9);
    let dram_s = dram_bytes / (t.mem_bw_gbs * 1e9) / coalesce;
    let overhead = t.kernel_launch_s;
    let total_s = compute_s.max(l2_s).max(dram_s) + overhead;
    StoreCost {
        compute_s,
        l2_s,
        l3_s: 0.0,
        dram_s,
        overhead_s: overhead,
        total_s,
        units_used: (total_threads / warp).min(sms * t.max_threads_per_sm as f64 / warp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tensor_ir::{lower, DagBuilder, Expr, Reducer, State, Step};

    fn matmul_dag(n: i64) -> Arc<tensor_ir::ComputeDag> {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[n, n]);
        let w = b.constant("B", &[n, n]);
        b.compute_reduce("C", &[n, n], &[n], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        Arc::new(b.build().unwrap())
    }

    fn naive_time(n: i64, t: &HardwareTarget) -> f64 {
        let st = State::new(matmul_dag(n));
        estimate_seconds(&lower(&st).unwrap(), t)
    }

    #[test]
    fn bigger_problems_take_longer() {
        let t = HardwareTarget::intel_20core();
        assert!(naive_time(256, &t) < naive_time(512, &t));
        assert!(naive_time(512, &t) < naive_time(1024, &t));
    }

    fn scheduled_matmul_time(steps: &[Step], t: &HardwareTarget) -> f64 {
        let st = State::replay(matmul_dag(512), steps).unwrap();
        estimate_seconds(&lower(&st).unwrap(), t)
    }

    #[test]
    fn parallel_beats_serial() {
        let t = HardwareTarget::intel_20core();
        let serial = scheduled_matmul_time(&[], &t);
        let parallel = scheduled_matmul_time(
            &[Step::Annotate {
                node: "C".into(),
                iter: "i".into(),
                ann: Annotation::Parallel,
            }],
            &t,
        );
        assert!(
            parallel < serial,
            "parallel {parallel} should beat serial {serial}"
        );
    }

    #[test]
    fn vectorize_beats_scalar() {
        let t = HardwareTarget::intel_20core();
        let scalar = scheduled_matmul_time(&[], &t);
        // Vectorizing j (stride-1 for B and C) should speed things up.
        let vectorized = scheduled_matmul_time(
            &[
                Step::Split {
                    node: "C".into(),
                    iter: "j".into(),
                    lengths: vec![8],
                },
                Step::Reorder {
                    node: "C".into(),
                    order: vec!["i".into(), "j.0".into(), "k".into(), "j.1".into()],
                },
                Step::Annotate {
                    node: "C".into(),
                    iter: "j.1".into(),
                    ann: Annotation::Vectorize,
                },
            ],
            &t,
        );
        assert!(
            vectorized < scalar,
            "vectorized {vectorized} should beat scalar {scalar}"
        );
    }

    /// (L2-boundary seconds, all memory seconds) of an `n`³ matmul.
    fn memory_seconds(n: i64, steps: &[Step], t: &HardwareTarget) -> (f64, f64) {
        let st = State::replay(matmul_dag(n), steps).unwrap();
        let costs = cost_of_statements(&tensor_ir::analysis::analyze_state(&st).unwrap(), t);
        let l2 = costs.iter().map(|c| c.l2_s).sum();
        (l2, costs.iter().map(|c| c.l2_s + c.l3_s + c.dram_s).sum())
    }

    /// Tiles i, j and k by `tile` and reorders so that a tile of C is
    /// computed with k.0 outside.
    fn tiled_matmul_steps(tile: i64) -> Vec<Step> {
        let mut steps: Vec<Step> = ["i", "j", "k"]
            .into_iter()
            .map(|iter| Step::Split {
                node: "C".into(),
                iter: iter.into(),
                lengths: vec![tile],
            })
            .collect();
        steps.push(Step::Reorder {
            node: "C".into(),
            order: ["i.0", "j.0", "k.0", "i.1", "k.1", "j.1"]
                .into_iter()
                .map(Into::into)
                .collect(),
        });
        steps
    }

    #[test]
    fn tiling_reduces_memory_time() {
        // A 512³ matmul on the 20-core machine, and a 64³ one on a machine
        // with a 4 KiB L1 and a 64 KiB L2. In both, tiling must cut the
        // memory time and the traffic sent into L2.
        let small_caches = HardwareTarget {
            l1_bytes: 4 * 1024,
            l2_bytes: 64 * 1024,
            ..HardwareTarget::intel_20core()
        };
        for (n, tile, t) in [
            (512, 32, HardwareTarget::intel_20core()),
            (64, 16, small_caches),
        ] {
            let (tiled_l2, tiled) = memory_seconds(n, &tiled_matmul_steps(tile), &t);
            let (naive_l2, naive) = memory_seconds(n, &[], &t);
            assert!(
                tiled < naive,
                "{n}³: tiled {tiled} should beat naive {naive}"
            );
            assert!(
                tiled_l2 < naive_l2,
                "{n}³: tiled L2 {tiled_l2} should beat naive {naive_l2}"
            );
        }
    }

    #[test]
    fn full_optimization_approaches_plausible_throughput() {
        // SSRSRS-style schedule: parallel outer, vectorized inner, unrolled
        // accumulators. The model should land in a plausible GFLOP/s band
        // (not slower than 5% of peak, not faster than peak).
        let t = HardwareTarget::intel_20core();
        let steps = vec![
            Step::Split {
                node: "C".into(),
                iter: "i".into(),
                lengths: vec![4, 8, 4],
            },
            Step::Split {
                node: "C".into(),
                iter: "j".into(),
                lengths: vec![2, 4, 16],
            },
            Step::Split {
                node: "C".into(),
                iter: "k".into(),
                lengths: vec![16],
            },
            Step::Reorder {
                node: "C".into(),
                order: vec![
                    "i.0".into(),
                    "j.0".into(),
                    "i.1".into(),
                    "j.1".into(),
                    "k.0".into(),
                    "i.2".into(),
                    "j.2".into(),
                    "k.1".into(),
                    "i.3".into(),
                    "j.3".into(),
                ],
            },
            Step::Fuse {
                node: "C".into(),
                iters: vec!["i.0".into(), "j.0".into(), "i.1".into(), "j.1".into()],
            },
            Step::Annotate {
                node: "C".into(),
                iter: "i.0@j.0@i.1@j.1".into(),
                ann: Annotation::Parallel,
            },
            Step::Annotate {
                node: "C".into(),
                iter: "i.3".into(),
                ann: Annotation::Unroll,
            },
            Step::Annotate {
                node: "C".into(),
                iter: "j.3".into(),
                ann: Annotation::Vectorize,
            },
        ];
        let st = State::replay(matmul_dag(512), &steps).unwrap();
        let prog = lower(&st).unwrap();
        let g = prog.flop_count() / estimate_seconds(&prog, &t) / 1e9;
        let peak = t.core_vector_flops() * t.num_cores as f64 / 1e9;
        assert!(g > 0.05 * peak, "gflops {g} vs peak {peak}");
        assert!(g <= peak, "gflops {g} vs peak {peak}");
        // And it must beat the naive program by a wide margin.
        let naive = naive_time(512, &t);
        let opt = estimate_seconds(&prog, &t);
        assert!(opt * 20.0 < naive, "opt {opt} naive {naive}");
    }

    #[test]
    fn explain_names_the_bound() {
        let t = HardwareTarget::intel_20core();
        let st = State::new(matmul_dag(256));
        let prog = lower(&st).unwrap();
        let text = explain(&prog, &t);
        assert!(text.contains("C"), "{text}");
        assert!(text.contains("total:"), "{text}");
        assert!(
            text.contains("compute") || text.contains("DRAM") || text.contains("L2"),
            "{text}"
        );
    }

    #[test]
    fn arm_is_slower_than_intel() {
        let intel = naive_time(256, &HardwareTarget::intel_20core());
        let arm = naive_time(256, &HardwareTarget::arm_4core());
        assert!(arm > intel);
    }

    #[test]
    fn gpu_needs_thread_bindings() {
        let t = HardwareTarget::nvidia_v100();
        let unbound = scheduled_matmul_time(&[], &t);
        let bound = scheduled_matmul_time(
            &[
                Step::Split {
                    node: "C".into(),
                    iter: "i".into(),
                    lengths: vec![16],
                },
                Step::Split {
                    node: "C".into(),
                    iter: "j".into(),
                    lengths: vec![64],
                },
                Step::Reorder {
                    node: "C".into(),
                    order: vec![
                        "i.0".into(),
                        "j.0".into(),
                        "i.1".into(),
                        "j.1".into(),
                        "k".into(),
                    ],
                },
                Step::Annotate {
                    node: "C".into(),
                    iter: "i.0".into(),
                    ann: Annotation::BindBlock,
                },
                Step::Annotate {
                    node: "C".into(),
                    iter: "j.1".into(),
                    ann: Annotation::BindThread,
                },
            ],
            &t,
        );
        assert!(bound < unbound, "bound {bound} vs unbound {unbound}");
    }
}
