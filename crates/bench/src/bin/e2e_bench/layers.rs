//! The traced run (`--trace 1`): the per-layer table.
//!
//! Untraced and traced passes alternate (the traced ones record spans and
//! must reproduce the untraced results bit for bit), then the layer probes
//! run on inputs harvested from the workload's probe job. A layer's
//! numbers come from the workload's own spans where the workload calls
//! into that layer, and from a probe where it does not — so every row is
//! measured in every run (README.md lists which is which).

use std::path::Path;
use std::time::Instant;

use ansor_core::{PolicyVariant, TuningSession};
use telemetry::{SharedBuf, Telemetry};

use crate::checks::Ops;
use crate::clock::{cpu_ns, ncpu_s, Calibrator};
use crate::metrics::{Values, PER_LAYER};
use crate::probes::{Harvest, Prober};
use crate::run::{
    check_calibration, check_outcome, compare_pass, describe, one_pass, unit_iqr_share_max,
    unit_ratios, Pass, Report, RunConfig,
};
use crate::serve::{
    check_concurrent, check_same_operator_pair, run_serve, scratch_dir, ServeUnits, ServeWall,
};
use crate::spans::{self, self_times, Span, Tracer};
use crate::stats::{iqr_share, median, quantile};
use crate::timed_model::{PREDICT, PREDICT_PER_NODE, PREDICT_POPULATION, PREDICT_REFS, UPDATE};
use crate::workloads::{
    cache_pairs, job_task, session_parts, JobDef, PassOutcome, Plan, Recorder, Runner, Scale,
    Seeds, ROUND_TRIALS,
};

/// Span name of one tuning round driven by the benchmark.
const TUNE_ROUND: &str = "SketchPolicy::tune_round";
/// Trial budget of the traced probe.
const SHORT_TRIALS: usize = 256;
/// Trial budget of each telemetry-overhead job.
const TELEMETRY_TRIALS: usize = 128;

/// The workload's probe job and the variant it runs under.
fn probe_job(plan: &Plan) -> (JobDef, PolicyVariant) {
    match *plan {
        Plan::Sessions { jobs, variant } => (jobs[0], variant),
        Plan::Serve { jobs } => (jobs[0], PolicyVariant::Full),
        // `T2D` shape 0 at batch 1 is the DAG of dcgan's first transposed
        // convolution (`t2d:dcgan/up1`), as a case the daemon can name.
        Plan::Network { target, .. } => (
            JobDef {
                op: "T2D",
                shape: 0,
                batch: 1,
                target,
                trials: SHORT_TRIALS,
                bar_gflops: 0.0,
            },
            PolicyVariant::Full,
        ),
    }
}

/// Shares and counts of the cost model inside tuning rounds, from spans.
fn model_span_metrics(values: &mut Values, spans: &[Span], scale: f64, passes: usize) {
    let selfs = self_times(spans);
    let (mut round_cpu, mut round_self, mut predict, mut update, mut calls) = (0, 0, 0, 0, 0u64);
    let mut rounds_ms = Vec::new();
    for (s, (_, self_cpu)) in spans.iter().zip(selfs) {
        match s.name {
            TUNE_ROUND => {
                round_cpu += s.cpu_ns;
                round_self += self_cpu;
                rounds_ms.push(s.cpu_ns as f64 * scale / 1e6);
            }
            PREDICT | PREDICT_REFS | PREDICT_PER_NODE | PREDICT_POPULATION => {
                predict += s.cpu_ns;
                calls += 1;
            }
            UPDATE => update += s.cpu_ns,
            _ => {}
        }
    }
    let share = |part: u64| part as f64 / round_cpu.max(1) as f64;
    values.set("core.cost_model.predict_share", share(predict));
    values.set("core.cost_model.update_share", share(update));
    values.set("core.search_policy.search_self_share", share(round_self));
    values.set(
        "core.cost_model.predict_calls",
        calls as f64 / passes.max(1) as f64,
    );
    values.set("core.search_policy.round_ncpu_ms_p50", median(&rounds_ms));
    values.set(
        "core.search_policy.round_ncpu_ms_max",
        quantile(&rounds_ms, 1.0),
    );
}

/// Runs the probe job for [`SHORT_TRIALS`] trials around a timed model
/// and returns its spans, the states it scored and its trials — for
/// workloads whose own passes never drive a policy from the benchmark.
fn traced_probe(def: &JobDef, seed: u64, scale: Scale) -> (Vec<Span>, u64, u64) {
    let tracer = Tracer::new();
    let mut runner = Runner::new(
        job_task(def),
        scale.trials(SHORT_TRIALS),
        seed,
        PolicyVariant::Full,
        "traced-probe".into(),
        Some(&tracer),
    );
    while runner.step() > 0 {}
    let (scored, trials) = (runner.states_scored(), runner.policy().trials());
    drop(runner);
    (tracer.spans(), scored, trials)
}

/// Time and trials to the frozen quality bars, from the untraced passes.
fn quality_metrics(values: &mut Values, outcome: &PassOutcome, ratios: &[Vec<f64>]) {
    let (mut trials, mut seconds, mut misses) = (0u64, 0.0, 0u64);
    for c in &outcome.curves {
        let budget = c.points.last().map_or(0, |p| p.0);
        match c.trials_to_bar() {
            Some(t) => trials += t,
            None => {
                trials += budget;
                misses += 1;
            }
        }
        let units = c.units_to_bar();
        seconds += ncpu_s(ratios, |u| units.contains(&u));
    }
    values.set("core.search_policy.trials_to_quality", trials as f64);
    values.set("core.search_policy.ncpu_s_to_quality", seconds);
    values.set("core.session.quality_misses", misses as f64);
}

/// `serve.*` rows from serve passes: `ratios[pass][unit]` laid out as
/// `units`, wall-clock figures in `wall`, results in `outcome`.
fn serve_metrics(
    values: &mut Values,
    ratios: &[Vec<f64>],
    units: &ServeUnits,
    wall: &ServeWall,
    outcome: &PassOutcome,
) {
    let of = |r: &std::ops::Range<usize>| ncpu_s(ratios, |u| r.contains(&u));
    let (cold, warm, reference) = (of(&units.cold), of(&units.warm), of(&units.reference));
    values.set("serve.overhead_ratio", cold / reference);
    values.set("serve.warm_over_cold_ratio", warm / cold);
    let jobs = outcome.fingerprints.len();
    let equal = outcome
        .served
        .iter()
        .enumerate()
        .filter(|(i, r)| r.log_fingerprint == outcome.fingerprints[i % jobs])
        .count();
    values.set(
        "serve.served_equals_cold",
        equal as f64 / outcome.served.len().max(1) as f64,
    );
    let passes = wall.start_ms.len().max(1) as f64;
    values.set(
        "serve.store.warm_measure_hits",
        wall.warm_measure_hits as f64 / passes,
    );
    values.set("serve.server.start_ms", median(&wall.start_ms));
    values.set("serve.server.request_us_p50", median(&wall.request_us));
    values.set(
        "serve.server.request_us_p99",
        quantile(&wall.request_us, 0.99),
    );
    values.set("serve.server.submit_us_p50", median(&wall.submit_us));
    values.set(
        "serve.server.queue_wait_ms_p50",
        median(&wall.queue_wait_ms),
    );
    values.set(
        "serve.server.jobs_per_wall_s",
        wall.jobs as f64 / wall.wave_wall_s,
    );
    values.set(
        "serve.server.job_wall_over_cpu",
        wall.job_wall_s / wall.wave_cpu_s,
    );
}

/// One small serve pass (two one-round jobs of the probe case) for
/// workloads that do not serve.
fn serve_probe(values: &mut Values, def: &JobDef, seed: u64, dir: &Path) {
    let small = JobDef {
        trials: ROUND_TRIALS,
        ..*def
    };
    let jobs = [small, small];
    let mut calib = Calibrator::default();
    let mut rec = Recorder::new(&mut calib);
    let mut wall = ServeWall::default();
    let tracer = Tracer::new();
    let (outcome, _) = run_serve(
        &jobs,
        Seeds::single(seed),
        Scale::Full,
        true,
        dir,
        &mut rec,
        Some(&tracer),
        &mut wall,
    );
    let ratios = vec![rec.units.iter().map(|u| u.ratio()).collect()];
    serve_metrics(
        values,
        &ratios,
        &ServeUnits::of(jobs.len()),
        &wall,
        &outcome,
    );
}

/// `telemetry.*`: the probe job with telemetry off, with tracing and with
/// metrics only — three alternating rounds, every job bracketed by
/// calibration samples like any unit, each overhead the ratio of two
/// medians — plus the program's own phase profile.
fn telemetry_probe(
    values: &mut Values,
    def: &JobDef,
    seed: u64,
    variant: PolicyVariant,
    scale: Scale,
) {
    const ROUNDS: usize = 3;
    let trials = scale.trials(TELEMETRY_TRIALS);
    let job = |tel: &Telemetry| {
        let (task, mut options, mut measurer) = session_parts(job_task(def), trials, seed, variant);
        options.telemetry = tel.clone();
        measurer.set_telemetry(tel.clone());
        let mut s = TuningSession::new(task, options, measurer, "telemetry-probe");
        s.run(|_| true);
        tel.flush();
    };
    let mut calib = Calibrator::default();
    let mut rec = Recorder::new(&mut calib);
    let (mut trace_bytes, mut metered) = (0, Telemetry::disabled());
    for _ in 0..ROUNDS {
        rec.unit(|| job(&Telemetry::disabled()));
        let buf = SharedBuf::new();
        rec.unit(|| job(&Telemetry::to_writer(Box::new(buf.clone()))));
        trace_bytes = buf.contents().len();
        metered = Telemetry::with_metrics();
        rec.unit(|| job(&metered));
    }
    // Units come in rounds of (off, traced, metered).
    let kind = |k: usize| -> f64 {
        median(
            &rec.units
                .iter()
                .skip(k)
                .step_by(3)
                .map(|u| u.ratio())
                .collect::<Vec<_>>(),
        )
    };
    values.set("telemetry.trace_overhead_ratio", kind(1) / kind(0));
    values.set("telemetry.metrics_overhead_ratio", kind(2) / kind(0));
    values.set(
        "telemetry.trace_bytes_per_trial",
        trace_bytes as f64 / trials as f64,
    );
    // Phase histograms are named `phase/<outer>/<inner>`; a phase's share
    // is the time under every path ending in its name over the time of the
    // job that recorded them (the last metered one).
    let snapshot = metered.snapshot().expect("a metrics handle has a registry");
    let job_s = rec.units.last().expect("ROUNDS is positive").cpu_ns as f64 / 1e9;
    for phase in [
        "evolution",
        "model_predict",
        "gbdt_train",
        "lowering",
        "measurement",
    ] {
        let seconds: f64 = snapshot
            .histograms
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(phase))
            .map(|(_, h)| h.sum)
            .sum();
        values.set(&format!("telemetry.phase_share.{phase}"), seconds / job_s);
    }
}

/// Cache hit rates of the sessions a pass ran (`cache_stats()`), or of the
/// harvest session when the workload hides its sessions.
fn hit_rates(values: &mut Values, pass: &Pass, harvest: &Harvest) {
    let mut caches = pass.counters.caches;
    if caches.iter().all(|c| c.0 + c.1 == 0) {
        caches = cache_pairs(&harvest.session.cache_stats());
    }
    for (name, (hits, misses)) in ["score", "feature", "measure"].iter().zip(caches) {
        values.set(
            &format!("core.session.{name}_hit_rate"),
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
}

/// `core.task_scheduler.*` of the network workload, whose units are the
/// scheduler's steps.
fn scheduler_metrics(values: &mut Values, ratios: &[Vec<f64>], first: &Pass) {
    let steps: Vec<f64> = (0..first.units.len())
        .map(|u| ncpu_s(ratios, |v| v == u) * 1e3)
        .collect();
    values.set("core.task_scheduler.step_ncpu_ms_p50", median(&steps));
    let allocs: u64 = first.units.iter().map(|u| u.allocs.calls).sum();
    values.set(
        "core.task_scheduler.step_allocs",
        allocs as f64 / first.units.len().max(1) as f64,
    );
    let by_task = &first.outcome.task_units;
    values.set(
        "core.task_scheduler.units_by_task_max_share",
        by_task.iter().copied().max().unwrap_or(0) as f64
            / by_task.iter().sum::<u64>().max(1) as f64,
    );
}

/// The traced run.
pub fn run_traced(cfg: &RunConfig) -> Report {
    ansor_runtime::set_threads(1);
    let started = Instant::now();
    let cpu0 = cpu_ns();
    let dir = scratch_dir();
    let mut ops = Ops::default();
    let mut values = Values::new(&PER_LAYER);
    check_calibration(&mut ops);

    // Traced runs make single-replica passes: the layer table describes one
    // trajectory in depth, the end-to-end run averages over several.
    let seeds = Seeds::single(cfg.seed);
    // Untraced and traced passes alternate, three of each (one under
    // `--quick`). The first untraced pass also warms the process, and its
    // results are the reference every other pass must equal.
    let pairs = match cfg.scale {
        Scale::Full => 3,
        Scale::Quick => 1,
    };
    let tracer = Tracer::new();
    let mut calib = Calibrator::default();
    let (mut unused_wall, mut wall) = (ServeWall::default(), ServeWall::default());
    let (mut plain, mut traced): (Vec<Pass>, Vec<Pass>) = (Vec::new(), Vec::new());
    let mut warmup_cpu_s = 0.0;
    for i in 0..pairs {
        plain.push(one_pass(
            cfg,
            seeds,
            true,
            &mut calib,
            None,
            &dir,
            &mut unused_wall,
        ));
        if i == 0 {
            warmup_cpu_s = (cpu_ns() - cpu0) as f64 / 1e9;
        }
        compare_pass(&mut ops, &plain[i].outcome, &plain[0].outcome, 2 * i);
        let t = one_pass(cfg, seeds, true, &mut calib, Some(&tracer), &dir, &mut wall);
        compare_pass(&mut ops, &t.outcome, &plain[0].outcome, 2 * i + 1);
        traced.push(t);
    }
    let spans = tracer.spans();
    let span_file = Path::new("results/e2e").join(format!("{}.spans.json", cfg.workload.name));
    let written = spans::write_json(&span_file, cfg.workload.name, cfg.seed, &spans);
    ops.check(written.is_ok(), || {
        format!("cannot write {}: {written:?}", span_file.display())
    });
    check_outcome(&mut ops, &traced[0].outcome, cfg.seed);

    // Span durations are scaled by the run's median calibration sample.
    let scale = calib.scale();
    let (r_plain, r_traced) = (unit_ratios(&plain), unit_ratios(&traced));
    let first = &plain[0];
    quality_metrics(&mut values, &first.outcome, &r_plain);

    let (probe_def, variant) = probe_job(&cfg.workload.plan);
    let probing = cpu_ns();
    let harvest = Harvest::collect(probe_def, cfg.seed, variant, cfg.scale);

    // The cost model inside tuning rounds: from the workload's own spans,
    // or from a traced probe job when the workload drives no policy itself.
    let (scored, trials) = if spans.iter().any(|s| s.name == TUNE_ROUND) {
        model_span_metrics(&mut values, &spans, scale, traced.len());
        let c = &traced[0].counters;
        (c.states_scored, c.trials)
    } else {
        let (probe_spans, scored, trials) = traced_probe(&probe_def, cfg.seed, cfg.scale);
        model_span_metrics(&mut values, &probe_spans, scale, 1);
        (scored, trials)
    };
    values.set(
        "core.cost_model.states_scored_per_trial",
        scored as f64 / trials.max(1) as f64,
    );
    hit_rates(&mut values, first, &harvest);

    match cfg.workload.plan {
        Plan::Serve { jobs } => serve_metrics(
            &mut values,
            &r_plain,
            &ServeUnits::of(jobs.len()),
            &wall,
            &first.outcome,
        ),
        _ => serve_probe(&mut values, &probe_def, cfg.seed, &dir),
    }
    if let Plan::Serve { jobs } = cfg.workload.plan {
        check_concurrent(&mut ops, jobs, seeds, cfg.scale, &dir);
    }
    values.set(
        "serve.same_operator_equals_cold",
        check_same_operator_pair(&mut ops, cfg.seed, &dir),
    );
    telemetry_probe(&mut values, &probe_def, cfg.seed, variant, cfg.scale);

    let network = matches!(cfg.workload.plan, Plan::Network { .. });
    if network {
        scheduler_metrics(&mut values, &r_plain, first);
    }
    let mut prober = Prober::new(&mut values);
    prober.tensor_ir(&harvest);
    prober.features(&harvest);
    prober.gbdt(&harvest);
    prober.hwsim(&harvest);
    prober.sampler(&harvest);
    prober.evolution(&harvest);
    prober.cost_model(&harvest);
    prober.session(&harvest, variant);
    prober.serve_data(&harvest, &dir);
    if !network {
        prober.scheduler(&harvest);
    }
    prober.finish();
    let _ = std::fs::remove_dir_all(&dir);

    values.set("harness.calib_ms_p50", calib.median_ns() / 1e6);
    values.set("harness.calib_iqr_share", iqr_share(calib.samples()));
    values.set("harness.unit_iqr_share_max", unit_iqr_share_max(&r_plain));
    values.set("harness.passes", plain.len() as f64);
    values.set("harness.traced_passes", traced.len() as f64);
    values.set(
        "harness.span_overhead_ratio",
        ncpu_s(&r_traced, |_| true) / ncpu_s(&r_plain, |_| true),
    );
    values.set("harness.spans", spans.len() as f64);
    values.set("harness.warmup_cpu_s", warmup_cpu_s);
    values.set("harness.probe_cpu_s", (cpu_ns() - probing) as f64 / 1e9);
    values.set("harness.raw_cpu_s", (cpu_ns() - cpu0) as f64 / 1e9);
    values.set("harness.wall_s", started.elapsed().as_secs_f64());

    let mut lines = vec![format!(
        "{} seed {} {:?} traced: {} untraced + {} traced passes, {} spans written to {}",
        cfg.workload.name,
        cfg.seed,
        cfg.scale,
        plain.len(),
        traced.len(),
        spans.len(),
        span_file.display()
    )];
    lines.extend(describe(&first.outcome));
    Report { values, ops, lines }
}
