//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` mirrors them (a test keeps the two equal).

use std::collections::BTreeMap;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen (0.0 for layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: printed by every workload with `--trace 0`. One
/// bound covers a metric on every workload: about three times the spread
/// the metric shows across seeds on its noisiest workload, and above the
/// largest spread any ten seeds out of a 240-seed survey of the jobs give
/// (README.md, "End-to-end metrics"; `results/e2e/AA.json`).
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("trials_per_ncpu_s", "1/s", Higher, 0.22),
    e2e("mean_best_gflops", "GFLOP/s", Higher, 0.22),
    e2e("best_gflops_geomean", "GFLOP/s", Higher, 0.18),
    e2e("allocs_per_trial", "count", Lower, 0.18),
    e2e("alloc_kb_per_trial", "KB", Lower, 0.15),
    e2e("peak_alloc_mb", "MB", Lower, 0.20),
];

/// Layer metrics: printed by every workload with `--trace 1`. The prefix
/// up to the last dot-separated module name is the layer.
pub const PER_LAYER: [MetricDef; 91] = [
    layer("tensor_ir.replay_us", "us", Lower),
    layer("tensor_ir.clone_ns", "ns", Lower),
    layer("tensor_ir.signature_ns", "ns", Lower),
    layer("tensor_ir.lower_us", "us", Lower),
    layer("tensor_ir.replay_allocs", "count", Lower),
    layer("tensor_ir.clone_allocs", "count", Lower),
    layer("tensor_ir.signature_allocs", "count", Lower),
    layer("tensor_ir.lower_allocs", "count", Lower),
    layer("tensor_ir.stores_per_program", "count", Lower),
    layer("features.extract_us", "us", Lower),
    layer("features.extract_allocs", "count", Lower),
    layer("features.rows_per_program", "count", Lower),
    layer("gbdt.train_ms_1k", "ms", Lower),
    layer("gbdt.predict_ns_per_row", "ns", Lower),
    layer("gbdt.trees", "count", Lower),
    layer("gbdt.train_allocs", "count", Lower),
    layer("hwsim.measure_us", "us", Lower),
    layer("hwsim.measure_cached_us", "us", Lower),
    layer("hwsim.measure_allocs", "count", Lower),
    layer("hwsim.valid_share", "share", Higher),
    layer("core.sketch.generate_us", "us", Lower),
    layer("core.sketch.sketches_per_task", "count", Lower),
    layer("core.annotate.sample_us", "us", Lower),
    layer("core.annotate.sample_allocs", "count", Lower),
    layer("core.annotate.valid_share", "share", Higher),
    layer("core.evolution.offspring_us", "us", Lower),
    layer("core.evolution.offspring_allocs", "count", Lower),
    layer("core.evolution.unique_share", "share", Higher),
    layer("core.cost_model.predict_us_cold", "us", Lower),
    layer("core.cost_model.predict_us_hot", "us", Lower),
    layer("core.cost_model.update_ms_at_1k", "ms", Lower),
    layer("core.cost_model.predict_share", "share", Lower),
    layer("core.cost_model.update_share", "share", Lower),
    layer("core.cost_model.predict_calls", "count", Lower),
    layer("core.cost_model.states_scored_per_trial", "count", Lower),
    layer("core.search_policy.round_ncpu_ms_p50", "ms", Lower),
    layer("core.search_policy.round_ncpu_ms_max", "ms", Lower),
    layer("core.search_policy.search_self_share", "share", Lower),
    layer("core.search_policy.new_us", "us", Lower),
    layer("core.search_policy.trials_to_quality", "count", Lower),
    layer("core.search_policy.ncpu_s_to_quality", "s", Lower),
    layer("core.task_scheduler.step_ncpu_ms_p50", "ms", Lower),
    layer("core.task_scheduler.step_allocs", "count", Lower),
    layer(
        "core.task_scheduler.units_by_task_max_share",
        "share",
        Lower,
    ),
    layer("core.session.score_hit_rate", "share", Higher),
    layer("core.session.feature_hit_rate", "share", Higher),
    layer("core.session.measure_hit_rate", "share", Higher),
    layer("core.session.checkpoint_ms", "ms", Lower),
    layer("core.session.restore_ms", "ms", Lower),
    layer("core.session.quality_misses", "count", Lower),
    layer("core.session.probe_trials_per_ncpu_s", "1/s", Higher),
    layer("core.session.probe_allocs_per_trial", "count", Lower),
    layer("core.session.probe_best_gflops", "GFLOP/s", Higher),
    layer("serve.proto.encode_result_us", "us", Lower),
    layer("serve.proto.decode_result_us", "us", Lower),
    layer("serve.proto.result_bytes", "count", Lower),
    layer("serve.store.absorb_ms", "ms", Lower),
    layer("serve.store.save_ms", "ms", Lower),
    layer("serve.store.open_ms", "ms", Lower),
    layer("serve.store.file_kb", "KB", Lower),
    layer("serve.store.warm_measure_hits", "count", Higher),
    layer("serve.server.start_ms", "ms", Lower),
    layer("serve.server.request_us_p50", "us", Lower),
    layer("serve.server.request_us_p99", "us", Lower),
    layer("serve.server.submit_us_p50", "us", Lower),
    layer("serve.server.queue_wait_ms_p50", "ms", Lower),
    layer("serve.server.jobs_per_wall_s", "1/s", Higher),
    layer("serve.server.job_wall_over_cpu", "ratio", Lower),
    layer("serve.overhead_ratio", "ratio", Lower),
    layer("serve.warm_over_cold_ratio", "ratio", Lower),
    layer("serve.served_equals_cold", "share", Higher),
    layer("serve.same_operator_equals_cold", "share", Higher),
    layer("telemetry.trace_overhead_ratio", "ratio", Lower),
    layer("telemetry.metrics_overhead_ratio", "ratio", Lower),
    layer("telemetry.trace_bytes_per_trial", "count", Lower),
    layer("telemetry.phase_share.evolution", "share", Lower),
    layer("telemetry.phase_share.model_predict", "share", Lower),
    layer("telemetry.phase_share.gbdt_train", "share", Lower),
    layer("telemetry.phase_share.lowering", "share", Lower),
    layer("telemetry.phase_share.measurement", "share", Lower),
    layer("harness.calib_ms_p50", "ms", Lower),
    layer("harness.calib_iqr_share", "share", Lower),
    layer("harness.unit_iqr_share_max", "share", Lower),
    layer("harness.passes", "count", Higher),
    layer("harness.span_overhead_ratio", "ratio", Lower),
    layer("harness.raw_cpu_s", "s", Lower),
    layer("harness.wall_s", "s", Lower),
    layer("harness.warmup_cpu_s", "s", Lower),
    layer("harness.spans", "count", Lower),
    layer("harness.probe_cpu_s", "s", Lower),
    layer("harness.traced_passes", "count", Higher),
];

/// One printed value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The measurement.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Metric values of one run, by name.
#[derive(Debug)]
pub struct Values {
    defs: &'static [MetricDef],
    by_name: BTreeMap<&'static str, Value>,
}

impl Values {
    /// An empty set over one of the two tables.
    pub fn new(defs: &'static [MetricDef]) -> Values {
        Values {
            defs,
            by_name: BTreeMap::new(),
        }
    }

    /// Records `name`; panics on a name the table does not define (a bug
    /// in the benchmark, caught by the first run).
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the table"));
        self.by_name.insert(
            def.name,
            Value {
                value,
                unit: def.unit,
            },
        );
    }

    /// Names of the table that have no finite value yet.
    pub fn missing(&self) -> Vec<&'static str> {
        self.defs
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.by_name.get(n).is_some_and(|v| v.value.is_finite()))
            .collect()
    }

    /// Every recorded value, in table order.
    pub fn in_order(&self) -> impl Iterator<Item = (&'static str, Value)> + '_ {
        self.defs
            .iter()
            .filter_map(|d| self.by_name.get(d.name).map(|v| (d.name, *v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde_json::Value as Json;

    fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
        match v {
            Json::Object(m) => m.get(key).unwrap_or_else(|| panic!("no {key:?}")),
            _ => panic!("not an object"),
        }
    }

    fn items(v: &Json) -> &[Json] {
        match v {
            Json::Array(a) => a,
            _ => panic!("not an array"),
        }
    }

    fn text(v: &Json) -> &str {
        match v {
            Json::String(s) => s,
            _ => panic!("not a string"),
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let doc: Json =
            serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            items(field(&doc, key))
                .iter()
                .map(|m| {
                    format!(
                        "{} {} {}",
                        text(field(m, "name")),
                        text(field(m, "unit")),
                        text(field(m, "better"))
                    )
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<String> {
            defs.iter()
                .map(|d| {
                    let better = match d.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    };
                    format!("{} {} {better}", d.name, d.unit)
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        for (m, d) in items(field(&doc, "end_to_end")).iter().zip(&END_TO_END) {
            let bound = match field(m, "bound") {
                Json::Number(n) => n.as_f64(),
                _ => panic!("bound is not a number"),
            };
            assert_eq!(bound, d.bound, "{}", d.name);
        }
        let listed: Vec<(String, String)> = items(field(&doc, "workloads"))
            .iter()
            .map(|w| {
                (
                    text(field(w, "name")).to_string(),
                    text(field(w, "why")).to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }

    /// `name = { path = "...", rest }` lines of a manifest, as
    /// `(name, path, rest)`.
    fn path_deps(manifest: &str) -> Vec<(String, String, String)> {
        manifest
            .lines()
            .filter_map(|line| {
                let (name, spec) = line.split_once(" = { path = \"")?;
                let (path, rest) = spec.split_once('"')?;
                Some((name.trim().to_string(), path.to_string(), rest.to_string()))
            })
            .collect()
    }

    /// The standalone manifest exists because a benchmark must build as a
    /// package of its own; the same sources are a bin of `ansor-bench`.
    /// This keeps the two builds on the same crates and features.
    #[test]
    fn standalone_manifest_follows_the_workspace() {
        const HERE: &str = "crates/bench/src/bin/e2e_bench";
        let standalone = path_deps(include_str!("Cargo.toml"));
        let workspace = path_deps(include_str!("../../../../../Cargo.toml"));
        let bench = include_str!("../../../Cargo.toml");
        assert!(standalone.len() >= 9, "{standalone:?}");
        for (name, path, rest) in &standalone {
            assert!(
                bench.contains(&format!("\n{name}.workspace = true")),
                "{name} is not a dependency of ansor-bench"
            );
            // Resolve `..` against this directory, lexically.
            let mut parts: Vec<&str> = HERE.split('/').collect();
            for step in path.split('/') {
                match step {
                    ".." => drop(parts.pop()),
                    step => parts.push(step),
                }
            }
            let (_, ws_path, ws_rest) = workspace
                .iter()
                .find(|(n, _, _)| n == name)
                .unwrap_or_else(|| panic!("{name} is not a workspace dependency"));
            assert_eq!(&parts.join("/"), ws_path, "{name}: path");
            assert_eq!(rest, ws_rest, "{name}: features");
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} is defined twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn values_track_what_is_missing() {
        let mut v = Values::new(&END_TO_END);
        v.set("setup_s", 0.5);
        v.set("peak_alloc_mb", f64::NAN);
        assert_eq!(v.missing().len(), END_TO_END.len() - 1);
        let (name, first) = v.in_order().next().unwrap();
        assert_eq!((name, first.value, first.unit), ("setup_s", 0.5, "s"));
    }
}
