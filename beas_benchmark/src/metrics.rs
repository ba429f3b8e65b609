//! The names and units of every metric the benchmark prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names with the
//! regression bounds; a test keeps the two in step.

/// `(name, unit)` of the end-to-end metrics, measured with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p95_us", "us"),
    ("write_p50_us", "us"),
    ("tuples_per_op", "count"),
    ("rss_mb", "MB"),
];

/// `(name, unit)` of the per-layer metrics.  A metric whose layer a workload
/// never enters prints 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    // planning, paid per operation only when the plan cache misses
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("core.graph_us", "us"),
    ("core.check_us", "us"),
    ("core.plan_us", "us"),
    ("core.prepare_miss_us", "us"),
    // the hot path around a cached plan
    ("core.prepare_hit_us", "us"),
    ("service.pin_us", "us"),
    ("service.admit_us", "us"),
    ("service.overhead_us", "us"),
    // bounded execution
    ("core.fetch_us", "us"),
    ("core.finalize_us", "us"),
    ("core.fetch_ns_per_tuple", "ns"),
    ("storage.index_fetch_ns", "ns"),
    ("core.tuples_vs_bound", "ratio"),
    ("core.approximate_us", "us"),
    // conventional execution
    ("engine.plan_us", "us"),
    ("engine.exec_us", "us"),
    ("engine.ns_per_tuple", "ns"),
    ("storage.scan_ns_per_row", "ns"),
    ("storage.stats_us", "us"),
    ("core.partial_us", "us"),
    // maintenance
    ("access.insert_batch_us", "us"),
    ("access.delete_batch_us", "us"),
    ("core.fork_us", "us"),
    ("service.publish_us", "us"),
    ("storage.shared_segment_frac", "ratio"),
    // counters the product keeps, read after the untraced run
    ("core.plan_cache.hit_rate", "ratio"),
    ("core.plan_cache.invalidations", "count"),
    ("service.decision.bounded_frac", "ratio"),
    ("service.decision.approximate_frac", "ratio"),
    ("service.decision.baseline_frac", "ratio"),
    ("service.decision.rejected_frac", "ratio"),
    ("service.bounded.p50_us", "us"),
    ("service.approximate.p50_us", "us"),
    ("service.baseline.p50_us", "us"),
    ("service.rejected.p50_us", "us"),
    ("service.live_generations_max", "count"),
    // set-up, split
    ("tlc.generate_s", "s"),
    ("access.conformance_s", "s"),
    ("access.build_indexes_s", "s"),
    // scale comparison (divide covered_hot's by covered_small's)
    ("read.point_p50_us", "us"),
    ("read.point_tuples_per_op", "count"),
    // the benchmark itself
    ("read.samples", "count"),
    ("read.p99_us", "us"),
    ("write.samples", "count"),
    ("write.p90_us", "us"),
    ("service.contention_us", "us"),
    ("bench.traced_op_us", "us"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.timer_ns", "ns"),
    ("bench.oracle_s", "s"),
    ("bench.script_texts", "count"),
];

/// Metric values by name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Set `name` when the measurement exists.
    pub fn set_some(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}
