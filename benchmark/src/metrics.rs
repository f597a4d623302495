//! The metric and workload names the binary emits. `BENCHMARK.json`
//! declares the same sets (a test compares them), so a name exists in
//! exactly two places and cannot drift.

use std::collections::BTreeMap;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput, useful-to-attempted ratios).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDecl {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The four workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["join_flat", "join_bigtree", "serve_tcp", "stream_window"];

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them (`--trace 0`); what one *operation* is
/// differs per workload and is stated in the README.
pub const END_TO_END: [MetricDecl; 5] = [
    lower("setup_s", "s"),
    lower("op_p50_us", "us"),
    lower("op_tail_us", "us"),
    higher("trees_per_s", "1/s"),
    lower("rss_peak_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), layer = crate name. A workload that
/// never enters a layer reports that layer's metrics as 0.
pub const PER_LAYER: [MetricDecl; 64] = [
    lower("tree.prepare_us", "us"),
    lower("ted.exact_calls", "count"),
    lower("ted.exact_us_per_call", "us"),
    lower("ted.exact_ms", "ms"),
    lower("core.verify_prep_ms", "ms"),
    lower("core.partition_ms", "ms"),
    lower("core.index_insert_ms", "ms"),
    lower("core.probe_ms", "ms"),
    lower("core.verify_chain_ms", "ms"),
    lower("core.subgraphs_built", "count"),
    lower("core.index_registrations", "count"),
    lower("core.probes", "count"),
    lower("core.match_attempts", "count"),
    higher("core.matches", "count"),
    higher("core.match_hit_ratio", "ratio"),
    lower("core.candidates", "count"),
    higher("core.candidate_precision", "ratio"),
    higher("core.stage_resolved.size", "count"),
    higher("core.stage_resolved.shape-accept", "count"),
    higher("core.stage_resolved.label-hist", "count"),
    higher("core.stage_resolved.traversal-sed", "count"),
    higher("core.replay_coverage", "ratio"),
    lower("shard.insert_us", "us"),
    lower("shard.probe_us", "us"),
    lower("shard.remove_us", "us"),
    lower("shard.compactions", "count"),
    lower("shard.compaction_insert_us_p50", "us"),
    lower("shard.evictions", "count"),
    lower("shard.dead_postings_peak", "count"),
    lower("shard.live_postings_end", "count"),
    lower("shard.insert_drift_ratio", "ratio"),
    lower("shard.fanout_shards", "count"),
    lower("catalog.freeze_ms", "ms"),
    lower("catalog.to_bytes_ms", "ms"),
    lower("catalog.from_bytes_ms", "ms"),
    lower("catalog.snapshot_bytes", "B"),
    lower("catalog.snapshot_bytes_per_tree", "B"),
    lower("catalog.join_ms", "ms"),
    lower("catalog.query_us", "us"),
    lower("cluster.plan_us", "us"),
    lower("cluster.requests_per_join", "count"),
    lower("cluster.probe_prep_us", "us"),
    lower("cluster.node_serve_us", "us"),
    lower("cluster.join_ms", "ms"),
    lower("cluster.router_tax", "ratio"),
    lower("cluster.retries", "count"),
    lower("cluster.failovers", "count"),
    lower("catalogd.connect_ms", "ms"),
    lower("catalogd.encode_batch_us", "us"),
    lower("catalogd.batch_frame_bytes", "B"),
    lower("catalogd.decode_batch_us", "us"),
    lower("catalogd.ping_rtt_us", "us"),
    lower("catalogd.probe_register_us", "us"),
    lower("catalogd.join_shard_rtt_us", "us"),
    lower("catalogd.join_shard_server_us", "us"),
    lower("catalogd.server_frames", "count"),
    lower("catalogd.server_errors", "count"),
    lower("catalogd.wire_tax", "ratio"),
    higher("catalogd.waterfall_coverage", "ratio"),
    lower("obs.overhead_ratio", "ratio"),
    lower("obs.overhead_base_us", "us"),
    lower("obs.trace_overhead_ratio", "ratio"),
    lower("obs.trace_base_us", "us"),
    lower("obs.spans_recorded", "count"),
];

/// What one run reports: every metric it measured, how many operations it
/// attempted, and how many of those failed (returned `Err`, came back
/// `Degraded`, or disagreed with their oracle).
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What went wrong, one line per distinct failure (first few only).
    pub failures: Vec<String>,
}

impl Report {
    /// Records `value` for the declared metric `name`.
    ///
    /// # Panics
    /// Panics on an undeclared name or a non-finite value — both are
    /// harness bugs, and a silently dropped metric would hide them.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Counts one checked operation; `ok = false` records `what` happened.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Whether every checked operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The values of `decls` in declaration order. Per-layer metrics the
    /// workload never touched read 0; a missing end-to-end metric is a
    /// harness bug.
    pub fn resolve(&self, decls: &[MetricDecl], default_zero: bool) -> Vec<(MetricDecl, f64)> {
        decls
            .iter()
            .map(|m| {
                let value = match self.values.get(m.name) {
                    Some(&v) => v,
                    None if default_zero => 0.0,
                    None => panic!("end-to-end metric {} was not measured", m.name),
                };
                (*m, value)
            })
            .collect()
    }

    /// The result line the driver reads: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, traced: bool) -> String {
        let resolved = if traced {
            self.resolve(&PER_LAYER, true)
        } else {
            self.resolve(&END_TO_END, false)
        };
        let metrics: Vec<String> = resolved
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS);
        for name in names {
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} must match [A-Za-z0-9_.-]+"
            );
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "{name} declared twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = Report::default();
        for m in &END_TO_END {
            report.set(m.name, 1.5);
        }
        report.check(true, String::new);
        let line = report.result_line(false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        // A traced line carries every per-layer metric, untouched ones as 0.
        let traced = report.result_line(true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut report = Report::default();
        report.check(true, String::new);
        report.check(false, || "pairs differ".into());
        assert!(!report.correct());
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert_eq!(report.failures, vec!["pairs differ".to_string()]);
    }
}
