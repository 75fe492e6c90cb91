//! Metric catalogue and result printing.
//!
//! Every workload reports every metric of the list its mode prints, so
//! the untraced and traced results always carry the same keys. A layer a
//! workload does not exercise reads 0 (no model calls while serving, no
//! store while generating).

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("mean_err_b", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Generation.
    ("models.detect.calls", "count"),
    ("models.detect.ms", "ms"),
    ("models.cache.hit_ratio", "ratio"),
    ("models.cache.lost_races", "count"),
    ("core.ingest.self_ms", "ms"),
    ("core.bound.ms", "ms"),
    ("core.correction.ms", "ms"),
    ("core.correction.frames", "count"),
    ("rt.pool.busy_ratio", "ratio"),
    ("rt.journal.bytes", "B"),
    ("core.generation.residual_ms", "ms"),
    ("model_runs_per_profile", "count"),
    ("bound_coverage", "ratio"),
    // Serving, client side.
    ("bench.client.encode_us", "us"),
    ("bench.client.parse_us", "us"),
    ("bench.client.decode_us", "us"),
    ("serve.wait_us", "us"),
    // Serving, replayed server layers.
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.store.get_hit_us", "us"),
    ("serve.store.get_miss_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.server.residual_us", "us"),
    // Serving, daemon counters and sizes.
    ("serve.store.cache_hit_ratio", "ratio"),
    ("serve.store.scrubbed_per_request", "count"),
    ("serve.store.bytes_per_user_byte", "ratio"),
    ("alloc.client_per_request", "count"),
    ("alloc.server_per_request", "count"),
    ("serve.frame.bytes_per_response", "B"),
    ("get_latency_p50_ms", "ms"),
    ("serve.errors.malformed", "count"),
    ("serve.errors.oversized", "count"),
    ("serve.errors.bad_request", "count"),
    ("serve.errors.not_found", "count"),
    ("serve.errors.overloaded", "count"),
    ("serve.errors.shutting_down", "count"),
    ("serve.errors.store", "count"),
    ("serve.errors.quarantined", "count"),
    // The tracing itself.
    ("trace.overhead_ratio", "ratio"),
];

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase (profiles or requests).
    pub attempted: u64,
    /// Operations that got an error or failed an output check, plus one
    /// per failed run-level check.
    pub failed: u64,
    /// Metric values by name; a name missing here prints as 0.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
    /// Descriptions of failed checks (the first few are printed).
    pub failures: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metric list for a mode.
    pub fn catalogue(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics` (every metric of the mode's catalogue, by
    /// name, with its unit). Non-finite values print as `null` and make
    /// the result incorrect upstream.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = Self::catalogue(traced)
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                let value = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
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

    /// Marks the result incorrect if any reported metric is not finite.
    pub fn check_finite(&mut self, traced: bool) {
        let bad: Vec<&str> = Self::catalogue(traced)
            .iter()
            .filter(|(name, _)| !self.values.get(name).copied().unwrap_or(0.0).is_finite())
            .map(|(name, _)| *name)
            .collect();
        for name in bad {
            self.fail(format!("metric {name} is not finite"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_metric_of_the_mode() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 0.25);
        let line = o.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        let parsed = smokescreen_rt::json::Json::parse(&line).expect("valid JSON");
        assert_eq!(
            parsed
                .get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap(),
            0.25
        );
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
