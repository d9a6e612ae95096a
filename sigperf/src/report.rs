//! Metric catalog, summary statistics and the JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric the benchmark reports: name, unit, direction.
pub type MetricDef = (&'static str, &'static str, Better);

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    ("wall_s", "s", Better::Lower),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
    ("session_s_per_s", "1/s", Better::Higher),
];

/// The retry policies of the `storm-reliable` workload, by label.
pub const STORM_POLICIES: [&str; 3] = ["fixed", "backoff", "jittered"];

/// Per-layer metrics of one storm policy (`storm.<policy>.<suffix>`).
const STORM_METRICS: &[(&str, &str, Better)] = &[
    ("run_s", "s", Better::Lower),
    ("events", "count", Better::Lower),
    ("events_per_s", "1/s", Better::Higher),
    ("bytes_per_session", "B", Better::Lower),
    ("delivered_frac", "ratio", Better::Higher),
    ("overload_frac", "ratio", Better::Lower),
    ("drops_random", "count", Better::Lower),
    ("drops_injected", "count", Better::Lower),
    ("drops_overload", "count", Better::Lower),
    ("crash_wipes", "count", Better::Lower),
    ("derive_s", "s", Better::Lower),
];

/// Per-layer metrics that are not per storm policy.
const LAYER_METRICS: &[MetricDef] = &[
    ("fail_frac", "ratio", Better::Lower),
    ("trace.overhead_s", "s", Better::Lower),
    ("trace.coverage", "ratio", Better::Higher),
    // Fan-out.
    ("fanout.cpu_util", "ratio", Better::Higher),
    ("exp.node_outage.solve_s", "s", Better::Lower),
    ("exp.node_restart_storm.solve_s", "s", Better::Lower),
    ("exp.node_scale.solve_s", "s", Better::Lower),
    ("exp.node_storm.solve_s", "s", Better::Lower),
    // Check re-simulation.
    ("check.domination_s", "s", Better::Lower),
    ("check.structural_s", "s", Better::Lower),
    // Analytic solve.
    ("exp.analytic.solve_s", "s", Better::Lower),
    ("exp.sim_sweep.solve_s", "s", Better::Lower),
    // Report and registry.
    ("report.render_s", "s", Better::Lower),
    ("registry.build_s", "s", Better::Lower),
    // Event queue and handler (node-250k).
    ("node.new_s", "s", Better::Lower),
    ("node.run_s", "s", Better::Lower),
    ("node.events", "count", Better::Lower),
    ("node.events_per_s", "1/s", Better::Higher),
    ("node.events_per_session_s", "1/s", Better::Lower),
    ("node.phase.fire_s", "s", Better::Lower),
    ("node.pending_events", "count", Better::Lower),
    ("node.bytes_per_session", "B", Better::Lower),
    // Meters.
    ("node.phase.metrics_s", "s", Better::Lower),
];

/// Every per-layer metric, printed by the traced run of every workload
/// (a layer the workload does not exercise reads 0).
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<_> = LAYER_METRICS
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    for policy in STORM_POLICIES {
        for &(suffix, unit, better) in STORM_METRICS {
            all.push((format!("storm.{policy}.{suffix}"), unit, better));
        }
    }
    all
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of the samples (mean of the two middle ones for an even count);
/// NaN for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of the samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the usual tail percentiles (90, 99, 99.9) that has at
/// least `min_beyond` of `n` samples above its nearest rank, if any.
pub fn supported_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    [999, 990, 900]
        .into_iter()
        .find(|per_mille| n - (per_mille * n).div_ceil(1000) >= min_beyond)
        .map(|per_mille| per_mille as f64 / 10.0)
}

/// A JSON number with every digit of the value (Rust's shortest
/// round-trip rendering); non-finite values have no JSON form.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value": v, "unit": u}`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    )
}

/// Per-pass samples of named values, reduced to medians at the end.
#[derive(Debug, Default)]
pub struct Samples {
    values: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, name: impl Into<String>, value: f64) {
        self.values.entry(name.into()).or_default().push(value);
    }

    /// Median of the samples recorded under `name`, or 0 when the
    /// workload recorded none (the layer was not exercised).
    pub fn median_or_zero(&self, name: &str) -> f64 {
        let v = self.get(name);
        if v.is_empty() {
            0.0
        } else {
            median(v)
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn count(&self, name: &str) -> usize {
        self.get(name).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_selects_the_middle_or_averages_the_two_middles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_uses_the_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0, 9.0], 1.0), 7.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(7, 10), None);
        assert_eq!(supported_percentile(99, 10), None);
        assert_eq!(supported_percentile(100, 10), Some(90.0));
        assert_eq!(supported_percentile(1000, 10), Some(99.0));
        assert_eq!(supported_percentile(10_000, 10), Some(99.9));
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        for &(_, unit, _) in END_TO_END {
            assert!(valid_unit(unit), "{unit}");
        }
        for (name, unit, _) in per_layer() {
            assert!(valid_unit(unit), "{name}: {unit}");
        }
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "metric names must be unique");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn name_and_unit_validation_rejects_bad_characters() {
        assert!(valid_name("storm.fixed.run_s"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn the_catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(json) = std::fs::read_to_string(path) else {
            return; // the manifest is checked where it exists
        };
        let declared = json.matches("\"name\":").count();
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.0));
        for (name, unit, better) in END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .chain(per_layer())
        {
            let better = if better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Three workloads plus every metric.
        assert_eq!(declared, 3 + names.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("wall_s".into(), 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(0.1), "0.1");
    }
}
