//! The benchmark's metric tables and its one-line JSON result.
//!
//! Every run emits every metric of its table: `END_TO_END` with tracing
//! off, `PER_LAYER` with tracing on. A per-layer metric of a layer the
//! workload does not exercise reads 0. The tables must list exactly the
//! metrics of `BENCHMARK.json`; a test holds them together.

use phox_core::trace::json::{json_number, json_string};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("iter_s_p50", "s"),
    ("sim_macs_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("step_s_p50", "s"),
    ("step_s_p90", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Times and counts are per iteration.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tron.forward.busy_s", "s"),
    ("photonics.analog_matmul.calls", "count"),
    ("photonics.analog_matmul.tiles", "count"),
    ("photonics.analog_matmul.macs", "count"),
    ("photonics.analog_matmul.busy_s", "s"),
    ("photonics.scratch_reuse_ratio", "ratio"),
    ("tensor.gemm_i8.busy_s", "s"),
    ("photonics.lut_softmax.busy_s", "s"),
    ("photonics.optical_layer_norm.busy_s", "s"),
    ("photonics.soa_activate.busy_s", "s"),
    ("ghost.forward.busy_s", "s"),
    ("ghost.optical_aggregate.busy_s", "s"),
    ("ghost.sparse_agg.calls", "count"),
    ("ghost.sparse_agg.rows", "count"),
    ("ghost.sparse_agg.nnz", "count"),
    ("ghost.analog_agg.accs", "count"),
    ("tensor.aggregate_i8.busy_s", "s"),
    ("nn.datasets.power_law.busy_s", "s"),
    ("nn.decode_step.busy_s", "s"),
    ("nn.decode.steps", "count"),
    ("nn.decode.cached_rows", "count"),
    ("tensor.gemv.calls", "count"),
    ("tensor.gemv_i32.busy_s", "s"),
    ("nn.decode_step.ctx_growth", "ratio"),
    ("nn.decode_step.p99_s", "s"),
    ("nn.int8_decoder.warmup_s", "s"),
    ("tron.simulate.calls", "count"),
    ("tron.simulate.busy_s", "s"),
    ("tron.simulate_generation.busy_s", "s"),
    ("ghost.simulate.calls", "count"),
    ("ghost.simulate.busy_s", "s"),
    ("ghost.balance_factor.busy_s", "s"),
    ("baselines.evaluate.busy_s", "s"),
    ("serve.standard_mix.busy_s", "s"),
    ("serve.run.busy_s", "s"),
    ("serve.completed", "count"),
    ("serve.windows", "count"),
    ("llm_prefill.coverage", "ratio"),
    ("gnn_powerlaw.coverage", "ratio"),
    ("llm_decode.coverage", "ratio"),
    ("model_sweep.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// one `{"value", "unit"}` object per metric of `table`, in table order.
/// `value` returns `None` for a metric the run did not produce.
///
/// # Errors
///
/// Names the first metric that is misnamed, missing or not finite.
pub fn result_json(
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    value: impl Fn(&str) -> Option<f64>,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        let v = value(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(v),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule() {
        for good in ["setup_s", "tron.forward.busy_s", "a-b.c_1", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "slash/name",
            "tab\t",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn tables_hold_valid_unique_names() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
    }

    /// The `"name"` values of the array under `key` in `json`, paired
    /// with the `"unit"` that follows each one. Enough of a reader for
    /// the flat layout of `BENCHMARK.json`.
    fn named_entries(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("array closes");
        let string_after = |s: &str, field: &str| -> Option<(String, usize)> {
            let at = s.find(&format!("\"{field}\""))?;
            let rest = &s[at + field.len() + 2..];
            let open = rest.find('"')? + 1;
            let len = rest[open..].find('"')?;
            Some((
                rest[open..open + len].to_owned(),
                at + field.len() + 2 + open + len,
            ))
        };
        let mut out = Vec::new();
        let mut s = &body[..end];
        while let Some((name, used)) = string_after(s, "name") {
            s = &s[used..];
            let (unit, used) = string_after(s, "unit").unwrap_or_default();
            s = &s[used..];
            out.push((name, unit));
        }
        out
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = named_entries(json, key);
            let emitted: Vec<(String, String)> = table
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            assert_eq!(listed, emitted, "{key}");
        }
    }

    #[test]
    fn result_line_carries_every_metric() {
        let line = result_json(3, 0, END_TO_END, |_| Some(1.5)).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for (name, unit) in END_TO_END {
            let field = format!("\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}");
            assert!(line.contains(&field), "{field}");
        }
        assert!(result_json(3, 1, END_TO_END, |_| Some(1.0))
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn missing_or_non_finite_metric_is_an_error() {
        assert!(result_json(1, 0, END_TO_END, |n| (n != "setup_s").then_some(1.0)).is_err());
        assert!(result_json(1, 0, END_TO_END, |_| Some(f64::NAN)).is_err());
    }
}
