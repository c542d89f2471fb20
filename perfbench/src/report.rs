//! The result line: one JSON object with `correct`, `attempted`, `failed`
//! and the named metrics, each with its value and unit.

use hcperf_harness::json_escape;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (vehicles simulated or served, or figures).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line.
    ///
    /// # Errors
    ///
    /// A non-finite value has no JSON form; it is reported instead of
    /// printed.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_escape(m.name),
                m.value,
                json_escape(m.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "round_s",
                    value: 1.25,
                    unit: "s",
                },
                Metric {
                    name: "core.gamma_recomputes",
                    value: 7.0,
                    unit: "count",
                },
            ],
        };
        let line = outcome.to_json().unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"round_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"core.gamma_recomputes\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed["metrics"]["round_s"]["value"].as_f64(), Some(1.25));
    }

    #[test]
    fn non_finite_values_are_refused() {
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Metric {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
        };
        assert!(outcome.to_json().is_err());
    }
}
