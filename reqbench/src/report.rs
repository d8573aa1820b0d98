//! The run's result: a human-readable report on stderr and, as the last
//! line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or simulator calls) attempted, warm-up excluded.
    pub attempted: u64,
    /// Attempted requests that were shed, expired, errored or wrong.
    pub failed: u64,
    /// Requests whose output disagreed with the reference, or
    /// simulator values that did not repeat.
    pub wrong: u64,
    /// The metrics of this run's mode, as the result line carries them.
    pub metrics: Vec<Metric>,
    /// Further metrics, for the human-readable report only.
    pub extra: Vec<Metric>,
    /// Context lines for the human-readable report (tail percentiles,
    /// sample counts, set-up times).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every output matched its reference.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value is a bug upstream; JSON cannot carry
                // it, so it is reported as -1.
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
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

    /// The human-readable report.
    pub fn text(&self, workload: &str) -> String {
        let mut out = format!("== {workload}\n");
        for n in &self.notes {
            out += &format!("   {n}\n");
        }
        let share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        out += &format!(
            "   attempted {}  failed {}  fail_share {share:.6}  wrong {}\n",
            self.attempted, self.failed, self.wrong
        );
        for m in &self.metrics {
            out += &format!("   {:<32} {:>14.4} {}\n", m.name, m.value, m.unit);
        }
        for m in &self.extra {
            out += &format!("   ({:<30} {:>14.4} {})\n", m.name, m.value, m.unit);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_one_json_object() {
        let o = Outcome {
            attempted: 3,
            failed: 1,
            wrong: 0,
            metrics: vec![
                Metric::new("latency_p50_ms", 1.25, "ms"),
                Metric::new("x", 2.0, "s"),
            ],
            extra: vec![Metric::new("not_in_json", 1.0, "s")],
            notes: vec![],
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"x\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }
}
