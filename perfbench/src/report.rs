//! A run's result: every metric by name with its unit and sample count,
//! the attempted and failed operations, and the one JSON line the run
//! ends with.

/// One measured metric. `value` is `None` when the sample does not
/// support it (for a percentile: fewer than ten samples beyond it).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub count: usize,
}

impl Metric {
    pub fn new(name: &str, value: Option<f64>, unit: &'static str, count: usize) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            count,
        }
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Printed beside the metrics but left out of the JSON line: figures
    /// that describe the run but spread between runs by more than any
    /// bound allows on a small shared host.
    pub info: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn push_info(&mut self, m: Metric) {
        self.info.push(m);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable report, one metric per line.
    pub fn table(&self, workload: &str, meaning: impl Fn(&str) -> String) -> String {
        let mut out = format!("workload {workload}\n");
        let gated = self.metrics.iter().map(|m| (m, meaning(&m.name)));
        let info = self
            .info
            .iter()
            .map(|m| (m, "(printed, not in the result line)".to_string()));
        for (m, meaning) in gated.chain(info) {
            let value = m
                .value
                .map_or("unsupported".to_string(), |v| format!("{v:.6}"));
            out.push_str(&format!(
                "  {:<30} {:>16} {:<6} n={:<7} {}\n",
                m.name, value, m.unit, m.count, meaning
            ));
        }
        out.push_str(&format!(
            "  {:<30} {:>16.6} {:<6} n={:<7} failed, refused and wrong answers / attempts\n",
            "failed_share",
            self.failed_share(),
            "ratio",
            self.attempted
        ));
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// The final JSON line, or the names of metrics the run could not
    /// support.
    pub fn json(&self) -> Result<String, Vec<String>> {
        let missing: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_some_and(f64::is_finite))
            .map(|m| m.name.clone())
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    m.value.expect("checked above"),
                    m.unit
                )
            })
            .collect();
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.push(Metric::new("p50_ms", Some(1.25), "ms", 10));
        let line = o.json().unwrap();
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|c| c.as_u64()), Some(10));
        let m = v.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("ms"));
    }

    #[test]
    fn unsupported_metrics_withhold_the_line() {
        let mut o = Outcome::default();
        o.push(Metric::new("p99_ms", None, "ms", 40));
        assert_eq!(o.json(), Err(vec!["p99_ms".to_string()]));
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        o.push(Metric::new("setup_s", Some(0.5), "s", 3));
        assert!(o.json().unwrap().starts_with("{\"correct\":false"));
        assert_eq!(o.failed_share(), 0.25);
    }
}
