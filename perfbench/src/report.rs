//! Metrics and the result line the benchmark ends with.

use mpix_json::Value;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one invocation reports.
pub struct Outcome {
    /// Output checks passed and no operation failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Obj(vec![
                    ("value".into(), m.value.into()),
                    ("unit".into(), m.unit.into()),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        Value::Obj(vec![
            ("correct".into(), self.correct.into()),
            ("attempted".into(), self.attempted.into()),
            ("failed".into(), self.failed.into()),
            ("metrics".into(), Value::Obj(metrics)),
        ])
        .compact()
    }
}
