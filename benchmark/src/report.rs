//! The metrics of one workload, as collected, printed and stored.

use std::collections::BTreeMap;

use crate::json::{obj, Value};

pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// `(max − min) ÷ median` of the window values the metric is the
    /// median of; `None` for a metric taken once.
    pub spread: Option<f64>,
}

#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, Metric>,
    pub attempted: u64,
    pub failed: u64,
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                spread: None,
            },
        );
    }

    /// Records the median of `values` and their spread.
    pub fn windowed(&mut self, name: &str, unit: &'static str, values: &[f64]) {
        let mid = median(values);
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
        let spread = if mid > 0.0 { (hi - lo) / mid } else { 0.0 };
        self.metrics.insert(
            name.to_string(),
            Metric {
                value: mid,
                unit,
                spread: Some(spread),
            },
        );
    }

    /// `workload name value unit`, one line per metric; a windowed
    /// metric's spread follows as `name.spread`.
    pub fn print(&self, workload: &str) {
        for (name, m) in &self.metrics {
            println!("{workload} {name} {} {}", m.value, m.unit);
            if let Some(spread) = m.spread {
                println!("{workload} {name}.spread {spread} ratio");
            }
        }
    }

    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let mut fields = vec![
                    ("value", Value::Num(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ];
                if let Some(spread) = m.spread {
                    fields.push(("spread", Value::Num(spread)));
                }
                let fields = fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect();
                (name.clone(), Value::Obj(fields))
            })
            .collect();
        obj([
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}
