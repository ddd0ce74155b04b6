//! The output lines: a context object, then the result object
//! (`correct`, `attempted`, `failed`, `metrics`).

use crate::measure::Ops;

/// Named metrics with units, in emission order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Every value must be a finite number; anything else is a failed check.
    pub fn check_finite(&self, ops: &mut Ops) {
        for &(name, value, _) in &self.0 {
            ops.check(
                &format!("metric {name} is a finite number"),
                value.is_finite(),
            );
        }
    }
}

/// A finite number as JSON; anything else as `null`, never as a plausible
/// value.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result object, printed as the last line of standard output.
pub fn result_line(ops: &Ops, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_f64(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed,
        body.join(", ")
    )
}

/// A JSON value for the context line.
pub enum Value {
    Str(String),
    Int(u64),
    Num(f64),
}

pub fn context_line(fields: &[(&str, Value)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| {
            let v = match value {
                Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
                Value::Int(i) => i.to_string(),
                Value::Num(x) => json_f64(*x),
            };
            format!("\"{key}\": {v}")
        })
        .collect();
    format!("{{\"context\": {{{}}}}}", body.join(", "))
}
