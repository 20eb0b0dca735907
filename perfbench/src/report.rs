//! What one workload run hands back, and how it is printed.

use crate::spans::Recorded;

/// Named metrics in insertion order, each with its unit.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.0.iter().all(|(n, ..)| *n != name), "{name} twice");
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| *n == name).map(|(_, v, _)| *v)
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Judge failures; empty means the outputs were correct.
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (every run).
    pub e2e: Metrics,
    /// Printed in the table only: metrics that not every workload has.
    pub info: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Spans from the traced phase (traced runs only).
    pub spans: Recorded,
}

impl Outcome {
    /// Records a judge: `ok == false` fails the run with `what`.
    pub fn judge(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        eprintln!("  [{}] {what}", if ok { "ok" } else { "FAIL" });
        if !ok {
            self.failures.push(what);
        }
    }
}

/// Renders a JSON number; non-finite values (a percentile made of
/// failed ops) become `null` and the run is marked incorrect upstream.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result object: the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Human-readable table of metrics.
pub fn print_table(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (n, v, u) in &metrics.0 {
        println!("  {n:<34} {v:>16.6} {u}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("latency_p50_ms", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        assert_eq!(
            result_json(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        m.put("latency_p99_ms", f64::INFINITY, "ms");
        assert!(result_json(false, 1, 1, &m).contains("\"value\": null"));
    }
}
