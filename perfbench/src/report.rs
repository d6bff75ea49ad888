//! The result a run prints: human-readable detail lines, then one JSON
//! object as the last line of standard output.

/// Operation accounting plus the named metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests, reloads and training runs.
    attempted: u64,
    /// Operations that failed or returned a wrong answer.
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    /// The first few failure descriptions, for the detail lines.
    errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_owned(), value, unit.to_owned()));
    }

    /// Count one attempted operation, failed when `err` is `Some`.
    pub fn op(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.fail(e);
        }
    }

    /// Record a failure without a new attempt (a check on an operation
    /// already counted).
    pub fn fail(&mut self, err: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(err);
        }
    }

    /// Print the detail lines and the result line; returns the exit code
    /// (nonzero when any operation failed).
    pub fn emit(&self) -> i32 {
        for e in &self.errors {
            println!("error: {e}");
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // A non-finite value can only come from a failed run,
                // which is already marked incorrect; JSON has no inf/NaN.
                let v = if value.is_finite() { *value } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}
