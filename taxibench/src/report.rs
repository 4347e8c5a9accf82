//! The result of one benchmark run and its rendering: one human-readable line per
//! metric, then the machine-readable JSON object as the last line of stdout.

/// One named measurement.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Operation counts, correctness failures and metrics of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: solves (offline) or requests sent (serving).
    pub attempted: u64,
    /// Operations that failed, were shed or rejected, or failed a check.
    pub failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Records a metric. Non-finite values are a benchmark bug: they are reported
    /// as a correctness failure instead of being rendered as invalid JSON.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check. Every failure counts as one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Folds a check result into the report.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(what) = result {
            self.fail(what);
        }
    }

    /// Adds an informational line to the human-readable part of the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints the human-readable lines and, last, the JSON result line. Failure
    /// details go to stderr (at most 20 of them).
    pub fn print(&self, workload: &str) {
        for line in &self.notes {
            println!("# {line}");
        }
        for m in &self.metrics {
            println!("{workload}: {} = {} {}", m.name, m.value, m.unit);
        }
        if self.attempted > 0 {
            println!(
                "{workload}: failed_ratio = {} ({} of {})",
                self.failed as f64 / self.attempted as f64,
                self.failed,
                self.attempted
            );
        }
        for what in self.failures.iter().take(20) {
            eprintln!("check failed: {what}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // `Display` prints a finite f64 as its shortest round-trip digits
                // without an exponent, which is a valid JSON number.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
