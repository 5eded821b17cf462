//! Operations attempted and failed, and the metrics a run reports.

/// Failures printed to stderr before the run gives up listing them.
const FAILURES_SHOWN: usize = 20;

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one failed operation: a non-200 answer, a dropped request
    /// or a failed correctness check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed as usize <= FAILURES_SHOWN {
            eprintln!("FAILED: {what}");
        }
    }

    /// Count and report an operation whose check is `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(what());
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, value, unit });
    }
}
