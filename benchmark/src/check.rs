//! The tally behind `attempted`, `failed` and `failed_share`: every timed
//! repetition, served job and output check is one operation.

/// Printed by every run beside the contract's `attempted` and `failed`, and
/// compared exactly by `compare`. It is 0 on a healthy run, so it cannot
/// carry a relative bound in `BENCHMARK.json`.
pub const FAILED_SHARE: &str = "failed_share";

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` operations that completed.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut c = Checks::default();
        assert_eq!(c.failed_share(), 0.0);
        c.passed(2);
        c.check(true, || unreachable!("message of a passing check is never built"));
        c.check(false, || "edge count".into());
        assert_eq!((c.attempted, c.failed), (4, 1));
        assert_eq!(c.failed_share(), 0.25);
        assert_eq!(c.failures, ["edge count"]);
    }
}
