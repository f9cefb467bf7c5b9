//! Generator configuration.

/// PGPBA parameters (paper Fig. 2 inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgpbaConfig {
    /// Target synthetic size, in edges (`desired_size`).
    pub desired_size: u64,
    /// New vertices per iteration as a fraction of the current edge count
    /// (`fraction`; the paper sweeps 0.1-0.9 for veracity and uses 2 for
    /// performance runs).
    pub fraction: f64,
    /// Master RNG seed.
    pub seed: u64,
}

impl PgpbaConfig {
    /// A config with the paper's default veracity fraction (0.1).
    pub fn new(desired_size: u64) -> Self {
        PgpbaConfig { desired_size, fraction: 0.1, seed: 0xBA }
    }

    /// Checks parameters: `desired_size > 0` and a positive, finite
    /// `fraction`. The error names the offending field.
    pub fn check(&self) -> Result<(), String> {
        if self.desired_size == 0 {
            return Err("desired_size must be positive".into());
        }
        if !(self.fraction > 0.0 && self.fraction.is_finite()) {
            return Err(format!("fraction must be positive and finite, got {}", self.fraction));
        }
        Ok(())
    }

    /// Asserts [`check`](Self::check); the generator entry points call it on
    /// configs their caller built.
    ///
    /// # Panics
    /// Panics if `fraction <= 0` or `desired_size == 0`.
    pub fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }
}

/// PGSK parameters (paper Fig. 3 inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgskConfig {
    /// Target synthetic size, in edges.
    pub desired_size: u64,
    /// Master RNG seed.
    pub seed: u64,
    /// KronFit gradient-ascent iterations.
    pub kronfit_iterations: usize,
    /// Permutation-swap samples per gradient step.
    pub kronfit_permutation_samples: usize,
}

impl PgskConfig {
    /// Defaults tuned for laptop-scale fitting.
    pub fn new(desired_size: u64) -> Self {
        PgskConfig {
            desired_size,
            seed: 0x5C,
            kronfit_iterations: 40,
            kronfit_permutation_samples: 2000,
        }
    }

    /// Checks parameters: `desired_size > 0` and at least one fitting
    /// iteration. The error names the offending field.
    pub fn check(&self) -> Result<(), String> {
        if self.desired_size == 0 {
            return Err("desired_size must be positive".into());
        }
        if self.kronfit_iterations == 0 {
            return Err("kronfit_iterations must be at least 1".into());
        }
        Ok(())
    }

    /// Asserts [`check`](Self::check); the generator entry points call it on
    /// configs their caller built.
    ///
    /// # Panics
    /// Panics if `desired_size == 0` or no fitting iterations are requested.
    pub fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        PgpbaConfig::new(1000).validate();
        PgskConfig::new(1000).validate();
    }

    #[test]
    #[should_panic(expected = "desired_size")]
    fn zero_size_rejected() {
        PgpbaConfig { desired_size: 0, fraction: 0.1, seed: 0 }.validate();
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_rejected() {
        PgpbaConfig { desired_size: 10, fraction: 0.0, seed: 0 }.validate();
    }
}
