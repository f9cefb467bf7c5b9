//! Empirical discrete distributions over `u64` values.
//!
//! These are the `Distribution` objects in the paper's pseudo-code (Fig. 2
//! line "sample(inDegree)", Fig. 3 line "sample(outDegree)", and the property
//! sampling loops): histograms of observed values in the seed graph that can
//! be re-sampled in O(1).

use crate::alias::AliasTable;
use rand::Rng;
use std::collections::HashMap;

/// A discrete weighted distribution over `u64` values with O(1) sampling.
///
/// ```
/// use csb_stats::EmpiricalDistribution;
/// use csb_stats::rng::rng_for;
///
/// // Observed degrees in a seed graph.
/// let degrees = EmpiricalDistribution::from_samples([1, 1, 1, 2, 2, 7]);
/// assert_eq!(degrees.pmf(1), 0.5);
/// assert_eq!(degrees.max(), 7);
///
/// // Re-sample them for a synthetic graph — only observed values appear.
/// let mut rng = rng_for(42, 0);
/// let v = degrees.sample(&mut rng);
/// assert!([1, 2, 7].contains(&v));
/// ```
#[derive(Debug, Clone)]
pub struct EmpiricalDistribution {
    values: Vec<u64>,
    weights: Vec<f64>,
    total_weight: f64,
    table: AliasTable,
}

impl EmpiricalDistribution {
    /// Builds the distribution from `(value, weight)` pairs.
    ///
    /// Pairs with equal values are merged; zero-weight pairs are dropped.
    ///
    /// # Panics
    /// Panics if no pair has positive weight.
    pub fn from_weighted(pairs: impl IntoIterator<Item = (u64, f64)>) -> Self {
        let mut merged: HashMap<u64, f64> = HashMap::new();
        for (v, w) in pairs {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and non-negative");
            if w > 0.0 {
                *merged.entry(v).or_insert(0.0) += w;
            }
        }
        assert!(!merged.is_empty(), "empirical distribution needs positive mass");
        let mut entries: Vec<(u64, f64)> = merged.into_iter().collect();
        entries.sort_unstable_by_key(|&(v, _)| v);
        let values: Vec<u64> = entries.iter().map(|&(v, _)| v).collect();
        let weights: Vec<f64> = entries.iter().map(|&(_, w)| w).collect();
        let total_weight = weights.iter().sum();
        let table = AliasTable::new(&weights);
        EmpiricalDistribution { values, weights, total_weight, table }
    }

    /// Builds the distribution by counting observed samples.
    pub fn from_samples(samples: impl IntoIterator<Item = u64>) -> Self {
        Self::from_weighted(samples.into_iter().map(|v| (v, 1.0)))
    }

    /// A distribution that always yields `v` (useful as a degenerate
    /// fallback when a conditional bucket is empty).
    pub fn constant(v: u64) -> Self {
        Self::from_weighted([(v, 1.0)])
    }

    /// Draws one value in O(1).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.values[self.sample_index(rng)]
    }

    /// Draws the index into [`Self::support`] of one value in O(1) — for
    /// callers that keep a table of their own beside the support.
    #[inline]
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.table.sample(rng)
    }

    /// Draws one value by binary-searching the CDF — O(log n). Kept for the
    /// alias-vs-CDF ablation bench; produces the same distribution.
    pub fn sample_cdf<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let target = rng.gen::<f64>() * self.total_weight;
        let mut acc = 0.0;
        for (v, w) in self.values.iter().zip(self.weights.iter()) {
            acc += w;
            if target < acc {
                return *v;
            }
        }
        *self.values.last().expect("non-empty by construction")
    }

    /// Distinct support values, ascending.
    #[inline]
    pub fn support(&self) -> &[u64] {
        &self.values
    }

    /// Weight associated with each support value (same order as
    /// [`Self::support`]).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Probability mass of `v` (0 if outside the support).
    pub fn pmf(&self, v: u64) -> f64 {
        match self.values.binary_search(&v) {
            Ok(i) => self.weights[i] / self.total_weight,
            Err(_) => 0.0,
        }
    }

    /// Expected value.
    pub fn mean(&self) -> f64 {
        self.values.iter().zip(self.weights.iter()).map(|(&v, &w)| v as f64 * w).sum::<f64>()
            / self.total_weight
    }

    /// Smallest support value.
    pub fn min(&self) -> u64 {
        self.values[0]
    }

    /// Largest support value.
    pub fn max(&self) -> u64 {
        *self.values.last().expect("non-empty by construction")
    }

    /// Number of distinct support values.
    pub fn support_len(&self) -> usize {
        self.values.len()
    }

    /// Total weight (sample count when built via [`Self::from_samples`]).
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn from_samples_counts_and_merges() {
        let d = EmpiricalDistribution::from_samples([5, 5, 5, 9]);
        assert_eq!(d.support(), &[5, 9]);
        assert!((d.pmf(5) - 0.75).abs() < 1e-12);
        assert!((d.pmf(9) - 0.25).abs() < 1e-12);
        assert_eq!(d.pmf(7), 0.0);
    }

    #[test]
    fn mean_min_max() {
        let d = EmpiricalDistribution::from_weighted([(2, 1.0), (10, 3.0)]);
        assert!((d.mean() - 8.0).abs() < 1e-12);
        assert_eq!(d.min(), 2);
        assert_eq!(d.max(), 10);
    }

    #[test]
    fn constant_always_samples_same() {
        let d = EmpiricalDistribution::constant(77);
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..64 {
            assert_eq!(d.sample(&mut rng), 77);
        }
    }

    #[test]
    fn sample_matches_pmf() {
        let d = EmpiricalDistribution::from_weighted([(1, 1.0), (2, 2.0), (3, 7.0)]);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut counts = HashMap::new();
        let n = 300_000;
        for _ in 0..n {
            *counts.entry(d.sample(&mut rng)).or_insert(0u64) += 1;
        }
        for &v in d.support() {
            let freq = counts[&v] as f64 / n as f64;
            assert!((freq - d.pmf(v)).abs() < 0.01, "value {v}: {freq} vs {}", d.pmf(v));
        }
    }

    #[test]
    fn cdf_sampler_matches_pmf() {
        let d = EmpiricalDistribution::from_weighted([(1, 3.0), (8, 1.0)]);
        let mut rng = SmallRng::seed_from_u64(13);
        let n = 200_000;
        let ones = (0..n).filter(|_| d.sample_cdf(&mut rng) == 1).count();
        let freq = ones as f64 / n as f64;
        assert!((freq - 0.75).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn empty_panics() {
        let _ = EmpiricalDistribution::from_samples(std::iter::empty());
    }

    use std::collections::HashMap;
}
