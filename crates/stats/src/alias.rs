//! Walker/Vose alias method for O(1) sampling of discrete distributions.
//!
//! Both generators sample edge attributes for *every* generated edge
//! (`O(|E| x |properties|)` in the paper's complexity analysis), so constant
//! time per draw is what keeps property generation from dominating the run.

use rand::Rng;

/// Precomputed alias table over `n` outcomes with the given weights.
///
/// Construction is O(n); each [`AliasTable::sample`] is O(1): one uniform
/// index, one uniform coin.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Probability of keeping the column's own outcome (scaled to [0,1]).
    prob: Vec<f64>,
    /// Alternative outcome taken when the coin exceeds `prob[i]`.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds an alias table from non-negative weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite value,
    /// or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one outcome");
        assert!(weights.len() <= u32::MAX as usize, "alias table limited to u32 outcome indices");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "weights must be finite and non-negative");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");

        let n = weights.len();
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * scale).collect();
        let mut alias: Vec<u32> = (0..n as u32).collect();

        // Vose's algorithm with two worklists.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            // Large donor gives away (1 - prob[s]) of its mass.
            let leftover = prob[l as usize] + prob[s as usize] - 1.0;
            prob[l as usize] = leftover;
            if leftover < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Remaining entries are 1.0 up to floating-point error.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }

        AliasTable { prob, alias }
    }

    /// Number of outcomes.
    #[inline]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no outcomes (never: construction forbids it).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws an outcome index in `0..len()` in O(1).
    ///
    /// The coin is near fair for most columns, so a branch on it mispredicts
    /// about every other draw. Both outcomes are loaded before the compare
    /// and the result is a select between two values already in registers,
    /// which the compiler can lower to a conditional move.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.gen_range(0..self.prob.len());
        let coin = rng.gen::<f64>();
        let alias = self.alias[i] as usize;
        if coin < self.prob[i] {
            i
        } else {
            alias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn frequencies(table: &AliasTable, draws: usize, seed: u64) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut counts = vec![0u64; table.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn single_outcome_always_sampled() {
        let t = AliasTable::new(&[3.0]);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(t.sample(&mut rng), 0);
        }
    }

    #[test]
    fn zero_weight_outcome_never_sampled() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let t = AliasTable::new(&[1.0; 8]);
        let freqs = frequencies(&t, 200_000, 3);
        for f in freqs {
            assert!((f - 0.125).abs() < 0.01, "freq {f} too far from 1/8");
        }
    }

    #[test]
    fn skewed_weights_match_probabilities() {
        let weights = [1.0, 2.0, 4.0, 8.0];
        let total: f64 = weights.iter().sum();
        let t = AliasTable::new(&weights);
        let freqs = frequencies(&t, 400_000, 4);
        for (f, w) in freqs.iter().zip(weights.iter()) {
            let expect = w / total;
            assert!((f - expect).abs() < 0.01, "freq {f} vs expected {expect}");
        }
    }

    /// The body `sample` had before it became a select: a branch on the coin.
    fn branchy_sample<R: Rng + ?Sized>(t: &AliasTable, rng: &mut R) -> usize {
        let i = rng.gen_range(0..t.prob.len());
        if rng.gen::<f64>() < t.prob[i] {
            i
        } else {
            t.alias[i] as usize
        }
    }

    /// Same outcome for every draw and the same RNG state afterwards.
    fn assert_select_draws_what_the_branch_drew(weights: &[f64], seed: u64) {
        let t = AliasTable::new(weights);
        let mut a = SmallRng::seed_from_u64(seed);
        let mut b = a.clone();
        for draw in 0..500 {
            let got = t.sample(&mut a);
            assert_eq!(got, branchy_sample(&t, &mut b), "draw {draw} of {weights:?}");
            assert!(weights[got] > 0.0, "drew zero-weight outcome {got} of {weights:?}");
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG state after {weights:?}");
    }

    #[test]
    fn select_equals_branch_on_the_edge_cases() {
        // A single outcome, zero weights, and columns whose `prob` is
        // exactly 1.0 (equal weights scale to it), where `coin < prob`
        // always keeps the column.
        assert_eq!(AliasTable::new(&[2.0; 8]).prob, [1.0; 8]);
        for weights in [&[3.0][..], &[1.0, 0.0, 1.0], &[0.0, 0.0, 5.0], &[2.0; 8]] {
            assert_select_draws_what_the_branch_drew(weights, 9);
        }
    }

    proptest::proptest! {
        #[test]
        fn select_equals_branch_on_any_weights(
            weights in proptest::collection::vec(0u32..5, 1..40),
            seed in proptest::prelude::any::<u64>(),
        ) {
            proptest::prop_assume!(weights.iter().any(|&w| w > 0));
            let weights: Vec<f64> = weights.into_iter().map(f64::from).collect();
            assert_select_draws_what_the_branch_drew(&weights, seed);
        }
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn empty_weights_panic() {
        let _ = AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn all_zero_weights_panic() {
        let _ = AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_panics() {
        let _ = AliasTable::new(&[1.0, -0.5]);
    }
}
