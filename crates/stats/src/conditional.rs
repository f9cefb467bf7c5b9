//! Conditional empirical distributions `p(a | b)` with log2 bucketing of the
//! conditioning variable.
//!
//! The paper's preliminary steps (Fig. 1) compute the unconditional
//! distribution of `IN_BYTES` and, for every other NetFlow attribute `a`, the
//! conditional `p(a | IN_BYTES)`. At generation time an `IN_BYTES` value is
//! drawn first and the remaining attributes are drawn conditioned on it, so a
//! 2-byte flow does not end up with a 3-hour duration.

use crate::empirical::EmpiricalDistribution;
use rand::Rng;

/// `p(target | bucket(conditioner))`, with the conditioner bucketed in powers
/// of two and a marginal fallback for unseen buckets.
#[derive(Debug, Clone)]
pub struct ConditionalDistribution {
    /// Per-bucket distributions; `None` for buckets with no observations.
    buckets: Vec<Option<EmpiricalDistribution>>,
    /// Marginal distribution over all observations, used as fallback.
    marginal: EmpiricalDistribution,
}

impl ConditionalDistribution {
    /// The bucket a conditioner value falls in: bucket `i > 0` is
    /// `[2^i, 2^(i+1))`, bucket 0 is `{0, 1}`. The one function observations
    /// are filed under and lookups go through; integer, so it is exact up to
    /// `u64::MAX` and the same on every platform.
    #[inline]
    pub fn bucket_of(conditioner: u64) -> usize {
        conditioner.max(1).ilog2() as usize
    }

    /// Builds the conditional distribution from `(conditioner, target)`
    /// observation pairs.
    ///
    /// # Panics
    /// Panics if `pairs` is empty.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut per_bucket: Vec<Vec<u64>> = Vec::new();
        let mut all: Vec<u64> = Vec::new();
        for (cond, target) in pairs {
            let b = Self::bucket_of(cond);
            if b >= per_bucket.len() {
                per_bucket.resize_with(b + 1, Vec::new);
            }
            per_bucket[b].push(target);
            all.push(target);
        }
        assert!(!all.is_empty(), "conditional distribution needs observations");
        let marginal = EmpiricalDistribution::from_samples(all);
        let buckets = per_bucket
            .into_iter()
            .map(|samples| {
                if samples.is_empty() {
                    None
                } else {
                    Some(EmpiricalDistribution::from_samples(samples))
                }
            })
            .collect();
        ConditionalDistribution { buckets, marginal }
    }

    /// Samples the target attribute conditioned on the given conditioner
    /// value: [`Self::bucket_of`], then [`Self::sample_in_bucket`].
    #[inline]
    pub fn sample_given<R: Rng + ?Sized>(&self, conditioner: u64, rng: &mut R) -> u64 {
        self.sample_in_bucket(Self::bucket_of(conditioner), rng)
    }

    /// Samples the target attribute within one conditioner bucket, for
    /// callers that already know it. Falls back to the marginal for a bucket
    /// never observed in the seed.
    #[inline]
    pub fn sample_in_bucket<R: Rng + ?Sized>(&self, bucket: usize, rng: &mut R) -> u64 {
        match self.buckets.get(bucket) {
            Some(Some(d)) => d.sample(rng),
            _ => self.marginal.sample(rng),
        }
    }

    /// The marginal (unconditional) distribution of the target.
    pub fn marginal(&self) -> &EmpiricalDistribution {
        &self.marginal
    }

    /// Number of conditioning buckets with observations.
    pub fn populated_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| b.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn conditions_on_bucket() {
        // conditioner < 2 -> target 10; conditioner in [1024, 2048) -> target 99.
        let pairs = (0..50).map(|_| (1u64, 10u64)).chain((0..50).map(|_| (1500u64, 99u64)));
        let d = ConditionalDistribution::from_pairs(pairs);
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(d.sample_given(1, &mut rng), 10);
            assert_eq!(d.sample_given(1400, &mut rng), 99);
        }
    }

    #[test]
    fn unseen_bucket_falls_back_to_marginal() {
        let d = ConditionalDistribution::from_pairs([(1u64, 10u64), (1u64, 10u64)]);
        let mut rng = SmallRng::seed_from_u64(6);
        // 1e6 is far beyond any observed bucket.
        assert_eq!(d.sample_given(1_000_000, &mut rng), 10);
    }

    #[test]
    fn neighbours_across_a_high_power_of_two_do_not_share_a_bucket() {
        // Through ln() / ln(2), 2^k - 1 lands in bucket k for every k >= 48.
        let d = ConditionalDistribution::from_pairs([((1 << 48) - 1, 7), (1 << 48, 9)]);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(d.sample_given((1 << 48) - 1, &mut rng), 7);
        }
    }

    #[test]
    fn bucket_i_is_two_to_the_i_up_to_two_to_the_i_plus_one() {
        for (value, bucket) in [(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (u64::MAX, 63)] {
            assert_eq!(ConditionalDistribution::bucket_of(value), bucket, "{value}");
        }
        for k in 2..64 {
            assert_eq!(ConditionalDistribution::bucket_of((1 << k) - 1), k - 1, "2^{k} - 1");
            assert_eq!(ConditionalDistribution::bucket_of(1 << k), k, "2^{k}");
        }
    }

    #[test]
    fn populated_bucket_count() {
        let d = ConditionalDistribution::from_pairs([(1u64, 1u64), (1000u64, 2u64)]);
        assert_eq!(d.populated_buckets(), 2);
    }

    #[test]
    fn marginal_mixes_all_targets() {
        let pairs = (0..500).map(|_| (1u64, 0u64)).chain((0..500).map(|_| (4096u64, 1u64)));
        let d = ConditionalDistribution::from_pairs(pairs);
        assert!((d.marginal().pmf(0) - 0.5).abs() < 1e-12);
        assert!((d.marginal().pmf(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "needs observations")]
    fn empty_pairs_panic() {
        let _ = ConditionalDistribution::from_pairs(std::iter::empty());
    }
}
