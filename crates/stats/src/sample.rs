//! Seeded sampling without replacement.
//!
//! Every estimator in the paper assumes frames are drawn **without
//! replacement** (the Hoeffding–Serfling and hypergeometric machinery both
//! depend on it). This module provides:
//!
//! * one-shot uniform samples of `n` indices out of `N`,
//! * [`PrefixSampler`], a random permutation whose prefixes are themselves
//!   uniform without-replacement samples. Nested prefixes are what make the
//!   paper's §3.3.2 reuse strategy sound: the model outputs computed for a
//!   sample at fraction `f` are reused verbatim when the fraction is raised
//!   to `f' > f`.

use smokescreen_rt::rng::StdRng;

use crate::{Result, StatsError};

/// Draws `n` distinct indices uniformly from `0..population` using a partial
/// Fisher–Yates shuffle (O(n) extra memory beyond the index vector).
pub fn sample_indices(population: usize, n: usize, seed: u64) -> Result<Vec<usize>> {
    if n == 0 {
        return Err(StatsError::EmptySample);
    }
    if n > population {
        return Err(StatsError::SampleExceedsPopulation { n, population });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..population).collect();
    for i in 0..n {
        let j = rng.gen_range(i..population);
        indices.swap(i, j);
    }
    indices.truncate(n);
    Ok(indices)
}

/// Converts a sample fraction `f ∈ (0, 1]` over a population of `N` into a
/// sample size, always keeping at least one frame.
pub fn fraction_to_size(population: usize, fraction: f64) -> Result<usize> {
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(StatsError::InvalidFraction(fraction));
    }
    Ok(((population as f64 * fraction).round() as usize)
        .max(1)
        .min(population))
}

/// A full random permutation of `0..population` whose prefixes are uniform
/// without-replacement samples.
///
/// `prefix(a) ⊆ prefix(b)` whenever `a ≤ b`, so model outputs computed for
/// smaller fractions can be reused for larger ones — the early-stopping and
/// reuse strategy of §3.3.2.
#[derive(Debug, Clone)]
pub struct PrefixSampler {
    permutation: Vec<usize>,
}

impl PrefixSampler {
    /// Builds the permutation for the given population and seed.
    pub fn new(population: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut permutation: Vec<usize> = (0..population).collect();
        // Fisher–Yates.
        for i in (1..population).rev() {
            let j = rng.gen_range(0..=i);
            permutation.swap(i, j);
        }
        PrefixSampler { permutation }
    }

    /// Population size the permutation covers.
    pub fn population(&self) -> usize {
        self.permutation.len()
    }

    /// The first `n` indices of the permutation (a uniform sample of size
    /// `n` without replacement). `n` is clamped to the population.
    pub fn prefix(&self, n: usize) -> &[usize] {
        &self.permutation[..n.min(self.permutation.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let s = sample_indices(100, 40, 7).unwrap();
        assert_eq!(s.len(), 40);
        let set: HashSet<_> = s.iter().copied().collect();
        assert_eq!(set.len(), 40);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_full_population() {
        let s = sample_indices(10, 10, 3).unwrap();
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_rejects_oversample() {
        assert!(matches!(
            sample_indices(5, 6, 0),
            Err(StatsError::SampleExceedsPopulation { .. })
        ));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        assert_eq!(
            sample_indices(1000, 50, 42).unwrap(),
            sample_indices(1000, 50, 42).unwrap()
        );
        assert_ne!(
            sample_indices(1000, 50, 42).unwrap(),
            sample_indices(1000, 50, 43).unwrap()
        );
    }

    #[test]
    fn fraction_to_size_bounds() {
        assert_eq!(fraction_to_size(1000, 0.1).unwrap(), 100);
        assert_eq!(fraction_to_size(1000, 1.0).unwrap(), 1000);
        assert_eq!(fraction_to_size(1000, 1e-9).unwrap(), 1); // floor of 1
        assert!(fraction_to_size(1000, 0.0).is_err());
        assert!(fraction_to_size(1000, 1.5).is_err());
    }

    #[test]
    fn prefix_sampler_nesting() {
        let p = PrefixSampler::new(500, 9);
        let small: HashSet<_> = p.prefix(50).iter().copied().collect();
        let large: HashSet<_> = p.prefix(200).iter().copied().collect();
        assert!(small.is_subset(&large));
        assert_eq!(p.prefix(1000).len(), 500); // clamped
    }

    #[test]
    fn prefix_is_a_permutation() {
        let p = PrefixSampler::new(64, 1);
        let mut all = p.prefix(64).to_vec();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn prefix_sampler_uniformity_smoke() {
        // Index 0's position in the prefix of size 10 should hit ~10% of
        // seeds over many permutations of population 100.
        let mut hits = 0;
        for seed in 0..2000 {
            let p = PrefixSampler::new(100, seed);
            if p.prefix(10).contains(&0) {
                hits += 1;
            }
        }
        let rate = hits as f64 / 2000.0;
        assert!((rate - 0.1).abs() < 0.03, "rate={rate}");
    }
}
