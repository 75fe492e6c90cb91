//! Deterministic hashing for detection decisions.
//!
//! A real network is a deterministic function of its input: the same frame
//! at the same resolution always produces the same boxes. The simulators
//! get the same property by deriving every stochastic-looking decision from
//! a splitmix64 hash of `(model seed, frame id, object id, resolution,
//! stream)` — *not* from a shared RNG, whose state would depend on
//! processing order and break the §3.3.2 reuse cache.

/// splitmix64 — fast, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Combines a list of words into one hash.
pub fn combine(words: &[u64]) -> u64 {
    let mut acc = 0x51_7C_C1_B7_27_22_0A_95u64;
    for &w in words {
        acc = splitmix64(acc ^ w);
    }
    acc
}

/// Uniform `[0, 1)` value derived from the hash of the given words.
pub fn uniform01(words: &[u64]) -> f64 {
    // 53 high-quality mantissa bits.
    (combine(words) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic Poisson draw with mean `lambda`, derived from the words;
/// `exp_neg_lambda` is `(-lambda).exp()`, which callers drawing many times
/// at one rate compute once. Uses inversion by sequential search (fine for
/// the small rates used by false-positive models).
pub fn poisson(words: &[u64], lambda: f64, exp_neg_lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let mut u = uniform01(words);
    let mut p = exp_neg_lambda;
    let mut k = 0u32;
    while u > p && k < 1_000 {
        u -= p;
        k += 1;
        p *= lambda / k as f64;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(combine(&[1, 2, 3]), combine(&[1, 2, 3]));
        assert_ne!(combine(&[1, 2, 3]), combine(&[1, 2, 4]));
        assert_ne!(combine(&[1, 2, 3]), combine(&[3, 2, 1]));
    }

    #[test]
    fn uniform01_in_range_and_spread() {
        let mut buckets = [0u32; 10];
        for i in 0..10_000u64 {
            let u = uniform01(&[i, 7]);
            assert!((0.0..1.0).contains(&u));
            buckets[(u * 10.0) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket {b} far from uniform");
        }
    }

    #[test]
    fn poisson_mean_close_to_lambda() {
        let lambda = 2.5;
        let mean: f64 = (0..20_000u64)
            .map(|i| f64::from(poisson(&[i, 99], lambda, (-lambda).exp())))
            .sum::<f64>()
            / 20_000.0;
        assert!((mean - lambda).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        assert_eq!(poisson(&[1], 0.0, 1.0), 0);
        assert_eq!(poisson(&[1], -3.0, 3f64.exp()), 0);
    }
}
