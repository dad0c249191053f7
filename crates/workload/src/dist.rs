//! Key-access distributions.
//!
//! [`Sampler`] turns a [`KeyDistribution`] plus an RNG into a stream of
//! key indices in `[0, num_keys)`: uniform (the paper's default update
//! workload) or Zipfian (its skewed one). The Zipfian implementation follows the
//! YCSB generator (Gray et al.'s rejection method with precomputed zeta),
//! giving the familiar skew where `theta = 0.99` sends ~90% of accesses
//! to ~10% of keys. Its constants are computed once per key space and
//! shared by every sampler built over it, so constructing a sampler is
//! O(1) in the key space after the first.

use std::sync::{Mutex, PoisonError};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which keys a workload touches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every key equally likely (the paper's default update workload).
    Uniform,
    /// YCSB-style Zipfian with parameter `theta` in (0, 1).
    Zipfian {
        /// Skew parameter; 0.99 is the YCSB default.
        theta: f64,
    },
}

/// Stateful sampler of key indices.
#[derive(Debug, Clone)]
pub struct Sampler {
    dist: KeyDistribution,
    num_keys: u64,
    rng: SmallRng,
    zipf: ZipfParams,
}

/// The constants of the YCSB Zipfian generator over one key space:
/// what [`Sampler::sample`] needs besides the RNG draw and the key count.
#[derive(Debug, Clone, Copy, Default)]
struct ZipfParams {
    zeta_n: f64,
    eta: f64,
    alpha: f64,
    /// `1 + 0.5^θ`: a scaled draw below it is rank 1.
    rank1_bound: f64,
}

/// The last key space [`zipf_params_memo`] computed, keyed by
/// `(num_keys, θ.to_bits())`. ζ(n, θ) is a sum over every key, and every
/// client of a run builds its own generator over the same key space
/// (4 096 of them in the serving fan-in), so the memo makes all but the
/// first construction O(1). `zipf_params` is a pure function: a hit
/// returns exactly the bits a recomputation would. One slot suffices
/// because callers build clients in order and tenants are contiguous
/// blocks of clients; a miss only costs the recomputation.
static ZIPF_MEMO: Mutex<Option<((u64, u64), ZipfParams)>> = Mutex::new(None);

impl Sampler {
    /// Builds a sampler over `[0, num_keys)`.
    pub fn new(dist: KeyDistribution, num_keys: u64, seed: u64) -> Self {
        assert!(num_keys > 0, "empty key space");
        let zipf = match dist {
            KeyDistribution::Zipfian { theta } => {
                assert!(theta > 0.0 && theta < 1.0, "theta must be in (0,1)");
                zipf_params_memo(num_keys, theta)
            }
            KeyDistribution::Uniform => ZipfParams::default(),
        };
        Self {
            dist,
            num_keys,
            rng: SmallRng::seed_from_u64(seed),
            zipf,
        }
    }

    /// The distribution this sampler draws from.
    pub fn distribution(&self) -> KeyDistribution {
        self.dist
    }

    /// Next key index.
    pub fn sample(&mut self) -> u64 {
        match self.dist {
            KeyDistribution::Uniform => self.rng.gen_range(0..self.num_keys),
            KeyDistribution::Zipfian { .. } => self.zipf_rank(),
        }
    }

    #[allow(
        clippy::disallowed_methods,
        reason = "the YCSB Zipf draw is a power; the recorded streams pin its bits"
    )]
    fn zipf_rank(&mut self) -> u64 {
        let ZipfParams {
            zeta_n,
            eta,
            alpha,
            rank1_bound,
        } = self.zipf;
        let u: f64 = self.rng.gen();
        let uz = u * zeta_n;
        if uz < 1.0 {
            return 0;
        }
        if uz < rank1_bound {
            return 1;
        }
        let rank = (self.num_keys as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64;
        rank.min(self.num_keys - 1)
    }
}

/// [`zipf_params`] through the one-slot [`ZIPF_MEMO`].
fn zipf_params_memo(num_keys: u64, theta: f64) -> ZipfParams {
    let key = (num_keys, theta.to_bits());
    // The slot is written in one assignment of a finished value, so a
    // guard recovered from a poisoned lock still holds a valid entry.
    let mut memo = ZIPF_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((memo_key, params)) = *memo {
        if memo_key == key {
            return params;
        }
    }
    let params = zipf_params(num_keys, theta);
    *memo = Some((key, params));
    params
}

#[allow(
    clippy::disallowed_methods,
    reason = "the YCSB Zipf constants are powers; the recorded streams pin their bits"
)]
fn zipf_params(num_keys: u64, theta: f64) -> ZipfParams {
    let zeta_n = zeta(num_keys, theta);
    let zeta2 = zeta(2, theta);
    let alpha = 1.0 / (1.0 - theta);
    let eta = (1.0 - (2.0 / num_keys as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
    ZipfParams {
        zeta_n,
        eta,
        alpha,
        rank1_bound: 1.0 + 0.5f64.powf(theta),
    }
}

#[allow(
    clippy::disallowed_methods,
    reason = "the YCSB Zipf constants are powers; the recorded streams pin their bits"
)]
fn zeta(n: u64, theta: f64) -> f64 {
    // Exact for small n, Euler–Maclaurin tail approximation for large n
    // (keeps construction O(1)-ish for the multi-million key spaces).
    const EXACT_LIMIT: u64 = 1_000_000;
    if n <= EXACT_LIMIT {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    } else {
        let head: f64 = (1..=EXACT_LIMIT)
            .map(|i| 1.0 / (i as f64).powf(theta))
            .sum();
        // Integral approximation of the tail.
        let a = EXACT_LIMIT as f64;
        let b = n as f64;
        head + (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let mut s = Sampler::new(KeyDistribution::Uniform, 100, 1);
        let mut seen = [false; 100];
        for _ in 0..10_000 {
            seen[s.sample() as usize] = true;
        }
        assert!(
            seen.iter().filter(|&&b| b).count() > 95,
            "uniform must cover the space"
        );
    }

    #[test]
    fn zipfian_is_skewed() {
        let n = 10_000;
        let mut s = Sampler::new(KeyDistribution::Zipfian { theta: 0.99 }, n, 1);
        let mut counts = vec![0u32; n as usize];
        let draws = 100_000;
        for _ in 0..draws {
            counts[s.sample() as usize] += 1;
        }
        // Hot 10% of ranks should receive the majority of accesses.
        let hot: u32 = counts[..(n as usize / 10)].iter().sum();
        assert!(
            hot as f64 / draws as f64 > 0.6,
            "zipfian skew too weak: {}",
            hot as f64 / draws as f64
        );
        // And it must still touch a long tail.
        assert!(counts[(n as usize / 2)..].iter().any(|&c| c > 0));
    }

    #[test]
    fn samples_always_in_range() {
        for dist in [
            KeyDistribution::Uniform,
            KeyDistribution::Zipfian { theta: 0.5 },
        ] {
            let mut s = Sampler::new(dist, 17, 99);
            for _ in 0..5_000 {
                assert!(s.sample() < 17);
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = Sampler::new(KeyDistribution::Zipfian { theta: 0.9 }, 1000, 7);
        let mut b = Sampler::new(KeyDistribution::Zipfian { theta: 0.9 }, 1000, 7);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "test: the exact sum the tail approximates"
    )]
    fn zeta_tail_approximation_is_close() {
        // Compare approximation vs exact slightly above the limit.
        let exact: f64 = (1..=1_100_000u64)
            .map(|i| 1.0 / (i as f64).powf(0.99))
            .sum();
        let approx = zeta(1_100_000, 0.99);
        assert!((exact - approx).abs() / exact < 1e-3);
    }
}
