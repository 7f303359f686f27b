//! Measurement-noise models.
//!
//! The simulator itself is deterministic; what varies between repetitions of
//! a real-hardware measurement is the *observation*: OS jitter, counter
//! multiplexing error, frequency scaling, unrelated background activity.
//! Each raw event therefore carries a noise model applied at PMU read time,
//! driven by a seeded RNG so that every experiment is reproducible.
//!
//! The models reproduce the structure of the paper's Figure 2: purely
//! architectural counters (instruction counts) read back exactly, giving the
//! zero-variability cluster; cycle- and cache-flavored events carry
//! multiplicative jitter; a tail of "unrelated" events fluctuates
//! independently of the workload.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// How a raw event's read-back deviates from the true count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseModel {
    /// Architectural counter: reads back exactly.
    None,
    /// Multiplicative jitter: `count * (1 + sigma * g)` with `g ~ N(0,1)`.
    Multiplicative {
        /// Relative standard deviation.
        sigma: f64,
    },
    /// Additive jitter: `count + scale * |g|` (background occurrences that
    /// only ever add counts, e.g. interrupt handling).
    Additive {
        /// Absolute scale of the additive term.
        scale: f64,
    },
    /// The event does not measure the workload at all: reads back
    /// `mean * (1 + spread * g)` regardless of the true count.
    Unrelated {
        /// Mean background level.
        mean: f64,
        /// Relative spread.
        spread: f64,
    },
}

impl NoiseModel {
    /// Applies the model to a true count, clamping at zero (counters never
    /// go negative).
    pub fn apply(&self, true_count: f64, rng: &mut impl Rng) -> f64 {
        let v = match *self {
            NoiseModel::None => true_count,
            NoiseModel::Multiplicative { sigma } => true_count * (1.0 + sigma * gaussian(rng)),
            NoiseModel::Additive { scale } => true_count + scale * gaussian(rng).abs(),
            NoiseModel::Unrelated { mean, spread } => mean * (1.0 + spread * gaussian(rng)),
        };
        v.max(0.0)
    }

    /// [`NoiseModel::apply`] with the stream of `event_rng(seed, event,
    /// run)`, bit for bit, seeding and drawing only when the value depends
    /// on the draw; otherwise it returns `truth.max(0.0)`. The value does
    /// not depend on the draw for:
    ///
    /// * `None`;
    /// * `Multiplicative` on a `+0.0` count with `|sigma| * 38 < 1`.
    ///   Box–Muller bounds every draw: `|g| <= sqrt(-2 ln
    ///   f64::MIN_POSITIVE) < 37.65`, so `1 + sigma * g > 0` and
    ///   `0.0 * (1 + sigma * g)` is `+0.0` before the clamp. A wider sigma
    ///   can make the factor negative and the product `-0.0`, and then the
    ///   clamp's choice between the two zeros decides the sign bit.
    ///
    /// Every stream is seeded from its own triple, so a skipped draw moves
    /// no other value.
    pub fn observe(&self, truth: f64, seed: u64, event: usize, run: usize) -> f64 {
        if self.draws(truth) {
            self.apply(truth, &mut event_rng(seed, event, run))
        } else {
            truth.max(0.0)
        }
    }

    /// Whether reading `truth` through this model depends on the noise
    /// draw (see [`NoiseModel::observe`]).
    fn draws(&self, truth: f64) -> bool {
        match *self {
            NoiseModel::None => false,
            NoiseModel::Multiplicative { sigma } => {
                !(truth.to_bits() == 0 && sigma.abs() * 38.0 < 1.0)
            }
            NoiseModel::Additive { .. } | NoiseModel::Unrelated { .. } => true,
        }
    }

    /// True when the model always returns the exact count.
    pub fn is_exact(&self) -> bool {
        matches!(self, NoiseModel::None)
    }
}

/// Standard normal via Box–Muller (rand_distr is deliberately not a
/// dependency).
pub fn gaussian(rng: &mut impl Rng) -> f64 {
    // Avoid u == 0 so ln(u) is finite.
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let v: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    (-2.0 * u.ln()).sqrt() * v.cos()
}

/// A deterministic per-(event, run) RNG stream.
///
/// Each `(seed, event_index, run_index)` triple yields an independent,
/// reproducible stream, so re-running one event or one repetition never
/// shifts the noise of the others.
pub fn event_rng(seed: u64, event_index: usize, run_index: usize) -> StdRng {
    let mix = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((event_index as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((run_index as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    StdRng::seed_from_u64(mix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_exact() {
        let mut rng = event_rng(1, 0, 0);
        assert_eq!(NoiseModel::None.apply(123.0, &mut rng), 123.0);
        assert!(NoiseModel::None.is_exact());
        assert!(!NoiseModel::Additive { scale: 1.0 }.is_exact());
    }

    #[test]
    fn multiplicative_stays_close() {
        let m = NoiseModel::Multiplicative { sigma: 1e-3 };
        let mut rng = event_rng(2, 1, 0);
        for _ in 0..100 {
            let v = m.apply(1000.0, &mut rng);
            assert!((v - 1000.0).abs() < 1000.0 * 0.01, "v = {v}");
        }
    }

    #[test]
    fn additive_only_adds() {
        let m = NoiseModel::Additive { scale: 5.0 };
        let mut rng = event_rng(3, 2, 0);
        for _ in 0..100 {
            assert!(m.apply(10.0, &mut rng) >= 10.0);
        }
    }

    #[test]
    fn unrelated_ignores_count() {
        let m = NoiseModel::Unrelated { mean: 50.0, spread: 0.1 };
        let mut rng1 = event_rng(4, 3, 0);
        let mut rng2 = event_rng(4, 3, 0);
        let a = m.apply(0.0, &mut rng1);
        let b = m.apply(1e9, &mut rng2);
        assert_eq!(a, b, "same stream, same value, independent of count");
        assert!(a > 0.0);
    }

    #[test]
    fn never_negative() {
        let m = NoiseModel::Multiplicative { sigma: 10.0 };
        let mut rng = event_rng(5, 0, 0);
        for _ in 0..200 {
            assert!(m.apply(1.0, &mut rng) >= 0.0);
        }
    }

    #[test]
    fn rng_streams_are_independent_and_reproducible() {
        let a1: f64 = event_rng(7, 1, 2).gen();
        let a2: f64 = event_rng(7, 1, 2).gen();
        assert_eq!(a1, a2, "same triple, same stream");
        let b: f64 = event_rng(7, 1, 3).gen();
        let c: f64 = event_rng(7, 2, 2).gen();
        assert_ne!(a1, b);
        assert_ne!(a1, c);
    }

    #[test]
    fn observe_matches_apply_bit_for_bit() {
        let models = [
            NoiseModel::None,
            NoiseModel::Multiplicative { sigma: 0.02 },
            NoiseModel::Multiplicative { sigma: -0.026 },
            // 1/38 sits between these two: the first may skip the draw.
            NoiseModel::Multiplicative { sigma: 0.0263 },
            NoiseModel::Multiplicative { sigma: 0.0264 },
            NoiseModel::Multiplicative { sigma: 0.3 },
            // Here `1 + sigma * g < 0` in a share of draws, so a zero count
            // reads back as `0.0 * negative`; skipping those draws would
            // be wrong wherever `max` keeps the `-0.0`.
            NoiseModel::Multiplicative { sigma: 0.9 },
            NoiseModel::Multiplicative { sigma: -1.5 },
            NoiseModel::Multiplicative { sigma: 10.0 },
            NoiseModel::Additive { scale: 5.0 },
            NoiseModel::Unrelated { mean: 50.0, spread: 0.1 },
            NoiseModel::Unrelated { mean: 50.0, spread: 3.0 },
        ];
        let counts = [0.0, -0.0, 1.0, 123.5, -7.0, 1e12, f64::NAN];
        let mut checked = 0;
        for model in models {
            for truth in counts {
                for t in 0..1_000u64 {
                    let (seed, event, run) = (t * 0x9E37, (t % 97) as usize, (t * 31) as usize);
                    let at = format!("{model:?} on {truth}: seed {seed}, event {event}, run {run}");
                    let want = model.apply(truth, &mut event_rng(seed, event, run));
                    let got = model.observe(truth, seed, event, run);
                    assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                    // A skipped multiplicative draw must not matter even
                    // before the clamp, whose choice between `-0.0` and
                    // `+0.0` can vary with code generation.
                    if let NoiseModel::Multiplicative { sigma } = model {
                        if !model.draws(truth) {
                            let g = gaussian(&mut event_rng(seed, event, run));
                            let raw = truth * (1.0 + sigma * g);
                            assert_eq!(raw.to_bits(), got.to_bits(), "{at}: unclamped");
                        }
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, models.len() * counts.len() * 1_000);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
