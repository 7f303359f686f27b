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
        let g = if self.is_exact() { 0.0 } else { gaussian(rng) };
        self.read_back(true_count, g)
    }

    /// The model's read-back of a true count given the standard normal
    /// draw `g`, clamped at zero: the one formula behind [`Self::apply`]
    /// and [`EventNoise::read_row`]. `None` ignores `g`.
    fn read_back(&self, true_count: f64, g: f64) -> f64 {
        let v = match *self {
            NoiseModel::None => true_count,
            NoiseModel::Multiplicative { sigma } => true_count * (1.0 + sigma * g),
            NoiseModel::Additive { scale } => true_count + scale * g.abs(),
            NoiseModel::Unrelated { mean, spread } => mean * (1.0 + spread * g),
        };
        v.max(0.0)
    }

    /// Binds this model to event `event`'s noise streams under `seed`;
    /// [`EventNoise::read_row`] then reads a row of counts, one per run
    /// key. It works out once what a `+0.0` count needs, so a sweep builds
    /// one per row of reads.
    pub(crate) fn for_event(&self, seed: u64, event: usize) -> EventNoise {
        let zero = match *self {
            NoiseModel::Multiplicative { sigma } if sigma.abs() * 38.0 < 1.0 => ZeroRead::Settled,
            NoiseModel::Multiplicative { sigma } => {
                zero_floor(sigma).map_or(ZeroRead::Drawn, ZeroRead::Floor)
            }
            _ => ZeroRead::Drawn,
        };
        EventNoise { model: *self, seed, event, zero }
    }

    /// True when the model always returns the exact count.
    pub fn is_exact(&self) -> bool {
        matches!(self, NoiseModel::None)
    }
}

/// A [`NoiseModel`] bound to one event's noise streams (see
/// [`NoiseModel::for_event`]), which reads rows of counts in two phases
/// with [`EventNoise::read_row`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventNoise {
    model: NoiseModel,
    seed: u64,
    event: usize,
    /// What a `+0.0` count needs to read back `+0.0`.
    zero: ZeroRead,
}

/// What a `+0.0` count needs before it reads back `+0.0` without the full
/// transform (see [`EventNoise::read_row`]).
#[derive(Debug, Clone, Copy)]
enum ZeroRead {
    /// Nothing: `Multiplicative` with `|sigma| * 38 < 1`.
    Settled,
    /// A first uniform at or above this floor.
    Floor(f64),
    /// The full transform.
    Drawn,
}

/// Reads per phase of [`EventNoise::read_row`]: a row is read in windows
/// of this many counts, whose pending draws wait in a stack buffer.
const CHUNK: usize = 64;

impl EventNoise {
    /// Reads a row of counts: `out[i]` becomes [`NoiseModel::apply`] of
    /// `truths[i]` with the stream of `event_rng(seed, event, run(i))`, bit
    /// for bit. Returns how many reads ran the full transform; the rest
    /// settle to `truth.max(0.0)` because their value cannot depend on it:
    ///
    /// * `None`, which seeds nothing;
    /// * `Multiplicative` on a `+0.0` count with `|sigma| * 38 < 1`, which
    ///   seeds nothing either. Box–Muller bounds every draw: `|g| <=
    ///   sqrt(-2 ln f64::MIN_POSITIVE) < 37.65`, so `1 + sigma * g > 0`
    ///   and `0.0 * (1 + sigma * g)` is `+0.0` before the clamp;
    /// * `Multiplicative` on a `+0.0` count whose first uniform `u` clears
    ///   the floor `exp(-(1 - ZERO_MARGIN) / (2 sigma²))`. This seeds the
    ///   stream and draws `u` as [`gaussian`] does, but skips the second
    ///   uniform, `ln`, `sqrt` and `cos`. Since `|g| <= sqrt(-2 ln u)`,
    ///   `u` at or above the floor gives `|sigma * g| <= sqrt(1 -
    ///   ZERO_MARGIN)`, so the factor is positive and the product `+0.0`.
    ///   The margin (about 5e-4 of the bound) dwarfs the few ulps that
    ///   `exp`, `ln`, `sqrt`, `cos` and the products round by, but only
    ///   while the floor is at most 1/2 (`|sigma|` up to about 0.85):
    ///   there `-2 ln floor` is at least `2 ln 2`, while as the floor
    ///   nears 1 its own rounding alone is a growing share of `-2 ln
    ///   floor`. A wider, NaN or infinite sigma therefore always runs the
    ///   full transform, and so does a `u` below the floor.
    ///
    /// A wider factor can turn negative and the product `-0.0`, and then
    /// the clamp's choice between the two zeros decides the sign bit. For
    /// the same reason a `-0.0` count always draws. A NaN count reads back
    /// `+0.0` whatever the draw, but no sweep produces one, so it takes the
    /// general path rather than a rule of its own.
    ///
    /// The row is read in windows of [`CHUNK`] counts. Phase one walks a
    /// window, settles what it can, and for every other read seeds its
    /// stream and draws `u` then the angle `v` into the buffer, as
    /// [`gaussian`] would. Phase two evaluates Box–Muller and the model's
    /// formula over the buffered reads. Every stream is seeded from its
    /// own triple, so neither a skipped draw nor the order of the work
    /// moves any value; keeping the `cos` calls out of the seeding loop
    /// keeps their mispredicted branches from discarding the next reads'
    /// integer work.
    ///
    /// # Panics
    /// If `truths` and `out` differ in length.
    pub(crate) fn read_row(
        &self,
        truths: &[f64],
        run: impl Fn(usize) -> usize,
        out: &mut [f64],
    ) -> u64 {
        assert_eq!(truths.len(), out.len(), "read_row: one output per true count");
        if self.model.is_exact() {
            for (slot, &truth) in out.iter_mut().zip(truths) {
                *slot = self.model.read_back(truth, 0.0);
            }
            return 0;
        }
        let mut draws = 0;
        // (slot in the window, first uniform, angle) of each pending draw.
        let mut pending = [(0, 0.0, 0.0); CHUNK];
        let windows = truths.chunks(CHUNK).zip(out.chunks_mut(CHUNK));
        for (w, (truths, out)) in windows.enumerate() {
            let mut n = 0;
            for (i, (&truth, slot)) in truths.iter().zip(out.iter_mut()).enumerate() {
                let zero = truth.to_bits() == 0;
                if zero && matches!(self.zero, ZeroRead::Settled) {
                    *slot = 0.0;
                    continue;
                }
                let mut rng = event_rng(self.seed, self.event, run(w * CHUNK + i));
                let u = first_uniform(&mut rng);
                if zero && matches!(self.zero, ZeroRead::Floor(floor) if u >= floor) {
                    *slot = 0.0;
                    continue;
                }
                pending[n] = (i, u, angle(&mut rng));
                n += 1;
            }
            for &(i, u, v) in &pending[..n] {
                out[i] = self.model.read_back(truths[i], box_muller(u, v));
            }
            draws += n as u64;
        }
        draws
    }
}

/// How far below 1 a skipped multiplicative draw keeps `|sigma * g|`
/// squared (see [`EventNoise::read_row`]).
const ZERO_MARGIN: f64 = 1.0 / 1024.0;

/// A first uniform at or above which `Multiplicative { sigma }` reads a
/// `+0.0` count back as `+0.0` whatever the rest of the draw, or `None`
/// when that floor is above 1/2 or NaN (a wide, NaN or infinite `sigma`).
fn zero_floor(sigma: f64) -> Option<f64> {
    let floor = (-(1.0 - ZERO_MARGIN) / (2.0 * sigma * sigma)).exp();
    (floor <= 0.5).then_some(floor)
}

/// The first uniform of a [`gaussian`] draw: the radius term's `u`.
fn first_uniform(rng: &mut impl Rng) -> f64 {
    // Avoid u == 0 so ln(u) is finite.
    rng.gen_range(f64::MIN_POSITIVE..1.0)
}

/// The second uniform of a [`gaussian`] draw: the angle `v`.
fn angle(rng: &mut impl Rng) -> f64 {
    rng.gen_range(0.0..std::f64::consts::TAU)
}

/// Box–Muller: the standard normal of uniforms `u` and `v` (see
/// [`first_uniform`] and [`angle`]).
fn box_muller(u: f64, v: f64) -> f64 {
    (-2.0 * u.ln()).sqrt() * v.cos()
}

/// Standard normal via Box–Muller (rand_distr is deliberately not a
/// dependency).
pub fn gaussian(rng: &mut impl Rng) -> f64 {
    let u = first_uniform(rng);
    box_muller(u, angle(rng))
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

    /// `(seed, 0, 0)` triples whose first uniform is below 1e-10, found by
    /// searching the stream seeds: under every sigma from 0.147 to the
    /// 1/2-floor guard, a `+0.0` count read under them runs the full
    /// transform. Random triples almost never do at sigma 0.15 (about one
    /// in 4e9).
    const LOW_FIRST_UNIFORM: [u64; 4] = [
        0x6854_EA64_C485_843C,
        0x2F38_0A1E_050B_0C28,
        0x059E_D99B_B298_C473,
        0xC8D1_A9D6_6A1E_7703,
    ];

    #[test]
    fn low_first_uniform_triples_are_low() {
        for seed in LOW_FIRST_UNIFORM {
            let u = first_uniform(&mut event_rng(seed, 0, 0));
            assert!(u < 1e-10, "seed {seed:#x}: u = {u}");
        }
    }

    #[test]
    fn observe_matches_apply_bit_for_bit() {
        let sigma = |sigma| NoiseModel::Multiplicative { sigma };
        let models = [
            NoiseModel::None,
            sigma(0.02),
            sigma(-0.026),
            // 1/38 sits between these: the first seeds nothing; the second
            // seeds, but its floor lies below the least first uniform.
            sigma(1.0 / 38.0 - 1e-4),
            sigma(1.0 / 38.0 + 1e-4),
            // The shipped wide sigmas: the first uniform settles a zero.
            sigma(0.15),
            sigma(0.25),
            sigma(0.3),
            sigma(-0.3),
            // Past the 1/2-floor guard: every read draws, and a share of
            // them has `1 + sigma * g < 0`, so a zero count reads back as
            // `0.0 * negative`; skipping those would be wrong wherever
            // `max` keeps the `-0.0`.
            sigma(0.85),
            sigma(0.9),
            sigma(-1.5),
            sigma(10.0),
            sigma(1e7),
            sigma(f64::MAX),
            sigma(f64::NAN),
            sigma(f64::INFINITY),
            sigma(f64::NEG_INFINITY),
            NoiseModel::Additive { scale: 5.0 },
            NoiseModel::Unrelated { mean: 50.0, spread: 0.1 },
            NoiseModel::Unrelated { mean: 50.0, spread: 3.0 },
        ];
        let counts = [0.0, -0.0, 1.0, 123.5, -7.0, 1e12, f64::NAN];
        // Rows `(seed, event, [(count index, run)])` of every length around
        // the window edges, each mixing all the counts. Every random row is
        // read once per rotation of the counts, so each of its 4,186
        // distinct triples reads every count.
        let lengths = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1];
        let mut rows = Vec::new();
        for r in 0..78 {
            for k in 0..counts.len() {
                let reads = (0..lengths[r % lengths.len()])
                    .map(|i| ((r + i + k) % counts.len(), (r * 1000 + i) * 31));
                rows.push((r as u64 * 0x9E37, r % 97, reads.collect::<Vec<_>>()));
            }
        }
        // The searched triples read a `+0.0` count at every window edge.
        let edges = [0, CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK];
        for seed in LOW_FIRST_UNIFORM {
            let read = |i| if edges.contains(&i) { (0, 0) } else { (i % 7, i * 31 + 1) };
            rows.push((seed, 0, (0..=2 * CHUNK).map(read).collect()));
        }
        let reads: usize = rows.iter().map(|(.., row)| row.len()).sum();
        let mut checked = 0;
        for model in models {
            // Per count: the reads that settle and draw as rows of one.
            let mut tally = [(0, 0); 7];
            for (seed, event, row) in &rows {
                let (seed, event) = (*seed, *event);
                let noise = model.for_event(seed, event);
                let truths: Vec<f64> = row.iter().map(|&(c, _)| counts[c]).collect();
                let mut got = vec![-1.0; row.len()];
                let draws = noise.read_row(&truths, |i| row[i].1, &mut got);
                let mut classified = 0;
                for (i, &(c, run)) in row.iter().enumerate() {
                    let truth = counts[c];
                    let at = format!("{model:?} on {truth}: seed {seed}, event {event}, run {run}");
                    let want = model.apply(truth, &mut event_rng(seed, event, run));
                    assert_eq!(got[i].to_bits(), want.to_bits(), "{at}: read {i} of {}", row.len());
                    let mut one = [-1.0];
                    let drawn = noise.read_row(&[truth], |_| run, &mut one);
                    assert_eq!(one[0].to_bits(), want.to_bits(), "{at}: row of one");
                    // A settled multiplicative read must not matter even
                    // before the clamp, whose choice between `-0.0` and
                    // `+0.0` can vary with code generation.
                    if let NoiseModel::Multiplicative { sigma } = model {
                        if drawn == 0 {
                            let g = gaussian(&mut event_rng(seed, event, run));
                            let raw = truth * (1.0 + sigma * g);
                            assert_eq!(raw.to_bits(), want.to_bits(), "{at}: unclamped");
                        }
                    }
                    let (settled, full) = &mut tally[c];
                    *settled += usize::from(drawn == 0);
                    *full += drawn as usize;
                    classified += drawn;
                    checked += 1;
                }
                assert_eq!(draws, classified, "{model:?}: row of {} reads", row.len());
            }
            // Which reads settle without the full transform.
            for (&truth, &(settled, drawn)) in counts.iter().zip(&tally) {
                let at = format!("{model:?} on {truth}");
                // Rare reads, such as a wrong sign at sigma 0.3 (g < -3.33,
                // about 4e-4 of `+0.0` reads), need thousands per count.
                assert!(settled + drawn >= 4_000, "{at}: {} reads", settled + drawn);
                match model {
                    NoiseModel::None => assert_eq!(drawn, 0, "{at}"),
                    NoiseModel::Multiplicative { sigma } if truth.to_bits() == 0 => {
                        let s = sigma.abs();
                        if s < 1.0 / 38.0 + 1e-3 {
                            assert_eq!(drawn, 0, "{at}");
                        } else if s < 0.849 {
                            // The searched triples fall through, the rest
                            // nearly all settle.
                            let rare = LOW_FIRST_UNIFORM.len() * edges.len();
                            assert!(drawn >= rare, "{at}: {drawn} drawn");
                            assert!(
                                settled >= (settled + drawn) * 9 / 10,
                                "{at}: {settled} settled"
                            );
                        } else {
                            assert_eq!(settled, 0, "{at}");
                        }
                    }
                    _ => assert_eq!(settled, 0, "{at}"),
                }
            }
        }
        assert_eq!(checked, models.len() * reads);
        // At least as many reads per model as 4,000 random triples and the
        // four searched ones, each under every count.
        assert!(reads >= counts.len() * 4_004, "{reads} reads per model");
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
