//! Seeded input generation: an ISOLET-shaped surrogate dataset and the
//! request schedules the load generator replays.

/// SplitMix64: small, seedable, and identical on every platform, so one
/// seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_BA5E_D00D_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// The ISOLET shape of the paper's evaluation.
pub const FEATURES: usize = 617;
pub const CLASSES: usize = 26;
pub const DIM: usize = 10_000;
const TRAIN_PER_CLASS: usize = 24;
const TEST_PER_CLASS: usize = 40;
/// Share of features that carry no class signal.
const NUISANCE: f64 = 0.35;
/// Per-feature noise around the class prototype.
const NOISE: f64 = 0.8;

pub type Sample = (Vec<f64>, usize);

pub struct Dataset {
    pub train: Vec<Sample>,
    pub test: Vec<Sample>,
}

/// Class prototypes in `[0, 1]^617` plus Gaussian noise, with a fixed
/// share of pure-noise features; values are clamped to `[0, 1]` like
/// normalized ISOLET features.
pub fn isolet_surrogate(seed: u64) -> Dataset {
    let mut rng = Rng::new(seed);
    let informative: Vec<bool> = (0..FEATURES).map(|_| rng.unit() >= NUISANCE).collect();
    let prototypes: Vec<Vec<f64>> = (0..CLASSES)
        .map(|_| (0..FEATURES).map(|_| rng.unit()).collect())
        .collect();
    let mut draw = |per_class: usize| -> Vec<Sample> {
        let mut out = Vec::with_capacity(per_class * CLASSES);
        for _ in 0..per_class {
            for (label, proto) in prototypes.iter().enumerate() {
                let x = proto
                    .iter()
                    .zip(&informative)
                    .map(|(&p, &info)| {
                        let v = if info {
                            p + NOISE * rng.normal()
                        } else {
                            rng.unit()
                        };
                        v.clamp(0.0, 1.0)
                    })
                    .collect();
                out.push((x, label));
            }
        }
        out
    };
    let train = draw(TRAIN_PER_CLASS);
    let test = draw(TEST_PER_CLASS);
    Dataset { train, test }
}

/// One scheduled request: when it is due (seconds after the phase
/// starts), which tenant it addresses and which test sample it queries.
#[derive(Clone, Copy)]
pub struct Req {
    pub at: f64,
    pub tenant: usize,
    pub sample: usize,
}

/// `n` Poisson arrivals at `rate` per second, with tenants drawn by
/// `weights` and samples uniformly from `samples` test inputs.
/// Exponential gaps model independent users; evenly spaced arrivals
/// would beat against the batch window instead.
pub fn schedule(rng: &mut Rng, n: usize, rate: f64, weights: &[f64], samples: usize) -> Vec<Req> {
    let total: f64 = weights.iter().sum();
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            at += -(1.0 - rng.unit()).ln() / rate;
            let mut r = rng.unit() * total;
            let mut tenant = weights.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if r < *w {
                    tenant = i;
                    break;
                }
                r -= w;
            }
            Req {
                at,
                tenant,
                sample: rng.below(samples),
            }
        })
        .collect()
}
