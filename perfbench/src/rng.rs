//! Seeded input generation: a SplitMix64 stream and the samplers the
//! workloads draw from. Every input of a run derives from `--seed` through
//! these functions, so one seed always yields the same inputs.

use a3::core::Matrix;

/// A SplitMix64 pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(mix(seed))
    }

    /// An independent stream for one purpose, so drawing more from one
    /// stream never shifts the inputs another stream produces.
    pub fn fork(&self, stream: u64) -> Self {
        Self(mix(self.0 ^ mix(stream.wrapping_add(0x632B_E59B_D9B4_E019))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn gauss(&mut self) -> f32 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        ((-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()) as f32
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// An index drawn with the probabilities of a cumulative table.
    pub fn pick(&mut self, cdf: &[f64]) -> usize {
        let total = cdf.last().copied().unwrap_or(0.0);
        let x = self.unit() * total;
        cdf.partition_point(|&c| c <= x).min(cdf.len() - 1)
    }
}

/// Cumulative table of `weights`, for [`Rng::pick`].
pub fn cdf(weights: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .into_iter()
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

/// Cumulative Zipf table over `n` ranks with exponent `s`.
pub fn zipf(n: usize, s: f64) -> Vec<f64> {
    cdf((1..=n).map(|k| (k as f64).powf(-s)))
}

/// An `n x d` matrix of normal entries scaled by `scale`.
pub fn gaussian_matrix(rng: &mut Rng, n: usize, d: usize, scale: f32) -> Matrix {
    let flat = (0..n * d).map(|_| scale * rng.gauss()).collect();
    Matrix::from_flat(flat, n, d).expect("n x d elements")
}

/// `v` plus normal noise of standard deviation `noise`.
pub fn perturb_vec(rng: &mut Rng, v: &[f32], noise: f32) -> Vec<f32> {
    v.iter().map(|&x| x + noise * rng.gauss()).collect()
}

/// An `n x d` matrix of random unit-norm rows: keys whose dot products are
/// cosine similarities, as normalised embeddings give.
pub fn unit_rows(rng: &mut Rng, n: usize, d: usize) -> Matrix {
    let mut m = gaussian_matrix(rng, n, d, 1.0);
    for i in 0..n {
        let row = m.row_mut(i);
        let norm = row
            .iter()
            .map(|x| x * x)
            .sum::<f32>()
            .sqrt()
            .max(f32::MIN_POSITIVE);
        row.iter_mut().for_each(|x| *x /= norm);
    }
    m
}

/// A query that attends sharply to one random row of `keys`, as a retrieval
/// query does: `sharpness` times the row, plus unit-scale noise.
pub fn peaked_query(rng: &mut Rng, keys: &Matrix, sharpness: f32) -> Vec<f32> {
    let row = keys.row(rng.below(keys.rows()));
    let noise = 1.0 / (keys.dim() as f32).sqrt();
    row.iter()
        .map(|&k| sharpness * k + noise * rng.gauss())
        .collect()
}
