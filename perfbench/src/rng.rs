//! Seeded SplitMix64: the benchmark's only source of randomness, so one
//! `--seed` reproduces every input bit for bit.

use svd_kernels::Matrix;

/// SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; distinct `stream`s give independent
    /// sequences from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// Next raw 64-bit output.
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

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }

    /// Exponential inter-arrival gap (seconds) of a Poisson process at
    /// `rate` events per second.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// A vector of `len` uniform `[-1, 1)` entries.
    pub fn vector(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.symmetric()).collect()
    }

    /// A well-conditioned `rows × cols` matrix: uniform `[-1, 1)`
    /// entries plus 3 on the diagonal (the `hsvd serve-bench` inputs).
    pub fn matrix(&mut self, rows: usize, cols: usize) -> Matrix<f64> {
        Matrix::from_fn(rows, cols, |r, c| {
            let v = self.symmetric();
            if r == c {
                v + 3.0
            } else {
                v
            }
        })
    }
}
