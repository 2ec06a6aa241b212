//! Seeded input generation. Inputs are made here, outside every timed
//! region, and are a pure function of the seed.

use regla_core::MatBatch;

/// SplitMix64: a small, well-mixed generator that needs no dependency.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit_f32(&mut self) -> f32 {
        ((self.next_u64() >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }
}

/// Derive an independent seed from a parent seed and a label.
pub fn derive(seed: u64, label: u64) -> u64 {
    SplitMix64::new(seed ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// `count` matrices of `rows x cols` uniform entries; with `dominant`, `n`
/// is added to each diagonal entry so the unpivoted LU and Gauss-Jordan
/// kernels never meet a small pivot.
pub fn batch(rows: usize, cols: usize, count: usize, dominant: bool, seed: u64) -> MatBatch<f32> {
    let mut rng = SplitMix64::new(seed);
    let boost = rows.min(cols) as f32;
    MatBatch::from_fn(rows, cols, count, |_, i, j| {
        let v = rng.unit_f32();
        if dominant && i == j {
            v + boost
        } else {
            v
        }
    })
}
