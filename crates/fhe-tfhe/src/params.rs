//! TFHE parameter sets.

/// TFHE parameters over the 64-bit discretized torus.
///
/// The two "paper" sets mirror the configurations the paper benchmarks
/// against ([Matcha]/Concrete-style and [Strix]-style); [`TfheParams::toy`]
/// is a fast, insecure set for unit tests.
///
/// [Matcha]: https://doi.org/10.1145/3489517.3530435
/// [Strix]: https://doi.org/10.1145/3613424.3614264
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TfheParams {
    /// LWE dimension `n` (blind-rotation step count).
    pub lwe_dim: usize,
    /// GLWE polynomial degree `N`.
    pub poly_size: usize,
    /// GLWE dimension `k` (this implementation fixes `k = 1`).
    pub glwe_dim: usize,
    /// TRGSW decomposition base (log2) `β`.
    pub pbs_base_log: u32,
    /// TRGSW decomposition levels `l_b`.
    pub pbs_levels: usize,
    /// LWE key-switch decomposition base (log2).
    pub ks_base_log: u32,
    /// LWE key-switch decomposition levels.
    pub ks_levels: usize,
    /// LWE noise standard deviation (fraction of the torus).
    pub lwe_sigma: f64,
    /// GLWE noise standard deviation (fraction of the torus).
    pub glwe_sigma: f64,
}

impl TfheParams {
    /// Fast insecure parameters for unit tests: `n = 16, N = 64`.
    pub fn toy() -> Self {
        TfheParams {
            lwe_dim: 16,
            poly_size: 64,
            glwe_dim: 1,
            pbs_base_log: 10,
            pbs_levels: 3,
            ks_base_log: 4,
            ks_levels: 8,
            lwe_sigma: 2.0f64.powi(-25),
            glwe_sigma: 2.0f64.powi(-35),
        }
    }

    /// Parameter set I (Matcha/Concrete-style): `n = 630, N = 1024, l = 3`.
    pub fn set_i() -> Self {
        TfheParams {
            lwe_dim: 630,
            poly_size: 1024,
            glwe_dim: 1,
            pbs_base_log: 7,
            pbs_levels: 3,
            ks_base_log: 2,
            ks_levels: 8,
            lwe_sigma: 3.05e-5,
            glwe_sigma: 2.94e-8,
        }
    }

    /// Parameter set II (Strix-style, larger ring): `n = 742, N = 2048,
    /// l = 2`.
    pub fn set_ii() -> Self {
        TfheParams {
            lwe_dim: 742,
            poly_size: 2048,
            glwe_dim: 1,
            pbs_base_log: 23,
            pbs_levels: 1,
            ks_base_log: 3,
            ks_levels: 5,
            lwe_sigma: 7.06e-6,
            glwe_sigma: 2.9e-15,
        }
    }

    /// The extracted-LWE dimension after sample extraction (`k·N`).
    pub fn extracted_dim(&self) -> usize {
        self.glwe_dim * self.poly_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_well_formed() {
        for p in [TfheParams::toy(), TfheParams::set_i(), TfheParams::set_ii()] {
            assert!(p.poly_size.is_power_of_two());
            assert_eq!(p.glwe_dim, 1);
            assert!(p.pbs_base_log as usize * p.pbs_levels <= 64);
            assert!(p.ks_base_log as usize * p.ks_levels <= 64);
            assert!(p.lwe_sigma > 0.0 && p.glwe_sigma > 0.0);
            assert_eq!(p.extracted_dim(), p.poly_size);
        }
    }
}
