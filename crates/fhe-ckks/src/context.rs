//! The CKKS context: RNS machinery over the full `Q ∪ P` basis.

use crate::{CkksError, CkksParams};
use fhe_math::{Modulus, NttTable, RnsBasis, RnsContext, RnsPoly, UBig};

/// Precomputed state shared by all CKKS objects: moduli, NTT tables, digit
/// layout.
///
/// Channel indexing convention: indices `0..=L` are the ciphertext primes
/// `q_0 … q_L`, indices `L+1 .. L+1+K` are the special primes `p_0 … p_{K-1}`.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    rns: RnsContext,
    /// Full-chain digit groups (indices into the Q part).
    digits: Vec<Vec<usize>>,
}

impl CkksContext {
    /// Builds the context (NTT tables for every prime in `Q ∪ P`).
    ///
    /// # Errors
    ///
    /// Propagates [`CkksError::Math`] if a prime fails table construction.
    pub fn new(params: CkksParams) -> Result<Self, CkksError> {
        let mut moduli = Vec::with_capacity(params.moduli().len() + params.special_moduli().len());
        for &q in params.moduli().iter().chain(params.special_moduli()) {
            moduli.push(Modulus::new(q).map_err(CkksError::Math)?);
        }
        let rns = RnsContext::new(params.n(), RnsBasis::new(moduli).map_err(CkksError::Math)?)
            .map_err(CkksError::Math)?;
        let digits = fhe_math::Gadget::new(params.dnum())
            .map_err(CkksError::Math)?
            .split(params.moduli().len());
        Ok(CkksContext { params, rns, digits })
    }

    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The RNS context over the full `Q ∪ P` basis.
    #[inline]
    pub fn rns(&self) -> &RnsContext {
        &self.rns
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.params.n()
    }

    /// Number of ciphertext primes (`L + 1`).
    #[inline]
    pub fn q_len(&self) -> usize {
        self.params.moduli().len()
    }

    /// Number of special primes `K`.
    #[inline]
    pub fn k_len(&self) -> usize {
        self.params.special_moduli().len()
    }

    /// Global channel indices of the special primes.
    pub fn p_indices(&self) -> Vec<usize> {
        (self.q_len()..self.q_len() + self.k_len()).collect()
    }

    /// Moduli of the Q part.
    #[inline]
    pub fn q_moduli(&self) -> &[Modulus] {
        &self.rns.moduli()[..self.q_len()]
    }

    /// Moduli of channels `0..=level`.
    #[inline]
    pub fn level_moduli(&self, level: usize) -> &[Modulus] {
        &self.rns.moduli()[..=level]
    }

    /// NTT tables of channels `0..=level`.
    #[inline]
    pub fn level_tables(&self, level: usize) -> &[NttTable] {
        &self.rns.tables()[..=level]
    }

    /// NTT table for a global channel index.
    #[inline]
    pub fn table(&self, channel: usize) -> &NttTable {
        self.rns.table(channel)
    }

    /// The full-chain digit layout (indices into the Q part).
    #[inline]
    pub fn digits(&self) -> &[Vec<usize>] {
        &self.digits
    }

    /// Digit groups restricted to channels `0..=level`, empty digits
    /// dropped — the `beta` occupied digits at this level.
    pub fn digits_at_level(&self, level: usize) -> Vec<Vec<usize>> {
        self.digits
            .iter()
            .map(|d| d.iter().copied().filter(|&c| c <= level).collect::<Vec<_>>())
            .filter(|d| !d.is_empty())
            .collect()
    }

    /// Exact product of the special primes as a big integer.
    pub fn p_product(&self) -> UBig {
        UBig::product_of(self.params.special_moduli().iter().copied())
    }

    /// Exact product of `q_0 … q_level`.
    pub fn q_product(&self, level: usize) -> UBig {
        UBig::product_of(self.params.moduli()[..=level].iter().copied())
    }

    /// CRT-reconstructs coefficient `idx` of a coefficient-domain poly over
    /// channels `0..=level` and returns the *centered* value as `f64`.
    pub fn centered_coefficient(&self, poly: &RnsPoly, level: usize, idx: usize) -> f64 {
        assert_eq!(poly.num_channels(), level + 1, "polynomial channel count must match level + 1");
        if level == 0 {
            let m = self.rns.moduli()[0];
            return m.to_centered(poly.channel(0).coeffs()[idx]) as f64;
        }
        let q = self.q_product(level);
        let v = poly.crt_coefficient(idx);
        let half = q.divrem_u64(2).0;
        if v.cmp_big(&half) == std::cmp::Ordering::Greater {
            -(q.sub(&v).to_f64())
        } else {
            v.to_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::toy().unwrap()).unwrap()
    }

    #[test]
    fn channel_layout() {
        let c = ctx();
        assert_eq!(c.q_len(), 4);
        assert_eq!(c.k_len(), 2);
        assert_eq!(c.p_indices(), vec![4, 5]);
        assert_eq!(c.rns().moduli().len(), 6);
        assert_eq!(c.level_moduli(2).len(), 3);
    }

    #[test]
    fn digit_layout_follows_dnum() {
        let c = ctx();
        // L+1 = 4 channels, dnum = 2 → digits {0,1}, {2,3}.
        assert_eq!(c.digits(), &[vec![0, 1], vec![2, 3]]);
        assert_eq!(c.digits_at_level(3).len(), 2);
        // At level 1 only the first digit survives.
        assert_eq!(c.digits_at_level(1), vec![vec![0, 1]]);
        assert_eq!(c.digits_at_level(2), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn centered_coefficient_round_trip() {
        let c = ctx();
        for value in [-12345i64, -1, 0, 1, 98765] {
            let poly = RnsPoly::from_signed(&[value], c.n(), c.level_moduli(2));
            let got = c.centered_coefficient(&poly, 2, 0);
            assert_eq!(got, value as f64);
            // Coefficient 1 is zero.
            assert_eq!(c.centered_coefficient(&poly, 2, 1), 0.0);
        }
    }

    #[test]
    fn centered_coefficient_level_zero_fast_path() {
        let c = ctx();
        let poly = RnsPoly::from_signed(&[-7], c.n(), c.level_moduli(0));
        assert_eq!(c.centered_coefficient(&poly, 0, 0), -7.0);
    }
}
