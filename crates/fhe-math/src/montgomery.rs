//! Montgomery modular multiplication — the interleaved alternative to
//! Barrett reduction the paper's modular-reduction citation covers
//! (Knežević et al. [12]).
//!
//! The Alchemist core realizes its lazy `R_j` step with Barrett (two extra
//! multiplications on the reused multiplier array); [`MontgomeryContext`]
//! provides the same operations in the Montgomery domain so the
//! `bench/kernels` suite can compare the two reduction dataflows on this
//! machine, mirroring the design-space discussion.

use crate::{MathError, Modulus};

/// Precomputed Montgomery constants for an odd modulus `q < 2^61`
/// (R = 2^64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MontgomeryContext {
    modulus: Modulus,
    /// `-q^{-1} mod 2^64`.
    neg_q_inv: u64,
    /// `R^2 mod q`, for conversions into the domain.
    r2: u64,
}

impl MontgomeryContext {
    /// Builds the context.
    ///
    /// # Errors
    ///
    /// Propagates [`Modulus::new`]'s validation (odd, `< 2^61`).
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), fhe_math::MathError> {
    /// use fhe_math::{Modulus, MontgomeryContext};
    /// let q = Modulus::new(65537)?;
    /// let mont = MontgomeryContext::new(q)?;
    /// let a = mont.to_montgomery(1234);
    /// let b = mont.to_montgomery(5678);
    /// let p = mont.from_montgomery(mont.mul(a, b));
    /// assert_eq!(p, q.mul(1234, 5678));
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(modulus: Modulus) -> Result<Self, MathError> {
        let q = modulus.value();
        // Newton iteration for q^{-1} mod 2^64 (q odd).
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(inv)));
        }
        assert_eq!(q.wrapping_mul(inv), 1, "Newton iteration failed to invert q={q} mod 2^64");
        let r2 = modulus.reduce_u128(((1u128 << 64) % q as u128).pow(2));
        Ok(MontgomeryContext { modulus, neg_q_inv: inv.wrapping_neg(), r2 })
    }

    /// The underlying modulus.
    #[inline]
    pub fn modulus(&self) -> Modulus {
        self.modulus
    }

    /// Montgomery reduction of a 128-bit value `x < q·2^64`:
    /// returns `x·2^{-64} mod q`.
    #[inline]
    pub fn reduce(&self, x: u128) -> u64 {
        let q = self.modulus.value();
        let m = (x as u64).wrapping_mul(self.neg_q_inv);
        let t = ((x + m as u128 * q as u128) >> 64) as u64;
        if t >= q {
            t - q
        } else {
            t
        }
    }

    /// Converts a canonical residue into the Montgomery domain
    /// (`a ↦ a·2^64 mod q`).
    #[inline]
    pub fn to_montgomery(&self, a: u64) -> u64 {
        assert!(
            a < self.modulus.value(),
            "non-canonical operand to MontgomeryContext::to_montgomery: a={a}"
        );
        self.reduce(a as u128 * self.r2 as u128)
    }

    /// Converts back to a canonical residue.
    #[inline]
    pub fn from_montgomery(&self, a: u64) -> u64 {
        self.reduce(a as u128)
    }

    /// Multiplies two Montgomery-domain values (result stays in domain).
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce(a as u128 * b as u128)
    }

    /// Montgomery-domain addition (same as canonical addition).
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        self.modulus.add(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_ntt_primes;

    fn contexts() -> Vec<MontgomeryContext> {
        [36u32, 50, 60]
            .iter()
            .map(|&bits| {
                let q = Modulus::new(generate_ntt_primes(bits, 64, 1).unwrap()[0]).unwrap();
                MontgomeryContext::new(q).unwrap()
            })
            .collect()
    }

    #[test]
    fn round_trip_and_products_match_barrett() {
        for mont in contexts() {
            let q = mont.modulus();
            for (a, b) in [(0u64, 0u64), (1, 1), (q.value() - 1, q.value() - 1), (12345, 9876543)] {
                let (a, b) = (q.reduce(a), q.reduce(b));
                assert_eq!(mont.from_montgomery(mont.to_montgomery(a)), a);
                let p =
                    mont.from_montgomery(mont.mul(mont.to_montgomery(a), mont.to_montgomery(b)));
                assert_eq!(p, q.mul(a, b), "q = {}", q.value());
            }
        }
    }

    #[test]
    fn repeated_products_stay_in_domain() {
        let mont = &contexts()[0];
        let q = mont.modulus();
        let x = q.reduce(0xdead_beef);
        let mut dom = mont.to_montgomery(x);
        let mut expect = x;
        for _ in 0..32 {
            dom = mont.mul(dom, mont.to_montgomery(x));
            expect = q.mul(expect, x);
        }
        assert_eq!(mont.from_montgomery(dom), expect);
    }

    #[test]
    fn addition_consistency() {
        let mont = &contexts()[1];
        let q = mont.modulus();
        let (a, b) = (q.reduce(111), q.reduce(q.value() - 5));
        let s = mont.from_montgomery(mont.add(mont.to_montgomery(a), mont.to_montgomery(b)));
        assert_eq!(s, q.add(a, b));
    }
}
