//! Arithmetic in the Galois field GF(2⁸) used by the Reed–Solomon codec.
//!
//! The field is generated by the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11D), the same polynomial used by CCSDS and
//! most satellite Reed–Solomon codes.

/// The primitive polynomial generating the field.
pub const PRIMITIVE_POLY: u16 = 0x11D;

/// GF(2⁸) arithmetic with precomputed exponential and logarithm tables.
///
/// # Examples
///
/// ```
/// use tbi_satcom::Gf256;
///
/// let gf = Gf256::new();
/// let a = 0x53;
/// let b = 0xCA;
/// let product = gf.mul(a, b);
/// assert_eq!(gf.div(product, b), a);
/// assert_eq!(gf.mul(a, gf.inv(a)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Gf256 {
    exp: [u8; 512],
    log: [u16; 256],
}

impl Default for Gf256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Gf256 {
    /// Builds the exp/log tables.
    #[must_use]
    pub fn new() -> Self {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= PRIMITIVE_POLY;
            }
        }
        // Duplicate the table so that exp[log a + log b] never needs a modulo.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Self { exp, log }
    }

    /// Adds two field elements (XOR in GF(2⁸)).
    #[must_use]
    pub fn add(&self, a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// Multiplies two field elements.
    #[must_use]
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[(self.log[a as usize] + self.log[b as usize]) as usize]
        }
    }

    /// Divides `a` by `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    #[must_use]
    pub fn div(&self, a: u8, b: u8) -> u8 {
        assert_ne!(b, 0, "division by zero in GF(256)");
        if a == 0 {
            0
        } else {
            self.exp[(255 + self.log[a as usize] - self.log[b as usize]) as usize]
        }
    }

    /// Multiplicative inverse of `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    #[must_use]
    pub fn inv(&self, a: u8) -> u8 {
        assert_ne!(a, 0, "zero has no inverse in GF(256)");
        self.exp[(255 - self.log[a as usize]) as usize]
    }

    /// `a` raised to the power `n` (with `0⁰ = 1`).
    #[must_use]
    pub fn pow(&self, a: u8, n: u32) -> u8 {
        if n == 0 {
            return 1;
        }
        if a == 0 {
            return 0;
        }
        let exponent = (u32::from(self.log[a as usize]) * n) % 255;
        self.exp[exponent as usize]
    }

    /// The primitive element α raised to the power `n`.
    #[must_use]
    pub fn alpha_pow(&self, n: u32) -> u8 {
        self.exp[(n % 255) as usize]
    }

    /// Discrete logarithm of `a` to base α.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0`.
    #[must_use]
    pub fn log(&self, a: u8) -> u16 {
        assert_ne!(a, 0, "zero has no logarithm in GF(256)");
        self.log[a as usize]
    }

    /// Evaluates the polynomial `poly` (highest-degree coefficient first) at
    /// `x` using Horner's rule.
    #[must_use]
    pub fn poly_eval(&self, poly: &[u8], x: u8) -> u8 {
        poly.iter().fold(0u8, |acc, &coefficient| {
            self.add(self.mul(acc, x), coefficient)
        })
    }

    /// Multiplies two polynomials (highest-degree coefficient first).
    #[must_use]
    pub fn poly_mul(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u8; a.len() + b.len() - 1];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                out[i + j] ^= self.mul(ai, bj);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tables_are_consistent() {
        let gf = Gf256::new();
        for value in 1..=255u8 {
            assert_eq!(gf.alpha_pow(u32::from(gf.log(value))), value);
        }
    }

    #[test]
    fn multiplication_by_zero_and_one() {
        let gf = Gf256::new();
        for value in 0..=255u8 {
            assert_eq!(gf.mul(value, 0), 0);
            assert_eq!(gf.mul(0, value), 0);
            assert_eq!(gf.mul(value, 1), value);
        }
    }

    #[test]
    fn known_product() {
        // 0x53 * 0xCA = 0x01 under 0x11D (well-known AES-like test pair is
        // for 0x11B; recompute for 0x11D instead with an independent method).
        let gf = Gf256::new();
        let slow_mul = |mut a: u16, mut b: u16| -> u8 {
            let mut product: u16 = 0;
            while b > 0 {
                if b & 1 != 0 {
                    product ^= a;
                }
                a <<= 1;
                if a & 0x100 != 0 {
                    a ^= PRIMITIVE_POLY;
                }
                b >>= 1;
            }
            product as u8
        };
        for a in [1u8, 2, 3, 0x53, 0x8E, 0xFF] {
            for b in [1u8, 2, 7, 0xCA, 0x80, 0xFF] {
                assert_eq!(gf.mul(a, b), slow_mul(u16::from(a), u16::from(b)));
            }
        }
    }

    #[test]
    fn division_by_zero_panics() {
        let gf = Gf256::new();
        let result = std::panic::catch_unwind(|| gf.div(5, 0));
        assert!(result.is_err());
    }

    #[test]
    fn polynomial_evaluation() {
        let gf = Gf256::new();
        // p(x) = x^2 + 3 evaluated at 2: 4 ^ 3 = 7 (all in GF arithmetic).
        let poly = [1u8, 0, 3];
        assert_eq!(gf.poly_eval(&poly, 2), gf.add(gf.mul(2, 2), 3));
        assert_eq!(gf.poly_eval(&poly, 0), 3);
    }

    proptest! {
        #[test]
        fn mul_is_commutative_and_associative(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255) {
            let gf = Gf256::new();
            prop_assert_eq!(gf.mul(a, b), gf.mul(b, a));
            prop_assert_eq!(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
        }

        #[test]
        fn mul_distributes_over_add(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255) {
            let gf = Gf256::new();
            prop_assert_eq!(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
        }

        #[test]
        fn division_inverts_multiplication(a in 0u8..=255, b in 1u8..=255) {
            let gf = Gf256::new();
            prop_assert_eq!(gf.div(gf.mul(a, b), b), a);
        }

        #[test]
        fn inverse_is_an_inverse(a in 1u8..=255) {
            let gf = Gf256::new();
            prop_assert_eq!(gf.mul(a, gf.inv(a)), 1);
        }

        #[test]
        fn pow_matches_repeated_multiplication(a in 0u8..=255, n in 0u32..10) {
            let gf = Gf256::new();
            let mut expected = 1u8;
            for _ in 0..n {
                expected = gf.mul(expected, a);
            }
            prop_assert_eq!(gf.pow(a, n), expected);
        }
    }
}
