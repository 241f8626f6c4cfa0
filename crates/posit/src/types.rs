//! The [`Posit32`] and [`Posit16`] value types.

use crate::arith;
use crate::format::{Decoded, PositFormat};
use rlibm_fp::Representation;

macro_rules! posit_type {
    ($(#[$doc:meta])* $name:ident, $storage:ty, $fmt:expr, $repr_name:literal, $bits:literal) => {
        $(#[$doc])*
        // Posit equality is plain pattern equality: NaR == NaR and there
        // is only one zero, so the derived bitwise PartialEq is exact.
        // (This differs from IEEE floats.)
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
        pub struct $name($storage);

        impl $name {
            /// The format parameters (width, es).
            pub const FORMAT: PositFormat = $fmt;
            /// The zero pattern.
            pub const ZERO: $name = $name(0);
            /// One (`0b01` followed by zeros).
            pub const ONE: $name = $name(1 << ($bits - 2));
            /// Not-a-Real: the posit exception value (sign bit alone).
            pub const NAR: $name = $name(1 << ($bits - 1));
            /// Largest representable value.
            pub const MAXPOS: $name = $name((1 << ($bits - 1)) - 1);
            /// Smallest positive value.
            pub const MINPOS: $name = $name(1);

            /// Constructs a value from its raw bit pattern.
            pub const fn from_bits(bits: $storage) -> Self {
                $name(bits)
            }

            /// The raw bit pattern.
            pub const fn to_bits(self) -> $storage {
                self.0
            }

            /// Rounds an `f64` into this posit format (NaN/inf become NaR;
            /// finite values saturate at `MAXPOS`/`MINPOS`).
            #[inline]
            pub fn from_f64(x: f64) -> Self {
                $name(Self::FORMAT.round_from_f64(x) as $storage)
            }

            /// Exact conversion to `f64` (`NaR` becomes NaN).
            #[inline]
            pub fn to_f64(self) -> f64 {
                Self::FORMAT.to_f64(self.0 as u32)
            }

            /// True for the NaR pattern.
            pub fn is_nar(self) -> bool {
                self == Self::NAR
            }

            /// True for the zero pattern.
            pub fn is_zero(self) -> bool {
                self.0 == 0
            }

            /// True if the value is finite and nonzero with a negative sign.
            pub fn is_negative(self) -> bool {
                !self.is_nar() && (self.0 >> ($bits - 1)) == 1
            }

            /// Decodes into sign / scale / significand parts.
            pub fn decode(self) -> Decoded {
                Self::FORMAT.decode(self.0 as u32)
            }
        }

        impl PartialOrd for $name {
            fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
                if self.is_nar() || other.is_nar() {
                    return None;
                }
                // Pattern order as signed integers IS value order.
                let a = (self.0 as i32) << (32 - $bits);
                let b = (other.0 as i32) << (32 - $bits);
                a.partial_cmp(&b)
            }
        }

        impl core::fmt::Display for $name {
            fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
                if self.is_nar() {
                    write!(f, "NaR")
                } else {
                    write!(f, "{}", self.to_f64())
                }
            }
        }

        impl From<$name> for f64 {
            fn from(x: $name) -> f64 {
                x.to_f64()
            }
        }

        impl core::ops::Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(arith::neg(Self::FORMAT, self.0 as u32) as $storage)
            }
        }

        impl core::ops::Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(arith::add(Self::FORMAT, self.0 as u32, rhs.0 as u32) as $storage)
            }
        }

        impl core::ops::Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(arith::sub(Self::FORMAT, self.0 as u32, rhs.0 as u32) as $storage)
            }
        }

        impl core::ops::Mul for $name {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(arith::mul(Self::FORMAT, self.0 as u32, rhs.0 as u32) as $storage)
            }
        }

        impl core::ops::Div for $name {
            type Output = $name;
            fn div(self, rhs: $name) -> $name {
                $name(arith::div(Self::FORMAT, self.0 as u32, rhs.0 as u32) as $storage)
            }
        }

        impl Representation for $name {
            const NAME: &'static str = $repr_name;
            const BITS: u32 = $bits;

            fn from_bits_u32(bits: u32) -> Self {
                $name((bits & Self::FORMAT.mask()) as $storage)
            }

            fn to_bits_u32(self) -> u32 {
                self.0 as u32
            }

            #[inline]
            fn to_f64(self) -> f64 {
                $name::to_f64(self)
            }

            #[inline]
            fn round_from_f64(x: f64) -> Self {
                $name::from_f64(x)
            }

            fn is_nan(self) -> bool {
                self.is_nar()
            }

            fn next_up(self) -> Option<Self> {
                if self.is_nar() || self == Self::MAXPOS {
                    return None;
                }
                Some($name(self.0.wrapping_add(1) & (Self::FORMAT.mask() as $storage)))
            }

            fn next_down(self) -> Option<Self> {
                // The most negative finite posit is NaR's pattern + 1.
                if self.is_nar() || self.0 == Self::NAR.0 | 1 {
                    return None;
                }
                Some($name(self.0.wrapping_sub(1) & (Self::FORMAT.mask() as $storage)))
            }
        }
    };
}

posit_type!(
    /// A 32-bit posit with `es = 2` (the paper's `posit32` type).
    ///
    /// Posits provide *tapered* precision: up to 27 fraction bits near 1
    /// (more than `f32`'s 23) and progressively fewer toward the extremes
    /// (`maxpos = 2^120`, `minpos = 2^-120`). There are no infinities, no
    /// signed zero, no subnormals and a single exception value `NaR`.
    ///
    /// # Example
    ///
    /// ```
    /// use rlibm_posit::Posit32;
    /// let x = Posit32::from_f64(1.5);
    /// assert_eq!(x.to_f64(), 1.5);
    /// assert_eq!((x * x).to_f64(), 2.25);
    /// assert!(Posit32::NAR.is_nar());
    /// ```
    Posit32,
    u32,
    PositFormat::POSIT32,
    "posit32",
    32
);

posit_type!(
    /// A 16-bit posit with `es = 1` (the `posit16` type of the original
    /// RLIBM work). Small enough for exhaustive end-to-end pipeline tests.
    ///
    /// # Example
    ///
    /// ```
    /// use rlibm_posit::Posit16;
    /// assert_eq!(Posit16::ONE.to_f64(), 1.0);
    /// ```
    Posit16,
    u16,
    PositFormat::POSIT16,
    "posit16",
    16
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(Posit32::ONE.to_f64(), 1.0);
        assert_eq!(Posit32::MAXPOS.to_f64(), 2f64.powi(120));
        assert_eq!(Posit32::MINPOS.to_f64(), 2f64.powi(-120));
        assert!(Posit32::NAR.to_f64().is_nan());
        assert_eq!(Posit16::MAXPOS.to_f64(), 2f64.powi(28));
    }

    #[test]
    fn comparison_follows_value_order() {
        let a = Posit32::from_f64(-3.0);
        let b = Posit32::from_f64(-1.0);
        let c = Posit32::from_f64(0.5);
        assert!(a < b && b < c);
        assert!(Posit32::NAR.partial_cmp(&a).is_none());
    }

    #[test]
    fn next_up_walks_in_value_order() {
        let mut v = Posit16::from_bits(0x8001); // most negative finite
        let mut count = 1u32;
        let mut prev = v.to_f64();
        while let Some(n) = v.next_up() {
            assert!(n.to_f64() > prev, "{} !> {}", n.to_f64(), prev);
            prev = n.to_f64();
            v = n;
            count += 1;
        }
        assert_eq!(v, Posit16::MAXPOS);
        // Every pattern except NaR is visited.
        assert_eq!(count, (1u32 << 16) - 1);
    }

    #[test]
    fn tapered_precision_near_one() {
        // Near 1.0 the posit32 quantum is 2^-27 (27 fraction bits).
        let one = Posit32::ONE;
        let next = one.next_up().unwrap();
        assert_eq!(next.to_f64() - 1.0, 2f64.powi(-27));
        // Near maxpos the quantum is a factor of 16.
        let top = Posit32::MAXPOS;
        let below = top.next_down().unwrap();
        assert_eq!(top.to_f64() / below.to_f64(), 16.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Posit32::NAR.to_string(), "NaR");
        assert_eq!(Posit32::ONE.to_string(), "1");
    }
}
