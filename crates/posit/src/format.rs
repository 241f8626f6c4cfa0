//! Generic posit decode/encode for widths up to 32 bits.
//!
//! A posit `<width, es>` encodes, after the sign bit, a run-length-encoded
//! *regime* `k`, then `es` exponent bits, then fraction bits. The value of a
//! positive pattern is `2^(k * 2^es + e) * (1 + f / 2^F)`. Negative values
//! are the two's complement of the positive pattern. There are exactly two
//! special patterns: all zeros (`0`) and the sign bit alone (`NaR`,
//! "not a real").
//!
//! Rounding follows the SoftPosit convention used by the RLIBM-32 artifact:
//! round-to-nearest-even on the *bit stream* (round + sticky bits taken
//! after the last stored position), with posit saturation — no finite value
//! ever rounds to zero, `NaR`, or past `±maxpos`.

/// Parameters of a posit format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PositFormat {
    /// Total width in bits (2..=32).
    pub width: u32,
    /// Number of exponent bits (the `es` parameter).
    pub es: u32,
}

/// A decoded posit value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// The zero pattern.
    Zero,
    /// Not-a-Real (the posit exception value).
    NaR,
    /// A finite nonzero value `(-1)^neg * (sig / 2^63) * 2^scale` where
    /// `sig` always has its most significant bit (bit 63) set, i.e. the
    /// significand `sig / 2^63` lies in `[1, 2)`.
    Finite {
        /// Sign (true = negative).
        neg: bool,
        /// Power-of-two scale.
        scale: i32,
        /// Normalized significand, MSB (bit 63) set.
        sig: u64,
    },
}

impl PositFormat {
    /// The standard 32-bit posit (es = 2), the paper's `posit32`.
    pub const POSIT32: PositFormat = PositFormat { width: 32, es: 2 };
    /// The classic 16-bit posit (es = 1) targeted by the original RLIBM.
    pub const POSIT16: PositFormat = PositFormat { width: 16, es: 1 };

    /// Mask selecting the low `width` bits.
    #[inline]
    pub const fn mask(self) -> u32 {
        if self.width == 32 {
            u32::MAX
        } else {
            (1u32 << self.width) - 1
        }
    }

    /// The NaR bit pattern (sign bit alone).
    #[inline]
    pub const fn nar_bits(self) -> u32 {
        1u32 << (self.width - 1)
    }

    /// The largest positive pattern (`maxpos`).
    #[inline]
    pub const fn maxpos_bits(self) -> u32 {
        (1u32 << (self.width - 1)) - 1
    }

    /// Scale of `maxpos` = `(width - 2) * 2^es`; `minpos` has the negated
    /// scale.
    #[inline]
    pub const fn max_scale(self) -> i32 {
        ((self.width - 2) << self.es) as i32
    }

    /// Sign, scale and left-aligned fraction of a pattern that is neither
    /// zero nor NaR. The fraction holds the bits after the exponent field,
    /// hidden bit excluded, starting at bit 63; bits past the pattern's
    /// end are zero (the "ghost bits are zero" convention for short
    /// exponent and fraction fields).
    #[inline(always)]
    fn fields(self, bits: u32) -> (bool, i32, u64) {
        let neg = bits & self.nar_bits() != 0;
        let mag = if neg { bits.wrapping_neg() & self.mask() } else { bits };
        // The regime's first bit at bit 63; the 32 bits below stay zero,
        // so the shift past the regime terminator never overflows.
        let body = (mag as u64) << (65 - self.width);
        let ones = body >> 63 == 1;
        let run = if ones { !body } else { body }.leading_zeros();
        let k = if ones { run as i32 - 1 } else { -(run as i32) };
        let rest = body << (run + 1);
        let e = if self.es == 0 { 0 } else { (rest >> (64 - self.es)) as i32 };
        (neg, (k << self.es) + e, rest << self.es)
    }

    /// Decodes a bit pattern.
    #[inline]
    pub fn decode(self, bits: u32) -> Decoded {
        let bits = bits & self.mask();
        if bits == 0 {
            return Decoded::Zero;
        }
        if bits == self.nar_bits() {
            return Decoded::NaR;
        }
        let (neg, scale, frac) = self.fields(bits);
        Decoded::Finite { neg, scale, sig: (1u64 << 63) | (frac >> 1) }
    }

    /// Exact conversion of a pattern to `f64`. `NaR` maps to `f64::NAN`.
    ///
    /// The double's bit pattern is assembled directly from the sign, the
    /// scale and the fraction: a posit of width ≤ 32 has at most 29
    /// significand bits, and every format whose `max_scale` is at most
    /// 1022 (all of width ≤ 32 with `es` ≤ 5; posit32's is 120) stays in
    /// the normal f64 range, so no rounding and no scaling call happens.
    #[inline]
    pub fn to_f64(self, bits: u32) -> f64 {
        debug_assert!(self.max_scale() <= 1022);
        let bits = bits & self.mask();
        if bits == 0 {
            return 0.0;
        }
        if bits == self.nar_bits() {
            return f64::NAN;
        }
        let (neg, scale, frac) = self.fields(bits);
        let sign = (neg as u64) << 63;
        f64::from_bits(sign | (((scale + 1023) as u64) << 52) | (frac >> 12))
    }

    /// Encodes a finite nonzero value `(-1)^neg * (sig / 2^63) * 2^scale`
    /// (with `sig` MSB-set) plus an optional sticky residual, rounding to
    /// the nearest pattern (ties to even) with posit saturation.
    ///
    /// # Panics
    ///
    /// Panics if `sig` does not have its top bit set.
    #[inline]
    pub fn encode_round(self, neg: bool, scale: i32, sig: u64, sticky_extra: bool) -> u32 {
        assert!(sig >> 63 == 1, "significand must be normalized");
        self.encode(neg, scale, sig << 1, sticky_extra)
    }

    /// [`Self::encode_round`] on the fraction alone (`frac` = the bits
    /// after the hidden bit, left-aligned at bit 63).
    ///
    /// The body is built as one u64 stream, left-aligned at bit 63:
    /// regime, exponent field, then as many fraction bits as fit. The
    /// regime and exponent take at most `width + es` bits, and the
    /// fraction bits pushed off the bottom only matter as sticky, so they
    /// are folded into one flag instead of being carried along.
    #[inline(always)]
    fn encode(self, neg: bool, scale: i32, frac: u64, sticky_extra: bool) -> u32 {
        let max_scale = self.max_scale();
        let body = if scale > max_scale {
            self.maxpos_bits()
        } else if scale < -max_scale {
            1 // minpos: nonzero values never round to zero
        } else {
            let k = scale >> self.es;
            let e = (scale - (k << self.es)) as u64;
            // `k + 1` ones then a zero, or `-k` zeros then a one: either
            // way `run + 1` regime bits and the terminator.
            let run = (k ^ (k >> 31)) as u32;
            let regime = if k >= 0 { !0u64 << (63 - run) } else { 1u64 << (62 - run) };
            let head = run + 2 + self.es;
            let stream = regime | (e << (64 - head)) | (frac >> head);
            let lost = frac << (64 - head) != 0;
            // The body is the top `width - 1` bits, the next one rounds.
            let tail = 64 - self.width;
            let body = (stream >> (tail + 1)) as u32;
            let round_bit = (stream >> tail) & 1 == 1;
            let sticky = (stream & ((1u64 << tail) - 1) != 0) | lost | sticky_extra;
            let body = body + u32::from(round_bit & (sticky | (body & 1 == 1)));
            // Never round past maxpos, never round a nonzero value to zero.
            body.clamp(1, self.maxpos_bits())
        };
        if neg {
            body.wrapping_neg() & self.mask()
        } else {
            body
        }
    }

    /// Correctly rounds an `f64` into this posit format.
    ///
    /// NaN and infinities map to `NaR` (infinity is not a real). Zero maps
    /// to the zero pattern. Everything else rounds with saturation;
    /// subnormal doubles lie below every `minpos` this type can describe
    /// (see [`Self::to_f64`]), so they saturate without normalisation.
    #[inline]
    pub fn round_from_f64(self, x: f64) -> u32 {
        let bits = x.to_bits();
        let raw_exp = ((bits >> 52) & 0x7ff) as i32;
        if raw_exp == 0x7ff {
            return self.nar_bits();
        }
        if bits << 1 == 0 {
            return 0;
        }
        self.encode(bits >> 63 == 1, raw_exp - 1023, bits << 12, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P32: PositFormat = PositFormat::POSIT32;
    const P16: PositFormat = PositFormat::POSIT16;

    /// The straightforward codec the fast one replaced, kept as the
    /// reference it is checked against: decode through [`Decoded`] and
    /// `powi`, encode on a width-generic u128 bit stream.
    mod reference {
        use super::super::{Decoded, PositFormat};

        pub fn decode(f: PositFormat, bits: u32) -> Decoded {
            let bits = bits & f.mask();
            if bits == 0 {
                return Decoded::Zero;
            }
            if bits == f.nar_bits() {
                return Decoded::NaR;
            }
            let neg = bits & f.nar_bits() != 0;
            let mag = if neg { bits.wrapping_neg() & f.mask() } else { bits };
            let aligned = mag << (32 - f.width);
            let body = aligned << 1;
            let rem_len = f.width - 1;
            let (k, consumed) = if body >> 31 == 1 {
                let ones = body.leading_ones().min(rem_len);
                (ones as i32 - 1, (ones + 1).min(rem_len))
            } else {
                let zeros = body.leading_zeros().min(rem_len);
                (-(zeros as i32), (zeros + 1).min(rem_len))
            };
            let rest = if consumed >= 32 { 0 } else { body << consumed };
            let e = if f.es == 0 { 0 } else { rest >> (32 - f.es) };
            let frac = if f.es >= 32 { 0 } else { rest << f.es };
            let scale = (k << f.es) + e as i32;
            let sig = (1u64 << 63) | ((frac as u64) << 31);
            Decoded::Finite { neg, scale, sig }
        }

        pub fn to_f64(f: PositFormat, bits: u32) -> f64 {
            match decode(f, bits) {
                Decoded::Zero => 0.0,
                Decoded::NaR => f64::NAN,
                Decoded::Finite { neg, scale, sig } => {
                    let v = sig as f64 * 2f64.powi(scale - 63);
                    if neg {
                        -v
                    } else {
                        v
                    }
                }
            }
        }

        pub fn encode_round(f: PositFormat, neg: bool, scale: i32, sig: u64, sticky_extra: bool) -> u32 {
            let max_scale = f.max_scale();
            let body = if scale > max_scale {
                f.maxpos_bits()
            } else if scale < -max_scale {
                1
            } else {
                let k = scale >> f.es;
                let e = (scale - (k << f.es)) as u32;
                let (regime, regime_len) = if k >= 0 {
                    ((((1u128 << (k + 1)) - 1) << 1), (k + 2) as u32)
                } else {
                    (1u128, (1 - k) as u32)
                };
                let frac63 = (sig << 1) as u128;
                let stream = (regime << (f.es + 64)) | ((e as u128) << 64) | frac63;
                let total_len = regime_len + f.es + 64;
                let shift = total_len - (f.width - 1);
                let mut body = (stream >> shift) as u32;
                let round_bit = (stream >> (shift - 1)) & 1;
                let sticky = (stream & ((1u128 << (shift - 1)) - 1)) != 0 || sticky_extra;
                if round_bit == 1 && (sticky || body & 1 == 1) {
                    body += 1;
                }
                body.clamp(1, f.maxpos_bits())
            };
            if neg {
                body.wrapping_neg() & f.mask()
            } else {
                body
            }
        }

        pub fn round_from_f64(f: PositFormat, x: f64) -> u32 {
            if x.is_nan() || x.is_infinite() {
                return f.nar_bits();
            }
            if x == 0.0 {
                return 0;
            }
            let bits = x.abs().to_bits();
            let raw_exp = ((bits >> 52) & 0x7ff) as i32;
            let frac = bits & ((1u64 << 52) - 1);
            let (scale, sig) = if raw_exp == 0 {
                let shift = frac.leading_zeros() - 11;
                (-1022 - shift as i32, (frac << shift) << 11)
            } else {
                (raw_exp - 1023, (frac | (1u64 << 52)) << 11)
            };
            encode_round(f, x < 0.0, scale, sig, false)
        }
    }

    /// Checks the codec against [`reference`] on one pattern: the decode
    /// (value and [`Decoded`] parts), the round trip, and the encoding of
    /// the midpoint to the next pattern up and of its f64 neighbours.
    /// Returns the number of disagreements.
    fn mismatches(f: PositFormat, bits: u32) -> u32 {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let enc = |x: f64| u32::from(f.round_from_f64(x) != reference::round_from_f64(f, x));
        let v = f.to_f64(bits);
        let mut bad = u32::from(!same(v, reference::to_f64(f, bits)));
        bad += u32::from(f.decode(bits) != reference::decode(f, bits));
        if !v.is_nan() {
            bad += u32::from(f.round_from_f64(v) != bits & f.mask());
        }
        let up = bits.wrapping_add(1) & f.mask();
        if up != f.nar_bits() && bits != f.nar_bits() {
            let mid = (v + f.to_f64(up)) / 2.0;
            let below = f64::from_bits(mid.to_bits().wrapping_sub(1));
            let above = f64::from_bits(mid.to_bits().wrapping_add(1));
            bad += enc(mid) + enc(below) + enc(above);
        }
        bad
    }

    /// The codec agrees with the reference on a stratified pattern set:
    /// every regime length of both signs (each run length's first, last
    /// and middle patterns and their neighbours), 0, NaR, minpos and
    /// maxpos, plus every posit16 pattern; each with its round trip and
    /// the midpoints to the next pattern ±1 ulp. Doubles outside the
    /// pattern grid cover ±0, subnormals, saturation and non-finite.
    #[test]
    fn codec_matches_reference_on_stratified_patterns() {
        for f in [P32, P16] {
            let mut pats = vec![0, f.nar_bits(), 1, f.maxpos_bits()];
            // Positive body patterns by regime run: `r` leading ones or
            // zeros after the sign, at both ends of each run's range.
            for r in 1..f.width {
                let ones = (f.maxpos_bits() >> r) ^ f.maxpos_bits();
                let zeros = f.maxpos_bits() >> r;
                for base in [ones, ones | (zeros >> 1), zeros >> 1, (zeros >> 1) | (zeros >> 2)] {
                    for d in [0u32, 1, 2, 0x55, 0x2AAA_AAAA] {
                        let b = (base ^ (d & (zeros >> 1))) & f.maxpos_bits();
                        pats.extend([b, b.wrapping_sub(1), b + 1]);
                    }
                }
            }
            let negs: Vec<u32> = pats.iter().map(|b| b.wrapping_neg() & f.mask()).collect();
            pats.extend(negs);
            if f == P16 {
                pats.extend(0..=0xFFFF);
            }
            let bad: u32 = pats.iter().map(|&b| mismatches(f, b & f.mask())).sum();
            assert_eq!(bad, 0, "{f:?}: {bad} disagreements with the reference codec");
            let doubles = [
                0.0,
                -0.0,
                f64::from_bits(1),
                -f64::from_bits(1),
                f64::MIN_POSITIVE,
                f64::from_bits(0x000F_FFFF_FFFF_FFFF),
                1e-300,
                -1e-300,
                1e300,
                -1e300,
                f64::MAX,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                2f64.powi(f.max_scale()) * 1.5,
                2f64.powi(-f.max_scale()) * 0.75,
                2f64.powi(-f.max_scale() - 1),
                2f64.powi(f.max_scale() + 1),
            ];
            for x in doubles {
                assert_eq!(f.round_from_f64(x), reference::round_from_f64(f, x), "{f:?} at {x:e}");
            }
        }
        // The arithmetic's entry with an explicit sticky residual.
        for sticky in [false, true] {
            for (scale, sig) in [(0, 1u64 << 63), (-3, (1u64 << 63) | (1 << 35)), (117, u64::MAX)] {
                assert_eq!(
                    P32.encode_round(true, scale, sig, sticky),
                    reference::encode_round(P32, true, scale, sig, sticky)
                );
            }
        }
    }

    /// Every one of the 2^32 posit32 patterns through [`mismatches`]
    /// (decode, round trip, midpoints ±1 ulp), on scoped threads. Takes
    /// minutes in release:
    /// `cargo test --release -p rlibm-posit -- --ignored exhaustive`.
    #[test]
    #[ignore]
    fn codec_matches_reference_on_every_posit32_pattern() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        let bad: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let end = ((t + 1) * span).min(1 << 32);
                        (t * span..end).map(|b| u64::from(mismatches(P32, b as u32))).sum::<u64>()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).sum()
        });
        assert_eq!(bad, 0, "{bad} disagreements with the reference codec");
    }

    #[test]
    fn decode_special_patterns() {
        assert_eq!(P32.decode(0), Decoded::Zero);
        assert_eq!(P32.decode(0x8000_0000), Decoded::NaR);
        assert_eq!(P16.decode(0x8000), Decoded::NaR);
    }

    #[test]
    fn decode_one() {
        // +1.0 for any posit: sign 0, regime "10", e = 0, frac = 0
        // posit32: 0100...0 = 0x4000_0000.
        match P32.decode(0x4000_0000) {
            Decoded::Finite { neg, scale, sig } => {
                assert!(!neg);
                assert_eq!(scale, 0);
                assert_eq!(sig, 1u64 << 63);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(P32.to_f64(0x4000_0000), 1.0);
        assert_eq!(P16.to_f64(0x4000), 1.0);
    }

    #[test]
    fn decode_minpos_maxpos() {
        assert_eq!(P32.to_f64(P32.maxpos_bits()), 2f64.powi(120));
        assert_eq!(P32.to_f64(1), 2f64.powi(-120));
        assert_eq!(P16.to_f64(P16.maxpos_bits()), 2f64.powi(28));
        assert_eq!(P16.to_f64(1), 2f64.powi(-28));
    }

    #[test]
    fn negative_patterns_are_twos_complement() {
        // -1.0 = two's complement of 0x4000_0000 = 0xC000_0000.
        assert_eq!(P32.to_f64(0xC000_0000), -1.0);
        assert_eq!(P32.round_from_f64(-1.0), 0xC000_0000);
    }

    #[test]
    fn roundtrip_every_posit16_pattern() {
        for bits in 0..=u16::MAX as u32 {
            let v = P16.to_f64(bits);
            if v.is_nan() {
                continue;
            }
            assert_eq!(
                P16.round_from_f64(v),
                bits,
                "pattern {bits:#06x} (value {v}) failed to round-trip"
            );
        }
    }

    #[test]
    fn roundtrip_posit32_sample() {
        // Stratified sample: every (multiple-of-97) pattern round-trips.
        let mut bits: u32 = 1;
        loop {
            let v = P32.to_f64(bits);
            if !v.is_nan() {
                assert_eq!(P32.round_from_f64(v), bits, "pattern {bits:#010x}");
            }
            match bits.checked_add(961_748_927) {
                Some(b) => bits = b,
                None => break,
            }
        }
    }

    #[test]
    fn saturation_rules() {
        // Values beyond maxpos saturate.
        assert_eq!(P32.round_from_f64(1e300), P32.maxpos_bits());
        assert_eq!(P32.round_from_f64(-1e300), P32.maxpos_bits().wrapping_neg());
        // Tiny nonzero values round to minpos, never zero.
        assert_eq!(P32.round_from_f64(1e-300), 1);
        assert_eq!(P32.round_from_f64(-1e-300), 1u32.wrapping_neg() & P32.mask());
        // Infinity and NaN are NaR.
        assert_eq!(P32.round_from_f64(f64::INFINITY), P32.nar_bits());
        assert_eq!(P32.round_from_f64(f64::NAN), P32.nar_bits());
    }

    #[test]
    fn rounding_is_to_nearest_with_even_ties() {
        // Adjacent posits around 1.0 in posit32: fraction quantum 2^-27.
        let one = P32.to_f64(0x4000_0000);
        let next = P32.to_f64(0x4000_0001);
        let mid = (one + next) / 2.0; // exactly representable in f64
        // Tie: 0x4000_0000 has even last bit -> rounds down.
        assert_eq!(P32.round_from_f64(mid), 0x4000_0000);
        let next2 = P32.to_f64(0x4000_0002);
        let mid2 = (next + next2) / 2.0;
        assert_eq!(P32.round_from_f64(mid2), 0x4000_0002);
        // Slightly off the tie rounds to the closer one.
        assert_eq!(P32.round_from_f64(mid * (1.0 + 1e-12)), 0x4000_0001);
    }

    #[test]
    fn pattern_order_is_value_order() {
        // For positive patterns, bit order == value order (the property the
        // encoder's carry propagation relies on).
        let mut prev = P32.to_f64(1);
        for bits in (2..P32.maxpos_bits()).step_by(7_919_111) {
            let v = P32.to_f64(bits);
            assert!(v > prev);
            prev = v;
        }
    }
}
