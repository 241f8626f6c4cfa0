//! The lane abstraction every fast-path kernel is written against.
//!
//! A [`Lane`] is one or more f64 evaluation lanes plus the handful of
//! operations the kernels in [`crate::fast`] need: IEEE arithmetic,
//! compare-to-mask, select, round-to-integer, the log reduction's bit
//! operations and packed-table gathers. Each kernel is written once,
//! generic over the lane, and instantiated twice:
//!
//! * `f64` — one lane, the scalar front ends and the portable slice
//!   driver. Every method is the plain scalar operation (real branches,
//!   `round_ties_even() as i64`, the `tables_codec` accessors), so the
//!   `f64` instantiation *is* the scalar kernel.
//! * [`avx2::F64x4`] (`simd` feature, x86_64) — four lanes in one
//!   `__m256d`. Every method is `#[inline(always)]` and is only reached
//!   from the `#[target_feature(enable = "avx2")]` slice driver, so the
//!   whole kernel inlines into straight AVX2 code.
//!
//! # Bit identity
//!
//! Both lanes execute the same IEEE-754 operation sequence per lane: the
//! kernels use plain mul/add (no FMA contraction), `cvtpd_epi32` rounds
//! ties-to-even under Rust's default MXCSR exactly like
//! `round_ties_even`, `cvttpd_epi32` truncates like the `as` cast on the
//! non-negative values the trig reductions feed it, and a select
//! computes each side with the ops the scalar branch runs. The tests in
//! `avx2` check every kernel at both tiers lane by lane.

use core::ops::{Add, BitAnd, BitXor, Div, Mul, Sub};

use crate::tables::Table;
use crate::tables_codec as codec;

/// f64 evaluation lanes (see the module docs).
pub(crate) trait Lane:
    Copy
    + Add<Output = Self>
    + Add<f64, Output = Self>
    + Sub<Output = Self>
    + Sub<f64, Output = Self>
    + Mul<Output = Self>
    + Mul<f64, Output = Self>
    + Div<Output = Self>
    + Div<f64, Output = Self>
{
    /// f64 values per lane value.
    const WIDTH: usize;
    /// Integer lanes (reduction indices and exponents).
    type I: Copy;
    /// Per-lane predicate.
    type M: Copy + BitAnd<Output = Self::M> + BitXor<Output = Self::M>;

    fn splat(v: f64) -> Self;
    /// Widens the first `WIDTH` values of `xs` (exact).
    fn widen(xs: &[f32]) -> Self;
    /// Loads the first `WIDTH` values of `y`.
    fn load(y: &[f64]) -> Self;
    /// Stores into the first `WIDTH` slots of `y`.
    fn store(self, y: &mut [f64]);
    fn below(self, c: f64) -> Self::M;
    fn at_most(self, c: f64) -> Self::M;
    fn above(self, c: f64) -> Self::M;
    fn at_least(self, c: f64) -> Self::M;
    /// The mask as lane bits, lane `i` in bit `i`.
    fn bits(m: Self::M) -> u64;
    /// `a` where `m`, else `b`.
    fn select(m: Self::M, a: Self, b: Self) -> Self;
    /// [`Lane::select`] for expensive sides: the scalar lane evaluates
    /// only the side it takes, a vector lane evaluates both and blends.
    fn select_with(m: Self::M, a: impl FnOnce() -> Self, b: impl FnOnce() -> Self) -> Self;
    /// `-self` where `m` (a sign flip).
    fn neg_where(self, m: Self::M) -> Self;
    fn abs(self) -> Self;
    /// `floor` for `0 <= self < 2^53`; other lanes are unspecified, so
    /// callers mask them out.
    fn floor_pos(self) -> Self;
    /// Round to nearest, ties to even.
    fn round_int(self) -> Self::I;
    /// Truncation (the callers' values are non-negative).
    fn trunc_int(self) -> Self::I;
    fn from_int(i: Self::I) -> Self;
    fn int_add(i: Self::I, c: i32) -> Self::I;
    fn int_and(i: Self::I, c: i32) -> Self::I;
    fn int_min(i: Self::I, c: i32) -> Self::I;
    fn int_sar(i: Self::I, s: u32) -> Self::I;
    /// `2^i`; the kernels keep `i` inside the normal f64 range.
    fn pow2i(i: Self::I) -> Self;
    /// Unbiased binary exponent as a double (`self` positive normal).
    fn exponent(self) -> Self;
    /// The significand scaled into `[1, 2)`.
    fn mantissa(self) -> Self;
    /// Hi word of table entry `i` (one u64 decode).
    fn gather_hi(t: &Table, i: Self::I) -> Self;
    /// `(hi, lo)` of table entry `i`.
    fn gather_pair(t: &Table, i: Self::I) -> (Self, Self);
    /// [`crate::round::f32_round_safe`] per lane.
    fn f32_round_safe(self, band: u64) -> Self::M;
}

const MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;

/// Emits `#[inline(always)]` one-line methods.
macro_rules! one_liners {
    ($(fn $f:ident($($p:tt)*) $(-> $r:ty)? { $($body:tt)* })*) => {$(
        #[inline(always)]
        fn $f($($p)*) $(-> $r)? { $($body)* }
    )*};
}

/// The scalar lane: every method is the plain scalar operation.
impl Lane for f64 {
    const WIDTH: usize = 1;
    type I = i64;
    type M = bool;

    one_liners! {
        fn splat(v: f64) -> f64 { v }
        fn widen(xs: &[f32]) -> f64 { xs[0] as f64 }
        fn load(y: &[f64]) -> f64 { y[0] }
        fn store(self, y: &mut [f64]) { y[0] = self }
        fn below(self, c: f64) -> bool { self < c }
        fn at_most(self, c: f64) -> bool { self <= c }
        fn above(self, c: f64) -> bool { self > c }
        fn at_least(self, c: f64) -> bool { self >= c }
        fn bits(m: bool) -> u64 { m as u64 }
        fn select(m: bool, a: f64, b: f64) -> f64 { if m { a } else { b } }
        fn select_with(m: bool, a: impl FnOnce() -> f64, b: impl FnOnce() -> f64) -> f64 { if m { a() } else { b() } }
        fn neg_where(self, m: bool) -> f64 { if m { -self } else { self } }
        fn abs(self) -> f64 { f64::abs(self) }
        // An integer-cast round trip: `f64::floor` is a libm call on the
        // baseline x86-64 target (no SSE4.1 `roundsd`), two converts are not.
        fn floor_pos(self) -> f64 { (self as u64) as f64 }
        fn round_int(self) -> i64 { self.round_ties_even() as i64 }
        fn trunc_int(self) -> i64 { self as i64 }
        fn from_int(i: i64) -> f64 { i as f64 }
        fn int_add(i: i64, c: i32) -> i64 { i + c as i64 }
        fn int_and(i: i64, c: i32) -> i64 { i & c as i64 }
        fn int_min(i: i64, c: i32) -> i64 { i.min(c as i64) }
        fn int_sar(i: i64, s: u32) -> i64 { i >> s }
        fn pow2i(i: i64) -> f64 { crate::float::exp::pow2i(i) }
        fn exponent(self) -> f64 { (((self.to_bits() >> 52) & 0x7ff) as i64 - 1023) as f64 }
        fn mantissa(self) -> f64 { f64::from_bits((self.to_bits() & MANT_MASK) | ONE_BITS) }
        fn gather_hi(t: &Table, i: i64) -> f64 { codec::unpack_hi(t.bytes, t.index(i), t.hi_base) }
        fn gather_pair(t: &Table, i: i64) -> (f64, f64) { codec::unpack_entry(t.bytes, t.index(i), t.hi_base, t.lo_base) }
        fn f32_round_safe(self, band: u64) -> bool { crate::round::f32_round_safe(self, band) }
    }
}

/// Four AVX2 lanes.
///
/// # Safety invariant
///
/// The methods wrap AVX2 intrinsics in `unsafe` blocks without checking
/// the CPU. They are sound because an `F64x4` is only ever produced by
/// code running under `#[target_feature(enable = "avx2")]` after
/// `is_x86_feature_detected!("avx2")` (the slice driver and the
/// AVX2-gated tests).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx2 {
    use super::{codec, Lane, Table, MANT_MASK, ONE_BITS};
    use core::arch::x86_64::*;
    use core::ops::{Add, BitAnd, BitXor, Div, Mul, Sub};

    #[derive(Clone, Copy)]
    pub(crate) struct F64x4(__m256d);

    /// All-ones / all-zeros per lane, as the `cmp_pd` family returns.
    #[derive(Clone, Copy)]
    pub(crate) struct M4(__m256d);

    const SIGN: i64 = i64::MIN;

    macro_rules! arith {
        ($tr:ident, $f:ident, $intr:ident) => {
            impl $tr for F64x4 {
                type Output = F64x4;
                #[inline(always)]
                fn $f(self, o: F64x4) -> F64x4 {
                    F64x4(unsafe { $intr(self.0, o.0) })
                }
            }
            impl $tr<f64> for F64x4 {
                type Output = F64x4;
                #[inline(always)]
                fn $f(self, o: f64) -> F64x4 {
                    <F64x4 as $tr>::$f(self, F64x4::splat(o))
                }
            }
        };
    }
    arith!(Add, add, _mm256_add_pd);
    arith!(Sub, sub, _mm256_sub_pd);
    arith!(Mul, mul, _mm256_mul_pd);
    arith!(Div, div, _mm256_div_pd);

    impl BitAnd for M4 {
        type Output = M4;
        #[inline(always)]
        fn bitand(self, o: M4) -> M4 {
            M4(unsafe { _mm256_and_pd(self.0, o.0) })
        }
    }

    impl BitXor for M4 {
        type Output = M4;
        #[inline(always)]
        fn bitxor(self, o: M4) -> M4 {
            M4(unsafe { _mm256_xor_pd(self.0, o.0) })
        }
    }

    impl F64x4 {
        #[inline(always)]
        fn cmp<const P: i32>(self, c: f64) -> M4 {
            M4(unsafe { _mm256_cmp_pd::<P>(self.0, _mm256_set1_pd(c)) })
        }
    }

    /// Vector twin of `tables_codec::decode_hi` (56-bit masked words).
    #[inline(always)]
    unsafe fn decode_hi(w: __m256i, base: u64) -> __m256d {
        let mant = _mm256_and_si256(w, _mm256_set1_epi64x(codec::MANT52_MASK as i64));
        let code = _mm256_srli_epi64::<52>(w);
        let exp = _mm256_slli_epi64::<52>(_mm256_add_epi64(code, _mm256_set1_epi64x(base as i64 - 1)));
        let zero = _mm256_cmpeq_epi64(code, _mm256_setzero_si256());
        _mm256_castsi256_pd(_mm256_andnot_si256(zero, _mm256_or_si256(exp, mant)))
    }

    /// Vector twin of `tables_codec::decode_lo` (57-bit masked words,
    /// sign in bit 56).
    #[inline(always)]
    unsafe fn decode_lo(w: __m256i, base: u64) -> __m256d {
        let mant = _mm256_and_si256(w, _mm256_set1_epi64x(codec::MANT52_MASK as i64));
        let code = _mm256_and_si256(_mm256_srli_epi64::<52>(w), _mm256_set1_epi64x(0xF));
        let sign = _mm256_slli_epi64::<7>(_mm256_and_si256(w, _mm256_set1_epi64x(1i64 << 56)));
        let exp = _mm256_slli_epi64::<52>(_mm256_add_epi64(code, _mm256_set1_epi64x(base as i64 - 1)));
        let bits = _mm256_or_si256(sign, _mm256_or_si256(exp, mant));
        let zero = _mm256_cmpeq_epi64(code, _mm256_setzero_si256());
        _mm256_castsi256_pd(_mm256_andnot_si256(zero, bits))
    }

    /// Byte offsets `15n` of the (mirrored, if the table says so)
    /// entries, and the table base. Every in-bounds index gathers in
    /// bounds: the last entry's lo load ends at the table's final byte.
    #[inline(always)]
    unsafe fn offsets(t: &Table, i: __m128i) -> (*const i64, __m128i) {
        let i = if t.mirror { _mm_sub_epi32(_mm_set1_epi32(256), i) } else { i };
        (t.bytes.as_ptr().cast(), _mm_sub_epi32(_mm_slli_epi32::<4>(i), i))
    }

    impl Lane for F64x4 {
        const WIDTH: usize = 4;
        type I = __m128i;
        type M = M4;

        #[inline(always)]
        fn splat(v: f64) -> F64x4 {
            F64x4(unsafe { _mm256_set1_pd(v) })
        }
        #[inline(always)]
        fn widen(xs: &[f32]) -> F64x4 {
            let xs = &xs[..4];
            F64x4(unsafe { _mm256_cvtps_pd(_mm_loadu_ps(xs.as_ptr())) })
        }
        #[inline(always)]
        fn load(y: &[f64]) -> F64x4 {
            let y = &y[..4];
            F64x4(unsafe { _mm256_loadu_pd(y.as_ptr()) })
        }
        #[inline(always)]
        fn store(self, y: &mut [f64]) {
            let y = &mut y[..4];
            unsafe { _mm256_storeu_pd(y.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn below(self, c: f64) -> M4 {
            self.cmp::<_CMP_LT_OQ>(c)
        }
        #[inline(always)]
        fn at_most(self, c: f64) -> M4 {
            self.cmp::<_CMP_LE_OQ>(c)
        }
        #[inline(always)]
        fn above(self, c: f64) -> M4 {
            self.cmp::<_CMP_GT_OQ>(c)
        }
        #[inline(always)]
        fn at_least(self, c: f64) -> M4 {
            self.cmp::<_CMP_GE_OQ>(c)
        }
        #[inline(always)]
        fn bits(m: M4) -> u64 {
            (unsafe { _mm256_movemask_pd(m.0) } as u64) & 0xF
        }
        #[inline(always)]
        fn select(m: M4, a: F64x4, b: F64x4) -> F64x4 {
            F64x4(unsafe { _mm256_blendv_pd(b.0, a.0, m.0) })
        }
        #[inline(always)]
        fn select_with(m: M4, a: impl FnOnce() -> F64x4, b: impl FnOnce() -> F64x4) -> F64x4 {
            Self::select(m, a(), b())
        }
        #[inline(always)]
        fn neg_where(self, m: M4) -> F64x4 {
            unsafe {
                let flipped = _mm256_xor_pd(self.0, _mm256_castsi256_pd(_mm256_set1_epi64x(SIGN)));
                F64x4(_mm256_blendv_pd(self.0, flipped, m.0))
            }
        }
        #[inline(always)]
        fn abs(self) -> F64x4 {
            F64x4(unsafe { _mm256_andnot_pd(_mm256_castsi256_pd(_mm256_set1_epi64x(SIGN)), self.0) })
        }
        #[inline(always)]
        fn floor_pos(self) -> F64x4 {
            F64x4(unsafe { _mm256_round_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(self.0) })
        }
        #[inline(always)]
        fn round_int(self) -> __m128i {
            unsafe { _mm256_cvtpd_epi32(self.0) }
        }
        #[inline(always)]
        fn trunc_int(self) -> __m128i {
            unsafe { _mm256_cvttpd_epi32(self.0) }
        }
        #[inline(always)]
        fn from_int(i: __m128i) -> F64x4 {
            F64x4(unsafe { _mm256_cvtepi32_pd(i) })
        }
        #[inline(always)]
        fn int_add(i: __m128i, c: i32) -> __m128i {
            unsafe { _mm_add_epi32(i, _mm_set1_epi32(c)) }
        }
        #[inline(always)]
        fn int_and(i: __m128i, c: i32) -> __m128i {
            unsafe { _mm_and_si128(i, _mm_set1_epi32(c)) }
        }
        #[inline(always)]
        fn int_min(i: __m128i, c: i32) -> __m128i {
            unsafe { _mm_min_epi32(i, _mm_set1_epi32(c)) }
        }
        #[inline(always)]
        fn int_sar(i: __m128i, s: u32) -> __m128i {
            unsafe { _mm_sra_epi32(i, _mm_cvtsi32_si128(s as i32)) }
        }
        /// Direct bit construction, valid for `-1022 <= i <= 1023`: the
        /// slice domains cap the exp-family `|k >> 6|` near 156, and
        /// placeholder lanes give tiny `k`. The scalar `pow2i` takes
        /// exactly this branch for those exponents.
        #[inline(always)]
        fn pow2i(i: __m128i) -> F64x4 {
            unsafe {
                let wide = _mm256_add_epi64(_mm256_cvtepi32_epi64(i), _mm256_set1_epi64x(1023));
                F64x4(_mm256_castsi256_pd(_mm256_slli_epi64::<52>(wide)))
            }
        }
        /// The biased exponent becomes an exact small-integer double via
        /// the 2^52 magic-bits trick, with the bias folded into the
        /// subtrahend.
        #[inline(always)]
        fn exponent(self) -> F64x4 {
            unsafe {
                let bits = _mm256_castpd_si256(self.0);
                let be = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), _mm256_set1_epi64x(0x7ff));
                let magic = _mm256_castsi256_pd(_mm256_or_si256(be, _mm256_set1_epi64x(0x4330_0000_0000_0000)));
                F64x4(_mm256_sub_pd(magic, _mm256_set1_pd(4_503_599_627_370_496.0 + 1023.0)))
            }
        }
        #[inline(always)]
        fn mantissa(self) -> F64x4 {
            unsafe {
                let bits = _mm256_and_si256(_mm256_castpd_si256(self.0), _mm256_set1_epi64x(MANT_MASK as i64));
                F64x4(_mm256_castsi256_pd(_mm256_or_si256(bits, _mm256_set1_epi64x(ONE_BITS as i64))))
            }
        }
        #[inline(always)]
        fn gather_hi(t: &Table, i: __m128i) -> F64x4 {
            unsafe {
                let (base, off) = offsets(t, i);
                let w = _mm256_i32gather_epi64::<1>(base, off);
                let hi = _mm256_and_si256(w, _mm256_set1_epi64x(codec::HI_WORD_MASK as i64));
                F64x4(decode_hi(hi, t.hi_base))
            }
        }
        /// Two scale-1 gathers per group, at byte offsets `15n` and
        /// `15n + 7`, then the fixed shift/mask decode.
        #[inline(always)]
        fn gather_pair(t: &Table, i: __m128i) -> (F64x4, F64x4) {
            unsafe {
                let (base, off) = offsets(t, i);
                let w0 = _mm256_i32gather_epi64::<1>(base, off);
                let w1 = _mm256_i32gather_epi64::<1>(base, _mm_add_epi32(off, _mm_set1_epi32(7)));
                let hi = _mm256_and_si256(w0, _mm256_set1_epi64x(codec::HI_WORD_MASK as i64));
                let lo = _mm256_and_si256(w1, _mm256_set1_epi64x(codec::LO_WORD_MASK as i64));
                (F64x4(decode_hi(hi, t.hi_base)), F64x4(decode_lo(lo, t.lo_base)))
            }
        }
        /// The scalar integer test on four lanes: biased exponent in
        /// `897..=1150` and the low 29 fraction bits farther than `band`
        /// from the midpoint pattern `2^28`.
        #[inline(always)]
        fn f32_round_safe(self, band: u64) -> M4 {
            debug_assert!(band < (1 << 26));
            unsafe {
                let bits = _mm256_castpd_si256(self.0);
                // Logical shift: the sign bit lands in bit 11, masked off.
                let be = _mm256_and_si256(_mm256_srli_epi64::<52>(bits), _mm256_set1_epi64x(0x7ff));
                let in_range = _mm256_and_si256(
                    _mm256_cmpgt_epi64(be, _mm256_set1_epi64x(896)),
                    _mm256_cmpgt_epi64(_mm256_set1_epi64x(1151), be),
                );
                let frac = _mm256_and_si256(bits, _mm256_set1_epi64x(0x1FFF_FFFF));
                let far = _mm256_or_si256(
                    _mm256_cmpgt_epi64(frac, _mm256_set1_epi64x(0x1000_0000 + band as i64)),
                    _mm256_cmpgt_epi64(_mm256_set1_epi64x(0x1000_0000 - band as i64), frac),
                );
                M4(_mm256_castsi256_pd(_mm256_and_si256(in_range, far)))
            }
        }
    }

    /// Runtime gate for the AVX2 lanes (cached by std).
    #[inline]
    pub(crate) fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    #[cfg(test)]
    mod tests {
        use super::{available, F64x4, Lane};
        use crate::fast::{self, Kernel};
        use rlibm_fp::rng::XorShift64;

        /// The slice driver's stage on one lane group: placeholder outside
        /// the domain, kernel, domain and round-safe masks.
        #[inline(always)]
        fn stage<L: Lane, K: Kernel, const FULL: bool>(xs: &[f32], y: &mut [f64]) -> (u64, u64) {
            let x = L::widen(xs);
            let m = K::domain(x);
            let v = K::eval::<L, FULL>(L::select(m, x, L::splat(1.0)));
            v.store(y);
            let band = if FULL { K::BANDS.1 } else { K::BANDS.0 };
            (L::bits(m), L::bits(v.f32_round_safe(band)))
        }

        #[target_feature(enable = "avx2")]
        unsafe fn stage4<K: Kernel, const FULL: bool>(xs: &[f32], y: &mut [f64]) -> (u64, u64) {
            stage::<F64x4, K, FULL>(xs, y)
        }

        /// Domain edges and their f32 neighbours, specials, random bit
        /// patterns and random values over every kernel's domain.
        fn inputs() -> Vec<f32> {
            let edges = [
                1.0f32, -106.0, 89.0, -151.0, 128.0, -45.5, 38.6, 90.0, 2f32.powi(-12),
                2f32.powi(-13), 0.0625, 2f32.powi(-36), 8_388_607.5, 8_388_608.0, 7.77e-5,
                16_777_215.0, 0.5, 1.5, 0.25, 1.0 / 512.0, 0.998_046_9, f32::MIN_POSITIVE,
                f32::from_bits(1), f32::MAX, f32::INFINITY, f32::NAN, 0.0,
            ];
            let mut xs = Vec::new();
            for e in edges {
                for b in [e.to_bits().wrapping_sub(1), e.to_bits(), e.to_bits() + 1] {
                    xs.push(f32::from_bits(b));
                    xs.push(-f32::from_bits(b));
                }
            }
            let mut rng = XorShift64::new(0x1A4E_5EED);
            for _ in 0..8000 {
                xs.push(f32::from_bits(rng.next_u32()));
                xs.push(rng.uniform_f64(-160.0, 160.0) as f32);
                xs.push(rng.uniform_f64(-4.0, 4.0) as f32);
                xs.push(rng.uniform_f64(-16_777_216.0, 16_777_216.0) as f32);
                xs.push((rng.uniform_f64(1.0, 2.0) * rng.uniform_f64(-140.0, 128.0).exp2()) as f32);
            }
            xs.resize(xs.len().next_multiple_of(4), 1.0);
            xs
        }

        fn check<K: Kernel, const FULL: bool>(name: &str, xs: &[f32]) {
            let mut in_domain = 0;
            for group in xs.chunks_exact(4) {
                let mut y4 = [0.0f64; 4];
                // SAFETY: the caller checked AVX2.
                let (dom4, safe4) = unsafe { stage4::<K, FULL>(group, &mut y4) };
                for (i, &x) in group.iter().enumerate() {
                    let mut y1 = [0.0f64];
                    let (dom1, safe1) = stage::<f64, K, FULL>(&group[i..], &mut y1);
                    let at = format!("{name} (full tier: {FULL}) at x = {x:e} ({:#010x})", x.to_bits());
                    assert_eq!(y4[i].to_bits(), y1[0].to_bits(), "value, {at}");
                    assert_eq!((dom4 >> i) & 1, dom1, "domain mask, {at}");
                    assert_eq!((safe4 >> i) & 1, safe1, "round-safe mask, {at}");
                    in_domain += dom1;
                }
            }
            assert!(in_domain > 2000, "{name}: only {in_domain} in-domain lanes");
        }

        /// Every kernel, at both tiers, gives `F64x4` and `f64` the same
        /// bits on every lane — placeholder lanes, domain edges and random
        /// in-domain values — along with the same domain and round-safe
        /// masks. The full tier is checked directly, not only on the few
        /// lanes the prefix band rejects.
        #[test]
        fn f64x4_kernels_match_f64_on_every_lane() {
            if !available() {
                return;
            }
            let xs = inputs();
            macro_rules! both_tiers {
                ($($k:ident),*) => {$(
                    check::<fast::$k, false>(stringify!($k), &xs);
                    check::<fast::$k, true>(stringify!($k), &xs);
                )*};
            }
            both_tiers!(Exp, Exp2, Exp10, Ln, Log2, Log10, Sinh, Cosh, Sinpi, Cospi);
        }

        #[target_feature(enable = "avx2")]
        unsafe fn round_safe4(y: &[f64; 4], band: u64) -> u64 {
            F64x4::bits(F64x4::load(y).f32_round_safe(band))
        }

        /// The vectorized safety mask agrees with the scalar predicate on
        /// every lane for random doubles and for values planted exactly at
        /// band edges.
        #[test]
        fn round_safe_mask_matches_scalar_predicate() {
            if !available() {
                return;
            }
            let mut rng = XorShift64::new(0xBEEF_CAFE);
            let mid = 1.0 + 2f64.powi(-24);
            for band in [0u64, 16, 256, 1024, 2048] {
                for trial in 0..3200 {
                    let mut y = [0.0f64; 4];
                    for (i, lane) in y.iter_mut().enumerate() {
                        *lane = match (trial + i) % 5 {
                            0 => f64::from_bits(rng.next_u64()),
                            1 => rng.uniform_f64(1.0, 2.0) * rng.uniform_f64(-130.0, 130.0).exp2(),
                            // Exactly on / next to a midpoint band edge.
                            2 => f64::from_bits(mid.to_bits() + band),
                            3 => f64::from_bits(mid.to_bits() + band + 1),
                            _ => [0.0, f64::NAN, f64::INFINITY, 2f64.powi(-127), -1.5][trial % 5],
                        };
                    }
                    // SAFETY: AVX2 checked above.
                    let mask = unsafe { round_safe4(&y, band) };
                    for (i, &v) in y.iter().enumerate() {
                        assert_eq!(
                            (mask >> i) & 1 == 1,
                            crate::round::f32_round_safe(v, band),
                            "band {band}, lane {i}, y = {v:e} ({:#018x})",
                            v.to_bits()
                        );
                    }
                }
            }
        }
    }
}
