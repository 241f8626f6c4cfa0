//! Single correct rounding from a double-double result into any target.
//!
//! A kernel produces `hi + lo` representing `f(x)` to ~2^-90 relative
//! error. Collapsing to one double (`hi + lo`) and casting would round
//! *twice* — the exact failure mode that makes CR-LIBM's double results
//! wrong for float in the paper's Table 1. Instead we convert the pair to
//! a **round-to-odd** double (exactly: the residual of the collapse tells
//! us which side the true value lies on, and one of the two neighbouring
//! doubles is always odd), then apply the target's own rounding. Round-odd
//! at 53 bits followed by round-to-nearest into any representation with at
//! most 51 significant bits is a single correct rounding — ties and exact
//! values included.

use rlibm_fp::bits::{next_down_f64, next_up_f64};
use rlibm_fp::Representation;

use crate::dd::Dd;

/// Collapses a double-double to the round-to-odd double of its exact value.
#[inline]
pub fn to_f64_round_odd(v: Dd) -> f64 {
    let s = v.hi + v.lo;
    if !s.is_finite() {
        return s;
    }
    // Residual of the collapse: s + e == hi + lo exactly (FastTwoSum error
    // term; the dd invariant |lo| <= ulp(hi)/2 makes it valid).
    let e = v.lo - (s - v.hi);
    if e == 0.0 {
        return s; // exact: round-odd keeps exact values
    }
    if s.to_bits() & 1 == 1 {
        return s; // s is odd and the true value lies strictly between
                  // s's neighbours' midpoints: round-odd picks s
    }
    // s even: the true value is strictly between s and the adjacent double
    // in the residual's direction, and that neighbour is odd.
    if e > 0.0 {
        next_up_f64(s)
    } else {
        next_down_f64(s)
    }
}

/// Rounds a double-double kernel result into the target representation
/// with one correct rounding of the exact `hi + lo` value.
#[inline]
pub fn round_dd<T: Representation>(v: Dd) -> T {
    T::round_from_f64(to_f64_round_odd(v))
}

/// Convenience: round into `f32`.
#[inline]
pub fn round_dd_f32(v: Dd) -> f32 {
    round_dd::<f32>(v)
}

/// Certifies that rounding the plain double `y` to `f32` yields the
/// correct rounding of any real value within `band · 2^-53` *relative*
/// of `y` — the fast path's safety test.
///
/// `y` approximates `f(x)` with a statically derived relative error
/// bound. In the binade `[2^e, 2^(e+1))` that bound is at most
/// `band · 2^(e-52)` absolute, i.e. `band` units of the f64 fraction's
/// last place. The f32 rounding boundaries are the midpoints of adjacent
/// f32 values: fraction patterns whose low 29 bits equal `0x1000_0000`
/// (f32 keeps 23 of the 52 fraction bits in every normal binade). If `y`
/// is more than `band` units away from the nearest midpoint, every value
/// within the error bound rounds to the same f32 — so `y as f32` *is* the
/// correctly rounded result.
///
/// Boundaries *outside* `y`'s binade are automatically far: the nearest
/// cross-binade midpoints sit at least `2^27` fraction units from any
/// interior point's distance-to-midpoint test (and `band << 2^27`), so a
/// per-binade view is sound. Results that are not f32-normal (subnormal,
/// zero, overflow) are rejected wholesale — the dd fallback owns them.
#[inline(always)]
pub fn f32_round_safe(y: f64, band: u64) -> bool {
    debug_assert!(band < (1 << 26));
    let bits = y.to_bits();
    let be = (bits >> 52) & 0x7ff;
    // f32-normal results only: 2^-126 <= |y| < 2^128.
    if !(897..=1150).contains(&be) {
        return false;
    }
    let frac = bits & 0x1FFF_FFFF;
    frac.abs_diff(0x1000_0000) > band
}

/// Posit32 counterpart of [`f32_round_safe`].
///
/// Posit32 (`es = 2`) has a *regime-dependent* fraction width: for
/// unbiased exponent `e`, the regime `k = floor(e/4)` occupies
/// `k + 2` bits (`k >= 0`) or `-k + 1` bits (`k < 0`), leaving
/// `29 - regime_len` fraction bits. The rounding midpoints are therefore
/// at a different bit position per regime; everything else mirrors the
/// f32 test, with the band again in units of `2^-53` relative.
///
/// The accepted exponent range `-112 <= e <= 111` is exactly where the
/// posit grid inside `y`'s binade is uniform with both binade endpoints
/// representable, so a single frac-space midpoint test is sound. That
/// holds down to `frac_bits = 0` (`|k| <= 27` positive side, `k >= -28`
/// negative side), where the binade's grid is just its endpoints `2^e`
/// and `2^(e+1)` and the lone midpoint sits at mantissa 1.5. Beyond
/// that (`|k| >= 28`) the es field itself is truncated, the grid skips
/// exponents, and midpoints stop aligning with frac space — those
/// extremes (and the saturation zone near `maxpos = 2^120`) fall back
/// to the dd kernel.
#[inline(always)]
pub fn posit32_round_safe(y: f64, band: u64) -> bool {
    let bits = y.to_bits() & !(1u64 << 63);
    let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    if !(-112..=111).contains(&e) {
        return false; // covers zero (e = -1023) and non-finite too
    }
    // Regime k = floor(e / 4) takes `k + 2` bits (k >= 0) or `1 - k`
    // bits (k < 0): `(k ^ (k >> 63)) + 2` either way, without a branch.
    let k = e >> 2;
    let regime_len = ((k ^ (k >> 63)) + 2) as u64;
    let frac_bits = 29 - regime_len; // 0..=27 within the accepted range
    let shift = 52 - frac_bits;
    let frac = bits & ((1u64 << shift) - 1);
    frac.abs_diff(1u64 << (shift - 1)) > band
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlibm_fp::bits::midpoint_f32;

    #[test]
    fn exact_values_pass_through() {
        let v = Dd::from_f64(1.5);
        assert_eq!(to_f64_round_odd(v), 1.5);
        assert_eq!(round_dd_f32(v), 1.5f32);
    }

    #[test]
    fn avoids_double_rounding_at_f32_ties() {
        // Value = f32 tie + tiny: plain (hi+lo) as f32 would land ON the
        // tie and round to even (wrong); round_dd must go up.
        let tie = midpoint_f32(1.0, 1.0 + f32::EPSILON); // 1 + 2^-24
        let v = Dd::new(tie, 2f64.powi(-80));
        assert_eq!((v.hi + v.lo) as f32, 1.0, "naive path double-rounds");
        assert_eq!(round_dd_f32(v), 1.0 + f32::EPSILON, "round_dd must not");
        // And tie - tiny goes down.
        let w = Dd::new(tie, -2f64.powi(-80));
        assert_eq!(round_dd_f32(w), 1.0);
        // An exact tie keeps the ties-to-even answer.
        let t = Dd::from_f64(tie);
        assert_eq!(round_dd_f32(t), 1.0);
    }

    #[test]
    fn posit_boundaries_are_respected() {
        use rlibm_posit::Posit32;
        // posit32 tie between 1.0 and its successor (quantum 2^-27).
        let tie = 1.0 + 2f64.powi(-28);
        let v = Dd::new(tie, 1e-25);
        let up: Posit32 = round_dd(v);
        assert_eq!(up.to_f64(), 1.0 + 2f64.powi(-27));
        let dn: Posit32 = round_dd(Dd::new(tie, -1e-25));
        assert_eq!(dn.to_f64(), 1.0);
        // Exact tie: even pattern wins (1.0 has pattern 0x40000000, even).
        let ex: Posit32 = round_dd(Dd::from_f64(tie));
        assert_eq!(ex.to_f64(), 1.0);
    }

    #[test]
    fn overflow_and_underflow() {
        let big = Dd::from_f64(1e300);
        assert_eq!(round_dd_f32(big), f32::INFINITY);
        let tiny = Dd::new(2f64.powi(-200), 2f64.powi(-260));
        assert_eq!(round_dd_f32(tiny), 0.0);
        // f32 underflow tie: 2^-150 exactly -> 0 (ties to even)...
        let t = Dd::from_f64(2f64.powi(-150));
        assert_eq!(round_dd_f32(t), 0.0);
        // ...but a hair above must produce the smallest subnormal.
        let t2 = Dd::new(2f64.powi(-150), 2f64.powi(-220));
        assert_eq!(round_dd_f32(t2), f32::from_bits(1));
    }

    #[test]
    fn f32_safe_accepts_interior_and_rejects_midpoints() {
        // 1.5 sits exactly on the f32 grid: maximally far from midpoints.
        assert!(f32_round_safe(1.5, 4096));
        // An exact f32 midpoint (1 + 2^-24) must be rejected for any band.
        let mid = 1.0 + 2f64.powi(-24);
        assert!(!f32_round_safe(mid, 0));
        // Just past the band's edge on either side: accepted again.
        let band = 256u64;
        let above = f64::from_bits(mid.to_bits() + band + 1);
        let below = f64::from_bits(mid.to_bits() - band - 1);
        assert!(f32_round_safe(above, band));
        assert!(f32_round_safe(below, band));
        // Within the band: rejected.
        assert!(!f32_round_safe(f64::from_bits(mid.to_bits() + band), band));
    }

    #[test]
    fn f32_safe_rejects_non_normal_results() {
        assert!(!f32_round_safe(0.0, 256));
        assert!(!f32_round_safe(f64::NAN, 256));
        assert!(!f32_round_safe(f64::INFINITY, 256));
        assert!(!f32_round_safe(2f64.powi(-127), 256)); // f32-subnormal
        assert!(!f32_round_safe(2f64.powi(128), 256)); // f32 overflow
        assert!(f32_round_safe(2f64.powi(-126) * 1.5, 256));
        assert!(f32_round_safe(2f64.powi(127) * 1.5, 256));
    }

    #[test]
    fn f32_safe_agrees_with_cast_when_accepted() {
        use rlibm_fp::rng::XorShift64;
        // Property: if the test accepts y, then every value within
        // band·2^-53 relative of y casts to the same f32 as y.
        let mut rng = XorShift64::new(0xBEEF);
        let band = 2048u64;
        for _ in 0..50_000 {
            let e = rng.uniform_f64(-120.0, 120.0);
            let y = rng.uniform_f64(1.0, 2.0) * e.exp2();
            if !f32_round_safe(y, band) {
                continue;
            }
            let delta = band as f64 * 2f64.powi(-53) * y.abs();
            assert_eq!((y + delta) as f32, y as f32, "y = {y:e}");
            assert_eq!((y - delta) as f32, y as f32, "y = {y:e}");
        }
    }

    #[test]
    fn posit_safe_agrees_with_round_when_accepted() {
        use rlibm_fp::rng::XorShift64;
        use rlibm_posit::Posit32;
        let mut rng = XorShift64::new(0xCAFE);
        let band = 2048u64;
        let mut accepted = 0u32;
        for _ in 0..50_000 {
            let e = rng.uniform_f64(-100.0, 100.0);
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            let y = sign * rng.uniform_f64(1.0, 2.0) * e.exp2();
            if !posit32_round_safe(y, band) {
                continue;
            }
            accepted += 1;
            let delta = band as f64 * 2f64.powi(-53) * y.abs();
            let p = Posit32::from_f64(y);
            assert_eq!(Posit32::from_f64(y + delta), p, "y = {y:e}");
            assert_eq!(Posit32::from_f64(y - delta), p, "y = {y:e}");
        }
        assert!(accepted > 40_000, "safety test too conservative: {accepted}");
    }

    #[test]
    fn posit_safe_rejects_extremes() {
        assert!(!posit32_round_safe(0.0, 256));
        assert!(!posit32_round_safe(f64::NAN, 256));
        // Exact powers of two deep in the regime tail are still safe...
        assert!(posit32_round_safe(2f64.powi(100), 256));
        assert!(posit32_round_safe(2f64.powi(-100), 256));
        // ...but the es-truncation zone (|k| >= 28) is rejected wholesale.
        assert!(!posit32_round_safe(1.5 * 2f64.powi(112), 256));
        assert!(!posit32_round_safe(1.5 * 2f64.powi(-113), 256));
        assert!(!posit32_round_safe(2f64.powi(119), 256)); // near saturation
        // The exact posit 1.5 is far from every midpoint.
        assert!(posit32_round_safe(1.5, 4096));
        assert!(posit32_round_safe(-1.5, 4096));
        // A posit32 midpoint near 1.0: quantum 2^-27, midpoint 1 + 2^-28.
        assert!(!posit32_round_safe(1.0 + 2f64.powi(-28), 0));
    }

    /// In every binade the test accepts, its midpoint position is the
    /// posit grid's: the midpoint between `2^e` and the next posit up is
    /// rejected at band 0, and the doubles `band + 1` units either side
    /// of it are accepted at `band`.
    #[test]
    fn posit_safe_midpoints_follow_the_regime() {
        use rlibm_posit::Posit32;
        for e in -112..=111 {
            let p = Posit32::from_f64(2f64.powi(e));
            assert_eq!(p.to_f64(), 2f64.powi(e));
            let next = Posit32::from_bits(p.to_bits() + 1).to_f64();
            let mid = (p.to_f64() + next) / 2.0;
            assert!(!posit32_round_safe(mid, 0), "e = {e}: midpoint {mid:e} accepted");
            for band in [0u64, 256, 16384] {
                for m in [mid, -mid] {
                    let above = f64::from_bits(m.to_bits() + band + 1);
                    let below = f64::from_bits(m.to_bits() - band - 1);
                    assert!(posit32_round_safe(above, band), "e = {e}, band {band}: {above:e}");
                    assert!(posit32_round_safe(below, band), "e = {e}, band {band}: {below:e}");
                }
            }
        }
    }

    #[test]
    fn odd_s_keeps_s() {
        let s = f64::from_bits(0x3FF0_0000_0000_0001); // odd lsb
        let v = Dd::new(s, 2f64.powi(-80));
        assert_eq!(to_f64_round_odd(v), s);
        let w = Dd::new(s, -2f64.powi(-80));
        assert_eq!(to_f64_round_odd(w), s);
    }
}
