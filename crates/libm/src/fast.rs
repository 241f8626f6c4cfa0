//! Plain-double **fast-path kernels** — the paper's actual evaluation
//! regime (`H = double`), recovered.
//!
//! The dd kernels in [`crate::float`] carry double-double pairs through
//! every accuracy-critical step, which buys a ~2^-85 evaluation error at a
//! self-measured 2-3x instruction cost (each `two_prod` is an `fma`
//! libcall on the workspace's baseline x86-64 target). RLIBM-32 never pays
//! that tax: its generated polynomials evaluate in *plain double* and the
//! result is still correctly rounded because the double sits far enough
//! from every rounding boundary of the 32-bit target.
//!
//! This module reproduces that regime as a **certified two-tier design**:
//!
//! 1. every function gets a plain-double kernel (reduction, table lookup,
//!    Horner — no double-double, no `fma` libcalls) with a *statically
//!    derived* relative error bound `BAND · 2^-53`. Each kernel is written
//!    once, generic over a [`Lane`] (scalar `f64` or four AVX2 lanes) and
//!    over its progressive tier, so the scalar front ends and the slice
//!    path run the same code;
//! 2. the front end checks, with one bit-pattern test
//!    ([`crate::round::f32_round_safe`] / `posit32_round_safe`]), whether
//!    the double could lie within that bound of a rounding boundary of the
//!    target grid. If it cannot, rounding the double **is** the correct
//!    rounding and the fast result ships;
//! 3. otherwise (a few parts per million of inputs) the existing dd +
//!    round-to-odd kernel re-runs — Ziv's two-step strategy with a
//!    statically certified first step instead of a dynamically widened
//!    one.
//!
//! # Certification argument
//!
//! Each kernel's bound is derived below from the classical op-by-op model
//! (every +,-,*,/ rounds with relative error <= 2^-53; exact steps are
//! called out) and then padded by 4-7 bits of margin. The bounds are
//! additionally validated empirically: the workspace tests compare the
//! two-tier output **bit-for-bit** against the pure dd kernels over the
//! exhaustive bfloat16 domain and million-input stratified f32/posit32
//! sweeps, and the tier-1 oracle tests (multi-precision Ziv oracle) cover
//! the composed pipeline. A band violation would surface as a bit
//! difference in those sweeps.
//!
//! Per-kernel error derivations (all relative to the final result, in
//! units of 2^-53; `u` denotes one rounding):
//!
//! | kernel | dominant terms | bound | BAND |
//! |---|---|---|---|
//! | `exp`   | reduction exact + 1u, poly ~4u, table combine ~2u | ~8u | 256 |
//! | `exp2`  | `t = x - k/64` exact (Sterbenz), rest as `exp` | ~8u | 256 |
//! | `exp10` | `x·LN10_HI` rounds before a 2^7 cancellation: ~2^7 u | ~160u | 1024 |
//! | `ln`    | `e·LN2_HI42` exact; cancellation vs table is Sterbenz-exact; poly-vs-result amplification <= 2.7x | ~16u | 256 |
//! | `log2`  | `e + table.0` exact in the cancelling case (integer + [1/2,1)) | ~16u | 256 |
//! | `log10` | `e·LOG10_2_HI` exact for the only cancelling `e = -1` | ~24u | 384 |
//! | `sinh`  | `(A - 1/A)` cancels <= coth(1/16) ~ 16x of ~4u | ~70u | 2048 |
//! | `cosh`  | `(A + 1/A)` never cancels | ~8u | 512 |
//! | `sinpi` | recombination terms share a sign; min result 0.0061 amplifies ~3u absolute | ~500u worst, pure-poly ~4u when `N = 0` | 2048 |
//! | `cospi` | Section 5 monotonic recombination, same shape as `sinpi` | ~500u | 2048 |
//!
//! The `sinpi`/`cospi` "amplification" rows deserve a note: for table
//! index `N = 0` (resp. `N' = 256`) the result *is* the polynomial value
//! and stays relatively accurate all the way to the smallest outputs; for
//! `N >= 1` the result is bounded below by `sin(pi/512) ~ 0.0061`, so a
//! ~3·2^-53 absolute error is at most ~500·2^-53 relative. The same
//! argument bounds `ln`/`log2`/`log10` away from their `x -> 1`
//! cancellation: the folded reduction (table index 128 -> exponent+1)
//! routes every input with `|log(x)| < ~0.0015` through the pure-poly
//! branch.
//!
//! All kernels require a **finite, in-domain** input (the front ends
//! filter specials first) and produce a finite double; out-of-range
//! results (f32-subnormal, posit regime > 24) are rejected by the safety
//! test itself, so the kernels never need to reason about them.

use crate::lane::Lane;
use crate::tables::{self as t, Table};

// Certified relative error bounds, in units of 2^-53 (see module docs).
pub(crate) const EXP_BAND: u64 = 256;
pub(crate) const EXP2_BAND: u64 = 256;
pub(crate) const EXP10_BAND: u64 = 1024;
pub(crate) const LN_BAND: u64 = 256;
pub(crate) const LOG2_BAND: u64 = 256;
pub(crate) const LOG10_BAND: u64 = 384;
pub(crate) const SINH_BAND: u64 = 2048;
pub(crate) const COSH_BAND: u64 = 512;
pub(crate) const SINPI_BAND: u64 = 2048;
pub(crate) const COSPI_BAND: u64 = 2048;

// Derived worst-case kernel errors from the table above, rounded *up* to
// the next power of two (same 2^-53 units as the bands). The difference
// `BAND - DERIVED` is the certification **slack**: a perturbation that
// moves a kernel result by at most that many f64 ulps keeps the total
// error within BAND, so an accepted round-safe test still implies a
// correct cast. The `fault` feature's in-band nudges are sized by these
// (see `crate::fault`).
#[cfg_attr(not(feature = "fault"), allow(dead_code))]
pub(crate) const EXP_DERIVED: u64 = 16;
#[cfg_attr(not(feature = "fault"), allow(dead_code))]
pub(crate) const EXP2_DERIVED: u64 = 16;
#[cfg_attr(not(feature = "fault"), allow(dead_code))]
pub(crate) const EXP10_DERIVED: u64 = 256;
#[cfg_attr(not(feature = "fault"), allow(dead_code))]
pub(crate) const LN_DERIVED: u64 = 32;
#[cfg_attr(not(feature = "fault"), allow(dead_code))]
pub(crate) const LOG2_DERIVED: u64 = 32;
#[cfg_attr(not(feature = "fault"), allow(dead_code))]
pub(crate) const LOG10_DERIVED: u64 = 64;
#[cfg_attr(not(feature = "fault"), allow(dead_code))]
pub(crate) const SINH_DERIVED: u64 = 128;
#[cfg_attr(not(feature = "fault"), allow(dead_code))]
pub(crate) const COSH_DERIVED: u64 = 16;
#[cfg_attr(not(feature = "fault"), allow(dead_code))]
pub(crate) const SINPI_DERIVED: u64 = 1024;
#[cfg_attr(not(feature = "fault"), allow(dead_code))]
pub(crate) const COSPI_DERIVED: u64 = 1024;

// ---------------------------------------------------------------------
// Progressive prefix tier (tier 0)
// ---------------------------------------------------------------------
//
// Each kernel also runs as a **prefix tier**: the same reduction and
// table combine, but evaluating only a low-degree prefix of the
// polynomial (the progressive sets `rlibm_core::polygen::gen_progressive`
// emits). The truncation error is larger, so the prefix result is tested
// against a wider `*_PREFIX_BAND`; the rare escalations (the band is
// still a tiny fraction of the 2^28-scale rounding boundary, so well
// under 1% of inputs) re-run the full-degree kernel, and only *its*
// rejects reach dd. Output bits are unchanged at every tier: both safety
// tests are sound for any in-band error, so whichever tier ships, the
// cast is the correct rounding.
//
// Prefix bands, same 2^-53 relative units. Derivations mirror the full
// table above with the truncated tail added. The prefix tier also
// reads only the **hi words** of the packed tables (half the bytes, one
// u64 decode per entry): the dropped lo word is < 2^-54 of its hi word,
// which is under 1u for the exp family and at most a few hundred u for
// the log family at the fold's ~0.0027 cancellation floor — noise
// against every band below, and any excursion simply escalates a tier.
//
// | prefix kernel | dropped terms | added trunc error | PREFIX_BAND |
// |---|---|---|---|
// | `exp`/`exp2` | r^5/120.. | r^5/120 <= ~351u at |r| <= ln2/128 | 2048 |
// | `exp10` | r^5/120.. | ~351u on top of the ~160u reduction | 4096 |
// | logs | u^4 term of q on | u^6/6 abs; <= ~2300u rel after the fold's 0.0027 floor (x1.44 for log2) | 16384 |
// | `sinh` | via prefix exp | ~351u x coth(1/16) ~ 16 | 16384 |
// | `cosh` | via prefix exp | ~351u, no cancellation | 2048 |
// | `sinpi`/`cospi` | C5, C7 of sp; C6 of cp | C5·r^5 ~ 7.3e-14 abs vs the 0.0061 result floor: ~110000u | 1 << 19 |
pub(crate) const EXP_PREFIX_BAND: u64 = 2048;
pub(crate) const EXP2_PREFIX_BAND: u64 = 2048;
pub(crate) const EXP10_PREFIX_BAND: u64 = 4096;
pub(crate) const LN_PREFIX_BAND: u64 = 16384;
pub(crate) const LOG2_PREFIX_BAND: u64 = 16384;
pub(crate) const LOG10_PREFIX_BAND: u64 = 16384;
pub(crate) const SINH_PREFIX_BAND: u64 = 16384;
pub(crate) const COSH_PREFIX_BAND: u64 = 2048;
pub(crate) const SINPI_PREFIX_BAND: u64 = 1 << 19;
pub(crate) const COSPI_PREFIX_BAND: u64 = 1 << 19;

// Derived worst-case prefix errors, rounded up to a power of two. The
// `fault` hook still nudges by the *full-band* slack (`BAND - DERIVED`)
// but now at the prefix site, so soundness needs
// `PREFIX_DERIVED + (BAND - DERIVED) <= PREFIX_BAND` — asserted for
// every function in the tests below.
pub(crate) const EXP_PREFIX_DERIVED: u64 = 512;
pub(crate) const EXP2_PREFIX_DERIVED: u64 = 512;
pub(crate) const EXP10_PREFIX_DERIVED: u64 = 1024;
pub(crate) const LN_PREFIX_DERIVED: u64 = 4096;
pub(crate) const LOG2_PREFIX_DERIVED: u64 = 4096;
pub(crate) const LOG10_PREFIX_DERIVED: u64 = 4096;
pub(crate) const SINH_PREFIX_DERIVED: u64 = 8192;
pub(crate) const COSH_PREFIX_DERIVED: u64 = 512;
pub(crate) const SINPI_PREFIX_DERIVED: u64 = 1 << 17;
pub(crate) const COSPI_PREFIX_DERIVED: u64 = 1 << 17;

// ---------------------------------------------------------------------
// Kernels: one per function, generic over the lane and the tier
// ---------------------------------------------------------------------
//
// `FULL = false` is the prefix tier, `FULL = true` the full tier. The
// tier decides how many coefficients of each [`Poly`] the Horner chain
// evaluates and whether the table lo words (and the trig `corr` fold)
// are added in; the reduction and every other op are shared.

/// One f32 function's fast path: the lanes it accepts and its kernel.
pub(crate) trait Kernel {
    /// Round-safety bands of the prefix and full tiers (2^-53 units).
    const BANDS: (u64, u64);
    /// The slice path's fast-path domain, on the exactly widened f32.
    /// Other lanes re-enter the scalar front end.
    fn domain<L: Lane>(x: L) -> L::M;
    /// The kernel at the tier `FULL` selects, for a finite in-domain `x`.
    fn eval<L: Lane, const FULL: bool>(x: L) -> L;
}

/// A polynomial's coefficients, lowest order first. The prefix tier
/// evaluates the first `prefix` of them, the full tier all.
pub(crate) struct Poly {
    c: &'static [f64],
    prefix: usize,
}

impl Poly {
    /// `(prefix, full)` term counts of a kernel polynomial that has
    /// `lead` terms outside this Horner chain.
    pub(crate) const fn tier_terms(&self, lead: usize) -> (usize, usize) {
        (lead + self.prefix, lead + self.c.len())
    }

    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(&self, x: L) -> L {
        horner(x, &self.c[..if FULL { self.c.len() } else { self.prefix }])
    }
}

/// `c0 + x·(c1 + x·(c2 + ...))`, plain mul/add.
#[inline(always)]
fn horner<L: Lane>(x: L, c: &[f64]) -> L {
    let n = c.len();
    let mut acc = L::splat(c[n - 1]);
    for &ci in c[..n - 1].iter().rev() {
        acc = acc * x + ci;
    }
    acc
}

/// `e^r` for `|r| <= ln2/128`, degree 7 as `1 + r·(1 + r·q(r))` so the
/// relative error stays a few ulps as `r -> 0`; truncation
/// `r^8/8! < 2^-75`. The degree-4 prefix drops `r^5/120..`.
pub(crate) const EXP_POLY: Poly = Poly {
    c: &[1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0, 1.0 / 720.0, 1.0 / 5040.0],
    prefix: 5,
};

/// `q(u)` of `log1p(u) = u + u^2·q(u)`, `|u| <= 1/256 + slack`;
/// truncation `u^9/9`. The prefix keeps terms through `u^3/5`.
pub(crate) const LOG1P_Q: Poly = Poly {
    c: &[-0.5, 1.0 / 3.0, -0.25, 0.2, -1.0 / 6.0, 1.0 / 7.0, -0.125],
    prefix: 4,
};

/// Tail of `sin(pi r) = r·PI + r^3·tail(r^2)`; the prefix keeps `C3`.
pub(crate) const SINPI_TAIL: Poly = Poly { c: &[t::SINPI_C3, t::SINPI_C5, t::SINPI_C7], prefix: 1 };

/// Tail of `cos(pi r) = 1 + r^2·C2 + r^4·tail(r^2)`; the prefix keeps `C4`.
pub(crate) const COSPI_TAIL: Poly = Poly { c: &[t::COSPI_C4, t::COSPI_C6], prefix: 1 };

/// Odd Taylor tail of `sinh` below 2^-4, full degree at both tiers.
const SINH_TAYLOR: [f64; 4] = [1.0 / 6.0, 1.0 / 120.0, 1.0 / 5040.0, 1.0 / 362_880.0];

/// Even Taylor series of `cosh` below 2^-4, full degree at both tiers.
const COSH_TAYLOR: [f64; 5] = [1.0, 0.5, 1.0 / 24.0, 1.0 / 720.0, 1.0 / 40_320.0];

/// Table entry `i`: the full tier reads `(hi, lo)`, the prefix tier the
/// hi word only (the lo slot is zero and never added).
#[inline(always)]
fn lookup<L: Lane, const FULL: bool>(tab: &Table, i: L::I) -> (L, L) {
    if FULL {
        L::gather_pair(tab, i)
    } else {
        (L::gather_hi(tab, i), L::splat(0.0))
    }
}

/// `2^(k/64)·e^r`: table at `k mod 64`, exponent scale at `k div 64`
/// (`& 63` and `>> 6` on two's complement). The full tier folds the lo
/// word in with one add (`p ~ 1`, so `tl·p ~ tl`).
#[inline(always)]
fn exp_combine<L: Lane, const FULL: bool>(k: L::I, r: L) -> L {
    let (th, tl) = lookup::<L, FULL>(&t::EXP2_64, L::int_and(k, 63));
    let mut v = th * EXP_POLY.eval::<L, FULL>(r);
    if FULL {
        v = v + tl;
    }
    v * L::pow2i(L::int_sar(k, 6))
}

/// `k·ln2/64` in two words for `|k| < 2^14`: `k·LN2_64_HI` is exact
/// (39-bit constant x 14-bit integer) and the MID word is a power of
/// two, so its product is exact too.
#[inline(always)]
fn k_ln2_64<L: Lane>(kf: L) -> (L, L) {
    (kf * t::LN2_64_HI, kf * t::LN2_64_MID)
}

/// `e^x`, finite `|x| <= 91` (so `|k| < 2^14`).
pub(crate) struct Exp;

impl Kernel for Exp {
    const BANDS: (u64, u64) = (EXP_PREFIX_BAND, EXP_BAND);
    #[inline(always)]
    fn domain<L: Lane>(x: L) -> L::M {
        x.at_least(-106.0) & x.at_most(89.0)
    }
    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(x: L) -> L {
        let k = (x * (64.0 * t::LOG2_E)).round_int();
        let (hi, mid) = k_ln2_64(L::from_int(k));
        // x - hi is exact (Sterbenz), so the reduction rounds once.
        exp_combine::<L, FULL>(k, (x - hi) - mid)
    }
}

/// `2^x`, finite `|x| <= 155`.
pub(crate) struct Exp2;

impl Kernel for Exp2 {
    const BANDS: (u64, u64) = (EXP2_PREFIX_BAND, EXP2_BAND);
    #[inline(always)]
    fn domain<L: Lane>(x: L) -> L::M {
        x.at_least(-151.0) & x.below(128.0)
    }
    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(x: L) -> L {
        let k = (x * 64.0).round_int();
        let tt = x - L::from_int(k) / 64.0; // exact: shared grid, Sterbenz
        exp_combine::<L, FULL>(k, tt * t::LN2_HI + tt * t::LN2_LO)
    }
}

/// `10^x`, finite `|x| <= 40`. The reduced argument cancels ~7 bits of
/// `x·ln10`, and `x·LN10_HI` rounds before the cancellation: the
/// dominant ~2^-46 error, absorbed by `EXP10_BAND`.
pub(crate) struct Exp10;

impl Kernel for Exp10 {
    const BANDS: (u64, u64) = (EXP10_PREFIX_BAND, EXP10_BAND);
    #[inline(always)]
    fn domain<L: Lane>(x: L) -> L::M {
        x.at_least(-45.5) & x.at_most(38.6f32 as f64)
    }
    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(x: L) -> L {
        let k = (x * (64.0 * t::LOG2_10)).round_int();
        let (hi, mid) = k_ln2_64(L::from_int(k));
        exp_combine::<L, FULL>(k, (x * t::LN10_HI - hi) + (x * t::LN10_LO - mid))
    }
}

/// Tang reduction with the **index-128 fold**: `j = 128` becomes
/// `(e + 1, j = 0)`, so every input with `|log x| < ~0.0039` lands in the
/// pure-polynomial branch (`e = 0, j = 0`) and keeps relative accuracy.
/// Returns `(e, j, u)` with `u = (z - F)/F`, for positive normal `x`.
#[inline(always)]
fn log_reduce<L: Lane>(x: L) -> (L, L::I, L) {
    let z = x.mantissa();
    let t = (z - 1.0) * 128.0;
    let j = t.round_int(); // 0..=128
    let fold = t.at_least(127.5); // exactly the lanes where j == 128
    let e = x.exponent();
    let e = L::select(fold, e + 1.0, e);
    let z = L::select(fold, z * 0.5, z); // exact
    let j = L::int_and(j, 127);
    let f = L::from_int(j) / 128.0 + 1.0;
    // z - f is exact: same binade, shared grid (Sterbenz at j = 0).
    (e, j, (z - f) / f)
}

#[inline(always)]
fn log1p<L: Lane, const FULL: bool>(u: L) -> L {
    u + (u * u) * LOG1P_Q.eval::<L, FULL>(u)
}

#[inline(always)]
fn log_domain<L: Lane>(x: L) -> L::M {
    // Every positive f32, subnormals included, widens to a normal f64.
    x.above(0.0) & x.below(f64::INFINITY)
}

/// `ln(x)`.
pub(crate) struct Ln;

impl Kernel for Ln {
    const BANDS: (u64, u64) = (LN_PREFIX_BAND, LN_BAND);
    #[inline(always)]
    fn domain<L: Lane>(x: L) -> L::M {
        log_domain(x)
    }
    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(x: L) -> L {
        let (e, j, u) = log_reduce(x);
        let (fh, fl) = lookup::<L, FULL>(&t::LN_F, j);
        // e·LN2_HI42 is exact (42-bit constant x |e| <= 2^11); when it
        // cancels against the table value the sum is Sterbenz-exact.
        let c = e * t::LN2_HI42 + fh;
        let mut lo = e * t::LN2_MID;
        if FULL {
            lo = fl + lo;
        }
        c + (log1p::<L, FULL>(u) + lo)
    }
}

/// `log2(x)`.
pub(crate) struct Log2;

impl Kernel for Log2 {
    const BANDS: (u64, u64) = (LOG2_PREFIX_BAND, LOG2_BAND);
    #[inline(always)]
    fn domain<L: Lane>(x: L) -> L::M {
        log_domain(x)
    }
    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(x: L) -> L {
        let (e, j, u) = log_reduce(x);
        let (fh, fl) = lookup::<L, FULL>(&t::LOG2_F, j);
        // Integer + [0, 1): exact whenever it cancels (e = -1, j near 128).
        let c = e + fh;
        let p = log1p::<L, FULL>(u);
        let mut lo = p * t::INV_LN2_LO;
        if FULL {
            lo = fl + lo;
        }
        c + (p * t::INV_LN2_HI + lo)
    }
}

/// `log10(x)`.
pub(crate) struct Log10;

impl Kernel for Log10 {
    const BANDS: (u64, u64) = (LOG10_PREFIX_BAND, LOG10_BAND);
    #[inline(always)]
    fn domain<L: Lane>(x: L) -> L::M {
        log_domain(x)
    }
    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(x: L) -> L {
        let (e, j, u) = log_reduce(x);
        let (fh, fl) = lookup::<L, FULL>(&t::LOG10_F, j);
        // The only cancelling exponent is e = -1, where the product is exact.
        let c = e * t::LOG10_2_HI + fh;
        let p = log1p::<L, FULL>(u);
        let mut lo = e * t::LOG10_2_LO;
        if FULL {
            lo = fl + lo;
        }
        c + (p * t::INV_LN10_HI + (lo + p * t::INV_LN10_LO))
    }
}

/// `sinh(x)` for finite `2^-12 <= |x| <= 90` (smaller `|x|` round to `x`
/// in every 32-bit target). Below 2^-4 the odd Taylor series avoids the
/// `A - 1/A` cancellation; above it the cancellation is bounded by
/// `coth(1/16) ~ 16`. The prefix tier runs the prefix `exp`.
pub(crate) struct Sinh;

impl Kernel for Sinh {
    const BANDS: (u64, u64) = (SINH_PREFIX_BAND, SINH_BAND);
    #[inline(always)]
    fn domain<L: Lane>(x: L) -> L::M {
        let a = x.abs();
        a.at_most(90.0) & a.at_least(2f64.powi(-12))
    }
    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(x: L) -> L {
        let a = x.abs();
        let v = L::select_with(
            a.below(0.0625),
            || {
                let x2 = a * a;
                a + a * x2 * horner(x2, &SINH_TAYLOR)
            },
            || {
                let big = Exp::eval::<L, FULL>(a);
                (big - L::splat(1.0) / big) * 0.5
            },
        );
        v.neg_where(x.below(0.0))
    }
}

/// `cosh(x)` for finite `2^-13 <= |x| <= 90`; `A + 1/A` never cancels.
pub(crate) struct Cosh;

impl Kernel for Cosh {
    const BANDS: (u64, u64) = (COSH_PREFIX_BAND, COSH_BAND);
    #[inline(always)]
    fn domain<L: Lane>(x: L) -> L::M {
        let a = x.abs();
        a.at_most(90.0) & a.at_least(2f64.powi(-13))
    }
    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(x: L) -> L {
        let a = x.abs();
        L::select_with(
            a.below(0.0625),
            || horner(a * a, &COSH_TAYLOR),
            || {
                let big = Exp::eval::<L, FULL>(a);
                (big + L::splat(1.0) / big) * 0.5
            },
        )
    }
}

/// `sin(pi r)` for exact `r in [0, 1/512]`, relative accurate as
/// `r -> 0` (the leading term rounds once).
#[inline(always)]
fn sinpi_poly<L: Lane, const FULL: bool>(r: L) -> L {
    let r2 = r * r;
    r * t::PI_HI + (r * t::PI_LO + r * r2 * SINPI_TAIL.eval::<L, FULL>(r2))
}

/// `cos(pi r)` for exact `r in [0, 1/512]`.
#[inline(always)]
fn cospi_poly<L: Lane, const FULL: bool>(r: L) -> L {
    let r2 = r * r;
    (r2 * t::COSPI_C2_HI + (r2 * t::COSPI_C2_LO + r2 * r2 * COSPI_TAIL.eval::<L, FULL>(r2))) + 1.0
}

/// `a mod 2` folded into `[0, 1)`, with the upper-half-period flag.
#[inline(always)]
fn mod2_split<L: Lane>(a: L) -> (L::M, L) {
    let j = a - (a * 0.5).floor_pos() * 2.0;
    let k = j.at_least(1.0);
    (k, L::select(k, j - 1.0, j))
}

/// The trig table combine at entry `n`: `A·cp + B·sp` with
/// `(A, B) = (a[n], b[n])`. The full tier folds the lo words in with two
/// cheap products (`corr`), recovering the ~2^-54 they carry; the prefix
/// tier drops them (~2^-53 relative, invisible against its 2^-34 band).
#[inline(always)]
fn trig_combine<L: Lane, const FULL: bool>(a: &Table, b: &Table, n: L::I, r: L) -> L {
    let sp = sinpi_poly::<L, FULL>(r);
    let cp = cospi_poly::<L, FULL>(r);
    let (ah, al) = lookup::<L, FULL>(a, n);
    let (bh, bl) = lookup::<L, FULL>(b, n);
    let mut tail = bh * sp;
    if FULL {
        tail = tail + (al * cp + bl * sp);
    }
    ah * cp + tail
}

/// `sin(pi x)` for non-integer `2^-36 <= |x| < 2^23`. Table index
/// `N = 0` has `(sin, cos) = (0, 1)`, so the result is the polynomial
/// itself and keeps relative accuracy for the smallest results.
pub(crate) struct Sinpi;

impl Kernel for Sinpi {
    const BANDS: (u64, u64) = (SINPI_PREFIX_BAND, SINPI_BAND);
    #[inline(always)]
    fn domain<L: Lane>(x: L) -> L::M {
        let a = x.abs();
        a.below(8_388_608.0) & a.at_least(2f64.powi(-36)) & (a - a.floor_pos()).above(0.0)
    }
    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(x: L) -> L {
        let (k, l) = mod2_split(x.abs());
        let lp = L::select(l.above(0.5), L::splat(1.0) - l, l); // mirror, exact
        // N = floor(lp·512) in 0..=256; the clamp only keeps vector
        // gathers in bounds and never binds in-domain.
        let n = L::int_min((lp * 512.0).trunc_int(), 256);
        let r = lp - L::from_int(n) / 512.0; // exact
        trig_combine::<L, FULL>(&t::SINPI_T, &t::COSPI_T, n, r).neg_where(x.below(0.0) ^ k)
    }
}

/// `cos(pi x)` for non-integer, non-half-integer `7.77e-5 <= |x| < 2^24`.
/// Section 5's monotonic recombination (`L' = N'/512 - R`, both terms
/// share a sign); `N = 0` is the pure polynomial at `lp`, keeping
/// relative accuracy near the zeros at half-integers.
pub(crate) struct Cospi;

impl Kernel for Cospi {
    const BANDS: (u64, u64) = (COSPI_PREFIX_BAND, COSPI_BAND);
    #[inline(always)]
    fn domain<L: Lane>(x: L) -> L::M {
        let a = x.abs();
        let a2 = a * 2.0; // catches integers and half-integers alike
        a.at_least(7.77e-5) & a.below(16_777_216.0) & (a2 - a2.floor_pos()).above(0.0)
    }
    #[inline(always)]
    fn eval<L: Lane, const FULL: bool>(x: L) -> L {
        let (k, l) = mod2_split(x.abs());
        let m = l.above(0.5);
        let lp = L::select(m, L::splat(1.0) - l, l);
        // N in 0..=255 (lp < 1/2 in-domain); the clamp is gather safety.
        let n512 = lp * 512.0;
        let n = L::int_min(n512.trunc_int(), 255);
        let v = L::select_with(
            n512.below(1.0), // N == 0
            || cospi_poly::<L, FULL>(lp),
            || {
                let np = L::int_add(n, 1);
                let r = L::from_int(np) / 512.0 - lp; // exact
                trig_combine::<L, FULL>(&t::COSPI_T, &t::SINPI_T, np, r)
            },
        );
        v.neg_where(k ^ m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::exp::{exp10_kernel, exp2_kernel, exp_kernel};
    use crate::float::hyper::{cosh_kernel, sinh_kernel};
    use crate::float::log::{ln_kernel, log10_kernel, log2_kernel};
    use rlibm_fp::rng::XorShift64;

    fn full<K: Kernel>(x: f64) -> f64 {
        K::eval::<f64, true>(x)
    }

    fn prefix<K: Kernel>(x: f64) -> f64 {
        K::eval::<f64, false>(x)
    }

    /// Checks a kernel tier against the dd kernel on random in-domain
    /// inputs: the observed relative error must stay within the certified
    /// band constant (the dd kernel is ~2^-85 accurate, so the difference
    /// is an excellent proxy for the fast kernel's true error).
    fn assert_within_band(
        fast: impl Fn(f64) -> f64,
        dd: impl Fn(f64) -> crate::dd::Dd,
        lo: f64,
        hi: f64,
        band: u64,
        log_domain: bool,
    ) {
        let mut rng = XorShift64::new(0xFA57);
        for _ in 0..20_000 {
            let x = if log_domain {
                // log-uniform positives
                let e = rng.uniform_f64(-120.0, 120.0);
                rng.uniform_f64(1.0, 2.0) * e.exp2()
            } else {
                rng.uniform_f64(lo, hi)
            };
            let got = fast(x);
            let want = dd(x).to_f64();
            let rel = ((got - want) / want).abs();
            assert!(
                rel <= band as f64 * 2f64.powi(-53),
                "fast kernel out of band at x = {x:e}: rel = {rel:e}, band = {band}"
            );
        }
    }

    #[test]
    fn exp_family_within_band() {
        assert_within_band(full::<Exp>, exp_kernel, -87.0, 88.0, EXP_BAND, false);
        assert_within_band(full::<Exp2>, exp2_kernel, -149.0, 127.9, EXP2_BAND, false);
        assert_within_band(full::<Exp10>, exp10_kernel, -45.0, 38.5, EXP10_BAND, false);
    }

    #[test]
    fn log_family_within_band() {
        assert_within_band(full::<Ln>, ln_kernel, 0.0, 0.0, LN_BAND, true);
        assert_within_band(full::<Log2>, log2_kernel, 0.0, 0.0, LOG2_BAND, true);
        assert_within_band(full::<Log10>, log10_kernel, 0.0, 0.0, LOG10_BAND, true);
    }

    #[test]
    fn hyper_within_band() {
        assert_within_band(full::<Sinh>, sinh_kernel, -88.0, 88.0, SINH_BAND, false);
        assert_within_band(full::<Cosh>, cosh_kernel, -88.0, 88.0, COSH_BAND, false);
    }

    #[test]
    fn log_cancellation_strip_within_band() {
        // The x -> 1 strip from both sides: the folded reduction must keep
        // relative accuracy where the dd kernel leans on double-doubles.
        for i in 1..2000u32 {
            for x in [
                1.0 + i as f64 * 2f64.powi(-24),
                1.0 - i as f64 * 2f64.powi(-25),
            ] {
                let got = full::<Ln>(x);
                let want = ln_kernel(x).to_f64();
                let rel = ((got - want) / want).abs();
                assert!(
                    rel <= LN_BAND as f64 * 2f64.powi(-53),
                    "ln full tier({x:e}): rel {rel:e}"
                );
            }
        }
    }

    /// The trig kernels return the signed result; the dd kernels return
    /// the magnitude plus a half-period sign.
    fn signed(d: (bool, crate::dd::Dd)) -> f64 {
        if d.0 {
            -d.1.to_f64()
        } else {
            d.1.to_f64()
        }
    }

    fn assert_trig_within(
        sinpi: impl Fn(f64) -> f64,
        cospi: impl Fn(f64) -> f64,
        sinpi_band: u64,
        cospi_band: u64,
        seed: u64,
    ) {
        let mut rng = XorShift64::new(seed);
        for _ in 0..20_000 {
            let a = rng.uniform_f64(2f64.powi(-30), 8_388_607.0);
            if a != a.trunc() {
                let want = signed(crate::float::trig::sinpi_kernel(a));
                let got = sinpi(a);
                if want != 0.0 {
                    let rel = ((got - want) / want).abs();
                    assert!(rel <= sinpi_band as f64 * 2f64.powi(-53), "sinpi({a:e}): rel {rel:e}");
                }
            }
            let a2 = rng.uniform_f64(1e-4, 16_777_215.0);
            if 2.0 * a2 == (2.0 * a2).trunc() {
                continue;
            }
            let want2 = signed(crate::float::trig::cospi_kernel(a2));
            let got2 = cospi(a2);
            if want2 != 0.0 {
                let rel = ((got2 - want2) / want2).abs();
                assert!(rel <= cospi_band as f64 * 2f64.powi(-53), "cospi({a2:e}): rel {rel:e}");
            }
        }
    }

    #[test]
    fn trig_within_band() {
        assert_trig_within(full::<Sinpi>, full::<Cospi>, SINPI_BAND, COSPI_BAND, 0x517A);
    }

    #[test]
    fn prefix_kernels_within_prefix_bands() {
        assert_within_band(prefix::<Exp>, exp_kernel, -87.0, 88.0, EXP_PREFIX_BAND, false);
        assert_within_band(prefix::<Exp2>, exp2_kernel, -149.0, 127.9, EXP2_PREFIX_BAND, false);
        assert_within_band(prefix::<Exp10>, exp10_kernel, -45.0, 38.5, EXP10_PREFIX_BAND, false);
        assert_within_band(prefix::<Ln>, ln_kernel, 0.0, 0.0, LN_PREFIX_BAND, true);
        assert_within_band(prefix::<Log2>, log2_kernel, 0.0, 0.0, LOG2_PREFIX_BAND, true);
        assert_within_band(prefix::<Log10>, log10_kernel, 0.0, 0.0, LOG10_PREFIX_BAND, true);
        assert_within_band(prefix::<Sinh>, sinh_kernel, -88.0, 88.0, SINH_PREFIX_BAND, false);
        assert_within_band(prefix::<Cosh>, cosh_kernel, -88.0, 88.0, COSH_PREFIX_BAND, false);
    }

    #[test]
    fn prefix_trig_within_prefix_bands() {
        assert_trig_within(prefix::<Sinpi>, prefix::<Cospi>, SINPI_PREFIX_BAND, COSPI_PREFIX_BAND, 0x9217);
    }

    #[test]
    fn prefix_bands_absorb_full_band_fault_slack() {
        // The fault hook nudges prefix-tier results by the *full-band*
        // slack, so prefix acceptance stays sound only if
        // PREFIX_DERIVED + (BAND - DERIVED) <= PREFIX_BAND.
        let rows: [(u64, u64, u64, u64); 10] = [
            (EXP_PREFIX_DERIVED, EXP_BAND, EXP_DERIVED, EXP_PREFIX_BAND),
            (EXP2_PREFIX_DERIVED, EXP2_BAND, EXP2_DERIVED, EXP2_PREFIX_BAND),
            (EXP10_PREFIX_DERIVED, EXP10_BAND, EXP10_DERIVED, EXP10_PREFIX_BAND),
            (LN_PREFIX_DERIVED, LN_BAND, LN_DERIVED, LN_PREFIX_BAND),
            (LOG2_PREFIX_DERIVED, LOG2_BAND, LOG2_DERIVED, LOG2_PREFIX_BAND),
            (LOG10_PREFIX_DERIVED, LOG10_BAND, LOG10_DERIVED, LOG10_PREFIX_BAND),
            (SINH_PREFIX_DERIVED, SINH_BAND, SINH_DERIVED, SINH_PREFIX_BAND),
            (COSH_PREFIX_DERIVED, COSH_BAND, COSH_DERIVED, COSH_PREFIX_BAND),
            (SINPI_PREFIX_DERIVED, SINPI_BAND, SINPI_DERIVED, SINPI_PREFIX_BAND),
            (COSPI_PREFIX_DERIVED, COSPI_BAND, COSPI_DERIVED, COSPI_PREFIX_BAND),
        ];
        for (i, (pd, band, derived, pband)) in rows.iter().enumerate() {
            assert!(
                pd + (band - derived) <= *pband,
                "row {i}: prefix band cannot absorb the fault slack"
            );
            assert!(*pband < (1 << 26), "row {i}: band too wide for round_safe");
        }
    }

    #[test]
    fn fast_kernels_handle_domain_edges() {
        // exp at the f32 overflow edge stays finite in double.
        assert!(full::<Exp>(88.9).is_finite());
        assert!(full::<Exp2>(-150.9) > 0.0);
        // Pure-poly log branch at the fold boundary.
        let y = full::<Ln>(0.998_046_875); // z = 1.99609375 exactly, j = 128 pre-fold
        assert!((y - 0.998_046_875f64.ln()).abs() < 1e-15);
        // sinh parity, both tiers.
        assert_eq!(full::<Sinh>(-3.25), -full::<Sinh>(3.25));
        assert_eq!(prefix::<Sinh>(-3.25), -prefix::<Sinh>(3.25));
    }
}
