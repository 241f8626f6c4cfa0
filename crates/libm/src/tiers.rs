//! The progressive-tier registry and ladder: one table row per front-end
//! function describing its escalation ladder, and [`climb`], the one
//! routine every scalar front end runs it with.
//!
//! Every entry point climbs the same three rungs — a truncated **prefix**
//! polynomial tested against a wide round-safety band, the **full**-degree
//! polynomial tested against the regular band, and the dd kernel with
//! round-to-odd. The rows here are the rungs' parameters as *data*, so
//! harnesses, reports and tests can iterate the ladder without
//! hard-coding per-function numbers; the bands are the `fast::*`
//! constants the kernels are certified against, and the term counts come
//! from the coefficient slices the kernels evaluate.
//!
//! Soundness invariant, pinned by a test here and in `fast.rs`: a value
//! that passes the prefix band while the prefix polynomial is within
//! `PREFIX_DERIVED` of the dd kernel rounds identically to the dd result,
//! and likewise for the full tier — which requires
//! `prefix_derived + (full_band - full_derived) <= prefix_band` so that a
//! prefix-accepted value is never one the full tier would have had to
//! escalate.

use crate::fast::{self, Kernel};
use crate::lane::Lane;
use crate::stats::slot;
use rlibm_fp::Representation;
use rlibm_posit::Posit32;

/// A 32-bit format the kernels ship into: how its values widen to the
/// kernels' f64, its round-safety test and its rounding. The scalar
/// ladder ([`climb`]) and the slice driver (`crate::slice`) are generic
/// over it, so f32 and posit32 differ only here.
pub(crate) trait Target: Representation {
    /// Exact widening to the kernels' evaluation format.
    fn widen(self) -> f64;
    /// The format's round-safety test (see [`crate::round`]), per lane.
    fn round_safe<L: Lane>(y: L, band: u64) -> L::M;
    /// Rounds a double the test accepted into the format.
    fn from_safe(y: f64) -> Self;
}

impl Target for f32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn round_safe<L: Lane>(y: L, band: u64) -> L::M {
        y.f32_round_safe(band)
    }
    #[inline(always)]
    fn from_safe(y: f64) -> f32 {
        y as f32
    }
}

impl Target for Posit32 {
    #[inline(always)]
    fn widen(self) -> f64 {
        self.to_f64()
    }
    #[inline(always)]
    fn round_safe<L: Lane>(y: L, band: u64) -> L::M {
        y.posit32_round_safe(band)
    }
    #[inline(always)]
    fn from_safe(y: f64) -> Posit32 {
        Posit32::from_f64(y)
    }
}

/// The three-tier ladder for one in-domain scalar call: the prefix tier
/// (through the `fault` injection site `slot`), the full tier on
/// escalation, and `dd` when both bands reject. Each outcome lands in
/// the `slot`'s tier counter.
#[inline(always)]
pub(crate) fn climb<K: Kernel, T: Target>(slot: usize, x: f64, dd: impl FnOnce() -> T) -> T {
    let (prefix_band, band) = K::BANDS;
    let y = crate::fault::perturb(slot, K::eval::<f64, false>(x));
    if T::round_safe::<f64>(y, prefix_band) {
        crate::stats::record_tier_prefix(slot);
        return T::from_safe(y);
    }
    let y = K::eval::<f64, true>(x);
    if T::round_safe::<f64>(y, band) {
        crate::stats::record_tier_full(slot);
        return T::from_safe(y);
    }
    crate::stats::record_fallback(slot);
    dd()
}

/// One function's escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Registry name, matching the suffix of the `runtime.tier.*`
    /// counters (e.g. `"f32.exp"`).
    pub name: &'static str,
    /// Index into the [`crate::stats`] counter arrays.
    pub slot: usize,
    /// Round-safety band for the prefix tier (28-bit frac distance).
    pub prefix_band: u64,
    /// Round-safety band for the full-degree tier.
    pub full_band: u64,
    /// Certified bound on |prefix poly − dd kernel| in band units.
    pub prefix_derived: u64,
    /// Certified bound on |full poly − dd kernel| in band units.
    pub full_derived: u64,
    /// Terms evaluated by the prefix Horner chain.
    pub prefix_terms: usize,
    /// Terms evaluated by the full-degree Horner chain.
    pub full_terms: usize,
}

impl TierSpec {
    /// The soundness inequality for this ladder: any value the prefix
    /// tier accepts must also be a value the full tier would accept,
    /// given the two certified error bounds.
    pub const fn prefix_subsumed_by_full(&self) -> bool {
        self.prefix_derived + (self.full_band - self.full_derived) <= self.prefix_band
    }
}

/// Macro-free row helper so the tables below stay greppable. `terms` is
/// `(prefix_terms, full_terms)`.
const fn row(
    name: &'static str,
    slot: usize,
    prefix_band: u64,
    full_band: u64,
    prefix_derived: u64,
    full_derived: u64,
    (prefix_terms, full_terms): (usize, usize),
) -> TierSpec {
    TierSpec {
        name,
        slot,
        prefix_band,
        full_band,
        prefix_derived,
        full_derived,
        prefix_terms,
        full_terms,
    }
}

// Terms each kernel's polynomial evaluates per tier, read off the
// coefficient slices: `e^r` is one Horner chain; `log1p(u) = u + u²·q(u)`,
// `sin(πr) = r·π + r³·tail(r²)` and `cos(πr) = 1 + r²·C2 + r⁴·tail(r²)`
// carry 1, 1 and 2 terms outside theirs. sinh/cosh spend their degree in
// the `e^|x|` chain.
const EXP_TERMS: (usize, usize) = fast::EXP_POLY.tier_terms(0);
const LOG_TERMS: (usize, usize) = fast::LOG1P_Q.tier_terms(1);
const SINPI_TERMS: (usize, usize) = fast::SINPI_TAIL.tier_terms(1);
const COSPI_TERMS: (usize, usize) = fast::COSPI_TAIL.tier_terms(2);

/// The ten f32 front ends, in [`slot`] order.
#[rustfmt::skip]
pub const F32_TIERS: [TierSpec; 10] = [
    row("f32.ln",    slot::LN,    fast::LN_PREFIX_BAND,    fast::LN_BAND,    fast::LN_PREFIX_DERIVED,    fast::LN_DERIVED,    LOG_TERMS),
    row("f32.log2",  slot::LOG2,  fast::LOG2_PREFIX_BAND,  fast::LOG2_BAND,  fast::LOG2_PREFIX_DERIVED,  fast::LOG2_DERIVED,  LOG_TERMS),
    row("f32.log10", slot::LOG10, fast::LOG10_PREFIX_BAND, fast::LOG10_BAND, fast::LOG10_PREFIX_DERIVED, fast::LOG10_DERIVED, LOG_TERMS),
    row("f32.exp",   slot::EXP,   fast::EXP_PREFIX_BAND,   fast::EXP_BAND,   fast::EXP_PREFIX_DERIVED,   fast::EXP_DERIVED,   EXP_TERMS),
    row("f32.exp2",  slot::EXP2,  fast::EXP2_PREFIX_BAND,  fast::EXP2_BAND,  fast::EXP2_PREFIX_DERIVED,  fast::EXP2_DERIVED,  EXP_TERMS),
    row("f32.exp10", slot::EXP10, fast::EXP10_PREFIX_BAND, fast::EXP10_BAND, fast::EXP10_PREFIX_DERIVED, fast::EXP10_DERIVED, EXP_TERMS),
    row("f32.sinh",  slot::SINH,  fast::SINH_PREFIX_BAND,  fast::SINH_BAND,  fast::SINH_PREFIX_DERIVED,  fast::SINH_DERIVED,  EXP_TERMS),
    row("f32.cosh",  slot::COSH,  fast::COSH_PREFIX_BAND,  fast::COSH_BAND,  fast::COSH_PREFIX_DERIVED,  fast::COSH_DERIVED,  EXP_TERMS),
    row("f32.sinpi", slot::SINPI, fast::SINPI_PREFIX_BAND, fast::SINPI_BAND, fast::SINPI_PREFIX_DERIVED, fast::SINPI_DERIVED, SINPI_TERMS),
    row("f32.cospi", slot::COSPI, fast::COSPI_PREFIX_BAND, fast::COSPI_BAND, fast::COSPI_PREFIX_DERIVED, fast::COSPI_DERIVED, COSPI_TERMS),
];

/// The eight posit32 front ends. They share the f64 tier kernels with
/// the f32 paths (the bands bound the *kernel's* error, not the target
/// format's rounding), so every parameter is reused.
#[rustfmt::skip]
pub const POSIT32_TIERS: [TierSpec; 8] = [
    row("posit32.ln",    slot::P32_LN,    fast::LN_PREFIX_BAND,    fast::LN_BAND,    fast::LN_PREFIX_DERIVED,    fast::LN_DERIVED,    LOG_TERMS),
    row("posit32.log2",  slot::P32_LOG2,  fast::LOG2_PREFIX_BAND,  fast::LOG2_BAND,  fast::LOG2_PREFIX_DERIVED,  fast::LOG2_DERIVED,  LOG_TERMS),
    row("posit32.log10", slot::P32_LOG10, fast::LOG10_PREFIX_BAND, fast::LOG10_BAND, fast::LOG10_PREFIX_DERIVED, fast::LOG10_DERIVED, LOG_TERMS),
    row("posit32.exp",   slot::P32_EXP,   fast::EXP_PREFIX_BAND,   fast::EXP_BAND,   fast::EXP_PREFIX_DERIVED,   fast::EXP_DERIVED,   EXP_TERMS),
    row("posit32.exp2",  slot::P32_EXP2,  fast::EXP2_PREFIX_BAND,  fast::EXP2_BAND,  fast::EXP2_PREFIX_DERIVED,  fast::EXP2_DERIVED,  EXP_TERMS),
    row("posit32.exp10", slot::P32_EXP10, fast::EXP10_PREFIX_BAND, fast::EXP10_BAND, fast::EXP10_PREFIX_DERIVED, fast::EXP10_DERIVED, EXP_TERMS),
    row("posit32.sinh",  slot::P32_SINH,  fast::SINH_PREFIX_BAND,  fast::SINH_BAND,  fast::SINH_PREFIX_DERIVED,  fast::SINH_DERIVED,  EXP_TERMS),
    row("posit32.cosh",  slot::P32_COSH,  fast::COSH_PREFIX_BAND,  fast::COSH_BAND,  fast::COSH_PREFIX_DERIVED,  fast::COSH_DERIVED,  EXP_TERMS),
];

/// Looks a spec up by its registry name (`"f32.exp"`, `"posit32.ln"`).
pub fn by_name(name: &str) -> Option<&'static TierSpec> {
    F32_TIERS
        .iter()
        .chain(POSIT32_TIERS.iter())
        .find(|t| t.name == name)
}

/// Looks a spec up by its [`slot`] index.
pub fn by_slot(s: usize) -> Option<&'static TierSpec> {
    F32_TIERS.iter().chain(POSIT32_TIERS.iter()).find(|t| t.slot == s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ladder_is_sound() {
        for t in F32_TIERS.iter().chain(POSIT32_TIERS.iter()) {
            assert!(
                t.prefix_subsumed_by_full(),
                "{}: prefix_derived {} + (full_band {} - full_derived {}) > prefix_band {}",
                t.name,
                t.prefix_derived,
                t.full_band,
                t.full_derived,
                t.prefix_band
            );
            assert!(t.prefix_band > t.full_band, "{}: prefix band must be wider", t.name);
            assert!(t.prefix_terms < t.full_terms, "{}: prefix must be shorter", t.name);
        }
    }

    #[test]
    fn slots_are_a_bijection() {
        let mut seen = [false; slot::COUNT];
        for t in F32_TIERS.iter().chain(POSIT32_TIERS.iter()) {
            assert!(!seen[t.slot], "{}: slot {} reused", t.name, t.slot);
            seen[t.slot] = true;
        }
        assert!(seen.iter().all(|s| *s), "every slot must have a spec");
    }

    #[test]
    fn lookups_agree() {
        for t in F32_TIERS.iter().chain(POSIT32_TIERS.iter()) {
            assert_eq!(by_name(t.name), Some(t));
            assert_eq!(by_slot(t.slot), Some(t));
        }
        assert_eq!(by_name("f32.tan"), None);
        assert_eq!(by_slot(slot::COUNT), None);
    }

    #[test]
    fn posit_rows_mirror_their_f32_kernels() {
        // The posit front ends reuse the f64 tier kernels verbatim, so
        // their ladder parameters must match the f32 rows one-to-one.
        for p in &POSIT32_TIERS {
            let fname = p.name.replace("posit32.", "f32.");
            let f = by_name(&fname).expect("f32 twin exists");
            assert_eq!((p.prefix_band, p.full_band), (f.prefix_band, f.full_band), "{}", p.name);
            assert_eq!(
                (p.prefix_derived, p.full_derived),
                (f.prefix_derived, f.full_derived),
                "{}",
                p.name
            );
        }
    }
}
