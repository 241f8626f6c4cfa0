//! Fallback-rate instrumentation for the two-tier kernels.
//!
//! Every f32/posit32 front end calls [`record_fallback`] when the fast
//! path's safety test rejects a result and the dd kernel re-runs. The
//! counters live in the workspace-wide `rlibm-obs` registry under
//! `runtime.fallback.{f32,posit32}.<fn>`, so a telemetry snapshot sees
//! them next to the generator's metrics; with the `telemetry` feature off
//! (the default) the call compiles to nothing and the shipping library
//! carries zero instrumentation cost.
//!
//! Only *fallbacks* are counted — never total calls. Fallbacks are a few
//! parts per million of inputs, so the counters stay out of the hot path
//! and do not perturb benchmark timing; harnesses divide by their own
//! known input counts to report a rate.
//!
//! The slot-indexed API below predates the registry and is kept as a
//! compat shim: the fig3/fig4 harnesses address counters by slot or by
//! name, and both views read the same registry statics.

use rlibm_obs::Counter;

/// One counter slot per function, f32 functions in the paper's Table 1
/// order followed by the eight posit32 functions.
pub mod slot {
    /// f32 `ln`.
    pub const LN: usize = 0;
    /// f32 `log2`.
    pub const LOG2: usize = 1;
    /// f32 `log10`.
    pub const LOG10: usize = 2;
    /// f32 `exp`.
    pub const EXP: usize = 3;
    /// f32 `exp2`.
    pub const EXP2: usize = 4;
    /// f32 `exp10`.
    pub const EXP10: usize = 5;
    /// f32 `sinh`.
    pub const SINH: usize = 6;
    /// f32 `cosh`.
    pub const COSH: usize = 7;
    /// f32 `sinpi`.
    pub const SINPI: usize = 8;
    /// f32 `cospi`.
    pub const COSPI: usize = 9;
    /// posit32 `ln`.
    pub const P32_LN: usize = 10;
    /// posit32 `log2`.
    pub const P32_LOG2: usize = 11;
    /// posit32 `log10`.
    pub const P32_LOG10: usize = 12;
    /// posit32 `exp`.
    pub const P32_EXP: usize = 13;
    /// posit32 `exp2`.
    pub const P32_EXP2: usize = 14;
    /// posit32 `exp10`.
    pub const P32_EXP10: usize = 15;
    /// posit32 `sinh`.
    pub const P32_SINH: usize = 16;
    /// posit32 `cosh`.
    pub const P32_COSH: usize = 17;
    /// Number of slots.
    pub const COUNT: usize = 18;
}

/// The registry-backed counters, indexed by [`slot`] constants.
static FALLBACKS: [Counter; slot::COUNT] = [
    Counter::new("runtime.fallback.f32.ln"),
    Counter::new("runtime.fallback.f32.log2"),
    Counter::new("runtime.fallback.f32.log10"),
    Counter::new("runtime.fallback.f32.exp"),
    Counter::new("runtime.fallback.f32.exp2"),
    Counter::new("runtime.fallback.f32.exp10"),
    Counter::new("runtime.fallback.f32.sinh"),
    Counter::new("runtime.fallback.f32.cosh"),
    Counter::new("runtime.fallback.f32.sinpi"),
    Counter::new("runtime.fallback.f32.cospi"),
    Counter::new("runtime.fallback.posit32.ln"),
    Counter::new("runtime.fallback.posit32.log2"),
    Counter::new("runtime.fallback.posit32.log10"),
    Counter::new("runtime.fallback.posit32.exp"),
    Counter::new("runtime.fallback.posit32.exp2"),
    Counter::new("runtime.fallback.posit32.exp10"),
    Counter::new("runtime.fallback.posit32.sinh"),
    Counter::new("runtime.fallback.posit32.cosh"),
];

/// Progressive-tier counters: which tier's result shipped for each call
/// that entered a front end in-domain. `TIER_DD` is bumped by
/// [`record_fallback`] itself, so `prefix + full + dd` always equals the
/// number of in-domain calls and the dd column stays the familiar
/// fallback count.
static TIER_PREFIX: [Counter; slot::COUNT] = [
    Counter::new("runtime.tier.prefix.f32.ln"),
    Counter::new("runtime.tier.prefix.f32.log2"),
    Counter::new("runtime.tier.prefix.f32.log10"),
    Counter::new("runtime.tier.prefix.f32.exp"),
    Counter::new("runtime.tier.prefix.f32.exp2"),
    Counter::new("runtime.tier.prefix.f32.exp10"),
    Counter::new("runtime.tier.prefix.f32.sinh"),
    Counter::new("runtime.tier.prefix.f32.cosh"),
    Counter::new("runtime.tier.prefix.f32.sinpi"),
    Counter::new("runtime.tier.prefix.f32.cospi"),
    Counter::new("runtime.tier.prefix.posit32.ln"),
    Counter::new("runtime.tier.prefix.posit32.log2"),
    Counter::new("runtime.tier.prefix.posit32.log10"),
    Counter::new("runtime.tier.prefix.posit32.exp"),
    Counter::new("runtime.tier.prefix.posit32.exp2"),
    Counter::new("runtime.tier.prefix.posit32.exp10"),
    Counter::new("runtime.tier.prefix.posit32.sinh"),
    Counter::new("runtime.tier.prefix.posit32.cosh"),
];

static TIER_FULL: [Counter; slot::COUNT] = [
    Counter::new("runtime.tier.full.f32.ln"),
    Counter::new("runtime.tier.full.f32.log2"),
    Counter::new("runtime.tier.full.f32.log10"),
    Counter::new("runtime.tier.full.f32.exp"),
    Counter::new("runtime.tier.full.f32.exp2"),
    Counter::new("runtime.tier.full.f32.exp10"),
    Counter::new("runtime.tier.full.f32.sinh"),
    Counter::new("runtime.tier.full.f32.cosh"),
    Counter::new("runtime.tier.full.f32.sinpi"),
    Counter::new("runtime.tier.full.f32.cospi"),
    Counter::new("runtime.tier.full.posit32.ln"),
    Counter::new("runtime.tier.full.posit32.log2"),
    Counter::new("runtime.tier.full.posit32.log10"),
    Counter::new("runtime.tier.full.posit32.exp"),
    Counter::new("runtime.tier.full.posit32.exp2"),
    Counter::new("runtime.tier.full.posit32.exp10"),
    Counter::new("runtime.tier.full.posit32.sinh"),
    Counter::new("runtime.tier.full.posit32.cosh"),
];

static TIER_DD: [Counter; slot::COUNT] = [
    Counter::new("runtime.tier.dd.f32.ln"),
    Counter::new("runtime.tier.dd.f32.log2"),
    Counter::new("runtime.tier.dd.f32.log10"),
    Counter::new("runtime.tier.dd.f32.exp"),
    Counter::new("runtime.tier.dd.f32.exp2"),
    Counter::new("runtime.tier.dd.f32.exp10"),
    Counter::new("runtime.tier.dd.f32.sinh"),
    Counter::new("runtime.tier.dd.f32.cosh"),
    Counter::new("runtime.tier.dd.f32.sinpi"),
    Counter::new("runtime.tier.dd.f32.cospi"),
    Counter::new("runtime.tier.dd.posit32.ln"),
    Counter::new("runtime.tier.dd.posit32.log2"),
    Counter::new("runtime.tier.dd.posit32.log10"),
    Counter::new("runtime.tier.dd.posit32.exp"),
    Counter::new("runtime.tier.dd.posit32.exp2"),
    Counter::new("runtime.tier.dd.posit32.exp10"),
    Counter::new("runtime.tier.dd.posit32.sinh"),
    Counter::new("runtime.tier.dd.posit32.cosh"),
];

/// True when the crate was built with the `telemetry` feature — callers that
/// *measure* rates should assert this so a misconfigured build fails
/// loudly instead of reporting a silent zero.
pub fn enabled() -> bool {
    rlibm_obs::enabled()
}

/// Records one dd-fallback event for `slot` (no-op without telemetry).
/// Also bumps the dd tier counter: a fallback *is* the dd tier shipping,
/// so the two views stay one write apart from each other by definition.
#[inline(always)]
pub(crate) fn record_fallback(s: usize) {
    FALLBACKS[s].add(1);
    TIER_DD[s].add(1);
}

/// Records `n` prefix-tier acceptances for `slot` (no-op without
/// telemetry). Batched (`n > 1`) by the slice drivers.
#[inline(always)]
pub(crate) fn record_tier_prefix_n(s: usize, n: u64) {
    TIER_PREFIX[s].add(n);
}

/// Records one prefix-tier acceptance for `slot`. This is the only
/// per-call counter on the scalar happy path, so it uses the lossy
/// barrier-free increment — a locked RMW here measurably slows every
/// call (see `Counter::add_lossy`). The rare tiers (full, dd) and the
/// batched slice-driver adds stay exact.
#[inline(always)]
pub(crate) fn record_tier_prefix(s: usize) {
    TIER_PREFIX[s].add_lossy(1);
}

/// Records one full-tier acceptance (prefix escalated, full-degree
/// polynomial passed) for `slot`.
#[inline(always)]
pub(crate) fn record_tier_full(s: usize) {
    TIER_FULL[s].add(1);
}

/// Records `n` full-tier acceptances for `slot`. Batched by the slice
/// drivers when a chunk escalates prefix-rejected lanes in bulk.
#[inline(always)]
pub(crate) fn record_tier_full_n(s: usize, n: u64) {
    TIER_FULL[s].add(n);
}

/// Prefix-tier acceptances for `slot` since the last [`reset`].
pub fn tier_prefix(s: usize) -> u64 {
    TIER_PREFIX[s].get()
}

/// Full-tier acceptances for `slot` since the last [`reset`].
pub fn tier_full(s: usize) -> u64 {
    TIER_FULL[s].get()
}

/// dd-tier events for `slot` since the last [`reset`] (equals
/// [`fallbacks`] by construction).
pub fn tier_dd(s: usize) -> u64 {
    TIER_DD[s].get()
}

/// Fallback events recorded for `slot` since the last [`reset`].
pub fn fallbacks(s: usize) -> u64 {
    FALLBACKS[s].get()
}

/// Fallback count for an f32 function by its paper-table name (0 for an
/// unknown name).
pub fn fallbacks_f32(name: &str) -> u64 {
    f32_slot_by_name(name).map(fallbacks).unwrap_or(0)
}

/// Fallback count for a posit32 function by name (0 for an unknown name).
pub fn fallbacks_posit32(name: &str) -> u64 {
    posit32_slot_by_name(name).map(fallbacks).unwrap_or(0)
}

/// Slot index of an f32 function by name.
pub fn f32_slot_by_name(name: &str) -> Option<usize> {
    Some(match name {
        "ln" => slot::LN,
        "log2" => slot::LOG2,
        "log10" => slot::LOG10,
        "exp" => slot::EXP,
        "exp2" => slot::EXP2,
        "exp10" => slot::EXP10,
        "sinh" => slot::SINH,
        "cosh" => slot::COSH,
        "sinpi" => slot::SINPI,
        "cospi" => slot::COSPI,
        _ => return None,
    })
}

/// Slot index of a posit32 function by name.
pub fn posit32_slot_by_name(name: &str) -> Option<usize> {
    Some(match name {
        "ln" => slot::P32_LN,
        "log2" => slot::P32_LOG2,
        "log10" => slot::P32_LOG10,
        "exp" => slot::P32_EXP,
        "exp2" => slot::P32_EXP2,
        "exp10" => slot::P32_EXP10,
        "sinh" => slot::P32_SINH,
        "cosh" => slot::P32_COSH,
        _ => return None,
    })
}

/// Zeroes every counter (no-op without telemetry).
pub fn reset() {
    for c in &FALLBACKS {
        c.reset();
    }
    for arr in [&TIER_PREFIX, &TIER_FULL, &TIER_DD] {
        for c in arr {
            c.reset();
        }
    }
}

/// Forces all 18 fallback counters (and the runtime's other metrics)
/// into the snapshot registry at value zero, so a report can distinguish
/// "no fallbacks observed" from "counters not linked". Harnesses call
/// this once before taking snapshots.
pub fn register_all() {
    for c in &FALLBACKS {
        c.register();
    }
    for arr in [&TIER_PREFIX, &TIER_FULL, &TIER_DD] {
        for c in arr {
            c.register();
        }
    }
    crate::slice::register_metrics();
    crate::fault::register_metrics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_lookup_is_total_over_func_names() {
        let names = ["ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh"];
        for (i, n) in names.iter().enumerate() {
            assert_eq!(f32_slot_by_name(n), Some(i));
            assert_eq!(posit32_slot_by_name(n), Some(i + 10));
        }
        assert_eq!(f32_slot_by_name("sinpi"), Some(slot::SINPI));
        assert_eq!(f32_slot_by_name("cospi"), Some(slot::COSPI));
        assert_eq!(f32_slot_by_name("tanh"), None);
        assert_eq!(posit32_slot_by_name("sinpi"), None);
    }

    #[test]
    fn counters_match_build_configuration() {
        reset();
        record_fallback(slot::LN);
        record_fallback(slot::LN);
        if enabled() {
            assert_eq!(fallbacks(slot::LN), 2);
        } else {
            assert_eq!(fallbacks(slot::LN), 0);
        }
        reset();
        assert_eq!(fallbacks(slot::LN), 0);
    }

    #[test]
    fn tier_counters_follow_the_same_build_gate() {
        reset();
        record_tier_prefix(slot::EXP);
        record_tier_prefix_n(slot::EXP, 3);
        record_tier_full(slot::EXP);
        record_tier_full_n(slot::EXP, 2);
        record_fallback(slot::EXP);
        if enabled() {
            assert_eq!(tier_prefix(slot::EXP), 4);
            assert_eq!(tier_full(slot::EXP), 3);
            assert_eq!(tier_dd(slot::EXP), 1);
            assert_eq!(tier_dd(slot::EXP), fallbacks(slot::EXP));
        } else {
            assert_eq!(tier_prefix(slot::EXP) + tier_full(slot::EXP) + tier_dd(slot::EXP), 0);
        }
        reset();
        assert_eq!(tier_prefix(slot::EXP), 0);
    }

    #[test]
    fn registry_sees_the_same_counters() {
        register_all();
        record_fallback(slot::EXP);
        let snap = rlibm_obs::snapshot();
        if enabled() {
            let v = snap.counter("runtime.fallback.f32.exp").expect("registered");
            assert_eq!(v, fallbacks(slot::EXP), "slot view and registry view agree");
        } else {
            assert!(snap.counters.is_empty());
        }
    }
}
