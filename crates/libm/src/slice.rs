//! Batched evaluation — the §4.3 vectorization regime as a real API.
//!
//! [`eval_slice_f32`] and [`eval_slice_posit32`] (and the per-function
//! f32 `*_slice` entry points) evaluate a whole input slice with the same
//! progressive-tier guarantee as the scalar functions: the output is
//! **bit-identical** to mapping the scalar function over the slice. One
//! chunk driver serves every function and both formats, over 64-lane
//! chunks:
//!
//! 1. **widen**: decode each lane into a staged f64 buffer ([`Target`]:
//!    the exact f32 widening, or the posit32 decode);
//! 2. **stage**: per lane group, classify the staged values against the
//!    function's fast-path domain ([`Kernel::domain`]; other lanes get the
//!    placeholder 1.0 so the arithmetic stays total), run the
//!    *prefix*-tier kernel and test each result against the wide prefix
//!    band with the format's round-safety test;
//! 3. **resolve**: accepted lanes round the prefix double into the format
//!    per lane; lanes outside the domain re-enter the scalar front end,
//!    which owns specials (NaN/NaR, zeros, infinities, posit saturation)
//!    and the dd tier;
//! 4. **escalate**: the lane groups holding in-domain lanes the prefix
//!    band rejected re-run the full-degree kernel against the narrow full
//!    band, and lanes that band rejects too re-enter the scalar front end.
//!
//! The kernels are the ones the scalar front ends run ([`crate::fast`]),
//! instantiated over a [`Lane`]. With the `simd` feature on an AVX2 CPU
//! the driver runs four-lane groups of [`F64x4`] inside one
//! `#[target_feature(enable = "avx2")]` function per (kernel, format), so
//! every kernel, gather and mask inlines into straight AVX2 code;
//! otherwise it runs one-lane `f64` groups. Both produce the same bits
//! (`crate::lane`). A kernel instantiated by more than one driver must
//! mark the closures it passes to [`Lane::select_with`]
//! `#[inline(always)]`: LLVM otherwise outlines them, without AVX2, and
//! every `F64x4` operation inside becomes a call.
//!
//! Per-tier accounting lands in the same `runtime.tier.*` counters the
//! scalar front ends use: prefix and full acceptances batched per call,
//! dd events recorded by the scalar entry the rescalar lanes fall into.
//! The `fault` feature's injection sites live in the scalar front ends;
//! the staged lanes bypass them and rescalar lanes re-enter them.

use crate::fast::{self, Kernel};
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use crate::lane::avx2::{self, F64x4};
use crate::lane::Lane;
use crate::stats::slot;
use crate::tiers::Target;
use rlibm_obs::Counter;
use rlibm_posit::Posit32;

/// Chunk width of the driver. 64 lanes of f64 is 4 cache lines of
/// staged results, and one `u64` holds a chunk's lane mask.
const LANES: usize = 64;

// Batched-evaluation telemetry (no-ops unless built with the `telemetry`
// feature). The counters accumulate locally and hit the atomics once per
// call, never per lane. The rescalar counts are the numbers to watch:
// every rescalar lane pays the scalar two-tier price, so a high ratio
// against `64 * chunks` means the workload defeats the staging.
static SLICE_CHUNKS: Counter = Counter::new("runtime.slice.f32.chunks");
static SLICE_RESCALAR: Counter = Counter::new("runtime.slice.f32.rescalar_lanes");
static SLICE_POSIT_CHUNKS: Counter = Counter::new("runtime.slice.posit32.chunks");
static SLICE_POSIT_REQUESTS: Counter = Counter::new("runtime.slice.posit32.requests");
static SLICE_POSIT_RESCALAR: Counter = Counter::new("runtime.slice.posit32.rescalar_lanes");

/// Forces the slice counters into the snapshot registry at value zero.
pub(crate) fn register_metrics() {
    SLICE_CHUNKS.register();
    SLICE_RESCALAR.register();
    SLICE_POSIT_CHUNKS.register();
    SLICE_POSIT_REQUESTS.register();
    SLICE_POSIT_RESCALAR.register();
}

/// Resolves one rescalar lane through the scalar two-tier entry. With
/// the `telemetry` feature the lane is also timed and reported to the
/// flight recorder as an exemplar (`rescalar` event carrying the input
/// bits, attributed via the thread's trace context), and the scalar-path
/// nanoseconds accrue into the per-thread fallback accumulator the
/// serving layer drains per batch. The scalar value is computed
/// identically in both configs — tracing observes, never alters.
#[cfg(feature = "telemetry")]
#[inline]
fn rescalar_resolve<T: Target>(scalar: fn(T) -> T, x: T) -> T {
    let t0 = std::time::Instant::now();
    let v = scalar(x);
    let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    rlibm_obs::trace::rescalar_exemplar(x.to_bits_u32(), ns);
    v
}

#[cfg(not(feature = "telemetry"))]
#[inline(always)]
fn rescalar_resolve<T: Target>(scalar: fn(T) -> T, x: T) -> T {
    scalar(x)
}

/// One tier over a chunk: for every `L::WIDTH`-lane group holding a lane
/// of `need`, substitute the placeholder outside the domain and run the
/// kernel on the staged inputs `xd` (skipped groups keep their `y`);
/// then test every result against `band`. Returns the domain mask (zero
/// for skipped groups) and the round-safe mask. The safety test runs as
/// a second pass over the stored results: fusing it into the kernel loop
/// measured ~10% slower on the AVX2 lanes.
#[inline(always)]
fn stage<L: Lane, K: Kernel, T: Target, const FULL: bool>(
    xd: &[f64; LANES],
    y: &mut [f64; LANES],
    need: u64,
    band: u64,
) -> (u64, u64) {
    let group = u64::MAX >> (64 - L::WIDTH);
    let mut dom = 0u64;
    for g in 0..LANES / L::WIDTH {
        let lo = g * L::WIDTH;
        if (need >> lo) & group == 0 {
            continue;
        }
        let x = L::load(&xd[lo..]);
        let m = K::domain(x);
        let v = K::eval::<L, FULL>(L::select(m, x, L::splat(1.0)));
        v.store(&mut y[lo..]);
        dom |= L::bits(m) << lo;
    }
    let mut safe = 0u64;
    for g in 0..LANES / L::WIDTH {
        let lo = g * L::WIDTH;
        safe |= L::bits(T::round_safe(L::load(&y[lo..]), band)) << lo;
    }
    (dom, safe)
}

/// What one [`drive`] call did, for the caller's slice counters.
struct Tally {
    chunks: u64,
    rescalar: u64,
}

/// The chunk driver (see the module docs), generic over the lane width
/// and the format.
#[inline(always)]
fn drive<L: Lane, K: Kernel, T: Target>(xs: &[T], out: &mut [T], slot: usize, scalar: fn(T) -> T) -> Tally {
    assert_eq!(xs.len(), out.len(), "eval_slice: input/output length mismatch");
    let (prefix_band, band) = K::BANDS;
    // Lanes past a partial last chunk keep earlier (or placeholder)
    // values: they are computed with their group and never read back.
    let mut xd = [1.0f64; LANES];
    let mut y = [0.0f64; LANES];
    let (mut chunks, mut rescalar, mut prefix_hits, mut full_hits) = (0u64, 0u64, 0u64, 0u64);
    for (xc, oc) in xs.chunks(LANES).zip(out.chunks_mut(LANES)) {
        chunks += 1;
        let n = xc.len();
        for (d, &x) in xd.iter_mut().zip(xc) {
            *d = x.widen();
        }
        let live = u64::MAX >> (64 - n);
        let (dom, safe) = stage::<L, K, T, false>(&xd, &mut y, live, prefix_band);
        let ok = dom & safe & live;
        prefix_hits += u64::from(ok.count_ones());
        for i in 0..n {
            if (ok >> i) & 1 == 1 {
                oc[i] = T::from_safe(y[i]);
            } else if (dom >> i) & 1 == 0 {
                rescalar += 1;
                oc[i] = rescalar_resolve(scalar, xc[i]);
            }
        }
        // In-domain lanes the prefix band rejected (well under 1%).
        let pending = dom & !safe & live;
        if pending != 0 {
            let (_, safe) = stage::<L, K, T, true>(&xd, &mut y, pending, band);
            full_hits += u64::from((pending & safe).count_ones());
            for i in (0..n).filter(|i| (pending >> i) & 1 == 1) {
                if (safe >> i) & 1 == 1 {
                    oc[i] = T::from_safe(y[i]);
                } else {
                    rescalar += 1;
                    oc[i] = rescalar_resolve(scalar, xc[i]);
                }
            }
        }
    }
    crate::stats::record_tier_prefix_n(slot, prefix_hits);
    crate::stats::record_tier_full_n(slot, full_hits);
    Tally { chunks, rescalar }
}

/// [`drive`] over [`F64x4`] lanes.
///
/// # Safety
/// Requires AVX2.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn drive_avx2<K: Kernel, T: Target>(xs: &[T], out: &mut [T], slot: usize, scalar: fn(T) -> T) -> Tally {
    drive::<F64x4, K, T>(xs, out, slot, scalar)
}

/// Runs the driver at the widest lane the build and CPU allow.
fn run<K: Kernel, T: Target>(xs: &[T], out: &mut [T], slot: usize, scalar: fn(T) -> T) -> Tally {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx2::available() {
        // SAFETY: AVX2 presence was just checked.
        return unsafe { drive_avx2::<K, T>(xs, out, slot, scalar) };
    }
    drive::<f64, K, T>(xs, out, slot, scalar)
}

/// [`run`] for an f32 function, with the f32 slice counters.
fn run_f32<K: Kernel>(xs: &[f32], out: &mut [f32], slot: usize, scalar: fn(f32) -> f32) {
    let t = run::<K, f32>(xs, out, slot, scalar);
    SLICE_CHUNKS.add(t.chunks);
    SLICE_RESCALAR.add(t.rescalar);
}

/// Batched [`crate::exp`]: bit-identical to the scalar map.
pub fn exp_slice(xs: &[f32], out: &mut [f32]) {
    run_f32::<fast::Exp>(xs, out, slot::EXP, crate::exp)
}

/// Batched [`crate::exp2`].
pub fn exp2_slice(xs: &[f32], out: &mut [f32]) {
    run_f32::<fast::Exp2>(xs, out, slot::EXP2, crate::exp2)
}

/// Batched [`crate::exp10`].
pub fn exp10_slice(xs: &[f32], out: &mut [f32]) {
    run_f32::<fast::Exp10>(xs, out, slot::EXP10, crate::exp10)
}

/// Batched [`crate::ln`].
pub fn ln_slice(xs: &[f32], out: &mut [f32]) {
    run_f32::<fast::Ln>(xs, out, slot::LN, crate::ln)
}

/// Batched [`crate::log2`].
pub fn log2_slice(xs: &[f32], out: &mut [f32]) {
    run_f32::<fast::Log2>(xs, out, slot::LOG2, crate::log2)
}

/// Batched [`crate::log10`].
pub fn log10_slice(xs: &[f32], out: &mut [f32]) {
    run_f32::<fast::Log10>(xs, out, slot::LOG10, crate::log10)
}

/// Batched [`crate::sinh`].
pub fn sinh_slice(xs: &[f32], out: &mut [f32]) {
    run_f32::<fast::Sinh>(xs, out, slot::SINH, crate::sinh)
}

/// Batched [`crate::cosh`].
pub fn cosh_slice(xs: &[f32], out: &mut [f32]) {
    run_f32::<fast::Cosh>(xs, out, slot::COSH, crate::cosh)
}

/// Batched [`crate::sinpi`].
pub fn sinpi_slice(xs: &[f32], out: &mut [f32]) {
    run_f32::<fast::Sinpi>(xs, out, slot::SINPI, crate::sinpi)
}

/// Batched [`crate::cospi`].
pub fn cospi_slice(xs: &[f32], out: &mut [f32]) {
    run_f32::<fast::Cospi>(xs, out, slot::COSPI, crate::cospi)
}

/// Error returned by the by-name slice entry points when the name is not
/// in the paper's function tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFunction(pub String);

impl core::fmt::Display for UnknownFunction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "unknown function {:?}", self.0)
    }
}

impl std::error::Error for UnknownFunction {}

/// Batched evaluation of an f32 function by its paper-table name:
/// `out[i] = f(xs[i])`, bit-identical to the scalar function (special
/// lanes — NaN, ±0, ±inf, out-of-domain — resolve per lane through the
/// scalar entry). Unknown names are a typed error, not a panic.
pub fn eval_slice_f32(name: &str, xs: &[f32], out: &mut [f32]) -> Result<(), UnknownFunction> {
    match name {
        "ln" => ln_slice(xs, out),
        "log2" => log2_slice(xs, out),
        "log10" => log10_slice(xs, out),
        "exp" => exp_slice(xs, out),
        "exp2" => exp2_slice(xs, out),
        "exp10" => exp10_slice(xs, out),
        "sinh" => sinh_slice(xs, out),
        "cosh" => cosh_slice(xs, out),
        "sinpi" => sinpi_slice(xs, out),
        "cospi" => cospi_slice(xs, out),
        _ => return Err(UnknownFunction(name.to_owned())),
    }
    Ok(())
}

/// Batched evaluation of a posit32 function by name: `out[i] = f(xs[i])`,
/// bit-identical to the scalar function. The lanes run the f32 slices'
/// chunk driver with the posit32 decode, round-safety test and encode;
/// NaR, zero, saturating and out-of-domain lanes resolve per lane through
/// the scalar entry (NaR in, NaR out). Unknown names are a typed error.
pub fn eval_slice_posit32(name: &str, xs: &[Posit32], out: &mut [Posit32]) -> Result<(), UnknownFunction> {
    use crate::posit as p;
    let t = match name {
        "ln" => run::<fast::Ln, _>(xs, out, slot::P32_LN, p::ln_p32),
        "log2" => run::<fast::Log2, _>(xs, out, slot::P32_LOG2, p::log2_p32),
        "log10" => run::<fast::Log10, _>(xs, out, slot::P32_LOG10, p::log10_p32),
        "exp" => run::<fast::Exp, _>(xs, out, slot::P32_EXP, p::exp_p32),
        "exp2" => run::<fast::Exp2, _>(xs, out, slot::P32_EXP2, p::exp2_p32),
        "exp10" => run::<fast::Exp10, _>(xs, out, slot::P32_EXP10, p::exp10_p32),
        "sinh" => run::<fast::Sinh, _>(xs, out, slot::P32_SINH, p::sinh_p32),
        "cosh" => run::<fast::Cosh, _>(xs, out, slot::P32_COSH, p::cosh_p32),
        _ => return Err(UnknownFunction(name.to_owned())),
    };
    SLICE_POSIT_CHUNKS.add(t.chunks);
    SLICE_POSIT_REQUESTS.add(xs.len() as u64);
    SLICE_POSIT_RESCALAR.add(t.rescalar);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlibm_fp::rng::XorShift64;

    const NAMES: [&str; 10] = [
        "ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh", "sinpi", "cospi",
    ];

    fn adversarial_inputs() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            88.9,
            -106.5,
            128.5,
            -151.5,
            38.7,
            -45.7,
            90.5,
            -90.5,
            0.5,
            2.5,
            8_388_609.0,
            1e-8,
            2e-4,
        ];
        let mut rng = XorShift64::new(0x51CE);
        for _ in 0..5000 {
            xs.push(f32::from_bits(rng.next_u32()));
        }
        // Plus a dense in-domain band for each family.
        for i in 0..2000 {
            xs.push(-20.0 + i as f32 * 0.02); // exp/sinh/cosh/trig range
            xs.push(f32::from_bits(0x3F00_0000 + i * 37)); // near 1 for logs
        }
        xs
    }

    #[test]
    fn slices_are_bit_identical_to_scalar() {
        let xs = adversarial_inputs();
        let mut out = vec![0.0f32; xs.len()];
        for name in NAMES {
            eval_slice_f32(name, &xs, &mut out).expect("known name");
            for (i, (&x, &got)) in xs.iter().zip(out.iter()).enumerate() {
                let want = crate::eval_f32_by_name(name, x).expect("known name");
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{name}[{i}]: x = {x:e} ({:#010x}): slice {got:e} vs scalar {want:e}",
                    x.to_bits()
                );
            }
        }
    }

    #[test]
    fn posit_slice_matches_scalar() {
        use rlibm_posit::Posit32;
        let mut rng = XorShift64::new(0x9051);
        let xs: Vec<Posit32> = (0..3000).map(|_| Posit32::from_bits(rng.next_u32())).collect();
        let mut out = vec![Posit32::ZERO; xs.len()];
        for name in ["ln", "exp", "sinh", "cosh", "log10", "exp2", "exp10", "log2"] {
            eval_slice_posit32(name, &xs, &mut out).expect("known name");
            for (&x, &got) in xs.iter().zip(out.iter()) {
                assert_eq!(got, crate::eval_posit32_by_name(name, x).expect("known name"), "{name}");
            }
        }
    }

    /// Satellite regression: specials (NaN, ±0, ±inf, subnormals,
    /// saturating magnitudes) scattered *through* a single 64-lane chunk
    /// must resolve per lane exactly like the scalar API — the staged
    /// pipeline may not let a special lane contaminate its neighbours.
    #[test]
    fn specials_scattered_through_one_chunk_resolve_per_lane() {
        let specials = [
            f32::NAN,
            f32::from_bits(0x7FC0_1234), // NaN with a payload
            f32::from_bits(0xFFC0_0001), // negative NaN payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::from_bits(1),          // smallest subnormal
            f32::from_bits(0x007F_FFFF), // largest subnormal
            f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            1e30,  // saturates exp-family
            -1e30, // underflows exp-family
        ];
        // Exactly one chunk: specials at scattered lanes, plain in-domain
        // values everywhere else.
        let mut xs = [0.0f32; 64];
        for (i, lane) in xs.iter_mut().enumerate() {
            *lane = 0.25 + i as f32 * 0.37;
        }
        for (k, &s) in specials.iter().enumerate() {
            xs[(k * 9 + 3) % 64] = s;
        }
        let mut out = [0.0f32; 64];
        for name in NAMES {
            eval_slice_f32(name, &xs, &mut out).expect("known name");
            for (i, (&x, &got)) in xs.iter().zip(out.iter()).enumerate() {
                let want = crate::eval_f32_by_name(name, x).expect("known name");
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{name} lane {i}: x = {x:e}: slice {got:e} vs scalar {want:e}"
                );
            }
        }

        // Posit chunk with NaR / min / max scattered among ordinary values.
        use rlibm_posit::Posit32;
        let mut pxs = [Posit32::from_f64(1.5); 64];
        for (i, lane) in pxs.iter_mut().enumerate() {
            *lane = Posit32::from_f64(0.3 + i as f64 * 0.21);
        }
        for (k, s) in
            [Posit32::NAR, Posit32::ZERO, Posit32::MINPOS, Posit32::MAXPOS].into_iter().enumerate()
        {
            pxs[(k * 17 + 5) % 64] = s;
        }
        let mut pout = [Posit32::ZERO; 64];
        for name in ["ln", "exp", "sinh", "cosh", "log10", "exp2", "exp10", "log2"] {
            eval_slice_posit32(name, &pxs, &mut pout).expect("known name");
            for (i, (&x, &got)) in pxs.iter().zip(pout.iter()).enumerate() {
                let want = crate::eval_posit32_by_name(name, x).expect("known name");
                assert_eq!(got, want, "{name} lane {i}");
            }
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error() {
        let mut out = [0.0f32; 1];
        let err = eval_slice_f32("tanh", &[1.0], &mut out).expect_err("unknown");
        assert_eq!(err, UnknownFunction("tanh".to_owned()));
        let mut pout = [rlibm_posit::Posit32::ZERO; 1];
        assert!(eval_slice_posit32("sinpi", &[rlibm_posit::Posit32::ZERO], &mut pout).is_err());
    }

    #[test]
    fn empty_and_partial_chunks() {
        let mut out = [];
        exp_slice(&[], &mut out);
        // A length that is not a multiple of the lane width.
        let xs: Vec<f32> = (0..97).map(|i| i as f32 * 0.11 - 5.0).collect();
        let mut out = vec![0.0f32; 97];
        ln_slice(&xs, &mut out);
        for (&x, &got) in xs.iter().zip(out.iter()) {
            let want = crate::ln(x);
            assert!(got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut out = vec![0.0f32; 3];
        exp_slice(&[1.0, 2.0], &mut out);
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    mod simd {
        use crate::lane::avx2;
        use rlibm_fp::rng::XorShift64;

        const NAMES: [&str; 10] =
            ["ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh", "sinpi", "cospi"];

        /// The SIMD driver must be lane-for-lane bit-identical to the scalar
        /// map on adversarial inputs (specials, domain edges, random bit
        /// patterns, dense in-domain bands). This is the same contract the
        /// scalar slice tests pin; here it exercises the AVX2 stages
        /// directly because with the `simd` feature the public entry points
        /// route through them.
        #[test]
        fn simd_slices_are_bit_identical_to_scalar() {
            if !avx2::available() {
                return; // scalar fallback path: covered by the super tests
            }
            let mut xs = vec![
                0.0f32,
                -0.0,
                1.0,
                -1.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::MAX,
                f32::MIN,
                f32::MIN_POSITIVE,
                f32::from_bits(1),
                88.9,
                -106.5,
                128.5,
                -151.5,
                38.7,
                -45.7,
                90.5,
                0.5,
                2.5,
                8_388_609.0,
                1e-8,
                2e-4,
            ];
            let mut rng = XorShift64::new(0x51CE_51CE);
            for _ in 0..20_000 {
                xs.push(f32::from_bits(rng.next_u32()));
            }
            for i in 0..4000 {
                xs.push(-20.0 + i as f32 * 0.01);
                xs.push(f32::from_bits(0x3F00_0000 + i * 37));
            }
            let mut out = vec![0.0f32; xs.len()];
            for name in NAMES {
                crate::eval_slice_f32(name, &xs, &mut out).expect("known name");
                for (i, (&x, &got)) in xs.iter().zip(out.iter()).enumerate() {
                    let want = crate::eval_f32_by_name(name, x).expect("known name");
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{name}[{i}]: x = {x:e} ({:#010x}): simd slice {got:e} vs scalar {want:e}",
                        x.to_bits()
                    );
                }
            }
        }

        /// Partial chunks (tail shorter than the lane width, including
        /// shorter than one 4-lane group) pad with the placeholder and must
        /// still resolve every real lane correctly.
        #[test]
        fn simd_partial_chunks_match_scalar() {
            if !avx2::available() {
                return;
            }
            for len in [1usize, 3, 4, 5, 63, 64, 65, 67, 127, 130] {
                let xs: Vec<f32> = (0..len).map(|i| 0.3 + i as f32 * 0.41).collect();
                let mut out = vec![0.0f32; len];
                for name in NAMES {
                    crate::eval_slice_f32(name, &xs, &mut out).expect("known name");
                    for (&x, &got) in xs.iter().zip(out.iter()) {
                        let want = crate::eval_f32_by_name(name, x).expect("known name");
                        assert_eq!(got.to_bits(), want.to_bits(), "{name}({x:e}) len {len}");
                    }
                }
            }
        }
    }
}
