//! The `offline_gen_cert` workload: the library author's toolchain.
//! One pass generates the ten Half polynomials end to end (cold-cache
//! Ziv oracle sweep, reduced-interval deduction, CEGIS polynomial
//! generation), then certifies a seeded set of f32 shards fast-vs-dd
//! on one thread. (`sweep_shard` spawns its workers per shard; on the
//! shared two-core VM the benchmark was tuned on, a pass certified with
//! two threads ran 2.5x slower in some minutes than in others, while
//! one thread held steady. The traced run reports the `nproc`-thread
//! scaling as `cert.parallel_efficiency`.)

use crate::gate::{f32_bits, fnv};
use crate::inputs::f32_in_domain;
use crate::{
    median, mix, ns_since, timed_loop, CalBlock, Opts, Report, Spans, Tally, REFERENCE_HOST_LIBM_NS,
};
use rlibm_core::certify::sweep_shard;
use rlibm_core::reduced::ReductionCase;
use rlibm_core::validate::all_16bit;
use rlibm_core::{
    deduce_reduced_intervals, gen_polynomial, merge_by_reduced_input, rounding_interval,
    PolyGenConfig, Polynomial,
};
use rlibm_fp::rng::XorShift64;
use rlibm_fp::{Half, Representation};
use rlibm_mp::oracle::{is_special_case, try_correctly_rounded, try_correctly_rounded_f64};
use rlibm_mp::{correctly_rounded, Func, DEFAULT_PREC_CEILING};
use std::hint::black_box;
use std::time::Instant;

/// Certify shard size: 2^16 consecutive f32 bit patterns.
pub const SHARD_BITS: u32 = 16;
/// Certified shards per function and pass, one per stratum below.
const SHARDS_PER_FN: usize = 4;
/// Strata of the certified shards: f32 exponent fields spanning
/// `[1/8, 1/4)`, `[1, 2)`, `[4, 8)` and `[16, 32)`, all inside every
/// function's kernel domain. The seed picks the shard inside a stratum,
/// so every seed certifies the same mix of work.
const SHARD_EXPONENTS: [u32; SHARDS_PER_FN] = [124, 127, 129, 131];
/// Generation uses every `GEN_STRIDE`-th input of each domain, the
/// subsampling of `gen_bench --quick`. The set is the same for every
/// seed: with a seeded offset the slowest generation's time moved by
/// ±15% from seed to seed.
const GEN_STRIDE: usize = 8;
/// Oracle spot checks per certified shard, once per run.
const ORACLE_SAMPLES: usize = 4;
/// Shards timed by the traced-run certify probes.
const PROBE_SHARDS: usize = 4;
const MIN_PASSES: usize = 2;

/// One generation job: a function, its polynomial terms and the Half
/// input domain `[lo, hi)` (both signs when `both_signs`). Domains are
/// sized so that every generation succeeds.
struct GenJob {
    func: Func,
    terms: Vec<u32>,
    lo: f64,
    hi: f64,
    both_signs: bool,
}

fn gen_jobs() -> Vec<GenJob> {
    let j = |func, terms: Vec<u32>, lo: f64, hi: f64, both_signs| GenJob {
        func,
        terms,
        lo,
        hi,
        both_signs,
    };
    let (e8, e6, e2) = (2f64.powi(-8), 2f64.powi(-6), 2f64.powi(-2));
    vec![
        j(Func::Ln, (0..=7).collect(), 1.0, 2.0, false),
        j(Func::Log2, (0..=7).collect(), 1.0, 2.0, false),
        j(Func::Log10, (0..=7).collect(), 1.0, 2.0, false),
        j(Func::Exp, (0..=6).collect(), e8, e2, true),
        j(Func::Exp2, (0..=6).collect(), e8, e2, true),
        j(Func::Exp10, (0..=6).collect(), e8, e2, true),
        j(Func::Sinh, vec![1, 3, 5], e6, e2, false),
        j(Func::Cosh, vec![0, 2, 4], e6, e2, false),
        j(Func::SinPi, vec![1, 3, 5, 7], e8, e2, false),
        // cospi needs x^6: at 1/4 the degree-4 truncation error exceeds
        // a Half rounding interval.
        j(Func::CosPi, vec![0, 2, 4, 6], e8, e2, false),
    ]
}

fn gen_inputs(j: &GenJob) -> Vec<Half> {
    all_16bit::<Half>()
        .filter(|x| {
            let v = x.to_f64();
            let m = v.abs();
            v.is_finite()
                && (j.lo..j.hi).contains(&m)
                && (j.both_signs || v > 0.0)
                && !is_special_case(j.func, v)
        })
        .step_by(GEN_STRIDE)
        .collect()
}

/// What set-up produces: generation inputs and the certify shard list.
pub struct Setup {
    jobs: Vec<GenJob>,
    inputs: Vec<Vec<Half>>,
    /// `(function index, shard index)` pairs.
    shards: Vec<(usize, u32)>,
}

/// Builds the generation inputs and the seeded shard list, then makes
/// the first cold-cache oracle call; its result must equal the
/// library's own Half function.
pub fn setup(seed: u64) -> (Setup, bool) {
    let jobs = gen_jobs();
    let mut rng = XorShift64::new(mix(seed, 0x600));
    let inputs: Vec<Vec<Half>> = jobs.iter().map(gen_inputs).collect();
    let mut shards = Vec::new();
    for (e, exp) in SHARD_EXPONENTS.iter().enumerate() {
        for (fi, j) in jobs.iter().enumerate() {
            // Negative halves for the odd strata, except where a negative
            // input never reaches the kernel (the log family).
            let log = matches!(j.func, Func::Ln | Func::Log2 | Func::Log10);
            let sign = u32::from(e % 2 == 1 && !log);
            // Shard index = top 16 bits: sign, exponent, 7 seeded
            // mantissa bits.
            let top = (sign << 15) | (exp << 7) | (rng.next_u32() >> 25);
            shards.push((fi, top));
        }
    }
    let x = inputs[0][0];
    let ok = match try_correctly_rounded::<Half>(jobs[0].func, x, DEFAULT_PREC_CEILING) {
        Ok(y) => {
            rlibm_math::eval_half_by_name(jobs[0].func.name(), x).map(|z| z.to_bits_u32())
                == Some(y.to_bits_u32())
        }
        Err(_) => false,
    };
    (
        Setup {
            jobs,
            inputs,
            shards,
        },
        ok,
    )
}

/// The oracle sweep of one generation: rounding-interval cases for every
/// input (identity range reduction) and each case's oracle result.
fn oracle_pass(func: Func, inputs: &[Half]) -> Option<(Vec<ReductionCase>, Vec<Half>)> {
    let mut cases = Vec::with_capacity(inputs.len());
    let mut ys = Vec::with_capacity(inputs.len());
    for &x in inputs {
        let xf = x.to_f64();
        let y: Half = try_correctly_rounded(func, x, DEFAULT_PREC_CEILING).ok()?;
        let Some(target) = rounding_interval(y) else {
            continue;
        };
        let cv = try_correctly_rounded_f64(func, xf, DEFAULT_PREC_CEILING).ok()?;
        cases.push(ReductionCase {
            x: xf,
            target,
            r: xf,
            component_values: vec![cv],
        });
        ys.push(y);
    }
    Some((cases, ys))
}

/// One generation, end to end. `None` is a failed generation.
fn generate(
    job: &GenJob,
    inputs: &[Half],
    sp: &mut Spans,
    stats: &mut [u64; 3],
) -> Option<(Polynomial, Vec<ReductionCase>, Vec<Half>)> {
    // A fresh thread per sweep: the oracle's thread-local caches start
    // cold, as in a new generator process. The caller waits, so one
    // thread works at a time.
    let (cases, ys) = sp.time("mp.oracle", || {
        std::thread::scope(|s| {
            s.spawn(|| oracle_pass(job.func, inputs))
                .join()
                .ok()
                .flatten()
        })
    })?;
    let merged = sp.time("core.reduce", || {
        let per = deduce_reduced_intervals(&cases, &|vals, _| vals[0]).ok()?;
        merge_by_reduced_input(&per[0], 0).ok()
    })?;
    let cfg = PolyGenConfig {
        terms: job.terms.clone(),
        ..Default::default()
    };
    let (poly, st) = sp.time("core.polygen", || gen_polynomial(&merged, &cfg).ok())?;
    stats[0] += st.lp_calls as u64;
    stats[1] += st.cegis_rounds as u64;
    stats[2] += st.final_sample as u64;
    Some((poly, cases, ys))
}

fn fast_bits(name: &str) -> impl Fn(u32) -> u32 + Sync {
    let f = rlibm_math::f32_fn_by_name(name).expect("f32 function name");
    move |b| f32_bits(f(f32::from_bits(b)))
}

fn dd_bits(name: &str) -> impl Fn(u32) -> u32 + Sync {
    let f = rlibm_math::f32_dd_fn_by_name(name).expect("f32 function name");
    move |b| f32_bits(f(f32::from_bits(b)))
}

fn shard_inputs(shard: u32) -> impl Iterator<Item = u32> {
    let base = shard << SHARD_BITS;
    (0..1u32 << SHARD_BITS).map(move |off| base | off)
}

pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let mut sp = Spans::new(opts.traced);
    rlibm_math::stats::register_all();
    let (set, first_ok) = setup(opts.seed);
    rep.tally.check(first_ok);
    let names: Vec<&str> = set.jobs.iter().map(|j| j.func.name()).collect();

    let mut pass_ns = Vec::new();
    let mut gen_ns = Vec::new();
    let mut cert_ns = Vec::new();
    // Per pass, each unit's time (the same 50 units every pass) and the
    // mean of the calibration blocks run after each of its units.
    let mut units: Vec<Vec<f64>> = Vec::new();
    let mut pass_cal = Vec::new();
    let cal = CalBlock::new();
    let mut stats = [0u64; 3];
    let mut out_fnv = 0;
    // The timed loop runs on one CPU, on a thread pinned to it while the
    // caller waits, so that the oracle's fresh threads run where the
    // calibration blocks do. Unpinned, across ten runs the generation
    // half of the pass slowed by up to 39% and the blocks by 17%.
    let (pinned, lp) = std::thread::scope(|s| {
        s.spawn(|| {
            let pinned = crate::serve::pin_to_one_cpu();
            (
                pinned,
                timed_loop(opts, opts.seconds, MIN_PASSES, |_| {
                    let pass = sp.open("pass");
                    let mut unit_ns = Vec::new();
                    let mut cal_ns = 0.0;
                    let mut polys = Vec::with_capacity(set.jobs.len());
                    stats = [0; 3];
                    for (job, xs) in set.jobs.iter().zip(&set.inputs) {
                        let tj = Instant::now();
                        polys.push(generate(job, xs, &mut sp, &mut stats));
                        unit_ns.push(ns_since(tj));
                        cal_ns += sp.time("ref.cal", || cal.run());
                    }
                    let mut verdicts = Vec::with_capacity(set.shards.len());
                    for &(fi, shard) in &set.shards {
                        let tj = Instant::now();
                        let v = sp.time("cert.sweep", || {
                            sweep_shard(
                                shard,
                                SHARD_BITS,
                                1,
                                fast_bits(names[fi]),
                                dd_bits(names[fi]),
                                None,
                            )
                        });
                        unit_ns.push(ns_since(tj));
                        cal_ns += sp.time("ref.cal", || cal.run());
                        verdicts.push(v);
                    }
                    // A pass is its units; the calibration blocks between them are not.
                    let gen: f64 = unit_ns[..set.jobs.len()].iter().sum();
                    let all: f64 = unit_ns.iter().sum();
                    pass_ns.push(all);
                    gen_ns.push(gen);
                    cert_ns.push(all - gen);
                    pass_cal.push(cal_ns / unit_ns.len() as f64);
                    units.push(unit_ns);
                    sp.close(pass);
                    out_fnv = fnv(polys
                        .iter()
                        .flatten()
                        .flat_map(|(p, _, _)| p.coeffs().iter().map(|c| c.to_bits()))
                        .flat_map(|b| [b as u32, (b >> 32) as u32]));
                    sp.time("gate", || {
                        for (p, xs) in polys.iter().zip(&set.inputs) {
                            match p {
                                Some((poly, cases, ys)) => {
                                    rep.tally.merge(check_poly(poly, cases, ys))
                                }
                                None => rep.tally.add(xs.len() as u64, xs.len() as u64),
                            }
                        }
                        for v in &verdicts {
                            match v {
                                Ok(v) => rep.tally.add(1 << SHARD_BITS, v.mismatches),
                                Err(_) => rep.tally.add(1 << SHARD_BITS, 1 << SHARD_BITS),
                            }
                        }
                    });
                }),
            )
        })
        .join()
    })
    .unwrap_or_else(|e| std::panic::resume_unwind(e));
    let passes = rep.timed(&lp);
    // Host-speed scale of each pass: the reference block time over the
    // mean block time between its units. One block after each pass, as
    // the other workloads run, samples a 0.8 s pass too sparsely to
    // follow the host through it (`perfbench/README.md`).
    let reference = REFERENCE_HOST_LIBM_NS * CalBlock::CALLS as f64;
    let scale: Vec<f64> = pass_cal.iter().map(|c| reference / c).collect();
    let scaled = |p: usize, ns: f64| ns * scale[p];
    let pass_scaled: Vec<f64> = pass_ns
        .iter()
        .enumerate()
        .map(|(p, &t)| scaled(p, t))
        .collect();
    // Each unit's median over passes, then percentiles over units: a
    // pass's slowest unit is whichever one a spell of host load hit.
    let unit_medians = |f: &dyn Fn(usize, f64) -> f64| -> Vec<f64> {
        (0..units[0].len())
            .map(|u| {
                let ts: Vec<f64> = units.iter().enumerate().map(|(p, r)| f(p, r[u])).collect();
                median(&ts)
            })
            .collect()
    };
    let (raw_units, scaled_units) = (unit_medians(&|_, t| t), unit_medians(&scaled));
    let q = crate::quantile;
    rep.line(format!(
        "raw pass_ms {}, unit_p50_us {}, unit_p99_us {}; host libm {:.3} ns per call between \
         units, passes scaled by a median {:.4} to {REFERENCE_HOST_LIBM_NS} ns per call",
        median(&pass_ns) / 1e6,
        q(&raw_units, 0.5) / 1e3,
        q(&raw_units, 0.99) / 1e3,
        median(&pass_cal) / CalBlock::CALLS as f64,
        median(&scale),
    ));
    rep.e2e("pass_ms", median(&pass_scaled) / 1e6);
    rep.e2e("unit_p50_us", q(&scaled_units, 0.5) / 1e3);
    rep.e2e("unit_p99_us", q(&scaled_units, 0.99) / 1e3);
    // Certified outputs against the Ziv oracle: a seeded sample per
    // shard, once per run.
    let mut rng = XorShift64::new(mix(opts.seed, 0x700));
    for &(fi, shard) in &set.shards {
        let dd = dd_bits(names[fi]);
        for _ in 0..ORACLE_SAMPLES {
            let b = (shard << SHARD_BITS) | (rng.next_u32() >> SHARD_BITS);
            let want = f32_bits(correctly_rounded::<f32>(
                set.jobs[fi].func,
                f32::from_bits(b),
            ));
            rep.tally.check(dd(b) == want);
        }
    }

    let gen_inputs: usize = set.inputs.iter().map(Vec::len).sum();
    let cert_inputs = (set.shards.len() << SHARD_BITS) as f64;
    rep.line(format!(
        "offline: {passes} passes; each generates 10 Half polynomials from {gen_inputs} inputs and \
         certifies {} f32 shards of 2^{SHARD_BITS} inputs on one thread ({}); unit = one \
         generation or one shard ({} per pass; p50/p99 over units of each unit's median over passes); gen_s {:.3}, \
         cert_minputs_per_s {:.2}",
        set.shards.len(),
        if pinned { "pinned to one CPU" } else { "unpinned" },
        set.jobs.len() + set.shards.len(),
        median(&gen_ns) / 1e9,
        cert_inputs / median(&cert_ns) * 1e3,
    ));
    let in_fnv = fnv(set
        .inputs
        .iter()
        .flatten()
        .map(|x| x.to_bits_u32())
        .chain(set.shards.iter().map(|s| s.1)));
    rep.line(format!(
        "checksums inputs {in_fnv:016x} outputs {out_fnv:016x} (polynomial coefficients)"
    ));
    let outside = set
        .shards
        .iter()
        .map(|&(fi, s)| {
            shard_inputs(s)
                .filter(|&b| !f32_in_domain(names[fi], f32::from_bits(b)))
                .count()
        })
        .sum::<usize>();
    rep.layer("input.outside_domain_share", outside as f64 / cert_inputs);
    if opts.traced {
        let per_pass = |name: &str| -> Vec<f64> {
            let ds = sp.durations(name);
            ds.chunks(set.jobs.len()).map(|c| c.iter().sum()).collect()
        };
        rep.layer(
            "mp.oracle_us_per_input",
            median(&per_pass("mp.oracle")) / gen_inputs as f64 / 1e3,
        );
        rep.layer("core.reduce_ms", median(&per_pass("core.reduce")) / 1e6);
        rep.layer("core.polygen_ms", median(&per_pass("core.polygen")) / 1e6);
        rep.layer("lp.calls", stats[0] as f64);
        rep.layer("core.cegis_rounds", stats[1] as f64);
        rep.layer("core.final_sample", stats[2] as f64);
        cert_probe(&set, &names, Opts::threads(), &mut sp, &mut rep);
        rep.layer("trace.unattributed_share", sp.unattributed_share("pass"));
    }
    rep.spans = Some(sp);
    rep
}

/// Every generated polynomial must round each input to the oracle's
/// Half result.
pub fn check_poly(poly: &Polynomial, cases: &[ReductionCase], ys: &[Half]) -> Tally {
    let mut t = Tally::default();
    for (c, y) in cases.iter().zip(ys) {
        t.check(Half::round_from_f64(poly.eval(c.x)).to_bits_u32() == y.to_bits_u32());
    }
    t
}

/// Traced-run certify probes: single-thread fast and dd cost per input,
/// tier shares of the fast path on certified inputs, and the parallel
/// efficiency of the sweep (one-thread time over `threads` times the
/// `threads`-thread time).
fn cert_probe(set: &Setup, names: &[&str], threads: usize, sp: &mut Spans, rep: &mut Report) {
    use rlibm_math::stats;
    let tiers = || {
        let s = |f: fn(usize) -> u64| (0..10).map(f).sum::<u64>();
        [
            s(stats::tier_prefix),
            s(stats::tier_full),
            s(stats::tier_dd),
        ]
    };
    let t0 = tiers();
    for &(fi, shard) in set.shards.iter().take(PROBE_SHARDS) {
        let (fast, dd) = (fast_bits(names[fi]), dd_bits(names[fi]));
        sp.time("cert.fast", || {
            shard_inputs(shard).for_each(|b| {
                black_box(fast(b));
            })
        });
        sp.time("cert.dd", || {
            shard_inputs(shard).for_each(|b| {
                black_box(dd(b));
            })
        });
    }
    let t1 = tiers();
    let [p, f, d] = [t1[0] - t0[0], t1[1] - t0[1], t1[2] - t0[2]];
    let all = (p + f + d).max(1) as f64;
    rep.layer("libm.tier.prefix_share", p as f64 / all);
    rep.layer("libm.tier.full_share", f as f64 / all);
    rep.layer("libm.tier.dd_share", d as f64 / all);
    let n = (1u64 << SHARD_BITS) as f64;
    rep.layer(
        "cert.fast_ns_per_input",
        median(&sp.durations("cert.fast")) / n,
    );
    rep.layer("cert.dd_ns_per_input", median(&sp.durations("cert.dd")) / n);
    let mut eff = Vec::new();
    for &(fi, shard) in set.shards.iter().take(PROBE_SHARDS) {
        let sweep = |t: usize| {
            let t0 = Instant::now();
            let _ = black_box(sweep_shard(
                shard,
                SHARD_BITS,
                t,
                fast_bits(names[fi]),
                dd_bits(names[fi]),
                None,
            ));
            ns_since(t0)
        };
        let one = sp.time("cert.sweep_1t", || sweep(1));
        let many = sp.time("cert.sweep_nt", || sweep(threads));
        eff.push(one / (threads as f64 * many));
    }
    rep.layer("cert.parallel_efficiency", median(&eff));
}
