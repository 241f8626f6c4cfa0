//! The library workloads, `f32_mixed_*` and `posit32_domain_*`: a single
//! thread calls every function of one format through one API, the
//! scalar entries (`*_scalar`) or fixed-length slices (`*_slice`), the
//! way a library user would. Each API is its own workload so that each
//! has its own gated pass time.

use crate::gate::{f32_bits, fnv};
use crate::inputs;
use crate::{median, mix, ns_since, quantile, timed_loop, Opts, Report, Spans, Tally};
use rlibm_mp::Func;
use rlibm_posit::Posit32;
use std::hint::black_box;
use std::time::Instant;

/// Inputs per function.
pub const N: usize = 1 << 16;
/// Elements per slice call, and calls per scalar block.
pub const BLOCK: usize = 4096;
/// Inputs per function checked against the Ziv oracle, once per run.
const ORACLE_SAMPLES: usize = 32;
/// Passes run even when `--seconds` is shorter.
const MIN_PASSES: usize = 3;
/// Repetitions of each traced-run probe.
const PROBE_REPS: usize = 5;

/// One number format's view of the library.
pub trait Format {
    type T: Copy;
    const KIND: &'static str;
    const NAMES: &'static [&'static str];
    fn inputs(seed: u64, i: usize, name: &str) -> Vec<Self::T>;
    fn scalar(name: &str) -> fn(Self::T) -> Self::T;
    fn dd(name: &str) -> fn(Self::T) -> Self::T;
    fn slice(name: &str, xs: &[Self::T], out: &mut [Self::T]);
    fn bits(y: Self::T) -> u32;
    fn oracle(f: Func, x: Self::T) -> Self::T;
    fn slot(name: &str) -> usize;
    fn in_domain(name: &str, x: Self::T) -> bool;
    /// Format-specific traced-run probes.
    fn probe(_inputs: &[Vec<Self::T>], _sp: &mut Spans, _rep: &mut Report) {}
}

pub struct F32;
pub struct P32;

/// The API a library workload times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Api {
    /// `f32_fn_by_name` / `posit32_fn_by_name`, one call per input.
    Scalar,
    /// `eval_slice_f32` / `eval_slice_posit32`, one call per block.
    Slice,
}

impl Api {
    pub fn name(self) -> &'static str {
        match self {
            Api::Scalar => "scalar",
            Api::Slice => "slice",
        }
    }

    /// Evaluates the named function on `xs` through this API.
    pub fn eval<F: Format>(self, name: &str, xs: &[F::T], out: &mut [F::T]) {
        match self {
            Api::Scalar => {
                let f = F::scalar(name);
                for (x, y) in xs.iter().zip(out) {
                    *y = f(black_box(*x));
                }
            }
            Api::Slice => F::slice(name, black_box(xs), out),
        }
    }

    fn other(self) -> Api {
        match self {
            Api::Scalar => Api::Slice,
            Api::Slice => Api::Scalar,
        }
    }
}

impl Format for F32 {
    type T = f32;
    const KIND: &'static str = "f32";
    const NAMES: &'static [&'static str] = &crate::F32_FNS;
    fn inputs(seed: u64, i: usize, name: &str) -> Vec<f32> {
        inputs::f32_inputs(seed, i, name, N)
    }
    fn scalar(name: &str) -> fn(f32) -> f32 {
        rlibm_math::f32_fn_by_name(name).expect("f32 function name")
    }
    fn dd(name: &str) -> fn(f32) -> f32 {
        rlibm_math::f32_dd_fn_by_name(name).expect("f32 function name")
    }
    fn slice(name: &str, xs: &[f32], out: &mut [f32]) {
        rlibm_math::eval_slice_f32(name, xs, out).expect("f32 function name");
    }
    fn bits(y: f32) -> u32 {
        f32_bits(y)
    }
    fn oracle(f: Func, x: f32) -> f32 {
        rlibm_mp::correctly_rounded(f, x)
    }
    fn slot(name: &str) -> usize {
        rlibm_math::stats::f32_slot_by_name(name).expect("f32 function name")
    }
    fn in_domain(name: &str, x: f32) -> bool {
        inputs::f32_in_domain(name, x)
    }
}

impl Format for P32 {
    type T = Posit32;
    const KIND: &'static str = "posit32";
    const NAMES: &'static [&'static str] = &[
        "ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh",
    ];
    fn inputs(seed: u64, i: usize, name: &str) -> Vec<Posit32> {
        inputs::posit_inputs(seed, i, name, N)
    }
    fn scalar(name: &str) -> fn(Posit32) -> Posit32 {
        rlibm_math::posit32_fn_by_name(name).expect("posit32 function name")
    }
    fn dd(name: &str) -> fn(Posit32) -> Posit32 {
        rlibm_math::posit32_dd_fn_by_name(name).expect("posit32 function name")
    }
    fn slice(name: &str, xs: &[Posit32], out: &mut [Posit32]) {
        rlibm_math::eval_slice_posit32(name, xs, out).expect("posit32 function name");
    }
    fn bits(y: Posit32) -> u32 {
        y.to_bits()
    }
    fn oracle(f: Func, x: Posit32) -> Posit32 {
        rlibm_mp::correctly_rounded(f, x)
    }
    fn slot(name: &str) -> usize {
        rlibm_math::stats::posit32_slot_by_name(name).expect("posit32 function name")
    }
    fn in_domain(name: &str, x: Posit32) -> bool {
        inputs::posit_in_domain(name, x)
    }
    fn probe(inputs: &[Vec<Posit32>], sp: &mut Spans, rep: &mut Report) {
        let xs: Vec<Posit32> = inputs.iter().flatten().copied().collect();
        let vs: Vec<f64> = xs.iter().map(|x| x.to_f64()).collect();
        for _ in 0..PROBE_REPS {
            sp.time("posit.decode", || {
                for &x in &xs {
                    black_box(black_box(x).to_f64());
                }
            });
            sp.time("posit.encode", || {
                for &v in &vs {
                    black_box(Posit32::from_f64(black_box(v)));
                }
            });
        }
        let n = xs.len() as f64;
        rep.layer("posit.decode_ns", median(&sp.durations("posit.decode")) / n);
        rep.layer("posit.encode_ns", median(&sp.durations("posit.encode")) / n);
    }
}

fn func(name: &str) -> Func {
    *Func::ALL
        .iter()
        .find(|f| f.name() == name)
        .expect("oracle function name")
}

/// Generates every function's inputs and computes each function's first
/// result through `api`; returns the inputs and whether those first
/// results equal the dd-only reference.
pub fn setup<F: Format>(seed: u64, api: Api) -> (Vec<Vec<F::T>>, bool) {
    let inputs: Vec<Vec<F::T>> = F::NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| F::inputs(seed, i, name))
        .collect();
    let ok = F::NAMES.iter().zip(&inputs).all(|(name, xs)| {
        let mut y = [xs[0]];
        api.eval::<F>(name, &xs[..1], &mut y);
        F::bits(y[0]) == F::bits(F::dd(name)(xs[0]))
    });
    (inputs, ok)
}

/// The per-pass gate of one function: outputs equal the dd-only
/// reference bits, and the two APIs' outputs equal each other.
pub fn gate<F: Format>(out: &[F::T], other_api: &[u32], reference: &[u32]) -> Tally {
    let v: Vec<u32> = out.iter().map(|&y| F::bits(y)).collect();
    let mut t = Tally::default();
    t.compare(&v, reference);
    t.compare(&v, other_api);
    t
}

/// Sums of the program's tier counters over this format's functions,
/// and the f32 slice rescalar-lane counter (all 0 in the shipping
/// build, where the counters are compiled out).
fn counters<F: Format>() -> [u64; 4] {
    use rlibm_math::stats;
    let mut c = [0u64; 4];
    for name in F::NAMES {
        let s = F::slot(name);
        c[0] += stats::tier_prefix(s);
        c[1] += stats::tier_full(s);
        c[2] += stats::tier_dd(s);
    }
    c[3] = rlibm_obs::snapshot()
        .counter("runtime.slice.f32.rescalar_lanes")
        .unwrap_or(0);
    c
}

pub fn run<F: Format>(opts: &Opts, api: Api) -> Report {
    let mut rep = Report::default();
    let mut sp = Spans::new(opts.traced);
    rlibm_math::stats::register_all();
    let nf = F::NAMES.len();
    let (inputs, first_ok) = setup::<F>(opts.seed, api);
    rep.tally.check(first_ok);

    // Gate references, outside the timed region: the dd-only entry and
    // the other API on every input, and a seeded sample against the Ziv
    // oracle.
    let refs: Vec<Vec<u32>> = F::NAMES
        .iter()
        .zip(&inputs)
        .map(|(name, xs)| {
            let dd = F::dd(name);
            sp.time(format!("libm.dd.{name}"), || {
                xs.iter().map(|&x| F::bits(dd(x))).collect()
            })
        })
        .collect();
    let others: Vec<Vec<u32>> = F::NAMES
        .iter()
        .zip(&inputs)
        .map(|(name, xs)| {
            let mut out = xs.clone();
            for (x, y) in xs.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
                api.other().eval::<F>(name, x, y);
            }
            out.iter().map(|&y| F::bits(y)).collect()
        })
        .collect();
    for (i, (name, xs)) in F::NAMES.iter().zip(&inputs).enumerate() {
        let mut r = rlibm_fp::rng::XorShift64::new(mix(opts.seed, 0x300 + i as u64));
        let f = F::scalar(name);
        for _ in 0..ORACLE_SAMPLES {
            let x = xs[(r.next_u64() % N as u64) as usize];
            rep.tally
                .check(F::bits(f(x)) == F::bits(F::oracle(func(name), x)));
        }
    }

    let c0 = counters::<F>();
    let mut outs: Vec<Vec<F::T>> = inputs.clone();
    let mut pass_ns = Vec::new();
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let span_names: Vec<String> = F::NAMES
        .iter()
        .map(|name| format!("libm.{}.{name}", api.name()))
        .collect();
    let budget = if opts.traced {
        opts.seconds * 0.8
    } else {
        opts.seconds
    };
    // A pass is N / BLOCK rounds; a round (the unit) takes block `b` of
    // every function through the API, so every unit does the same mix
    // of work.
    let lp = timed_loop(opts, budget, MIN_PASSES, |_| {
        let pass = sp.open("pass");
        let t0 = Instant::now();
        let mut units = [0.0; N / BLOCK];
        for (b, unit) in units.iter_mut().enumerate() {
            let r = b * BLOCK..(b + 1) * BLOCK;
            let tu = Instant::now();
            for i in 0..nf {
                let o = sp.open(span_names[i].as_str());
                api.eval::<F>(F::NAMES[i], &inputs[i][r.clone()], &mut outs[i][r.clone()]);
                sp.close(o);
            }
            *unit = ns_since(tu);
        }
        pass_ns.push(ns_since(t0));
        p50.push(quantile(&units, 0.5));
        p99.push(quantile(&units, 0.99));
        sp.close(pass);
        sp.time("gate", || {
            for i in 0..nf {
                rep.tally.merge(gate::<F>(&outs[i], &others[i], &refs[i]));
            }
        });
    });
    let passes = rep.timed(&lp);
    let c1 = counters::<F>();

    let calls = (nf * N) as f64;
    rep.e2e_scaled(
        &lp,
        &[
            ("pass_ms", median(&pass_ns) / 1e6),
            ("unit_p50_us", median(&p50) / 1e3),
            ("unit_p99_us", median(&p99) / 1e3),
        ],
    );
    rep.line(format!(
        "{} library, {} API: {passes} passes of {nf} functions x {N} inputs; unit = one round \
         of a {BLOCK}-input block of every function ({} per pass; p50/p99 are medians over \
         passes); {}_mcalls_per_s {:.2}",
        F::KIND,
        api.name(),
        N / BLOCK,
        api.name(),
        calls / median(&pass_ns) * 1e3,
    ));
    let out_fnv = fnv(outs.iter().flatten().map(|&y| F::bits(y)));
    let in_fnv = fnv(inputs.iter().flatten().map(|&x| F::bits(x)));
    rep.line(format!(
        "checksums inputs {in_fnv:016x} outputs {out_fnv:016x}"
    ));

    let outside = F::NAMES
        .iter()
        .zip(&inputs)
        .map(|(name, xs)| xs.iter().filter(|&&x| !F::in_domain(name, x)).count())
        .sum::<usize>();
    rep.layer("input.outside_domain_share", outside as f64 / calls);
    if opts.traced {
        for (name, xs) in F::NAMES.iter().zip(&inputs) {
            let dd = F::dd(name);
            for _ in 1..PROBE_REPS {
                sp.time(format!("libm.dd.{name}"), || {
                    for &x in xs {
                        black_box(dd(black_box(x)));
                    }
                });
            }
        }
        // API spans cover one block, dd spans all inputs.
        for name in F::NAMES {
            for (api, calls) in [(api.name(), BLOCK), ("dd", N)] {
                let key = format!("libm.{api}.{name}");
                rep.layer(
                    format!("libm.{api}.ns.{name}"),
                    median(&sp.durations(&key)) / calls as f64,
                );
            }
        }
        let [p, f, d] = [c1[0] - c0[0], c1[1] - c0[1], c1[2] - c0[2]];
        let tiers = (p + f + d).max(1) as f64;
        rep.layer("libm.tier.prefix_share", p as f64 / tiers);
        rep.layer("libm.tier.full_share", f as f64 / tiers);
        rep.layer("libm.tier.dd_share", d as f64 / tiers);
        if api == Api::Slice {
            rep.layer(
                "libm.slice.rescalar_share",
                (c1[3] - c0[3]) as f64 / (calls * passes as f64),
            );
        }
        F::probe(&inputs, &mut sp, &mut rep);
        rep.layer("trace.unattributed_share", sp.unattributed_share("pass"));
    }
    rep.spans = Some(sp);
    rep
}
