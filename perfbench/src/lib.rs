//! The rlibm workspace benchmark: six workloads, each measured end to
//! end in the shipping build and layer by layer in a traced build.
//!
//! `BENCHMARK.json` at the repository root indexes the workloads and
//! metrics; `perfbench/README.md` states what each metric measures and
//! which end-to-end metric each per-layer metric should move.

pub mod fingerprint;
pub mod gate;
pub mod inputs;
pub mod library;
pub mod offline;
pub mod serve;
pub mod spans;

use std::collections::BTreeMap;
use std::time::Instant;

pub use gate::Tally;
pub use spans::Spans;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &[
    "f32_mixed_scalar",
    "f32_mixed_slice",
    "posit32_domain_scalar",
    "posit32_domain_slice",
    "serve_window",
    "offline_gen_cert",
];

/// End-to-end metrics every workload reports in the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_ms", "ms"),
    ("unit_p50_us", "us"),
    ("unit_p99_us", "us"),
];

/// The ten f32 functions, in the paper's Table 1 order. The eight
/// posit32 functions are the first eight.
pub const F32_FNS: [&str; 10] = [
    "ln", "log2", "log10", "exp", "exp2", "exp10", "sinh", "cosh", "sinpi", "cospi",
];

/// Per-layer metrics every workload reports in the traced run. A layer
/// a workload does not exercise reports 0 (no work done there).
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for api in ["scalar", "slice", "dd"] {
        for f in F32_FNS {
            v.push((format!("libm.{api}.ns.{f}"), "ns"));
        }
    }
    let fixed: &[(&str, &str)] = &[
        ("libm.tier.prefix_share", "share"),
        ("libm.tier.full_share", "share"),
        ("libm.tier.dd_share", "share"),
        ("libm.slice.rescalar_share", "share"),
        ("input.outside_domain_share", "share"),
        ("posit.decode_ns", "ns"),
        ("posit.encode_ns", "ns"),
        ("serve.queue_us", "us"),
        ("serve.batch_us", "us"),
        ("serve.kernel_ns_per_lane", "ns"),
        ("serve.kernel_busy_share", "share"),
        ("serve.lanes_per_batch", "count"),
        ("serve.fallback_share", "share"),
        ("serve.drain_us", "us"),
        ("serve.p999_us", "us"),
        ("serve.p999_samples", "count"),
        ("mp.oracle_us_per_input", "us"),
        ("core.reduce_ms", "ms"),
        ("core.polygen_ms", "ms"),
        ("lp.calls", "count"),
        ("core.cegis_rounds", "count"),
        ("core.final_sample", "count"),
        ("cert.fast_ns_per_input", "ns"),
        ("cert.dd_ns_per_input", "ns"),
        ("cert.parallel_efficiency", "share"),
        ("ref.host_libm_ns", "ns"),
        ("trace.overhead_share", "share"),
        ("trace.unattributed_share", "share"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Run options from the command line.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Workload whose set-up [`timed_loop`] repeats between passes to
    /// measure `setup_s`; `None` measures no set-up.
    pub setup: Option<&'static str>,
}

impl Opts {
    /// Worker threads the benchmark may keep busy at once.
    pub fn threads() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

/// What one workload run measured. `e2e` holds the end-to-end metrics,
/// `layer` the per-layer ones; `lines` are human-readable report lines.
#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<String, f64>,
    pub layer: BTreeMap<String, f64>,
    pub tally: Tally,
    pub lines: Vec<String>,
    pub spans: Option<Spans>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, v: f64) {
        self.e2e.insert(name.to_string(), v);
    }

    pub fn layer(&mut self, name: impl Into<String>, v: f64) {
        self.layer.insert(name.into(), v);
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Records what the timed loop measured besides its passes: the
    /// set-ups' median as `setup_s` (raw), their checks, and the
    /// calibration. Returns the number of passes.
    pub fn timed(&mut self, lp: &Loop) -> usize {
        if !lp.setup_s.is_empty() {
            self.e2e("setup_s", median(&lp.setup_s));
        }
        self.tally.merge(lp.setup_tally);
        self.layer("ref.host_libm_ns", lp.host_libm_ns());
        lp.passes
    }

    /// Records end-to-end times of the timed loop's work scaled by
    /// [`Loop::scale`], and prints them raw on a report line.
    pub fn e2e_scaled(&mut self, lp: &Loop, times: &[(&str, f64)]) {
        let raw: Vec<String> = times.iter().map(|(n, v)| format!("{n} {v}")).collect();
        self.line(format!(
            "raw {}; host libm {:.3} ns per call, times scaled by {:.4} to \
             {REFERENCE_HOST_LIBM_NS} ns per call",
            raw.join(", "),
            lp.host_libm_ns(),
            lp.scale()
        ));
        for &(n, v) in times {
            self.e2e(n, v * lp.scale());
        }
    }
}

/// Runs one workload.
pub fn run(workload: &str, opts: &Opts) -> Result<Report, String> {
    use library::{Api, F32, P32};
    match workload {
        "f32_mixed_scalar" => Ok(library::run::<F32>(opts, Api::Scalar)),
        "f32_mixed_slice" => Ok(library::run::<F32>(opts, Api::Slice)),
        "posit32_domain_scalar" => Ok(library::run::<P32>(opts, Api::Scalar)),
        "posit32_domain_slice" => Ok(library::run::<P32>(opts, Api::Slice)),
        "serve_window" => serve::run(opts),
        "offline_gen_cert" => Ok(offline::run(opts)),
        _ => Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Runs a workload's set-up up to its first correctly rounded result,
/// checked. Returns whether that first result was correct.
pub fn setup(workload: &str, seed: u64) -> Result<bool, String> {
    use library::{Api, F32, P32};
    match workload {
        "f32_mixed_scalar" => Ok(library::setup::<F32>(seed, Api::Scalar).1),
        "f32_mixed_slice" => Ok(library::setup::<F32>(seed, Api::Slice).1),
        "posit32_domain_scalar" => Ok(library::setup::<P32>(seed, Api::Scalar).1),
        "posit32_domain_slice" => Ok(library::setup::<P32>(seed, Api::Slice).1),
        "serve_window" => serve::setup(seed),
        "offline_gen_cert" => Ok(offline::setup(seed).1),
        _ => Err(format!("unknown workload {workload:?}")),
    }
}

/// Set-ups timed per run for `setup_s`.
pub const SETUP_REPS: usize = 31;

/// Times one set-up of `workload` on a fresh thread (so the oracle's
/// thread-local caches start cold) while the calling thread waits.
/// Returns the seconds it took and whether its first result was correct.
pub fn time_setup(workload: &str, seed: u64) -> (f64, bool) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let t0 = Instant::now();
            let ok = setup(workload, seed);
            (t0.elapsed().as_secs_f64(), ok == Ok(true))
        })
        .join()
        .unwrap_or((0.0, false))
    })
}

/// Calls per function in the calibration block: the host's own libm
/// (`std` f32 functions) on fixed `f32_mixed`-style inputs.
const CAL_PER_FN: usize = 4096;
/// The calibration block's cost per call on the host the bounds were
/// set on; [`Loop::scale`] scales to it.
pub const REFERENCE_HOST_LIBM_NS: f64 = 16.0;

/// The host's libm, as ten function pointers in `F32_FNS` order.
const HOST_LIBM: [fn(f32) -> f32; 10] = [
    f32::ln,
    f32::log2,
    f32::log10,
    f32::exp,
    f32::exp2,
    |x| 10f32.powf(x),
    f32::sinh,
    f32::cosh,
    |x| (std::f32::consts::PI * x).sin(),
    |x| (std::f32::consts::PI * x).cos(),
];

/// The calibration block: [`CAL_PER_FN`] calls of each host libm
/// function, code that no change to this repository touches.
pub struct CalBlock {
    xs: Vec<Vec<f32>>,
}

impl CalBlock {
    /// Calls in one block.
    pub const CALLS: usize = HOST_LIBM.len() * CAL_PER_FN;

    pub fn new() -> Self {
        let xs = F32_FNS
            .iter()
            .enumerate()
            .map(|(i, name)| inputs::f32_inputs(0, i, name, CAL_PER_FN))
            .collect();
        CalBlock { xs }
    }

    /// Runs the block once; returns its nanoseconds.
    pub fn run(&self) -> f64 {
        use std::hint::black_box;
        let t0 = Instant::now();
        for (f, xs) in HOST_LIBM.iter().zip(&self.xs) {
            for &x in xs {
                black_box(f(black_box(x)));
            }
        }
        ns_since(t0)
    }
}

impl Default for CalBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// What a timed loop measured.
pub struct Loop {
    pub passes: usize,
    /// Nanoseconds of the calibration block run after each pass.
    pub cal_ns: Vec<f64>,
    /// Seconds of each set-up run between passes.
    pub setup_s: Vec<f64>,
    pub setup_tally: Tally,
}

impl Loop {
    /// `ref.host_libm_ns`: median cost per call of the calibration block.
    pub fn host_libm_ns(&self) -> f64 {
        median(&self.cal_ns) / CalBlock::CALLS as f64
    }

    /// Factor that scales a time measured in this run to the reference
    /// host speed. The calibration block runs no code of this
    /// repository, and it runs after every pass, so it sees the same
    /// spells of host speed as the passes. On the shared two-core VM the
    /// bounds were set on, host speed moved the raw f32 and serve times
    /// of runs a few minutes apart by up to 25%, and scaled by 3–7%.
    /// Every workload scales its pass times by it; `perfbench/README.md`
    /// gives the runs.
    pub fn scale(&self) -> f64 {
        REFERENCE_HOST_LIBM_NS / self.host_libm_ns()
    }
}

/// Calls `pass` until `seconds` have passed and at least `min` passes
/// ran, timing one calibration block after each pass. When `opts.setup`
/// names a workload, its set-up also runs [`SETUP_REPS`] times, spread
/// between the passes over the whole loop: the host's speed changes over
/// fractions of a second, so set-ups run back to back would all see one
/// spell of it, while their median over the run, like the passes', sees
/// them all.
pub fn timed_loop(opts: &Opts, seconds: f64, min: usize, mut pass: impl FnMut(usize)) -> Loop {
    let cal = CalBlock::new();
    let start = Instant::now();
    let mut lp = Loop {
        passes: 0,
        cal_ns: Vec::new(),
        setup_s: Vec::new(),
        setup_tally: Tally::default(),
    };
    let set_up_until = |lp: &mut Loop, due: usize| {
        let Some(w) = opts.setup else { return };
        while lp.setup_s.len() < due {
            let (secs, ok) = time_setup(w, opts.seed);
            lp.setup_s.push(secs);
            lp.setup_tally.check(ok);
        }
    };
    while lp.passes < min || start.elapsed().as_secs_f64() < seconds {
        pass(lp.passes);
        lp.passes += 1;
        lp.cal_ns.push(cal.run());
        let share = (start.elapsed().as_secs_f64() / seconds).min(1.0);
        set_up_until(&mut lp, (share * SETUP_REPS as f64) as usize);
    }
    set_up_until(&mut lp, SETUP_REPS);
    lp
}

/// Median of `xs` (NaN-free); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by nearest rank on the sorted values; 0 for
/// an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// splitmix64 finalizer: derives independent streams from one seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nanoseconds elapsed since `t0`, as f64.
pub fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn layer_metric_names_are_unique() {
        let m = layer_metrics();
        let set: std::collections::BTreeSet<_> = m.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(set.len(), m.len());
    }
}
