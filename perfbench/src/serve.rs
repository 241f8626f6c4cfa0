//! The `serve_window` workload: `serve_closed_loop` with one producer
//! and one shard. The 256-slot ring caps the requests in flight, so the
//! producer behaves like 256 callers that each wait for their reply (a
//! closed loop), not like an unbounded fire-hose. A quarter of the
//! traffic is posit32.
//!
//! Both threads run on one CPU (see [`pin_to_one_cpu`]), so this
//! workload measures a single-core, time-sliced regime, not the
//! cross-core handoff of a server with a core per thread: the producer
//! fills the ring, spins 32 times and yields; the shard drains it in
//! batches and yields when it is empty. The two take turns through the
//! scheduler, and latency includes the time a request waits while the
//! other thread holds the CPU. In this regime `serve.kernel_busy_share`
//! (kernel time over run time) is the shard's share of the one CPU; the
//! rest went to the producer, batching, and the handoffs between them.

use crate::gate::fnv;
use crate::inputs::{f32_in_domain, posit_in_domain};
use crate::{median, mix, ns_since, quantile, timed_loop, Opts, Report, Spans};
use rlibm_posit::Posit32;
use rlibm_serve::{serve_closed_loop, workload, ServeConfig, ServeReport, StageAttribution};
use std::time::Instant;

/// Requests per closed-loop run (one pass).
pub const REQUESTS: u64 = 1 << 17;
const RING: usize = 256;
const POSIT_PERMILLE: u32 = 250;
const MIN_PASSES: usize = 3;

/// One producer plus one shard: two threads, within `nproc` on any host
/// with two cores, and pinned to one of them by the caller. A producer
/// facing a full ring waits instead of shedding, as a caller of a closed
/// loop does.
pub fn config(seed: u64, requests: u64) -> ServeConfig {
    ServeConfig {
        shards: 1,
        producers: 1,
        requests,
        queue_capacity: RING,
        seed,
        posit_permille: POSIT_PERMILLE,
        push_budget: u32::MAX,
        ..ServeConfig::default()
    }
}

/// Pins the calling thread, and so the producer and shard threads it
/// spawns, to the CPU it runs on. On the shared two-core VM the
/// benchmark was tuned on, the closed loop across two cores ran 17 ms
/// per pass in some minutes and 28 ms in others (cross-core handoff
/// cost moved with the host's placement of the two vCPUs), while
/// single-core speed held steady; on one core the loop measures the
/// serving stack's CPU cost per request, handoffs included. Returns
/// false where pinning is not available, and the loop then runs
/// unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's CPU number.
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else {
        return false;
    };
    // A `cpu_set_t` is 1024 bits.
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, correctly sized `cpu_set_t` for the call,
    // which only reads it; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> bool {
    false
}

/// Failed operations of one run: responses that differ from the scalar
/// functions, sheds, and requests that never came back.
pub fn failures(r: &ServeReport, requests: u64) -> u64 {
    let missing = requests.saturating_sub(r.completions.len() as u64 + r.sheds.len() as u64);
    let unbalanced = u64::from(!r.balanced());
    workload::count_mismatches(&r.completions) + r.sheds.len() as u64 + missing + unbalanced
}

/// A one-request closed loop: the time to a service's first result.
pub fn setup(seed: u64) -> Result<bool, String> {
    pin_to_one_cpu();
    let r = serve_closed_loop(&config(mix(seed, 0x400), 1)).map_err(|e| e.to_string())?;
    Ok(r.completions.len() == 1 && failures(&r, 1) == 0)
}

fn tier_counters() -> [u64; 4] {
    use rlibm_math::stats;
    let mut c = [0u64; 4];
    for s in 0..stats::slot::COUNT {
        c[0] += stats::tier_prefix(s);
        c[1] += stats::tier_full(s);
        c[2] += stats::tier_dd(s);
    }
    c[3] = rlibm_obs::snapshot()
        .counter("runtime.slice.f32.rescalar_lanes")
        .unwrap_or(0);
    c
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut sp = Spans::new(opts.traced);
    rlibm_math::stats::register_all();
    rep.tally.check(setup(opts.seed)?);
    let pinned = pin_to_one_cpu();

    let mut pass_ns = Vec::new();
    let (mut p50, mut p99, mut p999) = (Vec::new(), Vec::new(), Vec::new());
    let mut drain_ns = Vec::new();
    let mut attr = StageAttribution::default();
    let mut elapsed_ns = 0u64;
    let mut tiers = [0u64; 4];
    let mut f32_lanes = 0u64;
    let mut outside = None;
    let mut sums = None;
    let mut err = None;
    let budget = if opts.traced {
        opts.seconds * 0.9
    } else {
        opts.seconds
    };
    let lp = timed_loop(opts, budget, MIN_PASSES, |k| {
        let cfg = config(mix(opts.seed, 0x500 + k as u64), REQUESTS);
        let pass = sp.open("pass");
        let c0 = tier_counters();
        let t0 = Instant::now();
        let res = sp.time("serve.closed_loop", || serve_closed_loop(&cfg));
        pass_ns.push(ns_since(t0));
        let c1 = tier_counters();
        sp.close(pass);
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                rep.tally.add(REQUESTS, REQUESTS);
                err = Some(e.to_string());
                return;
            }
        };
        for (t, (a, b)) in tiers.iter_mut().zip(c0.iter().zip(&c1)) {
            *t += b - a;
        }
        sp.time("gate", || rep.tally.add(REQUESTS, failures(&r, REQUESTS)));
        let lat: Vec<f64> = r.completions.iter().map(|c| c.latency_ns as f64).collect();
        p50.push(quantile(&lat, 0.5));
        p99.push(quantile(&lat, 0.99));
        p999.push(quantile(&lat, 0.999));
        drain_ns.push(r.drain_ns as f64);
        elapsed_ns += r.elapsed_ns;
        for a in &r.attribution {
            attr.merge(a);
        }
        f32_lanes += r
            .completions
            .iter()
            .filter(|c| !workload::is_posit(c.func))
            .count() as u64;
        sums.get_or_insert_with(|| {
            let mut c: Vec<_> = r
                .completions
                .iter()
                .map(|c| (c.tag, c.func, c.x_bits, c.y_bits))
                .collect();
            c.sort_unstable();
            let x = fnv(c.iter().flat_map(|&(_, f, x, _)| [u32::from(f), x]));
            (x, fnv(c.iter().map(|c| c.3)))
        });
        outside.get_or_insert_with(|| {
            let out = r
                .completions
                .iter()
                .filter(|c| {
                    let name = workload::func_name(c.func);
                    if workload::is_posit(c.func) {
                        !posit_in_domain(name, Posit32::from_bits(c.x_bits))
                    } else {
                        !f32_in_domain(name, f32::from_bits(c.x_bits))
                    }
                })
                .count();
            out as f64 / r.completions.len().max(1) as f64
        });
    });
    let passes = rep.timed(&lp);
    if let Some(e) = err {
        rep.line(format!("serve error: {e}"));
    }

    rep.e2e_scaled(
        &lp,
        &[
            ("pass_ms", median(&pass_ns) / 1e6),
            ("unit_p50_us", median(&p50) / 1e3),
            ("unit_p99_us", median(&p99) / 1e3),
        ],
    );
    rep.line(format!(
        "serve: {passes} closed-loop runs of {REQUESTS} requests (1 producer, 1 shard, ring {RING}, \
         {POSIT_PERMILLE} permille posit32, {}); unit = one request, p50/p99 are medians over runs \
         of per-run percentiles of {REQUESTS} samples; serve_kreq_per_s {:.1}",
        if pinned { "time-sliced on one CPU" } else { "unpinned" },
        REQUESTS as f64 / median(&pass_ns) * 1e6,
    ));
    if let Some((x, y)) = sums {
        rep.line(format!(
            "checksums inputs {x:016x} outputs {y:016x} (first run)"
        ));
    }
    rep.layer("input.outside_domain_share", outside.unwrap_or(0.0));
    if opts.traced {
        let div = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let [p, f, d, rescalar] = tiers;
        rep.layer("libm.tier.prefix_share", div(p, p + f + d));
        rep.layer("libm.tier.full_share", div(f, p + f + d));
        rep.layer("libm.tier.dd_share", div(d, p + f + d));
        rep.layer("libm.slice.rescalar_share", div(rescalar, f32_lanes));
        rep.layer("serve.queue_us", div(attr.queue_ns, attr.samples) / 1e3);
        rep.layer("serve.batch_us", div(attr.batch_ns, attr.samples) / 1e3);
        rep.layer(
            "serve.kernel_ns_per_lane",
            div(attr.kernel_ns, attr.kernel_lanes),
        );
        rep.layer("serve.kernel_busy_share", div(attr.kernel_ns, elapsed_ns));
        rep.layer(
            "serve.lanes_per_batch",
            div(attr.kernel_lanes, attr.batches),
        );
        rep.layer(
            "serve.fallback_share",
            div(attr.fallback_ns, attr.kernel_ns),
        );
        rep.layer("serve.drain_us", median(&drain_ns) / 1e3);
        rep.layer("serve.p999_us", median(&p999) / 1e3);
        rep.layer("serve.p999_samples", REQUESTS as f64);
        rep.layer("trace.unattributed_share", sp.unattributed_share("pass"));
    }
    rep.spans = Some(sp);
    Ok(rep)
}
