//! Seeded inputs. Every stream is a function of the run's `--seed` and a
//! fixed stream index alone, so one seed always yields the same bits.

use crate::mix;
use rlibm_fp::rng::{draw_biased_f32, f32_kernel_domain, XorShift64};
use rlibm_posit::Posit32;

/// Stream index of function `i` in the f32 and posit32 workloads.
const F32_STREAM: u64 = 0x100;
const POSIT_STREAM: u64 = 0x200;

/// `n` f32 inputs for the named function with the traffic mix
/// `rlibm-serve` synthesizes: three in four in the kernel domain, one in
/// four a raw bit pattern (NaN, inf, subnormal, saturating).
pub fn f32_inputs(seed: u64, fn_index: usize, name: &str, n: usize) -> Vec<f32> {
    let mut rng = XorShift64::new(mix(seed, F32_STREAM + fn_index as u64));
    (0..n).map(|_| draw_biased_f32(&mut rng, name)).collect()
}

/// The posit32 kernel domain of the named function as an `f64` range
/// (the log family: every positive real). Inputs here are the Fig. 4
/// timing domain: log-uniform positives for the logs, uniform over the
/// non-saturating range for the rest.
fn posit_domain(name: &str) -> (f64, f64) {
    match name {
        "exp" | "sinh" | "cosh" => (-82.0, 82.0),
        "exp2" => (-118.0, 118.0),
        "exp10" => (-35.0, 35.0),
        _ => (0.0, 0.0),
    }
}

/// `n` posit32 kernel-domain inputs for the named function.
pub fn posit_inputs(seed: u64, fn_index: usize, name: &str, n: usize) -> Vec<Posit32> {
    let mut rng = XorShift64::new(mix(seed, POSIT_STREAM + fn_index as u64));
    let (lo, hi) = posit_domain(name);
    (0..n)
        .map(|_| {
            let v = if lo == hi {
                rng.uniform_f64(1.0, 2.0) * rng.uniform_f64(-118.0, 118.0).exp2()
            } else {
                rng.uniform_f64(lo, hi)
            };
            Posit32::from_f64(v)
        })
        .collect()
}

/// True when `x` lies in the f32 kernel domain of the named function
/// (the log family: finite positive normals).
pub fn f32_in_domain(name: &str, x: f32) -> bool {
    let (lo, hi) = f32_kernel_domain(name);
    if lo == hi {
        x.is_normal() && x > 0.0
    } else {
        (lo..hi).contains(&x)
    }
}

/// True when the posit `x` lies in the named function's kernel domain.
pub fn posit_in_domain(name: &str, x: Posit32) -> bool {
    let v = x.to_f64();
    let (lo, hi) = posit_domain(name);
    if lo == hi {
        v.is_finite() && v > 0.0
    } else {
        (lo..hi).contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bits_other_seed_other_bits() {
        let a: Vec<u32> = f32_inputs(7, 3, "exp", 4096)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let b: Vec<u32> = f32_inputs(7, 3, "exp", 4096)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let c: Vec<u32> = f32_inputs(8, 3, "exp", 4096)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(a, b);
        assert!(a.iter().zip(&c).filter(|(x, y)| x == y).count() < 8);
        let p = posit_inputs(7, 0, "ln", 64);
        let q = posit_inputs(8, 0, "ln", 64);
        assert!(p.iter().zip(&q).any(|(x, y)| x != y));
    }

    #[test]
    fn quarter_of_f32_traffic_is_raw_bits() {
        let xs = f32_inputs(1, 3, "exp", 1 << 16);
        let out = xs.iter().filter(|&&x| !f32_in_domain("exp", x)).count() as f64 / xs.len() as f64;
        // A raw pattern lands in (-87, 88) about half the time.
        assert!((0.08..0.18).contains(&out), "outside-domain share {out}");
        let ps = posit_inputs(1, 3, "exp", 4096);
        assert!(ps.iter().all(|&p| posit_in_domain("exp", p)));
    }
}
