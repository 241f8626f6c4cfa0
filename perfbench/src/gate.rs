//! The correctness gate: every check runs outside the timed region and
//! adds to one tally of attempted and failed operations. A failure is an
//! output that is not bit-identical to its reference, a shed request, a
//! failed generation or a certify mismatch.

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one operation.
    pub fn check(&mut self, ok: bool) {
        self.add(1, u64::from(!ok));
    }

    /// Compares two output vectors element by element.
    pub fn compare(&mut self, got: &[u32], want: &[u32]) {
        assert_eq!(got.len(), want.len(), "gate compares equal-length outputs");
        let failed = got.iter().zip(want).filter(|(g, w)| g != w).count() as u64;
        self.add(got.len() as u64, failed);
    }

    pub fn merge(&mut self, o: Tally) {
        self.add(o.attempted, o.failed);
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Output bits of an f32 result with every NaN as the quiet NaN, the
/// canonicalization `certify` uses (NaN payloads are a don't-care).
#[inline]
pub fn f32_bits(y: f32) -> u32 {
    if y.is_nan() {
        0x7FC0_0000
    } else {
        y.to_bits()
    }
}

/// FNV-1a over output bits: one checksum per output vector, so runs can
/// be compared without storing their outputs.
pub fn fnv(bits: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_wrong_output_counts_once() {
        let want: Vec<u32> = (0..1000).collect();
        let mut got = want.clone();
        got[417] ^= 1;
        let mut t = Tally::default();
        t.compare(&got, &want);
        assert_eq!(
            t,
            Tally {
                attempted: 1000,
                failed: 1
            }
        );
        assert_eq!(t.failed_share(), 0.001);
    }

    #[test]
    fn nan_payloads_compare_equal() {
        assert_eq!(f32_bits(f32::from_bits(0x7FC0_0001)), f32_bits(f32::NAN));
        assert_ne!(f32_bits(1.0), f32_bits(-1.0));
    }
}
