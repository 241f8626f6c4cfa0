//! Lookup tables and double-double constants for the correctly rounded
//! kernels — **generated at build time** by `crates/libm/build.rs` from
//! the 160-bit oracle (`rlibm_mp::tables_src`) and pinned by the
//! committed checksum `crates/libm/tables.fnv`.
//!
//! The tables are stored **bit-packed** at a 15-byte stride (see
//! [`crate::tables_codec`] for the exact layout): each hi/lo pair keeps
//! all 52 mantissa bits but compresses the sign and exponent into a
//! 4-bit code against a per-column base, which the accessors expand
//! with two unaligned u64 loads and fixed shifts. `COSPI_T` is not
//! stored at all — `cos(pi n/512) == sin(pi (256-n)/512)` bit-for-bit,
//! so [`cospi_t`] mirror-indexes the sinpi table. Together that is
//! [`TABLE_BYTES_PACKED`] bytes in place of the former
//! [`TABLE_BYTES_UNPACKED`] (a 31% reduction), which matters because
//! every serving shard hammers these tables through the slice kernels:
//! smaller tables, fewer L1/L2 misses under concurrent traffic.
//!
//! Unpacking is exact — `tests/table_packing.rs` round-trips every
//! entry against the pre-packing committed bits — so kernel outputs are
//! bit-identical to the unpacked era. The AVX2 lanes of the fast-path
//! kernels (`crate::lane`) gather the same layout with vector loads at
//! byte offsets `15n` / `15n + 7`.
//!
//! Regenerate the pin (after an intentional oracle/packing change) with
//! `RLIBM_WRITE_TABLE_FNV=1 cargo build -p rlibm-math`, then re-certify.

use crate::tables_codec as codec;

include!(concat!(env!("OUT_DIR"), "/packed_tables.rs"));

/// A packed table as the lane kernels ([`crate::fast`]) index it.
#[derive(Clone, Copy)]
pub(crate) struct Table {
    pub bytes: &'static [u8],
    pub hi_base: u64,
    pub lo_base: u64,
    /// Read entry `256 - n` for index `n`: the cospi view of the sinpi
    /// table.
    pub mirror: bool,
}

impl Table {
    /// Entry position of (possibly mirrored) index `i`.
    #[inline(always)]
    pub(crate) fn index(&self, i: i64) -> usize {
        (if self.mirror { 256 - i } else { i }) as usize
    }
}

const fn table(bytes: &'static [u8], hi_base: u64, lo_base: u64, mirror: bool) -> Table {
    Table { bytes, hi_base, lo_base, mirror }
}

pub(crate) const EXP2_64: Table = table(&EXP2_64_P, EXP2_64_HI_BASE, EXP2_64_LO_BASE, false);
pub(crate) const LN_F: Table = table(&LN_F_P, LN_F_HI_BASE, LN_F_LO_BASE, false);
pub(crate) const LOG2_F: Table = table(&LOG2_F_P, LOG2_F_HI_BASE, LOG2_F_LO_BASE, false);
pub(crate) const LOG10_F: Table = table(&LOG10_F_P, LOG10_F_HI_BASE, LOG10_F_LO_BASE, false);
pub(crate) const SINPI_T: Table = table(&SINPI_T_P, SINPI_T_HI_BASE, SINPI_T_LO_BASE, false);
pub(crate) const COSPI_T: Table = table(&SINPI_T_P, SINPI_T_HI_BASE, SINPI_T_LO_BASE, true);

/// `2^(j/64)` for `j in 0..64`, as a hi/lo double-double pair.
#[inline(always)]
pub fn exp2_64(j: usize) -> (f64, f64) {
    codec::unpack_entry(&EXP2_64_P, j, EXP2_64_HI_BASE, EXP2_64_LO_BASE)
}

/// `ln(1 + j/128)` for `j in 0..=128` (`j == 0` is exactly zero).
#[inline(always)]
pub fn ln_f(j: usize) -> (f64, f64) {
    codec::unpack_entry(&LN_F_P, j, LN_F_HI_BASE, LN_F_LO_BASE)
}

/// `log2(1 + j/128)` for `j in 0..=128`.
#[inline(always)]
pub fn log2_f(j: usize) -> (f64, f64) {
    codec::unpack_entry(&LOG2_F_P, j, LOG2_F_HI_BASE, LOG2_F_LO_BASE)
}

/// `log10(1 + j/128)` for `j in 0..=128`.
#[inline(always)]
pub fn log10_f(j: usize) -> (f64, f64) {
    codec::unpack_entry(&LOG10_F_P, j, LOG10_F_HI_BASE, LOG10_F_LO_BASE)
}

/// `sin(pi n/512)` for `n in 0..=256`.
#[inline(always)]
pub fn sinpi_t(n: usize) -> (f64, f64) {
    codec::unpack_entry(&SINPI_T_P, n, SINPI_T_HI_BASE, SINPI_T_LO_BASE)
}

/// `cos(pi n/512)` for `n in 0..=256` — the bit-exact mirror
/// `sinpi_t(256 - n)`, verified at build time.
#[inline(always)]
pub fn cospi_t(n: usize) -> (f64, f64) {
    sinpi_t(256 - n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_entries_unpack_exactly() {
        assert_eq!(exp2_64(0), (1.0, 0.0));
        assert_eq!(ln_f(0), (0.0, 0.0));
        assert_eq!(ln_f(128).0, core::f64::consts::LN_2);
        assert_eq!(log2_f(128), (1.0, 0.0));
        assert_eq!(sinpi_t(0), (0.0, 0.0));
        assert_eq!(sinpi_t(256), (1.0, 0.0));
        assert_eq!(cospi_t(0), (1.0, 0.0));
        assert_eq!(cospi_t(256), (0.0, 0.0));
    }

    #[test]
    fn lo_parts_keep_their_signs() {
        // The packed lo column carries a real sign bit; at least one
        // entry per table is negative in the committed data.
        for table in [ln_f as fn(usize) -> (f64, f64), log2_f, log10_f, sinpi_t] {
            assert!(
                (0..=128).any(|j| table(j).1 < 0.0),
                "no negative lo part survived unpacking"
            );
        }
    }

    /// The kernels' table descriptors read the same entries as the pair
    /// accessors (the cospi view through the mirror), and the prefix
    /// tier's hi-only read matches the pair's hi word.
    #[test]
    fn descriptors_match_pair_accessors() {
        use crate::lane::Lane;
        type Pair = fn(usize) -> (f64, f64);
        let tables: [(Table, Pair, usize); 6] = [
            (EXP2_64, exp2_64, 63),
            (LN_F, ln_f, 128),
            (LOG2_F, log2_f, 128),
            (LOG10_F, log10_f, 128),
            (SINPI_T, sinpi_t, 256),
            (COSPI_T, cospi_t, 256),
        ];
        for (table, pair, last) in tables {
            for i in 0..=last {
                let (hi, lo) = pair(i);
                let (ghi, glo) = f64::gather_pair(&table, i as i64);
                assert_eq!((ghi.to_bits(), glo.to_bits()), (hi.to_bits(), lo.to_bits()));
                assert_eq!(f64::gather_hi(&table, i as i64).to_bits(), hi.to_bits());
            }
        }
    }

    #[test]
    fn packed_sizes_add_up() {
        assert_eq!(
            TABLE_BYTES_PACKED,
            EXP2_64_P.len() + LN_F_P.len() + LOG2_F_P.len() + LOG10_F_P.len() + SINPI_T_P.len()
        );
        // The acceptance gate: >= 30% fewer table bytes than the
        // unpacked [(f64, f64)] representation.
        const { assert!(TABLE_BYTES_PACKED * 10 <= TABLE_BYTES_UNPACKED * 7) }
    }
}
