//! The lane-word abstraction of the bit-sliced batch layer.
//!
//! A [`Word`] is the machine word a [`BitSlab`](crate::batch::BitSlab)
//! stores one bit position in: bit `l` of the word is lane `l`'s bit, so
//! the word width **is** the lane capacity of a slab chunk. Three words
//! are provided:
//!
//! * [`u64`] — the original 64-lane word, one native operation per gate;
//! * [`W256`] — four `u64` limbs operated element-wise, 256 lanes per
//!   word. The limb operations are written as fixed-size array maps so the
//!   compiler vectorizes them into SIMD on stable Rust (no `std::simd`,
//!   no nightly, no unsafe) — one 256-bit gate evaluation per vector
//!   operation where the target has the registers for it;
//! * [`W512`] — the eight-limb scaling probe past the AVX2 register
//!   width; see its docs for why it is measured rather than assumed to
//!   win.
//!
//! The trait is **sealed**: the slab layout, the lane-mask invariant and
//! the kernels' masking contract are verified for exactly these
//! implementations (the `word_equivalence` property suite pins the slabs
//! against each other lane-for-lane), and a foreign implementation could
//! silently break them.
//!
//! [`DefaultWord`] is the workspace-wide default slab word — [`W256`]
//! unless the build sets `--cfg vlcsa_word64` (the CI matrix runs the
//! whole test suite both ways). Everything generic over `W: Word`
//! defaults to it, so callers that do not name a word get the wide slabs
//! with no call-site changes.

use std::ops::{BitAnd, BitOr, BitXor, Not};

mod sealed {
    pub trait Sealed {}
    impl Sealed for u64 {}
    impl Sealed for super::W256 {}
    impl Sealed for super::W512 {}
}

/// A bit-sliced lane word: `LANES` independent lanes, one per bit, with
/// the bitwise operations the batch kernels are made of and per-`u64`-limb
/// access for transpose/extract.
///
/// Implementations guarantee that the bitwise operators act independently
/// per bit (so a masked word stays masked under `&`, `|`, `^` with masked
/// operands) and that `limb(i)` exposes lanes `64*i .. 64*i + 64`.
///
/// This trait is sealed; the only implementations are [`u64`] and
/// [`W256`].
pub trait Word:
    sealed::Sealed
    + Copy
    + Eq
    + std::hash::Hash
    + std::fmt::Debug
    + Send
    + Sync
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + 'static
{
    /// Number of lanes (bits) the word holds.
    const LANES: usize;

    /// Number of `u64` limbs (`LANES / 64`).
    const LIMBS: usize;

    /// The all-zero word.
    const ZERO: Self;

    /// The all-ones word.
    const ONES: Self;

    /// The mask with the low `lanes` bits set — the slab lane-mask
    /// invariant in word form ([`Word::ONES`] at `lanes == LANES`).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or exceeds [`Word::LANES`].
    fn lane_mask(lanes: usize) -> Self;

    /// Whether lane `lane`'s bit is set.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    fn bit(self, lane: usize) -> bool;

    /// Sets lane `lane`'s bit.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= LANES`.
    fn set_bit(&mut self, lane: usize);

    /// Number of set bits (lanes at 1) — the stall-count primitive.
    fn count_ones(self) -> u32;

    /// The `u64` limb holding lanes `64*i .. 64*i + 64`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LIMBS`.
    fn limb(self, i: usize) -> u64;

    /// Replaces the `u64` limb holding lanes `64*i .. 64*i + 64`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LIMBS`.
    fn set_limb(&mut self, i: usize, value: u64);

    /// A word with only limb 0 populated (lanes 0..64) — convenient for
    /// tests and small examples.
    fn from_low(limb: u64) -> Self {
        let mut w = Self::ZERO;
        w.set_limb(0, limb);
        w
    }

    /// Whether no lane is set.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }
}

impl Word for u64 {
    const LANES: usize = 64;
    const LIMBS: usize = 1;
    const ZERO: Self = 0;
    const ONES: Self = u64::MAX;

    fn lane_mask(lanes: usize) -> Self {
        assert!(
            (1..=Self::LANES).contains(&lanes),
            "lanes must be in 1..={}, got {lanes}",
            Self::LANES
        );
        if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        }
    }

    fn bit(self, lane: usize) -> bool {
        assert!(lane < Self::LANES, "lane {lane} out of range");
        (self >> lane) & 1 == 1
    }

    fn set_bit(&mut self, lane: usize) {
        assert!(lane < Self::LANES, "lane {lane} out of range");
        *self |= 1 << lane;
    }

    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }

    fn limb(self, i: usize) -> u64 {
        assert_eq!(i, 0, "u64 has a single limb");
        self
    }

    fn set_limb(&mut self, i: usize, value: u64) {
        assert_eq!(i, 0, "u64 has a single limb");
        *self = value;
    }
}

/// A 256-lane slab word: four `u64` limbs, limb `i` holding lanes
/// `64*i .. 64*i + 64`, operated element-wise so the compiler can map the
/// limb loops onto SIMD registers.
///
/// ```
/// use bitnum::batch::{Word, W256};
///
/// let mut w = W256::ZERO;
/// w.set_bit(3);
/// w.set_bit(200);
/// assert!(w.bit(200) && !w.bit(199));
/// assert_eq!(w.count_ones(), 2);
/// assert_eq!(w.limb(3), 1 << (200 - 192));
/// assert_eq!(W256::lane_mask(256), W256::ONES);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct W256(pub [u64; 4]);

impl std::fmt::Debug for W256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // High limb first, so the printed value reads as one 256-bit hex
        // number (lane 0 is the least significant digit).
        write!(
            f,
            "W256({:#018x}_{:016x}_{:016x}_{:016x})",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

impl BitAnd for W256 {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] & rhs.0[i]))
    }
}

impl BitOr for W256 {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] | rhs.0[i]))
    }
}

impl BitXor for W256 {
    type Output = Self;
    fn bitxor(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] ^ rhs.0[i]))
    }
}

impl Not for W256 {
    type Output = Self;
    fn not(self) -> Self {
        Self(std::array::from_fn(|i| !self.0[i]))
    }
}

impl Word for W256 {
    const LANES: usize = 256;
    const LIMBS: usize = 4;
    const ZERO: Self = Self([0; 4]);
    const ONES: Self = Self([u64::MAX; 4]);

    fn lane_mask(lanes: usize) -> Self {
        assert!(
            (1..=Self::LANES).contains(&lanes),
            "lanes must be in 1..={}, got {lanes}",
            Self::LANES
        );
        Self(std::array::from_fn(|i| {
            match lanes.saturating_sub(64 * i) {
                0 => 0,
                rem if rem >= 64 => u64::MAX,
                rem => (1u64 << rem) - 1,
            }
        }))
    }

    fn bit(self, lane: usize) -> bool {
        assert!(lane < Self::LANES, "lane {lane} out of range");
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }

    fn set_bit(&mut self, lane: usize) {
        assert!(lane < Self::LANES, "lane {lane} out of range");
        self.0[lane / 64] |= 1 << (lane % 64);
    }

    fn count_ones(self) -> u32 {
        self.0.iter().map(|limb| limb.count_ones()).sum()
    }

    fn limb(self, i: usize) -> u64 {
        self.0[i]
    }

    fn set_limb(&mut self, i: usize, value: u64) {
        self.0[i] = value;
    }
}

/// A 512-lane slab word: eight `u64` limbs, limb `i` holding lanes
/// `64*i .. 64*i + 64`, with the same element-wise limb maps as [`W256`].
///
/// This is the scaling probe past the AVX2 register width: on hosts whose
/// vector units stop at 256 bits the eight-limb maps compile to two
/// 256-bit operations per gate, so throughput per lane should be flat at
/// best versus [`W256`] while working-set pressure doubles — the
/// measurement behind the word-width row of `BENCH_batch.json` /
/// `EXPERIMENTS.md`. It is a full [`Word`]: every engine, slab and
/// executor is generic over the lane word, so `BitSlab<W512>` works
/// end to end, and the `word_equivalence` suite pins it lane-for-lane
/// against the other two words.
///
/// ```
/// use bitnum::batch::{Word, W512};
///
/// let mut w = W512::ZERO;
/// w.set_bit(3);
/// w.set_bit(500);
/// assert!(w.bit(500) && !w.bit(499));
/// assert_eq!(w.count_ones(), 2);
/// assert_eq!(w.limb(7), 1 << (500 - 448));
/// assert_eq!(W512::lane_mask(512), W512::ONES);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct W512(pub [u64; 8]);

impl std::fmt::Debug for W512 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // High limb first, as one 512-bit hex number, like `W256`.
        write!(f, "W512(0x")?;
        for (i, limb) in self.0.iter().rev().enumerate() {
            if i > 0 {
                write!(f, "_")?;
            }
            write!(f, "{limb:016x}")?;
        }
        write!(f, ")")
    }
}

impl BitAnd for W512 {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] & rhs.0[i]))
    }
}

impl BitOr for W512 {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] | rhs.0[i]))
    }
}

impl BitXor for W512 {
    type Output = Self;
    fn bitxor(self, rhs: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i] ^ rhs.0[i]))
    }
}

impl Not for W512 {
    type Output = Self;
    fn not(self) -> Self {
        Self(std::array::from_fn(|i| !self.0[i]))
    }
}

impl Word for W512 {
    const LANES: usize = 512;
    const LIMBS: usize = 8;
    const ZERO: Self = Self([0; 8]);
    const ONES: Self = Self([u64::MAX; 8]);

    fn lane_mask(lanes: usize) -> Self {
        assert!(
            (1..=Self::LANES).contains(&lanes),
            "lanes must be in 1..={}, got {lanes}",
            Self::LANES
        );
        Self(std::array::from_fn(|i| {
            match lanes.saturating_sub(64 * i) {
                0 => 0,
                rem if rem >= 64 => u64::MAX,
                rem => (1u64 << rem) - 1,
            }
        }))
    }

    fn bit(self, lane: usize) -> bool {
        assert!(lane < Self::LANES, "lane {lane} out of range");
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }

    fn set_bit(&mut self, lane: usize) {
        assert!(lane < Self::LANES, "lane {lane} out of range");
        self.0[lane / 64] |= 1 << (lane % 64);
    }

    fn count_ones(self) -> u32 {
        self.0.iter().map(|limb| limb.count_ones()).sum()
    }

    fn limb(self, i: usize) -> u64 {
        self.0[i]
    }

    fn set_limb(&mut self, i: usize, value: u64) {
        self.0[i] = value;
    }
}

/// The workspace-wide default slab word: [`W256`], or [`u64`] when the
/// build sets `--cfg vlcsa_word64` (the CI word-width matrix).
///
/// Every batch-layer type and function generic over `W: Word` uses this as
/// its default parameter, so the `Registry`, the executor, the serve
/// front-end and the benches all pick the wide word up with no call-site
/// changes.
#[cfg(not(vlcsa_word64))]
pub type DefaultWord = W256;

/// The workspace-wide default slab word (forced to `u64` by
/// `--cfg vlcsa_word64`).
#[cfg(vlcsa_word64)]
pub type DefaultWord = u64;

#[cfg(test)]
mod tests {
    use super::*;

    fn check_word_laws<W: Word>() {
        assert_eq!(W::LANES, W::LIMBS * 64);
        assert!(W::ZERO.is_zero());
        assert_eq!(W::ONES.count_ones() as usize, W::LANES);
        assert_eq!(W::lane_mask(W::LANES), W::ONES);
        for lanes in [1, 2, 63, 64.min(W::LANES), W::LANES] {
            let mask = W::lane_mask(lanes);
            assert_eq!(mask.count_ones() as usize, lanes, "lanes={lanes}");
            for l in 0..W::LANES {
                assert_eq!(mask.bit(l), l < lanes, "lanes={lanes} bit {l}");
            }
            // Masked stays masked under the kernel's operators.
            assert_eq!(mask & W::ONES, mask);
            assert_eq!(mask | W::ZERO, mask);
            assert_eq!(mask ^ W::ZERO, mask);
            assert_eq!(!mask & mask, W::ZERO);
        }
        // Limb access round-trips and addresses lanes 64*i..64*i+64.
        let mut w = W::ZERO;
        for i in 0..W::LIMBS {
            w.set_limb(i, 1 << i);
        }
        for i in 0..W::LIMBS {
            assert_eq!(w.limb(i), 1 << i);
            assert!(w.bit(64 * i + i));
        }
        assert_eq!(w.count_ones() as usize, W::LIMBS);
        assert_eq!(W::from_low(0b101).count_ones(), 2);
        assert!(W::from_low(0b101).bit(2));
    }

    #[test]
    fn u64_word_laws() {
        check_word_laws::<u64>();
    }

    #[test]
    fn w256_word_laws() {
        check_word_laws::<W256>();
    }

    #[test]
    fn w512_word_laws() {
        check_word_laws::<W512>();
    }

    #[test]
    fn w512_partial_masks_cross_limbs() {
        let m = W512::lane_mask(300);
        assert_eq!(m.limb(3), u64::MAX);
        assert_eq!(m.limb(4), (1u64 << 44) - 1);
        assert_eq!(m.limb(5), 0);
        assert_eq!(W512::lane_mask(512), W512::ONES);
        let s = format!("{:?}", W512::from_low(0x10));
        assert!(s.starts_with("W512(0x0000"), "{s}");
        assert!(s.ends_with("0000000000000010)"), "{s}");
    }

    #[test]
    fn w256_partial_masks_cross_limbs() {
        let m = W256::lane_mask(100);
        assert_eq!(m.limb(0), u64::MAX);
        assert_eq!(m.limb(1), (1u64 << 36) - 1);
        assert_eq!(m.limb(2), 0);
        assert_eq!(m.limb(3), 0);
        assert_eq!(W256::lane_mask(64).limb(0), u64::MAX);
        assert_eq!(W256::lane_mask(64).limb(1), 0);
    }

    #[test]
    #[should_panic(expected = "lanes must be in")]
    fn w256_lane_mask_overflow_panics() {
        let _ = W256::lane_mask(257);
    }

    #[test]
    fn w256_debug_is_hex() {
        let mut w = W256::ZERO;
        w.set_bit(4);
        w.set_bit(255);
        let s = format!("{w:?}");
        assert!(s.starts_with("W256(0x8000"), "{s}");
        assert!(s.ends_with("0000000000000010)"), "{s}");
    }
}
