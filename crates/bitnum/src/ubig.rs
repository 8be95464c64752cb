use std::cmp::Ordering;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

use crate::error::ParseUBigError;
use crate::rng::RandomBits;
use crate::MAX_WIDTH;

/// An unsigned integer with a fixed bit width, stored on `u64` limbs.
///
/// `UBig` models a hardware bus: the width is part of the value, arithmetic
/// wraps at `2^width`, and carry-outs are reported explicitly. Unused high
/// bits of the top limb are always zero (a crate invariant maintained by
/// every operation).
///
/// Two's-complement interpretation helpers ([`UBig::from_i128`],
/// [`UBig::msb`], [`UBig::to_i128`]) are provided because the paper's
/// "2's complement Gaussian" workloads reuse the unsigned datapath.
///
/// # Example
///
/// ```
/// use bitnum::UBig;
///
/// let a = UBig::from_u128(250, 8);
/// let b = UBig::from_u128(10, 8);
/// let (sum, cout) = a.overflowing_add(&b);
/// assert_eq!(sum.to_u128(), Some(4)); // wraps at 2^8
/// assert!(cout);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct UBig {
    width: usize,
    limbs: Vec<u64>,
}

pub(crate) fn limbs_for(width: usize) -> usize {
    width.div_ceil(64)
}

impl UBig {
    /// Creates the zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn zero(width: usize) -> Self {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "unsupported width {width}"
        );
        Self {
            width,
            limbs: vec![0; limbs_for(width)],
        }
    }

    /// Creates the all-ones value (`2^width - 1`) of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn ones(width: usize) -> Self {
        let mut v = Self::zero(width);
        for l in &mut v.limbs {
            *l = u64::MAX;
        }
        v.mask_top();
        v
    }

    /// Creates a value from a `u128`, truncating to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn from_u128(value: u128, width: usize) -> Self {
        let mut v = Self::zero(width);
        v.limbs[0] = value as u64;
        if v.limbs.len() > 1 {
            v.limbs[1] = (value >> 64) as u64;
        }
        v.mask_top();
        v
    }

    /// Creates a value from the two's-complement representation of `value`
    /// truncated to `width` bits (sign-extended into the full width first).
    ///
    /// ```
    /// use bitnum::UBig;
    /// let m1 = UBig::from_i128(-1, 32);
    /// assert_eq!(m1, UBig::ones(32));
    /// ```
    pub fn from_i128(value: i128, width: usize) -> Self {
        let mut v = Self::zero(width);
        let fill = if value < 0 { u64::MAX } else { 0 };
        for l in &mut v.limbs {
            *l = fill;
        }
        v.limbs[0] = value as u64;
        if v.limbs.len() > 1 {
            v.limbs[1] = (value >> 64) as u64;
        }
        v.mask_top();
        v
    }

    /// Creates a value from little-endian limbs, truncating to `width` bits.
    ///
    /// Missing limbs are treated as zero; excess limbs are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn from_limbs(limbs: &[u64], width: usize) -> Self {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "unsupported width {width}"
        );
        // Copy the given limbs and zero only the missing ones: no zeroed
        // allocation that the copy then overwrites.
        let n = limbs_for(width);
        let mut own = Vec::with_capacity(n);
        own.extend_from_slice(&limbs[..n.min(limbs.len())]);
        own.resize(n, 0);
        let mut v = Self { width, limbs: own };
        v.mask_top();
        v
    }

    /// Parses a (case-insensitive) hexadecimal string, with optional `0x`
    /// prefix and `_` separators.
    ///
    /// # Errors
    ///
    /// Returns [`ParseUBigError`] if the string is empty, contains an invalid
    /// digit, or the value does not fit in `width` bits.
    pub fn from_hex(s: &str, width: usize) -> Result<Self, ParseUBigError> {
        let s = s
            .strip_prefix("0x")
            .or_else(|| s.strip_prefix("0X"))
            .unwrap_or(s);
        let mut v = Self::zero(width);
        // Validate front to back, so the first fault in reading order wins:
        // an invalid digit, or the digit at which the value read so far
        // needs more than `width` bits.
        let mut digits = 0usize;
        let mut bits = 0usize;
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let d = c
                .to_digit(16)
                .ok_or_else(|| ParseUBigError::invalid_digit(c))?;
            bits = match bits {
                0 => (u32::BITS - d.leading_zeros()) as usize,
                _ => bits + 4,
            };
            if bits > width {
                return Err(ParseUBigError::overflow());
            }
            digits += 1;
        }
        if digits == 0 {
            return Err(ParseUBigError::empty());
        }
        // Then place each nibble at its bit position, last digit first; the
        // digits past the limbs are leading zeros.
        let nibbles = s.bytes().rev().filter(|&b| b != b'_');
        for (k, b) in nibbles.take(16 * v.limbs.len()).enumerate() {
            let d = char::from(b).to_digit(16).expect("validated above");
            v.limbs[k / 16] |= u64::from(d) << (4 * (k % 16));
        }
        Ok(v)
    }

    /// Generates a uniformly random value of the given width.
    pub fn random<R: RandomBits + ?Sized>(width: usize, rng: &mut R) -> Self {
        let mut v = Self::zero(width);
        for l in &mut v.limbs {
            *l = rng.next_u64();
        }
        v.mask_top();
        v
    }

    /// The bit width of this value.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The little-endian limbs backing this value.
    ///
    /// Bits at positions `>= width` in the top limb are guaranteed zero.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Reads bit `i` (little-endian; bit 0 is the least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        let mask = 1u64 << (i % 64);
        if value {
            self.limbs[i / 64] |= mask;
        } else {
            self.limbs[i / 64] &= !mask;
        }
    }

    /// The most significant bit — the sign bit under a two's-complement
    /// interpretation.
    pub fn msb(&self) -> bool {
        self.bit(self.width - 1)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.limbs.iter().map(|l| l.count_ones() as usize).sum()
    }

    /// Position of the highest set bit, or `None` if zero.
    pub fn highest_set_bit(&self) -> Option<usize> {
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            if l != 0 {
                return Some(i * 64 + 63 - l.leading_zeros() as usize);
            }
        }
        None
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.iter().skip(2).any(|&l| l != 0) {
            return None;
        }
        let lo = self.limbs[0] as u128;
        let hi = self.limbs.get(1).copied().unwrap_or(0) as u128;
        Some(lo | (hi << 64))
    }

    /// Converts to `i128` under a two's-complement interpretation, if the
    /// value fits (`width <= 128` required for negative values to round-trip).
    pub fn to_i128(&self) -> Option<i128> {
        if self.width > 128 {
            // Positive values that fit still convert.
            if self.msb() {
                return None;
            }
            return self.to_u128().and_then(|v| i128::try_from(v).ok());
        }
        let raw = self.to_u128()?;
        if self.msb() {
            // Sign-extend from `width` to 128 bits.
            let ext = if self.width == 128 {
                0
            } else {
                u128::MAX << self.width
            };
            Some((raw | ext) as i128)
        } else {
            Some(raw as i128)
        }
    }

    /// Addition with carry-in, returning `(sum, carry_out)`.
    ///
    /// This is the exact reference adder against which every speculative
    /// design in the workspace is checked.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn add_with_carry(&self, rhs: &Self, carry_in: bool) -> (Self, bool) {
        self.check_width(rhs);
        let mut out = Self::zero(self.width);
        let mut carry = carry_in as u64;
        for i in 0..self.limbs.len() {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out.limbs[i] = s2;
            carry = (c1 | c2) as u64;
        }
        // The carry out of the bus is the carry out of bit `width-1`, which
        // for a partially filled top limb lives inside the top limb.
        let top_bits = self.width % 64;
        let carry_out = if top_bits == 0 {
            carry == 1
        } else {
            let c = (out.limbs[self.limbs.len() - 1] >> top_bits) & 1 == 1;
            out.mask_top();
            c
        };
        (out, carry_out)
    }

    /// Wrapping addition (`(a + b) mod 2^width`) with explicit carry-out.
    pub fn overflowing_add(&self, rhs: &Self) -> (Self, bool) {
        self.add_with_carry(rhs, false)
    }

    /// Wrapping addition, discarding the carry-out.
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Wrapping subtraction (`(a - b) mod 2^width`), returning
    /// `(difference, borrow)`.
    pub fn overflowing_sub(&self, rhs: &Self) -> (Self, bool) {
        // a - b = a + !b + 1; borrow = !carry_out.
        let (diff, carry) = self.add_with_carry(&rhs.not_bits(), true);
        (diff, !carry)
    }

    /// Wrapping subtraction, discarding the borrow.
    pub fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Two's-complement negation (`(2^width - a) mod 2^width`).
    pub fn negate(&self) -> Self {
        Self::zero(self.width).wrapping_sub(self)
    }

    /// Bitwise NOT within the width.
    pub fn not_bits(&self) -> Self {
        let mut out = self.clone();
        for l in &mut out.limbs {
            *l = !*l;
        }
        out.mask_top();
        out
    }

    /// Logical shift left by `k` bits (bits shifted past `width` are lost).
    pub fn shl(&self, k: usize) -> Self {
        if k >= self.width {
            return Self::zero(self.width);
        }
        let mut out = self.clone();
        let limb_shift = k / 64;
        let bit_shift = k % 64;
        if limb_shift > 0 {
            for i in (0..out.limbs.len()).rev() {
                out.limbs[i] = if i >= limb_shift {
                    out.limbs[i - limb_shift]
                } else {
                    0
                };
            }
        }
        if bit_shift > 0 {
            let mut carry = 0u64;
            for l in &mut out.limbs {
                let new_carry = *l >> (64 - bit_shift);
                *l = (*l << bit_shift) | carry;
                carry = new_carry;
            }
        }
        out.mask_top();
        out
    }

    /// Logical shift right by `k` bits.
    pub fn shr(&self, k: usize) -> Self {
        if k >= self.width {
            return Self::zero(self.width);
        }
        let mut out = self.clone();
        let limb_shift = k / 64;
        let bit_shift = k % 64;
        if limb_shift > 0 {
            let n = out.limbs.len();
            for i in 0..n {
                out.limbs[i] = if i + limb_shift < n {
                    out.limbs[i + limb_shift]
                } else {
                    0
                };
            }
        }
        if bit_shift > 0 {
            let mut carry = 0u64;
            for l in out.limbs.iter_mut().rev() {
                let new_carry = *l << (64 - bit_shift);
                *l = (*l >> bit_shift) | carry;
                carry = new_carry;
            }
        }
        out
    }

    /// Reinterprets the value at a new width: truncates or zero-extends.
    pub fn resize(&self, width: usize) -> Self {
        let mut out = Self::zero(width);
        let n = out.limbs.len().min(self.limbs.len());
        out.limbs[..n].copy_from_slice(&self.limbs[..n]);
        out.mask_top();
        out
    }

    /// Reinterprets the value at a new width with two's-complement sign
    /// extension when widening.
    pub fn resize_signed(&self, width: usize) -> Self {
        if width <= self.width || !self.msb() {
            return self.resize(width);
        }
        let mut out = Self::ones(width);
        // Clear the low `self.width` bits then OR the value in.
        for i in 0..self.limbs.len() {
            out.limbs[i] = self.limbs[i];
        }
        let top_bits = self.width % 64;
        if top_bits != 0 {
            out.limbs[self.limbs.len() - 1] |= u64::MAX << top_bits;
        }
        out.mask_top();
        out
    }

    /// Extracts bits `[lo, lo+len)` as a new `len`-bit value.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the width or `len == 0`.
    pub fn extract(&self, lo: usize, len: usize) -> Self {
        assert!(
            len >= 1 && lo + len <= self.width,
            "extract range out of bounds"
        );
        self.shr(lo).resize(len)
    }

    /// ORs the low `len` bits of `value` into bit positions
    /// `[lo, lo + len)`. The fast inverse of
    /// [`pg::extract_window_u64`](crate::pg::extract_window_u64), used to
    /// assemble per-window results into a full-width value.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64` or the range exceeds the width.
    pub fn deposit_bits(&mut self, lo: usize, len: usize, value: u64) {
        assert!(len <= 64, "deposit window wider than 64 bits");
        assert!(lo + len <= self.width, "deposit range out of bounds");
        let value = if len == 64 {
            value
        } else {
            value & ((1u64 << len) - 1)
        };
        let limb = lo / 64;
        let off = lo % 64;
        self.limbs[limb] |= value << off;
        if off != 0 && off + len > 64 {
            self.limbs[limb + 1] |= value >> (64 - off);
        }
        self.mask_top();
    }

    /// Approximates the value as an `f64` (round-toward-zero on the top 53
    /// bits; `+inf` if the exponent overflows `f64`).
    pub fn to_f64(&self) -> f64 {
        let Some(top) = self.highest_set_bit() else {
            return 0.0;
        };
        if top < 64 {
            return self.limbs[0] as f64;
        }
        let take = 53.min(top + 1);
        let mantissa = crate::pg::extract_window_u64(self, top + 1 - take, take);
        mantissa as f64 * 2f64.powi((top + 1 - take) as i32)
    }

    fn check_width(&self, rhs: &Self) {
        assert_eq!(
            self.width, rhs.width,
            "width mismatch: {} vs {}",
            self.width, rhs.width
        );
    }

    pub(crate) fn mask_top(&mut self) {
        let top_bits = self.width % 64;
        if top_bits != 0 {
            let last = self.limbs.len() - 1;
            self.limbs[last] &= (1u64 << top_bits) - 1;
        }
    }

    #[allow(dead_code)]
    pub(crate) fn limbs_mut(&mut self) -> &mut [u64] {
        &mut self.limbs
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    /// Unsigned magnitude comparison.
    ///
    /// Values of different widths compare by magnitude (the shorter value is
    /// zero-extended conceptually).
    fn cmp(&self, other: &Self) -> Ordering {
        let n = self.limbs.len().max(other.limbs.len());
        for i in (0..n).rev() {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            match a.cmp(&b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UBig<{}>(0x{:x})", self.width, self)
    }
}

impl fmt::Display for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{self:x}")
    }
}

impl fmt::LowerHex for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&HexLimbs(&self.limbs), f)
    }
}

/// Lower-case hex of a little-endian `u64` limb run, digit for digit as
/// [`UBig`]'s `{:x}` prints the same limbs: no leading zeros, `0` for
/// zero. Lets a caller that holds raw limbs — a lane of the sums
/// [`WideSlab::lane_limbs_into`](crate::batch::WideSlab::lane_limbs_into)
/// untransposes — print them without building a [`UBig`].
///
/// ```
/// use bitnum::{HexLimbs, UBig};
/// let v = UBig::from_u128((0xab << 64) | 0xc, 72);
/// assert_eq!(format!("{:x}", HexLimbs(v.limbs())), format!("{v:x}"));
/// assert_eq!(format!("{:x}", HexLimbs(&[0, 0])), "0");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HexLimbs<'a>(pub &'a [u64]);

impl fmt::LowerHex for HexLimbs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for (i, &l) in self.0.iter().enumerate().rev() {
            if started {
                write!(f, "{l:016x}")?;
            } else if l != 0 || i == 0 {
                write!(f, "{l:x}")?;
                started = true;
            }
        }
        Ok(())
    }
}

impl fmt::Binary for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width).rev() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

macro_rules! impl_bitop {
    ($trait:ident, $method:ident, $assign:tt) => {
        impl $trait for &UBig {
            type Output = UBig;
            fn $method(self, rhs: &UBig) -> UBig {
                assert_eq!(self.width, rhs.width, "width mismatch in bit operation");
                let mut out = self.clone();
                for (o, r) in out.limbs.iter_mut().zip(&rhs.limbs) {
                    *o $assign *r;
                }
                out
            }
        }
        impl $trait for UBig {
            type Output = UBig;
            fn $method(self, rhs: UBig) -> UBig {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_bitop!(BitAnd, bitand, &=);
impl_bitop!(BitOr, bitor, |=);
impl_bitop!(BitXor, bitxor, ^=);

impl Not for &UBig {
    type Output = UBig;
    fn not(self) -> UBig {
        self.not_bits()
    }
}

impl Not for UBig {
    type Output = UBig;
    fn not(self) -> UBig {
        self.not_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn zero_and_ones() {
        let z = UBig::zero(100);
        assert!(z.is_zero());
        assert_eq!(z.width(), 100);
        let o = UBig::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(o.highest_set_bit(), Some(99));
    }

    #[test]
    fn from_limbs_pads_truncates_and_masks() {
        // Shorter: the missing limbs are zero.
        let v = UBig::from_limbs(&[7], 130);
        assert_eq!(v.limbs(), [7, 0, 0]);
        assert_eq!(v.width(), 130);
        // Longer: the excess limbs are ignored.
        let v = UBig::from_limbs(&[1, 2, 3, 4], 128);
        assert_eq!(v.limbs(), [1, 2]);
        // Stray bits at or above the width are masked off the top limb,
        // whole or partial.
        let v = UBig::from_limbs(&[u64::MAX, u64::MAX], 70);
        assert_eq!(v.limbs(), [u64::MAX, 0x3f]);
        assert_eq!(v.count_ones(), 70);
        let v = UBig::from_limbs(&[u64::MAX], 1);
        assert_eq!(v.to_u128(), Some(1));
        // Exactly the width: the value round-trips.
        let v = UBig::from_limbs(&[5, u64::MAX], 128);
        assert_eq!(v.to_u128(), Some(u128::MAX << 64 | 5));
        // No limbs at all is zero.
        assert!(UBig::from_limbs(&[], 64).is_zero());
    }

    #[test]
    fn from_u128_truncates() {
        let v = UBig::from_u128(0x1ff, 8);
        assert_eq!(v.to_u128(), Some(0xff));
    }

    #[test]
    fn from_i128_sign_extends() {
        let v = UBig::from_i128(-2, 200);
        assert_eq!(v.count_ones(), 199);
        assert!(!v.bit(0));
        assert_eq!(v.to_i128(), None); // width > 128 and negative
        let w = UBig::from_i128(-2, 128);
        assert_eq!(w.to_i128(), Some(-2));
    }

    #[test]
    fn add_with_carry_bit64_boundary() {
        let a = UBig::ones(64);
        let b = UBig::from_u128(1, 64);
        let (s, c) = a.overflowing_add(&b);
        assert!(s.is_zero());
        assert!(c);
    }

    #[test]
    fn add_with_carry_partial_limb() {
        let a = UBig::ones(65);
        let b = UBig::from_u128(1, 65);
        let (s, c) = a.overflowing_add(&b);
        assert!(s.is_zero());
        assert!(c);
        let (s2, c2) = a.add_with_carry(&UBig::zero(65), true);
        assert!(s2.is_zero());
        assert!(c2);
    }

    #[test]
    fn sub_and_negate() {
        let a = UBig::from_u128(5, 32);
        let b = UBig::from_u128(7, 32);
        let (d, borrow) = a.overflowing_sub(&b);
        assert!(borrow);
        assert_eq!(d.to_i128(), Some(-2));
        assert_eq!(b.negate().to_i128(), Some(-7));
    }

    #[test]
    fn shifts_roundtrip() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for width in [1usize, 31, 64, 65, 127, 128, 130, 512] {
            let v = UBig::random(width, &mut rng);
            for k in [0usize, 1, 63, 64, 65] {
                if k >= width {
                    assert!(v.shl(k).is_zero());
                    assert!(v.shr(k).is_zero());
                    continue;
                }
                let up_down = v.shl(k).shr(k);
                let masked = {
                    // shl then shr keeps low width-k bits of v.
                    let keep = width - k;
                    v.extract(0, keep).resize(width)
                };
                assert_eq!(up_down, masked, "width={width} k={k}");
            }
        }
    }

    #[test]
    fn extract_and_resize() {
        let v = UBig::from_u128(0xabcd_ef01, 64);
        assert_eq!(v.extract(8, 16).to_u128(), Some(0xcdef));
        assert_eq!(v.resize(16).to_u128(), Some(0xef01));
        assert_eq!(v.resize(128).to_u128(), Some(0xabcd_ef01));
    }

    #[test]
    fn resize_signed_extends() {
        let v = UBig::from_i128(-100, 40);
        let w = v.resize_signed(160);
        // Interpreting back down should be the same number.
        assert_eq!(w.resize(40), v);
        assert!(w.msb());
        // Positive values extend with zeros.
        let p = UBig::from_u128(100, 40).resize_signed(160);
        assert_eq!(p.to_u128(), Some(100));
    }

    #[test]
    fn hex_roundtrip() {
        let v = UBig::from_hex("0xDEAD_beef", 64).unwrap();
        assert_eq!(v.to_u128(), Some(0xdead_beef));
        assert_eq!(format!("{v:x}"), "deadbeef");
        assert!(UBig::from_hex("", 8).is_err());
        assert!(UBig::from_hex("xyz", 8).is_err());
        assert!(UBig::from_hex("100", 8).is_err()); // 0x100 needs 9 bits
        assert!(UBig::from_hex("ff", 8).is_ok());
    }

    #[test]
    fn from_hex_overflows_exactly_past_the_width() {
        // Oracle: the digit string's bit length — four bits per digit after
        // the leading zeros, less the top digit's leading zero bits.
        let mut rng = Xoshiro256::seed_from_u64(0x4e5);
        let mut pick = |n: u64| (rng.next_u64() % n) as usize;
        for width in (1..=300usize).chain([511, 512, 513, 4095, 4096]) {
            for _ in 0..24 {
                // Up to two nibbles past the width, behind 0–2 zeros.
                let nibbles = width.div_ceil(4) + pick(3);
                let digits: String = (0..nibbles)
                    .map(|_| char::from_digit(pick(16) as u32, 16).expect("hex digit"))
                    .collect();
                let mut s = "0".repeat(pick(3));
                for d in digits.chars() {
                    if pick(8) == 0 {
                        s.push('_');
                    }
                    s.push(if pick(2) == 0 {
                        d.to_ascii_uppercase()
                    } else {
                        d
                    });
                }
                let significant = digits.trim_start_matches('0');
                let bits = significant.chars().next().map_or(0, |top| {
                    let top = top.to_digit(16).expect("hex digit");
                    4 * (significant.len() - 1) + (u32::BITS - top.leading_zeros()) as usize
                });
                match UBig::from_hex(&s, width) {
                    Ok(v) => {
                        assert!(bits <= width, "{s} at width {width}");
                        let want = if significant.is_empty() {
                            "0"
                        } else {
                            significant
                        };
                        assert_eq!(format!("{v:x}"), want, "{s} at width {width}");
                    }
                    Err(e) => {
                        assert!(bits > width, "{s} at width {width}: {e}");
                        assert_eq!(e, ParseUBigError::overflow(), "{s} at width {width}");
                    }
                }
            }
        }
    }

    #[test]
    fn from_hex_reports_the_first_fault_in_reading_order() {
        // A string with an invalid digit and too many bits fails on
        // whichever comes first, reading left to right.
        let invalid = |c| Err(ParseUBigError::invalid_digit(c));
        assert_eq!(UBig::from_hex("1ffz", 8), Err(ParseUBigError::overflow()));
        assert_eq!(UBig::from_hex("z1ff", 8), invalid('z'));
        assert_eq!(UBig::from_hex("ff_z", 8), invalid('z'));
        assert_eq!(UBig::from_hex("0x00ffé1", 8), invalid('é'));
        assert_eq!(
            UBig::from_hex("0x1_00é", 8),
            Err(ParseUBigError::overflow())
        );
        assert_eq!(UBig::from_hex("0x", 8), Err(ParseUBigError::empty()));
        assert_eq!(UBig::from_hex("__", 8), Err(ParseUBigError::empty()));
        assert_eq!(UBig::from_hex("_z", 8), invalid('z'));
        // Leading zeros past the last limb cost nothing.
        let padded = format!("{}ff", "0".repeat(100));
        assert_eq!(UBig::from_hex(&padded, 8), Ok(UBig::from_u128(0xff, 8)));
    }

    #[test]
    fn comparisons() {
        let a = UBig::from_u128(5, 64);
        let b = UBig::from_u128(6, 256);
        assert!(a < b);
        assert_eq!(a.cmp(&UBig::from_u128(5, 128)), Ordering::Equal);
    }

    #[test]
    fn binary_format() {
        let v = UBig::from_u128(0b1010, 6);
        assert_eq!(format!("{v:b}"), "001010");
    }

    #[test]
    fn bitops() {
        let a = UBig::from_u128(0b1100, 8);
        let b = UBig::from_u128(0b1010, 8);
        assert_eq!((&a & &b).to_u128(), Some(0b1000));
        assert_eq!((&a | &b).to_u128(), Some(0b1110));
        assert_eq!((&a ^ &b).to_u128(), Some(0b0110));
        assert_eq!((!&a).to_u128(), Some(0b1111_0011));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let _ = UBig::zero(8).wrapping_add(&UBig::zero(9));
    }

    #[test]
    fn deposit_roundtrips_extract() {
        let mut rng = Xoshiro256::seed_from_u64(77);
        let src = UBig::random(200, &mut rng);
        for (lo, len) in [(0usize, 17usize), (60, 33), (63, 64), (128, 64), (190, 10)] {
            let window = crate::pg::extract_window_u64(&src, lo, len);
            let mut dst = UBig::zero(200);
            dst.deposit_bits(lo, len, window);
            assert_eq!(dst.extract(lo, len).limbs()[0], window, "lo={lo} len={len}");
            assert_eq!(dst.count_ones(), dst.extract(lo, len).count_ones());
        }
    }

    #[test]
    fn to_f64_matches_small_and_scales() {
        assert_eq!(UBig::zero(128).to_f64(), 0.0);
        assert_eq!(UBig::from_u128(12345, 64).to_f64(), 12345.0);
        let big = UBig::from_u128(1u128 << 100, 128);
        let f = big.to_f64();
        assert!((f / 2f64.powi(100) - 1.0).abs() < 1e-12);
        // Top-53-bit truncation keeps ~1e-15 relative accuracy.
        let v = UBig::from_u128((1u128 << 90) + 12345, 128);
        assert!((v.to_f64() / ((1u128 << 90) as f64) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_respects_width() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..100 {
            let v = UBig::random(70, &mut rng);
            assert!(v.highest_set_bit().unwrap_or(0) < 70);
        }
    }
}
