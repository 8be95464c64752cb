//! Bit-sliced (transposed) operand storage for batched evaluation.
//!
//! A [`BitSlab`] holds up to [`Word::LANES`] independent `width`-bit
//! values — *lanes* — in transposed layout: one lane word per **bit
//! position**, where bit `l` of word `i` is lane `l`'s bit `i`. In this
//! layout a single word operation evaluates one gate of all lanes
//! simultaneously, so a `width`-step carry chain produces a whole lane
//! group of full additions in `width` word operations — the trick
//! constrained-decoding engines and bit-sliced cipher implementations use
//! to make per-element work word-parallel.
//!
//! The lane word is the [`Word`] abstraction: `u64` (64 lanes per word
//! operation) or the SIMD-friendly [`W256`] (256 lanes). [`DefaultWord`]
//! — [`W256`] unless the build sets `--cfg vlcsa_word64` — is the default
//! type parameter everywhere, so code that does not name a word gets the
//! wide slabs automatically.
//!
//! The adder crates build on two primitives here: the storage itself
//! (transpose in, compute word-parallel, transpose out) and the bit-sliced
//! ripple kernel [`ripple_words`], which is both a complete whole-slab
//! adder and the per-window building block of the speculative engines.
//!
//! Batches wider than one word are held by [`WideSlab`]: a sequence of
//! full [`BitSlab`] chunks (plus one possibly-partial tail chunk), so the
//! per-word lane cap becomes an internal chunking detail and callers can
//! issue groups of any size.
//!
//! Values cross into and out of the layout one way each:
//! [`WideSlab::from_lane_limbs`] and [`WideSlab::lane_limbs_into`] move
//! lane-major `u64` limbs 64 lanes at a time through a 64×64 bit
//! transpose, and every `from_lanes`/`to_lanes` goes through them.
//!
//! # Example
//!
//! ```
//! use bitnum::batch::{ripple_words, BitSlab, DefaultWord, Word};
//! use bitnum::UBig;
//!
//! let a: BitSlab = BitSlab::from_lanes(&[UBig::from_u128(3, 8), UBig::from_u128(200, 8)]);
//! let b = BitSlab::from_lanes(&[UBig::from_u128(4, 8), UBig::from_u128(100, 8)]);
//! let mut sum = BitSlab::zero(8, 2);
//! let cout = ripple_words(a.words(), b.words(), DefaultWord::ZERO, a.lane_mask(), sum.words_mut());
//! assert_eq!(sum.lane(0).to_u128(), Some(7));
//! assert_eq!(sum.lane(1).to_u128(), Some(44)); // 300 mod 256
//! assert_eq!(cout.limb(0), 0b10); // only lane 1 overflows 8 bits
//! ```

use crate::rng::RandomBits;
use crate::UBig;

pub use crate::word::{DefaultWord, Word, W256, W512};

/// A batch of up to [`Word::LANES`] equal-width values in transposed
/// (bit-sliced) layout.
///
/// Lane `l`'s bit `i` is stored as bit `l` of [`BitSlab::word`]`(i)`; bits
/// at lane positions `>= lanes()` are guaranteed zero in every word (a type
/// invariant maintained by all constructors and [`BitSlab::set_word`],
/// enforced per-limb by [`Word::lane_mask`]).
///
/// # Example
///
/// ```
/// use bitnum::batch::{BitSlab, Word};
/// use bitnum::UBig;
///
/// let lanes: Vec<UBig> = (0..5).map(|v| UBig::from_u128(v, 16)).collect();
/// let slab: BitSlab = BitSlab::from_lanes(&lanes);
/// assert_eq!(slab.width(), 16);
/// assert_eq!(slab.lanes(), 5);
/// // Bit 0 across lanes: values 1 and 3 are odd -> lanes 1 and 3 set.
/// assert_eq!(slab.word(0).limb(0), 0b01010);
/// assert_eq!(slab.to_lanes(), lanes);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BitSlab<W: Word = DefaultWord> {
    width: usize,
    lanes: usize,
    /// `words[i]` holds bit `i` of every lane.
    words: Vec<W>,
}

impl<W: Word> BitSlab<W> {
    /// Creates an all-zero slab of `lanes` lanes of `width` bits each.
    ///
    /// ```
    /// use bitnum::batch::BitSlab;
    /// let slab: BitSlab = BitSlab::zero(32, 64);
    /// assert!(slab.to_lanes().iter().all(|l| l.is_zero()));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`crate::MAX_WIDTH`], or if
    /// `lanes` is zero or exceeds [`Word::LANES`].
    pub fn zero(width: usize, lanes: usize) -> Self {
        assert!(
            (1..=crate::MAX_WIDTH).contains(&width),
            "unsupported width {width}"
        );
        assert!(
            (1..=W::LANES).contains(&lanes),
            "lanes must be in 1..={}, got {lanes}",
            W::LANES
        );
        Self {
            width,
            lanes,
            words: vec![W::ZERO; width],
        }
    }

    /// Transposes a slice of equal-width values into a slab (value `l`
    /// becomes lane `l`).
    ///
    /// ```
    /// use bitnum::batch::{BitSlab, Word};
    /// use bitnum::UBig;
    /// let slab: BitSlab = BitSlab::from_lanes(&[UBig::from_u128(0b10, 2), UBig::from_u128(0b01, 2)]);
    /// assert_eq!(slab.word(0).limb(0), 0b10); // lane 1 has bit 0 set
    /// assert_eq!(slab.word(1).limb(0), 0b01); // lane 0 has bit 1 set
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty, holds more than [`Word::LANES`]
    /// values, or the values disagree on width.
    pub fn from_lanes(values: &[UBig]) -> Self {
        let (width, limbs) = lane_major(values);
        Self::ingress(&limbs, width)
    }

    /// Builds one chunk from lane-major limbs — lane `l` is
    /// `limbs[l * nl..(l + 1) * nl]` with `nl = width.div_ceil(64)` — one
    /// 64-lane block per word limb and operand limb. The caller has checked
    /// the shape ([`WideSlab::from_lane_limbs`]); rows past a block's lane
    /// count are zero, so the lane-mask invariant holds by construction.
    fn ingress(limbs: &[u64], width: usize) -> Self {
        let nl = width.div_ceil(64);
        let mut slab = Self::zero(width, limbs.len() / nl);
        let mut block = [0u64; 64];
        for (b, rows) in limbs.chunks(64 * nl).enumerate() {
            let n = rows.len() / nl;
            for (li, words) in slab.words.chunks_mut(64).enumerate() {
                let row = |r: usize| rows[r * nl + li];
                if n < TRANSPOSE_MIN_LANES {
                    for (i, w) in words.iter_mut().enumerate() {
                        w.set_limb(b, (0..n).fold(0, |acc, r| acc | (row(r) >> i & 1) << r));
                    }
                } else {
                    for (r, x) in block.iter_mut().enumerate() {
                        *x = if r < n { row(r) } else { 0 };
                    }
                    transpose64(&mut block);
                    for (w, &x) in words.iter_mut().zip(&block) {
                        w.set_limb(b, x);
                    }
                }
            }
        }
        slab
    }

    /// Writes every lane into `out`, lane-major (lane `l` is
    /// `out[l * nl..(l + 1) * nl]`) — the inverse of [`BitSlab::ingress`].
    fn egress(&self, out: &mut [u64]) {
        let nl = self.width.div_ceil(64);
        debug_assert_eq!(out.len(), self.lanes * nl);
        let mut block = [0u64; 64];
        for (b, rows) in out.chunks_mut(64 * nl).enumerate() {
            let n = rows.len() / nl;
            for (li, words) in self.words.chunks(64).enumerate() {
                if n < TRANSPOSE_MIN_LANES {
                    for r in 0..n {
                        rows[r * nl + li] = words
                            .iter()
                            .enumerate()
                            .fold(0, |acc, (i, w)| acc | (w.limb(b) >> r & 1) << i);
                    }
                } else {
                    for (r, x) in block.iter_mut().enumerate() {
                        *x = words.get(r).map_or(0, |w| w.limb(b));
                    }
                    transpose64(&mut block);
                    for (r, &x) in block[..n].iter().enumerate() {
                        rows[r * nl + li] = x;
                    }
                }
            }
        }
    }

    /// Gathers lane `l` into little-endian `u64` limbs, filling a
    /// caller-provided buffer — the single-lane extraction behind
    /// [`BitSlab::lane`], and the per-lane reference the block egress is
    /// tested against.
    ///
    /// ```
    /// use bitnum::batch::BitSlab;
    /// use bitnum::UBig;
    /// let slab: BitSlab = BitSlab::from_lanes(&[UBig::from_u128(0xfeed, 72)]);
    /// let mut limbs = [1u64; 2];
    /// slab.write_lane_limbs(0, &mut limbs);
    /// assert_eq!(limbs, [0xfeed, 0]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `l >= lanes` or `out` is not exactly `width.div_ceil(64)`
    /// limbs.
    pub fn write_lane_limbs(&self, l: usize, out: &mut [u64]) {
        assert!(
            l < self.lanes,
            "lane {l} out of range for {} lanes",
            self.lanes
        );
        assert_eq!(
            out.len(),
            self.width.div_ceil(64),
            "width {} needs {} limbs, got {}",
            self.width,
            self.width.div_ceil(64),
            out.len()
        );
        out.fill(0);
        let (limb, shift) = (l / 64, l % 64);
        for (i, w) in self.words.iter().enumerate() {
            out[i / 64] |= ((w.limb(limb) >> shift) & 1) << (i % 64);
        }
    }

    /// Fills a slab with uniformly random lanes (equivalent to transposing
    /// `lanes` draws of [`UBig::random`], but sampled directly in
    /// transposed layout, limb by limb).
    ///
    /// ```
    /// use bitnum::batch::{BitSlab, Word};
    /// use bitnum::rng::Xoshiro256;
    /// let mut rng = Xoshiro256::seed_from_u64(1);
    /// let slab: BitSlab = BitSlab::random(64, 16, &mut rng);
    /// assert_eq!(slab.lanes(), 16);
    /// let mask = slab.lane_mask();
    /// assert!(slab.words().iter().all(|&w| (w & !mask).is_zero()));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics on the conditions of [`BitSlab::zero`].
    pub fn random<R: RandomBits + ?Sized>(width: usize, lanes: usize, rng: &mut R) -> Self {
        let mut slab = Self::zero(width, lanes);
        let mask = slab.lane_mask();
        for w in &mut slab.words {
            for li in 0..W::LIMBS {
                w.set_limb(li, rng.next_u64());
            }
            *w = *w & mask;
        }
        slab
    }

    /// The bit width of each lane.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of lanes held.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The word mask with one bit set per lane
    /// ([`Word::ONES`] at [`Word::LANES`] lanes).
    ///
    /// ```
    /// use bitnum::batch::{BitSlab, Word, W256};
    /// assert_eq!(BitSlab::<u64>::zero(8, 3).lane_mask(), 0b111);
    /// assert_eq!(BitSlab::<W256>::zero(8, 256).lane_mask(), W256::ONES);
    /// ```
    pub fn lane_mask(&self) -> W {
        W::lane_mask(self.lanes)
    }

    /// The word of bit position `i`: bit `l` is lane `l`'s bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn word(&self, i: usize) -> W {
        self.words[i]
    }

    /// All bit-position words, LSB position first.
    pub fn words(&self) -> &[W] {
        &self.words
    }

    /// Mutable access to the bit-position words for in-place kernels.
    ///
    /// The caller must keep lane bits `>= lanes()` zero; kernels that only
    /// combine existing words (e.g. [`ripple_words`] with a masked
    /// carry-in) preserve this automatically. Use [`BitSlab::set_word`]
    /// when the new word may carry stray high bits.
    pub fn words_mut(&mut self) -> &mut [W] {
        &mut self.words
    }

    /// Replaces the word of bit position `i`, masking off lane bits beyond
    /// [`BitSlab::lanes`].
    ///
    /// ```
    /// use bitnum::batch::{BitSlab, Word};
    /// let mut slab: BitSlab = BitSlab::zero(4, 2);
    /// slab.set_word(3, bitnum::batch::DefaultWord::ONES); // stray bits dropped
    /// assert_eq!(slab.word(3).limb(0), 0b11);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set_word(&mut self, i: usize, word: W) {
        let mask = self.lane_mask();
        self.words[i] = word & mask;
    }

    /// Extracts lane `l` as a [`UBig`] (the inverse of
    /// [`BitSlab::from_lanes`] for one value).
    ///
    /// ```
    /// use bitnum::batch::BitSlab;
    /// use bitnum::UBig;
    /// let v = UBig::from_u128(0xdead, 64);
    /// let slab: BitSlab = BitSlab::from_lanes(&[UBig::zero(64), v.clone()]);
    /// assert_eq!(slab.lane(1), v);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `l >= lanes`.
    pub fn lane(&self, l: usize) -> UBig {
        let mut limbs = vec![0u64; self.width.div_ceil(64)];
        self.write_lane_limbs(l, &mut limbs);
        UBig::from_limbs(&limbs, self.width)
    }

    /// Untransposes the slab back into one [`UBig`] per lane.
    pub fn to_lanes(&self) -> Vec<UBig> {
        let mut limbs = vec![0; self.lanes * self.width.div_ceil(64)];
        self.egress(&mut limbs);
        split_lanes(&limbs, self.width)
    }
}

/// Below this many lanes, a 64-lane block crosses the slab boundary lane
/// by lane instead of through [`transpose64`]. On a 2-vCPU AVX-512 host
/// (`W256` slabs, widths 64 and 256, best of six) moving one lane bit by
/// bit took a third of a transpose's time on the way out and two thirds
/// on the way in, two lanes about break even, and from three lanes on the
/// transpose was never slower. One-lane groups are the unloaded serve
/// path's common case.
const TRANSPOSE_MIN_LANES: usize = 3;

/// Transposes a 64×64 bit matrix in place: bit `c` of row `r` becomes
/// bit `r` of row `c`. Six rounds of masked swaps; each exchanges the
/// upper-right and lower-left quarters of every diagonal block, halving
/// the block size from 64 rows down to 2.
fn transpose64(m: &mut [u64; 64]) {
    swap_quarters::<32>(m, 0x0000_0000_ffff_ffff);
    swap_quarters::<16>(m, 0x0000_ffff_0000_ffff);
    swap_quarters::<8>(m, 0x00ff_00ff_00ff_00ff);
    swap_quarters::<4>(m, 0x0f0f_0f0f_0f0f_0f0f);
    swap_quarters::<2>(m, 0x3333_3333_3333_3333);
    swap_quarters::<1>(m, 0x5555_5555_5555_5555);
}

/// One round of [`transpose64`] on its `2J`-row diagonal blocks: the bits
/// of row `r` selected by `mask << J` trade places with the bits of row
/// `r + J` selected by `mask`. A const `J` lets every round unroll.
#[inline(always)]
fn swap_quarters<const J: usize>(m: &mut [u64; 64], mask: u64) {
    for block in m.chunks_exact_mut(2 * J) {
        let (upper, lower) = block.split_at_mut(J);
        for (a, b) in upper.iter_mut().zip(lower) {
            let t = ((*a >> J) ^ *b) & mask;
            *a ^= t << J;
            *b ^= t;
        }
    }
}

/// The limbs of `values`, lane-major, and their common width.
///
/// # Panics
///
/// Panics if `values` is empty or the values disagree on width.
fn lane_major(values: &[UBig]) -> (usize, Vec<u64>) {
    assert!(!values.is_empty(), "a slab needs at least one lane");
    let width = values[0].width();
    let mut limbs = Vec::with_capacity(values.len() * width.div_ceil(64));
    for (l, v) in values.iter().enumerate() {
        assert_eq!(v.width(), width, "lane {l} width mismatch");
        limbs.extend_from_slice(v.limbs());
    }
    (width, limbs)
}

/// One [`UBig`] per lane of lane-major `limbs`.
fn split_lanes(limbs: &[u64], width: usize) -> Vec<UBig> {
    limbs
        .chunks(width.div_ceil(64))
        .map(|lane| UBig::from_limbs(lane, width))
        .collect()
}

/// Bit-sliced ripple-carry addition: adds `a` and `b` word-parallel across
/// lanes, writing sum words into `sum` and returning the carry-out word.
///
/// `cin` is a *per-lane* carry-in word (bit `l` is lane `l`'s carry-in), so
/// the same kernel serves as a full-width adder (`cin = W::ZERO`), the
/// carry-in-1 leg of a carry-select block (`cin = lane_mask`), or a
/// speculative window fed by a per-lane select signal. The carry recurrence
/// per bit position is the usual `c' = g | (p & c)` on whole words:
/// [`Word::LANES`] lanes per ~5 word operations.
///
/// All three slices must come from slabs of identical width and lane
/// count, restricted to the same bit range. `lane_mask` is that slab lane
/// mask ([`BitSlab::lane_mask`]): `cin` — and, in debug builds, every
/// operand word — must have no bits set beyond it, **in any limb**.
/// Violations are the classic slab-corruption bug (a stray carry bit
/// silently invents a phantom lane), so they are enforced with
/// `debug_assert!` at the top of the kernel and fail loudly under
/// `cargo test` instead of corrupting lanes.
///
/// # Example
///
/// ```
/// use bitnum::batch::{ripple_words, BitSlab, DefaultWord, Word};
/// use bitnum::UBig;
///
/// let a: BitSlab = BitSlab::from_lanes(&vec![UBig::from_u128(9, 4); 3]);
/// let b = BitSlab::from_lanes(&vec![UBig::from_u128(6, 4); 3]);
/// let mut s = BitSlab::zero(4, 3);
/// // Carry-in only into lane 1: lanes 0 and 2 get 15, lane 1 wraps to 0.
/// let cin = DefaultWord::from_low(0b010);
/// let cout = ripple_words(a.words(), b.words(), cin, a.lane_mask(), s.words_mut());
/// assert_eq!(s.lane(0).to_u128(), Some(15));
/// assert_eq!(s.lane(1).to_u128(), Some(0));
/// assert_eq!(cout, cin);
/// ```
///
/// # Panics
///
/// Panics if the slice lengths differ. Debug builds panic when `cin` or an
/// operand word carries bits beyond `lane_mask`.
pub fn ripple_words<W: Word>(a: &[W], b: &[W], cin: W, lane_mask: W, sum: &mut [W]) -> W {
    assert_eq!(a.len(), b.len(), "operand word counts differ");
    assert_eq!(a.len(), sum.len(), "sum word count differs");
    debug_assert!(
        (cin & !lane_mask).is_zero(),
        "carry-in word {cin:?} has bits beyond the lane mask {lane_mask:?}"
    );
    debug_assert!(
        a.iter().chain(b).all(|&w| (w & !lane_mask).is_zero()),
        "operand words carry bits beyond the lane mask {lane_mask:?}"
    );
    let mut carry = cin;
    for ((&aw, &bw), sw) in a.iter().zip(b).zip(sum.iter_mut()) {
        let p = aw ^ bw;
        let g = aw & bw;
        *sw = p ^ carry;
        carry = g | (p & carry);
    }
    carry
}

/// A batch of arbitrarily many equal-width values, stored as a sequence of
/// [`BitSlab`] chunks.
///
/// Every chunk holds exactly [`Word::LANES`] lanes except the last, which
/// holds the remainder (`1..=Word::LANES`). Global lane `l` lives in chunk
/// `l / W::LANES` at chunk-lane `l % W::LANES`, and each chunk maintains
/// the [`BitSlab`] lane-mask invariant independently — so any single-word
/// kernel scales to arbitrary batch sizes by iterating
/// [`WideSlab::chunks`], and sharded executors can split the chunk list
/// across threads without touching lane data.
///
/// # Example
///
/// ```
/// use bitnum::batch::{BitSlab, Word, WideSlab};
/// use bitnum::UBig;
///
/// let values: Vec<UBig> = (0..300).map(|v| UBig::from_u128(v, 16)).collect();
/// let slab: WideSlab = WideSlab::from_lanes(&values);
/// assert_eq!(slab.lanes(), 300);
/// assert_eq!(slab.chunks().len(), 300usize.div_ceil(slab.lanes_per_chunk()));
/// assert_eq!(slab.lane(299).to_u128(), Some(299));
/// assert_eq!(slab.to_lanes(), values);
///
/// // With the word named explicitly, the chunking is pinned:
/// let narrow = WideSlab::<u64>::from_lanes(&values);
/// assert_eq!(narrow.chunks().len(), 5); // 4 × 64 + 44
/// assert_eq!(narrow.chunks()[4].lanes(), 44);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WideSlab<W: Word = DefaultWord> {
    width: usize,
    lanes: usize,
    chunks: Vec<BitSlab<W>>,
}

impl<W: Word> WideSlab<W> {
    /// Creates an all-zero wide slab of `lanes` lanes of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`crate::MAX_WIDTH`], or if
    /// `lanes` is zero.
    pub fn zero(width: usize, lanes: usize) -> Self {
        assert!(lanes >= 1, "a wide slab needs at least one lane");
        let chunks = Self::chunk_sizes(lanes)
            .map(|chunk_lanes| BitSlab::zero(width, chunk_lanes))
            .collect();
        Self {
            width,
            lanes,
            chunks,
        }
    }

    /// Transposes a slice of equal-width values into chunked slabs (value
    /// `l` becomes lane `l`).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or the values disagree on width.
    pub fn from_lanes(values: &[UBig]) -> Self {
        let (width, limbs) = lane_major(values);
        Self::from_lane_limbs(&limbs, width)
    }

    /// Transposes lane-major limbs into chunked slabs — the slab layout's
    /// one way in: lane `l` is `limbs[l * nl..(l + 1) * nl]`, little-endian,
    /// with `nl = width.div_ceil(64)`. Each chunk is built one 64-lane
    /// block per `u64` limb of the word and per operand limb, through a
    /// 64×64 bit transpose (a block of only a few lanes is deposited lane
    /// by lane instead).
    ///
    /// ```
    /// use bitnum::batch::WideSlab;
    /// use bitnum::UBig;
    /// let slab: WideSlab = WideSlab::from_lane_limbs(&[u64::MAX, 0x5, 42, 0], 100);
    /// assert_eq!(slab.lanes(), 2);
    /// assert_eq!(slab.lane(0), UBig::from_limbs(&[u64::MAX, 0x5], 100));
    /// assert_eq!(slab.lane(1).to_u128(), Some(42));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`crate::MAX_WIDTH`], if
    /// `limbs` is empty or not a whole number of `nl`-limb lanes, or if a
    /// lane has bits set at or above `width` — the transpose would
    /// silently drop them.
    pub fn from_lane_limbs(limbs: &[u64], width: usize) -> Self {
        assert!(
            (1..=crate::MAX_WIDTH).contains(&width),
            "unsupported width {width}"
        );
        let nl = width.div_ceil(64);
        assert!(!limbs.is_empty(), "a wide slab needs at least one lane");
        assert!(
            limbs.len().is_multiple_of(nl),
            "{} limbs are not whole lanes: width {width} needs {nl} limbs per lane",
            limbs.len()
        );
        let used = width % 64;
        if used != 0 {
            let tops = limbs[nl - 1..].iter().step_by(nl);
            if let Some(l) = tops.clone().position(|&top| top >> used != 0) {
                panic!("lane {l} carries bits at or above width {width}");
            }
        }
        Self {
            width,
            lanes: limbs.len() / nl,
            chunks: limbs
                .chunks(W::LANES * nl)
                .map(|chunk| BitSlab::ingress(chunk, width))
                .collect(),
        }
    }

    /// Reassembles a wide slab from chunks (the inverse of
    /// [`WideSlab::chunks`], as produced by per-chunk kernels).
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is empty, the chunks disagree on width, or any
    /// chunk but the last holds fewer than [`Word::LANES`] lanes.
    pub fn from_chunks(chunks: Vec<BitSlab<W>>) -> Self {
        assert!(!chunks.is_empty(), "a wide slab needs at least one chunk");
        let width = chunks[0].width();
        let mut lanes = 0;
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.width(), width, "chunk {i} width mismatch");
            assert!(
                chunk.lanes() == W::LANES || i + 1 == chunks.len(),
                "chunk {i} is partial ({} lanes) but not last",
                chunk.lanes()
            );
            lanes += chunk.lanes();
        }
        Self {
            width,
            lanes,
            chunks,
        }
    }

    /// Fills a wide slab with uniformly random lanes, chunk by chunk (the
    /// chunked equivalent of [`BitSlab::random`]).
    ///
    /// # Panics
    ///
    /// Panics on the conditions of [`WideSlab::zero`].
    pub fn random<R: RandomBits + ?Sized>(width: usize, lanes: usize, rng: &mut R) -> Self {
        assert!(lanes >= 1, "a wide slab needs at least one lane");
        let chunks = Self::chunk_sizes(lanes)
            .map(|chunk_lanes| BitSlab::random(width, chunk_lanes, rng))
            .collect();
        Self {
            width,
            lanes,
            chunks,
        }
    }

    fn chunk_sizes(lanes: usize) -> impl Iterator<Item = usize> {
        let full = lanes / W::LANES;
        let rem = lanes % W::LANES;
        std::iter::repeat_n(W::LANES, full).chain((rem > 0).then_some(rem))
    }

    /// The bit width of each lane.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The total number of lanes across all chunks.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lanes per full chunk — [`Word::LANES`] of the slab's word, exposed
    /// so word-generic callers can compute chunk addressing without
    /// naming `W`.
    pub fn lanes_per_chunk(&self) -> usize {
        W::LANES
    }

    /// The per-word chunks, global lane order: chunk `c` holds lanes
    /// `c * W::LANES ..`.
    pub fn chunks(&self) -> &[BitSlab<W>] {
        &self.chunks
    }

    /// Extracts global lane `l` as a [`UBig`].
    ///
    /// # Panics
    ///
    /// Panics if `l >= lanes`.
    pub fn lane(&self, l: usize) -> UBig {
        assert!(
            l < self.lanes,
            "lane {l} out of range for {} lanes",
            self.lanes
        );
        self.chunks[l / W::LANES].lane(l % W::LANES)
    }

    /// Untransposes every lane into `out`, lane-major as
    /// [`WideSlab::from_lane_limbs`] reads them — the slab layout's one way
    /// out. `out` is resized to `lanes * width.div_ceil(64)` limbs, so a
    /// caller that reuses it allocates only when a group outgrows it.
    ///
    /// ```
    /// use bitnum::batch::WideSlab;
    /// use bitnum::UBig;
    /// let slab: WideSlab = WideSlab::from_lanes(&[UBig::from_u128(7, 72), UBig::ones(72)]);
    /// let mut limbs = vec![1u64; 9];
    /// slab.lane_limbs_into(&mut limbs);
    /// assert_eq!(limbs, [7, 0, u64::MAX, 0xff]);
    /// ```
    pub fn lane_limbs_into(&self, out: &mut Vec<u64>) {
        let nl = self.width.div_ceil(64);
        out.resize(self.lanes * nl, 0);
        for (chunk, rows) in self.chunks.iter().zip(out.chunks_mut(W::LANES * nl)) {
            chunk.egress(rows);
        }
    }

    /// Untransposes the wide slab back into one [`UBig`] per lane.
    pub fn to_lanes(&self) -> Vec<UBig> {
        let mut limbs = Vec::new();
        self.lane_limbs_into(&mut limbs);
        split_lanes(&limbs, self.width)
    }
}

impl<W: Word> From<BitSlab<W>> for WideSlab<W> {
    /// Wraps a single ≤one-word slab as a one-chunk wide slab.
    fn from(chunk: BitSlab<W>) -> Self {
        Self {
            width: chunk.width(),
            lanes: chunk.lanes(),
            chunks: vec![chunk],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn transpose_roundtrip_for<W: Word>() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for (width, lanes) in [
            (1usize, 1usize),
            (8, 3),
            (64, 64),
            (65, 17),
            (130, 5),
            (512, W::LANES),
        ] {
            let values: Vec<UBig> = (0..lanes).map(|_| UBig::random(width, &mut rng)).collect();
            let slab = BitSlab::<W>::from_lanes(&values);
            assert_eq!(slab.to_lanes(), values, "width={width} lanes={lanes}");
            for (l, v) in values.iter().enumerate() {
                assert_eq!(&slab.lane(l), v);
            }
        }
    }

    #[test]
    fn transpose_roundtrip() {
        transpose_roundtrip_for::<u64>();
        transpose_roundtrip_for::<W256>();
    }

    #[test]
    fn words_respect_lane_mask() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        let slab = BitSlab::<u64>::random(100, 7, &mut rng);
        assert_eq!(slab.lane_mask(), 0x7f);
        assert!(slab.words().iter().all(|&w| w & !0x7f == 0));
        let mut slab = slab;
        slab.set_word(0, u64::MAX);
        assert_eq!(slab.word(0), 0x7f);
        // Same invariant with the wide word, across limb boundaries.
        let wide = BitSlab::<W256>::random(100, 70, &mut rng);
        let mask = wide.lane_mask();
        assert_eq!(mask.limb(1), (1u64 << 6) - 1);
        assert!(wide.words().iter().all(|&w| (w & !mask).is_zero()));
        let mut wide = wide;
        wide.set_word(0, W256::ONES);
        assert_eq!(wide.word(0), mask);
    }

    fn ripple_matches_scalar_adds_for<W: Word>() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for (width, lanes) in [(64usize, 64usize), (65, W::LANES), (31, 9), (128, 1)] {
            let a = BitSlab::<W>::random(width, lanes, &mut rng);
            let b = BitSlab::<W>::random(width, lanes, &mut rng);
            let mut cin = W::ZERO;
            for li in 0..W::LIMBS {
                cin.set_limb(li, rng.next_u64());
            }
            cin = cin & a.lane_mask();
            let mut sum = BitSlab::<W>::zero(width, lanes);
            let cout = ripple_words(a.words(), b.words(), cin, a.lane_mask(), sum.words_mut());
            for l in 0..lanes {
                let (s, c) = a.lane(l).add_with_carry(&b.lane(l), cin.bit(l));
                assert_eq!(sum.lane(l), s, "lane {l} width {width}");
                assert_eq!(cout.bit(l), c, "cout lane {l}");
            }
        }
    }

    #[test]
    fn ripple_matches_scalar_adds() {
        ripple_matches_scalar_adds_for::<u64>();
        ripple_matches_scalar_adds_for::<W256>();
    }

    #[test]
    #[should_panic(expected = "lanes must be in")]
    fn too_many_lanes_panic() {
        let _ = BitSlab::<u64>::zero(8, 65);
    }

    #[test]
    #[should_panic(expected = "lanes must be in")]
    fn too_many_lanes_panic_w256() {
        let _ = BitSlab::<W256>::zero(8, 257);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "beyond the lane mask")]
    fn unmasked_carry_in_fails_loudly() {
        // The CHANGES.md gotcha, enforced: a carry-in word with bits beyond
        // the lane mask must panic in debug builds, not corrupt lanes.
        let a: BitSlab = BitSlab::zero(8, 3);
        let b: BitSlab = BitSlab::zero(8, 3);
        let mut sum: BitSlab = BitSlab::zero(8, 3);
        let _ = ripple_words(
            a.words(),
            b.words(),
            DefaultWord::ONES,
            a.lane_mask(),
            sum.words_mut(),
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "beyond the lane mask")]
    fn unmasked_high_limb_carry_fails_loudly() {
        // The per-limb generalization of the same gotcha: the stray bit
        // lives in limb 1, beyond anything a u64 mask would see.
        let a = BitSlab::<W256>::zero(8, 3);
        let b = BitSlab::<W256>::zero(8, 3);
        let mut sum = BitSlab::<W256>::zero(8, 3);
        let mut cin = W256::ZERO;
        cin.set_bit(64);
        let _ = ripple_words(a.words(), b.words(), cin, a.lane_mask(), sum.words_mut());
    }

    fn wide_slab_roundtrip_for<W: Word>() {
        let mut rng = Xoshiro256::seed_from_u64(12);
        for lanes in [
            1usize,
            63,
            64,
            65,
            100,
            W::LANES - 1,
            W::LANES,
            W::LANES + 1,
            3 * W::LANES + 8,
        ] {
            let values: Vec<UBig> = (0..lanes).map(|_| UBig::random(40, &mut rng)).collect();
            let slab = WideSlab::<W>::from_lanes(&values);
            assert_eq!(slab.lanes(), lanes);
            assert_eq!(slab.width(), 40);
            assert_eq!(slab.lanes_per_chunk(), W::LANES);
            assert_eq!(slab.chunks().len(), lanes.div_ceil(W::LANES));
            for (i, chunk) in slab.chunks().iter().enumerate() {
                let expect = if i + 1 < slab.chunks().len() {
                    W::LANES
                } else {
                    lanes - i * W::LANES
                };
                assert_eq!(chunk.lanes(), expect, "lanes={lanes} chunk={i}");
            }
            assert_eq!(slab.to_lanes(), values, "lanes={lanes}");
            for (l, v) in values.iter().enumerate() {
                assert_eq!(&slab.lane(l), v);
            }
            // from_chunks is the inverse of chunks().
            let rebuilt = WideSlab::from_chunks(slab.chunks().to_vec());
            assert_eq!(rebuilt, slab);
        }
    }

    #[test]
    fn wide_slab_roundtrip_and_chunking() {
        wide_slab_roundtrip_for::<u64>();
        wide_slab_roundtrip_for::<W256>();
    }

    #[test]
    fn wide_slab_random_matches_chunked_draws() {
        // random() must draw chunk by chunk so sharded reseeding composes.
        let lanes = 2 * DefaultWord::LANES + 2;
        let slab: WideSlab = WideSlab::random(32, lanes, &mut Xoshiro256::seed_from_u64(77));
        let mut rng = Xoshiro256::seed_from_u64(77);
        for chunk in slab.chunks() {
            assert_eq!(chunk, &BitSlab::random(32, chunk.lanes(), &mut rng));
        }
        assert_eq!(WideSlab::<DefaultWord>::zero(32, lanes).lanes(), lanes);
    }

    #[test]
    fn wide_slab_from_single_chunk() {
        let chunk: BitSlab = BitSlab::random(16, 10, &mut Xoshiro256::seed_from_u64(4));
        let wide = WideSlab::from(chunk.clone());
        assert_eq!(wide.lanes(), 10);
        assert_eq!(wide.chunks(), std::slice::from_ref(&chunk));
    }

    #[test]
    #[should_panic(expected = "partial")]
    fn wide_slab_partial_chunk_in_middle_panics() {
        let _ = WideSlab::from_chunks(vec![
            BitSlab::<u64>::zero(8, 10),
            BitSlab::<u64>::zero(8, 64),
        ]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wide_slab_cross_chunk_width_mismatch_panics() {
        // The mismatching lane sits in the second chunk: per-chunk
        // validation alone would miss it.
        let mut values = vec![UBig::zero(8); 64];
        values.push(UBig::zero(16));
        let _ = WideSlab::<u64>::from_lanes(&values);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mixed_width_lanes_panic() {
        let _ = BitSlab::<DefaultWord>::from_lanes(&[UBig::zero(8), UBig::zero(9)]);
    }

    #[test]
    fn transpose64_moves_bit_c_of_row_r_to_bit_r_of_row_c() {
        let mut rng = Xoshiro256::seed_from_u64(30);
        let rows: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
        let mut m = rows;
        transpose64(&mut m);
        for (r, row) in rows.iter().enumerate() {
            for (c, col) in m.iter().enumerate() {
                assert_eq!(row >> c & 1, col >> r & 1, "row {r} bit {c}");
            }
        }
        transpose64(&mut m);
        assert_eq!(m, rows);
    }

    /// Widths with partial and whole top limbs, from one bit to 64 limbs.
    const BOUNDARY_WIDTHS: [usize; 13] =
        [1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300, 4096];

    /// Lane counts on both sides of the small-block threshold, of a 64-lane
    /// block, and of a `W256` and a `W512` chunk.
    fn boundary_lane_counts() -> impl Iterator<Item = usize> {
        let t = TRANSPOSE_MIN_LANES;
        [1, 2, 3, 63, 64, 65, 255, 256, 257, 300, 600]
            .into_iter()
            .chain([t - 1, t, t + 1])
    }

    /// Lane-major limbs of `lanes` lanes: random, all ones, or only the top
    /// bit set, in a rotation that gives lane 0 each kind across widths.
    fn boundary_limbs(width: usize, lanes: usize, rng: &mut Xoshiro256) -> Vec<u64> {
        let mut top = UBig::zero(width);
        top.set_bit(width - 1, true);
        let mut limbs = Vec::new();
        for l in 0..lanes {
            let v = match (l + width) % 5 {
                0 => UBig::ones(width),
                1 => top.clone(),
                _ => UBig::random(width, rng),
            };
            limbs.extend_from_slice(v.limbs());
        }
        limbs
    }

    fn limb_ingest_matches_from_lanes_for<W: Word>() {
        // The slab layout's one way in, against the per-lane gather: every
        // lane reads back exactly, no bit lands beyond a chunk's lane mask,
        // and the UBig constructors build the same slab.
        let mut rng = Xoshiro256::seed_from_u64(31);
        for width in BOUNDARY_WIDTHS {
            for lanes in boundary_lane_counts() {
                let limbs = boundary_limbs(width, lanes, &mut rng);
                let slab = WideSlab::<W>::from_lane_limbs(&limbs, width);
                assert_eq!(slab.lanes(), lanes);
                for (l, want) in limbs.chunks(width.div_ceil(64)).enumerate() {
                    assert_eq!(
                        slab.lane(l).limbs(),
                        want,
                        "width={width} lanes={lanes} lane {l}"
                    );
                }
                for chunk in slab.chunks() {
                    let mask = chunk.lane_mask();
                    assert!(
                        chunk.words().iter().all(|&w| (w & !mask).is_zero()),
                        "width={width} lanes={lanes}: a bit beyond the lane mask"
                    );
                }
                let values = split_lanes(&limbs, width);
                assert_eq!(
                    WideSlab::from_lanes(&values),
                    slab,
                    "width={width} lanes={lanes}"
                );
                if lanes <= W::LANES {
                    assert_eq!(BitSlab::from_lanes(&values), slab.chunks()[0]);
                }
            }
        }
    }

    #[test]
    fn limb_ingest_matches_from_lanes() {
        limb_ingest_matches_from_lanes_for::<u64>();
        limb_ingest_matches_from_lanes_for::<W256>();
        limb_ingest_matches_from_lanes_for::<W512>();
    }

    fn egress_matches_per_lane_gather_for<W: Word>() {
        // The slab layout's one way out, against the per-lane gather, on
        // slabs the ingress did not build and on slabs it did, into one
        // buffer reused dirty across every shape.
        let mut rng = Xoshiro256::seed_from_u64(32);
        let mut out = vec![u64::MAX; 3];
        for width in BOUNDARY_WIDTHS {
            let nl = width.div_ceil(64);
            let mut lane = vec![0; nl];
            for lanes in boundary_lane_counts() {
                let limbs = boundary_limbs(width, lanes, &mut rng);
                for slab in [
                    WideSlab::<W>::random(width, lanes, &mut rng),
                    WideSlab::<W>::from_lane_limbs(&limbs, width),
                ] {
                    slab.lane_limbs_into(&mut out);
                    assert_eq!(out.len(), lanes * nl);
                    for (l, got) in out.chunks(nl).enumerate() {
                        slab.chunks()[l / W::LANES].write_lane_limbs(l % W::LANES, &mut lane);
                        assert_eq!(got, lane, "width={width} lanes={lanes} lane {l}");
                    }
                    assert_eq!(slab.to_lanes(), split_lanes(&out, width));
                }
                assert_eq!(out, limbs, "width={width} lanes={lanes}");
            }
        }
    }

    #[test]
    fn egress_matches_per_lane_gather() {
        egress_matches_per_lane_gather_for::<u64>();
        egress_matches_per_lane_gather_for::<W256>();
        egress_matches_per_lane_gather_for::<W512>();
    }

    fn from_lane_limbs_rejects_bad_shapes_for<W: Word>() {
        let refusal = |limbs: &[u64], width: usize| {
            let err = std::panic::catch_unwind(|| WideSlab::<W>::from_lane_limbs(limbs, width))
                .expect_err("a bad shape must panic");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        };
        // 100 bits need 2 limbs per lane.
        assert!(refusal(&[1], 100).contains("not whole lanes"));
        assert!(refusal(&[0, 0, 1], 100).contains("not whole lanes"));
        // Bit 100 of lane 1 is out of range.
        assert!(refusal(&[0, 0, 0, 1 << 36], 100).contains("lane 1 carries bits"));
        assert!(refusal(&[0], 0).contains("unsupported width"));
        // The largest value fits.
        let max = WideSlab::<W>::from_lane_limbs(&[u64::MAX, (1 << 36) - 1], 100);
        assert_eq!(max.lane(0), UBig::ones(100));
    }

    #[test]
    fn from_lane_limbs_rejects_bad_shapes() {
        from_lane_limbs_rejects_bad_shapes_for::<u64>();
        from_lane_limbs_rejects_bad_shapes_for::<W256>();
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_ingress_panics() {
        let _ = WideSlab::<DefaultWord>::from_lane_limbs(&[], 8);
    }

    #[test]
    fn u64_and_w256_slabs_agree_lane_for_lane() {
        // The word-equivalence anchor at the storage layer: identical lane
        // data, identical ripple results, for lane counts that straddle
        // the u64 chunk boundary and leave partial final chunks.
        let mut rng = Xoshiro256::seed_from_u64(123);
        for lanes in [1usize, 63, 64, 65, 130, 200, 256] {
            let a: Vec<UBig> = (0..lanes).map(|_| UBig::random(50, &mut rng)).collect();
            let b: Vec<UBig> = (0..lanes).map(|_| UBig::random(50, &mut rng)).collect();
            let (wa, wb) = (
                WideSlab::<u64>::from_lanes(&a),
                WideSlab::<u64>::from_lanes(&b),
            );
            let (xa, xb) = (
                WideSlab::<W256>::from_lanes(&a),
                WideSlab::<W256>::from_lanes(&b),
            );
            assert_eq!(wa.to_lanes(), xa.to_lanes());
            for l in 0..lanes {
                assert_eq!(wa.lane(l), xa.lane(l), "lanes={lanes} lane={l}");
            }
            let ripple = |aw: &BitSlab<u64>, bw: &BitSlab<u64>| {
                let mut s = BitSlab::<u64>::zero(50, aw.lanes());
                let c = ripple_words(aw.words(), bw.words(), 0, aw.lane_mask(), s.words_mut());
                (s.to_lanes(), c)
            };
            let ripple_w = |aw: &BitSlab<W256>, bw: &BitSlab<W256>| {
                let mut s = BitSlab::<W256>::zero(50, aw.lanes());
                let c = ripple_words(
                    aw.words(),
                    bw.words(),
                    W256::ZERO,
                    aw.lane_mask(),
                    s.words_mut(),
                );
                (s.to_lanes(), c)
            };
            let narrow: Vec<UBig> = wa
                .chunks()
                .iter()
                .zip(wb.chunks())
                .flat_map(|(ca, cb)| ripple(ca, cb).0)
                .collect();
            let wide: Vec<UBig> = xa
                .chunks()
                .iter()
                .zip(xb.chunks())
                .flat_map(|(ca, cb)| ripple_w(ca, cb).0)
                .collect();
            assert_eq!(narrow, wide, "lanes={lanes}");
        }
    }
}
