//! Packing addition requests into homogeneous issue groups.
//!
//! A serving front-end receives a stream of independent requests, each
//! carrying its own operands; the batch kernels want homogeneous
//! [`WideSlab`] issue groups — one engine, one width, as many lanes as
//! arrived. A serve lane already is one `(engine, width)` pair, so its
//! [`LaneBuilder`] is the adapter between the two shapes: requests are
//! `push`ed in arrival order as lane-major limbs, and
//! [`LaneBuilder::drain`] transposes them into an [`IssueGroup`] whose
//! `tags[l]` remembers which request became lane `l`, so whatever routing
//! token the caller attached (a connection handle, a sequence number, a
//! oneshot channel) comes back out aligned with the lane data of
//! [`Executor::run`](crate::exec::Executor::run).
//!
//! The empty-batch edge is explicit: a window with nothing pending drains
//! to `None` — no slab is built, no executor is invoked.
//!
//! # Example
//!
//! ```
//! use bitnum::UBig;
//! use vlcsa::group::LaneBuilder;
//!
//! let mut lane: LaneBuilder<&str> = LaneBuilder::new("ripple", 8);
//! lane.push(UBig::from_u128(1, 8), UBig::from_u128(2, 8), "r0");
//! lane.push_limbs(&[5], &[6], "r1");
//! let group = lane.drain().expect("two pending lanes");
//! assert_eq!(group.engine, "ripple");
//! assert_eq!(group.tags, vec!["r0", "r1"]);
//! assert_eq!(group.a.lane(1).to_u128(), Some(5));
//! assert!(lane.is_empty());
//! ```

use std::marker::PhantomData;

use bitnum::batch::{DefaultWord, WideSlab, Word};
use bitnum::UBig;

/// One homogeneous issue group ready for
/// [`Executor::run`](crate::exec::Executor::run): every lane is the same
/// engine and width, and `tags[l]` is the caller's routing token for lane
/// `l` of the outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssueGroup<T, W: Word = DefaultWord> {
    /// The engine name every lane of this group asked for.
    pub engine: String,
    /// The operand width every lane of this group asked for.
    pub width: usize,
    /// First operands, lane `l` = the `l`-th request pushed.
    pub a: WideSlab<W>,
    /// Second operands, aligned with `a`.
    pub b: WideSlab<W>,
    /// Per-lane routing tokens, aligned with the slabs.
    pub tags: Vec<T>,
}

impl<T, W: Word> IssueGroup<T, W> {
    /// Number of lanes (requests) in the group.
    pub fn lanes(&self) -> usize {
        self.tags.len()
    }
}

/// The batching window of one `(engine, width)` worker lane.
///
/// Pushes append each operand's limbs to a lane-major buffer, and
/// [`LaneBuilder::drain`] moves both buffers into the slab layout with one
/// block transpose each ([`WideSlab::from_lane_limbs`]), sealing at most
/// one [`IssueGroup`]. The buffers are kept across windows, so a lane that
/// keeps its builder allocates only when a group outgrows every earlier
/// one.
///
/// ```
/// use bitnum::UBig;
/// use vlcsa::group::LaneBuilder;
///
/// let mut lane: LaneBuilder<u32> = LaneBuilder::new("vlcsa1", 16);
/// lane.push(UBig::from_u128(40, 16), UBig::from_u128(2, 16), 7);
/// let group = lane.drain().expect("one pending lane");
/// assert_eq!(group.engine, "vlcsa1");
/// assert_eq!(group.tags, vec![7]);
/// assert!(lane.drain().is_none()); // an empty window drains to nothing
/// ```
#[derive(Debug)]
pub struct LaneBuilder<T, W: Word = DefaultWord> {
    engine: String,
    width: usize,
    /// First operands, lane-major: lane `l` is `a[l * nl..(l + 1) * nl]`.
    a: Vec<u64>,
    /// Second operands, aligned with `a`.
    b: Vec<u64>,
    tags: Vec<T>,
    word: PhantomData<fn() -> W>,
}

impl<T, W: Word> LaneBuilder<T, W> {
    /// Creates the empty window of the `(engine, width)` lane.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`bitnum::MAX_WIDTH`].
    pub fn new(engine: impl Into<String>, width: usize) -> Self {
        assert!(
            (1..=bitnum::MAX_WIDTH).contains(&width),
            "unsupported width {width}"
        );
        Self {
            engine: engine.into(),
            width,
            a: Vec::new(),
            b: Vec::new(),
            tags: Vec::new(),
            word: PhantomData,
        }
    }

    /// The engine every request of this lane runs on.
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// The operand width of every request of this lane.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Queues one request. Lane submitters validate width upstream (the
    /// lane was *selected* by width), so a mismatch here is a routing bug.
    ///
    /// # Panics
    ///
    /// Panics if either operand's width is not the lane width.
    pub fn push(&mut self, a: UBig, b: UBig, tag: T) {
        assert_eq!(a.width(), self.width, "operand width off the lane width");
        assert_eq!(b.width(), self.width, "operand width off the lane width");
        self.push_limbs(a.limbs(), b.limbs(), tag);
    }

    /// Queues one request whose operands are raw little-endian limb runs,
    /// with no [`UBig`] built. Mixes freely with [`LaneBuilder::push`];
    /// lane order is arrival order either way.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not exactly `width.div_ceil(64)` limbs.
    /// An operand with bits set at or above the lane width panics at
    /// [`LaneBuilder::drain`], where the transpose checks every lane.
    pub fn push_limbs(&mut self, a: &[u64], b: &[u64], tag: T) {
        let nl = self.width.div_ceil(64);
        assert!(
            a.len() == nl && b.len() == nl,
            "width {} needs {nl} limbs per operand, got {} and {}",
            self.width,
            a.len(),
            b.len()
        );
        self.a.extend_from_slice(a);
        self.b.extend_from_slice(b);
        self.tags.push(tag);
    }

    /// Pending lanes in the open window.
    pub fn lanes(&self) -> usize {
        self.tags.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Transposes the window into its [`IssueGroup`] and empties the
    /// builder, keeping its buffers. An empty window drains to `None` — no
    /// slab, no executor, no thread.
    ///
    /// # Panics
    ///
    /// Panics if a pushed operand has bits set at or above the lane width
    /// ([`WideSlab::from_lane_limbs`]).
    pub fn drain(&mut self) -> Option<IssueGroup<T, W>> {
        if self.tags.is_empty() {
            return None;
        }
        let group = IssueGroup {
            engine: self.engine.clone(),
            width: self.width,
            a: WideSlab::from_lane_limbs(&self.a, self.width),
            b: WideSlab::from_lane_limbs(&self.b, self.width),
            tags: std::mem::take(&mut self.tags),
        };
        self.a.clear();
        self.b.clear();
        Some(group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Registry;
    use crate::exec::Executor;
    use bitnum::batch::W256;
    use bitnum::rng::Xoshiro256;

    #[test]
    fn empty_drain_yields_no_groups() {
        // The 0-requests-at-window-expiry edge: no slabs, no group, and
        // nothing for a worker to run — the executor is never invoked.
        let mut lane: LaneBuilder<u32> = LaneBuilder::new("ripple", 8);
        assert!(lane.is_empty());
        assert_eq!(lane.lanes(), 0);
        assert!(lane.drain().is_none());
        // Draining again is still free, and the builder is reusable.
        assert!(lane.drain().is_none());
        lane.push(UBig::from_u128(1, 8), UBig::from_u128(2, 8), 7);
        assert_eq!(lane.drain().map(|g| g.tags), Some(vec![7]));
        assert!(lane.is_empty());
        assert!(lane.drain().is_none());
    }

    #[test]
    fn buckets_preserve_arrival_order_and_lane_mapping() {
        // 150 requests round-robined over three lanes, two of which share
        // an engine but not a width; the 50-lane groups leave partial
        // 64-lane blocks.
        let mut rng = Xoshiro256::seed_from_u64(21);
        let mut lanes: Vec<LaneBuilder<usize>> = [("ripple", 64), ("vlcsa1", 64), ("ripple", 40)]
            .into_iter()
            .map(|(engine, width)| LaneBuilder::new(engine, width))
            .collect();
        let mut expect: Vec<Vec<(UBig, UBig, usize)>> = vec![Vec::new(); lanes.len()];
        for i in 0..150 {
            let lane = &mut lanes[i % 3];
            let a = UBig::random(lane.width(), &mut rng);
            let b = UBig::random(lane.width(), &mut rng);
            expect[i % 3].push((a.clone(), b.clone(), i));
            lane.push(a, b, i);
        }
        for (lane, expect) in lanes.iter_mut().zip(&expect) {
            assert_eq!(lane.lanes(), 50);
            let group = lane.drain().expect("50 pending lanes");
            assert!(lane.is_empty());
            assert_eq!(
                (group.engine.as_str(), group.width),
                (lane.engine(), lane.width())
            );
            assert_eq!(group.lanes(), 50);
            assert_eq!(group.a.lanes(), 50);
            for (l, (a, b, tag)) in expect.iter().enumerate() {
                assert_eq!(&group.a.lane(l), a, "lane {l}");
                assert_eq!(&group.b.lane(l), b, "lane {l}");
                assert_eq!(group.tags[l], *tag, "lane {l}");
            }
        }
    }

    #[test]
    fn drained_groups_run_through_the_executor() {
        // The end-to-end shape a serving worker uses: drain, resolve the
        // engine, run, and read outcome lane `l` for `tags[l]`.
        let mut rng = Xoshiro256::seed_from_u64(22);
        let mut lanes = [
            LaneBuilder::new("carry-select", 32),
            LaneBuilder::new("vlcsa2", 32),
        ];
        for i in 0..70 {
            let a = UBig::random(32, &mut rng);
            let b = UBig::random(32, &mut rng);
            lanes[i % 2].push(a, b, i);
        }
        let registry = Registry::for_width(32);
        let exec = Executor::new(2);
        for group in lanes.iter_mut().filter_map(LaneBuilder::drain) {
            let engine = registry.lookup(&group.engine).expect("validated name");
            let out = exec.run(engine, &group.a, &group.b);
            assert_eq!(out.lanes(), group.lanes());
            for (l, tag) in group.tags.iter().enumerate() {
                let one = engine.add_one(&group.a.lane(l), &group.b.lane(l));
                assert_eq!(out.sum.lane(l), one.sum, "tag {tag}");
                assert_eq!(out.cycles(l), one.cycles, "tag {tag}");
            }
        }
    }

    #[test]
    fn limb_pushes_mix_with_ubig_pushes_bit_identically() {
        // The binary protocol's limb pushes and the text protocol's UBig
        // pushes land interleaved in the same window; the drained group
        // must be identical to an all-UBig build of the same stream.
        let mut rng = Xoshiro256::seed_from_u64(23);
        for width in [64, 100] {
            let mut mixed: LaneBuilder<usize> = LaneBuilder::new("vlcsa1", width);
            let mut reference: LaneBuilder<usize> = LaneBuilder::new("vlcsa1", width);
            for i in 0..150 {
                let a = UBig::random(width, &mut rng);
                let b = UBig::random(width, &mut rng);
                if i % 2 == 0 {
                    mixed.push_limbs(a.limbs(), b.limbs(), i);
                } else {
                    mixed.push(a.clone(), b.clone(), i);
                }
                reference.push(a, b, i);
            }
            assert_eq!(mixed.drain(), reference.drain(), "width {width}");
        }
    }

    #[test]
    #[should_panic(expected = "off the lane width")]
    fn mismatched_operand_widths_panic() {
        LaneBuilder::<(), bitnum::batch::DefaultWord>::new("ripple", 8).push(
            UBig::zero(16),
            UBig::zero(8),
            (),
        );
    }

    #[test]
    fn push_limbs_rejects_bad_shapes() {
        let refused = |push: &dyn Fn(&mut LaneBuilder<()>)| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut lane: LaneBuilder<()> = LaneBuilder::new("ripple", 100);
                push(&mut lane);
                lane.drain()
            }))
            .is_err()
        };
        // 100 bits need 2 limbs per operand.
        assert!(refused(&|lane| lane.push_limbs(&[1], &[0, 0], ())));
        assert!(refused(&|lane| lane.push_limbs(&[0, 0], &[0, 0, 0], ())));
        // Bit 100 is out of range; the drain's transpose refuses it.
        assert!(refused(&|lane| lane.push_limbs(&[0, 0], &[0, 1 << 36], ())));
        assert!(!refused(&|lane| lane.push_limbs(
            &[u64::MAX, (1 << 36) - 1],
            &[0, 0],
            ()
        )));
    }

    fn recycled_builder_matches_fresh_build_for<W: Word>() {
        // One builder reused across groups of 300, 5 and 70 lanes, the
        // first all ones: every group equals a fresh build of its own
        // lanes, so no stale bit survives from a larger earlier group, and
        // no bit lands beyond a chunk's lane mask.
        let mut rng = Xoshiro256::seed_from_u64(24);
        let width = 100;
        let mut lane: LaneBuilder<usize, W> = LaneBuilder::new("vlcsa2", width);
        for (window, lanes) in [300usize, 5, 70].into_iter().enumerate() {
            let values: Vec<(UBig, UBig)> = (0..lanes)
                .map(|_| match window {
                    0 => (UBig::ones(width), UBig::ones(width)),
                    _ => (UBig::random(width, &mut rng), UBig::random(width, &mut rng)),
                })
                .collect();
            for (i, (a, b)) in values.iter().enumerate() {
                if i % 3 == 0 {
                    lane.push_limbs(a.limbs(), b.limbs(), i);
                } else {
                    lane.push(a.clone(), b.clone(), i);
                }
            }
            let group = lane.drain().expect("pending lanes");
            let (a, b): (Vec<UBig>, Vec<UBig>) = values.into_iter().unzip();
            assert_eq!(group.a, WideSlab::from_lanes(&a), "window {window}");
            assert_eq!(group.b, WideSlab::from_lanes(&b), "window {window}");
            assert_eq!(group.tags, (0..lanes).collect::<Vec<_>>());
            for chunk in group.a.chunks().iter().chain(group.b.chunks()) {
                let mask = chunk.lane_mask();
                assert!(chunk.words().iter().all(|&w| (w & !mask).is_zero()));
            }
        }
    }

    #[test]
    fn recycled_builder_matches_fresh_build() {
        recycled_builder_matches_fresh_build_for::<u64>();
        recycled_builder_matches_fresh_build_for::<W256>();
    }

    #[test]
    fn lane_builder_groups_run_exactly() {
        let mut lane: LaneBuilder<u32> = LaneBuilder::new("ripple", 16);
        for i in 0..5u32 {
            lane.push(
                UBig::from_u128(u128::from(i), 16),
                UBig::from_u128(u128::from(i) * 2, 16),
                i,
            );
        }
        let group = lane.drain().unwrap();
        let registry = Registry::for_width(16);
        let out = Executor::new(1).run(registry.get("ripple").unwrap(), &group.a, &group.b);
        for (l, tag) in group.tags.iter().enumerate() {
            assert_eq!(out.sum.lane(l).to_u128(), Some(u128::from(*tag) * 3));
        }
    }

    #[test]
    #[should_panic(expected = "off the lane width")]
    fn lane_builder_rejects_off_width_operands() {
        LaneBuilder::<(), bitnum::batch::DefaultWord>::new("ripple", 8).push(
            UBig::zero(8),
            UBig::zero(16),
            (),
        );
    }
}
