//! Sharded multi-core execution of any [`Engine`] over a [`WideSlab`]
//! workload.
//!
//! The bit-sliced kernels process one lane word (64 or 256 lanes, see
//! [`Word`]) per word operation on one thread; this module scales them
//! across cores. A [`WideSlab`] workload
//! is split into contiguous per-thread shards of whole chunks, each shard
//! runs the engine's `add_batch` chunk by chunk on its own scoped thread
//! (`std::thread::scope` — no extra dependencies, no detached threads),
//! and the per-chunk [`BatchOutcome`]s are merged **in chunk order**, so
//! the merged result is bit-identical whatever the thread count. The
//! determinism is pinned by `one_thread_equals_many` in this module's
//! tests and re-checked over the full small-width input space by the
//! registry-driven exhaustive suite.
//!
//! # Example
//!
//! ```
//! use vlcsa::engine::Registry;
//! use vlcsa::exec::Executor;
//! use workloads::dist::{Distribution, OperandSource};
//!
//! let registry = Registry::for_width(64);
//! let engine = registry.get("carry-select").unwrap();
//! let mut src = OperandSource::new(Distribution::UnsignedUniform, 64, 1);
//! let (a, b) = src.next_wide(200); // 4 chunks of 64/64/64/8 lanes
//! let out = Executor::new(4).run(engine, &a, &b);
//! assert_eq!(out.lanes(), 200);
//! assert_eq!(out.sum.lane(137), a.lane(137).wrapping_add(&b.lane(137)));
//! ```

use bitnum::batch::{DefaultWord, WideSlab, Word};

use crate::batch::BatchOutcome;
use crate::engine::Engine;

/// The merged outcome of one sharded wide addition: exact sums for every
/// lane plus per-chunk carry-out and stall words.
///
/// Lane `l` of the workload lives in chunk `l / W::LANES` at bit
/// `l % W::LANES` of that chunk's words — the same addressing as
/// [`WideSlab`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideOutcome<W: Word = DefaultWord> {
    /// The (always exact) sums.
    pub sum: WideSlab<W>,
    /// Per-chunk carry-out words, chunk 0 first.
    pub cout: Vec<W>,
    /// Per-chunk stall words: bit `l` of word `c` set iff lane
    /// `c * W::LANES + l` took the 2-cycle recovery path.
    pub flagged: Vec<W>,
}

impl<W: Word> WideOutcome<W> {
    /// Number of lanes in the workload.
    pub fn lanes(&self) -> usize {
        self.sum.lanes()
    }

    /// Whether lane `l` carried out of the most significant bit.
    ///
    /// # Panics
    ///
    /// Panics if `l >= lanes()`.
    pub fn cout(&self, l: usize) -> bool {
        assert!(l < self.lanes(), "lane {l} out of range");
        self.cout[l / W::LANES].bit(l % W::LANES)
    }

    /// Cycles lane `l` consumed: 1 (speculation accepted) or 2 (recovery).
    ///
    /// # Panics
    ///
    /// Panics if `l >= lanes()`.
    pub fn cycles(&self, l: usize) -> u8 {
        assert!(l < self.lanes(), "lane {l} out of range");
        1 + self.flagged[l / W::LANES].bit(l % W::LANES) as u8
    }

    /// Number of lanes that stalled for recovery.
    pub fn stalls(&self) -> u64 {
        self.flagged
            .iter()
            .map(|&w| u64::from(w.count_ones()))
            .sum()
    }

    /// Total cycles across all lanes (`lanes + stalls`).
    pub fn total_cycles(&self) -> u64 {
        self.lanes() as u64 + self.stalls()
    }

    /// Fraction of lanes that stalled.
    pub fn stall_rate(&self) -> f64 {
        self.stalls() as f64 / self.lanes() as f64
    }
}

/// A sharded executor: runs any [`Engine`] over [`WideSlab`] workloads
/// with a fixed worker-thread count.
///
/// ```
/// use vlcsa::exec::Executor;
/// assert_eq!(Executor::new(4).threads(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Creates an executor with `threads` worker threads. One thread means
    /// inline execution (no spawning) — by the determinism guarantee, the
    /// result of any other thread count is identical.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "an executor needs at least one thread");
        Self { threads }
    }

    /// An executor sized to the host (`std::thread::available_parallelism`,
    /// falling back to 1 when the host cannot say).
    pub fn host_sized() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, usize::from))
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `engine` over every lane of `a + b`, sharded across the
    /// executor's threads, and merges the per-chunk outcomes in chunk
    /// order. The merged result is deterministic: identical sums, carry
    /// words, stall words and therefore aggregate statistics for every
    /// thread count, including 1.
    ///
    /// Threads are spawned only when there is enough work for more than
    /// one shard: a single-chunk workload (at most one lane word's worth
    /// of lanes) always runs inline on the calling thread. The zero-lane case cannot reach here at all —
    /// [`WideSlab`] holds at least one lane, and a batching window with no
    /// requests drains to no group
    /// ([`LaneBuilder::drain`](crate::group::LaneBuilder::drain) returns
    /// `None`), so an empty window never constructs a slab, never calls
    /// `run`, and never spawns a thread.
    ///
    /// # Panics
    ///
    /// Panics if the slabs disagree with the engine width or with each
    /// other's lane count.
    pub fn run<W: Word>(
        &self,
        engine: &dyn Engine<W>,
        a: &WideSlab<W>,
        b: &WideSlab<W>,
    ) -> WideOutcome<W> {
        assert_eq!(a.width(), engine.width(), "operand slab width mismatch");
        assert_eq!(b.width(), engine.width(), "operand slab width mismatch");
        assert_eq!(a.lanes(), b.lanes(), "operand slab lane count mismatch");
        let chunk_count = a.chunks().len();
        let mut outcomes: Vec<Option<BatchOutcome<W>>> = vec![None; chunk_count];
        let workers = self.threads.min(chunk_count);
        if workers <= 1 {
            for (slot, (ca, cb)) in outcomes.iter_mut().zip(a.chunks().iter().zip(b.chunks())) {
                *slot = Some(engine.add_batch(ca, cb));
            }
        } else {
            // Contiguous shards of whole chunks; each shard fills its own
            // slice of the outcome table, so the merge below reads pure
            // chunk order and never observes scheduling. Shard 0 runs on
            // the calling thread — a serve lane worker contributes its own
            // core instead of parking in `scope` while `threads` children
            // do all the work, so N configured threads spawn N-1.
            let shard = chunk_count.div_ceil(workers);
            let run_shard = |base: usize, slots: &mut [Option<BatchOutcome<W>>]| {
                for (off, slot) in slots.iter_mut().enumerate() {
                    let i = base + off;
                    *slot = Some(engine.add_batch(&a.chunks()[i], &b.chunks()[i]));
                }
            };
            std::thread::scope(|scope| {
                let mut shards = outcomes.chunks_mut(shard).enumerate();
                let first = shards.next().expect("workers > 1 implies chunks > 1");
                for (t, slots) in shards {
                    let base = t * shard;
                    scope.spawn(move || run_shard(base, slots));
                }
                run_shard(0, first.1);
            });
        }
        let mut chunks = Vec::with_capacity(chunk_count);
        let mut cout = Vec::with_capacity(chunk_count);
        let mut flagged = Vec::with_capacity(chunk_count);
        for outcome in outcomes {
            let outcome = outcome.expect("every chunk was assigned to a shard");
            chunks.push(outcome.sum);
            cout.push(outcome.cout);
            flagged.push(outcome.flagged);
        }
        WideOutcome {
            sum: WideSlab::from_chunks(chunks),
            cout,
            flagged,
        }
    }

    /// The contiguous chunk ranges [`Executor::run`] assigns to each
    /// thread for a workload of `chunk_count` chunks — exposed so scaling
    /// harnesses (the `throughput` bench) can time per-shard work with the
    /// exact production partition.
    pub fn shard_ranges(&self, chunk_count: usize) -> Vec<std::ops::Range<usize>> {
        let workers = self.threads.min(chunk_count).max(1);
        let shard = chunk_count.div_ceil(workers);
        (0..workers)
            .map(|t| (t * shard).min(chunk_count)..((t + 1) * shard).min(chunk_count))
            .filter(|r| !r.is_empty())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Registry;
    use workloads::dist::{Distribution, OperandSource};

    #[test]
    fn one_thread_equals_many() {
        // The determinism contract: identical merged outcomes (sums, carry
        // words, stall words — hence all stats) for 1 vs N threads, for
        // every engine, on a workload that does not divide evenly.
        let registry = Registry::for_width(64);
        let mut src = OperandSource::new(Distribution::paper_gaussian(), 64, 42);
        let (a, b) = src.next_wide(250); // chunks of 64/64/64/58
        for engine in registry.engines() {
            let serial = Executor::new(1).run(engine.as_ref(), &a, &b);
            for threads in [2usize, 3, 4, 8, 32] {
                let sharded = Executor::new(threads).run(engine.as_ref(), &a, &b);
                assert_eq!(serial, sharded, "{} at {threads} threads", engine.name());
            }
        }
    }

    #[test]
    fn merged_lanes_are_exact_and_cycles_match_scalar() {
        let registry = Registry::for_width(64);
        let mut src = OperandSource::new(Distribution::paper_gaussian(), 64, 9);
        let (a, b) = src.next_wide(100);
        for engine in registry.engines() {
            let out = Executor::new(3).run(engine.as_ref(), &a, &b);
            assert_eq!(out.lanes(), 100);
            assert_eq!(out.total_cycles(), 100 + out.stalls());
            for l in 0..100 {
                let one = engine.add_one(&a.lane(l), &b.lane(l));
                assert_eq!(out.sum.lane(l), one.sum, "{} lane {l}", engine.name());
                assert_eq!(out.cout(l), one.cout, "{} lane {l}", engine.name());
                assert_eq!(out.cycles(l), one.cycles, "{} lane {l}", engine.name());
            }
        }
    }

    #[test]
    fn more_threads_than_chunks() {
        let registry = Registry::for_width(32);
        let engine = registry.get("vlcsa1").unwrap();
        let mut src = OperandSource::new(Distribution::UnsignedUniform, 32, 2);
        let (a, b) = src.next_wide(10); // a single chunk
        let out = Executor::new(16).run(engine, &a, &b);
        assert_eq!(out.lanes(), 10);
        assert_eq!(out, Executor::new(1).run(engine, &a, &b));
    }

    #[test]
    fn shard_ranges_cover_exactly() {
        for (threads, chunks) in [(1usize, 5usize), (2, 5), (4, 5), (8, 3), (3, 12)] {
            let ranges = Executor::new(threads).shard_ranges(chunks);
            let mut covered = vec![false; chunks];
            for r in &ranges {
                for i in r.clone() {
                    assert!(!covered[i], "chunk {i} covered twice");
                    covered[i] = true;
                }
            }
            assert!(
                covered.iter().all(|&c| c),
                "threads={threads} chunks={chunks}"
            );
            assert!(ranges.len() <= threads);
        }
    }

    #[test]
    fn host_sized_executor_runs() {
        let registry = Registry::for_width(16);
        let engine = registry.get("ripple").unwrap();
        let mut src = OperandSource::new(Distribution::UnsignedUniform, 16, 8);
        let (a, b) = src.next_wide(65);
        let out = Executor::host_sized().run(engine, &a, &b);
        assert_eq!(out.lanes(), 65);
        assert_eq!(out.stalls(), 0);
    }
}
