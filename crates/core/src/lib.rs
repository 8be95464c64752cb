//! Speculative carry select addition and reliable variable-latency adders.
//!
//! This crate implements the contribution of *High Performance Reliable
//! Variable Latency Carry Select Addition* (Du, Rice University, 2011 /
//! DATE 2012):
//!
//! * **SCSA 1** ([`Scsa`]) — the input bits are segmented into ⌈n/k⌉
//!   windows; the carry into each window is *speculated* as the previous
//!   window's group generate (its own carry-in truncated to 0). Each window
//!   is a carry-select structure, so the critical path is a k-bit adder
//!   plus one multiplexer: `O(log k)` instead of `O(log n)` (Ch. 3–4).
//! * **Analytical error model** ([`model`]) — eq. 3.13 plus an exact
//!   window-level Markov model, and the window-size solvers that reproduce
//!   Tables 7.3/7.4.
//! * **VLCSA 1** ([`Vlcsa1`]) — SCSA 1 plus error detection
//!   (`ERR = ∨ P^{i+1}·G^i`, Fig. 5.1) and error recovery (an ⌈n/k⌉-bit
//!   prefix adder over the window group-P/G signals, Fig. 5.2): a reliable
//!   adder with 1-cycle fast path and 2-cycle recovery (Ch. 5).
//! * **SCSA 2 / VLCSA 2** ([`Scsa2`], [`Vlcsa2`]) — the modification for
//!   two's-complement Gaussian (practical) inputs: a second speculative
//!   result selected by the previous window's carry-out *assuming carry-in
//!   1*, plus a second detection signal `ERR1 = ∨ P^i·¬P^{i+1}` that
//!   recognizes MSB-reaching chains as correctable (Ch. 6).
//! * **Gate-level netlists** ([`netlist`]) — the complete datapaths
//!   (window carry-select adders, detection trees, recovery prefix adder,
//!   output steering) whose delay/area the Ch. 7 experiments measure.
//!
//! # Quick start
//!
//! ```
//! use bitnum::UBig;
//! use vlcsa::{Vlcsa1, OverflowMode};
//!
//! // 64-bit VLCSA 1 with the paper's window size for a 0.01% error rate.
//! let adder = Vlcsa1::new(64, 14);
//! let a = UBig::from_u128(0x1234_5678_9abc_def0, 64);
//! let b = UBig::from_u128(0x0fed_cba9_8765_4321, 64);
//! let outcome = adder.add(&a, &b);
//! assert_eq!(outcome.sum, a.wrapping_add(&b)); // always exact
//! assert!(outcome.cycles == 1 || outcome.cycles == 2);
//! # let _ = OverflowMode::Truncate;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod detect;
pub mod engine;
pub mod exec;
pub mod group;
pub mod magnitude;
pub mod model;
pub mod netlist;
pub mod pipeline;
pub mod program;
pub mod route;
mod scsa;
mod scsa2;
mod vlcsa1;
mod vlcsa2;
pub mod window;

pub use batch::{Batch2Spec, BatchOutcome, BatchSpec, WindowPgWords};
pub use engine::{Engine, EngineLookupError, FixedLatency, Registry, VlsaBaseline};
pub use exec::{Executor, WideOutcome};
pub use group::IssueGroup;
pub use program::{Operand, Program, ProgramError, ProgramOutcome};
pub use route::{RouteConfig, Router, AUTO_ENGINE};
pub use scsa::{Scsa, SpecResult, WindowPg};
pub use scsa2::{Scsa2, Spec2Result};
pub use vlcsa1::{AddOutcome, LatencyStats, Vlcsa1};
pub use vlcsa2::Vlcsa2;

/// How the adder treats the carry out of the most significant bit.
///
/// The paper's synthesized adders produce an `n`-bit sum (the carry-out is
/// unused), and Tables 7.3/7.4 are consistent with that accounting; the
/// literal eq. 3.13 counts one extra term corresponding to a wrong
/// carry-out. Both accountings are supported and documented in
/// EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverflowMode {
    /// `n`-bit wrap-around sum; the carry-out is not part of the result.
    #[default]
    Truncate,
    /// The carry-out is part of the result (an `n+1`-bit adder).
    CarryOut,
}
