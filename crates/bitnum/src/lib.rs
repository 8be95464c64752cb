//! Fixed-width big unsigned integers and bit-level kernels for adder research.
//!
//! This crate is the arithmetic substrate of the VLCSA reproduction. It
//! provides:
//!
//! * [`UBig`] — an arbitrary fixed-width unsigned integer stored on `u64`
//!   limbs, with full add/sub/mul/div support, two's-complement helpers and
//!   bitwise operations. Widths from 1 to 4096 bits are supported; every
//!   value knows its width and operations validate width agreement.
//! * [`pg`] — word-parallel propagate/generate kernels: the `(p, g)` signal
//!   planes of an addition, exact per-bit carries, and carry-chain run
//!   extraction. These are the primitives behind the Monte Carlo error-rate
//!   simulations (Ch. 3 and Ch. 7 of the paper).
//! * [`rng`] — small deterministic PRNGs (SplitMix64, Xoshiro256++) so every
//!   experiment in the workspace is exactly reproducible without an external
//!   RNG dependency.
//! * [`batch`] — bit-sliced (transposed) batch storage: lanes packed one
//!   [`batch::Word`] per bit position, so one word operation evaluates a
//!   gate of every lane's addition at once. The lane word is generic —
//!   `u64` (64 lanes) or the SIMD-friendly [`batch::W256`] (256 lanes,
//!   the [`batch::DefaultWord`]) — and is the substrate of the
//!   workspace's batched throughput engines.
//!
//! # Example
//!
//! ```
//! use bitnum::{UBig, pg};
//!
//! let a = UBig::from_u128(0x0f0f, 64);
//! let b = UBig::from_u128(0x00ff, 64);
//! let (sum, carry_out) = a.overflowing_add(&b);
//! assert_eq!(sum.to_u128(), Some(0x0f0f + 0x00ff));
//! assert!(!carry_out);
//!
//! // Propagate/generate planes of the same addition.
//! let planes = pg::PgPlanes::of(&a, &b);
//! assert_eq!(planes.p.width(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
pub mod batch;
mod error;
pub mod pg;
pub mod rng;
mod ubig;
mod word;

pub use error::ParseUBigError;
pub use ubig::{HexLimbs, UBig};

/// Maximum bit width supported by [`UBig`].
pub const MAX_WIDTH: usize = 4096;
