//! Seeded, pre-generated request streams and their oracle.
//!
//! Every operand and every expected answer is computed here, before any
//! timing starts, from `bitnum::UBig` arithmetic: the timed loops only
//! compare. A run walks its stream whole at least once, so counts derived
//! from it (`cycles_per_add`, stall rates) are exact for a seed.

use bitnum::UBig;
use vlcsa::program::Program;
use vlcsa_serve::AddResponse;
use workloads::dist::{Distribution, OperandSource};

use crate::report::VARIABLE_LATENCY;

/// The families the ADD workloads rotate over: two fixed-latency
/// baselines and the paper's two variable-latency adders.
pub const ADD_FAMILIES: [&str; 4] = ["ripple", "carry-select", "vlcsa1", "vlcsa2"];

/// One request and the answer it must get.
pub struct Req {
    pub engine: &'static str,
    /// Two operands make an `ADD`; more make a `SUM`.
    pub ops: Vec<UBig>,
    pub sum: UBig,
    pub cout: bool,
    /// A fixed-latency family: the reply must report exactly one cycle.
    pub fixed: bool,
}

impl Req {
    /// Whether `r` is the right answer.
    pub fn check(&self, r: &AddResponse) -> bool {
        self.matches(&r.sum, r.cout, r.cycles)
    }

    /// Whether an answer is right: exact sum and carry-out, and a cycle
    /// count the family can produce.
    pub fn matches(&self, sum: &UBig, cout: bool, cycles: u8) -> bool {
        *sum == self.sum && cout == self.cout && (cycles == 1 || (cycles == 2 && !self.fixed))
    }

    pub fn width(&self) -> usize {
        self.ops[0].width()
    }
}

fn is_fixed(engine: &str) -> bool {
    !VARIABLE_LATENCY.contains(&engine)
}

/// `len` Gaussian ADDs at `width`, rotating over [`ADD_FAMILIES`].
pub fn adds(seed: u64, width: usize, len: usize) -> Vec<Req> {
    let mut src = OperandSource::new(Distribution::paper_gaussian(), width, seed);
    (0..len)
        .map(|i| {
            let (a, b) = src.next_pair();
            let (sum, cout) = a.overflowing_add(&b);
            let engine = ADD_FAMILIES[i % ADD_FAMILIES.len()];
            Req {
                engine,
                ops: vec![a, b],
                sum,
                cout,
                fixed: is_fixed(engine),
            }
        })
        .collect()
}

/// `len` Gaussian `SUM`s of `n` operands at `width` on `engine`. The
/// expected sum is the wrapped `UBig` total; the expected carry-out is
/// that of the single carry resolve of the scalar carry-save lowering,
/// which must itself reproduce the total. `None` if it does not.
pub fn sums(
    seed: u64,
    width: usize,
    n: usize,
    engine: &'static str,
    len: usize,
) -> Option<Vec<Req>> {
    let mut src = OperandSource::new(Distribution::paper_gaussian(), width, seed);
    let program = Program::sum(n).expect("operand count within the program limit");
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let ops: Vec<UBig> = (0..n).map(|_| src.next_operand()).collect();
        let total = ops[1..]
            .iter()
            .fold(ops[0].clone(), |acc, x| acc.wrapping_add(x));
        let (x, y) = program.csa_pair_scalar(&ops);
        let (sum, cout) = x.overflowing_add(&y);
        if sum != total {
            return None;
        }
        out.push(Req {
            engine,
            ops,
            sum,
            cout,
            fixed: is_fixed(engine),
        });
    }
    Some(out)
}

/// Cycles observed per stream position (0 = not yet answered). The first
/// observation of each position counts, so the mean over a fully covered
/// stream is exact no matter how many extra passes a run made.
pub struct Coverage {
    first: Vec<u8>,
    /// Later answers whose cycle count differed from the first one.
    pub disagreements: u64,
}

impl Coverage {
    pub fn new(len: usize) -> Self {
        Self {
            first: vec![0; len],
            disagreements: 0,
        }
    }

    pub fn observe(&mut self, idx: usize, cycles: u8) {
        match self.first[idx] {
            0 => self.first[idx] = cycles,
            c if c != cycles => self.disagreements += 1,
            _ => {}
        }
    }

    pub fn merge(&mut self, other: &Coverage) {
        for (a, &b) in self.first.iter_mut().zip(&other.first) {
            if *a == 0 {
                *a = b;
            } else if b != 0 && b != *a {
                self.disagreements += 1;
            }
        }
        self.disagreements += other.disagreements;
    }

    /// Mean cycles over the stream, or `None` if some position was never
    /// answered.
    pub fn cycles_per_add(&self) -> Option<f64> {
        if self.first.contains(&0) {
            return None;
        }
        let total: u64 = self.first.iter().map(|&c| u64::from(c)).sum();
        Some(total as f64 / self.first.len() as f64)
    }
}
