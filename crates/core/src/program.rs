//! Dataflow add-programs: a chain/DAG of additions over named temporaries,
//! reduced to a **single** carry-resolve.
//!
//! One served request today is one addition, so a client computing
//! `a+b+c+...+h` pays the round-trip, the batching window and a full carry
//! propagation once per operand. A [`Program`] lets one request carry the
//! whole computation: a list of steps, each adding two operands (an input
//! `iK` or an earlier temporary `tK`), whose last temporary is the result
//! — the shapes [`Program::sum`] and `workloads::chains` model, as a
//! first-class value the serve protocol can ship.
//!
//! Because every step is an addition, the result is a nonnegative integer
//! combination of the inputs (mod 2<sup>width</sup>):
//! `result ≡ Σ cₖ·iₖ`. The execution paths exploit that algebra:
//!
//! * [`Program::run_steps`] — the baseline: one sharded
//!   [`Executor::run`] per step, i.e. one carry-resolve per step, with
//!   per-lane sequential cycle accounting (run this way,
//!   [`Program::sum`]`(n)` is the linear fold: `n - 1` resolves);
//! * [`Program::run_csa`] — the fast path: each `cₖ·iₖ` is decomposed
//!   into shifted addends (`iₖ << j` for every set bit `j` of `cₖ`), the
//!   whole addend list collapses through the bit-sliced Wallace tree
//!   ([`adders::batch::reduce_csa`]) to two slabs, and **one** executor
//!   run resolves the only carry chain of the entire program;
//! * [`Program::eval_scalar`] / [`Program::csa_pair_scalar`] — the
//!   scalar fold reference and the scalar carry-save pair the serve
//!   front-end submits as a single issue-group lane.
//!
//! # Example
//!
//! ```
//! use bitnum::UBig;
//! use vlcsa::program::Program;
//!
//! // (i0 + i1) + (t0 + i2): a 3-input chain with a reused temporary.
//! let program = Program::from_spec("i0+i1,t0+t0,t1+i2", 3).unwrap();
//! let inputs: Vec<UBig> = [10u128, 20, 3]
//!     .iter()
//!     .map(|&v| UBig::from_u128(v, 16))
//!     .collect();
//! assert_eq!(program.eval_scalar(&inputs).to_u128(), Some(63)); // 2*(10+20)+3
//! let (x, y) = program.csa_pair_scalar(&inputs);
//! assert_eq!(x.wrapping_add(&y).to_u128(), Some(63)); // one resolve left
//! ```

use std::fmt;

use adders::batch::reduce_csa;
use bitnum::batch::{BitSlab, DefaultWord, WideSlab, Word};
use bitnum::UBig;

use crate::engine::Engine;
use crate::exec::{Executor, WideOutcome};

/// Most inputs a [`Program`] may name — bounds the wire format and the
/// expanded addend count (see [`Program::run_csa`]).
pub const MAX_PROGRAM_INPUTS: usize = 64;

/// Most steps a [`Program`] may hold. Together with
/// [`MAX_PROGRAM_INPUTS`] this caps every coefficient at
/// 2<sup>[`MAX_PROGRAM_STEPS`]</sup>, so coefficients fit a `u128` and the
/// shifted-addend expansion stays small.
pub const MAX_PROGRAM_STEPS: usize = 64;

/// One operand of a program step: a request input or an earlier step's
/// temporary.
///
/// ```
/// use vlcsa::program::Operand;
/// assert_eq!(Operand::Input(3).to_string(), "i3");
/// assert_eq!(Operand::Temp(0).to_string(), "t0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The `K`-th request input (`iK` in spec syntax).
    Input(usize),
    /// The `K`-th step's result (`tK` in spec syntax; only earlier steps
    /// may be named).
    Temp(usize),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Input(k) => write!(f, "i{k}"),
            Operand::Temp(k) => write!(f, "t{k}"),
        }
    }
}

/// A malformed program: bad shape or bad spec syntax — see
/// [`Program::new`], [`Program::push`] and [`Program::from_spec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Zero inputs, or more than [`MAX_PROGRAM_INPUTS`].
    BadInputCount(usize),
    /// More steps than [`MAX_PROGRAM_STEPS`].
    TooManySteps,
    /// A step names an input or temporary that does not exist (yet).
    OperandOutOfRange(Operand),
    /// A spec token is not `iK`, `tK`, or a `+`-joined pair of them.
    BadSpecToken(String),
    /// The spec string has no steps.
    EmptySpec,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BadInputCount(n) => {
                write!(f, "program input count {n} not in 1..={MAX_PROGRAM_INPUTS}")
            }
            ProgramError::TooManySteps => {
                write!(f, "program exceeds {MAX_PROGRAM_STEPS} steps")
            }
            ProgramError::OperandOutOfRange(op) => {
                write!(f, "operand {op} is not defined at its use site")
            }
            ProgramError::BadSpecToken(t) => write!(f, "bad program spec token `{t}`"),
            ProgramError::EmptySpec => write!(f, "empty program spec"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A dataflow program: `inputs` named inputs and a list of add-steps, each
/// defining the next temporary; the last temporary (or input 0 for a
/// step-less program) is the result. See the [module docs](self) for the
/// execution paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    inputs: usize,
    steps: Vec<(Operand, Operand)>,
}

impl Program {
    /// Creates an empty program over `inputs` inputs (result: input 0
    /// until a step is pushed).
    ///
    /// ```
    /// use vlcsa::program::{Operand, Program};
    /// let mut p = Program::new(2).unwrap();
    /// let t0 = p.push(Operand::Input(0), Operand::Input(1)).unwrap();
    /// assert_eq!(t0, Operand::Temp(0));
    /// assert_eq!(p.spec(), "i0+i1");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::BadInputCount`] unless
    /// `1 <= inputs <= MAX_PROGRAM_INPUTS`.
    pub fn new(inputs: usize) -> Result<Self, ProgramError> {
        if !(1..=MAX_PROGRAM_INPUTS).contains(&inputs) {
            return Err(ProgramError::BadInputCount(inputs));
        }
        Ok(Self {
            inputs,
            steps: Vec::new(),
        })
    }

    /// Appends the step `x + y`, returning the temporary it defines.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::OperandOutOfRange`] if an operand names a
    /// missing input or a not-yet-defined temporary, and
    /// [`ProgramError::TooManySteps`] past [`MAX_PROGRAM_STEPS`].
    pub fn push(&mut self, x: Operand, y: Operand) -> Result<Operand, ProgramError> {
        if self.steps.len() >= MAX_PROGRAM_STEPS {
            return Err(ProgramError::TooManySteps);
        }
        for op in [x, y] {
            let defined = match op {
                Operand::Input(k) => k < self.inputs,
                Operand::Temp(k) => k < self.steps.len(),
            };
            if !defined {
                return Err(ProgramError::OperandOutOfRange(op));
            }
        }
        self.steps.push((x, y));
        Ok(Operand::Temp(self.steps.len() - 1))
    }

    /// The left-fold sum program over `n` inputs:
    /// `t0 = i0+i1, t1 = t0+i2, …` — what a `SUM` request means. A single
    /// input yields the step-less identity program.
    ///
    /// ```
    /// use vlcsa::program::Program;
    /// assert_eq!(Program::sum(4).unwrap().spec(), "i0+i1,t0+i2,t1+i3");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::BadInputCount`] unless
    /// `1 <= n <= MAX_PROGRAM_INPUTS`.
    pub fn sum(n: usize) -> Result<Self, ProgramError> {
        let mut p = Self::new(n)?;
        if n >= 2 {
            let mut acc = p.push(Operand::Input(0), Operand::Input(1))?;
            for k in 2..n {
                acc = p.push(acc, Operand::Input(k))?;
            }
        }
        Ok(p)
    }

    /// Parses the wire spec syntax: comma-separated steps, each
    /// `<op>+<op>` with operands `iK` (input) or `tK` (earlier step) —
    /// `"i0+i1,t0+i2"` is [`Program::sum`]`(3)`.
    ///
    /// ```
    /// use vlcsa::program::Program;
    /// let p = Program::from_spec("i0+i0,t0+t0", 1).unwrap();
    /// assert_eq!(p.spec(), "i0+i0,t0+t0"); // 4·i0, round-trips
    /// assert!(Program::from_spec("t0+i0", 1).is_err()); // forward reference
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] describing the first offense: bad input
    /// count, empty spec, malformed token, forward/out-of-range operand,
    /// or too many steps.
    pub fn from_spec(spec: &str, inputs: usize) -> Result<Self, ProgramError> {
        let mut p = Self::new(inputs)?;
        if spec.is_empty() {
            return Err(ProgramError::EmptySpec);
        }
        for step in spec.split(',') {
            let (x, y) = step
                .split_once('+')
                .ok_or_else(|| ProgramError::BadSpecToken(step.to_string()))?;
            p.push(parse_operand(x)?, parse_operand(y)?)?;
        }
        Ok(p)
    }

    /// The spec-syntax rendering of this program (empty for a step-less
    /// program); [`Program::from_spec`] round-trips it.
    pub fn spec(&self) -> String {
        self.steps
            .iter()
            .map(|(x, y)| format!("{x}+{y}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Number of inputs the program names.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// The add-steps, in definition order.
    pub fn steps(&self) -> &[(Operand, Operand)] {
        &self.steps
    }

    /// The result operand: the last temporary, or input 0 when no step
    /// exists.
    pub fn result(&self) -> Operand {
        match self.steps.len() {
            0 => Operand::Input(0),
            n => Operand::Temp(n - 1),
        }
    }

    /// How many times each input contributes to the result:
    /// `result ≡ Σ coefficients[k]·input[k] (mod 2^width)`. Bounded by
    /// 2<sup>[`MAX_PROGRAM_STEPS`]</sup>, so `u128` never overflows.
    ///
    /// ```
    /// use vlcsa::program::Program;
    /// let p = Program::from_spec("i0+i1,t0+t0,t1+i0", 2).unwrap();
    /// assert_eq!(p.coefficients(), vec![3, 2]); // 2(i0+i1)+i0 = 3·i0 + 2·i1
    /// ```
    pub fn coefficients(&self) -> Vec<u128> {
        // Row `s` of `temps` holds temporary `s`'s coefficients.
        let n = self.inputs;
        let mut temps = vec![0u128; self.steps.len() * n];
        for (s, &(x, y)) in self.steps.iter().enumerate() {
            let (done, row) = temps.split_at_mut(s * n);
            for op in [x, y] {
                match op {
                    Operand::Input(k) => row[k] += 1,
                    Operand::Temp(k) => {
                        for (ck, tk) in row[..n].iter_mut().zip(&done[k * n..(k + 1) * n]) {
                            *ck += tk;
                        }
                    }
                }
            }
        }
        match self.result() {
            Operand::Input(k) => {
                let mut unit = vec![0u128; n];
                unit[k] = 1;
                unit
            }
            Operand::Temp(k) => temps[k * n..(k + 1) * n].to_vec(),
        }
    }

    /// Evaluates the program by folding every step with
    /// [`UBig::wrapping_add`] — the scalar reference every other path must
    /// match bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match [`Program::inputs`] in count or
    /// the operands disagree in width.
    pub fn eval_scalar(&self, inputs: &[UBig]) -> UBig {
        assert_eq!(inputs.len(), self.inputs, "program input count mismatch");
        let width = inputs[0].width();
        for i in inputs {
            assert_eq!(i.width(), width, "program input width mismatch");
        }
        let mut temps: Vec<UBig> = Vec::with_capacity(self.steps.len());
        for &(x, y) in &self.steps {
            let pick = |op: Operand, temps: &[UBig]| match op {
                Operand::Input(k) => inputs[k].clone(),
                Operand::Temp(k) => temps[k].clone(),
            };
            let sum = pick(x, &temps).wrapping_add(&pick(y, &temps));
            temps.push(sum);
        }
        match self.result() {
            Operand::Input(k) => inputs[k].clone(),
            Operand::Temp(k) => temps[k].clone(),
        }
    }

    /// Reduces the whole program to one scalar carry-save pair `(x, y)`
    /// with `x + y ≡ result (mod 2^width)` — the pair the serve front-end
    /// submits as a **single** issue-group lane, so the one carry-resolve
    /// happens inside whichever engine the request named.
    ///
    /// The pair is bit for bit what
    /// [`reduce_csa_one`](adders::batch::reduce_csa_one) makes of the
    /// shifted-addend expansion — one addend `iₖ << j` per set bit `j <
    /// width` of each coefficient `cₖ`, inputs in order, bits ascending,
    /// and one zero addend if none — through the same 3:2 Wallace
    /// levels, computed here over one flat limb buffer that every level
    /// rewrites in place. The reply's `cout` and `cycles` depend on the
    /// pair itself, not only on its sum.
    ///
    /// # Panics
    ///
    /// As [`Program::eval_scalar`].
    pub fn csa_pair_scalar(&self, inputs: &[UBig]) -> (UBig, UBig) {
        assert_eq!(inputs.len(), self.inputs, "program input count mismatch");
        let width = inputs[0].width();
        for i in inputs {
            assert_eq!(i.width(), width, "program input width mismatch");
        }
        let nl = width.div_ceil(64);
        let top = u64::MAX >> (nl * 64 - width);
        let coefficients = self.coefficients();
        let addends: u32 = coefficients.iter().map(|c| c.count_ones()).sum();
        // Addend `a` is limbs `a * nl..(a + 1) * nl`.
        let mut buf: Vec<u64> = Vec::with_capacity(addends.max(1) as usize * nl);
        for (input, c) in inputs.iter().zip(coefficients) {
            let mut bits = c;
            while bits != 0 && (bits.trailing_zeros() as usize) < width {
                push_shifted(&mut buf, input.limbs(), bits.trailing_zeros() as usize, top);
                bits &= bits - 1;
            }
        }
        if buf.is_empty() {
            buf.resize(nl, 0);
        }
        let mut count = buf.len() / nl;
        while count > 2 {
            // Triple `t` (addends 3t..3t+3) becomes sum 2t and carry
            // 2t + 1. Each limb is read before it is written, and no
            // output slot lies past the triple being read, so the level
            // rewrites the buffer in place.
            let triples = count / 3;
            for t in 0..triples {
                let mut spill = 0u64;
                for l in 0..nl {
                    let [a, b, c] = [0, 1, 2].map(|i| buf[(3 * t + i) * nl + l]);
                    let maj = (a & b) | (b & c) | (a & c);
                    buf[2 * t * nl + l] = a ^ b ^ c;
                    buf[(2 * t + 1) * nl + l] = maj << 1 | spill;
                    spill = maj >> 63;
                }
                buf[(2 * t + 2) * nl - 1] &= top;
            }
            // Leftover addends pass through, after the triples' outputs.
            buf.copy_within(3 * triples * nl..count * nl, 2 * triples * nl);
            count -= triples;
        }
        let x = UBig::from_limbs(&buf[..nl], width);
        let y = if count == 2 {
            UBig::from_limbs(&buf[nl..2 * nl], width)
        } else {
            UBig::zero(width)
        };
        (x, y)
    }

    /// Executes the program over wide workloads with **one carry-resolve
    /// for all lanes**: per chunk, the shifted-addend expansion collapses
    /// through the bit-sliced Wallace tree to two slabs, and a single
    /// [`Executor::run`] on `engine` resolves the only carry chain. The
    /// returned outcome's per-lane cycles are that one resolve's cycles.
    ///
    /// ```
    /// use bitnum::batch::WideSlab;
    /// use bitnum::UBig;
    /// use vlcsa::engine::Registry;
    /// use vlcsa::exec::Executor;
    /// use vlcsa::program::Program;
    ///
    /// let program = Program::sum(3).unwrap();
    /// let registry = Registry::for_width(16);
    /// let ops: Vec<WideSlab> = (1..=3)
    ///     .map(|v| WideSlab::from_lanes(&[UBig::from_u128(v, 16)]))
    ///     .collect();
    /// let out = program.run_csa(
    ///     registry.get("carry-select").unwrap(),
    ///     &Executor::new(1),
    ///     &ops,
    /// );
    /// assert_eq!(out.sum.lane(0).to_u128(), Some(6));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the input count, widths or lane counts disagree with the
    /// program or the engine.
    pub fn run_csa<W: Word>(
        &self,
        engine: &dyn Engine<W>,
        exec: &Executor,
        inputs: &[WideSlab<W>],
    ) -> WideOutcome<W> {
        self.check_wide(engine.width(), inputs);
        let coefficients = self.coefficients();
        let width = inputs[0].width();
        let chunk_count = inputs[0].chunks().len();
        let mut x_chunks = Vec::with_capacity(chunk_count);
        let mut y_chunks = Vec::with_capacity(chunk_count);
        for c in 0..chunk_count {
            let mut addends: Vec<BitSlab<W>> = Vec::new();
            for (input, &coef) in inputs.iter().zip(&coefficients) {
                let chunk = &input.chunks()[c];
                for j in 0..width.min(128) {
                    if coef >> j & 1 == 1 {
                        addends.push(shifted_chunk(chunk, j));
                    }
                }
            }
            if addends.is_empty() {
                addends.push(BitSlab::zero(width, inputs[0].chunks()[c].lanes()));
            }
            let (x, y) = reduce_csa(&addends);
            x_chunks.push(x);
            y_chunks.push(y);
        }
        exec.run(
            engine,
            &WideSlab::from_chunks(x_chunks),
            &WideSlab::from_chunks(y_chunks),
        )
    }

    /// Executes the program step by step — one sharded [`Executor::run`]
    /// (one carry-resolve) **per step** — with sequential per-lane cycle
    /// accounting: lane `l` costs the sum over steps of that step's 1 or 2
    /// cycles, so [`Program::sum`] runs as the linear fold of its
    /// operands. The baseline [`Program::run_csa`] is measured against.
    ///
    /// # Panics
    ///
    /// As [`Program::run_csa`].
    pub fn run_steps<W: Word>(
        &self,
        engine: &dyn Engine<W>,
        exec: &Executor,
        inputs: &[WideSlab<W>],
    ) -> ProgramOutcome<W> {
        self.check_wide(engine.width(), inputs);
        let lanes = inputs[0].lanes();
        let mut cycles = vec![0u64; lanes];
        let mut temps: Vec<WideSlab<W>> = Vec::with_capacity(self.steps.len());
        for &(x, y) in &self.steps {
            let pick = |op: Operand, temps: &[WideSlab<W>]| match op {
                Operand::Input(k) => inputs[k].clone(),
                Operand::Temp(k) => temps[k].clone(),
            };
            let out = exec.run(engine, &pick(x, &temps), &pick(y, &temps));
            for (l, c) in cycles.iter_mut().enumerate() {
                *c += u64::from(out.cycles(l));
            }
            temps.push(out.sum);
        }
        let sum = match self.result() {
            Operand::Input(k) => inputs[k].clone(),
            Operand::Temp(k) => temps[k].clone(),
        };
        ProgramOutcome {
            sum,
            cycles,
            resolves: self.steps.len() as u64,
        }
    }

    fn check_wide<W: Word>(&self, engine_width: usize, inputs: &[WideSlab<W>]) {
        assert_eq!(inputs.len(), self.inputs, "program input count mismatch");
        let (width, lanes) = (inputs[0].width(), inputs[0].lanes());
        assert_eq!(width, engine_width, "program width disagrees with engine");
        for i in inputs {
            assert_eq!(i.width(), width, "program input width mismatch");
            assert_eq!(i.lanes(), lanes, "program input lane count mismatch");
        }
    }
}

fn parse_operand(token: &str) -> Result<Operand, ProgramError> {
    let bad = || ProgramError::BadSpecToken(token.to_string());
    let idx = |s: &str| s.parse::<usize>().map_err(|_| bad());
    match token.split_at_checked(1) {
        Some(("i", rest)) => Ok(Operand::Input(idx(rest)?)),
        Some(("t", rest)) => Ok(Operand::Temp(idx(rest)?)),
        _ => Err(bad()),
    }
}

/// Appends `limbs << shift` (`shift` below the width), masked by `top`,
/// to the flat addend buffer.
fn push_shifted(buf: &mut Vec<u64>, limbs: &[u64], shift: usize, top: u64) {
    let (q, r) = (shift / 64, shift % 64);
    let start = buf.len();
    buf.resize(start + limbs.len(), 0);
    let out = &mut buf[start..];
    for l in q..limbs.len() {
        let spill = if l > q && r > 0 {
            limbs[l - q - 1] >> (64 - r)
        } else {
            0
        };
        out[l] = limbs[l - q] << r | spill;
    }
    out[limbs.len() - 1] &= top;
}

fn shifted_chunk<W: Word>(chunk: &BitSlab<W>, k: usize) -> BitSlab<W> {
    let mut out = BitSlab::zero(chunk.width(), chunk.lanes());
    for i in k..chunk.width() {
        out.set_word(i, chunk.word(i - k));
    }
    out
}

/// The outcome of a step-by-step program execution
/// ([`Program::run_steps`]): wrapped result lanes plus sequential cycle
/// accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramOutcome<W: Word = DefaultWord> {
    /// The result lanes (always the exact wrapped program value).
    pub sum: WideSlab<W>,
    /// Per-lane total cycles across every step.
    cycles: Vec<u64>,
    /// Carry-resolves performed (= the step count).
    pub resolves: u64,
}

impl<W: Word> ProgramOutcome<W> {
    /// Number of lanes in the workload.
    pub fn lanes(&self) -> usize {
        self.sum.lanes()
    }

    /// Total cycles lane `l` consumed across all steps.
    ///
    /// # Panics
    ///
    /// Panics if `l >= lanes()`.
    pub fn cycles(&self, l: usize) -> u64 {
        self.cycles[l]
    }

    /// Total cycles across all lanes and steps.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Registry;
    use bitnum::rng::{RandomBits, Xoshiro256};
    use workloads::dist::{Distribution, OperandSource};

    fn random_program(rng: &mut Xoshiro256, inputs: usize, steps: usize) -> Program {
        let mut p = Program::new(inputs).unwrap();
        for s in 0..steps {
            let draw = |rng: &mut Xoshiro256, defined: usize| {
                let pool = inputs + defined;
                let pick = (rng.next_u64() % pool as u64) as usize;
                if pick < inputs {
                    Operand::Input(pick)
                } else {
                    Operand::Temp(pick - inputs)
                }
            };
            let (x, y) = (draw(rng, s), draw(rng, s));
            p.push(x, y).unwrap();
        }
        p
    }

    #[test]
    fn spec_round_trips_and_rejects_garbage() {
        for spec in ["i0+i1", "i0+i1,t0+i2,t1+t1", "i0+i0"] {
            let p = Program::from_spec(spec, 3).unwrap();
            assert_eq!(p.spec(), spec);
            assert_eq!(Program::from_spec(&p.spec(), 3).unwrap(), p);
        }
        for (spec, inputs) in [
            ("", 2),
            ("i0", 2),
            ("i0+", 2),
            ("+i0", 2),
            ("i0+i2", 2),
            ("t0+i0", 2),
            ("i0+t5", 2),
            ("x0+i1", 2),
            ("i0+i1,", 2),
            ("i-1+i0", 2),
            ("i0+i1", 0),
            ("i0+i1", MAX_PROGRAM_INPUTS + 1),
        ] {
            assert!(
                Program::from_spec(spec, inputs).is_err(),
                "accepted `{spec}` with {inputs} inputs"
            );
        }
        // Step cap: a chain one past MAX_PROGRAM_STEPS.
        let long: Vec<String> = (0..=MAX_PROGRAM_STEPS)
            .map(|s| {
                if s == 0 {
                    "i0+i0".into()
                } else {
                    format!("t{}+t{}", s - 1, s - 1)
                }
            })
            .collect();
        assert_eq!(
            Program::from_spec(&long.join(","), 1),
            Err(ProgramError::TooManySteps)
        );
    }

    #[test]
    fn sum_program_is_the_fold() {
        let mut src = OperandSource::new(Distribution::UnsignedUniform, 48, 4);
        for n in [1usize, 2, 3, 8, 64] {
            let p = Program::sum(n).unwrap();
            assert_eq!(p.coefficients(), vec![1u128; n]);
            let ops: Vec<UBig> = (0..n).map(|_| src.next_operand()).collect();
            let expect = ops[1..]
                .iter()
                .fold(ops[0].clone(), |acc, o| acc.wrapping_add(o));
            assert_eq!(p.eval_scalar(&ops), expect, "n={n}");
            let (x, y) = p.csa_pair_scalar(&ops);
            assert_eq!(x.wrapping_add(&y), expect, "n={n}");
        }
    }

    #[test]
    fn random_dags_agree_on_every_path() {
        // Scalar fold == scalar CSA pair == batched one-resolve executor
        // path == step-by-step executor path, on random DAGs with reused
        // temporaries, for every registry engine family.
        let mut rng = Xoshiro256::seed_from_u64(0xDA6);
        for width in [8usize, 33, 64] {
            let registry = Registry::for_width(width);
            let exec = Executor::new(2);
            for case in 0..6 {
                let inputs = 1 + (rng.next_u64() % 6) as usize;
                let steps = (rng.next_u64() % 9) as usize;
                let p = random_program(&mut rng, inputs, steps);
                let lanes = 1 + (rng.next_u64() % 130) as usize;
                let mut src = OperandSource::new(Distribution::paper_gaussian(), width, case ^ 77);
                let wide: Vec<WideSlab> = (0..inputs)
                    .map(|_| {
                        let ops: Vec<UBig> = (0..lanes).map(|_| src.next_operand()).collect();
                        WideSlab::from_lanes(&ops)
                    })
                    .collect();
                for engine in registry.engines() {
                    let csa = p.run_csa(engine.as_ref(), &exec, &wide);
                    let stepped = p.run_steps(engine.as_ref(), &exec, &wide);
                    assert_eq!(stepped.resolves, steps as u64);
                    for l in 0..lanes {
                        let ops: Vec<UBig> = wide.iter().map(|w| w.lane(l)).collect();
                        let expect = p.eval_scalar(&ops);
                        assert_eq!(
                            csa.sum.lane(l),
                            expect,
                            "{} csa width={width} case={case} lane={l}",
                            engine.name()
                        );
                        assert_eq!(
                            stepped.sum.lane(l),
                            expect,
                            "{} steps width={width} case={case} lane={l}",
                            engine.name()
                        );
                        let (x, y) = p.csa_pair_scalar(&ops);
                        assert_eq!(x.wrapping_add(&y), expect);
                        // The one resolve is the engine resolving (x, y):
                        // cycles must match the scalar engine on the pair.
                        assert_eq!(
                            u64::from(csa.cycles(l)),
                            u64::from(engine.add_one(&x, &y).cycles),
                            "{} resolve cycles lane={l}",
                            engine.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn doubling_chain_coefficients_saturate_the_width() {
        // t0=i0+i0, t1=t0+t0, ...: coefficient 2^steps; addends past the
        // width vanish, so a long chain over a narrow width sums to 0.
        let p = Program::from_spec("i0+i0,t0+t0,t1+t1", 1).unwrap();
        assert_eq!(p.coefficients(), vec![8]);
        let narrow = [UBig::from_u128(5, 3)];
        assert_eq!(p.eval_scalar(&narrow).to_u128(), Some(0)); // 40 mod 8
        let (x, y) = p.csa_pair_scalar(&narrow);
        assert!(x.wrapping_add(&y).is_zero());
    }

    /// The pair as `reduce_csa_one` makes it from the `UBig` expansion:
    /// one addend `iₖ << j` per set bit `j < width` of each coefficient,
    /// scanning every shift position.
    fn reference_pair(p: &Program, inputs: &[UBig]) -> (UBig, UBig) {
        let width = inputs[0].width();
        let mut addends = Vec::new();
        for (input, c) in inputs.iter().zip(p.coefficients()) {
            for j in 0..width.min(128) {
                if c >> j & 1 == 1 {
                    addends.push(input.shl(j));
                }
            }
        }
        if addends.is_empty() {
            addends.push(UBig::zero(width));
        }
        adders::batch::reduce_csa_one(&addends)
    }

    #[test]
    fn csa_pair_is_bit_identical_to_the_ubig_reduction() {
        let mut rng = Xoshiro256::seed_from_u64(0x5CA1);
        // Every width across the limb boundaries, every SUM shape.
        for width in 1..=300usize {
            for n in 1..=16usize {
                let p = Program::sum(n).unwrap();
                let ops: Vec<UBig> = (0..n).map(|_| UBig::random(width, &mut rng)).collect();
                assert_eq!(
                    p.csa_pair_scalar(&ops),
                    reference_pair(&p, &ops),
                    "sum({n}) width={width}"
                );
            }
        }
        // Weighted programs: a 64-step doubling chain puts its one shift at
        // 64, the most a program can reach; a doubling chain that adds an
        // input every 16th step spreads shifts from 0 to past 60; random
        // programs land in between.
        let chain: Vec<String> = (0..MAX_PROGRAM_STEPS)
            .map(|s| match s {
                0 => "i0+i1".into(),
                s if s % 16 == 0 => format!("t{}+i{}", s - 1, s % 3),
                s => format!("t{}+t{}", s - 1, s - 1),
            })
            .collect();
        let chain = Program::from_spec(&chain.join(","), 3).unwrap();
        assert!(chain.coefficients().iter().any(|&c| c >> 60 != 0));
        let doubling: Vec<String> = (0..MAX_PROGRAM_STEPS)
            .map(|s| match s {
                0 => "i0+i0".into(),
                s => format!("t{}+t{}", s - 1, s - 1),
            })
            .collect();
        let doubling = Program::from_spec(&doubling.join(","), 1).unwrap();
        assert_eq!(doubling.coefficients(), vec![1u128 << 64]);
        for width in [
            1usize, 63, 64, 65, 100, 127, 128, 129, 130, 192, 200, 256, 300,
        ] {
            let mut programs = vec![chain.clone(), doubling.clone()];
            for _ in 0..8 {
                let inputs = 1 + (rng.next_u64() % 8) as usize;
                let steps = (rng.next_u64() % (MAX_PROGRAM_STEPS as u64 + 1)) as usize;
                programs.push(random_program(&mut rng, inputs, steps));
            }
            for p in &programs {
                let ops: Vec<UBig> = (0..p.inputs())
                    .map(|_| UBig::random(width, &mut rng))
                    .collect();
                assert_eq!(
                    p.csa_pair_scalar(&ops),
                    reference_pair(p, &ops),
                    "`{}` width={width}",
                    p.spec()
                );
            }
        }
    }

    #[test]
    fn stepless_program_is_identity() {
        let p = Program::new(2).unwrap();
        assert_eq!(p.result(), Operand::Input(0));
        assert_eq!(p.spec(), "");
        let ops = [UBig::from_u128(9, 8), UBig::from_u128(4, 8)];
        assert_eq!(p.eval_scalar(&ops).to_u128(), Some(9));
        assert_eq!(p.coefficients(), vec![1, 0]);
    }
}
