//! The request model and its text codec: the newline-delimited wire
//! protocol between clients and the server.
//!
//! [`Request`] and [`Response`] are the one request and response model
//! of both framings. This module spells them as text lines
//! ([`parse_request`], [`format_response`] and the `format_*` request
//! builders); [`crate::binary`] spells the same values as frames, and
//! [`crate::session`] dispatches a decoded [`Request`] the same way
//! whichever codec produced it.
//!
//! One request or response per line, tokens separated by single spaces,
//! operands and sums as bare lowercase hex (the [`UBig`] `{:x}` /
//! [`UBig::from_hex`] pair). Requests carry a client-chosen sequence
//! number because the service is free to complete requests out of
//! submission order — two requests from one connection that land in
//! different issue groups finish whenever their groups do — so every
//! response names the request it answers.
//!
//! ```text
//! client → server
//!   ADD <seq> <engine> <width> <a-hex> <b-hex>    one addition request
//!   SUM <seq> <engine> <width> <n> <hex>…         one n-operand reduction
//!   PROG <seq> <engine> <width> <n> <spec> <hex>… one dataflow program
//!   ENGINES                                       list known engine names
//!   STATS                                         service counters snapshot
//!   SLO [<micros>|off]                            query / set / clear the p99 budget
//!
//! server → client
//!   OK <seq> <sum-hex> <cout:0|1> <cycles>        the lane's exact result
//!   ERR <seq> <code> <message…>                   per-request failure
//!   ENGINES <name> <name> …                       the registry's names
//!   STATS <k>=<v> … engine=<name>:<lanes>:<stalls>:<groups> …   one-line snapshot
//!   SLO <micros>|off                              the budget after the command
//! ```
//!
//! `SUM` carries a whole multi-operand reduction in one request: the
//! server compresses the operands carry-save style
//! ([`Program::csa_pair_scalar`]) and the one remaining carry-resolve
//! rides an issue group as a **single lane** of the named engine —
//! the response's `cycles` are that one resolve's, and its `cout` is the
//! resolve's carry out. `PROG` generalizes `SUM` to any add-DAG over
//! named temporaries, with the program shape in [`Program::from_spec`]
//! syntax as one comma-separated token (`i0+i1,t0+i2` is `SUM` of 3);
//! `n` is the operand count in both forms, capped at
//! [`MAX_PROGRAM_INPUTS`].
//!
//! `STATS` answers with a **single line** of `key=value` tokens — the
//! group bound `max_lanes`, the slab word width, the SLO budget
//! (`slo=<micros>` or `slo=off`), per-protocol request counters
//! (`proto_text=<n> proto_bin=<n>`: lines and frames the connection
//! handlers have answered, across the text protocol and the binary
//! framing of [`crate::binary`]), the lane count (`lanes_total=<n>`, with
//! one `lane=<engine>:<width>` token per `(engine, width)` lane traffic
//! has named) — followed by one
//! `engine=<name>:<lanes>:<stalls>:<groups>` token per engine that
//! has served traffic, from which per-engine stall rates derive
//! (`stalls / lanes`), and one `route=<width>:<engine>:<ok|degraded>`
//! token per width the `auto` router has decided for (the engine the last
//! `auto` group at that width ran on, and whether the SLO forced a
//! fixed-latency fallback).
//!
//! Requests may name the engine `auto` to delegate the choice to the
//! server's router ([`vlcsa::route`]); `SLO <micros>` sets the p99 budget
//! that router degrades under, `SLO off` clears it, bare `SLO` queries it.
//!
//! A malformed line that does not yield a sequence number is answered with
//! `ERR 0 bad-request …`; protocol errors never drop the connection. The
//! one exception is a line longer than [`MAX_LINE`]: it is answered
//! `ERR 0 bad-request` once the server holds that much of it, and the
//! connection is closed.
//!
//! # Example
//!
//! ```
//! use bitnum::UBig;
//! use vlcsa_serve::protocol::{parse_request, Request};
//!
//! let req = parse_request("ADD 7 vlcsa1 64 1f 3").unwrap();
//! match req {
//!     Request::Add { seq, engine, a, b } => {
//!         assert_eq!((seq, engine, a.width()), (7, "vlcsa1", 64));
//!         assert_eq!(a.to_u128(), Some(0x1f));
//!         assert_eq!(b.to_u128(), Some(3));
//!     }
//!     _ => unreachable!(),
//! }
//! ```

use bitnum::{HexLimbs, UBig};
use vlcsa::program::{Program, MAX_PROGRAM_INPUTS, MAX_PROGRAM_STEPS};
use vlcsa::route::RouteStat;

/// Widths a request may name: at least 1 bit, at most
/// [`bitnum::MAX_WIDTH`].
pub const WIDTH_RANGE: std::ops::RangeInclusive<usize> = 1..=bitnum::MAX_WIDTH;

/// Operand counts a `SUM`/`PROG` request may name.
pub const OPERAND_RANGE: std::ops::RangeInclusive<usize> = 1..=MAX_PROGRAM_INPUTS;

/// The most bytes a connection holds of a text line whose newline has not
/// arrived: the longest line [`format_program`] emits — a `PROG` of
/// [`MAX_PROGRAM_INPUTS`] full-width operands whose spec has
/// [`MAX_PROGRAM_STEPS`] steps — plus room for the head. A held line past
/// it is answered `ERR 0 bad-request` and the connection is closed.
pub const MAX_LINE: usize = {
    // `PROG`, a 20-digit seq, the engine name, the width, the count and
    // their spaces, with room to spare.
    let head = 256;
    // Each step is `<op>+<op>` and a comma; an operand is `i` or `t` and
    // an index below the larger cap.
    let cap = if MAX_PROGRAM_INPUTS > MAX_PROGRAM_STEPS {
        MAX_PROGRAM_INPUTS
    } else {
        MAX_PROGRAM_STEPS
    };
    let spec = MAX_PROGRAM_STEPS * (2 * (2 + (cap - 1).ilog10() as usize) + 2);
    // A space and full-width hex per operand.
    let operands = MAX_PROGRAM_INPUTS * (1 + bitnum::MAX_WIDTH.div_ceil(4));
    head + spec + operands
};

/// One decoded client request, from either framing: [`parse_request`]
/// reads it from a text line, [`binary::decode_request`](crate::binary::decode_request)
/// from a frame. Every operand is a [`UBig`] of the request's width, so
/// the width is not stored twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<'a> {
    /// `ADD <seq> <engine> <width> <a-hex> <b-hex>`.
    Add {
        /// Client-chosen sequence number, echoed in the response.
        seq: u64,
        /// Engine name (a [`Registry`](vlcsa::engine::Registry) name, or
        /// `auto`): the line's own token, or the registry's name for a
        /// frame's engine id.
        engine: &'a str,
        /// First operand.
        a: UBig,
        /// Second operand, at the same width.
        b: UBig,
    },
    /// `SUM <seq> <engine> <width> <n> <hex>…` — one n-operand reduction,
    /// resolved with a single carry-propagate pass.
    Sum {
        /// Client-chosen sequence number, echoed in the response.
        seq: u64,
        /// Engine name, as in [`Request::Add`].
        engine: &'a str,
        /// The operands, in wire order (1..=[`MAX_PROGRAM_INPUTS`]), all
        /// at the request's width.
        operands: Vec<UBig>,
    },
    /// `PROG <seq> <engine> <width> <n> <spec> <hex>…` — one dataflow
    /// program over `n` inputs, spec in [`Program::from_spec`] syntax.
    Program {
        /// Client-chosen sequence number, echoed in the response.
        seq: u64,
        /// Engine name, as in [`Request::Add`].
        engine: &'a str,
        /// The parsed, validated program shape.
        program: Program,
        /// The program's inputs, in wire order.
        inputs: Vec<UBig>,
    },
    /// `ENGINES` — list the registry's engine names.
    Engines,
    /// `STATS` — snapshot the service counters.
    Stats,
    /// `SLO` / `SLO <micros>` / `SLO off` — query or change the p99
    /// latency budget the `auto` router degrades under.
    Slo(SloAction),
}

/// What an `SLO` request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloAction {
    /// Bare `SLO`: report the current budget without changing it.
    Query,
    /// `SLO <micros>`: set the budget (micros ≥ 1).
    Set(u64),
    /// `SLO off`: clear the budget (the router never degrades).
    Clear,
}

/// Machine-readable failure classes of an `ERR` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line did not parse as any request.
    BadRequest,
    /// The engine name is not in the registry (the message lists the
    /// known names, via
    /// [`EngineLookupError`](vlcsa::engine::EngineLookupError)).
    UnknownEngine,
    /// The width is outside [`WIDTH_RANGE`].
    BadWidth,
    /// An operand was not valid hex or did not fit the width.
    BadOperand,
    /// The server is shutting down and did not run the request.
    Shutdown,
}

impl ErrorCode {
    /// The kebab-case wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownEngine => "unknown-engine",
            ErrorCode::BadWidth => "bad-width",
            ErrorCode::BadOperand => "bad-operand",
            ErrorCode::Shutdown => "shutdown",
        }
    }

    /// Parses a wire token back into a code.
    pub fn from_str_token(s: &str) -> Option<Self> {
        Some(match s {
            "bad-request" => ErrorCode::BadRequest,
            "unknown-engine" => ErrorCode::UnknownEngine,
            "bad-width" => ErrorCode::BadWidth,
            "bad-operand" => ErrorCode::BadOperand,
            "shutdown" => ErrorCode::Shutdown,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A request-level failure: the code, the offending sequence number and a
/// human-readable message. `seq` is 0 when the line was too malformed to
/// carry one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Sequence number the failure answers (0 if unparseable).
    pub seq: u64,
    /// Machine-readable class.
    pub code: ErrorCode,
    /// Human-readable detail (single line).
    pub message: String,
}

impl RequestError {
    pub(crate) fn new(seq: u64, code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            seq,
            code,
            message: message.into(),
        }
    }
}

/// Checks a request's width against [`WIDTH_RANGE`] — the same check,
/// code and message in both codecs.
pub(crate) fn check_width(seq: u64, width: usize) -> Result<(), RequestError> {
    if WIDTH_RANGE.contains(&width) {
        return Ok(());
    }
    Err(RequestError::new(
        seq,
        ErrorCode::BadWidth,
        format!(
            "width {width} outside {}..={}",
            WIDTH_RANGE.start(),
            WIDTH_RANGE.end()
        ),
    ))
}

/// Checks a `SUM`/`PROG` operand count against [`OPERAND_RANGE`] — the
/// same check, code and message in both codecs.
pub(crate) fn check_operand_count(seq: u64, n: usize) -> Result<(), RequestError> {
    if OPERAND_RANGE.contains(&n) {
        return Ok(());
    }
    Err(RequestError::new(
        seq,
        ErrorCode::BadRequest,
        format!(
            "operand count {n} outside {}..={}",
            OPERAND_RANGE.start(),
            OPERAND_RANGE.end()
        ),
    ))
}

/// The `<seq> <engine> <width>` prefix every computing request starts
/// with, parsed with the command name in the error messages. The engine
/// is the line's own token.
fn parse_head<'a>(
    cmd: &str,
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<(u64, &'a str, usize), RequestError> {
    let seq = tokens
        .next()
        .and_then(|t| t.parse::<u64>().ok())
        .ok_or_else(|| {
            RequestError::new(
                0,
                ErrorCode::BadRequest,
                format!("{cmd} needs a numeric sequence"),
            )
        })?;
    let engine = tokens.next().ok_or_else(|| {
        RequestError::new(
            seq,
            ErrorCode::BadRequest,
            format!("{cmd} is missing the engine"),
        )
    })?;
    let width = tokens
        .next()
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| {
            RequestError::new(
                seq,
                ErrorCode::BadRequest,
                format!("{cmd} needs a numeric width"),
            )
        })?;
    check_width(seq, width)?;
    Ok((seq, engine, width))
}

/// The `<n>` operand count of a `SUM`/`PROG` line, bounds-checked against
/// [`OPERAND_RANGE`].
fn parse_operand_count<'a>(
    cmd: &str,
    seq: u64,
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<usize, RequestError> {
    let n = tokens
        .next()
        .and_then(|t| t.parse::<usize>().ok())
        .ok_or_else(|| {
            RequestError::new(
                seq,
                ErrorCode::BadRequest,
                format!("{cmd} needs a numeric operand count"),
            )
        })?;
    check_operand_count(seq, n)?;
    Ok(n)
}

/// Exactly `n` hex operands at `width`, then end of line.
fn parse_operands<'a>(
    cmd: &str,
    seq: u64,
    width: usize,
    n: usize,
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<Vec<UBig>, RequestError> {
    let mut operands = Vec::with_capacity(n);
    for k in 0..n {
        let token = tokens.next().ok_or_else(|| {
            RequestError::new(
                seq,
                ErrorCode::BadRequest,
                format!("{cmd} is missing operand {k} of {n}"),
            )
        })?;
        operands.push(UBig::from_hex(token, width).map_err(|e| {
            RequestError::new(seq, ErrorCode::BadOperand, format!("operand {k}: {e}"))
        })?);
    }
    if let Some(extra) = tokens.next() {
        return Err(RequestError::new(
            seq,
            ErrorCode::BadRequest,
            format!("trailing token `{extra}`"),
        ));
    }
    Ok(operands)
}

/// Parses one request line. The request borrows its engine name from
/// the line.
///
/// # Errors
///
/// Returns the [`RequestError`] to answer with; the connection stays up.
pub fn parse_request(line: &str) -> Result<Request<'_>, RequestError> {
    let mut tokens = line.split_ascii_whitespace();
    match tokens.next() {
        Some("ENGINES") => match tokens.next() {
            None => Ok(Request::Engines),
            Some(extra) => Err(RequestError::new(
                0,
                ErrorCode::BadRequest,
                format!("ENGINES takes no arguments, got `{extra}`"),
            )),
        },
        Some("STATS") => match tokens.next() {
            None => Ok(Request::Stats),
            Some(extra) => Err(RequestError::new(
                0,
                ErrorCode::BadRequest,
                format!("STATS takes no arguments, got `{extra}`"),
            )),
        },
        Some("SLO") => {
            let action = match tokens.next() {
                None => SloAction::Query,
                Some("off") => SloAction::Clear,
                Some(arg) => match arg.parse::<u64>() {
                    Ok(micros) if micros >= 1 => SloAction::Set(micros),
                    _ => {
                        return Err(RequestError::new(
                            0,
                            ErrorCode::BadRequest,
                            format!("SLO takes a budget in micros (>= 1) or `off`, got `{arg}`"),
                        ))
                    }
                },
            };
            if let Some(extra) = tokens.next() {
                return Err(RequestError::new(
                    0,
                    ErrorCode::BadRequest,
                    format!("SLO takes one argument, got trailing `{extra}`"),
                ));
            }
            Ok(Request::Slo(action))
        }
        Some("ADD") => {
            let (seq, engine, width) = parse_head("ADD", &mut tokens)?;
            let mut operands = parse_operands("ADD", seq, width, 2, &mut tokens)?;
            let b = operands.pop().expect("two operands");
            let a = operands.pop().expect("two operands");
            Ok(Request::Add { seq, engine, a, b })
        }
        Some("SUM") => {
            let (seq, engine, width) = parse_head("SUM", &mut tokens)?;
            let n = parse_operand_count("SUM", seq, &mut tokens)?;
            let operands = parse_operands("SUM", seq, width, n, &mut tokens)?;
            Ok(Request::Sum {
                seq,
                engine,
                operands,
            })
        }
        Some("PROG") => {
            let (seq, engine, width) = parse_head("PROG", &mut tokens)?;
            let n = parse_operand_count("PROG", seq, &mut tokens)?;
            let spec = tokens.next().ok_or_else(|| {
                RequestError::new(seq, ErrorCode::BadRequest, "PROG is missing the spec")
            })?;
            let program = Program::from_spec(spec, n).map_err(|e| {
                RequestError::new(seq, ErrorCode::BadRequest, format!("program spec: {e}"))
            })?;
            let inputs = parse_operands("PROG", seq, width, n, &mut tokens)?;
            Ok(Request::Program {
                seq,
                engine,
                program,
                inputs,
            })
        }
        Some(other) => Err(RequestError::new(
            0,
            ErrorCode::BadRequest,
            format!("unknown command `{other}`"),
        )),
        None => Err(RequestError::new(0, ErrorCode::BadRequest, "empty line")),
    }
}

/// Formats an `ADD` request line (no trailing newline).
pub fn format_add(seq: u64, engine: &str, a: &UBig, b: &UBig) -> String {
    format!("ADD {seq} {engine} {} {a:x} {b:x}", a.width())
}

/// Formats a `SUM` request line (no trailing newline).
///
/// # Panics
///
/// Panics if `operands` is empty (the width comes from the first one).
pub fn format_sum(seq: u64, engine: &str, operands: &[UBig]) -> String {
    let mut line = format!(
        "SUM {seq} {engine} {} {}",
        operands[0].width(),
        operands.len()
    );
    for op in operands {
        line.push_str(&format!(" {op:x}"));
    }
    line
}

/// Formats a `PROG` request line (no trailing newline).
///
/// # Panics
///
/// Panics if `inputs` is empty or `program` has no steps — a step-less
/// program's spec is the empty string, which is not a wire token.
pub fn format_program(seq: u64, engine: &str, program: &Program, inputs: &[UBig]) -> String {
    assert!(
        !program.steps().is_empty(),
        "a wire program needs at least one step"
    );
    let mut line = format!(
        "PROG {seq} {engine} {} {} {}",
        inputs[0].width(),
        inputs.len(),
        program.spec()
    );
    for op in inputs {
        line.push_str(&format!(" {op:x}"));
    }
    line
}

/// Lifetime lane/stall counters of one engine, as served traffic saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Engine display name.
    pub name: String,
    /// Lanes (requests) this engine has answered.
    pub lanes: u64,
    /// Lanes that took the 2-cycle recovery path.
    pub stalls: u64,
    /// Issue groups (batches) this engine has run.
    pub groups: u64,
}

impl EngineStats {
    /// Fraction of served lanes that stalled (0 when nothing served).
    pub fn stall_rate(&self) -> f64 {
        if self.lanes == 0 {
            0.0
        } else {
            self.stalls as f64 / self.lanes as f64
        }
    }
}

/// One serve lane: the `(engine, width)` pair it runs — the
/// `lane=<engine>:<width>` token of `STATS`. Lanes are created on demand
/// by traffic, so an idle server reports none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneStats {
    /// The engine this lane runs (`auto` is resolved before lanes, so
    /// this is always a concrete name).
    pub engine: String,
    /// The operand width this lane batches.
    pub width: usize,
}

/// The `STATS` snapshot: the group bound, the slab word width, the SLO
/// budget, the lanes, per-engine stall counters and the `auto` router's
/// current route per width — everything the single response line
/// carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsReport {
    /// The issue-group bound (`ServeConfig::max_lanes`).
    pub max_lanes: usize,
    /// Lane width of the slab word the engines run on (64 or 256).
    pub word_bits: usize,
    /// The p99 budget the `auto` router degrades under (`None` = off).
    pub slo_micros: Option<u64>,
    /// Text-protocol requests the connection handlers have answered
    /// (every non-empty line, malformed ones included).
    pub proto_text: u64,
    /// Binary-protocol requests answered (every frame the server replied
    /// to; the `HELLO` upgrade line itself counts as neither).
    pub proto_bin: u64,
    /// Every lane, in lane-creation order — empty on an idle server
    /// (lanes spin up on demand).
    pub lanes: Vec<LaneStats>,
    /// Per-engine counters, in first-served order.
    pub engines: Vec<EngineStats>,
    /// The router's last decision per width, ascending by width — absent
    /// for widths that have never seen `auto` traffic.
    pub routes: Vec<RouteStat>,
}

impl StatsReport {
    /// The counters of one engine, if it has served traffic.
    pub fn engine(&self, name: &str) -> Option<&EngineStats> {
        self.engines.iter().find(|e| e.name == name)
    }

    /// One `(engine, width)` lane, if traffic has spun it up.
    pub fn lane(&self, engine: &str, width: usize) -> Option<&LaneStats> {
        self.lanes
            .iter()
            .find(|l| l.engine == engine && l.width == width)
    }

    /// Total lanes served across every engine.
    pub fn total_lanes(&self) -> u64 {
        self.engines.iter().map(|e| e.lanes).sum()
    }

    /// Total stalled lanes across every engine.
    pub fn total_stalls(&self) -> u64 {
        self.engines.iter().map(|e| e.stalls).sum()
    }

    /// Total issue groups (batches) run across every engine.
    pub fn total_groups(&self) -> u64 {
        self.engines.iter().map(|e| e.groups).sum()
    }
}

/// One server response, in either framing: [`format_response`] and
/// [`parse_response`] spell it as a line,
/// [`binary::encode_response`](crate::binary::encode_response) and
/// [`binary::decode_response`](crate::binary::decode_response) as a
/// frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// `OK <seq> <sum-hex> <cout> <cycles>`.
    Ok {
        /// Echoed request sequence number.
        seq: u64,
        /// The exact sum, at the request's width.
        sum: UBig,
        /// Carry out of the most significant bit.
        cout: bool,
        /// Cycles the lane consumed (1, or 2 after a recovery stall).
        cycles: u8,
    },
    /// `ERR <seq> <code> <message…>`.
    Err(RequestError),
    /// `ENGINES <name> …`.
    Engines(Vec<String>),
    /// `STATS <k>=<v> …` — the one-line counters snapshot.
    Stats(StatsReport),
    /// `SLO <micros>|off` — the budget in force after an `SLO` command.
    Slo(Option<u64>),
}

/// The `OK` line's fields over raw sum limbs — the one place its format
/// is spelled, shared by [`format_response`] and [`push_ok_line`].
struct OkLine<'a> {
    seq: u64,
    sum: &'a [u64],
    cout: bool,
    cycles: u8,
}

impl std::fmt::Display for OkLine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OK {} {:x} {} {}",
            self.seq,
            HexLimbs(self.sum),
            u8::from(self.cout),
            self.cycles
        )
    }
}

/// Appends the `OK` line answering `seq`, newline included, to `out` —
/// byte for byte [`format_response`] of the same [`Response::Ok`] plus
/// `\n`, but from the sum's raw little-endian limbs, so a transport can
/// encode many answers back to back into one reused buffer with no
/// [`UBig`] per answer.
pub fn push_ok_line(out: &mut Vec<u8>, seq: u64, cout: bool, cycles: u8, sum_limbs: &[u64]) {
    use std::io::Write as _;
    let line = OkLine {
        seq,
        sum: sum_limbs,
        cout,
        cycles,
    };
    writeln!(out, "{line}").expect("writing to a Vec cannot fail");
}

/// Formats a response line (no trailing newline). `Ok` needs no width on
/// the wire: the client parses the sum at the width it asked for.
pub fn format_response(response: &Response) -> String {
    match response {
        Response::Ok {
            seq,
            sum,
            cout,
            cycles,
        } => OkLine {
            seq: *seq,
            sum: sum.limbs(),
            cout: *cout,
            cycles: *cycles,
        }
        .to_string(),
        Response::Err(e) => format!("ERR {} {} {}", e.seq, e.code, e.message),
        Response::Engines(names) => {
            let mut line = String::from("ENGINES");
            for name in names {
                line.push(' ');
                line.push_str(name);
            }
            line
        }
        Response::Stats(stats) => {
            let mut line = format!(
                "STATS max_lanes={} word_bits={} slo={} proto_text={} proto_bin={} \
                 lanes_total={}",
                stats.max_lanes,
                stats.word_bits,
                stats
                    .slo_micros
                    .map_or_else(|| "off".to_string(), |m| m.to_string()),
                stats.proto_text,
                stats.proto_bin,
                stats.lanes.len(),
            );
            for l in &stats.lanes {
                line.push_str(&format!(" lane={}:{}", l.engine, l.width));
            }
            for e in &stats.engines {
                line.push_str(&format!(
                    " engine={}:{}:{}:{}",
                    e.name, e.lanes, e.stalls, e.groups
                ));
            }
            for r in &stats.routes {
                line.push_str(&format!(
                    " route={}:{}:{}",
                    r.width,
                    r.engine,
                    if r.degraded { "degraded" } else { "ok" }
                ));
            }
            line
        }
        Response::Slo(budget) => match budget {
            Some(micros) => format!("SLO {micros}"),
            None => "SLO off".to_string(),
        },
    }
}

/// Parses one response line on the client side. `width` is the width of
/// the request the caller is matching responses against (used to parse the
/// sum of an `OK`).
///
/// # Errors
///
/// Returns a description of the malformed line.
pub fn parse_response(line: &str, width: usize) -> Result<Response, String> {
    let mut tokens = line.split_ascii_whitespace();
    match tokens.next() {
        Some("OK") => {
            let mut next =
                |name: &str| tokens.next().ok_or_else(|| format!("OK is missing {name}"));
            let seq = next("seq")?
                .parse::<u64>()
                .map_err(|e| format!("OK seq: {e}"))?;
            let sum = UBig::from_hex(next("sum")?, width).map_err(|e| format!("OK sum: {e}"))?;
            let cout = match next("cout")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("OK cout must be 0|1, got `{other}`")),
            };
            let cycles = next("cycles")?
                .parse::<u8>()
                .map_err(|e| format!("OK cycles: {e}"))?;
            Ok(Response::Ok {
                seq,
                sum,
                cout,
                cycles,
            })
        }
        Some("ERR") => {
            let seq = tokens
                .next()
                .and_then(|t| t.parse::<u64>().ok())
                .ok_or("ERR needs a numeric seq")?;
            let code = tokens
                .next()
                .and_then(ErrorCode::from_str_token)
                .ok_or("ERR needs a known code")?;
            let message = tokens.collect::<Vec<_>>().join(" ");
            Ok(Response::Err(RequestError { seq, code, message }))
        }
        Some("ENGINES") => Ok(Response::Engines(tokens.map(str::to_string).collect())),
        Some("STATS") => {
            let mut stats = StatsReport {
                max_lanes: 0,
                word_bits: 0,
                slo_micros: None,
                proto_text: 0,
                proto_bin: 0,
                lanes: Vec::new(),
                engines: Vec::new(),
                routes: Vec::new(),
            };
            // Every scalar key is mandatory: a truncated line must fail
            // loudly, not parse as an idle snapshot.
            let (mut have_max, mut have_word, mut have_slo) = (false, false, false);
            let (mut have_ptext, mut have_pbin) = (false, false);
            let mut lanes_total: Option<usize> = None;
            for token in tokens {
                let (key, value) = token
                    .split_once('=')
                    .ok_or_else(|| format!("STATS token `{token}` is not key=value"))?;
                let number = |v: &str| v.parse::<usize>().map_err(|e| format!("STATS {key}: {e}"));
                match key {
                    "max_lanes" => {
                        stats.max_lanes = number(value)?;
                        have_max = true;
                    }
                    "word_bits" => {
                        stats.word_bits = number(value)?;
                        have_word = true;
                    }
                    "slo" => {
                        stats.slo_micros = match value {
                            "off" => None,
                            micros => Some(
                                micros
                                    .parse::<u64>()
                                    .map_err(|e| format!("STATS slo: {e}"))?,
                            ),
                        };
                        have_slo = true;
                    }
                    "proto_text" => {
                        stats.proto_text = value
                            .parse::<u64>()
                            .map_err(|e| format!("STATS proto_text: {e}"))?;
                        have_ptext = true;
                    }
                    "proto_bin" => {
                        stats.proto_bin = value
                            .parse::<u64>()
                            .map_err(|e| format!("STATS proto_bin: {e}"))?;
                        have_pbin = true;
                    }
                    "lanes_total" => {
                        lanes_total = Some(number(value)?);
                    }
                    "lane" => {
                        let (engine, width) = value
                            .split_once(':')
                            .and_then(|(e, w)| Some((e, w.parse::<usize>().ok()?)))
                            .filter(|(e, _)| !e.is_empty())
                            .ok_or_else(|| {
                                format!("STATS lane `{value}` is not <engine>:<width>")
                            })?;
                        stats.lanes.push(LaneStats {
                            engine: engine.to_string(),
                            width,
                        });
                    }
                    "route" => {
                        let mut parts = value.splitn(3, ':');
                        let width = parts
                            .next()
                            .and_then(|w| w.parse::<usize>().ok())
                            .ok_or_else(|| format!("STATS route `{value}` has no width"))?;
                        let engine = parts
                            .next()
                            .filter(|e| !e.is_empty())
                            .ok_or_else(|| format!("STATS route `{value}` has no engine"))?;
                        let degraded = match parts.next() {
                            Some("ok") => false,
                            Some("degraded") => true,
                            _ => {
                                return Err(format!(
                                    "STATS route `{value}` needs an ok|degraded state"
                                ))
                            }
                        };
                        stats.routes.push(RouteStat {
                            width,
                            engine: engine.to_string(),
                            degraded,
                        });
                    }
                    "engine" => {
                        let mut parts = value.split(':');
                        let name = parts
                            .next()
                            .filter(|n| !n.is_empty())
                            .ok_or_else(|| format!("STATS engine `{value}` has no name"))?;
                        let count = |part: Option<&str>| {
                            part.and_then(|p| p.parse::<u64>().ok())
                                .ok_or_else(|| format!("STATS engine `{value}` is malformed"))
                        };
                        let lanes = count(parts.next())?;
                        let stalls = count(parts.next())?;
                        let groups = count(parts.next())?;
                        if parts.next().is_some() {
                            return Err(format!("STATS engine `{value}` has trailing fields"));
                        }
                        stats.engines.push(EngineStats {
                            name: name.to_string(),
                            lanes,
                            stalls,
                            groups,
                        });
                    }
                    other => return Err(format!("STATS has unknown key `{other}`")),
                }
            }
            if !(have_max && have_word && have_slo && have_ptext && have_pbin) {
                return Err("STATS is missing a mandatory key".into());
            }
            match lanes_total {
                // v4-era lines had no lane gauges at all.
                None => return Err("STATS is missing a mandatory key".into()),
                Some(total) if total != stats.lanes.len() => {
                    return Err(format!(
                        "STATS lanes_total={} but {} lane tokens",
                        total,
                        stats.lanes.len()
                    ))
                }
                Some(_) => {}
            }
            Ok(Response::Stats(stats))
        }
        Some("SLO") => match (tokens.next(), tokens.next()) {
            (Some("off"), None) => Ok(Response::Slo(None)),
            (Some(micros), None) => micros
                .parse::<u64>()
                .map(|m| Response::Slo(Some(m)))
                .map_err(|e| format!("SLO budget: {e}")),
            (None, _) => Err("SLO response is missing the budget".into()),
            (_, Some(extra)) => Err(format!("SLO response has trailing `{extra}`")),
        },
        Some(other) => Err(format!("unknown response `{other}`")),
        None => Err("empty response line".into()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::binary::{self, HEADER_LEN};

    /// Sends `response` through the text codec and the binary codec, and
    /// requires each to give it back equal.
    pub(crate) fn roundtrip_both(response: &Response, width: usize) {
        let line = format_response(response);
        assert_eq!(parse_response(&line, width).unwrap(), *response, "{line}");
        let frame = binary::encode_response(response);
        let len = u32::from_le_bytes(frame[2..HEADER_LEN].try_into().unwrap()) as usize;
        assert_eq!(frame.len(), HEADER_LEN + len, "length prefix lies");
        assert_eq!(
            binary::decode_response(frame[1], &frame[HEADER_LEN..], width).unwrap(),
            *response,
            "{frame:?}"
        );
    }

    #[test]
    fn add_roundtrip() {
        let a = UBig::from_u128(0xdead_beef, 64);
        let b = UBig::from_u128(0x1234, 64);
        let line = format_add(42, "carry-select", &a, &b);
        assert_eq!(line, "ADD 42 carry-select 64 deadbeef 1234");
        match parse_request(&line).unwrap() {
            Request::Add {
                seq,
                engine,
                a: pa,
                b: pb,
            } => {
                assert_eq!(seq, 42);
                assert_eq!(engine, "carry-select");
                assert_eq!(pa.width(), 64);
                assert_eq!(pa, a);
                assert_eq!(pb, b);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn sum_roundtrip() {
        let operands: Vec<UBig> = [0xdeadu128, 0xbeef, 0x7, 0x1234]
            .iter()
            .map(|&v| UBig::from_u128(v, 48))
            .collect();
        let line = format_sum(9, "vlcsa1", &operands);
        assert_eq!(line, "SUM 9 vlcsa1 48 4 dead beef 7 1234");
        match parse_request(&line).unwrap() {
            Request::Sum {
                seq,
                engine,
                operands: parsed,
            } => {
                assert_eq!((seq, engine, parsed[0].width()), (9, "vlcsa1", 48));
                assert_eq!(parsed, operands);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn program_roundtrip() {
        let program = Program::from_spec("i0+i1,t0+t0,t1+i2", 3).unwrap();
        let inputs: Vec<UBig> = [5u128, 6, 7]
            .iter()
            .map(|&v| UBig::from_u128(v, 16))
            .collect();
        let line = format_program(3, "ripple", &program, &inputs);
        assert_eq!(line, "PROG 3 ripple 16 3 i0+i1,t0+t0,t1+i2 5 6 7");
        match parse_request(&line).unwrap() {
            Request::Program {
                seq,
                engine,
                program: parsed,
                inputs: parsed_inputs,
            } => {
                assert_eq!((seq, engine, parsed_inputs[0].width()), (3, "ripple", 16));
                assert_eq!(parsed, program);
                assert_eq!(parsed_inputs, inputs);
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn malformed_reductions_fail_with_codes_not_panics() {
        for (line, code, seq) in [
            ("SUM", ErrorCode::BadRequest, 0),
            ("SUM x ripple 8 2 1 2", ErrorCode::BadRequest, 0),
            ("SUM 5 ripple 8", ErrorCode::BadRequest, 5),
            ("SUM 5 ripple 8 two 1 2", ErrorCode::BadRequest, 5),
            ("SUM 5 ripple 0 2 1 2", ErrorCode::BadWidth, 5),
            ("SUM 5 ripple 8 0", ErrorCode::BadRequest, 5),
            ("SUM 5 ripple 8 65", ErrorCode::BadRequest, 5), // over the cap
            ("SUM 5 ripple 8 3 1 2", ErrorCode::BadRequest, 5), // short
            ("SUM 5 ripple 8 2 1 2 3", ErrorCode::BadRequest, 5), // long
            ("SUM 5 ripple 8 2 1 xyz", ErrorCode::BadOperand, 5),
            ("SUM 5 ripple 8 2 fff 2", ErrorCode::BadOperand, 5), // overflow
            ("PROG", ErrorCode::BadRequest, 0),
            ("PROG 5 ripple 8 2", ErrorCode::BadRequest, 5), // no spec
            ("PROG 5 ripple 8 2 i0-i1 1 2", ErrorCode::BadRequest, 5),
            ("PROG 5 ripple 8 2 t0+i0 1 2", ErrorCode::BadRequest, 5), // fwd ref
            ("PROG 5 ripple 8 2 i0+i9 1 2", ErrorCode::BadRequest, 5),
            ("PROG 5 ripple 8 2 i0+i1 1", ErrorCode::BadRequest, 5),
            ("PROG 5 ripple 8 2 i0+i1 1 2 3", ErrorCode::BadRequest, 5),
            ("PROG 5 ripple 8 2 i0+i1 1 zz", ErrorCode::BadOperand, 5),
        ] {
            let err = parse_request(line).err().unwrap_or_else(|| {
                panic!("`{line}` parsed");
            });
            assert_eq!(err.code, code, "`{line}` → {err:?}");
            assert_eq!(err.seq, seq, "`{line}` → {err:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        let sum = UBig::from_u128(0xffff_0001, 48);
        let mut cases = vec![
            (
                Response::Ok {
                    seq: 9,
                    sum,
                    cout: true,
                    cycles: 2,
                },
                48,
            ),
            (
                Response::Err(RequestError {
                    seq: 3,
                    code: ErrorCode::UnknownEngine,
                    message: "unknown engine `x`; known engines: ripple, cla4".into(),
                }),
                48,
            ),
            (
                Response::Engines(vec!["ripple".into(), "vlcsa1".into()]),
                48,
            ),
        ];
        // `OK` at the widths around limb boundaries, and both ends.
        for width in [1, 63, 64, 65, bitnum::MAX_WIDTH] {
            let mut sum = UBig::ones(width);
            sum.set_bit(width / 2, false);
            cases.push((
                Response::Ok {
                    seq: width as u64,
                    sum,
                    cout: width % 2 == 1,
                    cycles: 1,
                },
                width,
            ));
        }
        // `ERR` with every code.
        for (seq, code) in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownEngine,
            ErrorCode::BadWidth,
            ErrorCode::BadOperand,
            ErrorCode::Shutdown,
        ]
        .into_iter()
        .enumerate()
        {
            let message = format!("a {code} message");
            cases.push((
                Response::Err(RequestError::new(seq as u64, code, message)),
                1,
            ));
        }
        for (response, width) in cases {
            roundtrip_both(&response, width);
        }
    }

    #[test]
    fn malformed_requests_fail_with_codes_not_panics() {
        for (line, code, seq) in [
            ("", ErrorCode::BadRequest, 0),
            ("HELLO", ErrorCode::BadRequest, 0),
            ("ADD", ErrorCode::BadRequest, 0),
            ("ADD x ripple 8 1 2", ErrorCode::BadRequest, 0),
            ("ADD 5 ripple", ErrorCode::BadRequest, 5),
            ("ADD 5 ripple eight 1 2", ErrorCode::BadRequest, 5),
            ("ADD 5 ripple 0 1 2", ErrorCode::BadWidth, 5),
            ("ADD 5 ripple 5000 1 2", ErrorCode::BadWidth, 5),
            ("ADD 5 ripple 8 xyz 2", ErrorCode::BadOperand, 5),
            ("ADD 5 ripple 8 fff 2", ErrorCode::BadOperand, 5), // overflow
            ("ADD 5 ripple 8 1 2 3", ErrorCode::BadRequest, 5),
            ("ENGINES now", ErrorCode::BadRequest, 0),
        ] {
            let err = parse_request(line).err().unwrap_or_else(|| {
                panic!("`{line}` parsed");
            });
            assert_eq!(err.code, code, "`{line}` → {err:?}");
            assert_eq!(err.seq, seq, "`{line}` → {err:?}");
        }
    }

    #[test]
    fn engines_request_parses() {
        assert_eq!(parse_request("ENGINES").unwrap(), Request::Engines);
        assert_eq!(parse_request("  ENGINES  ").unwrap(), Request::Engines);
    }

    #[test]
    fn stats_request_parses() {
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(
            parse_request("STATS now").err().unwrap().code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn slo_request_parses_query_set_and_clear() {
        assert_eq!(
            parse_request("SLO").unwrap(),
            Request::Slo(SloAction::Query)
        );
        assert_eq!(
            parse_request("SLO 2500").unwrap(),
            Request::Slo(SloAction::Set(2500))
        );
        assert_eq!(
            parse_request("SLO off").unwrap(),
            Request::Slo(SloAction::Clear)
        );
    }

    #[test]
    fn slo_request_garbage_is_a_seqless_bad_request() {
        // Pinned `ERR 0 bad-request` surface: SLO carries no sequence
        // number, so every malformed variant answers at seq 0.
        for line in [
            "SLO abc",
            "SLO 0",
            "SLO -3",
            "SLO 1.5",
            "SLO 12 34",
            "SLO off now",
        ] {
            let err = parse_request(line).err().unwrap_or_else(|| {
                panic!("`{line}` parsed");
            });
            assert_eq!(err.code, ErrorCode::BadRequest, "`{line}` → {err:?}");
            assert_eq!(err.seq, 0, "`{line}` → {err:?}");
        }
    }

    #[test]
    fn slo_response_roundtrip() {
        for budget in [Some(1u64), Some(750), None] {
            let line = format_response(&Response::Slo(budget));
            assert_eq!(parse_response(&line, 1).unwrap(), Response::Slo(budget));
        }
        assert!(parse_response("SLO", 1).is_err());
        assert!(parse_response("SLO maybe", 1).is_err());
        assert!(parse_response("SLO 5 6", 1).is_err());
    }

    #[test]
    fn truncated_stats_response_fails_not_parses_as_idle() {
        // A bare or partial STATS line must be a protocol error — an
        // all-zero report is indistinguishable from an idle server.
        for line in [
            "STATS",
            "STATS max_lanes=256",
            "STATS word_bits=256 engine=ripple:1:0:1",
            // All the pre-SLO keys but no slo= — a v2-era line must fail.
            "STATS max_lanes=256 word_bits=256",
            // All the pre-binary keys but no proto counters — a v3-era
            // line must fail.
            "STATS max_lanes=256 word_bits=256 slo=off",
            // All the pre-lane keys but no lanes_total= — a v4-era line
            // must fail.
            "STATS max_lanes=256 word_bits=256 slo=off proto_text=0 proto_bin=0",
        ] {
            let err = parse_response(line, 1).expect_err(line);
            assert!(err.contains("mandatory"), "{line}: {err}");
        }
        // A lane-token count that disagrees with lanes_total is truncation.
        let err = parse_response(
            "STATS max_lanes=256 word_bits=256 slo=off proto_text=0 proto_bin=0 \
             lanes_total=2 lane=ripple:64",
            1,
        )
        .expect_err("count mismatch");
        assert!(err.contains("lanes_total"), "{err}");
        // A key the line does not define, such as a queue gauge, is
        // refused rather than skipped.
        let err = parse_response(
            "STATS queue_depth=0 max_lanes=256 word_bits=256 slo=off proto_text=0 \
             proto_bin=0 lanes_total=0",
            1,
        )
        .expect_err("a removed gauge");
        assert!(err.contains("unknown key"), "{err}");
    }

    #[test]
    fn stats_response_roundtrip_is_one_line() {
        let stats = StatsReport {
            max_lanes: 256,
            word_bits: 256,
            slo_micros: Some(750),
            proto_text: 420,
            proto_bin: 69,
            lanes: vec![
                LaneStats {
                    engine: "vlcsa1".into(),
                    width: 64,
                },
                LaneStats {
                    engine: "ripple".into(),
                    width: 100,
                },
            ],
            engines: vec![
                EngineStats {
                    name: "vlcsa1".into(),
                    lanes: 1000,
                    stalls: 251,
                    groups: 37,
                },
                EngineStats {
                    name: "ripple".into(),
                    lanes: 64,
                    stalls: 0,
                    groups: 2,
                },
            ],
            routes: vec![
                RouteStat {
                    width: 32,
                    engine: "vlcsa2".into(),
                    degraded: false,
                },
                RouteStat {
                    width: 64,
                    engine: "ripple".into(),
                    degraded: true,
                },
            ],
        };
        let line = format_response(&Response::Stats(stats.clone()));
        assert!(!line.contains('\n'), "STATS must be a single line: {line}");
        assert!(
            line.starts_with("STATS max_lanes=256 word_bits=256"),
            "{line}"
        );
        assert!(line.contains("slo=750"), "{line}");
        assert!(
            line.contains("proto_text=420 proto_bin=69 lanes_total=2"),
            "{line}"
        );
        assert!(line.contains("lane=vlcsa1:64 lane=ripple:100 "), "{line}");
        assert!(line.contains("engine=vlcsa1:1000:251:37"), "{line}");
        assert!(line.contains("route=32:vlcsa2:ok"), "{line}");
        assert!(line.contains("route=64:ripple:degraded"), "{line}");
        match parse_response(&line, 1).unwrap() {
            Response::Stats(parsed) => {
                assert_eq!(parsed, stats);
                assert!((parsed.engine("vlcsa1").unwrap().stall_rate() - 0.251).abs() < 1e-12);
                assert_eq!(parsed.total_lanes(), 1064);
                assert_eq!(parsed.total_stalls(), 251);
                assert_eq!(parsed.total_groups(), 39);
                assert!(parsed.lane("ripple", 100).is_some());
                assert!(parsed.lane("vlcsa1", 100).is_none());
            }
            other => panic!("parsed {other:?}"),
        }
    }
}
