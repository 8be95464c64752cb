//! Wire protocol v2: versioned, length-prefixed binary frames whose
//! operands are little-endian `u64` limbs — the zero-copy ingress of the
//! serve front-end.
//!
//! A connection starts in the text protocol ([`crate::protocol`]). A
//! client that wants binary framing sends [`HELLO_LINE`] as its **first**
//! line; the server echoes the same line and from that point both
//! directions carry frames. Any other first line commits the connection
//! to text forever, so text clients keep working unchanged — they never
//! see a frame. After the upgrade there is no way back to text.
//!
//! ```text
//! negotiation state machine (server side)
//!
//!            "HELLO BIN 1\n" as the FIRST line
//!   [text] ─────────────────────────────────────▶ [binary, forever]
//!      │                                              echoes HELLO BIN 1\n
//!      │ any other first line
//!      ▼
//!   [text, forever]   (a later "HELLO BIN 1" line is ERR bad-request:
//!                      unknown command — negotiation is first-line-only)
//! ```
//!
//! Every frame is a fixed 6-byte header followed by `len` body bytes, all
//! integers little-endian:
//!
//! ```text
//!  0        1        2        3        4        5        6
//! +--------+--------+--------+--------+--------+--------+----------- - -
//! |version | opcode |            len (u32 LE)           | body (len bytes)
//! +--------+--------+--------+--------+--------+--------+----------- - -
//! ```
//!
//! Request bodies (`ADD`/`SUM`/`PROG` share the 13-byte head):
//!
//! ```text
//! ADD  (0x01): seq u64 | engine u8 | width u16 | nops u16 = 2 | a limbs | b limbs
//! SUM  (0x02): seq u64 | engine u8 | width u16 | nops u16     | nops × operand limbs
//! PROG (0x03): seq u64 | engine u8 | width u16 | nops u16 | spec_len u16 | spec | limbs
//! ENGINES (0x10), STATS (0x11): empty body
//! SLO  (0x12): action u8 (0 query, 1 set, 2 clear) | micros u64
//! ```
//!
//! Each operand is exactly `width.div_ceil(64)` limbs of 8 bytes,
//! little-endian limb first — precisely the [`UBig::limbs`] layout, which
//! is also one lane of
//! [`WideSlab::from_lane_limbs`](bitnum::batch::WideSlab::from_lane_limbs),
//! so a well-formed `ADD` operand is copied, never parsed.
//! `engine` is the index of the server's `ENGINES` listing (ids are
//! assigned in listing order), with [`ENGINE_ID_AUTO`] for the `auto`
//! pseudo-engine.
//!
//! Response bodies mirror the shape:
//!
//! ```text
//! OK      (0x81): seq u64 | cout u8 | cycles u8 | sum limbs
//! ERR     (0x82): seq u64 | code u8 | message utf8
//! ENGINES (0x90): count u8 | (id u8 | name_len u8 | name utf8)…
//! STATS   (0x91): the one-line text STATS snapshot, utf8
//! SLO     (0x92): flag u8 (0 off, 1 set) | micros u64
//! ```
//!
//! Robustness contract: a malformed **body** (bad opcode, inconsistent
//! counts, stray operand bits) is answered with an `ERR` frame and the
//! connection continues — the length prefix kept the stream in sync. A
//! header the server cannot trust (unknown version byte, oversized
//! length) is answered with a best-effort `ERR` frame and the connection
//! closes, because resynchronization is impossible. A disconnect
//! mid-frame is a clean close.

use bitnum::UBig;
use vlcsa::program::Program;
use vlcsa::route::AUTO_ENGINE;

use crate::protocol::{ErrorCode, RequestError, SloAction, OPERAND_RANGE, WIDTH_RANGE};

/// The one protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// The exact first line (no trailing newline) that upgrades a connection
/// to binary framing; the server echoes it back as the acceptance.
pub const HELLO_LINE: &str = "HELLO BIN 1";

/// Bytes of the fixed frame header: version, opcode, body length.
pub const HEADER_LEN: usize = 6;

/// Upper bound on a frame body. The largest legitimate request — a
/// 64-operand `PROG` at the 4096-bit width cap, spec included — is under
/// 40 KiB, so anything above this is a lying length prefix and the
/// connection is closed rather than resynced.
pub const MAX_FRAME_BODY: usize = 64 * 1024;

/// The engine id of the `auto` pseudo-engine in `ADD`/`SUM`/`PROG`
/// frames and the binary `ENGINES` listing.
pub const ENGINE_ID_AUTO: u8 = 0xff;

/// Request opcodes (client → server).
pub mod op {
    /// One addition; operands as limbs.
    pub const ADD: u8 = 0x01;
    /// One n-operand reduction.
    pub const SUM: u8 = 0x02;
    /// One dataflow add-program.
    pub const PROG: u8 = 0x03;
    /// List engine ids and names.
    pub const ENGINES: u8 = 0x10;
    /// Snapshot the service counters.
    pub const STATS: u8 = 0x11;
    /// Query / set / clear the p99 budget.
    pub const SLO: u8 = 0x12;
}

/// Response opcodes (server → client).
pub mod resp {
    /// A lane's exact result.
    pub const OK: u8 = 0x81;
    /// A per-request failure.
    pub const ERR: u8 = 0x82;
    /// The id ↔ name listing.
    pub const ENGINES: u8 = 0x90;
    /// The counters snapshot (text payload).
    pub const STATS: u8 = 0x91;
    /// The budget in force.
    pub const SLO: u8 = 0x92;
}

/// One decoded binary request, ready for the service. `Add` carries its
/// operands as raw limb runs — the zero-copy path; `Sum`/`Prog` operands
/// become [`UBig`]s at decode time (one limb copy each, still no hex),
/// because the carry-save compression downstream works on values anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinRequest {
    /// An `ADD` frame. `engine` is already resolved to its registry name
    /// (or [`AUTO_ENGINE`]); `a`/`b` are the frame's limb bytes, verbatim.
    Add {
        /// Client-chosen sequence number, echoed in the response.
        seq: u64,
        /// Resolved engine name.
        engine: &'static str,
        /// Operand width in bits.
        width: usize,
        /// First operand, as `width.div_ceil(64)` little-endian limbs.
        a: Vec<u64>,
        /// Second operand, same shape.
        b: Vec<u64>,
    },
    /// A `SUM` frame.
    Sum {
        /// Client-chosen sequence number, echoed in the response.
        seq: u64,
        /// Resolved engine name.
        engine: &'static str,
        /// Operand width in bits.
        width: usize,
        /// The operands, in wire order.
        operands: Vec<UBig>,
    },
    /// A `PROG` frame.
    Prog {
        /// Client-chosen sequence number, echoed in the response.
        seq: u64,
        /// Resolved engine name.
        engine: &'static str,
        /// Operand width in bits.
        width: usize,
        /// The parsed, validated program shape.
        program: Program,
        /// The program's inputs, in wire order.
        inputs: Vec<UBig>,
    },
    /// An `ENGINES` frame.
    Engines,
    /// A `STATS` frame.
    Stats,
    /// An `SLO` frame.
    Slo(SloAction),
}

/// One decoded binary response, client side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinResponse {
    /// An `OK` frame; the sum still in limb form (the caller knows the
    /// request's width).
    Ok {
        /// Echoed request sequence number.
        seq: u64,
        /// Carry out of the most significant bit.
        cout: bool,
        /// Cycles the lane consumed (1, or 2 after a recovery stall).
        cycles: u8,
        /// The sum's little-endian limbs.
        sum_limbs: Vec<u64>,
    },
    /// An `ERR` frame.
    Err(RequestError),
    /// The `(id, name)` listing of an `ENGINES` frame.
    Engines(Vec<(u8, String)>),
    /// The text `STATS` line a `STATS` frame carries.
    Stats(String),
    /// The budget of an `SLO` frame.
    Slo(Option<u64>),
}

fn code_byte(code: ErrorCode) -> u8 {
    match code {
        ErrorCode::BadRequest => 1,
        ErrorCode::UnknownEngine => 2,
        ErrorCode::BadWidth => 3,
        ErrorCode::BadOperand => 4,
        ErrorCode::Shutdown => 5,
    }
}

fn code_from_byte(byte: u8) -> Option<ErrorCode> {
    Some(match byte {
        1 => ErrorCode::BadRequest,
        2 => ErrorCode::UnknownEngine,
        3 => ErrorCode::BadWidth,
        4 => ErrorCode::BadOperand,
        5 => ErrorCode::Shutdown,
        _ => return None,
    })
}

/// Appends the header of an `opcode` frame whose body is `body_len`
/// bytes.
fn push_header(out: &mut Vec<u8>, opcode: u8, body_len: usize) {
    out.push(PROTOCOL_VERSION);
    out.push(opcode);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
}

/// Frames `body` under `(version, opcode)` — header plus body in one
/// buffer, so transports issue a single write per frame.
fn frame(opcode: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    push_header(&mut out, opcode, body.len());
    out.extend_from_slice(body);
    out
}

/// A little-endian cursor over a frame body.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().expect("2 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// `n` little-endian limbs.
    fn limbs(&mut self, n: usize) -> Option<Vec<u64>> {
        let bytes = self.take(n * 8)?;
        Some(
            bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect(),
        )
    }
}

fn bad(seq: u64, code: ErrorCode, message: impl Into<String>) -> RequestError {
    RequestError {
        seq,
        code,
        message: message.into(),
    }
}

/// Best-effort sequence number of a malformed body: the first 8 bytes if
/// present, else 0 — so truncated frames still answer a seq when they
/// carried one.
fn peek_seq(body: &[u8]) -> u64 {
    Cursor::new(body).u64().unwrap_or(0)
}

/// Resolves a frame's engine id against the listing order. `names` is the
/// server's `ENGINES` listing without `auto` (ids in slice order).
fn resolve_engine(id: u8, seq: u64, names: &[&'static str]) -> Result<&'static str, RequestError> {
    if id == ENGINE_ID_AUTO {
        return Ok(AUTO_ENGINE);
    }
    names.get(id as usize).copied().ok_or_else(|| {
        let known: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, n)| format!("{i}={n}"))
            .chain(std::iter::once(format!("{ENGINE_ID_AUTO}={AUTO_ENGINE}")))
            .collect();
        bad(
            seq,
            ErrorCode::UnknownEngine,
            format!("unknown engine id {id}; known ids: {}", known.join(" ")),
        )
    })
}

/// Limbs per operand at `width`.
fn limbs_for(width: usize) -> usize {
    width.div_ceil(64)
}

/// Validates that an operand's top limb has no bits at or above `width`.
fn check_operand(seq: u64, width: usize, k: usize, limbs: &[u64]) -> Result<(), RequestError> {
    let used = width % 64;
    if used != 0 && limbs[limbs.len() - 1] >> used != 0 {
        return Err(bad(
            seq,
            ErrorCode::BadOperand,
            format!("operand {k}: bits set at or above width {width}"),
        ));
    }
    Ok(())
}

/// The shared `seq | engine | width | nops` head of a computing request.
fn decode_head(
    cmd: &str,
    cursor: &mut Cursor<'_>,
    names: &[&'static str],
) -> Result<(u64, &'static str, usize, usize), RequestError> {
    let seq = cursor
        .u64()
        .ok_or_else(|| bad(0, ErrorCode::BadRequest, format!("{cmd} body is truncated")))?;
    let truncated = || {
        bad(
            seq,
            ErrorCode::BadRequest,
            format!("{cmd} body is truncated"),
        )
    };
    let engine_id = cursor.u8().ok_or_else(truncated)?;
    let width = cursor.u16().ok_or_else(truncated)? as usize;
    let nops = cursor.u16().ok_or_else(truncated)? as usize;
    if !WIDTH_RANGE.contains(&width) {
        return Err(bad(
            seq,
            ErrorCode::BadWidth,
            format!(
                "width {width} outside {}..={}",
                WIDTH_RANGE.start(),
                WIDTH_RANGE.end()
            ),
        ));
    }
    let engine = resolve_engine(engine_id, seq, names)?;
    Ok((seq, engine, width, nops))
}

/// Exactly `n` limb operands at `width`, as values, then end of body.
fn decode_values(
    cmd: &str,
    seq: u64,
    width: usize,
    n: usize,
    cursor: &mut Cursor<'_>,
) -> Result<Vec<UBig>, RequestError> {
    let nl = limbs_for(width);
    let mut operands = Vec::with_capacity(n);
    for k in 0..n {
        let limbs = cursor.limbs(nl).ok_or_else(|| {
            bad(
                seq,
                ErrorCode::BadRequest,
                format!("{cmd} is missing operand {k} of {n}"),
            )
        })?;
        check_operand(seq, width, k, &limbs)?;
        operands.push(UBig::from_limbs(&limbs, width));
    }
    if cursor.remaining() != 0 {
        return Err(bad(
            seq,
            ErrorCode::BadRequest,
            format!("{cmd} body has {} trailing bytes", cursor.remaining()),
        ));
    }
    Ok(operands)
}

/// Decodes one request frame body. `names` is the server's engine listing
/// (ids in slice order, `auto` excluded).
///
/// # Errors
///
/// Returns the [`RequestError`] to answer with an `ERR` frame; the length
/// prefix already kept the stream in sync, so the connection continues.
pub fn decode_request(
    opcode: u8,
    body: &[u8],
    names: &[&'static str],
) -> Result<BinRequest, RequestError> {
    let mut cursor = Cursor::new(body);
    match opcode {
        op::ADD => {
            let (seq, engine, width, nops) = decode_head("ADD", &mut cursor, names)?;
            if nops != 2 {
                return Err(bad(
                    seq,
                    ErrorCode::BadRequest,
                    format!("ADD carries exactly 2 operands, got {nops}"),
                ));
            }
            let nl = limbs_for(width);
            let truncated = || {
                bad(
                    seq,
                    ErrorCode::BadRequest,
                    "ADD body is truncated".to_string(),
                )
            };
            let a = cursor.limbs(nl).ok_or_else(truncated)?;
            let b = cursor.limbs(nl).ok_or_else(truncated)?;
            if cursor.remaining() != 0 {
                return Err(bad(
                    seq,
                    ErrorCode::BadRequest,
                    format!("ADD body has {} trailing bytes", cursor.remaining()),
                ));
            }
            check_operand(seq, width, 0, &a)?;
            check_operand(seq, width, 1, &b)?;
            Ok(BinRequest::Add {
                seq,
                engine,
                width,
                a,
                b,
            })
        }
        op::SUM => {
            let (seq, engine, width, nops) = decode_head("SUM", &mut cursor, names)?;
            if !OPERAND_RANGE.contains(&nops) {
                return Err(bad(
                    seq,
                    ErrorCode::BadRequest,
                    format!(
                        "operand count {nops} outside {}..={}",
                        OPERAND_RANGE.start(),
                        OPERAND_RANGE.end()
                    ),
                ));
            }
            let operands = decode_values("SUM", seq, width, nops, &mut cursor)?;
            Ok(BinRequest::Sum {
                seq,
                engine,
                width,
                operands,
            })
        }
        op::PROG => {
            let (seq, engine, width, nops) = decode_head("PROG", &mut cursor, names)?;
            if !OPERAND_RANGE.contains(&nops) {
                return Err(bad(
                    seq,
                    ErrorCode::BadRequest,
                    format!(
                        "operand count {nops} outside {}..={}",
                        OPERAND_RANGE.start(),
                        OPERAND_RANGE.end()
                    ),
                ));
            }
            let spec_len = cursor
                .u16()
                .ok_or_else(|| bad(seq, ErrorCode::BadRequest, "PROG body is truncated"))?;
            let spec = cursor
                .take(spec_len as usize)
                .ok_or_else(|| bad(seq, ErrorCode::BadRequest, "PROG spec is truncated"))?;
            let spec = std::str::from_utf8(spec)
                .map_err(|_| bad(seq, ErrorCode::BadRequest, "PROG spec is not utf-8"))?;
            let program = Program::from_spec(spec, nops)
                .map_err(|e| bad(seq, ErrorCode::BadRequest, format!("program spec: {e}")))?;
            let inputs = decode_values("PROG", seq, width, nops, &mut cursor)?;
            Ok(BinRequest::Prog {
                seq,
                engine,
                width,
                program,
                inputs,
            })
        }
        op::ENGINES | op::STATS => {
            if !body.is_empty() {
                return Err(bad(
                    0,
                    ErrorCode::BadRequest,
                    "ENGINES/STATS frames carry no body",
                ));
            }
            Ok(if opcode == op::ENGINES {
                BinRequest::Engines
            } else {
                BinRequest::Stats
            })
        }
        op::SLO => {
            let malformed = || {
                bad(
                    0,
                    ErrorCode::BadRequest,
                    "SLO frames are action u8 + micros u64",
                )
            };
            let action = cursor.u8().ok_or_else(malformed)?;
            let micros = cursor.u64().ok_or_else(malformed)?;
            if cursor.remaining() != 0 {
                return Err(malformed());
            }
            let action = match (action, micros) {
                (0, 0) => SloAction::Query,
                (1, m) if m >= 1 => SloAction::Set(m),
                (2, 0) => SloAction::Clear,
                _ => {
                    return Err(bad(
                        0,
                        ErrorCode::BadRequest,
                        format!("SLO action {action} with micros {micros} is invalid"),
                    ))
                }
            };
            Ok(BinRequest::Slo(action))
        }
        other => Err(bad(
            peek_seq(body),
            ErrorCode::BadRequest,
            format!("unknown opcode {other:#04x}"),
        )),
    }
}

fn push_limbs(out: &mut Vec<u8>, limbs: &[u64]) {
    for &limb in limbs {
        out.extend_from_slice(&limb.to_le_bytes());
    }
}

fn request_head(seq: u64, engine_id: u8, width: usize, nops: usize) -> Vec<u8> {
    let mut body = Vec::with_capacity(13);
    body.extend_from_slice(&seq.to_le_bytes());
    body.push(engine_id);
    body.extend_from_slice(&(width as u16).to_le_bytes());
    body.extend_from_slice(&(nops as u16).to_le_bytes());
    body
}

/// Encodes an `ADD` frame from raw limbs (the client's submit path).
pub fn encode_add(seq: u64, engine_id: u8, width: usize, a: &[u64], b: &[u64]) -> Vec<u8> {
    let mut body = request_head(seq, engine_id, width, 2);
    push_limbs(&mut body, a);
    push_limbs(&mut body, b);
    frame(op::ADD, &body)
}

/// Encodes a `SUM` frame.
///
/// # Panics
///
/// Panics if `operands` is empty (the width comes from the first one).
pub fn encode_sum(seq: u64, engine_id: u8, operands: &[UBig]) -> Vec<u8> {
    let width = operands[0].width();
    let mut body = request_head(seq, engine_id, width, operands.len());
    for op in operands {
        push_limbs(&mut body, op.limbs());
    }
    frame(op::SUM, &body)
}

/// Encodes a `PROG` frame.
///
/// # Panics
///
/// Panics if `inputs` is empty or the program's spec exceeds `u16::MAX`
/// bytes (no [`Program`] within [`vlcsa::program::MAX_PROGRAM_STEPS`]
/// does).
pub fn encode_program(seq: u64, engine_id: u8, program: &Program, inputs: &[UBig]) -> Vec<u8> {
    let spec = program.spec();
    let width = inputs[0].width();
    let mut body = request_head(seq, engine_id, width, inputs.len());
    body.extend_from_slice(
        &u16::try_from(spec.len())
            .expect("spec fits u16")
            .to_le_bytes(),
    );
    body.extend_from_slice(spec.as_bytes());
    for op in inputs {
        push_limbs(&mut body, op.limbs());
    }
    frame(op::PROG, &body)
}

/// Encodes an `ENGINES` request frame.
pub fn encode_engines_request() -> Vec<u8> {
    frame(op::ENGINES, &[])
}

/// Encodes a `STATS` request frame.
pub fn encode_stats_request() -> Vec<u8> {
    frame(op::STATS, &[])
}

/// Encodes an `SLO` request frame.
pub fn encode_slo_request(action: SloAction) -> Vec<u8> {
    let (action, micros) = match action {
        SloAction::Query => (0u8, 0u64),
        SloAction::Set(m) => (1, m),
        SloAction::Clear => (2, 0),
    };
    let mut body = Vec::with_capacity(9);
    body.push(action);
    body.extend_from_slice(&micros.to_le_bytes());
    frame(op::SLO, &body)
}

/// Encodes an `OK` response frame straight from limbs — no hex, no
/// [`UBig`] formatting on the reply path.
pub fn encode_ok(seq: u64, cout: bool, cycles: u8, sum_limbs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 10 + sum_limbs.len() * 8);
    push_ok(&mut out, seq, cout, cycles, sum_limbs);
    out
}

/// Appends the `OK` frame [`encode_ok`] builds to `out` — the form a
/// transport uses to encode many answers back to back into one reused
/// buffer and write them at once.
pub fn push_ok(out: &mut Vec<u8>, seq: u64, cout: bool, cycles: u8, sum_limbs: &[u64]) {
    push_header(out, resp::OK, 10 + sum_limbs.len() * 8);
    out.extend_from_slice(&seq.to_le_bytes());
    out.push(u8::from(cout));
    out.push(cycles);
    push_limbs(out, sum_limbs);
}

/// Encodes an `ERR` response frame.
pub fn encode_err(err: &RequestError) -> Vec<u8> {
    let mut body = Vec::with_capacity(9 + err.message.len());
    body.extend_from_slice(&err.seq.to_le_bytes());
    body.push(code_byte(err.code));
    body.extend_from_slice(err.message.as_bytes());
    frame(resp::ERR, &body)
}

/// Encodes the `ENGINES` response listing.
///
/// # Panics
///
/// Panics if an entry's name exceeds 255 bytes or there are more than 255
/// entries (registry names are short; the id space is a `u8`).
pub fn encode_engines(entries: &[(u8, &str)]) -> Vec<u8> {
    let mut body = vec![u8::try_from(entries.len()).expect("at most 255 engines")];
    for (id, name) in entries {
        body.push(*id);
        body.push(u8::try_from(name.len()).expect("engine names fit a u8 length"));
        body.extend_from_slice(name.as_bytes());
    }
    frame(resp::ENGINES, &body)
}

/// Encodes the `STATS` response frame around the text snapshot line.
pub fn encode_stats(line: &str) -> Vec<u8> {
    frame(resp::STATS, line.as_bytes())
}

/// Encodes the `SLO` response frame.
pub fn encode_slo(budget: Option<u64>) -> Vec<u8> {
    let mut body = Vec::with_capacity(9);
    match budget {
        Some(micros) => {
            body.push(1);
            body.extend_from_slice(&micros.to_le_bytes());
        }
        None => {
            body.push(0);
            body.extend_from_slice(&0u64.to_le_bytes());
        }
    }
    frame(resp::SLO, &body)
}

/// Decodes one response frame body, client side.
///
/// # Errors
///
/// Returns a description of the malformed frame.
pub fn decode_response(opcode: u8, body: &[u8]) -> Result<BinResponse, String> {
    let mut cursor = Cursor::new(body);
    match opcode {
        resp::OK => {
            let seq = cursor.u64().ok_or("OK frame is truncated")?;
            let cout = match cursor.u8().ok_or("OK frame is truncated")? {
                0 => false,
                1 => true,
                other => return Err(format!("OK cout must be 0|1, got {other}")),
            };
            let cycles = cursor.u8().ok_or("OK frame is truncated")?;
            if !cursor.remaining().is_multiple_of(8) {
                return Err(format!(
                    "OK sum is {} bytes, not whole limbs",
                    cursor.remaining()
                ));
            }
            let n = cursor.remaining() / 8;
            let sum_limbs = cursor.limbs(n).expect("sized above");
            Ok(BinResponse::Ok {
                seq,
                cout,
                cycles,
                sum_limbs,
            })
        }
        resp::ERR => {
            let seq = cursor.u64().ok_or("ERR frame is truncated")?;
            let code = cursor
                .u8()
                .and_then(code_from_byte)
                .ok_or("ERR frame needs a known code byte")?;
            let message = std::str::from_utf8(cursor.take(cursor.remaining()).expect("rest"))
                .map_err(|_| "ERR message is not utf-8")?
                .to_string();
            Ok(BinResponse::Err(RequestError { seq, code, message }))
        }
        resp::ENGINES => {
            let count = cursor.u8().ok_or("ENGINES frame is truncated")?;
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let id = cursor.u8().ok_or("ENGINES entry is truncated")?;
                let len = cursor.u8().ok_or("ENGINES entry is truncated")?;
                let name = std::str::from_utf8(
                    cursor
                        .take(len as usize)
                        .ok_or("ENGINES entry is truncated")?,
                )
                .map_err(|_| "ENGINES name is not utf-8")?;
                entries.push((id, name.to_string()));
            }
            if cursor.remaining() != 0 {
                return Err("ENGINES frame has trailing bytes".into());
            }
            Ok(BinResponse::Engines(entries))
        }
        resp::STATS => {
            let line = std::str::from_utf8(body).map_err(|_| "STATS payload is not utf-8")?;
            Ok(BinResponse::Stats(line.to_string()))
        }
        resp::SLO => {
            let flag = cursor.u8().ok_or("SLO frame is truncated")?;
            let micros = cursor.u64().ok_or("SLO frame is truncated")?;
            if cursor.remaining() != 0 {
                return Err("SLO frame has trailing bytes".into());
            }
            match flag {
                0 => Ok(BinResponse::Slo(None)),
                1 => Ok(BinResponse::Slo(Some(micros))),
                other => Err(format!("SLO flag must be 0|1, got {other}")),
            }
        }
        other => Err(format!("unknown response opcode {other:#04x}")),
    }
}

/// Reads one frame — `(opcode, body)` — from a buffered stream.
///
/// # Errors
///
/// `Ok(None)` is a clean end-of-stream at a frame boundary. `Err` carries
/// a [`FrameReadError`]: an io/EOF error mid-frame, an unknown version
/// byte, or a lying length prefix — all conditions under which the stream
/// cannot be resynchronized.
pub fn read_frame(
    reader: &mut impl std::io::BufRead,
) -> Result<Option<(u8, Vec<u8>)>, FrameReadError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "closed between frames" from "died mid-frame": only the
    // former is a clean close.
    match reader.fill_buf() {
        Ok([]) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(FrameReadError::Io(e)),
    }
    reader.read_exact(&mut header).map_err(FrameReadError::Io)?;
    let version = header[0];
    if version != PROTOCOL_VERSION {
        return Err(FrameReadError::BadVersion(version));
    }
    let len = u32::from_le_bytes(header[2..6].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BODY {
        return Err(FrameReadError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(FrameReadError::Io)?;
    Ok(Some((header[1], body)))
}

/// Why [`read_frame`] gave up on a stream.
#[derive(Debug)]
pub enum FrameReadError {
    /// The socket failed or closed mid-frame.
    Io(std::io::Error),
    /// The version byte is not [`PROTOCOL_VERSION`]; nothing after it can
    /// be trusted.
    BadVersion(u8),
    /// The length prefix exceeds [`MAX_FRAME_BODY`]; it is lying.
    Oversized(usize),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameReadError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameReadError::Oversized(len) => {
                write!(
                    f,
                    "frame body of {len} bytes exceeds the {MAX_FRAME_BODY}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for FrameReadError {}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 4] = ["ripple", "carry-select", "vlcsa1", "vlcsa2"];

    fn body_of(frame_bytes: &[u8]) -> (u8, &[u8]) {
        assert_eq!(frame_bytes[0], PROTOCOL_VERSION);
        let len = u32::from_le_bytes(frame_bytes[2..6].try_into().unwrap()) as usize;
        assert_eq!(frame_bytes.len(), HEADER_LEN + len, "length prefix lies");
        (frame_bytes[1], &frame_bytes[HEADER_LEN..])
    }

    #[test]
    fn add_frame_roundtrips_limbs_verbatim() {
        let a = [0xdead_beef_u64, 0x3];
        let b = [0x1234, 0x0];
        let encoded = encode_add(42, 2, 100, &a, &b);
        let (opcode, body) = body_of(&encoded);
        assert_eq!(opcode, op::ADD);
        match decode_request(opcode, body, &NAMES).unwrap() {
            BinRequest::Add {
                seq,
                engine,
                width,
                a: da,
                b: db,
            } => {
                assert_eq!((seq, engine, width), (42, "vlcsa1", 100));
                assert_eq!(da, a);
                assert_eq!(db, b);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn auto_and_bad_engine_ids() {
        let encoded = encode_add(1, ENGINE_ID_AUTO, 64, &[5], &[6]);
        let (opcode, body) = body_of(&encoded);
        match decode_request(opcode, body, &NAMES).unwrap() {
            BinRequest::Add { engine, .. } => assert_eq!(engine, AUTO_ENGINE),
            other => panic!("decoded {other:?}"),
        }
        // An out-of-range id answers with the id ↔ name listing, code
        // unknown-engine — the Registry::lookup error path, binary shaped.
        let encoded = encode_add(7, 9, 64, &[5], &[6]);
        let (opcode, body) = body_of(&encoded);
        let err = decode_request(opcode, body, &NAMES).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownEngine);
        assert_eq!(err.seq, 7);
        assert!(err.message.contains("0=ripple"), "{}", err.message);
        assert!(err.message.contains("255=auto"), "{}", err.message);
    }

    #[test]
    fn sum_and_prog_roundtrip() {
        let ops: Vec<UBig> = [0xdeadu128, 0xbeef, 0x7]
            .iter()
            .map(|&v| UBig::from_u128(v, 48))
            .collect();
        let (opcode, body_owned) = {
            let f = encode_sum(9, 0, &ops);
            let (o, b) = body_of(&f);
            (o, b.to_vec())
        };
        match decode_request(opcode, &body_owned, &NAMES).unwrap() {
            BinRequest::Sum {
                seq,
                engine,
                width,
                operands,
            } => {
                assert_eq!((seq, engine, width), (9, "ripple", 48));
                assert_eq!(operands, ops);
            }
            other => panic!("decoded {other:?}"),
        }
        let program = Program::from_spec("i0+i1,t0+i2", 3).unwrap();
        let f = encode_program(3, 1, &program, &ops);
        let (opcode, body) = body_of(&f);
        match decode_request(opcode, body, &NAMES).unwrap() {
            BinRequest::Prog {
                seq,
                engine,
                width,
                program: p,
                inputs,
            } => {
                assert_eq!((seq, engine, width), (3, "carry-select", 48));
                assert_eq!(p, program);
                assert_eq!(inputs, ops);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        for (frame_bytes, want) in [
            (encode_engines_request(), BinRequest::Engines),
            (encode_stats_request(), BinRequest::Stats),
            (
                encode_slo_request(SloAction::Query),
                BinRequest::Slo(SloAction::Query),
            ),
            (
                encode_slo_request(SloAction::Set(750)),
                BinRequest::Slo(SloAction::Set(750)),
            ),
            (
                encode_slo_request(SloAction::Clear),
                BinRequest::Slo(SloAction::Clear),
            ),
        ] {
            let (opcode, body) = body_of(&frame_bytes);
            assert_eq!(decode_request(opcode, body, &NAMES).unwrap(), want);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for (frame_bytes, want) in [
            (
                encode_ok(11, true, 2, &[0xffff_0001, 0x9]),
                BinResponse::Ok {
                    seq: 11,
                    cout: true,
                    cycles: 2,
                    sum_limbs: vec![0xffff_0001, 0x9],
                },
            ),
            (
                encode_err(&RequestError {
                    seq: 3,
                    code: ErrorCode::BadWidth,
                    message: "width 0 outside 1..=4096".into(),
                }),
                BinResponse::Err(RequestError {
                    seq: 3,
                    code: ErrorCode::BadWidth,
                    message: "width 0 outside 1..=4096".into(),
                }),
            ),
            (
                encode_engines(&[(0, "ripple"), (ENGINE_ID_AUTO, "auto")]),
                BinResponse::Engines(vec![(0, "ripple".into()), (ENGINE_ID_AUTO, "auto".into())]),
            ),
            (
                encode_stats("STATS queue_depth=0"),
                BinResponse::Stats("STATS queue_depth=0".into()),
            ),
            (encode_slo(Some(500)), BinResponse::Slo(Some(500))),
            (encode_slo(None), BinResponse::Slo(None)),
        ] {
            let (opcode, body) = body_of(&frame_bytes);
            assert_eq!(decode_response(opcode, body).unwrap(), want, "{opcode:#x}");
        }
    }

    #[test]
    fn malformed_bodies_answer_with_codes_not_panics() {
        // Truncations at every boundary, wrong counts, stray bits — all
        // answerable ERRs (the length prefix keeps the stream in sync).
        let good = encode_add(5, 0, 64, &[1], &[2]);
        let (_, good_body) = body_of(&good);
        for cut in 0..good_body.len() {
            let err = decode_request(op::ADD, &good_body[..cut], &NAMES).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "cut at {cut}");
        }
        // Trailing bytes.
        let mut long = good_body.to_vec();
        long.push(0);
        assert_eq!(
            decode_request(op::ADD, &long, &NAMES).unwrap_err().code,
            ErrorCode::BadRequest
        );
        // Stray bits above the width.
        let stray = encode_add(5, 0, 60, &[1 << 63], &[0]);
        let (_, body) = body_of(&stray);
        let err = decode_request(op::ADD, body, &NAMES).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadOperand);
        assert_eq!(err.seq, 5);
        // Width 0 and width past the cap.
        for width in [0usize, 5000] {
            let f = encode_add(6, 0, width, &[0], &[0]);
            let (_, body) = body_of(&f);
            assert_eq!(
                decode_request(op::ADD, body, &NAMES).unwrap_err().code,
                ErrorCode::BadWidth
            );
        }
        // Unknown opcode still recovers the seq for the answer.
        let err = decode_request(0x7f, good_body, &NAMES).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(err.seq, 5);
        // SUM operand-count bounds ride the shared head.
        let many = vec![UBig::zero(8); 3];
        let f = encode_sum(5, 0, &many);
        let (_, body) = body_of(&f);
        let mut forged = body.to_vec();
        forged[11..13].copy_from_slice(&100u16.to_le_bytes());
        assert_eq!(
            decode_request(op::SUM, &forged, &NAMES).unwrap_err().code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn read_frame_distinguishes_clean_close_from_mid_frame_death() {
        use std::io::BufReader;
        // Clean close at a frame boundary.
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut BufReader::new(empty)), Ok(None)));
        // A whole frame, then a clean close.
        let f = encode_stats_request();
        let mut reader = BufReader::new(f.as_slice());
        let (opcode, body) = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!((opcode, body.as_slice()), (op::STATS, &[][..]));
        assert!(matches!(read_frame(&mut reader), Ok(None)));
        // Death mid-header and mid-body are io errors, not clean closes.
        for cut in [1, HEADER_LEN + 1] {
            let whole = encode_slo_request(SloAction::Query);
            let mut reader = BufReader::new(&whole[..cut]);
            assert!(matches!(
                read_frame(&mut reader),
                Err(FrameReadError::Io(_))
            ));
        }
        // An unknown version byte poisons the stream.
        let mut bad = encode_stats_request();
        bad[0] = 9;
        assert!(matches!(
            read_frame(&mut BufReader::new(bad.as_slice())),
            Err(FrameReadError::BadVersion(9))
        ));
        // A lying length prefix is rejected before any allocation.
        let mut lying = encode_stats_request();
        lying[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut BufReader::new(lying.as_slice())),
            Err(FrameReadError::Oversized(_))
        ));
    }
}
