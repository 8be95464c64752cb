//! Wire protocol v2, the binary codec of the request model: versioned,
//! length-prefixed frames whose operands are little-endian `u64` limbs.
//!
//! [`decode_request`] turns a request frame into the same
//! [`Request`] that [`protocol::parse_request`](crate::protocol::parse_request)
//! makes of a text line, and [`encode_response`] / [`decode_response`]
//! spell the same [`Response`] that the text codec spells as a line. Only
//! the bytes differ.
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
//! little-endian limb first — precisely the [`UBig::limbs`] layout, so an
//! operand is copied from the frame into its value, never parsed.
//! `engine` is an engine's id in the server's `ENGINES` listing: its index
//! in the listing, and [`ENGINE_ID_AUTO`] for the `auto` pseudo-engine,
//! which the listing names last. [`encode_response`] assigns the ids by
//! that rule, [`decode_response`] refuses a listing that breaks it, and
//! [`engine_id`] looks a name's id up by it.
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

use crate::protocol::{
    check_operand_count, check_width, format_response, parse_response, ErrorCode, Request,
    RequestError, Response, SloAction,
};

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

/// The id of the engine named `name` at `index` of an `ENGINES` listing:
/// its index, or [`ENGINE_ID_AUTO`] for `auto`.
fn listing_id(index: usize, name: &str) -> u8 {
    if name == AUTO_ENGINE {
        ENGINE_ID_AUTO
    } else {
        index as u8
    }
}

/// The wire id of `engine` in an `ENGINES` listing — the client's side of
/// the id rule. `None` if the listing does not name it.
pub fn engine_id(listing: &[String], engine: &str) -> Option<u8> {
    let index = listing.iter().position(|name| name == engine)?;
    Some(listing_id(index, engine))
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

    /// The rest of the body, which must be whole limbs.
    fn rest(&mut self) -> &'a [u8] {
        self.take(self.remaining()).expect("the rest is in range")
    }
}

/// Best-effort sequence number of a malformed body: the first 8 bytes if
/// present, else 0 — so truncated frames still answer a seq when they
/// carried one.
fn peek_seq(body: &[u8]) -> u64 {
    Cursor::new(body).u64().unwrap_or(0)
}

/// Resolves a frame's engine id by the listing rule. `names` is the
/// server's `ENGINES` listing without `auto` (ids in slice order).
fn resolve_engine(id: u8, seq: u64, names: &[&'static str]) -> Result<&'static str, RequestError> {
    if id == ENGINE_ID_AUTO {
        return Ok(AUTO_ENGINE);
    }
    names.get(id as usize).copied().ok_or_else(|| {
        let known: Vec<String> = names
            .iter()
            .chain(std::iter::once(&AUTO_ENGINE))
            .enumerate()
            .map(|(i, n)| format!("{}={n}", listing_id(i, n)))
            .collect();
        RequestError::new(
            seq,
            ErrorCode::UnknownEngine,
            format!("unknown engine id {id}; known ids: {}", known.join(" ")),
        )
    })
}

/// Operand `k` as a value, from its `width.div_ceil(64)` limbs of frame
/// bytes: the limbs are gathered on the stack and the value is built
/// with one allocation, once its top limb has been checked for bits at or
/// above `width`.
fn operand(seq: u64, width: usize, k: usize, bytes: &[u8]) -> Result<UBig, RequestError> {
    let mut limbs = [0u64; bitnum::MAX_WIDTH / 64];
    let limbs = &mut limbs[..bytes.len() / 8];
    for (limb, le) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
        *limb = u64::from_le_bytes(le.try_into().expect("8 bytes"));
    }
    let used = width % 64;
    if used != 0 && limbs[limbs.len() - 1] >> used != 0 {
        return Err(RequestError::new(
            seq,
            ErrorCode::BadOperand,
            format!("operand {k}: bits set at or above width {width}"),
        ));
    }
    Ok(UBig::from_limbs(limbs, width))
}

/// The shared `seq | engine | width | nops` head of a computing request.
fn decode_head(
    cmd: &str,
    cursor: &mut Cursor<'_>,
    names: &[&'static str],
) -> Result<(u64, &'static str, usize, usize), RequestError> {
    let truncated = |seq| {
        RequestError::new(
            seq,
            ErrorCode::BadRequest,
            format!("{cmd} body is truncated"),
        )
    };
    let seq = cursor.u64().ok_or_else(|| truncated(0))?;
    let engine_id = cursor.u8().ok_or_else(|| truncated(seq))?;
    let width = cursor.u16().ok_or_else(|| truncated(seq))? as usize;
    let nops = cursor.u16().ok_or_else(|| truncated(seq))? as usize;
    check_width(seq, width)?;
    let engine = resolve_engine(engine_id, seq, names)?;
    Ok((seq, engine, width, nops))
}

/// Exactly `n` operands at `width`, as values, then end of body.
fn decode_values(
    cmd: &str,
    seq: u64,
    width: usize,
    n: usize,
    cursor: &mut Cursor<'_>,
) -> Result<Vec<UBig>, RequestError> {
    let bytes = width.div_ceil(64) * 8;
    let mut operands = Vec::with_capacity(n);
    for k in 0..n {
        let limbs = cursor.take(bytes).ok_or_else(|| {
            RequestError::new(
                seq,
                ErrorCode::BadRequest,
                format!("{cmd} is missing operand {k} of {n}"),
            )
        })?;
        operands.push(operand(seq, width, k, limbs)?);
    }
    if cursor.remaining() != 0 {
        return Err(RequestError::new(
            seq,
            ErrorCode::BadRequest,
            format!("{cmd} body has {} trailing bytes", cursor.remaining()),
        ));
    }
    Ok(operands)
}

/// Decodes one request frame body into the request model. `names` is the
/// server's engine listing (ids in slice order, `auto` excluded), so the
/// request's engine is the registry's own name.
///
/// # Errors
///
/// Returns the [`RequestError`] to answer with an `ERR` frame; the length
/// prefix already kept the stream in sync, so the connection continues.
pub fn decode_request(
    opcode: u8,
    body: &[u8],
    names: &[&'static str],
) -> Result<Request<'static>, RequestError> {
    let mut cursor = Cursor::new(body);
    match opcode {
        op::ADD => {
            let (seq, engine, width, nops) = decode_head("ADD", &mut cursor, names)?;
            if nops != 2 {
                return Err(RequestError::new(
                    seq,
                    ErrorCode::BadRequest,
                    format!("ADD carries exactly 2 operands, got {nops}"),
                ));
            }
            let bytes = width.div_ceil(64) * 8;
            let truncated =
                || RequestError::new(seq, ErrorCode::BadRequest, "ADD body is truncated");
            let a = cursor.take(bytes).ok_or_else(truncated)?;
            let b = cursor.take(bytes).ok_or_else(truncated)?;
            if cursor.remaining() != 0 {
                return Err(RequestError::new(
                    seq,
                    ErrorCode::BadRequest,
                    format!("ADD body has {} trailing bytes", cursor.remaining()),
                ));
            }
            Ok(Request::Add {
                seq,
                engine,
                a: operand(seq, width, 0, a)?,
                b: operand(seq, width, 1, b)?,
            })
        }
        op::SUM | op::PROG => {
            let cmd = if opcode == op::SUM { "SUM" } else { "PROG" };
            let (seq, engine, width, nops) = decode_head(cmd, &mut cursor, names)?;
            check_operand_count(seq, nops)?;
            if opcode == op::SUM {
                let operands = decode_values(cmd, seq, width, nops, &mut cursor)?;
                return Ok(Request::Sum {
                    seq,
                    engine,
                    operands,
                });
            }
            let bad = |message: &str| RequestError::new(seq, ErrorCode::BadRequest, message);
            let spec_len = cursor.u16().ok_or_else(|| bad("PROG body is truncated"))?;
            let spec = cursor
                .take(spec_len as usize)
                .ok_or_else(|| bad("PROG spec is truncated"))?;
            let spec = std::str::from_utf8(spec).map_err(|_| bad("PROG spec is not utf-8"))?;
            let program =
                Program::from_spec(spec, nops).map_err(|e| bad(&format!("program spec: {e}")))?;
            let inputs = decode_values(cmd, seq, width, nops, &mut cursor)?;
            Ok(Request::Program {
                seq,
                engine,
                program,
                inputs,
            })
        }
        op::ENGINES | op::STATS => {
            if !body.is_empty() {
                return Err(RequestError::new(
                    0,
                    ErrorCode::BadRequest,
                    "ENGINES/STATS frames carry no body",
                ));
            }
            Ok(if opcode == op::ENGINES {
                Request::Engines
            } else {
                Request::Stats
            })
        }
        op::SLO => {
            let malformed = || {
                RequestError::new(
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
                    return Err(RequestError::new(
                        0,
                        ErrorCode::BadRequest,
                        format!("SLO action {action} with micros {micros} is invalid"),
                    ))
                }
            };
            Ok(Request::Slo(action))
        }
        other => Err(RequestError::new(
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

/// Encodes one response as its frame — the binary twin of
/// [`format_response`]. An `ENGINES` listing gets its ids by the listing
/// rule, and a `STATS` frame carries the snapshot's text line: one
/// format, one parser, whatever the transport.
///
/// # Panics
///
/// Panics if an `ENGINES` listing has more than 255 entries or a name
/// longer than 255 bytes (registry names are short; the id space is a
/// `u8`).
pub fn encode_response(response: &Response) -> Vec<u8> {
    match response {
        Response::Ok {
            seq,
            sum,
            cout,
            cycles,
        } => encode_ok(*seq, *cout, *cycles, sum.limbs()),
        Response::Err(err) => {
            let mut body = Vec::with_capacity(9 + err.message.len());
            body.extend_from_slice(&err.seq.to_le_bytes());
            body.push(code_byte(err.code));
            body.extend_from_slice(err.message.as_bytes());
            frame(resp::ERR, &body)
        }
        Response::Engines(names) => {
            let mut body = vec![u8::try_from(names.len()).expect("at most 255 engines")];
            for (i, name) in names.iter().enumerate() {
                body.push(listing_id(i, name));
                body.push(u8::try_from(name.len()).expect("engine names fit a u8 length"));
                body.extend_from_slice(name.as_bytes());
            }
            frame(resp::ENGINES, &body)
        }
        Response::Stats(_) => frame(resp::STATS, format_response(response).as_bytes()),
        Response::Slo(budget) => {
            let mut body = vec![u8::from(budget.is_some())];
            body.extend_from_slice(&budget.unwrap_or(0).to_le_bytes());
            frame(resp::SLO, &body)
        }
    }
}

/// Decodes one response frame body, client side — the binary twin of
/// [`parse_response`]. `width` is the width of the request an `OK`
/// answers: its sum must be exactly `width.div_ceil(64)` limbs.
///
/// # Errors
///
/// Returns a description of the malformed frame, including an `ENGINES`
/// listing whose ids break the listing rule.
pub fn decode_response(opcode: u8, body: &[u8], width: usize) -> Result<Response, String> {
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
            let sum = cursor.rest();
            if sum.len() != width.div_ceil(64) * 8 {
                return Err(format!(
                    "OK sum is {} bytes, width {width} needs {} limbs",
                    sum.len(),
                    width.div_ceil(64)
                ));
            }
            let limbs: Vec<u64> = sum
                .chunks_exact(8)
                .map(|le| u64::from_le_bytes(le.try_into().expect("8 bytes")))
                .collect();
            Ok(Response::Ok {
                seq,
                sum: UBig::from_limbs(&limbs, width),
                cout,
                cycles,
            })
        }
        resp::ERR => {
            let seq = cursor.u64().ok_or("ERR frame is truncated")?;
            let code = cursor
                .u8()
                .and_then(code_from_byte)
                .ok_or("ERR frame needs a known code byte")?;
            let message = text(cursor.rest(), "ERR message")?.to_string();
            Ok(Response::Err(RequestError { seq, code, message }))
        }
        resp::ENGINES => {
            let count = cursor.u8().ok_or("ENGINES frame is truncated")?;
            let mut names = Vec::with_capacity(count as usize);
            for i in 0..count as usize {
                let id = cursor.u8().ok_or("ENGINES entry is truncated")?;
                let len = cursor.u8().ok_or("ENGINES entry is truncated")?;
                let name = cursor
                    .take(len as usize)
                    .ok_or("ENGINES entry is truncated")?;
                let name = text(name, "ENGINES name")?;
                if id != listing_id(i, name) {
                    return Err(format!(
                        "ENGINES entry {i} `{name}` has id {id}, not {}",
                        listing_id(i, name)
                    ));
                }
                names.push(name.to_string());
            }
            if cursor.remaining() != 0 {
                return Err("ENGINES frame has trailing bytes".into());
            }
            Ok(Response::Engines(names))
        }
        resp::STATS => match parse_response(text(body, "STATS payload")?, width)? {
            stats @ Response::Stats(_) => Ok(stats),
            other => Err(format!("STATS payload is not a STATS line: {other:?}")),
        },
        resp::SLO => {
            let flag = cursor.u8().ok_or("SLO frame is truncated")?;
            let micros = cursor.u64().ok_or("SLO frame is truncated")?;
            if cursor.remaining() != 0 {
                return Err("SLO frame has trailing bytes".into());
            }
            match flag {
                0 => Ok(Response::Slo(None)),
                1 => Ok(Response::Slo(Some(micros))),
                other => Err(format!("SLO flag must be 0|1, got {other}")),
            }
        }
        other => Err(format!("unknown response opcode {other:#04x}")),
    }
}

/// `bytes` as text, or an error naming `what` they are.
fn text<'a>(bytes: &'a [u8], what: &str) -> Result<&'a str, String> {
    std::str::from_utf8(bytes).map_err(|_| format!("{what} is not utf-8"))
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
    use crate::protocol::StatsReport;

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
            Request::Add {
                seq,
                engine,
                a: da,
                b: db,
            } => {
                assert_eq!((seq, engine, da.width()), (42, "vlcsa1", 100));
                assert_eq!(da.limbs(), a);
                assert_eq!(db.limbs(), b);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn auto_and_bad_engine_ids() {
        let encoded = encode_add(1, ENGINE_ID_AUTO, 64, &[5], &[6]);
        let (opcode, body) = body_of(&encoded);
        match decode_request(opcode, body, &NAMES).unwrap() {
            Request::Add { engine, .. } => assert_eq!(engine, AUTO_ENGINE),
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
            Request::Sum {
                seq,
                engine,
                operands,
            } => {
                assert_eq!((seq, engine, operands[0].width()), (9, "ripple", 48));
                assert_eq!(operands, ops);
            }
            other => panic!("decoded {other:?}"),
        }
        let program = Program::from_spec("i0+i1,t0+i2", 3).unwrap();
        let f = encode_program(3, 1, &program, &ops);
        let (opcode, body) = body_of(&f);
        match decode_request(opcode, body, &NAMES).unwrap() {
            Request::Program {
                seq,
                engine,
                program: p,
                inputs,
            } => {
                assert_eq!((seq, engine, inputs[0].width()), (3, "carry-select", 48));
                assert_eq!(p, program);
                assert_eq!(inputs, ops);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn control_frames_roundtrip() {
        for (frame_bytes, want) in [
            (encode_engines_request(), Request::Engines),
            (encode_stats_request(), Request::Stats),
            (
                encode_slo_request(SloAction::Query),
                Request::Slo(SloAction::Query),
            ),
            (
                encode_slo_request(SloAction::Set(750)),
                Request::Slo(SloAction::Set(750)),
            ),
            (
                encode_slo_request(SloAction::Clear),
                Request::Slo(SloAction::Clear),
            ),
        ] {
            let (opcode, body) = body_of(&frame_bytes);
            assert_eq!(decode_request(opcode, body, &NAMES).unwrap(), want);
        }
    }

    #[test]
    fn responses_roundtrip() {
        // Each response leaves as a frame and comes back equal, and goes
        // through the text codec too: one model, two codecs.
        let stats = StatsReport {
            max_lanes: 256,
            word_bits: 256,
            slo_micros: None,
            proto_text: 1,
            proto_bin: 2,
            lanes: Vec::new(),
            engines: Vec::new(),
            routes: Vec::new(),
        };
        for (response, width) in [
            (
                Response::Ok {
                    seq: 11,
                    sum: UBig::from_limbs(&[0xffff_0001, 0x9], 100),
                    cout: true,
                    cycles: 2,
                },
                100,
            ),
            (
                Response::Err(RequestError {
                    seq: 3,
                    code: ErrorCode::BadWidth,
                    message: "width 0 outside 1..=4096".into(),
                }),
                1,
            ),
            (Response::Engines(vec!["ripple".into(), "auto".into()]), 1),
            (
                Response::Engines(
                    NAMES
                        .iter()
                        .chain(std::iter::once(&AUTO_ENGINE))
                        .map(|n| n.to_string())
                        .collect(),
                ),
                1,
            ),
            (Response::Stats(stats), 1),
            (Response::Slo(Some(500)), 1),
            (Response::Slo(None), 1),
        ] {
            crate::protocol::tests::roundtrip_both(&response, width);
        }
        // The listing's ids follow the rule: index, and 0xff for `auto`.
        let listing = encode_response(&Response::Engines(vec!["ripple".into(), "auto".into()]));
        assert_eq!(&listing[HEADER_LEN..HEADER_LEN + 3], &[2, 0, 6]);
        assert_eq!(
            &listing[HEADER_LEN + 9..HEADER_LEN + 11],
            &[ENGINE_ID_AUTO, 4]
        );
    }

    #[test]
    fn an_engines_listing_that_breaks_the_id_rule_is_refused() {
        // A hand-built listing per case: `(id, name)` entries.
        let listing = |entries: &[(u8, &str)]| {
            let mut body = vec![entries.len() as u8];
            for (id, name) in entries {
                body.extend_from_slice(&[*id, name.len() as u8]);
                body.extend_from_slice(name.as_bytes());
            }
            body
        };
        let good = listing(&[(0, "ripple"), (1, "cla4"), (ENGINE_ID_AUTO, "auto")]);
        assert_eq!(
            decode_response(resp::ENGINES, &good, 1).unwrap(),
            Response::Engines(vec!["ripple".into(), "cla4".into(), "auto".into()])
        );
        for entries in [
            &[(1, "ripple"), (ENGINE_ID_AUTO, "auto")][..],
            &[(0, "ripple"), (2, "cla4")],
            &[(0, "ripple"), (1, "auto")],
            &[(ENGINE_ID_AUTO, "ripple")],
        ] {
            let err = decode_response(resp::ENGINES, &listing(entries), 1).unwrap_err();
            assert!(err.contains("has id"), "{entries:?}: {err}");
        }
        // The client's lookup follows the same rule.
        let names: Vec<String> = ["ripple", "cla4", "auto"].map(String::from).to_vec();
        assert_eq!(engine_id(&names, "cla4"), Some(1));
        assert_eq!(engine_id(&names, "auto"), Some(ENGINE_ID_AUTO));
        assert_eq!(engine_id(&names, "vlcsa1"), None);
    }

    #[test]
    fn an_ok_sum_must_have_the_width_s_limbs() {
        let frame_bytes = encode_ok(4, false, 1, &[1, 2]);
        let (opcode, body) = body_of(&frame_bytes);
        assert!(decode_response(opcode, body, 65).is_ok());
        for width in [64, 129] {
            let err = decode_response(opcode, body, width).unwrap_err();
            assert!(err.contains("needs"), "{err}");
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
