//! A blocking client for the serve protocol, with pipelining.
//!
//! [`Client::add`] is the one-shot path: submit, wait for that response.
//! For throughput, [`Client::submit`] queues many `ADD`s without waiting
//! and [`Client::recv`] returns completions as the server finishes them —
//! possibly out of submission order, matched back to requests by sequence
//! number (the client tracks each pending request's width so sums parse at
//! the right width).
//!
//! [`Client::connect`] speaks the text protocol; [`Client::connect_binary`]
//! negotiates the binary framing of [`crate::binary`] at connect time
//! (one `HELLO` line, then frames forever) and every method transparently
//! uses frames instead — operands travel as raw little-endian limbs, no
//! hex on either side. The API is identical across the two; only the
//! bytes differ. Every reply, in either framing, is read the same way:
//! one line or one frame, its `seq` peeked to find the pending request's
//! width, then decoded into one [`Response`].
//!
//! # Flush before block
//!
//! Every byte the client sends goes through one send buffer, in call
//! order. A submit is written at once — one write per request — unless a
//! complete reply already sits unread in the receive buffer, which means
//! the caller is draining a burst of replies and will read again without
//! blocking. The request is then held, and every held request goes out in
//! one write just before the client next blocks on a read: in
//! [`Client::recv`] (and so [`Client::add`], [`Client::sum`],
//! [`Client::run_program`]) once no complete reply is buffered, or in
//! [`Client::close`] or on drop. Commands (`ENGINES`, `STATS`, `SLO`, the
//! `HELLO` upgrade) take the same path, behind everything held; called as
//! documented, with nothing in flight, they go out at once. A held
//! request's write error surfaces as [`ClientError::Io`] from the call
//! that writes it.
//!
//! # Example
//!
//! ```no_run
//! use bitnum::UBig;
//! use vlcsa_serve::Client;
//!
//! let mut client = Client::connect("127.0.0.1:4915").unwrap();
//! let a = UBig::from_u128(7, 64);
//! let b = UBig::from_u128(8, 64);
//! let seq = client.submit("vlcsa1", &a, &b).unwrap();
//! let (done, response) = client.recv().unwrap();
//! assert_eq!(done, seq);
//! assert_eq!(response.unwrap().sum.to_u128(), Some(15));
//! ```

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};

use bitnum::UBig;
use vlcsa::program::Program;

use crate::binary::{self, FrameReadError, HEADER_LEN, HELLO_LINE};
use crate::protocol::{
    format_add, format_program, format_sum, parse_response, RequestError, Response, SloAction,
    StatsReport, OPERAND_RANGE,
};

/// One successful `ADD` answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddResponse {
    /// The exact sum, at the request's width.
    pub sum: UBig,
    /// Carry out of the most significant bit.
    pub cout: bool,
    /// Cycles the lane consumed (1, or 2 after a recovery stall).
    pub cycles: u8,
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or closed mid-conversation.
    Io(std::io::Error),
    /// The server sent a line this client cannot parse.
    Protocol(String),
    /// The request cannot be expressed on the wire at all — e.g. a
    /// step-less program, whose spec is the empty string and so not a
    /// protocol token. Nothing was sent; the connection is still usable.
    Unrepresentable(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Unrepresentable(msg) => {
                write!(f, "request not representable on the wire: {msg}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Which encoding this connection committed to at connect time.
enum Wire {
    /// Newline-delimited text ([`crate::protocol`]).
    Text,
    /// Binary frames ([`crate::binary`]); engine names map to the wire's
    /// ids through the listing fetched during the upgrade handshake.
    Binary { listing: Vec<String> },
}

/// Resolves an engine name to its binary wire id
/// ([`binary::engine_id`]). Unlike text mode — where unknown names go to
/// the server and come back as structured `ERR`s — binary frames carry
/// ids, so a name the listing doesn't have is unsendable and fails here,
/// before any bytes move.
fn engine_id(listing: &[String], engine: &str) -> std::io::Result<u8> {
    binary::engine_id(listing, engine).ok_or_else(|| {
        std::io::Error::new(
            ErrorKind::InvalidInput,
            format!("engine `{engine}` is not in the server's listing"),
        )
    })
}

/// The error for a reply that is not the one the call waits for.
fn unexpected(want: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {want} response, got {got:?}"))
}

/// The error for a connection the server closed.
fn closed() -> ClientError {
    ClientError::Io(std::io::Error::new(
        ErrorKind::UnexpectedEof,
        "server closed the connection",
    ))
}

/// Held request bytes past which a submit writes anyway, so a caller
/// that submits without ever reading holds a bounded amount.
const HOLD_LIMIT: usize = 64 * 1024;

/// The blocking protocol client — see the module docs.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Bytes not yet written: held requests, in submission order.
    out: Vec<u8>,
    next_seq: u64,
    /// Widths of in-flight requests, by sequence number.
    pending: HashMap<u64, usize>,
    wire: Wire,
}

impl Client {
    /// Connects to a serve endpoint, speaking the text protocol.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Self {
            writer,
            reader,
            out: Vec::new(),
            next_seq: 1,
            pending: HashMap::new(),
            wire: Wire::Text,
        })
    }

    /// Connects and upgrades to the binary framing: sends the `HELLO`
    /// line, checks the server's echo, and fetches the engine-id listing
    /// the frames will name engines by. After this returns, every method
    /// of this client speaks frames.
    ///
    /// # Errors
    ///
    /// Fails on connect/socket errors, or with a protocol error when the
    /// other end does not speak the upgrade (e.g. an older server answers
    /// `ERR 0 bad-request …` instead of the echo).
    pub fn connect_binary(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let mut client = Self::connect(addr)?;
        client.send(format!("{HELLO_LINE}\n").as_bytes())?;
        let ack = client.read_line()?;
        if ack.trim_end_matches(['\r', '\n']) != HELLO_LINE {
            return Err(ClientError::Protocol(format!(
                "server did not accept the binary upgrade: `{}`",
                ack.trim()
            )));
        }
        client.wire = Wire::Binary {
            listing: Vec::new(),
        };
        let listing = client.engines()?;
        client.wire = Wire::Binary { listing };
        Ok(client)
    }

    /// Whether this connection speaks the binary framing.
    pub fn is_binary(&self) -> bool {
        matches!(self.wire, Wire::Binary { .. })
    }

    /// Number of submitted requests not yet answered.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Whether a complete reply — a whole line, or a whole frame — sits
    /// unread in the receive buffer, so the next read will not block.
    fn reply_buffered(&self) -> bool {
        let buf = self.reader.buffer();
        match self.wire {
            Wire::Text => buf.contains(&b'\n'),
            Wire::Binary { .. } => {
                buf.len() >= HEADER_LEN
                    && buf.len() - HEADER_LEN
                        >= u32::from_le_bytes(buf[2..6].try_into().expect("4 header bytes"))
                            as usize
            }
        }
    }

    /// Writes everything held with one `write_all`.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.writer.write_all(&self.out);
        self.out.clear();
        written
    }

    /// Queues one encoded request or command behind anything held and
    /// writes it all, unless a complete reply waits unread: then it is
    /// held until the next read that would block (or until
    /// [`HOLD_LIMIT`]). A text line goes in whole, newline included:
    /// under `TCP_NODELAY` every write is its own segment, and a split
    /// line wakes the server's reader twice.
    fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.out.extend_from_slice(bytes);
        if self.reply_buffered() && self.out.len() < HOLD_LIMIT {
            return Ok(());
        }
        self.flush()
    }

    /// Writes what is held if the next read would block on the socket.
    fn flush_before_read(&mut self) -> std::io::Result<()> {
        if self.reply_buffered() {
            return Ok(());
        }
        self.flush()
    }

    /// Queues one text line and its newline; see [`Client::send`].
    fn send_line(&mut self, mut line: String) -> std::io::Result<()> {
        line.push('\n');
        self.send(line.as_bytes())
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        self.flush_before_read()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(closed());
        }
        Ok(line)
    }

    /// Reads the next reply — one line or one frame — and decodes it. An
    /// `OK` sum decodes at the width of the pending request its `seq`
    /// names; a reply that carries no sum decodes at any width.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        let response = if self.is_binary() {
            self.flush_before_read()?;
            let (opcode, body) = match binary::read_frame(&mut self.reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => return Err(closed()),
                Err(FrameReadError::Io(e)) => return Err(ClientError::Io(e)),
                Err(poison) => return Err(ClientError::Protocol(poison.to_string())),
            };
            let seq = body
                .get(..8)
                .map(|le| u64::from_le_bytes(le.try_into().expect("8 bytes")));
            binary::decode_response(opcode, &body, self.pending_width(seq))
        } else {
            let line = self.read_line()?;
            let seq = line
                .split_ascii_whitespace()
                .nth(1)
                .and_then(|t| t.parse::<u64>().ok());
            parse_response(&line, self.pending_width(seq))
        };
        response.map_err(ClientError::Protocol)
    }

    /// The width of the pending request `seq` names, or 1 for none.
    fn pending_width(&self, seq: Option<u64>) -> usize {
        seq.and_then(|seq| self.pending.get(&seq))
            .copied()
            .unwrap_or(1)
    }

    /// Sends one command — its text line, or its frame — and reads the
    /// reply.
    fn command(&mut self, line: String, frame: Vec<u8>) -> Result<Response, ClientError> {
        if self.is_binary() {
            self.send(&frame)?;
        } else {
            self.send_line(line)?;
        }
        self.read_response()
    }

    /// Queues one `ADD` without waiting and returns its sequence number.
    /// The operand widths must agree (the request width is theirs).
    ///
    /// The request is written at once unless a complete reply already
    /// waits unread; then it is held and written, with every other held
    /// request, just before the client next blocks on a read, or at
    /// [`Client::close`] or drop (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns the socket write error of this request, or of held ones
    /// written with it. A held request's own write error surfaces from
    /// the call that writes it.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` disagree on width, or if `engine` is empty
    /// or contains whitespace — the protocol is line- and space-
    /// delimited, so such a name would desync the whole session, not
    /// just fail one request. (An unknown-but-well-formed name is fine:
    /// the server answers it with a structured `ERR`.)
    pub fn submit(&mut self, engine: &str, a: &UBig, b: &UBig) -> std::io::Result<u64> {
        assert_eq!(a.width(), b.width(), "operand width mismatch");
        self.submit_request(
            engine,
            a.width(),
            |seq| format_add(seq, engine, a, b),
            |seq, id| binary::encode_add(seq, id, a.width(), a.limbs(), b.limbs()),
        )
    }

    /// Queues one `SUM` — a whole n-operand reduction in one request —
    /// without waiting, and returns its sequence number. The response
    /// (via [`Client::recv`]) carries the exact wrapped sum and the
    /// single final carry-resolve's `cout` and `cycles`. It reaches the
    /// wire as [`Client::submit`]'s requests do.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`].
    ///
    /// # Panics
    ///
    /// Panics if `operands` is empty or longer than the protocol cap, if
    /// the operands disagree on width, or if `engine` is not a single
    /// protocol token (as [`Client::submit`]).
    pub fn submit_sum(&mut self, engine: &str, operands: &[UBig]) -> std::io::Result<u64> {
        assert!(
            OPERAND_RANGE.contains(&operands.len()),
            "operand count {} outside {OPERAND_RANGE:?}",
            operands.len()
        );
        for op in operands {
            assert_eq!(op.width(), operands[0].width(), "operand width mismatch");
        }
        self.submit_request(
            engine,
            operands[0].width(),
            |seq| format_sum(seq, engine, operands),
            |seq, id| binary::encode_sum(seq, id, operands),
        )
    }

    /// One full `SUM` round trip: submit the reduction, wait for *that*
    /// request (don't mix with in-flight `submit`s).
    ///
    /// # Errors
    ///
    /// Fails on the conditions of [`Client::submit_sum`] /
    /// [`Client::recv`], or with the server's [`RequestError`] as a
    /// protocol error.
    pub fn sum(&mut self, engine: &str, operands: &[UBig]) -> Result<AddResponse, ClientError> {
        let seq = self.submit_sum(engine, operands)?;
        self.recv_expecting(seq)
    }

    /// Queues one `PROG` — an arbitrary dataflow add-program — without
    /// waiting, and returns its sequence number. It reaches the wire as
    /// [`Client::submit`]'s requests do.
    ///
    /// # Errors
    ///
    /// As [`Client::submit`], or
    /// [`ClientError::Unrepresentable`] — without sending anything — for
    /// a step-less program: its spec is the empty string, which is not a
    /// wire token (run it locally with
    /// [`Program::eval_scalar`] instead; there is nothing to batch).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not match the program's input count, if
    /// the inputs disagree on width, or if `engine` is not a single
    /// protocol token.
    pub fn submit_program(
        &mut self,
        engine: &str,
        program: &Program,
        inputs: &[UBig],
    ) -> Result<u64, ClientError> {
        assert_eq!(
            inputs.len(),
            program.inputs(),
            "program input count mismatch"
        );
        for op in inputs {
            assert_eq!(op.width(), inputs[0].width(), "operand width mismatch");
        }
        if program.steps().is_empty() {
            return Err(ClientError::Unrepresentable(format!(
                "a step-less {}-input program has an empty spec; evaluate it locally",
                program.inputs()
            )));
        }
        Ok(self.submit_request(
            engine,
            inputs[0].width(),
            |seq| format_program(seq, engine, program, inputs),
            |seq, id| binary::encode_program(seq, id, program, inputs),
        )?)
    }

    /// One full `PROG` round trip: submit the program, wait for *that*
    /// request (don't mix with in-flight `submit`s).
    ///
    /// # Errors
    ///
    /// Fails on the conditions of [`Client::submit_program`] /
    /// [`Client::recv`], or with the server's [`RequestError`] as a
    /// protocol error. A step-less program is a structured
    /// [`ClientError::Unrepresentable`], not a panic, and leaves the
    /// connection usable.
    pub fn run_program(
        &mut self,
        engine: &str,
        program: &Program,
        inputs: &[UBig],
    ) -> Result<AddResponse, ClientError> {
        let seq = self.submit_program(engine, program, inputs)?;
        self.recv_expecting(seq)
    }

    /// Takes the next sequence number for one `ADD`/`SUM`/`PROG` at
    /// `width`, queues the request — its text `line`, or its `frame`
    /// under the engine's wire id — and records it as pending.
    fn submit_request(
        &mut self,
        engine: &str,
        width: usize,
        line: impl FnOnce(u64) -> String,
        frame: impl FnOnce(u64, u8) -> Vec<u8>,
    ) -> std::io::Result<u64> {
        assert!(
            !engine.is_empty() && !engine.contains(char::is_whitespace),
            "engine name `{engine}` is not a single protocol token"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        match &self.wire {
            Wire::Text => self.send_line(line(seq))?,
            Wire::Binary { listing } => {
                let frame = frame(seq, engine_id(listing, engine)?);
                self.send(&frame)?;
            }
        }
        self.pending.insert(seq, width);
        Ok(seq)
    }

    fn recv_expecting(&mut self, seq: u64) -> Result<AddResponse, ClientError> {
        let (done, response) = self.recv()?;
        if done != seq {
            return Err(ClientError::Protocol(format!(
                "expected response to {seq}, got {done} (mixing add with pipelined submits?)"
            )));
        }
        response.map_err(|e| ClientError::Protocol(format!("{} {}", e.code, e.message)))
    }

    /// Blocks for the next completion, whichever in-flight request it
    /// answers: `(seq, Ok(response))` or `(seq, Err(server error))`. When
    /// no complete reply is buffered, it first writes every held request.
    ///
    /// # Errors
    ///
    /// Fails on socket errors — a held request's write error included —
    /// on undecodable replies, and on responses that answer no in-flight
    /// sequence number.
    pub fn recv(&mut self) -> Result<(u64, Result<AddResponse, RequestError>), ClientError> {
        let (seq, answer) = match self.read_response()? {
            Response::Ok {
                seq,
                sum,
                cout,
                cycles,
            } => (seq, Ok(AddResponse { sum, cout, cycles })),
            Response::Err(err) => (err.seq, Err(err)),
            other => return Err(unexpected("OK or ERR", &other)),
        };
        self.pending
            .remove(&seq)
            .ok_or_else(|| ClientError::Protocol(format!("response to unknown request {seq}")))?;
        Ok((seq, answer))
    }

    /// One full round trip: submit, then wait for *that* request (other
    /// pipelined completions arriving first are an error — don't mix `add`
    /// with in-flight `submit`s).
    ///
    /// # Errors
    ///
    /// Fails on the conditions of [`Client::submit`] / [`Client::recv`],
    /// or with the server's [`RequestError`] as a protocol error.
    pub fn add(&mut self, engine: &str, a: &UBig, b: &UBig) -> Result<AddResponse, ClientError> {
        let seq = self.submit(engine, a, b)?;
        self.recv_expecting(seq)
    }

    /// Asks the server for its engine-name list.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or an unparseable reply. Call with no
    /// in-flight requests — an `OK` arriving first is a protocol error.
    pub fn engines(&mut self) -> Result<Vec<String>, ClientError> {
        match self.command("ENGINES".into(), binary::encode_engines_request())? {
            Response::Engines(names) => Ok(names),
            other => Err(unexpected("ENGINES", &other)),
        }
    }

    /// Asks the server for its live counters — the group bound, slab word
    /// width, lanes and per-engine stall totals.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or an unparseable reply. Call with no
    /// in-flight requests — an `OK` arriving first is a protocol error.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.command("STATS".into(), binary::encode_stats_request())? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("STATS", &other)),
        }
    }

    /// Queries the server's p99 latency budget — `Ok(None)` means no SLO
    /// is set (the `auto` router never degrades).
    ///
    /// # Errors
    ///
    /// Fails on socket errors or an unparseable reply. Call with no
    /// in-flight requests — an `OK` arriving first is a protocol error.
    pub fn slo(&mut self) -> Result<Option<u64>, ClientError> {
        self.slo_command(SloAction::Query)
    }

    /// Sets (`Some(micros)`) or clears (`None`) the server's p99 budget
    /// and returns the budget now in force (the server's echo).
    ///
    /// # Errors
    ///
    /// As [`Client::slo`].
    ///
    /// # Panics
    ///
    /// Panics if `budget` is `Some(0)` — the protocol reserves 0; clear
    /// with `None` / `SLO off` instead.
    pub fn set_slo(&mut self, budget: Option<u64>) -> Result<Option<u64>, ClientError> {
        let action = match budget {
            Some(micros) => {
                assert!(micros >= 1, "an SLO budget must be >= 1 micros");
                SloAction::Set(micros)
            }
            None => SloAction::Clear,
        };
        self.slo_command(action)
    }

    fn slo_command(&mut self, action: SloAction) -> Result<Option<u64>, ClientError> {
        let line = match action {
            SloAction::Query => "SLO".to_string(),
            SloAction::Set(micros) => format!("SLO {micros}"),
            SloAction::Clear => "SLO off".to_string(),
        };
        match self.command(line, binary::encode_slo_request(action))? {
            Response::Slo(budget) => Ok(budget),
            other => Err(unexpected("SLO", &other)),
        }
    }

    /// Writes every held request, then shuts the connection down (best
    /// effort; dropping writes what is held but leaves the shutdown to
    /// the socket's close).
    pub fn close(mut self) {
        let _ = self.flush();
        let _ = self.writer.shutdown(Shutdown::Both);
    }
}

impl Drop for Client {
    /// Writes every held request, best effort: a request the caller
    /// submitted reaches the server even if its reply is never read.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}
