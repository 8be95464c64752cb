//! Transport-independent request dispatch: the per-connection protocol
//! state of both wire framings.
//!
//! [`server`](crate::server) owns sockets and threads; its reader threads
//! feed each connection's bytes to a [`ByteSession`], the one way a wire
//! request enters the runtime. The session owns framing and the `HELLO`
//! upgrade. Past the codec, a request is one [`Request`] whichever
//! framing carried it, and one dispatcher validates it, stages it in its
//! lane's issue group and answers it. Responses leave through a
//! caller-supplied sink:
//!
//! * [`ResponseSink`] receives [`Response`] values (the text protocol's
//!   unit of output);
//! * [`FrameSink`] receives pre-encoded binary frames (the framed
//!   protocol's unit of output).
//!
//! Every answer but the `OK`s is a [`Response`] handed to the
//! connection's codec: a text connection sends it through
//! [`ResponseSink::send`], a framed one encodes it
//! ([`binary::encode_response`]) and sends it through
//! [`FrameSink::send_frame`].
//!
//! **A read runs to completion on the thread that feeds it.** When
//! [`ByteSession::feed`] has consumed a read, the session runs the read's
//! issue groups on their lanes' engines itself and hands its sink **all**
//! of their `OK`s in one [`OkBatch`], group by group
//! ([`ResponseSink::send_oks`], [`FrameSink::send_ok_frames`]); only then
//! does `feed` return. No lane queue, worker thread or wake-up is
//! involved. The provided methods deliver a batch one reply at a time
//! through `send` / `send_frame`; the TCP server overrides them to encode
//! the whole batch into the session's reused buffer and write it with one
//! syscall.
//!
//! The TCP server implements both sinks on the connection's socket;
//! in-process tests implement them on plain collectors. Every call comes
//! from the thread feeding the session, so a sink that blocks — a client
//! that stops reading — holds that connection alone.
//!
//! A session forms its groups with [`Staging`], the one group former:
//! [`Service::submit`] stages and runs one request the same way, and the
//! C ABI (`vlcsa-ffi`), which has no byte stream, stages a handle's
//! tickets in one.

use std::sync::Arc;

use bitnum::UBig;
use vlcsa::exec::WideOutcome;
use vlcsa::group::LaneBuilder;
use vlcsa::route::AUTO_ENGINE;

use crate::binary::{
    self, FrameReadError, HEADER_LEN, HELLO_LINE, MAX_FRAME_BODY, PROTOCOL_VERSION,
};
use crate::protocol::{self, parse_request, ErrorCode, Request, RequestError, Response, SloAction};
use crate::service::{AddResult, Lane, Operands, Reply, Service, SubmitError};

/// Where text-protocol responses go. Calls come from the thread feeding
/// the session; implementations serialize their own output (the TCP
/// server writes the socket; a test sink locks a `Vec`).
pub trait ResponseSink: Send + Sync + 'static {
    /// Delivers one response. Errors are the sink's problem: a dispatch
    /// has nobody to tell that the client hung up.
    fn send(&self, response: &Response);

    /// Delivers one read's `OK` answers for this sink, group by group.
    /// `buf` is the session's reused scratch buffer, empty on entry. The
    /// default sends each answer through [`ResponseSink::send`]; a
    /// transport overrides it to encode the batch into `buf`
    /// ([`OkBatch::encode_lines`]) and write it once.
    fn send_oks(&self, oks: &OkBatch<'_>, buf: &mut Vec<u8>) {
        let _ = buf;
        for response in oks.responses() {
            self.send(&response);
        }
    }
}

/// Where pre-encoded binary frames go; same contract as
/// [`ResponseSink`].
pub trait FrameSink: Send + Sync + 'static {
    /// Delivers one complete, already-encoded frame.
    fn send_frame(&self, frame: &[u8]);

    /// Delivers one read's `OK` frames for this sink, group by group;
    /// `buf` as in [`ResponseSink::send_oks`]. The default encodes each
    /// frame into `buf` and sends it through [`FrameSink::send_frame`]; a
    /// transport overrides it to encode the batch
    /// ([`OkBatch::encode_frames`]) and write it once.
    fn send_ok_frames(&self, oks: &OkBatch<'_>, buf: &mut Vec<u8>) {
        oks.for_each(|seq, cout, cycles, sum| {
            buf.clear();
            binary::push_ok(buf, seq, cout, cycles, sum);
            self.send_frame(buf);
        });
    }
}

/// `OK` answers bound for one sink: lanes of one or more issue groups'
/// outcomes, each with the `seq` of the request it answers, group by
/// group. The encoders read every sum straight from the groups'
/// untransposed sums — no [`UBig`] per answer.
pub struct OkBatch<'a> {
    /// The outcomes of the groups answered, in order.
    outs: &'a [WideOutcome],
    /// The groups' sums out of the slab layout, lane-major, one group
    /// after another.
    sums: &'a [u64],
    /// `(seq, lane)` per answer, group by group.
    lanes: &'a [(u64, usize)],
    /// Where each group's answers end in `lanes`, for every group but the
    /// last, whose answers run to the end.
    ends: &'a [usize],
}

impl<'a> OkBatch<'a> {
    /// The answers of `lanes` — `(seq, lane)` pairs, in delivery order —
    /// of the one group whose outcome is `out`. `sums` is `out.sum` out of
    /// the slab layout, lane-major, as
    /// [`WideSlab::lane_limbs_into`](bitnum::batch::WideSlab::lane_limbs_into)
    /// writes it.
    ///
    /// # Panics
    ///
    /// Panics if `sums` does not hold exactly `out`'s lanes.
    pub fn new(out: &'a WideOutcome, sums: &'a [u64], lanes: &'a [(u64, usize)]) -> Self {
        assert_eq!(
            sums.len(),
            out.lanes() * out.sum.width().div_ceil(64),
            "sums must hold every lane of the outcome"
        );
        Self {
            outs: std::slice::from_ref(out),
            sums,
            lanes,
            ends: &[],
        }
    }

    /// Each group's outcome, sums and answers, in order.
    fn parts(&self) -> impl Iterator<Item = (&'a WideOutcome, &'a [u64], &'a [(u64, usize)])> {
        let Self {
            outs,
            mut sums,
            lanes,
            ends,
        } = *self;
        let mut start = 0;
        outs.iter().enumerate().map(move |(g, out)| {
            let (group, rest) = sums.split_at(out.lanes() * out.sum.width().div_ceil(64));
            sums = rest;
            let end = ends.get(g).copied().unwrap_or(lanes.len());
            let answers = &lanes[start..end];
            start = end;
            (out, group, answers)
        })
    }

    /// The answers as [`Response::Ok`] values, one sum each — the
    /// one-reply-at-a-time form.
    fn responses(&self) -> impl Iterator<Item = Response> + '_ {
        self.parts().flat_map(|(out, sums, lanes)| {
            let width = out.sum.width();
            let nl = width.div_ceil(64);
            lanes.iter().map(move |&(seq, l)| Response::Ok {
                seq,
                sum: UBig::from_limbs(&sums[l * nl..(l + 1) * nl], width),
                cout: out.cout(l),
                cycles: out.cycles(l),
            })
        })
    }

    /// Appends every answer's text `OK` line, newline included: exactly
    /// the concatenation of `format_response(&Response::Ok { .. })` plus
    /// `\n` per answer.
    pub fn encode_lines(&self, out: &mut Vec<u8>) {
        self.for_each(|seq, cout, cycles, sum| protocol::push_ok_line(out, seq, cout, cycles, sum));
    }

    /// Appends every answer's `OK` frame: exactly the concatenation of
    /// [`binary::encode_ok`] per answer.
    pub fn encode_frames(&self, out: &mut Vec<u8>) {
        self.for_each(|seq, cout, cycles, sum| binary::push_ok(out, seq, cout, cycles, sum));
    }

    /// Calls `f(seq, cout, cycles, sum_limbs)` per answer, in order.
    fn for_each(&self, mut f: impl FnMut(u64, bool, u8, &[u64])) {
        for (out, sums, lanes) in self.parts() {
            let nl = out.sum.width().div_ceil(64);
            for &(seq, l) in lanes {
                f(seq, out.cout(l), out.cycles(l), &sums[l * nl..(l + 1) * nl]);
            }
        }
    }
}

/// A connection's reply side, in the framing it speaks — the one place a
/// [`Response`] meets a codec.
enum Conn {
    /// Answers are text lines.
    Text(Arc<dyn ResponseSink>),
    /// Answers are frames.
    Frame(Arc<dyn FrameSink>),
}

impl Conn {
    /// Answers with one response other than an `OK`: a text connection
    /// sends it through [`ResponseSink::send`], a framed one encodes its
    /// frame and sends it through [`FrameSink::send_frame`].
    fn answer(&self, response: &Response) {
        match self {
            Conn::Text(sink) => sink.send(response),
            Conn::Frame(sink) => sink.send_frame(&binary::encode_response(response)),
        }
    }

    /// Hands the connection one read's `OK`s.
    fn send_oks(&self, oks: &OkBatch<'_>, buf: &mut Vec<u8>) {
        buf.clear();
        match self {
            Conn::Text(sink) => sink.send_oks(oks, buf),
            Conn::Frame(sink) => sink.send_ok_frames(oks, buf),
        }
    }
}

/// Maps a [`SubmitError`] onto the wire error-code space, echoing the
/// request's sequence number: one mapping for both framings. (The C ABI
/// maps the same errors onto its own codes.)
fn submit_error(seq: u64, err: SubmitError) -> RequestError {
    let code = match err {
        SubmitError::UnknownEngine(_) => ErrorCode::UnknownEngine,
        SubmitError::WidthMismatch(..) => ErrorCode::BadRequest,
        SubmitError::BadWidth(_) => ErrorCode::BadWidth,
        SubmitError::BadOperandCount(_) => ErrorCode::BadRequest,
        SubmitError::BadLimbs(_) => ErrorCode::BadOperand,
        SubmitError::Stopped => ErrorCode::Shutdown,
    };
    RequestError::new(seq, code, err.to_string())
}

/// Dispatches one decoded request — from a text line or a frame — on
/// `conn`: errors are answered inline, a command first runs and answers
/// what is staged (so it sees every request before it on its connection)
/// and is answered at once, and a valid `ADD`/`SUM`/`PROG` is staged in
/// its lane's issue group, to run and be answered when the read is
/// consumed.
fn dispatch(
    request: Result<Request<'_>, RequestError>,
    service: &Service,
    conn: &Conn,
    staging: &mut Staging<u64>,
) {
    let (seq, engine, operands) = match request {
        Ok(Request::Add { seq, engine, a, b }) => (seq, engine, Operands::add(a, b)),
        Ok(Request::Sum {
            seq,
            engine,
            operands,
        }) => (seq, engine, Operands::sum(&operands)),
        Ok(Request::Program {
            seq,
            engine,
            program,
            inputs,
        }) => (seq, engine, Operands::program(&program, &inputs)),
        Ok(Request::Engines) => {
            staging.flush(service, conn);
            // Engine names are width-independent; any registry lists
            // them. `auto` rides along last, so clients discover the
            // pseudo-engine too.
            let names = service.registries().at(64).names();
            let names = names
                .into_iter()
                .chain(std::iter::once(AUTO_ENGINE))
                .map(str::to_string)
                .collect();
            return conn.answer(&Response::Engines(names));
        }
        Ok(Request::Stats) => {
            staging.flush(service, conn);
            return conn.answer(&Response::Stats(service.stats()));
        }
        Ok(Request::Slo(action)) => {
            staging.flush(service, conn);
            match action {
                SloAction::Query => {}
                SloAction::Set(micros) => service.set_slo(Some(micros)),
                SloAction::Clear => service.set_slo(None),
            }
            // Always echo the budget now in force, so a set doubles as a
            // readback and a query is just the degenerate case.
            return conn.answer(&Response::Slo(service.slo()));
        }
        Err(err) => return conn.answer(&Response::Err(err)),
    };
    if let Err(err) = operands.and_then(|ops| staging.stage(service, engine, ops, seq)) {
        conn.answer(&Response::Err(submit_error(seq, err)));
    }
}

/// Requests staged in their lanes' issue groups, and the reused buffers
/// their run goes through: the one group former. Each request carries a
/// tag — a wire request its `seq`, an in-process one its [`Reply`] — and
/// joins its lane's open group, at most `max_lanes` to a group; a run
/// takes every group staged so far, on the calling thread. A connection
/// stages one read's requests, [`Service::submit`] one request, and a C
/// ABI handle its tickets until a poll needs one. Nothing in it names a
/// lane between runs.
///
/// ```
/// use bitnum::UBig;
/// use vlcsa_serve::{Operands, Reply, ServeConfig, Service, Staging};
///
/// let service = Service::start(ServeConfig::default());
/// let mut staging: Staging<Reply> = Staging::default();
/// for v in 1..=3 {
///     let operands = Operands::add(UBig::from_u128(v, 64), UBig::from_u128(1, 64)).unwrap();
///     let reply: Reply = Box::new(move |r| assert_eq!(r.sum.to_u128(), Some(v + 1)));
///     staging.stage(&service, "vlcsa1", operands, reply).unwrap();
/// }
/// staging.run(); // one issue group of three lanes, answered here
/// assert_eq!(service.stats().engine("vlcsa1").unwrap().groups, 1);
/// ```
pub struct Staging<T> {
    /// The groups being filled, in the order their lanes were first
    /// named: each with its lane, its first request's stamp on the
    /// router's clock (which its latency sample runs from), and its
    /// requests' operands with their tags. A lane's group holds at most
    /// `max_lanes`; the lane's next request opens another.
    open: Vec<(Arc<Lane>, u64, LaneBuilder<T>)>,
    /// Once they ran: their outcomes, sums, tagged lanes and answer ends,
    /// as [`OkBatch`] reads them.
    outs: Vec<WideOutcome>,
    sums: Vec<u64>,
    lanes: Vec<(T, usize)>,
    ends: Vec<usize>,
    /// One group's sums out of the slab layout, before they join `sums`.
    group_sums: Vec<u64>,
    /// The encode buffer of a read's reply write.
    buf: Vec<u8>,
}

impl<T> Default for Staging<T> {
    fn default() -> Self {
        Self {
            open: Vec::new(),
            outs: Vec::new(),
            sums: Vec::new(),
            lanes: Vec::new(),
            ends: Vec::new(),
            group_sums: Vec::new(),
            buf: Vec::new(),
        }
    }
}

impl<T> Staging<T> {
    /// Resolves one validated request to its lane and appends it, tagged
    /// `tag`, to the lane's open issue group.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownEngine`], or [`SubmitError::Stopped`] once
    /// the service has stopped.
    pub fn stage(
        &mut self,
        service: &Service,
        engine: &str,
        operands: Operands,
        tag: T,
    ) -> Result<(), SubmitError> {
        let lane = service.lane(engine, operands.width())?;
        let open = match self.open.iter().rposition(|(l, ..)| Arc::ptr_eq(l, &lane)) {
            Some(i) if self.open[i].2.lanes() < lane.max_lanes() => i,
            _ => {
                let group = lane.group();
                self.open.push((lane, service.router().now_micros(), group));
                self.open.len() - 1
            }
        };
        operands.push_into(&mut self.open[open].2, tag);
        Ok(())
    }

    /// How many requests are staged.
    pub fn len(&self) -> usize {
        self.open.iter().map(|(.., group)| group.lanes()).sum()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.open.is_empty()
    }

    /// Runs every staged group on its lane, into `outs`, `sums`, `lanes`
    /// and `ends`.
    fn run_groups(&mut self) {
        for (lane, _, group) in &mut self.open {
            let (out, tags) = lane.run(group);
            out.sum.lane_limbs_into(&mut self.group_sums);
            self.sums.extend_from_slice(&self.group_sums);
            if !self.outs.is_empty() {
                self.ends.push(self.lanes.len());
            }
            self.lanes
                .extend(tags.into_iter().enumerate().map(|(l, tag)| (tag, l)));
            self.outs.push(out);
        }
    }

    /// Reports each group that ran to the router, once all their answers
    /// are out, and empties the staging for the next run.
    fn answered(&mut self) {
        for ((lane, stamp, _), out) in self.open.drain(..).zip(&self.outs) {
            lane.answered(out, stamp);
        }
        self.outs.clear();
        self.sums.clear();
        self.lanes.clear();
        self.ends.clear();
    }
}

impl Staging<Reply> {
    /// Runs every staged group on the calling thread, calls each request's
    /// reply with its lane's sum, carry-out and cycles, and then reports
    /// each group to the router.
    pub fn run(&mut self) {
        self.run_groups();
        let mut sums = &self.sums[..];
        let mut replies = self.lanes.drain(..);
        for out in &self.outs {
            let width = out.sum.width();
            let nl = width.div_ceil(64);
            let (group, rest) = sums.split_at(out.lanes() * nl);
            sums = rest;
            for (reply, l) in replies.by_ref().take(out.lanes()) {
                reply(AddResult {
                    sum: UBig::from_limbs(&group[l * nl..(l + 1) * nl], width),
                    cout: out.cout(l),
                    cycles: out.cycles(l),
                });
            }
        }
        drop(replies);
        self.answered();
    }
}

impl Staging<u64> {
    /// Runs every staged group on its lane, hands `conn` all of their
    /// `OK`s in one [`OkBatch`], and then reports each group to the
    /// router. Staged requests that find the service stopped — it stopped
    /// after they were staged — are answered `ERR <seq> shutdown` each
    /// instead, as a refused request is.
    fn flush(&mut self, service: &Service, conn: &Conn) {
        if self.open.is_empty() {
            return;
        }
        if service.stopped() {
            for (.., mut group) in self.open.drain(..) {
                let group = group.drain().expect("an open group holds a request");
                for seq in group.tags {
                    conn.answer(&Response::Err(submit_error(seq, SubmitError::Stopped)));
                }
            }
            return;
        }
        self.run_groups();
        let oks = OkBatch {
            outs: &self.outs,
            sums: &self.sums,
            lanes: &self.lanes,
            ends: &self.ends,
        };
        conn.send_oks(&oks, &mut self.buf);
        self.answered();
    }
}

/// How a [`ByteSession::feed`] left the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedOutcome {
    /// The stream is still healthy; feed more bytes as they arrive.
    Continue,
    /// The stream is finished — poisoned framing, or an undecodable or
    /// overlong line. Any answerable error was already answered through
    /// the sink; the caller should shut the connection down.
    Close,
}

/// One connection's protocol state: an incremental byte-stream session
/// that the server's per-connection reader thread feeds whatever each
/// `read` delivers.
///
/// * text lines are dispatched as they complete; blank lines are ignored
///   and do not burn the upgrade opportunity;
/// * a **first** non-empty line equal to [`HELLO_LINE`] upgrades the
///   session to binary framing — the ack (the upgrade line echoed) leaves
///   through [`FrameSink`] as raw bytes, the last non-frame output the
///   connection ever sees; a `HELLO` any later is an unknown command;
/// * framed mode consumes length-delimited frames; an untrustworthy
///   header (unknown version byte, lying length prefix) answers one `ERR`
///   frame and reports [`FeedOutcome::Close`]; a malformed body is
///   answered and the stream stays in sync;
/// * a line that is not valid UTF-8 reports [`FeedOutcome::Close`], and so
///   does a line still unfinished after [`MAX_LINE`](protocol::MAX_LINE)
///   bytes, once answered `ERR 0 bad-request`.
///
/// Either framing's requests decode to one [`Request`] and go through one
/// dispatcher; the session's one reply side — text until the upgrade,
/// frames after it — is the only part that knows the framing.
///
/// **Run to completion.** Requests are parsed in place; only an
/// incomplete tail is kept for the next call. Errors are answered inline,
/// but every valid `ADD`/`SUM`/`PROG` is staged in its lane's issue group
/// (at most `max_lanes` each), and when the read is consumed — the point
/// where the caller is about to block on its socket again — `feed` runs
/// the read's groups on the calling thread and hands the sink every `OK`
/// in one [`OkBatch`] before it returns. So one read's burst costs one
/// group per lane and one reply write, and no other thread. `ENGINES`,
/// `STATS` and `SLO` run and answer what is staged first, so they see
/// every request before them; so does an error that closes the stream.
///
/// One instance is one connection's state; callers serialize `feed` per
/// connection. Between reads it keeps the unparsed tail and reused
/// buffers, nothing per lane.
pub struct ByteSession<S> {
    sink: Arc<S>,
    /// Where every answer leaves: text until the upgrade, frames after.
    conn: Conn,
    /// The engine listing frame ids index into, fetched at the upgrade.
    names: Vec<&'static str>,
    /// The incomplete tail of the bytes fed so far.
    buf: Vec<u8>,
    /// How many leading bytes of `buf` are known to hold no newline, so
    /// a long text line is searched once, not again on every feed.
    scanned: usize,
    first: bool,
    staging: Staging<u64>,
}

impl<S: ResponseSink + FrameSink> ByteSession<S> {
    /// A fresh session in text mode, answering through `sink`.
    pub fn new(sink: Arc<S>) -> Self {
        Self {
            conn: Conn::Text(Arc::clone(&sink) as Arc<dyn ResponseSink>),
            sink,
            names: Vec::new(),
            buf: Vec::new(),
            scanned: 0,
            first: true,
            staging: Staging::default(),
        }
    }

    /// Consumes `bytes` — any split, including an empty slice — and
    /// dispatches every request they complete, then runs and answers what
    /// it staged. Incomplete trailing input is kept for the next call.
    pub fn feed(&mut self, bytes: &[u8], service: &Service) -> FeedOutcome {
        let mut tail = std::mem::take(&mut self.buf);
        let outcome = if tail.is_empty() {
            let (used, outcome) = self.consume(bytes, service);
            tail.extend_from_slice(&bytes[used..]);
            outcome
        } else {
            tail.extend_from_slice(bytes);
            let (used, outcome) = self.consume(&tail, service);
            tail.drain(..used);
            outcome
        };
        // A healthy text stream keeps only what follows its last newline,
        // and no more of it than the longest request line.
        let text = matches!(self.conn, Conn::Text(_));
        let outcome = match outcome {
            FeedOutcome::Continue if text && tail.len() > protocol::MAX_LINE => {
                service.note_text_request();
                self.staging.flush(service, &self.conn);
                self.conn.answer(&Response::Err(RequestError::new(
                    0,
                    ErrorCode::BadRequest,
                    format!("line exceeds {} bytes", protocol::MAX_LINE),
                )));
                FeedOutcome::Close
            }
            outcome => outcome,
        };
        self.scanned = match outcome {
            FeedOutcome::Continue if text => tail.len(),
            _ => 0,
        };
        self.buf = tail;
        self.staging.flush(service, &self.conn);
        outcome
    }

    /// Dispatches every whole request at the front of `bytes`; returns
    /// how many bytes they took and how the stream stands. In text mode
    /// the first newline search skips the `scanned` bytes already
    /// searched.
    fn consume(&mut self, bytes: &[u8], service: &Service) -> (usize, FeedOutcome) {
        let mut used = 0;
        let mut scanned = std::mem::take(&mut self.scanned);
        loop {
            let rest = &bytes[used..];
            if let Conn::Text(_) = self.conn {
                let Some(nl) = rest[scanned..].iter().position(|&b| b == b'\n') else {
                    return (used, FeedOutcome::Continue);
                };
                let line = &rest[..=std::mem::take(&mut scanned) + nl];
                used += line.len();
                let Ok(line) = std::str::from_utf8(line) else {
                    return (used, FeedOutcome::Close);
                };
                if line.trim().is_empty() {
                    continue;
                }
                if self.first && line.trim_end_matches(['\r', '\n']) == HELLO_LINE {
                    // The ack is the upgrade line itself; it rides the
                    // frame sink because it is raw bytes, not a
                    // `Response`. The exchange counts as neither
                    // protocol's traffic.
                    self.sink.send_frame(format!("{HELLO_LINE}\n").as_bytes());
                    self.conn = Conn::Frame(Arc::clone(&self.sink) as Arc<dyn FrameSink>);
                    self.names = service.registries().at(64).names();
                    continue;
                }
                self.first = false;
                service.note_text_request();
                dispatch(parse_request(line), service, &self.conn, &mut self.staging);
                continue;
            }
            if rest.len() < HEADER_LEN {
                return (used, FeedOutcome::Continue);
            }
            let version = rest[0];
            let len = u32::from_le_bytes(rest[2..6].try_into().expect("4 header bytes")) as usize;
            let poison = if version != PROTOCOL_VERSION {
                Some(FrameReadError::BadVersion(version))
            } else if len > MAX_FRAME_BODY {
                Some(FrameReadError::Oversized(len))
            } else {
                None
            };
            if let Some(poison) = poison {
                service.note_binary_request();
                self.staging.flush(service, &self.conn);
                self.conn.answer(&Response::Err(RequestError::new(
                    0,
                    ErrorCode::BadRequest,
                    poison.to_string(),
                )));
                return (used, FeedOutcome::Close);
            }
            if rest.len() < HEADER_LEN + len {
                return (used, FeedOutcome::Continue);
            }
            used += HEADER_LEN + len;
            service.note_binary_request();
            let request =
                binary::decode_request(rest[1], &rest[HEADER_LEN..HEADER_LEN + len], &self.names);
            dispatch(request, service, &self.conn, &mut self.staging);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, OnceLock};
    use std::time::{Duration, Instant};

    use bitnum::rng::Xoshiro256;
    use bitnum::MAX_WIDTH;
    use vlcsa::program::{Operand, Program, MAX_PROGRAM_INPUTS, MAX_PROGRAM_STEPS};

    use super::*;
    use crate::protocol::format_response;
    use crate::service::ServeConfig;

    /// A sink that collects formatted response lines — the whole point of
    /// the split: the text protocol exercised with no socket anywhere.
    struct Lines(Mutex<Vec<String>>);

    impl ResponseSink for Lines {
        fn send(&self, response: &Response) {
            self.0
                .lock()
                .expect("test sink lock")
                .push(format_response(response));
        }
    }

    impl FrameSink for Lines {
        fn send_frame(&self, frame: &[u8]) {
            // Tests only need to see that *a* frame arrived; stash the
            // opcode byte (frame[1], after the version byte).
            self.0
                .lock()
                .expect("test sink lock")
                .push(format!("frame:{:#04x}", frame[1]));
        }
    }

    fn drain(sink: &Arc<Lines>, want: usize) -> Vec<String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let lines = sink.0.lock().expect("test sink lock");
                if lines.len() >= want {
                    return lines.clone();
                }
            }
            assert!(Instant::now() < deadline, "timed out waiting for replies");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn text_dispatch_needs_no_socket() {
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Lines(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        for line in [
            "ADD 7 carry-select 32 2 3\n",
            "SUM 8 ripple 32 4 1 2 3 4\n",
            "nonsense\n",
        ] {
            session.feed(line.as_bytes(), &service);
        }
        let mut lines = drain(&sink, 3);
        lines.sort();
        // Cycles may be 1 or 2 (a recovery stall), so match the prefix.
        assert!(
            lines.iter().any(|l| l.starts_with("OK 7 5 0 ")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("OK 8 a 0 ")),
            "{lines:?}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("ERR 0 bad-request")),
            "{lines:?}"
        );
        service.shutdown();
    }

    #[test]
    fn text_dispatch_maps_submit_errors_inline() {
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Lines(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        session.feed(b"ADD 3 no-such-engine 32 1 2\n", &service);
        let lines = drain(&sink, 1);
        assert!(
            lines[0].starts_with("ERR 3 unknown-engine"),
            "{:?}",
            lines[0]
        );
        service.shutdown();
    }

    #[test]
    fn binary_dispatch_needs_no_socket() {
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Lines(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        session.feed(format!("{HELLO_LINE}\n").as_bytes(), &service);
        drain(&sink, 1);
        sink.0.lock().expect("test sink lock").clear();
        // A STATS frame is opcode-only; an ADD frame carries real limbs.
        session.feed(&binary::encode_stats_request(), &service);
        session.feed(&binary::encode_add(5, 0, 64, &[7], &[8]), &service);
        let mut lines = drain(&sink, 2);
        lines.sort();
        assert!(
            lines.contains(&format!("frame:{:#04x}", binary::resp::STATS)),
            "{lines:?}"
        );
        assert!(
            lines.contains(&format!("frame:{:#04x}", binary::resp::OK)),
            "{lines:?}"
        );
        service.shutdown();
    }

    /// A byte- and write-accurate sink: one entry per write the socket
    /// sink would make — text responses as their wire lines, frames (and
    /// the HELLO ack) verbatim, and each issue group's answers as the one
    /// chunk the socket sink encodes them into.
    struct Wire(Mutex<Vec<Vec<u8>>>);

    impl ResponseSink for Wire {
        fn send(&self, response: &Response) {
            let mut line = format_response(response).into_bytes();
            line.push(b'\n');
            self.0.lock().expect("test sink lock").push(line);
        }

        fn send_oks(&self, oks: &OkBatch<'_>, buf: &mut Vec<u8>) {
            oks.encode_lines(buf);
            self.0.lock().expect("test sink lock").push(buf.clone());
        }
    }

    impl FrameSink for Wire {
        fn send_frame(&self, frame: &[u8]) {
            self.0.lock().expect("test sink lock").push(frame.to_vec());
        }

        fn send_ok_frames(&self, oks: &OkBatch<'_>, buf: &mut Vec<u8>) {
            oks.encode_frames(buf);
            self.0.lock().expect("test sink lock").push(buf.clone());
        }
    }

    fn drain_wire(sink: &Wire, want: usize) -> Vec<Vec<u8>> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            {
                let out = sink.0.lock().expect("test sink lock");
                if out.len() >= want {
                    return out.clone();
                }
            }
            assert!(Instant::now() < deadline, "timed out waiting for replies");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn byte_session_reassembles_split_text_lines() {
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        // A request split mid-token across three feeds dispatches exactly
        // once, when its newline arrives.
        assert_eq!(
            session.feed(b"ADD 7 carry-s", &service),
            FeedOutcome::Continue
        );
        assert_eq!(
            session.feed(b"elect 32 2 3", &service),
            FeedOutcome::Continue
        );
        assert!(sink.0.lock().expect("test sink lock").is_empty());
        assert_eq!(session.feed(b"\n", &service), FeedOutcome::Continue);
        let out = drain_wire(&sink, 1);
        let line = String::from_utf8(out[0].clone()).expect("text reply");
        assert!(line.starts_with("OK 7 5 0 "), "{line:?}");
        service.shutdown();
    }

    #[test]
    fn byte_session_upgrades_and_frames_byte_at_a_time() {
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        // Blank lines (even CRLF) before the HELLO do not burn the
        // upgrade; then a whole ADD frame arrives one byte at a time.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"\r\n");
        bytes.extend_from_slice(b"HELLO BIN 1\n");
        bytes.extend_from_slice(&binary::encode_add(5, 0, 64, &[7], &[8]));
        for b in bytes {
            assert_eq!(session.feed(&[b], &service), FeedOutcome::Continue);
        }
        let out = drain_wire(&sink, 2);
        assert_eq!(out[0], b"HELLO BIN 1\n".to_vec(), "ack first");
        assert_eq!(out[1][1], binary::resp::OK, "then the OK frame");
        let report = service.stats();
        assert_eq!(
            report.proto_text, 0,
            "the upgrade is neither protocol's traffic"
        );
        assert_eq!(report.proto_bin, 1);
        service.shutdown();
    }

    #[test]
    fn byte_session_poisoned_header_answers_err_and_closes() {
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        assert_eq!(
            session.feed(b"HELLO BIN 1\n", &service),
            FeedOutcome::Continue
        );
        // Version byte 9: untrustworthy header, stream unrecoverable.
        let header = [9u8, 0x01, 0, 0, 0, 0];
        assert_eq!(session.feed(&header, &service), FeedOutcome::Close);
        let out = drain_wire(&sink, 2);
        assert_eq!(out[1][1], binary::resp::ERR, "{out:?}");
        service.shutdown();
    }

    #[test]
    fn byte_session_closes_on_invalid_utf8_line() {
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        assert_eq!(
            session.feed(&[0xff, 0xfe, b'\n'], &service),
            FeedOutcome::Close
        );
        assert!(sink.0.lock().expect("test sink lock").is_empty());
        service.shutdown();
    }

    /// `n` random 64-bit `ADD`s on vlcsa1 with their answers from the
    /// scalar model: `(a, b, sum, cout, cycles)`.
    fn adds_with_answers(seed: u64, n: usize) -> Vec<(UBig, UBig, UBig, bool, u8)> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let registry = vlcsa::engine::Registry::for_width(64);
        let engine = registry.get("vlcsa1").expect("registry family");
        (0..n)
            .map(|_| {
                let (a, b) = (UBig::random(64, &mut rng), UBig::random(64, &mut rng));
                let one = engine.add_one(&a, &b);
                (a, b, one.sum, one.cout, one.cycles)
            })
            .collect()
    }

    /// `n` random `ADD`s on `engine` at `width`, `seq = base + i`, each as
    /// its request's bytes and its answer's bytes in either framing.
    fn requests_and_answers(
        seed: u64,
        (engine, width): (&str, usize),
        n: usize,
        base: u64,
        framed: bool,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let registry = vlcsa::engine::Registry::for_width(width);
        let id = registry
            .names()
            .iter()
            .position(|e| *e == engine)
            .expect("listed") as u8;
        let adder = registry.get(engine).expect("registry family");
        (base..base + n as u64)
            .map(|seq| {
                let (a, b) = (UBig::random(width, &mut rng), UBig::random(width, &mut rng));
                let one = adder.add_one(&a, &b);
                if framed {
                    (
                        binary::encode_add(seq, id, width, a.limbs(), b.limbs()),
                        binary::encode_ok(seq, one.cout, one.cycles, one.sum.limbs()),
                    )
                } else {
                    let ok = Response::Ok {
                        seq,
                        sum: one.sum,
                        cout: one.cout,
                        cycles: one.cycles,
                    };
                    (
                        format!("{}\n", protocol::format_add(seq, engine, &a, &b)).into_bytes(),
                        format!("{}\n", format_response(&ok)).into_bytes(),
                    )
                }
            })
            .collect()
    }

    #[test]
    fn one_issue_group_reaches_its_connection_as_one_write() {
        const N: usize = 24;
        for framed in [false, true] {
            let service = Service::start(ServeConfig::default());
            let sink = Arc::new(Wire(Mutex::new(Vec::new())));
            let mut session = session(&sink, framed, &service);
            // N requests on one lane in one read: one write, before `feed`
            // returns, of exactly the answers sent one by one.
            let one_lane = requests_and_answers(11, ("vlcsa1", 64), N, 100, framed);
            let read: Vec<u8> = one_lane.iter().flat_map(|(r, _)| r.clone()).collect();
            session.feed(&read, &service);
            let want: Vec<u8> = one_lane.iter().flat_map(|(_, a)| a.clone()).collect();
            let writes = std::mem::take(&mut *sink.0.lock().expect("test sink lock"));
            assert_eq!(writes, vec![want], "framed: {framed}");
            // A read that names three lanes, its requests interleaved:
            // still one write, each lane's answers together in arrival
            // order, lanes in the order the read first named them.
            let lanes = [("vlcsa1", 64), ("ripple", 64), ("vlcsa1", 200)];
            let runs: Vec<_> = (0..lanes.len())
                .map(|k| {
                    let base = 1000 * (k as u64 + 1);
                    requests_and_answers(12 + k as u64, lanes[k], N, base, framed)
                })
                .collect();
            let read: Vec<u8> = (0..N)
                .flat_map(|i| runs.iter().map(move |run| run[i].0.clone()))
                .flatten()
                .collect();
            session.feed(&read, &service);
            let want: Vec<u8> = runs.iter().flatten().flat_map(|(_, a)| a.clone()).collect();
            let writes = sink.0.lock().expect("test sink lock").clone();
            assert_eq!(writes, vec![want], "framed: {framed}");
            service.shutdown();
        }
    }

    #[test]
    fn interleaved_connections_each_get_one_write_per_group() {
        const N: usize = 16;
        // A text and a binary connection on the vlcsa1 lane: each read is
        // its own group and its own write, so a group never mixes
        // connections.
        let service = Service::start(ServeConfig::default());
        let text = Arc::new(Wire(Mutex::new(Vec::new())));
        let framed = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut text_session = session(&text, false, &service);
        let mut framed_session = session(&framed, true, &service);
        let text_run = requests_and_answers(12, ("vlcsa1", 64), N, 0, false);
        let framed_run = requests_and_answers(13, ("vlcsa1", 64), N, N as u64, true);
        for (run, session) in [
            (&text_run, &mut text_session),
            (&framed_run, &mut framed_session),
        ] {
            let read: Vec<u8> = run.iter().flat_map(|(r, _)| r.clone()).collect();
            session.feed(&read, &service);
        }
        for (run, sink) in [(&text_run, &text), (&framed_run, &framed)] {
            let want: Vec<u8> = run.iter().flat_map(|(_, a)| a.clone()).collect();
            assert_eq!(*sink.0.lock().expect("test sink lock"), vec![want]);
        }
        let vlcsa1 = service.stats().engine("vlcsa1").expect("served").clone();
        assert_eq!((vlcsa1.groups, vlcsa1.lanes), (2, 2 * N as u64));
        service.shutdown();
    }

    /// The requests `seqs` as `ADD`s on vlcsa1 at width 64, in either
    /// framing, back to back: one read's worth of pipelined traffic.
    fn add_bytes(adds: &[(UBig, UBig, UBig, bool, u8)], seqs: u64, framed: bool) -> Vec<u8> {
        let names = vlcsa::engine::Registry::for_width(64).names();
        let id = names.iter().position(|n| *n == "vlcsa1").expect("listed") as u8;
        let mut bytes = Vec::new();
        for (i, (a, b, ..)) in adds.iter().enumerate() {
            let seq = seqs + i as u64;
            if framed {
                bytes.extend(binary::encode_add(seq, id, 64, a.limbs(), b.limbs()));
            } else {
                bytes.extend(protocol::format_add(seq, "vlcsa1", a, b).into_bytes());
                bytes.push(b'\n');
            }
        }
        bytes
    }

    /// A session already upgraded to frames when `framed`.
    fn session(sink: &Arc<Wire>, framed: bool, service: &Service) -> ByteSession<Wire> {
        let mut session = ByteSession::new(Arc::clone(sink));
        if framed {
            session.feed(format!("{HELLO_LINE}\n").as_bytes(), service);
            drain_wire(sink, 1);
            sink.0.lock().expect("test sink lock").clear();
        }
        session
    }

    /// Every reply the sink has written, one entry per line or frame,
    /// sorted, once there are `want` of them.
    fn replies(sink: &Wire, framed: bool, want: usize) -> Vec<Vec<u8>> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let bytes = sink.0.lock().expect("test sink lock").concat();
            let mut out = Vec::new();
            let mut rest = &bytes[..];
            while !rest.is_empty() {
                let len = if framed {
                    HEADER_LEN + u32::from_le_bytes(rest[2..6].try_into().expect("header")) as usize
                } else {
                    rest.iter().position(|&b| b == b'\n').expect("whole lines") + 1
                };
                out.push(rest[..len].to_vec());
                rest = &rest[len..];
            }
            if out.len() >= want {
                out.sort();
                return out;
            }
            assert!(Instant::now() < deadline, "timed out waiting for replies");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn one_read_burst_reaches_an_idle_lane_as_one_group() {
        const N: usize = 40;
        for framed in [false, true] {
            let service = Service::start(ServeConfig::default());
            let sink = Arc::new(Wire(Mutex::new(Vec::new())));
            let mut session = session(&sink, framed, &service);
            let adds = adds_with_answers(13, N + 1);
            // One request registers the lane and is answered.
            session.feed(&add_bytes(&adds[..1], 0, framed), &service);
            replies(&sink, framed, 1);
            let before = service.stats().engine("vlcsa1").expect("served").clone();
            session.feed(&add_bytes(&adds[1..], 1, framed), &service);
            replies(&sink, framed, N + 1);
            let after = service.stats().engine("vlcsa1").expect("served").clone();
            assert_eq!(
                (after.groups - before.groups, after.lanes - before.lanes),
                (1, N as u64),
                "framed: {framed}"
            );
            service.shutdown();
        }
    }

    /// A [`Wire`] that, once armed, stops the service whenever it answers
    /// an error: a stop that lands between a feed's staging and its flush.
    struct StopOnError(Wire, OnceLock<Arc<Service>>);

    impl StopOnError {
        fn answered_error(&self) {
            if let Some(service) = self.1.get() {
                service.stop();
            }
        }
    }

    impl ResponseSink for StopOnError {
        fn send(&self, response: &Response) {
            self.0.send(response);
            if matches!(response, Response::Err(_)) {
                self.answered_error();
            }
        }

        fn send_oks(&self, oks: &OkBatch<'_>, buf: &mut Vec<u8>) {
            self.0.send_oks(oks, buf);
        }
    }

    impl FrameSink for StopOnError {
        fn send_frame(&self, frame: &[u8]) {
            self.0.send_frame(frame);
            if frame[1] == binary::resp::ERR {
                self.answered_error();
            }
        }

        fn send_ok_frames(&self, oks: &OkBatch<'_>, buf: &mut Vec<u8>) {
            self.0.send_ok_frames(oks, buf);
        }
    }

    #[test]
    fn a_stopped_service_answers_shutdown_exactly_once() {
        for framed in [false, true] {
            let service = Arc::new(Service::start(ServeConfig::default()));
            let sink = Arc::new(StopOnError(Wire(Mutex::new(Vec::new())), OnceLock::new()));
            let mut session = ByteSession::new(Arc::clone(&sink));
            if framed {
                session.feed(format!("{HELLO_LINE}\n").as_bytes(), &service);
                drain_wire(&sink.0, 1);
                sink.0 .0.lock().expect("test sink lock").clear();
            }
            let adds = adds_with_answers(14, 2);
            // Request 1 spins the lane up and is answered.
            session.feed(&add_bytes(&adds[..1], 1, framed), &service);
            replies(&sink.0, framed, 1);
            sink.1.get_or_init(|| Arc::clone(&service));
            // Request 2 is staged; the malformed request 3 is answered
            // inline, and that answer stops the service before the feed
            // flushes, so request 2's run finds it stopped. Request 4
            // arrives after the stop.
            let bad = if framed {
                let mut frame = binary::encode_add(3, 0, 64, &[1], &[2]);
                frame[1] = 0x7f;
                frame
            } else {
                b"ADD 3 vlcsa1 64 zz 1\n".to_vec()
            };
            session.feed(&[add_bytes(&adds[1..], 2, framed), bad].concat(), &service);
            session.feed(&add_bytes(&adds[1..], 4, framed), &service);
            std::thread::sleep(Duration::from_millis(20));
            let out = replies(&sink.0, framed, 4);
            assert_eq!(out.len(), 4, "framed: {framed}: {out:?}");
            for seq in [2, 4] {
                let refused = submit_error(seq, SubmitError::Stopped);
                let want = if framed {
                    binary::encode_response(&Response::Err(refused))
                } else {
                    format!("{}\n", format_response(&Response::Err(refused))).into_bytes()
                };
                assert_eq!(
                    out.iter().filter(|r| **r == want).count(),
                    1,
                    "framed: {framed}, seq {seq}: {out:?}"
                );
            }
        }
    }

    #[test]
    fn a_partial_tail_completes_on_the_next_feed() {
        const N: usize = 30;
        for framed in [false, true] {
            let adds = adds_with_answers(15, N);
            // A malformed request in the middle is answered too.
            let bad = if framed {
                let mut frame = binary::encode_add(7, 0, 64, &[1], &[2]);
                frame[1] = 0x7f;
                frame
            } else {
                b"ADD 7 vlcsa1 64 zz 1\n".to_vec()
            };
            let bytes = [
                add_bytes(&adds[..N / 2], 100, framed),
                bad,
                add_bytes(&adds[N / 2..], 100 + N as u64 / 2, framed),
            ]
            .concat();
            let answers = |feeds: &[&[u8]]| {
                let service = Service::start(ServeConfig::default());
                let sink = Arc::new(Wire(Mutex::new(Vec::new())));
                let mut session = session(&sink, framed, &service);
                for feed in feeds {
                    assert_eq!(session.feed(feed, &service), FeedOutcome::Continue);
                }
                let out = replies(&sink, framed, N + 1);
                service.shutdown();
                out
            };
            // Everything but the last few bytes, then those.
            let cut = bytes.len() - 5;
            let split = answers(&[&bytes[..cut], &bytes[cut..]]);
            let bytewise: Vec<&[u8]> = bytes.chunks(1).collect();
            assert_eq!(split, answers(&bytewise), "framed: {framed}");
            assert_eq!(split.len(), N + 1);
        }
    }

    #[test]
    fn a_line_longer_than_a_read_is_parsed_whole() {
        // A SUM of 64 full-width operands is a line of about 64 KiB. Fed
        // in the server's 8 KiB reads, it and the short line after it are
        // answered exactly as the same lines fed whole, one per feed.
        let mut rng = Xoshiro256::seed_from_u64(16);
        let operands: Vec<UBig> = (0..64).map(|_| UBig::random(MAX_WIDTH, &mut rng)).collect();
        let lines = [
            protocol::format_sum(9, "vlcsa1", &operands),
            "ADD 10 vlcsa1 64 2 3".to_string(),
        ];
        let service = Service::start(ServeConfig::default());
        let whole = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut reference = ByteSession::new(Arc::clone(&whole));
        for line in &lines {
            reference.feed(format!("{line}\n").as_bytes(), &service);
        }
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        let bytes = format!("{}\n{}\n", lines[0], lines[1]).into_bytes();
        assert!(bytes.len() > 4 * 8192);
        for read in bytes.chunks(8192) {
            assert_eq!(session.feed(read, &service), FeedOutcome::Continue);
        }
        let want = replies(&whole, false, 2);
        assert!(want[0].starts_with(b"OK 10 "), "{want:?}");
        assert!(want[1].starts_with(b"OK 9 "), "{want:?}");
        assert_eq!(replies(&sink, false, 2), want);
        service.shutdown();
    }

    #[test]
    fn a_line_without_a_newline_is_refused_past_the_bound() {
        // 256 KiB with no newline, in 8 KiB reads: held until it passes
        // MAX_LINE, then answered once and the stream closed.
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        let bytes = vec![b'a'; 256 * 1024];
        let outcomes: Vec<FeedOutcome> = bytes
            .chunks(8192)
            .map(|read| session.feed(read, &service))
            .take_while(|&outcome| outcome == FeedOutcome::Continue)
            .collect();
        // The read that takes the held bytes past the bound closes.
        assert_eq!(outcomes.len(), protocol::MAX_LINE / 8192);
        let out = sink.0.lock().expect("test sink lock").clone();
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].starts_with(b"ERR 0 bad-request "), "{out:?}");
        assert_eq!(service.stats().proto_text, 1);
        service.shutdown();
    }

    #[test]
    fn the_longest_program_line_is_answered() {
        // The longest line `format_program` emits: the largest seq, the
        // longest engine name, 64 full-width inputs and a 64-step spec
        // with two-digit operand indices where it can.
        let mut rng = Xoshiro256::seed_from_u64(17);
        let inputs: Vec<UBig> = (0..MAX_PROGRAM_INPUTS)
            .map(|_| {
                let mut v = UBig::random(MAX_WIDTH, &mut rng);
                v.set_bit(MAX_WIDTH - 1, true);
                v
            })
            .collect();
        let last = Operand::Input(MAX_PROGRAM_INPUTS - 1);
        let mut program = Program::new(MAX_PROGRAM_INPUTS).expect("inputs in range");
        let mut acc = program.push(last, last).expect("first step");
        for k in 1..MAX_PROGRAM_STEPS {
            acc = program
                .push(acc, Operand::Input(10 + k % (MAX_PROGRAM_INPUTS - 10)))
                .expect("step in range");
        }
        let names = vlcsa::engine::Registry::for_width(64).names();
        let engine = names.iter().max_by_key(|n| n.len()).expect("engines");
        let line = protocol::format_program(u64::MAX, engine, &program, &inputs);
        assert!(line.len() <= protocol::MAX_LINE, "{}", line.len());

        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Wire(Mutex::new(Vec::new())));
        let mut session = ByteSession::new(Arc::clone(&sink));
        for read in format!("{line}\n").as_bytes().chunks(8192) {
            assert_eq!(session.feed(read, &service), FeedOutcome::Continue);
        }
        let out = replies(&sink, false, 1);
        let reply = std::str::from_utf8(&out[0]).expect("text reply");
        match protocol::parse_response(reply, MAX_WIDTH) {
            Ok(Response::Ok { seq, sum, .. }) => {
                assert_eq!(seq, u64::MAX);
                assert_eq!(sum, program.eval_scalar(&inputs));
            }
            other => panic!("{other:?}"),
        }
        service.shutdown();
    }
}
