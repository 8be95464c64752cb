//! The TCP front-end: a listener and one reader thread per connection,
//! which runs its connection's requests and writes their replies.
//!
//! Each accepted connection gets a reader thread that feeds whatever each
//! `read` delivers to the connection's [`crate::session::ByteSession`], the
//! one protocol state machine every byte goes through. A connection whose
//! **first** non-empty line is exactly
//! [`HELLO_LINE`](crate::binary::HELLO_LINE) upgrades to the binary
//! framing of [`crate::binary`] — the server echoes the line and both
//! directions speak frames from then on; every other connection is text
//! forever.
//!
//! **Run to completion.** The session answers malformed requests inline
//! and stages every valid `ADD`/`SUM`/`PROG` of a read in its lane's issue
//! group; before the reader blocks on its socket again, the session runs
//! those groups on the reader thread and writes every `OK` the read earned
//! with one `write_all`: no lane queue, no worker wake-up, one reply write
//! per read. A pipelining [`Client`](crate::Client) batches on its side,
//! so a burst of requests crosses the wire in one write and comes back in
//! one. The reader's buffer starts at 8 KiB and doubles, up to 64 KiB,
//! whenever a read fills it, so a connection that sends large bursts gets
//! each in one read while an idle one keeps 8 KiB.
//!
//! The write half of the socket is the connection's sink, and only its
//! reader thread writes to it: the read's `OK` lines (or `OK` frames) are
//! encoded back to back from the groups' sums into the session's reused
//! buffer, and every other response (an `ERR` line, a listing, a frame)
//! is one write too. Nothing short of a socket error, poisoned framing, a
//! line that is not UTF-8 or one longer than
//! [`MAX_LINE`](crate::protocol::MAX_LINE) drops a connection; on the
//! last three the reader shuts the socket down. A client that stops
//! reading holds only its own reader, once the socket buffers fill; each
//! accepted socket carries [`Server::WRITE_TIMEOUT`], after which the
//! write fails and the socket is shut down (that client loses the write
//! and its connection, which was already broken).
//!
//! [`Server::shutdown`] is clean and bounded: stop accepting, shut the
//! sockets down (unblocking the readers, whose writes to a shut-down
//! socket fail at once), and join them. The readers are the only threads
//! that run groups, so once they are joined every accepted request has
//! been answered.
//!
//! # Example
//!
//! ```
//! use bitnum::UBig;
//! use vlcsa_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let response = client
//!     .add("carry-select", &UBig::from_u128(2, 32), &UBig::from_u128(3, 32))
//!     .unwrap();
//! assert_eq!(response.sum.to_u128(), Some(5));
//! client.close();
//! server.shutdown();
//! ```

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::Response;
use crate::service::{ServeConfig, Service};
use crate::session::{ByteSession, FeedOutcome, FrameSink, OkBatch, ResponseSink};

/// Writes `bytes` — a line, a frame, or a whole read's answers — to the
/// socket with one `write_all`. Write errors are swallowed: a session
/// answering after the client hung up (or after shutdown) has nobody left
/// to tell. A failed (or timed-out) write may have sent part of `bytes`,
/// so the socket is shut down: a desynced stream is unrecoverable and
/// killing it also ends the connection's reader.
fn write_chunk(mut stream: &TcpStream, bytes: &[u8]) {
    if stream.write_all(bytes).is_err() {
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// The text sink over the socket: each response line with its newline is
/// one write, and one read's `OK` lines are one write.
impl ResponseSink for TcpStream {
    fn send(&self, response: &Response) {
        let mut line = crate::protocol::format_response(response);
        line.push('\n');
        write_chunk(self, line.as_bytes());
    }

    fn send_oks(&self, oks: &OkBatch<'_>, buf: &mut Vec<u8>) {
        oks.encode_lines(buf);
        write_chunk(self, buf);
    }
}

/// The frame sink over the socket: each frame is one write, and one
/// read's `OK` frames are one write.
impl FrameSink for TcpStream {
    fn send_frame(&self, frame: &[u8]) {
        write_chunk(self, frame);
    }

    fn send_ok_frames(&self, oks: &OkBatch<'_>, buf: &mut Vec<u8>) {
        oks.encode_frames(buf);
        write_chunk(self, buf);
    }
}

/// Bytes a connection's first `read` may hand its session — std's
/// `BufReader` default. The buffer is zeroed when it is made or grown, so
/// every connection starts small.
const READ_BUF: usize = 8 * 1024;

/// The most a connection's read buffer grows to: a burst this size reaches
/// its lanes in one read.
const MAX_READ_BUF: usize = 64 * 1024;

/// One connection's reader thread: feeds whatever each `read` delivers to
/// the connection's [`ByteSession`], which runs the read's requests and
/// writes their answers before this loop blocks on the socket again. A
/// read that fills the buffer doubles it, up to [`MAX_READ_BUF`]. Returns
/// when the client disconnects, the socket is shut down, or the session
/// closes the stream — then it shuts the socket down.
fn serve_connection(stream: TcpStream, service: &Service) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut session = ByteSession::new(Arc::new(writer));
    let mut buf = vec![0u8; READ_BUF];
    loop {
        let n = match (&stream).read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if session.feed(&buf[..n], service) == FeedOutcome::Close {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if n == buf.len() && n < MAX_READ_BUF {
            buf.resize(2 * n, 0);
        }
    }
}

/// The running TCP server — see the module docs and example.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<HashMap<u64, TcpStream>>>,
    reader_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// How long a connection's reader will wait on its client's full send
    /// buffer before abandoning a write. The socket is then shut down: a
    /// client that stops reading loses the write (one read's answers) and
    /// its connection after this bound, instead of holding its reader
    /// thread and socket for as long as it does not read.
    pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

    /// Binds `addr` (use port 0 for an OS-assigned port), starts the
    /// service core and the accept loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<Self> {
        Self::start_with_service(addr, Service::start(config))
    }

    /// Like [`Server::start`], but over an already-built [`Service`] —
    /// the seam for serving custom routers or injected registries
    /// ([`Service::start_custom`]) over real sockets.
    ///
    /// # Errors
    ///
    /// Returns the bind error. The service is dropped on the error path.
    pub fn start_with_service(addr: impl ToSocketAddrs, service: Service) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::new(service);
        let connections: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
        let reader_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let reader_threads = Arc::clone(&reader_threads);
            std::thread::spawn(move || {
                let mut next_conn_id = 0u64;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // Responses are single short lines; without NODELAY,
                    // Nagle + delayed ACK quantizes every round trip to
                    // tens of milliseconds. The write timeout bounds how
                    // long a reader can be held by its stalled client.
                    stream.set_nodelay(true).ok();
                    stream.set_write_timeout(Some(Self::WRITE_TIMEOUT)).ok();
                    let conn_id = next_conn_id;
                    next_conn_id += 1;
                    if let Ok(registered) = stream.try_clone() {
                        connections
                            .lock()
                            .expect("connection registry lock")
                            .insert(conn_id, registered);
                    }
                    let service = Arc::clone(&service);
                    let conns = Arc::clone(&connections);
                    let handle = std::thread::spawn(move || {
                        serve_connection(stream, &service);
                        // Deregister on exit so a long-running server does
                        // not accumulate one open fd per dead connection.
                        conns
                            .lock()
                            .expect("connection registry lock")
                            .remove(&conn_id);
                    });
                    // Reap finished readers here, for the same reason.
                    let finished: Vec<JoinHandle<()>> = {
                        let mut handles = reader_threads.lock().expect("reader registry lock");
                        let (done, live) = handles.drain(..).partition(|h| h.is_finished());
                        *handles = live;
                        handles.push(handle);
                        done
                    };
                    for done in finished {
                        // Already returned; join cannot block.
                        let _ = done.join();
                    }
                }
            })
        };

        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            connections,
            reader_threads,
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently registered connections. Dead connections are
    /// deregistered by their reader threads (and their handles reaped on
    /// the next accept), so a long-running server's registries track live
    /// clients, not connection history — this is the observable for that.
    pub fn open_connections(&self) -> usize {
        self.connections
            .lock()
            .expect("connection registry lock")
            .len()
    }

    /// Stops accepting, shuts every connection's socket down, answers the
    /// already-accepted requests, and joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; if the
        // listener is somehow unreachable the loop is already dead.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for (_, stream) in self
            .connections
            .lock()
            .expect("connection registry lock")
            .drain()
        {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // With the sockets already shut down, every reader's next read
        // returns, so these joins are bounded.
        let readers: Vec<_> = self
            .reader_threads
            .lock()
            .expect("reader registry lock")
            .drain(..)
            .collect();
        for handle in readers {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    /// A dropped (not shut down) server still stops its accept loop so the
    /// listener thread cannot outlive the handle.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}
