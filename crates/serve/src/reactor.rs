//! A feature-gated `epoll(7)` reactor: many idle connections multiplexed
//! onto a small reader pool.
//!
//! The default front-end spends one blocking reader thread per
//! connection — simple, but a server holding thousands of mostly-idle
//! clients pays a thread (stack, scheduler slot) for each. With the
//! `reactor` feature, accepted sockets are instead registered with one
//! shared epoll instance and a fixed pool of reader threads waits on it;
//! per-connection protocol state lives in a
//! [`ByteSession`](crate::session::ByteSession), which consumes whatever
//! byte slice a readiness event delivers.
//!
//! Design, and why each choice:
//!
//! * **Blocking sockets, level-triggered events.** Workers still write
//!   responses with plain blocking `write_all` under the socket mutex
//!   (bounded by the server's write timeout), so the sockets stay in
//!   blocking mode and only *reads* are event-driven. Level-triggered
//!   `EPOLLIN` on a connected TCP socket means data (or EOF) is pending,
//!   so the single `read` per event does not block; in the rare spurious
//!   case it parks one pool thread on that socket until its client speaks
//!   or leaves — bounded impact, no data loss, no busy loop.
//! * **`EPOLLONESHOT`, one read per event, rearm after processing.** A
//!   connection is owned by at most one pool thread at a time, so its
//!   session state needs only a plain mutex and bytes are fed in arrival
//!   order. Rearming only after `feed` returns keeps per-connection
//!   processing serialized without parking other connections.
//! * **Raw `extern "C"` bindings.** The crate is dependency-free and the
//!   container adds nothing; the four calls needed (`epoll_create1`,
//!   `epoll_ctl`, `epoll_wait`, `close`) are declared directly in [`sys`],
//!   the only module in the crate allowed `unsafe`.
//!
//! Backpressure is unchanged: a full lane ingress queue blocks the
//! feeding pool thread inside the session's end-of-feed push, the unread
//! socket bytes back up, and TCP flow control pushes the stall to the
//! client — the same path the threaded front-end takes, with the pool
//! absorbing it a few connections at a time instead of one thread each.

use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::service::Service;
use crate::session::{ByteSession, FeedOutcome};

/// The raw `epoll(7)` surface: constants, the event struct, and the four
/// syscall wrappers, declared directly so the crate stays dependency-free.
/// This is the only `unsafe` in the crate, and it is all FFI declaration —
/// every call site carries its own `SAFETY` argument.
#[allow(unsafe_code)]
pub(crate) mod sys {
    /// `EPOLL_CLOEXEC`: the epoll fd does not leak across `exec`.
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    /// `epoll_ctl` op: register an fd.
    pub const EPOLL_CTL_ADD: i32 = 1;
    /// `epoll_ctl` op: deregister an fd.
    pub const EPOLL_CTL_DEL: i32 = 2;
    /// `epoll_ctl` op: rearm / change an fd's registration.
    pub const EPOLL_CTL_MOD: i32 = 3;
    /// Readable (data or EOF pending, level-triggered).
    pub const EPOLLIN: u32 = 0x1;
    /// Peer shut its write half; surfaces as readability with EOF.
    pub const EPOLLRDHUP: u32 = 0x2000;
    /// Disarm after delivering one event; rearm with `EPOLL_CTL_MOD`.
    pub const EPOLLONESHOT: u32 = 1 << 30;

    /// The kernel's `struct epoll_event`. On x86 it is packed (the
    /// 64-bit `data` sits at offset 4); other Linux targets use natural
    /// alignment — the `cfg_attr` split mirrors the kernel UAPI header.
    #[derive(Clone, Copy)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    pub struct EpollEvent {
        /// Event mask (`EPOLLIN | …`).
        pub events: u32,
        /// Caller-chosen cookie, delivered back verbatim (our token).
        pub data: u64,
    }

    unsafe extern "C" {
        /// `epoll_create1(2)`: a new epoll instance; `-1` + `errno` on
        /// failure.
        pub fn epoll_create1(flags: i32) -> i32;
        /// `epoll_ctl(2)`: add/mod/del `fd` on `epfd`.
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        /// `epoll_wait(2)`: up to `maxevents` ready events into `events`.
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        /// `close(2)` — for the epoll fd itself, which is not wrapped in
        /// any std type.
        pub fn close(fd: i32) -> i32;
    }
}

/// Owns the epoll file descriptor; closed exactly once, on drop.
struct EpollFd(i32);

impl Drop for EpollFd {
    fn drop(&mut self) {
        // SAFETY: `self.0` came from a successful `epoll_create1` and is
        // owned exclusively by this wrapper — nothing else closes it, so
        // this is the single close of a valid, open fd.
        #[allow(unsafe_code)]
        unsafe {
            sys::close(self.0)
        };
    }
}

/// How many ready events one `epoll_wait` call collects.
const EVENT_BATCH: usize = 64;
/// The `epoll_wait` timeout in milliseconds — the bound on how long a
/// stop request waits for an idle pool thread to notice it.
const WAIT_MS: i32 = 50;
/// Read size per readiness event; a whole batch of pipelined frames fits.
const READ_BUF: usize = 16 * 1024;

/// One registered connection: the read half the epoll instance watches
/// plus the protocol state machine feeding off it.
struct Conn {
    stream: TcpStream,
    session: Mutex<ByteSession<Mutex<TcpStream>>>,
    /// Runs once when the connection is deregistered (EOF, error, poison,
    /// or reactor shutdown) — the server drops its registry entry here.
    on_close: Box<dyn Fn() + Send + Sync>,
}

/// The reactor: one epoll instance, a token→connection registry, and the
/// reader pool draining readiness events. See the module docs.
pub(crate) struct Reactor {
    epfd: EpollFd,
    service: Arc<Service>,
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    next_token: AtomicU64,
    stop: AtomicBool,
    pool: Mutex<Vec<JoinHandle<()>>>,
}

impl Reactor {
    /// Creates the epoll instance and spawns `readers` pool threads.
    ///
    /// # Errors
    ///
    /// Returns the `epoll_create1` error.
    pub(crate) fn start(service: Arc<Service>, readers: usize) -> std::io::Result<Arc<Self>> {
        assert!(readers >= 1, "a reactor needs at least one reader");
        // SAFETY: no pointers; `epoll_create1` takes a flags word and
        // returns a new fd or -1.
        #[allow(unsafe_code)]
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let reactor = Arc::new(Self {
            epfd: EpollFd(epfd),
            service,
            conns: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            pool: Mutex::new(Vec::new()),
        });
        let mut pool = reactor.pool.lock().expect("reactor pool lock");
        for _ in 0..readers {
            let reactor = Arc::clone(&reactor);
            pool.push(std::thread::spawn(move || reactor.event_loop()));
        }
        drop(pool);
        Ok(reactor)
    }

    /// Registers a connection: `stream` is the read half the reactor
    /// watches, `writer` the shared write half responses leave through,
    /// `on_close` the deregistration callback.
    ///
    /// # Errors
    ///
    /// Returns the `epoll_ctl` error (the connection is not retained).
    pub(crate) fn register(
        &self,
        stream: TcpStream,
        writer: Arc<Mutex<TcpStream>>,
        on_close: Box<dyn Fn() + Send + Sync>,
    ) -> std::io::Result<()> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let fd = stream.as_raw_fd();
        let conn = Arc::new(Conn {
            stream,
            session: Mutex::new(ByteSession::new(writer)),
            on_close,
        });
        self.conns
            .lock()
            .expect("reactor registry lock")
            .insert(token, conn);
        let mut event = sys::EpollEvent {
            events: sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLONESHOT,
            data: token,
        };
        // SAFETY: `epfd` is this reactor's open epoll fd, `fd` is the
        // open socket owned by the `Conn` just stored (so it outlives the
        // call), and `event` is a live, writable `epoll_event`.
        #[allow(unsafe_code)]
        let rc = unsafe { sys::epoll_ctl(self.epfd.0, sys::EPOLL_CTL_ADD, fd, &mut event) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            self.conns
                .lock()
                .expect("reactor registry lock")
                .remove(&token);
            return Err(err);
        }
        Ok(())
    }

    /// Asks the pool to stop without joining it — the non-blocking half
    /// of shutdown, also safe from `Drop` paths.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stops the pool, joins it, and drops every registered connection
    /// (shutting their sockets down, firing their `on_close`). After this
    /// the caller's `Arc` is the last one, so dropping it frees the
    /// reactor and its `Arc<Service>`.
    pub(crate) fn shutdown(&self) {
        self.request_stop();
        let pool: Vec<_> = self
            .pool
            .lock()
            .expect("reactor pool lock")
            .drain(..)
            .collect();
        for handle in pool {
            let _ = handle.join();
        }
        let conns: Vec<_> = self
            .conns
            .lock()
            .expect("reactor registry lock")
            .drain()
            .collect();
        for (_, conn) in conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
            (conn.on_close)();
        }
    }

    /// One pool thread: wait for readiness, service each event with a
    /// single read, rearm. The timeout bounds the stop-flag check.
    fn event_loop(&self) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; EVENT_BATCH];
        while !self.stop.load(Ordering::SeqCst) {
            // SAFETY: `epfd` is open for the reactor's lifetime, and
            // `events` is a live buffer of exactly `EVENT_BATCH` entries,
            // matching the `maxevents` argument.
            #[allow(unsafe_code)]
            let n = unsafe {
                sys::epoll_wait(
                    self.epfd.0,
                    events.as_mut_ptr(),
                    EVENT_BATCH as i32,
                    WAIT_MS,
                )
            };
            if n <= 0 {
                // Timeout, or EINTR — both just re-check the stop flag.
                continue;
            }
            for event in &events[..n as usize] {
                let token = event.data;
                let conn = self
                    .conns
                    .lock()
                    .expect("reactor registry lock")
                    .get(&token)
                    .cloned();
                // A vanished token is a connection shutdown raced with a
                // delivered event; ONESHOT means no more will follow.
                if let Some(conn) = conn {
                    self.service_event(token, &conn);
                }
            }
        }
    }

    /// Services one readiness event: one read, feed the session, then
    /// rearm — or deregister on EOF, error, or a poisoned stream.
    fn service_event(&self, token: u64, conn: &Conn) {
        let mut session = conn.session.lock().expect("reactor session lock");
        let mut buf = [0u8; READ_BUF];
        let n = match (&conn.stream).read(&mut buf) {
            Ok(0) => {
                drop(session);
                self.deregister(token);
                return;
            }
            Ok(n) => n,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
            Err(_) => {
                drop(session);
                self.deregister(token);
                return;
            }
        };
        match session.feed(&buf[..n], &self.service) {
            FeedOutcome::Continue => {
                drop(session);
                self.rearm(token, &conn.stream);
            }
            FeedOutcome::Close => {
                let _ = conn.stream.shutdown(Shutdown::Both);
                drop(session);
                self.deregister(token);
            }
        }
    }

    /// Rearms a ONESHOT-disarmed connection for its next readable event.
    fn rearm(&self, token: u64, stream: &TcpStream) {
        let mut event = sys::EpollEvent {
            events: sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLONESHOT,
            data: token,
        };
        // SAFETY: `epfd` is open, `stream`'s fd is open (its `Conn` is
        // alive — the caller holds it), `event` is live and writable.
        #[allow(unsafe_code)]
        let rc = unsafe {
            sys::epoll_ctl(
                self.epfd.0,
                sys::EPOLL_CTL_MOD,
                stream.as_raw_fd(),
                &mut event,
            )
        };
        if rc < 0 {
            self.deregister(token);
        }
    }

    /// Removes a connection from the epoll set and the registry and fires
    /// its `on_close`. Dropping the last `Conn` handle closes the read
    /// half; the write half lives on in any still-pending reply closures,
    /// whose writes to the dead socket are swallowed by the sinks.
    fn deregister(&self, token: u64) {
        let conn = self
            .conns
            .lock()
            .expect("reactor registry lock")
            .remove(&token);
        if let Some(conn) = conn {
            // SAFETY: `epfd` is open and the socket fd is still open
            // (`conn` keeps it alive past this call); DEL takes no event
            // struct. A failure (fd already gone from the set) is fine —
            // ONESHOT already disarmed it.
            #[allow(unsafe_code)]
            unsafe {
                sys::epoll_ctl(
                    self.epfd.0,
                    sys::EPOLL_CTL_DEL,
                    conn.stream.as_raw_fd(),
                    std::ptr::null_mut(),
                )
            };
            (conn.on_close)();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    use super::*;
    use crate::service::ServeConfig;

    /// The reactor drives a real socket end to end without the `Server`
    /// wiring: register, text request, reply, EOF deregistration.
    #[test]
    fn reactor_serves_a_text_connection() {
        let service = Arc::new(Service::start(ServeConfig {
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        }));
        let reactor = Reactor::start(Arc::clone(&service), 2).expect("epoll instance");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let writer = Arc::new(Mutex::new(accepted.try_clone().expect("clone")));
        let closed = Arc::new(AtomicUsize::new(0));
        let on_close = {
            let closed = Arc::clone(&closed);
            Box::new(move || {
                closed.fetch_add(1, Ordering::SeqCst);
            })
        };
        reactor
            .register(accepted, writer, on_close)
            .expect("register");
        assert_eq!(reactor.conns.lock().expect("registry").len(), 1);

        client.write_all(b"ADD 9 vlcsa1 32 2 3\n").expect("request");
        let mut reply = String::new();
        let mut reader = BufReader::new(client.try_clone().expect("clone"));
        reader.read_line(&mut reply).expect("reply");
        assert!(reply.starts_with("OK 9 5 0 "), "{reply:?}");

        // EOF deregisters and fires on_close.
        drop(reader);
        client.shutdown(Shutdown::Both).expect("client close");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while closed.load(Ordering::SeqCst) == 0 {
            assert!(std::time::Instant::now() < deadline, "close not observed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reactor.conns.lock().expect("registry").len(), 0);

        reactor.shutdown();
        drop(reactor);
        Arc::into_inner(service)
            .expect("the reactor released its service handle")
            .shutdown();
    }
}
