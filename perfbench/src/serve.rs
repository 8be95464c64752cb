//! The TCP workloads: a `Server` with the default configuration on
//! loopback, driven by closed-loop generator threads over `Client`.
//!
//! Each generator owns one connection and keeps a fixed number of
//! requests in flight: it submits the next request of its stream only
//! when a reply arrives. The main thread only samples: every slice it
//! reads the completed count and the scheduler counters of every thread
//! except its own and the generators', so CPU per request is the
//! server's alone. A run is split over `SERVERS` servers started one
//! after another. A workload with a wake-up reference (`wake.rs`) has
//! the generators stop between requests at the end of every slice, runs
//! the reference against the idle server, and rescales the slice's CPU
//! per request by it.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vlcsa_serve::{Client, ServeConfig, Server, StatsReport};

use crate::host::{self, TaskStat};
use crate::report::Histogram;
use crate::stream::{Coverage, Req};
use crate::trace::{self, Span, SpanRing};
use crate::wake::{self, WakeRef};

/// Length of one sampling slice.
const SLICE: Duration = Duration::from_millis(500);
/// How long past the deadline the generators may take to drain before
/// the run counts them as timed out.
const GRACE: Duration = Duration::from_secs(30);
/// Slots of the in-flight table, indexed by sequence number.
const RING: usize = 1 << 14;
/// Fresh servers a run is split over. How much CPU a server spends per
/// request can stay off by 20% or more for a server's whole life (its
/// threads' placement, or the host's state when it started), so no one
/// server sets a run's medians.
const SERVERS: usize = 4;
/// Length of the wake-up reference's slice after each sampling slice.
const REF_SLICE: Duration = Duration::from_millis(80);
/// How long the sampler waits for the generators to stop before it
/// skips a slice's reference.
const STOP_LIMIT: Duration = Duration::from_secs(1);

/// Which framing a connection speaks.
#[derive(Clone, Copy, PartialEq)]
pub enum Wire {
    Text,
    Binary,
}

/// One serve workload: its connections, the requests each keeps in
/// flight, the stream every connection walks, and whether its CPU per
/// request is rescaled by the wake-up reference.
pub struct Workload {
    pub wires: Vec<Wire>,
    pub depth: usize,
    pub stream: Arc<Vec<Req>>,
    pub wake_ref: bool,
}

/// Lets the sampler stop the generators between requests, so that the
/// wake-up reference runs against an idle server. A generator's count
/// into `stopped` releases its completed requests; the sampler acquires
/// `stopped` before it reads the completed count.
#[derive(Default)]
pub struct Pause {
    requested: AtomicBool,
    /// Generators parked on the pause, or finished.
    stopped: AtomicUsize,
}

impl Pause {
    fn requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }

    /// Generator side, with nothing in flight: parks until resumed.
    fn hold(&self) {
        self.stopped.fetch_add(1, Ordering::AcqRel);
        while self.requested() {
            std::thread::park();
        }
        self.stopped.fetch_sub(1, Ordering::AcqRel);
    }

    /// Generator side: a finished generator never holds the sampler up.
    fn finished(&self) {
        self.stopped.fetch_add(1, Ordering::AcqRel);
    }

    /// Sampler side: asks the generators to stop and waits until all
    /// `n` have, for at most `STOP_LIMIT`. Returns whether they did.
    fn stop(&self, n: usize) -> bool {
        self.requested.store(true, Ordering::Release);
        let t0 = Instant::now();
        while self.stopped.load(Ordering::Acquire) < n {
            if t0.elapsed() > STOP_LIMIT {
                return false;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        true
    }

    fn resume(&self, generators: &[JoinHandle<()>]) {
        self.requested.store(false, Ordering::Release);
        for g in generators {
            g.thread().unpark();
        }
    }
}

/// What one generator saw.
pub struct LoopOut {
    pub hist: Histogram,
    pub attempted: u64,
    pub failed: u64,
    pub cover: Coverage,
    pub spans: SpanRing,
}

fn connect(addr: SocketAddr, wire: Wire) -> Option<Client> {
    match wire {
        Wire::Text => Client::connect(addr).ok(),
        Wire::Binary => Client::connect_binary(addr).ok(),
    }
}

fn submit(client: &mut Client, req: &Req) -> std::io::Result<u64> {
    if req.ops.len() == 2 {
        client.submit(req.engine, &req.ops[0], &req.ops[1])
    } else {
        client.submit_sum(req.engine, &req.ops)
    }
}

/// One submitted request: `(seq, submitted at, stream position, request
/// span id, request span start)`.
type InFlight = (u64, Instant, usize, u64, u64);

/// Runs one connection's closed loop until `deadline`, but always over
/// the whole stream at least once, then drains what is in flight. Every
/// reply is checked against the stream's precomputed answer. While a
/// pause is requested it submits nothing, and parks once nothing is in
/// flight.
pub fn closed_loop(
    client: &mut Client,
    stream: &[Req],
    depth: usize,
    deadline: Instant,
    completed: &AtomicU64,
    traced: bool,
    pause: &Pause,
) -> LoopOut {
    let mut out = LoopOut {
        hist: Histogram::new(),
        attempted: 0,
        failed: 0,
        cover: Coverage::new(stream.len()),
        spans: SpanRing::default(),
    };
    let mut ring: Vec<Option<InFlight>> = vec![None; RING];
    let mut next = 0usize;
    let mut inflight = 0usize;
    let more = |next: usize| next < stream.len() || Instant::now() < deadline;

    let issue = |client: &mut Client,
                 next: &mut usize,
                 ring: &mut Vec<Option<InFlight>>,
                 spans: &mut SpanRing|
     -> bool {
        let idx = *next % stream.len();
        let req_id = if traced { trace::next_id() } else { 0 };
        let t0 = Instant::now();
        let start_ns = if traced { trace::now_ns() } else { 0 };
        let Ok(seq) = submit(client, &stream[idx]) else {
            return false;
        };
        if traced {
            spans.push(Span {
                id: trace::next_id(),
                parent: req_id,
                name: "client.submit",
                req: seq,
                start_ns,
                end_ns: trace::now_ns(),
            });
        }
        let slot = &mut ring[seq as usize % RING];
        if slot.is_some() {
            return false;
        }
        *slot = Some((seq, t0, idx, req_id, start_ns));
        *next += 1;
        true
    };

    let mut healthy = true;
    while healthy && inflight < depth && more(next) {
        healthy = issue(client, &mut next, &mut ring, &mut out.spans);
        inflight += usize::from(healthy);
    }
    while healthy && inflight > 0 {
        let recv_start = if traced { trace::now_ns() } else { 0 };
        let Ok((seq, result)) = client.recv() else {
            healthy = false;
            break;
        };
        let Some((sent_seq, t0, idx, req_id, req_start)) = ring[seq as usize % RING].take() else {
            healthy = false;
            break;
        };
        if sent_seq != seq {
            healthy = false;
            break;
        }
        inflight -= 1;
        out.attempted += 1;
        let req = &stream[idx];
        match result {
            Ok(r) if req.check(&r) => {
                out.hist.record(t0.elapsed().as_nanos() as u64);
                out.cover.observe(idx, r.cycles);
            }
            _ => out.failed += 1,
        }
        if traced {
            let end_ns = trace::now_ns();
            out.spans.push(Span {
                id: trace::next_id(),
                parent: req_id,
                name: "client.recv",
                req: seq,
                start_ns: recv_start,
                end_ns,
            });
            out.spans.push(Span {
                id: req_id,
                parent: 0,
                name: "request",
                req: seq,
                start_ns: req_start,
                end_ns,
            });
        }
        completed.fetch_add(1, Ordering::Relaxed);
        if pause.requested() {
            if inflight > 0 {
                continue;
            }
            pause.hold();
        }
        while healthy && inflight < depth && more(next) {
            healthy = issue(client, &mut next, &mut ring, &mut out.spans);
            inflight += usize::from(healthy);
        }
    }
    if !healthy {
        // A broken connection, a reply to no request or a failed submit:
        // everything still in flight is lost.
        out.attempted += inflight as u64 + 1;
        out.failed += inflight as u64 + 1;
    }
    out
}

/// Everything a serve run measured.
pub struct RunOut {
    pub hist: Histogram,
    pub attempted: u64,
    pub failed: u64,
    pub cover: Coverage,
    pub spans: Vec<Span>,
    /// Median-able per-slice figures: requests per second and server CPU
    /// microseconds per request, rescaled when the workload has a
    /// wake-up reference.
    pub slice_rates: Vec<f64>,
    pub slice_cpu_us: Vec<f64>,
    /// With a wake-up reference: each slice's CPU per request before
    /// rescaling, and the reference's CPU microseconds per round.
    pub slice_raw_cpu_us: Vec<f64>,
    pub slice_round_us: Vec<f64>,
    /// Server-side scheduler counters over the whole run, and how many
    /// server threads ran during it.
    pub server: TaskStat,
    pub server_threads: usize,
    pub completed: u64,
    pub stats: Option<StatsReport>,
}

/// One cold start: start a server, connect every connection and get one
/// verified answer from every lane the stream uses. Returns the elapsed
/// seconds with the live server and clients.
fn cold_start(w: &Workload, failed: &mut u64) -> Option<(f64, Server, Vec<Client>)> {
    let t0 = Instant::now();
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).ok()?;
    let addr = server.local_addr();
    let mut clients = Vec::new();
    for &wire in &w.wires {
        clients.push(connect(addr, wire)?);
    }
    // The first request of each engine in the stream: one per lane.
    let mut firsts: Vec<&Req> = Vec::new();
    for req in w.stream.iter() {
        if !firsts
            .iter()
            .any(|f| f.engine == req.engine && f.width() == req.width())
        {
            firsts.push(req);
        }
    }
    let mut pending = BTreeMap::new();
    for req in &firsts {
        let seq = submit(&mut clients[0], req).ok()?;
        pending.insert(seq, *req);
    }
    while !pending.is_empty() {
        let (seq, result) = clients[0].recv().ok()?;
        let req = pending.remove(&seq)?;
        if !matches!(result, Ok(r) if req.check(&r)) {
            *failed += 1;
        }
    }
    Some((t0.elapsed().as_secs_f64(), server, clients))
}

/// Runs the workload for `seconds`, split evenly over `SERVERS` servers
/// started one after another; the first part sets up `reps` times, the
/// others once, and every start's time goes to `setup_s`. `None` means a
/// server could not be started or reached at all.
pub fn run(
    w: &Workload,
    seconds: f64,
    reps: usize,
    traced: bool,
    setup_s: &mut Vec<f64>,
) -> Option<RunOut> {
    let mut run = run_server(w, seconds / SERVERS as f64, reps, traced, setup_s)?;
    for _ in 1..SERVERS {
        // A failed part already fails the run.
        if run.failed > 0 {
            break;
        }
        let part = run_server(w, seconds / SERVERS as f64, 1, traced, setup_s)?;
        run.absorb(part);
    }
    Some(run)
}

/// Sets up `reps` times (keeping the last server), then runs the closed
/// loops for `seconds`.
fn run_server(
    w: &Workload,
    seconds: f64,
    reps: usize,
    traced: bool,
    setup_s: &mut Vec<f64>,
) -> Option<RunOut> {
    let mut setup_failed = 0;
    let mut live = None;
    for rep in 0..reps {
        let (t, server, clients) = cold_start(w, &mut setup_failed)?;
        setup_s.push(t);
        if rep + 1 == reps {
            live = Some((server, clients));
        } else {
            for c in clients {
                c.close();
            }
            server.shutdown();
        }
    }
    let (server, clients) = live?;
    let addr = server.local_addr();

    let completed = Arc::new(AtomicU64::new(0));
    let pause = Arc::new(Pause::default());
    let deadline: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let barrier = Arc::new(Barrier::new(clients.len() + 1));
    let (tid_tx, tid_rx) = mpsc::channel();
    let (out_tx, out_rx) = mpsc::channel();
    let mut handles = Vec::new();
    for mut client in clients {
        let (stream, completed, pause, deadline, barrier) = (
            Arc::clone(&w.stream),
            Arc::clone(&completed),
            Arc::clone(&pause),
            Arc::clone(&deadline),
            Arc::clone(&barrier),
        );
        let (tid_tx, out_tx, depth) = (tid_tx.clone(), out_tx.clone(), w.depth);
        handles.push(std::thread::spawn(move || {
            tid_tx
                .send(host::thread_id())
                .expect("main thread waits for ids");
            barrier.wait();
            let deadline = *deadline.get().expect("set before the barrier");
            let out = closed_loop(
                &mut client,
                &stream,
                depth,
                deadline,
                &completed,
                traced,
                &pause,
            );
            pause.finished();
            // The connection stays open until the main thread has read the
            // server threads' counters: closing it ends its reader thread.
            let _ = out_tx.send((out, client));
        }));
    }
    drop(out_tx);
    // The process id is also the main thread's id.
    let mut excluded = vec![std::process::id()];
    for _ in 0..handles.len() {
        excluded.push(tid_rx.recv().ok()?);
    }
    let wake = w.wake_ref.then(WakeRef::start);
    if let Some(wake) = &wake {
        excluded.push(wake.tid());
    }

    let first = host::tasks(true);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    deadline.set(end).expect("set once");
    barrier.wait();

    let mut run = RunOut {
        hist: Histogram::new(),
        attempted: 0,
        failed: setup_failed,
        cover: Coverage::new(w.stream.len()),
        spans: Vec::new(),
        slice_rates: Vec::new(),
        slice_cpu_us: Vec::new(),
        slice_raw_cpu_us: Vec::new(),
        slice_round_us: Vec::new(),
        server: TaskStat::default(),
        server_threads: 0,
        completed: 0,
        stats: None,
    };
    let (mut prev_t, mut prev_n, mut prev_tasks) = (start, 0u64, first.clone());
    let mut outs = Vec::new();
    let mut clients = Vec::new();
    let mut slice_end = start + SLICE;
    while outs.len() < handles.len() {
        let wait = slice_end.saturating_duration_since(Instant::now());
        match out_rx.recv_timeout(wait) {
            Ok((out, client)) => {
                outs.push(out);
                clients.push(client);
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
        let now = Instant::now();
        if now > end + GRACE {
            // A generator is stuck on a reply that never came.
            let lost = w.depth as u64 * (handles.len() - outs.len()) as u64;
            run.attempted += lost;
            run.failed += lost;
            eprintln!(
                "perfbench: requests timed out {}s past the deadline",
                GRACE.as_secs()
            );
            // Shutting down would wait for the stuck connections; the
            // caller reports the failure and exits instead.
            std::mem::forget(server);
            return Some(finish(run, outs, &first, &excluded, None));
        }
        if now <= end {
            let stopped = wake.is_some() && pause.stop(handles.len());
            let now = Instant::now();
            let n = completed.load(Ordering::Relaxed);
            let tasks = host::tasks(false);
            let (cpu, _) = host::delta(&prev_tasks, &tasks, &excluded);
            let done = n - prev_n;
            let cpu_us = cpu.run_ns as f64 / 1e3 / done.max(1) as f64;
            let (mut next_t, mut next_tasks) = (now, tasks);
            let round_us = match &wake {
                Some(wake) if stopped => {
                    let round_us = wake.measure(REF_SLICE);
                    (next_t, next_tasks) = (Instant::now(), host::tasks(false));
                    Some(round_us)
                }
                _ => None,
            };
            if wake.is_some() {
                pause.resume(&handles);
            }
            if done > 0 {
                run.slice_rates
                    .push(done as f64 / (now - prev_t).as_secs_f64());
                match round_us {
                    Some(round_us) => run.record_rescaled(cpu_us, round_us),
                    None if wake.is_none() => run.slice_cpu_us.push(cpu_us),
                    // The generators did not stop in time: no reference,
                    // so no CPU figure for this slice.
                    None => {}
                }
            }
            (prev_t, prev_n, prev_tasks) = (next_t, n, next_tasks);
        }
        slice_end += SLICE;
    }
    for h in handles {
        if h.join().is_err() {
            run.failed += 1;
        }
    }
    let stats = if traced {
        Client::connect(addr).ok().and_then(|mut c| {
            let s = c.stats().ok();
            c.close();
            s
        })
    } else {
        None
    };
    let mut run = finish(run, outs, &first, &excluded, stats);
    if run.slice_rates.is_empty() && run.completed > 0 {
        // A run shorter than one slice: the whole run is its one slice.
        run.slice_rates
            .push(run.completed as f64 / start.elapsed().as_secs_f64());
    }
    if run.slice_cpu_us.is_empty() && run.completed > 0 {
        let cpu_us = run.server.run_ns as f64 / 1e3 / run.completed as f64;
        match &wake {
            // The generators are done, so the server is idle already.
            Some(wake) => run.record_rescaled(cpu_us, wake.measure(REF_SLICE)),
            None => run.slice_cpu_us.push(cpu_us),
        }
    }
    drop(wake);
    for c in clients {
        c.close();
    }
    server.shutdown();
    Some(run)
}

impl RunOut {
    /// Adds a later part of the same run, on another server.
    fn absorb(&mut self, part: RunOut) {
        self.hist.merge(&part.hist);
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.cover.merge(&part.cover);
        self.spans.extend(part.spans);
        self.slice_rates.extend(part.slice_rates);
        self.slice_cpu_us.extend(part.slice_cpu_us);
        self.slice_raw_cpu_us.extend(part.slice_raw_cpu_us);
        self.slice_round_us.extend(part.slice_round_us);
        self.server.run_ns += part.server.run_ns;
        self.server.wait_ns += part.server.wait_ns;
        self.server.voluntary += part.server.voluntary;
        self.server_threads = self.server_threads.max(part.server_threads);
        self.completed += part.completed;
        self.stats = part.stats.or(self.stats.take());
    }

    fn record_rescaled(&mut self, cpu_us: f64, round_us: f64) {
        self.slice_cpu_us
            .push(cpu_us * wake::NOMINAL_ROUND_US / round_us);
        self.slice_raw_cpu_us.push(cpu_us);
        self.slice_round_us.push(round_us);
    }
}

/// Folds the generators' results into the run, with the server threads'
/// counters from `first` to now (every connection still open).
fn finish(
    mut run: RunOut,
    outs: Vec<LoopOut>,
    first: &BTreeMap<u32, TaskStat>,
    excluded: &[u32],
    stats: Option<StatsReport>,
) -> RunOut {
    let (server, threads) = host::delta(first, &host::tasks(true), excluded);
    run.server = server;
    run.server_threads = threads;
    for out in outs {
        run.hist.merge(&out.hist);
        run.attempted += out.attempted;
        run.failed += out.failed;
        run.cover.merge(&out.cover);
        run.spans.extend(out.spans.into_vec());
    }
    run.completed = run.hist.count();
    run.stats = stats;
    run
}
