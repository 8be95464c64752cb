//! Head-of-line isolation across serve lanes: a stalled engine must not
//! delay any other `(engine, width)` lane.
//!
//! This is the runtime's core claim — every issue group runs on the thread
//! that staged it, so a slow engine holds only the threads that named it —
//! pinned deterministically, with no sleeps: a synthetic `gated` engine
//! (registered through the [`RegistryCache::with_factory`] seam) parks the
//! thread running its group inside `add_batch` on a condvar handshake, the
//! test *observes* the park, drives a full burst through other lanes to
//! completion while the gate is still closed, and only then releases the
//! stalled lane. A runtime that ran every group on one shared thread would
//! hang in step two; here it cannot.
//!
//! In process, the held thread is the gated request's submitter. On the
//! wire the isolation unit is the connection: a session runs its reads'
//! groups on the thread that feeds it and writes its own replies. The wire
//! cases hold one session's thread — inside its `OK` write, or parked in
//! the gated engine — and drive a second session's burst to completion
//! meanwhile.
//!
//! The scenario runs at a one-limb and a multi-limb width, and the whole
//! file compiles under both slab words (`DefaultWord` is `W256`, or `u64`
//! under `--cfg vlcsa_word64`), so the isolation property is pinned for
//! both word widths.

use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bitnum::batch::{BitSlab, DefaultWord};
use bitnum::UBig;
use vlcsa::batch::BatchOutcome;
use vlcsa::engine::{Engine, Registry, ScalarEngine};
use vlcsa::route::{RouteConfig, Router};
use vlcsa::AddOutcome;
use vlcsa_serve::protocol::{format_response, parse_response};
use vlcsa_serve::{
    ByteSession, FrameSink, OkBatch, Operands, RegistryCache, Reply, Response, ResponseSink,
    ServeConfig, Service, Staging,
};

/// The rendezvous between the test and the stalled thread: the thread
/// reports how many `add_batch` calls are parked inside the gate, the
/// test waits for that count to rise, then opens the gate.
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

struct GateState {
    parked: usize,
    open: bool,
}

impl Gate {
    fn new() -> Self {
        Self {
            state: Mutex::new(GateState {
                parked: 0,
                open: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Called by the engine, from the thread running its group: announce
    /// the park, then block until the gate opens.
    fn park(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.parked += 1;
        self.changed.notify_all();
        while !state.open {
            state = self.changed.wait(state).expect("gate lock");
        }
    }

    /// Called by the test: block until `n` threads are parked. Bounded so
    /// a regression fails the test instead of wedging the suite.
    fn await_parked(&self, n: usize) {
        let deadline = Duration::from_secs(30);
        let state = self.state.lock().expect("gate lock");
        let (state, timeout) = self
            .changed
            .wait_timeout_while(state, deadline, |s| s.parked < n)
            .expect("gate lock");
        assert!(
            !timeout.timed_out(),
            "no thread reached the gated engine: {} parked",
            state.parked
        );
    }

    fn open(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.open = true;
        self.changed.notify_all();
    }
}

/// An always-stall engine: scalar path delegates untouched, batch path
/// parks on the gate before delegating — so a request through its lane
/// wedges the thread running its group, visibly and releasably, while
/// computing the correct sum once released.
struct GatedEngine {
    inner: Box<dyn Engine<DefaultWord>>,
    gate: Arc<Gate>,
}

impl ScalarEngine for GatedEngine {
    fn name(&self) -> &'static str {
        "gated"
    }

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn add_one(&self, a: &UBig, b: &UBig) -> AddOutcome {
        self.inner.add_one(a, b)
    }
}

impl Engine<DefaultWord> for GatedEngine {
    fn add_batch(
        &self,
        a: &BitSlab<DefaultWord>,
        b: &BitSlab<DefaultWord>,
    ) -> BatchOutcome<DefaultWord> {
        self.gate.park();
        self.inner.add_batch(a, b)
    }
}

/// The production registry plus the `gated` engine, sharing one gate
/// across widths.
fn gated_cache(gate: &Arc<Gate>) -> RegistryCache {
    let gate = Arc::clone(gate);
    RegistryCache::with_factory(move |width| {
        let mut engines = Registry::for_width(width).into_engines();
        let inner = Registry::for_width(width)
            .into_engines()
            .into_iter()
            .find(|e| e.name() == "ripple")
            .expect("ripple exists at every width");
        engines.push(Box::new(GatedEngine {
            inner,
            gate: Arc::clone(&gate),
        }));
        Registry::from_engines(width, engines)
    })
}

/// A service whose registry carries the `gated` engine.
fn gated_service(gate: &Arc<Gate>) -> Service {
    Service::start_custom(
        ServeConfig::default(),
        Arc::new(Router::new(RouteConfig::default())),
        Arc::new(gated_cache(gate)),
    )
}

fn stalled_lane_does_not_delay_others_at(width: usize) {
    let gate = Arc::new(Gate::new());
    let service = gated_service(&gate);
    std::thread::scope(|scope| stalled_lane_with_a_gated_submitter(scope, &service, &gate, width));
    service.shutdown();
}

fn stalled_lane_with_a_gated_submitter<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    service: &'s Service,
    gate: &Arc<Gate>,
    width: usize,
) {
    // One request down the gated lane, submitted on its own thread; wait
    // until that thread is provably parked inside `add_batch`.
    let (gated_tx, gated_rx) = mpsc::channel();
    let submitter = scope.spawn(move || {
        service
            .submit(
                "gated",
                UBig::from_u128(41, width),
                UBig::from_u128(1, width),
                Box::new(move |result| {
                    let _ = gated_tx.send(result);
                }),
            )
            .expect("gated submit");
    });
    gate.await_parked(1);

    // With the gate still closed, a burst through two *other* lanes (the
    // same width, and engine families on both sides of the latency
    // trade-off) must run to completion.
    let (tx, rx) = mpsc::channel();
    let burst = 64u64;
    for i in 0..burst {
        let engine = if i % 2 == 0 { "vlcsa1" } else { "carry-select" };
        let tx = tx.clone();
        service
            .submit(
                engine,
                UBig::from_u128(i as u128, width),
                UBig::from_u128(i as u128 * 5, width),
                Box::new(move |result| {
                    let _ = tx.send((i, result));
                }),
            )
            .expect("burst submit");
    }
    drop(tx);
    let mut seen = 0u64;
    while let Ok((i, result)) = rx.recv_timeout(Duration::from_secs(30)) {
        assert_eq!(result.sum.to_u128(), Some(i as u128 * 6), "request {i}");
        seen += 1;
        if seen == burst {
            break;
        }
    }
    assert_eq!(
        seen, burst,
        "burst answered while the gated lane is stalled"
    );

    // The stalled group really has not completed: a run records a group's
    // stats only after `add_batch` returns, so `gated` must be absent from
    // the engine counters while both its neighbours served the full burst.
    let stats = service.stats();
    assert!(
        stats.engine("gated").is_none(),
        "gated group completed early: {:?}",
        stats.engines
    );
    assert_eq!(
        stats.engine("vlcsa1").expect("vlcsa1 served").lanes
            + stats
                .engine("carry-select")
                .expect("carry-select served")
                .lanes,
        burst,
        "{:?}",
        stats.engines
    );
    assert!(
        stats.lane("gated", width).is_some(),
        "the gated lane exists: {:?}",
        stats.lanes
    );

    // Release the gate: the stalled request completes with the exact sum,
    // proving the lane was wedged, not dead.
    gate.open();
    submitter.join().expect("gated submitter");
    let released = gated_rx.try_recv().expect("gated reply after release");
    assert_eq!(released.sum.to_u128(), Some(42));
    let stats = service.stats();
    assert_eq!(stats.engine("gated").expect("gated ran").lanes, 1);
}

#[test]
fn stalled_lane_does_not_delay_others_one_limb() {
    stalled_lane_does_not_delay_others_at(64);
}

#[test]
fn stalled_lane_does_not_delay_others_multi_limb() {
    stalled_lane_does_not_delay_others_at(100);
}

/// Groups follow the load: requests staged while a group of their lane
/// runs elsewhere are not held back by it, and the `N` staged before a run
/// are that run's one issue group. A thread is parked inside a
/// one-request gated group while this one stages `N` more on the same
/// lane; once the gate opens, running them is one more group of `N`.
#[test]
fn groups_grow_while_the_worker_is_busy() {
    const N: u64 = 40;
    let gate = Arc::new(Gate::new());
    let service = gated_service(&gate);
    let (tx, rx) = mpsc::channel();
    let stage = |staging: &mut Staging<Reply>, i: u64| {
        let tx = tx.clone();
        let operands = Operands::add(
            UBig::from_u128(i as u128, 64),
            UBig::from_u128(i as u128 * 3, 64),
        )
        .expect("valid operands");
        let reply: Reply = Box::new(move |result| {
            let _ = tx.send((i, result));
        });
        staging
            .stage(&service, "gated", operands, reply)
            .expect("gated request");
    };
    std::thread::scope(|scope| {
        let mut first = Staging::default();
        stage(&mut first, 0);
        let busy = scope.spawn(move || first.run());
        gate.await_parked(1);
        let mut backlog = Staging::default();
        for i in 1..=N {
            stage(&mut backlog, i);
        }
        assert_eq!(backlog.len(), N as usize);
        gate.open();
        busy.join().expect("the busy thread");
        backlog.run();
    });
    drop(tx);
    let mut answered = vec![false; N as usize + 1];
    for (i, result) in rx.iter() {
        assert_eq!(result.sum.to_u128(), Some(i as u128 * 4), "request {i}");
        assert!(!answered[i as usize], "request {i} answered twice");
        answered[i as usize] = true;
    }
    assert!(answered.iter().all(|a| *a), "every request answered");
    let stats = service.stats();
    let gated = stats.engine("gated").expect("gated ran");
    assert_eq!(
        (gated.groups, gated.lanes),
        (2, N + 1),
        "the backlog ran as one group: {:?}",
        stats.engines
    );
    service.shutdown();
}

/// Collects text replies, one entry per line.
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
    fn send_frame(&self, _: &[u8]) {
        unreachable!("the connection stays text");
    }
}

/// A command sees every request before it on its connection: a session
/// stages a read's `ADD`s until the read is consumed, but a `STATS` in the
/// same read runs and answers them first, so all their `OK`s precede its
/// line and it counts every one of their lanes.
#[test]
fn a_stats_counts_the_adds_before_it_in_the_same_read() {
    const K: usize = 12;
    let service = Service::start(ServeConfig::default());
    let sink = Arc::new(Lines(Mutex::new(Vec::new())));
    let mut session = ByteSession::new(Arc::clone(&sink));
    let mut read = String::new();
    for i in 1..=K {
        read.push_str(&format!("ADD {i} vlcsa1 64 {i:x} 1\n"));
    }
    read.push_str("STATS\n");
    session.feed(read.as_bytes(), &service);
    let lines = sink.0.lock().expect("test sink lock").clone();
    assert_eq!(lines.len(), K + 1, "{lines:?}");
    for (i, line) in lines[..K].iter().enumerate() {
        let want = format!("OK {} {:x} 0 ", i + 1, i + 2);
        assert!(line.starts_with(&want), "{line} should start {want}");
    }
    let Ok(Response::Stats(stats)) = parse_response(&lines[K], 1) else {
        panic!("unparseable STATS line: {}", lines[K]);
    };
    assert_eq!(
        stats.engine("vlcsa1").map(|e| e.lanes),
        Some(K as u64),
        "the STATS missed requests before it: {}",
        lines[K]
    );
    service.shutdown();
}

/// A text sink whose `OK` writes park on `gate` until the test opens it:
/// a client that has stopped reading, as its connection's thread sees it.
struct StalledWriter {
    gate: Arc<Gate>,
    lines: Lines,
}

impl ResponseSink for StalledWriter {
    fn send(&self, response: &Response) {
        self.lines.send(response);
    }

    fn send_oks(&self, oks: &OkBatch<'_>, buf: &mut Vec<u8>) {
        self.gate.park();
        self.lines.send_oks(oks, buf);
    }
}

impl FrameSink for StalledWriter {
    fn send_frame(&self, _: &[u8]) {
        unreachable!("the connection stays text");
    }
}

/// Waits, bounded, until `sink` holds `n` lines; returns how many it got.
fn await_lines(sink: &Lines, n: usize, bound: Duration) -> usize {
    let deadline = Instant::now() + bound;
    loop {
        let got = sink.0.lock().expect("test sink lock").len();
        if got >= n || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Connection isolation on one lane: session A's thread is held inside
/// its `OK` write, as a client that stops reading holds it, while session
/// B's 64 `ADD`s on the same `(vlcsa1, 64)` lane are all answered — each
/// session writes only its own replies, so nothing B needs waits on A.
/// Then A is released and answered exactly once. The wait for B is
/// bounded, so a runtime whose replies to B waited behind A's write fails
/// here instead of hanging.
#[test]
fn a_connection_held_in_its_write_does_not_delay_another_on_its_lane() {
    const BURST: usize = 64;
    let gate = Arc::new(Gate::new());
    let service = Service::start(ServeConfig::default());
    let held = Arc::new(StalledWriter {
        gate: Arc::clone(&gate),
        lines: Lines(Mutex::new(Vec::new())),
    });
    let other = Arc::new(Lines(Mutex::new(Vec::new())));
    let answered = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            ByteSession::new(Arc::clone(&held)).feed(b"ADD 0 vlcsa1 64 29 1\n", &service);
        });
        gate.await_parked(1);
        let mut b = ByteSession::new(Arc::clone(&other));
        let read: String = (0..BURST)
            .map(|i| format!("ADD {i} vlcsa1 64 {i:x} {:x}\n", 5 * i))
            .collect();
        b.feed(read.as_bytes(), &service);
        let answered = await_lines(&other, BURST, Duration::from_secs(5));
        gate.open();
        a.join().expect("session A's thread");
        answered
    });
    assert_eq!(answered, BURST, "B waited behind A's held write");
    let lines = other.0.lock().expect("test sink lock").clone();
    for (i, line) in lines.iter().enumerate() {
        let want = format!("OK {i} {:x} 0 ", 6 * i);
        assert!(line.starts_with(&want), "{line} should start {want}");
    }
    let held_lines = held.lines.0.lock().expect("test sink lock").clone();
    assert_eq!(
        held_lines.len(),
        1,
        "A answered exactly once: {held_lines:?}"
    );
    assert!(held_lines[0].starts_with("OK 0 2a 0 "), "{held_lines:?}");
    service.shutdown();
}

/// Connection isolation across lanes: session A's read is parked inside
/// the gated engine, on A's own thread, while session B's burst through
/// two other lanes completes. Then A is released and answered exactly
/// once, with the exact sum.
#[test]
fn a_read_parked_in_a_stalled_engine_does_not_delay_another_connection() {
    const BURST: usize = 64;
    let gate = Arc::new(Gate::new());
    let service = gated_service(&gate);
    let held = Arc::new(Lines(Mutex::new(Vec::new())));
    let other = Arc::new(Lines(Mutex::new(Vec::new())));
    let (answered, stats) = std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            ByteSession::new(Arc::clone(&held)).feed(b"ADD 0 gated 64 29 1\n", &service);
        });
        gate.await_parked(1);
        let mut b = ByteSession::new(Arc::clone(&other));
        let read: String = (0..BURST)
            .map(|i| {
                let engine = if i % 2 == 0 { "vlcsa1" } else { "carry-select" };
                format!("ADD {i} {engine} 64 {i:x} {:x}\n", 5 * i)
            })
            .collect();
        b.feed(read.as_bytes(), &service);
        let answered = await_lines(&other, BURST, Duration::from_secs(5));
        let stats = service.stats();
        gate.open();
        a.join().expect("session A's thread");
        (answered, stats)
    });
    assert_eq!(answered, BURST, "B waited behind A's stalled engine");
    assert!(
        stats.engine("gated").is_none(),
        "the gated group completed early: {:?}",
        stats.engines
    );
    let mut lines = other.0.lock().expect("test sink lock").clone();
    lines.sort_by_key(|l| l.split(' ').nth(1).and_then(|s| s.parse::<usize>().ok()));
    for (i, line) in lines.iter().enumerate() {
        let want = format!("OK {i} {:x} 0 ", 6 * i);
        assert!(line.starts_with(&want), "{line} should start {want}");
    }
    assert_eq!(
        *held.0.lock().expect("test sink lock"),
        ["OK 0 2a 0 1"],
        "A answered exactly once"
    );
    service.shutdown();
}
