//! The transport-independent service core: one lane per `(engine, width)`
//! pair, which runs that pair's issue groups over the sharded executor.
//! A wire connection's session runs its own groups on its lanes; in-process
//! submits are queued for the lane's workers.
//!
//! Every request is validated first: width in range, operands the same
//! width, engine resolved against the width's [`Registry`], `auto`
//! resolved to a concrete engine by the [`Router`]. A bad request fails
//! alone, with a structured error, and every accepted one already knows
//! which lane runs it. A lane registers on first use. Then a request
//! reaches its lane one of two ways:
//!
//! 1. **A wire request** is staged by its connection's
//!    [`ByteSession`](crate::session::ByteSession) in its lane's issue
//!    group, and when the read is consumed the session runs the read's
//!    groups itself (`Lane::run`) and writes their replies: no queue, no
//!    hand-off, no worker.
//! 2. **An in-process submit** ([`Service::submit`] and the rest, the C
//!    ABI's path) is pushed into the lane's bounded ingress queue; the
//!    lane's workers, started on its first queued submit, block until the
//!    ingress holds a job, take everything queued — up to `max_lanes` —
//!    under one lock, build it into one
//!    [`IssueGroup`](vlcsa::group::IssueGroup) with a [`LaneBuilder`], run
//!    it with the same `Lane::run`, and call each request's reply
//!    closure with its lane's sum, carry-out and cycle count — the
//!    lane→request mapping is the group's `tags` vector. Then the worker
//!    takes again.
//!
//! No queued request waits for a window to close. While every worker of a
//! lane is busy, requests pile up in its ingress, so groups grow with the
//! load and shrink to one request on an idle lane. A push wakes a worker
//! only when it makes the queue non-empty while a worker waits. The opt-in
//! linger ([`ServeConfig::max_wait`]) trades latency for larger groups: a
//! worker that took fewer than `max_lanes` keeps taking until it has
//! `max_lanes` or `max_wait` has passed since its first job, and a lane
//! has at most one open linger window at a time.
//!
//! A stalling or slow engine holds only the threads that run its groups:
//! its own lane's workers, and the connections whose reads named it.
//! Other lanes' workers and other connections never wait on it. That is
//! the paper's isolation argument carried into the serving layer —
//! variable-latency wins are only real if a rare slow completion cannot
//! delay the fast ones.
//!
//! [`Service::shutdown`] closes every lane's ingress, lets the workers
//! drain everything already accepted — an open linger ends at once — and
//! joins them: accepted requests are answered, late submissions fail with
//! [`SubmitError::Stopped`].
//!
//! # Example
//!
//! ```
//! use bitnum::UBig;
//! use vlcsa_serve::service::{Service, ServeConfig};
//!
//! let service = Service::start(ServeConfig::default());
//! let result = service
//!     .add_blocking("vlcsa1", UBig::from_u128(40, 64), UBig::from_u128(2, 64))
//!     .unwrap();
//! assert_eq!(result.sum.to_u128(), Some(42));
//! assert!(result.cycles == 1 || result.cycles == 2);
//! service.shutdown();
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bitnum::batch::{DefaultWord, Word};
use bitnum::UBig;
use vlcsa::engine::{EngineLookupError, Registry};
use vlcsa::exec::{Executor, WideOutcome};
use vlcsa::group::LaneBuilder;
use vlcsa::program::Program;
use vlcsa::route::{RouteConfig, Router, AUTO_ENGINE};

use crate::protocol::{EngineStats, LaneStats, StatsReport, OPERAND_RANGE, WIDTH_RANGE};
use crate::queue::Queue;

/// Tuning knobs of the service core. Each knob applies **per lane** (a
/// lane is one `(engine, width)` pair traffic has named): lanes are fully
/// independent, so their queues and worker pools are too. `queue_depth`,
/// `max_wait` and `workers` govern queued in-process submits only; a wire
/// connection runs its reads' groups itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Bound of each lane's ingress queue (backpressure depth), which
    /// holds queued in-process submits.
    pub queue_depth: usize,
    /// Most requests one issue group carries, on both paths.
    pub max_lanes: usize,
    /// Opt-in linger cap for queued submits, zero by default: a worker
    /// that took fewer than `max_lanes` requests keeps taking until it has
    /// `max_lanes` or this long has passed since its first one. At zero a
    /// worker runs whatever was queued when it looked. Wire requests never
    /// linger.
    pub max_wait: Duration,
    /// Worker threads forming and running each lane's issue groups from
    /// queued submits, started on the lane's first queued submit.
    pub workers: usize,
    /// Threads of the per-group [`Executor`].
    pub exec_threads: usize,
    /// Tuning of the `auto` router — EWMA weight, exploration floor, p99
    /// window and the initial SLO budget — injected wholesale into the
    /// production [`Router`] by [`Service::start`], so embedders (the TCP
    /// server, the C ABI, tests) configure routing without constructing a
    /// router themselves.
    pub route: RouteConfig,
}

impl Default for ServeConfig {
    /// Small-host defaults: up to 256 requests per issue group, no
    /// linger, two workers per lane, serial executor, default routing (no
    /// SLO until one is set).
    fn default() -> Self {
        Self {
            queue_depth: 1024,
            max_lanes: 256,
            max_wait: Duration::ZERO,
            workers: 2,
            exec_threads: 1,
            route: RouteConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Sets the initial p99 budget (micros) of the `auto` router; `None`
    /// disables SLO degradation until an `SLO <micros>` command (or
    /// [`Service::set_slo`]) sets one.
    pub fn with_slo(mut self, micros: Option<u64>) -> Self {
        self.route.slo_micros = micros;
        self
    }
}

/// One lane's answer: the exact sum plus the engine's latency accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddResult {
    /// The exact sum, at the request's width.
    pub sum: UBig,
    /// Carry out of the most significant bit.
    pub cout: bool,
    /// Cycles the lane consumed: 1, or 2 after a recovery stall.
    pub cycles: u8,
}

/// Why [`Service::submit`] rejected a request before queueing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No engine of that name — carries the full known-name list.
    UnknownEngine(EngineLookupError),
    /// The two operands disagree on width.
    WidthMismatch(usize, usize),
    /// The width is outside [`WIDTH_RANGE`].
    BadWidth(usize),
    /// A reduction's operand count is outside [`OPERAND_RANGE`], or does
    /// not match its program's input count.
    BadOperandCount(usize),
    /// A limb-form operand ([`Service::submit_limbs`]) has the wrong limb
    /// count for its width, or bits set at or above the width.
    BadLimbs(String),
    /// The service is shutting down.
    Stopped,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownEngine(e) => e.fmt(f),
            SubmitError::WidthMismatch(a, b) => {
                write!(f, "operand widths disagree: {a} vs {b}")
            }
            SubmitError::BadWidth(w) => write!(
                f,
                "width {w} outside {}..={}",
                WIDTH_RANGE.start(),
                WIDTH_RANGE.end()
            ),
            SubmitError::BadOperandCount(n) => write!(
                f,
                "operand count {n} outside {}..={} or not the program's input count",
                OPERAND_RANGE.start(),
                OPERAND_RANGE.end()
            ),
            SubmitError::BadLimbs(detail) => f.write_str(detail),
            SubmitError::Stopped => f.write_str("service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The reply callback a queued request carries through the pipeline:
/// called exactly once, from a worker thread, with the lane's result.
pub type Reply = Box<dyn FnOnce(AddResult) + Send>;

/// A validated request body in the one form every request reaches its
/// lane in: the two operands of one addition — a reduction's once it is
/// lowered to its carry-save pair — which join their issue group with
/// [`Operands::push_into`]. The constructors are the validation every
/// submit path shares; a wire request's decoder has already made the same
/// checks, so on that path they cannot fail.
pub(crate) struct Operands {
    a: UBig,
    b: UBig,
}

impl Operands {
    /// One addition.
    ///
    /// # Errors
    ///
    /// [`SubmitError::WidthMismatch`] or [`SubmitError::BadWidth`].
    pub(crate) fn add(a: UBig, b: UBig) -> Result<Self, SubmitError> {
        if a.width() != b.width() {
            return Err(SubmitError::WidthMismatch(a.width(), b.width()));
        }
        if !WIDTH_RANGE.contains(&a.width()) {
            return Err(SubmitError::BadWidth(a.width()));
        }
        Ok(Self { a, b })
    }

    /// One whole program, lowered here — in the submitter — to its
    /// carry-save pair ([`Program::csa_pair_scalar`]): xor/majority word
    /// sweeps, no carry chains, one lane.
    ///
    /// # Errors
    ///
    /// [`SubmitError::BadOperandCount`] when `inputs` does not match the
    /// program's input count, [`SubmitError::WidthMismatch`] or
    /// [`SubmitError::BadWidth`].
    pub(crate) fn program(program: &Program, inputs: &[UBig]) -> Result<Self, SubmitError> {
        if inputs.len() != program.inputs() {
            return Err(SubmitError::BadOperandCount(inputs.len()));
        }
        let width = inputs[0].width();
        for i in &inputs[1..] {
            if i.width() != width {
                return Err(SubmitError::WidthMismatch(width, i.width()));
            }
        }
        if !WIDTH_RANGE.contains(&width) {
            return Err(SubmitError::BadWidth(width));
        }
        let (a, b) = program.csa_pair_scalar(inputs);
        Ok(Self { a, b })
    }

    /// One n-operand sum — [`Operands::program`] of the [`Program::sum`]
    /// shape.
    ///
    /// # Errors
    ///
    /// As [`Operands::program`]; [`SubmitError::BadOperandCount`] when the
    /// operand count is outside [`OPERAND_RANGE`].
    pub(crate) fn sum(operands: &[UBig]) -> Result<Self, SubmitError> {
        let program = Program::sum(operands.len())
            .map_err(|_| SubmitError::BadOperandCount(operands.len()))?;
        Self::program(&program, operands)
    }

    pub(crate) fn width(&self) -> usize {
        self.a.width()
    }

    /// Appends the operands to `group` as its next lane, tagged `tag`.
    pub(crate) fn push_into<T>(self, group: &mut LaneBuilder<T>, tag: T) {
        group.push(self.a, self.b, tag);
    }
}

/// A queued request in flight between a submitter and its lane's
/// workers. The engine and width are the lane's — resolved before
/// queueing — so the job carries only the operands, the reply and its
/// submit time on the router's clock.
struct Job {
    operands: Operands,
    reply: Reply,
    submitted: u64,
}

/// A lazily-built, shared cache of [`Registry`] instances, one per
/// requested width — so engine construction cost is paid once per width,
/// not once per request.
pub struct RegistryCache {
    map: Mutex<HashMap<usize, Arc<Registry>>>,
    factory: Box<dyn Fn(usize) -> Registry + Send + Sync>,
}

impl RegistryCache {
    /// Creates an empty cache over the production engine table
    /// ([`Registry::for_width`]).
    pub fn new() -> Self {
        Self::with_factory(Registry::for_width)
    }

    /// Creates an empty cache over a custom per-width registry factory —
    /// the seam the head-of-line isolation test and the serve bench use to
    /// register synthetic (gated or sleeping) engines alongside the
    /// production table, via [`Registry::from_engines`].
    pub fn with_factory(factory: impl Fn(usize) -> Registry + Send + Sync + 'static) -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
            factory: Box::new(factory),
        }
    }

    /// The registry at `width`, built on first use.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside [`WIDTH_RANGE`] (callers validate
    /// first).
    pub fn at(&self, width: usize) -> Arc<Registry> {
        let mut map = self.map.lock().expect("registry cache lock");
        Arc::clone(
            map.entry(width)
                .or_insert_with(|| Arc::new((self.factory)(width))),
        )
    }
}

impl Default for RegistryCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Live service counters behind the in-band `STATS` command. Queue depth
/// and window occupancy are per-lane gauges (see [`Lane`]); every group
/// run adds its lane and stall counts under the group's engine name here.
struct Metrics {
    /// Text-protocol requests answered (every non-empty line).
    proto_text: AtomicU64,
    /// Binary frames answered.
    proto_bin: AtomicU64,
    /// `(engine, lanes_served, lanes_stalled, groups_run)`, in
    /// first-served order.
    engines: Mutex<Vec<(String, u64, u64, u64)>>,
}

impl Metrics {
    fn new() -> Self {
        Self {
            proto_text: AtomicU64::new(0),
            proto_bin: AtomicU64::new(0),
            engines: Mutex::new(Vec::new()),
        }
    }

    fn record_group(&self, engine: &str, lanes: u64, stalls: u64) {
        let mut engines = self.engines.lock().expect("metrics lock");
        match engines.iter_mut().find(|(name, ..)| name == engine) {
            Some((_, total, stalled, groups)) => {
                *total += lanes;
                *stalled += stalls;
                *groups += 1;
            }
            None => engines.push((engine.to_string(), lanes, stalls, 1)),
        }
    }
}

/// One `(engine, width)` lane: the engine that runs its issue groups,
/// what a run records into, and the ingress queue of its queued submits.
/// Its workers are started on its first queued submit and owned by the
/// [`LaneSet`]'s join list.
pub(crate) struct Lane {
    /// The registry name of the lane's engine.
    engine: &'static str,
    width: usize,
    /// The width's registry, which holds the lane's engine at `index`.
    registry: Arc<Registry>,
    index: usize,
    config: ServeConfig,
    metrics: Arc<Metrics>,
    router: Arc<Router>,
    /// The bounded queue the lane's workers take their groups from.
    ingress: Queue<Job>,
    /// Requests workers have taken from `ingress` but not yet run,
    /// including those inside an open linger window.
    window_lanes: AtomicUsize,
    /// Held by the worker whose linger window is open, so that a lane has
    /// at most one. Untouched when `max_wait` is zero.
    window: Mutex<()>,
}

impl Lane {
    /// An empty issue group of this lane.
    pub(crate) fn group<T>(&self) -> LaneBuilder<T> {
        LaneBuilder::new(self.engine, self.width)
    }

    /// Most requests one of the lane's issue groups carries.
    pub(crate) fn max_lanes(&self) -> usize {
        self.config.max_lanes
    }

    /// Runs one issue group — the requests pushed into `group` — on the
    /// lane's engine, empties `group` for the next one, and adds the
    /// group's lanes and stalls to its engine's `STATS` totals before any
    /// of its replies can leave. Returns the outcome and the lanes' tags,
    /// in lane order. Lane workers and connection sessions run every
    /// group here; once the group's replies are out, the caller reports
    /// them with [`Lane::answered`].
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub(crate) fn run<T>(&self, group: &mut LaneBuilder<T>) -> (WideOutcome, Vec<T>) {
        let group = group.drain().expect("an issue group has at least one lane");
        let engine = &*self.registry.engines()[self.index];
        let out = Executor::new(self.config.exec_threads).run(engine, &group.a, &group.b);
        self.metrics
            .record_group(self.engine, out.lanes() as u64, out.stalls());
        (out, group.tags)
    }

    /// Feeds the router one group whose replies have all been handed to
    /// their sinks or callbacks. The latency sample runs from `oldest`,
    /// the group's oldest request's stamp on the router's clock, until
    /// now, so the SLO p99s cover what the group's slowest client saw:
    /// any ingress queue and linger, the run and the reply writes. Every
    /// group feeds the router — named traffic too — so `auto` estimates
    /// warm up from whatever runs.
    pub(crate) fn answered(&self, out: &WideOutcome, oldest: u64) {
        self.router.record(
            self.engine,
            self.width,
            out.lanes() as u64,
            out.stalls(),
            self.router.now_micros().saturating_sub(oldest),
        );
    }

    /// Takes the jobs of the lane's next issue group into `jobs`: blocks
    /// for the first, takes everything queued up to `max_lanes`, and with
    /// a non-zero `max_wait` keeps taking until it has `max_lanes` or
    /// `max_wait` has passed since the first take. Closing the ingress
    /// ends a linger at once. Returns `false` when the ingress is closed
    /// and drained.
    fn take_group(&self, jobs: &mut Vec<Job>) -> bool {
        let (max_lanes, linger) = (self.config.max_lanes, self.config.max_wait);
        let _window = (!linger.is_zero()).then(|| self.window.lock().expect("window lock"));
        if !self.ingress.take(jobs, max_lanes, None) {
            return false;
        }
        self.window_lanes.fetch_add(jobs.len(), Ordering::Relaxed);
        if !linger.is_zero() {
            let deadline = Instant::now() + linger;
            while jobs.len() < max_lanes {
                let taken = jobs.len();
                if !self.ingress.take(jobs, max_lanes, Some(deadline)) {
                    break;
                }
                self.window_lanes
                    .fetch_add(jobs.len() - taken, Ordering::Relaxed);
            }
        }
        true
    }

    /// One worker's life: form an issue group from the ingress, run it,
    /// call its replies, report it to the router, repeat until the
    /// ingress is closed and drained. The group's sums leave the slab
    /// layout once, into a buffer the worker reuses
    /// ([`WideSlab::lane_limbs_into`](bitnum::batch::WideSlab::lane_limbs_into)),
    /// and every reply's sum is read from there.
    fn work(&self) {
        let mut jobs = Vec::with_capacity(self.config.max_lanes);
        let mut group: LaneBuilder<Reply> = self.group();
        let mut sums = Vec::new();
        let nl = self.width.div_ceil(64);
        while self.take_group(&mut jobs) {
            self.window_lanes.fetch_sub(jobs.len(), Ordering::Relaxed);
            let oldest = jobs
                .drain(..)
                .map(|job| {
                    job.operands.push_into(&mut group, job.reply);
                    job.submitted
                })
                .min()
                .expect("a take moves at least one job");
            let (out, replies) = self.run(&mut group);
            out.sum.lane_limbs_into(&mut sums);
            for (lane, (reply, sum)) in replies.into_iter().zip(sums.chunks(nl)).enumerate() {
                reply(AddResult {
                    sum: UBig::from_limbs(sum, self.width),
                    cout: out.cout(lane),
                    cycles: out.cycles(lane),
                });
            }
            self.answered(&out, oldest);
        }
    }
}

/// Every registered lane, whether its workers have started, and the join
/// handles of those threads, behind one lock. The lock is held only to
/// look up / create a lane, to start its workers (once) and to snapshot
/// stats — never across a queue operation.
struct LaneSet {
    lanes: Vec<(Arc<Lane>, bool)>,
    threads: Vec<JoinHandle<()>>,
    closed: bool,
}

/// The running service core — see the module docs for the pipeline shape.
pub struct Service {
    lanes: Mutex<LaneSet>,
    registries: Arc<RegistryCache>,
    metrics: Arc<Metrics>,
    router: Arc<Router>,
    config: ServeConfig,
}

impl Service {
    /// Starts the service with a production router (wall-clock time,
    /// registry candidates, `config.route` as its tuning, including the
    /// initial SLO budget). Lanes register on demand as traffic names
    /// `(engine, width)` pairs, and start their workers on their first
    /// queued submit.
    ///
    /// # Panics
    ///
    /// Panics if any of `queue_depth`, `max_lanes`, `workers` or
    /// `exec_threads` is zero.
    pub fn start(config: ServeConfig) -> Self {
        Self::start_with_router(config, Arc::new(Router::new(config.route)))
    }

    /// Starts the service over an injected [`Router`] — the seam the
    /// routing tests use to script time and statistics deterministically.
    /// `config.route` is ignored here; the injected router's tuning and
    /// budget are authoritative.
    ///
    /// # Panics
    ///
    /// As [`Service::start`].
    pub fn start_with_router(config: ServeConfig, router: Arc<Router>) -> Self {
        Self::start_custom(config, router, Arc::new(RegistryCache::new()))
    }

    /// Starts the service over an injected router **and** registry cache —
    /// the full seam: [`RegistryCache::with_factory`] lets tests and
    /// benches add synthetic engines (an always-stall gate, a sleeper) to
    /// the table, and this constructor routes lanes through them.
    ///
    /// # Panics
    ///
    /// As [`Service::start`].
    pub fn start_custom(
        config: ServeConfig,
        router: Arc<Router>,
        registries: Arc<RegistryCache>,
    ) -> Self {
        assert!(config.max_lanes >= 1, "an issue group needs max_lanes >= 1");
        assert!(config.workers >= 1, "a lane needs at least one worker");
        Self {
            lanes: Mutex::new(LaneSet {
                lanes: Vec::new(),
                threads: Vec::new(),
                closed: false,
            }),
            registries,
            metrics: Arc::new(Metrics::new()),
            router,
            config,
        }
    }

    /// The lane that runs `engine` (a registry name, or `auto`) at
    /// `width`, registered on first use. `auto` asks the [`Router`] per
    /// request, with the current estimates, so consecutive `auto` requests
    /// can land on different lanes as estimates move; anything else must
    /// be a registry name at the width. With `queued` (an in-process
    /// submit), the lane's `config.workers` workers are started if they
    /// have not been, and their handles parked in the [`LaneSet`] for
    /// shutdown to join; a wire connection's session runs its groups
    /// itself and passes `false`.
    pub(crate) fn lane(
        &self,
        engine: &str,
        width: usize,
        queued: bool,
    ) -> Result<Arc<Lane>, SubmitError> {
        let registry = self.registries.at(width);
        let found = if engine == AUTO_ENGINE {
            let route = self
                .router
                .route(width)
                .expect("the registry lists engines at every valid width");
            registry.lookup(&route.engine)
        } else {
            registry.lookup(engine)
        };
        let engine = found.map_err(SubmitError::UnknownEngine)?.name();
        let mut set = self.lanes.lock().expect("lane set lock");
        if set.closed {
            return Err(SubmitError::Stopped);
        }
        let LaneSet { lanes, threads, .. } = &mut *set;
        let i = match lanes
            .iter()
            .position(|(l, _)| l.width == width && l.engine == engine)
        {
            Some(i) => i,
            None => {
                let index = registry
                    .engines()
                    .iter()
                    .position(|e| e.name() == engine)
                    .expect("the engine was found by name");
                let lane = Lane {
                    engine,
                    width,
                    registry,
                    index,
                    config: self.config,
                    metrics: Arc::clone(&self.metrics),
                    router: Arc::clone(&self.router),
                    ingress: Queue::new(self.config.queue_depth),
                    window_lanes: AtomicUsize::new(0),
                    window: Mutex::new(()),
                };
                lanes.push((Arc::new(lane), false));
                lanes.len() - 1
            }
        };
        let (lane, started) = &mut lanes[i];
        if queued && !*started {
            *started = true;
            for _ in 0..self.config.workers {
                let lane = Arc::clone(lane);
                threads.push(std::thread::spawn(move || lane.work()));
            }
        }
        Ok(Arc::clone(lane))
    }

    /// Whether the service has stopped accepting requests.
    pub(crate) fn stopped(&self) -> bool {
        self.lanes.lock().expect("lane set lock").closed
    }

    /// Snapshots the live counters the in-band `STATS` command reports:
    /// per-lane queue depth and window occupancy — queued requests a
    /// worker has taken but not yet run — (and their sums, the global
    /// `queue_depth`/`window_lanes`), the slab word width, and per-engine
    /// served-lane/stall totals.
    ///
    /// The snapshot is advisory, not transactional: the queue depths and
    /// window occupancies move while it is taken. Engine totals are exact —
    /// a group's lanes and stalls are recorded by the thread that ran it,
    /// before its replies leave.
    pub fn stats(&self) -> StatsReport {
        let engines = self
            .metrics
            .engines
            .lock()
            .expect("metrics lock")
            .iter()
            .map(|(name, lanes, stalls, groups)| EngineStats {
                name: name.clone(),
                lanes: *lanes,
                stalls: *stalls,
                groups: *groups,
            })
            .collect();
        let lanes: Vec<LaneStats> = self
            .lanes
            .lock()
            .expect("lane set lock")
            .lanes
            .iter()
            .map(|(lane, _)| LaneStats {
                engine: lane.engine.to_string(),
                width: lane.width,
                depth: lane.ingress.len(),
                occupancy: lane.window_lanes.load(Ordering::Relaxed),
            })
            .collect();
        StatsReport {
            queue_depth: lanes.iter().map(|l| l.depth).sum(),
            window_lanes: lanes.iter().map(|l| l.occupancy).sum(),
            max_lanes: self.config.max_lanes,
            word_bits: DefaultWord::LANES,
            slo_micros: self.router.slo(),
            proto_text: self.metrics.proto_text.load(Ordering::Relaxed),
            proto_bin: self.metrics.proto_bin.load(Ordering::Relaxed),
            lanes,
            engines,
            routes: self.router.routes(),
        }
    }

    /// Counts one answered text-protocol request. Connection handlers call
    /// this per non-empty line (malformed ones included — they are
    /// answered too); in-process submissions count as neither protocol.
    pub fn note_text_request(&self) {
        self.metrics.proto_text.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one answered binary frame; the `HELLO` upgrade line itself
    /// is neither text nor binary traffic.
    pub fn note_binary_request(&self) {
        self.metrics.proto_bin.fetch_add(1, Ordering::Relaxed);
    }

    /// The registry cache — the `ENGINES` command and validation share it.
    pub fn registries(&self) -> &Arc<RegistryCache> {
        &self.registries
    }

    /// The `auto` router — the `SLO` command and the routing tests share
    /// it.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// The current p99 budget of the `auto` router (`None` = off).
    pub fn slo(&self) -> Option<u64> {
        self.router.slo()
    }

    /// Replaces the p99 budget; affects the next routed `auto` request.
    pub fn set_slo(&self, micros: Option<u64>) {
        self.router.set_slo(micros);
    }

    /// Routes one validated request to its `(engine, width)` lane —
    /// registering it and starting its workers on first use — stamps it
    /// and queues it: the shared tail of every in-process submit path.
    fn submit_to(&self, engine: &str, operands: Operands, reply: Reply) -> Result<(), SubmitError> {
        let lane = self.lane(engine, operands.width(), true)?;
        let job = Job {
            operands,
            reply,
            submitted: self.router.now_micros(),
        };
        lane.ingress.push(job).map_err(|_| SubmitError::Stopped)
    }

    /// Validates and queues one addition; `reply` fires from a worker once
    /// the lane's issue group has run. Blocks while the lane's ingress
    /// queue is full (the service's backpressure). The engine may be
    /// `auto`: the request is then routed to a concrete engine's lane here,
    /// via the [`Router`].
    ///
    /// # Errors
    ///
    /// Rejects before queueing on unknown engine, bad width, mismatched
    /// operand widths, or a stopped service — the reply callback is
    /// dropped unfired in those cases, so transports answer errors inline.
    pub fn submit(&self, engine: &str, a: UBig, b: UBig, reply: Reply) -> Result<(), SubmitError> {
        self.submit_to(engine, Operands::add(a, b)?, reply)
    }

    /// Validates and queues one addition whose operands are raw
    /// little-endian limb runs — the C ABI's entry point. The limbs are
    /// checked here, then copied into the operands' values, and the
    /// request continues as [`Service::submit`]'s does.
    ///
    /// # Errors
    ///
    /// As [`Service::submit`], plus [`SubmitError::BadLimbs`] when either
    /// operand is not exactly `width.div_ceil(64)` limbs or has bits set
    /// at or above `width`.
    pub fn submit_limbs(
        &self,
        engine: &str,
        width: usize,
        a: Vec<u64>,
        b: Vec<u64>,
        reply: Reply,
    ) -> Result<(), SubmitError> {
        if !WIDTH_RANGE.contains(&width) {
            return Err(SubmitError::BadWidth(width));
        }
        let nl = width.div_ceil(64);
        for (name, limbs) in [("a", &a), ("b", &b)] {
            if limbs.len() != nl {
                return Err(SubmitError::BadLimbs(format!(
                    "operand {name} is {} limbs, width {width} needs {nl}",
                    limbs.len()
                )));
            }
            let used = width % 64;
            if used != 0 && limbs[nl - 1] >> used != 0 {
                return Err(SubmitError::BadLimbs(format!(
                    "operand {name} has bits set at or above width {width}"
                )));
            }
        }
        let (a, b) = (UBig::from_limbs(&a, width), UBig::from_limbs(&b, width));
        self.submit(engine, a, b, reply)
    }

    /// Validates and queues one whole reduction program: the program's
    /// carry-save pair ([`Program::csa_pair_scalar`]) is computed here in
    /// the submitter — xor/majority word sweeps, no carry chains — and
    /// queued as a **single lane**, so the program's one carry-resolve
    /// rides its lane's issue groups like any `ADD` and the reply's `cycles`
    /// are that resolve's 1 or 2. The reply's `sum` is the exact wrapped
    /// program result; its `cout` is the final resolve's carry out.
    ///
    /// # Errors
    ///
    /// As [`Service::submit`], plus [`SubmitError::BadOperandCount`] when
    /// `inputs` does not match the program's input count.
    pub fn submit_program(
        &self,
        engine: &str,
        program: &Program,
        inputs: &[UBig],
        reply: Reply,
    ) -> Result<(), SubmitError> {
        self.submit_to(engine, Operands::program(program, inputs)?, reply)
    }

    /// Validates and queues one n-operand sum — [`Service::submit_program`]
    /// with the [`Program::sum`] shape.
    ///
    /// # Errors
    ///
    /// As [`Service::submit_program`];
    /// [`SubmitError::BadOperandCount`] when the operand count is outside
    /// [`OPERAND_RANGE`].
    pub fn submit_sum(
        &self,
        engine: &str,
        operands: &[UBig],
        reply: Reply,
    ) -> Result<(), SubmitError> {
        self.submit_to(engine, Operands::sum(operands)?, reply)
    }

    /// Submits one n-operand sum and blocks until its group has run — the
    /// in-process equivalent of one `SUM` round trip.
    ///
    /// # Errors
    ///
    /// Fails on the conditions of [`Service::submit_sum`], or with
    /// [`SubmitError::Stopped`] if the service shuts down mid-flight.
    pub fn sum_blocking(&self, engine: &str, operands: &[UBig]) -> Result<AddResult, SubmitError> {
        let (tx, rx) = mpsc::channel();
        self.submit_sum(
            engine,
            operands,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        )?;
        rx.recv().map_err(|_| SubmitError::Stopped)
    }

    /// Submits one addition and blocks until its group has run — the
    /// in-process equivalent of one `ADD` round trip.
    ///
    /// # Errors
    ///
    /// Fails on the conditions of [`Service::submit`], or with
    /// [`SubmitError::Stopped`] if the service shuts down mid-flight.
    pub fn add_blocking(&self, engine: &str, a: UBig, b: UBig) -> Result<AddResult, SubmitError> {
        let (tx, rx) = mpsc::channel();
        self.submit(
            engine,
            a,
            b,
            Box::new(move |result| {
                let _ = tx.send(result);
            }),
        )?;
        rx.recv().map_err(|_| SubmitError::Stopped)
    }

    /// Closes every lane's ingress, lets the workers drain everything
    /// already accepted, and joins them — the shared body of
    /// [`Service::shutdown`] and `Drop`. Idempotent. Returns whether every
    /// worker exited cleanly.
    pub(crate) fn stop(&self) -> bool {
        let threads = {
            let mut set = self.lanes.lock().expect("lane set lock");
            set.closed = true;
            for (lane, _) in &set.lanes {
                lane.ingress.close();
            }
            std::mem::take(&mut set.threads)
        };
        let mut clean = true;
        for handle in threads {
            clean &= handle.join().is_ok();
        }
        clean
    }

    /// Stops accepting requests, answers everything already accepted, and
    /// joins every lane's workers.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked.
    pub fn shutdown(self) {
        assert!(self.stop(), "service thread panicked");
    }
}

impl Drop for Service {
    /// A dropped (not shut down) service still closes the lanes and joins,
    /// so no thread outlives the handle.
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> ServeConfig {
        ServeConfig {
            max_wait: Duration::from_millis(1),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn add_blocking_matches_scalar_reference() {
        let service = Service::start(fast_config());
        let registry = Registry::for_width(32);
        for (i, engine) in ["ripple", "carry-select", "vlcsa1", "vlcsa2"]
            .into_iter()
            .enumerate()
        {
            let a = UBig::from_u128(0x9000_0000 + i as u128, 32);
            let b = UBig::from_u128(0x7fff_ffff, 32);
            let out = service.add_blocking(engine, a.clone(), b.clone()).unwrap();
            let one = registry.get(engine).unwrap().add_one(&a, &b);
            assert_eq!(out.sum, one.sum, "{engine}");
            assert_eq!(out.cout, one.cout, "{engine}");
            assert_eq!(out.cycles, one.cycles, "{engine}");
        }
        service.shutdown();
    }

    #[test]
    fn submit_rejects_bad_requests_before_queueing() {
        let service = Service::start(fast_config());
        let reply: Reply = Box::new(|_| panic!("reply must not fire on rejection"));
        match service.submit("no-such", UBig::zero(8), UBig::zero(8), reply) {
            Err(SubmitError::UnknownEngine(e)) => {
                assert_eq!(e.requested, "no-such");
                assert!(e.known.contains(&"vlcsa1"));
            }
            other => panic!("{other:?}"),
        }
        let reply: Reply = Box::new(|_| panic!("reply must not fire on rejection"));
        assert_eq!(
            service
                .submit("ripple", UBig::zero(8), UBig::zero(16), reply)
                .err(),
            Some(SubmitError::WidthMismatch(8, 16))
        );
        service.shutdown();
    }

    #[test]
    fn sum_blocking_is_the_fold_and_one_lane() {
        let service = Service::start(fast_config());
        let operands: Vec<UBig> = (1..=8u128).map(|v| UBig::from_u128(v << 28, 32)).collect();
        let expect = operands[1..]
            .iter()
            .fold(operands[0].clone(), |acc, o| acc.wrapping_add(o));
        let out = service.sum_blocking("vlcsa1", &operands).unwrap();
        assert_eq!(out.sum, expect);
        assert!(out.cycles == 1 || out.cycles == 2);
        // The whole reduction was one lane of vlcsa1, not eight.
        let stats = service.stats();
        assert_eq!(stats.engine("vlcsa1").unwrap().lanes, 1);
        service.shutdown();
    }

    #[test]
    fn submit_program_validates_before_queueing() {
        let service = Service::start(fast_config());
        let program = Program::from_spec("i0+i1,t0+t0", 2).unwrap();
        let ops = [UBig::from_u128(3, 16), UBig::from_u128(4, 16)];
        let out = service
            .submit_program("carry-select", &program, &ops, Box::new(|_| {}))
            .is_ok();
        assert!(out);
        let reply: Reply = Box::new(|_| panic!("reply must not fire on rejection"));
        assert_eq!(
            service
                .submit_program("carry-select", &program, &ops[..1], reply)
                .err(),
            Some(SubmitError::BadOperandCount(1))
        );
        let reply: Reply = Box::new(|_| panic!("reply must not fire on rejection"));
        assert_eq!(
            service
                .submit_program(
                    "carry-select",
                    &program,
                    &[UBig::zero(16), UBig::zero(8)],
                    reply
                )
                .err(),
            Some(SubmitError::WidthMismatch(16, 8))
        );
        let reply: Reply = Box::new(|_| panic!("reply must not fire on rejection"));
        assert!(matches!(
            service.submit_sum("no-such", &ops, reply).err(),
            Some(SubmitError::UnknownEngine(_))
        ));
        service.shutdown();
    }

    #[test]
    fn submit_limbs_matches_submit_and_validates_in_place() {
        let service = Service::start(fast_config());
        let a = UBig::from_u128((1u128 << 100) - 3, 100);
        let b = UBig::from_u128(0xdead_beef_cafe, 100);
        let (tx, rx) = mpsc::channel();
        service
            .submit_limbs(
                "vlcsa1",
                100,
                a.limbs().to_vec(),
                b.limbs().to_vec(),
                Box::new(move |result| {
                    let _ = tx.send(result);
                }),
            )
            .unwrap();
        let out = rx.recv().unwrap();
        let reference = service.add_blocking("vlcsa1", a, b).unwrap();
        assert_eq!(out, reference);
        // Wrong limb count and stray high bits fail before queueing.
        let reply: Reply = Box::new(|_| panic!("reply must not fire on rejection"));
        assert!(matches!(
            service.submit_limbs("vlcsa1", 100, vec![1], vec![0, 0], reply),
            Err(SubmitError::BadLimbs(_))
        ));
        let reply: Reply = Box::new(|_| panic!("reply must not fire on rejection"));
        assert!(matches!(
            service.submit_limbs("vlcsa1", 100, vec![0, 1 << 36], vec![0, 0], reply),
            Err(SubmitError::BadLimbs(_))
        ));
        let reply: Reply = Box::new(|_| panic!("reply must not fire on rejection"));
        assert!(matches!(
            service.submit_limbs("no-such", 64, vec![1], vec![2], reply),
            Err(SubmitError::UnknownEngine(_))
        ));
        service.shutdown();
    }

    #[test]
    fn proto_counters_start_at_zero_and_count_notes() {
        let service = Service::start(fast_config());
        let stats = service.stats();
        assert_eq!((stats.proto_text, stats.proto_bin), (0, 0));
        service.note_text_request();
        service.note_text_request();
        service.note_binary_request();
        let stats = service.stats();
        assert_eq!((stats.proto_text, stats.proto_bin), (2, 1));
        service.shutdown();
    }

    #[test]
    fn shutdown_answers_accepted_requests() {
        let service = Service::start(ServeConfig {
            // A long window: shutdown must flush it early, not wait it out.
            max_wait: Duration::from_secs(30),
            ..ServeConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        for i in 0..10u64 {
            let tx = tx.clone();
            service
                .submit(
                    "vlcsa2",
                    UBig::from_u128(i as u128, 64),
                    UBig::from_u128(1, 64),
                    Box::new(move |result| {
                        let _ = tx.send((i, result));
                    }),
                )
                .unwrap();
        }
        let start = Instant::now();
        service.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "shutdown waited for the batching window instead of flushing"
        );
        let mut answered: Vec<(u64, AddResult)> = rx.try_iter().collect();
        answered.sort_by_key(|(i, _)| *i);
        assert_eq!(answered.len(), 10, "every accepted request is answered");
        for (i, result) in answered {
            assert_eq!(result.sum.to_u128(), Some(i as u128 + 1));
        }
    }

    #[test]
    fn mixed_widths_and_engines_in_one_window() {
        let service = Service::start(ServeConfig {
            max_wait: Duration::from_millis(20),
            max_lanes: 512,
            ..ServeConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let shapes = [("ripple", 16usize), ("vlcsa1", 64), ("kogge-stone", 100)];
        for i in 0..90u64 {
            let (engine, width) = shapes[i as usize % shapes.len()];
            let tx = tx.clone();
            service
                .submit(
                    engine,
                    UBig::from_u128(i as u128, width),
                    UBig::from_u128(i as u128 * 3, width),
                    Box::new(move |result| {
                        let _ = tx.send((i, result));
                    }),
                )
                .unwrap();
        }
        drop(tx);
        let mut seen = 0;
        while let Ok((i, result)) = rx.recv_timeout(Duration::from_secs(20)) {
            assert_eq!(result.sum.to_u128(), Some(i as u128 * 4), "request {i}");
            seen += 1;
            if seen == 90 {
                break;
            }
        }
        assert_eq!(seen, 90);
        // Three distinct shapes spun up three distinct lanes, each with
        // idle gauges once everything is answered.
        let stats = service.stats();
        assert_eq!(stats.lanes.len(), 3, "{:?}", stats.lanes);
        for (engine, width) in shapes {
            let lane = stats.lane(engine, width).expect(engine);
            assert_eq!((lane.depth, lane.occupancy), (0, 0), "{engine}");
        }
        service.shutdown();
    }

    #[test]
    fn lanes_spin_up_on_demand_and_auto_resolves_to_a_concrete_lane() {
        let service = Service::start(fast_config());
        assert!(
            service.stats().lanes.is_empty(),
            "idle service has no lanes"
        );
        service
            .add_blocking("ripple", UBig::from_u128(1, 32), UBig::from_u128(2, 32))
            .unwrap();
        let stats = service.stats();
        assert_eq!(stats.lanes.len(), 1);
        assert_eq!(stats.lanes[0].engine, "ripple");
        assert_eq!(stats.lanes[0].width, 32);
        // `auto` is resolved before lanes: no lane is ever named `auto`.
        service
            .add_blocking("auto", UBig::from_u128(3, 32), UBig::from_u128(4, 32))
            .unwrap();
        let stats = service.stats();
        assert!(
            stats.lanes.iter().all(|l| l.engine != AUTO_ENGINE),
            "{:?}",
            stats.lanes
        );
        // The routed request really ran: the route table names width 32.
        assert!(
            stats.routes.iter().any(|r| r.width == 32),
            "{:?}",
            stats.routes
        );
        service.shutdown();
    }

    #[test]
    fn same_engine_different_widths_are_different_lanes() {
        let service = Service::start(fast_config());
        for width in [16usize, 64, 100] {
            service
                .add_blocking(
                    "vlcsa1",
                    UBig::from_u128(5, width),
                    UBig::from_u128(6, width),
                )
                .unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.lanes.len(), 3, "{:?}", stats.lanes);
        for width in [16usize, 64, 100] {
            assert!(stats.lane("vlcsa1", width).is_some(), "width {width}");
        }
        // One engine counter accumulates across its width lanes.
        assert_eq!(stats.engine("vlcsa1").unwrap().lanes, 3);
        service.shutdown();
    }

    #[test]
    fn a_lone_request_waits_out_no_window() {
        // By default a worker runs whatever it took at once. A 500 µs
        // batching window would make every lone round trip at least that
        // long; half of it is the bound.
        let service = Service::start(ServeConfig::default());
        let (a, b) = (UBig::from_u128(40, 8), UBig::from_u128(2, 8));
        let mut micros: Vec<u128> = (0..201)
            .map(|_| {
                let (a, b) = (a.clone(), b.clone());
                let start = Instant::now();
                let out = service.add_blocking("ripple", a, b).unwrap();
                let took = start.elapsed().as_micros();
                assert_eq!(out.sum.to_u128(), Some(42));
                took
            })
            .collect();
        micros.sort_unstable();
        assert!(micros[100] < 250, "median round trip {} µs", micros[100]);
        service.shutdown();
    }

    /// Several threads submit while [`Service::stop`] — the body of
    /// `shutdown` — runs: every accepted request is answered exactly once,
    /// every refused one never, and an open linger does not hold the stop
    /// up.
    fn submits_racing_shutdown_are_answered_exactly_once(max_wait: Duration) {
        let service = Service::start(ServeConfig {
            max_wait,
            ..ServeConfig::default()
        });
        let accepted = AtomicUsize::new(0);
        let (requests, stop_took) = std::thread::scope(|scope| {
            let submitters: Vec<_> = ["ripple", "vlcsa1", "vlcsa1", "carry-select"]
                .into_iter()
                .map(|engine| {
                    let (service, accepted) = (&service, &accepted);
                    scope.spawn(move || {
                        let mut requests = Vec::new();
                        for i in 0u128.. {
                            let replies = Arc::new(AtomicUsize::new(0));
                            let counter = Arc::clone(&replies);
                            let reply: Reply = Box::new(move |result| {
                                assert_eq!(result.sum.to_u128(), Some(i + 1));
                                counter.fetch_add(1, Ordering::SeqCst);
                            });
                            let (a, b) = (UBig::from_u128(i, 64), UBig::from_u128(1, 64));
                            match service.submit(engine, a, b, reply) {
                                Ok(()) => {
                                    accepted.fetch_add(1, Ordering::Relaxed);
                                    requests.push((replies, true));
                                }
                                Err(SubmitError::Stopped) => {
                                    requests.push((replies, false));
                                    break;
                                }
                                Err(other) => panic!("{other}"),
                            }
                        }
                        requests
                    })
                })
                .collect();
            while accepted.load(Ordering::Relaxed) < 1000 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let start = Instant::now();
            assert!(service.stop(), "a lane worker panicked");
            let stop_took = start.elapsed();
            let requests: Vec<(Arc<AtomicUsize>, bool)> = submitters
                .into_iter()
                .flat_map(|s| s.join().expect("submitter"))
                .collect();
            (requests, stop_took)
        });
        assert!(
            stop_took < Duration::from_secs(10),
            "shutdown waited out the linger: {stop_took:?}"
        );
        for (replies, ok) in &requests {
            assert_eq!(replies.load(Ordering::SeqCst), usize::from(*ok));
        }
        let refused = requests.iter().filter(|(_, ok)| !ok).count();
        assert_eq!(refused, 4, "each submitter stops at its first refusal");
        service.shutdown();
    }

    #[test]
    fn submits_racing_shutdown_are_answered_exactly_once_without_linger() {
        submits_racing_shutdown_are_answered_exactly_once(Duration::ZERO);
    }

    #[test]
    fn submits_racing_shutdown_are_answered_exactly_once_in_a_long_linger() {
        submits_racing_shutdown_are_answered_exactly_once(Duration::from_secs(30));
    }
}
