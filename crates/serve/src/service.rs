//! The transport-independent service core: one lane per `(engine, width)`
//! pair, which runs that pair's issue groups on the thread that formed
//! them.
//!
//! Every request is validated first ([`Operands`]): width in range,
//! operands the same width; then its engine is resolved against the
//! width's [`Registry`], and `auto` to a concrete engine by the
//! [`Router`]. A bad request fails alone, with a structured error, and
//! every accepted one already knows which lane runs it. A lane registers
//! on first use.
//!
//! One type forms issue groups: a [`Staging`] stages requests in their
//! lanes' groups (at most `max_lanes` each) and runs them on the calling
//! thread. A wire connection's
//! [`ByteSession`](crate::session::ByteSession) stages a read's requests
//! and runs them once the read is consumed; [`Service::submit`] and the
//! rest stage one request and run it, so its reply fires before `submit`
//! returns; the C ABI stages a handle's tickets and runs them when a poll
//! needs one. No request waits in a queue, for a worker or for a window,
//! and the service starts no thread.
//!
//! A stalling or slow engine holds only the threads that run its groups:
//! the callers and connections that named it. Nobody else waits on it.
//! That is the paper's isolation argument carried into the serving layer —
//! variable-latency wins are only real if a rare slow completion cannot
//! delay the fast ones.
//!
//! [`Service::shutdown`] stops accepting requests: later ones fail with
//! [`SubmitError::Stopped`]. Every accepted request has been answered by
//! the thread that staged it.
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use bitnum::batch::{DefaultWord, Word};
use bitnum::UBig;
use vlcsa::engine::{EngineLookupError, Registry};
use vlcsa::exec::{Executor, WideOutcome};
use vlcsa::group::LaneBuilder;
use vlcsa::program::Program;
use vlcsa::route::{RouteConfig, Router, AUTO_ENGINE};

use crate::protocol::{EngineStats, LaneStats, StatsReport, OPERAND_RANGE, WIDTH_RANGE};
use crate::session::Staging;

/// Tuning knobs of the service core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Most requests one issue group carries: a lane's next request past
    /// it opens another group.
    pub max_lanes: usize,
    /// Tuning of the `auto` router — EWMA weight, exploration floor, p99
    /// window and the initial SLO budget — injected wholesale into the
    /// production [`Router`] by [`Service::start`], so embedders (the TCP
    /// server, the C ABI, tests) configure routing without constructing a
    /// router themselves.
    pub route: RouteConfig,
}

impl Default for ServeConfig {
    /// Up to 256 requests per issue group — one `W256` chunk — and default
    /// routing (no SLO until one is set).
    fn default() -> Self {
        Self {
            max_lanes: 256,
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

/// Why [`Service::submit`] rejected a request before staging it.
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
    /// A limb-form operand ([`Operands::limbs`]) has the wrong limb count
    /// for its width, or bits set at or above the width.
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

/// The reply callback an in-process request carries: called exactly once,
/// on the thread that runs its issue group, with the lane's result.
pub type Reply = Box<dyn FnOnce(AddResult) + Send>;

/// A validated request body in the one form every request reaches its
/// lane in: the two operands of one addition — a reduction's once it is
/// lowered to its carry-save pair — which a [`Staging`] stages in their
/// lane's issue group. The constructors are the validation every path
/// shares; a wire request's decoder has already made the same checks, so
/// on that path they cannot fail.
pub struct Operands {
    a: UBig,
    b: UBig,
}

impl Operands {
    /// One addition.
    ///
    /// # Errors
    ///
    /// [`SubmitError::WidthMismatch`] or [`SubmitError::BadWidth`].
    pub fn add(a: UBig, b: UBig) -> Result<Self, SubmitError> {
        if a.width() != b.width() {
            return Err(SubmitError::WidthMismatch(a.width(), b.width()));
        }
        if !WIDTH_RANGE.contains(&a.width()) {
            return Err(SubmitError::BadWidth(a.width()));
        }
        Ok(Self { a, b })
    }

    /// One addition whose operands are raw little-endian limb runs at
    /// `width` — the C ABI's form. The limbs are checked, then copied into
    /// the operands' values.
    ///
    /// # Errors
    ///
    /// [`SubmitError::BadWidth`], or [`SubmitError::BadLimbs`] when either
    /// operand is not exactly `width.div_ceil(64)` limbs or has bits set
    /// at or above `width`.
    pub fn limbs(width: usize, a: &[u64], b: &[u64]) -> Result<Self, SubmitError> {
        if !WIDTH_RANGE.contains(&width) {
            return Err(SubmitError::BadWidth(width));
        }
        let nl = width.div_ceil(64);
        for (name, limbs) in [("a", a), ("b", b)] {
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
        Self::add(UBig::from_limbs(a, width), UBig::from_limbs(b, width))
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
    pub fn program(program: &Program, inputs: &[UBig]) -> Result<Self, SubmitError> {
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
    pub fn sum(operands: &[UBig]) -> Result<Self, SubmitError> {
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

/// Live service counters behind the in-band `STATS` command: every group
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

/// One `(engine, width)` lane: the engine that runs its issue groups and
/// what a run records into.
pub(crate) struct Lane {
    /// The registry name of the lane's engine.
    engine: &'static str,
    width: usize,
    /// The width's registry, which holds the lane's engine at `index`.
    registry: Arc<Registry>,
    index: usize,
    max_lanes: usize,
    metrics: Arc<Metrics>,
    router: Arc<Router>,
}

impl Lane {
    /// An empty issue group of this lane.
    pub(crate) fn group<T>(&self) -> LaneBuilder<T> {
        LaneBuilder::new(self.engine, self.width)
    }

    /// Most requests one of the lane's issue groups carries.
    pub(crate) fn max_lanes(&self) -> usize {
        self.max_lanes
    }

    /// Runs one issue group — the requests pushed into `group` — on the
    /// lane's engine, on the calling thread, empties `group` for the next
    /// one, and adds the group's lanes and stalls to its engine's `STATS`
    /// totals before any of its replies can leave. Returns the outcome and
    /// the lanes' tags, in lane order. Once the group's replies are out,
    /// the caller reports them with [`Lane::answered`].
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty.
    pub(crate) fn run<T>(&self, group: &mut LaneBuilder<T>) -> (WideOutcome, Vec<T>) {
        let group = group.drain().expect("an issue group has at least one lane");
        let engine = &*self.registry.engines()[self.index];
        let out = Executor::new(1).run(engine, &group.a, &group.b);
        self.metrics
            .record_group(self.engine, out.lanes() as u64, out.stalls());
        (out, group.tags)
    }

    /// Feeds the router one group whose replies have all been handed to
    /// their sinks or callbacks. The latency sample runs from `oldest`,
    /// the group's first staged request's stamp on the router's clock,
    /// until now, so the SLO p99s cover what the group's slowest client
    /// saw: the wait while staged, the run and the replies. Every group
    /// feeds the router — named traffic too — so `auto` estimates warm up
    /// from whatever runs.
    pub(crate) fn answered(&self, out: &WideOutcome, oldest: u64) {
        self.router.record(
            self.engine,
            self.width,
            out.lanes() as u64,
            out.stalls(),
            self.router.now_micros().saturating_sub(oldest),
        );
    }
}

/// The running service core — see the module docs for the request path.
pub struct Service {
    /// Every registered lane, in registration order. The lock is held only
    /// to look up or create a lane and to snapshot stats.
    lanes: Mutex<Vec<Arc<Lane>>>,
    stopped: AtomicBool,
    registries: Arc<RegistryCache>,
    metrics: Arc<Metrics>,
    router: Arc<Router>,
    max_lanes: usize,
}

impl Service {
    /// Starts the service with a production router (wall-clock time,
    /// registry candidates, `config.route` as its tuning, including the
    /// initial SLO budget). Lanes register on demand as traffic names
    /// `(engine, width)` pairs. No thread is started.
    ///
    /// # Panics
    ///
    /// Panics if `max_lanes` is zero.
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
        Self {
            lanes: Mutex::new(Vec::new()),
            stopped: AtomicBool::new(false),
            registries,
            metrics: Arc::new(Metrics::new()),
            router,
            max_lanes: config.max_lanes,
        }
    }

    /// The lane that runs `engine` (a registry name, or `auto`) at
    /// `width`, registered on first use. `auto` asks the [`Router`] per
    /// request, with the current estimates, so consecutive `auto` requests
    /// can land on different lanes as estimates move; anything else must
    /// be a registry name at the width.
    pub(crate) fn lane(&self, engine: &str, width: usize) -> Result<Arc<Lane>, SubmitError> {
        if self.stopped() {
            return Err(SubmitError::Stopped);
        }
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
        let mut lanes = self.lanes.lock().expect("lane set lock");
        if let Some(lane) = lanes
            .iter()
            .find(|l| l.width == width && l.engine == engine)
        {
            return Ok(Arc::clone(lane));
        }
        let index = registry
            .engines()
            .iter()
            .position(|e| e.name() == engine)
            .expect("the engine was found by name");
        let lane = Arc::new(Lane {
            engine,
            width,
            registry,
            index,
            max_lanes: self.max_lanes,
            metrics: Arc::clone(&self.metrics),
            router: Arc::clone(&self.router),
        });
        lanes.push(Arc::clone(&lane));
        Ok(lane)
    }

    /// Whether the service has stopped accepting requests.
    pub(crate) fn stopped(&self) -> bool {
        self.stopped.load(Ordering::SeqCst)
    }

    /// Snapshots the live counters the in-band `STATS` command reports:
    /// the group bound, the slab word width, every registered lane, and
    /// per-engine served-lane/stall/group totals. Engine totals are exact
    /// — a group's lanes and stalls are recorded by the thread that ran
    /// it, before its replies leave.
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
        let lanes = self
            .lanes
            .lock()
            .expect("lane set lock")
            .iter()
            .map(|lane| LaneStats {
                engine: lane.engine.to_string(),
                width: lane.width,
            })
            .collect();
        StatsReport {
            max_lanes: self.max_lanes,
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

    /// Stages one validated request alone and runs it on the calling
    /// thread: the shared tail of every in-process submit path.
    fn submit_to(&self, engine: &str, operands: Operands, reply: Reply) -> Result<(), SubmitError> {
        let mut staging = Staging::default();
        staging.stage(self, engine, operands, reply)?;
        staging.run();
        Ok(())
    }

    /// Validates one addition and runs it as a one-request issue group on
    /// the calling thread: `reply` fires before `submit` returns. The
    /// engine may be `auto`: the request is then routed to a concrete
    /// engine's lane here, via the [`Router`].
    ///
    /// # Errors
    ///
    /// Rejects on unknown engine, bad width, mismatched operand widths, or
    /// a stopped service — the reply callback is dropped unfired in those
    /// cases, so transports answer errors inline.
    pub fn submit(&self, engine: &str, a: UBig, b: UBig, reply: Reply) -> Result<(), SubmitError> {
        self.submit_to(engine, Operands::add(a, b)?, reply)
    }

    /// Validates one addition whose operands are raw little-endian limb
    /// runs ([`Operands::limbs`]) and runs it as [`Service::submit`] does.
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
        self.submit_to(engine, Operands::limbs(width, &a, &b)?, reply)
    }

    /// Validates one whole reduction program and runs it as
    /// [`Service::submit`] runs an addition: the program's carry-save pair
    /// ([`Program::csa_pair_scalar`]) is computed here in the submitter —
    /// xor/majority word sweeps, no carry chains — and runs as a **single
    /// lane**, so the reply's `cycles` are its one carry-resolve's 1 or 2.
    /// The reply's `sum` is the exact wrapped program result; its `cout`
    /// is the final resolve's carry out.
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

    /// Validates and runs one n-operand sum — [`Service::submit_program`]
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

    /// One n-operand sum's result — the in-process equivalent of one `SUM`
    /// round trip.
    ///
    /// # Errors
    ///
    /// Fails on the conditions of [`Service::submit_sum`].
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

    /// One addition's result — the in-process equivalent of one `ADD`
    /// round trip.
    ///
    /// # Errors
    ///
    /// Fails on the conditions of [`Service::submit`].
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

    /// Stops accepting requests: later ones fail with
    /// [`SubmitError::Stopped`], and a connection whose staged requests
    /// find the service stopped answers them `ERR shutdown`. Idempotent.
    pub(crate) fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
    }

    /// Stops accepting requests and drops the service. The service started
    /// no thread, so nothing is joined: every accepted request was
    /// answered by the thread that staged it.
    pub fn shutdown(self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    use super::*;

    #[test]
    fn add_blocking_matches_scalar_reference() {
        let service = Service::start(ServeConfig::default());
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
        let service = Service::start(ServeConfig::default());
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
        let service = Service::start(ServeConfig::default());
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
        let service = Service::start(ServeConfig::default());
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
        let service = Service::start(ServeConfig::default());
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
        let out = rx.try_recv().expect("answered before submit returned");
        let reference = service.add_blocking("vlcsa1", a, b).unwrap();
        assert_eq!(out, reference);
        // Wrong limb count and stray high bits fail before staging.
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
        let service = Service::start(ServeConfig::default());
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
        // Each accepted request is answered before its submit returns, so
        // there is nothing left for shutdown to drain, and a submit after
        // it is refused.
        let service = Service::start(ServeConfig::default());
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
            assert_eq!(rx.try_recv().map(|(done, _)| done), Ok(i));
        }
        service.stop();
        let reply: Reply = Box::new(|_| panic!("reply must not fire after a stop"));
        assert_eq!(
            service.submit("vlcsa2", UBig::zero(64), UBig::zero(64), reply),
            Err(SubmitError::Stopped)
        );
        service.shutdown();
    }

    #[test]
    fn mixed_widths_and_engines_in_one_window() {
        let service = Service::start(ServeConfig {
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
        let answered: Vec<(u64, AddResult)> = rx.iter().collect();
        assert_eq!(answered.len(), 90);
        for (i, result) in answered {
            assert_eq!(result.sum.to_u128(), Some(i as u128 * 4), "request {i}");
        }
        // Three distinct shapes spun up three distinct lanes.
        let stats = service.stats();
        assert_eq!(stats.lanes.len(), 3, "{:?}", stats.lanes);
        for (engine, width) in shapes {
            assert!(stats.lane(engine, width).is_some(), "{engine}");
        }
        service.shutdown();
    }

    #[test]
    fn lanes_spin_up_on_demand_and_auto_resolves_to_a_concrete_lane() {
        let service = Service::start(ServeConfig::default());
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
        let service = Service::start(ServeConfig::default());
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
        // A submit runs its request at once. A 500 µs batching window
        // would make every lone round trip at least that long; half of it
        // is the bound.
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
    /// before its submit returns, and every refused one never.
    #[test]
    fn submits_racing_shutdown_are_answered_exactly_once_without_linger() {
        let service = Service::start(ServeConfig::default());
        let accepted = AtomicUsize::new(0);
        let requests = std::thread::scope(|scope| {
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
                                    assert_eq!(replies.load(Ordering::SeqCst), 1);
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
            service.stop();
            submitters
                .into_iter()
                .flat_map(|s| s.join().expect("submitter"))
                .collect::<Vec<(Arc<AtomicUsize>, bool)>>()
        });
        for (replies, ok) in &requests {
            assert_eq!(replies.load(Ordering::SeqCst), usize::from(*ok));
        }
        let refused = requests.iter().filter(|(_, ok)| !ok).count();
        assert_eq!(refused, 4, "each submitter stops at its first refusal");
        service.shutdown();
    }
}
