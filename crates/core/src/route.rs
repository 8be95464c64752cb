//! Adaptive engine routing: the `auto` pseudo-engine's decision core.
//!
//! Every serve request so far had to name a concrete engine, freezing the
//! paper's variable-latency/throughput tradeoff at request time. This
//! module makes it a runtime decision: a [`Router`] keeps one
//! exponentially-weighted moving average (EWMA) of cycles/op and stall
//! rate per `(engine, width)` pair, fed by the per-group lane/stall
//! counts a [`BatchOutcome`](crate::batch::BatchOutcome) /
//! [`WideOutcome`](crate::exec::WideOutcome) already accounts, plus a
//! sliding window of observed service latencies per pair from which a
//! p99 derives. [`Router::route`] answers "which engine should the next
//! `auto` group at this width run on":
//!
//! 1. **Explore** — while any candidate at the width has fewer than
//!    [`RouteConfig::min_batches`] observed batches, route to the first
//!    such candidate (in candidate order), so every family gets a
//!    baseline estimate before the router commits.
//! 2. **Exploit** — route to the candidate with the lowest EWMA
//!    cycles/op (eq. 5.2's accept-rate-driven average latency, measured
//!    instead of modeled). Ties keep the earlier candidate, so decisions
//!    are deterministic.
//! 3. **Degrade** — if an SLO budget is set and the winner is a
//!    variable-latency family whose tracked p99 exceeds the budget, fall
//!    back to the best fixed-latency candidate instead (the synchronous
//!    adders never stall, so their latency is the predictable floor).
//!    Latency samples expire after [`RouteConfig::sample_ttl_micros`],
//!    so a degraded family whose storm has passed loses its stale p99
//!    and becomes routable again — recovery needs no manual reset.
//!
//! Determinism is the design center: the router never reads wall-clock
//! time or randomness itself. Time comes from an injected [`Clock`]
//! ([`MonotonicClock`] in production, [`ManualClock`] in tests) and every
//! statistic comes from explicit [`Router::record`] calls, so a test can
//! script a stall storm and assert the exact batch at which routing
//! flips — see `tests/routing.rs`.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vlcsa::route::{Candidate, FixedCandidates, ManualClock, RouteConfig, Router};
//!
//! let clock = Arc::new(ManualClock::new());
//! let candidates = FixedCandidates::new(vec![
//!     Candidate::variable("speculative"),
//!     Candidate::fixed("synchronous"),
//! ]);
//! let router = Router::with_sources(RouteConfig::default(), clock, Arc::new(candidates));
//! // Exploration first: each candidate gets observed.
//! for _ in 0..2 * RouteConfig::default().min_batches {
//!     let decision = router.route(64).expect("two candidates");
//!     let stalls = if decision.engine == "speculative" { 2 } else { 0 };
//!     router.record(&decision.engine, 64, 256, stalls, 100);
//! }
//! // `speculative` stalls 2/256 ≈ 1.008 cycles/op but that still beats
//! // nothing: the fixed candidate's exact 1.0 wins the exploit phase.
//! assert_eq!(router.route(64).expect("two candidates").engine, "synchronous");
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::engine::Registry;

/// The engine name clients use to delegate the choice to the router.
/// Not a [`Registry`] name: front-ends resolve it per issue group via
/// [`Router::route`] before the group reaches an executor.
pub const AUTO_ENGINE: &str = "auto";

/// The router's time source. Only used to timestamp latency samples (so
/// stale ones expire) — routing itself never reads the clock directly,
/// which is what makes decisions replayable under [`ManualClock`].
pub trait Clock: Send + Sync {
    /// Microseconds since an arbitrary fixed origin, monotone.
    fn now_micros(&self) -> u64;
}

/// Production clock: microseconds since the clock's construction.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Starts the clock at zero, now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_micros(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// Test clock: advances only when told to, so sample expiry (and with it
/// SLO recovery) happens at scripted instants instead of wall time.
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// Starts the clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward.
    pub fn advance(&self, micros: u64) {
        self.micros.fetch_add(micros, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::SeqCst)
    }
}

/// One engine the router may choose at a width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The engine's display name (a [`Registry`] name in production).
    pub name: String,
    /// Whether the family can stall (2-cycle recovery path). SLO
    /// degradation only ever falls back to `false` candidates.
    pub variable_latency: bool,
}

impl Candidate {
    /// A fixed-latency candidate (never stalls).
    pub fn fixed(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            variable_latency: false,
        }
    }

    /// A variable-latency candidate (1-or-2-cycle).
    pub fn variable(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            variable_latency: true,
        }
    }
}

/// Where the router learns which engines exist at a width. Injected so
/// tests can script a candidate universe (e.g. an all-variable one) that
/// the real registry would never produce.
pub trait CandidateSource: Send + Sync {
    /// The candidates at `width`, in preference order (ties in the
    /// routing score keep the earlier candidate).
    fn candidates(&self, width: usize) -> Vec<Candidate>;
}

/// The production source: every [`Registry`] family at the width, in the
/// registry's table order, with each engine's own latency class.
#[derive(Debug, Default)]
pub struct RegistryCandidates;

impl CandidateSource for RegistryCandidates {
    fn candidates(&self, width: usize) -> Vec<Candidate> {
        Registry::for_width(width)
            .engines()
            .iter()
            .map(|e| Candidate {
                name: e.name().to_string(),
                variable_latency: e.variable_latency(),
            })
            .collect()
    }
}

/// A scripted source: the same candidate list at every width.
#[derive(Debug, Clone)]
pub struct FixedCandidates {
    list: Vec<Candidate>,
}

impl FixedCandidates {
    /// Wraps a candidate list.
    pub fn new(list: Vec<Candidate>) -> Self {
        Self { list }
    }
}

impl CandidateSource for FixedCandidates {
    fn candidates(&self, _width: usize) -> Vec<Candidate> {
        self.list.clone()
    }
}

/// Tuning knobs of the router.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteConfig {
    /// EWMA weight of the newest batch, in `(0, 1]`. Higher reacts to a
    /// stall storm in fewer batches; lower smooths noise.
    pub alpha: f64,
    /// Batches each candidate must serve before the router exploits.
    pub min_batches: u64,
    /// The p99 latency budget in microseconds; `None` disables SLO
    /// degradation entirely.
    pub slo_micros: Option<u64>,
    /// Latency samples kept per `(engine, width)` for the p99.
    pub p99_window: usize,
    /// Samples older than this fall out of the p99 — the SLO recovery
    /// horizon.
    pub sample_ttl_micros: u64,
}

impl Default for RouteConfig {
    /// A reactive default: a storm dominates the EWMA within ~5 batches
    /// (`alpha` 0.3), three exploration batches per family, no SLO until
    /// one is configured, 64-sample p99 windows expiring after 2 s.
    fn default() -> Self {
        Self {
            alpha: 0.3,
            min_batches: 3,
            slo_micros: None,
            p99_window: 64,
            sample_ttl_micros: 2_000_000,
        }
    }
}

/// One routing decision, as [`Router::route`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The concrete engine to run the group on.
    pub engine: String,
    /// True when the SLO forced a fixed-latency fallback over the
    /// best-scoring (variable-latency) candidate.
    pub degraded: bool,
}

/// A read-only snapshot of one `(engine, width)` estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateSnapshot {
    /// EWMA cycles per lane (≥ 1.0; exactly 1.0 for a family that has
    /// never stalled).
    pub cycles_per_op: f64,
    /// EWMA fraction of lanes that took the 2-cycle recovery path.
    pub stall_rate: f64,
    /// Batches observed so far.
    pub batches: u64,
    /// The 99th-percentile service latency over the live sample window,
    /// `None` when every sample has expired (or none was ever recorded).
    pub p99_micros: Option<u64>,
}

/// The last decision the router took at one width — what a `STATS`
/// snapshot reports as the width's current route.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteStat {
    /// The width the decision was for.
    pub width: usize,
    /// The engine the last `auto` group at this width ran on.
    pub engine: String,
    /// Whether that decision was an SLO degradation.
    pub degraded: bool,
}

/// One `(engine, width)` pair's live estimate.
struct Estimate {
    cycles_per_op: f64,
    stall_rate: f64,
    batches: u64,
    /// `(recorded_at_micros, service_micros)`, oldest first.
    samples: VecDeque<(u64, u64)>,
}

impl Estimate {
    fn new() -> Self {
        Self {
            cycles_per_op: 0.0,
            stall_rate: 0.0,
            batches: 0,
            samples: VecDeque::new(),
        }
    }

    fn observe(&mut self, config: &RouteConfig, lanes: u64, stalls: u64, micros: u64, now: u64) {
        if lanes == 0 {
            return;
        }
        let cycles = (lanes + stalls) as f64 / lanes as f64;
        let stall = stalls as f64 / lanes as f64;
        if self.batches == 0 {
            // Seed with the first batch instead of decaying up from zero,
            // so one exploration batch already yields a usable estimate.
            self.cycles_per_op = cycles;
            self.stall_rate = stall;
        } else {
            self.cycles_per_op = config.alpha * cycles + (1.0 - config.alpha) * self.cycles_per_op;
            self.stall_rate = config.alpha * stall + (1.0 - config.alpha) * self.stall_rate;
        }
        self.batches += 1;
        self.samples.push_back((now, micros));
        while self.samples.len() > config.p99_window {
            self.samples.pop_front();
        }
    }

    fn expire(&mut self, config: &RouteConfig, now: u64) {
        let horizon = now.saturating_sub(config.sample_ttl_micros);
        while matches!(self.samples.front(), Some(&(at, _)) if at < horizon) {
            self.samples.pop_front();
        }
    }

    /// Nearest-rank p99 over the live samples.
    fn p99(&self) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut latencies: Vec<u64> = self.samples.iter().map(|&(_, micros)| micros).collect();
        latencies.sort_unstable();
        let rank = (latencies.len() * 99).div_ceil(100).max(1);
        Some(latencies[rank - 1])
    }
}

/// Per-width routing state: the candidate list (resolved once per width)
/// and one estimate per candidate, same index.
struct WidthState {
    candidates: Vec<Candidate>,
    estimates: Vec<Estimate>,
    last: Option<Decision>,
}

struct RouterState {
    widths: Vec<(usize, WidthState)>,
}

impl RouterState {
    fn width_state(
        &mut self,
        width: usize,
        source: &dyn CandidateSource,
    ) -> Option<&mut WidthState> {
        if let Some(i) = self.widths.iter().position(|(w, _)| *w == width) {
            return Some(&mut self.widths[i].1);
        }
        let candidates = source.candidates(width);
        if candidates.is_empty() {
            return None;
        }
        let estimates = candidates.iter().map(|_| Estimate::new()).collect();
        self.widths.push((
            width,
            WidthState {
                candidates,
                estimates,
                last: None,
            },
        ));
        Some(&mut self.widths.last_mut().expect("just pushed").1)
    }
}

/// The adaptive router — see the module docs for the decision procedure.
pub struct Router {
    config: RouteConfig,
    slo_micros: Mutex<Option<u64>>,
    clock: Arc<dyn Clock>,
    source: Arc<dyn CandidateSource>,
    state: Mutex<RouterState>,
}

impl Router {
    /// The production router: wall-clock time, registry candidates.
    pub fn new(config: RouteConfig) -> Self {
        Self::with_sources(
            config,
            Arc::new(MonotonicClock::new()),
            Arc::new(RegistryCandidates),
        )
    }

    /// A router over injected time and candidate seams — the deterministic
    /// constructor the routing test harness scripts against.
    ///
    /// # Panics
    ///
    /// Panics if `config.alpha` is outside `(0, 1]` or `p99_window` is 0.
    pub fn with_sources(
        config: RouteConfig,
        clock: Arc<dyn Clock>,
        source: Arc<dyn CandidateSource>,
    ) -> Self {
        assert!(
            config.alpha > 0.0 && config.alpha <= 1.0,
            "EWMA alpha must be in (0, 1]"
        );
        assert!(config.p99_window >= 1, "the p99 needs at least one sample");
        Self {
            slo_micros: Mutex::new(config.slo_micros),
            config,
            clock,
            source,
            state: Mutex::new(RouterState { widths: Vec::new() }),
        }
    }

    /// The current SLO budget (`None` = no budget, never degrade).
    pub fn slo(&self) -> Option<u64> {
        *self.slo_micros.lock().expect("router slo lock")
    }

    /// Replaces the SLO budget; takes effect on the next [`Router::route`].
    pub fn set_slo(&self, micros: Option<u64>) {
        *self.slo_micros.lock().expect("router slo lock") = micros;
    }

    /// The router's clock, in microseconds: the time base of its sample
    /// expiry. A caller that times the latency it passes to
    /// [`Router::record`] on this clock stays deterministic under an
    /// injected [`ManualClock`].
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// Feeds one completed batch's statistics into the `(engine, width)`
    /// estimate: `lanes`/`stalls` as a [`BatchOutcome`](crate::batch::BatchOutcome)
    /// counts them, `micros` the batch's observed service latency.
    /// Statistics for an engine the candidate source does not list at
    /// `width` are ignored.
    pub fn record(&self, engine: &str, width: usize, lanes: u64, stalls: u64, micros: u64) {
        let now = self.clock.now_micros();
        let mut state = self.state.lock().expect("router state lock");
        let Some(ws) = state.width_state(width, self.source.as_ref()) else {
            return;
        };
        if let Some(i) = ws.candidates.iter().position(|c| c.name == engine) {
            ws.estimates[i].observe(&self.config, lanes, stalls, micros, now);
        }
    }

    /// Decides which engine the next `auto` group at `width` should run
    /// on — explore, exploit, or degrade (module docs). Returns `None`
    /// only when the candidate source lists nothing at the width.
    pub fn route(&self, width: usize) -> Option<Decision> {
        let slo = self.slo();
        let now = self.clock.now_micros();
        let mut state = self.state.lock().expect("router state lock");
        let ws = state.width_state(width, self.source.as_ref())?;
        for e in &mut ws.estimates {
            e.expire(&self.config, now);
        }

        let decision = if let Some(i) = ws
            .estimates
            .iter()
            .position(|e| e.batches < self.config.min_batches)
        {
            Decision {
                engine: ws.candidates[i].name.clone(),
                degraded: false,
            }
        } else {
            let best = lowest_score(ws, |_| true).expect("candidate list is non-empty");
            let breached = slo.is_some_and(|budget| {
                ws.candidates[best].variable_latency
                    && ws.estimates[best].p99().is_some_and(|p99| p99 > budget)
            });
            match lowest_score(ws, |i| !ws.candidates[i].variable_latency) {
                Some(fallback) if breached => Decision {
                    engine: ws.candidates[fallback].name.clone(),
                    degraded: true,
                },
                // A breach with no fixed-latency candidate to fall back
                // to keeps the best variable one: degrading to nothing
                // would be an outage, not a mitigation.
                _ => Decision {
                    engine: ws.candidates[best].name.clone(),
                    degraded: false,
                },
            }
        };
        ws.last = Some(decision.clone());
        Some(decision)
    }

    /// The estimate snapshot of one `(engine, width)` pair, expiry
    /// applied — `None` when the pair is unknown to the router.
    pub fn estimate(&self, engine: &str, width: usize) -> Option<EstimateSnapshot> {
        let now = self.clock.now_micros();
        let mut state = self.state.lock().expect("router state lock");
        let ws = state.width_state(width, self.source.as_ref())?;
        let i = ws.candidates.iter().position(|c| c.name == engine)?;
        ws.estimates[i].expire(&self.config, now);
        let e = &ws.estimates[i];
        Some(EstimateSnapshot {
            cycles_per_op: e.cycles_per_op,
            stall_rate: e.stall_rate,
            batches: e.batches,
            p99_micros: e.p99(),
        })
    }

    /// The last decision per width, ascending by width — the `STATS`
    /// surface. Widths the router has never decided for are absent.
    pub fn routes(&self) -> Vec<RouteStat> {
        let state = self.state.lock().expect("router state lock");
        let mut routes: Vec<RouteStat> = state
            .widths
            .iter()
            .filter_map(|(width, ws)| {
                ws.last.as_ref().map(|d| RouteStat {
                    width: *width,
                    engine: d.engine.clone(),
                    degraded: d.degraded,
                })
            })
            .collect();
        routes.sort_by_key(|r| r.width);
        routes
    }
}

/// The index of the lowest-EWMA-cycles/op candidate among those `keep`
/// admits; strict `<` keeps the earliest on ties.
fn lowest_score(ws: &WidthState, keep: impl Fn(usize) -> bool) -> Option<usize> {
    let mut best: Option<usize> = None;
    for i in 0..ws.candidates.len() {
        if !keep(i) {
            continue;
        }
        match best {
            Some(b) if ws.estimates[i].cycles_per_op >= ws.estimates[b].cycles_per_op => {}
            _ => best = Some(i),
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scripted(list: Vec<Candidate>) -> (Arc<ManualClock>, Router) {
        let clock = Arc::new(ManualClock::new());
        let router = Router::with_sources(
            RouteConfig::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::new(FixedCandidates::new(list)),
        );
        (clock, router)
    }

    #[test]
    fn exploration_visits_every_candidate_in_order() {
        let (_clock, router) = scripted(vec![
            Candidate::fixed("a"),
            Candidate::variable("b"),
            Candidate::fixed("c"),
        ]);
        let min = RouteConfig::default().min_batches;
        let mut visits = vec![0u64; 3];
        for _ in 0..3 * min {
            let d = router.route(32).unwrap();
            let i = ["a", "b", "c"].iter().position(|n| *n == d.engine).unwrap();
            visits[i] += 1;
            router.record(&d.engine, 32, 16, 0, 50);
        }
        assert_eq!(visits, vec![min; 3]);
    }

    #[test]
    fn exploit_picks_the_lowest_cycles_per_op() {
        let (_clock, router) = scripted(vec![
            Candidate::variable("slow"),
            Candidate::variable("fast"),
        ]);
        for _ in 0..8 {
            let d = router.route(64).unwrap();
            let stalls = if d.engine == "slow" { 64 } else { 2 };
            router.record(&d.engine, 64, 256, stalls, 100);
        }
        let d = router.route(64).unwrap();
        assert_eq!(d.engine, "fast");
        assert!(!d.degraded);
        let snap = router.estimate("fast", 64).unwrap();
        assert!(snap.cycles_per_op < 1.05, "{snap:?}");
        assert_eq!(
            router.routes(),
            vec![RouteStat {
                width: 64,
                engine: "fast".into(),
                degraded: false,
            }]
        );
    }

    #[test]
    fn ties_keep_the_earlier_candidate() {
        let (_clock, router) = scripted(vec![Candidate::fixed("x"), Candidate::fixed("y")]);
        for _ in 0..6 {
            let d = router.route(16).unwrap();
            router.record(&d.engine, 16, 8, 0, 10);
        }
        assert_eq!(router.route(16).unwrap().engine, "x");
    }

    #[test]
    fn slo_breach_degrades_and_ttl_expiry_recovers() {
        let (clock, router) = scripted(vec![
            Candidate::variable("speculative"),
            Candidate::fixed("synchronous"),
        ]);
        router.set_slo(Some(1_000));
        for _ in 0..6 {
            let d = router.route(64).unwrap();
            router.record(&d.engine, 64, 256, 0, 200);
        }
        // Both estimates tie at 1.0 cycles/op; the variable candidate is
        // earlier, wins the tie, and its p99 (200 µs) is within budget.
        assert_eq!(
            router.route(64).unwrap(),
            Decision {
                engine: "speculative".into(),
                degraded: false
            }
        );
        // A latency storm: p99 shoots past the budget.
        for _ in 0..4 {
            router.record("speculative", 64, 256, 0, 5_000);
        }
        assert_eq!(
            router.route(64).unwrap(),
            Decision {
                engine: "synchronous".into(),
                degraded: true
            }
        );
        // The storm samples expire after the TTL; the variable family is
        // routable again without any manual reset.
        clock.advance(RouteConfig::default().sample_ttl_micros + 1);
        assert_eq!(router.estimate("speculative", 64).unwrap().p99_micros, None);
        assert_eq!(
            router.route(64).unwrap(),
            Decision {
                engine: "speculative".into(),
                degraded: false
            }
        );
    }

    #[test]
    fn breach_without_a_fixed_fallback_keeps_the_best_variable() {
        let (_clock, router) = scripted(vec![
            Candidate::variable("only-a"),
            Candidate::variable("only-b"),
        ]);
        router.set_slo(Some(10));
        for _ in 0..6 {
            let d = router.route(8).unwrap();
            router.record(&d.engine, 8, 32, 0, 9_999);
        }
        let d = router.route(8).unwrap();
        assert!(!d.degraded);
        assert_eq!(d.engine, "only-a");
    }

    #[test]
    fn registry_candidates_match_the_registry() {
        let router = Router::new(RouteConfig::default());
        let d = router.route(48).unwrap();
        let registry = Registry::for_width(48);
        assert!(registry.names().contains(&d.engine.as_str()));
        // Unknown-engine records are ignored, not tracked.
        router.record("no-such", 48, 10, 0, 5);
        assert!(router.estimate("no-such", 48).is_none());
    }

    #[test]
    fn empty_candidate_source_routes_to_none() {
        let (_clock, router) = scripted(vec![]);
        assert!(router.route(64).is_none());
        router.record("ripple", 64, 1, 0, 1); // must not panic
        assert!(router.routes().is_empty());
    }
}
