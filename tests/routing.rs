//! Deterministic harness for the adaptive `auto` router.
//!
//! Every test here drives [`vlcsa::route::Router`] through its injected
//! seams — a [`ManualClock`] for time and explicit `record` calls for
//! statistics — so routing decisions are a pure function of the script.
//! No test sleeps, reads wall-clock time in an assertion, or depends on
//! scheduler interleaving: the suite passes at every `--test-threads`
//! because each router is confined to its own test.
//!
//! The three pinned behaviors, per the roadmap contract:
//!
//! 1. `auto` converges to the lowest-cycles engine on a uniform operand
//!    stream (real engines, real `BatchOutcome` statistics);
//! 2. an injected stall storm on the chosen engine flips routing within a
//!    small, counted number of batches;
//! 3. an SLO breach forces a fixed-latency family, and recovery (sample
//!    expiry under the scripted clock) re-enables variable-latency ones.

use std::sync::Arc;

use bitnum::batch::WideSlab;
use bitnum::rng::Xoshiro256;
use bitnum::UBig;
use vlcsa::engine::Registry;
use vlcsa::exec::Executor;
use vlcsa::route::{Candidate, Clock, Decision, FixedCandidates, ManualClock, RouteConfig, Router};

const WIDTH: usize = 64;
const LANES: usize = 256;

/// A scripted router over an explicit candidate list, plus the clock that
/// steers its sample expiry.
fn scripted(list: Vec<Candidate>) -> (Arc<ManualClock>, Router) {
    let clock = Arc::new(ManualClock::new());
    let router = Router::with_sources(
        RouteConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::new(FixedCandidates::new(list)),
    );
    (clock, router)
}

/// Drives one serve-shaped step: route the width, run a real uniform
/// batch on the chosen engine, feed the outcome's lane/stall counts back.
/// Returns the decision.
fn drive_uniform_batch(
    router: &Router,
    registry: &Registry,
    executor: &Executor,
    rng: &mut Xoshiro256,
) -> Decision {
    let decision = router.route(WIDTH).expect("registry candidates");
    let engine = registry.lookup(&decision.engine).expect("routed name");
    let a: Vec<UBig> = (0..LANES).map(|_| UBig::random(WIDTH, rng)).collect();
    let b: Vec<UBig> = (0..LANES).map(|_| UBig::random(WIDTH, rng)).collect();
    let out = executor.run(engine, &WideSlab::from_lanes(&a), &WideSlab::from_lanes(&b));
    router.record(
        &decision.engine,
        WIDTH,
        out.lanes() as u64,
        out.stalls(),
        100, // a scripted constant — latency plays no role in this phase
    );
    decision
}

/// (a) On a uniform operand stream the router converges to the engine
/// with the lowest observed cycles/op. Uniform operands stall the
/// speculative families at their model rates and the synchronous families
/// never, so the winner is the first fixed-latency family in registry
/// order — and it stays the winner for every subsequent batch.
#[test]
fn auto_converges_to_the_lowest_cycles_engine_on_a_uniform_stream() {
    let clock = Arc::new(ManualClock::new());
    let router = Router::with_sources(
        RouteConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::new(vlcsa::route::RegistryCandidates),
    );
    let registry = Registry::for_width(WIDTH);
    let executor = Executor::new(1);
    let mut rng = Xoshiro256::seed_from_u64(0x5eed_0001);

    // Exploration: every family gets its minimum batches.
    let warmup = registry.names().len() * RouteConfig::default().min_batches as usize;
    for _ in 0..warmup {
        drive_uniform_batch(&router, &registry, &executor, &mut rng);
    }
    // Exploitation: the next 32 decisions are stable on one engine…
    let converged: Vec<Decision> = (0..32)
        .map(|_| drive_uniform_batch(&router, &registry, &executor, &mut rng))
        .collect();
    let winner = &converged[0];
    assert!(
        converged.iter().all(|d| d == winner),
        "routing did not stabilize: {converged:?}"
    );
    assert!(!winner.degraded, "no SLO is set, nothing may degrade");
    // …and that engine really is the lowest-cycles one: exactly 1.0
    // cycles/op (a fixed-latency family — uniform operands make every
    // speculative family stall at a non-zero rate), specifically the
    // first such family in registry order, which ties win.
    assert_eq!(winner.engine, "ripple");
    let snap = router.estimate("ripple", WIDTH).expect("observed engine");
    assert_eq!(snap.cycles_per_op, 1.0);
    assert_eq!(snap.stall_rate, 0.0);
    for speculative in ["vlsa", "vlcsa1", "vlcsa2"] {
        let snap = router.estimate(speculative, WIDTH).expect("explored");
        assert!(
            snap.cycles_per_op >= 1.0,
            "{speculative}: {}",
            snap.cycles_per_op
        );
    }
}

/// (b) A stall storm on the chosen engine flips routing within a small,
/// counted number of batches. All-variable candidate universe so the
/// storm target is the *winner*, not a family the router already avoids.
#[test]
fn a_stall_storm_on_the_chosen_engine_flips_routing_within_n_batches() {
    const FLIP_WITHIN: usize = 4;
    let (_clock, router) = scripted(vec![
        Candidate::variable("fast"),
        Candidate::variable("steady"),
    ]);
    // Converge: `fast` stalls 2/256 lanes (~1.008 cycles/op), `steady`
    // 26/256 (~1.1).
    for _ in 0..12 {
        let d = router.route(WIDTH).expect("candidates");
        let stalls = if d.engine == "fast" { 2 } else { 26 };
        router.record(&d.engine, WIDTH, LANES as u64, stalls, 100);
    }
    assert_eq!(router.route(WIDTH).unwrap().engine, "fast");

    // Storm: every lane of `fast` now takes the recovery path.
    let mut flipped_after = None;
    for batch in 0..FLIP_WITHIN {
        let d = router.route(WIDTH).expect("candidates");
        if d.engine == "steady" {
            flipped_after = Some(batch);
            break;
        }
        assert_eq!(d.engine, "fast");
        router.record("fast", WIDTH, LANES as u64, LANES as u64, 100);
    }
    // alpha 0.3: cycles/op(fast) after two storm batches is
    // 0.7²·1.008 + (0.3 + 0.7·0.3)·2.0 ≈ 1.51 > 1.1, so the flip lands
    // on the third decision at the latest.
    let flipped_after = flipped_after.expect("storm never flipped the route");
    assert!(
        flipped_after <= 3,
        "flip took {flipped_after} batches, budget {FLIP_WITHIN}"
    );
    // The flip is sticky while the storm's EWMA dominates.
    assert_eq!(router.route(WIDTH).unwrap().engine, "steady");
}

/// (c) An SLO breach forces a fixed-latency family; recovery — the
/// breaching samples aging out under the scripted clock — re-enables the
/// variable-latency winner without any manual reset.
#[test]
fn slo_breach_forces_a_fixed_family_and_recovery_reenables_variable() {
    let (clock, router) = scripted(vec![
        Candidate::variable("speculative"),
        Candidate::fixed("synchronous"),
    ]);
    router.set_slo(Some(1_000));

    // Warm both estimates up within budget; `speculative` wins the
    // cycles/op tie as the earlier candidate.
    for _ in 0..8 {
        let d = router.route(WIDTH).expect("candidates");
        router.record(&d.engine, WIDTH, LANES as u64, 0, 300);
    }
    let chosen = router.route(WIDTH).unwrap();
    assert_eq!(
        chosen,
        Decision {
            engine: "speculative".into(),
            degraded: false
        }
    );

    // Latency storm on the winner: p99 blows through the budget, and the
    // very next decision is the fixed family, flagged as degraded.
    for _ in 0..4 {
        router.record("speculative", WIDTH, LANES as u64, 0, 8_000);
    }
    let degraded = router.route(WIDTH).unwrap();
    assert_eq!(
        degraded,
        Decision {
            engine: "synchronous".into(),
            degraded: true
        }
    );
    // The degraded state is visible on the stats surface.
    let routes = router.routes();
    assert_eq!(routes.len(), 1);
    assert_eq!(routes[0].engine, "synchronous");
    assert!(routes[0].degraded);

    // While degraded, fixed-family traffic keeps flowing; the breaching
    // samples are untouched until they age out, so the degradation holds.
    router.record("synchronous", WIDTH, LANES as u64, 0, 300);
    assert!(router.route(WIDTH).unwrap().degraded);

    // Recovery: advance the scripted clock past the sample TTL. The
    // stale p99 evaporates and the variable family is routable again.
    clock.advance(RouteConfig::default().sample_ttl_micros + 1);
    assert_eq!(
        router.estimate("speculative", WIDTH).unwrap().p99_micros,
        None
    );
    let recovered = router.route(WIDTH).unwrap();
    assert_eq!(
        recovered,
        Decision {
            engine: "speculative".into(),
            degraded: false
        }
    );
}

/// Two routers fed the same script make the same decisions at every
/// step — the determinism contract the serve lanes and this whole
/// harness rely on.
#[test]
fn identical_scripts_produce_identical_decision_sequences() {
    let script: Vec<(u64, u64, u64)> = (0..64)
        .map(|i| {
            let stalls = if i % 7 == 0 { 40 } else { i % 3 };
            (LANES as u64, stalls, 50 + 10 * (i % 5))
        })
        .collect();
    let run = || -> Vec<Decision> {
        let (clock, router) = scripted(vec![
            Candidate::variable("a"),
            Candidate::fixed("b"),
            Candidate::variable("c"),
        ]);
        router.set_slo(Some(500));
        script
            .iter()
            .map(|&(lanes, stalls, micros)| {
                let d = router.route(WIDTH).expect("candidates");
                router.record(&d.engine, WIDTH, lanes, stalls, micros);
                clock.advance(75);
                d
            })
            .collect()
    };
    assert_eq!(run(), run());
}

/// The serve integration of the same seam: a `Service` started over an
/// injected router resolves `auto` groups through it, answers them
/// exactly, and surfaces the decision on the stats route list. No
/// assertion depends on *which* engine the router picked — only that the
/// pick is a real registry family and the arithmetic is exact.
#[test]
fn service_with_injected_router_resolves_auto_groups() {
    use vlcsa_serve::{ServeConfig, Service};

    let router = Arc::new(Router::with_sources(
        RouteConfig::default(),
        Arc::new(ManualClock::new()) as Arc<dyn Clock>,
        Arc::new(vlcsa::route::RegistryCandidates),
    ));
    let service = Service::start_with_router(ServeConfig::default(), Arc::clone(&router));
    for i in 0..20u128 {
        let out = service
            .add_blocking(
                "auto",
                UBig::from_u128(i << 32, WIDTH),
                UBig::from_u128(i, WIDTH),
            )
            .expect("auto is a valid engine name");
        assert_eq!(out.sum.to_u128(), Some((i << 32) + i));
        assert!(out.cycles == 1 || out.cycles == 2);
    }
    let stats = service.stats();
    let registry = Registry::for_width(WIDTH);
    let route = stats
        .routes
        .iter()
        .find(|r| r.width == WIDTH)
        .expect("auto traffic at width 64 leaves a route entry");
    assert!(
        registry.names().contains(&route.engine.as_str()),
        "routed to unknown engine {}",
        route.engine
    );
    assert!(!route.degraded, "no SLO is configured");
    assert_eq!(stats.slo_micros, None);
    service.shutdown();
}

/// The SLO p99 is what a client sees, timed from submit to reply: the
/// router's latency sample for an issue group runs from its first staged
/// request's stamp — on the router's own clock — until every reply of the
/// group has been handed over. A request that sat 5000 scripted µs staged
/// before its group ran is a 5000 µs sample, not the group's run time.
#[test]
fn router_p99_runs_from_the_oldest_submit_to_the_replies() {
    use vlcsa_serve::{Operands, Reply, ServeConfig, Service, Staging};

    let clock = Arc::new(ManualClock::new());
    let router = Arc::new(Router::with_sources(
        RouteConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::new(vlcsa::route::RegistryCandidates),
    ));
    let service = Service::start_with_router(ServeConfig::default(), Arc::clone(&router));
    let answered = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let mut staging: Staging<Reply> = Staging::default();
    let mut stage = |v: u128| {
        let operands = Operands::add(UBig::from_u128(v, WIDTH), UBig::from_u128(1, WIDTH))
            .expect("valid operands");
        let answered = Arc::clone(&answered);
        let reply: Reply = Box::new(move |result| {
            assert_eq!(result.sum.to_u128(), Some(v + 1));
            answered.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        staging
            .stage(&service, "ripple", operands, reply)
            .expect("valid request");
    };
    stage(1);
    clock.advance(5000);
    stage(2);
    staging.run();
    assert_eq!(answered.load(std::sync::atomic::Ordering::SeqCst), 2);
    let estimate = router.estimate("ripple", WIDTH).expect("registry family");
    assert_eq!(estimate.batches, 1, "the two requests ran as one group");
    assert_eq!(estimate.p99_micros, Some(5000));
    service.shutdown();
}

/// Long-haul soak (ignored by default; CI runs it via `-- --ignored`):
/// 50k scripted rounds with a stall storm rotating across an
/// all-variable candidate set. Every candidate receives background
/// (named) traffic each round — exactly what served groups feed the
/// router, and what keeps an abandoned family's estimate from going
/// stale at its storm-time high forever. Pins that the router
/// (1) always answers with a listed candidate, (2) abandons every storm
/// target within a few rounds of the storm landing, and (3) never lets
/// an estimate escape the [1, 2] cycles/op envelope.
#[test]
#[ignore = "soak: 50k scripted rounds, run explicitly or via CI's --ignored step"]
fn soak_rotating_storms_never_wedge_the_router() {
    let names = ["n0", "n1", "n2", "n3"];
    let (clock, router) = scripted(names.iter().map(|n| Candidate::variable(*n)).collect());
    let base = [1u64, 3, 5, 7]; // per-candidate baseline stalls per 256 lanes
    for round in 0..50_000u64 {
        // Every 1000 rounds the storm moves to the next candidate.
        let storm = ((round / 1000) % names.len() as u64) as usize;
        let d = router.route(WIDTH).expect("candidates");
        let i = names
            .iter()
            .position(|n| *n == d.engine)
            .expect("router answered with an unlisted candidate");
        // The storm is a property of the operand stream hitting its
        // target, routed there or not; background traffic reaches every
        // family each round, so all four estimates stay fresh.
        for (j, name) in names.iter().enumerate() {
            let stalls = if j == storm { LANES as u64 } else { base[j] };
            router.record(name, WIDTH, LANES as u64, stalls, 100);
        }
        clock.advance(50);
        // With fresh estimates everywhere, one storm batch (alpha 0.3)
        // already pushes the target past every baseline; a few rounds of
        // slack and the route must have moved off the storm.
        if round % 1000 >= 8 {
            assert_ne!(
                i, storm,
                "round {round}: still routing into the storm on {}",
                names[storm]
            );
        }
    }
    for name in names {
        let snap = router.estimate(name, WIDTH).expect("all explored");
        assert!(
            (1.0..=2.0).contains(&snap.cycles_per_op),
            "{name} escaped the envelope: {}",
            snap.cycles_per_op
        );
    }
}
