//! Batching-equivalence property: any interleaving of requests through the
//! service layer yields bit-identical sums, carry-outs and cycle counts to
//! calling `Executor::run` directly on the same operands.
//!
//! The service layer may split one client's stream across many issue
//! groups, run many engines' lanes side by side, and complete groups on
//! different threads in any order. None of that may change a single lane:
//! every per-request answer is a pure function of `(engine, a, b)`. The
//! reference below buckets the same requests per `(engine, width)` — in
//! submission order, as each lane's `LaneBuilder` receives them — and runs
//! each bucket through the executor in one shot; bucket sizes are
//! arbitrary, so partial (<64-lane) final chunks are exercised constantly.
//! Since the executor reference enters the slab layout through the same
//! transpose as the served path, every served sum and carry-out is also
//! checked against `UBig::overflowing_add`, which never touches a slab.

use std::collections::HashMap;
use std::sync::{mpsc, Mutex};
use std::time::Duration;

use bitnum::batch::{DefaultWord, WideSlab, Word};
use bitnum::rng::{RandomBits, Xoshiro256};
use bitnum::UBig;
use proptest::prelude::*;
use vlcsa::engine::Registry;
use vlcsa::exec::{Executor, WideOutcome};
use vlcsa::program::{Operand, Program};
use vlcsa_serve::protocol::format_response;
use vlcsa_serve::{
    binary, AddResult, Client, FrameSink, OkBatch, Operands, Reply, Response, ResponseSink,
    ServeConfig, Server, Service, Staging,
};

const ENGINES: [&str; 9] = [
    "ripple",
    "cla4",
    "carry-select",
    "carry-skip",
    "conditional-sum",
    "kogge-stone",
    "vlsa",
    "vlcsa1",
    "vlcsa2",
];
const WIDTHS: [usize; 3] = [24, 64, 100];

struct Req {
    engine: &'static str,
    a: UBig,
    b: UBig,
}

fn random_requests(seed: u64, count: usize) -> Vec<Req> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let engine = ENGINES[(rng.next_u64() % ENGINES.len() as u64) as usize];
            let width = WIDTHS[(rng.next_u64() % WIDTHS.len() as u64) as usize];
            Req {
                engine,
                a: UBig::random(width, &mut rng),
                b: UBig::random(width, &mut rng),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random request streams staged together, random group bounds (down
    /// to 1-lane groups, up to groups larger than a chunk): the service's
    /// per-request answers equal a direct per-bucket `Executor::run`.
    #[test]
    fn service_equals_direct_executor(
        (seed, count, max_lanes) in (any::<u64>(), 1usize..140, 1usize..97)
    ) {
        let requests = random_requests(seed, count);
        let service = Service::start(ServeConfig {
            max_lanes,
            route: vlcsa::route::RouteConfig::default(),
        });
        let (tx, rx) = mpsc::channel::<(usize, AddResult)>();
        let mut staging: Staging<Reply> = Staging::default();
        for (i, req) in requests.iter().enumerate() {
            let tx = tx.clone();
            let operands = Operands::add(req.a.clone(), req.b.clone()).expect("valid operands");
            let reply: Reply = Box::new(move |result| {
                let _ = tx.send((i, result));
            });
            staging
                .stage(&service, req.engine, operands, reply)
                .expect("valid request");
        }
        staging.run();
        let mut answers: Vec<Option<AddResult>> = vec![None; requests.len()];
        for _ in 0..requests.len() {
            let (i, result) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("every request is answered");
            prop_assert!(answers[i].is_none(), "request {} answered twice", i);
            answers[i] = Some(result);
        }
        service.shutdown();

        // Reference: bucket identically (per engine+width, submission
        // order), one direct executor run per bucket.
        let mut buckets: Vec<((&'static str, usize), Vec<usize>)> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            let key = (req.engine, req.a.width());
            match buckets.iter_mut().find(|(k, _)| *k == key) {
                Some((_, idxs)) => idxs.push(i),
                None => buckets.push((key, vec![i])),
            }
        }
        let mut registries: HashMap<usize, Registry> = HashMap::new();
        let executor = Executor::new(2);
        for ((engine, width), idxs) in buckets {
            let registry = registries
                .entry(width)
                .or_insert_with(|| Registry::for_width(width));
            let engine = registry.lookup(engine).expect("known engine");
            let a: Vec<UBig> = idxs.iter().map(|&i| requests[i].a.clone()).collect();
            let b: Vec<UBig> = idxs.iter().map(|&i| requests[i].b.clone()).collect();
            let direct = executor.run(engine, &WideSlab::from_lanes(&a), &WideSlab::from_lanes(&b));
            for (lane, &i) in idxs.iter().enumerate() {
                let served = answers[i].as_ref().expect("answered above");
                let (sum, cout) = requests[i].a.overflowing_add(&requests[i].b);
                prop_assert_eq!(
                    &served.sum,
                    &sum,
                    "sum of request {} ({} w{})", i, engine.name(), width
                );
                prop_assert_eq!(served.cout, cout, "cout of request {}", i);
                prop_assert_eq!(
                    &served.sum,
                    &direct.sum.lane(lane),
                    "sum of request {} ({} w{})", i, engine.name(), width
                );
                prop_assert_eq!(served.cout, direct.cout(lane), "cout of request {}", i);
                prop_assert_eq!(served.cycles, direct.cycles(lane), "cycles of request {}", i);
            }
        }
    }

    /// Random server-submitted programs — random DAG shapes with reused
    /// temporaries, random engines and widths, interleaved with plain adds
    /// in shared batching windows — answer exactly the scalar fold
    /// evaluation, and each program's latency is its single carry-resolve
    /// (the scalar engine's cycles on the program's carry-save pair).
    #[test]
    fn served_programs_equal_scalar_fold(
        (seed, count, max_lanes) in (any::<u64>(), 1usize..50, 1usize..97)
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut programs: Vec<(&'static str, usize, Program, Vec<UBig>)> = Vec::new();
        for _ in 0..count {
            let engine = ENGINES[(rng.next_u64() % ENGINES.len() as u64) as usize];
            let width = WIDTHS[(rng.next_u64() % WIDTHS.len() as u64) as usize];
            let inputs = 1 + (rng.next_u64() % 8) as usize;
            let steps = (rng.next_u64() % 10) as usize;
            let mut program = Program::new(inputs).expect("valid input count");
            for s in 0..steps {
                let draw = |rng: &mut Xoshiro256| {
                    let pick = (rng.next_u64() % (inputs + s) as u64) as usize;
                    if pick < inputs {
                        Operand::Input(pick)
                    } else {
                        Operand::Temp(pick - inputs)
                    }
                };
                let (x, y) = (draw(&mut rng), draw(&mut rng));
                program.push(x, y).expect("operands in range");
            }
            let operands: Vec<UBig> =
                (0..inputs).map(|_| UBig::random(width, &mut rng)).collect();
            programs.push((engine, width, program, operands));
        }
        let service = Service::start(ServeConfig {
            max_lanes,
            route: vlcsa::route::RouteConfig::default(),
        });
        let (tx, rx) = mpsc::channel::<(usize, AddResult)>();
        for (i, (engine, _, program, operands)) in programs.iter().enumerate() {
            let tx = tx.clone();
            service
                .submit_program(
                    engine,
                    program,
                    operands,
                    Box::new(move |result| {
                        let _ = tx.send((i, result));
                    }),
                )
                .expect("valid program");
            // Interleave a plain add so windows mix both request kinds.
            if i % 3 == 0 {
                let width = programs[i].1;
                let a = UBig::random(width, &mut rng);
                let b = UBig::random(width, &mut rng);
                service
                    .submit(programs[i].0, a, b, Box::new(|_| {}))
                    .expect("valid add");
            }
        }
        let mut answers: Vec<Option<AddResult>> = vec![None; programs.len()];
        for _ in 0..programs.len() {
            let (i, result) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("every program is answered");
            prop_assert!(answers[i].is_none(), "program {} answered twice", i);
            answers[i] = Some(result);
        }
        service.shutdown();

        let mut registries: HashMap<usize, Registry> = HashMap::new();
        for (i, (engine, width, program, operands)) in programs.iter().enumerate() {
            let served = answers[i].as_ref().expect("answered above");
            prop_assert_eq!(
                &served.sum,
                &program.eval_scalar(operands),
                "program {} ({} w{}, spec `{}`)", i, engine, width, program.spec()
            );
            let registry = registries
                .entry(*width)
                .or_insert_with(|| Registry::for_width(*width));
            let (x, y) = program.csa_pair_scalar(operands);
            let resolve = registry.get(engine).expect("known engine").add_one(&x, &y);
            prop_assert_eq!(served.cycles, resolve.cycles, "cycles of program {}", i);
            prop_assert_eq!(served.cout, resolve.cout, "cout of program {}", i);
        }
    }

    /// Any interleaving served via `auto` is bit-identical to `add_one`
    /// regardless of which engine the router picked: every registry
    /// family computes exact addition, so the routing decision is
    /// unobservable in sums and carry-outs by construction (only the
    /// cycle count may differ, and it stays in the 1-or-2 envelope).
    /// Interleaves explicitly-named requests so `auto` groups and named
    /// groups share batching windows.
    #[test]
    fn auto_routing_is_bit_identical_to_add_one(
        (seed, count, max_lanes) in (any::<u64>(), 1usize..140, 1usize..97)
    ) {
        let requests = random_requests(seed, count);
        let service = Service::start(ServeConfig {
            max_lanes,
            route: vlcsa::route::RouteConfig::default(),
        });
        let (tx, rx) = mpsc::channel::<(usize, AddResult)>();
        for (i, req) in requests.iter().enumerate() {
            // Two of three requests delegate the engine choice; the rest
            // keep their concrete name, sharing the same windows.
            let engine = if i % 3 == 0 { req.engine } else { "auto" };
            let tx = tx.clone();
            service
                .submit(
                    engine,
                    req.a.clone(),
                    req.b.clone(),
                    Box::new(move |result| {
                        let _ = tx.send((i, result));
                    }),
                )
                .expect("valid request");
        }
        let mut answers: Vec<Option<AddResult>> = vec![None; requests.len()];
        for _ in 0..requests.len() {
            let (i, result) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("every request is answered");
            prop_assert!(answers[i].is_none(), "request {} answered twice", i);
            answers[i] = Some(result);
        }
        service.shutdown();

        let mut registries: HashMap<usize, Registry> = HashMap::new();
        for (i, req) in requests.iter().enumerate() {
            let served = answers[i].as_ref().expect("answered above");
            let width = req.a.width();
            let registry = registries
                .entry(width)
                .or_insert_with(|| Registry::for_width(width));
            // `add_one` of any engine is exact addition; use the named
            // engine as the reference regardless of what `auto` ran.
            let reference = registry
                .get(req.engine)
                .expect("known engine")
                .add_one(&req.a, &req.b);
            prop_assert_eq!(&served.sum, &reference.sum, "sum of request {} (w{})", i, width);
            prop_assert_eq!(served.cout, reference.cout, "cout of request {}", i);
            prop_assert!(
                served.cycles == 1 || served.cycles == 2,
                "cycles of request {} outside the 1-or-2 envelope: {}", i, served.cycles
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Wire-format interop: text and binary clients concurrently against
    /// one real TCP server, each client's encoding chosen at random (with
    /// both encodings always represented), mixed engines and widths
    /// including `auto` and multi-limb operands. Every answer — whichever
    /// framing carried it — is bit-identical to the scalar reference, so
    /// the limb ingress path and the hex path are observationally the
    /// same arithmetic.
    #[test]
    fn text_and_binary_clients_interop_bit_identically(
        (seed, count) in (any::<u64>(), 1usize..40)
    ) {
        let server = Server::start(
            "127.0.0.1:0",
            ServeConfig::default(),
        )
        .expect("bind loopback");
        let addr = server.local_addr();
        const CLIENTS: usize = 4;

        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut rng = Xoshiro256::seed_from_u64(seed ^ (0x9E3779B9 + c as u64));
                    // Clients 0 and 1 pin one encoding each so every case
                    // exercises both; the rest flip a coin.
                    let binary = match c {
                        0 => true,
                        1 => false,
                        _ => rng.next_u64() & 1 == 1,
                    };
                    let mut client = if binary {
                        Client::connect_binary(addr).expect("binary handshake")
                    } else {
                        Client::connect(addr).expect("text connect")
                    };
                    let mut expected = HashMap::new();
                    for _ in 0..count {
                        let engine = if rng.next_u64().is_multiple_of(3) {
                            "auto"
                        } else {
                            ENGINES[(rng.next_u64() % ENGINES.len() as u64) as usize]
                        };
                        let width = WIDTHS[(rng.next_u64() % WIDTHS.len() as u64) as usize];
                        let a = UBig::random(width, &mut rng);
                        let b = UBig::random(width, &mut rng);
                        let seq = client.submit(engine, &a, &b).expect("submit");
                        expected.insert(seq, (engine, a, b));
                    }
                    let mut registries: HashMap<usize, Registry> = HashMap::new();
                    for _ in 0..count {
                        let (seq, response) = client.recv().expect("recv");
                        let response =
                            response.unwrap_or_else(|e| panic!("seq {seq}: {e:?}"));
                        let (engine, a, b) = expected.remove(&seq).expect("known seq");
                        let width = a.width();
                        let registry = registries
                            .entry(width)
                            .or_insert_with(|| Registry::for_width(width));
                        // Every registry family computes exact addition, so
                        // `ripple` is a valid sum/cout reference even when
                        // `auto` delegated the choice.
                        let name = if engine == "auto" { "ripple" } else { engine };
                        let one = registry.get(name).expect("known engine").add_one(&a, &b);
                        let enc = if binary { "binary" } else { "text" };
                        assert_eq!(response.sum, one.sum, "{enc} client {c} seq {seq}");
                        assert_eq!(response.cout, one.cout, "{enc} client {c} seq {seq}");
                        if engine == "auto" {
                            assert!(
                                response.cycles == 1 || response.cycles == 2,
                                "{enc} client {c} seq {seq}: cycles {}",
                                response.cycles
                            );
                        } else {
                            assert_eq!(response.cycles, one.cycles, "{enc} client {c} seq {seq}");
                        }
                    }
                    client.close();
                })
            })
            .collect();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        server.shutdown();
    }
}

/// A sink that keeps only the provided one-answer-at-a-time batch
/// methods, concatenating what they send.
struct OneAtATime(Mutex<Vec<u8>>);

impl ResponseSink for OneAtATime {
    fn send(&self, response: &Response) {
        let mut out = self.0.lock().expect("sink lock");
        out.extend(format_response(response).into_bytes());
        out.push(b'\n');
    }
}

impl FrameSink for OneAtATime {
    fn send_frame(&self, frame: &[u8]) {
        self.0.lock().expect("sink lock").extend_from_slice(frame);
    }
}

/// The slab-direct `OK` encoders against the per-answer encoders over a
/// [`UBig`] sum, at every width from 1 to 300 bits (across the
/// 64/128/192/256 limb boundaries) and every lane of a full and a partial
/// chunk. A batch's text bytes must be `format_response` plus `\n` per
/// answer, its frame bytes `binary::encode_ok` per answer — and the
/// provided one-at-a-time sink methods must send the same bytes.
#[test]
fn slab_direct_ok_encoders_equal_per_answer_encodings() {
    let mut rng = Xoshiro256::seed_from_u64(0x5eed_0c0d);
    let lanes = DefaultWord::LANES + DefaultWord::LANES / 2 + 1;
    let chunks = lanes.div_ceil(DefaultWord::LANES);
    for width in 1..=300usize {
        let sums: Vec<UBig> = (0..lanes).map(|_| UBig::random(width, &mut rng)).collect();
        let mut words = || -> Vec<DefaultWord> {
            (0..chunks)
                .map(|_| {
                    let mut w = DefaultWord::ZERO;
                    for i in 0..DefaultWord::LIMBS {
                        w.set_limb(i, rng.next_u64());
                    }
                    w
                })
                .collect()
        };
        let out = WideOutcome {
            sum: WideSlab::from_lanes(&sums),
            cout: words(),
            flagged: words(),
        };
        // Sequence numbers of every magnitude, including the extremes.
        let mut answers: Vec<(u64, usize)> = (0..lanes)
            .map(|l| (rng.next_u64() >> (l % 64), l))
            .collect();
        answers[0].0 = 0;
        answers[lanes - 1].0 = u64::MAX;

        let (mut want_lines, mut want_frames) = (Vec::new(), Vec::new());
        for &(seq, l) in &answers {
            let (cout, cycles) = (out.cout(l), out.cycles(l));
            want_frames.extend(binary::encode_ok(seq, cout, cycles, sums[l].limbs()));
            let ok = Response::Ok {
                seq,
                sum: sums[l].clone(),
                cout,
                cycles,
            };
            want_lines.extend(format_response(&ok).into_bytes());
            want_lines.push(b'\n');
        }

        let mut sum_limbs = Vec::new();
        out.sum.lane_limbs_into(&mut sum_limbs);
        let oks = OkBatch::new(&out, &sum_limbs, &answers);
        let (mut lines, mut frames) = (Vec::new(), Vec::new());
        oks.encode_lines(&mut lines);
        oks.encode_frames(&mut frames);
        assert!(lines == want_lines, "text bytes differ at width {width}");
        assert!(frames == want_frames, "frame bytes differ at width {width}");

        let (text, framed) = (
            OneAtATime(Mutex::new(Vec::new())),
            OneAtATime(Mutex::new(Vec::new())),
        );
        let mut buf = Vec::new();
        text.send_oks(&oks, &mut buf);
        framed.send_ok_frames(&oks, &mut buf);
        assert!(
            *text.0.lock().expect("sink lock") == want_lines,
            "default text path differs at width {width}"
        );
        assert!(
            *framed.0.lock().expect("sink lock") == want_frames,
            "default frame path differs at width {width}"
        );
    }
}
