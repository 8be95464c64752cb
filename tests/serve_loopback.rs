//! Loopback end-to-end tests of the serve front-end: real TCP, concurrent
//! clients, mixed engines and widths, deterministic assertions against the
//! scalar reference, and VLCSA cycle accounting checked against the batch
//! outcome of the same operands.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bitnum::batch::{WideSlab, Word};
use bitnum::rng::{RandomBits, Xoshiro256};
use bitnum::UBig;
use vlcsa::engine::Registry;
use vlcsa::exec::Executor;
use vlcsa::program::Program;
use vlcsa_serve::{Client, ErrorCode, ServeConfig, Server};
use workloads::dist::{Distribution, OperandSource};

/// Joins the server within a wall-clock bound — the clean-shutdown
/// contract every test ends with.
fn shutdown_within(server: Server, bound: Duration) {
    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < bound,
        "server shutdown took {:?} (bound {:?})",
        start.elapsed(),
        bound
    );
}

#[test]
fn concurrent_clients_mixed_engines_bit_identical() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 60;
    let engines = ["ripple", "carry-select", "vlsa", "vlcsa1", "vlcsa2"];
    let widths = [16usize, 64, 100];

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut rng = Xoshiro256::seed_from_u64(0xC0FFEE + c as u64);
                let mut client = Client::connect(addr).unwrap();
                // Pipeline everything, then drain: completions may arrive
                // out of submission order across engines.
                let mut expected = std::collections::HashMap::new();
                for r in 0..REQUESTS {
                    let engine = engines[(c + r) % engines.len()];
                    let width = widths[(rng.next_u64() % 3) as usize];
                    let a = UBig::random(width, &mut rng);
                    let b = UBig::random(width, &mut rng);
                    let seq = client.submit(engine, &a, &b).unwrap();
                    expected.insert(seq, (engine, width, a, b));
                }
                let mut registries = std::collections::HashMap::new();
                for _ in 0..REQUESTS {
                    let (seq, response) = client.recv().unwrap();
                    let response = response.unwrap_or_else(|e| panic!("seq {seq}: {e:?}"));
                    let (engine, width, a, b) = expected.remove(&seq).expect("known seq");
                    let registry = registries
                        .entry(width)
                        .or_insert_with(|| Registry::for_width(width));
                    let one = registry.get(engine).unwrap().add_one(&a, &b);
                    assert_eq!(response.sum, one.sum, "client {c} seq {seq} {engine}");
                    assert_eq!(response.cout, one.cout, "client {c} seq {seq} {engine}");
                    assert_eq!(response.cycles, one.cycles, "client {c} seq {seq} {engine}");
                }
                assert!(expected.is_empty());
                client.close();
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn vlcsa_cycle_totals_match_batch_accounting() {
    // Per-response cycle counts summed over a request stream must equal
    // the `BatchOutcome`/`WideOutcome` accounting of the same operands —
    // the eq. 5.2 average-latency bookkeeping, visible through the server.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    const LANES: usize = 200;
    for engine in ["vlcsa1", "vlcsa2"] {
        let mut src = OperandSource::new(Distribution::paper_gaussian(), 64, 1234);
        let (a, b) = src.next_wide(LANES);
        let registry = Registry::for_width(64);
        let direct = Executor::new(1).run(registry.get(engine).unwrap(), &a, &b);

        let mut seqs = Vec::with_capacity(LANES);
        for l in 0..LANES {
            seqs.push(client.submit(engine, &a.lane(l), &b.lane(l)).unwrap());
        }
        let mut served_total = 0u64;
        for _ in 0..LANES {
            let (_, response) = client.recv().unwrap();
            let response = response.unwrap();
            assert!(response.cycles == 1 || response.cycles == 2);
            served_total += response.cycles as u64;
        }
        assert_eq!(
            served_total,
            direct.total_cycles(),
            "{engine}: served cycle total vs executor accounting"
        );
        // Gaussian operands at the paper's parameters must actually stall
        // VLCSA 1 — otherwise this test is vacuous.
        if engine == "vlcsa1" {
            assert!(direct.stalls() > 0, "expected stalls in the workload");
            assert_eq!(served_total, LANES as u64 + direct.stalls());
        }
    }
    client.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn bad_engine_name_lists_known_engines_and_keeps_connection() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let a = UBig::from_u128(1, 32);
    let b = UBig::from_u128(2, 32);
    let seq = client.submit("karry-select", &a, &b).unwrap();
    let (done, response) = client.recv().unwrap();
    assert_eq!(done, seq);
    let err = response.expect_err("unknown engine must fail");
    assert_eq!(err.code, ErrorCode::UnknownEngine);
    for name in Registry::for_width(32).names() {
        assert!(
            err.message.contains(name),
            "error must list `{name}`: {}",
            err.message
        );
    }
    // The connection survives the error.
    let ok = client.add("carry-select", &a, &b).unwrap();
    assert_eq!(ok.sum.to_u128(), Some(3));
    client.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn engines_command_lists_the_registry_plus_auto() {
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let names = client.engines().unwrap();
    let expect: Vec<String> = Registry::for_width(64)
        .names()
        .into_iter()
        .map(str::to_string)
        .chain(std::iter::once(vlcsa_serve::AUTO_ENGINE.to_string()))
        .collect();
    assert_eq!(names, expect, "registry families then the pseudo-engine");
    client.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn stats_command_reports_queue_window_and_stall_rates() {
    // The in-band STATS snapshot: a fresh server reports its group bound
    // and slab word and no lanes or engines; after traffic, per-engine
    // lane totals are exact, the variable-latency engine shows its
    // Gaussian stall rate, and the fixed-latency engine shows none. The
    // response is a single line.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let idle = client.stats().unwrap();
    assert_eq!(idle.max_lanes, ServeConfig::default().max_lanes);
    assert_eq!(idle.word_bits, bitnum::batch::DefaultWord::LANES);
    assert!(idle.lanes.is_empty(), "no lane named yet: {idle:?}");
    assert!(idle.engines.is_empty(), "no traffic served yet: {idle:?}");

    const LANES: usize = 300;
    let mut src = OperandSource::new(Distribution::paper_gaussian(), 64, 77);
    let registry = Registry::for_width(64);
    let mut expected_stalls = 0u64;
    for engine in ["vlcsa1", "ripple"] {
        for _ in 0..LANES {
            let (a, b) = src.next_pair();
            if registry.get(engine).unwrap().add_one(&a, &b).cycles > 1 {
                expected_stalls += 1;
            }
            let seq = client.submit(engine, &a, &b).unwrap();
            let _ = seq;
        }
    }
    for _ in 0..2 * LANES {
        client.recv().unwrap().1.unwrap();
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.lanes.len(), 2, "one lane per engine: {stats:?}");
    let vlcsa1 = stats.engine("vlcsa1").expect("vlcsa1 served traffic");
    let ripple = stats.engine("ripple").expect("ripple served traffic");
    assert_eq!(vlcsa1.lanes, LANES as u64);
    assert_eq!(ripple.lanes, LANES as u64);
    assert_eq!(ripple.stalls, 0);
    assert_eq!(ripple.stall_rate(), 0.0);
    // Worker accounting equals the scalar reference exactly — the same
    // cycle bookkeeping the OK lines carry, aggregated server-side.
    assert_eq!(vlcsa1.stalls, expected_stalls);
    assert!(
        vlcsa1.stall_rate() > 0.1,
        "Gaussian operands at k=14 stall ~25%: {stats:?}"
    );

    client.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn a_burst_after_a_large_one_arrives_in_one_read() {
    // A connection's read buffer starts at 8 KiB and doubles whenever a
    // read fills it. So once one burst has passed 8 KiB, the next burst
    // of more than 8 KiB, written in one `write_all`, arrives in one read
    // and runs as one issue group.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut rng = Xoshiro256::seed_from_u64(0xB0B);
    let mut burst = |base: u64, n: u64| -> Vec<u8> {
        let mut bytes = Vec::new();
        for seq in base..base + n {
            let (a, b) = (UBig::random(256, &mut rng), UBig::random(256, &mut rng));
            bytes.extend(vlcsa_serve::protocol::format_add(seq, "vlcsa1", &a, &b).into_bytes());
            bytes.push(b'\n');
        }
        bytes
    };
    let mut exchange = |bytes: &[u8], answers: u64| -> Vec<String> {
        writer.write_all(bytes).unwrap();
        (0..answers)
            .map(|_| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line
            })
            .collect()
    };
    let groups = |lines: Vec<String>| match vlcsa_serve::protocol::parse_response(&lines[0], 1) {
        Ok(vlcsa_serve::Response::Stats(stats)) => stats.engine("vlcsa1").map_or(0, |e| e.groups),
        other => panic!("{other:?}"),
    };
    let first = burst(0, 240);
    assert!(first.len() > 32 * 1024, "{}", first.len());
    for line in exchange(&first, 240) {
        assert!(line.starts_with("OK "), "{line}");
    }
    let before = groups(exchange(b"STATS\n", 1));
    let second = burst(1000, 80);
    assert!(second.len() > 8 * 1024, "{}", second.len());
    for line in exchange(&second, 80) {
        assert!(line.starts_with("OK "), "{line}");
    }
    let after = groups(exchange(b"STATS\n", 1));
    assert_eq!(
        after - before,
        1,
        "the second burst took more than one read"
    );
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn malformed_lines_are_answered_not_dropped() {
    // Raw-socket client: protocol garbage gets an ERR with seq 0 (or the
    // parsed seq), and the same connection still serves valid requests.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();

    writer.write_all(b"FROBNICATE 1 2 3\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR 0 bad-request"), "{line}");

    line.clear();
    writer.write_all(b"ADD 9 ripple 8 fff 1\n").unwrap(); // 0xfff > 8 bits
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR 9 bad-operand"), "{line}");

    line.clear();
    writer.write_all(b"ADD 10 ripple 8 ff 1\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "OK 10 0 1 1"); // 0xff + 1 wraps to 0, carry out

    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn closed_connections_are_deregistered() {
    // A long-running server must not accumulate one open socket per dead
    // connection: each reader deregisters its stream on exit, so after a
    // churn of short-lived clients the registry drains back to zero.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let a = UBig::from_u128(20, 16);
    let b = UBig::from_u128(5, 16);
    for _ in 0..25 {
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(
            client.add("ripple", &a, &b).unwrap().sum.to_u128(),
            Some(25)
        );
        client.close();
    }
    // Deregistration runs on the reader threads after the socket closes;
    // give it a bounded moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.open_connections(),
        0,
        "dead connections must be pruned from the registry"
    );
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn sums_and_programs_round_trip_with_mixed_add_traffic() {
    // Happy-path end to end: SUM and PROG requests interleave with plain
    // ADDs on one connection and answer the exact scalar-fold values.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let program = Program::from_spec("i0+i1,t0+t0,t1+i2", 3).unwrap();
    for (round, engine) in ["ripple", "carry-select", "vlcsa1", "vlcsa2"]
        .into_iter()
        .enumerate()
    {
        for width in [16usize, 64, 100] {
            let mut src = OperandSource::new(
                Distribution::paper_gaussian(),
                width,
                round as u64 * 31 + width as u64,
            );
            let operands: Vec<UBig> = (0..5).map(|_| src.next_operand()).collect();
            let expect = operands[1..]
                .iter()
                .fold(operands[0].clone(), |acc, o| acc.wrapping_add(o));
            let response = client.sum(engine, &operands).unwrap();
            assert_eq!(response.sum, expect, "{engine} SUM width {width}");
            assert!(response.cycles == 1 || response.cycles == 2);

            let inputs = &operands[..3];
            let response = client.run_program(engine, &program, inputs).unwrap();
            assert_eq!(
                response.sum,
                program.eval_scalar(inputs),
                "{engine} PROG width {width}"
            );

            let (a, b) = src.next_pair();
            let ok = client.add(engine, &a, &b).unwrap();
            assert_eq!(ok.sum, a.wrapping_add(&b), "{engine} ADD width {width}");
        }
    }
    client.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn served_sum_of_8_resolves_carries_exactly_once() {
    // The acceptance pin: a SUM of 8 operands is ONE carry-resolve, not
    // seven. Three observables agree: (1) each response's cycles are the
    // scalar engine's cycles for resolving the reduction's carry-save
    // pair; (2) the served cycle total equals the executor's accounting
    // over those pairs batched as one slab — lanes + stalls, i.e. one
    // resolve per sum; (3) STATS counts one lane per sum, not eight.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    const SUMS: usize = 120;
    const N: usize = 8;
    let width = 64;
    let program = Program::sum(N).unwrap();
    let registry = Registry::for_width(width);
    let engine = registry.get("vlcsa1").unwrap();
    let mut src = OperandSource::new(Distribution::paper_gaussian(), width, 0x5E41);

    let mut xs = Vec::with_capacity(SUMS);
    let mut ys = Vec::with_capacity(SUMS);
    let mut expected = std::collections::HashMap::new();
    for _ in 0..SUMS {
        let operands: Vec<UBig> = (0..N).map(|_| src.next_operand()).collect();
        let (x, y) = program.csa_pair_scalar(&operands);
        let seq = client.submit_sum("vlcsa1", &operands).unwrap();
        expected.insert(
            seq,
            (program.eval_scalar(&operands), engine.add_one(&x, &y)),
        );
        xs.push(x);
        ys.push(y);
    }
    let mut served_total = 0u64;
    for _ in 0..SUMS {
        let (seq, response) = client.recv().unwrap();
        let response = response.unwrap();
        let (sum, resolve) = expected.remove(&seq).expect("known seq");
        assert_eq!(response.sum, sum, "seq {seq}");
        assert!(response.cycles == 1 || response.cycles == 2);
        // The one resolve is the engine adding the carry-save pair: the
        // served latency is that single addition's, never 7 additions'.
        assert_eq!(response.cycles, resolve.cycles, "seq {seq}");
        assert_eq!(response.cout, resolve.cout, "seq {seq}");
        served_total += u64::from(response.cycles);
    }
    assert!(expected.is_empty());

    let direct = Executor::new(1).run(
        registry.get("vlcsa1").unwrap(),
        &WideSlab::from_lanes(&xs),
        &WideSlab::from_lanes(&ys),
    );
    assert_eq!(served_total, direct.total_cycles());
    assert_eq!(served_total, SUMS as u64 + direct.stalls());
    assert!(
        direct.stalls() > 0,
        "Gaussian carry-save pairs must stall vlcsa1 sometimes, or the pin is vacuous"
    );

    // One lane per 8-operand sum — the server never expanded the request
    // into per-operand additions.
    let stats = client.stats().unwrap();
    assert_eq!(stats.engine("vlcsa1").unwrap().lanes, SUMS as u64);
    client.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn fuzzed_sum_and_prog_lines_never_kill_the_connection() {
    // Satellite robustness: one raw socket feeds interleaved valid ADD/SUM
    // traffic, truncated and oversized SUM/PROG lines, and seeded garbage.
    // Every non-empty line gets exactly one response; malformed lines get
    // ERR with the right code and sequence; valid requests still answer
    // exactly; and STATS still parses afterwards.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut rng = Xoshiro256::seed_from_u64(0xF022);

    // Malformed lines with a parseable seq → ERR <seq> <code>.
    let malformed: Vec<(String, ErrorCode)> = vec![
        ("SUM 101 ripple".into(), ErrorCode::BadRequest),
        ("SUM 102 ripple 8".into(), ErrorCode::BadRequest),
        ("SUM 103 ripple 9999 2 1 2".into(), ErrorCode::BadWidth),
        ("SUM 104 ripple 8 0".into(), ErrorCode::BadRequest),
        ("SUM 105 ripple 8 999 1 2".into(), ErrorCode::BadRequest),
        ("SUM 106 ripple 8 3 1 2".into(), ErrorCode::BadRequest),
        ("SUM 107 ripple 8 2 1 2 3".into(), ErrorCode::BadRequest),
        ("SUM 108 ripple 8 2 zz 1".into(), ErrorCode::BadOperand),
        ("SUM 109 ripple 8 2 ffff 1".into(), ErrorCode::BadOperand),
        ("SUM 110 no-such 8 2 1 2".into(), ErrorCode::UnknownEngine),
        ("SUM 111 ripple 8 two 1 2".into(), ErrorCode::BadRequest),
        (
            "PROG 112 ripple 8 2 i0*i1 1 2".into(),
            ErrorCode::BadRequest,
        ),
        (
            "PROG 113 ripple 8 2 t0+i0 1 2".into(),
            ErrorCode::BadRequest,
        ),
        ("PROG 114 ripple 8 2".into(), ErrorCode::BadRequest),
        ("PROG 115 ripple 8 2 i0+i1 1".into(), ErrorCode::BadRequest),
        (
            "PROG 116 ripple 8 2 i0+i9 1 2".into(),
            ErrorCode::BadRequest,
        ),
        // Oversized: a 64 KiB hex operand against width 64.
        (
            format!("SUM 117 ripple 64 2 {} 1", "f".repeat(65536)),
            ErrorCode::BadOperand,
        ),
        // Oversized: a program far past the step cap.
        (
            format!(
                "PROG 118 ripple 8 1 {} ff",
                (0..80)
                    .map(|s| if s == 0 {
                        "i0+i0".to_string()
                    } else {
                        format!("t{}+t{}", s - 1, s - 1)
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            ErrorCode::BadRequest,
        ),
    ];
    // Seqless garbage → ERR 0 bad-request. Tokens avoid whitespace so each
    // write stays one line.
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789+,=!?#@";
    let mut garbage: Vec<String> = vec![
        "SUM".into(),
        "PROG".into(),
        "SUM x ripple 8 2 1 2".into(),
        "SUMMON 1 ripple 8 2 1 2".into(),
    ];
    for _ in 0..8 {
        let len = 1 + (rng.next_u64() % 200) as usize;
        let token: String = (0..len)
            .map(|_| ALPHABET[(rng.next_u64() % ALPHABET.len() as u64) as usize] as char)
            .collect();
        garbage.push(token);
    }

    // Valid traffic: ADDs (seq 1000+) and SUMs (seq 2000+) whose exact
    // answers are checked after the storm, plus `auto`-delegated ADDs
    // (seq 3000+), SUMs (seq 4000+) and PROGs (seq 5000+) — the router's
    // pick may be any family, but every family computes exact addition,
    // so the expected sums don't depend on it.
    let auto_program = Program::from_spec("i0+i1,t0+i2", 3).unwrap();
    let mut valid: Vec<(String, u64, usize, UBig)> = Vec::new();
    let mut src = OperandSource::new(Distribution::UnsignedUniform, 64, 0xF00D);
    for i in 0..12u64 {
        let (a, b) = src.next_pair();
        valid.push((
            vlcsa_serve::protocol::format_add(1000 + i, "vlcsa1", &a, &b),
            1000 + i,
            64,
            a.wrapping_add(&b),
        ));
        let n = [2usize, 3, 8][i as usize % 3];
        let operands: Vec<UBig> = (0..n).map(|_| src.next_operand()).collect();
        let expect = operands[1..]
            .iter()
            .fold(operands[0].clone(), |acc, o| acc.wrapping_add(o));
        valid.push((
            vlcsa_serve::protocol::format_sum(2000 + i, "ripple", &operands),
            2000 + i,
            64,
            expect,
        ));
        let (a, b) = src.next_pair();
        valid.push((
            vlcsa_serve::protocol::format_add(3000 + i, "auto", &a, &b),
            3000 + i,
            64,
            a.wrapping_add(&b),
        ));
        let operands: Vec<UBig> = (0..3).map(|_| src.next_operand()).collect();
        let expect = operands[1..]
            .iter()
            .fold(operands[0].clone(), |acc, o| acc.wrapping_add(o));
        valid.push((
            vlcsa_serve::protocol::format_sum(4000 + i, "auto", &operands),
            4000 + i,
            64,
            expect,
        ));
        let inputs: Vec<UBig> = (0..3).map(|_| src.next_operand()).collect();
        valid.push((
            vlcsa_serve::protocol::format_program(5000 + i, "auto", &auto_program, &inputs),
            5000 + i,
            64,
            auto_program.eval_scalar(&inputs),
        ));
    }

    // Interleave the three streams deterministically and fire.
    let mut lines: Vec<(String, Option<(u64, ErrorCode)>)> = Vec::new();
    for (line, code) in &malformed {
        let seq = line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|t| t.parse().ok())
            .unwrap();
        lines.push((line.clone(), Some((seq, *code))));
    }
    for g in &garbage {
        lines.push((g.clone(), Some((0, ErrorCode::BadRequest))));
    }
    for (line, ..) in &valid {
        lines.push((line.clone(), None));
    }
    // Deterministic shuffle.
    for i in (1..lines.len()).rev() {
        lines.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    for (line, _) in &lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }

    // One response per line, in any order (ERRs answer inline, OKs once
    // their read is consumed). Classify by seq.
    let mut errors: Vec<(u64, ErrorCode)> = Vec::new();
    let mut oks: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
    for _ in 0..lines.len() {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection died mid-storm"
        );
        let mut tokens = line.split_ascii_whitespace();
        match tokens.next().unwrap() {
            "OK" => {
                let seq: u64 = tokens.next().unwrap().parse().unwrap();
                oks.insert(seq, line.trim().to_string());
            }
            "ERR" => {
                let seq: u64 = tokens.next().unwrap().parse().unwrap();
                let code = ErrorCode::from_str_token(tokens.next().unwrap()).unwrap();
                errors.push((seq, code));
            }
            other => panic!("unexpected response `{other}`: {line}"),
        }
    }

    // Every malformed line got its ERR…
    for (expect_seq, expect_code) in lines.iter().filter_map(|(_, e)| *e) {
        let at = errors
            .iter()
            .position(|&(s, c)| s == expect_seq && c == expect_code)
            .unwrap_or_else(|| panic!("no ERR {expect_seq} {expect_code} in {errors:?}"));
        errors.swap_remove(at);
    }
    assert!(errors.is_empty(), "unexplained errors: {errors:?}");
    // …and every valid request answered exactly.
    for (_, seq, width, expect) in &valid {
        let line = oks.remove(seq).unwrap_or_else(|| panic!("no OK for {seq}"));
        match vlcsa_serve::protocol::parse_response(&line, *width).unwrap() {
            vlcsa_serve::Response::Ok { sum, .. } => assert_eq!(&sum, expect, "seq {seq}"),
            other => panic!("seq {seq}: {other:?}"),
        }
    }
    assert!(oks.is_empty(), "unexplained OKs: {oks:?}");

    // The connection survives and STATS still parses. The `auto` lanes
    // were recorded under whatever family the router picked, so the named
    // engines hold at least their own traffic and the grand total adds up
    // exactly: 12 named ADDs + 12 named SUMs + 36 delegated requests.
    writer.write_all(b"STATS\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match vlcsa_serve::protocol::parse_response(&line, 1).unwrap() {
        vlcsa_serve::Response::Stats(stats) => {
            assert!(stats.engine("ripple").unwrap().lanes >= 12);
            assert!(stats.engine("vlcsa1").unwrap().lanes >= 12);
            let total: u64 = stats.engines.iter().map(|e| e.lanes).sum();
            assert_eq!(total, 60, "every request is exactly one lane: {stats:?}");
            // Delegated traffic flowed, so the router must expose its
            // width-64 decision, un-degraded (no SLO was ever set).
            let route = stats
                .routes
                .iter()
                .find(|r| r.width == 64)
                .expect("auto traffic leaves a width-64 route");
            assert!(!route.degraded);
            assert_eq!(stats.slo_micros, None);
        }
        other => panic!("STATS answered {other:?}"),
    }
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn slo_round_trips_and_stats_reports_routes() {
    // The SLO budget is a live service knob: query, set (the response
    // doubles as a readback), clear — and STATS carries both the budget
    // in force and the router's current per-width decision once `auto`
    // traffic has flowed. Garbage SLO lines are seqless bad-requests that
    // leave the connection (and the budget) untouched.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    assert_eq!(client.slo().unwrap(), None, "no budget configured at start");
    assert_eq!(client.set_slo(Some(750)).unwrap(), Some(750), "set echoes");
    assert_eq!(client.slo().unwrap(), Some(750));

    // Delegated traffic at two widths; exactness never depends on the pick.
    for width in [32usize, 64] {
        for v in 0..6u128 {
            let a = UBig::from_u128(v, width);
            let b = UBig::from_u128(v + 1, width);
            let ok = client.add("auto", &a, &b).unwrap();
            assert_eq!(ok.sum.to_u128(), Some(2 * v + 1));
        }
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.slo_micros, Some(750));
    let registry_names = Registry::for_width(64).names();
    for width in [32usize, 64] {
        let route = stats
            .routes
            .iter()
            .find(|r| r.width == width)
            .unwrap_or_else(|| panic!("no route for width {width}: {stats:?}"));
        assert!(
            registry_names.contains(&route.engine.as_str()),
            "route resolves to a concrete family: {route:?}"
        );
    }

    assert_eq!(client.set_slo(None).unwrap(), None, "clear echoes");
    assert_eq!(client.stats().unwrap().slo_micros, None);

    // Raw socket: the pinned ERR behavior for garbage SLO arguments. None
    // of these may change the budget or kill the connection.
    client.set_slo(Some(900)).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for garbage in [
        "SLO abc",
        "SLO 0",
        "SLO -3",
        "SLO 1.5",
        "SLO 12 34",
        "SLO off now",
    ] {
        writer.write_all(garbage.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(
            line.starts_with("ERR 0 bad-request"),
            "`{garbage}` answered {line}"
        );
    }
    writer.write_all(b"SLO\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "SLO 900", "garbage left the budget untouched");
    writer.write_all(b"SLO off\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "SLO off");

    client.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn step_less_program_is_a_structured_client_error() {
    // Regression: a step-less program (e.g. the 1-operand sum) has an
    // empty spec, which the wire format cannot carry — `run_program` must
    // answer with a structured error instead of panicking in the
    // formatter, and the connection must stay usable afterwards.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let step_less = Program::sum(1).unwrap();
    assert!(step_less.steps().is_empty(), "sum(1) needs no additions");
    let input = UBig::from_u128(17, 64);
    match client.run_program("ripple", &step_less, std::slice::from_ref(&input)) {
        Err(vlcsa_serve::ClientError::Unrepresentable(message)) => {
            assert!(
                message.contains("step-less"),
                "error names the problem: {message}"
            );
        }
        other => panic!("expected Unrepresentable, got {other:?}"),
    }
    // Nothing was written to the socket: the same connection still serves.
    let ok = client
        .add("ripple", &input, &UBig::from_u128(25, 64))
        .unwrap();
    assert_eq!(ok.sum.to_u128(), Some(42));
    client.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn binary_clients_round_trip_and_proto_counters_pin() {
    // The tentpole end to end, plus the STATS satellite: a binary client
    // negotiated via HELLO serves exact sums at multi-limb widths (and
    // through `auto`), while proto_text/proto_bin count every answered
    // request on the right side — the STATS request itself included, the
    // HELLO upgrade line excluded.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut text = Client::connect(addr).unwrap();
    assert!(!text.is_binary());
    let mut src = OperandSource::new(Distribution::paper_gaussian(), 100, 0xB1A2);
    for _ in 0..3 {
        let (a, b) = src.next_pair();
        let ok = text.add("vlcsa1", &a, &b).unwrap();
        assert_eq!(ok.sum, a.wrapping_add(&b));
    }

    let mut bin = Client::connect_binary(addr).unwrap();
    assert!(bin.is_binary());
    // The listing is identical across transports, auto included.
    assert_eq!(bin.engines().unwrap(), text.engines().unwrap());
    for engine in ["vlcsa2", "auto"] {
        let (a, b) = src.next_pair();
        let ok = bin.add(engine, &a, &b).unwrap();
        assert_eq!(ok.sum, a.wrapping_add(&b), "{engine}");
        assert!(ok.cycles == 1 || ok.cycles == 2);
    }
    // SUM and PROG travel as frames too.
    let operands: Vec<UBig> = (0..5).map(|_| src.next_operand()).collect();
    let expect = operands[1..]
        .iter()
        .fold(operands[0].clone(), |acc, o| acc.wrapping_add(o));
    assert_eq!(bin.sum("ripple", &operands).unwrap().sum, expect);
    let program = Program::from_spec("i0+i1,t0+i2", 3).unwrap();
    let inputs = &operands[..3];
    assert_eq!(
        bin.run_program("carry-select", &program, inputs)
            .unwrap()
            .sum,
        program.eval_scalar(inputs)
    );
    // And the SLO knob answers over frames.
    assert_eq!(bin.set_slo(Some(750)).unwrap(), Some(750));
    assert_eq!(bin.slo().unwrap(), Some(750));
    assert_eq!(bin.set_slo(None).unwrap(), None);

    // The pin: the text side has answered 3 ADDs + 1 ENGINES; the binary
    // side has answered the handshake ENGINES + the explicit engines() +
    // 2 ADDs + SUM + PROG + 3 SLO commands = 9 frames, and this STATS is
    // the 10th. The HELLO upgrade line counts as neither.
    let snapshot = bin.stats().unwrap();
    assert_eq!(snapshot.proto_text, 4, "{snapshot:?}");
    assert_eq!(snapshot.proto_bin, 10, "{snapshot:?}");
    // The text view agrees — one set of counters, two transports — and
    // its own STATS line is text request number 5.
    let snapshot = text.stats().unwrap();
    assert_eq!(snapshot.proto_text, 5, "{snapshot:?}");
    assert_eq!(snapshot.proto_bin, 10, "{snapshot:?}");

    bin.close();
    text.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn binary_bad_engine_id_gets_structured_err_frame() {
    // The Registry::lookup error surface, reachable from binary mode: an
    // out-of-range engine id answers with an ERR frame that lists the
    // id ↔ name mapping, and the same connection keeps serving.
    use vlcsa_serve::binary;

    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    writer.write_all(b"HELLO BIN 1\n").unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert_eq!(ack.trim(), binary::HELLO_LINE);

    writer
        .write_all(&binary::encode_add(7, 200, 64, &[5], &[6]))
        .unwrap();
    let (opcode, body) = binary::read_frame(&mut reader).unwrap().unwrap();
    match binary::decode_response(opcode, &body, 64).unwrap() {
        vlcsa_serve::Response::Err(err) => {
            assert_eq!(err.seq, 7);
            assert_eq!(err.code, ErrorCode::UnknownEngine);
            for (i, name) in Registry::for_width(64).names().iter().enumerate() {
                assert!(
                    err.message.contains(&format!("{i}={name}")),
                    "listing must map `{name}`: {}",
                    err.message
                );
            }
            assert!(err.message.contains("255=auto"), "{}", err.message);
        }
        other => panic!("expected ERR frame, got {other:?}"),
    }
    // The connection survives: id 0 is the listing's first engine.
    writer
        .write_all(&binary::encode_add(8, 0, 64, &[40], &[2]))
        .unwrap();
    let (opcode, body) = binary::read_frame(&mut reader).unwrap().unwrap();
    match binary::decode_response(opcode, &body, 64).unwrap() {
        vlcsa_serve::Response::Ok { seq, sum, .. } => {
            assert_eq!((seq, sum.limbs()), (8, &[42u64][..]));
        }
        other => panic!("expected OK frame, got {other:?}"),
    }
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn binary_garbage_answers_or_closes_cleanly_never_desyncs() {
    // The framing robustness satellite. In-frame malformations (unknown
    // opcode, wrong counts, stray bits) are answered and the stream stays
    // in sync; header-level poison (bad version, lying length) answers
    // once and closes; a mid-frame disconnect is a clean close. The server
    // survives all of it.
    use vlcsa_serve::binary;

    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let hello = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>| {
        stream.write_all(b"HELLO BIN 1\n").unwrap();
        let mut ack = String::new();
        reader.read_line(&mut ack).unwrap();
        assert_eq!(ack.trim(), binary::HELLO_LINE);
    };
    let expect_err = |reader: &mut BufReader<TcpStream>, seq: u64, code: ErrorCode| {
        let (opcode, body) = binary::read_frame(reader).unwrap().unwrap();
        match binary::decode_response(opcode, &body, 64).unwrap() {
            vlcsa_serve::Response::Err(err) => {
                assert_eq!((err.seq, err.code), (seq, code), "{}", err.message);
            }
            other => panic!("expected ERR, got {other:?}"),
        }
    };

    // Each scenario owns its sockets in a block: shadowed `TcpStream`
    // bindings would otherwise keep client FDs open until the end of the
    // test, and the drained-readers check below would never pass.

    // 1) In-frame garbage, then later frames still answered — no desync.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        hello(&mut stream, &mut reader);
        // Unknown opcode (body carries seq 21).
        let mut bad_op = binary::encode_add(21, 0, 64, &[1], &[2]);
        bad_op[1] = 0x7f;
        stream.write_all(&bad_op).unwrap();
        expect_err(&mut reader, 21, ErrorCode::BadRequest);
        // Truncated body: an ADD body cut mid-operand (the header's length
        // is honest about the short body, so the stream stays in sync).
        let whole = binary::encode_add(22, 0, 64, &[1], &[2]);
        let cut_body_len = (whole.len() - 6 - 4) as u32;
        let mut cut = Vec::new();
        cut.extend_from_slice(&[1, 0x01]);
        cut.extend_from_slice(&cut_body_len.to_le_bytes());
        cut.extend_from_slice(&whole[6..whole.len() - 4]);
        stream.write_all(&cut).unwrap();
        expect_err(&mut reader, 22, ErrorCode::BadRequest);
        // Stray bits above the width.
        stream
            .write_all(&binary::encode_add(23, 0, 60, &[1 << 63], &[0]))
            .unwrap();
        expect_err(&mut reader, 23, ErrorCode::BadOperand);
        // Bad width.
        stream
            .write_all(&binary::encode_add(24, 0, 5000, &[0], &[0]))
            .unwrap();
        expect_err(&mut reader, 24, ErrorCode::BadWidth);
        // The stream is still perfectly usable.
        stream
            .write_all(&binary::encode_add(25, 0, 64, &[20], &[22]))
            .unwrap();
        let (opcode, body) = binary::read_frame(&mut reader).unwrap().unwrap();
        match binary::decode_response(opcode, &body, 64).unwrap() {
            vlcsa_serve::Response::Ok { seq, sum, .. } => {
                assert_eq!((seq, sum.limbs()), (25, &[42u64][..]));
            }
            other => panic!("expected OK, got {other:?}"),
        }
    }

    // 2) Unknown version byte: one ERR, then the server closes.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        hello(&mut stream, &mut reader);
        let mut frame = binary::encode_add(31, 0, 64, &[1], &[2]);
        frame[0] = 9;
        stream.write_all(&frame).unwrap();
        expect_err(&mut reader, 0, ErrorCode::BadRequest);
        assert!(
            matches!(binary::read_frame(&mut reader), Ok(None) | Err(_)),
            "stream must close after a version it cannot trust"
        );
    }

    // 3) Oversized length prefix: one ERR, then close — never an
    //    allocation or a hang.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        hello(&mut stream, &mut reader);
        let mut lying = vec![1u8, 0x01];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&lying).unwrap();
        expect_err(&mut reader, 0, ErrorCode::BadRequest);
        assert!(matches!(binary::read_frame(&mut reader), Ok(None) | Err(_)));
    }

    // 4) Mid-frame disconnect: a clean close server-side, no panic, no
    //    stuck reader thread.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        hello(&mut stream, &mut reader);
        let whole = binary::encode_add(41, 0, 64, &[1], &[2]);
        stream.write_all(&whole[..whole.len() / 2]).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.open_connections() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.open_connections(), 0, "readers drained");

    // 5) After the storm, a fresh client of each protocol still works.
    let mut text = Client::connect(addr).unwrap();
    let a = UBig::from_u128(40, 64);
    let b = UBig::from_u128(2, 64);
    assert_eq!(text.add("ripple", &a, &b).unwrap().sum.to_u128(), Some(42));
    let mut bin = Client::connect_binary(addr).unwrap();
    assert_eq!(bin.add("ripple", &a, &b).unwrap().sum.to_u128(), Some(42));
    text.close();
    bin.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn hello_after_the_first_line_is_just_an_unknown_command() {
    // Negotiation is first-line-only: a connection that has spoken text
    // once can never upgrade, so a later HELLO is answered as a normal
    // unknown command and the connection stays text.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();

    writer.write_all(b"ADD 1 ripple 8 1 2\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "OK 1 3 0 1");

    line.clear();
    writer.write_all(b"HELLO BIN 1\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR 0 bad-request"), "{line}");

    line.clear();
    writer.write_all(b"ADD 2 ripple 8 2 3\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "OK 2 5 0 1", "still text after the late HELLO");
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn idle_windows_then_burst() {
    // An idle server (batching windows with zero requests) must neither
    // busy-spin nor wedge: after a quiet period, a burst is served intact.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut seqs = Vec::new();
    let a = UBig::from_u128(41, 64);
    let b = UBig::from_u128(1, 64);
    for _ in 0..32 {
        seqs.push(client.submit("vlcsa2", &a, &b).unwrap());
    }
    for _ in 0..32 {
        let (_, response) = client.recv().unwrap();
        assert_eq!(response.unwrap().sum.to_u128(), Some(42));
    }
    client.close();
    shutdown_within(server, Duration::from_secs(10));
}

#[test]
fn idle_connections_hold_neither_traffic_nor_shutdown() {
    // Every connection has its own reader thread. 64 sockets that never
    // send a byte must not slow a busy client, and shutdown must close
    // them too.
    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    let idle: Vec<TcpStream> = (0..64).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let mut rng = Xoshiro256::seed_from_u64(0x1D1E);
    let mut client = Client::connect(addr).unwrap();
    let mut expected = std::collections::HashMap::new();
    for _ in 0..256 {
        let a = UBig::random(64, &mut rng);
        let b = UBig::random(64, &mut rng);
        let seq = client.submit("vlcsa1", &a, &b).unwrap();
        expected.insert(seq, a.overflowing_add(&b));
    }
    for _ in 0..256 {
        let (seq, response) = client.recv().unwrap();
        let response = response.unwrap_or_else(|e| panic!("seq {seq}: {e:?}"));
        let (sum, cout) = expected.remove(&seq).expect("known seq");
        assert_eq!((response.sum, response.cout), (sum, cout), "seq {seq}");
    }
    // The listener accepts in order, so the idle sockets, connected
    // first, are registered before the client that was just answered.
    assert_eq!(server.open_connections(), 65);
    client.close();
    shutdown_within(server, Duration::from_secs(10));
    for mut socket in idle {
        socket
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(socket.read(&mut byte).unwrap(), 0, "EOF after shutdown");
    }
}
