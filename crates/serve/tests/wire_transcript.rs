//! The wire bytes of both framings, pinned. A real server gets a fixed
//! script over a raw loopback socket, one request at a time: every
//! request kind at widths 1, 64, 65 and 256, `ENGINES`, `STATS`, `SLO`
//! query, set and clear, and every fault each codec can express. Each
//! answer is compared with a transcript written out below — literal text
//! lines, and frames assembled here by hand; none comes from the crate's
//! encoders. `auto` is left out: it picks its engine by the router's
//! clock.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use bitnum::batch::{DefaultWord, Word};
use vlcsa_serve::{ServeConfig, Server};

/// The slab word's lane count, which `STATS` reports as `word_bits`: 256
/// by default, 64 under `--cfg vlcsa_word64`.
const WORD_BITS: usize = DefaultWord::LANES;

/// The registry's listing at every width, in id order.
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

/// What an unknown engine name is answered with, after the name.
const KNOWN: &str = "known engines: ripple, cla4, carry-select, carry-skip, \
                     conditional-sum, kogge-stone, vlsa, vlcsa1, vlcsa2";

/// A server with the default configuration.
fn server() -> Server {
    Server::start("127.0.0.1:0", ServeConfig::default()).expect("bind")
}

/// One connection to `server`, read with a bound.
fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// Shows bytes as text where they are printable, so a failing comparison
/// reads as a transcript.
fn show(bytes: &[u8]) -> String {
    bytes.escape_ascii().to_string()
}

/// Sends each request and reads one line back per request; returns every
/// step whose answer differs from the transcript.
fn run_text(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    script: &[(String, String)],
) -> Vec<String> {
    let mut wrong = Vec::new();
    for (request, want) in script {
        stream
            .write_all(format!("{request}\n").as_bytes())
            .expect("write");
        let mut got = String::new();
        reader.read_line(&mut got).expect("answer");
        if got != format!("{want}\n") {
            wrong.push(format!(
                "`{request}`\n  want `{want}`\n  got  `{}`",
                got.trim_end()
            ));
        }
    }
    wrong
}

/// Reads one whole frame, header included.
fn read_frame(reader: &mut BufReader<TcpStream>) -> Vec<u8> {
    let mut frame = vec![0u8; 6];
    reader.read_exact(&mut frame).expect("frame header");
    let len = u32::from_le_bytes(frame[2..6].try_into().expect("4 bytes")) as usize;
    frame.resize(6 + len, 0);
    reader.read_exact(&mut frame[6..]).expect("frame body");
    frame
}

/// As [`run_text`], one frame per request.
fn run_frames(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    script: &[(&str, Vec<u8>, Vec<u8>)],
) -> Vec<String> {
    let mut wrong = Vec::new();
    for (name, request, want) in script {
        stream.write_all(request).expect("write");
        let got = read_frame(reader);
        if got != *want {
            wrong.push(format!(
                "{name}\n  want {}\n  got  {}",
                show(want),
                show(&got)
            ));
        }
    }
    wrong
}

/// Requires the server to have closed the connection.
fn expect_eof(reader: &mut BufReader<TcpStream>) {
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "bytes after the close: {}", show(&rest)),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
}

/// The text script's `STATS` line: `proto_text` requests answered, the
/// budget `slo`, and — once the computing requests have run (`lanes`) —
/// their four lanes and engines.
fn text_stats(proto_text: u64, slo: &str, lanes: bool) -> String {
    let mut line = format!(
        "STATS max_lanes=256 word_bits={WORD_BITS} slo={slo} proto_text={proto_text} proto_bin=0"
    );
    line.push_str(if lanes {
        " lanes_total=4 lane=ripple:1 lane=cla4:64 lane=kogge-stone:65 lane=carry-select:256 \
         engine=ripple:3:0:3 engine=cla4:3:0:3 engine=kogge-stone:3:0:3 \
         engine=carry-select:3:0:3"
    } else {
        " lanes_total=0"
    });
    line
}

#[test]
fn the_text_wire_is_pinned() {
    let server = server();
    let (mut stream, mut reader) = connect(&server);
    let mut script: Vec<(String, String)> = [
        ("ENGINES", format!("ENGINES {} auto", ENGINES.join(" "))),
        ("SLO", "SLO off".into()),
        ("SLO 750", "SLO 750".into()),
        ("SLO", "SLO 750".into()),
        ("STATS", text_stats(5, "750", false)),
        ("SLO off", "SLO off".into()),
        // Width 1.
        ("ADD 1 ripple 1 1 1", "OK 1 0 1 1".into()),
        ("SUM 2 ripple 1 3 1 1 1", "OK 2 1 0 1".into()),
        ("PROG 3 ripple 1 2 i0+i1,t0+i0 1 1", "OK 3 1 0 1".into()),
        // Width 64.
        ("ADD 4 cla4 64 ffffffffffffffff 1", "OK 4 0 1 1".into()),
        (
            "SUM 5 cla4 64 3 8000000000000000 8000000000000000 5",
            "OK 5 5 0 1".into(),
        ),
        ("PROG 6 cla4 64 2 i0+i1,t0+t0 3 4", "OK 6 e 0 1".into()),
        // Width 65.
        (
            "ADD 7 kogge-stone 65 1ffffffffffffffff 2",
            "OK 7 1 1 1".into(),
        ),
        (
            "SUM 8 kogge-stone 65 3 10000000000000000 ffffffffffffffff 1",
            "OK 8 0 1 1".into(),
        ),
        (
            "PROG 9 kogge-stone 65 3 i0+i1,t0+i2 10000000000000000 1 2",
            "OK 9 10000000000000003 0 1".into(),
        ),
        // Width 256.
        (
            "ADD 10 carry-select 256 \
             123456789abcdeffedcba98765432100f0f0f0f0f0f0f0ff0f0f0f0f0f0f0f0 \
             fedcba9876543210123456789abcdef0f0f0f0f0f0f0f0f10f0f0f0f0f0f0f0f",
            "OK 10 11111111111111010000000000000000ffffffffffffffff 1 1".into(),
        ),
        (
            "SUM 11 carry-select 256 3 \
             8000000000000000000000000000000000000000000000000000000000000000 \
             8000000000000000000000000000000000000000000000000000000000000000 7",
            "OK 11 7 0 1".into(),
        ),
        (
            "PROG 12 carry-select 256 3 i0+i1,t0+i2,t1+t1 \
             123456789abcdeffedcba98765432100f0f0f0f0f0f0f0ff0f0f0f0f0f0f0f0 \
             fedcba9876543210123456789abcdef0f0f0f0f0f0f0f0f10f0f0f0f0f0f0f0f 5",
            "OK 12 222222222222220200000000000000020000000000000008 1 1".into(),
        ),
        // Faults: commands.
        ("FOO 1 2", "ERR 0 bad-request unknown command `FOO`".into()),
        (
            "HELLO BIN 1",
            "ERR 0 bad-request unknown command `HELLO`".into(),
        ),
        (
            "ENGINES now",
            "ERR 0 bad-request ENGINES takes no arguments, got `now`".into(),
        ),
        (
            "STATS now",
            "ERR 0 bad-request STATS takes no arguments, got `now`".into(),
        ),
        (
            "SLO 0",
            "ERR 0 bad-request SLO takes a budget in micros (>= 1) or `off`, got `0`".into(),
        ),
        (
            "SLO 5 6",
            "ERR 0 bad-request SLO takes one argument, got trailing `6`".into(),
        ),
        // Faults: the head.
        (
            "ADD",
            "ERR 0 bad-request ADD needs a numeric sequence".into(),
        ),
        (
            "SUM x ripple 8 1 1",
            "ERR 0 bad-request SUM needs a numeric sequence".into(),
        ),
        (
            "ADD 13",
            "ERR 13 bad-request ADD is missing the engine".into(),
        ),
        (
            "ADD 14 ripple",
            "ERR 14 bad-request ADD needs a numeric width".into(),
        ),
        (
            "ADD 15 ripple 0 1 1",
            "ERR 15 bad-width width 0 outside 1..=4096".into(),
        ),
        (
            "PROG 16 ripple 4097 1 i0+i0 1",
            "ERR 16 bad-width width 4097 outside 1..=4096".into(),
        ),
        // Faults: the operands.
        (
            "ADD 17 ripple 8 1",
            "ERR 17 bad-request ADD is missing operand 1 of 2".into(),
        ),
        (
            "ADD 18 ripple 8 zz 1",
            "ERR 18 bad-operand operand 0: invalid hexadecimal digit 'z'".into(),
        ),
        (
            "ADD 19 ripple 8 1 1ff",
            "ERR 19 bad-operand operand 1: value does not fit in the requested width".into(),
        ),
        (
            "ADD 20 ripple 8 1 1 1",
            "ERR 20 bad-request trailing token `1`".into(),
        ),
        (
            "SUM 21 ripple 8 0",
            "ERR 21 bad-request operand count 0 outside 1..=64".into(),
        ),
        (
            "SUM 22 ripple 8 65 1",
            "ERR 22 bad-request operand count 65 outside 1..=64".into(),
        ),
        (
            "SUM 23 ripple 8 2 1",
            "ERR 23 bad-request SUM is missing operand 1 of 2".into(),
        ),
        // Faults: the program.
        (
            "PROG 24 ripple 8 2",
            "ERR 24 bad-request PROG is missing the spec".into(),
        ),
        (
            "PROG 25 ripple 8 2 i0-i1 1 2",
            "ERR 25 bad-request program spec: bad program spec token `i0-i1`".into(),
        ),
        (
            "PROG 26 ripple 8 2 t0+i0 1 2",
            "ERR 26 bad-request program spec: operand t0 is not defined at its use site".into(),
        ),
        // Faults: the engine, and two faults in one request.
        (
            "ADD 27 nosuch 8 1 1",
            format!("ERR 27 unknown-engine unknown engine `nosuch`; {KNOWN}"),
        ),
        (
            "ADD 28 nosuch 8 zz 1",
            "ERR 28 bad-operand operand 0: invalid hexadecimal digit 'z'".into(),
        ),
        (
            "ADD 29 ripple 0 zz 1",
            "ERR 29 bad-width width 0 outside 1..=4096".into(),
        ),
        (
            "SUM 30 ripple 8 65 zz",
            "ERR 30 bad-request operand count 65 outside 1..=64".into(),
        ),
    ]
    .into_iter()
    .map(|(request, want)| (request.to_string(), want))
    .collect();
    script.push(("STATS".into(), text_stats(45, "off", true)));
    let wrong = run_text(&mut stream, &mut reader, &script);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));

    // A line held past the bound is answered once, then the connection
    // closes.
    let (mut stream, mut reader) = connect(&server);
    stream
        .write_all(&vec![b'a'; vlcsa_serve::protocol::MAX_LINE + 1])
        .expect("write");
    let mut got = String::new();
    reader.read_line(&mut got).expect("answer");
    assert_eq!(got, "ERR 0 bad-request line exceeds 66368 bytes\n");
    expect_eof(&mut reader);
    server.shutdown();
}

/// A frame of `body` under `opcode`, version 1.
fn frame(opcode: u8, body: &[u8]) -> Vec<u8> {
    let mut out = vec![1, opcode];
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// The `seq | engine | width | nops` head of a computing request.
fn head(seq: u64, engine: u8, width: u16, nops: u16) -> Vec<u8> {
    let mut out = seq.to_le_bytes().to_vec();
    out.push(engine);
    out.extend_from_slice(&width.to_le_bytes());
    out.extend_from_slice(&nops.to_le_bytes());
    out
}

fn le(limbs: &[u64]) -> Vec<u8> {
    limbs.iter().flat_map(|l| l.to_le_bytes()).collect()
}

fn add(seq: u64, engine: u8, width: u16, a: &[u64], b: &[u64]) -> Vec<u8> {
    frame(0x01, &[head(seq, engine, width, 2), le(a), le(b)].concat())
}

fn sum(seq: u64, engine: u8, width: u16, operands: &[&[u64]]) -> Vec<u8> {
    let limbs: Vec<u8> = operands.iter().flat_map(|o| le(o)).collect();
    frame(
        0x02,
        &[head(seq, engine, width, operands.len() as u16), limbs].concat(),
    )
}

fn prog(seq: u64, engine: u8, width: u16, spec: &[u8], inputs: &[&[u64]]) -> Vec<u8> {
    let limbs: Vec<u8> = inputs.iter().flat_map(|o| le(o)).collect();
    let spec_len = (spec.len() as u16).to_le_bytes().to_vec();
    frame(
        0x03,
        &[
            head(seq, engine, width, inputs.len() as u16),
            spec_len,
            spec.to_vec(),
            limbs,
        ]
        .concat(),
    )
}

fn slo(action: u8, micros: u64) -> Vec<u8> {
    frame(
        0x12,
        &[vec![action], micros.to_le_bytes().to_vec()].concat(),
    )
}

fn ok(seq: u64, cout: u8, cycles: u8, sum: &[u64]) -> Vec<u8> {
    frame(
        0x81,
        &[seq.to_le_bytes().to_vec(), vec![cout, cycles], le(sum)].concat(),
    )
}

/// Error code bytes: 1 bad-request, 2 unknown-engine, 3 bad-width,
/// 4 bad-operand.
fn err(seq: u64, code: u8, message: &str) -> Vec<u8> {
    frame(
        0x82,
        &[
            seq.to_le_bytes().to_vec(),
            vec![code],
            message.as_bytes().to_vec(),
        ]
        .concat(),
    )
}

fn slo_answer(budget: Option<u64>) -> Vec<u8> {
    frame(
        0x92,
        &[
            vec![u8::from(budget.is_some())],
            budget.unwrap_or(0).to_le_bytes().to_vec(),
        ]
        .concat(),
    )
}

/// The binary `STATS` frame: the text line, with `proto_bin` frames
/// answered.
fn frame_stats(proto_bin: u64, slo: &str, lanes: bool) -> Vec<u8> {
    let line = text_stats(0, slo, lanes).replace(
        "proto_text=0 proto_bin=0",
        &format!("proto_text=0 proto_bin={proto_bin}"),
    );
    frame(0x91, line.as_bytes())
}

#[test]
fn the_binary_wire_is_pinned() {
    const MAX: u64 = u64::MAX;
    const TOP: u64 = 1 << 63;
    let a256 = [
        0xf0f0_f0f0_f0f0_f0f0,
        0x0f0f_0f0f_0f0f_0f0f,
        0xfedc_ba98_7654_3210,
        0x0123_4567_89ab_cdef,
    ];
    let b256 = [
        0x0f0f_0f0f_0f0f_0f0f,
        0xf0f0_f0f0_f0f0_f0f1,
        0x1234_5678_9abc_def0,
        0xfedc_ba98_7654_3210,
    ];
    let mut listing = vec![ENGINES.len() as u8 + 1];
    for (id, name) in ENGINES.iter().enumerate() {
        listing.extend_from_slice(&[id as u8, name.len() as u8]);
        listing.extend_from_slice(name.as_bytes());
    }
    listing.extend_from_slice(&[0xff, 4]);
    listing.extend_from_slice(b"auto");
    let ids: Vec<String> = ENGINES
        .iter()
        .enumerate()
        .map(|(i, n)| format!("{i}={n}"))
        .collect();
    let unknown_id = format!(
        "unknown engine id 200; known ids: {} 255=auto",
        ids.join(" ")
    );
    let sixty_five: Vec<u64> = vec![1; 65];
    let sixty_five: Vec<&[u64]> = sixty_five.chunks(1).collect();

    let script: Vec<(&str, Vec<u8>, Vec<u8>)> = vec![
        ("ENGINES", frame(0x10, &[]), frame(0x90, &listing)),
        ("SLO query", slo(0, 0), slo_answer(None)),
        ("SLO set", slo(1, 750), slo_answer(Some(750))),
        ("SLO query", slo(0, 0), slo_answer(Some(750))),
        ("STATS", frame(0x11, &[]), frame_stats(5, "750", false)),
        ("SLO clear", slo(2, 0), slo_answer(None)),
        // Width 1.
        ("ADD w1", add(1, 0, 1, &[1], &[1]), ok(1, 1, 1, &[0])),
        (
            "SUM w1",
            sum(2, 0, 1, &[&[1], &[1], &[1]]),
            ok(2, 0, 1, &[1]),
        ),
        (
            "PROG w1",
            prog(3, 0, 1, b"i0+i1,t0+i0", &[&[1], &[1]]),
            ok(3, 0, 1, &[1]),
        ),
        // Width 64.
        ("ADD w64", add(4, 1, 64, &[MAX], &[1]), ok(4, 1, 1, &[0])),
        (
            "SUM w64",
            sum(5, 1, 64, &[&[TOP], &[TOP], &[5]]),
            ok(5, 0, 1, &[5]),
        ),
        (
            "PROG w64",
            prog(6, 1, 64, b"i0+i1,t0+t0", &[&[3], &[4]]),
            ok(6, 0, 1, &[0xe]),
        ),
        // Width 65.
        (
            "ADD w65",
            add(7, 5, 65, &[MAX, 1], &[2, 0]),
            ok(7, 1, 1, &[1, 0]),
        ),
        (
            "SUM w65",
            sum(8, 5, 65, &[&[0, 1], &[MAX, 0], &[1, 0]]),
            ok(8, 1, 1, &[0, 0]),
        ),
        (
            "PROG w65",
            prog(9, 5, 65, b"i0+i1,t0+i2", &[&[0, 1], &[1, 0], &[2, 0]]),
            ok(9, 0, 1, &[3, 1]),
        ),
        // Width 256.
        (
            "ADD w256",
            add(10, 2, 256, &a256, &b256),
            ok(10, 1, 1, &[MAX, 0, 0x1111_1111_1111_1101, 0]),
        ),
        (
            "SUM w256",
            sum(
                11,
                2,
                256,
                &[&[0, 0, 0, TOP], &[0, 0, 0, TOP], &[7, 0, 0, 0]],
            ),
            ok(11, 0, 1, &[7, 0, 0, 0]),
        ),
        (
            "PROG w256",
            prog(
                12,
                2,
                256,
                b"i0+i1,t0+i2,t1+t1",
                &[&a256, &b256, &[5, 0, 0, 0]],
            ),
            ok(12, 1, 1, &[8, 2, 0x2222_2222_2222_2202, 0]),
        ),
        // Faults: opcode and head.
        (
            "unknown opcode",
            frame(0x7f, &[head(21, 0, 64, 2), le(&[1]), le(&[2])].concat()),
            err(21, 1, "unknown opcode 0x7f"),
        ),
        (
            "head cut in the seq",
            frame(0x01, &head(22, 0, 64, 2)[..5]),
            err(0, 1, "ADD body is truncated"),
        ),
        (
            "head cut in the width",
            frame(0x01, &head(22, 0, 64, 2)[..10]),
            err(22, 1, "ADD body is truncated"),
        ),
        (
            "width 0",
            add(23, 0, 0, &[], &[]),
            err(23, 3, "width 0 outside 1..=4096"),
        ),
        (
            "width 4097",
            sum(24, 0, 4097, &[&[0; 65]]),
            err(24, 3, "width 4097 outside 1..=4096"),
        ),
        (
            "unknown engine id",
            add(25, 200, 64, &[1], &[2]),
            err(25, 2, &unknown_id),
        ),
        // Faults: operands.
        (
            "ADD with 3 operands",
            frame(0x01, &[head(26, 0, 64, 3), le(&[1, 2, 3])].concat()),
            err(26, 1, "ADD carries exactly 2 operands, got 3"),
        ),
        (
            "ADD operand cut",
            frame(
                0x01,
                &[head(27, 0, 64, 2), le(&[1]), vec![2, 0, 0]].concat(),
            ),
            err(27, 1, "ADD body is truncated"),
        ),
        (
            "ADD trailing bytes",
            frame(0x01, &[head(28, 0, 64, 2), le(&[1, 2]), vec![0]].concat()),
            err(28, 1, "ADD body has 1 trailing bytes"),
        ),
        (
            "ADD stray bits",
            add(29, 0, 60, &[0], &[TOP]),
            err(29, 4, "operand 1: bits set at or above width 60"),
        ),
        (
            "SUM operand cut",
            frame(0x02, &[head(30, 0, 64, 2), le(&[1]), vec![2]].concat()),
            err(30, 1, "SUM is missing operand 1 of 2"),
        ),
        (
            "SUM trailing bytes",
            frame(0x02, &[head(31, 0, 64, 1), le(&[1]), vec![0]].concat()),
            err(31, 1, "SUM body has 1 trailing bytes"),
        ),
        (
            "SUM stray bits",
            sum(32, 0, 8, &[&[1], &[0x100]]),
            err(32, 4, "operand 1: bits set at or above width 8"),
        ),
        (
            "SUM of 0",
            sum(33, 0, 8, &[]),
            err(33, 1, "operand count 0 outside 1..=64"),
        ),
        (
            "SUM of 65",
            sum(34, 0, 8, &sixty_five),
            err(34, 1, "operand count 65 outside 1..=64"),
        ),
        // Faults: programs.
        (
            "PROG of 0",
            prog(35, 0, 8, b"i0+i0", &[]),
            err(35, 1, "operand count 0 outside 1..=64"),
        ),
        (
            "PROG of 65",
            prog(36, 0, 8, b"i0+i0", &sixty_five),
            err(36, 1, "operand count 65 outside 1..=64"),
        ),
        (
            "PROG spec cut",
            frame(
                0x03,
                &[head(37, 0, 8, 1), vec![9, 0], b"i0+".to_vec()].concat(),
            ),
            err(37, 1, "PROG spec is truncated"),
        ),
        (
            "PROG bad spec",
            prog(38, 0, 8, b"i0-i1", &[&[1], &[2]]),
            err(38, 1, "program spec: bad program spec token `i0-i1`"),
        ),
        (
            "PROG spec not utf-8",
            prog(39, 0, 8, &[0xff, 0xfe], &[&[1], &[2]]),
            err(39, 1, "PROG spec is not utf-8"),
        ),
        (
            "PROG operand cut",
            frame(
                0x03,
                &[head(40, 0, 8, 2), vec![5, 0], b"i0+i1".to_vec(), le(&[1])].concat(),
            ),
            err(40, 1, "PROG is missing operand 1 of 2"),
        ),
        // Faults: commands.
        (
            "ENGINES with a body",
            frame(0x10, &[0]),
            err(0, 1, "ENGINES/STATS frames carry no body"),
        ),
        (
            "STATS with a body",
            frame(0x11, &[0]),
            err(0, 1, "ENGINES/STATS frames carry no body"),
        ),
        (
            "SLO action 3",
            slo(3, 0),
            err(0, 1, "SLO action 3 with micros 0 is invalid"),
        ),
        (
            "SLO set 0",
            slo(1, 0),
            err(0, 1, "SLO action 1 with micros 0 is invalid"),
        ),
        (
            "SLO cut",
            frame(0x12, &[1, 0, 0]),
            err(0, 1, "SLO frames are action u8 + micros u64"),
        ),
        // Two faults in one request: each codec keeps its precedence.
        (
            "bad width and unknown engine id",
            add(41, 200, 0, &[], &[]),
            err(41, 3, "width 0 outside 1..=4096"),
        ),
        (
            "unknown engine id and stray bits",
            add(42, 200, 8, &[0x100], &[0]),
            err(42, 2, &unknown_id),
        ),
        (
            "ADD stray bits and trailing bytes",
            frame(
                0x01,
                &[head(43, 0, 8, 2), le(&[0x100, 0]), vec![0]].concat(),
            ),
            err(43, 1, "ADD body has 1 trailing bytes"),
        ),
        (
            "SUM stray bits and trailing bytes",
            frame(0x02, &[head(44, 0, 8, 1), le(&[0x100]), vec![0]].concat()),
            err(44, 4, "operand 0: bits set at or above width 8"),
        ),
        (
            "PROG of 65 with a bad spec",
            prog(45, 0, 8, b"i0-i1", &sixty_five),
            err(45, 1, "operand count 65 outside 1..=64"),
        ),
        ("STATS", frame(0x11, &[]), frame_stats(50, "off", true)),
    ];

    let server = server();
    let (mut stream, mut reader) = connect(&server);
    stream.write_all(b"HELLO BIN 1\n").expect("write");
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("ack");
    assert_eq!(ack, "HELLO BIN 1\n");
    let wrong = run_frames(&mut stream, &mut reader, &script);
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));

    // A header the server cannot trust is answered once, then the
    // connection closes.
    for (header, want) in [
        (
            [9u8, 0x01, 0, 0, 0, 0],
            "unsupported protocol version 9 (this build speaks 1)",
        ),
        (
            [1u8, 0x01, 0x01, 0x00, 0x01, 0x00],
            "frame body of 65537 bytes exceeds the 65536-byte cap",
        ),
    ] {
        let (mut stream, mut reader) = connect(&server);
        stream.write_all(b"HELLO BIN 1\n").expect("write");
        let mut ack = String::new();
        reader.read_line(&mut ack).expect("ack");
        stream.write_all(&header).expect("write");
        assert_eq!(show(&read_frame(&mut reader)), show(&err(0, 1, want)));
        expect_eof(&mut reader);
    }
    server.shutdown();
}
