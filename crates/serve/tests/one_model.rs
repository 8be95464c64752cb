//! One request model, two codecs. Random requests of every kind decode to
//! equal [`Request`]s from their text line and from their frame, and
//! every fault both framings can express gets the same code and `seq`
//! from both decoders. Each random case names its seed when it fails, so
//! it can be replayed: the vendored proptest shim does not shrink.

use bitnum::rng::{RandomBits, Xoshiro256};
use bitnum::UBig;
use vlcsa::engine::Registry;
use vlcsa::program::{Operand, Program, MAX_PROGRAM_INPUTS, MAX_PROGRAM_STEPS};
use vlcsa_serve::binary::{self, ENGINE_ID_AUTO, HEADER_LEN};
use vlcsa_serve::protocol::{format_add, format_program, format_sum, parse_request};
use vlcsa_serve::{ErrorCode, Request, RequestError, SloAction, AUTO_ENGINE};

/// The widths every run covers, before the random ones.
const EDGE_WIDTHS: [usize; 6] = [1, 63, 64, 65, 4095, 4096];

/// Seeds of the random cases: `BASE_SEED + case`.
const BASE_SEED: u64 = 0x0e0d_e100;

fn below(rng: &mut Xoshiro256, bound: usize) -> usize {
    rng.next_below(bound as u64) as usize
}

/// A random program over `inputs` inputs: 1 to `MAX_PROGRAM_STEPS` steps,
/// each adding two earlier operands.
fn random_program(rng: &mut Xoshiro256, inputs: usize) -> Program {
    let mut program = Program::new(inputs).expect("inputs in range");
    for step in 0..1 + below(rng, MAX_PROGRAM_STEPS) {
        let pick = |rng: &mut Xoshiro256| {
            let k = below(rng, inputs + step);
            if k < inputs {
                Operand::Input(k)
            } else {
                Operand::Temp(k - inputs)
            }
        };
        let (x, y) = (pick(rng), pick(rng));
        program.push(x, y).expect("step in range");
    }
    program
}

/// The request decoded from its text line and from its frame. The text
/// request borrows its engine name from the line, the framed one is the
/// registry's own name; equal names compare equal.
fn both<'a>(
    line: &'a str,
    frame: &[u8],
    names: &[&'static str],
) -> (
    Result<Request<'a>, RequestError>,
    Result<Request<'static>, RequestError>,
) {
    let framed = binary::decode_request(frame[1], &frame[HEADER_LEN..], names);
    (parse_request(line), framed)
}

#[test]
fn every_request_decodes_the_same_from_both_codecs() {
    let names = Registry::for_width(64).names();
    let kinds = 6;
    for case in 0..240u64 {
        let seed = BASE_SEED + case;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let width = match EDGE_WIDTHS.get(case as usize / kinds) {
            Some(&width) => width,
            None => 1 + below(&mut rng, bitnum::MAX_WIDTH),
        };
        let seq = rng.next_u64();
        let pick = below(&mut rng, names.len() + 1);
        let (engine, id) = match names.get(pick) {
            Some(&engine) => (engine, pick as u8),
            None => (AUTO_ENGINE, ENGINE_ID_AUTO),
        };
        let n = 1 + below(&mut rng, MAX_PROGRAM_INPUTS);
        let operands: Vec<UBig> = (0..n).map(|_| UBig::random(width, &mut rng)).collect();
        let (line, frame, want) = match case as usize % kinds {
            0 => {
                let (a, b) = (&operands[0], &UBig::random(width, &mut rng));
                (
                    format_add(seq, engine, a, b),
                    binary::encode_add(seq, id, width, a.limbs(), b.limbs()),
                    Request::Add {
                        seq,
                        engine,
                        a: a.clone(),
                        b: b.clone(),
                    },
                )
            }
            1 => (
                format_sum(seq, engine, &operands),
                binary::encode_sum(seq, id, &operands),
                Request::Sum {
                    seq,
                    engine,
                    operands: operands.clone(),
                },
            ),
            2 => {
                let program = random_program(&mut rng, n);
                (
                    format_program(seq, engine, &program, &operands),
                    binary::encode_program(seq, id, &program, &operands),
                    Request::Program {
                        seq,
                        engine,
                        program,
                        inputs: operands.clone(),
                    },
                )
            }
            3 => (
                "ENGINES".into(),
                binary::encode_engines_request(),
                Request::Engines,
            ),
            4 => (
                "STATS".into(),
                binary::encode_stats_request(),
                Request::Stats,
            ),
            _ => {
                let micros = 1 + rng.next_u64() % 1_000_000;
                let (line, action) = match below(&mut rng, 3) {
                    0 => ("SLO".to_string(), SloAction::Query),
                    1 => (format!("SLO {micros}"), SloAction::Set(micros)),
                    _ => ("SLO off".to_string(), SloAction::Clear),
                };
                (
                    line,
                    binary::encode_slo_request(action),
                    Request::Slo(action),
                )
            }
        };
        let (text, framed) = both(&line, &frame, &names);
        assert_eq!(text.as_ref(), Ok(&want), "seed {seed:#x}: text `{line}`");
        assert_eq!(framed.as_ref(), Ok(&want), "seed {seed:#x}: frame");
    }
}

/// A hand-built `SUM`/`PROG` frame: `opcode`, the head, then `rest`.
fn computing_frame(opcode: u8, seq: u64, width: u16, nops: u16, rest: &[u8]) -> Vec<u8> {
    let mut body = seq.to_le_bytes().to_vec();
    body.push(0);
    body.extend_from_slice(&width.to_le_bytes());
    body.extend_from_slice(&nops.to_le_bytes());
    body.extend_from_slice(rest);
    let mut frame = vec![binary::PROTOCOL_VERSION, opcode];
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

fn le(limbs: &[u64]) -> Vec<u8> {
    limbs.iter().flat_map(|l| l.to_le_bytes()).collect()
}

/// A `PROG` spec field: its length, then its bytes.
fn spec(spec: &str) -> Vec<u8> {
    [(spec.len() as u16).to_le_bytes().to_vec(), spec.into()].concat()
}

#[test]
fn every_shared_fault_gets_the_same_code_from_both_codecs() {
    let names = Registry::for_width(64).names();
    let mut rng = Xoshiro256::seed_from_u64(BASE_SEED);
    let ones = |n: usize| " 1".repeat(n);
    let mut cases: Vec<(String, Vec<u8>, ErrorCode)> = Vec::new();
    for (seq, width) in [(11u64, 0usize), (12, 4097)] {
        let nl = width.div_ceil(64);
        cases.push((
            format!("ADD {seq} ripple {width} 1 1"),
            binary::encode_add(seq, 0, width, &vec![1; nl], &vec![1; nl]),
            ErrorCode::BadWidth,
        ));
        cases.push((
            format!("SUM {seq} ripple {width} 1 1"),
            computing_frame(binary::op::SUM, seq, width as u16, 1, &le(&vec![1; nl])),
            ErrorCode::BadWidth,
        ));
        cases.push((
            format!("PROG {seq} ripple {width} 1 i0+i0 1"),
            computing_frame(
                binary::op::PROG,
                seq,
                width as u16,
                1,
                &[spec("i0+i0"), le(&vec![1; nl])].concat(),
            ),
            ErrorCode::BadWidth,
        ));
    }
    for (seq, n) in [(21u64, 0usize), (22, MAX_PROGRAM_INPUTS + 1)] {
        cases.push((
            format!("SUM {seq} ripple 8 {n}{}", ones(n)),
            computing_frame(binary::op::SUM, seq, 8, n as u16, &le(&vec![1; n])),
            ErrorCode::BadRequest,
        ));
        cases.push((
            format!("PROG {seq} ripple 8 {n} i0+i0{}", ones(n)),
            computing_frame(
                binary::op::PROG,
                seq,
                8,
                n as u16,
                &[spec("i0+i0"), le(&vec![1; n])].concat(),
            ),
            ErrorCode::BadRequest,
        ));
    }
    // An operand one bit too wide, at widths that end inside a limb.
    for (seq, width) in (31u64..).zip([1usize, 8, 63, 65, 100, 4095]) {
        let nl = width.div_ceil(64);
        let mut wide = vec![0u64; nl];
        wide[nl - 1] = 1 << (width % 64);
        let hex = format!("{:x}", bitnum::HexLimbs(&wide));
        let other = UBig::random(width, &mut rng);
        cases.push((
            format!("ADD {seq} ripple {width} {:x} {hex}", other),
            binary::encode_add(seq, 0, width, other.limbs(), &wide),
            ErrorCode::BadOperand,
        ));
        cases.push((
            format!("SUM {seq} ripple {width} 2 {hex} {:x}", other),
            computing_frame(
                binary::op::SUM,
                seq,
                width as u16,
                2,
                &[le(&wide), le(other.limbs())].concat(),
            ),
            ErrorCode::BadOperand,
        ));
    }
    for (seq, bad) in (41u64..).zip(["i0-i1", "t0+i0", "i0+i9", "i0+", ","]) {
        cases.push((
            format!("PROG {seq} ripple 8 2 {bad} 1 2"),
            computing_frame(
                binary::op::PROG,
                seq,
                8,
                2,
                &[spec(bad), le(&[1, 2])].concat(),
            ),
            ErrorCode::BadRequest,
        ));
    }
    for (line, frame, code) in &cases {
        let (text, framed) = both(line, frame, &names);
        let (text, framed) = (text.expect_err(line), framed.expect_err(line));
        assert_eq!(
            (text.code, text.seq),
            (*code, framed.seq),
            "`{line}`: text {text:?}"
        );
        assert_eq!(framed.code, *code, "`{line}`: frame {framed:?}");
    }
}
