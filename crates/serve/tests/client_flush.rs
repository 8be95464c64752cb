//! The client flushes before it blocks: a request submitted while a reply
//! already waits unread is held, and every held request reaches the wire
//! in one write when the client next blocks on a read, closes, or is
//! dropped. A scripted peer plays the server, byte for byte, in both
//! framings.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

use bitnum::UBig;
use vlcsa_serve::binary::{self, HELLO_LINE};
use vlcsa_serve::protocol::{format_add, format_response};
use vlcsa_serve::{Client, Response};

/// The engine every request names; binary frames call it id 0.
const ENGINE: &str = "ripple";
const WIDTH: usize = 64;

/// The operands of request `seq`.
fn operands(seq: u64) -> (UBig, UBig) {
    (
        UBig::from_u128(u128::from(seq) * 1000, WIDTH),
        UBig::from_u128(u128::from(seq), WIDTH),
    )
}

/// Request `seq`'s bytes as the client encodes them today.
fn request(seq: u64, framed: bool) -> Vec<u8> {
    let (a, b) = operands(seq);
    if framed {
        binary::encode_add(seq, 0, WIDTH, a.limbs(), b.limbs())
    } else {
        let mut line = format_add(seq, ENGINE, &a, &b).into_bytes();
        line.push(b'\n');
        line
    }
}

/// The exact answer to request `seq`, encoded.
fn reply(seq: u64, framed: bool) -> Vec<u8> {
    let (a, b) = operands(seq);
    let sum = a.wrapping_add(&b);
    if framed {
        binary::encode_ok(seq, false, 1, sum.limbs())
    } else {
        let mut line = format_response(&Response::Ok {
            seq,
            sum,
            cout: false,
            cycles: 1,
        })
        .into_bytes();
        line.push(b'\n');
        line
    }
}

fn concat(seqs: impl IntoIterator<Item = u64>, encode: impl Fn(u64) -> Vec<u8>) -> Vec<u8> {
    seqs.into_iter().flat_map(encode).collect()
}

/// The server side of one connection, scripted.
struct Peer {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    framed: bool,
}

impl Peer {
    /// Accepts one connection and, for the binary framing, plays the
    /// upgrade handshake: the `HELLO` echo, then a one-engine listing.
    fn accept(listener: &TcpListener, framed: bool) -> Self {
        let (stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut peer = Self {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
            framed,
        };
        if framed {
            let mut hello = String::new();
            peer.reader.read_line(&mut hello).expect("hello");
            assert_eq!(hello, format!("{HELLO_LINE}\n"));
            peer.write(format!("{HELLO_LINE}\n").as_bytes());
            peer.expect(&binary::encode_engines_request());
            peer.write(&binary::encode_response(&Response::Engines(vec![
                ENGINE.into(),
                "auto".into(),
            ])));
        }
        peer
    }

    /// Reads exactly `want.len()` bytes and requires them to be `want`.
    fn expect(&mut self, want: &[u8]) {
        let mut got = vec![0; want.len()];
        self.reader.read_exact(&mut got).expect("request bytes");
        assert_eq!(got, want, "framed: {}", self.framed);
    }

    /// Requires that nothing arrives for `quiet`.
    fn expect_silence(&mut self, quiet: Duration) {
        self.reader
            .get_ref()
            .set_read_timeout(Some(quiet))
            .expect("read timeout");
        let mut byte = [0u8; 1];
        match self.reader.read(&mut byte) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("a held request reached the wire early: {other:?}"),
        }
        self.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
    }

    /// Requires the client to have closed its side.
    fn expect_eof(&mut self) {
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).expect("eof");
        assert!(rest.is_empty(), "bytes after the last request: {rest:?}");
    }

    /// Answers with one write.
    fn write(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("peer write");
    }
}

fn connect(addr: std::net::SocketAddr, framed: bool) -> Client {
    if framed {
        Client::connect_binary(addr).expect("binary connect")
    } else {
        Client::connect(addr).expect("connect")
    }
}

fn submit(client: &mut Client, seq: u64) {
    let (a, b) = operands(seq);
    assert_eq!(client.submit(ENGINE, &a, &b).expect("submit"), seq);
}

fn recv(client: &mut Client, seq: u64) {
    let (done, response) = client.recv().expect("recv");
    assert_eq!(done, seq);
    let (a, b) = operands(seq);
    assert_eq!(response.expect("OK").sum, a.wrapping_add(&b));
}

fn the_client_flushes_before_it_blocks(framed: bool) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (drained_tx, drained_rx) = mpsc::channel();
    let (quiet_tx, quiet_rx) = mpsc::channel();
    let peer = std::thread::spawn(move || {
        let encode = |seq| request(seq, framed);
        let answer = |seq| reply(seq, framed);
        let mut peer = Peer::accept(&listener, framed);
        // With no reply waiting, each submit is written at once.
        peer.expect(&concat(1..=3, encode));
        peer.write(&concat(1..=3, answer));
        // The client took one reply and submitted 4–6 behind the other
        // two: nothing may arrive until it would block.
        drained_rx.recv().expect("the client drained its buffer");
        peer.expect_silence(Duration::from_millis(50));
        quiet_tx.send(()).expect("main thread");
        peer.expect(&concat(4..=6, encode));
        peer.write(&concat(4..=6, answer));
        // Request 7 is held behind replies 5 and 6 when the client closes.
        peer.expect(&encode(7));
        peer.expect_eof();

        // A second connection: request 9 is held when the client drops.
        let mut peer = Peer::accept(&listener, framed);
        peer.expect(&concat(1..=2, encode));
        peer.write(&concat(1..=2, answer));
        peer.expect(&encode(3));
        peer.expect_eof();
    });

    let mut client = connect(addr, framed);
    for seq in 1..=3 {
        submit(&mut client, seq);
    }
    recv(&mut client, 1);
    for seq in 4..=6 {
        submit(&mut client, seq);
    }
    recv(&mut client, 2);
    recv(&mut client, 3);
    drained_tx.send(()).expect("peer thread");
    quiet_rx.recv().expect("the peer saw nothing early");
    // No complete reply is buffered: this read writes 4–6, then blocks.
    recv(&mut client, 4);
    assert_eq!(client.in_flight(), 2);
    submit(&mut client, 7);
    client.close();

    let mut client = connect(addr, framed);
    submit(&mut client, 1);
    submit(&mut client, 2);
    recv(&mut client, 1);
    submit(&mut client, 3);
    drop(client);
    peer.join().expect("the peer saw every request in order");
}

#[test]
fn the_text_client_flushes_before_it_blocks() {
    the_client_flushes_before_it_blocks(false);
}

#[test]
fn the_binary_client_flushes_before_it_blocks() {
    the_client_flushes_before_it_blocks(true);
}
