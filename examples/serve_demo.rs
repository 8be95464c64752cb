//! End-to-end serve demo: start the batching server on a loopback port,
//! drive it with a pipelined client, and print the per-request latency
//! accounting that makes the variable-latency trade-off visible.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```

use bitnum::UBig;
use vlcsa_serve::{Client, ServeConfig, Server};
use workloads::dist::{Distribution, OperandSource};

fn main() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            max_lanes: 128,
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback");
    println!("serving on {}\n", server.local_addr());

    let mut client = Client::connect(server.local_addr()).expect("connect");
    println!(
        "engines: {}\n",
        client.engines().expect("ENGINES").join(", ")
    );

    // One Gaussian stream (the paper's practical operand model), fanned
    // across a fixed-latency baseline and both VLCSA variants.
    const OPS: usize = 512;
    println!(
        "{:<14} {:>6} {:>8} {:>9} {:>12}",
        "engine", "ops", "stalls", "cycles", "avg latency"
    );
    for engine in ["carry-select", "vlsa", "vlcsa1", "vlcsa2"] {
        let mut src = OperandSource::new(Distribution::paper_gaussian(), 64, 7);
        let mut seqs = Vec::with_capacity(OPS);
        for _ in 0..OPS {
            let (a, b) = src.next_pair();
            seqs.push(client.submit(engine, &a, &b).expect("submit"));
        }
        let (mut cycles, mut stalls) = (0u64, 0u64);
        for _ in 0..OPS {
            let (_, response) = client.recv().expect("recv");
            let response = response.expect("no request errors in the demo");
            cycles += response.cycles as u64;
            stalls += u64::from(response.cycles == 2);
        }
        println!(
            "{engine:<14} {OPS:>6} {stalls:>8} {cycles:>9} {:>11.4}c",
            cycles as f64 / OPS as f64
        );
    }

    // The server-side view of the same accounting: one in-band STATS line
    // with the group bound, the slab word width, the lanes traffic named,
    // and per-engine lane, stall and issue-group totals. The connection's
    // reader runs each read's requests as one group per lane, so `groups`
    // counts reads, not requests.
    let stats = client.stats().expect("STATS");
    println!(
        "\nSTATS: max_lanes={} word_bits={} lanes={}",
        stats.max_lanes,
        stats.word_bits,
        stats.lanes.len()
    );
    for e in &stats.engines {
        println!(
            "  {:<14} lanes={:<6} stalls={:<5} groups={:<5} stall_rate={:.4}",
            e.name,
            e.lanes,
            e.stalls,
            e.groups,
            e.stall_rate()
        );
    }

    // The error path is structured: a bad engine name answers with the
    // registry's names instead of dropping the connection.
    let a = UBig::from_u128(1, 64);
    let seq = client.submit("no-such-adder", &a, &a).expect("submit");
    let (done, response) = client.recv().expect("recv");
    assert_eq!(done, seq);
    println!("\nbad engine name → {}", response.expect_err("ERR").message);

    client.close();
    server.shutdown();
    println!("server shut down cleanly");
}
