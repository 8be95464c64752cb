//! Requests start no threads. A connection's reader runs its reads' issue
//! groups itself, and an in-process submit runs its group on the calling
//! thread, so a lane registers (it shows in `STATS`) but starts no
//! workers: one client naming many `(engine, width)` pairs, on the wire or
//! in process, cannot make the service spawn threads.
//!
//! The test counts the process's threads, so it lives alone in this file:
//! no other test's threads share the process while it counts.

#[cfg(target_os = "linux")]
#[test]
fn wire_requests_at_64_widths_start_no_threads() {
    use bitnum::UBig;
    use vlcsa_serve::{Client, ServeConfig, Server, Service};

    /// The `Threads:` line of `/proc/self/status`.
    fn threads() -> usize {
        std::fs::read_to_string("/proc/self/status")
            .expect("procfs")
            .lines()
            .find_map(|line| line.strip_prefix("Threads:"))
            .expect("a Threads: line")
            .trim()
            .parse()
            .expect("a thread count")
    }

    let server = Server::start("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Once its first request is answered, the connection's reader exists.
    assert!(client.stats().expect("STATS").lanes.is_empty());
    let before = threads();
    for width in 1..=64 {
        let (a, b) = (UBig::from_u128(1, width), UBig::from_u128(1, width));
        client.submit("vlcsa1", &a, &b).expect("submit");
    }
    for _ in 0..64 {
        let (seq, response) = client.recv().expect("recv");
        response.unwrap_or_else(|e| panic!("seq {seq}: {e:?}"));
    }
    let stats = client.stats().expect("STATS");
    assert_eq!(stats.lanes.len(), 64, "{:?}", stats.lanes);
    assert_eq!(threads(), before, "wire requests started threads");
    client.close();
    server.shutdown();

    // The same 64 widths through `Service::submit`, in process.
    let service = Service::start(ServeConfig::default());
    let before = threads();
    for width in 1..=64 {
        let (a, b) = (UBig::from_u128(1, width), UBig::from_u128(1, width));
        let reply = Box::new(move |r: vlcsa_serve::AddResult| {
            assert_eq!(r.sum.to_u128(), Some(2 % (1u128 << width)));
        });
        service.submit("vlcsa1", a, b, reply).expect("submit");
    }
    assert_eq!(service.stats().lanes.len(), 64);
    assert_eq!(threads(), before, "in-process submits started threads");
    service.shutdown();
}
