//! End-to-end service throughput and latency over TCP loopback, with a
//! machine-readable result file.
//!
//! This is the serving-shaped benchmark the batching front-end exists
//! for: a `vlcsa_serve::Server` on a loopback port, several concurrent
//! client connections, each keeping a bounded number of pipelined `ADD`s
//! in flight, Gaussian operands (the paper's practical operand model) at
//! width 64. Per engine it records aggregate requests/s, per-request
//! latency percentiles (submit-to-response, measured at the client), and
//! the served stall rate — so the variable-latency engines' extra
//! recovery cycles are visible next to their fixed-latency baselines
//! under identical traffic.
//!
//! The second dimension is the reduction path: the same traffic shape
//! drives pipelined `SUM`s of [`SUM_N`] operands, where the server
//! compresses carry-save style and resolves carries exactly once per
//! request. Each engine's sums/s is compared against the rate the same
//! engine completes 8-operand reductions as 8 independent `ADD`s
//! (`adds_per_sec / 8`) — the `vs_independent_adds` ratio recorded per
//! engine, with a ≥2× floor on full runs (EXPERIMENTS.md).
//!
//! The third dimension is delegation: the same `ADD` and `SUM` traffic
//! once more, naming the `auto` pseudo-engine instead of a concrete
//! family, so the router's EWMA-driven pick is measured under identical
//! load. On full runs the `auto` rows carry floors: requests/s must beat
//! the worst static engine and reach ≥90% of the best (routing overhead
//! must not eat the win it selects).
//!
//! The fourth dimension is the wire format: the identical `ADD` engine
//! mix once more over clients that negotiated the binary protocol
//! ([`Client::connect_binary`]), so operands travel as raw little-endian
//! limbs into the zero-copy ingress path instead of hex text. The
//! `binary_vs_text` summary records the aggregate req/s of each framing
//! over the same mix; on full runs binary must clear ≥1.2× text — the
//! framing has to pay for its existence.
//!
//! The fifth dimension is head-of-line isolation — the claim the
//! per-lane runtime exists for. A second server carries the production
//! registry plus a synthetic `sleepy` engine whose `add_batch` holds the
//! thread running its group — the driving connection's reader — for
//! [`STALL_MS`] per batch; a background client keeps
//! the sleepy lane saturated while every static engine is re-measured
//! under identical traffic. Per engine the run records unstalled vs
//! stalled req/s and p99 and their `retained` ratio, with a ≥80%
//! retention floor on full runs — a runtime that ran every group on one
//! shared thread would serialize everyone behind [`STALL_MS`] naps.
//!
//! Every response is verified against exact addition while it is timed;
//! a wrong sum aborts the bench. The full run writes `BENCH_serve.json`
//! (schema `vlcsa-bench/serve/v5`, documented in EXPERIMENTS.md).
//! `-- --smoke` (the CI loopback smoke, run at both word widths) shrinks
//! the op counts to milliseconds, keeps the exactness assertions (the
//! throughput floors need real budgets), and skips the JSON write.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitnum::batch::{BitSlab, DefaultWord};
use bitnum::UBig;
use vlcsa::batch::BatchOutcome;
use vlcsa::engine::{Engine, Registry, ScalarEngine};
use vlcsa::route::{RouteConfig, Router};
use vlcsa::AddOutcome;
use vlcsa_serve::{Client, Program, RegistryCache, ServeConfig, Server, Service};
use workloads::dist::{Distribution, OperandSource};

const WIDTH: usize = 64;
const ENGINES: [&str; 4] = ["ripple", "carry-select", "vlcsa1", "vlcsa2"];
/// The router-delegated row, measured after the static engines so the
/// registry families the statics exercised are already warm estimates.
const AUTO: &str = "auto";
const CLIENTS: usize = 4;
const IN_FLIGHT: usize = 64;
/// Operand count of the reduction dimension (the acceptance shape).
const SUM_N: usize = 8;

/// How long the synthetic stalled engine parks the thread running its
/// group inside every `add_batch`, server-side.
const STALL_MS: u64 = 2;
/// Registry name of the synthetic stalled engine.
const STALLED: &str = "sleepy";
/// Full-run floor: each engine must retain at least this fraction of its
/// unstalled req/s while the sleepy lane is saturated.
const RETAINED_FLOOR: f64 = 0.8;

/// What each pipelined request carries.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// v1 `ADD`: one addition per request.
    Add,
    /// `SUM` of [`SUM_N`] operands: one whole reduction per request.
    Sum,
}

/// Which wire format the measuring clients speak.
#[derive(Clone, Copy, PartialEq)]
enum Proto {
    /// Newline-delimited hex text (protocol v1).
    Text,
    /// `HELLO`-negotiated limb frames (protocol v2).
    Binary,
}

/// One engine's measured service point.
struct Point {
    engine: &'static str,
    ops: usize,
    elapsed: Duration,
    /// Per-request submit→response latencies, seconds.
    latencies: Vec<f64>,
    stalls: u64,
}

impl Point {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    fn percentile_us(&self, q: f64) -> f64 {
        // `latencies` is sorted by `measure` before the point is returned.
        let idx = ((self.latencies.len() - 1) as f64 * q).round() as usize;
        self.latencies[idx] * 1e6
    }

    fn stall_rate(&self) -> f64 {
        self.stalls as f64 / self.ops as f64
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\"engine\": \"{}\", \"ops\": {}, \"ops_per_sec\": {:.0}, ",
                "\"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, ",
                "\"stall_rate\": {:.4}}}"
            ),
            self.engine,
            self.ops,
            self.ops_per_sec(),
            self.percentile_us(0.50),
            self.percentile_us(0.95),
            self.percentile_us(0.99),
            self.stall_rate(),
        )
    }
}

/// The synthetic stalled engine of the isolation dimension: correct
/// sums (it delegates to ripple), but every batch parks the thread
/// running its group for [`STALL_MS`] first.
struct SleepyEngine {
    inner: Box<dyn Engine<DefaultWord>>,
}

impl ScalarEngine for SleepyEngine {
    fn name(&self) -> &'static str {
        STALLED
    }

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn add_one(&self, a: &UBig, b: &UBig) -> AddOutcome {
        self.inner.add_one(a, b)
    }
}

impl Engine<DefaultWord> for SleepyEngine {
    fn add_batch(
        &self,
        a: &BitSlab<DefaultWord>,
        b: &BitSlab<DefaultWord>,
    ) -> BatchOutcome<DefaultWord> {
        std::thread::sleep(Duration::from_millis(STALL_MS));
        self.inner.add_batch(a, b)
    }
}

/// The production registry plus the `sleepy` engine at every width.
fn sleepy_cache() -> RegistryCache {
    RegistryCache::with_factory(|width| {
        let mut engines = Registry::for_width(width).into_engines();
        let inner = Registry::for_width(width)
            .into_engines()
            .into_iter()
            .find(|e| e.name() == "ripple")
            .expect("ripple registered at every width");
        engines.push(Box::new(SleepyEngine { inner }));
        Registry::from_engines(width, engines)
    })
}

/// One engine's isolation comparison: the same traffic with the sleepy
/// lane idle and with it saturated.
struct IsolationRow {
    unstalled: Point,
    stalled: Point,
}

impl IsolationRow {
    fn retained(&self) -> f64 {
        self.stalled.ops_per_sec() / self.unstalled.ops_per_sec()
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\"engine\": \"{}\", \"unstalled_ops_per_sec\": {:.0}, ",
                "\"stalled_ops_per_sec\": {:.0}, \"unstalled_p99_us\": {:.1}, ",
                "\"stalled_p99_us\": {:.1}, \"retained\": {:.3}}}"
            ),
            self.unstalled.engine,
            self.unstalled.ops_per_sec(),
            self.stalled.ops_per_sec(),
            self.unstalled.percentile_us(0.99),
            self.stalled.percentile_us(0.99),
            self.retained(),
        )
    }
}

/// Keeps the sleepy lane saturated (a few pipelined requests, each
/// holding the thread that runs its group for [`STALL_MS`]) until `stop`, verifying
/// every response. Returns how many stalled requests were served.
fn drive_stalled_lane(addr: SocketAddr, stop: &AtomicBool) -> usize {
    let mut client = Client::connect(addr).expect("stall driver connect");
    let mut src = OperandSource::new(Distribution::paper_gaussian(), WIDTH, 0xD1E);
    let mut pending: HashMap<u64, UBig> = HashMap::new();
    let mut served = 0usize;
    while !stop.load(Ordering::Relaxed) {
        while pending.len() < 4 {
            let (a, b) = src.next_pair();
            let (sum, _) = a.overflowing_add(&b);
            pending.insert(client.submit(STALLED, &a, &b).expect("stall submit"), sum);
        }
        let (seq, response) = client.recv().expect("stall recv");
        let response = response.expect("stalled lane error");
        let sum = pending.remove(&seq).expect("known stall seq");
        assert_eq!(response.sum, sum, "stalled lane returned a wrong sum");
        served += 1;
    }
    while !pending.is_empty() {
        let (seq, response) = client.recv().expect("stall drain");
        let sum = pending.remove(&seq).expect("known stall seq");
        assert_eq!(
            response.expect("stalled lane error").sum,
            sum,
            "stalled lane returned a wrong sum on drain"
        );
    }
    client.close();
    served
}

/// Drives `ops_per_client` verified requests per client against one
/// engine and collects every request's latency. For [`Kind::Sum`] each
/// request is a whole [`SUM_N`]-operand reduction, verified against the
/// scalar carry-save lowering (exact sum *and* the single resolve's
/// carry-out).
fn measure(
    addr: SocketAddr,
    engine: &'static str,
    ops_per_client: usize,
    kind: Kind,
    proto: Proto,
) -> Point {
    let sum_program = Program::sum(SUM_N).expect("small sum program");
    let sum_program = &sum_program;
    let start = Instant::now();
    let worker = |c: usize| {
        let mut client = match proto {
            Proto::Text => Client::connect(addr).expect("connect"),
            Proto::Binary => Client::connect_binary(addr).expect("binary handshake"),
        };
        let mut src = OperandSource::new(Distribution::paper_gaussian(), WIDTH, 0x5EB7E + c as u64);
        let mut submitted_at: HashMap<u64, (Instant, UBig, bool)> = HashMap::new();
        let mut latencies = Vec::with_capacity(ops_per_client);
        let mut stalls = 0u64;
        let drain = |client: &mut Client,
                     submitted_at: &mut HashMap<u64, (Instant, UBig, bool)>,
                     latencies: &mut Vec<f64>,
                     stalls: &mut u64| {
            let (seq, response) = client.recv().expect("recv");
            let response = response.expect("request error under benchmark traffic");
            let (at, sum, cout) = submitted_at.remove(&seq).expect("known seq");
            latencies.push(at.elapsed().as_secs_f64());
            assert_eq!(response.sum, sum, "{engine} seq {seq}: wrong sum");
            assert_eq!(response.cout, cout, "{engine} seq {seq}: wrong cout");
            *stalls += u64::from(response.cycles == 2);
        };
        for _ in 0..ops_per_client {
            if submitted_at.len() >= IN_FLIGHT {
                drain(&mut client, &mut submitted_at, &mut latencies, &mut stalls);
            }
            let (seq, sum, cout) = match kind {
                Kind::Add => {
                    let (a, b) = src.next_pair();
                    let (sum, cout) = a.overflowing_add(&b);
                    let seq = client.submit(engine, &a, &b).expect("submit");
                    (seq, sum, cout)
                }
                Kind::Sum => {
                    let ops: Vec<UBig> = (0..SUM_N).map(|_| src.next_operand()).collect();
                    let (x, y) = sum_program.csa_pair_scalar(&ops);
                    let (sum, cout) = x.overflowing_add(&y);
                    let seq = client.submit_sum(engine, &ops).expect("submit sum");
                    (seq, sum, cout)
                }
            };
            submitted_at.insert(seq, (Instant::now(), sum, cout));
        }
        while !submitted_at.is_empty() {
            drain(&mut client, &mut submitted_at, &mut latencies, &mut stalls);
        }
        client.close();
        (latencies, stalls)
    };
    let results: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || worker(c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut latencies = Vec::with_capacity(CLIENTS * ops_per_client);
    let mut stalls = 0;
    for (lats, s) in results {
        latencies.extend(lats);
        stalls += s;
    }
    latencies.sort_by(f64::total_cmp);
    Point {
        engine,
        ops: CLIENTS * ops_per_client,
        elapsed,
        latencies,
        stalls,
    }
}

/// Aggregate req/s of a sequence of runs over one engine mix: total
/// requests over total wall-clock (the runs are sequential).
fn aggregate_ops_per_sec(points: &[Point]) -> f64 {
    let ops: usize = points.iter().map(|p| p.ops).sum();
    let secs: f64 = points.iter().map(|p| p.elapsed.as_secs_f64()).sum();
    ops as f64 / secs
}

fn write_json(
    points: &[Point],
    binary_points: &[Point],
    sum_points: &[Point],
    isolation: &[IsolationRow],
    host_cpus: usize,
    path: &std::path::Path,
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"vlcsa-bench/serve/v5\",\n");
    out.push_str("  \"generated_by\": \"cargo bench -p vlcsa-bench --bench serve\",\n");
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!("  \"width\": {WIDTH},\n"));
    out.push_str(&format!("  \"clients\": {CLIENTS},\n"));
    out.push_str(&format!("  \"in_flight_per_client\": {IN_FLIGHT},\n"));
    out.push_str("  \"distribution\": \"gaussian(sigma=2^24)\",\n");
    out.push_str("  \"units\": {\"ops_per_sec\": \"requests/s over TCP loopback\", \"p50_us\": \"microseconds submit-to-response\", \"stall_rate\": \"fraction of requests served in 2 cycles\", \"vs_independent_adds\": \"sums/s over (adds/s / n): reductions served per second vs issuing n independent ADDs\", \"binary_vs_text\": \"aggregate binary-framing ADD req/s over aggregate text req/s, same engine mix\", \"retained\": \"stalled_ops_per_sec over unstalled_ops_per_sec while the sleepy lane is saturated\"},\n");
    // The v4 wire-format summary: the same ADD engine mix over both
    // framings, so the ≥1.2× floor is checkable from the JSON alone.
    out.push_str(&format!(
        concat!(
            "  \"binary_vs_text\": {{\"text_ops_per_sec\": {:.0}, ",
            "\"binary_ops_per_sec\": {:.0}, \"ratio\": {:.3}}},\n"
        ),
        aggregate_ops_per_sec(points),
        aggregate_ops_per_sec(binary_points),
        aggregate_ops_per_sec(binary_points) / aggregate_ops_per_sec(points),
    ));
    // The v3 delegation summary: the `auto` row against the static
    // envelope, so the EXPERIMENTS.md floors are checkable from the JSON
    // alone (entries still carry the full per-engine rows).
    let auto = points
        .iter()
        .find(|p| p.engine == AUTO)
        .expect("auto point measured");
    let statics: Vec<&Point> = points.iter().filter(|p| p.engine != AUTO).collect();
    let worst = statics
        .iter()
        .map(|p| p.ops_per_sec())
        .fold(f64::INFINITY, f64::min);
    let best = statics.iter().map(|p| p.ops_per_sec()).fold(0.0, f64::max);
    out.push_str(&format!(
        concat!(
            "  \"auto_vs_static\": {{\"auto_ops_per_sec\": {:.0}, ",
            "\"worst_static_ops_per_sec\": {:.0}, \"best_static_ops_per_sec\": {:.0}, ",
            "\"fraction_of_best\": {:.3}}},\n"
        ),
        auto.ops_per_sec(),
        worst,
        best,
        auto.ops_per_sec() / best,
    ));
    // The v5 isolation dimension: per-engine req/s and p99 with the
    // sleepy lane idle vs saturated, so the ≥80% retention floor is
    // checkable from the JSON alone.
    out.push_str(&format!(
        "  \"lane_isolation\": {{\"stalled_engine\": \"{STALLED}\", \"stall_ms\": {STALL_MS}, \"floor_retained\": {RETAINED_FLOOR}, \"entries\": [\n"
    ));
    for (i, row) in isolation.iter().enumerate() {
        out.push_str(&row.to_json());
        out.push_str(if i + 1 < isolation.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]},\n");
    out.push_str("  \"entries\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&p.to_json());
        out.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"binary_entries\": [\n");
    for (i, p) in binary_points.iter().enumerate() {
        out.push_str(&p.to_json());
        out.push_str(if i + 1 < binary_points.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"sum_n\": {SUM_N},\n"));
    out.push_str("  \"sum_entries\": [\n");
    for (i, p) in sum_points.iter().enumerate() {
        let add = points
            .iter()
            .find(|a| a.engine == p.engine)
            .expect("matching ADD point");
        out.push_str(&format!(
            concat!(
                "    {{\"engine\": \"{}\", \"n\": {}, \"sums\": {}, \"sums_per_sec\": {:.0}, ",
                "\"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, ",
                "\"stall_rate\": {:.4}, \"vs_independent_adds\": {:.2}}}"
            ),
            p.engine,
            SUM_N,
            p.ops,
            p.ops_per_sec(),
            p.percentile_us(0.50),
            p.percentile_us(0.95),
            p.percentile_us(0.99),
            p.stall_rate(),
            p.ops_per_sec() / (add.ops_per_sec() / SUM_N as f64),
        ));
        out.push_str(if i + 1 < sum_points.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let ops_per_client = if smoke { 256 } else { 8192 };
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);

    let server = Server::start("127.0.0.1:0", ServeConfig::default()).expect("bind loopback");
    let addr = server.local_addr();

    println!(
        "{:<14} {:>8} {:>12} {:>9} {:>9} {:>9} {:>11}",
        "engine", "ops", "ops/s", "p50 µs", "p95 µs", "p99 µs", "stall rate"
    );
    let mut points = Vec::new();
    for engine in ENGINES.into_iter().chain(std::iter::once(AUTO)) {
        let point = measure(addr, engine, ops_per_client, Kind::Add, Proto::Text);
        println!(
            "{:<14} {:>8} {:>12.0} {:>9.1} {:>9.1} {:>9.1} {:>11.4}",
            point.engine,
            point.ops,
            point.ops_per_sec(),
            point.percentile_us(0.50),
            point.percentile_us(0.95),
            point.percentile_us(0.99),
            point.stall_rate(),
        );
        points.push(point);
    }

    println!(
        "\n{:<14} {:>8} {:>12} {:>9} {:>9} {:>9} {:>11}",
        "engine (bin)", "ops", "ops/s", "p50 µs", "p95 µs", "p99 µs", "stall rate"
    );
    let mut binary_points = Vec::new();
    for engine in ENGINES.into_iter().chain(std::iter::once(AUTO)) {
        let point = measure(addr, engine, ops_per_client, Kind::Add, Proto::Binary);
        println!(
            "{:<14} {:>8} {:>12.0} {:>9.1} {:>9.1} {:>9.1} {:>11.4}",
            point.engine,
            point.ops,
            point.ops_per_sec(),
            point.percentile_us(0.50),
            point.percentile_us(0.95),
            point.percentile_us(0.99),
            point.stall_rate(),
        );
        binary_points.push(point);
    }

    println!(
        "\n{:<14} {:>8} {:>12} {:>9} {:>9} {:>9} {:>11} {:>8}",
        "engine", "sums", "sums/s", "p50 µs", "p95 µs", "p99 µs", "stall rate", "vs 8×ADD"
    );
    let mut sum_points = Vec::new();
    for add in &points {
        let point = measure(addr, add.engine, ops_per_client, Kind::Sum, Proto::Text);
        println!(
            "{:<14} {:>8} {:>12.0} {:>9.1} {:>9.1} {:>9.1} {:>11.4} {:>7.2}x",
            point.engine,
            point.ops,
            point.ops_per_sec(),
            point.percentile_us(0.50),
            point.percentile_us(0.95),
            point.percentile_us(0.99),
            point.stall_rate(),
            point.ops_per_sec() / (add.ops_per_sec() / SUM_N as f64),
        );
        sum_points.push(point);
    }

    let shutdown_started = Instant::now();
    server.shutdown();
    assert!(
        shutdown_started.elapsed() < Duration::from_secs(10),
        "server shutdown exceeded its bound"
    );
    println!(
        "\nserver shut down cleanly in {:?}",
        shutdown_started.elapsed()
    );

    // Fifth dimension: head-of-line isolation. A fresh server whose
    // registry carries the sleepy engine; each static engine is measured
    // with the sleepy lane idle, then again while a background client
    // keeps it saturated with [`STALL_MS`]-per-batch requests.
    let iso_service = Service::start_custom(
        ServeConfig::default(),
        Arc::new(Router::new(RouteConfig::default())),
        Arc::new(sleepy_cache()),
    );
    let iso_server =
        Server::start_with_service("127.0.0.1:0", iso_service).expect("bind isolation server");
    let iso_addr = iso_server.local_addr();
    println!(
        "\n{:<14} {:>14} {:>14} {:>12} {:>12} {:>9}",
        "engine", "unstalled/s", "stalled/s", "p99 µs", "p99 µs (st)", "retained"
    );
    let unstalled: Vec<Point> = ENGINES
        .into_iter()
        .map(|engine| measure(iso_addr, engine, ops_per_client, Kind::Add, Proto::Text))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let driver = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || drive_stalled_lane(iso_addr, &stop))
    };
    let isolation: Vec<IsolationRow> = unstalled
        .into_iter()
        .map(|unstalled| {
            let stalled = measure(
                iso_addr,
                unstalled.engine,
                ops_per_client,
                Kind::Add,
                Proto::Text,
            );
            let row = IsolationRow { unstalled, stalled };
            println!(
                "{:<14} {:>14.0} {:>14.0} {:>12.1} {:>12.1} {:>8.1}%",
                row.unstalled.engine,
                row.unstalled.ops_per_sec(),
                row.stalled.ops_per_sec(),
                row.unstalled.percentile_us(0.99),
                row.stalled.percentile_us(0.99),
                100.0 * row.retained(),
            );
            row
        })
        .collect();
    stop.store(true, Ordering::Relaxed);
    let stalled_served = driver.join().expect("stall driver");
    iso_server.shutdown();
    println!("sleepy lane served {stalled_served} requests at {STALL_MS}ms per batch");
    assert!(
        stalled_served > 0,
        "the stalled lane never served — the isolation runs measured nothing"
    );
    if !smoke {
        for row in &isolation {
            assert!(
                row.retained() >= RETAINED_FLOOR,
                "{}: retained {:.1}% of unstalled throughput with the sleepy lane \
                 saturated, below the {:.0}% floor",
                row.unstalled.engine,
                100.0 * row.retained(),
                100.0 * RETAINED_FLOOR,
            );
        }
    }

    // The variable-latency engines must show their latency model under
    // this traffic: Gaussian operands stall VLCSA 1 but are absorbed by
    // VLCSA 2's second speculative result (Ch. 6).
    let stall = |name: &str| {
        points
            .iter()
            .find(|p| p.engine == name)
            .expect("measured")
            .stall_rate()
    };
    assert!(stall("ripple") == 0.0 && stall("carry-select") == 0.0);
    assert!(
        stall("vlcsa1") > 0.0,
        "vlcsa1 must stall on Gaussian traffic"
    );
    assert!(stall("vlcsa2") < stall("vlcsa1"));

    // The reduction dimension must actually pay: one SUM request carries
    // a whole 8-operand reduction through the batching window as a single
    // lane, so it has to beat issuing 8 independent ADDs — by ≥2× served
    // reductions/s on full runs (the EXPERIMENTS.md floor), and strictly
    // at all on smoke budgets.
    for (add, sum) in points.iter().zip(&sum_points) {
        let ratio = sum.ops_per_sec() / (add.ops_per_sec() / SUM_N as f64);
        assert!(
            ratio > 1.0,
            "{}: sum-of-{SUM_N} ({:.0}/s) slower than {SUM_N} independent adds ({:.0}/s ÷ {SUM_N})",
            add.engine,
            sum.ops_per_sec(),
            add.ops_per_sec(),
        );
        if !smoke {
            assert!(
                ratio >= 2.0,
                "{}: sum-of-{SUM_N} ratio {ratio:.2} below the 2x floor",
                add.engine
            );
        }
    }

    // The delegation dimension must pay for itself: under identical
    // traffic, routing overhead plus whatever the router picked has to
    // beat the worst static engine outright and stay within 10% of the
    // best (EXPERIMENTS.md floors). Only on full runs — smoke budgets are
    // milliseconds of noise.
    let auto = points
        .iter()
        .find(|p| p.engine == AUTO)
        .expect("auto measured");
    let statics: Vec<&Point> = points.iter().filter(|p| p.engine != AUTO).collect();
    let worst = statics
        .iter()
        .map(|p| p.ops_per_sec())
        .fold(f64::INFINITY, f64::min);
    let best = statics.iter().map(|p| p.ops_per_sec()).fold(0.0, f64::max);
    println!(
        "\nauto: {:.0} req/s vs static [{:.0}, {:.0}] ({:.1}% of best)",
        auto.ops_per_sec(),
        worst,
        best,
        100.0 * auto.ops_per_sec() / best,
    );
    if !smoke {
        assert!(
            auto.ops_per_sec() > worst,
            "auto ({:.0} req/s) does not beat the worst static engine ({worst:.0} req/s)",
            auto.ops_per_sec(),
        );
        assert!(
            auto.ops_per_sec() >= 0.9 * best,
            "auto ({:.0} req/s) below 90% of the best static engine ({best:.0} req/s)",
            auto.ops_per_sec(),
        );
    }

    // The wire format must pay for itself: the binary framing strips hex
    // parsing and formatting from both ends of every request, so over the
    // identical ADD engine mix it has to aggregate ≥1.2× the text req/s on
    // full runs (smoke budgets are milliseconds of noise — exactness was
    // still asserted per response above).
    let text_rate = aggregate_ops_per_sec(&points);
    let binary_rate = aggregate_ops_per_sec(&binary_points);
    println!(
        "\nbinary vs text: {binary_rate:.0} req/s vs {text_rate:.0} req/s ({:.2}x)",
        binary_rate / text_rate,
    );
    if !smoke {
        assert!(
            binary_rate >= 1.2 * text_rate,
            "binary framing ({binary_rate:.0} req/s) below the 1.2x floor over text ({text_rate:.0} req/s)",
        );
    }

    if smoke {
        println!("--smoke: skipping BENCH_serve.json write (budgets too small to be meaningful)");
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    match write_json(
        &points,
        &binary_points,
        &sum_points,
        &isolation,
        host_cpus,
        &path,
    ) {
        Ok(()) => println!("wrote {} (host_cpus = {host_cpus})", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
