//! The traced run: the workload once untraced and once with spans (for
//! the tracing overhead and its tail latency), then one fixed probe per
//! layer, each timing the benchmark's own calls into that layer's public
//! functions. Every per-layer metric comes from the same probe whichever
//! workload is named, so the traced runs of all workloads print the same
//! table; see `perfbench/README.md` for the end-to-end metric each one
//! should move.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bitnum::UBig;
use vlcsa::exec::Executor;
use vlcsa::group::LaneBuilder;
use vlcsa::program::Program;
use vlcsa_serve::binary::{self, HEADER_LEN, HELLO_LINE};
use vlcsa_serve::protocol::{self, Response};
use vlcsa_serve::{ByteSession, FrameSink, ResponseSink, ServeConfig, Service};

use crate::host;
use crate::kernel::{self, med, Kernel, Reference};
use crate::report::{median, Report, FAMILIES, VARIABLE_LATENCY};
use crate::serve;
use crate::stream::{self, Req};
use crate::trace::{self, Span};
use crate::{serve_workload, Args};

/// Spans of one traced run, from every thread.
type Spans = Arc<Mutex<Vec<Span>>>;

/// Spans one traced run keeps at most (about 13 MB written out); later
/// ones are timed and used as usual but not stored.
const STORE_CAP: usize = 1 << 18;

fn push(spans: &Spans, s: Span) {
    absorb(spans, [s]);
}

fn absorb(spans: &Spans, more: impl IntoIterator<Item = Span>) {
    let mut store = spans.lock().expect("span store lock");
    let room = STORE_CAP.saturating_sub(store.len());
    store.extend(more.into_iter().take(room));
}

/// Times `f` in passes of `per_pass` calls for about `seconds`, one span
/// per pass; returns the median nanoseconds per call.
fn per_call_ns(
    name: &'static str,
    seconds: f64,
    per_pass: usize,
    spans: &Spans,
    mut f: impl FnMut(),
) -> (f64, u64) {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut ns = Vec::new();
    let mut pass = 0;
    while ns.is_empty() || Instant::now() < end {
        let start_ns = trace::now_ns();
        let t0 = Instant::now();
        f();
        ns.push(t0.elapsed().as_nanos() as f64 / per_pass as f64);
        push(
            spans,
            Span {
                id: trace::next_id(),
                parent: 0,
                name,
                req: pass,
                start_ns,
                end_ns: trace::now_ns(),
            },
        );
        pass += 1;
    }
    let calls = ns.len() as u64 * per_pass as u64;
    (median(&mut ns), calls)
}

/// The traced run of `args.workload`, printing every per-layer metric.
pub fn traced(args: &Args, report: &mut Report) {
    let t = args.seconds.max(0.5);
    let spans: Spans = Arc::new(Mutex::new(Vec::new()));
    workload_twice(args, t * 0.2, report, &spans);
    tcp_probes(args.seed, t * 0.1, report, &spans);
    service_probes(args.seed, t * 0.05, report, &spans);
    session_probes(args.seed, t * 0.05, report, &spans);
    codec_probes(args.seed, t * 0.02, report, &spans);
    kernel_probes(args.seed, t * 0.02, report, &spans);
    let spans = spans.lock().expect("span store lock");
    match trace::write(&spans, &format!("{}-seed{}", args.workload, args.seed)) {
        Ok(path) => println!("spans {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: spans not written: {e}"),
    }
}

/// The named workload untraced, then traced: `trace.overhead_pct` is how
/// much worse its headline got with spans on, and the tail latency comes
/// from the untraced half.
fn workload_twice(args: &Args, seconds: f64, report: &mut Report, spans: &Spans) {
    if args.workload == "batch_kernel" {
        let k = Kernel::new(args.seed, kernel::LANES);
        let families: Vec<usize> = (0..FAMILIES.len()).collect();
        let mut reference = Reference::new(args.seed);
        let exec = Executor::new(1);
        let plain = kernel::run(&k, &families, exec, seconds, &mut reference, false);
        let traced = kernel::run(&k, &families, exec, seconds, &mut reference, true);
        for r in [&plain, &traced] {
            report.tally(r.attempted, r.failed);
        }
        let (p99, beyond) = plain.sweeps.quantile(0.99);
        let n = plain.sweeps.count();
        report.metric("lat_p99_us", p99 / 1e3, "us", n);
        report.metric("lat_p99_beyond", beyond as f64, "count", n);
        let overhead = (med(&plain.comp_rates) / med(&traced.comp_rates) - 1.0) * 100.0;
        report.metric(
            "trace.overhead_pct",
            overhead,
            "%",
            traced.comp_rates.len() as u64,
        );
        absorb(spans, traced.spans.into_vec());
        return;
    }
    let Some(w) = serve_workload(&args.workload, args.seed) else {
        report.tally(1, 1);
        return;
    };
    let mut setup = Vec::new();
    let (Some(plain), Some(traced)) = (
        serve::run(&w, seconds, 1, false, &mut setup),
        serve::run(&w, seconds, 1, true, &mut setup),
    ) else {
        report.tally(1, 1);
        return;
    };
    for r in [&plain, &traced] {
        report.tally(r.attempted, r.failed);
    }
    let (p99, beyond) = plain.hist.quantile(0.99);
    report.metric("lat_p99_us", p99 / 1e3, "us", plain.hist.count());
    report.metric("lat_p99_beyond", beyond as f64, "count", plain.hist.count());
    // Unloaded, the headline is latency; closed loops, throughput.
    let overhead = if w.depth == 1 {
        traced.hist.quantile(0.5).0 / plain.hist.quantile(0.5).0 - 1.0
    } else {
        median(&mut plain.slice_rates.clone()) / median(&mut traced.slice_rates.clone()) - 1.0
    };
    report.metric(
        "trace.overhead_pct",
        overhead * 100.0,
        "%",
        traced.hist.count(),
    );
    absorb(spans, traced.spans);
}

/// Traced TCP runs in the shapes of `add_unloaded` and `add_closed`:
/// transport latency, the server threads' scheduler counters, the
/// batching STATS and the client's own call costs.
fn tcp_probes(seed: u64, seconds: f64, report: &mut Report, spans: &Spans) {
    let mut setup = Vec::new();
    let unloaded = serve_workload("add_unloaded", seed)
        .and_then(|w| serve::run(&w, seconds, 1, true, &mut setup));
    let closed = serve_workload("add_closed", seed)
        .and_then(|w| serve::run(&w, seconds, 1, true, &mut setup));
    let (Some(unloaded), Some(closed)) = (unloaded, closed) else {
        report.tally(1, 1);
        return;
    };
    for r in [&unloaded, &closed] {
        report.tally(r.attempted, r.failed);
    }
    let tcp_p50_us = unloaded.hist.quantile(0.5).0 / 1e3;
    let service_p50_us = service_unloaded(seed, seconds, report, spans);
    report.metric(
        "serve.server.transport_p50_us",
        tcp_p50_us - service_p50_us,
        "us",
        unloaded.hist.count(),
    );
    report.metric(
        "serve.service.unloaded_p50_us",
        service_p50_us,
        "us",
        unloaded.hist.count(),
    );
    let n = closed.completed.max(1) as f64;
    report.metric(
        "serve.server.ctx_switches_per_req",
        closed.server.voluntary as f64 / n,
        "count",
        closed.completed,
    );
    report.metric(
        "serve.server.rq_wait_us_per_req",
        closed.server.wait_ns as f64 / 1e3 / n,
        "us",
        closed.completed,
    );
    report.metric(
        "serve.server.threads",
        closed.server_threads as f64,
        "count",
        1,
    );
    let lanes_per_group = closed.stats.as_ref().map_or(f64::NAN, |s| {
        s.total_lanes() as f64 / s.total_groups().max(1) as f64
    });
    report.metric("serve.service.lanes_per_group", lanes_per_group, "count", 1);
    let selfs = trace::self_times(&closed.spans);
    for (metric, span) in [
        ("serve.client.submit_us", "client.submit"),
        ("serve.client.recv_us", "client.recv"),
    ] {
        let (ns, count) = trace::median_self_ns(&closed.spans, &selfs, span);
        report.metric(metric, ns / 1e3, "us", count);
    }
    absorb(spans, unloaded.spans);
    absorb(spans, closed.spans);
}

/// `Service::add_blocking`, one request at a time: the service's own
/// unloaded latency, in microseconds.
fn service_unloaded(seed: u64, seconds: f64, report: &mut Report, spans: &Spans) -> f64 {
    let stream = stream::adds(seed, 64, 256);
    let service = Service::start(ServeConfig::default());
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut lat = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut i = 0;
    while i < stream.len() || Instant::now() < end {
        let req = &stream[i % stream.len()];
        let start_ns = trace::now_ns();
        let t0 = Instant::now();
        let result = service.add_blocking(req.engine, req.ops[0].clone(), req.ops[1].clone());
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
        push(
            spans,
            Span {
                id: trace::next_id(),
                parent: 0,
                name: "service.add_blocking",
                req: i as u64,
                start_ns,
                end_ns: trace::now_ns(),
            },
        );
        attempted += 1;
        let ok = result.is_ok_and(|r| req.matches(&r.sum, r.cout, r.cycles));
        failed += u64::from(!ok);
        i += 1;
    }
    service.shutdown();
    report.tally(attempted, failed);
    median(&mut lat)
}

/// `Service::submit` pipelined 64 deep from this thread, no codec and no
/// sockets: CPU of every thread per request.
fn service_probes(seed: u64, seconds: f64, report: &mut Report, spans: &Spans) {
    let stream = Arc::new(stream::adds(seed, 64, 4096));
    let service = Service::start(ServeConfig::default());
    let (tx, rx) = mpsc::channel::<bool>();
    let submit = |idx: usize| -> bool {
        let req = &stream[idx];
        let id = trace::next_id();
        let start_ns = trace::now_ns();
        let (tx, spans2, stream2) = (tx.clone(), Arc::clone(spans), Arc::clone(&stream));
        let reply = Box::new(move |r: vlcsa_serve::AddResult| {
            let s0 = trace::now_ns();
            let _ = tx.send(stream2[idx].matches(&r.sum, r.cout, r.cycles));
            push(
                &spans2,
                Span {
                    id: trace::next_id(),
                    parent: id,
                    name: "service.reply",
                    req: idx as u64,
                    start_ns: s0,
                    end_ns: trace::now_ns(),
                },
            );
        });
        let ok = service
            .submit(req.engine, req.ops[0].clone(), req.ops[1].clone(), reply)
            .is_ok();
        push(
            spans,
            Span {
                id,
                parent: 0,
                name: "service.submit",
                req: idx as u64,
                start_ns,
                end_ns: trace::now_ns(),
            },
        );
        ok
    };
    let before = host::tasks(false);
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut next, mut inflight, mut attempted, mut failed) = (0usize, 0usize, 0u64, 0u64);
    for _ in 0..64 {
        if submit(next % stream.len()) {
            inflight += 1;
        } else {
            attempted += 1;
            failed += 1;
        }
        next += 1;
    }
    while inflight > 0 {
        let Ok(ok) = rx.recv_timeout(Duration::from_secs(30)) else {
            attempted += inflight as u64;
            failed += inflight as u64;
            break;
        };
        inflight -= 1;
        attempted += 1;
        failed += u64::from(!ok);
        if next < stream.len() || Instant::now() < end {
            if submit(next % stream.len()) {
                inflight += 1;
            } else {
                attempted += 1;
                failed += 1;
            }
            next += 1;
        }
    }
    let (cpu, _) = host::delta(&before, &host::tasks(false), &[]);
    service.shutdown();
    report.tally(attempted, failed);
    report.metric(
        "serve.service.cpu_us_per_req",
        cpu.run_ns as f64 / 1e3 / attempted.max(1) as f64,
        "us",
        attempted,
    );
}

/// An in-memory connection: formats what the server would write, checks
/// it against the stream, and counts answers.
struct Sink {
    stream: Arc<Vec<Req>>,
    /// (right answers, wrong answers)
    answered: Mutex<(u64, u64)>,
    cv: Condvar,
}

impl Sink {
    fn note(&self, ok: bool) {
        let mut a = self.answered.lock().expect("sink lock");
        if ok {
            a.0 += 1;
        } else {
            a.1 += 1;
        }
        self.cv.notify_all();
    }

    fn wait_for(&self, total: u64) -> bool {
        let guard = self.answered.lock().expect("sink lock");
        let (guard, timeout) = self
            .cv
            .wait_timeout_while(guard, Duration::from_secs(30), |a| a.0 + a.1 < total)
            .expect("sink lock");
        drop(guard);
        !timeout.timed_out()
    }
}

impl ResponseSink for Sink {
    fn send(&self, response: &Response) {
        let line = protocol::format_response(response);
        std::hint::black_box(&line);
        let ok = match response {
            Response::Ok { seq, sum, cout, .. } => {
                let req = &self.stream[*seq as usize % self.stream.len()];
                *sum == req.sum && *cout == req.cout
            }
            _ => false,
        };
        self.note(ok);
    }
}

impl FrameSink for Sink {
    fn send_frame(&self, frame: &[u8]) {
        // The upgrade acknowledgement is a text line, not a frame.
        if frame.starts_with(HELLO_LINE.as_bytes()) {
            return;
        }
        let ok = frame.len() > HEADER_LEN + 10 && frame[1] == binary::resp::OK && {
            let body = &frame[HEADER_LEN..];
            let seq = u64::from_le_bytes(body[..8].try_into().expect("8 seq bytes"));
            let req = &self.stream[seq as usize % self.stream.len()];
            let limbs = body[10..]
                .chunks_exact(8)
                .map(|l| u64::from_le_bytes(l.try_into().expect("8 limb bytes")));
            body[8] == u8::from(req.cout) && limbs.eq(req.sum.limbs().iter().copied())
        };
        self.note(ok);
    }
}

/// A `ByteSession` fed the `add_closed` stream 64 requests at a time,
/// each chunk answered before the next: CPU per request of every thread,
/// for each framing. End-to-end CPU per request minus this is the
/// sockets' share.
fn session_probes(seed: u64, seconds: f64, report: &mut Report, spans: &Spans) {
    let stream = Arc::new(stream::adds(seed, 64, 4096));
    let names = vlcsa::engine::Registry::for_width(64).names();
    for (metric, binary_wire) in [
        ("serve.session.us_per_req.text", false),
        ("serve.session.us_per_req.binary", true),
    ] {
        let chunks: Vec<Vec<u8>> = stream
            .chunks(64)
            .enumerate()
            .map(|(c, reqs)| {
                let mut bytes = Vec::new();
                for (j, req) in reqs.iter().enumerate() {
                    let seq = (c * 64 + j) as u64;
                    let (a, b) = (&req.ops[0], &req.ops[1]);
                    if binary_wire {
                        let id = names
                            .iter()
                            .position(|n| *n == req.engine)
                            .expect("registry family") as u8;
                        bytes.extend(binary::encode_add(seq, id, 64, a.limbs(), b.limbs()));
                    } else {
                        bytes.extend(protocol::format_add(seq, req.engine, a, b).into_bytes());
                        bytes.push(b'\n');
                    }
                }
                bytes
            })
            .collect();
        let service = Service::start(ServeConfig::default());
        let sink = Arc::new(Sink {
            stream: Arc::clone(&stream),
            answered: Mutex::new((0, 0)),
            cv: Condvar::new(),
        });
        let lens: Vec<u64> = stream.chunks(64).map(|r| r.len() as u64).collect();
        let mut session = ByteSession::new(Arc::clone(&sink));
        if binary_wire {
            session.feed(format!("{HELLO_LINE}\n").as_bytes(), &service);
        }
        let before = host::tasks(false);
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        let (mut fed, mut c) = (0u64, 0usize);
        let mut healthy = true;
        while healthy && (c < chunks.len() || Instant::now() < end) {
            let start_ns = trace::now_ns();
            session.feed(&chunks[c % chunks.len()], &service);
            push(
                spans,
                Span {
                    id: trace::next_id(),
                    parent: 0,
                    name: "session.feed",
                    req: (c % chunks.len() * 64) as u64,
                    start_ns,
                    end_ns: trace::now_ns(),
                },
            );
            fed += lens[c % lens.len()];
            healthy = sink.wait_for(fed);
            c += 1;
        }
        let (cpu, _) = host::delta(&before, &host::tasks(false), &[]);
        service.shutdown();
        let (ok, wrong) = *sink.answered.lock().expect("sink lock");
        let lost = fed.saturating_sub(ok + wrong);
        report.tally(fed, wrong + lost);
        report.metric(
            metric,
            cpu.run_ns as f64 / 1e3 / fed.max(1) as f64,
            "us",
            fed,
        );
    }
}

/// The codec functions, the carry-save lowering, the lane builder and the
/// reply path's lane extraction, each in tight passes over its stream.
fn codec_probes(seed: u64, seconds: f64, report: &mut Report, spans: &Spans) {
    let adds = stream::adds(seed, 64, 1024);
    let names = vlcsa::engine::Registry::for_width(64).names();
    let lines: Vec<String> = adds
        .iter()
        .enumerate()
        .map(|(i, r)| protocol::format_add(i as u64, r.engine, &r.ops[0], &r.ops[1]))
        .collect();
    let oks: Vec<Response> = adds
        .iter()
        .enumerate()
        .map(|(i, r)| Response::Ok {
            seq: i as u64,
            sum: r.sum.clone(),
            cout: r.cout,
            cycles: 1,
        })
        .collect();
    let frames: Vec<Vec<u8>> = adds
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let id = names
                .iter()
                .position(|n| *n == r.engine)
                .expect("registry family") as u8;
            binary::encode_add(i as u64, id, 64, r.ops[0].limbs(), r.ops[1].limbs())
        })
        .collect();
    let n = adds.len();
    let parse_failures = AtomicU64::new(0);
    let (ns, calls) = per_call_ns("protocol.parse", seconds, n, spans, || {
        for l in &lines {
            if protocol::parse_request(std::hint::black_box(l)).is_err() {
                parse_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    report.metric("serve.protocol.parse_ns", ns, "ns", calls);
    let (ns, calls) = per_call_ns("protocol.format", seconds, n, spans, || {
        for r in &oks {
            std::hint::black_box(protocol::format_response(std::hint::black_box(r)));
        }
    });
    report.metric("serve.protocol.format_ns", ns, "ns", calls);
    let (ns, calls) = per_call_ns("binary.decode", seconds, n, spans, || {
        for f in &frames {
            if binary::decode_request(f[1], std::hint::black_box(&f[HEADER_LEN..]), &names).is_err()
            {
                parse_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
    report.metric("serve.binary.decode_ns", ns, "ns", calls);
    let (ns, calls) = per_call_ns("binary.encode_ok", seconds, n, spans, || {
        for (i, r) in adds.iter().enumerate() {
            std::hint::black_box(binary::encode_ok(
                i as u64,
                r.cout,
                1,
                std::hint::black_box(r.sum.limbs()),
            ));
        }
    });
    report.metric("serve.binary.encode_ok_ns", ns, "ns", calls);
    report.tally(2 * n as u64, parse_failures.load(Ordering::Relaxed));

    let sums = stream::sums(seed, 256, 8, "vlcsa1", 256).unwrap_or_default();
    let program = Program::sum(8).expect("8 operands is within the program limit");
    let (ns, calls) = per_call_ns("program.lower", seconds, sums.len().max(1), spans, || {
        for r in &sums {
            std::hint::black_box(program.csa_pair_scalar(std::hint::black_box(&r.ops)));
        }
    });
    report.metric("vlcsa.program.lower_ns", ns, "ns", calls);
    report.tally(1, u64::from(sums.is_empty()));

    for (metric, pairs) in [
        (
            "vlcsa.group.push_ns_per_lane.w64",
            adds.iter()
                .take(256)
                .map(|r| (&r.ops[0], &r.ops[1]))
                .collect::<Vec<(&UBig, &UBig)>>(),
        ),
        (
            "vlcsa.group.push_ns_per_lane.w256",
            sums.iter().map(|r| (&r.ops[0], &r.ops[1])).collect(),
        ),
    ] {
        let width = pairs.first().map_or(64, |p| p.0.width());
        let (ns, calls) = per_call_ns("group.push", seconds, pairs.len().max(1), spans, || {
            let mut builder: LaneBuilder<()> = LaneBuilder::new("vlcsa1", width);
            for (a, b) in &pairs {
                builder.push_limbs(a.limbs(), b.limbs(), ());
            }
            std::hint::black_box(builder.drain());
        });
        report.metric(metric, ns, "ns", calls);
    }

    let registry = vlcsa::engine::Registry::for_width(64);
    let mut builder: LaneBuilder<()> = LaneBuilder::new("vlcsa1", 64);
    for r in adds.iter().take(256) {
        builder.push_limbs(r.ops[0].limbs(), r.ops[1].limbs(), ());
    }
    let group = builder.drain().expect("256 lanes were pushed");
    let engine = registry.lookup("vlcsa1").expect("registry family");
    let out = Executor::new(1).run(engine, &group.a, &group.b);
    let wrong = (0..out.lanes())
        .filter(|&l| out.sum.lane(l) != adds[l].sum)
        .count();
    report.tally(out.lanes() as u64, wrong as u64);
    let (ns, calls) = per_call_ns("bitnum.lane_out", seconds, out.lanes(), spans, || {
        for l in 0..out.lanes() {
            std::hint::black_box(out.sum.lane(l));
        }
    });
    report.metric("bitnum.lane_out_ns", ns, "ns", calls);
}

/// Each family alone, compensated by the reference loop; the whole sweep
/// raw; and the executor's two-thread speed-up on the same slab.
fn kernel_probes(seed: u64, seconds: f64, report: &mut Report, spans: &Spans) {
    let k = Kernel::new(seed, kernel::LANES);
    let mut reference = Reference::new(seed);
    let one = Executor::new(1);
    for (f, name) in FAMILIES.iter().enumerate() {
        let r = kernel::run(&k, &[f], one, seconds, &mut reference, true);
        report.tally(r.attempted, r.failed);
        report.metric(
            format!("vlcsa.engine.{name}.ns_per_add"),
            1e9 / med(&r.comp_rates),
            "ns",
            r.comp_rates.len() as u64,
        );
        if VARIABLE_LATENCY.contains(name) {
            report.metric(
                format!("vlcsa.engine.{name}.stall_rate"),
                r.stalls[0] as f64 / k.lanes() as f64,
                "ratio",
                k.lanes() as u64,
            );
        }
        absorb(spans, r.spans.into_vec());
    }
    let families: Vec<usize> = (0..FAMILIES.len()).collect();
    let all = kernel::run(&k, &families, one, seconds * 3.0, &mut reference, false);
    report.tally(all.attempted, all.failed);
    let slices = all.raw_rates.len() as u64;
    report.metric(
        "vlcsa.exec.raw_adds_per_s",
        med(&all.raw_rates),
        "1/s",
        slices,
    );
    report.metric("host.ref_rate", med(&all.ref_rates), "1/s", slices);

    // One thread and two threads alternate sweep by sweep, so host drift
    // hits both sides of the ratio alike.
    let two = Executor::new(2);
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let end = Instant::now() + Duration::from_secs_f64(seconds * 3.0);
    while t1.is_empty() || Instant::now() < end {
        for (exec, times) in [(one, &mut t1), (two, &mut t2)] {
            let t0 = Instant::now();
            for f in 0..FAMILIES.len() {
                let out = exec.run(k.registry.engines()[f].as_ref(), &k.a, &k.b);
                report.tally(1, u64::from(!k.check(f, &out)));
            }
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    report.metric(
        "vlcsa.exec.speedup_2t",
        median(&mut t1) / median(&mut t2),
        "x",
        t1.len() as u64,
    );
}
