//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steady <k> --workload <name> --seed <n> --seconds <s> [--trace <0|1>]
//! perfbench --workload all --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `add_unloaded`, `add_closed`, `sum_wide` (loopback TCP
//! against `Server` with `ServeConfig::default()`) and `batch_kernel`
//! (in-process `Executor` over every registry family). `--trace 0`
//! prints the seven end-to-end metrics; `--trace 1` runs the workload
//! once untraced and once with spans, then the per-layer probes, and
//! prints the per-layer metrics. `--steady k` runs the same command `k`
//! times on seeds `n..n+k` and prints each metric's median, quartiles
//! and range beside its bound. `--workload all` runs every workload once
//! under one result. The last stdout line of a run is one JSON object;
//! the exit code is 0 only when every reply was right.
//!
//! See `perfbench/README.md` for why each workload exists and what each
//! metric should move.

mod host;
mod kernel;
mod layers;
mod report;
mod serve;
mod steady;
mod stream;
mod trace;
mod wake;

use std::sync::Arc;
use std::time::Duration;

use vlcsa::exec::Executor;

use report::{median, Report, END_TO_END};

pub const WORKLOADS: [&str; 4] = ["add_unloaded", "add_closed", "sum_wide", "batch_kernel"];

/// Cold starts per run behind `setup_s`.
const SERVE_SETUPS: usize = 61;
const KERNEL_SETUPS: usize = 301;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub steady: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steady" => {
                let k: usize = value()?.parse().map_err(|e| format!("--steady: {e}"))?;
                if k < 2 {
                    return Err("--steady needs at least 2 runs".into());
                }
                args.steady = Some(k);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload == "all" && args.steady.is_some() {
        return Err("--steady takes one workload, not all".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be all or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The serve workloads' shapes, over streams drawn from `seed`.
pub fn serve_workload(name: &str, seed: u64) -> Option<serve::Workload> {
    use serve::Wire::{Binary, Text};
    let (wires, depth, stream) = match name {
        "add_unloaded" => (vec![Text], 1, stream::adds(seed, 64, 4096)),
        "add_closed" => (vec![Text, Binary], 64, stream::adds(seed, 64, 4096)),
        "sum_wide" => (
            vec![Binary],
            32,
            stream::sums(seed, 256, 8, "vlcsa1", 4096)?,
        ),
        _ => return None,
    };
    Some(serve::Workload {
        wires,
        depth,
        stream: Arc::new(stream),
        // Unloaded, the server's CPU time goes to wake-ups, whose cost
        // drifts with the host (see `wake.rs`).
        wake_ref: name == "add_unloaded",
    })
}

fn serve_e2e(args: &Args, report: &mut Report) {
    let Some(w) = serve_workload(&args.workload, args.seed) else {
        eprintln!("perfbench: the carry-save lowering disagrees with the UBig sum");
        report.tally(1, 1);
        return;
    };
    let mut setup = Vec::new();
    let Some(run) = serve::run(&w, args.seconds, SERVE_SETUPS, false, &mut setup) else {
        eprintln!("perfbench: could not start or reach the server");
        report.tally(1, 1);
        return;
    };
    report.tally(run.attempted, run.failed);
    let (p50, _) = run.hist.quantile(0.5);
    let n = run.hist.count();
    let slices = run.slice_rates.len() as u64;
    let req_per_s = median(&mut run.slice_rates.clone());
    let adds_per_req = (w.stream[0].ops.len() - 1) as f64;
    report.metric("lat_p50_us", p50 / 1e3, "us", n);
    report.metric("req_per_s", req_per_s, "1/s", slices);
    report.metric(
        "cpu_us_per_req",
        median(&mut run.slice_cpu_us.clone()),
        "us",
        run.slice_cpu_us.len() as u64,
    );
    report.metric("adds_per_s", req_per_s * adds_per_req, "1/s", slices);
    report.metric(
        "cycles_per_add",
        run.cover.cycles_per_add().unwrap_or(f64::NAN),
        "cycles",
        w.stream.len() as u64,
    );
    let starts = setup.len() as u64;
    report.metric("setup_s", median(&mut setup), "s", starts);
    report.metric("rss_peak_mib", host::rss_peak_mib(), "MiB", 1);
    if !run.slice_round_us.is_empty() {
        // Printed beside the rescaled figure, so the steadiness table sets
        // its spread beside the raw one's.
        let refs = run.slice_round_us.len() as u64;
        report.info(
            "serve.server.raw_cpu_us_per_req",
            median(&mut run.slice_raw_cpu_us.clone()),
            "us",
            refs,
        );
        report.info(
            "host.wake_round_us",
            median(&mut run.slice_round_us.clone()),
            "us",
            refs,
        );
    }
    report.info("requests", n as f64, "count", n);
    report.info(
        "cycles_disagreements",
        run.cover.disagreements as f64,
        "count",
        n,
    );
}

fn kernel_e2e(args: &Args, report: &mut Report) {
    let mut k = kernel::Kernel::new(args.seed, kernel::LANES);
    let mut reference = kernel::Reference::new(args.seed);
    // Set-up is in-process CPU work like the kernel, so each start is
    // rescaled by a reference burst run right after it.
    let passes = reference.calibrate(0.001);
    let mut setup: Vec<f64> = (0..KERNEL_SETUPS)
        .map(|_| {
            let t = k.setup();
            let ref_rate = passes as f64 / reference.time(passes);
            t * ref_rate / kernel::NOMINAL_REF_RATE
        })
        .collect();
    let families: Vec<usize> = (0..k.registry.engines().len()).collect();
    let run = kernel::run(
        &k,
        &families,
        Executor::new(1),
        args.seconds,
        &mut reference,
        false,
    );
    report.tally(run.attempted, run.failed);
    let slices = run.comp_rates.len() as u64;
    let adds = kernel::med(&run.comp_rates);
    let adds_per_sweep = (families.len() * k.lanes()) as f64;
    report.metric(
        "lat_p50_us",
        run.sweeps.quantile(0.5).0 / 1e3,
        "us",
        run.sweeps.count(),
    );
    report.metric("req_per_s", adds / adds_per_sweep, "1/s", slices);
    report.metric(
        "cpu_us_per_req",
        kernel::med(&run.cpu_us),
        "us",
        run.cpu_us.len() as u64,
    );
    report.metric("adds_per_s", adds, "1/s", slices);
    report.metric(
        "cycles_per_add",
        run.cycles_per_add(k.lanes()),
        "cycles",
        adds_per_sweep as u64,
    );
    report.metric("setup_s", median(&mut setup), "s", KERNEL_SETUPS as u64);
    report.metric("rss_peak_mib", host::rss_peak_mib(), "MiB", 1);
    // Printed under their per-layer names, so the steadiness table sets
    // the compensated rate's spread beside the raw rate's.
    report.info(
        "vlcsa.exec.raw_adds_per_s",
        kernel::med(&run.raw_rates),
        "1/s",
        slices,
    );
    report.info("host.ref_rate", kernel::med(&run.ref_rates), "1/s", slices);
}

fn header(args: &Args) {
    let h = host::HostInfo::probe();
    let mut reference = kernel::Reference::new(args.seed);
    let passes = reference.calibrate(0.05);
    let ref_rate = passes as f64 / reference.time(passes);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_cpus={} cpu_model=\"{}\" \
         avx2={} avx512f={} word_bits={} pmu={} host.ref_rate={ref_rate:.0}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        h.cpus,
        h.model,
        h.avx2,
        h.avx512f,
        h.word_bits,
        h.pmu,
    );
}

/// Ends the process as a failed run if it is still going after `limit`:
/// a request that never gets its reply blocks a client or a
/// `Service::add_blocking` call forever, and the run must still end.
fn watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run still going after {limit:?}; counting it as timed out");
        println!("result correct=false attempted=1 failed=1");
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(1);
    });
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <all|{}> --seed <n> --seconds <s> --trace <0|1> [--steady <k>]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Some(k) = args.steady {
        std::process::exit(steady::run(&args, &argv, k));
    }
    if args.workload == "all" {
        std::process::exit(steady::all(&argv));
    }
    watchdog(Duration::from_secs_f64((4.0 * args.seconds).max(150.0)));
    header(&args);
    let mut report = Report::default();
    let expected: Vec<(String, &'static str)> = if args.trace {
        layers::traced(&args, &mut report);
        report::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        if args.workload == "batch_kernel" {
            kernel_e2e(&args, &mut report);
        } else {
            serve_e2e(&args, &mut report);
        }
        END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit))
            .collect()
    };
    let correct = report.print(&expected);
    std::process::exit(if correct { 0 } else { 1 });
}
