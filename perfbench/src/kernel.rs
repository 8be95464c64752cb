//! The in-process kernel workload: `Executor::run` over one L2-sized slab
//! for each registry family, interleaved with a reference loop that
//! belongs to the benchmark.
//!
//! Kernel rates on a shared host drift by tens of percent within a
//! minute. The reference loop runs in short slices between the kernel's,
//! so both see the same host; each kernel slice's rate is rescaled by
//! `NOMINAL_REF_RATE / measured reference rate`. The loop is a bit-sliced
//! ripple carry over 128-bit planes written with explicit SSE2
//! intrinsics, so its instruction mix depends neither on the library's
//! code nor on build flags.

use std::time::Instant;

use bitnum::batch::{DefaultWord, WideSlab};
use bitnum::UBig;
use vlcsa::engine::Registry;
use vlcsa::exec::{Executor, WideOutcome};
use workloads::dist::{Distribution, OperandSource};

use crate::report::{median, Histogram, VARIABLE_LATENCY};
use crate::trace::{self, Span, SpanRing};

/// Reference passes per second that count as nominal speed: the median
/// reference rate measured once on the recording host (2 vCPUs, AVX-512,
/// no PMU). Compensated rates read as raw rates on a host running at
/// that speed.
pub const NOMINAL_REF_RATE: f64 = 3.0e6;

/// Width of the kernel workload's operands.
pub const WIDTH: usize = 64;
/// Lanes of the slab: 16 chunks of 256 lanes, 48 KiB of operands and
/// sums at width 64, inside L2.
pub const LANES: usize = 4096;

/// Target length of one kernel slice and one reference slice.
const KERNEL_SLICE_S: f64 = 0.010;
const REF_SLICE_S: f64 = 0.004;
/// A thread's CPU counter advances only at scheduler ticks (4 ms apart
/// on the recording host) while it runs, so CPU time is read over
/// windows of many slices rather than per slice.
const CPU_WINDOW_S: f64 = 0.5;

/// The benchmark-owned reference loop.
pub struct Reference {
    #[cfg(target_arch = "x86_64")]
    planes: Vec<[std::arch::x86_64::__m128i; 3]>,
    #[cfg(not(target_arch = "x86_64"))]
    planes: Vec<[u64; 3]>,
}

impl Reference {
    const PLANES: usize = 256;

    pub fn new(seed: u64) -> Self {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        #[cfg(target_arch = "x86_64")]
        let planes = (0..Self::PLANES)
            .map(|_| {
                let mut v = || {
                    let (hi, lo) = (next(), next());
                    // SAFETY: SSE2 is part of the x86_64 baseline, so the
                    // target feature this intrinsic needs is always there.
                    unsafe { std::arch::x86_64::_mm_set_epi64x(hi as i64, lo as i64) }
                };
                [v(), v(), v()]
            })
            .collect();
        #[cfg(not(target_arch = "x86_64"))]
        let planes = (0..Self::PLANES).map(|_| [next(), next(), 0]).collect();
        Self { planes }
    }

    /// One pass: a ripple carry through every plane, sums stored back.
    pub fn pass(&mut self) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline, so the target
        // feature `ripple_sse2` is compiled for is always there.
        unsafe {
            ripple_sse2(&mut self.planes)
        };
        #[cfg(not(target_arch = "x86_64"))]
        {
            let mut c = 0u64;
            for p in &mut self.planes {
                let t = p[0] ^ p[1];
                p[2] = t ^ c;
                c = (p[0] & p[1]) | (c & t);
            }
        }
        std::hint::black_box(&mut self.planes);
    }

    /// Runs `passes` passes; returns the elapsed seconds.
    pub fn time(&mut self, passes: u64) -> f64 {
        let t0 = Instant::now();
        for _ in 0..passes {
            self.pass();
        }
        t0.elapsed().as_secs_f64()
    }

    /// Passes that take about `seconds`.
    pub fn calibrate(&mut self, seconds: f64) -> u64 {
        let probe = 200;
        let t = self.time(probe).max(1e-9);
        ((seconds / t * probe as f64) as u64).max(1)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
fn ripple_sse2(planes: &mut [[std::arch::x86_64::__m128i; 3]]) {
    use std::arch::x86_64::{_mm_and_si128, _mm_or_si128, _mm_setzero_si128, _mm_xor_si128};
    let mut c = _mm_setzero_si128();
    for p in planes {
        let (a, b) = (p[0], p[1]);
        let t = _mm_xor_si128(a, b);
        p[2] = _mm_xor_si128(t, c);
        c = _mm_or_si128(_mm_and_si128(a, b), _mm_and_si128(c, t));
    }
}

/// Operands, the engines, and the precomputed answer of every lane.
pub struct Kernel {
    pub registry: Registry,
    pub a: WideSlab,
    pub b: WideSlab,
    sum: WideSlab,
    cout: Vec<DefaultWord>,
    a_vals: Vec<UBig>,
    b_vals: Vec<UBig>,
}

impl Kernel {
    /// Draws the Gaussian operands and computes every lane's sum and
    /// carry-out with `UBig` arithmetic.
    pub fn new(seed: u64, lanes: usize) -> Self {
        let mut src = OperandSource::new(Distribution::paper_gaussian(), WIDTH, seed);
        let (a_vals, b_vals): (Vec<UBig>, Vec<UBig>) = (0..lanes).map(|_| src.next_pair()).unzip();
        let (sums, couts): (Vec<UBig>, Vec<UBig>) = a_vals
            .iter()
            .zip(&b_vals)
            .map(|(a, b)| {
                let (s, c) = a.overflowing_add(b);
                (s, UBig::from_u128(u128::from(c), 1))
            })
            .unzip();
        let cout = WideSlab::<DefaultWord>::from_lanes(&couts)
            .chunks()
            .iter()
            .map(|c| c.word(0))
            .collect();
        Self {
            registry: Registry::for_width(WIDTH),
            a: WideSlab::from_lanes(&a_vals),
            b: WideSlab::from_lanes(&b_vals),
            sum: WideSlab::from_lanes(&sums),
            cout,
            a_vals,
            b_vals,
        }
    }

    /// The set-up a caller of the kernel pays: the registry and the two
    /// operand slabs. Returns its seconds.
    pub fn setup(&mut self) -> f64 {
        let t0 = Instant::now();
        self.registry = Registry::for_width(WIDTH);
        self.a = WideSlab::from_lanes(&self.a_vals);
        self.b = WideSlab::from_lanes(&self.b_vals);
        t0.elapsed().as_secs_f64()
    }

    /// Whether `out` is family `f`'s right answer: exact sums and
    /// carry-outs, and no stalls from a fixed-latency family.
    pub fn check(&self, f: usize, out: &WideOutcome) -> bool {
        let name = self.registry.engines()[f].name();
        out.sum == self.sum
            && out.cout == self.cout
            && (VARIABLE_LATENCY.contains(&name) || out.stalls() == 0)
    }

    pub fn lanes(&self) -> usize {
        self.a.lanes()
    }
}

/// What an interleaved kernel run measured.
#[derive(Default)]
pub struct KernelRun {
    pub attempted: u64,
    pub failed: u64,
    /// Per slice: compensated and raw additions per second, reference
    /// passes per second. Per CPU window: compensated CPU microseconds
    /// per sweep.
    pub comp_rates: Vec<f64>,
    pub raw_rates: Vec<f64>,
    pub ref_rates: Vec<f64>,
    pub cpu_us: Vec<f64>,
    /// Per sweep: compensated nanoseconds, in a fixed-size histogram so
    /// that a faster kernel does not grow `rss_peak_mib`.
    pub sweeps: Histogram,
    /// Per family, from the first sweep: stalled lanes.
    pub stalls: Vec<u64>,
    pub spans: SpanRing,
}

impl KernelRun {
    /// Modelled cycles per addition over one sweep of `families`.
    pub fn cycles_per_add(&self, lanes: usize) -> f64 {
        let adds = (self.stalls.len() * lanes) as f64;
        (adds + self.stalls.iter().sum::<u64>() as f64) / adds
    }
}

/// Runs sweeps of `families` (registry indices) through `exec` for
/// `seconds`, at least one slice, with a reference slice after every
/// kernel slice. Every output is checked, outside the timed calls.
pub fn run(
    k: &Kernel,
    families: &[usize],
    exec: Executor,
    seconds: f64,
    reference: &mut Reference,
    traced: bool,
) -> KernelRun {
    let engines = k.registry.engines();
    let mut run = KernelRun {
        stalls: vec![0; families.len()],
        ..KernelRun::default()
    };
    let sweep = |run: &mut KernelRun, first: bool| -> f64 {
        let sweep_id = if traced { trace::next_id() } else { 0 };
        let sweep_start = trace::now_ns();
        let mut timed = 0.0;
        for (i, &f) in families.iter().enumerate() {
            let start_ns = if traced { trace::now_ns() } else { 0 };
            let t0 = Instant::now();
            let out = exec.run(engines[f].as_ref(), &k.a, &k.b);
            timed += t0.elapsed().as_secs_f64();
            if traced {
                run.spans.push(Span {
                    id: trace::next_id(),
                    parent: sweep_id,
                    name: "exec.run",
                    req: f as u64,
                    start_ns,
                    end_ns: trace::now_ns(),
                });
            }
            run.attempted += 1;
            if !k.check(f, &out) {
                run.failed += 1;
            }
            if first {
                run.stalls[i] = out.stalls();
            }
        }
        if traced {
            run.spans.push(Span {
                id: sweep_id,
                parent: 0,
                name: "sweep",
                req: 0,
                start_ns: sweep_start,
                end_ns: trace::now_ns(),
            });
        }
        timed
    };
    let first_t = sweep(&mut run, true).max(1e-9);
    let per_slice = ((KERNEL_SLICE_S / first_t) as usize).max(1);
    let ref_passes = reference.calibrate(REF_SLICE_S);
    let adds_per_sweep = (families.len() * k.lanes()) as f64;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut window = CpuWindow::open();
    loop {
        let mut times = Vec::with_capacity(per_slice);
        for _ in 0..per_slice {
            times.push(sweep(&mut run, false));
        }
        let ref_rate = ref_passes as f64 / reference.time(ref_passes);
        let scale = ref_rate / NOMINAL_REF_RATE;
        let timed: f64 = times.iter().sum();
        let raw = adds_per_sweep * per_slice as f64 / timed;
        run.raw_rates.push(raw);
        run.ref_rates.push(ref_rate);
        run.comp_rates.push(raw / scale);
        for t in &times {
            run.sweeps.record((t * 1e9 * scale) as u64);
        }
        window.add(timed, scale, per_slice);
        let done = Instant::now() >= deadline;
        if done || window.wall0.elapsed().as_secs_f64() >= CPU_WINDOW_S {
            run.cpu_us.push(window.cpu_us_per_sweep());
            window = CpuWindow::open();
        }
        if done {
            break;
        }
    }
    run
}

/// The calling thread's CPU time over a run of slices, and what the
/// slices timed.
struct CpuWindow {
    wall0: Instant,
    cpu0: u64,
    timed: f64,
    scaled: f64,
    sweeps: usize,
}

impl CpuWindow {
    fn open() -> Self {
        Self {
            wall0: Instant::now(),
            cpu0: crate::host::thread_cpu_ns(),
            timed: 0.0,
            scaled: 0.0,
            sweeps: 0,
        }
    }

    fn add(&mut self, timed: f64, scale: f64, sweeps: usize) {
        self.timed += timed;
        self.scaled += timed * scale;
        self.sweeps += sweeps;
    }

    /// The window's CPU time apportioned to the timed calls by their
    /// share of its wall time, per sweep, compensated by the slices'
    /// time-weighted reference scale.
    fn cpu_us_per_sweep(&self) -> f64 {
        let cpu = crate::host::thread_cpu_ns().saturating_sub(self.cpu0) as f64 / 1e9;
        let wall = self.wall0.elapsed().as_secs_f64();
        cpu * (self.timed / wall) / self.sweeps as f64 * 1e6 * (self.scaled / self.timed)
    }
}

/// Median of a per-slice series.
pub fn med(v: &[f64]) -> f64 {
    median(&mut v.to_vec())
}
