//! What the host and this process report about themselves: CPU identity
//! for the run header, and the scheduler counters of the process's own
//! threads (`/proc/self`), which give CPU time per request, run-queue wait
//! and context switches without any hardware counter.

use std::collections::BTreeMap;
use std::fs;

use bitnum::batch::{DefaultWord, Word};

/// The scheduler's view of one thread.
#[derive(Clone, Copy, Default)]
pub struct TaskStat {
    /// Time spent on a CPU.
    pub run_ns: u64,
    /// Time spent runnable but waiting for a CPU.
    pub wait_ns: u64,
    /// Voluntary context switches (read only when asked for).
    pub voluntary: u64,
}

/// The kernel's id of the calling thread.
pub fn thread_id() -> u32 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the calling thread")
}

fn schedstat(path: &str) -> Option<(u64, u64)> {
    let text = fs::read_to_string(path).ok()?;
    let mut fields = text.split_ascii_whitespace().map(|f| f.parse::<u64>());
    Some((fields.next()?.ok()?, fields.next()?.ok()?))
}

/// CPU time of the calling thread so far.
pub fn thread_cpu_ns() -> u64 {
    schedstat("/proc/thread-self/schedstat").map_or(0, |(run, _)| run)
}

/// CPU time so far of the thread `tid` of this process.
pub fn task_run_ns(tid: u32) -> Option<u64> {
    schedstat(&format!("/proc/self/task/{tid}/schedstat")).map(|(run, _)| run)
}

/// Scheduler counters of every live thread of this process, by thread id.
/// A thread that exits between the listing and the read is skipped.
pub fn tasks(with_switches: bool) -> BTreeMap<u32, TaskStat> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Some((run_ns, wait_ns)) = schedstat(&format!("/proc/self/task/{tid}/schedstat")) else {
            continue;
        };
        let voluntary = if with_switches {
            fs::read_to_string(format!("/proc/self/task/{tid}/status"))
                .ok()
                .and_then(|s| status_field(&s, "voluntary_ctxt_switches:"))
                .unwrap_or(0)
        } else {
            0
        };
        out.insert(
            tid,
            TaskStat {
                run_ns,
                wait_ns,
                voluntary,
            },
        );
    }
    out
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Sum of the growth of every thread's counters between two snapshots,
/// leaving out the `excluded` threads, and how many of them ran at all.
/// A thread born after `before` counts from zero.
pub fn delta(
    before: &BTreeMap<u32, TaskStat>,
    after: &BTreeMap<u32, TaskStat>,
    excluded: &[u32],
) -> (TaskStat, usize) {
    let mut sum = TaskStat::default();
    let mut threads = 0;
    for (tid, a) in after {
        if excluded.contains(tid) {
            continue;
        }
        let b = before.get(tid).copied().unwrap_or_default();
        sum.run_ns += a.run_ns.saturating_sub(b.run_ns);
        sum.wait_ns += a.wait_ns.saturating_sub(b.wait_ns);
        sum.voluntary += a.voluntary.saturating_sub(b.voluntary);
        threads += usize::from(a.run_ns > b.run_ns);
    }
    (sum, threads)
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

/// The run header's host description.
pub struct HostInfo {
    pub cpus: usize,
    pub model: String,
    pub avx2: bool,
    pub avx512f: bool,
    pub word_bits: usize,
    pub pmu: bool,
}

impl HostInfo {
    pub fn probe() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let (model, avx2, avx512f, pmu) = cpu_identity();
        Self {
            cpus,
            model,
            avx2,
            avx512f,
            word_bits: DefaultWord::LANES,
            pmu,
        }
    }
}

/// Model string, SIMD flags and whether an architectural performance
/// monitoring unit is exposed (CPUID leaf 0xA reports version 0 when the
/// hypervisor offers none), all from CPUID rather than files.
#[cfg(target_arch = "x86_64")]
fn cpu_identity() -> (String, bool, bool, bool) {
    use std::arch::x86_64::__cpuid;
    #[allow(unused_unsafe)]
    // SAFETY: CPUID exists on every x86_64 processor, and the leaves read
    // are only queried after leaf 0 / 0x80000000 report them present.
    let (model, pmu) = unsafe {
        let max_ext = __cpuid(0x8000_0000).eax;
        let mut model = String::new();
        if max_ext >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            model = String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
        let pmu = __cpuid(0).eax >= 0xA && (__cpuid(0xA).eax & 0xff) > 0;
        (model, pmu)
    };
    (
        model,
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
        pmu,
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_identity() -> (String, bool, bool, bool) {
    (std::env::consts::ARCH.to_string(), false, false, false)
}
