//! The metric table, the result a run prints, and the order statistics
//! behind every reported timing.
//!
//! The metric names, units and bounds here are the single source the
//! runner prints from; `BENCHMARK.json` repeats them for tools that
//! launch the runner, and a unit test checks the two agree.

use std::fmt::Write as _;

/// One end-to-end metric: what a user of the system sees.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every workload prints all seven. Where a metric's primary workload is
/// another one, its meaning carries over per unit of work (a request on
/// the serve workloads, one nine-family sweep on `batch_kernel`); see
/// `perfbench/README.md`.
pub const END_TO_END: [Def; 7] = [
    Def {
        name: "lat_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    Def {
        name: "req_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    Def {
        name: "cpu_us_per_req",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    Def {
        name: "adds_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    Def {
        name: "cycles_per_add",
        unit: "cycles",
        better: "lower",
        bound: 0.05,
    },
    Def {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    Def {
        name: "rss_peak_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
];

/// The nine registry families at width 64, in registry order.
pub const FAMILIES: [&str; 9] = [
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

/// The families that may take the 2-cycle recovery path; every other one
/// must answer in exactly one cycle.
pub const VARIABLE_LATENCY: [&str; 3] = ["vlsa", "vlcsa1", "vlcsa2"];

/// Per-layer metrics of the traced run: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut defs: Vec<(String, &'static str, &'static str)> = [
        ("serve.server.transport_p50_us", "us", "lower"),
        ("serve.server.ctx_switches_per_req", "count", "lower"),
        ("serve.server.rq_wait_us_per_req", "us", "lower"),
        ("serve.server.threads", "count", "lower"),
        ("serve.service.unloaded_p50_us", "us", "lower"),
        ("serve.service.lanes_per_group", "count", "higher"),
        ("serve.service.cpu_us_per_req", "us", "lower"),
        ("serve.session.us_per_req.text", "us", "lower"),
        ("serve.session.us_per_req.binary", "us", "lower"),
        ("serve.protocol.parse_ns", "ns", "lower"),
        ("serve.protocol.format_ns", "ns", "lower"),
        ("serve.binary.decode_ns", "ns", "lower"),
        ("serve.binary.encode_ok_ns", "ns", "lower"),
        ("serve.client.submit_us", "us", "lower"),
        ("serve.client.recv_us", "us", "lower"),
        ("vlcsa.program.lower_ns", "ns", "lower"),
        ("vlcsa.group.push_ns_per_lane.w64", "ns", "lower"),
        ("vlcsa.group.push_ns_per_lane.w256", "ns", "lower"),
        ("bitnum.lane_out_ns", "ns", "lower"),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect();
    for f in FAMILIES {
        defs.push((format!("vlcsa.engine.{f}.ns_per_add"), "ns", "lower"));
    }
    for f in VARIABLE_LATENCY {
        defs.push((format!("vlcsa.engine.{f}.stall_rate"), "ratio", "lower"));
    }
    for (n, u, b) in [
        ("vlcsa.exec.speedup_2t", "x", "higher"),
        ("vlcsa.exec.raw_adds_per_s", "1/s", "higher"),
        ("host.ref_rate", "1/s", "higher"),
        ("lat_p99_us", "us", "lower"),
        ("lat_p99_beyond", "count", "higher"),
        ("trace.overhead_pct", "%", "lower"),
    ] {
        defs.push((n.to_string(), u, b));
    }
    defs
}

/// One printed number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (requests, slices, calls, cold starts).
    pub samples: u64,
}

/// What one run prints: metrics, side figures and the failure tally.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Figures printed for reading, outside the JSON result: raw kernel
    /// rate, reference rate, coverage counts.
    pub info: Vec<Metric>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Adds a sub-run's failure tally.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Prints the readable lines and, last, the one-line JSON result.
    /// Returns whether the run is correct: no failures, and exactly the
    /// `expected` metrics, each once and finite.
    pub fn print(&self, expected: &[(String, &'static str)]) -> bool {
        let mut problems = Vec::new();
        for (name, unit) in expected {
            match self.metrics.iter().filter(|m| &m.name == name).count() {
                1 => {}
                n => problems.push(format!("metric {name} printed {n} times")),
            }
            if let Some(m) = self.metrics.iter().find(|m| &m.name == name) {
                if m.unit != *unit || !m.value.is_finite() {
                    problems.push(format!("metric {name} = {} {}", m.value, m.unit));
                }
            }
        }
        for m in &self.metrics {
            if !expected.iter().any(|(n, _)| n == &m.name) {
                problems.push(format!("metric {} is not in the table", m.name));
            }
        }
        for m in &self.metrics {
            println!("metric {} {} {} n={}", m.name, m.value, m.unit, m.samples);
        }
        for m in &self.info {
            println!("info {} {} {} n={}", m.name, m.value, m.unit, m.samples);
        }
        for p in &problems {
            eprintln!("perfbench: {p}");
        }
        let correct = problems.is_empty() && self.failed == 0 && self.attempted > 0;
        println!(
            "result correct={correct} attempted={} failed={}",
            self.attempted, self.failed
        );
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                json,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        json.push_str("}}");
        println!("{json}");
        correct
    }
}

/// The median of `values` (which it sorts); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// The quartiles of `values` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`, so the steadiness table matches
/// a spread computed from the JSON results in Python. Needs at least two
/// values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        *slot = (data[(j - 1) as usize] * (n - delta) as f64 + data[j as usize] * delta as f64)
            / n as f64;
    }
    out
}

/// A log-linear latency histogram in nanoseconds: 128 sub-buckets per
/// octave (under 0.8% relative error), fixed size, so recording a million
/// requests costs no memory that would show in `rss_peak_mib`.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

const SUB: u64 = 128;
const SUB_BITS: u32 = 7;

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; (SUB * 58) as usize],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let m = (v >> (e - SUB_BITS)) & (SUB - 1);
        (SUB + u64::from(e - SUB_BITS) * SUB + m) as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let e = SUB_BITS + ((i - SUB) / SUB) as u32;
        let m = (i - SUB) % SUB;
        (
            ((SUB + m) << (e - SUB_BITS)) as f64,
            (1u64 << (e - SUB_BITS)) as f64,
        )
    }

    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns).min(self.counts.len() - 1);
        self.counts[i] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q` quantile in nanoseconds, interpolated by rank within its
    /// bucket, and the number of samples in higher buckets; NaN when
    /// empty.
    pub fn quantile(&self, q: f64) -> (f64, u64) {
        if self.total == 0 {
            return (f64::NAN, 0);
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (low, width) = Self::bucket(i);
                let within = (rank - seen) as f64 - 0.5;
                return (low + width * within / c as f64, self.total - seen - c);
            }
            seen += c;
        }
        unreachable!("rank never exceeds the total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    /// `BENCHMARK.json` lists one metric per line; every line must match
    /// the runner's table exactly, and nothing else may be listed.
    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut expected: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name, d.unit, d.better, d.bound
                )
            })
            .collect();
        expected.extend(per_layer().into_iter().map(|(n, u, b)| {
            format!("{{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        }));
        for line in &expected {
            assert!(json.contains(line.as_str()), "BENCHMARK.json lacks {line}");
        }
        for w in crate::WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "{w}"
            );
        }
        assert_eq!(
            json.matches("\"name\": ").count(),
            expected.len() + crate::WORKLOADS.len(),
            "BENCHMARK.json lists a metric or workload the runner does not print"
        );
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound <= setup.bound && d.bound <= 0.25));
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        let (p50, beyond) = h.quantile(0.5);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "{p50}");
        assert!(beyond < 50_000 && beyond > 49_000, "{beyond}");
        assert_eq!(Histogram::index(127), 127);
        assert_eq!(
            Histogram::bucket(Histogram::index(1 << 20)).0,
            f64::from(1 << 20)
        );
    }
}
