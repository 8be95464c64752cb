//! Spans recorded around the benchmark's own calls into each layer, kept
//! in memory and written out when a traced run ends.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One timed call: which layer, when, what caused it and which request.
#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Request id (the client sequence number, or the stream position).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Spans kept per recording thread; past this the oldest are overwritten,
/// so a long traced run costs bounded memory while every request still
/// pays the same tracing work.
const RING_CAP: usize = 1 << 15;

/// One thread's span store.
#[derive(Default)]
pub struct SpanRing {
    spans: Vec<Span>,
    pushed: usize,
}

impl SpanRing {
    pub fn push(&mut self, span: Span) {
        if self.spans.len() < RING_CAP {
            self.spans.push(span);
        } else {
            self.spans[self.pushed % RING_CAP] = span;
        }
        self.pushed += 1;
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.spans
    }
}

/// Nanoseconds since the process's trace epoch.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A fresh span id.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Self time of every span: its duration minus the union of the parts of
/// it its children cover. Children may run on other threads and outside
/// the parent's interval; only the overlap counts.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return (s.id, dur);
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, dur.saturating_sub(covered))
        })
        .collect()
}

/// Median self time, in nanoseconds, of the spans called `name`, with
/// their count.
pub fn median_self_ns(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> (f64, u64) {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64)
        .collect();
    let n = v.len() as u64;
    (crate::report::median(&mut v), n)
}

/// Writes the spans as tab-separated lines under the build directory
/// (`$CARGO_TARGET_DIR`, else `target`) and returns the path.
pub fn write(spans: &[Span], stem: &str) -> std::io::Result<PathBuf> {
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
            .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{stem}.tsv"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(out, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_covered_union_only() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "x",
            req: 0,
            start_ns,
            end_ns,
        };
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),  // overlaps 2: union 10..40
            span(4, 1, 90, 150), // sticks out: only 90..100 counts
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 10);
        assert_eq!(selfs[&4], 60);
    }
}
