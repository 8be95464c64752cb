//! The steadiness table: one workload run `k` times, each in its own
//! process on its own seed, and every metric's median, quartiles and
//! range printed beside its bound. Also `--workload all`: every workload
//! once, each in its own process, under one result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::report::{median, quartiles, END_TO_END};
use crate::{Args, WORKLOADS};

/// `argv` without the flags in `drop` and their values.
fn without(argv: &[String], drop: &[&str]) -> Vec<String> {
    let mut kept = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if drop.contains(&a.as_str()) {
            it.next();
        } else {
            kept.push(a.clone());
        }
    }
    kept
}

/// A `metric` or `info` line of a run: `(is info, name, value, unit)`.
fn parse_line(line: &str) -> Option<(bool, &str, f64, &str)> {
    let info = line.starts_with("info ");
    if !info && !line.starts_with("metric ") {
        return None;
    }
    let f: Vec<&str> = line.split_ascii_whitespace().collect();
    Some((info, f.get(1)?, f.get(2)?.parse().ok()?, f.get(3)?))
}

/// Runs every workload once with the rest of `argv`, prints each run's
/// lines under its name, then one result line and one JSON object whose
/// metrics are named `<workload>.<metric>`. Returns the exit code: 0
/// when every run was correct.
pub fn all(argv: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let base = without(argv, &["--workload"]);
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut json = String::new();
    for workload in WORKLOADS {
        let out = match Command::new(&exe)
            .args(&base)
            .args(["--workload", workload])
            .output()
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", exe.display());
                return 1;
            }
        };
        correct &= out.status.success();
        println!("== {workload}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut tallied = false;
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
            if let Some(rest) = line.strip_prefix("result ") {
                for field in rest.split_ascii_whitespace() {
                    if let Some(n) = field.strip_prefix("attempted=") {
                        attempted += n.parse::<u64>().unwrap_or(1);
                        tallied = true;
                    } else if let Some(n) = field.strip_prefix("failed=") {
                        failed += n.parse::<u64>().unwrap_or(1);
                    }
                }
            }
            if let Some((false, name, value, unit)) = parse_line(line) {
                let value = if value.is_finite() { value } else { 0.0 };
                let sep = if json.is_empty() { "" } else { ", " };
                write!(
                    json,
                    "{sep}\"{workload}.{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
                )
                .expect("writing to a String cannot fail");
            }
        }
        if !tallied {
            // A run that printed no result line failed as a whole.
            attempted += 1;
            failed += 1;
        }
    }
    let correct = correct && failed == 0;
    println!("result correct={correct} attempted={attempted} failed={failed}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        attempted.max(1)
    );
    i32::from(!correct)
}

/// Runs the child runs and prints the table. Returns the exit code: 0
/// when every run was correct.
pub fn run(args: &Args, argv: &[String], k: usize) -> i32 {
    let exe = std::env::current_exe().expect("the running executable has a path");
    // The child command line: everything but `--steady k` and `--seed n`.
    let base = without(argv, &["--steady", "--seed"]);
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut all_correct = true;
    for i in 0..k {
        let seed = args.seed + i as u64;
        let out = match Command::new(&exe)
            .args(&base)
            .args(["--seed", &seed.to_string()])
            .output()
        {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", exe.display());
                return 1;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let correct = out.status.success();
        all_correct &= correct;
        println!(
            "run {}/{k} seed={seed} exit={} {}",
            i + 1,
            out.status.code().unwrap_or(-1),
            stdout
                .lines()
                .find(|l| l.starts_with("result "))
                .unwrap_or("(no result line)")
        );
        for (info, name, v, unit) in stdout.lines().filter_map(parse_line) {
            let key = format!("{}{name}", if info { "info:" } else { "" });
            if !values.contains_key(&key) {
                order.push(key.clone());
            }
            values
                .entry(key)
                .or_insert_with(|| (unit.to_string(), Vec::new()))
                .1
                .push(v);
        }
    }
    println!(
        "\n{:<38} {:>7} {:>6} {:>14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "metric", "unit", "better", "median", "q1", "q3", "iqr%", "range%", "bound%"
    );
    for key in &order {
        let (unit, v) = &values[key];
        let med = median(&mut v.clone());
        let [q1, _, q3] = if v.len() >= 2 {
            quartiles(v)
        } else {
            [f64::NAN; 3]
        };
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let iqr = (q3 - q1) / med * 100.0;
        let range = (hi - lo) / med * 100.0;
        let def = END_TO_END.iter().find(|d| d.name == key);
        let bound = def.map(|d| d.bound * 100.0);
        let verdict = match bound {
            None => "",
            Some(_) if v.len() < k => "missing in some runs",
            Some(b) if iqr <= b / 3.0 => "steady (iqr <= bound/3)",
            Some(b) if iqr <= b => "within bound",
            Some(_) => "TOO NOISY",
        };
        println!(
            "{key:<38} {unit:>7} {:>6} {med:>14.6} {q1:>14.6} {q3:>14.6} {iqr:>8.2} {range:>8.2} {:>7}  {verdict}",
            def.map_or("", |d| d.better),
            bound.map_or_else(|| "-".to_string(), |b| format!("{b:.0}")),
        );
    }
    i32::from(!all_correct)
}
