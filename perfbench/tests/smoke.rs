//! A tiny fixed-work run of every workload (`--seconds 0`: one pass of
//! each stream): every metric `BENCHMARK.json` names prints with its
//! unit, nothing fails, and `cycles_per_add` repeats exactly on a seed;
//! `--workload all` does the same under one result.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["add_unloaded", "add_closed", "sum_wide", "batch_kernel"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    body.lines()
        .filter_map(|l| {
            let field = |key: &str| {
                let rest = &l[l.find(&format!("\"{key}\": \""))? + key.len() + 5..];
                Some(rest[..rest.find('"')?].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

/// Runs the benchmark; returns whether it exited 0 and its stdout.
fn run(workload: &str, seed: u64, trace: bool) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", if trace { "1" } else { "0" }])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the runner starts");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// The value of `name` from a `metric <name> <value> <unit> n=<count>`
/// line, after checking its unit.
fn value(stdout: &str, name: &str, unit: &str) -> String {
    let line = stdout
        .lines()
        .find(|l| l.split_ascii_whitespace().nth(1) == Some(name) && l.starts_with("metric "))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{stdout}"));
    let fields: Vec<&str> = line.split_ascii_whitespace().collect();
    assert_eq!(fields[3], unit, "{line}");
    assert!(fields[2].parse::<f64>().is_ok_and(f64::is_finite), "{line}");
    fields[2].to_string()
}

fn assert_clean(workload: &str, ok: bool, stdout: &str) {
    let last = stdout.lines().last().unwrap_or_default();
    assert!(ok, "{workload} exited nonzero:\n{stdout}");
    assert!(
        last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
        "{workload}: {last}"
    );
}

#[test]
fn every_workload_prints_every_metric_without_failures_and_repeats_its_cycles() {
    let metrics = listed("end_to_end");
    assert_eq!(metrics.len(), 7);
    for workload in WORKLOADS {
        let (ok, first) = run(workload, 7, false);
        assert_clean(workload, ok, &first);
        for (name, unit) in &metrics {
            value(&first, name, unit);
        }
        let (ok, second) = run(workload, 7, false);
        assert_clean(workload, ok, &second);
        assert_eq!(
            value(&first, "cycles_per_add", "cycles"),
            value(&second, "cycles_per_add", "cycles"),
            "{workload}: cycles_per_add moved between two runs of one seed"
        );
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric_and_repeats_its_stall_rates() {
    let metrics = listed("per_layer");
    assert!(metrics.len() > 30);
    let (ok, first) = run("sum_wide", 11, true);
    assert_clean("sum_wide traced", ok, &first);
    for (name, unit) in &metrics {
        value(&first, name, unit);
    }
    let (ok, second) = run("sum_wide", 11, true);
    assert_clean("sum_wide traced", ok, &second);
    for family in ["vlsa", "vlcsa1", "vlcsa2"] {
        let name = format!("vlcsa.engine.{family}.stall_rate");
        assert_eq!(
            value(&first, &name, "ratio"),
            value(&second, &name, "ratio"),
            "{name} moved between two runs of one seed"
        );
    }
}

#[test]
fn all_runs_every_workload_under_one_result() {
    let (ok, stdout) = run("all", 5, false);
    assert_clean("all", ok, &stdout);
    let last = stdout.lines().last().unwrap_or_default();
    for workload in WORKLOADS {
        assert!(stdout.contains(&format!("== {workload}\n")), "{stdout}");
        for (name, unit) in listed("end_to_end") {
            let entry = format!("\"{workload}.{name}\": {{\"value\": ");
            assert!(last.contains(&entry), "{entry} missing from {last}");
            assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{last}");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("the runner starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
