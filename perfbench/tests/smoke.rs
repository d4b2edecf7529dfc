//! Tiny-scale smoke runs of every workload, timed and traced: each names
//! every catalogued metric with its unit, passes its output checks, and
//! a wrong pinned digest turns into failed operations instead of a pass.

use perfbench::expected::{self, Expected};
use perfbench::report::{DETERMINISTIC, END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::{crawl, study, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;
use webgen::PopulationConfig;

fn work(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    // A store left by an earlier test run would make `Store::create` fail.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

/// Run the benchmark and return its last stdout line.
fn run(workload: &str, trace: bool, tag: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .arg("--work")
        .arg(work(tag))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

/// `(value, unit)` of `name` in a result line.
fn metric(line: &str, name: &str) -> Option<(f64, String)> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at + name.len() + 14..];
    let (value, rest) = rest.split_once(", \"unit\": \"")?;
    let (unit, _) = rest.split_once('"')?;
    Some((value.parse().ok()?, unit.to_string()))
}

fn field(line: &str, key: &str) -> String {
    let at = line.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    line[at..].split([',', '}']).next().unwrap().to_string()
}

#[test]
fn every_timed_workload_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let line = run(workload, false, workload);
        assert_eq!(field(&line, "correct"), "true", "{workload}: {line}");
        assert_eq!(field(&line, "failed"), "0", "{workload}: {line}");
        for (name, unit) in END_TO_END {
            let (value, got) =
                metric(&line, name).unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(&got, unit, "{workload}: {name}");
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric_and_repeat_their_counts() {
    for workload in WORKLOADS {
        let first = run(workload, true, &format!("{workload}-traced-a"));
        assert_eq!(field(&first, "correct"), "true", "{workload}: {first}");
        for (name, unit) in PER_LAYER {
            let (_, got) = metric(&first, name).unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(&got, unit, "{workload}: {name}");
        }
        let second = run(workload, true, &format!("{workload}-traced-b"));
        for name in DETERMINISTIC {
            assert_eq!(
                metric(&first, name),
                metric(&second, name),
                "{workload}: {name} is marked deterministic"
            );
        }
    }
}

#[test]
fn a_wrong_pinned_digest_counts_as_failed_operations() {
    let pinned = Expected::parse(expected::PINNED).unwrap();
    let wrong = Expected::parse(&format!(
        "sweep/tiny {}\nstudy/tiny 1\n",
        ["1"; 8].join(" ")
    ))
    .unwrap();
    let tiny = PopulationConfig::tiny();

    let sweep = crawl::run_sweep(&tiny, 5, "sweep/tiny", 0.2, &wrong);
    assert!(sweep.attempted > 0);
    assert_eq!(sweep.failed, sweep.attempted, "timed sweep");
    let study = study::run_study(&tiny, "study/tiny", 0.2, &wrong, &work("wrong-study"));
    assert!(study.attempted > 0);
    assert_eq!(study.failed, study.attempted, "timed study");

    // The traced run's checks, on one traced crawl and its report.
    let mut t = Tracer::new(Instant::now(), 0, 0);
    let c = crawl::traced_crawl(&tiny, None, &work("wrong-traced"), &mut t);
    assert_eq!(c.failed, 0);
    assert_eq!(crawl::check_sweep(&c, pinned.get("sweep/tiny")), 0);
    assert_eq!(crawl::check_sweep(&c, wrong.get("sweep/tiny")), c.cells);
    let report = study::traced_experiments(&c.study, &c.crawls, &mut t);
    assert_eq!(
        study::check_report(&report, c.cells, pinned.get("study/tiny")),
        0
    );
    assert_eq!(
        study::check_report(&report, c.cells, wrong.get("study/tiny")),
        c.cells
    );
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json lacks {name} [{unit}]"
        );
    }
    // Every listed workload is one the benchmark runs. `serve-live` runs
    // but is not listed (see README.md).
    let listed = text
        .split("\"workloads\"")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("a workloads list");
    let names: Vec<&str> = listed
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .collect();
    assert!(names.len() >= 2, "{names:?}");
    for name in names {
        assert!(WORKLOADS.contains(&name), "{name}");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
