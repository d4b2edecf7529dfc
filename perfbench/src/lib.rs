//! The cookiewall study's benchmark.
//!
//! One process runs one workload. A timed run (`--trace 0`) prints the
//! end-to-end metrics; a traced run (`--trace 1`) drives the layers from
//! here with spans and allocation counts and prints the per-layer
//! metrics. Either way the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

pub mod alloc;
pub mod counting;
pub mod crawl;
pub mod expected;
pub mod report;
pub mod serve_live;
pub mod study;
pub mod trace;

use expected::Expected;
use report::{HostNoise, Metrics, Outcome, DETERMINISTIC, END_TO_END, PER_LAYER};
use serve_live::ServeScale;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use webgen::PopulationConfig;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 3] = ["sweep-paper", "study-journaled", "serve-live"];
/// Spans kept per part for the written trace.
const KEEP_SPANS: usize = 100_000;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `full` (the workload's own size) or `tiny` (for smoke tests).
    pub scale: String,
    pub work: PathBuf,
}

pub const USAGE: &str = "usage: perfbench --workload <sweep-paper|study-journaled|serve-live> \
--seed <n> --seconds <s> --trace <0|1> [--scale full|tiny] [--work <dir>]";

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 0.0,
            trace: false,
            scale: "full".to_string(),
            work: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work")),
        };
        let (mut seed, mut seconds) = (None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = |what: &str| format!("{flag}: {what}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| bad("not a number"))?),
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    }
                }
                "--scale" => args.scale = value.clone(),
                "--work" => args.work = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}\n{USAGE}", args.workload));
        }
        if !["full", "tiny"].contains(&args.scale.as_str()) {
            return Err(format!("unknown scale {:?}\n{USAGE}", args.scale));
        }
        args.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
        args.seconds = seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?;
        Ok(args)
    }

    fn tiny(&self) -> bool {
        self.scale == "tiny"
    }

    /// The population a crawl workload runs on.
    fn population(&self, workload: &str) -> PopulationConfig {
        match (workload, self.tiny()) {
            (_, true) => PopulationConfig::tiny(),
            ("sweep-paper", false) => PopulationConfig::paper(),
            _ => study::study_config(),
        }
    }

    /// Key of the pinned digests for `kind` (`sweep` or `study`).
    fn key(&self, kind: &str, tiny: bool) -> String {
        let scale = if tiny { "tiny" } else { "full" };
        format!("{kind}/{scale}")
    }

    fn serve_scale(&self) -> ServeScale {
        if self.tiny() {
            ServeScale::tiny()
        } else {
            ServeScale::full()
        }
    }
}

/// Run one workload and return its result line.
pub fn run(args: &Args) -> Result<String, String> {
    let expected = Expected::parse(expected::PINNED)?;
    let work = serve_live::work_dir(&args.work, &args.workload);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let noise_start = HostNoise::sample();
    let started = Instant::now();
    let outcome = if args.trace {
        traced(args, &expected, &work)
    } else {
        timed(args, &expected, &work)
    };
    let noise = HostNoise::sample().since(&noise_start);
    let _ = std::fs::remove_dir_all(&work);
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let line = outcome.to_json(catalogue)?;
    eprintln!(
        "host noise over {:.1} s: {}",
        started.elapsed().as_secs_f64(),
        noise.to_json()
    );
    log_run(&args.work, args, &noise, &line);
    Ok(line)
}

/// Append the run, its host noise and its result to `runs.jsonl`, so an
/// outlier run can be told apart from a regression.
fn log_run(base: &Path, args: &Args, noise: &HostNoise, line: &str) {
    use std::io::Write as _;
    let entry = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"scale\": \"{}\", \"host\": {}, \"result\": {}}}\n",
        args.workload,
        args.seed,
        args.trace as u8,
        args.scale,
        noise.to_json(),
        line
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(base.join("runs.jsonl"))
        .and_then(|mut f| f.write_all(entry.as_bytes()));
    if let Err(e) = appended {
        eprintln!("could not log the run: {e}");
    }
}

fn timed(args: &Args, expected: &Expected, work: &Path) -> Outcome {
    match args.workload.as_str() {
        "sweep-paper" => crawl::run_sweep(
            &args.population("sweep-paper"),
            args.seed,
            &args.key("sweep", args.tiny()),
            args.seconds,
            expected,
        ),
        "study-journaled" => study::run_study(
            &args.population("study-journaled"),
            &args.key("study", args.tiny()),
            args.seconds,
            expected,
            work,
        ),
        _ => serve_live::run_serve(&args.serve_scale(), args.seed, args.seconds, work),
    }
}

/// The traced run. Every traced run reports every per-layer metric, so
/// each workload runs all three traced parts: its own at its own size,
/// and the others at tiny size (a census of the layers it does not use).
/// `sweep-paper` crawls the paper population and runs the experiments on
/// a second, tiny traced crawl; `study-journaled` crawls and runs the
/// experiments on its own population; `serve-live` does both on the tiny
/// population. The serve part is full size for `serve-live` and for
/// `study-journaled`, the store-heavy workload `BENCHMARK.json` lists, so
/// the serve layers are measured at full size without `serve-live`.
fn traced(args: &Args, expected: &Expected, work: &Path) -> Outcome {
    alloc::enable();
    let origin = Instant::now();
    let mut out = Outcome::default();
    let workload = args.workload.as_str();
    let crawl_tiny = args.tiny() || workload == "serve-live";

    let mut crawl_t = Tracer::new(origin, 0, KEEP_SPANS);
    let population = if crawl_tiny {
        PopulationConfig::tiny()
    } else {
        args.population(workload)
    };
    let order = (workload == "sweep-paper").then_some(args.seed);
    let c = crawl::traced_crawl(&population, order, work, &mut crawl_t);
    // A crawled cell fails when the traced loop's record differs from the
    // scheduler's; every cell fails when the scheduler's output differs
    // from the pinned sweep or, where the experiments run on this crawl,
    // the pinned report.
    let mut crawl_failed = c.failed;
    if workload == "sweep-paper" {
        crawl_failed = crawl_failed.max(crawl::check_sweep(
            &c,
            expected.get(&args.key("sweep", args.tiny())),
        ));
    }
    crawl::crawl_layer_metrics(&mut out.metrics, &crawl_t, &c);
    crawl::crawl_store_metrics(&mut out.metrics, &crawl_t, &c);

    // The experiments run on this crawl, or for sweep-paper on a tiny one
    // traced into a tracer of its own.
    let mut study_t = Tracer::new(origin, 1 << 40, KEEP_SPANS);
    if workload == "sweep-paper" {
        out.tally(c.cells, crawl_failed);
        let tiny = crawl::traced_crawl(&PopulationConfig::tiny(), None, work, &mut study_t);
        let report = study::traced_experiments(&tiny.study, &tiny.crawls, &mut study_t);
        let pinned = expected.get(&args.key("study", true));
        let failed = study::check_report(&report, tiny.cells, pinned);
        out.tally(tiny.cells, tiny.failed.max(failed));
        study::experiment_metrics(&mut out.metrics, &study_t);
    } else {
        let report = study::traced_experiments(&c.study, &c.crawls, &mut crawl_t);
        let pinned = expected.get(&args.key("study", crawl_tiny));
        let failed = study::check_report(&report, c.cells, pinned);
        out.tally(c.cells, crawl_failed.max(failed));
        study::experiment_metrics(&mut out.metrics, &crawl_t);
    }
    drop(c);

    let mut serve_t = Tracer::new(origin, 2 << 40, KEEP_SPANS);
    let mut serve_m = Metrics::default();
    let serve_scale = if workload == "serve-live" || workload == "study-journaled" {
        args.serve_scale()
    } else {
        ServeScale::tiny()
    };
    let s = serve_live::traced_serve(&serve_scale, args.seed, work, &mut serve_t, &mut serve_m);
    out.tally(s.requests, s.failed);
    for (name, value) in serve_m.iter() {
        if workload == "serve-live" || name.starts_with("serve.") {
            out.metrics.set(name, value);
        }
    }
    if workload == "serve-live" {
        out.metrics.set("trace.overhead_ratio", s.overhead);
    }

    let mut text = String::new();
    for (part, t) in [
        ("crawl", &crawl_t),
        ("study", &study_t),
        ("serve", &serve_t),
    ] {
        let _ = writeln!(text, "{{\"part\":\"{part}\"}}");
        text.push_str(&t.to_jsonl());
    }
    let _ = writeln!(text, "{}", deterministic_line(&out.metrics));
    let path = args
        .work
        .join(format!("trace-{workload}-seed{}.jsonl", args.seed));
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write the trace: {e}"),
    }
    eprintln!("{}", deterministic_line(&out.metrics));
    out
}

/// The per-layer counts that must repeat exactly across two traced runs
/// of one seed, with this run's values.
fn deterministic_line(m: &Metrics) -> String {
    let fields: Vec<String> = DETERMINISTIC
        .iter()
        .filter_map(|name| Some(format!("\"{name}\": {:?}", m.get(name)?)))
        .collect();
    format!("{{\"deterministic\": {{{}}}}}", fields.join(", "))
}
