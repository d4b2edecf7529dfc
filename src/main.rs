//! `cookiewall-study` — command-line front end for the reproduction.
//!
//! ```text
//! cookiewall-study run     [--scale tiny|small|paper] [--workers N] [--no-cache] [--json PATH]
//!                          [--store DIR | --resume DIR] [--checkpoint-every N] [--epoch N]
//! cookiewall-study crawl   --region <vp> [--scale …] [--workers N] [--epoch N]
//! cookiewall-study detect  <domain> [--region <vp>] [--adblock] [--scale …]
//! cookiewall-study walls   [--scale …] [--epoch N]
//! cookiewall-study diff    <store-a> <store-b> [--json PATH]
//! cookiewall-study fsck    <store> [--json PATH] [--dry-run]
//! cookiewall-study serve   <store-a> [<store-b>] [--script FILE] [--requests N] [--seed N]
//!                          [--readers N] [--zipf S] [--json PATH]
//! cookiewall-study stats   <store> [--json PATH]
//! cookiewall-study help
//! ```
//!
//! Every command is one entry of the `COMMANDS` table: its name, the
//! valued flags that shape the study (`run --resume` rejects those, since
//! the store records the study configuration), its other valued flags,
//! its switches, how many positionals it takes, and its handler. `main`
//! parses the arguments against the entry, so an unrecognized `--flag`, a
//! missing value, a repeated flag or a stray positional is a usage error,
//! never a silent no-op. Handlers read values through one typed accessor,
//! `Flags::value_in`, and return `Result<(), String>`; `main` prints an `Err`
//! as `error: …` and exits with status 1.

#![allow(clippy::disallowed_methods, reason = "CLI flags and run timing")]

use analysis::crawl::MAX_RETRIES;
use analysis::experiments::longitudinal;
use analysis::persist::targets_hash;
use analysis::{CheckpointPolicy, FailureTaxonomy, Study};
use bannerclick::BannerClick;
use browser::Browser;
use httpsim::{FaultConfig, Region};
use serve::{chain_digest, format_digest, parse_script, Query, QueryService, RequestStream};
use std::io::Write;
use std::ops::RangeBounds;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use store::{DiskFaultConfig, FaultyBackend, FsBackend, StorageBackend, Store, StoreSnapshot};
use webgen::PopulationConfig;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match args.first().map(String::as_str) {
        Some("help") | None => {
            print_help();
            return ExitCode::SUCCESS;
        }
        Some(name) => name,
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprintln!("unknown command {name:?}\n");
        print_help();
        return ExitCode::FAILURE;
    };
    match command
        .parse_args(&args[1..])
        .and_then(|flags| (command.run)(&flags))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "cookiewall-study — reproduction of 'Thou Shalt Not Reject' (IMC '23)\n\
         \n\
         USAGE:\n\
         \u{20}  cookiewall-study run    [--scale tiny|small|paper] [--workers N] [--no-cache] [--json PATH]\n\
         \u{20}                          [--store DIR | --resume DIR] [--checkpoint-every N] [--epoch N]\n\
         \u{20}      Run every experiment (Table 1, Figures 1-6, accuracy, bypass, SMPs)\n\
         \u{20}  cookiewall-study crawl  --region <vp> [--scale …] [--workers N] [--epoch N]\n\
         \u{20}      Crawl the target list from one vantage point, print detections\n\
         \u{20}  cookiewall-study detect <domain> [--region <vp>] [--adblock] [--scale …]\n\
         \u{20}      Analyze a single site and explain what the pipeline saw\n\
         \u{20}  cookiewall-study walls  [--scale …] [--epoch N]\n\
         \u{20}      List the ground-truth cookiewall roster of the synthetic web\n\
         \u{20}  cookiewall-study diff   <store-a> <store-b> [--json PATH]\n\
         \u{20}      Longitudinal churn between two persistent snapshots: walls that\n\
         \u{20}      appeared/disappeared, price deltas, per-region tracking drift\n\
         \u{20}  cookiewall-study fsck   <store> [--json PATH] [--dry-run]\n\
         \u{20}      Scrub a store: verify every cell against its journal hash,\n\
         \u{20}      quarantine torn/corrupt cells into a sidecar, and repair the\n\
         \u{20}      journal so `run --resume` re-crawls exactly the lost cells\n\
         \u{20}  cookiewall-study serve  <store-a> [<store-b>] [--script FILE] [--requests N]\n\
         \u{20}                          [--seed N] [--readers N] [--zipf S] [--json PATH]\n\
         \u{20}      Answer a deterministic query stream from sealed snapshots: wall\n\
         \u{20}      status, prevalence, price percentiles, and (with two stores)\n\
         \u{20}      epoch diffs; prints every response, a chained response digest,\n\
         \u{20}      and a per-class simulated-latency ledger. --script replaces the\n\
         \u{20}      seeded Zipf stream with a query script (one query per line)\n\
         \u{20}  cookiewall-study stats  <store> [--json PATH]\n\
         \u{20}      Store census: cells per region, sealed generation and segments,\n\
         \u{20}      index coverage, quarantine count. Opening the store truncates a\n\
         \u{20}      torn journal tail and orphan shard bytes, as every open does\n\
         \n\
         Vantage points: germany sweden us-east us-west brazil south-africa india australia\n\
         \n\
         The eight-vantage-point sweep runs on one work-stealing scheduler with a\n\
         shared-fetch cache; --workers sizes the pool (default: CPU count) and\n\
         --no-cache disables result sharing across vantage points. The scheduler\n\
         prints task/cache/utilization metrics to stderr after each run.\n\
         \n\
         PERSISTENT STORE (run):\n\
         \u{20}  --store DIR          checkpoint every completed (region, domain) cell into\n\
         \u{20}                       a journaled on-disk store as the sweep progresses\n\
         \u{20}  --resume DIR         continue an interrupted --store run: restores finished\n\
         \u{20}                       cells, recomputes only the missing ones, and produces\n\
         \u{20}                       a report byte-identical to an uninterrupted run; the\n\
         \u{20}                       study configuration is read back from the store\n\
         \u{20}  --checkpoint-every N flush the journal every N cells (default 64)\n\
         \u{20}  --abort-after N      stop after N newly crawled cells without flushing the\n\
         \u{20}                       buffered tail (simulated kill; testing hook)\n\
         \u{20}  --epoch N            generate the population at a later epoch: walls come\n\
         \u{20}                       and go, prices move, trackers churn — deterministically\n\
         \n\
         FAULT INJECTION (run and crawl):\n\
         \u{20}  --fault-rate F       probability a (region, domain) cell starts with a\n\
         \u{20}                       transient fault window (reset/5xx/stall/truncation,\n\
         \u{20}                       heals after 1-2 attempts); default 0\n\
         \u{20}  --fault-permanent F  probability a domain is dead for the whole run; default 0\n\
         \u{20}  --fault-seed N       seed for the deterministic fault schedule; default 0\n\
         \u{20}  --max-retries N      retry budget per navigation (exponential backoff in\n\
         \u{20}                       virtual time, per-host circuit breaker); default 3,\n\
         \u{20}                       at most 65534\n\
         \n\
         Faults are deterministic: same seed, same rates, same injected chaos. With\n\
         only transient faults and retries enabled, the report is byte-identical to\n\
         a fault-free run; a chaos summary goes to stderr.\n\
         \n\
         DISK-FAULT INJECTION (run, with --store/--resume):\n\
         \u{20}  --disk-fault-rate F  probability each store disk operation misbehaves:\n\
         \u{20}                       torn writes, short reads, ENOSPC, lying fsyncs,\n\
         \u{20}                       single-byte bit rot; default 0\n\
         \u{20}  --disk-fault-seed N  seed for the deterministic disk-fault schedule\n\
         \n\
         Disk faults are operator knobs, allowed with --resume: they model the disk,\n\
         not the study. Damage is always detected (every payload is hash-verified on\n\
         read — corrupt data is dropped, never decoded) and `fsck` + `run --resume`\n\
         re-crawl whatever was lost."
    );
}

/// One command of the CLI: the flags it accepts and the handler that runs
/// it on the parsed flags. Flag lists are space-separated names.
struct Command {
    name: &'static str,
    /// Valued flags that shape the study. The store records the study
    /// configuration, so `--resume` rejects every one of them, naming the
    /// first given in this order. Disk-fault flags model the disk, not the
    /// study, and are not here.
    study: &'static str,
    /// The other valued flags (`--flag V` or `--flag=V`).
    valued: &'static str,
    switches: &'static str,
    max_positionals: usize,
    run: fn(&Flags) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "run",
        study: "--scale --epoch --fault-rate --fault-permanent --fault-seed --max-retries --store",
        valued: "--workers --json --resume --checkpoint-every --abort-after --disk-fault-seed \
                 --disk-fault-rate",
        switches: "--no-cache",
        max_positionals: 0,
        run: cmd_run,
    },
    Command {
        name: "crawl",
        study: "--scale --epoch --fault-rate --fault-permanent --fault-seed --max-retries",
        valued: "--workers --region",
        switches: "",
        max_positionals: 0,
        run: cmd_crawl,
    },
    Command {
        name: "detect",
        study: "--scale",
        valued: "--region",
        switches: "--adblock",
        max_positionals: 1,
        run: cmd_detect,
    },
    Command {
        name: "walls",
        study: "--scale --epoch",
        valued: "",
        switches: "",
        max_positionals: 0,
        run: cmd_walls,
    },
    Command {
        name: "diff",
        study: "",
        valued: "--json",
        switches: "",
        max_positionals: 2,
        run: cmd_diff,
    },
    Command {
        name: "fsck",
        study: "",
        valued: "--json",
        switches: "--dry-run",
        max_positionals: 1,
        run: cmd_fsck,
    },
    Command {
        name: "serve",
        study: "",
        valued: "--script --requests --seed --readers --zipf --json",
        switches: "",
        max_positionals: 2,
        run: cmd_serve,
    },
    Command {
        name: "stats",
        study: "",
        valued: "--json",
        switches: "",
        max_positionals: 1,
        run: cmd_stats,
    },
];

/// Whether the space-separated flag list `list` names `flag`.
fn lists(list: &str, flag: &str) -> bool {
    list.split_whitespace().any(|f| f == flag)
}

impl Command {
    /// Strict flag parser: every `--flag` must be one of this command's
    /// valued flags (consumes the next argument, or `--flag=value`) or
    /// switches; anything else is a usage error. At most
    /// `max_positionals` bare arguments are accepted, repeating a valued
    /// flag is rejected, and so is a study-shaping flag next to `--resume`.
    fn parse_args(&self, args: &[String]) -> Result<Flags, String> {
        let mut out = Flags::default();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let Some(rest) = arg.strip_prefix("--") else {
                if out.positionals.len() >= self.max_positionals {
                    return Err(format!("unexpected argument {arg:?}"));
                }
                out.positionals.push(arg.clone());
                continue;
            };
            let (name, inline) = match rest.split_once('=') {
                Some((n, v)) => (format!("--{n}"), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            if lists(self.study, &name) || lists(self.valued, &name) {
                let value = match inline {
                    Some(v) => v,
                    None => args
                        .next_if(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("{name} needs a value"))?
                        .clone(),
                };
                if out.value(&name).is_some() {
                    return Err(format!("{name} given more than once"));
                }
                out.values.push((name, value));
            } else if lists(self.switches, &name) {
                if inline.is_some() {
                    return Err(format!("{name} does not take a value"));
                }
                if !out.has(&name) {
                    out.switches.push(name);
                }
            } else {
                return Err(format!(
                    "unknown flag {name} for this command (see `cookiewall-study help`)"
                ));
            }
        }
        let study_flag = self
            .study
            .split_whitespace()
            .find(|f| out.value(f).is_some());
        if let (Some(_), Some(conflict)) = (out.value("--resume"), study_flag) {
            return Err(format!(
                "{conflict} conflicts with --resume: the store already records the \
                 study configuration"
            ));
        }
        Ok(out)
    }
}

/// What `Flags::value_in` says a rate flag needs.
const PROBABILITY: &str = "a probability in [0, 1]";

/// Command-line flags, parsed against one command's table entry.
#[derive(Debug, Default)]
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// `name`'s value parsed as a `T` inside `range`, or `None` when the
    /// flag is absent (callers supply the default). A value that does not
    /// parse or falls outside `range` is the usage error "`name` needs
    /// `what`, got `value`".
    fn value_in<T: FromStr + PartialOrd>(
        &self,
        name: &str,
        range: impl RangeBounds<T>,
        what: &str,
    ) -> Result<Option<T>, String> {
        let Some(raw) = self.value(name) else {
            return Ok(None);
        };
        raw.parse::<T>()
            .ok()
            .filter(|v| range.contains(v))
            .map(Some)
            .ok_or_else(|| format!("{name} needs {what}, got {raw:?}"))
    }
}

/// One-line chaos summary for studies that ran with fault injection.
fn report_chaos(study: &Study) {
    let Some(plan) = &study.fault_plan else {
        return;
    };
    let config = plan.config();
    let injected = plan.injected();
    eprintln!(
        "chaos: seed {} transient {} permanent {} → {} faults injected \
         ({} resets, {} 5xx, {} stalls, {} truncated); retry budget {}",
        config.seed,
        config.transient_rate,
        config.permanent_rate,
        injected.total(),
        injected.resets,
        injected.server_errors,
        injected.stalls,
        injected.truncated,
        study.retry.max_retries,
    );
}

fn scale_config(name: &str) -> Result<PopulationConfig, String> {
    match name {
        "small" => Ok(PopulationConfig::small()),
        "tiny" => Ok(PopulationConfig::tiny()),
        "paper" => Ok(PopulationConfig::paper()),
        other => Err(format!("unknown scale {other:?} (tiny|small|paper)")),
    }
}

/// What shapes a study: the population (scale and epoch), the fault
/// schedule and the retry budget. Every field is checked before the slow
/// step, [`StudySpec::build`], generates the population.
struct StudySpec {
    config: PopulationConfig,
    /// Scale name, recorded in store metadata so `--resume` can rebuild
    /// the study.
    scale: String,
    epoch: u64,
    fault: Option<FaultConfig>,
    max_retries: Option<u32>,
}

impl StudySpec {
    /// The study `run` (without `--resume`), `crawl`, `detect` and `walls`
    /// build from their flags; a flag a command does not accept is absent
    /// and keeps its default.
    fn from_flags(flags: &Flags) -> Result<StudySpec, String> {
        let scale = flags.value("--scale").unwrap_or("small");
        let epoch = flags
            .value_in::<u64>("--epoch", .., "a non-negative integer")?
            .unwrap_or(0);
        let config = scale_config(scale)?.with_epoch(epoch);
        // Absent chaos flags mean no fault layer at all; `--fault-seed`
        // alone keeps rates at zero, which the study treats the same way.
        let seed = flags.value_in::<u64>("--fault-seed", .., "an integer")?;
        let transient = flags.value_in::<f64>("--fault-rate", 0.0..=1.0, PROBABILITY)?;
        let permanent = flags.value_in::<f64>("--fault-permanent", 0.0..=1.0, PROBABILITY)?;
        let fault =
            (seed.is_some() || transient.is_some() || permanent.is_some()).then(|| FaultConfig {
                transient_rate: transient.unwrap_or(0.0),
                permanent_rate: permanent.unwrap_or(0.0),
                ..FaultConfig::new(seed.unwrap_or(0))
            });
        let max_retries = flags.value_in::<u32>("--max-retries", .., "a non-negative integer")?;
        if let Some(n) = max_retries.filter(|&n| n > MAX_RETRIES) {
            return Err(format!("--max-retries is at most {MAX_RETRIES}, got {n}"));
        }
        Ok(StudySpec {
            config,
            scale: scale.to_string(),
            epoch,
            fault,
            max_retries,
        })
    }

    /// The study a store was created for, from its metadata.
    fn from_store(store: &Store) -> Result<StudySpec, String> {
        let scale = store
            .meta_value("scale")
            .ok_or("store has no scale metadata (not created by `run --store`?)")?;
        let epoch = meta::<u64>(store, "epoch")?.unwrap_or(0);
        let fault = match meta::<u64>(store, "fault_seed")? {
            None => None,
            Some(seed) => Some(FaultConfig {
                transient_rate: meta(store, "fault_rate")?.unwrap_or(0.0),
                permanent_rate: meta(store, "fault_permanent")?.unwrap_or(0.0),
                ..FaultConfig::new(seed)
            }),
        };
        // A budget the CLI refuses is refused here too, not truncated.
        let max_retries = meta::<u32>(store, "max_retries")?;
        if let Some(n) = max_retries.filter(|&n| n > MAX_RETRIES) {
            return Err(format!(
                "store has max_retries metadata {n}, above the largest retry budget {MAX_RETRIES}"
            ));
        }
        Ok(StudySpec {
            config: scale_config(scale)?.with_epoch(epoch),
            scale: scale.to_string(),
            epoch,
            fault,
            max_retries,
        })
    }

    /// Generate the population and install its servers.
    fn build(&self) -> Study {
        let mut study = Study::with_fault_config(self.config.clone(), self.fault);
        if let Some(n) = self.max_retries {
            study.retry.max_retries = n;
        }
        study
    }
}

/// Store metadata value `key` parsed as a `T`, or `None` when absent.
fn meta<T: FromStr>(store: &Store, key: &str) -> Result<Option<T>, String> {
    store
        .meta_value(key)
        .map(|raw| {
            raw.parse::<T>()
                .map_err(|_| format!("store has invalid {key} metadata {raw:?}"))
        })
        .transpose()
}

fn parse_region(flags: &Flags) -> Result<Region, String> {
    let name = flags.value("--region").unwrap_or("germany");
    match name.to_ascii_lowercase().as_str() {
        "germany" | "de" => Ok(Region::Germany),
        "sweden" | "se" => Ok(Region::Sweden),
        "us-east" | "useast" => Ok(Region::UsEast),
        "us-west" | "uswest" => Ok(Region::UsWest),
        "brazil" | "br" => Ok(Region::Brazil),
        "south-africa" | "za" => Ok(Region::SouthAfrica),
        "india" | "in" => Ok(Region::India),
        "australia" | "au" => Ok(Region::Australia),
        other => Err(format!("unknown vantage point {other:?}")),
    }
}

/// Parse the disk-chaos flags. These are operator knobs describing the
/// disk, not the study, so they are *not* resume conflicts — a store
/// written by a healthy disk can be resumed on a flaky one.
fn parse_disk_fault(flags: &Flags) -> Result<Option<DiskFaultConfig>, String> {
    let seed = flags.value_in::<u64>("--disk-fault-seed", .., "an integer")?;
    let rate = flags.value_in::<f64>("--disk-fault-rate", 0.0..=1.0, PROBABILITY)?;
    let noop = DiskFaultConfig::noop();
    Ok((seed.is_some() || rate.is_some()).then(|| DiskFaultConfig {
        seed: seed.unwrap_or(noop.seed),
        rate: rate.unwrap_or(noop.rate),
    }))
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let t0 = std::time::Instant::now();

    // Every flag is checked before the store is touched or the population
    // is built; `Command::parse_args` already rejected study flags next to
    // --resume.
    let disk_fault = parse_disk_fault(flags)?;
    let resume_dir = flags.value("--resume");
    let has_store = resume_dir.is_some() || flags.value("--store").is_some();
    if disk_fault.is_some() && !has_store {
        return Err("--disk-fault-seed/--disk-fault-rate need --store or --resume".to_string());
    }
    // With --resume every study flag is absent, so this is the default
    // spec and goes unused: the store's recorded one replaces it.
    let spec = StudySpec::from_flags(flags)?;
    let workers = flags.value_in::<usize>("--workers", 1.., "a positive integer")?;
    let policy = parse_policy(flags, has_store)?;

    // The disk the store runs on: the real filesystem, optionally wrapped
    // in the deterministic disk-fault layer.
    let faulty_disk = disk_fault.map(|cfg| Arc::new(FaultyBackend::new(Arc::new(FsBackend), cfg)));
    let backend: Arc<dyn StorageBackend> = match &faulty_disk {
        Some(f) => f.clone(),
        None => Arc::new(FsBackend),
    };

    // Assemble the study: either from flags, or — on resume — from the
    // configuration the store recorded when it was created.
    let (mut study, store) = if let Some(dir) = resume_dir {
        let store = Store::open_with(Path::new(dir), backend.clone())
            .map_err(|e| format!("opening store {dir}: {e}"))?;
        eprintln!("resuming from {dir} ({} cells restored)…", store.len());
        match store::quarantine_ledger(Path::new(dir), backend.as_ref()) {
            Ok(cells) if !cells.is_empty() => eprintln!(
                "quarantine: {} cell(s) in this store's quarantine ledger; any still \
                 missing will be re-crawled",
                cells.len()
            ),
            Ok(_) => {}
            Err(e) => eprintln!("quarantine: ledger unreadable ({e}); continuing"),
        }
        let spec = StudySpec::from_store(&store)?;
        eprintln!(
            "rebuilding the synthetic web (scale {}, epoch {})…",
            spec.scale, spec.epoch
        );
        (spec.build(), Some(store))
    } else {
        eprintln!("building the synthetic web…");
        let study = spec.build();
        let store = flags.value("--store").map(|dir| {
            let meta = store_meta(&study, &spec.scale, spec.epoch);
            Store::create_with(Path::new(dir), Region::ALL.len(), &meta, backend.clone()).map_err(
                |e| format!("creating store {dir}: {e} (use --resume for an existing store)"),
            )
        });
        (study, store.transpose()?)
    };
    if let Some(w) = workers {
        study.workers = w;
    }
    study.cache = !flags.has("--no-cache");

    eprintln!(
        "  {} sites, {} targets, {} ground-truth walls ({:?})",
        study.population.sites().len(),
        study.targets().len(),
        study.population.ground_truth_walls().len(),
        t0.elapsed()
    );
    eprintln!("running every experiment…");
    let report = match &store {
        None => analysis::run_all(&study),
        Some(store) => match analysis::run_all_persistent(&study, store, &policy)? {
            None => {
                let dir = store.dir().display();
                eprintln!(
                    "stopped after {} newly crawled cells; finished work is checkpointed.\n\
                     resume with: cookiewall-study run --resume {dir}",
                    policy.abort_after.unwrap_or(0),
                );
                report_disk_chaos(&faulty_disk);
                return Ok(());
            }
            Some(report) => report,
        },
    };
    println!("{}", report.render());
    eprint!("{}", report.crawl_metrics.render());
    report_chaos(&study);
    report_disk_chaos(&faulty_disk);
    write_json(flags, "results", || report.to_json())?;
    eprintln!("total: {:?}", t0.elapsed());
    Ok(())
}

/// One-line summary of injected disk chaos, mirroring [`report_chaos`].
fn report_disk_chaos(faulty: &Option<Arc<FaultyBackend>>) {
    if let Some(disk) = faulty {
        eprintln!(
            "disk chaos: {} disk fault(s) injected (run `cookiewall-study fsck` \
             to scrub the store)",
            disk.trace().len()
        );
    }
}

/// Store metadata recorded at creation: everything `--resume` needs to
/// rebuild an identical study, plus the target-list hash that guards
/// against resuming across different universes.
fn store_meta(study: &Study, scale_name: &str, epoch: u64) -> Vec<(String, String)> {
    let mut meta = vec![
        ("scale".to_string(), scale_name.to_string()),
        ("epoch".to_string(), epoch.to_string()),
        (
            "targets_hash".to_string(),
            targets_hash(&study.targets()).to_string(),
        ),
        (
            "max_retries".to_string(),
            study.retry.max_retries.to_string(),
        ),
    ];
    if let Some(plan) = &study.fault_plan {
        let config = plan.config();
        meta.push(("fault_seed".to_string(), config.seed.to_string()));
        meta.push(("fault_rate".to_string(), config.transient_rate.to_string()));
        meta.push((
            "fault_permanent".to_string(),
            config.permanent_rate.to_string(),
        ));
    }
    meta
}

/// Parse `--checkpoint-every` / `--abort-after` into a checkpoint policy;
/// both require a store to act on.
fn parse_policy(flags: &Flags, has_store: bool) -> Result<CheckpointPolicy, String> {
    for name in ["--checkpoint-every", "--abort-after"] {
        if !has_store && flags.value(name).is_some() {
            return Err(format!("{name} needs --store or --resume"));
        }
    }
    let default = CheckpointPolicy::default();
    Ok(CheckpointPolicy {
        every: flags
            .value_in::<usize>("--checkpoint-every", .., "a non-negative integer")?
            .unwrap_or(default.every),
        abort_after: flags.value_in::<usize>("--abort-after", .., "a non-negative integer")?,
    })
}

fn cmd_diff(flags: &Flags) -> Result<(), String> {
    let [a, b] = flags.positionals.as_slice() else {
        return Err(
            "diff needs two store directories: cookiewall-study diff <store-a> <store-b>".into(),
        );
    };
    let before = Store::open(Path::new(a)).map_err(|e| format!("opening store {a}: {e}"))?;
    let after = Store::open(Path::new(b)).map_err(|e| format!("opening store {b}: {e}"))?;
    let churn = longitudinal::diff_stores(&before, &after)?;
    println!("{}", churn.render());
    write_json(flags, "churn report", || churn.to_json())
}

fn cmd_fsck(flags: &Flags) -> Result<(), String> {
    let Some(dir) = flags.positionals.first() else {
        return Err("fsck needs a store directory: cookiewall-study fsck <store>".into());
    };
    let report = store::fsck(Path::new(dir), &FsBackend, flags.has("--dry-run"))
        .map_err(|e| format!("fsck {dir}: {e}"))?;
    print!("{}", report.render());
    write_json(flags, "fsck report", || report.to_json())
}

fn cmd_crawl(flags: &Flags) -> Result<(), String> {
    let spec = StudySpec::from_flags(flags)?;
    let region = parse_region(flags)?;
    let workers = flags.value_in::<usize>("--workers", 1.., "a positive integer")?;
    let study = spec.build();
    let workers = workers.unwrap_or(study.workers);
    let targets = study.targets();
    eprintln!(
        "crawling {} targets from {}…",
        targets.len(),
        region.label()
    );
    let crawl = analysis::crawl_region_with(
        &study.net,
        region,
        &targets,
        &study.tool,
        workers,
        &study.retry,
    );
    let mut out = std::io::stdout().lock();
    for r in &crawl.records {
        if r.cookiewall {
            let line = format!(
                "{}\tembedding={:?}\tprice={}\tlang={}\tprovider={}",
                r.domain,
                r.embedding,
                r.monthly_eur
                    .map(|p| format!("{p:.2}€/mo"))
                    .unwrap_or_else(|| "-".into()),
                r.language.unwrap_or("-"),
                r.provider.as_deref().unwrap_or("first-party"),
            );
            if writeln!(out, "{line}").is_err() {
                return Ok(()); // downstream pipe closed (e.g. head)
            }
        }
    }
    eprintln!(
        "{} cookiewalls, {} banners, {} reachable of {} targets ({} ms on {} workers)",
        crawl.wall_count(),
        crawl.records.iter().filter(|r| r.banner).count(),
        crawl.records.iter().filter(|r| r.reachable).count(),
        targets.len(),
        crawl.metrics.wall_ms,
        workers
    );
    let failures = FailureTaxonomy::from_crawls(std::slice::from_ref(&crawl));
    eprintln!(
        "{} failed ({} gave up after retries, {} rescued by retries), {} unresolved requests",
        failures.total_failures,
        failures.gave_up,
        failures.retried_ok,
        study.net.stats().unresolved(),
    );
    report_chaos(&study);
    Ok(())
}

fn cmd_detect(flags: &Flags) -> Result<(), String> {
    let Some(domain) = flags.positionals.first() else {
        return Err("detect needs a domain argument".into());
    };
    let spec = StudySpec::from_flags(flags)?;
    let region = parse_region(flags)?;
    let study = spec.build();
    let mut browser = Browser::new(study.net.clone(), region);
    if flags.has("--adblock") {
        browser = browser.with_blocker(blocklist::FilterEngine::ublock_with_annoyances());
    }
    let tool = BannerClick::new();
    let analysis = tool.analyze(&mut browser, domain);
    if !analysis.reachable {
        return Err(format!(
            "{domain} is not reachable in this synthetic web \
            (use `walls` to list sites)"
        ));
    }
    println!("domain:       {domain}");
    println!("vantage:      {}", region.label());
    println!("banner:       {}", analysis.banner_detected());
    println!("cookiewall:   {}", analysis.cookiewall_detected());
    if let Some(e) = analysis.embedding() {
        println!("embedding:    {e:?}");
    }
    if let Some(p) = analysis.price() {
        println!(
            "price:        {} {} ≙ {:.2} €/month{}",
            p.amount,
            p.currency,
            p.monthly_eur,
            if p.per_year { " (yearly offer)" } else { "" }
        );
    }
    if let Some(provider) = &analysis.provider {
        println!("provider:     {provider}");
    }
    if let Some(b) = &analysis.banner {
        println!("banner text:  {}", b.text);
    }
    if analysis.page_flags.anything_blocked {
        println!("blocked:      content blocker cancelled requests");
    }
    if analysis.page_flags.adblock_interstitial {
        println!("interstitial: site demands the blocker be disabled");
    }
    // Ground truth comparison (the 'manual verification' step).
    let truth = study
        .population
        .site(domain)
        .map(|s| s.banner.is_cookiewall())
        .unwrap_or(false);
    println!(
        "ground truth: {}",
        if truth {
            "cookiewall"
        } else {
            "not a cookiewall"
        }
    );
    Ok(())
}

fn cmd_walls(flags: &Flags) -> Result<(), String> {
    let study = StudySpec::from_flags(flags)?.build();
    let mut out = std::io::stdout().lock();
    for site in study.population.ground_truth_walls() {
        let webgen::BannerKind::Cookiewall(cw) = &site.banner else {
            continue;
        };
        let line = format!(
            "{}\t{:?}\t{:?}\t{:.2}€/mo\t{}",
            site.domain,
            cw.embedding,
            cw.visibility,
            cw.price.monthly_eur(),
            cw.smp.map(|s| s.name()).unwrap_or("independent"),
        );
        if writeln!(out, "{line}").is_err() {
            return Ok(()); // downstream pipe closed (e.g. head)
        }
    }
    Ok(())
}

/// Split a query script across reader lanes, round-robin by line index —
/// the same partition every run, so the response digest is stable.
fn partition_script(queries: Vec<Query>, readers: usize) -> Vec<Vec<Query>> {
    let mut lanes = vec![Vec::new(); readers.max(1)];
    for (i, q) in queries.into_iter().enumerate() {
        lanes[i % readers.max(1)].push(q);
    }
    lanes
}

/// Write the report `json` builds to the `--json` path, if one was given.
fn write_json(flags: &Flags, what: &str, json: impl FnOnce() -> String) -> Result<(), String> {
    if let Some(path) = flags.value("--json") {
        std::fs::write(path, json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("JSON {what} written to {path}");
    }
    Ok(())
}

/// Minimal JSON string escaping for the hand-rolled reports.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// `serve`'s request-stream flags with their defaults: readers, requests,
/// seed and Zipf exponent. The last three shape the seeded stream that
/// `--script` replaces, so giving one with `--script` is a usage error.
fn stream_flags(flags: &Flags) -> Result<(usize, usize, u64, f64), String> {
    let readers = flags.value_in::<usize>("--readers", 1.., "an integer ≥ 1")?;
    let requests = flags.value_in::<usize>("--requests", .., "an integer ≥ 0")?;
    let seed = flags.value_in::<u64>("--seed", .., "a non-negative integer")?;
    let zipf = flags.value_in::<f64>("--zipf", 0.0..=f64::MAX, "a non-negative exponent")?;
    if let (Some(_), Some(flag)) = (
        flags.value("--script"),
        ["--requests", "--seed", "--zipf"]
            .into_iter()
            .find(|f| flags.value(f).is_some()),
    ) {
        return Err(format!(
            "{flag} has no effect with --script: the script replaces the seeded \
             request stream"
        ));
    }
    Ok((
        readers.unwrap_or(3),
        requests.unwrap_or(256),
        seed.unwrap_or(0),
        zipf.unwrap_or(1.1),
    ))
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let Some(dir_a) = flags.positionals.first() else {
        return Err(
            "serve needs a sealed store: cookiewall-study serve <store-a> [<store-b>] \
             (run `run --store DIR` first, or `fsck` to repair the index)"
                .into(),
        );
    };
    let (readers, requests, seed, zipf) = stream_flags(flags)?;
    let open = |dir: &String| {
        StoreSnapshot::open(Path::new(dir))
            .map(Arc::new)
            .map_err(|e| format!("opening snapshot {dir}: {e}"))
    };
    let epoch_a = open(dir_a)?;
    let epoch_b = flags.positionals.get(1).map(open).transpose()?;

    let service = QueryService::new(Arc::clone(&epoch_a), epoch_b.is_some());
    if let Some(b) = &epoch_b {
        service.install_second_epoch(Arc::clone(b));
    }

    // The request stream: a query script if given, otherwise the seeded
    // Zipf workload over the sealed domain universe.
    let lanes: Vec<Vec<Query>> = match flags.value("--script") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading script {path}: {e}"))?;
            let queries = parse_script(&text).map_err(|e| format!("script {path}: {e}"))?;
            partition_script(queries, readers)
        }
        None => {
            let mut domains = Vec::new();
            for region in 0..epoch_a.regions() as u8 {
                epoch_a.for_each_region_entry(region, &mut |domain, _| {
                    domains.push(domain.to_string());
                });
            }
            let stream = RequestStream::new(
                seed,
                domains,
                zipf,
                epoch_a.regions() as u8,
                epoch_b.is_some(),
            );
            (0..readers).map(|r| stream.lane(r, requests)).collect()
        }
    };

    // Answer reader-major: every lane in order, every request in order.
    // The digest chains response texts only, so it is the same whether
    // the stream came from a script or from the synthesizer.
    let mut digest = 0u64;
    let mut responses = 0usize;
    let mut out = std::io::stdout().lock();
    for (reader, lane) in lanes.iter().enumerate() {
        for query in lane {
            let response = service.answer(query);
            digest = chain_digest(digest, &response.text);
            responses += 1;
            if writeln!(out, "r{reader}\t{}", response.text).is_err() {
                return Ok(()); // downstream pipe closed (e.g. head)
            }
        }
    }
    let ledger = service.ledger();
    println!("digest={}", format_digest(digest));
    println!("clock_us={}", service.clock().now_micros());
    for s in ledger.summaries() {
        println!(
            "latency class={} count={} p50_us={} p99_us={}",
            s.class, s.count, s.p50_micros, s.p99_micros
        );
    }
    write_json(flags, "serve ledger", || {
        let classes: Vec<String> = ledger
            .summaries()
            .iter()
            .map(|s| {
                format!(
                    "{{\"class\":\"{}\",\"count\":{},\"p50_us\":{},\"p99_us\":{}}}",
                    s.class, s.count, s.p50_micros, s.p99_micros
                )
            })
            .collect();
        format!(
            "{{\"store_a\":\"{}\",\"store_b\":{},\"responses\":{},\"digest\":\"{}\",\
             \"clock_us\":{},\"classes\":[{}]}}\n",
            json_escape(dir_a),
            flags
                .positionals
                .get(1)
                .map(|d| format!("\"{}\"", json_escape(d)))
                .unwrap_or_else(|| "null".to_string()),
            responses,
            format_digest(digest),
            service.clock().now_micros(),
            classes.join(",")
        )
    })
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let Some(dir) = flags.positionals.first() else {
        return Err("stats needs a store directory: cookiewall-study stats <store>".into());
    };
    let store = Store::open(Path::new(dir)).map_err(|e| format!("opening store {dir}: {e}"))?;
    let quarantined = store::quarantine_ledger(Path::new(dir), &FsBackend).map(|c| c.len());
    // Per-region census from the live store's index: `Store::open` has
    // just verified every payload it indexed, so no extent is read.
    let region_cells: Vec<(String, usize)> = (0..store.regions() as u8)
        .map(|r| (analysis::query::region_label(r), store.region_len(r)))
        .collect();
    // The sealed view, if the store has ever been sealed and its index
    // slots verify: (generation, segments, sealed cells, coverage %). A
    // damaged index is reported, not fatal.
    let sealed = StoreSnapshot::open(Path::new(dir)).map(|snap| {
        let mut segments = std::collections::BTreeSet::new();
        for region in 0..snap.regions() as u8 {
            snap.for_each_region_entry(region, &mut |domain, _| {
                if let Some(segment) = snap.segment_of(region, domain) {
                    segments.insert(segment);
                }
            });
        }
        let coverage = if store.is_empty() {
            100.0
        } else {
            snap.len() as f64 * 100.0 / store.len() as f64
        };
        (snap.generation(), segments.len(), snap.len(), coverage)
    });
    println!("store: {dir}");
    println!("cells: {}", store.len());
    for (label, n) in &region_cells {
        println!("  {label}: {n}");
    }
    match &sealed {
        Ok((generation, segments, sealed_cells, coverage)) => {
            println!("sealed generation: {generation}");
            println!("sealed segments: {segments}");
            println!(
                "index coverage: {coverage:.1}% ({sealed_cells} of {} cells sealed)",
                store.len()
            );
        }
        Err(e) => println!("index: unreadable ({e})"),
    }
    match &quarantined {
        Ok(n) => println!("quarantined cells: {n}"),
        Err(e) => println!("quarantined cells: unreadable ({e})"),
    }
    write_json(flags, "stats", || {
        let regions: Vec<String> = region_cells
            .iter()
            .map(|(label, n)| format!("{{\"region\":\"{}\",\"cells\":{n}}}", json_escape(label)))
            .collect();
        let index = match &sealed {
            Ok((generation, segments, sealed_cells, coverage)) => format!(
                "{{\"generation\":{generation},\"segments\":{segments},\
                 \"sealed_cells\":{sealed_cells},\"coverage_percent\":{coverage:.1}}}"
            ),
            Err(e) => format!("{{\"error\":\"{}\"}}", json_escape(&e.to_string())),
        };
        let quarantined = match &quarantined {
            Ok(n) => n.to_string(),
            Err(e) => format!("{{\"error\":\"{}\"}}", json_escape(&e.to_string())),
        };
        format!(
            "{{\"store\":\"{}\",\"cells\":{},\"regions\":[{}],\"index\":{index},\
             \"quarantined\":{quarantined}}}\n",
            json_escape(dir),
            store.len(),
            regions.join(","),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    /// Parse space-separated `args` against `name`'s table entry.
    fn parse(name: &str, args: &str) -> Result<Flags, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        command(name).parse_args(&args)
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        let err = parse("run", "--scael paper").unwrap_err();
        assert!(err.contains("unknown flag --scael"), "{err}");
        let err = parse("run", "--no-cach").unwrap_err();
        assert!(err.contains("unknown flag --no-cach"), "{err}");
    }

    #[test]
    fn valued_flags_parse_space_and_equals_forms() {
        let flags = parse("run", "--scale paper").unwrap();
        assert_eq!(flags.value("--scale"), Some("paper"));
        let flags = parse("run", "--scale=tiny").unwrap();
        assert_eq!(flags.value("--scale"), Some("tiny"));
    }

    #[test]
    fn missing_values_and_duplicates_are_rejected() {
        let err = parse("run", "--scale").unwrap_err();
        assert!(err.contains("--scale needs a value"), "{err}");
        let err = parse("run", "--scale --no-cache").unwrap_err();
        assert!(err.contains("--scale needs a value"), "{err}");
        let err = parse("run", "--scale tiny --scale paper").unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn switches_reject_values_and_positionals_are_bounded() {
        let err = parse("run", "--no-cache=1").unwrap_err();
        assert!(err.contains("does not take a value"), "{err}");
        let err = parse("run", "stray").unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        let flags = parse("diff", "a b").unwrap();
        assert_eq!(flags.positionals, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn resume_conflicts_cover_every_study_shaping_flag() {
        let study =
            "--scale --epoch --fault-rate --fault-permanent --fault-seed --max-retries --store";
        assert_eq!(command("run").study, study);
        for conflict in study.split_whitespace() {
            let err = parse("run", &format!("--resume dir {conflict} 1")).unwrap_err();
            assert!(
                err.starts_with(&format!("{conflict} conflicts with --resume")),
                "{err}"
            );
        }
    }

    #[test]
    fn disk_fault_flags_are_operator_knobs_compatible_with_resume() {
        let run = command("run");
        for flag in ["--disk-fault-seed", "--disk-fault-rate"] {
            assert!(lists(run.valued, flag), "{flag} must be a run flag");
            assert!(
                !lists(run.study, flag),
                "{flag} models the disk, not the study — it must stay legal with --resume"
            );
        }
        assert!(parse(
            "run",
            "--resume dir --disk-fault-seed 1 --disk-fault-rate 0.5"
        )
        .is_ok());
    }

    #[test]
    fn serve_flags_parse_with_defaults_and_validate() {
        let flags = parse("serve", "store-a store-b").unwrap();
        assert_eq!(stream_flags(&flags).unwrap(), (3, 256, 0, 1.1));
        let args = "store-a --readers 5 --requests=64 --seed 9 --zipf 0.0";
        let flags = parse("serve", args).unwrap();
        assert_eq!(stream_flags(&flags).unwrap(), (5, 64, 9, 0.0));

        let flags = parse("serve", "a --readers 0").unwrap();
        let err = stream_flags(&flags).unwrap_err();
        assert!(err.contains("--readers"), "{err}");
        let flags = parse("serve", "a --zipf -1").unwrap();
        assert!(stream_flags(&flags).is_err());
        let flags = parse("serve", "a --zipf inf").unwrap();
        assert!(stream_flags(&flags).is_err(), "the exponent must be finite");

        let err = parse("serve", "a b c").unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
        let err = parse("serve", "a --dry-run").unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn serve_script_rejects_stream_flags() {
        for flag in ["--requests", "--seed", "--zipf"] {
            let flags = parse("serve", &format!("a --script s {flag} 1")).unwrap();
            let err = cmd_serve(&flags).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} has no effect with --script")),
                "{err}"
            );
        }
    }

    #[test]
    fn script_partition_is_round_robin_and_survives_zero_readers() {
        let queries = vec![
            Query::EpochDiff,
            Query::Prevalence { region: 0 },
            Query::Prices { region: None },
            Query::EpochDiff,
        ];
        let lanes = partition_script(queries.clone(), 3);
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes[0].len(), 2);
        assert_eq!(lanes[1].len(), 1);
        assert_eq!(lanes[2].len(), 1);
        let lanes = partition_script(queries, 0);
        assert_eq!(lanes.len(), 1, "zero readers clamp to one lane");
        assert_eq!(lanes[0].len(), 4);
    }

    #[test]
    fn json_escape_covers_quotes_and_control_bytes() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn disk_fault_flags_parse_and_validate() {
        let none = parse_disk_fault(&Flags::default()).unwrap();
        assert!(none.is_none(), "no flags, no fault layer");
        let flags = parse("run", "--disk-fault-seed 7 --disk-fault-rate 0.25").unwrap();
        let config = parse_disk_fault(&flags).unwrap().unwrap();
        assert_eq!(config.seed, 7);
        assert!((config.rate - 0.25).abs() < 1e-12);
        let flags = parse("run", "--disk-fault-rate 1.5").unwrap();
        let err = parse_disk_fault(&flags).unwrap_err();
        assert!(err.contains("probability"), "{err}");
    }
}
