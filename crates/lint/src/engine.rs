//! The linter driver: scan a workspace root, run every rule, apply
//! suppressions and the grandfathering baseline, and render the report.
//! A valid `lint:allow` that silences no finding of any rule it names is
//! stale, and is reported as a failing `suppression` finding.
//!
//! The engine is production-shaped: the per-file phase (parse + local
//! rules) fans out across `--jobs` worker threads, the global rules run
//! one-per-thread, and an optional incremental cache (`crate::cache`)
//! skips whatever the content hashes prove unchanged. Findings are
//! sorted at the end, so the report is byte-identical at any job count
//! and on any hit/miss mix.

use crate::cache;
use crate::rules::{suppressible_names, Finding, Rule, Workspace, RULES};
use crate::source::{self, SourceFile};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// File (relative to the root) holding grandfathered findings.
pub const BASELINE_FILE: &str = "lint.baseline";

/// Engine knobs: parallelism and the incremental cache.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Worker threads for the per-file phase; 0 means one per available
    /// core. The findings are byte-identical at every job count.
    pub jobs: usize,
    /// Cache directory (conventionally `<root>/target/lint-cache`);
    /// `None` disables the incremental cache.
    pub cache_dir: Option<PathBuf>,
}

/// What the incremental cache did for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Files whose content hash matched a cached entry.
    pub file_hits: usize,
    /// Files scanned.
    pub file_total: usize,
    /// Did the cross-file entry's workspace fingerprint match?
    pub global_hit: bool,
}

/// How one reported finding counts toward the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// A new violation: fails the run.
    Failing,
    /// Matched a baseline entry: reported, does not fail.
    Grandfathered,
}

/// Result of one lint run.
pub struct Report {
    /// Findings with their status, sorted by (path, line, rule, message).
    pub findings: Vec<(Finding, Status)>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Findings silenced by valid `lint:allow` directives.
    pub suppressed: usize,
    /// Cache hit/miss statistics; `None` when the cache was disabled.
    pub cache: Option<CacheStats>,
}

impl Report {
    /// Findings that fail the run (everything not grandfathered).
    pub fn failing(&self) -> usize {
        self.findings
            .iter()
            .filter(|(_, s)| *s == Status::Failing)
            .count()
    }

    /// Findings matched against the baseline.
    pub fn grandfathered(&self) -> usize {
        self.findings.len() - self.failing()
    }

    /// Human-readable report: one line per finding plus a summary. The
    /// format is pinned by the golden test — change it deliberately.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (f, status) in &self.findings {
            let suffix = match status {
                Status::Failing => "",
                Status::Grandfathered => " (grandfathered)",
            };
            out.push_str(&format!(
                "{}:{}: [{}] {}{}\n",
                f.path, f.line, f.rule, f.message, suffix
            ));
        }
        out.push_str(&format!(
            "lint: {} failing, {} grandfathered, {} suppressed across {} files\n",
            self.failing(),
            self.grandfathered(),
            self.suppressed,
            self.files_scanned
        ));
        out
    }

    /// Machine-readable report. The schema is stable (CI and editors
    /// depend on it): a top-level object with `findings` (each carrying
    /// `rule`, `code`, `path`, `line`, `span.col`, `message`, `status`)
    /// and `summary` counts. `line` and `span.col` are 1-based;
    /// synthetic findings (malformed suppressions, stale baseline
    /// entries) anchor at column 1. Suppressed findings never appear —
    /// only `failing` and `grandfathered` statuses exist.
    pub fn render_json(&self) -> String {
        let code_of = |rule: &str| {
            crate::rules::RULES
                .iter()
                .find(|r| r.name() == rule)
                .map(|r| r.code())
                .unwrap_or("")
        };
        let mut out = String::from("{\n  \"findings\": [");
        for (n, (f, status)) in self.findings.iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            let status = match status {
                Status::Failing => "failing",
                Status::Grandfathered => "grandfathered",
            };
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"code\": {}, \"path\": {}, \"line\": {}, \
                 \"span\": {{\"col\": {}}}, \"message\": {}, \"status\": {}}}",
                json_str(f.rule),
                json_str(code_of(f.rule)),
                json_str(&f.path),
                f.line,
                f.col,
                json_str(&f.message),
                json_str(status),
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"summary\": {{\"failing\": {}, \"grandfathered\": {}, \
             \"suppressed\": {}, \"files_scanned\": {}}}\n}}",
            self.failing(),
            self.grandfathered(),
            self.suppressed,
            self.files_scanned
        ));
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// the linter is zero-dependency by design, so no serde here.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run every rule over the workspace at `root` with default options
/// (auto parallelism, no cache). `baseline` overrides the default
/// `<root>/lint.baseline` (which applies only when it exists).
pub fn run(root: &Path, baseline: Option<&Path>) -> io::Result<Report> {
    run_with(root, baseline, &Options::default())
}

/// [`run`] with explicit parallelism and cache options.
pub fn run_with(root: &Path, baseline: Option<&Path>, opts: &Options) -> io::Result<Report> {
    let known = suppressible_names();
    let mut inputs: Vec<(String, String, u64)> = Vec::new();
    for path in source::collect_files(root)? {
        let text = fs::read_to_string(&path)?;
        let hash = cache::fnv1a64(text.as_bytes());
        inputs.push((source::relative_path(root, &path), text, hash));
    }
    let design = fs::read_to_string(root.join("DESIGN.md")).ok();
    let ruleset = cache::ruleset_id();
    let keys: Vec<(&str, u64)> = inputs.iter().map(|(p, _, h)| (p.as_str(), *h)).collect();
    let fingerprint = cache::workspace_fingerprint(&ruleset, design.as_deref(), &keys);

    let cached = opts
        .cache_dir
        .as_deref()
        .map(|dir| cache::load(dir, &ruleset));
    let hits: Vec<bool> = inputs
        .iter()
        .map(|(p, _, h)| {
            cached
                .as_ref()
                .is_some_and(|c| c.files.get(p.as_str()).is_some_and(|e| e.hash == *h))
        })
        .collect();
    let stats = cached.as_ref().map(|c| CacheStats {
        file_hits: hits.iter().filter(|h| **h).count(),
        file_total: inputs.len(),
        global_hit: c
            .global
            .as_ref()
            .is_some_and(|g| g.fingerprint == fingerprint),
    });

    // Full hit: every file and the cross-file entry are current, so the
    // findings are assembled straight from the cache — no parse, no call
    // graph, no rules.
    let full_hit = stats.is_some_and(|s| s.global_hit && s.file_hits == s.file_total);
    let (findings, suppressed) = if full_hit {
        let c = cached.as_ref().expect("full hit implies a loaded cache");
        let mut findings = Vec::new();
        let mut suppressed = 0usize;
        for (path, _, _) in &inputs {
            let entry = &c.files[path.as_str()];
            findings.extend(entry.findings.iter().cloned());
            suppressed += entry.suppressed as usize;
        }
        let global = c.global.as_ref().expect("full hit implies a global entry");
        findings.extend(global.findings.iter().cloned());
        suppressed += global.suppressed as usize;
        (findings, suppressed)
    } else {
        analyze(
            &inputs,
            &hits,
            design,
            &known,
            opts,
            cached.as_ref(),
            fingerprint,
            &ruleset,
        )?
    };

    // Baseline: grandfather matching findings, flag stale entries so the
    // baseline can only ratchet down.
    let baseline_path = baseline
        .map(Path::to_path_buf)
        .unwrap_or_else(|| root.join(BASELINE_FILE));
    let mut entries = load_baseline(&baseline_path)?;
    let mut out: Vec<(Finding, Status)> = Vec::new();
    for f in findings {
        let matched = entries.iter().position(|e| {
            !e.used && e.rule == f.rule && e.path == f.path && e.message == f.message
        });
        match matched {
            Some(i) => {
                entries[i].used = true;
                out.push((f, Status::Grandfathered));
            }
            None => out.push((f, Status::Failing)),
        }
    }
    let baseline_rel = source::relative_path(root, &baseline_path);
    for e in entries.iter().filter(|e| !e.used) {
        out.push((
            Finding {
                rule: "baseline",
                path: baseline_rel.clone(),
                line: e.line,
                col: 1, // synthetic: anchor at line start, col is 1-based
                message: format!(
                    "stale baseline entry `{}\t{}` matches no current finding — delete it \
                     (the baseline only ratchets down)",
                    e.rule, e.path
                ),
            },
            Status::Failing,
        ));
    }

    out.sort_by(|(a, _), (b, _)| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    Ok(Report {
        findings: out,
        files_scanned: inputs.len(),
        suppressed,
        cache: stats,
    })
}

/// One worker thread per available core, bounded by the work items.
fn effective_jobs(requested: usize, items: usize) -> usize {
    let jobs = if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    };
    jobs.clamp(1, items.max(1))
}

/// What the local phase leaves of one file: the findings no directive
/// silenced (its malformed directives among them), how many were
/// silenced, and which directives silenced them. This is the unit the
/// per-file cache stores.
struct Local {
    findings: Vec<Finding>,
    suppressed: u32,
    /// Indices into the file's `suppressions`, ascending.
    used: Vec<u32>,
}

/// Local analysis of one parsed file: every local rule, then that file's
/// suppressions, then its malformed directives as findings.
fn local_findings(file: &SourceFile) -> Local {
    let mut raw = Vec::new();
    for rule in RULES.iter().filter(|r| r.is_local()) {
        rule.check_file(file, &mut raw);
    }
    let mut suppressed = 0u32;
    let mut keep = Vec::new();
    let mut used = Vec::new();
    for f in raw {
        if silence(file, &f, &mut used) {
            suppressed += 1;
        } else {
            keep.push(f);
        }
    }
    used.sort_unstable();
    used.dedup();
    for bad in &file.bad_suppressions {
        keep.push(Finding {
            rule: "suppression",
            path: file.path.clone(),
            line: bad.line,
            col: 1, // synthetic: anchor at line start, col is 1-based
            message: bad.message.clone(),
        });
    }
    Local {
        findings: keep,
        suppressed,
        used,
    }
}

/// Is the finding silenced by a valid `lint:allow` on its line that names
/// its rule (by name or R-code)? Every such directive's index is pushed
/// onto `used`.
fn silence(file: &SourceFile, f: &Finding, used: &mut Vec<u32>) -> bool {
    let code = RULES
        .iter()
        .find(|r| r.name() == f.rule)
        .map(|r| r.code())
        .unwrap_or("");
    let before = used.len();
    for (i, s) in file.suppressions.iter().enumerate() {
        if s.covers(f.rule, f.line) || s.covers(code, f.line) {
            used.push(i as u32);
        }
    }
    used.len() > before
}

/// The `suppression` findings for the directives of `file` that neither
/// phase used: each silences no finding of any rule it names, so it can
/// only hide a future finding nobody has reviewed.
fn unused_suppressions(file: &SourceFile, used: &[u32], out: &mut Vec<Finding>) {
    for (i, s) in file.suppressions.iter().enumerate() {
        if !used.contains(&(i as u32)) {
            out.push(Finding {
                rule: "suppression",
                path: file.path.clone(),
                line: s.lines.0,
                col: 1, // synthetic: anchor at line start, col is 1-based
                message: format!(
                    "lint:allow({}) silences no finding of the rules it names — delete it",
                    s.rules.join(", ")
                ),
            });
        }
    }
}

/// One file after the per-file phase: the parsed source plus its local
/// result (`None` when the cache already holds it).
type ParsedFile = (SourceFile, Option<Local>);

/// The cache-miss path: parse every file (cached local results are
/// reused, missed ones recomputed in the same fan-out), build the
/// interprocedural model, run the global rules one-per-thread, and
/// rewrite the cache.
#[allow(clippy::too_many_arguments)]
fn analyze(
    inputs: &[(String, String, u64)],
    hits: &[bool],
    design: Option<String>,
    known: &[&str],
    opts: &Options,
    cached: Option<&cache::Cache>,
    fingerprint: u64,
    ruleset: &str,
) -> io::Result<(Vec<Finding>, usize)> {
    let jobs = effective_jobs(opts.jobs, inputs.len());

    // Per-file phase: parse, plus local analysis for files the cache
    // does not cover. Contiguous chunks reassemble in input order, so
    // the result is independent of the job count.
    let chunk_len = inputs.len().div_ceil(jobs).max(1);
    let work: Vec<(&(String, String, u64), bool)> =
        inputs.iter().zip(hits.iter().copied()).collect();
    let parsed: Vec<ParsedFile> = if jobs <= 1 {
        work.iter()
            .map(|(input, hit)| parse_one(input, *hit, known))
            .collect()
    } else {
        let chunks: Vec<Vec<ParsedFile>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = work
                .chunks(chunk_len)
                .map(|c| {
                    s.spawn(move |_| {
                        c.iter()
                            .map(|(input, hit)| parse_one(input, *hit, known))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lint parse worker panicked"))
                .collect()
        })
        .expect("lint parse scope");
        chunks.into_iter().flatten().collect()
    };

    let mut files = Vec::with_capacity(parsed.len());
    let mut locals: Vec<Local> = Vec::with_capacity(parsed.len());
    for ((file, local), (path, _, _)) in parsed.into_iter().zip(inputs) {
        let entry = match local {
            Some(computed) => computed,
            None => {
                let e = cached
                    .and_then(|c| c.files.get(path.as_str()))
                    .expect("hit flag implies a cache entry");
                Local {
                    findings: e.findings.clone(),
                    suppressed: e.suppressed,
                    used: e.used.clone(),
                }
            }
        };
        files.push(file);
        locals.push(entry);
    }

    let model = crate::callgraph::Model::build(&files);
    let ws = Workspace {
        files,
        design,
        model,
    };

    // Global rules: one thread each (they have very different costs, so
    // rule-granular scheduling is enough), reassembled in registry order.
    let globals: Vec<&&dyn Rule> = RULES.iter().filter(|r| !r.is_local()).collect();
    let per_rule: Vec<Vec<Finding>> = if jobs <= 1 {
        globals
            .iter()
            .map(|rule| {
                let mut v = Vec::new();
                rule.check(&ws, &mut v);
                v
            })
            .collect()
    } else {
        let ws_ref = &ws;
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = globals
                .iter()
                .map(|rule| {
                    s.spawn(move |_| {
                        let mut v = Vec::new();
                        rule.check(ws_ref, &mut v);
                        v
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lint rule worker panicked"))
                .collect()
        })
        .expect("lint rule scope")
    };

    // A directive counts as used when it silenced a finding in either
    // phase: start from each file's local uses and add the global ones.
    let mut used: Vec<Vec<u32>> = locals.iter().map(|l| l.used.clone()).collect();
    let mut global_suppressed = 0u32;
    let mut global_kept: Vec<Finding> = Vec::new();
    for f in per_rule.into_iter().flatten() {
        let index = ws.files.iter().position(|file| file.path == f.path);
        let silenced = index.is_some_and(|i| silence(&ws.files[i], &f, &mut used[i]));
        if silenced {
            global_suppressed += 1;
        } else {
            global_kept.push(f);
        }
    }
    for (file, used) in ws.files.iter().zip(&used) {
        unused_suppressions(file, used, &mut global_kept);
    }

    if let Some(dir) = opts.cache_dir.as_deref() {
        let mut next = cache::Cache::default();
        for ((path, _, hash), local) in inputs.iter().zip(&locals) {
            next.files.insert(
                path.clone(),
                cache::FileEntry {
                    hash: *hash,
                    findings: local.findings.clone(),
                    suppressed: local.suppressed,
                    used: local.used.clone(),
                },
            );
        }
        next.global = Some(cache::GlobalEntry {
            fingerprint,
            findings: global_kept.clone(),
            suppressed: global_suppressed,
        });
        cache::store(dir, ruleset, &next)?;
    }

    let mut findings: Vec<Finding> = Vec::new();
    let mut suppressed = global_suppressed as usize;
    for local in locals {
        findings.extend(local.findings);
        suppressed += local.suppressed as usize;
    }
    findings.extend(global_kept);
    Ok((findings, suppressed))
}

/// Parse one input and, when the cache has no current entry for it, run
/// its local analysis in the same worker.
fn parse_one(input: &(String, String, u64), hit: bool, known: &[&str]) -> ParsedFile {
    let (rel, text, _) = input;
    let file = SourceFile::parse(rel.clone(), text, known);
    let local = if hit {
        None
    } else {
        Some(local_findings(&file))
    };
    (file, local)
}

/// Rewrite the baseline to grandfather every currently-failing rule
/// finding (engine findings about suppressions/baselines are never
/// baselined — they must be fixed).
pub fn update_baseline(root: &Path, baseline: Option<&Path>) -> io::Result<usize> {
    let report = run(root, baseline)?;
    let path = baseline
        .map(Path::to_path_buf)
        .unwrap_or_else(|| root.join(BASELINE_FILE));
    let mut lines = String::from(
        "# lint baseline: grandfathered findings, one `rule<TAB>path<TAB>message` per line.\n\
         # Regenerate with `cargo run -p lint -- --update-baseline`; only ever shrink it.\n",
    );
    let mut count = 0usize;
    for (f, status) in &report.findings {
        if *status == Status::Failing && f.rule != "suppression" && f.rule != "baseline" {
            lines.push_str(&format!("{}\t{}\t{}\n", f.rule, f.path, f.message));
            count += 1;
        }
    }
    if count == 0 {
        if path.exists() {
            fs::remove_file(&path)?;
        }
        return Ok(0);
    }
    fs::write(&path, lines)?;
    Ok(count)
}

struct BaselineEntry {
    rule: String,
    path: String,
    message: String,
    line: u32,
    used: bool,
}

fn load_baseline(path: &PathBuf) -> io::Result<Vec<BaselineEntry>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut entries = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let (Some(rule), Some(path), Some(message)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "malformed baseline line {}: expected rule\\tpath\\tmessage",
                    n + 1
                ),
            ));
        };
        entries.push(BaselineEntry {
            rule: rule.to_string(),
            path: path.to_string(),
            message: message.to_string(),
            line: (n + 1) as u32,
            used: false,
        });
    }
    Ok(entries)
}
