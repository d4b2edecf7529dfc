//! The rule engine: rule trait, the registry, and the workspace view the
//! rules run over. Each rule enforces one repo invariant (see DESIGN.md
//! §10) and reports [`Finding`]s; suppression handling lives in
//! [`crate::engine`], so rules always report what they see.

pub mod blocking_under_lock;
pub mod determinism;
pub mod hot_path_alloc;
pub mod journal_format;
pub mod lock_order;
pub mod ordered_serialization;
pub mod panic_hygiene;
pub mod persist_parity;
pub mod seed_taint;
pub mod swallowed_io;
pub mod test_only_api;
pub mod unbounded_growth;

use crate::callgraph::Model;
use crate::lexer::Token;
use crate::source::SourceFile;

/// The twelve invariant rules, in report order. `R1`–`R12` aliases match
/// the issue/DESIGN numbering; either name works in `lint:allow(...)`.
pub const RULES: &[&dyn Rule] = &[
    &determinism::Determinism,
    &ordered_serialization::OrderedSerialization,
    &persist_parity::PersistParity,
    &panic_hygiene::PanicHygiene,
    &journal_format::JournalFormat,
    &lock_order::LockOrder,
    &blocking_under_lock::BlockingUnderLock,
    &seed_taint::SeedTaint,
    &hot_path_alloc::HotPathAlloc,
    &unbounded_growth::UnboundedGrowth,
    &swallowed_io::SwallowedIo,
    &test_only_api::TestOnlyApi,
];

/// Names accepted in `lint:allow(...)`: every rule name plus its R-code.
pub fn suppressible_names() -> Vec<&'static str> {
    let mut names = Vec::new();
    for rule in RULES {
        names.push(rule.name());
        names.push(rule.code());
    }
    names
}

/// Everything a rule can look at: every scanned file plus the workspace
/// documentation the cross-file rules compare against.
pub struct Workspace {
    /// Scanned files in path order.
    pub files: Vec<SourceFile>,
    /// Files read for call sites only (`examples/`, `perfbench/src`):
    /// R12 counts their calls, and no rule checks them.
    pub callers: Vec<SourceFile>,
    /// Contents of `DESIGN.md` at the workspace root, when present.
    pub design: Option<String>,
    /// The interprocedural model (call graph) over `files`, used by the
    /// cross-function rules R6–R12.
    pub model: Model,
}

impl Workspace {
    /// Find a scanned file by workspace-relative path.
    pub fn file(&self, path: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path == path)
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name ([`Rule::name`], or `suppression` for the engine's own
    /// findings).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (0 when the finding has no precise span).
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// A named, suppressible invariant check.
pub trait Rule {
    /// Stable rule name used in reports and `lint:allow(...)`.
    fn name(&self) -> &'static str;
    /// The issue/DESIGN shorthand (`R1`…`R5`), also accepted in
    /// `lint:allow(...)`.
    fn code(&self) -> &'static str;
    /// Scan the workspace, appending findings.
    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>);
}

/// Does `tokens[i..]` start with the path `segments[0] :: segments[1] ::
/// …`? Returns the matched token length.
pub(crate) fn match_path(tokens: &[Token], i: usize, segments: &[&str]) -> Option<usize> {
    let mut k = i;
    for (n, seg) in segments.iter().enumerate() {
        if n > 0 {
            if !(tokens.get(k).is_some_and(|t| t.is_punct(':'))
                && tokens.get(k + 1).is_some_and(|t| t.is_punct(':')))
            {
                return None;
            }
            k += 2;
        }
        if !tokens.get(k).is_some_and(|t| t.is_ident(seg)) {
            return None;
        }
        k += 1;
    }
    Some(k - i)
}
