//! R7 `blocking-under-lock`: no guard live across a call that may block.
//!
//! A blocking root is a call that can park the thread or wait on IO:
//! `Condvar::wait`/`wait_timeout`/`wait_while`, channel `recv`/
//! `recv_timeout`, `JoinHandle::join`, the browser fetch entry points
//! (`fetch_document`, `fetch_domain_document`, `load_fetched`),
//! store/journal disk writes (`write_all`, `sync_all`, `fs::write`,
//! `fs::read`, `fs::rename`, `read_to_string`), and every
//! `StorageBackend` IO method (`read_file`, `write_file`, `append_file`,
//! `truncate_file`, `sync_file`, `rename`) — a backend may be the real
//! disk no matter what is plugged in during tests. Blocking-ness
//! propagates up the call graph through resolved edges; a guard whose
//! live range covers a blocking call — directly or transitively —
//! serializes every other holder of that lock behind the wait, which is
//! how a 45k-site sweep hangs. Lock acquisitions themselves are R6's
//! domain and are not roots.

use crate::callgraph::{witness_chain, CallSite, CallTarget, Origin};
use crate::locks;
use crate::rules::{Finding, Rule, Workspace};
use std::collections::BTreeSet;

/// Method/function names that block the calling thread.
pub(crate) const BLOCKING_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "join",
    "wait",
    "wait_timeout",
    "wait_while",
    "fetch_document",
    "fetch_domain_document",
    "load_fetched",
    "write_all",
    "sync_all",
    "read_to_string",
    // StorageBackend IO: whatever backend is plugged in, callers must
    // assume the real disk.
    "read_file",
    "write_file",
    "append_file",
    "truncate_file",
    "sync_file",
    "rename",
    // Snapshot IO: sealing writes and syncs an index slot, and opening a
    // snapshot re-reads every shard from disk — none of that may happen
    // while a guard serializes other holders behind it.
    "seal",
    "snapshot",
    "open_with",
];

/// Free `fs::…` calls that hit the disk.
pub(crate) const BLOCKING_FS: &[&str] = &[
    "write",
    "read",
    "read_to_string",
    "create_dir_all",
    "rename",
];

/// Is this call site a blocking root? `join` only counts with an empty
/// argument list — `JoinHandle::join(self)` takes none, while the
/// ubiquitous `Path::join(p)` / `[&str]::join(sep)` take one.
pub(crate) fn blocking_root(site: &CallSite) -> bool {
    if site.name == "join" && site.args.0 != site.args.1 {
        return false;
    }
    if !site.method && site.qualifier.last().is_some_and(|q| q == "fs") {
        return BLOCKING_FS.contains(&site.name.as_str());
    }
    BLOCKING_METHODS.contains(&site.name.as_str())
}

/// R7: guards must not be held across (transitively) blocking calls.
pub struct BlockingUnderLock;

impl Rule for BlockingUnderLock {
    fn name(&self) -> &'static str {
        "blocking-under-lock"
    }

    fn code(&self) -> &'static str {
        "R7"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let model = &ws.model;

        // Per-function blocking facts, keyed by the root's name.
        let mut direct: Vec<Vec<(String, Origin)>> = vec![Vec::new(); model.fns.len()];
        for (id, sites) in model.calls.iter().enumerate() {
            for site in sites {
                if blocking_root(site) {
                    direct[id].push((
                        site.name.clone(),
                        Origin::Direct {
                            line: site.line,
                            what: format!("blocking `{}()`", site.name),
                        },
                    ));
                }
            }
        }
        let blocks = crate::callgraph::propagate_facts(model, &direct);

        for (id, def) in model.fns.iter().enumerate() {
            if def.is_test {
                continue;
            }
            let file = &ws.files[def.file];
            for g in locks::guards_in(file, def, &model.cfgs[id]) {
                // One finding per (guard, blocking reason): the same
                // over-approximated call must not fan out into duplicates.
                let mut seen: BTreeSet<String> = BTreeSet::new();
                for site in &model.calls[id] {
                    if !g.covers(site.idx) {
                        continue;
                    }
                    if blocking_root(site) {
                        if seen.insert(format!("direct:{}", site.name)) {
                            out.push(Finding {
                                rule: self.name(),
                                path: file.path.clone(),
                                line: site.line,
                                col: site.col,
                                message: format!(
                                    "blocking call `{}()` while `{}` (acquired {}:{}) is held — \
                                     every other holder of the lock waits behind it",
                                    site.name, g.class, file.path, g.line
                                ),
                            });
                        }
                        continue;
                    }
                    let CallTarget::Resolved(callees) = &site.target else {
                        continue;
                    };
                    for &callee in callees {
                        let Some(key) = blocks[callee].keys().next().cloned() else {
                            continue;
                        };
                        if !seen.insert(format!("via:{}:{key}", site.name)) {
                            continue;
                        }
                        let chain = witness_chain(model, &ws.files, &blocks, callee, &key);
                        out.push(Finding {
                            rule: self.name(),
                            path: file.path.clone(),
                            line: site.line,
                            col: site.col,
                            message: format!(
                                "call `{}()` may block while `{}` (acquired {}:{}) is held: \
                                 {chain}",
                                site.name, g.class, file.path, g.line
                            ),
                        });
                    }
                }
            }
        }
    }
}
