//! R6 `lock-order`: no cycles in the may-hold-while-acquiring graph.
//!
//! For every guard live range (see [`crate::locks`]) the rule records an
//! edge `held → acquired` for each lock acquired while the guard is
//! live — directly in the same body, or transitively through any
//! resolved call in the range (lock acquisitions propagate up the call
//! graph to a fixpoint). A cycle in that graph is a potential deadlock:
//! two sweeps taking the same locks in opposite orders hang a 45k-site
//! crawl with no error. Each distinct cycle is reported exactly once,
//! with the full multi-function witness chain of spans for every edge.

use crate::callgraph::{witness_chain, CallTarget, Origin};
use crate::locks;
use crate::rules::{Finding, Rule, Workspace};
use std::collections::{BTreeMap, BTreeSet};

/// R6: deadlock-free lock ordering.
pub struct LockOrder;

/// One `held → acquired` edge with its report location and witness.
struct EdgeInfo {
    path: String,
    line: u32,
    col: u32,
    witness: String,
}

impl Rule for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn code(&self) -> &'static str {
        "R6"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        let model = &ws.model;

        // Per-function direct acquisitions, as facts keyed by lock class.
        let mut direct: Vec<Vec<(String, Origin)>> = vec![Vec::new(); model.fns.len()];
        let mut guards_by_fn = Vec::with_capacity(model.fns.len());
        for (id, def) in model.fns.iter().enumerate() {
            if def.is_test {
                guards_by_fn.push(Vec::new());
                continue;
            }
            let file = &ws.files[def.file];
            let guards = locks::guards_in(file, def, &model.cfgs[id]);
            for g in &guards {
                direct[id].push((
                    g.class.clone(),
                    Origin::Direct {
                        line: g.line,
                        what: format!("`{}` acquired", g.class),
                    },
                ));
            }
            guards_by_fn.push(guards);
        }
        let acquires = crate::callgraph::propagate_facts(model, &direct);

        // Build the lock graph: held-class → acquired-class.
        let mut edges: BTreeMap<(String, String), EdgeInfo> = BTreeMap::new();
        for (id, def) in model.fns.iter().enumerate() {
            if def.is_test {
                continue;
            }
            let file = &ws.files[def.file];
            for g in &guards_by_fn[id] {
                let held = format!(
                    "`{}` held in `{}` ({}:{})",
                    g.class,
                    model.display(id),
                    file.path,
                    g.line
                );
                // Direct nested acquisitions inside the live range.
                for other in &guards_by_fn[id] {
                    if other.class != g.class && g.covers(other.acquire_idx) {
                        edges
                            .entry((g.class.clone(), other.class.clone()))
                            .or_insert_with(|| EdgeInfo {
                                path: file.path.clone(),
                                line: g.line,
                                col: g.col,
                                witness: format!(
                                    "{held} → `{}` acquired ({}:{})",
                                    other.class, file.path, other.line
                                ),
                            });
                    }
                }
                // Transitive acquisitions through calls in the range.
                for site in &model.calls[id] {
                    if !g.covers(site.idx) {
                        continue;
                    }
                    let CallTarget::Resolved(callees) = &site.target else {
                        continue;
                    };
                    for &callee in callees {
                        for class in acquires[callee].keys() {
                            if *class == g.class {
                                continue;
                            }
                            let chain = witness_chain(model, &ws.files, &acquires, callee, class);
                            edges
                                .entry((g.class.clone(), class.clone()))
                                .or_insert_with(|| EdgeInfo {
                                    path: file.path.clone(),
                                    line: g.line,
                                    col: g.col,
                                    witness: format!(
                                        "{held} → via `{}()` ({}:{}) → {chain}",
                                        site.name, file.path, site.line
                                    ),
                                });
                        }
                    }
                }
            }
        }

        // Cycle detection over the lock graph; each distinct cycle is
        // reported once, canonicalized by its sorted lock set.
        let mut adjacency: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (held, acquired) in edges.keys() {
            adjacency
                .entry(held.as_str())
                .or_default()
                .push(acquired.as_str());
        }
        let mut search = CycleSearch {
            start: "",
            adjacency: &adjacency,
            edges: &edges,
            rule: self.name(),
            reported: BTreeSet::new(),
            out,
        };
        for &start in adjacency.keys() {
            search.start = start;
            search.find(start, &mut vec![start]);
        }
    }
}

/// The inputs a cycle search holds fixed across its depth-first walk.
struct CycleSearch<'a, 'o> {
    /// The lock every cycle of this walk starts and ends at.
    start: &'a str,
    adjacency: &'a BTreeMap<&'a str, Vec<&'a str>>,
    edges: &'a BTreeMap<(String, String), EdgeInfo>,
    rule: &'static str,
    /// Canonical (sorted) lock sets already reported.
    reported: BTreeSet<Vec<String>>,
    out: &'o mut Vec<Finding>,
}

impl<'a> CycleSearch<'a, '_> {
    /// Depth-first enumeration of simple cycles through `start`; every
    /// cycle whose canonical (sorted) lock set is new becomes one finding.
    fn find(&mut self, at: &'a str, stack: &mut Vec<&'a str>) {
        let start = self.start;
        if stack.len() > 16 {
            return; // cycles longer than any plausible lock chain
        }
        let Some(nexts) = self.adjacency.get(at) else {
            return;
        };
        for &next in nexts {
            if next == start {
                let mut canon: Vec<String> = stack.iter().map(|s| s.to_string()).collect();
                canon.sort();
                if !self.reported.insert(canon) {
                    continue;
                }
                // Assemble the cycle's witness: every edge, in order.
                let mut cycle_edges = Vec::new();
                for w in 0..stack.len() {
                    let held = stack[w].to_string();
                    let acquired = stack.get(w + 1).copied().unwrap_or(start).to_string();
                    if let Some(info) = self.edges.get(&(held, acquired)) {
                        cycle_edges.push(info);
                    }
                }
                let Some(first) = cycle_edges.first() else {
                    continue;
                };
                let order: Vec<&str> = stack.iter().copied().chain([start]).collect();
                let witness: Vec<String> = cycle_edges
                    .iter()
                    .map(|e| format!("[{}]", e.witness))
                    .collect();
                self.out.push(Finding {
                    rule: self.rule,
                    path: first.path.clone(),
                    line: first.line,
                    col: first.col,
                    message: format!(
                        "lock-order cycle `{}`: opposite acquisition orders can deadlock — {}",
                        order.join("` → `"),
                        witness.join(" and ")
                    ),
                });
            } else if !stack.contains(&next) {
                stack.push(next);
                self.find(next, stack);
                stack.pop();
            }
        }
    }
}
