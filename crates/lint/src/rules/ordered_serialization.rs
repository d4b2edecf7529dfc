//! R2 `ordered-serialization`: reports must serialize deterministically,
//! so no field of a `#[derive(Serialize)]` type may be a `HashMap` or
//! `HashSet` — their iteration order is randomized per process, which is
//! exactly the nondeterminism the byte-identical golden/resume tests
//! exist to rule out. Use `BTreeMap` / `BTreeSet` (or a sorted `Vec`).

use super::{Finding, Rule, Workspace};
use crate::items::serialize_items;

/// R2: no hash-ordered containers in serialized types.
pub struct OrderedSerialization;

impl Rule for OrderedSerialization {
    fn name(&self) -> &'static str {
        "ordered-serialization"
    }

    fn code(&self) -> &'static str {
        "R2"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Finding>) {
        for file in &ws.files {
            for item in serialize_items(file) {
                for field in &item.fields {
                    let Some(bad) = field
                        .type_idents
                        .iter()
                        .find(|t| *t == "HashMap" || *t == "HashSet")
                    else {
                        continue;
                    };
                    let ordered = if bad == "HashMap" {
                        "BTreeMap"
                    } else {
                        "BTreeSet"
                    };
                    let place = if field.name.is_empty() {
                        format!("a variant of `Serialize` enum `{}`", item.name)
                    } else {
                        format!("field `{}` of `Serialize` type `{}`", field.name, item.name)
                    };
                    out.push(Finding {
                        rule: self.name(),
                        path: file.path.clone(),
                        line: field.line,
                        col: 0,
                        message: format!(
                            "{place} uses `{bad}` — serialized collections must iterate \
                             deterministically; use `{ordered}`"
                        ),
                    });
                }
            }
        }
    }
}
