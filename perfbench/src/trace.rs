//! In-memory spans recorded around calls into the program's crates.
//!
//! A [`Tracer`] belongs to one thread. Each span records its id, its
//! parent, the cell or request it served, its name, start and end (ns
//! since the run's origin) and the allocations its thread made while it
//! was open. A span's *self* time and allocations are its own minus its
//! children's. Per-name totals are kept for every span; the span list
//! itself is capped so a paper-scale trace stays small, and is written
//! out as JSON lines when the run ends.
//!
//! Nothing here allocates after [`Tracer::new`], so the tracer's own
//! bookkeeping never shows up in a span's allocation count.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

/// Distinct span names a tracer can hold without reallocating.
const MAX_NAMES: usize = 64;
/// Deepest span nesting a tracer can hold without reallocating.
const MAX_DEPTH: usize = 32;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The cell or request this span worked on.
    pub item: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation calls made on the span's thread while it was open.
    pub allocs: u64,
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
    pub self_bytes: u64,
}

impl NameStats {
    /// Mean self time per call, in microseconds.
    pub fn self_us(&self) -> f64 {
        self.self_ns as f64 / 1e3 / self.calls.max(1) as f64
    }

    /// Mean self allocation calls per call.
    pub fn allocs_per_call(&self) -> f64 {
        self.self_allocs as f64 / self.calls.max(1) as f64
    }

    fn add(&mut self, other: &NameStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.self_allocs += other.self_allocs;
        self.self_bytes += other.self_bytes;
    }
}

struct Open {
    id: u64,
    parent: u64,
    item: u64,
    name: &'static str,
    start: Instant,
    allocs0: u64,
    bytes0: u64,
    child_ns: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// A per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    stats: Vec<(&'static str, NameStats)>,
}

impl Tracer {
    /// A tracer whose span ids start above `id_base` (so tracers of
    /// different threads never share an id) and which keeps at most
    /// `keep` spans for the written trace.
    pub fn new(origin: Instant, id_base: u64, keep: usize) -> Tracer {
        Tracer {
            origin,
            next_id: id_base,
            stack: Vec::with_capacity(MAX_DEPTH),
            spans: Vec::with_capacity(keep),
            dropped: 0,
            stats: Vec::with_capacity(MAX_NAMES),
        }
    }

    /// Run `f` inside a span named `name` for `item`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        item: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.open(name, item);
        let out = f(self);
        self.close();
        out
    }

    fn open(&mut self, name: &'static str, item: u64) {
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |o| o.id);
        let (allocs0, bytes0) = alloc::thread_counts();
        self.stack.push(Open {
            id: self.next_id,
            parent,
            item,
            name,
            start: Instant::now(),
            allocs0,
            bytes0,
            child_ns: 0,
            child_allocs: 0,
            child_bytes: 0,
        });
    }

    fn close(&mut self) {
        let end = Instant::now();
        let (allocs1, bytes1) = alloc::thread_counts();
        let open = self.stack.pop().expect("close matches an open span");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let allocs = allocs1 - open.allocs0;
        let bytes = bytes1 - open.bytes0;
        let own = NameStats {
            calls: 1,
            total_ns: dur,
            self_ns: dur.saturating_sub(open.child_ns),
            self_allocs: allocs - open.child_allocs,
            self_bytes: bytes - open.child_bytes,
        };
        self.stats_mut(open.name).add(&own);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
            parent.child_allocs += allocs;
            parent.child_bytes += bytes;
        }
        if self.spans.len() < self.spans.capacity() {
            let start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                item: open.item,
                name: open.name,
                start_ns,
                end_ns: start_ns + dur,
                allocs,
            });
        } else {
            self.dropped += 1;
        }
    }

    fn stats_mut(&mut self, name: &'static str) -> &mut NameStats {
        let at = match self.stats.iter().position(|(n, _)| *n == name) {
            Some(at) => at,
            None => {
                self.stats.push((name, NameStats::default()));
                self.stats.len() - 1
            }
        };
        &mut self.stats[at].1
    }

    /// Totals for `name` (zero when no such span closed).
    pub fn stats(&self, name: &str) -> NameStats {
        self.stats
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Fold another thread's tracer into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, s) in &other.stats {
            self.stats_mut(name).add(s);
        }
        let room = self.spans.capacity() - self.spans.len();
        let take = other.spans.len().min(room);
        self.spans.extend_from_slice(&other.spans[..take]);
        self.dropped += other.dropped + (other.spans.len() - take) as u64;
    }

    /// The kept spans as JSON lines, then one line of per-name totals.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"item\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.id, s.parent, s.item, s.name, s.start_ns, s.end_ns, s.allocs
            );
        }
        let _ = write!(out, "{{\"spans_dropped\":{},\"totals\":{{", self.dropped);
        for (k, (name, s)) in self.stats.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\":{{\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"self_allocs\":{},\"self_bytes\":{}}}",
                if k == 0 { "" } else { "," },
                name,
                s.calls,
                s.total_ns,
                s.self_ns,
                s.self_allocs,
                s.self_bytes
            );
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now(), 0, 16);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = t.stats("outer");
        let inner = t.stats("inner");
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        let spans = &t.spans;
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
        assert_eq!(spans[1].parent, 0);
    }

    #[test]
    fn spans_beyond_the_cap_are_counted_not_kept() {
        let mut t = Tracer::new(Instant::now(), 0, 1);
        for i in 0..3 {
            t.span("x", i, |_| ());
        }
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.stats("x").calls, 3);
    }
}
