//! # serve — the deterministic always-on query service
//!
//! The write-mostly crawl store as the backend of a long-running
//! analytics daemon. A [`QueryService`] holds one or two
//! sealed [`store::StoreSnapshot`]s — the current epoch and, once its
//! background ingest seals, the next — and answers concurrent read
//! queries (per-domain wall status, per-region prevalence, price
//! percentiles, epoch-over-epoch diffs) without ever touching the
//! writer's stripe/queue/io locks.
//!
//! The crate follows the same determinism discipline as `httpsim`'s
//! [`FaultPlan`](httpsim::FaultPlan): every decision — which query class
//! a synthetic request belongs to, which Zipf-ranked domain it hits, how much
//! simulated time an answer costs — is a pure function of a seed and
//! stable labels, hashed through the same FNV-1a + splitmix64 lanes. No
//! wall clock is read anywhere in this crate; the [`SimClock`] advances
//! by a cost model, so a served script produces byte-identical
//! responses, digests, and latency ledgers on every run. Real p50/p99
//! under real threads is measured by `bench/benches/serve.rs`, which is
//! the one place allowed to look at `Instant`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod service;
mod workload;

pub use clock::{cost_micros, SimClock};
pub use service::{ClassSummary, LatencyLedger, QueryService, Response};
pub use workload::{chain_digest, format_digest, RequestStream};

pub use analysis::query::{parse_script, Answer, Query};
