#!/usr/bin/env bash
# Full local gate: formatting, release build, lint-clean clippy (plus
# its R1/R4 fixture), the invariant linter (plus its fixture self-test),
# the whole test suite, the release-mode batteries, the perfbench counts gate, and end-to-end
# resume/fsck/diff/serve/stats smoke tests through the CLI binary, and a
# check that the committed paper-scale results are what the study prints.
# Everything runs offline — external dependencies are vendored under
# vendor/, so no registry access is needed (or attempted).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --workspace --offline
cargo clippy --workspace --all-targets --offline -- -D warnings
# Clippy carries R1 (determinism: `clippy.toml`'s disallowed methods) and
# R4 (panic hygiene: the crate-level `deny`s). On its fixture crate it
# must fail with exactly the lint codes and counts in expected_codes.txt,
# so a compile error alone, which reports none of them, cannot pass.
CLIPPY_FIXTURE=crates/lint/tests/fixtures/clippy
CLIPPY_JSON=$(CARGO_TARGET_DIR=target/clippy-fixture cargo clippy --offline --quiet --tests \
    --manifest-path "$CLIPPY_FIXTURE/Cargo.toml" --message-format=json -- -D warnings 2>/dev/null) \
    && { echo "check.sh: clippy passes its fixture crate" >&2; exit 1; }
diff "$CLIPPY_FIXTURE/expected_codes.txt" <(echo "$CLIPPY_JSON" | grep -o '"code":{"code":"[^"]*"' \
    | sed 's/.*"code":"//; s/"$//' | sort | uniq -c | awk '{print $1, $2}') \
    || { echo "check.sh: clippy fixture lint codes differ from expected_codes.txt" >&2; exit 1; }
# Rustdoc gate: a broken or private intra-doc link (say, to a deleted
# entry point) fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Invariant linter gate (crates/lint): the workspace must be clean, and
# each rule-class fixture must still trip its rule — if a fixture exits 0
# the gate itself has rotted and the run fails.
LINT=target/release/lint
"$LINT" || { echo "check.sh: workspace lint failed" >&2; exit 1; }
for fixture in r2 r3 r5 r5-index r6 r7 r7-backend r7-cross-crate r7-module-path r7-serve r8 \
               r9-alloc r9-cold r9-crates r9-roots r9-trait r10-growth r11-swallow r11-test-module \
               r12-test-only r12-field cfg-liveness suppression suppression-unused; do
    if "$LINT" --root "crates/lint/tests/fixtures/$fixture" >/dev/null; then
        echo "check.sh: lint fixture $fixture no longer trips its rule" >&2
        exit 1
    fi
done
"$LINT" --root crates/lint/tests/fixtures/clean >/dev/null \
    || { echo "check.sh: lint flags the clean fixture" >&2; exit 1; }

# JSON output smoke test: the machine-readable schema must carry the rule
# and summary keys CI consumers grep for (exit 1 is expected — findings).
JSON_OUT=$("$LINT" --root crates/lint/tests/fixtures/r6 --format json || true)
echo "$JSON_OUT" | grep -q '"rule": "lock-order"' \
    || { echo "check.sh: lint JSON output lost its finding schema" >&2; exit 1; }
echo "$JSON_OUT" | grep -q '"summary": {"failing": 1' \
    || { echo "check.sh: lint JSON output lost its summary schema" >&2; exit 1; }

cargo test -q --workspace --offline

# The benchmark is a workspace of its own that builds the crates by path:
# its smoke tests fail here, not in the benchmark's build, when a public
# struct or entry point it uses changes shape.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

# Counts gate: the deterministic per-layer counts of a tiny traced run
# (allocations per layer, cache misses, append calls, write ratio,
# snapshot read bytes, simulated serve latencies) must match
# BENCH_counts.json exactly, one line per gated workload in the order
# below. Uses the dev-profile perfbench binary the perfbench test step
# built. A change that moves a count updates the file and says why.
PERFBENCH=perfbench/target/debug/perfbench
for workload in sweep-paper study-journaled; do
    "$PERFBENCH" --workload "$workload" --scale tiny --seed 1 --seconds 0.2 \
        --trace 1 --work "$SMOKE/perf" >/dev/null 2>"$SMOKE/perf.err" \
        || { cat "$SMOKE/perf.err" >&2; exit 1; }
    grep '^{"deterministic"' "$SMOKE/perf.err"
done >"$SMOKE/counts.json"
diff BENCH_counts.json "$SMOKE/counts.json" \
    || { echo "check.sh: deterministic counts differ from BENCH_counts.json" >&2; exit 1; }

# High-concurrency smoke: the stress battery in release mode hammers the
# striped fetch cache and the store's buffer and io locks at 1/4/64
# workers (fault on and off, plus a 64-worker abort+resume) and requires
# byte-identical reports throughout.
cargo test -q -p analysis --test stress --release --offline

# Crash-point fuzzer at a reduced case count: kill the disk at fuzzed
# byte boundaries (with torn/rot/ENOSPC chaos mixed in), fsck, resume,
# and require the report byte-identical to the fault-free baseline.
PROPTEST_CASES=4 cargo test -q -p analysis --test diskfault --release --offline

# Language-detector bit-identity oracle at full strength: the packed
# single-table detector against the original per-language tables.
PROPTEST_CASES=20000 cargo test -q -p langid --test equivalence --release --offline

# Cookie-layer oracles at full strength: the constant-time public-suffix
# lookup, the Set-Cookie parser and the keyed cookie jar against the
# linear scan, the original parser and the retain-based jar.
PROPTEST_CASES=20000 cargo test -q -p httpsim --test equivalence --release --offline

# Sealed-slot oracle at full strength: every slot the streamed seal
# writes over random ledgers (re-puts, aborts, reopens), and the same
# cells streamed in random small pieces, against the one-shot encoder.
PROPTEST_CASES=20000 cargo test -q -p store --lib --release --offline slot_oracle

# Detection-summary oracle at study scale (2,000 entries per list): the
# verdict every ablation setting reads off a summary of the sweep's one
# detection, against detecting afresh on each distinct German document
# under the default and the naive bot user agent.
cargo test -q -p analysis --test derivation --release --offline -- --ignored

# Serve under live ingest: 3 readers × 1,000 Zipf(1.1) requests while a
# second epoch is built, sealed and installed mid-stream; every one of
# the 3,000 answers must be byte-identical to direct evaluation against
# the final sealed snapshots.
cargo test -q -p serve --test live_ingest --release --offline

# Resume smoke test: run the tiny sweep to completion, then again with a
# simulated kill plus a resume, and require byte-identical JSON reports.
BIN=target/release/cookiewall-study
"$BIN" run --scale tiny --json "$SMOKE/clean.json" >/dev/null 2>&1
"$BIN" run --scale tiny --store "$SMOKE/epoch0" --checkpoint-every 8 \
    --abort-after 100 >/dev/null 2>&1
"$BIN" run --resume "$SMOKE/epoch0" --json "$SMOKE/resumed.json" >/dev/null 2>&1
cmp "$SMOKE/clean.json" "$SMOKE/resumed.json" \
    || { echo "check.sh: resumed report differs from uninterrupted run" >&2; exit 1; }

# fsck smoke test: rot one shard byte, require fsck to quarantine exactly
# that cell, then resume — the re-crawled report must still match the
# uninterrupted run byte for byte.
printf '\xff' | dd of="$SMOKE/epoch0/shards/shard-0.bin" bs=1 seek=2 conv=notrunc 2>/dev/null
"$BIN" fsck "$SMOKE/epoch0" --json "$SMOKE/fsck.json" >/dev/null
grep -q '"quarantined_cells": 1' "$SMOKE/fsck.json" \
    || { echo "check.sh: fsck did not quarantine the rotted cell" >&2; exit 1; }
"$BIN" run --resume "$SMOKE/epoch0" --json "$SMOKE/scrubbed.json" >/dev/null 2>&1
cmp "$SMOKE/clean.json" "$SMOKE/scrubbed.json" \
    || { echo "check.sh: post-fsck resume differs from uninterrupted run" >&2; exit 1; }

# Diff smoke test: an epoch-1 snapshot must show churn against epoch 0.
"$BIN" run --scale tiny --epoch 1 --store "$SMOKE/epoch1" >/dev/null 2>&1
"$BIN" diff "$SMOKE/epoch0" "$SMOKE/epoch1" >"$SMOKE/churn.txt" 2>/dev/null
grep -q "Longitudinal churn" "$SMOKE/churn.txt" \
    || { echo "check.sh: diff produced no churn report" >&2; exit 1; }

# Serve smoke test: the same seeded Zipf stream over the sealed epoch-0
# snapshot must replay to an identical chain digest on a second run, and
# the latency ledger must report a p99 per query class.
"$BIN" serve "$SMOKE/epoch0" "$SMOKE/epoch1" --requests 200 --seed 7 \
    --readers 3 >"$SMOKE/serve1.txt"
"$BIN" serve "$SMOKE/epoch0" "$SMOKE/epoch1" --requests 200 --seed 7 \
    --readers 3 >"$SMOKE/serve2.txt"
cmp "$SMOKE/serve1.txt" "$SMOKE/serve2.txt" \
    || { echo "check.sh: serve replay is not deterministic" >&2; exit 1; }
grep -q "digest=" "$SMOKE/serve1.txt" \
    || { echo "check.sh: serve printed no chain digest" >&2; exit 1; }
grep -q "p99_us=" "$SMOKE/serve1.txt" \
    || { echo "check.sh: serve printed no p99 latency" >&2; exit 1; }

# Stats smoke test: the sealed index must cover the whole checkpointed
# store, and the JSON schema must carry the keys CI consumers grep for.
"$BIN" stats "$SMOKE/epoch0" --json "$SMOKE/stats.json" >/dev/null
grep -q '"coverage_percent":100.0' "$SMOKE/stats.json" \
    || { echo "check.sh: sealed index does not cover the store" >&2; exit 1; }
grep -q '"quarantined"' "$SMOKE/stats.json" \
    || { echo "check.sh: stats JSON lost its schema" >&2; exit 1; }

# Results freshness: the paper-scale study is deterministic, so the
# committed full_study_results.json must be exactly what the example
# writes today (it writes into its working directory).
cargo build -q --release --offline --example full_study
STUDY="$PWD/target/release/examples/full_study"
mkdir "$SMOKE/study"
(cd "$SMOKE/study" && "$STUDY" >/dev/null 2>&1)
cmp full_study_results.json "$SMOKE/study/full_study_results.json" \
    || { echo "check.sh: full_study_results.json is stale; re-run the full_study example" >&2; exit 1; }

# Unknown flags must be rejected, not silently ignored.
if "$BIN" run --scael tiny >/dev/null 2>&1; then
    echo "check.sh: unknown flag was silently accepted" >&2; exit 1
fi

echo "check.sh: fmt + build + clippy + rustdoc + lint + tests + stress + fuzzer + counts gate + resume/fsck/diff/serve/stats smoke + study results all green"
