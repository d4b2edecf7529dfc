#!/usr/bin/env bash
# Full local gate: formatting, release build, lint-clean clippy, the
# invariant linter (plus its fixture self-test), the whole test suite,
# and an end-to-end resume/diff smoke test through the CLI binary. Everything runs offline — external dependencies are
# vendored under vendor/, so no registry access is needed (or attempted).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --workspace --offline
cargo clippy --workspace --all-targets --offline -- -D warnings
# Rustdoc gate: a broken or private intra-doc link (say, to a deleted
# entry point) fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Invariant linter gate (crates/lint): the workspace must be clean, and
# each rule-class fixture must still trip its rule — if a fixture exits 0
# the gate itself has rotted and the run fails.
LINT=target/release/lint
"$LINT" || { echo "check.sh: workspace lint failed" >&2; exit 1; }
for fixture in r1 r2 r3 r4 r5 r5-index r6 r7 r7-backend r7-serve r8 \
               r9-alloc r10-growth r11-swallow cfg-liveness suppression; do
    if "$LINT" --root "crates/lint/tests/fixtures/$fixture" >/dev/null; then
        echo "check.sh: lint fixture $fixture no longer trips its rule" >&2
        exit 1
    fi
done
"$LINT" --root crates/lint/tests/fixtures/clean >/dev/null \
    || { echo "check.sh: lint flags the clean fixture" >&2; exit 1; }
"$LINT" --root crates/lint/tests/fixtures/baselined >/dev/null \
    || { echo "check.sh: lint baseline grandfathering broke" >&2; exit 1; }

# JSON output smoke test: the machine-readable schema must carry the rule
# and summary keys CI consumers grep for (exit 1 is expected — findings).
JSON_OUT=$("$LINT" --root crates/lint/tests/fixtures/r6 --format json || true)
echo "$JSON_OUT" | grep -q '"rule": "lock-order"' \
    || { echo "check.sh: lint JSON output lost its finding schema" >&2; exit 1; }
echo "$JSON_OUT" | grep -q '"summary": {"failing": 1' \
    || { echo "check.sh: lint JSON output lost its summary schema" >&2; exit 1; }

# Incremental-cache smoke test: a second run over the unchanged workspace
# must be a full hit (every file entry plus the global entry) and report
# byte-identical findings.
LINT_CACHE=$(mktemp -d)
"$LINT" --cache --cache-dir "$LINT_CACHE" >/dev/null 2>"$LINT_CACHE/cold.err" \
    || { echo "check.sh: cached workspace lint failed cold" >&2; exit 1; }
"$LINT" --cache --cache-dir "$LINT_CACHE" >"$LINT_CACHE/warm.out" 2>"$LINT_CACHE/warm.err" \
    || { echo "check.sh: cached workspace lint failed warm" >&2; exit 1; }
grep -q "files hit, global hit" "$LINT_CACHE/warm.err" \
    || { echo "check.sh: second lint run over an unchanged tree missed the cache" >&2; exit 1; }
"$LINT" >"$LINT_CACHE/nocache.out" \
    || { echo "check.sh: workspace lint failed" >&2; exit 1; }
cmp "$LINT_CACHE/warm.out" "$LINT_CACHE/nocache.out" \
    || { echo "check.sh: cached lint findings differ from uncached" >&2; exit 1; }
rm -rf "$LINT_CACHE"

cargo test -q --workspace --offline

# The benchmark is a workspace of its own that builds the crates by path:
# its smoke tests fail here, not in the benchmark's build, when a public
# struct or entry point it uses changes shape.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# High-concurrency smoke: the stress battery in release mode hammers the
# sharded lock topology at 1/4/64 workers (fault on and off, plus a
# 64-worker abort+resume) and requires byte-identical reports throughout.
cargo test -q -p analysis --test stress --release --offline

# Crash-point fuzzer at a reduced case count: kill the disk at fuzzed
# byte boundaries (with torn/rot/ENOSPC chaos mixed in), fsck, resume,
# and require the report byte-identical to the fault-free baseline.
PROPTEST_CASES=4 cargo test -q -p analysis --test diskfault --release --offline

# Language-detector bit-identity oracle at full strength: the packed
# single-table detector against the original per-language tables.
PROPTEST_CASES=20000 cargo test -q -p langid --test equivalence --release --offline

# Resume smoke test: run the tiny sweep to completion, then again with a
# simulated kill plus a resume, and require byte-identical JSON reports.
BIN=target/release/cookiewall-study
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT

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

# Unknown flags must be rejected, not silently ignored.
if "$BIN" run --scael tiny >/dev/null 2>&1; then
    echo "check.sh: unknown flag was silently accepted" >&2; exit 1
fi

# Worker-scaling benches (table1/worker_scaling up to 64 workers,
# store/journaled_worker_scaling + store/concurrent_puts): record the
# high-worker numbers in the PR description when the lock topology moves.
cargo bench -p bench --bench table1 --offline -- --noplot
cargo bench -p bench --bench store --offline -- --noplot

# Serve bench: 3 reader threads × Zipf(1.1) against a live second-epoch
# ingest; every served answer is verified byte-identical to direct
# evaluation against the sealed store, and real p50/p99 print per class.
cargo bench -p bench --bench serve --offline -- --noplot

# Lint bench: cold vs warm-cache engine runs over the workspace; the
# bench itself asserts warm >=3x faster than cold and byte-identical
# findings at --jobs 1 vs --jobs 8.
cargo bench -p bench --bench lint --offline -- --noplot

echo "check.sh: fmt + build + clippy + rustdoc + lint + tests + stress + fuzzer + benches + resume/fsck/diff/serve/stats smoke all green"
