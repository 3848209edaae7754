#!/usr/bin/env bash
# Local CI gate: build, test, lint, format — in the order that fails fastest
# on real breakage. Run from the workspace root before pushing.
set -euo pipefail

cd "$(dirname "$0")"

# The repo must never track machine-local cargo config: its
# [patch.crates-io] entries point at absolute container-image paths
# (/tmp/stubs/*), which break resolution on any other machine and
# silently replace real crates where the paths do exist.
if git ls-files --error-unmatch .cargo >/dev/null 2>&1; then
  echo "FAIL: .cargo/ is tracked by git — it is machine-local offline"
  echo "      wiring and must stay gitignored (see .gitignore)."
  exit 1
fi

# Offline-stub environment notice. When the local (gitignored)
# .cargo/config.toml patches crates-io to stubs — /tmp/stubs, or the
# benchmark package's std-only rand stand-ins in benchmark/stubs — the
# RNG stream differs from the real crates and two dev-only deps are
# reduced harnesses, so treat those stages accordingly:
#   - proptest: no shrinking, simplified case generation — property
#     suites run as smoke tests only; re-run against the real crate in
#     networked CI before trusting green property results.
#   - criterion: minimal harness — `cargo bench` numbers are NOT
#     comparable to real criterion output. The checked-in BENCH_*.json
#     artifacts are written by the bench_pr4/bench_scale *bins* (plain
#     std::time measurements, no criterion), so they are unaffected.
# Production code is stub-free: JSON (reports, snapshots, traces) is
# hand-rolled in-workspace via ppdp_trace::json.
if grep -qsE '/tmp/stubs|benchmark/stubs' .cargo/config.toml; then
  echo "NOTE: offline stub patches active (.cargo/config.toml):"
  echo "      property tests are smoke-level (stub proptest, no"
  echo "      shrinking) and criterion bench numbers are not"
  echo "      comparable to real criterion runs."
  # The checked-in linear golden snapshots were minted with the real
  # rand crates; the stub RNG draws a different stream, so those four
  # comparisons can never match here. Skip them loudly (the golden
  # tests print a SKIPPED notice per snapshot); every other golden —
  # including the environment-minted bootstrapped log-domain snapshot —
  # still compares byte-for-byte.
  export PPDP_SKIP_LINEAR_GOLDEN=1
  echo "      linear golden snapshots: SKIPPED (PPDP_SKIP_LINEAR_GOLDEN=1)"
fi

echo "==> cargo build --release"
cargo build --workspace --release

# The benchmark (benchmark/, a package of its own with an empty
# [workspace]) calls the publishers' public surface, so a renamed builder
# or method must fail here rather than on the next benchmark run. It
# resolves offline against its own std-only rand stand-ins.
echo "==> benchmark package: test, clippy, fmt"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
cargo fmt --check --manifest-path benchmark/Cargo.toml

# Bench harnesses must at least compile against whichever criterion
# (real or stub) is resolved — a bench-only compile break otherwise
# hides until someone runs `cargo bench`.
echo "==> cargo build --benches"
cargo build --workspace --benches

# The suite must pass — with identical results — whether the execution
# layer resolves to one thread or many (ExecPolicy::from_env reads
# PPDP_THREADS, then RAYON_NUM_THREADS).
echo "==> cargo test -q (1 thread)"
RAYON_NUM_THREADS=1 cargo test --workspace -q

echo "==> cargo test -q (4 threads)"
RAYON_NUM_THREADS=4 cargo test --workspace -q

echo "==> sequential-vs-parallel equivalence harness"
cargo test -q -p ppdp --test equivalence

echo "==> causal-trace equivalence harness"
cargo test -q -p ppdp --test trace

echo "==> golden-value regression suite"
cargo test -q -p ppdp --test golden

# Privacy-loss observability gates: all four publish pipelines emit
# lineage records, the composition accountant reconciles **bitwise**
# against live and WAL-recovered ledgers, the audit snapshot is
# policy-invariant byte-for-byte across Sequential/Parallel{1,2,8},
# the release cache answers repeats without re-spending ε, and the
# unattributed-spend lint holds.
echo "==> privacy-audit reconciliation suite"
cargo test -q -p ppdp --test audit

# End-to-end audit trail: a real experiments run must export a parseable
# audit log, pass its own in-process unattributed-spend lint (exit 5 on
# a violation), and render clean through `ppdp-report audit` (exit 1 on
# lint failure), including the lineage DOT export.
echo "==> experiments --audit-out + ppdp-report audit gate"
cargo run -q --release -p ppdp-bench --bin experiments -- \
  ext.dpgenomes --audit-out audit_ci.jsonl >/dev/null
cargo run -q --release -p ppdp-bench --bin ppdp-report -- \
  audit audit_ci.jsonl --dot audit_ci.dot >/dev/null
test -s audit_ci.dot || { echo "FAIL: no lineage DOT written"; exit 1; }
rm -f audit_ci.jsonl audit_ci.dot

# Chapter 3 link removal end to end: one Caltech-sized sweep (Table 3.9,
# 769 users, 16 656 links) through the public `indistinguishable_links`
# total − own scorer and the ICA attacks on each sanitized graph, in
# release (tens of milliseconds).
echo "==> Chapter 3 link-removal experiment (table3.9)"
cargo run -q --release -p ppdp-bench --bin experiments -- table3.9 >/dev/null

# Kernel-equivalence gate: the log-domain (LSE) BP kernel must agree with
# the linear kernel to 1e-9 on golden fixtures, make identical greedy
# sanitize picks, stay bitwise across exec policies and checkpoint/resume
# with warm arenas, and survive the adversarial fixtures (degree-1500 hub
# traits, 10⁴-deep kin chains, near-zero factor tables) that underflow
# the linear kernel.
echo "==> differential kernel-equivalence suite (linear vs log domain)"
cargo test -q -p ppdp --test kernels

# Arena-reuse gate: 50 back-to-back publishes on one publisher must show
# flat per-publish allocation growth and warm-arena hits in the metrics
# registry (its own test binary: it swaps in the counting allocator).
echo "==> BP arena-reuse leak gate"
cargo test -q -p ppdp --test arena

echo "==> chaos suite (fault injection: no panics allowed)"
cargo test -q -p ppdp --test chaos

# Crash-injection gate: SIGKILL/abort a real publish pipeline at every
# deterministic durability boundary plus randomized timed kills, under
# both execution policies. Each kill must recover to a byte-identical
# artifact with a ledger that never under-counts spent ε; also covers the
# experiments driver's SIGTERM checkpoint/resume path.
echo "==> crash-injection harness (kill-mid-run recovery)"
cargo test -q -p ppdp-bench --test crash

# Perf contract of the incremental inference engine: warm-started BP must
# reproduce the full-recompute picks exactly while updating ≤ 25% of its
# messages and running ≥ 5× faster. Writes BENCH_PR4.json, exits non-zero
# on any gate miss.
echo "==> incremental-BP bench gate (bench_pr4)"
cargo run -q --release -p ppdp-bench --bin bench_pr4

# Tracing overhead gate: re-run the bench with the causal-event collector
# live and bound the slowdown of the traced full-recompute pass to < 5%
# relative to the untraced run above. The untraced BENCH_PR4.json is the
# artifact of record and is restored afterwards.
echo "==> tracing overhead gate (< 5% on bench_pr4)"
cp BENCH_PR4.json BENCH_PR4.untraced.json
PPDP_TRACE=1 PPDP_TRACE_OUT=bench_pr4_trace.jsonl \
  cargo run -q --release -p ppdp-bench --bin bench_pr4
awk '
  /"full_recompute"/ { if (match($0, /"wall_ns": *[0-9]+/)) \
      print substr($0, RSTART + 11, RLENGTH - 11) }
' BENCH_PR4.untraced.json BENCH_PR4.json | awk '
  NR == 1 { base = $1 }
  NR == 2 { traced = $1 }
  END {
    if (base == "" || traced == "") { print "missing wall_ns"; exit 1 }
    ratio = traced / base
    printf "untraced %d ns, traced %d ns, ratio %.3f\n", base, traced, ratio
    if (ratio >= 1.05) { print "FAIL: tracing overhead >= 5%"; exit 1 }
  }
'

# Cross-run regression diff gate: the traced re-run must be metric-clean
# against the untraced baseline (wall-time ignored — the overhead gate
# above owns that axis).
echo "==> ppdp-report diff gate"
cargo run -q --release -p ppdp-bench --bin ppdp-report -- \
  diff --ignore-wall BENCH_PR4.untraced.json BENCH_PR4.json
mv BENCH_PR4.untraced.json BENCH_PR4.json
rm -f bench_pr4_trace.jsonl

# Metrics overhead gate: same shape as the tracing gate — re-run the
# bench with the live registry, heartbeat and allocation tee enabled and
# bound the slowdown of the full-recompute pass to < 5%. The plain
# BENCH_PR4.json stays the artifact of record.
echo "==> metrics overhead gate (< 5% on bench_pr4)"
cp BENCH_PR4.json BENCH_PR4.plain.json
PPDP_METRICS=1 PPDP_METRICS_OUT=bench_pr4_metrics.om \
  cargo run -q --release -p ppdp-bench --bin bench_pr4
awk '
  /"full_recompute"/ { if (match($0, /"wall_ns": *[0-9]+/)) \
      print substr($0, RSTART + 11, RLENGTH - 11) }
' BENCH_PR4.plain.json BENCH_PR4.json | awk '
  NR == 1 { base = $1 }
  NR == 2 { metered = $1 }
  END {
    if (base == "" || metered == "") { print "missing wall_ns"; exit 1 }
    ratio = metered / base
    printf "plain %d ns, metered %d ns, ratio %.3f\n", base, metered, ratio
    if (ratio >= 1.05) { print "FAIL: metrics overhead >= 5%"; exit 1 }
  }
'
test -s bench_pr4_metrics.om || { echo "FAIL: no metrics snapshot written"; exit 1; }
mv BENCH_PR4.plain.json BENCH_PR4.json
rm -f bench_pr4_metrics.om

# Live-exposition smoke test + paper-scale harness (ci profile): the
# run must complete, self-scrape a valid OpenMetrics payload containing
# the BP progress gauge and per-span allocation series, and produce
# RSS/allocation columns; its JSON must then diff clean against itself
# with the wall-time class armed at 1.5× (exercises the wall and memory
# metric classes end-to-end, so a stored-baseline BENCH_SCALE diff
# regression fails loudly rather than skipping the wall axis).
echo "==> bench_scale scrape + resource-accounting gate (ci profile)"
cargo run -q --release -p ppdp-bench --bin bench_scale -- \
  --profile ci --out BENCH_SCALE.ci.json
cargo run -q --release -p ppdp-bench --bin ppdp-report -- \
  diff --wall-ratio 1.5 BENCH_SCALE.ci.json BENCH_SCALE.ci.json
rm -f BENCH_SCALE.ci.json

# Paper-extreme scale gate: the 10⁶-node graph row and the 10⁵-SNP genome
# row (both message domains) must complete within a 3 GiB peak-RSS budget,
# the log-domain row must converge with zero underflow repairs, it must
# not need more sweeps than the linear row, and the blocked BP kernel must
# beat the in-run scalar row (the pre-blocking kernel) by ≥ 1.5× wall
# time on the genome_log row. The checked-in BENCH_SCALE.json baseline is
# left untouched.
echo "==> bench_scale 10⁶-node gate (gate profile, 3 GiB RSS, ≥1.5× blocked genome_log)"
cargo run -q --release -p ppdp-bench --bin bench_scale -- \
  --profile gate --out BENCH_SCALE.gate.json \
  --max-peak-rss-bytes 3221225472 --min-speedup 1.5
rm -f BENCH_SCALE.gate.json

# Kernel hot-loop idiom lint: the blocked BP kernels must stay on
# iterator/chunks_exact form — indexed `for i in 0..N` inner loops defeat
# the bounds-check elision LLVM needs to vectorize them.
echo "==> kernel vectorization lint (no indexed inner loops)"
if grep -nE 'for [A-Za-z_]+ in 0\.\.[0-9]' crates/genomic/src/kernels.rs; then
  echo "FAIL: indexed inner loop in crates/genomic/src/kernels.rs —"
  echo "      use iterators / chunks_exact so the loop vectorizes."
  exit 1
fi

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Library code of the Result-converted crates must not panic on corrupt
# input: unwrap/expect are reserved for tests, benches, and examples.
# disallowed_methods (clippy.toml) additionally denies raw
# std::thread::spawn — all library threading goes through ppdp-exec.
echo "==> cargo clippy (no unwrap/expect/raw-spawn in lib code)"
for crate in ppdp-errors ppdp-durable ppdp-graph ppdp-classify ppdp-sanitize \
    ppdp-tradeoff ppdp-genomic ppdp-dp ppdp-opt ppdp-exec ppdp-telemetry \
    ppdp-metrics ppdp-trace ppdp-audit ppdp; do
  cargo clippy -q -p "$crate" --lib -- \
    -D clippy::unwrap_used -D clippy::expect_used \
    -D clippy::disallowed_methods
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "CI OK"
