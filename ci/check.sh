#!/bin/sh
# The full tier-1 gate, runnable locally or in CI:
#   sh ci/check.sh
# Fails on the first broken step. Mirrors .github/workflows/ci.yml.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> byte-identity guards (release)"
# The dense-vs-event equivalence sweep, the pinned SimStats and SWTB
# digests and the walkers' fault-recovery ledgers, again in the
# optimised build the benchmark measures. The debug run above checks the
# event kernel's skip paths with debug assertions; this one checks that
# release builds, which compile those checks out, still produce the same
# bytes and still balance every fault storm (the three-walker storm of
# crates/bench/tests/fault_storm.rs included).
cargo test -q --release --test kernel_equivalence --test stats_golden --test fault_recovery
cargo test -q --release -p swgpu-bench --test fault_storm

echo "==> simbench quick-cell tests (release)"
# The simulator benchmark is its own workspace, so the step above skips
# it. Its tests run every workload at quick scale through the measured
# code path (every simulate call checked, SimStats JSON round trip
# included): metric names and units match BENCHMARK.json, no end-to-end
# metric reads 0, the ledger checker flags doctored stats, and seeds move
# the streams but repeat exactly.
cargo test --release --offline --manifest-path simbench/Cargo.toml

echo "==> event-kernel smoke (dense equivalence + skipped-cycle floor)"
# Drain-heavy cells on both simulation kernels: statistics must be
# byte-identical, and the event kernel must skip a healthy fraction of
# cycles (a regression to per-cycle ticking keeps equivalence but
# fails the floor).
cargo run --release -q -p swgpu-bench --bin kernel_smoke

echo "==> demand-paging smoke (release)"
# Demand-paged cells on every walker kind: fault conservation
# (major_faults == major_replays, software fills on PW Warps), bounded
# eviction under a resident-page budget, at least one 64K coalesce on
# the sequential-touch recipe, and a prebuilt-mode rerun that simulates
# nothing (mm stays off the cache path).
cargo run --release -q -p swgpu-bench --bin mm_smoke

echo "==> data-path fault smoke (release)"
# Fill-pipeline fault storms on every walker kind: the data-path ledger
# balances (injected = recovered + escalated + retired), the end-to-end
# checksum catches every corrupted payload, an armed-but-zero plan is a
# byte-level no-op, and a corruption-heavy recipe retires frames to the
# allocator's bad-frame list.
cargo run --release -q -p swgpu-bench --bin mm_fault_smoke

echo "==> translation-policy smoke (release)"
# Dead-entry replacement + translation prefetch: explicit default knobs
# are a byte-level no-op (stats and fingerprint), DeadBlock clears its
# MPKI floor on an irregular cell, and the prefetch ledger conserves
# (issued = useful + late + evicted + in-flight) deterministically.
cargo run --release -q -p swgpu-bench --bin policy_smoke

echo "==> multi-tenant smoke (release)"
# ASID-keyed translation stack: the golden single-tenant fingerprint is
# intact (no cached artifact invalidated) and tenant-free runs emit no
# tenant keys; a two-tenant irregular+regular mix conserves the walk
# ledger (sum of per-tenant walks == completed translations) under both
# sharing policies, keeps Jain's fairness index in bounds, and reruns
# byte-identically. (The tenant block's JSON round trip is covered by
# the stats table's property test and the tenant cell of stats_golden.)
cargo run --release -q -p swgpu-bench --bin tenant_smoke

echo "==> run-cache round trip (fig09: trace-capped cells must disk-hit)"
# Two invocations of the same figure against a scratch cache: the first
# populates it, the second must simulate nothing — including the
# trace-capped Figure 9 cells, whose walk traces ride in the schema-v7
# artifacts.
SWGPU_RUN_CACHE="target/ci-run-cache-$$" ; export SWGPU_RUN_CACHE
rm -rf "$SWGPU_RUN_CACHE"
cargo run --release -q -p swgpu-bench --bin fig09_timeline -- --quick >/dev/null 2>&1
second=$(cargo run --release -q -p swgpu-bench --bin fig09_timeline -- --quick 2>&1 >/dev/null | grep "totals:")
rm -rf "$SWGPU_RUN_CACHE"
unset SWGPU_RUN_CACHE
case "$second" in
  *"totals: 0 simulated,"*) echo "    cache hit: $second" ;;
  *) echo "FAIL: second fig09 run re-simulated: $second"; exit 1 ;;
esac

echo "==> observability trace export (fig09 --trace-out: Perfetto JSON)"
# Obs-armed fig09 against its own scratch cache: the exported Chrome
# trace must self-validate (the binary prints "trace OK" only after
# swgpu_obs::validate_json passes), contain duration spans ("ph":"X")
# and counter tracks ("ph":"C"), and a repeat invocation must serve the
# obs-bearing artifacts entirely from disk.
SWGPU_RUN_CACHE="target/ci-obs-cache-$$" ; export SWGPU_RUN_CACHE
TRACE_DIR="target/ci-obs-traces-$$"
rm -rf "$SWGPU_RUN_CACHE" "$TRACE_DIR"
out=$(cargo run --release -q -p swgpu-bench --bin fig09_timeline -- --quick --trace-out "$TRACE_DIR" 2>/dev/null)
case "$out" in
  *"trace OK:"*) echo "    traces exported and validated" ;;
  *) echo "FAIL: fig09 --trace-out printed no 'trace OK' line"; exit 1 ;;
esac
for f in "$TRACE_DIR"/fig09-*.json; do
  [ -s "$f" ] || { echo "FAIL: empty trace file $f"; exit 1; }
  grep -q '"ph":"X"' "$f" || { echo "FAIL: no duration spans in $f"; exit 1; }
  grep -q '"ph":"C"' "$f" || { echo "FAIL: no counter track in $f"; exit 1; }
done
# --trace-out also streams one SWTB binary per obs cell; each must pass
# trace_tool's structural validation.
for f in "$TRACE_DIR"/*.swtb; do
  [ -s "$f" ] || { echo "FAIL: empty SWTB stream file $f"; exit 1; }
done
cargo run --release -q -p swgpu-bench --bin trace_tool -- validate "$TRACE_DIR"/*.swtb
second=$(cargo run --release -q -p swgpu-bench --bin fig09_timeline -- --quick --trace-out "$TRACE_DIR" 2>&1 >/dev/null | grep "totals:")
rm -rf "$SWGPU_RUN_CACHE" "$TRACE_DIR"
unset SWGPU_RUN_CACHE
case "$second" in
  *"totals: 0 simulated,"*) echo "    obs cache hit: $second" ;;
  *) echo "FAIL: second obs-armed fig09 run re-simulated: $second"; exit 1 ;;
esac

echo "==> streaming trace pipeline smoke (obs_stream_smoke + trace_tool)"
# A full-detail cell with a deliberately tiny span staging buffer and an
# SWTB file sink attached: zero drops with the sink in place, the file
# reconstructs the complete span set, and the Perfetto conversion
# self-validates. trace_tool then re-validates and converts the file.
STREAM_DIR="target/ci-stream-smoke-$$"
rm -rf "$STREAM_DIR"
out=$(cargo run --release -q -p swgpu-bench --bin obs_stream_smoke -- "$STREAM_DIR" --quick)
case "$out" in
  *"stream smoke OK:"*) echo "    $out" ;;
  *) echo "FAIL: obs_stream_smoke printed no OK line: $out"; exit 1 ;;
esac
cargo run --release -q -p swgpu-bench --bin trace_tool -- validate "$STREAM_DIR"/*.swtb
cargo run --release -q -p swgpu-bench --bin trace_tool -- to-perfetto "$STREAM_DIR"/*.swtb "$STREAM_DIR/smoke.json"
grep -q '"ph":"X"' "$STREAM_DIR/smoke.json" || { echo "FAIL: no duration spans in converted trace"; exit 1; }
rm -rf "$STREAM_DIR"

echo "All checks passed."
