#!/bin/sh
# The full tier-1 gate, runnable locally or in CI:
#   sh ci/check.sh
# Fails on the first broken step. Mirrors .github/workflows/ci.yml.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> non-test lines per crate (report only)"
# The count ROADMAP's line bars are stated in; it fails nothing.
sh ci/loc.sh

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> every example once (release)"
# Clippy only compiles the examples; running each one checks that the
# public API they drive still builds and runs a simulator end to end.
for f in examples/*.rs; do
  e=$(basename "$f" .rs)
  if ! cargo run --release -q --example "$e" >/dev/null 2>"target/ci-example-$$.log"; then
    tail -n 20 "target/ci-example-$$.log"
    echo "FAIL: example $e exited nonzero"; exit 1
  fi
done
rm -f "target/ci-example-$$.log"

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> byte-identity guards (release)"
# The dense-vs-event equivalence sweep, the pinned SimStats, SWTB and
# TLB-operation digests, the walkers' fault-recovery and demand-paging
# storms and the runner's streaming path, again in the optimised build
# the benchmark measures. The debug run above checks every simulation's conservation
# ledgers and the event kernel's skip paths with debug assertions; this
# one checks that release builds, which compile those checks out, still
# produce the same bytes, balance the same ledgers (the tests call
# SimStats::check_ledgers themselves) and clear the same floors. The
# allocation budgets are checked here too: the benchmark measures
# release builds, whose heap traffic inside `run()` is what they bound.
cargo test -q --release --test kernel_equivalence --test stats_golden --test tlb_golden --test fault_recovery --test mm_demand --test alloc_budget
cargo test -q --release -p swgpu-bench --lib --test fault_storm

echo "==> simbench quick-cell tests (release)"
# The simulator benchmark is its own workspace, so the step above skips
# it. Its tests run every workload at quick scale through the measured
# code path (every simulate call checked, SimStats JSON round trip
# included): metric names and units match BENCHMARK.json, no end-to-end
# metric reads 0, the ledger checker flags doctored stats, and seeds move
# the streams but repeat exactly.
cargo test --release --offline --manifest-path simbench/Cargo.toml

echo "==> every harness at --quick (one shared scratch cache)"
# Each figure/table binary runs once; a harness that panics while
# formatting (say, on a missing obs payload) fails here. Harnesses share
# one cache, so a cell another harness already resolved is a disk hit.
SWGPU_RUN_CACHE="target/ci-harness-cache-$$" ; export SWGPU_RUN_CACHE
rm -rf "$SWGPU_RUN_CACHE"
for f in crates/bench/src/bin/*.rs; do
  b=$(basename "$f" .rs)
  [ "$b" = trace_tool ] && continue
  if ! cargo run --release -q -p swgpu-bench --bin "$b" -- --quick >/dev/null 2>"$SWGPU_RUN_CACHE.log"; then
    tail -n 20 "$SWGPU_RUN_CACHE.log"
    echo "FAIL: $b --quick exited nonzero"; exit 1
  fi
done
rm -rf "$SWGPU_RUN_CACHE" "$SWGPU_RUN_CACHE.log"
unset SWGPU_RUN_CACHE

echo "==> every harness rejects an unknown flag"
# Flags are parsed strictly, by the three table harnesses that run no
# cells too: a typo must exit nonzero instead of running with defaults.
for f in crates/bench/src/bin/*.rs; do
  b=$(basename "$f" .rs)
  [ "$b" = trace_tool ] && continue
  if cargo run --release -q -p swgpu-bench --bin "$b" -- --bogus >/dev/null 2>&1; then
    echo "FAIL: $b --bogus exited 0"; exit 1
  fi
done

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
# ...and convert back to a Perfetto trace with duration spans.
set -- "$TRACE_DIR"/*.swtb
cargo run --release -q -p swgpu-bench --bin trace_tool -- to-perfetto "$1" "$TRACE_DIR/converted.json"
grep -q '"ph":"X"' "$TRACE_DIR/converted.json" || { echo "FAIL: no duration spans in converted trace"; exit 1; }
second=$(cargo run --release -q -p swgpu-bench --bin fig09_timeline -- --quick --trace-out "$TRACE_DIR" 2>&1 >/dev/null | grep "totals:")
rm -rf "$SWGPU_RUN_CACHE" "$TRACE_DIR"
unset SWGPU_RUN_CACHE
case "$second" in
  *"totals: 0 simulated,"*) echo "    obs cache hit: $second" ;;
  *) echo "FAIL: second obs-armed fig09 run re-simulated: $second"; exit 1 ;;
esac

echo "All checks passed."
