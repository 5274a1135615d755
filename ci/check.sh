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

echo "==> cargo doc --workspace (warnings denied)"
# Broken intra-doc links (say, to an item a change deleted) fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

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

echo "==> fig09 cache and trace round trip (one scratch cache, three runs)"
# 1. --trace-out D1 simulates live, streaming one SWTB file per cell, and
#    exports Chrome traces (the binary prints "trace OK" only after
#    swgpu_obs::validate_json passes) with duration spans ("ph":"X") and
#    counter tracks ("ph":"C").
# 2. A plain run serves every cell from the cache: 0 simulated, and the
#    timeline rebuilt from the cached spans prints the same text.
# 3. --trace-out D2 simulates nothing either: the runner synthesizes its
#    SWTB files from the cached reports, and trace_tool must accept them.
SWGPU_RUN_CACHE="target/ci-fig09-cache-$$" ; export SWGPU_RUN_CACHE
D1="target/ci-fig09-traces1-$$"
D2="target/ci-fig09-traces2-$$"
rm -rf "$SWGPU_RUN_CACHE" "$D1" "$D2"
fig09() { cargo run --release -q -p swgpu-bench --bin fig09_timeline -- --quick "$@"; }
mkdir -p "$D1" "$D2"
fig09 --trace-out "$D1" >"$D1/stdout" 2>/dev/null
grep -q "trace OK:" "$D1/stdout" || { echo "FAIL: fig09 --trace-out printed no 'trace OK' line"; exit 1; }
echo "    traces exported and validated"
for f in "$D1"/fig09-*.json; do
  [ -s "$f" ] || { echo "FAIL: empty trace file $f"; exit 1; }
  grep -q '"ph":"X"' "$f" || { echo "FAIL: no duration spans in $f"; exit 1; }
  grep -q '"ph":"C"' "$f" || { echo "FAIL: no counter track in $f"; exit 1; }
done
second=$(fig09 2>&1 >"$D2/stdout" | grep "totals:")
case "$second" in
  *"totals: 0 simulated,"*) echo "    cache hit: $second" ;;
  *) echo "FAIL: second fig09 run re-simulated: $second"; exit 1 ;;
esac
# Run 1 prints the same text, then its "trace OK" lines.
head -n "$(wc -l <"$D2/stdout")" "$D1/stdout" | cmp -s - "$D2/stdout" \
  || { echo "FAIL: cached fig09 timeline differs from the live one"; exit 1; }
third=$(fig09 --trace-out "$D2" 2>&1 >/dev/null | grep "totals:")
case "$third" in
  *"totals: 0 simulated,"*) echo "    synthesized traces from the cache: $third" ;;
  *) echo "FAIL: fig09 --trace-out over a warm cache re-simulated: $third"; exit 1 ;;
esac
for f in "$D1"/*.swtb "$D2"/*.swtb; do
  [ -s "$f" ] || { echo "FAIL: empty SWTB file $f"; exit 1; }
done
cargo run --release -q -p swgpu-bench --bin trace_tool -- validate "$D1"/*.swtb "$D2"/*.swtb
set -- "$D2"/*.swtb
cargo run --release -q -p swgpu-bench --bin trace_tool -- to-perfetto "$1" "$D2/converted.json"
grep -q '"ph":"X"' "$D2/converted.json" || { echo "FAIL: no duration spans in converted trace"; exit 1; }
rm -rf "$SWGPU_RUN_CACHE" "$D1" "$D2"
unset SWGPU_RUN_CACHE

echo "All checks passed."
