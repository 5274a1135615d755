#!/bin/sh
# Runs every figure/table harness at full Table 3 scale and stores the
# output under experiments/. Pass --quick to run the reduced configuration.
set -u
ARGS="${1:-}"
cd "$(dirname "$0")/.."
# Every harness binary except trace_tool (a trace file utility, not a
# figure).
BINS=$(for f in crates/bench/src/bin/*.rs; do basename "$f" .rs; done | grep -vx trace_tool)
for b in $BINS; do
  echo "=== running $b $ARGS ==="
  cargo run --release -q -p swgpu-bench --bin "$b" -- $ARGS \
      > "experiments/$b.txt" 2>"experiments/$b.log" || echo "FAILED: $b"
  echo "=== $b done ==="
done
echo ALL-DONE
