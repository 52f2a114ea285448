#!/bin/sh
# Reruns one bench in a fresh directory and compares what it writes with the
# golden copy committed under tests/golden/<bench>/: its stdout (stdout.txt),
# every BENCH_*.json without the host wall-clock "sim_throughput" line, and
# every CAMPAIGN_*.json. TRACE_*.json files are not kept as goldens.
#
#   check_golden.sh <bench binary> <golden dir> [bench args...]
#
# A change that moves a number regenerates the golden directory from the
# bench's new output, prepared the same way, and says why.
set -eu
bench=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$(cd "$2" && pwd)
shift 2

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$bench" "$@" > stdout.txt
rm -f TRACE_*.json
for f in BENCH_*.json; do
  [ -e "$f" ] || continue
  grep -v '"sim_throughput"' "$f" > "$f.stripped"
  mv "$f.stripped" "$f"
done

status=0
for f in "$golden"/*; do
  name=$(basename "$f")
  if [ ! -e "$name" ]; then
    echo "missing output: $name"
    status=1
  elif ! cmp "$f" "$name"; then
    status=1
  fi
done
for name in *; do
  if [ ! -e "$golden/$name" ]; then
    echo "output without a golden: $name"
    status=1
  fi
done
exit $status
