#!/bin/sh
# Reruns one bench in a fresh directory and compares what it writes with the
# golden copy committed under tests/golden/<bench>/, whole: its stdout
# (stdout.txt), every BENCH_*.json and every CAMPAIGN_*.json. TRACE_*.json
# files are not kept as goldens.
#
#   check_golden.sh <bench binary> <golden dir> [bench args...]
#
# A mismatching file fails the check and prints the first 40 lines of its
# unified diff against the golden copy. A change that moves a number
# regenerates the golden directory from the bench's new output, TRACE_*.json
# dropped, and says why.
set -eu
bench=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$(cd "$2" && pwd)
shift 2

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

"$bench" "$@" > stdout.txt
rm -f TRACE_*.json

status=0
for f in "$golden"/*; do
  name=$(basename "$f")
  if [ ! -e "$name" ]; then
    echo "missing output: $name"
    status=1
  elif ! cmp -s "$f" "$name"; then
    echo "mismatch: $name"
    diff -u "$f" "$name" | head -n 40
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
