#!/bin/sh
# Stress-run the thread-spawning cases of one gtest binary: K concurrent
# copies, K = min(2 x online CPUs, 8), each repeating the selected cases.
# The copies oversubscribe the CPUs, so the cases' threads get preempted at
# arbitrary points — a race that a single quiet run hits 1 time in 100
# shows up here on most runs. Fails when any copy fails, printing that
# copy's output.
#
# usage: stress.sh <test-binary> <gtest-filter> <repeats>
set -u
if [ "$#" -ne 3 ]; then
  echo "usage: $0 <test-binary> <gtest-filter> <repeats>" >&2
  exit 2
fi
bin=$1
filter=$2
repeats=$3

cpus=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
copies=$((cpus * 2))
[ "$copies" -gt 8 ] && copies=8

logs=$(mktemp -d) || exit 2
trap 'rm -rf "$logs"' EXIT INT TERM

pids=""
i=1
while [ "$i" -le "$copies" ]; do
  "$bin" --gtest_filter="$filter" --gtest_repeat="$repeats" --gtest_brief=1 \
    >"$logs/$i.log" 2>&1 &
  pids="$pids $!"
  i=$((i + 1))
done

failed=0
i=1
for pid in $pids; do
  if ! wait "$pid"; then
    failed=$((failed + 1))
    echo "--- copy $i of $copies failed ---"
    cat "$logs/$i.log"
  fi
  i=$((i + 1))
done
echo "$copies copies x $repeats repeats of '$filter': $failed failed"
[ "$failed" -eq 0 ]
