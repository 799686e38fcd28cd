#!/usr/bin/env bash
# Regenerates every committed BENCH_*.json and fails on any difference.
#
# Rebuilds the benches, runs each bench_<name> that has a committed
# BENCH_<name>.json with `--json` into a temporary directory, and diffs
# the result against the committed file. Every bench is deterministic in
# simulated time, so a refactor that claims identical behaviour must leave
# every file byte-identical, and a change that moves a number must commit
# the regenerated file.
#
# One exception: the `threads` > 1 rows of BENCH_shard_scaling.json, and
# the speedup_8t gate values derived from them. Real submitter threads
# interleave differently from run to run, which moves those rows between
# two runs of the same binary; the threads = 1 rows and every gate's pass
# flag still have to match.
#
# Usage: scripts/bench_diff.sh [BUILD_DIR]    (default: build)
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-$root/build}

names=()
for committed in "$root"/BENCH_*.json; do
  name=$(basename "$committed" .json)
  names+=("${name#BENCH_}")
done

cmake -B "$build" -S "$root" > /dev/null
cmake --build "$build" -j "$(nproc)" \
  --target "${names[@]/#/bench_}" > /dev/null

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Masks what may legitimately vary (see the header) in one bench file.
normalize() {
  if [[ $(basename "$1") == BENCH_shard_scaling.json ]]; then
    grep -Ev '"threads": ([2-9]|[1-9][0-9]+),' "$1" |
      sed -E 's/"speedup_8t": [0-9.]+/"speedup_8t": */'
  else
    cat "$1"
  fi
}

status=0
for name in "${names[@]}"; do
  file=BENCH_$name.json
  if ! "$build/bench/bench_$name" --json "$out/$file" > "$out/$name.log" 2>&1
  then
    echo "FAIL $file: bench_$name exited non-zero (log below)"
    cat "$out/$name.log"
    status=1
    continue
  fi
  if diff -u --label "committed/$file" --label "regenerated/$file" \
       <(normalize "$root/$file") <(normalize "$out/$file"); then
    echo "ok   $file"
  else
    echo "FAIL $file differs from the committed file"
    status=1
  fi
done
exit $status
