#!/usr/bin/env bash
# Annealing-placer determinism smoke: the same anneal mapping run at
# -inner-parallel 1 and 4 must emit byte-identical deterministic
# reports (the qsprd /map response bytes — latency, placement, trace
# and all). On every mapping captureWinner also cross-checks the
# crowned run's captured replay against its search run, so a
# determinism violation fails the run loudly.
# Run from anywhere; CI runs it on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

common=(-circuit '[[7,1,3]]' -heuristic anneal -anneal-moves 120 -anneal-restarts 2 -stats=false)

echo "== anneal determinism: inner-parallel 1 vs 4 =="
go run ./cmd/qspr "${common[@]}" -inner-parallel 1 -report "$tmp/w1.json" > /dev/null
go run ./cmd/qspr "${common[@]}" -inner-parallel 4 -report "$tmp/w4.json" > /dev/null
if ! cmp -s "$tmp/w1.json" "$tmp/w4.json"; then
  echo "FAIL: anneal report bytes differ between inner-parallel 1 and 4" >&2
  diff "$tmp/w1.json" "$tmp/w4.json" | head >&2 || true
  exit 1
fi
echo "  reports byte-identical ($(wc -c < "$tmp/w1.json") bytes)"

echo "== anneal entrant in the portfolio maps =="
go run ./cmd/qspr -circuit '[[5,1,3]]' -heuristic portfolio -anneal-moves 60 \
  -anneal-restarts 2 -stats=false -report "$tmp/p.json" > /dev/null
if [ ! -s "$tmp/p.json" ]; then
  echo "FAIL: portfolio-with-anneal produced no report" >&2
  exit 1
fi
echo "  ok"

echo "PASS"
