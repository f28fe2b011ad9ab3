#!/usr/bin/env bash
# Checks that every -bench pattern in scripts/bench_*.sh and
# .github/workflows/ci.yml names at least one benchmark in its package.
# `go test -bench` exits 0 when a pattern matches nothing, so a renamed
# or deleted benchmark would otherwise leave a line that silently runs
# no benchmark at all.
#
# go test splits a pattern on `|` and `/` outside brackets and
# parentheses: each `|` alternative is a sequence of per-level
# patterns, and its first element selects top-level benchmarks. Every
# alternative's first element must match a benchmark that
# `go test -list` reports for the line's package (the last word of the
# line). Run from anywhere; CI runs it in the bench-smoke job.
set -euo pipefail
cd "$(dirname "$0")/.."

# first_elements prints the first element of each alternative of a
# -bench pattern, one per line.
first_elements() {
	awk -v s="$1" 'BEGIN {
		brackets = 0; parens = 0; cur = ""; first = 1
		for (i = 1; i <= length(s); i++) {
			c = substr(s, i, 1)
			if (c == "\\") {
				if (first) cur = cur c substr(s, i + 1, 1)
				i++
				continue
			}
			if (c == "[") brackets++
			else if (c == "]") { if (--brackets < 0) brackets = 0 }
			else if (c == "(" && brackets == 0) parens++
			else if (c == ")" && brackets == 0) parens--
			else if (c == "/" && brackets == 0 && parens == 0) { first = 0; continue }
			else if (c == "|" && brackets == 0 && parens == 0) { print cur; cur = ""; first = 1; continue }
			if (first) cur = cur c
		}
		print cur
	}'
}

status=0
checked=0
while IFS= read -r hit; do
	file=${hit%%:*}
	line=${hit#*:}
	pattern=$(sed -E "s/.*-bench '([^']*)'.*/\1/" <<<"$line")
	pkg=$(awk '{print $NF}' <<<"$line")
	while IFS= read -r elem; do
		checked=$((checked + 1))
		if ! listed=$(go test -list "$elem" "$pkg" 2>&1); then
			echo "$file: go test -list failed for $pkg:" >&2
			echo "$listed" >&2
			status=1
			continue
		fi
		if ! grep -q '^Benchmark' <<<"$listed"; then
			echo "$file: -bench '$pattern' on $pkg: '$elem' names no benchmark" >&2
			status=1
		fi
	done < <(first_elements "$pattern")
done < <(grep -H -E "go test .*-bench '[^']*'" scripts/bench_*.sh .github/workflows/ci.yml | grep -v -E '^[^:]*:[[:space:]]*#')

if [ "$status" -ne 0 ]; then
	echo "stale -bench patterns found ($checked checked)" >&2
	exit 1
fi
echo "all $checked -bench patterns name a benchmark"
