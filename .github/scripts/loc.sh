#!/usr/bin/env bash
# Prints the non-test Go lines of the tree outside bench/ (bench/ is its
# own module): one line per package directory, then the total. A
# deletion round records this before and after its change.
#
# Run from anywhere: bash .github/scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

per_dir=$(find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.git/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
		if (dir == "") dir = "."
		lines[dir] += $1
	}
	END { for (d in lines) printf "%7d  %s\n", lines[d], d }' |
	sort -k2)
echo "$per_dir"
awk '{ total += $1 } END { printf "%7d  total\n", total }' <<<"$per_dir"
