#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` pattern in the workflow
# files or the verify skill's commands matches no test, benchmark, fuzz
# target or example of the root module. Such a name (a test since
# renamed or deleted) silently runs nothing, so the step or command
# that names it checks less than it says. A pattern is read quoted
# ('...') or, in the skill, as one bare word starting with a capital.
# Alternatives are split at every '|', so a -run list must not group
# alternatives in parentheses.
#
# Run from anywhere: bash .github/scripts/check-run-lists.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

# The mutants tag adds one file, the catalog's runner (TestMutants), so
# the tagged list is the untagged one and that test.
names=$(go test -tags mutants -list '.*' ./... | grep -E '^(Test|Benchmark|Fuzz|Example)')
status=0
while IFS= read -r alt; do
	# Go splits a -run pattern at '/' into per-level patterns; only the
	# top level names a function.
	top=${alt%%/*}
	[ -z "${top//[\^\$]/}" ] && continue # '^$': run nothing, on purpose
	if ! grep -qE -- "$top" <<<"$names"; then
		echo "-run alternative '$alt' matches no test, benchmark, fuzz target or example"
		status=1
	fi
done < <({
	grep -ohE -- "-run '[^']*'" .github/workflows/*.yml
	grep -ohE -- "-run ('[^']*'|[A-Z][A-Za-z0-9_|]*)" .claude/skills/verify/SKILL.md
} | sed -E "s/^-run '?//; s/'$//" | tr '|' '\n' | sort -u)
exit $status
