#!/usr/bin/env bash
# Prints the Go line counts ROADMAP.md quotes, over the files git tracks,
# blank and comment lines included: non-test Go outside bench/, test Go
# outside bench/, and everything under bench/. Run it from anywhere in the
# checkout:
#
#   scripts/loc.sh
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

count() {
	# Sums wc -l over the files named on stdin, one per line; 0 when none.
	tr '\n' '\0' | xargs -0 -r cat | wc -l
}

files="$(git ls-files '*.go')"
nontest="$(grep -v '^bench/' <<<"$files" | grep -v '_test\.go$' | count)"
tests="$(grep -v '^bench/' <<<"$files" | grep '_test\.go$' | count)"
bench="$(grep '^bench/' <<<"$files" | count)"

echo "non-test Go outside bench/: $nontest"
echo "test Go outside bench/:     $tests"
echo "bench/:                     $bench"
