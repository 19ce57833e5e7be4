#!/bin/sh
# Run `cargo test <args> -- <filter>` once per filter and fail when a filter
# matches no test, so that a test moved or renamed out from under a filter
# fails the step instead of turning it into a no-op.
#
# Usage: .github/scripts/filtered-tests.sh "<cargo test args>" <filter>...
set -eu
args=$1
shift
for filter in "$@"; do
    # shellcheck disable=SC2086 # `args` is a list of cargo arguments.
    out=$(cargo test $args -- "$filter" 2>&1) || {
        printf '%s\n' "$out"
        exit 1
    }
    printf '%s\n' "$out"
    if ! printf '%s\n' "$out" | grep -Eq 'test result: ok\. [1-9][0-9]* passed'; then
        echo "error: the filter '$filter' matched no test (cargo test $args)" >&2
        exit 1
    fi
done
