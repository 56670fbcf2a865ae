#!/usr/bin/env bash
# usage: test_floor.sh MIN cargo test ARGS...
#
# Runs the command, echoes its output, and fails unless it succeeded AND
# at least MIN tests passed across its test binaries. Steps that select
# tests by name filter go through this: a filter that matches nothing
# (a renamed module, a moved test) passes silently otherwise.
set -uo pipefail
min=$1
shift
out=$("$@" 2>&1)
status=$?
echo "$out"
passed=$(grep -o 'test result: ok\. [0-9]* passed' <<<"$out" | awk '{s += $4} END {print s + 0}')
echo "test_floor: $passed passed, floor $min, exit status $status"
[ "$status" -eq 0 ] && [ "$passed" -ge "$min" ]
