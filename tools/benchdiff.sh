#!/bin/sh
# benchdiff.sh OLD.json NEW.json [threshold]
#
# Compares two BENCH_*.json files produced by check.sh and fails (exit 1)
# if any timing field regressed by more than the threshold (default 10%).
#
# Compared fields are the flat numeric keys ending in "_ns_per_op",
# "_bytes_per_op", "_allocs_per_op" or "_packets" (lower is better) and
# "_jobs_per_sec" (higher is better); ratio/metadata fields
# (speedups, cycle counts, host_cpus, configs) are ignored. A key present
# in only one file is reported but never fails the diff, so adding a new
# benchmark row doesn't break the comparison against an old baseline.
#
# check.sh wires this in as an advisory step, diffing each smoke record it
# writes to a temp directory against the committed one; run it by hand to
# gate a change on a fresh A/B measurement:
#
#   SOA_BENCHTIME=5x tools/check.sh    # prints the temp directory
#   tools/benchdiff.sh BENCH_soa.json "$BENCH_TMP/BENCH_soa.json"
set -eu

if [ "$#" -lt 2 ]; then
    echo "usage: $0 OLD.json NEW.json [threshold-fraction]" >&2
    exit 2
fi
OLD=$1
NEW=$2
THRESH=${3:-0.10}

awk -v thresh="$THRESH" -v oldf="$OLD" -v newf="$NEW" '
    # Flat "key": number pairs only; nested structure never appears in the
    # BENCH files.
    match($0, /"[A-Za-z0-9_]+":[ \t]*-?[0-9][0-9.eE+-]*[,}]?[ \t]*$/) {
        line = $0
        gsub(/[",:]/, " ", line)
        split(line, f, /[ \t]+/)
        key = f[1] != "" ? f[1] : f[2]
        val = f[1] != "" ? f[2] : f[3]
        if (FILENAME == oldf) old[key] = val
        else                  new[key] = val
    }
    END {
        fails = 0
        seen = 0
        for (key in old) {
            if (key ~ /_(ns|bytes|allocs)_per_op$/ || key ~ /_packets$/) better = "lower"
            else if (key ~ /_jobs_per_sec$/) better = "higher"
            else continue
            if (!(key in new)) { printf "benchdiff: %-32s only in %s\n", key, oldf; continue }
            seen++
            if (better == "lower") ratio = new[key] / old[key]
            else                   ratio = old[key] / new[key]
            delta = (ratio - 1) * 100
            verdict = "ok"
            if (ratio > 1 + thresh) { verdict = "REGRESSION"; fails++ }
            printf "benchdiff: %-32s old %-14s new %-14s %+6.1f%% %s\n", key, old[key], new[key], delta, verdict
        }
        for (key in new)
            if (!(key in old) && (key ~ /_(ns|bytes|allocs)_per_op$/ || key ~ /_packets$/ || key ~ /_jobs_per_sec$/))
                printf "benchdiff: %-32s only in %s\n", key, newf
        if (seen == 0) { print "benchdiff: no comparable timing fields found" > "/dev/stderr"; exit 2 }
        if (fails > 0) { printf "benchdiff: %d field(s) regressed beyond %.0f%%\n", fails, thresh * 100 > "/dev/stderr"; exit 1 }
    }
' "$OLD" "$NEW"
