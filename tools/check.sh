#!/bin/sh
# Repository check: build, vet, a guard that the simulator packages import
# no sync primitives, race-enabled tests, the model checker's pinned
# explorations without the race detector, fuzz smoke passes over
# the trace-file, fault-spec and job-submission parsers, a race-enabled
# serve and coordinator CLI smoke, a race-enabled fault-injection
# smoke (drop-plan recovery per engine + watchdog dump), a race-enabled
# metrics-instrumented experiment run, and a race-enabled cluster chaos
# campaign (coordinator + workers with seeded kills; results byte-compared
# against direct runs). CI runs exactly this script
# (.github/workflows/ci.yml) so local and CI results agree.
set -eux

cd "$(dirname "$0")/.."

gofmt_out=$(gofmt -l .)
if [ -n "$gofmt_out" ]; then
    echo "gofmt needed on:" "$gofmt_out" >&2
    exit 1
fi

go build ./...
go vet ./...

# Ownership guard: a simulated machine and everything protocol.Build wires
# into it run on one goroutine, so the simulator packages need no locks or
# atomics. Concurrency lives only in exec (the job pool), serve and cluster
# (the job services) and mcheck's parallel BFS; a sync or sync/atomic
# import anywhere below means state is being shared it should not be.
if go list -f '{{.ImportPath}}: {{join .Imports " "}}' \
    ./internal/sim ./internal/network ./internal/protocol ./internal/treecc \
    ./internal/directory ./internal/verify ./internal/stats ./internal/memory \
    ./internal/metrics ./internal/fault ./internal/cache ./internal/trace \
    ./internal/cacti | grep -E ' sync(/atomic)?( |$)'; then
    echo "single-goroutine simulator package imports sync or sync/atomic" >&2
    exit 1
fi

go test -race ./...

# The model checker's pinned explorations without the race detector:
# TestScale3x3SixOps (the 1,274,792-state pin) skips under -race, so this
# is the step that checks it (about 15 s on a 2-CPU host).
go test -count=1 ./internal/mcheck

# Fuzz smoke: a short randomized session over the trace-file parser on top
# of the committed regression corpus (testdata/fuzz/FuzzRead).
go test ./internal/trace -fuzz '^FuzzRead$' -fuzztime 10s

# Fault-spec fuzz smoke: parse/canonicalize round-trip and plan determinism
# over the committed corpus (internal/fault/testdata/fuzz/FuzzParseSpec).
go test ./internal/fault -fuzz '^FuzzParseSpec$' -fuzztime 5s

# Job-submission fuzz smoke: JSON into serve.SubmitRequest and BuildJob —
# the front door serve and the cluster coordinator share — must never
# panic, and an accepted request must keep its content hash across a JSON
# round trip (internal/serve/testdata/fuzz/FuzzSubmitRequest).
go test ./internal/serve -fuzz '^FuzzSubmitRequest$' -fuzztime 5s

# Litmus smoke under the race detector: a fixed-seed campaign of generated
# conflict programs on both engines, clean and under a drop plan with
# recovery armed (the command exits non-zero on any oracle failure), then a
# mutation campaign that MUST fail — the pipeline has to catch a seeded
# protocol defect, shrink it, and write a reproducer that replays.
go run -race ./cmd/innetcc -litmus 25 -jobs 2 >/dev/null
go run -race ./cmd/innetcc -litmus 25 -jobs 2 \
    -faults 'drop=5000,timeout=4000,retries=8,backoff=32,probe=100' >/dev/null
LITMUS_OUT=$(mktemp -d)
if go run -race ./cmd/innetcc -litmus 4 -litmus-engine tree \
    -litmus-bug skip-invalidate -litmus-out "$LITMUS_OUT" >/dev/null 2>&1; then
    echo "litmus mutation campaign failed to detect the seeded defect" >&2
    exit 1
fi
REPRO=$(ls "$LITMUS_OUT"/litmus-*.json | head -1)
go run -race ./cmd/innetcc -litmus-replay "$REPRO" | grep -q '^reproduced:'

# Litmus-program fuzz smoke: coverage-guided conflict programs through the
# full simulator's oracle battery on both engines (internal/litmus).
go test -race ./internal/litmus -fuzz '^FuzzLitmusProgram$' -fuzztime 10s

# Fault smoke under the race detector: one seeded drop plan per engine must
# recover to a coherent end state, and a watchdog trip must produce the
# flight-recorder dump (TestWatchdogTripDumpsFlightRecorder asserts the
# dump file on disk).
go test -race ./internal/fault \
    -run '^(TestDropPlanCompletesCoherently|TestWatchdogTripDumpsFlightRecorder)$' -v
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 \
    -faults drop=2000,timeout=200000,retries=6,backoff=64 -retries 1 >/dev/null

# Observability smoke under the race detector: one metrics-instrumented
# experiment across parallel workers, with CSV export and flight dumping.
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 -metrics \
    -metrics-out "$(mktemp -d)/metrics.csv" -flight-dump >/dev/null

# Topology smoke under the race detector: the fig5 sweep on a torus with
# hardware multicast and on a ring, exercising the non-mesh routing and the
# in-fabric invalidation forking through the full CLI path.
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 \
    -topology torus:4x4 -multicast >/dev/null
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 \
    -topology ring:16 >/dev/null

# Benchmark smokes. Each one below writes its record to $BENCH_TMP (never
# over the committed BENCH_*.json files, so a green check leaves the tree
# clean), prints it, and diffs it against the committed record with
# tools/benchdiff.sh. The diffs are advisory: a >10% regression prints
# loudly but does not fail the check, because a 1-iteration smoke is too
# noisy to gate on. To refresh a committed record, rerun with the named
# *_BENCHTIME and copy its file from $BENCH_TMP (printed below) over it.
BENCH_TMP=$(mktemp -d)
echo "benchmark smoke records go to $BENCH_TMP"
bench_diff() {
    tools/benchdiff.sh "$1" "$BENCH_TMP/$1" ||
        echo "benchdiff: ADVISORY — $1 smoke regressed vs the committed record; $2 before trusting this" >&2
}

# SoA serial record: the 16x16 mesh tick-loop benchmark, recorded as
# BENCH_soa.json with the host CPU count. ns/op is simulation only
# (protocol.Build is excluded from the timer). The pre-SoA reference is a
# fixed constant (run-only ns/op, interleaved A/B median measured on the
# 1-cpu CI host when the structure-of-arrays router refactor landed)
# because the pre-SoA code no longer exists to re-run. Cross-host
# comparisons of the speedup field are only meaningful when host_cpus
# matches the reference_host_cpus recorded beside it. Override
# SOA_BASELINE_NS to re-A/B on new hardware. One iteration by default (a
# smoke, not a measurement); SOA_BENCHTIME=5x, copied from
# $BENCH_TMP/BENCH_soa.json, refreshes the committed record.
: "${SOA_BENCHTIME:=1x}"
: "${SOA_BASELINE_NS:=278778224}"
go test -run '^$' -bench '^BenchmarkParallelMesh$' -benchtime "$SOA_BENCHTIME" . |
    awk -v base="$SOA_BASELINE_NS" -v ncpu="$(nproc)" '
        $1 ~ /^BenchmarkParallelMesh/ {
            for (i = 2; i <= NF; i++) if ($(i+1) == "ns/op") ns = $i
        }
        END {
            if (ns == "") { print "bench output missing" > "/dev/stderr"; exit 1 }
            printf "{\n"
            printf "  \"benchmark\": \"SoARouter\",\n"
            printf "  \"config\": \"16x16 mesh, tree engine, bar profile, 40 accesses/node, serial; run-only ns/op (Build excluded)\",\n"
            printf "  \"host_cpus\": %d,\n", ncpu
            printf "  \"reference_host_cpus\": 1,\n"
            printf "  \"pre_soa_serial_ns_per_op\": %s,\n", base
            printf "  \"soa_serial_ns_per_op\": %s,\n", ns
            printf "  \"serial_speedup\": %.2f\n", base / ns
            printf "}\n"
        }' > "$BENCH_TMP/BENCH_soa.json"
cat "$BENCH_TMP/BENCH_soa.json"
bench_diff BENCH_soa.json "rerun with SOA_BENCHTIME=5x"

# Build cost record: protocol.Build alone (trace generation excluded) on
# 16x16, 32x32 and 64x64 tree-engine meshes, recorded as BENCH_build.json
# with the host CPU count. Cache sets materialize on first touch, so these
# numbers grow with the per-set indexes, not with cache capacity; B/op and
# allocs/op are deterministic, ns/op is a 10-iteration smoke.
# BUILD_BENCHTIME=50x, copied from $BENCH_TMP/BENCH_build.json, refreshes
# the committed record.
: "${BUILD_BENCHTIME:=10x}"
go test -run '^$' -bench '^BenchmarkBuild$' -benchtime "$BUILD_BENCHTIME" . |
    awk -v ncpu="$(nproc)" '
        $1 ~ /^BenchmarkBuild\// {
            name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkBuild\//, "", name); gsub(/:/, "", name)
            for (i = 2; i <= NF; i++) {
                if ($(i+1) == "ns/op") ns[name] = $i
                if ($(i+1) == "B/op") by[name] = $i
                if ($(i+1) == "allocs/op") al[name] = $i
            }
        }
        END {
            n = split("mesh16x16 mesh32x32 mesh64x64", keys, " ")
            for (k = 1; k <= n; k++)
                if (ns[keys[k]] == "" || by[keys[k]] == "" || al[keys[k]] == "") { print "bench output missing" > "/dev/stderr"; exit 1 }
            printf "{\n"
            printf "  \"benchmark\": \"Build\",\n"
            printf "  \"config\": \"protocol.Build only, tree engine, bar profile, 20 accesses/node\",\n"
            printf "  \"host_cpus\": %d,\n", ncpu
            for (k = 1; k <= n; k++) {
                printf "  \"%s_ns_per_op\": %s,\n", keys[k], ns[keys[k]]
                printf "  \"%s_bytes_per_op\": %s,\n", keys[k], by[keys[k]]
                printf "  \"%s_allocs_per_op\": %s%s\n", keys[k], al[keys[k]], k < n ? "," : ""
            }
            printf "}\n"
        }' > "$BENCH_TMP/BENCH_build.json"
cat "$BENCH_TMP/BENCH_build.json"
bench_diff BENCH_build.json "rerun with BUILD_BENCHTIME=50x"

# Serving-layer smoke under the race detector: start the job server on a
# loopback port, submit a job over HTTP, stream its progress to completion,
# fetch the result, then SIGTERM the server and require a clean drain.
SERVE_DATA=$(mktemp -d)
SERVE_ADDR=127.0.0.1:18931
go build -race -o "$SERVE_DATA/innetcc" ./cmd/innetcc
"$SERVE_DATA/innetcc" -serve "$SERVE_ADDR" -serve-data "$SERVE_DATA/data" \
    -tenants 'ci=2:8' -serve-workers 2 > "$SERVE_DATA/server.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    if "$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
"$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" -submit -profile fft \
    -engine tree -accesses 120 -tenant ci -watch yes >/dev/null
"$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" -stats >/dev/null
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q 'drained' "$SERVE_DATA/server.log"

# Coordinator smoke under the race detector: a coordinator and one worker
# joined to it as separate processes; a client submits through the
# coordinator and follows the coordinator's own event stream to the
# terminal state, then SIGTERM must drain both processes cleanly.
COORD_ADDR=127.0.0.1:18932
WORKER_ADDR=127.0.0.1:18933
"$SERVE_DATA/innetcc" -coordinator "$COORD_ADDR" -coord-data "$SERVE_DATA/coord" \
    > "$SERVE_DATA/coord.log" 2>&1 &
COORD_PID=$!
for i in $(seq 1 50); do
    if "$SERVE_DATA/innetcc" -client "http://$COORD_ADDR" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
"$SERVE_DATA/innetcc" -serve "$WORKER_ADDR" -serve-data "$SERVE_DATA/worker" \
    -join "http://$COORD_ADDR" -advertise "http://$WORKER_ADDR" > "$SERVE_DATA/worker.log" 2>&1 &
WORKER_PID=$!
"$SERVE_DATA/innetcc" -client "http://$COORD_ADDR" -submit -profile fft \
    -engine tree -accesses 120 -tenant ci -watch yes >/dev/null
kill -TERM "$WORKER_PID" "$COORD_PID"
wait "$WORKER_PID"
wait "$COORD_PID"
grep -q 'drained' "$SERVE_DATA/worker.log"
grep -q 'drained' "$SERVE_DATA/coord.log"

# Serving-layer benchmark smoke: the 8-profile x 2-engine sweep through the
# job server with a cold and a warm result cache, recorded as
# BENCH_serve.json so scheduling/caching regressions show up in review
# diffs. One iteration by default; SERVE_BENCHTIME=5x, copied from
# $BENCH_TMP/BENCH_serve.json, refreshes the committed record.
: "${SERVE_BENCHTIME:=1x}"
go test -run '^$' -bench 'ServeSweep' -benchtime "$SERVE_BENCHTIME" ./internal/serve |
    awk '
        $1 ~ /^BenchmarkServeSweep/ {
            name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkServeSweep/, "", name)
            for (i = 2; i <= NF; i++) if ($(i+1) == "jobs/sec") jps[name] = $i
        }
        END {
            if (jps["Cold"] == "" || jps["Warm"] == "") { print "bench output missing" > "/dev/stderr"; exit 1 }
            printf "{\n"
            printf "  \"benchmark\": \"ServeSweep\",\n"
            printf "  \"config\": \"8 profiles x 2 engines, 60 accesses/node, 4 workers\",\n"
            printf "  \"cold_jobs_per_sec\": %s,\n", jps["Cold"]
            printf "  \"warm_jobs_per_sec\": %s,\n", jps["Warm"]
            printf "  \"warm_speedup\": %.2f\n", jps["Warm"] / jps["Cold"]
            printf "}\n"
        }' > "$BENCH_TMP/BENCH_serve.json"
cat "$BENCH_TMP/BENCH_serve.json"
bench_diff BENCH_serve.json "rerun with SERVE_BENCHTIME=5x"

# Kernel benchmark smoke: the active-set kernel against its always-tick
# control on the 64-node low-injection mesh, recorded as BENCH_kernel.json
# so regressions in the idle-skip machinery show up in review diffs. One
# iteration by default (a smoke, not a measurement); KERNEL_BENCHTIME=5x,
# copied from $BENCH_TMP/BENCH_kernel.json, refreshes the committed record.
: "${KERNEL_BENCHTIME:=1x}"
go test -run '^$' -bench 'KernelIdleMesh' -benchtime "$KERNEL_BENCHTIME" . |
    awk '
        $1 ~ /^BenchmarkKernelIdleMesh/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            ns[name] = $3; cycles[name] = $5
        }
        END {
            a = ns["BenchmarkKernelIdleMesh"]
            t = ns["BenchmarkKernelIdleMeshAlwaysTick"]
            if (a == "" || t == "") { print "bench output missing" > "/dev/stderr"; exit 1 }
            printf "{\n"
            printf "  \"benchmark\": \"KernelIdleMesh\",\n"
            printf "  \"config\": \"8x8 mesh, tree engine, bar profile, think=200, 120 accesses/node\",\n"
            printf "  \"active_set_ns_per_op\": %s,\n", a
            printf "  \"always_tick_ns_per_op\": %s,\n", t
            printf "  \"sim_cycles\": %s,\n", cycles["BenchmarkKernelIdleMesh"]
            printf "  \"speedup\": %.2f\n", t / a
            printf "}\n"
        }' > "$BENCH_TMP/BENCH_kernel.json"
cat "$BENCH_TMP/BENCH_kernel.json"
bench_diff BENCH_kernel.json "rerun with KERNEL_BENCHTIME=5x"

# Topology benchmark smoke: hardware-multicast invalidation traffic against
# its unicast control on the 8x8 torus, recorded as BENCH_topology.json so
# regressions in the fabric's packet forking show up in review diffs. One
# iteration by default (the packet counts are deterministic per run);
# TOPOLOGY_BENCHTIME=5x, copied from $BENCH_TMP/BENCH_topology.json,
# refreshes the committed record.
: "${TOPOLOGY_BENCHTIME:=1x}"
go test -run '^$' -bench 'TopologyMulticast' -benchtime "$TOPOLOGY_BENCHTIME" . |
    awk '
        $1 ~ /^BenchmarkTopologyMulticast\// {
            name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkTopologyMulticast\//, "", name)
            for (i = 2; i <= NF; i++) if ($(i+1) == "inv-packets") pk[name] = $i
        }
        END {
            if (pk["Unicast"] == "" || pk["Multicast"] == "") { print "bench output missing" > "/dev/stderr"; exit 1 }
            printf "{\n"
            printf "  \"benchmark\": \"TopologyMulticast\",\n"
            printf "  \"config\": \"8x8 torus, directory engine, wsp profile, 150 accesses/node\",\n"
            printf "  \"unicast_inv_packets\": %s,\n", pk["Unicast"]
            printf "  \"multicast_inv_packets\": %s,\n", pk["Multicast"]
            printf "  \"packet_reduction\": %.2f\n", 1 - pk["Multicast"] / pk["Unicast"]
            printf "}\n"
        }' > "$BENCH_TMP/BENCH_topology.json"
cat "$BENCH_TMP/BENCH_topology.json"
bench_diff BENCH_topology.json "check the multicast forking"

# Cluster smoke under the race detector: coordinator plus three workers in
# process, a seeded kill/restart campaign driven by -chaos. The command
# byte-compares every completed job against a direct in-process run and
# exits non-zero on any lost or corrupted result, so this line alone
# asserts the fan-out survives worker death.
go run -race ./cmd/innetcc -chaos 'kill=40000,restart=10,window=2:0' \
    -chaos-workers 3 -chaos-jobs 8 -chaos-ticks 40 -accesses 800 -seed 3 >/dev/null

# Cluster benchmark smoke: the same campaign fault-free (the clean-cluster
# baseline) and with the kill schedule, recorded as BENCH_cluster.json so
# fan-out throughput and recovery-path regressions show up in review diffs.
# The chaos CLI already emits JSON; the awk pass just merges the two runs.
# The campaign has no *_BENCHTIME: copying $BENCH_TMP/BENCH_cluster.json
# refreshes the committed record.
CLUSTER_TMP=$(mktemp -d)
go build -o "$CLUSTER_TMP/innetcc" ./cmd/innetcc
"$CLUSTER_TMP/innetcc" -chaos none -chaos-workers 3 -chaos-jobs 8 \
    -chaos-ticks 40 -accesses 1200 -seed 3 > "$CLUSTER_TMP/clean.json"
"$CLUSTER_TMP/innetcc" -chaos 'kill=40000,restart=10,window=2:0' -chaos-workers 3 \
    -chaos-jobs 8 -chaos-ticks 40 -accesses 1200 -seed 3 > "$CLUSTER_TMP/chaos.json"
awk '
    FNR == 1 { f++ }
    /"jobs_per_sec"/ { gsub(/[",]/, ""); jps[f] = $2 }
    /"reassigns"/    { gsub(/[",]/, ""); re[f] = $2 }
    /"resumes"/      { gsub(/[",]/, ""); rs[f] = $2 }
    /"w[0-9]+"/      { gsub(/[",:]/, ""); kills[f] += $2 }
    END {
        if (jps[1] == "" || jps[2] == "") { print "chaos output missing" > "/dev/stderr"; exit 1 }
        printf "{\n"
        printf "  \"benchmark\": \"ClusterChaos\",\n"
        printf "  \"config\": \"3 workers, 8 jobs (8 profiles, alternating engines, 1200 accesses), kill=4%% per worker-tick over 40 ticks\",\n"
        printf "  \"clean_jobs_per_sec\": %s,\n", jps[1]
        printf "  \"chaos_jobs_per_sec\": %s,\n", jps[2]
        printf "  \"chaos_kills\": %d,\n", kills[2]
        printf "  \"chaos_reassigns\": %s,\n", re[2]
        printf "  \"chaos_resumes\": %s,\n", rs[2]
        printf "  \"chaos_slowdown\": %.2f\n", jps[1] / jps[2]
        printf "}\n"
    }' "$CLUSTER_TMP/clean.json" "$CLUSTER_TMP/chaos.json" > "$BENCH_TMP/BENCH_cluster.json"
cat "$BENCH_TMP/BENCH_cluster.json"
bench_diff BENCH_cluster.json "rerun the campaign"
