package exec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from the current build")

// goldenFile pins simulation output across commits: a change that moves
// any value here changed what the simulator computes, not just how fast.
const goldenFile = "testdata/golden.json"

// goldenEntry is one pinned spec: the SHA-256 of the JSON-encoded RunJob
// result and the machine state digest after Build and Run.
type goldenEntry struct {
	Result string `json:"result_sha256"`
	State  string `json:"state_digest"`
}

// goldenJobs is the pinned spec set: both engines on the paper's 4x4 mesh,
// the alternative fabrics, a 64-node mesh, faulty runs, metrics runs with
// the flight recorder (one of them faulty, so route-phase events interleave
// with end-of-cycle drop handling), and one 256-node tree job.
func goldenJobs() []Job {
	withTopo := func(j Job, topo network.TopoSpec, multicast bool) Job {
		j.Config.Topology = topo
		j.Config.Multicast = multicast
		return j
	}
	dropped := testJob("fft", protocol.KindTree, 60)
	dropped.Faults = "drop=2500,timeout=200000,retries=6,backoff=64,probe=2000"
	droppedDir := testJob("bar", protocol.KindDirectory, 60)
	droppedDir.Faults = dropped.Faults
	flight := testJob("wsp", protocol.KindTree, 60)
	flight.Metrics = MetricsSpec{Enabled: true, FlightDump: true}
	flightDropped := dropped
	flightDropped.Metrics = flight.Metrics

	jobs := []Job{
		testJob("fft", protocol.KindDirectory, 60),
		testJob("fft", protocol.KindTree, 60),
		testJob("bar", protocol.KindDirectory, 60),
		testJob("bar", protocol.KindTree, 60),
		withTopo(testJob("wsp", protocol.KindDirectory, 60), network.TorusSpec(4, 4), true),
		withTopo(testJob("wsp", protocol.KindTree, 60), network.TorusSpec(4, 4), true),
		withTopo(testJob("lu", protocol.KindTree, 60), network.RingSpec(16), false),
		withTopo(testJob("ocn", protocol.KindDirectory, 30), network.MeshSpec(8, 8), false),
		withTopo(testJob("ocn", protocol.KindTree, 30), network.MeshSpec(8, 8), false),
		dropped,
		droppedDir,
		flight,
		flightDropped,
		withTopo(testJob("fft", protocol.KindTree, 20), network.MeshSpec(16, 16), false),
	}
	for i := range jobs {
		j := &jobs[i]
		j.Key = fmt.Sprintf("%s/%s/%s/%da", j.Config.Topology, j.Profile.Name, j.Engine, j.Accesses)
		if j.Config.Multicast {
			j.Key += "/multicast"
		}
		if j.Faults != "" {
			j.Key += "/faults"
		}
		if j.Metrics.Enabled {
			j.Key += "/metrics"
		}
	}
	return jobs
}

// goldenOf computes one job's pinned values.
func goldenOf(t *testing.T, j Job) goldenEntry {
	t.Helper()
	res := RunJob(j, RunOptions{Ctx: context.Background()})
	if res.Failed() {
		t.Fatalf("%s: %s", j.Key, res.Err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)

	m, _, errRes := buildAttempt(j, 0, collectorFor(j.Metrics))
	if errRes != nil {
		t.Fatalf("%s: build: %s", j.Key, errRes.Err)
	}
	if err := m.Run(j.maxCycles()); err != nil {
		t.Fatalf("%s: run: %v", j.Key, err)
	}
	return goldenEntry{
		Result: hex.EncodeToString(sum[:]),
		State:  fmt.Sprintf("%016x", m.StateDigest()),
	}
}

// TestGoldenResults is the cross-commit output contract: every pinned
// spec's result hash and end-state digest must match testdata/golden.json
// exactly. Run with -update-golden only when a change is meant to alter
// simulation output, and say so in the change description.
func TestGoldenResults(t *testing.T) {
	got := map[string]goldenEntry{}
	for _, j := range goldenJobs() {
		got[j.Key] = goldenOf(t, j)
	}
	path := filepath.FromSlash(goldenFile)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d specs, test runs %d", len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("%s: not in %s", key, goldenFile)
		case g != w:
			t.Errorf("%s: got %+v, want %+v", key, g, w)
		}
	}
}
