package exec

import (
	"testing"

	"innetcc/internal/metrics"
	"innetcc/internal/protocol"
)

// TestFlightRecorderCapturesDeadlockRecovery forces the tree protocol's
// timeout/teardown/backoff recovery path — a direct-mapped, nearly
// entryless tree cache under write-heavy sharing deadlocks reliably — and
// checks the flight recorder tells the story in order: an abort event,
// a later home-node backoff for the same line, and the teardown events the
// recovery rode on, all with non-decreasing cycle stamps.
func TestFlightRecorderCapturesDeadlockRecovery(t *testing.T) {
	job := testJob("wsp", protocol.KindTree, 150)
	job.Config.TreeEntries, job.Config.TreeWays = 4, 1
	job.Config.TimeoutCycles = 15
	job.Metrics = MetricsSpec{Enabled: true, FlightDump: true, FlightSize: 1 << 17}

	var res Result
	found := false
	for seed := uint64(42); seed < 52; seed++ {
		job.SuiteSeed = seed
		res = RunJob(job, RunOptions{})
		if res.Failed() {
			t.Fatalf("seed %d: %s", seed, res.Err)
		}
		if res.Counter("tree.deadlock_aborts") > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no seed produced a deadlock abort; tighten the config")
	}
	m := res.Metrics
	if m == nil || len(m.Flight) == 0 {
		t.Fatal("flight ring empty on a FlightDump job")
	}
	if m.FlightTotal < uint64(len(m.Flight)) {
		t.Fatalf("FlightTotal %d < retained %d", m.FlightTotal, len(m.Flight))
	}

	last := int64(-1)
	counts := map[metrics.EventKind]int{}
	recovered := false
	for i, ev := range m.Flight {
		if ev.Cycle < last {
			t.Fatalf("flight[%d] cycle %d precedes flight[%d-1] cycle %d", i, ev.Cycle, i, last)
		}
		last = ev.Cycle
		counts[ev.Kind]++
		// The recovery sequence: after this abort, the aborted request
		// must reach its home node's backoff queue for the same line.
		if ev.Kind == metrics.EvDeadlockAbort && !recovered {
			for _, later := range m.Flight[i+1:] {
				if later.Kind == metrics.EvBackoff && later.Addr == ev.Addr {
					recovered = true
					break
				}
			}
		}
	}
	if counts[metrics.EvDeadlockAbort] == 0 {
		t.Error("deadlock aborts counted but no EvDeadlockAbort in the flight ring")
	}
	if !recovered {
		t.Error("no EvDeadlockAbort was followed by an EvBackoff for the same line")
	}
	for _, kind := range []metrics.EventKind{metrics.EvTeardown, metrics.EvTeardownComplete} {
		if counts[kind] == 0 {
			t.Errorf("recovery ran but the ring holds no %v events", kind)
		}
	}
	if counts[metrics.EvInject] == 0 || counts[metrics.EvComplete] == 0 {
		t.Error("ring is missing the baseline inject/complete traffic")
	}
}
