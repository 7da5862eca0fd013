package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"innetcc/internal/experiments"
)

// withMCheckFlags sets the -mcheck-mesh / -mcheck-workers values for one
// test and restores them afterwards.
func withMCheckFlags(t *testing.T, mesh string, workers int) {
	t.Helper()
	oldMesh, oldWorkers := mcheckMesh, mcheckWorkers
	mcheckMesh, mcheckWorkers = mesh, workers
	t.Cleanup(func() { mcheckMesh, mcheckWorkers = oldMesh, oldWorkers })
}

// TestRunMCheckMatchesPaperReference pins `-exp mcheck` at the CLI layer:
// its block must equal the one in the committed paper reference output,
// which the perfbench `paper` correctness check compares every run
// against (it runs with -mcheck-workers 2, which the block prints).
func TestRunMCheckMatchesPaperReference(t *testing.T) {
	ref, err := os.ReadFile("../../perfbench/ref/paper-seed5.txt")
	if err != nil {
		t.Fatal(err)
	}
	refLines := strings.Split(string(ref), "\n")
	start := -1
	for i, l := range refLines {
		if strings.HasPrefix(l, "Section 2.4 ") {
			start = i
		}
	}
	if start < 0 || start+4 > len(refLines) {
		t.Fatal("reference output has no Section 2.4 block")
	}
	want := strings.Join(refLines[start:start+4], "\n") + "\n\n"

	withMCheckFlags(t, "2x2", 2)
	var out bytes.Buffer
	if err := run(&out, "mcheck", experiments.Options{}, "", false); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("-exp mcheck output:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	withMCheckFlags(t, "3by3", 2)
	if err := run(io.Discard, "mcheck", experiments.Options{}, "", false); err == nil ||
		!strings.Contains(err.Error(), "bad -mcheck-mesh") {
		t.Errorf("unparsable -mcheck-mesh: err = %v, want a bad -mcheck-mesh error", err)
	}

	// An unknown name also prints the experiment list to stderr.
	if err := run(io.Discard, "no-such-exp", experiments.Options{}, "", false); err == nil ||
		!strings.Contains(err.Error(), `unknown experiment "no-such-exp"`) {
		t.Errorf("unknown -exp: err = %v, want an unknown experiment error", err)
	}
}

func TestExpFlagsOptions(t *testing.T) {
	defaults := experiments.Options{}.WithDefaults()
	cases := []struct {
		name    string
		flags   expFlags
		want    experiments.Options
		wantErr string
	}{
		{name: "zero flags take the defaults", want: defaults},
		{
			name:  "metrics-out implies metrics",
			flags: expFlags{metricsOut: "m.csv"},
			want:  experiments.Options{Metrics: true}.WithDefaults(),
		},
		{
			name:  "flight-dump implies metrics",
			flags: expFlags{flightDump: true},
			want:  experiments.Options{Metrics: true, FlightDump: true}.WithDefaults(),
		},
		{
			name: "every field carried over",
			flags: expFlags{accesses: 80, accesses64: 30, seed: 7, jobs: 3, retries: 2,
				watchdog: 1000, cacheDir: "c", faults: "drop=2000", topology: "ring:16",
				metrics: true, multicast: true},
			want: experiments.Options{AccessesPerNode: 80, AccessesPerNode64: 30, Seed: 7,
				Jobs: 3, Retries: 2, Watchdog: 1000, CacheDir: "c", Faults: "drop=2000",
				Topology: "ring:16", Metrics: true, Multicast: true},
		},
		{name: "bad faults rejected", flags: expFlags{faults: "drop=lots"}, wantErr: "experiments:"},
		{name: "bad topology rejected", flags: expFlags{topology: "hypercube:4"}, wantErr: "experiments:"},
		{name: "negative retries rejected", flags: expFlags{retries: -1}, wantErr: "Retries"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.flags.options()
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("options = %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestRunExperimentsFlushesCPUProfileOnFailure: a run that fails still
// stops (and so flushes) the CPU profile it started.
func TestRunExperimentsFlushesCPUProfileOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	err := runExperiments(io.Discard, "no-such-exp", expFlags{cpuProfile: path})
	if err == nil {
		t.Fatal("unknown experiment: want an error")
	}
	if fi, statErr := os.Stat(path); statErr != nil || fi.Size() == 0 {
		t.Fatalf("profile after a failed run: %v, %v; want a flushed, non-empty file", fi, statErr)
	}
	// The profiler is free again: a second profiled run can start.
	if err := runExperiments(io.Discard, "no-such-exp", expFlags{cpuProfile: path}); err == nil ||
		strings.Contains(err.Error(), "profiling already in use") {
		t.Fatalf("second profiled run: err = %v, want only the unknown-experiment error", err)
	}
}
