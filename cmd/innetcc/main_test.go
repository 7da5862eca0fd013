package main

import (
	"bytes"
	"io"
	"os"
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
