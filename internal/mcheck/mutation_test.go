package mcheck

import (
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/treecc"
)

// Mutation tests: injecting each seeded protocol defect must make the
// checker find a violation or deadlock — evidence that the exhaustive
// search has the power to catch the races the protections close (the same
// role the paper's Murφ model played during its protocol design). The
// table is keyed by treecc.Bug, the same mask the litmus suite
// (internal/litmus) arms on the full engine, so both verification layers
// are proven against the same live faults, not just clean runs.

// mesh2x2 is the paper's Murφ fabric.
var mesh2x2 = network.Mesh2D{W: 2, H: 2}

// mutationTable is shared with scale_test.go; each entry names the program
// that exposes the bug fastest on mesh2x2, and pins the exploration that
// catches it: canonical states discovered and the violation/deadlock split
// (a bug whose signature is a wedged protocol shows as a deadlock rather
// than a safety violation).
var mutationTable = []struct {
	bug  treecc.Bug
	home int
	ops  []Op

	states, violations, deadlocks int
}{
	{
		bug:  treecc.BugDropAckHold,
		home: 0,
		ops:  []Op{{Node: 1, Write: true}, {Node: 2, Write: true}},

		states: 60, violations: 2,
	},
	{
		bug:  treecc.BugAcceptStaleReply,
		home: 0,
		ops:  []Op{{Node: 0, Write: true}, {Node: 3, Write: true}},

		states: 51, violations: 4,
	},
	{
		bug:  treecc.BugDropTdAck,
		home: 0,
		ops:  []Op{{Node: 1, Write: false}, {Node: 2, Write: true}},

		states: 37, deadlocks: 1,
	},
	{
		bug:  treecc.BugEarlyHomeRelease,
		home: 0,
		ops:  []Op{{Node: 1, Write: false}, {Node: 2, Write: true}, {Node: 3, Write: true}},

		states: 385, violations: 3,
	},
	{
		bug:  treecc.BugSkipInvalidate,
		home: 0,
		ops:  []Op{{Node: 1, Write: false}, {Node: 2, Write: true}},

		states: 46, violations: 2,
	},
	{
		bug:  treecc.BugLostWriteback,
		home: 0,
		ops:  []Op{{Node: 1, Write: true}, {Node: 2, Write: false}},

		states: 35, violations: 2,
	},
	{
		bug:  treecc.BugDoubleGrant,
		home: 0,
		ops:  []Op{{Node: 1, Write: true}, {Node: 2, Write: true}},

		states: 68, violations: 8,
	},
}

// TestMutationTableCoversEveryBug fails when a treecc.Bug has no program in
// the seeded-bug table, so a new engine defect cannot skip the model layer.
func TestMutationTableCoversEveryBug(t *testing.T) {
	for _, b := range treecc.AllBugs() {
		n := 0
		for _, tc := range mutationTable {
			if tc.bug == b {
				n++
			}
		}
		if n != 1 {
			t.Errorf("bug %s has %d mutation-table entries, want 1", b, n)
		}
	}
}

func TestCheckerCatchesSeededMutations(t *testing.T) {
	for _, tc := range mutationTable {
		t.Run(tc.bug.String(), func(t *testing.T) {
			c := New(mesh2x2, tc.home, tc.ops)
			c.Bugs = tc.bug
			res := c.Run()
			if res.Truncated {
				t.Fatalf("state space truncated at %d states", res.States)
			}
			if len(res.Violations)+len(res.Deadlocks) == 0 {
				t.Fatalf("bug %s went undetected: %v", tc.bug, res)
			}
			if res.States != tc.states || len(res.Violations) != tc.violations || len(res.Deadlocks) != tc.deadlocks {
				t.Errorf("exploration drifted: %v, want states=%d violations=%d deadlocks=%d",
					res, tc.states, tc.violations, tc.deadlocks)
			}
			t.Logf("detected (%d violations, %d deadlocks): %v", len(res.Violations), len(res.Deadlocks), res)
			if len(res.Violations) > 0 {
				t.Logf("first violation: %s", res.Violations[0])
			}
			if len(res.Deadlocks) > 0 {
				t.Logf("first deadlock: %s", res.Deadlocks[0])
			}
		})
	}
}

// TestCleanModelPassesMutationPrograms pins the other half of the mutation
// argument: the exact programs that expose each bug pass cleanly when the
// bug is absent, so detection is attributable to the mutation alone.
func TestCleanModelPassesMutationPrograms(t *testing.T) {
	for _, tc := range mutationTable {
		t.Run(tc.bug.String(), func(t *testing.T) {
			c := New(mesh2x2, tc.home, tc.ops)
			res := c.Run()
			if len(res.Violations)+len(res.Deadlocks) > 0 {
				t.Fatalf("clean run of %s program failed: %v\n%v\n%v", tc.bug, res, res.Violations, res.Deadlocks)
			}
			if res.Terminals == 0 {
				t.Fatal("no terminal state")
			}
		})
	}
}

func TestThreeWriters(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	c := New(mesh2x2, 1, []Op{{Node: 0, Write: true}, {Node: 2, Write: true}, {Node: 3, Write: true}})
	res := c.Run()
	t.Logf("%v", res)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, d := range res.Deadlocks {
		t.Errorf("deadlock: %s", d)
	}
	if res.Terminals == 0 {
		t.Error("no terminal state")
	}
}

func TestMixedFourOpsEveryHome(t *testing.T) {
	if testing.Short() {
		t.Skip("large state space")
	}
	n := 4
	for home := 0; home < n; home++ {
		c := New(mesh2x2, home, []Op{
			{Node: (home + 1) % n, Write: false},
			{Node: (home + 2) % n, Write: true},
			{Node: (home + 3) % n, Write: false},
		})
		res := c.Run()
		if len(res.Violations)+len(res.Deadlocks) > 0 {
			t.Fatalf("home=%d: %v\n%v\n%v", home, res, res.Violations, res.Deadlocks)
		}
	}
}
