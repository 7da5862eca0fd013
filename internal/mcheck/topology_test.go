package mcheck

import (
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/treecc"
)

func checkTopo(t *testing.T, topo network.Topology, home int, ops []Op) Result {
	t.Helper()
	c := New(topo, home, ops)
	res := c.Run()
	t.Logf("%s: %v", topo.Spec(), res)
	for _, v := range res.Violations {
		t.Errorf("%s violation: %s", topo.Spec(), v)
	}
	for _, d := range res.Deadlocks {
		t.Errorf("%s deadlock: %s", topo.Spec(), d)
	}
	if res.Terminals == 0 {
		t.Errorf("%s: no terminal state reached", topo.Spec())
	}
	return res
}

// TestFabricsCleanProtocol runs the read/write race programs over every
// fabric kind: wraparound routes (torus) and two-port routers (ring)
// exercise link patterns the open mesh cannot produce.
func TestFabricsCleanProtocol(t *testing.T) {
	fabrics := []network.Topology{
		network.Torus2D{W: 2, H: 2},
		network.Torus2D{W: 3, H: 2},
		network.Ring{N: 4},
		network.Ring{N: 5},
	}
	for _, topo := range fabrics {
		checkTopo(t, topo, 0, []Op{{Node: 1, Write: false}, {Node: 2, Write: true}})
		checkTopo(t, topo, 1, []Op{{Node: 0, Write: true}, {Node: 3, Write: true}})
	}
}

// TestFabricsPaperProgram explores the paper's Murφ bound (two reads, two
// writes) on a 4-node ring and torus.
func TestFabricsPaperProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("full exploration is slow")
	}
	_, ops := DefaultProgram()
	checkTopo(t, network.Ring{N: 4}, 0, ops)
	checkTopo(t, network.Torus2D{W: 2, H: 2}, 0, ops)
}

// TestFabricsCatchMutations proves the checker still detects seeded
// protocol bugs when routing over non-mesh fabrics (so the fabric port is
// not silently weakening the invariants).
func TestFabricsCatchMutations(t *testing.T) {
	ops := []Op{{Node: 1, Write: false}, {Node: 2, Write: true}, {Node: 3, Write: true}}
	for _, topo := range []network.Topology{network.Ring{N: 4}, network.Torus2D{W: 2, H: 2}} {
		for _, bug := range []treecc.Bug{treecc.BugDropTdAck, treecc.BugSkipInvalidate, treecc.BugLostWriteback, treecc.BugDoubleGrant} {
			c := New(topo, 0, ops)
			c.Bugs = bug
			res := c.Run()
			if len(res.Violations) == 0 && len(res.Deadlocks) == 0 {
				t.Errorf("%s: bug %s went undetected (%d states)", topo.Spec(), bug, res.States)
			}
		}
	}
}

// TestFabricSymmetryFallback pins the graceful degradation: a ring has no
// usable axis flip, so the group is the op-permutation subgroup, and
// enabling symmetry must not change what is explored.
func TestFabricSymmetryFallback(t *testing.T) {
	ops := []Op{{Node: 1, Write: false}, {Node: 3, Write: false}, {Node: 2, Write: true}}
	run := func(sym bool) Result {
		c := New(network.Ring{N: 4}, 0, ops)
		c.Symmetry = sym
		return c.Run()
	}
	a, b := run(true), run(false)
	if len(a.Violations)+len(a.Deadlocks)+len(b.Violations)+len(b.Deadlocks) > 0 {
		t.Fatalf("clean program failed: %v %v", a.Violations, b.Violations)
	}
	// The two interchangeable reads give a 2-element op group: symmetry on
	// must not *grow* the canonical state count, and both runs must agree
	// on the transition structure they explored.
	if a.States > b.States {
		t.Errorf("symmetry on explored more states (%d) than off (%d)", a.States, b.States)
	}
	if a.Terminals == 0 || b.Terminals == 0 {
		t.Error("no terminal states")
	}
}
