package mcheck

import (
	"fmt"

	"innetcc/internal/treecc"
)

// Invariants checked in every reachable state, following the paper's Murφ
// rules ("write operations to the same memory address must be observed in
// the same order by all the processor nodes", plus MSI coherence):
//
//  1. at most one Modified copy exists;
//  2. a Modified copy excludes every other valid copy (single-writer);
//  3. with no Modified copy in the system, every Shared copy holds the
//     memory-current version (no stale survivors);
//  4. version counters are sane (no copy newer than the commit counter).
//
// All conditions are invariant under the symmetry group of symmetry.go
// (they never name a specific non-home node), so checking them on each
// concrete successor while deduplicating canonically is sound.
func (c *Checker) checkInvariants(s *state) {
	mCount, mNode := 0, -1
	for n := 0; n < c.nodes; n++ {
		if s.data[n] == dModified {
			mCount++
			mNode = n
		}
		if s.dver[n] > s.wrote {
			c.fail("node %d holds version %d beyond commit counter %d", n, s.dver[n], s.wrote)
		}
	}
	if mCount > 1 {
		c.fail("%d Modified copies coexist", mCount)
	}
	if mCount == 1 {
		for n := 0; n < c.nodes; n++ {
			if n != mNode && s.data[n] != dInvalid {
				c.fail("node %d holds a copy while node %d is Modified: %s", n, mNode, c.describe(s))
			}
		}
	} else {
		for n := 0; n < c.nodes; n++ {
			if s.data[n] == dShared && s.dver[n] != s.memV {
				c.fail("node %d Shared copy v%d is stale (memory v%d): %s", n, s.dver[n], s.memV, c.describe(s))
			}
		}
	}
	if s.memV > s.wrote {
		c.fail("memory version %d beyond commit counter %d", s.memV, s.wrote)
	}
}

// checkSoleCopy runs at a write commit: Requirement of MSI — no other node
// may hold a valid copy at the serialization point.
func (c *Checker) checkSoleCopy(s *state, writer int) {
	for n := 0; n < c.nodes; n++ {
		if n != writer && s.data[n] != dInvalid {
			c.fail("write commit at n%d while n%d holds a copy: %s", writer, n, c.describe(s))
		}
	}
}

// checkLocalRead runs at a local cache hit: the copy must be current.
func (c *Checker) checkLocalRead(s *state, node int) {
	if s.data[node] == dShared && s.dver[node] != s.memV {
		// With an M copy elsewhere the M-excludes-S invariant already
		// fired; here memory is the reference.
		c.fail("local read at n%d observed stale v%d (memory v%d)", node, s.dver[node], s.memV)
	}
}

// checkTerminal validates fully drained end states: the surviving virtual
// tree (if any) must be structurally sound, all data copies anchored, and
// the latest committed write must survive in memory or a cache (the
// data-value oracle — a lost writeback leaves every structural invariant
// intact but silently rolls the line back).
func (c *Checker) checkTerminal(s *state) {
	for _, p := range treecc.CheckTree(c.Topo, c.Home, c.nodes, func(n int) (*treecc.TreeLine, bool) {
		return s.lines[n].tree(), s.lines[n].Valid
	}) {
		c.fail("terminal: %s: %s", p, c.describe(s))
	}
	for n := 0; n < c.nodes; n++ {
		t := &s.lines[n]
		if !t.Valid && s.data[n] != dInvalid && n != c.Home {
			c.fail("terminal: n%d holds data with no tree line: %s", n, c.describe(s))
		}
		if t.Valid && t.LocalValid != (s.data[n] != dInvalid) {
			c.fail("terminal: n%d LocalValid=%v but data state %d", n, t.LocalValid, s.data[n])
		}
	}
	// Data-value oracle: the newest committed version must be resident in
	// memory or some cache once everything drains.
	maxv := s.memV
	for n := 0; n < c.nodes; n++ {
		if s.data[n] != dInvalid && s.dver[n] > maxv {
			maxv = s.dver[n]
		}
	}
	if maxv != s.wrote {
		c.fail("terminal: committed version %d lost (newest surviving v%d): %s", s.wrote, maxv, c.describe(s))
	}
	// Every read must have sampled some committed version (0 = initial
	// memory is also legal).
	for i, o := range s.ops {
		if !c.Ops[i].Write && o.Sampled > s.wrote {
			c.fail("terminal: read %d sampled impossible version %d", i, o.Sampled)
		}
	}
}

// String renders a result for logs.
func (r Result) String() string {
	return fmt.Sprintf("states=%d transitions=%d explored=%d peak_frontier=%d terminals=%d violations=%d deadlocks=%d truncated=%v",
		r.States, r.Transitions, r.Explored, r.PeakFrontier, r.Terminals, len(r.Violations), len(r.Deadlocks), r.Truncated)
}
