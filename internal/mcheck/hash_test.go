package mcheck

import (
	"runtime"
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
)

// The old visited set keyed states by a freshly built string — one
// allocation plus a full state copy per *generated* state, i.e. per
// transition. The canonical hash replaces that with an allocation-free
// fold; the only per-state allocations left in the BFS are the successor
// clone itself, which these tests pin.

// midState builds a state with live traffic so the hash walks non-empty
// queues.
func midState(c *Checker) *state {
	s := c.emptyState()
	home := &s.lines[c.Home]
	home.Valid, home.IsRoot, home.LocalValid = true, true, true
	s.data[c.Home] = dShared
	send(s, c.Home, network.South, msg{Type: protocol.RdReply, Op: 0, Ver: 1})
	send(s, 1, network.West, msg{Type: protocol.WrReq, Op: 1})
	s.nicq[c.Home] = append(s.nicq[c.Home], msg{Type: protocol.WrReq, Op: 2})
	s.homeq = append(s.homeq, msg{Type: protocol.RdReq, Op: 0})
	s.pend = true
	return s
}

func TestCanonicalHashZeroAlloc(t *testing.T) {
	c := New(mesh3x3, 4, []Op{{Node: 1}, {Node: 7}, {Node: 3, Write: true}})
	c.nodes = 9
	c.buildGroup()
	if len(c.group) < 2 {
		t.Fatalf("expected a non-trivial group, got %d elements", len(c.group))
	}
	s := midState(c)
	if a := testing.AllocsPerRun(100, func() { c.canonicalHash(s) }); a != 0 {
		t.Errorf("canonicalHash allocates %.1f times per state", a)
	}
}

func TestCanonicalHashDistinguishesStates(t *testing.T) {
	c := New(mesh2x2, 0, []Op{{Node: 1}, {Node: 2, Write: true}, {Node: 3, Write: true}})
	c.nodes = 4
	c.buildGroup()
	s := midState(c)
	h1 := c.canonicalHash(s)
	s2 := s.clone()
	s2.dver[0] = 3
	if c.canonicalHash(s2) == h1 {
		t.Error("version change did not change the hash")
	}
	s3 := s.clone()
	(*s3.channel(0, network.South))[0].Ver = 2
	if c.canonicalHash(s3) == h1 {
		t.Error("in-flight message change did not change the hash")
	}
}

// TestCanonicalHashFoldsSymmetricStates applies a mesh flip + op swap by
// hand and checks both states land on the same canonical hash.
func TestCanonicalHashFoldsSymmetricStates(t *testing.T) {
	// 3×3, home center; ops: reads at 1 and 7 (swapped by the Y flip),
	// write at 3 (fixed by it).
	c := New(mesh3x3, 4, []Op{{Node: 1}, {Node: 7}, {Node: 3, Write: true}})
	c.nodes = 9
	c.buildGroup()
	empty := c.emptyState
	// State a: op 1 (the read at node 7) has its request in flight
	// northward. Its Y-flip image is op 0 (the read at node 1) heading
	// south — exactly state b.
	a := empty()
	a.ops[1].Phase = opInFlight
	send(a, 7, network.North, msg{Type: protocol.RdReq, Op: 1})
	b := empty()
	b.ops[0].Phase = opInFlight
	send(b, 1, network.South, msg{Type: protocol.RdReq, Op: 0})
	if c.canonicalHash(a) != c.canonicalHash(b) {
		t.Error("flip-symmetric states hash differently")
	}
	// And the pair must differ from the state with neither request.
	if c.canonicalHash(a) == c.canonicalHash(empty()) {
		t.Error("distinct states collided")
	}
}

// BenchmarkCanonicalHash measures the visited-set fold on a 3×3 state
// with live queues; b.ReportAllocs pins the O(1)-per-state property (it
// reports exactly 0 allocs/op, versus one string build per state before).
func BenchmarkCanonicalHash(b *testing.B) {
	c := New(mesh3x3, 4, []Op{{Node: 1}, {Node: 7}, {Node: 3, Write: true}})
	c.nodes = 9
	c.buildGroup()
	s := midState(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.canonicalHash(s)
	}
}

// BenchmarkBFSPerState runs a full exploration and reports allocations per
// generated state. The bound is a small constant (the successor clone's
// slice headers) independent of queue depth and mesh size — the property
// the string-keyed implementation lacked.
func BenchmarkBFSPerState(b *testing.B) {
	var states int
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		home, ops := DefaultProgram()
		c := New(mesh2x2, home, ops)
		c.TraceEdges = false
		res := c.Run()
		states += res.Transitions
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if states > 0 {
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(states), "allocs/state")
	}
}
