// Package mcheck is the repository's stand-in for the paper's Murφ
// verification (Section 2.4): an explicit-state model checker that
// exhaustively explores a reduced model of the in-network MSI protocol and
// checks coherence and sequential-consistency invariants in every reachable
// state.
//
// The reduced model mirrors the paper's: a small fabric, a single cache
// line, a bounded set of concurrent operations ("multiple concurrent reads
// and up to two concurrent writes"), message-type-accurate protocol
// transitions (RD_REQ, RD_REPLY, WR_REQ, WR_REPLY, TEARDOWN, TD_ACK), FIFO
// channels between adjacent routers, and atomic above-network data
// accesses. Tree caches are unbounded, so capacity conflicts and evictions
// are outside the backbone being checked, exactly as in the paper's Murφ
// spec; a reply stalled on a line mid-teardown reverts at once where the
// engine would time out and revert.
//
// The fabric (any network.Topology — mesh, torus or ring) and the
// concurrent op program are parameters of Checker, states are deduplicated
// through a 64-bit canonical hash taken as the minimum over the model's
// symmetry group (mesh axis flips that fix the home node, composed with
// permutations of interchangeable ops; on fabrics without a usable flip the
// group gracefully shrinks to the op-permutation subgroup), and the BFS can
// fan a level out across worker goroutines. Together these push exhaustive
// exploration from the paper's 2×2 bound to 3×3 meshes with several
// concurrent ops.
//
// The model has no protocol rules of its own. Every tree-line decision is a
// call to internal/treecc's kernel functions, the ones the simulator's
// Route and Eject wrap with timing; transitions.go renders the returned
// treecc.Step as channel sends and NIC-queue entries. Its lines are
// treecc.TreeLine values, its messages carry protocol.MsgType, its ports
// are network.Dir, and its seeded defects are treecc.Bug bits, so a bug the
// litmus fuzzer arms on the engine is the same bug the checker injects
// here, and terminal trees pass the engine tests' treecc.CheckTree.
package mcheck

import (
	"fmt"
	"sort"
	"sync"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/treecc"
)

// msg is a protocol message in flight. Op identifies the operation it
// serves (-1 for teardowns/acks). Ver is the data version carried by read
// replies. Root marks fresh-tree replies (the simulator's
// RequesterIsRoot). Built mirrors the simulator's BuiltLast, and doubles
// as the unlink flag on acks.
type msg struct {
	Type  protocol.MsgType
	Op    int8
	Ver   int8
	Root  bool
	Built bool
	// HomeServe marks a request that owns the home-serve window (the
	// model's rendering of the simulator's Msg.HomeServe).
	HomeServe bool
}

// line is one node's tree cache entry for the model's single address: the
// engine's TreeLine plus the tag match the engine's set lookup answers.
type line struct {
	treecc.TreeLine
	Valid bool
}

// tree is the line as the kernel takes it: nil when the node holds none.
func (l *line) tree() *treecc.TreeLine {
	if !l.Valid {
		return nil
	}
	return &l.TreeLine
}

// emptyLine is a node that holds no tree for the address.
var emptyLine = line{TreeLine: treecc.TreeLine{RootDir: network.DirNone}}

// Data cache states.
const (
	dInvalid = iota
	dShared
	dModified
)

// Op phases.
const (
	opNotIssued = iota
	opInFlight
	opDone
)

// Op is one memory operation of the model's concurrent program.
type Op struct {
	Node  int
	Write bool
}

// opState tracks an operation's progress and, for reads, the version it
// sampled.
type opState struct {
	Phase   int8
	Sampled int8
}

// state is one global protocol state. Channels are FIFO per directed link
// (flattened node*network.MaxDegree+port); nicq are the above-network
// service queues; homeq holds requests queued at the home during teardown;
// pend marks the home-serve serialization window.
type state struct {
	lines []line
	data  []int8 // dInvalid/dShared/dModified
	dver  []int8
	memV  int8
	wrote int8 // committed writes so far
	ops   []opState
	chans [][]msg // outgoing FIFO, indexed node*network.MaxDegree+port
	nicq  [][]msg
	homeq []msg // queued while the tree is being torn down
	pendq []msg // queued while a home serve is in flight
	pend  bool
}

func (s *state) clone() *state {
	c := &state{
		lines: append([]line(nil), s.lines...),
		data:  append([]int8(nil), s.data...),
		dver:  append([]int8(nil), s.dver...),
		memV:  s.memV,
		wrote: s.wrote,
		ops:   append([]opState(nil), s.ops...),
		chans: make([][]msg, len(s.chans)),
		nicq:  make([][]msg, len(s.nicq)),
		homeq: append([]msg(nil), s.homeq...),
		pendq: append([]msg(nil), s.pendq...),
		pend:  s.pend,
	}
	for i, q := range s.chans {
		if len(q) > 0 {
			c.chans[i] = append([]msg(nil), q...)
		}
	}
	for i, q := range s.nicq {
		if len(q) > 0 {
			c.nicq[i] = append([]msg(nil), q...)
		}
	}
	return c
}

// Result summarizes a model-checking run.
type Result struct {
	// States counts distinct canonical states discovered (after symmetry
	// reduction).
	States int
	// Explored counts states actually expanded (dequeued and given to the
	// transition relation); it trails States only when the run stops early.
	Explored int
	// Transitions counts generated successor states, including those that
	// fold into an already-visited canonical class.
	Transitions int
	// PeakFrontier is the largest BFS level encountered.
	PeakFrontier int
	// Truncated reports that MaxStates stopped the search before the
	// frontier drained; the verdict is then only partial.
	Truncated bool
	// Violations lists invariant failures (empty on success).
	Violations []string
	// Deadlocks lists non-terminal states with no enabled transition.
	Deadlocks []string
	// Terminals counts fully drained end states.
	Terminals int
}

// Checker runs the exploration.
type Checker struct {
	// Topo is the fabric the model routes over: any network.Topology,
	// torus wraparound routes and ring two-port routers included, under
	// the same transition relation.
	Topo      network.Topology
	Home      int
	Ops       []Op
	MaxStates int

	// Workers fans each BFS level out across this many goroutines
	// (<=1 explores serially). Results are merged in deterministic
	// frontier order, so state/transition counts are identical at any
	// worker count.
	Workers int
	// Symmetry canonicalizes states under the model's automorphism group
	// before visited-set lookup. Safe to leave on: the group is the
	// identity when the configuration has no usable symmetry.
	Symmetry bool
	// TraceEdges keeps a parent edge per canonical state so violations
	// and deadlocks carry counterexample traces. Costs memory
	// proportional to the state count; switch off for large runs.
	TraceEdges bool

	// Bugs injects the selected seeded protocol defects into the model
	// (see site for BugAcceptStaleReply); zero is the clean protocol.
	Bugs treecc.Bug

	nodes      int
	group      []symElem
	violations []string
	deadlocks  []string
}

func (c *Checker) has(b treecc.Bug) bool { return c.Bugs&b != 0 }

// New returns a checker for the given concurrent program on topo; home is
// the line's home node. Symmetry reduction and counterexample traces are
// on by default; Workers defaults to serial.
func New(topo network.Topology, home int, ops []Op) *Checker {
	return &Checker{
		Topo:       topo,
		Home:       home,
		Ops:        ops,
		MaxStates:  2_000_000,
		Workers:    1,
		Symmetry:   true,
		TraceEdges: true,
	}
}

// DefaultProgram mirrors the paper's Murφ bound: concurrent reads on two
// nodes and two concurrent writes.
func DefaultProgram() (home int, ops []Op) {
	return 0, []Op{
		{Node: 1, Write: false},
		{Node: 2, Write: false},
		{Node: 3, Write: true},
		{Node: 1, Write: true},
	}
}

// fstate is a frontier entry: the state plus its canonical hash (the
// visited-set identity, reused for trace parent edges).
type fstate struct {
	s *state
	h uint64
}

// edge is one parent link of the exploration DAG, kept when TraceEdges is
// on so counterexamples can be replayed as a label sequence.
type edge struct {
	parent uint64
	label  string
}

// candidate is a successor produced by a worker, pending the global
// visited-set merge.
type candidate struct {
	s      *state
	h      uint64
	parent uint64
	label  string
}

// workerOut collects one worker's share of a BFS level.
type workerOut struct {
	cand        []candidate
	transitions int
	explored    int
	terminals   int
	violations  []string
	deadlocks   []string
}

const (
	maxViolations = 10
	maxDeadlocks  = 2
)

func (c *Checker) fail(format string, args ...interface{}) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// Run explores the full state space with a level-synchronous BFS and
// returns the result. With Workers > 1 each level is expanded in
// parallel; the merge into the visited set happens serially in frontier
// order, so the result is independent of the worker count.
func (c *Checker) Run() Result {
	c.nodes = c.Topo.Nodes()
	if c.nodes < 1 {
		panic("mcheck: empty fabric")
	}
	if c.Home < 0 || c.Home >= c.nodes {
		panic("mcheck: home outside fabric")
	}
	for _, op := range c.Ops {
		if op.Node < 0 || op.Node >= c.nodes {
			panic("mcheck: op node outside fabric")
		}
	}
	c.buildGroup()

	init := c.emptyState()
	visited := newHashSet(1 << 14)
	h0 := c.canonicalHash(init)
	visited.Add(h0)
	var parents map[uint64]edge
	if c.TraceEdges {
		parents = map[uint64]edge{}
	}

	res := Result{States: 1}
	frontier := []fstate{{init, h0}}
	for len(frontier) > 0 && len(c.violations) == 0 && !res.Truncated {
		if len(frontier) > res.PeakFrontier {
			res.PeakFrontier = len(frontier)
		}
		w := min(max(c.Workers, 1), len(frontier))
		outs := make([]workerOut, w)
		if w == 1 {
			outs[0] = c.expandChunk(frontier, visited, parents)
		} else {
			var wg sync.WaitGroup
			per := (len(frontier) + w - 1) / w
			for i := 0; i < w; i++ {
				lo := min(i*per, len(frontier))
				hi := min(lo+per, len(frontier))
				wg.Add(1)
				go func(i, lo, hi int) {
					defer wg.Done()
					outs[i] = c.expandChunk(frontier[lo:hi], visited, parents)
				}(i, lo, hi)
			}
			wg.Wait()
		}

		var next []fstate
		for i := range outs {
			o := &outs[i]
			res.Transitions += o.transitions
			res.Explored += o.explored
			res.Terminals += o.terminals
			for _, v := range o.violations {
				if len(c.violations) < maxViolations {
					c.violations = append(c.violations, v)
				}
			}
			for _, d := range o.deadlocks {
				if len(c.deadlocks) < maxDeadlocks {
					c.deadlocks = append(c.deadlocks, d)
				}
			}
			for _, cd := range o.cand {
				if res.Truncated || !visited.Add(cd.h) {
					continue
				}
				res.States++
				if parents != nil {
					parents[cd.h] = edge{parent: cd.parent, label: cd.label}
				}
				next = append(next, fstate{cd.s, cd.h})
				if res.States >= c.MaxStates {
					res.Truncated = true
				}
			}
		}
		frontier = next
	}
	res.Violations = c.violations
	res.Deadlocks = c.deadlocks
	return res
}

// expandChunk runs the transition relation over one slice of the frontier.
// It works on a shallow copy of the Checker so invariant failures collect
// into a worker-local slice; visited and parents are only read (the merge
// phase is the sole writer, between levels).
func (c *Checker) expandChunk(chunk []fstate, visited *hashSet, parents map[uint64]edge) workerOut {
	wc := *c
	wc.violations = nil
	wc.deadlocks = nil
	var out workerOut
	trace := func(h uint64) string {
		if parents == nil {
			return "(traces disabled)"
		}
		var labels []string
		for {
			e, ok := parents[h]
			if !ok {
				break
			}
			labels = append(labels, e.label)
			h = e.parent
		}
		s := ""
		for i := len(labels) - 1; i >= 0; i-- {
			s += labels[i] + "; "
		}
		return s
	}
	// traceSince appends the trace to h to every violation recorded
	// from index pre on.
	traceSince := func(pre int, h uint64) {
		for i := pre; i < len(wc.violations); i++ {
			wc.violations[i] += "\n  trace: " + trace(h)
		}
	}
	for _, f := range chunk {
		out.explored++
		pre := len(wc.violations)
		succs := wc.successors(f.s)
		traceSince(pre, f.h)
		if len(succs) == 0 {
			if wc.isTerminal(f.s) {
				out.terminals++
				pre = len(wc.violations)
				wc.checkTerminal(f.s)
				traceSince(pre, f.h)
			} else if len(wc.deadlocks) < maxDeadlocks {
				wc.deadlocks = append(wc.deadlocks, wc.describe(f.s)+"\n  trace: "+trace(f.h))
			}
			continue
		}
		for _, ns := range succs {
			out.transitions++
			pre := len(wc.violations)
			wc.checkInvariants(ns.s)
			if len(wc.violations) > pre {
				wc.violations[len(wc.violations)-1] += "\n  trace: " + trace(f.h) + ns.label
			}
			h := wc.canonicalHash(ns.s)
			if visited.Contains(h) {
				continue
			}
			out.cand = append(out.cand, candidate{s: ns.s, h: h, parent: f.h, label: ns.label})
		}
	}
	out.violations = wc.violations
	out.deadlocks = wc.deadlocks
	return out
}

// emptyState is the initial state: no trees, no copies, nothing issued.
// Channel arrays stay network.MaxDegree wide on every fabric; ports a
// topology does not wire (a ring's slots 2 and 3) simply never carry
// messages, so the hash layout is degree-independent.
func (c *Checker) emptyState() *state {
	s := &state{
		lines: make([]line, c.nodes),
		data:  make([]int8, c.nodes),
		dver:  make([]int8, c.nodes),
		ops:   make([]opState, len(c.Ops)),
		chans: make([][]msg, c.nodes*network.MaxDegree),
		nicq:  make([][]msg, c.nodes),
	}
	for n := range s.lines {
		s.lines[n] = emptyLine
	}
	return s
}

func (c *Checker) isTerminal(s *state) bool {
	for _, o := range s.ops {
		if o.Phase != opDone {
			return false
		}
	}
	for _, q := range s.chans {
		if len(q) > 0 {
			return false
		}
	}
	for _, q := range s.nicq {
		if len(q) > 0 {
			return false
		}
	}
	return len(s.homeq) == 0 && len(s.pendq) == 0 && !s.pend
}

func (c *Checker) describe(s *state) string {
	out := ""
	for n := 0; n < c.nodes; n++ {
		t := &s.lines[n]
		if t.Valid {
			out += fmt.Sprintf("n%d{links=%v root=%v isRoot=%v touched=%v lv=%v} ", n, t.Links, t.RootDir, t.IsRoot, t.Touched, t.LocalValid)
		}
	}
	var msgs []string
	for n := 0; n < c.nodes; n++ {
		for d := network.Dir(0); d < network.MaxDegree; d++ {
			for _, m := range *s.channel(n, d) {
				msgs = append(msgs, fmt.Sprintf("%v@%d->%d", m.Type, n, d))
			}
		}
		for _, m := range s.nicq[n] {
			msgs = append(msgs, fmt.Sprintf("nic%d:%v", n, m.Type))
		}
	}
	sort.Strings(msgs)
	return out + fmt.Sprint(msgs, " homeq=", len(s.homeq), " pend=", s.pend)
}
