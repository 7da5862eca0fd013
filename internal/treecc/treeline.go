// Package treecc implements the paper's contribution: in-network cache
// coherence. Coherence directories move out of the nodes and into the
// routers as virtual trees, one per cached line, stored in per-router
// virtual tree caches. Requests routed toward the home node are steered
// in-transit toward nearby sharers; writes tear trees down in-transit; tree
// construction, teardown, acknowledgment collapse, proactive eviction,
// victim caching and timeout-based deadlock recovery all follow Section 2
// of the paper (protocol kernel in Table 1, state machines in Figure 3).
package treecc

import (
	"fmt"

	"innetcc/internal/network"
)

// TreeLine is one virtual tree cache entry, encoding exactly the fields of
// the paper's Figure 4: four virtual-link bits (N, S, E, W), the direction
// of the link leading to the root, a busy bit (home only, represented by
// Touched at the home node), an outstanding-request bit and a bit recording
// whether the local node holds valid data.
type TreeLine struct {
	// Links marks which physical links are virtual tree links, indexed by
	// output port. Sized for the largest fabric degree so a line's
	// footprint is fabric-independent; ports beyond the running topology's
	// degree stay false.
	Links [network.MaxDegree]bool

	// RootDir is the link leading toward the root node; meaningless at
	// the root itself (IsRoot set). The paper encodes this in two bits
	// plus the implicit root case.
	RootDir network.Dir
	IsRoot  bool

	// Touched marks a line whose tree is being torn down (the paper's
	// third tree-cache state; the home node's touched line is its busy
	// bit).
	Touched bool

	// LocalValid records that the local node's data cache holds a valid
	// copy of the line.
	LocalValid bool

	// OutstandingReq mirrors the paper's outstanding-request bit; the
	// requesting node sets it between request and reply.
	OutstandingReq bool

	// Gen is a monotonically increasing generation stamp assigned each
	// time the line is (re)initialized for a tree; deferred
	// above-network work (replica installs) validates against it so a
	// line recycled by a newer tree is never written with stale data.
	Gen uint64
}

// LinkCount returns the number of virtual links at this node.
func (t *TreeLine) LinkCount() int {
	n := 0
	for _, b := range t.Links {
		if b {
			n++
		}
	}
	return n
}

// OnlyLink returns the single remaining link direction; it must only be
// called when LinkCount() == 1.
func (t *TreeLine) OnlyLink() network.Dir {
	for d, b := range t.Links {
		if b {
			return network.Dir(d)
		}
	}
	return network.DirNone
}

// CloserLink looks for a tree link of this line, held at node n of topo,
// whose neighbor is one hop closer to target: a grafting reply follows it
// instead of extending the tree. The engine's reply kernel and the model
// checker (internal/mcheck) both take this step here. Ports are tried in
// Dir order; ports beyond topo's degree are never linked.
func (t *TreeLine) CloserLink(topo network.Topology, n, target int) (network.Dir, bool) {
	cur := topo.Dist(n, target)
	for d, linked := range t.Links {
		if !linked {
			continue
		}
		nb, valid := topo.Neighbor(n, network.Dir(d))
		if valid && topo.Dist(nb, target) < cur {
			return network.Dir(d), true
		}
	}
	return network.DirNone, false
}

// CheckTree checks the structure of one address's virtual tree at
// quiescence on topo, whose home node is home; line(n) returns node n's
// tree line, false when n holds none. It reports one string per problem: a
// line left touched, a link that leaves the fabric, dangles or has no
// mirror, a non-root RootDir that is not a live link, a root count other
// than one, a RootDir walk that does not reach the root, and a home node
// outside the tree. A tree with no lines is sound.
func CheckTree(topo network.Topology, home, nodes int, line func(int) (*TreeLine, bool)) []string {
	var out []string
	bad := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	deg := topo.Degree()
	members, roots := 0, 0
	for n := 0; n < nodes; n++ {
		t, ok := line(n)
		if !ok {
			continue
		}
		members++
		if t.Touched {
			bad("n%d line left touched", n)
		}
		if t.IsRoot {
			roots++
		} else if int(t.RootDir) >= deg || !t.Links[t.RootDir] {
			bad("n%d RootDir %v is not a live link", n, t.RootDir)
		}
		for d := network.Dir(0); int(d) < deg; d++ {
			if !t.Links[d] {
				continue
			}
			nb, ok := topo.Neighbor(n, d)
			if !ok {
				bad("n%d link %v leaves the fabric", n, d)
				continue
			}
			if other, ok := line(nb); !ok {
				bad("n%d link %v dangles (n%d holds no line)", n, d, nb)
			} else if !other.Links[topo.Arrival(d)] {
				bad("asymmetric link n%d->n%d", n, nb)
			}
		}
	}
	if members == 0 {
		return out
	}
	if roots != 1 {
		bad("%d roots among %d tree members", roots, members)
	}
	if _, ok := line(home); !ok {
		bad("home n%d not part of the tree", home)
	}
	for n := 0; n < nodes; n++ {
		cur, steps := n, 0
		for t, ok := line(n); ok && !t.IsRoot; steps++ {
			if steps == nodes {
				bad("RootDir walk from n%d cycles", n)
				break
			}
			nb, valid := topo.Neighbor(cur, t.RootDir)
			if !valid {
				bad("RootDir walk from n%d leaves the fabric at n%d", n, cur)
				break
			}
			if t, ok = line(nb); !ok {
				bad("RootDir walk from n%d reaches n%d, which holds no line", n, nb)
			}
			cur = nb
		}
	}
	return out
}
