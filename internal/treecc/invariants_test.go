package treecc

import (
	"fmt"
	"testing"

	"innetcc/internal/protocol"
)

// checkTreeInvariants validates the health of all virtual trees at
// quiescence: each address's tree passes CheckTree, and every valid
// data-cache copy is anchored (its node's tree line exists with LocalValid
// set, and LocalValid lines have the data).
func checkTreeInvariants(t *testing.T, m *protocol.Machine, e *Engine) {
	t.Helper()
	topo := e.topo
	nodes := m.Cfg.Nodes()

	type key struct {
		node int
		addr uint64
	}
	lines := map[key]*TreeLine{}
	addrs := map[uint64][]int{}
	for n := 0; n < nodes; n++ {
		n := n
		e.Tree(n).ScanAll(func(addr uint64, v *TreeLine) bool {
			lines[key{n, addr}] = v
			addrs[addr] = append(addrs[addr], n)
			return true
		})
	}

	for addr := range addrs {
		for _, p := range CheckTree(topo, m.Cfg.Home(addr), nodes, func(n int) (*TreeLine, bool) {
			l, ok := lines[key{n, addr}]
			return l, ok
		}) {
			t.Errorf("addr %#x: %s", addr, p)
		}
	}

	// Data copies anchored: every L2 copy is either a tree member with
	// LocalValid set, or a victim copy parked at the line's home node
	// while no tree exists.
	for k, v := range lines {
		_, hasData := m.PeekLine(k.node, k.addr)
		if v.LocalValid && !hasData {
			t.Errorf("node %d addr %#x: LocalValid without data copy", k.node, k.addr)
		}
	}
	for n := 0; n < nodes; n++ {
		n := n
		m.Nodes[n].L2.ScanAll(func(addr uint64, _ *protocol.DataLine) bool {
			if tl, ok := lines[key{n, addr}]; ok && tl.LocalValid {
				return true
			}
			if n == m.Cfg.Home(addr) && len(addrs[addr]) == 0 {
				return true // victim copy
			}
			tl, ok := lines[key{n, addr}]
			t.Errorf("node %d addr %#x: data copy not anchored in a tree (line=%v)", n, addr, describe(tl, ok))
			return false
		})
	}
}

func describe(tl *TreeLine, ok bool) string {
	if !ok {
		return "absent"
	}
	return fmt.Sprintf("%+v", *tl)
}
