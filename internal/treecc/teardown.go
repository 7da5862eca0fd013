package treecc

import (
	"math/bits"

	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
)

// Teardown and acknowledgment mechanics (paper Section 2.1):
//
// Teardowns percolate outward along virtual links from the initiating node,
// touching each line. A leaf converts the teardown into an acknowledgment
// sent back up its only link. A node forwards an acknowledgment — clearing
// its line — once acknowledgments have removed all but one of its links.
// Every acknowledgment terminates at the home node; when the home node's
// last link clears, the tree is gone and queued requests proceed.
//
// Teardowns and acks are hop-scoped packets: they carry the single link
// direction to traverse (Msg.ForcedDir), are consumed at the next router
// and respawn there as the protocol dictates, so they travel strictly along
// tree links and share FIFO/age order with the replies they may be chasing.
//
// Edges are normally symmetric (both endpoints hold the link bit), but a
// grafting reply that leaves the tree and re-enters it must not record the
// arrival link at the re-entered node: doing so would close a cycle, and
// cycles deadlock the acknowledgment collapse. Instead the re-entered node
// immediately sends an unlink acknowledgment (Msg.Unlink) back over the
// edge, erasing the sender's dangling bit while its line is still live, so
// teardown accounting always runs over a clean tree.

func (e *Engine) hopMsg(node int, t protocol.MsgType, addr uint64, out network.Dir) *network.Packet {
	return e.hopPacket(node, &protocol.Msg{Type: t, Addr: addr, ForcedDir: uint8(out)})
}

// hopPacket builds a hop-scoped packet spawning at node; ids come from the
// node's router-local sequence so route-phase construction needs no shared
// counter.
func (e *Engine) hopPacket(node int, msg *protocol.Msg) *network.Packet {
	return &network.Packet{
		ID:        e.m.Mesh.NextIDFor(node),
		Flits:     e.m.Cfg.CtrlFlits,
		Payload:   msg,
		Expedited: true,
	}
}

// collapseFx carries out a teardown-side step's effects at node in the
// kernel's order (data drop, teardown fan-out, acknowledgment, line free,
// teardown completion) and returns spawns with the packets to spawn at the
// node's router appended.
func (e *Engine) collapseFx(node int, addr uint64, st *Step, spawns []*network.Packet) []*network.Packet {
	if st.Fx == 0 && st.Fanout == 0 {
		return spawns
	}
	if st.Fx&FxTouch != 0 {
		e.m.Counters.Inc("tree.teardowns", 1)
		e.m.Metrics.Event(e.m.Kernel.Now(), metrics.EvTeardown, int16(node), addr, int64(st.Links))
	}
	if st.Fx&FxDropData != 0 {
		if dl, had := e.m.InvalidateLine(node, addr); had && st.Fx&FxRootData != 0 {
			e.rootData[addr] = dl.Version
		}
	}
	if e.m.Cfg.Multicast && bits.OnesCount8(st.Fanout) > 1 {
		// Hardware multicast: one masked continuation; the router forks
		// it into per-link copies at the crossbar (see forkHop).
		e.m.Counters.Inc("tree.td_multicasts", 1)
		spawns = append(spawns, e.hopPacket(node,
			&protocol.Msg{Type: protocol.Teardown, Addr: addr, ForcedMask: st.Fanout}))
	} else {
		for d := 0; d < e.deg; d++ {
			if st.Fanout&(1<<d) != 0 {
				spawns = append(spawns, e.hopMsg(node, protocol.Teardown, addr, network.Dir(d)))
			}
		}
	}
	if st.Fx&FxAck != 0 {
		spawns = append(spawns, e.hopMsg(node, protocol.TdAck, addr, st.Ack))
	}
	switch {
	case st.Fx&FxHeld != 0:
		e.m.Counters.Inc("tree.held_acks", 1)
	case st.Fx&FxStale != 0:
		e.m.Counters.Inc("tree.stale_acks", 1)
	case st.Fx&FxUnlinked != 0:
		e.m.Counters.Inc("tree.unlinks", 1)
	}
	if st.Fx&FxFree != 0 {
		e.trees[node].Invalidate(addr)
	}
	if st.Fx&FxComplete != 0 {
		e.teardownComplete(addr)
	}
	return spawns
}

// evictLRU tears down the least recently used live tree in addr's set at
// node, appending its packets to spawns; it reports the victim's address.
func (e *Engine) evictLRU(node int, addr uint64, spawns *[]*network.Packet) (uint64, bool) {
	vaddr, v, found := e.trees[node].LRUVictim(addr, func(_ uint64, v *TreeLine) bool {
		return !v.Touched
	})
	if found {
		st := Teardown(v, e.site(node, vaddr), network.DirNone, false)
		*spawns = e.collapseFx(node, vaddr, &st, *spawns)
	}
	return vaddr, found
}

// spawnStep carries out a teardown-side step outside the route phase,
// spawning its packets at node's router.
func (e *Engine) spawnStep(node int, addr uint64, st Step) {
	now := e.m.Kernel.Now()
	for _, p := range e.collapseFx(node, addr, &st, nil) {
		e.m.Mesh.Spawn(node, p, now)
	}
}
