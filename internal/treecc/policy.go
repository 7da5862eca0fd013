package treecc

import (
	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
)

// Route implements network.Policy: the per-hop protocol kernel of the
// paper's Table 1, executed by the virtual-tree-cache pipeline stage of
// every router a packet visits. The decisions are kernel.go's; this layer
// turns them into packets, counters, metrics, L2 work and timing.
func (e *Engine) Route(r *network.Router, p *network.Packet, now int64) network.Steer {
	msg := p.Payload.(*protocol.Msg)
	switch msg.Type {
	case protocol.Teardown, protocol.TdAck:
		return e.routeHop(r, p, msg)
	case protocol.RdReq, protocol.WrReq:
		return e.routeRequest(r, msg, now)
	case protocol.RdReply, protocol.WrReply:
		return e.routeReply(r, p, msg, now)
	}
	panic("treecc: unroutable message " + msg.Type.String())
}

// site is the kernel's view of node for addr.
func (e *Engine) site(node int, addr uint64) Site {
	return Site{Node: node, Home: e.home(addr), Topo: e.topo, Bugs: e.Bugs}
}

// routeHop moves teardown/ack packets: freshly spawned ones exit on their
// forced link (forking first when they carry a multicast port mask);
// arriving ones are consumed and processed here.
func (e *Engine) routeHop(r *network.Router, p *network.Packet, msg *protocol.Msg) network.Steer {
	if p.ArrivalDir == network.Local {
		if msg.ForcedMask != 0 {
			return e.forkHop(r.NodeID, msg)
		}
		return network.Steer{Out: network.Dir(msg.ForcedDir)}
	}
	n := r.NodeID
	line, _ := e.trees[n].Peek(msg.Addr)
	var st Step
	if msg.Type == protocol.Teardown {
		st = Teardown(line, e.site(n, msg.Addr), p.ArrivalDir, msg.ClearArrival)
	} else {
		st = Ack(line, e.site(n, msg.Addr), p.ArrivalDir, msg.Unlink)
	}
	return network.Steer{Consume: true, Spawn: e.collapseFx(n, msg.Addr, &st, nil)}
}

// forkHop expands a masked multicast hop message at its spawning router:
// the lowest set port keeps the original packet, every further port gets a
// clone of the payload in its own expedited packet — the router-crossbar
// replication hardware multicast buys. The mask is consumed here; each copy
// travels on as an ordinary forced-direction hop message.
func (e *Engine) forkHop(n int, msg *protocol.Msg) network.Steer {
	mask := msg.ForcedMask
	msg.ForcedMask = 0
	primary := network.DirNone
	var spawns []*network.Packet
	for d := 0; d < e.deg; d++ {
		if mask&(1<<uint(d)) == 0 {
			continue
		}
		if primary == network.DirNone {
			primary = network.Dir(d)
			msg.ForcedDir = uint8(d)
			continue
		}
		c := *msg
		c.ForcedDir = uint8(d)
		spawns = append(spawns, e.hopPacket(n, &c))
	}
	if primary == network.DirNone {
		// Degenerate empty mask after masking to the fabric degree.
		return network.Steer{Consume: true}
	}
	return network.Steer{Out: primary, Spawn: spawns}
}

// consumeToBackoff delays a deadlock-recovered request at the home node for
// the random backoff interval before reprocessing it (Section 2.1).
func (e *Engine) consumeToBackoff(home int, msg *protocol.Msg) network.Steer {
	cfg := e.m.Cfg
	now := e.m.Kernel.Now()
	delay := backoffDelay(uint64(cfg.Seed), msg.Addr, msg.Requester, now, cfg.BackoffMin, cfg.BackoffMax)
	msg.Backoff = false
	msg.DeadlockCycles += delay
	e.queued++
	e.m.Counters.Inc("tree.backoffs", 1)
	e.m.Metrics.Event(now, metrics.EvBackoff, int16(home), msg.Addr, delay)
	e.m.Defer(delay, func() {
		e.queued--
		e.m.Mesh.Spawn(home, e.packet(home, msg), e.m.Kernel.Now())
	})
	return network.Steer{Consume: true}
}

// backoffDelay draws the deadlock-recovery backoff as a pure splitmix64-style
// hash of (seed, addr, requester, cycle), the same stateless scheme the
// fault layer's schedules use. A site-keyed hash, unlike a shared RNG
// stream, does not depend on the order in which routers draw backoffs;
// results depend on this scheme, so it stays.
func backoffDelay(seed, addr uint64, requester int, now, lo, hi int64) int64 {
	x := seed ^ addr*0x9e3779b97f4a7c15 ^ uint64(requester)<<40 ^ uint64(now)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if hi <= lo {
		return lo
	}
	return lo + int64(x%uint64(hi-lo+1))
}

// routeRequest implements Table 1's RD_REQ and WR_REQ kernels, plus the
// proactive eviction of a conflicting LRU tree on a write's way to the
// home node.
func (e *Engine) routeRequest(r *network.Router, msg *protocol.Msg, now int64) network.Steer {
	n := r.NodeID
	addr := msg.Addr
	home := e.home(addr)
	if msg.Backoff && n == home {
		return e.consumeToBackoff(home, msg)
	}
	line, ok := e.trees[n].Lookup(addr)
	if c := e.m.Metrics; c != nil {
		if ok && !line.Touched {
			c.Add(metrics.CTreeHit, 1)
			c.Event(now, metrics.EvTreeHit, int16(n), addr, int64(msg.Requester))
		} else {
			c.Add(metrics.CTreeMiss, 1)
			c.Event(now, metrics.EvTreeMiss, int16(n), addr, int64(msg.Requester))
		}
	}
	write := msg.Type == protocol.WrReq
	pending := false
	if n == home {
		_, pending = e.pending[n][addr]
	}
	st := Request(line, Site{Node: n, Home: home, Topo: e.topo, Bugs: e.Bugs}, write, pending)
	spawns := e.collapseFx(n, addr, &st, nil)
	switch {
	case st.Fx&FxBump != 0 && write:
		e.m.Counters.Inc("tree.write_bumps", 1)
		e.m.Metrics.Event(now, metrics.EvBump, int16(n), addr, int64(msg.Requester))
	case st.Fx&FxBump != 0:
		e.m.Metrics.Add(metrics.CTreeBump, 1)
		e.m.Metrics.Event(now, metrics.EvBump, int16(n), addr, int64(msg.Requester))
	case write && !ok && n != home && e.m.Cfg.ProactiveEviction && !e.trees[n].HasFreeWay(addr):
		// Proactive eviction: the set this line would occupy is full,
		// so tear down its LRU tree now to spare the reply the wait.
		if vaddr, found := e.evictLRU(n, addr, &spawns); found {
			e.m.Counters.Inc("tree.proactive_evictions", 1)
			e.m.Metrics.Event(now, metrics.EvProactiveEvict, int16(n), vaddr, int64(msg.Requester))
		}
	}
	switch st.Act {
	case QueuePending:
		e.queueOnPending(addr, msg)
		return network.Steer{Consume: true}
	case QueueHome:
		e.queueAtHome(addr, msg)
		return network.Steer{Consume: true, Spawn: spawns}
	case Eject:
		if st.Fx&FxHomeServe != 0 {
			e.setPending(addr)
			msg.HomeServe = true
		}
		return network.Steer{Out: network.Local, Spawn: spawns}
	}
	return network.Steer{Out: st.Out, Spawn: spawns}
}

// routeReply implements Table 1's RD_REPLY / WR_REPLY kernels: route toward
// the requester, grafting onto an existing tree or constructing virtual
// links, and stalling (with LRU-tree teardown and the timeout escape) when
// the line is mid-teardown or its set has no free way.
func (e *Engine) routeReply(r *network.Router, p *network.Packet, msg *protocol.Msg, now int64) network.Steer {
	n := r.NodeID
	addr := msg.Addr
	line, ok := e.trees[n].Lookup(addr)
	st := Reply(line, e.site(n, addr), ReplyMsg{Requester: msg.Requester, Arrival: p.ArrivalDir,
		Root: msg.RequesterIsRoot, Built: msg.BuiltLast, Read: msg.Type == protocol.RdReply})
	switch st.Act {
	case Revert:
		if st.Fx&FxRaced != 0 {
			e.m.Counters.Inc("tree.serve_races", 1)
		}
		return e.revertToRequest(n, msg)
	case Stall:
		return e.stallReply(r, p, msg, ok, now)
	}
	if st.Fx&FxAlloc != 0 {
		nl, allocated := e.trees[n].InsertNoEvict(addr)
		if !allocated {
			return e.stallReply(r, p, msg, ok, now)
		}
		*nl = st.New
		line = nl
	}
	if st.Fx&FxDropData != 0 {
		e.m.InvalidateLine(n, addr)
	}
	if st.Fx&FxNewGen != 0 {
		line.Gen = e.nextGen(n)
	}
	var spawns []*network.Packet
	if st.Fx&FxUnlink != 0 {
		spawns = append(spawns, e.hopPacket(n, &protocol.Msg{Type: protocol.TdAck, Addr: addr,
			ForcedDir: uint8(st.Ack), Unlink: true}))
		e.m.Counters.Inc("tree.reentries", 1)
	}
	if st.Fx&FxReplicate != 0 && e.m.Cfg.Replication {
		e.replicate(n, addr, msg.Version, line.Gen)
	}
	if st.Fx&FxReleasePending != 0 {
		e.releasePending(addr, n)
	}
	if st.Act == Eject {
		return network.Steer{Out: network.Local, Spawn: spawns}
	}
	msg.BuiltLast = st.Built
	return network.Steer{Out: st.Out, Spawn: spawns}
}

// revertToRequest turns an unanchorable read reply back into a read request
// spawned at node n; the data will be re-fetched along a coherent path.
func (e *Engine) revertToRequest(n int, msg *protocol.Msg) network.Steer {
	e.m.Counters.Inc("tree.reply_reverts", 1)
	req := &protocol.Msg{Type: protocol.RdReq, Addr: msg.Addr,
		Requester: msg.Requester, IssuedAt: msg.IssuedAt,
		DeadlockCycles: msg.DeadlockCycles, Attempt: msg.Attempt}
	return network.Steer{Consume: true, Spawn: []*network.Packet{e.packet(n, req)}}
}

// stallReply holds a reply whose tree-cache allocation cannot proceed. On
// first stall it issues a teardown for the LRU tree of the blocked set; at
// the timeout it gives up: the partially built tree is torn down and the
// reply reverts to a (backoff-flagged) request — the paper's deadlock
// recovery (Section 2.1).
func (e *Engine) stallReply(r *network.Router, p *network.Packet, msg *protocol.Msg, tagTouched bool, now int64) network.Steer {
	n := r.NodeID
	addr := msg.Addr
	if p.StallCycles(now) >= e.m.Cfg.TimeoutCycles {
		return e.abortReply(r.NodeID, p, msg, now)
	}
	var spawns []*network.Packet
	if p.StallCycles(now) == 0 && !tagTouched {
		if vaddr, found := e.evictLRU(n, addr, &spawns); found {
			e.m.Counters.Inc("tree.conflict_evictions", 1)
			e.m.Metrics.Event(now, metrics.EvConflictEvict, int16(n), vaddr, int64(msg.Requester))
		}
	}
	return network.Steer{Stall: true, Spawn: spawns}
}

// abortReply is the timeout path: tear down the partial tree behind the
// reply (clearing the dangling link it created at the previous node) and
// regenerate the original request, to be held at the home node for a random
// backoff.
func (e *Engine) abortReply(n int, p *network.Packet, msg *protocol.Msg, now int64) network.Steer {
	e.m.Counters.Inc("tree.deadlock_aborts", 1)
	e.m.Metrics.Event(now, metrics.EvDeadlockAbort, int16(n), msg.Addr, int64(msg.Requester))
	if p.ArrivalDir == network.Local && msg.RequesterIsRoot {
		// A fresh reply giving up before it ever anchored the home's
		// tree line: lift the home-serve serialization marker so the
		// regenerated request (and any queued ones) can be served.
		e.releasePending(msg.Addr, n)
	}
	var spawns []*network.Packet
	if p.ArrivalDir != network.Local && msg.BuiltLast {
		// The link the reply built at the previous node dangles toward
		// this node; clear it and tear down the partial construction.
		// If the last hop followed an existing tree link instead, a
		// teardown of that tree is already collapsing and will reclaim
		// every link the reply touched — spawning nothing is correct.
		spawns = append(spawns, e.hopPacket(n, &protocol.Msg{Type: protocol.Teardown, Addr: msg.Addr,
			ForcedDir: uint8(p.ArrivalDir), ClearArrival: true}))
	}
	t := protocol.RdReq
	if msg.Type == protocol.WrReply {
		t = protocol.WrReq
	}
	req := &protocol.Msg{Type: t, Addr: msg.Addr, Requester: msg.Requester,
		IssuedAt: msg.IssuedAt, Backoff: true,
		DeadlockCycles: msg.DeadlockCycles + e.m.Cfg.TimeoutCycles,
		Attempt:        msg.Attempt}
	reqPkt := &network.Packet{ID: e.m.Mesh.NextIDFor(n), Flits: e.m.Cfg.CtrlFlits,
		Payload: req, Retryable: true}
	spawns = append(spawns, reqPkt)
	return network.Steer{Consume: true, Spawn: spawns}
}
