package mcheck

import (
	"fmt"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/treecc"
)

// The transition relation of the reduced protocol. Each successor applies
// exactly one atomic event to a clone of the state:
//
//   - an idle processor issues its next operation (its request is routed at
//     the local router immediately);
//   - a channel delivers its head message to the neighboring router, which
//     runs the Table 1 kernel for it;
//   - a NIC serves the head of its service queue (data access, memory
//     access, grant, or completion — atomic, since latencies are irrelevant
//     to reachability).
//
// Router processing is a faithful port of internal/treecc's Route /
// processTeardown / processAck logic minus the capacity machinery (no
// conflict evictions, so no stalls and no timeout recovery), which matches
// the backbone the paper verified in Murφ. Grafting replies pick their
// next hop with the engine's own TreeLine.CloserLink. The Bugs hooks
// inject the seeded defects of the mutation suite; with Bugs == 0 the
// relation is the clean protocol.

// succ is one labeled transition.
type succ struct {
	s     *state
	label string
}

func (c *Checker) successors(s *state) []succ {
	var out []succ

	// 1. Operation issue: one outstanding operation per node
	// (sequential-consistency Requirement 4).
	for i := range s.ops {
		if s.ops[i].Phase != opNotIssued {
			continue
		}
		busy := false
		for j := range s.ops {
			if j != i && c.Ops[j].Node == c.Ops[i].Node && s.ops[j].Phase == opInFlight {
				busy = true
			}
		}
		if busy {
			continue
		}
		ns := s.clone()
		ns.ops[i].Phase = opInFlight
		op := c.Ops[i]
		// Local hit? Reads hit Shared/Modified; writes hit Modified.
		if ns.data[op.Node] != dInvalid && (!op.Write || ns.data[op.Node] == dModified) {
			if op.Write {
				ns.wrote++
				ns.dver[op.Node] = ns.wrote
				c.checkSoleCopy(ns, op.Node)
			} else {
				ns.ops[i].Sampled = ns.dver[op.Node]
				c.checkLocalRead(ns, op.Node)
			}
			ns.ops[i].Phase = opDone
			out = append(out, succ{ns, fmt.Sprintf("localhit op%d", i)})
			continue
		}
		t := protocol.RdReq
		if op.Write {
			t = protocol.WrReq
		}
		c.route(ns, op.Node, msg{Type: t, Op: int8(i)}, network.Local)
		out = append(out, succ{ns, fmt.Sprintf("issue op%d@n%d", i, op.Node)})
	}

	// 2. Channel deliveries.
	for n := 0; n < c.nodes; n++ {
		for d := network.Dir(0); d < network.MaxDegree; d++ {
			if len(*s.channel(n, d)) == 0 {
				continue
			}
			nb, _ := c.Topo.Neighbor(n, d)
			ns := s.clone()
			q := ns.channel(n, d)
			m := (*q)[0]
			*q = (*q)[1:]
			c.route(ns, nb, m, c.Topo.Arrival(d))
			out = append(out, succ{ns, fmt.Sprintf("dlv %v %d->%d", m.Type, n, nb)})
		}
	}

	// 3. NIC services.
	for n := 0; n < c.nodes; n++ {
		if len(s.nicq[n]) == 0 {
			continue
		}
		ns := s.clone()
		m := ns.nicq[n][0]
		ns.nicq[n] = ns.nicq[n][1:]
		c.nicServe(ns, n, m)
		out = append(out, succ{ns, fmt.Sprintf("nic %v@n%d", m.Type, n)})
	}
	return out
}

// channel is the FIFO leaving node through port d.
func (s *state) channel(node int, d network.Dir) *[]msg {
	return &s.chans[node*network.MaxDegree+int(d)]
}

func send(s *state, node int, d network.Dir, m msg) {
	q := s.channel(node, d)
	*q = append(*q, m)
}

// route runs the router kernel for m at node; arrival is the inbound link
// (network.Local for locally issued or NIC-spawned messages).
func (c *Checker) route(s *state, node int, m msg, arrival network.Dir) {
	switch m.Type {
	case protocol.RdReq:
		c.routeRead(s, node, m)
	case protocol.WrReq:
		c.routeWrite(s, node, m)
	case protocol.RdReply, protocol.WrReply:
		c.routeReply(s, node, m, arrival)
	case protocol.Teardown:
		c.teardown(s, node, arrival)
	case protocol.TdAck:
		c.ack(s, node, arrival, m)
	}
}

func (c *Checker) routeRead(s *state, node int, m msg) {
	t := &s.lines[node]
	if t.Valid && !t.Touched {
		if t.LocalValid {
			s.nicq[node] = append(s.nicq[node], m)
			return
		}
		if !t.IsRoot && t.RootDir != network.DirNone && t.Links[t.RootDir] {
			send(s, node, t.RootDir, m)
			return
		}
	}
	if node == c.Home {
		c.routeAtHome(s, m)
		return
	}
	send(s, node, c.Topo.NextHop(node, c.Home), m)
}

func (c *Checker) routeWrite(s *state, node int, m msg) {
	if node == c.Home {
		c.routeAtHome(s, m)
		return
	}
	if t := &s.lines[node]; t.Valid && !t.Touched {
		c.teardown(s, node, network.Local)
	}
	send(s, node, c.Topo.NextHop(node, c.Home), m)
}

// routeAtHome admits a request at the home node: it waits behind an
// in-flight home serve or a teardown, or it opens the home-serve window
// and goes up to the NIC. A write tears a valid tree down first.
func (c *Checker) routeAtHome(s *state, m msg) {
	t := &s.lines[c.Home]
	if s.pend && !c.has(treecc.BugDoubleGrant) {
		s.pendq = append(s.pendq, m)
		return
	}
	if t.Valid && t.Touched {
		s.homeq = append(s.homeq, m)
		return
	}
	if t.Valid && m.Type == protocol.RdReq {
		// Degenerate home line; the simulator drops and serves fresh.
		*t = emptyLine
	} else if t.Valid {
		// Wait for the collapse, unless a single-node tree tore down
		// instantly.
		if c.teardown(s, c.Home, network.Local); t.Valid {
			s.homeq = append(s.homeq, m)
			return
		}
	}
	s.pend = true
	m.HomeServe = true
	s.nicq[c.Home] = append(s.nicq[c.Home], m)
}

// revert turns a reply back into a request at node, releasing the
// home-serve window if the reply owned it (it was fresh and had not yet
// anchored the home line).
func (c *Checker) revert(s *state, node int, m msg, arrival network.Dir) {
	if m.Root && arrival == network.Local {
		c.releasePend(s)
	}
	t := protocol.RdReq
	if m.Type == protocol.WrReply {
		t = protocol.WrReq
	}
	c.route(s, node, msg{Type: t, Op: m.Op}, network.Local)
}

func (c *Checker) routeReply(s *state, node int, m msg, arrival network.Dir) {
	t := &s.lines[node]
	req := c.Ops[m.Op].Node
	// Origin guard for grafting replies (the serve raced a teardown).
	if arrival == network.Local && !m.Root {
		if !t.Valid || t.Touched {
			c.route(s, node, msg{Type: protocol.RdReq, Op: m.Op}, network.Local)
			return
		}
	}
	if node == req {
		switch {
		case t.Valid && !t.Touched:
			if m.Root {
				if t.LocalValid {
					c.invalidateData(s, node)
					t.LocalValid = false
				}
				t.IsRoot = true
				t.RootDir = network.DirNone
				t.Links = [network.MaxDegree]bool{}
				if arrival != network.Local {
					t.Links[arrival] = true
				}
			} else if m.Built && arrival != network.Local && !t.Links[arrival] {
				// Graft re-entry at the requester: unlink the
				// sender's dangling bit.
				send(s, node, arrival, msg{Type: protocol.TdAck, Op: -1, Built: true /* unlink */})
			}
			t.OutstandingReq = true
		case !t.Valid:
			*t = emptyLine
			t.Valid, t.OutstandingReq = true, true
			if arrival != network.Local {
				t.Links[arrival] = true
			}
			if m.Root {
				t.IsRoot = true
			} else {
				t.RootDir = arrival
			}
		case !t.OutstandingReq:
			// Touched, and no acknowledgment is held for this reply.
			c.revert(s, node, m, arrival)
			return
		}
		// Eject for the completion. A touched line whose acknowledgment
		// is held for this reply completes uncached, releasing the
		// collapse.
		if s.pend && m.Root && arrival == network.Local {
			c.releasePend(s)
		}
		s.nicq[node] = append(s.nicq[node], m)
		return
	}
	out := c.Topo.NextHop(node, req)
	if t.Valid && !t.Touched {
		if !m.Root {
			if m.Built && arrival != network.Local && !t.Links[arrival] {
				send(s, node, arrival, msg{Type: protocol.TdAck, Op: -1, Built: true})
			}
			if d, ok := t.CloserLink(c.Topo, node, req); ok {
				m.Built = false
				send(s, node, d, m)
				return
			}
			t.Links[out] = true
			m.Built = true
			send(s, node, out, m)
			return
		}
		// Fresh-tree reply absorbing a remnant.
		if t.LocalValid {
			c.invalidateData(s, node)
			t.LocalValid = false
		}
		t.Links = [network.MaxDegree]bool{}
		if arrival != network.Local {
			t.Links[arrival] = true
		}
		t.Links[out] = true
		t.RootDir = out
		t.IsRoot = false
		t.OutstandingReq = false
		m.Built = true
		// The reply must enter the channel before the pending queue
		// re-routes (a released write's teardown chases it in FIFO
		// order, mirroring the simulator's age-based arbitration).
		send(s, node, out, m)
		if s.pend && arrival == network.Local && node == c.Home {
			c.releasePend(s)
		}
		return
	}
	if !t.Valid {
		if !m.Root && !m.Built && arrival != network.Local {
			// Followed a tree edge into a collapsed node: revert.
			c.revert(s, node, m, arrival)
			return
		}
		*t = emptyLine
		t.Valid = true
		if arrival != network.Local {
			t.Links[arrival] = true
		}
		t.Links[out] = true
		if m.Root {
			t.RootDir = out
		} else {
			t.RootDir = arrival
		}
		m.Built = true
		send(s, node, out, m)
		if s.pend && m.Root && arrival == network.Local && node == c.Home {
			c.releasePend(s)
		}
		return
	}
	// Touched: revert to a request (the simulator stalls then times out).
	c.revert(s, node, m, arrival)
}

// releasePend lifts the home-serve marker and re-routes the queued
// requests at the home node.
func (c *Checker) releasePend(s *state) {
	s.pend = false
	q := s.pendq
	s.pendq = nil
	for _, w := range q {
		c.route(s, c.Home, w, network.Local)
	}
}

func (c *Checker) invalidateData(s *state, node int) {
	if s.data[node] == dModified && s.dver[node] > s.memV && !c.has(treecc.BugLostWriteback) {
		s.memV = s.dver[node]
	}
	s.data[node] = dInvalid
}

// teardown ports processTeardown (no ClearArrival: no timeout aborts in
// the reduced model).
func (c *Checker) teardown(s *state, node int, arrival network.Dir) {
	t := &s.lines[node]
	if !t.Valid || t.Touched {
		return
	}
	t.Touched = true
	if t.LocalValid && !c.has(treecc.BugSkipInvalidate) {
		c.invalidateData(s, node)
		t.LocalValid = false
	}
	for d, linked := range t.Links {
		if linked && network.Dir(d) != arrival {
			send(s, node, network.Dir(d), msg{Type: protocol.Teardown, Op: -1})
		}
	}
	if node == c.Home && c.has(treecc.BugEarlyHomeRelease) {
		// Wrong teardown order: the home declares the teardown done the
		// moment its own line is touched, without waiting for the
		// subtree to collapse and acknowledge.
		*t = emptyLine
		c.teardownComplete(s)
		return
	}
	if t.OutstandingReq && !c.ackHoldOff() {
		// Hold the acknowledgment until the pending completion lands
		// (outstanding-request bit).
		return
	}
	switch n := t.LinkCount(); {
	case n == 0:
		*t = emptyLine
		if node == c.Home {
			c.teardownComplete(s)
		}
	case n == 1 && node != c.Home:
		c.sendAckAndFree(s, node)
	}
}

// ack ports processAck; m.Built doubles as the unlink flag for acks.
func (c *Checker) ack(s *state, node int, arrival network.Dir, m msg) {
	t := &s.lines[node]
	if !t.Valid {
		return
	}
	if !t.Touched {
		if m.Built && arrival != network.Local {
			t.Links[arrival] = false
		}
		return
	}
	if arrival != network.Local {
		if !t.Links[arrival] {
			return
		}
		t.Links[arrival] = false
	}
	if t.OutstandingReq && !c.ackHoldOff() {
		return
	}
	c.collapse(s, node)
}

func (c *Checker) collapse(s *state, node int) {
	t := &s.lines[node]
	if node == c.Home {
		if t.LinkCount() == 0 {
			*t = emptyLine
			c.teardownComplete(s)
		}
		return
	}
	switch t.LinkCount() {
	case 0:
		*t = emptyLine
	case 1:
		c.sendAckAndFree(s, node)
	}
}

// sendAckAndFree collapses a non-home line down to its last link: the
// acknowledgment goes out that link and the line is freed.
func (c *Checker) sendAckAndFree(s *state, node int) {
	t := &s.lines[node]
	if !c.has(treecc.BugDropTdAck) {
		send(s, node, t.OnlyLink(), msg{Type: protocol.TdAck, Op: -1})
	}
	*t = emptyLine
}

// teardownComplete releases the home queue. Victim caching is modeled by
// memory (writebacks are immediate), so the home L2 copy step is folded
// into memV.
func (c *Checker) teardownComplete(s *state) {
	q := s.homeq
	s.homeq = nil
	for _, w := range q {
		c.route(s, c.Home, w, network.Local)
	}
}

// nicServe is the above-network work: data sampling, memory access, grant,
// completion. Atomic.
func (c *Checker) nicServe(s *state, node int, m msg) {
	t := &s.lines[node]
	switch m.Type {
	case protocol.RdReq:
		if t.Valid && !t.Touched && t.LocalValid {
			// Sharer serve: a dirty line writes back (M -> S).
			if s.data[node] == dModified {
				if !c.has(treecc.BugLostWriteback) {
					s.memV = s.dver[node]
				}
				s.data[node] = dShared
			}
			v := s.dver[node]
			if v != s.memV {
				c.fail("read sampled v%d at n%d but memory holds v%d", v, node, s.memV)
			}
			s.ops[m.Op].Sampled = v
			c.route(s, node, msg{Type: protocol.RdReply, Op: m.Op, Ver: v}, network.Local)
			return
		}
		if !m.HomeServe {
			// Raced serve: retry toward home.
			c.route(s, node, msg{Type: protocol.RdReq, Op: m.Op}, network.Local)
			return
		}
		// Home serve from memory (victim caching folded into memV).
		v := s.memV
		s.ops[m.Op].Sampled = v
		c.route(s, node, msg{Type: protocol.RdReply, Op: m.Op, Ver: v, Root: true}, network.Local)
	case protocol.WrReq:
		// Grant (Requirement 3: home data copy invalidated).
		if s.data[node] != dInvalid && node == c.Home {
			c.invalidateData(s, node)
		}
		c.route(s, node, msg{Type: protocol.WrReply, Op: m.Op, Root: true}, network.Local)
	case protocol.RdReply:
		if t.Valid && !t.Touched && (t.OutstandingReq || c.has(treecc.BugAcceptStaleReply)) {
			s.data[node] = dShared
			s.dver[node] = m.Ver
			t.LocalValid = true
			t.OutstandingReq = false
		} else {
			c.releaseHeld(s, node)
		}
		s.ops[m.Op].Phase = opDone
		s.ops[m.Op].Sampled = m.Ver
	case protocol.WrReply:
		s.wrote++
		v := s.wrote
		c.checkSoleCopy(s, node)
		if t.Valid && !t.Touched && (t.OutstandingReq || c.has(treecc.BugAcceptStaleReply)) {
			s.data[node] = dModified
			s.dver[node] = v
			t.LocalValid = true
			t.OutstandingReq = false
		} else {
			// Tree being torn down: write through; the held
			// acknowledgment guaranteed this commit serialized
			// before the next grant.
			if v > s.memV {
				s.memV = v
			}
			c.releaseHeld(s, node)
		}
		s.ops[m.Op].Phase = opDone
	}
}

// releaseHeld resumes a collapse held at node by the outstanding-request
// bit.
func (c *Checker) releaseHeld(s *state, node int) {
	t := &s.lines[node]
	if !t.Valid || !t.Touched || !t.OutstandingReq {
		return
	}
	t.OutstandingReq = false
	if t.LinkCount() == 0 {
		*t = emptyLine
		if node == c.Home {
			c.teardownComplete(s)
		}
		return
	}
	c.collapse(s, node)
}
