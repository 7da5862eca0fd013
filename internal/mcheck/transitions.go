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
// Every per-line decision is the engine's own: route and nicServe call
// internal/treecc's kernel functions (Request, Reply, Teardown, Ack, Serve,
// Finish) and render the Step they return as channel sends, NIC-queue
// entries and home-queue moves. The model adds only what it deliberately
// abstracts, each stated once below: unbounded tree caches (so a stalled
// reply reverts at once, standing in for the engine's timeout recovery),
// no reissue epochs (see site), and its data/version state. With
// Bugs == 0 the relation is the clean protocol.

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

// route runs the tree kernel for m at node; arrival is the inbound link
// (network.Local for locally issued or NIC-spawned messages).
func (c *Checker) route(s *state, node int, m msg, arrival network.Dir) {
	t := s.lines[node].tree()
	site := c.site(node)
	switch m.Type {
	case protocol.RdReq, protocol.WrReq:
		st := treecc.Request(t, site, m.Type == protocol.WrReq, s.pend)
		c.apply(s, node, st)
		switch st.Act {
		case treecc.QueuePending:
			s.pendq = append(s.pendq, m)
		case treecc.QueueHome:
			s.homeq = append(s.homeq, m)
		case treecc.Eject:
			if st.Fx&treecc.FxHomeServe != 0 {
				s.pend = true
				m.HomeServe = true
			}
			s.nicq[node] = append(s.nicq[node], m)
		default:
			send(s, node, st.Out, m)
		}
	case protocol.RdReply, protocol.WrReply:
		st := treecc.Reply(t, site, treecc.ReplyMsg{Requester: c.Ops[m.Op].Node, Arrival: arrival,
			Root: m.Root, Built: m.Built, Read: m.Type == protocol.RdReply})
		if st.Act == treecc.Revert || st.Act == treecc.Stall {
			// Tree caches are unbounded here, so a reply stalls only
			// on a line mid-teardown; the engine's timeout recovery
			// reverts it to a request, and so does the model, at once.
			if m.Root && arrival == network.Local {
				c.releasePend(s)
			}
			req := protocol.RdReq
			if m.Type == protocol.WrReply {
				req = protocol.WrReq
			}
			c.route(s, node, msg{Type: req, Op: m.Op}, network.Local)
			return
		}
		c.apply(s, node, st)
		// A forwarded fresh reply enters its channel before the pending
		// queue re-routes (a released write's teardown chases it in FIFO
		// order, as the simulator's age-based arbitration orders them);
		// an ejected one reaches the NIC queue after it.
		if st.Act == treecc.Forward {
			m.Built = st.Built
			send(s, node, st.Out, m)
		}
		if st.Fx&treecc.FxReleasePending != 0 {
			c.releasePend(s)
		}
		if st.Act == treecc.Eject {
			s.nicq[node] = append(s.nicq[node], m)
		}
	case protocol.Teardown:
		c.apply(s, node, treecc.Teardown(t, site, arrival, false))
	case protocol.TdAck:
		c.apply(s, node, treecc.Ack(t, site, arrival, m.Built))
	}
}

// site is the kernel's view of node. The model has no reissue epochs, so
// BugAcceptStaleReply is rendered as what lets a stale completion through
// in the engine: the acknowledgment hold is dropped here, and nicServe
// installs a reply in any live line.
func (c *Checker) site(node int) treecc.Site {
	bugs := c.Bugs
	if c.has(treecc.BugAcceptStaleReply) {
		bugs |= treecc.BugDropAckHold
	}
	return treecc.Site{Node: node, Home: c.Home, Topo: c.Topo, Bugs: bugs}
}

// apply renders a step's effects on the model state in the kernel's
// order: line allocation, data drop, teardown fan-out, acknowledgment, line
// free, teardown completion. Generations, replicas and the engine's
// counters have no model state.
func (c *Checker) apply(s *state, node int, st treecc.Step) {
	if st.Fx&treecc.FxAlloc != 0 {
		s.lines[node] = line{TreeLine: st.New, Valid: true}
	}
	if st.Fx&treecc.FxDropData != 0 {
		c.invalidateData(s, node)
	}
	for d := network.Dir(0); d < network.MaxDegree; d++ {
		if st.Fanout&(1<<d) != 0 {
			send(s, node, d, msg{Type: protocol.Teardown, Op: -1})
		}
	}
	if st.Fx&(treecc.FxAck|treecc.FxUnlink) != 0 {
		send(s, node, st.Ack, msg{Type: protocol.TdAck, Op: -1, Built: st.Fx&treecc.FxUnlink != 0})
	}
	if st.Fx&treecc.FxFree != 0 {
		s.lines[node] = emptyLine
	}
	if st.Fx&treecc.FxComplete != 0 {
		// The tree is gone: re-route the requests queued behind it.
		// Victim caching is folded into memV (writebacks are
		// immediate), so there is no home copy to install.
		q := s.homeq
		s.homeq = nil
		for _, w := range q {
			c.route(s, c.Home, w, network.Local)
		}
	}
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

// nicServe is the above-network work: data sampling, memory access, grant,
// completion. Atomic.
func (c *Checker) nicServe(s *state, node int, m msg) {
	t := s.lines[node].tree()
	switch m.Type {
	case protocol.RdReq:
		switch treecc.Serve(t, m.HomeServe) {
		case treecc.FromTree:
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
		case treecc.Reroute:
			c.route(s, node, msg{Type: protocol.RdReq, Op: m.Op}, network.Local)
		case treecc.FromHome:
			// Memory (victim caching folded into memV).
			v := s.memV
			s.ops[m.Op].Sampled = v
			c.route(s, node, msg{Type: protocol.RdReply, Op: m.Op, Ver: v, Root: true}, network.Local)
		}
	case protocol.WrReq:
		// Grant (Requirement 3: home data copy invalidated).
		if s.data[node] != dInvalid && node == c.Home {
			c.invalidateData(s, node)
		}
		c.route(s, node, msg{Type: protocol.WrReply, Op: m.Op, Root: true}, network.Local)
	case protocol.RdReply, protocol.WrReply:
		if t != nil && !t.Touched && c.has(treecc.BugAcceptStaleReply) {
			t.OutstandingReq = true // see site
		}
		st := treecc.Finish(t, c.site(node))
		write := m.Type == protocol.WrReply
		v, d := m.Ver, int8(dShared)
		if write {
			s.wrote++
			v, d = s.wrote, dModified
			c.checkSoleCopy(s, node)
		} else {
			s.ops[m.Op].Sampled = v
		}
		if st.Fx&treecc.FxInstall != 0 {
			s.data[node], s.dver[node] = d, v
		} else {
			// Tree torn down meanwhile: the access completes uncached
			// (a write writes through; the held acknowledgment kept
			// this commit ahead of the next grant).
			if write && v > s.memV {
				s.memV = v
			}
			c.apply(s, node, st)
		}
		s.ops[m.Op].Phase = opDone
	}
}
