package treecc

import "innetcc/internal/network"

// The tree protocol's per-line decisions as pure functions: Table 1's
// request and reply kernels, Section 2.1's teardown and acknowledgment
// rules, and the serve and completion choices above the network. Each step
// takes the node's tree line for the address (nil when the node holds
// none), the Site it runs at and the message fields it reads; it mutates
// only that line and returns a Step naming the messages to send and the
// effects above the line. The cycle simulator (Engine.Route, Engine.Eject)
// turns a Step into packets, counters, L2 work and timing; the model checker
// (internal/mcheck) turns the same Step into channel sends and NIC-queue
// entries, so both run one implementation of the protocol.

// Site is where a step runs: the node, the address's home node, the fabric
// and the seeded-defect mask.
type Site struct {
	Node, Home int
	Topo       network.Topology
	Bugs       Bug
}

func (s Site) has(b Bug) bool { return s.Bugs&b != 0 }

// Act is what becomes of the message a step routes.
type Act uint8

const (
	// Consume absorbs the message at this router (teardowns and acks).
	Consume Act = iota
	// Forward sends it out Step.Out.
	Forward
	// Eject hands it to the node's NIC.
	Eject
	// Revert turns a reply back into a read request at this node.
	Revert
	// Stall holds a reply whose line is mid-teardown.
	Stall
	// QueueHome parks a request at the home until the teardown of the
	// line's tree completes (Requirement 1).
	QueueHome
	// QueuePending parks a request behind the home serve in flight.
	QueuePending
)

// Fx are the effects of a step beyond the line itself. Callers apply them
// in declaration order, sending Step.Fanout's teardowns just before the
// acknowledgment.
type Fx uint32

const (
	// FxAlloc: allocate Step.New as the node's line, or stall if its set
	// has no free way.
	FxAlloc Fx = 1 << iota
	// FxTouch: a teardown touched a live line; Step.Links is its link
	// count at that moment.
	FxTouch
	// FxDropData: invalidate the node's data copy (the line's LocalValid
	// was set).
	FxDropData
	// FxRootData: the dropped copy was the root's; capture it for victim
	// caching at the home.
	FxRootData
	// FxNewGen: stamp a fresh generation on the line.
	FxNewGen
	// FxAck: send a teardown acknowledgment out Step.Ack.
	FxAck
	// FxUnlink: send an unlink acknowledgment out Step.Ack, erasing the
	// sender's dangling link.
	FxUnlink
	// FxReplicate: a read reply may replicate its data at this tree node.
	FxReplicate
	// FxHeld: the line holds its acknowledgment until the local
	// completion lands (the outstanding-request bit).
	FxHeld
	// FxStale: an acknowledgment met no edge to remove and was dropped.
	FxStale
	// FxUnlinked: an unlink acknowledgment erased an edge of a live line.
	FxUnlinked
	// FxFree: free the node's tree line.
	FxFree
	// FxComplete: the home's last link cleared; the tree is gone.
	FxComplete
	// FxBump: the request met the line's tree in transit (steered toward
	// its root, or tearing it down).
	FxBump
	// FxRaced: a grafting reply found its serving line gone.
	FxRaced
	// FxReleasePending: a fresh-tree reply leaves the home; lift the
	// home-serve marker.
	FxReleasePending
	// FxHomeServe: open the home-serve window for the ejected request.
	FxHomeServe
	// FxInstall: a completion installs its data in the anchored line.
	FxInstall
)

// Step is the outcome of one kernel step.
type Step struct {
	Act Act
	// Out is the Forward port; Built is the reply's BuiltLast after it.
	Out   network.Dir
	Built bool
	// Fanout is the mask of ports teardowns leave on.
	Fanout uint8
	// Ack is the port of an FxAck or FxUnlink acknowledgment.
	Ack network.Dir
	// Links is the touched line's link count (FxTouch).
	Links uint8
	Fx    Fx
	// New is the line FxAlloc allocates.
	New TreeLine
}

// Teardown touches the line and fans the teardown out over its links
// (Section 2.1). arrival is the link it came in on (DirNone when it starts
// here: a write bumping into the tree, an eviction). clearArrival marks the
// abort teardown of a timed-out reply, which first removes the dangling
// link the reply built.
func Teardown(t *TreeLine, s Site, arrival network.Dir, clearArrival bool) Step {
	var st Step
	if t == nil {
		return st
	}
	if t.Touched {
		if clearArrival && arrival != network.DirNone && t.Links[arrival] {
			// An abort teardown still owns the dangling link it came
			// to remove; clearing it may complete the local collapse.
			t.Links[arrival] = false
			collapse(t, s, &st)
		}
		// Otherwise a crossing or duplicate teardown: every edge's ack
		// comes from the collapse already under way.
		return st
	}
	if clearArrival && arrival != network.DirNone {
		t.Links[arrival] = false
		arrival = network.DirNone
	}
	t.Touched = true
	st.Fx = FxTouch
	st.Links = uint8(t.LinkCount())
	// Invalidate the local data copy (D$: -> Invalid); the root's data is
	// captured for victim caching at the home node.
	if t.LocalValid && !s.has(BugSkipInvalidate) {
		t.LocalValid = false
		st.Fx |= FxDropData
		if t.IsRoot {
			st.Fx |= FxRootData
		}
	}
	for d, linked := range t.Links {
		if linked && network.Dir(d) != arrival {
			st.Fanout |= 1 << d
		}
	}
	if s.has(BugEarlyHomeRelease) && s.Node == s.Home && st.Links > 0 {
		// Seeded defect: the home declares the tree gone the moment its
		// teardowns fan out, while outer nodes still hold valid data.
		st.Fx |= FxFree | FxComplete
		return st
	}
	if t.OutstandingReq && !s.has(BugDropAckHold) {
		// The local node's reply is completing above the network: the
		// line takes part in the teardown but holds its acknowledgment
		// until the completion lands, so the next grant cannot
		// serialize ahead of the pending access.
		st.Fx |= FxHeld
		return st
	}
	// A leaf (or a single-link initiator, whose chasing ack follows the
	// teardown on the same FIFO link) acknowledges at once; a single-node
	// tree frees at once.
	collapse(t, s, &st)
	return st
}

// Ack handles a teardown acknowledgment arriving over link arrival: remove
// that link and collapse. An unlink ack instead erases a freshly built
// dangling edge of a live line, collapsing nothing.
func Ack(t *TreeLine, s Site, arrival network.Dir, unlink bool) Step {
	switch {
	case t == nil:
		// The line is already gone (the ack chased a teardown into a
		// node that collapsed first).
		return Step{Fx: FxStale}
	case !t.Touched && unlink:
		t.Links[arrival] = false
		return Step{Fx: FxUnlinked}
	case !t.Touched, !t.Links[arrival]:
		// A plain ack on a live line (a new tree reused the tag after
		// the old one collapsed), or on an edge this node does not
		// hold: it must not trigger a collapse step.
		return Step{Fx: FxStale}
	}
	t.Links[arrival] = false
	var st Step
	if !t.OutstandingReq || s.has(BugDropAckHold) {
		collapse(t, s, &st)
	}
	return st
}

// collapse applies the post-removal rules at a touched line: the home
// terminates acknowledgments and completes at zero links; any other node
// forwards the acknowledgment up its last remaining link and frees.
func collapse(t *TreeLine, s Site, st *Step) {
	n := t.LinkCount()
	switch {
	case s.Node == s.Home:
		if n == 0 {
			st.Fx |= FxFree | FxComplete
		}
	case n == 0:
		st.Fx |= FxFree
	case n == 1:
		d := t.OnlyLink()
		t.Links[d] = false
		st.Fx |= FxFree
		if !s.has(BugDropTdAck) {
			st.Fx |= FxAck
			st.Ack = d
		}
	}
}

// ReleaseHeld resumes a collapse held for the local completion now
// landing.
func ReleaseHeld(t *TreeLine, s Site) Step {
	var st Step
	if t != nil && t.Touched && t.OutstandingReq {
		t.OutstandingReq = false
		collapse(t, s, &st)
	}
	return st
}

// Request routes a read or write request (Table 1's RD_REQ and WR_REQ
// kernels). A read meeting a live tree is served by local data or steered
// toward the root; a write meeting one tears it down in transit (Figure
// 1(b)); at the home node the request is admitted; elsewhere it heads for
// the home. pending reports the home-serve marker (read only at the home).
func Request(t *TreeLine, s Site, write, pending bool) Step {
	live := t != nil && !t.Touched
	if live && !write {
		if t.LocalValid {
			return Step{Act: Eject}
		}
		if !t.IsRoot && int(t.RootDir) < len(t.Links) && t.Links[t.RootDir] {
			return Step{Act: Forward, Out: t.RootDir, Fx: FxBump}
		}
		// Degenerate line (root without data, or dangling root
		// pointer): treat as off-tree and head for the home node.
	}
	if s.Node == s.Home {
		return admit(t, s, write, pending)
	}
	var st Step
	if live && write {
		st = Teardown(t, s, network.DirNone, false)
		st.Fx |= FxBump
	}
	st.Act, st.Out = Forward, s.Topo.NextHop(s.Node, s.Home)
	return st
}

// admit is the home's admission of a request: it waits behind a home serve
// in flight or a teardown, or it opens the home-serve window and goes up to
// the NIC. A write tears a live tree down first and waits for the collapse
// unless the tree was the home's alone.
func admit(t *TreeLine, s Site, write, pending bool) Step {
	if pending && !s.has(BugDoubleGrant) {
		return Step{Act: QueuePending}
	}
	var st Step
	switch {
	case t == nil:
	case t.Touched:
		return Step{Act: QueueHome}
	case !write:
		// The walk in Request fell through a degenerate home line:
		// serialize through the home like a fresh serve.
		st.Fx = FxFree
	default:
		if st = Teardown(t, s, network.DirNone, false); st.Fx&FxFree == 0 {
			st.Act = QueueHome
			return st
		}
	}
	st.Act = Eject
	st.Fx |= FxHomeServe
	return st
}

// ReplyMsg is what a reply step reads of its message.
type ReplyMsg struct {
	Requester int
	// Arrival is the inbound link; Local on the reply's first router
	// visit, at the serving node.
	Arrival network.Dir
	// Root marks a fresh-tree reply (RequesterIsRoot); Built is its
	// BuiltLast; Read marks a read reply.
	Root, Built, Read bool
}

// Reply routes a reply toward its requester (Table 1's RD_REPLY and
// WR_REPLY kernels): grafting onto an existing tree along links that lead
// closer, building virtual links otherwise, and anchoring the line at the
// requester, which the reply then enters through the NIC.
func Reply(t *TreeLine, s Site, m ReplyMsg) Step {
	local := m.Arrival == network.Local
	if !m.Root {
		if local && (t == nil || t.Touched) {
			// The serving node must still be on a live tree: if a
			// teardown swept past while the data access was above
			// the network, any branch built from here would be
			// orphaned.
			return Step{Act: Revert, Fx: FxRaced}
		}
		if t == nil && !m.Built && !local {
			// The reply followed a tree edge into a node without a
			// line: the tree collapsed across its path and no
			// teardown will chase a branch built from here.
			return Step{Act: Revert}
		}
	}
	var st Step
	if s.Node == m.Requester {
		st = anchor(t, m)
	} else {
		st = extend(t, s, m)
	}
	if local && m.Root && st.Act != Stall {
		// A fresh-tree reply's first visit is at the home: once it
		// anchors the home's line, queued requests re-dispatch against
		// the new tree.
		st.Fx |= FxReleasePending
	}
	return st
}

// anchor builds or claims the requester's line and ejects the reply for its
// above-network completion.
func anchor(t *TreeLine, m ReplyMsg) Step {
	local := m.Arrival == network.Local
	st := Step{Act: Eject}
	switch {
	case t == nil:
		st.Fx = FxAlloc | FxNewGen
		st.New.OutstandingReq = true
		if !local {
			st.New.Links[m.Arrival] = true
		}
		st.New.IsRoot = m.Root
		st.New.RootDir = m.Arrival
		if m.Root {
			st.New.RootDir = network.DirNone
		}
		return st
	case t.Touched:
		if !t.OutstandingReq {
			return Step{Act: Stall}
		}
		// The line is being torn down with its acknowledgment held
		// for this very reply: the completion goes uncached and
		// releases the collapse.
		return st
	case m.Root:
		// The requester becomes the root of the fresh tree; remnant
		// links other than the construction path would dangle, and
		// remnant data is stale: scrub both.
		if t.LocalValid {
			st.Fx |= FxDropData
		}
		*t = TreeLine{IsRoot: true, RootDir: network.DirNone, Gen: t.Gen}
		if !local {
			t.Links[m.Arrival] = true
		}
		st.Fx |= FxNewGen
	case m.Built && !local && !t.Links[m.Arrival]:
		// A grafting reply re-entering the tree at the requester over
		// a link it just built: erase the sender's dangling bit.
		st.Fx |= FxUnlink
		st.Ack = m.Arrival
	}
	// The outstanding-request bit ties the completion to this line
	// generation (Figure 4's Req bit).
	t.OutstandingReq = true
	return st
}

// extend carries the reply one hop on from a node other than the
// requester.
func extend(t *TreeLine, s Site, m ReplyMsg) Step {
	local := m.Arrival == network.Local
	out := s.Topo.NextHop(s.Node, m.Requester)
	st := Step{Act: Forward, Out: out, Built: true}
	switch {
	case t == nil:
		st.Fx = FxAlloc | FxNewGen
		if m.Read {
			st.Fx |= FxReplicate
		}
		if !local {
			st.New.Links[m.Arrival] = true
		}
		st.New.Links[out] = true
		st.New.RootDir = m.Arrival
		if m.Root {
			st.New.RootDir = out
		}
	case t.Touched:
		return Step{Act: Stall}
	case m.Root:
		// A fresh-tree reply meeting a remnant (an orphaned branch):
		// stale data is invalidated and only the construction path's
		// links are kept, so no dangling link can hang a later
		// collapse.
		if t.LocalValid {
			st.Fx |= FxDropData
		}
		*t = TreeLine{RootDir: out, Gen: t.Gen}
		if !local {
			t.Links[m.Arrival] = true
		}
		t.Links[out] = true
		st.Fx |= FxNewGen
	default:
		// Grafting onto an existing tree. A reply that re-entered it
		// over a link built at the previous node must not record the
		// mirror bit (it could close a cycle): erase the sender's bit.
		if m.Built && !local && !t.Links[m.Arrival] {
			st.Fx |= FxUnlink
			st.Ack = m.Arrival
		}
		if m.Read && !t.LocalValid {
			st.Fx |= FxReplicate
		}
		// Prefer an existing link one hop closer to the requester;
		// otherwise extend the tree along the routing function.
		if d, ok := t.CloserLink(s.Topo, s.Node, m.Requester); ok {
			st.Out, st.Built = d, false
		} else {
			t.Links[out] = true
		}
	}
	return st
}

// Source is where a read request ejected at a node is served from.
type Source uint8

const (
	// FromTree serves the node's valid tree data.
	FromTree Source = iota
	// FromHome serves the home's victim copy or memory, under the
	// home-serve marker.
	FromHome
	// Reroute sends the request back into the network: the tree line
	// vanished while the request was above the network.
	Reroute
)

// Serve chooses the source for a read request ejected at the node;
// homeServe is the request's home-serve marker.
func Serve(t *TreeLine, homeServe bool) Source {
	switch {
	case t != nil && !t.Touched && t.LocalValid:
		return FromTree
	case homeServe:
		return FromHome
	}
	return Reroute
}

// Finish completes a reply at its requester: the anchored line takes the
// data (FxInstall), or, if its tree was torn down meanwhile, the access
// completes uncached and releases the held acknowledgment.
func Finish(t *TreeLine, s Site) Step {
	if t != nil && !t.Touched && t.OutstandingReq {
		t.LocalValid, t.OutstandingReq = true, false
		return Step{Fx: FxInstall}
	}
	return ReleaseHeld(t, s)
}
