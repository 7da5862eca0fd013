package network

import (
	"fmt"
	"sync/atomic"

	"innetcc/internal/fault"
	"innetcc/internal/metrics"
	"innetcc/internal/sim"
)

// Router port slots. A router on a degree-d topology has d inter-router
// ports (slots 0..d-1, identified by Dir values), then the local port
// (slot d: NIC injection in, ejection out), then the generation port
// (slot d+1, input only: protocol-spawned packets). On the 4-port mesh
// this reproduces the historical fixed layout N,S,E,W,Local,Gen exactly,
// so scan order, arbitration order, fault-site numbering and digests are
// unchanged there.
//
// Router state lives in structure-of-arrays form on the Mesh — flat slices
// indexed by router id (and port/VC within a router) rather than fields on
// per-Router heap objects. The kernel ticks routers in id order, so the
// tick loop streams through contiguous memory: FIFO headers, busy counters
// and arbitration stamps of neighboring routers share cache lines instead
// of being scattered across individually allocated objects. The Router
// type remains as a thin per-node handle carrying only identity and
// per-node configuration.

type fifoEntry struct {
	pkt     *Packet
	readyAt int64 // cycle the head flit clears this router's pipeline
}

// Router is one fabric router's handle: identity plus per-node
// configuration. The mutable hot state (FIFOs, credit counters,
// arbitration stamps, free-lists) lives in the Mesh's flat arrays, indexed
// by NodeID.
type Router struct {
	// NodeID is the router's position, equal to the attached node's id.
	NodeID int
	mesh   *Mesh

	// ExtraHopDelay is added to every packet's per-hop pipeline time at
	// this router. The Figure 10 experiment uses it to model an
	// above-network tree-cache implementation where each lookup must
	// leave and re-enter the router.
	ExtraHopDelay int64
}

// Topo returns the fabric the router is wired into: the narrow accessor
// routing policies use for next-hop, distance and neighbor queries.
func (r *Router) Topo() Topology { return r.mesh.Topo }

// fifoQueue is a growable ring buffer of fifoEntries. Unlike the obvious
// `q = q[1:]` slice queue, a ring never strands capacity behind the read
// point, so a router in steady state pushes and pops with zero allocations.
type fifoQueue struct {
	buf     []fifoEntry
	head, n int
}

func (f *fifoQueue) push(e fifoEntry) {
	if f.n == len(f.buf) {
		grown := make([]fifoEntry, max(4, 2*len(f.buf)))
		for i := 0; i < f.n; i++ {
			grown[i] = f.buf[(f.head+i)%len(f.buf)]
		}
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)%len(f.buf)] = e
	f.n++
}

func (f *fifoQueue) head0() *fifoEntry {
	if f.n == 0 {
		return nil
	}
	return &f.buf[f.head]
}

func (f *fifoQueue) pop() fifoEntry {
	e := f.buf[f.head]
	f.buf[f.head] = fifoEntry{}
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return e
}

// Mesh is a fabric of routers sharing one routing Policy; the name is
// historical — the wiring is whatever Topo says.
type Mesh struct {
	Topo     Topology
	Pipeline int64
	VCCount  int
	Routers  []*Router
	Policy   Policy

	kernel *sim.Kernel

	// deg is Topo.Degree(); numIn/numOut the derived port-slot counts
	// (deg inter-router + local + gen in, deg inter-router + local out).
	deg, numIn, numOut int

	// Structure-of-arrays router state. fifos holds every router's input
	// FIFOs flattened as [(node*numIn + port)*VCCount + vc] — a router's
	// slots are contiguous, port-major then VC, matching the historical
	// per-router scan order. busyTill is the per-output-link credit state
	// at [node*numOut + out]; queued counts packets across a router's
	// FIFOs (its park/wake signal); routeSeq stamps routing decisions for
	// age-based arbitration and idSeq allocates packet ids, both per
	// router (arbitration only ever compares stamps issued by the same
	// router, so per-router stamping grants identically to a global
	// counter). freePkts is the per-router packet free-list — packets
	// recycle at the router where they die — and tids the kernel ticker
	// ids for wakes.
	fifos    []fifoQueue
	busyTill []int64
	queued   []int32
	routeSeq []uint64
	idSeq    []uint64
	freePkts [][]*Packet
	tids     []sim.TickerID

	// stage holds the cycle's router effects on other routers and on
	// the protocol, applied at the end of the cycle (flush).
	stage cycleStage

	// EjectFn is invoked (one cycle after the grant) when a packet
	// leaves through a router's local ejection port. It must be set
	// before traffic flows.
	EjectFn func(node int, p *Packet, now int64)

	// CloneFn, when non-nil, deep-copies a packet payload for multicast
	// forks (DestPolicy cloning a packet at a fan-out router). Without it
	// forks share the payload pointer, which is only safe for payloads
	// the receiving protocol treats as immutable.
	CloneFn func(payload interface{}) interface{}

	// InFlight is the number of packets currently inside the network.
	InFlight int

	// Metrics, when non-nil, receives per-router instrumentation (link
	// occupancy, grants, arbitration stalls, queue integrals). It is
	// purely observational: routing, arbitration and timing are identical
	// with it on or off.
	Metrics *metrics.NoC

	// DeliverFn, when non-nil, observes every packet leaving the network
	// — ejections through a local port (consumed=false) and in-network
	// consumptions by the policy (consumed=true) — before the protocol
	// handler runs. Observational only.
	DeliverFn func(p *Packet, consumed bool, now int64)

	// Faults, when non-nil, arms deterministic fault injection: packets
	// are checksummed at injection and verified before every routing
	// decision, and the injector's plan is consulted at each inter-router
	// link grant for drops, corruptions and stalls. Local ejection ports
	// are never faulted — drops model link failures, and losing a packet
	// inside a node's NIC hand-off would wedge protocol serialization
	// state no retry can release.
	Faults *fault.Injector

	// DropFn, when non-nil, is invoked for every packet the fault layer
	// removes (injected drops and checksum discards), before the packet is
	// recycled. Drops detected during a router tick are reported at the
	// end of that cycle, in router-id order. The protocol layer uses DropFn
	// as a NACK source: a dropped request chain triggers an immediate
	// backoff-and-reissue instead of waiting out the reply timeout.
	DropFn func(p *Packet, reason fault.DropReason, now int64)

	// TotalHops and DeliveredPackets accumulate across the run.
	TotalHops        int64
	DeliveredPackets int64
}

// Config describes a fabric to Build: the topology it is wired into, the
// per-router pipeline depth, the virtual-channel count and the routing
// policy. Zero Pipeline defaults to 1 cycle and zero VCs to one channel;
// Topo and Policy are required.
type Config struct {
	Topo     Topology
	Pipeline int64
	VCs      int
	Policy   Policy

	// Clone, when set, becomes the mesh's CloneFn (payload deep-copy for
	// multicast forks).
	Clone func(payload interface{}) interface{}
}

// Validate normalizes defaults in place and reports structural errors
// Build would panic on.
func (c *Config) Validate() error {
	if c.Pipeline == 0 {
		c.Pipeline = 1
	}
	if c.VCs == 0 {
		c.VCs = 1
	}
	switch {
	case c.Topo == nil:
		return fmt.Errorf("network: Config.Topo is required")
	case c.Topo.Nodes() < 1 || c.Topo.Degree() < 1 || c.Topo.Degree() > MaxDegree:
		return fmt.Errorf("network: topology %s has %d nodes, degree %d", c.Topo.Spec(), c.Topo.Nodes(), c.Topo.Degree())
	case c.Pipeline < 1:
		return fmt.Errorf("network: pipeline depth %d < 1", c.Pipeline)
	case c.VCs < 1:
		return fmt.Errorf("network: VC count %d < 1", c.VCs)
	case c.Policy == nil:
		return fmt.Errorf("network: Config.Policy is required")
	}
	return nil
}

// Build constructs the fabric described by cfg, registers every router
// with the kernel, and wires the policy in. Routers park themselves
// whenever their FIFOs drain and are woken by injection, protocol spawning
// and neighbor hand-off, so an idle router costs the kernel nothing beyond
// a cleared bit in its active bitmap. Panics on an invalid Config —
// construction errors are programming errors, exactly as the old
// positional constructor treated them.
func Build(k *sim.Kernel, cfg Config) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nodes := cfg.Topo.Nodes()
	m := &Mesh{
		Topo:     cfg.Topo,
		Pipeline: cfg.Pipeline,
		VCCount:  cfg.VCs,
		Policy:   cfg.Policy,
		CloneFn:  cfg.Clone,
		kernel:   k,
		deg:      cfg.Topo.Degree(),
	}
	m.numIn = m.deg + 2  // inter-router + local + gen
	m.numOut = m.deg + 1 // inter-router + local
	m.fifos = make([]fifoQueue, nodes*m.numIn*cfg.VCs)
	m.busyTill = make([]int64, nodes*m.numOut)
	m.queued = make([]int32, nodes)
	m.routeSeq = make([]uint64, nodes)
	m.idSeq = make([]uint64, nodes)
	m.freePkts = make([][]*Packet, nodes)
	m.tids = make([]sim.TickerID, nodes)
	for i := 0; i < nodes; i++ {
		r := &Router{NodeID: i, mesh: m}
		m.Routers = append(m.Routers, r)
		m.tids[i] = k.RegisterStaged(r)
	}
	k.OnBarrier(m.flush)
	return m
}

// localSlot and genSlot are the port slots of the local and generation
// ports; slotDir maps an output slot back to its Dir (inter-router ports
// by number, the local slot to Local).
func (m *Mesh) localSlot() int { return m.deg }
func (m *Mesh) genSlot() int   { return m.deg + 1 }

func (m *Mesh) slotDir(s int) Dir {
	if s == m.deg {
		return Local
	}
	return Dir(s)
}

// outSlotOf maps a policy's Steer.Out direction to an output slot, or -1
// if the direction is not a port on this fabric.
func (m *Mesh) outSlotOf(d Dir) int {
	if d == Local {
		return m.deg
	}
	if int(d) < m.deg {
		return int(d)
	}
	return -1
}

// fifoAt returns the FIFO of (node, port slot, vc) in the flat array.
func (m *Mesh) fifoAt(node, port, vc int) *fifoQueue {
	return &m.fifos[(node*m.numIn+port)*m.VCCount+vc]
}

// cycleStage is the mesh's cycle-local staging state. Routers append to
// it as they tick; flush applies it at the end of the cycle in append
// order, which is router-id order. A hand-off thus never reaches a router
// that ticks later in the same cycle, so a router's queue occupancy does
// not depend on its neighbor's position in the tick order.
type cycleStage struct {
	xfers    []xferRec
	drops    []dropRec
	delivers []deliverRec
}

// xferRec is a flit hand-off crossing a router boundary: the link mailbox.
// Applying it at the end of the cycle instead of mid-tick is safe because
// the entry only becomes routable at readyAt, at least two cycles out.
type xferRec struct {
	to   int // receiving router id
	port int // input port slot at the receiver
	vc   int
	e    fifoEntry
}

// dropRec defers a fault-layer removal's DropFn callback (and the recycle
// that must follow it) to the end of the cycle.
type dropRec struct {
	node   int // router the packet died at
	p      *Packet
	reason fault.DropReason
}

// deliverRec defers an in-network consumption's DeliverFn callback (and
// recycle) to the end of the cycle. Only staged when DeliverFn is armed.
type deliverRec struct {
	node int
	p    *Packet
}

// flush is the mesh's end-of-cycle kernel hook: apply the staged
// hand-offs, then drops, then in-network deliveries.
func (m *Mesh) flush() {
	now := m.kernel.Now()
	st := &m.stage
	for i := range st.xfers {
		x := &st.xfers[i]
		m.enqueueAt(x.to, x.port, x.vc, x.e)
		st.xfers[i] = xferRec{}
	}
	st.xfers = st.xfers[:0]
	for i := range st.drops {
		d := st.drops[i]
		m.DropFn(d.p, d.reason, now)
		m.recycleAt(d.node, d.p)
		st.drops[i] = dropRec{}
	}
	st.drops = st.drops[:0]
	for i := range st.delivers {
		d := st.delivers[i]
		m.DeliverFn(d.p, true, now)
		m.recycleAt(d.node, d.p)
		st.delivers[i] = deliverRec{}
	}
	st.delivers = st.delivers[:0]
}

// Nodes returns the number of routers in the fabric.
func (m *Mesh) Nodes() int { return len(m.Routers) }

// InPorts and OutPorts export the router port-slot counts for
// instrumentation sizing (metrics.NewNoC).
func (m *Mesh) InPorts() int  { return m.numIn }
func (m *Mesh) OutPorts() int { return m.numOut }

// NextIDFor allocates a fresh packet id from node's router-local sequence.
// The node id is folded into the high bits so per-router sequences never
// collide; nothing in routing or arbitration compares ids, so the numbering
// scheme is unobservable beyond uniqueness.
func (m *Mesh) NextIDFor(node int) uint64 {
	m.idSeq[node]++
	return uint64(node)<<40 | m.idSeq[node]
}

// AllocPacketFor returns a zeroed packet from node's router-local free-list
// (or a fresh one). The mesh recycles it automatically when it leaves the
// network — through a local ejection port, after EjectFn returns, or when
// the policy consumes it in-network — so callers must not retain pool
// packets past those points. Protocol engines build all their traffic
// through this.
func (m *Mesh) AllocPacketFor(node int) *Packet {
	free := m.freePkts[node]
	if n := len(free); n > 0 {
		p := free[n-1]
		m.freePkts[node] = free[:n-1]
		*p = Packet{pooled: true}
		return p
	}
	return &Packet{pooled: true}
}

// recycleAt returns a dead pool packet to the free-list of the router it
// died at. Literal-built packets pass through untouched.
func (m *Mesh) recycleAt(node int, p *Packet) {
	if p.pooled {
		p.Payload = nil
		p.DstSet = nil
		m.freePkts[node] = append(m.freePkts[node], p)
	}
}

// enqueueAt appends e to node's [port][vc] FIFO and wakes the router: it
// now has work and must tick until it drains again.
func (m *Mesh) enqueueAt(node, port, vc int, e fifoEntry) {
	m.fifoAt(node, port, vc).push(e)
	m.queued[node]++
	m.kernel.Wake(m.tids[node])
}

// Quiescent implements sim.Parker: a router with empty FIFOs has nothing to
// route or arbitrate (busyTill holds an absolute cycle, so an in-flight
// serialization tail needs no ticking to expire), and every path that hands
// the router a packet wakes it.
func (r *Router) Quiescent() bool { return r.mesh.queued[r.NodeID] == 0 }

// Inject places a packet into node's router through the local injection
// port. The packet becomes routable after the router pipeline.
func (m *Mesh) Inject(node int, p *Packet, now int64) {
	p.ArrivalDir = Local
	p.InjectedAt = now
	p.routed = false
	p.stallStart = 0
	p.serialWait = 0
	if m.Faults != nil {
		p.Checksum = ChecksumOf(p)
	}
	m.InFlight++
	m.enqueueAt(node, m.localSlot(), int(p.Class)%m.VCCount,
		fifoEntry{pkt: p, readyAt: now + m.Pipeline + m.Routers[node].ExtraHopDelay})
}

// spawn places a protocol-generated packet into node's generation port.
// Expedited packets are ready immediately (their routing work happened in
// the pipeline pass that spawned them); others pay the router pipeline.
func (m *Mesh) spawn(node int, p *Packet, now int64) {
	r := m.Routers[node]
	p.ArrivalDir = Local
	if p.InjectedAt == 0 {
		p.InjectedAt = now
	}
	p.routed = false
	p.stallStart = 0
	p.serialWait = 0
	if m.Faults != nil {
		p.Checksum = ChecksumOf(p)
	}
	m.InFlight++
	delay := m.Pipeline + r.ExtraHopDelay
	if p.Expedited {
		delay = 0
	}
	m.enqueueAt(node, m.genSlot(), int(p.Class)%m.VCCount, fifoEntry{pkt: p, readyAt: now + delay})
}

// Spawn is the exported form of spawn for protocol engines that generate
// packets outside a Route call (e.g. releasing a queued request).
func (m *Mesh) Spawn(node int, p *Packet, now int64) { m.spawn(node, p, now) }

// Tick advances one router by one cycle: consult the policy for newly ready
// packets, then arbitrate each output port. Effects on other routers and
// on the protocol's delivery and drop hooks go through the mesh's staging
// records (see cycleStage). The fifos/busy locals below are the router's
// contiguous array bands; every FIFO scan in both phases walks them
// linearly (port-major, VC-minor — the flat layout's element order).
func (r *Router) Tick(now int64) {
	m := r.mesh
	node := r.NodeID
	stage := &m.stage
	nm := m.Metrics
	nSlots := m.numIn * m.VCCount
	fifos := m.fifos[node*nSlots : (node+1)*nSlots]
	busy := m.busyTill[node*m.numOut : (node+1)*m.numOut]
	if nm != nil {
		// Integrate input-FIFO occupancy (packet-cycles) per port/VC.
		base := nm.InIdx(node, 0, 0)
		for slot := 0; slot < nSlots; slot++ {
			nm.QueueSum[base+slot] += int64(fifos[slot].n)
		}
	}
	// Phase 1: routing decisions for FIFO heads that cleared the pipeline.
	for slot := 0; slot < nSlots; slot++ {
		h := fifos[slot].head0()
		if h == nil || h.readyAt > now || h.pkt.routed {
			continue
		}
		p := h.pkt
		if inj := m.Faults; inj != nil && p.Checksum != ChecksumOf(p) {
			// Corruption detected: discard before the policy (and
			// its tree-cache side effects) ever sees the packet.
			atomic.AddInt64(&inj.ChecksumDrops, 1)
			fifos[slot].pop()
			m.queued[node]--
			m.InFlight--
			if m.DropFn != nil {
				stage.drops = append(stage.drops, dropRec{node: node, p: p, reason: fault.DropChecksum})
			} else {
				m.recycleAt(node, p)
			}
			continue
		}
		st := m.Policy.Route(r, p, now)
		for _, sp := range st.Spawn {
			m.spawn(node, sp, now)
		}
		switch {
		case st.Consume:
			fifos[slot].pop()
			m.queued[node]--
			m.InFlight--
			m.DeliveredPackets++
			m.TotalHops += int64(p.Hops)
			if m.DeliverFn != nil {
				stage.delivers = append(stage.delivers, deliverRec{node: node, p: p})
			} else {
				m.recycleAt(node, p)
			}
		case st.Stall:
			if p.stallStart == 0 {
				p.stallStart = now
			}
			if nm != nil {
				nm.PolicyStalls[node]++
			}
		default:
			outSlot := m.outSlotOf(st.Out)
			if outSlot < 0 {
				panic(fmt.Sprintf("network: policy steered packet %d to invalid port %v on %s", p.ID, st.Out, m.Topo.Spec()))
			}
			p.routed = true
			p.outSlot = outSlot
			p.stallStart = 0
			m.routeSeq[node]++
			p.routeSeq = m.routeSeq[node]
		}
	}
	// Phase 2: output arbitration, one grant per output port per cycle.
	// Arbitration is age-based (oldest routing decision wins): a message
	// spawned by the protocol in reaction to a routed packet (e.g. a
	// teardown chasing the reply that just built a virtual link) can
	// then never overtake that packet onto the link, which the
	// in-network protocol's correctness argument requires.
	local := m.localSlot()
	for out := 0; out < m.numOut; out++ {
		if inj := m.Faults; inj != nil && out != local &&
			inj.StallAt(now, node, out) {
			// The link is frozen by a stall fault this cycle: no grant,
			// exactly as if it were still serializing.
			continue
		}
		if busy[out] > now {
			if nm != nil {
				// The link is still serializing a previous packet's
				// flits: charge routed heads waiting for it.
				for slot := 0; slot < nSlots; slot++ {
					h := fifos[slot].head0()
					if h != nil && h.pkt.routed && h.pkt.outSlot == out {
						h.pkt.serialWait++
						nm.SerialWait[nm.OutIdx(node, out)]++
					}
				}
			}
			continue
		}
		granted := -1
		var bestSeq uint64
		for slot := 0; slot < nSlots; slot++ {
			h := fifos[slot].head0()
			if h == nil || !h.pkt.routed || h.pkt.outSlot != out {
				continue
			}
			if granted < 0 || h.pkt.routeSeq < bestSeq {
				granted = slot
				bestSeq = h.pkt.routeSeq
			}
		}
		if granted < 0 {
			continue
		}
		e := fifos[granted].pop()
		m.queued[node]--
		p := e.pkt
		p.routed = false
		if inj := m.Faults; inj != nil && out != local &&
			(inj.Plan.Spec.Scope == fault.ScopeAll || p.Retryable) &&
			inj.DropAt(now, node, out) {
			// The packet is lost on the link: it leaves the network
			// without being delivered (no hop/delivery accounting, no
			// link occupancy) and the protocol is notified so it can
			// reissue. The grant slot is consumed — a drop does not
			// free the cycle for the next-oldest packet.
			m.InFlight--
			if m.DropFn != nil {
				stage.drops = append(stage.drops, dropRec{node: node, p: p, reason: fault.DropInjected})
			} else {
				m.recycleAt(node, p)
			}
			continue
		}
		busy[out] = now + int64(p.Flits)
		if nm != nil {
			oi := nm.OutIdx(node, out)
			nm.Grants[oi]++
			nm.LinkBusy[oi] += int64(p.Flits)
		}
		if out == local {
			// Ejection is protocol work (EjectFn reaches into controller
			// state); it is deferred to the end of the cycle and lands on
			// the event heap one cycle out.
			m.kernel.Defer(1, func() {
				m.InFlight--
				m.DeliveredPackets++
				m.TotalHops += int64(p.Hops)
				if m.DeliverFn != nil {
					m.DeliverFn(p, false, m.kernelNow())
				}
				m.EjectFn(node, p, m.kernelNow())
				m.recycleAt(node, p)
			})
			continue
		}
		nb, ok := m.Topo.Neighbor(node, Dir(out))
		if !ok {
			panic(fmt.Sprintf("network: packet %d routed off-fabric %v from node %d on %s", p.ID, Dir(out), node, m.Topo.Spec()))
		}
		if inj := m.Faults; inj != nil && inj.CorruptAt(now, node, out) {
			// Flip the integrity word on the wire; the neighbor's
			// verification discards the packet before routing it.
			p.Checksum = ^p.Checksum
		}
		p.ArrivalDir = m.Topo.Arrival(Dir(out))
		p.Hops++
		// Hand-off goes through the link mailbox and lands on the
		// neighbor's FIFO at the end of the cycle, whether the neighbor
		// ticks before or after this router. Timing is unchanged: the
		// entry only becomes routable at readyAt, at least two cycles out.
		stage.xfers = append(stage.xfers, xferRec{
			to:   nb,
			port: int(p.ArrivalDir),
			vc:   granted % m.VCCount,
			e:    fifoEntry{pkt: p, readyAt: now + 1 + m.Pipeline + m.Routers[nb].ExtraHopDelay},
		})
	}
}

func (m *Mesh) kernelNow() int64 { return m.kernel.Now() }

// QueuedPackets returns the number of packets waiting in this router's
// FIFOs, for drain checks and tests.
func (r *Router) QueuedPackets() int { return int(r.mesh.queued[r.NodeID]) }
