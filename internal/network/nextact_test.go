package network

import (
	"math/rand"
	"testing"

	"innetcc/internal/sim"
)

// holdPolicy routes X-Y but stalls a seeded subset of (packet, router)
// pairs for a few cycles after the packet first becomes ready there, and
// at a packet's source spawns an expedited chaser for every seventh id.
// Its decisions depend only on the packet, the router and the cycle, so
// two fabrics fed the same traffic see the same Route calls exactly when
// they tick the same way.
type holdPolicy struct {
	firstReady map[[2]uint64]int64
	spawned    map[uint64]bool
}

func newHoldPolicy() *holdPolicy {
	return &holdPolicy{firstReady: map[[2]uint64]int64{}, spawned: map[uint64]bool{}}
}

func (h *holdPolicy) Route(r *Router, p *Packet, now int64) Steer {
	key := [2]uint64{p.ID, uint64(r.NodeID)}
	first, seen := h.firstReady[key]
	if !seen {
		h.firstReady[key] = now
		first = now
	}
	if mix := p.ID*0x9e3779b97f4a7c15 + uint64(r.NodeID)*0xbf58476d1ce4e5b9; mix>>61 == 0 {
		if now < first+1+int64(mix>>20%4) {
			return Steer{Stall: true}
		}
	}
	st := Steer{Out: r.Topo().NextHop(r.NodeID, p.Dst)}
	if r.NodeID == p.Src && p.Hops == 0 && p.ID%7 == 0 && !h.spawned[p.ID] {
		h.spawned[p.ID] = true
		st.Spawn = []*Packet{{
			ID: r.mesh.NextIDFor(r.NodeID), Src: p.Src, Dst: p.Dst, Flits: 1,
			Class: p.Class, Expedited: true,
		}}
	}
	return st
}

type ejection struct {
	id uint64
	at int64
}

// skipFabric builds a 4x4, 2-VC mesh with extra hop delay on two routers
// and schedules seeded multi-flit traffic on it as kernel events, so the
// traffic lands in the same cycle phase on any kernel.
func skipFabric(seed int64, alwaysTick bool) (*sim.Kernel, *Mesh, *[]ejection) {
	k := sim.NewKernel(1)
	m := Build(k, Config{Topo: Mesh2D{W: 4, H: 4}, Pipeline: 2, VCs: 2, Policy: newHoldPolicy()})
	m.Routers[5].ExtraHopDelay = 3
	m.Routers[10].ExtraHopDelay = 1
	if alwaysTick {
		k.SetAlwaysTick(true)
	}
	var ejected []ejection
	m.EjectFn = func(_ int, p *Packet, now int64) {
		ejected = append(ejected, ejection{p.ID, now})
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 300; i++ {
		at := 1 + rng.Int63n(600)
		src, dst := rng.Intn(16), rng.Intn(16)
		flits, class := 1+rng.Intn(6), VC(rng.Intn(2))
		k.Schedule(at, func() {
			m.Inject(src, &Packet{ID: m.NextIDFor(src), Src: src, Dst: dst, Flits: flits, Class: class}, k.Now())
		})
	}
	return k, m, &ejected
}

func meshDigest(m *Mesh) uint64 {
	d := sim.NewDigest()
	m.DigestState(d)
	return d.Sum()
}

// TestNextActionSkipMatchesAlwaysTick is the router-level differential for
// the next-action skip: the same traffic on an active-set kernel (routers
// skip the cycles before their next action) and on the always-tick oracle
// (every router runs its full tick every cycle) must eject the same packets
// in the same cycles and leave the same mesh state after every cycle.
func TestNextActionSkipMatchesAlwaysTick(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ka, ma, ejA := skipFabric(seed, false)
		kb, mb, ejB := skipFabric(seed, true)
		skipped := 0
		for cycle := 1; ; cycle++ {
			ka.Step()
			kb.Step()
			if da, db := meshDigest(ma), meshDigest(mb); da != db {
				t.Fatalf("seed %d: mesh digests diverge after cycle %d: %#x vs always-tick %#x", seed, cycle, da, db)
			}
			if len(*ejA) != len(*ejB) {
				t.Fatalf("seed %d cycle %d: %d ejections vs always-tick %d", seed, cycle, len(*ejA), len(*ejB))
			}
			for i := range *ejA {
				if (*ejA)[i] != (*ejB)[i] {
					t.Fatalf("seed %d: ejection %d is %+v, always-tick %+v", seed, i, (*ejA)[i], (*ejB)[i])
				}
			}
			for node := range ma.Routers {
				if ma.queued[node] > 0 && ma.nextAct[node] > ka.Now()+1 {
					skipped++
				}
			}
			if cycle > 600 && ma.InFlight == 0 && ka.Pending() == 0 {
				break
			}
			if cycle > 20000 {
				t.Fatalf("seed %d: traffic did not drain (%d in flight)", seed, ma.InFlight)
			}
		}
		if skipped == 0 {
			t.Fatalf("seed %d: no router ever slept past the next cycle; the skip path went untested", seed)
		}
		if len(*ejA) < 300 {
			t.Fatalf("seed %d: only %d ejections", seed, len(*ejA))
		}
	}
}

// steerByPayload sends a "local" packet out of the local port and an
// "east" packet east; every other router ejects.
type steerByPayload struct{}

func (steerByPayload) Route(r *Router, p *Packet, _ int64) Steer {
	if r.NodeID == 4 && p.Payload == "east" {
		return Steer{Out: East}
	}
	return Steer{Out: Local}
}

// TestOnePassArbitrationGrantsOldestFirst pins the single-walk output
// arbitration: three heads on different input ports contend for the local
// output and must be granted one per cycle in routing order, which here
// differs from both slot order and its reverse; a fourth head routed east
// is granted in the first grant cycle too.
func TestOnePassArbitrationGrantsOldestFirst(t *testing.T) {
	k := sim.NewKernel(1)
	m := testMesh(k, 3, 3, 1, 1, steerByPayload{})
	var ejected []ejection
	m.EjectFn = func(_ int, p *Packet, now int64) { ejected = append(ejected, ejection{p.ID, now}) }
	const node = 4
	put := func(port Dir, readyAt int64, payload string) uint64 {
		p := &Packet{ID: m.NextIDFor(node), Src: node, Dst: node, Flits: 1, Payload: payload}
		m.InFlight++
		m.enqueueAt(node, int(port), 0, fifoEntry{pkt: p, readyAt: readyAt})
		return p.ID
	}
	// Routing order (routeSeq) is A, B, C; slot order is B (North), A
	// (East), C (West).
	a := put(East, 1, "local")
	b := put(North, 2, "local")
	c := put(West, 3, "local")
	d := put(Local, 1, "east")
	// Both outputs are serializing until cycle 4, so every head is routed
	// before the first grant.
	m.busyTill[node*m.numOut+m.localSlot()] = 4
	m.busyTill[node*m.numOut+int(East)] = 4
	for k.Now() < 3 {
		k.Step()
	}
	if q := m.Routers[node].QueuedPackets(); q != 4 {
		t.Fatalf("%d packets queued before the first grant cycle, want 4", q)
	}
	k.Step() // cycle 4: first grants
	if q := m.Routers[5].QueuedPackets(); q != 1 {
		t.Fatalf("east output did not grant in the first grant cycle (router 5 holds %d)", q)
	}
	if q := m.Routers[node].QueuedPackets(); q != 2 {
		t.Fatalf("%d packets left after the first grant cycle, want 2", q)
	}
	if !k.RunUntil(func() bool { return len(ejected) == 4 }, 100) {
		t.Fatalf("only %d ejections", len(ejected))
	}
	want := []ejection{{a, 5}, {b, 6}, {c, 7}}
	var got []ejection
	for _, e := range ejected {
		if e.id != d {
			got = append(got, e)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("local-output ejections %+v, want %+v (oldest routing decision first, one per cycle)", got, want)
		}
	}
}
