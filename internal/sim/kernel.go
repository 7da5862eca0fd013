// Package sim provides the cycle-driven simulation kernel used by every
// component in the repository: a global clock, an ordered event queue for
// delayed callbacks (memory accesses, controller service times), and a
// deterministic pseudo-random number generator so that every experiment is
// exactly reproducible from its seed.
//
// The kernel advances in whole cycles. Within a cycle, due events fire first
// (in schedule order), then every active registered Ticker ticks once in
// registration order. Components that need sub-cycle ordering encode it by
// scheduling events rather than relying on ticker order.
//
// # Scheduling guarantee
//
// Schedule never fires a callback within the cycle that scheduled it: a
// delay of zero or less is clamped so the callback runs at the start of the
// next cycle. This next-cycle guarantee is what keeps component
// interactions race-free — a handler can never observe a half-updated peer
// in its own cycle. Schedule returns the effective fire cycle so callers
// that care (tests, schedulers layering their own timelines) can see the
// clamp instead of silently mispredicting it.
//
// # Active-set ticking
//
// Most tickers in a large simulation are idle in any given cycle: a 64-node
// mesh at low injection has a handful of routers carrying flits while the
// rest have empty FIFOs. Tickers that additionally implement Parker are
// therefore parked as soon as they report quiescence after a tick, and skip
// the per-cycle virtual call until woken with Wake (or WakeAt for a
// self-scheduled future wake). Waking is edge-triggered and idempotent:
// components wake a ticker whenever they hand it new work (packet enqueue,
// access completion), and a wake during the cycle's event phase — or from an
// earlier ticker in the same cycle — means the woken ticker still ticks in
// that same cycle, exactly as it would have under always-tick semantics. A
// parked ticker is, by its own contract, one whose Tick would have been a
// no-op, so simulation output is byte-identical to ticking everything every
// cycle; SetAlwaysTick(true) restores the exhaustive behavior for
// differential testing.
//
// When every ticker is parked, Run and RunUntil fast-forward the clock to
// the next scheduled event instead of stepping through cycles in which
// nothing can happen.
//
// # Staged tickers and the end of the cycle
//
// Tickers registered with RegisterStaged (the network's routers) tick with
// InTick reporting true. Their effects on other components — a flit handed
// to a neighbor, a callback for the event heap — are staged rather than
// applied mid-tick: Defer queues a call, and the rest waits in caller
// state (the network's link mailboxes) that an OnBarrier hook flushes.
// After every ticker has ticked, the hooks run in registration order and
// then the Defer queue drains in append order, which is ticker-ID order. Staging keeps a
// router's hand-off invisible to the routers after it in the same cycle, so
// queue-occupancy integrals and the flight-recorder sequence do not depend
// on where in the tick order a neighbor sits. See DESIGN.md's cycle-order
// section.
package sim

import "math/bits"

// Ticker is implemented by components that need to perform work every cycle,
// such as routers and network interfaces.
type Ticker interface {
	Tick(now int64)
}

// Parker is optionally implemented by tickers that can report quiescence.
// After ticking a Parker that reports Quiescent, the kernel parks it: the
// ticker is skipped every cycle until Kernel.Wake (or a WakeAt timer)
// reactivates it. A Parker must only report quiescence when its Tick would
// be a no-op for every cycle until one of its wake sources fires, so that
// parking never changes simulation output. Quiescent may have benign side
// effects (e.g. scheduling its own future wake with WakeAt).
type Parker interface {
	Ticker
	Quiescent() bool
}

// TickerID identifies a registered ticker; Register returns it and Wake and
// WakeAt take it. IDs are dense indexes in registration order.
type TickerID int

// event is a delayed callback (fn != nil) or a parked-ticker wake timer
// managed by the kernel's event heap.
type event struct {
	at   int64
	seq  uint64
	fn   func()
	wake TickerID // valid when fn == nil
}

// before reports heap ordering: by fire cycle, then schedule order. seq is
// unique, so (at, seq) is a total order and the pop sequence is independent
// of heap implementation details.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a hand-rolled binary min-heap. container/heap would box every
// pushed and popped event in an interface{}, allocating on the simulation's
// hottest non-tick path; the explicit version keeps Schedule/fire
// allocation-free outside slice growth.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the callback reference
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s[l].before(s[smallest]) {
			smallest = l
		}
		if r < n && s[r].before(s[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// tickerSlot is one registered ticker. Whether it is active lives in the
// kernel's active bitmap, not here.
type tickerSlot struct {
	t      Ticker
	parker Parker // non-nil when t implements Parker
	staged bool   // registered with RegisterStaged: ticks with InTick true
}

// deferredCall is one entry of the end-of-cycle queue: run fn there
// (delay <= 0) or push it onto the event heap with the given delay
// (delay >= 1, same clamp as Schedule).
type deferredCall struct {
	delay int64
	fn    func()
}

// Kernel is the cycle-driven simulation engine. The zero value is not ready
// for use; construct with NewKernel.
type Kernel struct {
	now        int64
	seq        uint64
	slots      []tickerSlot
	events     eventHeap
	pending    int // scheduled callbacks (fn events) not yet fired
	rng        *RNG
	alwaysTick bool

	// active is the active-ticker bitmap: bit id is set exactly when slot
	// id is active, so a cycle walks set bits instead of every slot.
	// nActive counts the set bits.
	active  []uint64
	nActive int

	// End-of-cycle staging (see the package comment). inTick is true
	// while a staged ticker ticks.
	inTick     bool
	deferred   []deferredCall
	barrierFns []func()

	// Occupancy accounting for ShardStats: cycles in which any ticker
	// ticked, and the active-ticker count summed over them.
	busyCycles int64
	activeSum  int64

	// Hang watchdog (SetWatchdog). fired counts events ever fired — the
	// kernel's own progress signal — and watchFn adds the caller's
	// domain progress (e.g. packets delivered). When the combined count
	// is unchanged across a watchW-cycle window while tickers are still
	// active, the system is livelocked and hung latches.
	watchW    int64
	watchFn   func() int64
	watchLast int64
	watchAt   int64
	fired     int64
	hung      bool
}

// NewKernel returns a kernel whose random number generator is seeded with
// seed. Two kernels built with the same seed and the same component
// registration order produce bit-identical simulations.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed)}
}

// Now returns the current cycle.
func (k *Kernel) Now() int64 { return k.now }

// RNG returns the kernel's deterministic random number generator.
func (k *Kernel) RNG() *RNG { return k.rng }

// Register adds t to the set of components ticked every cycle and returns
// its TickerID for Wake/WakeAt. Tickers tick in registration order, start
// active, and must all be registered before the first Step.
func (k *Kernel) Register(t Ticker) TickerID {
	s := tickerSlot{t: t}
	if p, ok := t.(Parker); ok {
		s.parker = p
	}
	k.slots = append(k.slots, s)
	id := TickerID(len(k.slots) - 1)
	if int(id)>>6 >= len(k.active) {
		k.active = append(k.active, 0)
	}
	k.Wake(id)
	return id
}

// RegisterStaged is Register for a ticker whose effects on other
// components are staged until the end of the cycle: InTick reports true
// while it ticks, and it reaches other components only through Defer and
// OnBarrier hooks.
func (k *Kernel) RegisterStaged(t Ticker) TickerID {
	id := k.Register(t)
	k.slots[id].staged = true
	return id
}

// Wake reactivates a parked ticker. Waking an active ticker is a no-op, so
// producers call it unconditionally when handing a component new work. A
// ticker woken during the current cycle's event phase, or by an
// earlier-registered ticker in the same cycle, ticks in that same cycle; a
// ticker woken by itself or by a later-registered one ticks next cycle.
func (k *Kernel) Wake(id TickerID) {
	w, b := int(id)>>6, uint64(1)<<(uint(id)&63)
	if k.active[w]&b == 0 {
		k.active[w] |= b
		k.nActive++
	}
}

// WakeAt arranges for the ticker to be woken at the start of the cycle
// delay cycles from now (clamped to the next cycle, like Schedule) and
// returns the effective wake cycle. Unlike Schedule it allocates no
// closure, and the timer does not count as a pending event: a wake timer
// carries no work of its own, so drain checks (Pending) ignore it.
func (k *Kernel) WakeAt(delay int64, id TickerID) int64 {
	if delay < 1 {
		delay = 1
	}
	k.seq++
	k.events.push(event{at: k.now + delay, seq: k.seq, wake: id})
	return k.now + delay
}

// SetAlwaysTick toggles the active-set optimization off (true) or on
// (false). With always-tick on, every registered ticker ticks every cycle —
// the exhaustive semantics the active-set mode must be byte-identical to —
// and Quiescent is never consulted. Enabling it also wakes every parked
// ticker.
func (k *Kernel) SetAlwaysTick(on bool) {
	k.alwaysTick = on
	if on {
		for i := range k.slots {
			k.Wake(TickerID(i))
		}
	}
}

// Schedule arranges for fn to run at the start of the cycle delay cycles
// from now and returns the effective fire cycle. A delay of zero or less is
// clamped to one — fn runs at the start of the next cycle — because events
// can never fire within the cycle that scheduled them (see the package
// comment's next-cycle guarantee); the returned cycle makes the clamp
// observable to callers instead of silent.
func (k *Kernel) Schedule(delay int64, fn func()) int64 {
	if delay < 1 {
		delay = 1
	}
	k.seq++
	k.events.push(event{at: k.now + delay, seq: k.seq, fn: fn})
	k.pending++
	return k.now + delay
}

// InTick reports whether a staged ticker is ticking. Code that runs both
// from event handlers and from a router's tick (the protocol layer's
// controller helpers) uses it to choose between Schedule and Defer.
func (k *Kernel) InTick() bool { return k.inTick }

// Defer queues fn for the end of the current cycle: with delay >= 1 it is
// then pushed onto the event heap exactly as Schedule(delay, fn) would;
// with delay <= 0 it runs there (still this cycle, after all ticks).
// Queued calls apply in Defer order, after the OnBarrier hooks.
func (k *Kernel) Defer(delay int64, fn func()) {
	k.deferred = append(k.deferred, deferredCall{delay: delay, fn: fn})
}

// OnBarrier registers a hook run at the end of every cycle, after all
// tickers have ticked and before the Defer queue drains. Hooks run in
// registration order; the network layer uses one to move mailboxed flits
// onto their destination routers' input FIFOs.
func (k *Kernel) OnBarrier(fn func()) {
	k.barrierFns = append(k.barrierFns, fn)
}

// Step advances the clock one cycle: the cycle counter increments, due
// events fire in schedule order (wake timers reactivate their tickers),
// active tickers tick in registration order — Parkers reporting quiescence
// are parked as they tick — then the OnBarrier hooks run and the Defer
// queue drains.
func (k *Kernel) Step() {
	k.now++
	for len(k.events) > 0 && k.events[0].at <= k.now {
		e := k.events.pop()
		if e.fn != nil {
			k.pending--
			k.fired++
			e.fn()
		} else {
			k.Wake(e.wake)
		}
	}
	if k.nActive > 0 {
		k.busyCycles++
		k.activeSum += int64(k.nActive)
		k.tick()
	}
	for _, fn := range k.barrierFns {
		fn()
	}
	k.drainDeferred()
	if k.watchW > 0 && k.now >= k.watchAt {
		p := k.fired
		if k.watchFn != nil {
			p += k.watchFn()
		}
		if p == k.watchLast && k.nActive > 0 {
			k.hung = true
		}
		k.watchLast = p
		k.watchAt = k.now + k.watchW
	}
}

// tick ticks every active ticker once in ascending ID order, parking
// quiescent Parkers. The walk follows the active bitmap word by word,
// re-reading each word as bits are consumed: a wake of a later-ID ticker
// during the walk is picked up in this same cycle, while a wake of an ID
// the walk has passed waits for the next cycle.
func (k *Kernel) tick() {
	bm := k.active
	for w := range bm {
		var done uint64
		for {
			word := bm[w] &^ done
			if word == 0 {
				break
			}
			b := bits.TrailingZeros64(word)
			// Mark every position up to b consumed, not just b: the walk
			// has passed them, so a wake landing on an earlier ID after
			// this waits for the next cycle.
			done |= ^uint64(0) >> uint(63-b)
			sl := &k.slots[w<<6+b]
			k.inTick = sl.staged
			sl.t.Tick(k.now)
			if !k.alwaysTick && sl.parker != nil && sl.parker.Quiescent() {
				bm[w] &^= 1 << uint(b)
				k.nActive--
			}
		}
	}
	k.inTick = false
}

// drainDeferred applies the end-of-cycle queue in append order.
func (k *Kernel) drainDeferred() {
	q := k.deferred
	for i := range q {
		d := q[i]
		if d.delay <= 0 {
			d.fn()
		} else {
			k.Schedule(d.delay, d.fn)
		}
		q[i] = deferredCall{} // drop the closure reference
	}
	k.deferred = q[:0]
}

// SetWatchdog arms the hang watchdog: if, over any window cycles, no event
// fires and the caller-supplied progress counter does not advance while at
// least one ticker remains active, the kernel declares the simulation hung
// — Run and RunUntil stop stepping and Hung reports true. Active tickers
// making no progress is the livelock signature; a fully parked system is
// legitimately idle (it fast-forwards) and never trips. progress may be
// nil; window <= 0 disarms. The watchdog is pure observation: it never
// changes scheduling, so an armed run that does not hang is byte-identical
// to an unarmed one.
func (k *Kernel) SetWatchdog(window int64, progress func() int64) {
	k.watchW = window
	k.watchFn = progress
	k.watchLast = -1
	k.watchAt = k.now + window
	k.hung = false
}

// Hung reports whether the watchdog has tripped.
func (k *Kernel) Hung() bool { return k.hung }

// skipIdle fast-forwards the clock when every ticker is parked: nothing can
// change state until the next scheduled event (or timer), so jump to the
// cycle before it and let Step fire it. The clock never passes limit-1, so
// callers' loop bounds hold exactly. Returns whether a skip happened.
func (k *Kernel) skipIdle(limit int64) bool {
	if k.nActive != 0 || k.alwaysTick {
		return false
	}
	target := limit - 1
	if len(k.events) > 0 && k.events[0].at-1 < target {
		target = k.events[0].at - 1
	}
	if target <= k.now {
		return false
	}
	k.now = target
	return true
}

// Run steps the kernel until the clock reaches cycle end (or the watchdog
// trips), fast-forwarding through stretches where every ticker is parked.
func (k *Kernel) Run(end int64) {
	for k.now < end && !k.hung {
		k.skipIdle(end)
		k.Step()
	}
}

// RunUntil steps the kernel until done reports true or maxCycles cycles have
// elapsed, and returns whether done was reached. Stretches where every
// ticker is parked are fast-forwarded: done is re-evaluated only when
// something could have changed it. A watchdog trip stops stepping early —
// by the watchdog's own criterion no further progress was coming.
func (k *Kernel) RunUntil(done func() bool, maxCycles int64) bool {
	limit := k.now + maxCycles
	for k.now < limit {
		if done() {
			return true
		}
		if k.hung {
			return false
		}
		k.skipIdle(limit)
		k.Step()
	}
	return done()
}

// Pending reports the number of unfired scheduled callbacks, used by drain
// checks at the end of a simulation. Parked-ticker wake timers are not
// counted: they carry no work.
func (k *Kernel) Pending() int { return k.pending }
