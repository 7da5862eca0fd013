package sim

import (
	"reflect"
	"testing"
)

// tickFunc adapts a function to the Ticker interface.
type tickFunc func(now int64)

func (f tickFunc) Tick(now int64) { f(now) }

// parkTicker is a Parker that records the cycle of every tick and parks
// whenever its work counter is zero.
type parkTicker struct {
	tid    TickerID
	work   int
	ticks  []int64
	onTick func(now int64)
}

func (p *parkTicker) Tick(now int64) {
	p.ticks = append(p.ticks, now)
	if p.work > 0 {
		p.work--
	}
	if p.onTick != nil {
		p.onTick(now)
	}
}

func (p *parkTicker) Quiescent() bool { return p.work == 0 }

// TestDeferDrainsInTickerOrder checks that calls deferred by staged
// tickers apply at the end of the cycle in ticker-ID order.
func TestDeferDrainsInTickerOrder(t *testing.T) {
	k := NewKernel(1)
	var log []int
	for i := 0; i < 70; i++ {
		i := i
		k.RegisterStaged(tickFunc(func(int64) {
			k.Defer(0, func() { log = append(log, i) })
		}))
	}
	k.Run(3)
	if len(log) != 3*70 {
		t.Fatalf("drained %d calls, want %d", len(log), 3*70)
	}
	for i, id := range log {
		if id != i%70 {
			t.Fatalf("drain position %d ran ticker %d, want %d", i, id, i%70)
		}
	}
}

// TestInTickOnlyForStagedTickers checks that InTick is true exactly while
// a staged ticker ticks: not for plain tickers, events, hooks or the drain.
func TestInTickOnlyForStagedTickers(t *testing.T) {
	k := NewKernel(1)
	var seen []string
	note := func(what string) {
		if k.InTick() {
			what += "+staged"
		}
		seen = append(seen, what)
	}
	k.Register(tickFunc(func(int64) { note("plain") }))
	k.RegisterStaged(tickFunc(func(now int64) {
		note("router")
		if now == 1 {
			k.Defer(0, func() { note("drain") })
		}
	}))
	k.OnBarrier(func() { note("hook") })
	k.Schedule(1, func() { note("event") })
	k.Step()
	want := []string{"event", "plain", "router+staged", "hook", "drain"}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("cycle order %v, want %v", seen, want)
	}
}

// TestDeferDelayedMatchesSchedule checks the two Defer regimes: delay <= 0
// runs at the deferring cycle's end (Now unchanged), delay >= 1 lands on
// the event heap exactly as Schedule(delay, fn) from the cycle's end would.
func TestDeferDelayedMatchesSchedule(t *testing.T) {
	k := NewKernel(1)
	var endAt, delayedAt int64 = -1, -1
	k.RegisterStaged(tickFunc(func(now int64) {
		if now != 2 {
			return
		}
		k.Defer(0, func() {
			if k.InTick() {
				t.Error("deferred call ran with InTick true")
			}
			endAt = k.Now()
		})
		k.Defer(3, func() { delayedAt = k.Now() })
	}))
	k.Run(10)
	if endAt != 2 {
		t.Errorf("end-of-cycle call ran at cycle %d, want 2", endAt)
	}
	if delayedAt != 5 {
		t.Errorf("delayed Defer fired at cycle %d, want 5 (2 + delay 3)", delayedAt)
	}
}

// TestOnBarrierHooksRunBeforeDrainInOrder checks the end of the cycle:
// after every ticker has ticked, hooks run in registration order, then the
// Defer queue drains.
func TestOnBarrierHooksRunBeforeDrainInOrder(t *testing.T) {
	k := NewKernel(1)
	var seq []string
	for i := 0; i < 2; i++ {
		k.RegisterStaged(tickFunc(func(now int64) {
			if now == 1 {
				k.Defer(0, func() { seq = append(seq, "drain") })
			}
		}))
	}
	k.OnBarrier(func() { seq = append(seq, "hook-a") })
	k.OnBarrier(func() { seq = append(seq, "hook-b") })
	k.Run(1)
	want := []string{"hook-a", "hook-b", "drain", "drain"}
	if !reflect.DeepEqual(seq, want) {
		t.Errorf("end-of-cycle sequence %v, want %v", seq, want)
	}
}

// TestStagedWakeTimerHonoredWhileParked checks that a router-like ticker
// that parks (its active bit cleared) still sees a Defer(delay>=1) it
// issued on its last tick fire on schedule, and that a WakeAt timer ticks
// it at exactly the requested cycle — even though the cycles in between
// are fast-forwarded.
func TestStagedWakeTimerHonoredWhileParked(t *testing.T) {
	k := NewKernel(1)
	ps := make([]*parkTicker, 4)
	for i := range ps {
		ps[i] = &parkTicker{}
		ps[i].tid = k.RegisterStaged(ps[i])
	}
	var deferFired int64 = -1
	ps[3].work = 1
	ps[3].onTick = func(now int64) {
		if now != 1 {
			return
		}
		// Issued mid-tick, lands on the event heap at the cycle's end;
		// the issuer parks this same cycle.
		k.Defer(5, func() {
			deferFired = k.Now()
			k.Wake(ps[3].tid)
		})
		k.WakeAt(9, ps[3].tid)
	}
	k.Run(20)
	if deferFired != 6 {
		t.Errorf("deferred call fired at cycle %d, want 6 (1 + delay 5)", deferFired)
	}
	// Cycle 1: every ticker's first tick (then all park). Cycle 6: the
	// deferred callback's Wake. Cycle 10: the WakeAt(9) timer from cycle 1.
	if want := []int64{1, 6, 10}; !reflect.DeepEqual(ps[3].ticks, want) {
		t.Errorf("parked ticker ticked at %v, want %v", ps[3].ticks, want)
	}
}

// TestIntraCycleWakeSemantics pins the bitmap walk's ordering contract: a
// wake to a later-registered ticker lands in the current cycle (the walk
// has not reached it yet), while a wake to an earlier-registered ticker —
// whose position the walk already passed — waits for the next cycle. The
// targets sit in a second bitmap word to cover the word boundary.
func TestIntraCycleWakeSemantics(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 64; i++ {
		k.RegisterStaged(&parkTicker{})
	}
	early := &parkTicker{}
	early.tid = k.RegisterStaged(early)
	waker := &parkTicker{work: 1 << 20}
	waker.tid = k.RegisterStaged(waker)
	late := &parkTicker{}
	late.tid = k.RegisterStaged(late)

	waker.onTick = func(now int64) {
		if now == 3 {
			k.Wake(late.tid)  // ahead of the walk: ticks this cycle
			k.Wake(early.tid) // behind the walk: ticks next cycle
		}
	}

	k.Run(5)
	if want := []int64{1, 3}; !reflect.DeepEqual(late.ticks, want) {
		t.Errorf("later-ID wake target ticked at %v, want %v (same-cycle wake)", late.ticks, want)
	}
	if want := []int64{1, 4}; !reflect.DeepEqual(early.ticks, want) {
		t.Errorf("earlier-ID wake target ticked at %v, want %v (next-cycle wake)", early.ticks, want)
	}
}
