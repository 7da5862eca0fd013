package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, tc := range []struct{ entries, ways int }{{0, 1}, {4, 0}, {5, 2}, {-4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d) did not panic", tc.entries, tc.ways)
				}
			}()
			New[int](tc.entries, tc.ways)
		}()
	}
}

func TestGeometry(t *testing.T) {
	c := New[int](4096, 4)
	if c.Ways() != 4 || c.Sets() != 1024 || c.Entries() != 4096 {
		t.Fatalf("geometry %d/%d/%d", c.Ways(), c.Sets(), c.Entries())
	}
}

func TestInsertLookupRoundTrip(t *testing.T) {
	c := New[string](16, 2)
	v, _, _, ev := c.Insert(100)
	if ev {
		t.Fatal("insert into empty cache evicted")
	}
	*v = "hello"
	got, ok := c.Lookup(100)
	if !ok || *got != "hello" {
		t.Fatalf("Lookup(100) = %v %v", got, ok)
	}
	if _, ok := c.Lookup(101); ok {
		t.Fatal("Lookup of absent address hit")
	}
}

func TestInsertExistingIsHitNotReset(t *testing.T) {
	c := New[int](8, 2)
	v, _, _, _ := c.Insert(5)
	*v = 42
	v2, _, _, ev := c.Insert(5)
	if ev {
		t.Fatal("re-insert evicted")
	}
	if *v2 != 42 {
		t.Fatalf("re-insert zeroed payload: %d", *v2)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache, 1 set: addresses all collide.
	c := New[int](2, 2)
	c.Insert(1)
	c.Insert(2)
	c.Lookup(1) // 1 is now MRU; 2 is LRU
	_, evAddr, _, ev := c.Insert(3)
	if !ev || evAddr != 2 {
		t.Fatalf("evicted %v (ok=%v), want 2", evAddr, ev)
	}
	if _, ok := c.Peek(1); !ok {
		t.Fatal("MRU line 1 was evicted")
	}
	if _, ok := c.Peek(3); !ok {
		t.Fatal("inserted line 3 missing")
	}
}

func TestEvictionReturnsPayload(t *testing.T) {
	c := New[int](1, 1)
	v, _, _, _ := c.Insert(7)
	*v = 99
	_, evAddr, evVal, ev := c.Insert(8)
	if !ev || evAddr != 7 || evVal != 99 {
		t.Fatalf("eviction returned (%d,%d,%v), want (7,99,true)", evAddr, evVal, ev)
	}
}

func TestSetIndexingSeparatesSets(t *testing.T) {
	c := New[int](4, 1) // 4 sets, direct mapped
	c.Insert(0)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	for a := uint64(0); a < 4; a++ {
		if _, ok := c.Peek(a); !ok {
			t.Fatalf("address %d missing; sets not independent", a)
		}
	}
	// 4 aliases with the same index evict each other.
	_, evAddr, _, ev := c.Insert(4)
	if !ev || evAddr != 0 {
		t.Fatalf("alias insert evicted %d (ok=%v), want 0", evAddr, ev)
	}
}

func TestInsertNoEvict(t *testing.T) {
	c := New[int](2, 2)
	if _, ok := c.InsertNoEvict(1); !ok {
		t.Fatal("InsertNoEvict failed with free ways")
	}
	if _, ok := c.InsertNoEvict(2); !ok {
		t.Fatal("InsertNoEvict failed with one free way")
	}
	if _, ok := c.InsertNoEvict(3); ok {
		t.Fatal("InsertNoEvict succeeded on a full set")
	}
	// Existing line is fine even when full.
	v, ok := c.InsertNoEvict(1)
	if !ok || v == nil {
		t.Fatal("InsertNoEvict of resident address failed")
	}
	if _, ok := c.Peek(2); !ok {
		t.Fatal("resident line lost")
	}
}

func TestInvalidate(t *testing.T) {
	c := New[int](4, 2)
	v, _, _, _ := c.Insert(9)
	*v = 7
	val, ok := c.Invalidate(9)
	if !ok || val != 7 {
		t.Fatalf("Invalidate returned (%d,%v)", val, ok)
	}
	if _, ok := c.Peek(9); ok {
		t.Fatal("line still present after Invalidate")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("double Invalidate reported presence")
	}
}

func TestHasFreeWay(t *testing.T) {
	c := New[int](2, 2)
	if !c.HasFreeWay(0) {
		t.Fatal("empty set reported full")
	}
	c.Insert(0)
	c.Insert(2)
	if c.HasFreeWay(4) {
		t.Fatal("full set reported free")
	}
	c.Invalidate(0)
	if !c.HasFreeWay(4) {
		t.Fatal("set with invalidated way reported full")
	}
}

func TestLRUVictim(t *testing.T) {
	c := New[int](4, 4)
	c.Insert(0)
	c.Insert(4)
	c.Insert(8)
	c.Lookup(0) // 4 is now LRU
	addr, v, ok := c.LRUVictim(12, nil)
	if !ok || addr != 4 || v == nil {
		t.Fatalf("LRUVictim = (%d,%v,%v), want 4", addr, v, ok)
	}
	// Predicate can exclude the LRU line.
	addr, _, ok = c.LRUVictim(12, func(a uint64, _ *int) bool { return a != 4 })
	if !ok || addr != 8 {
		t.Fatalf("filtered LRUVictim = (%d,%v), want 8", addr, ok)
	}
	// Excludes the probe address itself.
	addr, _, ok = c.LRUVictim(4, nil)
	if !ok || addr == 4 {
		t.Fatalf("LRUVictim returned probe address")
	}
	// No candidates.
	c2 := New[int](4, 4)
	if _, _, ok := c2.LRUVictim(0, nil); ok {
		t.Fatal("LRUVictim found a line in an empty cache")
	}
}

func TestScanSetAndScanAll(t *testing.T) {
	c := New[int](8, 2) // 4 sets
	c.Insert(1)
	c.Insert(5) // same set as 1
	c.Insert(2)
	var setAddrs []uint64
	c.ScanSet(1, func(a uint64, _ *int) bool {
		setAddrs = append(setAddrs, a)
		return true
	})
	if len(setAddrs) != 2 {
		t.Fatalf("ScanSet saw %v, want 2 lines", setAddrs)
	}
	n := 0
	c.ScanAll(func(uint64, *int) bool { n++; return true })
	if n != 3 {
		t.Fatalf("ScanAll saw %d lines, want 3", n)
	}
	// Early termination.
	n = 0
	c.ScanAll(func(uint64, *int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ScanAll ignored early stop, saw %d", n)
	}
}

func TestLenAndMissRate(t *testing.T) {
	c := New[int](8, 2)
	if c.Len() != 0 || c.MissRate() != 0 {
		t.Fatal("fresh cache not empty")
	}
	c.Insert(1)
	c.Insert(2)
	if c.Len() != 2 {
		t.Fatalf("Len=%d, want 2", c.Len())
	}
	c.Lookup(1)
	c.Lookup(99)
	if c.MissRate() != 0.5 {
		t.Fatalf("MissRate=%v, want 0.5", c.MissRate())
	}
}

// Property: the reconstructed line address of every resident line equals the
// address it was inserted under, across random address streams and cache
// shapes.
func TestAddressReconstructionProperty(t *testing.T) {
	shapes := []struct{ entries, ways int }{{16, 1}, {16, 2}, {64, 4}, {32, 8}}
	err := quick.Check(func(addrs []uint16, shapeIdx uint8) bool {
		sh := shapes[int(shapeIdx)%len(shapes)]
		c := New[uint64](sh.entries, sh.ways)
		for _, a16 := range addrs {
			a := uint64(a16)
			v, _, _, _ := c.Insert(a)
			*v = a
		}
		good := true
		c.ScanAll(func(lineAddr uint64, v *uint64) bool {
			if lineAddr != *v {
				good = false
				return false
			}
			return true
		})
		return good
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds capacity and Insert always leaves the
// inserted address resident.
func TestOccupancyProperty(t *testing.T) {
	err := quick.Check(func(addrs []uint16) bool {
		c := New[int](32, 4)
		for _, a16 := range addrs {
			a := uint64(a16)
			c.Insert(a)
			if _, ok := c.Peek(a); !ok {
				return false
			}
			if c.Len() > c.Entries() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: InsertNoEvict never removes any resident line.
func TestInsertNoEvictNeverEvictsProperty(t *testing.T) {
	err := quick.Check(func(addrs []uint16) bool {
		c := New[int](16, 2)
		resident := map[uint64]bool{}
		for _, a16 := range addrs {
			a := uint64(a16)
			if _, ok := c.InsertNoEvict(a); ok {
				resident[a] = true
			}
			for r := range resident {
				if _, ok := c.Peek(r); !ok {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// eagerCache is the reference layout the lazy Cache replaced: every set's
// ways allocated up front, scans over every set. It exists only so the
// differential property below can hold the two to identical behaviour.
type eagerCache[V any] struct {
	sets    [][]line[V]
	numSets int
	clock   uint64

	Hits   int64
	Misses int64
}

func newEager[V any](entries, ways int) *eagerCache[V] {
	numSets := entries / ways
	c := &eagerCache[V]{numSets: numSets, sets: make([][]line[V], numSets)}
	for i := range c.sets {
		c.sets[i] = make([]line[V], ways)
	}
	return c
}

func (c *eagerCache[V]) setIndex(addr uint64) int { return int(addr % uint64(c.numSets)) }
func (c *eagerCache[V]) tag(addr uint64) uint64   { return addr / uint64(c.numSets) }
func (c *eagerCache[V]) addrOf(setIdx int, tag uint64) uint64 {
	return tag*uint64(c.numSets) + uint64(setIdx)
}

func (c *eagerCache[V]) find(addr uint64) *line[V] {
	s := c.sets[c.setIndex(addr)]
	tag := c.tag(addr)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			return &s[i]
		}
	}
	return nil
}

func (c *eagerCache[V]) Lookup(addr uint64) (*V, bool) {
	if ln := c.find(addr); ln != nil {
		c.clock++
		ln.lru = c.clock
		c.Hits++
		return &ln.val, true
	}
	c.Misses++
	return nil, false
}

func (c *eagerCache[V]) Peek(addr uint64) (*V, bool) {
	if ln := c.find(addr); ln != nil {
		return &ln.val, true
	}
	return nil, false
}

func (c *eagerCache[V]) Insert(addr uint64) (v *V, evictedAddr uint64, evictedVal V, evicted bool) {
	if ln := c.find(addr); ln != nil {
		c.clock++
		ln.lru = c.clock
		return &ln.val, 0, evictedVal, false
	}
	s := c.sets[c.setIndex(addr)]
	victim := -1
	for i := range s {
		if !s[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(s); i++ {
			if s[i].lru < s[victim].lru {
				victim = i
			}
		}
		evicted = true
		evictedAddr = c.addrOf(c.setIndex(addr), s[victim].tag)
		evictedVal = s[victim].val
	}
	c.clock++
	var zero V
	s[victim] = line[V]{tag: c.tag(addr), valid: true, lru: c.clock, val: zero}
	return &s[victim].val, evictedAddr, evictedVal, evicted
}

func (c *eagerCache[V]) InsertNoEvict(addr uint64) (*V, bool) {
	if ln := c.find(addr); ln != nil {
		c.clock++
		ln.lru = c.clock
		return &ln.val, true
	}
	s := c.sets[c.setIndex(addr)]
	for i := range s {
		if !s[i].valid {
			c.clock++
			var zero V
			s[i] = line[V]{tag: c.tag(addr), valid: true, lru: c.clock, val: zero}
			return &s[i].val, true
		}
	}
	return nil, false
}

func (c *eagerCache[V]) Invalidate(addr uint64) (V, bool) {
	var zero V
	if ln := c.find(addr); ln != nil {
		v := ln.val
		ln.valid = false
		ln.val = zero
		return v, true
	}
	return zero, false
}

func (c *eagerCache[V]) HasFreeWay(addr uint64) bool {
	for _, ln := range c.sets[c.setIndex(addr)] {
		if !ln.valid {
			return true
		}
	}
	return false
}

func (c *eagerCache[V]) LRUVictim(addr uint64, keep func(lineAddr uint64, v *V) bool) (uint64, *V, bool) {
	setIdx := c.setIndex(addr)
	s := c.sets[setIdx]
	tag := c.tag(addr)
	best := -1
	for i := range s {
		ln := &s[i]
		if !ln.valid || ln.tag == tag {
			continue
		}
		if keep != nil && !keep(c.addrOf(setIdx, ln.tag), &ln.val) {
			continue
		}
		if best < 0 || ln.lru < s[best].lru {
			best = i
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return c.addrOf(setIdx, s[best].tag), &s[best].val, true
}

func (c *eagerCache[V]) ScanSet(addr uint64, fn func(lineAddr uint64, v *V) bool) {
	setIdx := c.setIndex(addr)
	s := c.sets[setIdx]
	for i := range s {
		if s[i].valid && !fn(c.addrOf(setIdx, s[i].tag), &s[i].val) {
			return
		}
	}
}

func (c *eagerCache[V]) ScanAll(fn func(lineAddr uint64, v *V) bool) {
	for setIdx, s := range c.sets {
		for i := range s {
			if s[i].valid && !fn(c.addrOf(setIdx, s[i].tag), &s[i].val) {
				return
			}
		}
	}
}

func (c *eagerCache[V]) Len() int {
	n := 0
	for _, s := range c.sets {
		for _, ln := range s {
			if ln.valid {
				n++
			}
		}
	}
	return n
}

// scanned is one line as ScanAll or ScanSet reports it.
type scanned struct{ addr, val uint64 }

// Property: random operation sequences produce identical return values,
// payloads, ScanAll sequences, Len, Hits and Misses on the lazy Cache and
// the eager reference, over shapes from direct-mapped to fully associative
// and shapes whose touched sets span several storage chunks.
func TestLazyMatchesEagerProperty(t *testing.T) {
	shapes := []struct{ entries, ways int }{
		{1, 1}, {16, 1}, {16, 2}, {64, 4}, {32, 8}, {8, 8}, {64, 64},
		{1024, 1}, {2048, 2}, {1536, 3},
	}
	const nOps = 10
	err := quick.Check(func(seed int64, shapeIdx uint8) bool {
		sh := shapes[int(shapeIdx)%len(shapes)]
		lazy, ref := New[uint64](sh.entries, sh.ways), newEager[uint64](sh.entries, sh.ways)
		// Addresses spread over four times the capacity, so sets fill and
		// evict; up to 400 operations, so the larger shapes materialize
		// more sets than one chunk holds.
		rng := rand.New(rand.NewSource(seed))
		span := 4 * sh.entries
		for step := range 50 + rng.Intn(350) {
			op, addr := rng.Intn(nOps), uint64(rng.Intn(span))
			stamp := uint64(step + 1)
			var got, want []any
			switch op {
			case 0, 1: // Insert, writing a stamp through the returned pointer
				v1, ea1, ev1, ok1 := lazy.Insert(addr)
				v2, ea2, ev2, ok2 := ref.Insert(addr)
				got, want = []any{*v1, ea1, ev1, ok1}, []any{*v2, ea2, ev2, ok2}
				*v1, *v2 = stamp, stamp
			case 2: // InsertNoEvict
				v1, ok1 := lazy.InsertNoEvict(addr)
				v2, ok2 := ref.InsertNoEvict(addr)
				got, want = []any{ok1}, []any{ok2}
				if ok1 && ok2 {
					got, want = append(got, *v1), append(want, *v2)
					*v1, *v2 = stamp, stamp
				}
			case 3: // Lookup
				v1, ok1 := lazy.Lookup(addr)
				v2, ok2 := ref.Lookup(addr)
				got, want = []any{ok1}, []any{ok2}
				if ok1 && ok2 {
					got, want = append(got, *v1), append(want, *v2)
				}
			case 4: // Peek
				v1, ok1 := lazy.Peek(addr)
				v2, ok2 := ref.Peek(addr)
				got, want = []any{ok1}, []any{ok2}
				if ok1 && ok2 {
					got, want = append(got, *v1), append(want, *v2)
				}
			case 5: // Invalidate
				v1, ok1 := lazy.Invalidate(addr)
				v2, ok2 := ref.Invalidate(addr)
				got, want = []any{v1, ok1}, []any{v2, ok2}
			case 6: // HasFreeWay
				got, want = []any{lazy.HasFreeWay(addr)}, []any{ref.HasFreeWay(addr)}
			case 7: // LRUVictim, every line eligible
				a1, v1, ok1 := lazy.LRUVictim(addr, nil)
				a2, v2, ok2 := ref.LRUVictim(addr, nil)
				got, want = []any{a1, ok1}, []any{a2, ok2}
				if ok1 && ok2 {
					got, want = append(got, *v1), append(want, *v2)
				}
			case 8: // LRUVictim, skipping lines with an odd stamp
				keep := func(_ uint64, v *uint64) bool { return *v%2 == 0 }
				a1, v1, ok1 := lazy.LRUVictim(addr, keep)
				a2, v2, ok2 := ref.LRUVictim(addr, keep)
				got, want = []any{a1, ok1}, []any{a2, ok2}
				if ok1 && ok2 {
					got, want = append(got, *v1), append(want, *v2)
				}
			case 9: // ScanSet, stopping after the second line
				got, want = []any{scanSet(lazy.ScanSet, addr)}, []any{scanSet(ref.ScanSet, addr)}
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("shape %v step %d op %d addr %d: lazy %v, eager %v", sh, step, op, addr, got, want)
				return false
			}
			if l, e := scanAll(lazy.ScanAll), scanAll(ref.ScanAll); !reflect.DeepEqual(l, e) {
				t.Logf("shape %v step %d: ScanAll lazy %v, eager %v", sh, step, l, e)
				return false
			}
			if lazy.Len() != ref.Len() || lazy.Hits != ref.Hits || lazy.Misses != ref.Misses {
				t.Logf("shape %v step %d: Len/Hits/Misses lazy %d/%d/%d, eager %d/%d/%d", sh, step,
					lazy.Len(), lazy.Hits, lazy.Misses, ref.Len(), ref.Hits, ref.Misses)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func scanSet(scan func(uint64, func(uint64, *uint64) bool), addr uint64) []scanned {
	var out []scanned
	scan(addr, func(a uint64, v *uint64) bool {
		out = append(out, scanned{a, *v})
		return len(out) < 2
	})
	return out
}

func scanAll(scan func(func(uint64, *uint64) bool)) []scanned {
	var out []scanned
	scan(func(a uint64, v *uint64) bool {
		out = append(out, scanned{a, *v})
		return true
	})
	return out
}

// A payload pointer from Insert keeps reading and writing the same line
// after enough further sets materialize to fill several storage chunks.
func TestPayloadPointerStableAcrossChunks(t *testing.T) {
	const ways = 2
	c := New[int](1<<16, ways)
	perChunk := 1 << c.chunkShift
	p, _, _, _ := c.Insert(0)
	*p = 7
	for a := uint64(1); a <= uint64(3*perChunk); a++ {
		v, _, _, _ := c.Insert(a)
		*v = int(a) + 100
	}
	if len(c.chunks) < 3 {
		t.Fatalf("only %d chunks materialized; test does not cross a chunk boundary", len(c.chunks))
	}
	if got, ok := c.Peek(0); !ok || got != p || *got != 7 {
		t.Fatalf("Peek(0) = %v (%v), want the original pointer holding 7", got, ok)
	}
	*p = 9
	if got, _ := c.Peek(0); *got != 9 {
		t.Fatalf("write through the original pointer not visible: %d", *got)
	}
	if got, _ := c.Peek(uint64(perChunk)); *got != perChunk+100 {
		t.Fatalf("write through the original pointer clobbered another line: %d", *got)
	}
}

// Read-only operations on untouched sets materialize nothing.
func TestReadsOnUntouchedSetsAllocateNothing(t *testing.T) {
	c := New[int](4096, 4)
	allocs := testing.AllocsPerRun(10, func() {
		for a := uint64(0); a < 2048; a++ {
			c.Lookup(a)
			c.Peek(a)
			c.Invalidate(a)
			if !c.HasFreeWay(a) {
				t.Fatal("untouched set reported full")
			}
			if _, _, ok := c.LRUVictim(a, nil); ok {
				t.Fatal("LRUVictim found a line in an untouched set")
			}
			c.ScanSet(a, func(uint64, *int) bool { t.Fatal("ScanSet saw a line"); return false })
		}
	})
	if allocs != 0 || c.slots != 0 || len(c.chunks) != 0 {
		t.Fatalf("reads allocated %.0f times, materialized %d sets", allocs, c.slots)
	}
}
