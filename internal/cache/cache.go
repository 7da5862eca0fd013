// Package cache implements the generic set-associative, LRU-replacement tag
// store shared by every cache-like structure in the system: the per-node L2
// data caches, the baseline protocol's directory caches, and the in-network
// protocol's virtual tree caches.
//
// Addresses handed to this package are line addresses (the block offset has
// already been stripped). The set index is the low bits of the line address
// and the tag the remaining high bits, exactly as the paper's
// <tag, index, offset> parse of the packet header (Section 2.3).
//
// The tree cache needs operations a plain cache does not: allocate only into
// an invalid way (tree construction must never silently evict another tree),
// find the LRU line of a set subject to a predicate (teardowns must skip
// lines that are already being torn down), and scan a set. Those primitives
// live here so all three cache users share one replacement implementation.
package cache

import "math"

// Cache is a set-associative cache mapping line addresses to a payload of
// type V. It is a pure tag store: timing is modeled by its callers.
//
// Storage is proportional to the sets ever written, not to capacity. New
// allocates only a per-set index; a set's ways are created the first time
// Insert or InsertNoEvict writes to it, in fixed-size chunks that are never
// reallocated, so payload pointers stay put. Read-only operations on an
// untouched set allocate nothing and behave as on a set of invalid ways.
type Cache[V any] struct {
	// index holds, per set, 1 + the set's slot among the materialized
	// sets; 0 means the set was never written and has no lines.
	index      []int32
	chunks     [][]line[V] // slot s lives in chunks[s>>chunkShift]
	chunkShift uint        // log2 of the sets per chunk
	slots      int         // materialized sets
	valid      int         // valid lines, for Len
	ways       int
	numSets    int
	clock      uint64

	// Hits and Misses count Lookup results for miss-rate reporting.
	Hits   int64
	Misses int64
}

type line[V any] struct {
	tag   uint64
	valid bool
	lru   uint64
	val   V
}

// chunkLines is the target number of lines in one storage chunk. A chunk
// holds the largest power-of-two number of whole sets that fits, and at
// least one set.
const chunkLines = 256

// New returns a cache with the given total number of entries and
// associativity. It panics if entries is not a positive multiple of ways.
func New[V any](entries, ways int) *Cache[V] {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("cache: entries must be a positive multiple of ways")
	}
	numSets := entries / ways
	if numSets >= math.MaxInt32 {
		panic("cache: too many sets")
	}
	shift := uint(0)
	for 2<<shift*ways <= chunkLines {
		shift++
	}
	return &Cache[V]{ways: ways, numSets: numSets, index: make([]int32, numSets), chunkShift: shift}
}

// Ways returns the associativity.
func (c *Cache[V]) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache[V]) Sets() int { return c.numSets }

// Entries returns the total capacity in lines.
func (c *Cache[V]) Entries() int { return c.numSets * c.ways }

func (c *Cache[V]) setIndex(addr uint64) int { return int(addr % uint64(c.numSets)) }
func (c *Cache[V]) tag(addr uint64) uint64   { return addr / uint64(c.numSets) }

// addrOf reconstructs the line address stored in a given set/tag pair.
func (c *Cache[V]) addrOf(setIdx int, tag uint64) uint64 {
	return tag*uint64(c.numSets) + uint64(setIdx)
}

// slotLines returns the ways of the materialized set in slot.
func (c *Cache[V]) slotLines(slot int) []line[V] {
	off := (slot & (1<<c.chunkShift - 1)) * c.ways
	return c.chunks[slot>>c.chunkShift][off : off+c.ways : off+c.ways]
}

// lines returns the ways of set setIdx, or nil if it was never written.
func (c *Cache[V]) lines(setIdx int) []line[V] {
	if s := c.index[setIdx]; s != 0 {
		return c.slotLines(int(s - 1))
	}
	return nil
}

// materialize returns the ways of set setIdx, creating them (all invalid)
// on first touch.
func (c *Cache[V]) materialize(setIdx int) []line[V] {
	if ls := c.lines(setIdx); ls != nil {
		return ls
	}
	slot := c.slots
	if slot>>c.chunkShift == len(c.chunks) {
		sets := min(1<<c.chunkShift, c.numSets-slot)
		c.chunks = append(c.chunks, make([]line[V], sets*c.ways))
	}
	c.slots++
	c.index[setIdx] = int32(c.slots)
	return c.slotLines(slot)
}

func (c *Cache[V]) find(addr uint64) *line[V] {
	ls := c.lines(c.setIndex(addr))
	tag := c.tag(addr)
	for i := range ls {
		if ls[i].valid && ls[i].tag == tag {
			return &ls[i]
		}
	}
	return nil
}

// Lookup returns a pointer to the payload of addr and updates LRU state on a
// hit. The pointer stays valid until the line is evicted or invalidated.
func (c *Cache[V]) Lookup(addr uint64) (*V, bool) {
	if ln := c.find(addr); ln != nil {
		c.clock++
		ln.lru = c.clock
		c.Hits++
		return &ln.val, true
	}
	c.Misses++
	return nil, false
}

// Peek is Lookup without LRU update or hit/miss accounting, for inspection
// by verifiers and tests.
func (c *Cache[V]) Peek(addr uint64) (*V, bool) {
	if ln := c.find(addr); ln != nil {
		return &ln.val, true
	}
	return nil, false
}

// Insert allocates a line for addr, evicting the LRU line of the set if the
// set is full. It returns a pointer to the (zeroed) payload, plus the
// evicted line's address and payload if an eviction occurred. If addr is
// already present its payload is returned unchanged (treated as a hit).
func (c *Cache[V]) Insert(addr uint64) (v *V, evictedAddr uint64, evictedVal V, evicted bool) {
	if ln := c.find(addr); ln != nil {
		c.clock++
		ln.lru = c.clock
		return &ln.val, 0, evictedVal, false
	}
	setIdx := c.setIndex(addr)
	ls := c.materialize(setIdx)
	victim := -1
	for i := range ls {
		if !ls[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(ls); i++ {
			if ls[i].lru < ls[victim].lru {
				victim = i
			}
		}
		evicted = true
		evictedAddr = c.addrOf(setIdx, ls[victim].tag)
		evictedVal = ls[victim].val
	} else {
		c.valid++
	}
	c.clock++
	var zero V
	ls[victim] = line[V]{tag: c.tag(addr), valid: true, lru: c.clock, val: zero}
	return &ls[victim].val, evictedAddr, evictedVal, evicted
}

// InsertNoEvict allocates a line for addr only if the set has an invalid
// way (or addr is already present). It reports whether allocation happened.
// Tree construction uses this: a reply must explicitly tear down a victim
// tree rather than silently replace it.
func (c *Cache[V]) InsertNoEvict(addr uint64) (*V, bool) {
	if ln := c.find(addr); ln != nil {
		c.clock++
		ln.lru = c.clock
		return &ln.val, true
	}
	ls := c.materialize(c.setIndex(addr))
	for i := range ls {
		if !ls[i].valid {
			c.clock++
			c.valid++
			var zero V
			ls[i] = line[V]{tag: c.tag(addr), valid: true, lru: c.clock, val: zero}
			return &ls[i].val, true
		}
	}
	return nil, false
}

// Invalidate removes addr from the cache, returning its payload and whether
// it was present.
func (c *Cache[V]) Invalidate(addr uint64) (V, bool) {
	var zero V
	if ln := c.find(addr); ln != nil {
		v := ln.val
		ln.valid = false
		ln.val = zero
		c.valid--
		return v, true
	}
	return zero, false
}

// HasFreeWay reports whether the set addr maps to has at least one invalid
// way.
func (c *Cache[V]) HasFreeWay(addr uint64) bool {
	ls := c.lines(c.setIndex(addr))
	if ls == nil {
		return true
	}
	for i := range ls {
		if !ls[i].valid {
			return true
		}
	}
	return false
}

// LRUVictim returns the least-recently-used valid line in addr's set for
// which keep returns true, as (lineAddress, payload pointer, ok). A nil keep
// accepts every valid line. The line addressed by addr itself is excluded.
func (c *Cache[V]) LRUVictim(addr uint64, keep func(lineAddr uint64, v *V) bool) (uint64, *V, bool) {
	setIdx := c.setIndex(addr)
	ls := c.lines(setIdx)
	tag := c.tag(addr)
	best := -1
	for i := range ls {
		ln := &ls[i]
		if !ln.valid || ln.tag == tag {
			continue
		}
		if keep != nil && !keep(c.addrOf(setIdx, ln.tag), &ln.val) {
			continue
		}
		if best < 0 || ln.lru < ls[best].lru {
			best = i
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return c.addrOf(setIdx, ls[best].tag), &ls[best].val, true
}

// ScanSet calls fn for every valid line in addr's set until fn returns
// false.
func (c *Cache[V]) ScanSet(addr uint64, fn func(lineAddr uint64, v *V) bool) {
	setIdx := c.setIndex(addr)
	ls := c.lines(setIdx)
	for i := range ls {
		if !ls[i].valid {
			continue
		}
		if !fn(c.addrOf(setIdx, ls[i].tag), &ls[i].val) {
			return
		}
	}
}

// ScanAll calls fn for every valid line in the cache until fn returns
// false, walking sets and ways in index order and skipping sets that were
// never written. It is used by structural invariant checks at quiescence
// and by state digests.
func (c *Cache[V]) ScanAll(fn func(lineAddr uint64, v *V) bool) {
	if c.valid == 0 {
		return
	}
	for setIdx, s := range c.index {
		if s == 0 {
			continue
		}
		ls := c.slotLines(int(s - 1))
		for i := range ls {
			if !ls[i].valid {
				continue
			}
			if !fn(c.addrOf(setIdx, ls[i].tag), &ls[i].val) {
				return
			}
		}
	}
}

// Len returns the number of valid lines currently held.
func (c *Cache[V]) Len() int { return c.valid }

// MissRate returns Misses/(Hits+Misses), or 0 before any lookup.
func (c *Cache[V]) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}
