// Package verify implements the paper's runtime verification (Section 2.4):
// every simulation run is continuously checked for coherence and the
// conditions that imply sequential consistency under the protocols'
// one-outstanding-request rule.
//
// The simulator moves version numbers instead of data: each system-wide
// write to a line produces the next version, so "the value read" is the
// version the reply carried. Three checks run:
//
//  1. Read sampling (the paper's "check the value being written to the data
//     cache against the value held in main memory"): at the moment a read
//     reply is generated from a data source, the sampled version must equal
//     main memory's current version for the line.
//  2. Single-writer invariant: when a write commits, no node other than the
//     writer may hold a valid cached copy. This is the MSI invariant whose
//     violation produces stale (orphaned) copies.
//  3. Per-node observation monotonicity (the paper's program-order /
//     total-order embedding): once a node has observed version v of a line,
//     it must never observe an older version of that line.
package verify

import (
	"fmt"
	"sync"
)

// Checker accumulates protocol-visible events and records violations.
// Engines are required to report every data-cache line validation and
// invalidation so the copy registry is exact.
//
// The mutex guards every map and list. It was added when checks could
// fire from concurrent router ticks (sharer-serve read sampling, teardown
// copy invalidation); the simulator is serial now, and whether to keep the
// mutex is an open decision.
type Checker struct {
	mu        sync.Mutex
	version   map[uint64]uint64       // committed version per line
	copies    map[uint64]map[int]bool // valid cached copies per line
	seen      map[nodeAddr]uint64     // last version observed per (node,line)
	order     []AccessRecord          // total order of committed accesses
	keepOrder bool

	violations []string

	// Reads and Writes count committed accesses (guarded by mu).
	Reads, Writes int64
}

type nodeAddr struct {
	node int
	addr uint64
}

// AccessRecord is one entry of the runtime total order.
type AccessRecord struct {
	Node    int
	Addr    uint64
	Write   bool
	Version uint64
	At      int64
}

// New returns an empty checker. If keepOrder is true the full total order
// is retained (tests inspect it); experiment runs pass false to bound
// memory.
func New(keepOrder bool) *Checker {
	return &Checker{
		version:   make(map[uint64]uint64),
		copies:    make(map[uint64]map[int]bool),
		seen:      make(map[nodeAddr]uint64),
		keepOrder: keepOrder,
	}
}

func (c *Checker) fail(format string, args ...interface{}) {
	if len(c.violations) < 100 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns all recorded violations.
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.violations
}

// Order returns the retained total order (empty unless keepOrder).
func (c *Checker) Order() []AccessRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order
}

// CurrentVersion returns the last committed version of addr.
func (c *Checker) CurrentVersion(addr uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version[addr]
}

// VersionSnapshot returns a copy of the committed-version map: every line
// ever written, with its final committed version. Because each write access
// commits exactly once, the snapshot is a pure function of the access trace
// and must be identical across coherence engines run over the same trace.
func (c *Checker) VersionSnapshot() map[uint64]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint64]uint64, len(c.version))
	for a, v := range c.version {
		out[a] = v
	}
	return out
}

// RegisterCopy records that node now holds a valid cached copy of addr.
func (c *Checker) RegisterCopy(addr uint64, node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.copies[addr]
	if m == nil {
		m = make(map[int]bool)
		c.copies[addr] = m
	}
	m[node] = true
}

// UnregisterCopy records that node's cached copy of addr is gone.
func (c *Checker) UnregisterCopy(addr uint64, node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m := c.copies[addr]; m != nil {
		delete(m, node)
	}
}

// Copies returns the nodes currently holding valid copies of addr.
func (c *Checker) Copies(addr uint64) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for n := range c.copies[addr] {
		out = append(out, n)
	}
	return out
}

// CommitWrite serializes a write by node to addr at cycle now, checks the
// single-writer invariant, and returns the new version the writer's line
// must carry.
func (c *Checker) CommitWrite(addr uint64, node int, now int64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for other := range c.copies[addr] {
		if other != node {
			c.fail("write commit to %#x by node %d while node %d holds a valid copy (cycle %d)", addr, node, other, now)
		}
	}
	c.version[addr]++
	v := c.version[addr]
	c.Writes++
	kv := nodeAddr{node, addr}
	c.seen[kv] = v
	if c.keepOrder {
		c.order = append(c.order, AccessRecord{Node: node, Addr: addr, Write: true, Version: v, At: now})
	}
	return v
}

// SampleRead serializes a read at the moment its reply is generated from a
// data source — the paper defines a read access "as occurring when a value
// is read from main memory or from an existing tree". It checks the sampled
// version against main memory's version at that moment (the paper's runtime
// coherence check) and appends the read to the total order. sampled is the
// version the reply will carry, memVersion main memory's current value.
func (c *Checker) SampleRead(addr uint64, sampled, memVersion uint64, node int, now int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sampled != memVersion {
		c.fail("read of %#x for node %d sampled version %d but memory holds %d (cycle %d)", addr, node, sampled, memVersion, now)
	}
	c.Reads++
	if c.keepOrder {
		c.order = append(c.order, AccessRecord{Node: node, Addr: addr, Write: false, Version: sampled, At: now})
	}
}

// ObserveRead records that node's read of addr returned version v, either
// at reply delivery or on a local cache hit, and checks per-node
// monotonicity: a node must never observe an older version after a newer
// one. When local is true the read was served by the node's own valid
// cached copy, which under the MSI invariant must hold the globally current
// version, so staleness is checked strictly.
func (c *Checker) ObserveRead(addr uint64, v uint64, node int, now int64, local bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kv := nodeAddr{node, addr}
	if last, ok := c.seen[kv]; ok && v < last {
		c.fail("node %d observed version %d of %#x after having observed %d (cycle %d)", node, v, addr, last, now)
	}
	c.seen[kv] = v
	if local {
		if cur := c.version[addr]; v != cur {
			c.fail("node %d local copy of %#x holds version %d but committed version is %d (cycle %d)", node, addr, v, cur, now)
		}
		c.Reads++
		if c.keepOrder {
			c.order = append(c.order, AccessRecord{Node: node, Addr: addr, Write: false, Version: v, At: now})
		}
	}
}

// CheckOrderSC validates the retained total order: for every line, read
// versions must be non-decreasing between consecutive writes and every read
// must return the version of the most recent preceding write in the order.
// It returns the violations found (the order must have been retained).
func (c *Checker) CheckOrderSC() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	cur := map[uint64]uint64{}
	for i, r := range c.order {
		if r.Write {
			if r.Version != cur[r.Addr]+1 {
				out = append(out, fmt.Sprintf("order[%d]: write version %d of %#x does not follow %d", i, r.Version, r.Addr, cur[r.Addr]))
			}
			cur[r.Addr] = r.Version
		} else if r.Version != cur[r.Addr] {
			out = append(out, fmt.Sprintf("order[%d]: read of %#x returned %d, current is %d", i, r.Addr, r.Version, cur[r.Addr]))
		}
	}
	return out
}
