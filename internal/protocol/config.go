package protocol

import (
	"fmt"

	"innetcc/internal/network"
)

// Config is the simulated memory-network configuration. DefaultConfig
// reproduces the paper's Table 2.
type Config struct {
	// Topology is the interconnect fabric: the paper's open mesh
	// ("mesh:WxH"), its wraparound variant ("torus:WxH") or a
	// bidirectional ring ("ring:N"). It serializes as that canonical
	// string, so job-spec hashes and server submissions stay readable.
	Topology network.TopoSpec

	// Multicast arms hardware multicast: the directory engine sends one
	// destination-set invalidation packet that the routers fork at
	// fan-out points, and the tree engine's teardown fan-out rides a
	// single masked continuation forked at the spawning router. Off by
	// default — the unicast path is the paper's model and the
	// byte-identity baseline.
	Multicast bool

	// BasePipeline is the baseline router pipeline depth in cycles
	// (5 in Table 2). The in-network implementation adds TreePipeline
	// extra cycles per hop for the virtual tree cache stage (the paper's
	// best tree cache adds 1, growing the pipeline from 5 to 6).
	BasePipeline int64
	TreePipeline int64

	// Virtual tree cache (in-network) / directory cache (baseline)
	// geometry: Table 2 uses 4K entries, 4-way, for both.
	TreeEntries, TreeWays int
	DirEntries, DirWays   int

	// L2 data cache per node: Table 2's 2 MB with 8-word (32-byte)
	// lines, 8-way: 65536 entries.
	L2Entries, L2Ways int

	// Latencies in cycles (Table 2): L2 6, directory 2, main memory 200.
	L2Latency  int64
	DirLatency int64
	MemLatency int64

	// Packet sizes in flits: control packets are a single head flit;
	// data packets carry an 8-word line.
	CtrlFlits, DataFlits int

	// Deadlock recovery (Section 2.1): reply timeout and the random
	// backoff window applied at the home node to regenerated requests.
	TimeoutCycles          int64
	BackoffMin, BackoffMax int64

	// VictimCaching enables the home-node L2 victim optimization
	// (Section 2.1); the Figure 6/7 sweeps disable it.
	VictimCaching bool

	// ProactiveEviction enables write requests tearing down the LRU tree
	// of full sets they pass (Section 2.1); an ablation switch.
	ProactiveEviction bool

	// Replication enables the paper's Section 4 extension: read replies
	// leave data copies at the intermediate tree nodes they traverse,
	// so later readers bump into valid data earlier. Off by default
	// (it is future work in the paper, not part of the evaluation).
	Replication bool

	// AboveNetworkTree models the Figure 10 variant where the tree
	// cache sits at the network interface: every per-hop tree cache
	// access costs an ejection and re-injection.
	AboveNetworkTree bool

	// Fault recovery (internal/fault). All four default to zero —
	// disabled — so configurations predating the fault layer behave
	// byte-identically.
	//
	// RetryTimeout is the per-request reply timeout in cycles: a node
	// whose outstanding access has gone unanswered past the deadline (or
	// whose serving packet the fault layer reports dropped) reissues the
	// request from scratch. 0 disables timeout/retry entirely. Note this
	// is distinct from TimeoutCycles above, which is the paper's
	// in-network deadlock recovery for stalled replies.
	RetryTimeout int64
	// RetryBudget bounds reissues per access; exceeding it fails the run
	// with fault.RetryExhaustedError.
	RetryBudget int
	// RetryBackoff is the base reissue delay in cycles, doubled on every
	// further attempt (values below 1 act as 1).
	RetryBackoff int64

	// WatchdogCycles arms the kernel hang watchdog: a run whose active
	// set is non-empty but makes no progress for this many cycles fails
	// with fault.HangError instead of spinning to the cycle bound. 0
	// disables.
	WatchdogCycles int64

	// ProbeInterval runs the runtime coherence-invariant probe (single
	// writer, no stale Shared copy, versions within the commit bound)
	// every this many cycles; a violation fails the run with
	// fault.InvariantError at the cycle it occurred. 0 disables.
	ProbeInterval int64

	// Seed drives all randomness in the run.
	Seed uint64
}

// DefaultConfig returns the paper's nominal 16-node configuration (Table 2).
func DefaultConfig() Config {
	return Config{
		Topology:     network.MeshSpec(4, 4),
		BasePipeline: 5,
		TreePipeline: 1,
		TreeEntries:  4096, TreeWays: 4,
		DirEntries: 4096, DirWays: 4,
		L2Entries: 65536, L2Ways: 8,
		L2Latency:     6,
		DirLatency:    2,
		MemLatency:    200,
		CtrlFlits:     1,
		DataFlits:     5,
		TimeoutCycles: 30,
		BackoffMin:    20, BackoffMax: 100,
		VictimCaching:     true,
		ProactiveEviction: true,
		Seed:              1,
	}
}

// Nodes returns the node count. Kept cheap: Home calls it per access.
func (c Config) Nodes() int { return c.Topology.Nodes() }

// Home returns the statically assigned home node of a line address. The
// paper distributes homes across all processors by the low bits of the
// address tag; with our synthetic line addresses the low bits of the line
// address give the same uniform static striping.
func (c Config) Home(addr uint64) int { return int(addr % uint64(c.Topology.Nodes())) }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	switch {
	case c.BasePipeline < 1:
		return fmt.Errorf("protocol: pipeline depth %d < 1", c.BasePipeline)
	case c.TreeEntries <= 0 || c.TreeWays <= 0 || c.TreeEntries%c.TreeWays != 0:
		return fmt.Errorf("protocol: bad tree cache %d/%d", c.TreeEntries, c.TreeWays)
	case c.DirEntries <= 0 || c.DirWays <= 0 || c.DirEntries%c.DirWays != 0:
		return fmt.Errorf("protocol: bad directory cache %d/%d", c.DirEntries, c.DirWays)
	case c.L2Entries <= 0 || c.L2Ways <= 0 || c.L2Entries%c.L2Ways != 0:
		return fmt.Errorf("protocol: bad L2 %d/%d", c.L2Entries, c.L2Ways)
	case c.BackoffMax < c.BackoffMin:
		return fmt.Errorf("protocol: backoff window [%d,%d] inverted", c.BackoffMin, c.BackoffMax)
	case c.CtrlFlits < 1 || c.DataFlits < 1:
		return fmt.Errorf("protocol: flit counts must be positive")
	case c.RetryTimeout < 0 || c.RetryBudget < 0 || c.RetryBackoff < 0:
		return fmt.Errorf("protocol: negative retry knob (timeout=%d budget=%d backoff=%d)",
			c.RetryTimeout, c.RetryBudget, c.RetryBackoff)
	case c.WatchdogCycles < 0 || c.ProbeInterval < 0:
		return fmt.Errorf("protocol: negative watchdog/probe interval (%d/%d)",
			c.WatchdogCycles, c.ProbeInterval)
	}
	return nil
}
