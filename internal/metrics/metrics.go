// Package metrics is the cycle-level observability layer: named hot-path
// counters, cycle-bucketed time series, per-router NoC instrumentation, a
// per-access latency decomposition and a bounded flight recorder of protocol
// events. It exposes the internal quantities the paper explains its results
// with — per-hop latency contributions, tree-cache hit/miss behavior,
// teardown backpressure, link utilization — that the simulator otherwise
// computes and throws away.
//
// The package is built around a nil-sink fast path: every probe is either a
// method on a possibly-nil *Collector or a nil check on an instrumentation
// field (network.Mesh.Metrics, protocol.Machine.Metrics), so a simulation
// run without metrics pays one pointer comparison per probe and allocates
// nothing. Probes are purely observational — they never influence routing,
// scheduling or random draws — so enabling metrics leaves simulation results
// byte-identical.
//
// Hot-path operations (counter adds, flight-recorder appends, NoC updates)
// write into preallocated fixed-size arrays and are allocation-free in the
// enabled path too; only the cycle-bucketed series grow, amortized, as
// simulated time advances.
package metrics

// Counter identifies a hot-path metric counter. Counters are array slots
// rather than map keys so a per-hop increment is one indexed add.
type Counter uint8

// Hot-path counters. Tree counters are request-side (RdReq/WrReq lookups in
// the per-router virtual tree caches), matching the paper's narrative of
// requests bumping into trees; reply-side lookups are construction work and
// are not counted here.
const (
	// CTreeHit counts request lookups that found a live (untouched) tree
	// line at a router.
	CTreeHit Counter = iota
	// CTreeMiss counts request lookups that found no usable tree line.
	CTreeMiss
	// CTreeBump counts requests steered along a tree link toward the
	// root/data instead of continuing to the home node.
	CTreeBump
	// CHopsSaved accumulates, over sharer serves, the hop distance saved
	// versus routing the request all the way to the home node. Negative
	// contributions (a serve farther than home) subtract.
	CHopsSaved
	// CDirFwd counts baseline-directory read forwards to a sharer/owner.
	CDirFwd
	// CDirInval counts baseline-directory invalidation messages sent.
	CDirInval

	// NumCounters sizes counter arrays; keep it last.
	NumCounters
)

// String returns the counter's export name.
func (c Counter) String() string {
	switch c {
	case CTreeHit:
		return "tree_hit"
	case CTreeMiss:
		return "tree_miss"
	case CTreeBump:
		return "tree_bump"
	case CHopsSaved:
		return "hops_saved"
	case CDirFwd:
		return "dir_fwd"
	case CDirInval:
		return "dir_inval"
	}
	return "unknown"
}

// GaugeSource is implemented by coherence engines that can report sampled
// gauges: the total occupancy of their per-node metadata structures (tree
// cache lines or directory entries) and the depth of their queued-request
// backlog (teardown/home queues, parked allocations).
type GaugeSource interface {
	MetricsGauges() (occupancy, queueDepth int)
}

// Options sizes a Collector.
type Options struct {
	// FlightSize is the flight-recorder ring capacity in events
	// (default 4096 when <= 0).
	FlightSize int
	// SeriesBucket is the time-series bucket width in cycles, rounded up
	// to a power of two (default 4096 when <= 0). It is also the sampling
	// period for gauges.
	SeriesBucket int64
}

// Collector is the per-simulation metrics sink. A nil *Collector is the
// disabled state: every method is safe to call on nil and is a no-op.
type Collector struct {
	// Flight is the bounded ring of protocol events.
	Flight *Recorder
	// NoC holds per-router, per-port network instrumentation. It is
	// attached by the machine once the mesh shape is known.
	NoC *NoC
	// Breakdown accumulates the per-access latency decomposition.
	Breakdown Breakdown
	// InFlight samples the number of packets inside the network;
	// Occupancy and QueueDepth sample the engine's GaugeSource.
	InFlight   Series
	Occupancy  Series
	QueueDepth Series

	sampleMask int64
	counters   [NumCounters]int64

	// Route-phase staging: when inRoute is installed and reports true,
	// node events are held in staged and reach the flight recorder at
	// the end of the cycle (FlushEvents), together with the network's
	// other staged router effects.
	inRoute func() bool
	staged  []Event
}

// New builds an enabled Collector.
func New(o Options) *Collector {
	fs := o.FlightSize
	if fs <= 0 {
		fs = 4096
	}
	b := int64(1)
	for b < o.SeriesBucket {
		b <<= 1
	}
	if o.SeriesBucket <= 0 {
		b = 4096
	}
	return &Collector{
		Flight:     NewRecorder(fs),
		InFlight:   Series{Bucket: b},
		Occupancy:  Series{Bucket: b},
		QueueDepth: Series{Bucket: b},
		sampleMask: b - 1,
	}
}

// Enabled reports whether the collector is live.
func (c *Collector) Enabled() bool { return c != nil }

// Add increments counter k by d. No-op on a nil collector.
func (c *Collector) Add(k Counter, d int64) {
	if c == nil {
		return
	}
	c.counters[k] += d
}

// Get returns counter k (0 on a nil collector).
func (c *Collector) Get(k Counter) int64 {
	if c == nil {
		return 0
	}
	return c.counters[k]
}

// SetStaging installs the route-phase staging predicate: node events
// recorded while inRoute reports true are staged until FlushEvents. The
// machine passes the kernel's InTick and runs FlushEvents at the end of
// every cycle.
func (c *Collector) SetStaging(inRoute func() bool) {
	if c == nil {
		return
	}
	c.inRoute = inRoute
}

// FlushEvents moves staged route-phase events into the flight recorder in
// the order they were recorded.
func (c *Collector) FlushEvents() {
	for _, e := range c.staged {
		c.Flight.Record(e.Cycle, e.Kind, e.Node, e.Addr, e.Aux)
	}
	c.staged = c.staged[:0]
}

// Event appends a protocol event to the flight recorder. No-op on a nil
// collector. All arguments are scalars so the disabled path allocates
// nothing at the call site. A node event recorded during the route phase
// is staged (amortized-allocation append) and reaches the recorder at the
// end of the cycle via FlushEvents.
func (c *Collector) Event(cycle int64, kind EventKind, node int16, addr uint64, aux int64) {
	if c == nil {
		return
	}
	if c.inRoute != nil && node >= 0 && c.inRoute() {
		c.staged = append(c.staged, Event{Cycle: cycle, Kind: kind, Node: node, Addr: addr, Aux: aux})
		return
	}
	c.Flight.Record(cycle, kind, node, addr, aux)
}

// SampleDue reports whether gauges should be sampled this cycle (once per
// series bucket). Callers must have checked the collector is non-nil.
func (c *Collector) SampleDue(now int64) bool { return now&c.sampleMask == 0 }
