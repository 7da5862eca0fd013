package sim

// The kernel used to split router ticking across worker goroutines. These
// names are what is left of that API. perfbench still calls them and is the
// only reason they exist; they go once perfbench stops using them.

// ShardStats is the kernel's occupancy accounting.
//
// Deprecated: perfbench is the only reason it exists. The parallel fields
// always read 0.
type ShardStats struct {
	// BusyCycles counts cycles in which at least one ticker ticked;
	// ActiveSum accumulates the active-ticker count over those cycles
	// (ActiveSum/BusyCycles is mean occupancy).
	BusyCycles int64
	ActiveSum  int64
	// ParallelCycles and BarrierWaitNs are always 0: the kernel is serial.
	ParallelCycles int64
	BarrierWaitNs  int64
}

// ShardStats returns the kernel's occupancy accounting.
//
// Deprecated: perfbench is the only reason it exists.
func (k *Kernel) ShardStats() ShardStats {
	return ShardStats{BusyCycles: k.busyCycles, ActiveSum: k.activeSum}
}

// Shards returns 1: the kernel is serial.
//
// Deprecated: perfbench is the only reason it exists.
func (k *Kernel) Shards() int { return 1 }

// ReleaseWorkers does nothing: the kernel starts no goroutines.
//
// Deprecated: perfbench is the only reason it exists.
func (k *Kernel) ReleaseWorkers() {}
