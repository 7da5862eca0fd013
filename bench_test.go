// Package innetcc_bench contains one testing.B benchmark per table and
// figure of the paper's evaluation, regenerating the corresponding rows or
// series each iteration and reporting the headline metric with
// b.ReportMetric. Run everything with:
//
//	go test -bench=. -benchmem
//
// Benchmarks use reduced trace lengths so the full set completes in
// minutes; the innetcc command runs the same experiments at full scale.
// Every experiment dispatches its simulations through the internal/exec
// worker pool (all cores); BenchmarkFigure5Serial pins one worker so the
// pool's speedup is measurable as the ratio of the two Figure5 timings.
package innetcc_bench

import (
	"testing"

	"innetcc/internal/cacti"
	"innetcc/internal/experiments"
	"innetcc/internal/mcheck"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"

	// Engine builder registration for the kernel benchmarks below.
	_ "innetcc/internal/directory"
	_ "innetcc/internal/treecc"
)

func benchOpts() experiments.Options {
	// Reduced trace lengths so the full set completes in minutes; Jobs 0 =
	// all cores (the per-job seed derivation keeps results identical to
	// any other parallelism level). WithDefaults fills the suite seed.
	return experiments.Options{AccessesPerNode: 200, AccessesPerNode64: 60}.WithDefaults()
}

// kernelMeshRun executes one 64-node (8x8 mesh) Figure-9-style simulation —
// the low-injection regime where most routers idle most cycles — under the
// active-set kernel or the exhaustive always-tick kernel. It is the
// workload behind the BENCH_kernel.json baseline: the ratio of the two
// timings is the active-set speedup.
func kernelMeshRun(b *testing.B, alwaysTick bool) {
	p, err := trace.ProfileByName("bar")
	if err != nil {
		b.Fatal(err)
	}
	p.Think = 200 // long think time = low injection rate, the idle-heavy regime
	cfg := protocol.DefaultConfig()
	cfg.Topology = network.MeshSpec(8, 8)
	cfg.Seed = 42
	tr := trace.Generate(p, cfg.Nodes(), 120, cfg.Seed)
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		m, err := protocol.Build(protocol.Spec{
			Config: cfg, Trace: tr, Think: p.Think,
			Engine: protocol.KindTree, AlwaysTick: alwaysTick,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Run(200_000_000); err != nil {
			b.Fatal(err)
		}
		cycles = m.Kernel.Now()
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkKernelIdleMesh is the active-set kernel baseline: 64 nodes at
// low injection, idle components parked and skipped. CI's bench-smoke step
// records it (with the always-tick control below) in BENCH_kernel.json.
func BenchmarkKernelIdleMesh(b *testing.B) { kernelMeshRun(b, false) }

// BenchmarkKernelIdleMeshAlwaysTick is the control: the identical
// simulation with parking disabled, every ticker ticked every cycle. Its
// time divided by BenchmarkKernelIdleMesh's is the measured speedup.
func BenchmarkKernelIdleMeshAlwaysTick(b *testing.B) { kernelMeshRun(b, true) }

// BenchmarkParallelMesh measures the tick loop on a single large
// simulation: a 16x16 mesh (256 nodes) under the tree protocol. The name
// predates the serial kernel; the benchmark is its former serial row.
// Construction (dominated by allocating and zeroing 256 nodes' caches) is
// excluded from the timed region, so ns/op is simulation only. CI's
// bench-smoke step records it in BENCH_soa.json together with the host's
// CPU count.
func BenchmarkParallelMesh(b *testing.B) {
	p, err := trace.ProfileByName("bar")
	if err != nil {
		b.Fatal(err)
	}
	cfg := protocol.DefaultConfig()
	cfg.Topology = network.MeshSpec(16, 16)
	cfg.Seed = 42
	tr := trace.Generate(p, cfg.Nodes(), 40, cfg.Seed)
	var cycles float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := protocol.Build(protocol.Spec{
			Config: cfg, Trace: tr, Think: p.Think, Engine: protocol.KindTree,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := m.Run(200_000_000); err != nil {
			b.Fatal(err)
		}
		cycles = float64(m.Kernel.Now())
	}
	b.ReportMetric(cycles, "sim-cycles")
}

// BenchmarkTopologyMulticast measures hardware multicast on the directory
// protocol: the same wsp trace (the heaviest-sharing profile) on an 8x8
// torus, invalidation rounds sent as one unicast packet per sharer versus
// one router-forked multicast packet per round. CI's bench-smoke step
// records both inv-packets metrics in BENCH_topology.json; their ratio is
// the fabric's invalidation-traffic saving.
func BenchmarkTopologyMulticast(b *testing.B) {
	p, err := trace.ProfileByName("wsp")
	if err != nil {
		b.Fatal(err)
	}
	cfg := protocol.DefaultConfig()
	cfg.Topology = network.TorusSpec(8, 8)
	cfg.Seed = 42
	tr := trace.Generate(p, cfg.Nodes(), 150, cfg.Seed)
	for _, multicast := range []bool{false, true} {
		name := "Unicast"
		if multicast {
			name = "Multicast"
		}
		b.Run(name, func(b *testing.B) {
			var pkts int64
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Multicast = multicast
				m, err := protocol.Build(protocol.Spec{
					Config: c, Trace: tr, Think: p.Think,
					Engine: protocol.KindDirectory,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Run(200_000_000); err != nil {
					b.Fatal(err)
				}
				pkts = m.Counters.Get("dir.inv_packets")
			}
			b.ReportMetric(float64(pkts), "inv-packets")
		})
	}
}

// BenchmarkHopCountStudy regenerates the Section 1 oracle hop-count
// characterization (paper: reads -19.7%, writes -17.3% on average).
func BenchmarkHopCountStudy(b *testing.B) {
	var lastR, lastW float64
	for i := 0; i < b.N; i++ {
		rs, err := experiments.HopCountStudy(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		lastR, lastW = 0, 0
		for _, r := range rs {
			lastR += r.ReadPct
			lastW += r.WritePct
		}
		lastR /= float64(len(rs))
		lastW /= float64(len(rs))
	}
	b.ReportMetric(lastR, "read-hop-red-%")
	b.ReportMetric(lastW, "write-hop-red-%")
}

// BenchmarkFigure5 regenerates the 16-node latency comparison (paper:
// reads -27.1%, writes -41.2% on average).
func BenchmarkFigure5(b *testing.B) {
	var avg experiments.PairResult
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figure5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		avg = rs[len(rs)-1]
	}
	b.ReportMetric(avg.ReadReduction(), "read-red-%")
	b.ReportMetric(avg.WriteReduction(), "write-red-%")
}

// BenchmarkFigure5Serial runs Figure 5 with a single pool worker; compare
// against BenchmarkFigure5 (all cores) to measure the orchestration
// speedup. Both produce identical results.
func BenchmarkFigure5Serial(b *testing.B) {
	opt := benchOpts()
	opt.Jobs = 1
	var avg experiments.PairResult
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figure5(opt)
		if err != nil {
			b.Fatal(err)
		}
		avg = rs[len(rs)-1]
	}
	b.ReportMetric(avg.ReadReduction(), "read-red-%")
	b.ReportMetric(avg.WriteReduction(), "write-red-%")
}

// BenchmarkTable3 regenerates the tree cache access-time/area grid from the
// Cacti-style analytical model.
func BenchmarkTable3(b *testing.B) {
	var nominal cacti.Result
	for i := 0; i < b.N; i++ {
		grid := cacti.Table3()
		nominal = grid[2][3] // 4-way, 4K entries
	}
	b.ReportMetric(float64(nominal.AccessCycles), "nominal-cycles")
	b.ReportMetric(nominal.AreaMM2, "nominal-mm2")
}

// BenchmarkFigure6 regenerates the tree-cache size sweep (paper: read
// latency rises steadily as capacity shrinks; writes insensitive).
func BenchmarkFigure6(b *testing.B) {
	var smallest float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		n := 0
		for _, p := range pts {
			if p.Value == experiments.Figure6Sizes[len(experiments.Figure6Sizes)-1] {
				sum += p.Read
				n++
			}
		}
		smallest = sum / float64(n)
	}
	b.ReportMetric(smallest, "512ent-norm-read")
}

// BenchmarkFigure7 regenerates the associativity sweep (paper: best at
// 4-way; worse when direct-mapped and at 8-way).
func BenchmarkFigure7(b *testing.B) {
	var dm float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		n := 0
		for _, p := range pts {
			if p.Value == 1 {
				sum += p.Read
				n++
			}
		}
		dm = sum / float64(n)
	}
	b.ReportMetric(dm, "dm-norm-read")
}

// BenchmarkFigure8 regenerates the L2 size sweep (paper: gains shrink with
// smaller L2; writes insensitive).
func BenchmarkFigure8(b *testing.B) {
	var small float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		n := 0
		for _, p := range pts {
			if p.L2 == experiments.Figure8L2[len(experiments.Figure8L2)-1] {
				sum += p.ReadRed
				n++
			}
		}
		small = sum / float64(n)
	}
	b.ReportMetric(small, "128KB-read-red-%")
}

// BenchmarkFigure9 regenerates the 64-node scalability comparison (paper:
// reads -35%, writes -48% on average).
func BenchmarkFigure9(b *testing.B) {
	var avg experiments.PairResult
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figure9(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		avg = rs[len(rs)-1]
	}
	b.ReportMetric(avg.ReadReduction(), "read-red-%")
	b.ReportMetric(avg.WriteReduction(), "write-red-%")
}

// BenchmarkTable4 regenerates the deadlock-recovery cost measurement
// (paper: ~0.2% of latency with direct-mapped tree caches).
func BenchmarkTable4(b *testing.B) {
	var avgR, avgW float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		avgR, avgW = 0, 0
		for _, r := range rows {
			avgR += r.ReadPct
			avgW += r.WritePct
		}
		avgR /= float64(len(rows))
		avgW /= float64(len(rows))
	}
	b.ReportMetric(avgR, "read-deadlock-%")
	b.ReportMetric(avgW, "write-deadlock-%")
}

// BenchmarkFigure10 regenerates the in-network versus above-network
// comparison (paper: reads -31%, writes -49.1% on average).
func BenchmarkFigure10(b *testing.B) {
	var avg experiments.PairResult
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Figure10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		avg = rs[len(rs)-1]
	}
	b.ReportMetric(avg.ReadReduction(), "read-red-%")
	b.ReportMetric(avg.WriteReduction(), "write-red-%")
}

// BenchmarkFigure11 regenerates the router pipeline depth sweep (paper:
// the advantage shrinks monotonically as pipelines shorten).
func BenchmarkFigure11(b *testing.B) {
	avg := map[int]float64{}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		cnt := map[int]int{}
		for k := range avg {
			delete(avg, k)
		}
		for _, p := range pts {
			avg[p.Pipeline] += p.Red
			cnt[p.Pipeline]++
		}
		for k := range avg {
			avg[k] /= float64(cnt[k])
		}
	}
	b.ReportMetric(avg[5], "depth5-red-%")
	b.ReportMetric(avg[1], "depth1-red-%")
}

// BenchmarkStorage regenerates the Section 3.6 storage comparison (paper:
// +56% at 16 nodes, -58% at 64 nodes).
func BenchmarkStorage(b *testing.B) {
	var rows []experiments.StorageRow
	for i := 0; i < b.N; i++ {
		rows = experiments.StorageStudy()
	}
	b.ReportMetric(rows[0].TreeOverhead, "16node-overhead-%")
	b.ReportMetric(rows[1].TreeOverhead, "64node-overhead-%")
}

// BenchmarkModelCheck runs the Section 2.4 exhaustive verification of the
// reduced protocol (the paper's Murφ run).
func BenchmarkModelCheck(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		home, ops := mcheck.DefaultProgram()
		res := mcheck.New(home, ops).Run()
		if len(res.Violations)+len(res.Deadlocks) > 0 {
			b.Fatalf("verification failed: %v", res)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkAblations quantifies the design-decision ablations (victim
// caching, proactive eviction, Section 4 replication) under tree-cache
// pressure.
func BenchmarkAblations(b *testing.B) {
	var victim float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		victim = rows[0].ReadDelta
	}
	b.ReportMetric(victim, "victim-off-read-delta-%")
}
