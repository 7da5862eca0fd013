package innetcc_bench

import (
	"fmt"
	"runtime"
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// buildSpec is a w×h mesh tree-engine machine on the bar profile at 20
// accesses per node: the shape BenchmarkBuild times and the Build memory
// test bounds.
func buildSpec(tb testing.TB, w, h int) protocol.Spec {
	p, err := trace.ProfileByName("bar")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := protocol.DefaultConfig()
	cfg.Topology = network.MeshSpec(w, h)
	cfg.Seed = 42
	return protocol.Spec{
		Config: cfg, Trace: trace.Generate(p, cfg.Nodes(), 20, cfg.Seed),
		Think: p.Think, Engine: protocol.KindTree,
	}
}

// TestBuildMemoryBoundedByTouchedState checks that protocol.Build costs
// memory for the state a machine starts with, not for the capacity of its
// caches: cache sets materialize on first touch, so a freshly built
// machine holds only per-set indexes. Both bounds sit far below the full
// capacity of the machine's L2, directory and tree caches (743 MB at
// 16x16), and Build alone keeps the test cheap under -race.
func TestBuildMemoryBoundedByTouchedState(t *testing.T) {
	for _, tc := range []struct {
		w, h    int
		boundMB uint64
	}{{16, 16, 32}, {64, 64, 512}} {
		spec := buildSpec(t, tc.w, tc.h)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := protocol.Build(spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		// Fatal, not Error: a layout that fails the 16x16 bound would try
		// to allocate gigabytes at 64x64.
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb >= tc.boundMB {
			t.Fatalf("Build of mesh:%dx%d allocated %d MB, want < %d MB", tc.w, tc.h, mb, tc.boundMB)
		}
	}
}

// BenchmarkBuild times protocol.Build alone (trace generation excluded) on
// 16x16, 32x32 and 64x64 tree-engine meshes. CI's bench-smoke step records
// ns/op, B/op and allocs/op in BENCH_build.json.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("mesh:%dx%d", n, n), func(b *testing.B) {
			spec := buildSpec(b, n, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := protocol.Build(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
