// Verification: the paper verifies in-network coherence two ways
// (Section 2.4) — exhaustive model checking of a reduced protocol model in
// Murφ, and runtime checks in every simulation. This example runs both on
// this repository's implementations: the explicit-state model checker over
// several concurrent programs, then an adversarial simulation (tiny
// direct-mapped tree caches, heavy write contention) with the runtime
// verifier active.
//
//	go run ./examples/verification
package main

import (
	"fmt"
	"log"

	"innetcc/internal/mcheck"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"

	// Registers the tree engine builder with protocol.Build.
	_ "innetcc/internal/treecc"
)

func main() {
	fmt.Println("1. exhaustive model checking (reduced protocol, 2x2 mesh)")
	programs := []struct {
		name string
		home int
		ops  []mcheck.Op
	}{
		{"read + write race", 0, []mcheck.Op{{Node: 1}, {Node: 2, Write: true}}},
		{"two concurrent writes", 0, []mcheck.Op{{Node: 1, Write: true}, {Node: 2, Write: true}}},
		{"home node racing a remote writer", 0, []mcheck.Op{{Node: 0, Write: true}, {Node: 3, Write: true}}},
	}
	mesh := network.Mesh2D{W: 2, H: 2}
	for _, prog := range programs {
		res := mcheck.New(mesh, prog.home, prog.ops).Run()
		status := "OK"
		if len(res.Violations)+len(res.Deadlocks) > 0 {
			status = "FAILED"
		}
		fmt.Printf("   %-34s %8d states %s\n", prog.name, res.States, status)
		for _, v := range res.Violations {
			fmt.Println("   violation:", v)
		}
	}
	home, ops := mcheck.DefaultProgram()
	res := mcheck.New(mesh, home, ops).Run()
	fmt.Printf("   %-34s %8d states (paper's Murφ bound: ~100k)\n",
		"2 reads + 2 writes (paper's bound)", res.States)

	fmt.Println("\n2. runtime verification under adversarial pressure")
	cfg := protocol.DefaultConfig()
	cfg.TreeEntries, cfg.TreeWays = 32, 1 // brutal conflict pressure
	p, err := trace.ProfileByName("wsp")
	if err != nil {
		log.Fatal(err)
	}
	tr := trace.Generate(p, 16, 400, 99)
	m, err := protocol.Build(protocol.Spec{
		Config: cfg, Trace: tr, Think: 2, Engine: protocol.KindTree,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Machine.Run fails on any coherence or sequential-consistency
	// violation recorded by the verifier.
	if err := m.Run(200_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %d reads + %d writes completed, 0 violations\n", m.Lat.Read.N, m.Lat.Write.N)
	fmt.Printf("   conflict evictions: %d, deadlock recoveries: %d (timeout+backoff)\n",
		m.Counters.Get("tree.conflict_evictions"),
		m.Counters.Get("tree.deadlock_aborts"))
	r, w := m.Lat.DeadlockShare()
	fmt.Printf("   deadlock recovery share of latency: reads %.2f%%, writes %.2f%%\n", r, w)
	fmt.Println("   (this stress config is far harsher than Table 4's 4K direct-mapped")
	fmt.Println("   setting, where recovery costs ~0.2% — run `innetcc -exp table4`)")
}
