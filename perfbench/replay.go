package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	innetexec "innetcc/internal/exec"
	"innetcc/internal/protocol"
	"innetcc/internal/stats"
	"innetcc/internal/trace"
)

// layers accumulates what the traced replays measured, one sample per job.
type layers struct {
	genMs, buildMs, runMs, digestMs []float64
	buildMB, buildMallocs           []float64
	putMs, getMs, encMs             []float64
	resultBytes, snapBytes          []float64
	widths, barrierMs               []float64

	runNs, cycles, accesses   float64
	busy, activeSum, parallel float64
	readSum, readN            float64
	writeSum, writeN          float64
	jobs                      int
}

// replay runs one job's spec again inside the benchmark, layer by layer —
// trace.Generate, protocol.Build, Machine.RunSegment to completion,
// Machine.StateDigest, exec.Cache.Put and Get, exec.Snapshot.Encode —
// timing each call and recording it as a span under a "replay" span, child
// of parent. want is the
// result the program under test produced for the spec; the replay's
// simulated cycles and latency distributions must equal it.
func (l *layers) replay(job innetexec.Job, want innetexec.Result, cache *innetexec.Cache, tr *tracer, jobID string, parent int) error {
	if job.Faults != "" || job.Metrics.Enabled || job.CollectHops {
		return fmt.Errorf("replay: job %s uses options the replay does not mirror", job.Key)
	}
	start := time.Now()
	root := tr.add(jobID, "replay", "replay", parent, start, start)
	defer func() { tr.finish(root, time.Now()) }()
	span := func(layer, name string, a, b time.Time) { tr.add(jobID, layer, name, root, a, b) }

	// The seed derivation and Build call mirror exec.RunJob's first attempt.
	seed := job.Seed()
	cfg := job.Config
	cfg.Seed = seed
	t0 := time.Now()
	tc := trace.Generate(job.Profile, cfg.Nodes(), job.Accesses, seed)
	t1 := time.Now()
	span("trace", "trace.Generate", t0, t1)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b0 := time.Now()
	m, err := protocol.Build(protocol.Spec{
		Config: cfg, Trace: tc, Think: job.Profile.Think, Engine: job.Engine, Shards: job.Shards,
	})
	b1 := time.Now()
	runtime.ReadMemStats(&m1)
	span("protocol", "protocol.Build", b0, b1)
	if err != nil {
		return fmt.Errorf("replay %s: build: %w", job.Key, err)
	}
	m.ReadSamples = &stats.Sampler{}
	m.WriteSamples = &stats.Sampler{}

	maxCycles := job.MaxCycles
	if maxCycles <= 0 {
		maxCycles = innetexec.DefaultMaxCycles
	}
	limit := m.Kernel.Now() + maxCycles
	r0 := time.Now()
	var runErr error
	for {
		done, err := m.RunSegment(m.Kernel.Now()+innetexec.DefaultSegmentCycles, limit)
		if done {
			runErr = err
			break
		}
	}
	r1 := time.Now()
	m.Kernel.ReleaseWorkers()
	span("sim", "Machine.RunSegment", r0, r1)

	d0 := time.Now()
	digest := m.StateDigest()
	d1 := time.Now()
	span("protocol", "Machine.StateDigest", d0, d1)

	if want.Failed() || runErr != nil {
		got := ""
		if runErr != nil {
			got = fmt.Sprintf("%s %s: %v", job.Profile.Name, job.Engine, runErr)
		}
		if got != want.Err {
			return fmt.Errorf("replay %s: error %q, program under test reported %q", job.Key, got, want.Err)
		}
	} else {
		read := dist(&m.Lat.Read, m.ReadSamples)
		write := dist(&m.Lat.Write, m.WriteSamples)
		if m.Kernel.Now() != want.Cycles || read != want.Read || write != want.Write {
			return fmt.Errorf("replay %s: %d cycles, read %+v, write %+v; program under test: %d cycles, read %+v, write %+v",
				job.Key, m.Kernel.Now(), read, write, want.Cycles, want.Read, want.Write)
		}
	}

	hash := job.Hash()
	p0 := time.Now()
	cache.Put(hash, want)
	p1 := time.Now()
	got, ok := cache.Get(hash)
	g1 := time.Now()
	span("exec", "exec.Cache.Put", p0, p1)
	span("exec", "exec.Cache.Get", p1, g1)
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if gotJSON, _ := json.Marshal(got); !ok || !bytes.Equal(gotJSON, wantJSON) {
		return fmt.Errorf("replay %s: result cache round trip changed the result", job.Key)
	}

	e0 := time.Now()
	snap, err := innetexec.Snapshot{Cycle: m.Kernel.Now(), Digest: digest, Job: job}.Encode()
	e1 := time.Now()
	span("exec", "exec.Snapshot.Encode", e0, e1)
	if err != nil {
		return fmt.Errorf("replay %s: snapshot: %w", job.Key, err)
	}

	sh := m.Kernel.ShardStats()
	l.genMs = append(l.genMs, ms(t1.Sub(t0)))
	l.buildMs = append(l.buildMs, ms(b1.Sub(b0)))
	l.buildMB = append(l.buildMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	l.buildMallocs = append(l.buildMallocs, float64(m1.Mallocs-m0.Mallocs))
	l.runMs = append(l.runMs, ms(r1.Sub(r0)))
	l.digestMs = append(l.digestMs, ms(d1.Sub(d0)))
	l.putMs = append(l.putMs, ms(p1.Sub(p0)))
	l.getMs = append(l.getMs, ms(g1.Sub(p1)))
	l.encMs = append(l.encMs, ms(e1.Sub(e0)))
	l.resultBytes = append(l.resultBytes, float64(len(wantJSON)))
	l.snapBytes = append(l.snapBytes, float64(len(snap)))
	l.widths = append(l.widths, float64(m.Kernel.Shards())) // the resolved shard count; ShardStats.Width is the tuner's last width
	l.barrierMs = append(l.barrierMs, float64(sh.BarrierWaitNs)/1e6)
	l.busy += float64(sh.BusyCycles)
	l.activeSum += float64(sh.ActiveSum)
	l.parallel += float64(sh.ParallelCycles)
	l.jobs++
	if !want.Failed() {
		l.runNs += float64(r1.Sub(r0))
		l.cycles += float64(want.Cycles)
		l.accesses += float64(want.Read.N + want.Write.N + want.LocalHits)
		l.readSum += want.Read.Sum
		l.readN += float64(want.Read.N)
		l.writeSum += want.Write.Sum
		l.writeN += float64(want.Write.N)
	}
	return nil
}

// dist mirrors exec's fold of an accumulator and its samples into a Dist.
func dist(a *stats.Accumulator, s *stats.Sampler) innetexec.Dist {
	d := innetexec.Dist{N: a.N, Sum: a.Sum, Min: a.MinV, Max: a.MaxV}
	if s.N() > 0 {
		sum := s.Summarize()
		d.P50, d.P95, d.P99 = sum.P50, sum.P95, sum.P99
	}
	return d
}

// report writes the per-layer metrics the replays measured. Every
// workload reports them, so a layer a workload never reaches reads 0.
func (l *layers) report(r *report) {
	n := l.jobs
	r.set("trace.gen_ms", median(l.genMs), "ms", n)
	r.set("protocol.build_ms", median(l.buildMs), "ms", n)
	r.set("protocol.build_alloc_mb", median(l.buildMB), "MB", n)
	r.set("protocol.build_mallocs", median(l.buildMallocs), "count", n)
	r.set("protocol.digest_ms", median(l.digestMs), "ms", n)
	r.set("sim.run_ms", median(l.runMs), "ms", n)
	r.set("sim.ns_per_cycle", share(l.runNs, l.cycles), "ns", n)
	r.set("sim.ns_per_access", share(l.runNs, l.accesses), "ns", n)
	r.set("sim.shard_width", median(l.widths), "count", n)
	r.set("sim.occ_tickers", share(l.activeSum, l.busy), "count", n)
	r.set("sim.parallel_cycle_share", share(l.parallel, l.busy), "ratio", n)
	r.set("sim.barrier_wait_ms", median(l.barrierMs), "ms", n)
	r.set("sim.cycles", l.cycles, "cycles", n)
	r.set("sim.read_lat_mean_cycles", share(l.readSum, l.readN), "cycles", n)
	r.set("sim.write_lat_mean_cycles", share(l.writeSum, l.writeN), "cycles", n)
	r.set("exec.cache_get_ms", median(l.getMs), "ms", n)
	r.set("exec.cache_put_ms", median(l.putMs), "ms", n)
	r.set("exec.result_bytes", median(l.resultBytes), "bytes", n)
	r.set("exec.snapshot_encode_ms", median(l.encMs), "ms", n)
	r.set("exec.snapshot_bytes", median(l.snapBytes), "bytes", n)
}

// checkDirect runs every job straight through exec.RunJob on up to
// workers goroutines and compares each result with what the program under
// test served for it (JSON-encoded exec.Result). Jobs run serially inside
// (Shards = 1); results are identical at every shard count.
func checkDirect(rep *report, jobs []innetexec.Job, served [][]byte, workers int) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				job := jobs[i]
				job.Shards = 1
				direct, err := json.Marshal(innetexec.RunJob(job, innetexec.RunOptions{}))
				if err == nil {
					var canon []byte
					if canon, err = canonical(served[i]); err == nil && !bytes.Equal(canon, direct) {
						err = fmt.Errorf("served result differs from a direct exec.RunJob")
					}
				}
				if err != nil {
					mu.Lock()
					rep.problem("job %s (%s): %v", job.Key, job.Hash()[:12], err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
}

// canonical re-encodes a served exec.Result so it compares byte for byte
// with a locally computed one.
func canonical(b []byte) ([]byte, error) {
	var r innetexec.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("decode served result: %w", err)
	}
	return json.Marshal(r)
}
