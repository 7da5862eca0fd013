package main

import (
	"bufio"
	"bytes"
	"embed"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	innetexec "innetcc/internal/exec"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// refs holds the stdout of `innetcc -exp all -jobs 2 -mcheck-workers 2
// -seed <s>` for every suite seed the paper workload uses, recorded at the
// commit that introduced the benchmark.
//
//go:embed ref/*.txt
var refs embed.FS

const (
	// paperSuiteSeeds is how many suite seeds have a recorded reference;
	// --seed n starts at suite seed 1 + n mod paperSuiteSeeds.
	paperSuiteSeeds = 10

	// paperAccesses is how many accesses the batch simulates at default
	// scale: 280 sixteen-node jobs at 400 accesses per node plus the 16
	// sixty-four-node Figure 9 jobs at 120.
	paperAccesses = 280*16*400 + 16*64*120

	// setupRepeats is how often a run sets the program up to report the
	// median set-up time.
	setupRepeats = 15
)

// nonSimulating names the experiments of -exp all that run no simulation
// job: two analytic tables and the model checker.
var nonSimulating = map[string]bool{"table3": true, "storage": true, "mcheck": true}

// paperBatch is one timed `innetcc -exp all` run.
type paperBatch struct {
	wall   time.Duration
	rssMB  float64
	gc     gcTotals
	stdout []byte
	blocks []time.Duration // completion time of each experiment's output, since launch
}

// blockClock is the batch's stdout: it keeps the bytes and timestamps the
// blank line that closes each experiment's output.
type blockClock struct {
	mu     sync.Mutex
	start  time.Time
	buf    bytes.Buffer
	blocks []time.Duration
}

func (c *blockClock) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range p {
		if b == '\n' && (c.buf.Len() == 0 || bytes.HasSuffix(c.buf.Bytes(), []byte("\n"))) {
			c.blocks = append(c.blocks, now.Sub(c.start))
		}
		c.buf.WriteByte(b)
	}
	return len(p), nil
}

func runPaperBatch(e env, suite uint64, traced bool) (paperBatch, error) {
	clock := &blockClock{}
	args := []string{"-exp", "all", "-jobs", "2", "-mcheck-workers", "2", "-seed", fmt.Sprint(suite)}
	p, err := startProc(e.bin, args, e.work, traced, clock)
	if err != nil {
		return paperBatch{}, err
	}
	clock.mu.Lock() // output starts only after the first experiment, seconds later
	clock.start = p.start
	clock.mu.Unlock()
	wall, rss, gc, err := p.wait(170 * time.Second)
	if err != nil {
		return paperBatch{}, fmt.Errorf("innetcc -exp all: %w", err)
	}
	clock.mu.Lock()
	defer clock.mu.Unlock()
	return paperBatch{wall: wall, rssMB: rss, gc: gc, stdout: clock.buf.Bytes(), blocks: clock.blocks}, nil
}

// listExperiments times `innetcc -list` setupRepeats times and returns the
// median wall time and the experiment names in -exp all order.
func listExperiments(e env) (time.Duration, []string, error) {
	var walls []float64
	var out bytes.Buffer
	for i := 0; i < setupRepeats; i++ {
		out.Reset()
		p, err := startProc(e.bin, []string{"-list"}, e.work, false, &out)
		if err != nil {
			return 0, nil, err
		}
		wall, _, _, err := p.wait(30 * time.Second)
		if err != nil {
			return 0, nil, fmt.Errorf("innetcc -list: %w", err)
		}
		walls = append(walls, float64(wall))
	}
	var names []string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "coherence engines") {
			break
		}
		if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) > 0 {
			names = append(names, f[0])
		}
	}
	if len(names) == 0 {
		return 0, nil, fmt.Errorf("innetcc -list printed no experiments")
	}
	return time.Duration(median(walls)), names, nil
}

// runPaper is the paper workload: regenerate every table and figure with
// `innetcc -exp all` at default scale, one subprocess per batch.
func runPaper(e env) (*report, error) {
	rep := newReport()
	setup, names, err := listExperiments(e)
	if err != nil {
		return nil, err
	}

	// One batch per 10 s of --seconds, at least one; the figures are
	// medians over the batches. The batches of a run use suite seeds spread
	// evenly over the recorded ones, so a run's work depends less on which
	// seeds it drew.
	batches := max(1, e.seconds/10)
	suites := make([]uint64, batches)
	for i := range suites {
		suites[i] = 1 + (e.seed+uint64(i*paperSuiteSeeds/batches))%paperSuiteSeeds
	}
	rep.notef("suite seeds %v, %d experiments: %s", suites, len(names), strings.Join(names, " "))
	var walls, rss, cold []float64
	exp := make(map[string][]float64)
	for _, suite := range suites {
		b, err := runPaperBatch(e, suite, false)
		if err != nil {
			return nil, err
		}
		if err := checkPaper(rep, b, suite, names); err != nil {
			return nil, err
		}
		walls = append(walls, b.wall.Seconds())
		rss = append(rss, b.rssMB)
		for k, d := range expDurations(b.blocks, len(names)) {
			exp[names[k]] = append(exp[names[k]], d.Seconds())
			if !nonSimulating[names[k]] {
				cold = append(cold, ms(d))
			}
		}
	}
	rep.attempted = batches * len(names)
	wall := median(walls)
	rep.set("setup_s", setup.Seconds(), "s", setupRepeats)
	rep.set("wall_s", wall, "s", batches)
	rep.set("peak_rss_mb", median(rss), "MB", batches)
	rep.set("sim_accesses_per_s", paperAccesses/wall, "accesses/s", batches)
	rep.set("failed_share", share(float64(rep.failed), float64(rep.attempted)), "ratio", rep.attempted)
	rep.set("cold_p50_ms", median(cold), "ms", len(cold))
	for name, d := range exp {
		rep.set("experiments."+name+"_s", median(d), "s", len(d))
	}
	if !e.traced {
		return rep, nil
	}

	// Traced run: the same batch again with GC tracing on and a span per
	// experiment, then a layer-by-layer replay of the Figure 5 and 9 jobs.
	tr := newTracer(true)
	suite := suites[0]
	tb, err := runPaperBatch(e, suite, true)
	if err != nil {
		return nil, err
	}
	if err := checkPaper(rep, tb, suite, names); err != nil {
		return nil, err
	}
	root := tr.add("paper", "innetcc", "innetcc -exp all", 0, tr.epoch, tr.epoch.Add(tb.wall))
	var prev time.Duration
	for i, d := range expDurations(tb.blocks, len(names)) {
		tr.add("paper", "experiments", "-exp "+names[i], root, tr.epoch.Add(prev), tr.epoch.Add(prev+d))
		prev += d
		rep.set("experiments."+names[i]+"_s", d.Seconds(), "s", 1)
	}
	rep.set("runtime.gc_cycles", float64(tb.gc.cycles), "count", 1)
	rep.set("runtime.gc_cpu_ms", tb.gc.cpuMs, "ms", 1)
	rep.set("trace.overhead_share", (tb.wall.Seconds()-wall)/wall, "ratio", 1)

	var l layers
	cache, err := innetexec.OpenCache(filepath.Join(e.work, "replay-cache"))
	if err != nil {
		return nil, err
	}
	for _, job := range paperReplayJobs(suite) {
		want := innetexec.RunJob(job, innetexec.RunOptions{})
		if err := l.replay(job, want, cache, tr, job.Key, 0); err != nil {
			rep.problem("%v", err)
		}
	}
	l.report(rep)
	rep.unreached = append(rep.unreached, "serve.", "loadgen.", "exec.cache_hit_ratio")
	return rep, finishTrace(e, rep, tr, "paper")
}

// checkPaper compares the batch's stdout with the reference recorded for
// its suite seed and counts experiments whose output never arrived as
// failed.
func checkPaper(rep *report, b paperBatch, suite uint64, names []string) error {
	ref, err := refs.ReadFile(fmt.Sprintf("ref/paper-seed%d.txt", suite))
	if err != nil {
		return err
	}
	if !bytes.Equal(b.stdout, ref) {
		rep.problem("innetcc -exp all -seed %d stdout differs from the reference recorded for that suite seed", suite)
	}
	if len(b.blocks) < len(names) {
		rep.failed += len(names) - len(b.blocks)
		rep.problem("only %d of %d experiments printed their output", len(b.blocks), len(names))
	}
	return nil
}

// expDurations turns block completion times into per-experiment durations:
// -exp all runs experiments one after another, so each starts when the
// previous one's output is complete.
func expDurations(blocks []time.Duration, n int) []time.Duration {
	if len(blocks) < n {
		n = len(blocks)
	}
	out := make([]time.Duration, n)
	var prev time.Duration
	for i := 0; i < n; i++ {
		out[i] = blocks[i] - prev
		prev = blocks[i]
	}
	return out
}

// paperReplayJobs rebuilds the Figure 5 (16-node) and Figure 9 (64-node)
// job batches exactly as the experiment drivers define them.
func paperReplayJobs(suite uint64) []innetexec.Job {
	var jobs []innetexec.Job
	for _, fig := range []struct {
		name     string
		topo     network.TopoSpec
		accesses int
	}{
		{"fig5", protocol.DefaultConfig().Topology, 400},
		{"fig9", network.MeshSpec(8, 8), 120},
	} {
		for _, p := range trace.Benchmarks() {
			for _, k := range protocol.EngineKinds() {
				cfg := protocol.DefaultConfig()
				cfg.Topology = fig.topo
				name := "dir"
				if k == protocol.KindTree {
					name = "tree"
				}
				jobs = append(jobs, innetexec.Job{
					Key: fig.name + "/" + p.Name + "/" + name, Engine: k, Config: cfg,
					Profile: p, Accesses: fig.accesses, SuiteSeed: suite,
				})
			}
		}
	}
	return jobs
}
