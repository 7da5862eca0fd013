package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"innetcc/internal/exec"
	"innetcc/internal/serve"
)

func testCtx(t testing.TB) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), scaledDur(120*time.Second, 420*time.Second))
	t.Cleanup(cancel)
	return ctx
}

// scaled and scaledDur pick the race-build value when the race detector
// is on: instrumented simulation is ~10x slower, so the e2e tests shrink
// their workloads and widen their leases to keep asserting the same
// fault-tolerance properties in similar wall time.
func scaled(plain, race int) int {
	if raceEnabled {
		return race
	}
	return plain
}

func scaledDur(plain, race time.Duration) time.Duration {
	if raceEnabled {
		return race
	}
	return plain
}

func directResult(t *testing.T, req serve.SubmitRequest) exec.Result {
	t.Helper()
	job, err := req.BuildJob()
	if err != nil {
		t.Fatalf("build job: %v", err)
	}
	return exec.RunJob(job, exec.RunOptions{})
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// counters reads the coordinator's fault-tolerance counters.
func counters(c *Coordinator) (reassigns, resumes, local int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nReassigns, c.nResumes, c.nLocal
}

// snapshotRunningOn reports whether some job is currently dispatched to
// the worker with a migration snapshot already pulled.
func snapshotRunningOn(c *Coordinator, workerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range c.jobs.ByID {
		if j.workerID == workerID && j.Rec.State == serve.StateRunning && len(j.snapshot) > 0 {
			return true
		}
	}
	return false
}

// findChaosSeed scans seeds (pure hash arithmetic, no harness) for one
// whose plan kills every one of n workers at least once inside
// [spec.Start, maxTick). Because the schedule is a pure function of the
// seed, the returned seed makes the chaos e2e test deterministic: the
// same kills happen in tick time on every run.
func findChaosSeed(t *testing.T, spec ChaosSpec, n int, maxTick int64) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10_000; seed++ {
		p := spec.Plan(seed)
		ok := true
		for w := 0; w < n && ok; w++ {
			hit := false
			for tick := spec.Start; tick < maxTick; tick++ {
				if p.KillAt(tick, w) {
					hit = true
					break
				}
			}
			ok = hit
		}
		if ok {
			return seed
		}
	}
	t.Fatalf("no seed under 10000 kills all %d workers before tick %d", n, maxTick)
	return 0
}

// TestChaosBatchCompletes is the cluster acceptance test: a batch of
// distinct jobs is submitted over HTTP to a 3-worker cluster while a
// seeded chaos schedule repeatedly hard-kills workers (restarting them
// over their own data directories after a downtime longer than the
// lease, so work migrates) and partitions them. Every worker dies at
// least once, yet every job completes with a result byte-identical to a
// direct single-process run of the same spec.
func TestChaosBatchCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e is several seconds long")
	}
	ctx := testCtx(t)
	spec, err := ParseChaosSpec(fmt.Sprintf("kill=%d,part=60000,restart=12,plen=2,window=2:0",
		scaled(100_000, 50_000)))
	if err != nil {
		t.Fatalf("chaos spec: %v", err)
	}
	const nWorkers = 3
	maxKillTick := int64(scaled(40, 80))
	seed := findChaosSeed(t, spec, nWorkers, maxKillTick)
	t.Logf("chaos seed %d (every worker killed before tick %d)", seed, maxKillTick)

	h, err := NewHarness(HarnessOptions{
		Dir:       t.TempDir(),
		Workers:   nWorkers,
		Slots:     1,
		Plan:      spec.Plan(seed),
		TickEvery: scaledDur(40*time.Millisecond, 80*time.Millisecond),
		Coordinator: Options{
			Lease:         scaledDur(400*time.Millisecond, 1000*time.Millisecond),
			PollEvery:     20 * time.Millisecond,
			MaxRedispatch: 200,
		},
		Worker: serve.Options{SegmentCycles: 256, CheckpointEvery: 2048},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	defer h.Close()

	cl := &Client{serve.Client{Base: h.URL, Timeout: 2 * time.Second, Retries: 5, RetryBase: 20 * time.Millisecond}}
	profiles := []string{"bar", "fft", "lu", "ocn", "rad", "ray", "wns", "wsp", "lu"}
	var reqs []serve.SubmitRequest
	var ids []string
	for i, p := range profiles {
		engine := "dir"
		if i%2 == 1 {
			engine = "tree"
		}
		req := serve.SubmitRequest{
			Tenant:   "chaos",
			Profile:  p,
			Engine:   engine,
			Accesses: scaled(2200, 700) + 25*i, // distinct specs: no cross-job cache shortcuts
		}
		rec, err := cl.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %s/%s: %v", p, engine, err)
		}
		reqs = append(reqs, req)
		ids = append(ids, rec.ID)
	}

	allDone := func() bool {
		for _, id := range ids {
			rec, err := h.Coord.Job(id)
			if err != nil || !rec.Terminal() {
				return false
			}
		}
		return true
	}
	// Drive chaos until the batch completes AND the deterministic kill
	// window has fully played out, within a generous tick budget.
	for tick := int64(0); tick < 1500 && !(allDone() && h.Tick() > maxKillTick); tick++ {
		time.Sleep(h.opt.TickEvery)
		h.Step()
	}
	waitFor(t, "all chaos jobs terminal", allDone)

	for id, n := range h.KillCounts() {
		if n < 1 {
			t.Errorf("worker %s was never killed (kills: %v)", id, h.KillCounts())
		}
	}
	for i, id := range ids {
		rec, err := h.Coord.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if rec.State != serve.StateDone {
			t.Fatalf("job %s (%s/%s) finished %s: %s", id, reqs[i].Profile, reqs[i].Engine, rec.State, rec.Error)
		}
		got, err := cl.Result(ctx, id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		want := directResult(t, reqs[i])
		if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
			t.Errorf("job %s (%s/%s): chaos result differs from direct run\n chaos:  %s\n direct: %s",
				id, reqs[i].Profile, reqs[i].Engine, g, w)
		}
	}
	re, rs, _ := counters(h.Coord)
	t.Logf("chaos stats: ticks=%d kills=%v reassigns=%d resumes=%d events=%d",
		h.Tick(), h.KillCounts(), re, rs, len(h.Events()))
}

// TestMigrationByteIdentity pins checkpoint migration end to end: a
// 16-job suite (8 profiles x both engines, one job with an active fault
// plan) runs on a 2-worker cluster; worker w0 is hard-killed while jobs
// with pulled checkpoints run on it, so its work is reassigned to w1 and
// resumed from the migrated snapshots. Every result must be
// byte-identical to a direct run, and at least one dispatch must have
// actually resumed from a snapshot.
func TestMigrationByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("migration suite is several seconds long")
	}
	ctx := testCtx(t)
	h, err := NewHarness(HarnessOptions{
		Dir:     t.TempDir(),
		Workers: 2,
		Slots:   4,
		Coordinator: Options{
			// Wide enough that a loaded worker's heartbeats never miss it:
			// the only lease expiry in this test should be the real kill.
			Lease:         scaledDur(1500*time.Millisecond, 4*time.Second),
			PollEvery:     15 * time.Millisecond,
			MaxRedispatch: 50,
		},
		// ~2600-access jobs run ~100k+ cycles: checkpointing every 2048
		// still leaves dozens of migration points per job without the
		// write cost dominating the runtime.
		Worker: serve.Options{SegmentCycles: 256, CheckpointEvery: 2048},
	})
	if err != nil {
		t.Fatalf("harness: %v", err)
	}
	defer h.Close()

	profiles := []string{"bar", "fft", "lu", "ocn", "rad", "ray", "wns", "wsp"}
	var reqs []serve.SubmitRequest
	var ids []string
	for _, p := range profiles {
		for _, engine := range []string{"dir", "tree"} {
			req := serve.SubmitRequest{
				Tenant:   "mig",
				Profile:  p,
				Engine:   engine,
				Accesses: scaled(2600, 900),
			}
			if p == "lu" && engine == "tree" {
				// One job under an active fault plan: snapshots carry the
				// attempt epoch, so migration must survive fault recovery too.
				req.Faults = "drop=300,retries=5"
			}
			rec, err := h.Coord.Submit(req)
			if err != nil {
				t.Fatalf("submit %s/%s: %v", p, engine, err)
			}
			reqs = append(reqs, req)
			ids = append(ids, rec.ID)
		}
	}

	// Kill w0 the moment a job is demonstrably mid-run on it with a
	// migration snapshot already pulled.
	waitFor(t, "a snapshot pulled from w0", func() bool {
		return snapshotRunningOn(h.Coord, "w0")
	})
	h.killWorker(h.workers[0], 0)
	t.Log("killed w0 mid-batch")

	for i, id := range ids {
		rec, err := h.Coord.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if rec.State != serve.StateDone {
			t.Fatalf("job %s (%s/%s) finished %s: %s", id, reqs[i].Profile, reqs[i].Engine, rec.State, rec.Error)
		}
		got, err := h.Coord.Result(id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		want := directResult(t, reqs[i])
		if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
			t.Errorf("job %s (%s/%s): migrated result differs from direct run",
				id, reqs[i].Profile, reqs[i].Engine)
		}
	}
	re, rs, _ := counters(h.Coord)
	if re < 1 {
		t.Errorf("killing w0 mid-batch caused no reassignments")
	}
	if rs < 1 {
		t.Errorf("no dispatch resumed from a migrated snapshot (reassigns=%d)", re)
	}
	t.Logf("migration stats: reassigns=%d resumes=%d", re, rs)
}

// TestBackpressure pins graceful degradation with zero workers: the
// queue bound rejects further submissions with ErrBacklogFull, and the
// HTTP surface turns that into 429 with a Retry-After header.
func TestBackpressure(t *testing.T) {
	c, err := New(Options{MaxQueued: 2})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Drain()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	ctx := testCtx(t)

	cl := &Client{serve.Client{Base: ts.URL}}
	req := serve.SubmitRequest{Tenant: "t", Profile: "lu", Engine: "dir", Accesses: 100}
	for i := 0; i < 2; i++ {
		req.SuiteSeed = uint64(i + 1)
		if _, err := cl.Submit(ctx, req); err != nil {
			t.Fatalf("submit %d within bound: %v", i, err)
		}
	}
	req.SuiteSeed = 3
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submission got HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without a Retry-After header")
	}
	if _, err := cl.Submit(ctx, req); serve.StatusOf(err) != http.StatusTooManyRequests {
		t.Errorf("client error = %v, want status 429", err)
	}
}

// TestLocalFallback: a worker registers healthy and then dies silently;
// the breaker stops the hammering, the lease declares it dead, and local
// fallback completes the queue with correct results. Also pins the
// register-time health probe: a worker advertising an address nobody
// answers at is rejected outright.
func TestLocalFallback(t *testing.T) {
	ctx := testCtx(t)
	// A health-only stub: alive for registration, gone immediately after.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	}))
	stubURL := stub.URL

	c, err := New(Options{
		Lease:         250 * time.Millisecond,
		PollEvery:     15 * time.Millisecond,
		MaxRedispatch: 100,
		LocalFallback: true,
		LocalSlots:    2,
		SegmentCycles: 128,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Drain()
	if _, err := c.Register(RegisterRequest{ID: "dead", URL: stubURL, Slots: 2}); err != nil {
		t.Fatalf("register: %v", err)
	}
	stub.Close() // the worker is now unreachable, but its lease is fresh
	if _, err := c.Register(RegisterRequest{ID: "bogus", URL: stubURL, Slots: 1}); err == nil {
		t.Fatalf("registering an unreachable advertised URL was accepted")
	}

	reqs := []serve.SubmitRequest{
		{Tenant: "t", Profile: "fft", Engine: "dir", Accesses: 600},
		{Tenant: "t", Profile: "ocn", Engine: "tree", Accesses: 600},
	}
	var ids []string
	for _, req := range reqs {
		rec, err := c.Submit(req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, rec.ID)
	}

	for i, id := range ids {
		rec, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if rec.State != serve.StateDone {
			t.Fatalf("job %s finished %s: %s", id, rec.State, rec.Error)
		}
		got, err := c.Result(id)
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		if g, w := mustJSON(t, got), mustJSON(t, directResult(t, reqs[i])); g != w {
			t.Errorf("fallback result %d differs from direct run", i)
		}
	}
	st := c.Stats()
	if st.LiveWorkers != 0 {
		t.Errorf("dead worker still counted live: %+v", st.Workers)
	}
	if st.LocalRuns < 1 {
		t.Errorf("no local fallback runs recorded: %+v", st)
	}
	if st.DispatchFails < 1 {
		t.Errorf("dispatches to the dead worker left no dispatchFails trace: %+v", st)
	}
}

// TestCoordinatorWatch pins the coordinator's SSE surface: a stock
// serve.Client watches a cluster job (here completed by local fallback)
// through the coordinator exactly as it would a single server, seeing
// progress ticks and the terminal state.
func TestCoordinatorWatch(t *testing.T) {
	ctx := testCtx(t)
	c, err := New(Options{LocalFallback: true, SegmentCycles: 64})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Drain()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	cl := &serve.Client{Base: ts.URL}
	req := serve.SubmitRequest{Tenant: "t", Profile: "bar", Engine: "dir", Accesses: 1200}
	rec, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var progress, states int
	final, err := cl.Watch(ctx, rec.ID, func(ev serve.Event) {
		switch ev.Type {
		case "progress":
			progress++
		case "state":
			states++
		}
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("watched job finished %s: %s", final.State, final.Error)
	}
	if progress < 1 {
		t.Errorf("stream delivered no progress events (states: %d)", states)
	}
	got, err := cl.Result(ctx, rec.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, directResult(t, req)); g != w {
		t.Errorf("watched result differs from direct run")
	}
}

// TestCoordinatorDrainResume: a durable coordinator drains mid-run with
// a checkpoint in hand; a new coordinator over the same directory
// resumes the job from that snapshot and produces the byte-identical
// result.
func TestCoordinatorDrainResume(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	req := serve.SubmitRequest{Tenant: "t", Profile: "rad", Engine: "tree", Accesses: 4000}

	c1, err := New(Options{
		DataDir:         dir,
		LocalFallback:   true,
		SegmentCycles:   128,
		CheckpointEvery: 512,
	})
	if err != nil {
		t.Fatalf("new coordinator 1: %v", err)
	}
	rec, err := c1.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, "a local checkpoint stashed", func() bool {
		c1.mu.Lock()
		defer c1.mu.Unlock()
		j := c1.jobs.ByID[rec.ID]
		return j != nil && len(j.snapshot) > 0
	})
	c1.Drain()

	c2, err := New(Options{
		DataDir:       dir,
		LocalFallback: true,
		SegmentCycles: 128,
	})
	if err != nil {
		t.Fatalf("new coordinator 2: %v", err)
	}
	defer c2.Drain()
	final, err := c2.Wait(ctx, rec.ID)
	if err != nil {
		t.Fatalf("wait after restart: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("restarted job finished %s: %s", final.State, final.Error)
	}
	got, err := c2.Result(rec.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, directResult(t, req)); g != w {
		t.Errorf("post-drain result differs from direct run")
	}
	if _, rs, _ := counters(c2); rs < 1 {
		t.Errorf("restart did not resume from the parked snapshot")
	}
}

// TestChaosSpecRoundTrip pins the chaos spec grammar and the plan's
// determinism.
func TestChaosSpecRoundTrip(t *testing.T) {
	s, err := ParseChaosSpec("kill=80000,part=5000,restart=6,plen=3,window=2:50")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	back, err := ParseChaosSpec(s.String())
	if err != nil || back != s {
		t.Fatalf("round trip: %v / %+v != %+v", err, back, s)
	}
	if _, err := ParseChaosSpec("kill=2000000"); err == nil {
		t.Errorf("over-scale rate accepted")
	}
	if _, err := ParseChaosSpec("bogus=1"); err == nil {
		t.Errorf("unknown key accepted")
	}
	if _, err := ParseChaosSpec("restart=0"); err == nil {
		t.Errorf("zero restart accepted")
	}

	p1 := s.Plan(7)
	p2 := s.Plan(7)
	p3 := s.Plan(8)
	same, diff := true, false
	for tick := int64(0); tick < 64; tick++ {
		for w := 0; w < 4; w++ {
			if p1.KillAt(tick, w) != p2.KillAt(tick, w) || p1.PartitionedAt(tick, w) != p2.PartitionedAt(tick, w) {
				same = false
			}
			if p1.KillAt(tick, w) != p3.KillAt(tick, w) {
				diff = true
			}
		}
	}
	if !same {
		t.Errorf("identical plans disagree")
	}
	if !diff {
		t.Errorf("different seeds produced identical kill schedules")
	}
	if p1.KillAt(1, 0) {
		t.Errorf("kill fired before the window opens")
	}
	if p1.KillAt(50, 0) || p1.PartitionedAt(50, 0) {
		t.Errorf("chaos fired after the window closed")
	}
}

// TestAgentReRegisters: an agent whose coordinator restarts (losing the
// registry) recovers its registration off the 404 heartbeat.
func TestAgentReRegisters(t *testing.T) {
	ctx := testCtx(t)
	c1, err := New(Options{Lease: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	var handler atomic.Value
	handler.Store(c1.Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer ts.Close()

	// A health-only stub to advertise: registration probes the URL.
	wstub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer wstub.Close()

	agentCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	ag := &Agent{Coordinator: ts.URL, ID: "w0", Advertise: wstub.URL, Slots: 1}
	go func() { defer close(done); ag.Run(agentCtx) }()

	waitFor(t, "agent registered", func() bool { return c1.Stats().LiveWorkers == 1 })

	// "Restart" the coordinator: swap a fresh one behind the same URL.
	c2, err := New(Options{Lease: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("new coordinator 2: %v", err)
	}
	defer c2.Drain()
	handler.Store(c2.Handler())
	c1.Drain()

	waitFor(t, "agent re-registered with the new coordinator", func() bool {
		return c2.Stats().LiveWorkers == 1
	})
	st := c2.Stats()
	if len(st.Workers) != 1 || st.Workers[0].ID != "w0" {
		t.Fatalf("unexpected registry after re-register: %+v", st.Workers)
	}
	cancel()
	<-done
}

// BenchmarkClusterThroughput measures batch jobs/sec through the full
// coordinator + HTTP + worker stack, with 1 and 3 workers. Specs vary
// per iteration so the result cache never shortcuts the measurement.
func BenchmarkClusterThroughput(b *testing.B) {
	for _, workers := range []int{1, 3} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			h, err := NewHarness(HarnessOptions{
				Dir:     b.TempDir(),
				Workers: workers,
				Slots:   1,
				Coordinator: Options{
					Lease:     time.Second,
					PollEvery: 10 * time.Millisecond,
				},
				Worker: serve.Options{SegmentCycles: 512},
			})
			if err != nil {
				b.Fatalf("harness: %v", err)
			}
			defer h.Close()
			ctx := testCtx(b)
			profiles := []string{"bar", "fft", "lu", "ocn", "rad", "ray"}
			b.ResetTimer()
			start := time.Now()
			jobs := 0
			for i := 0; i < b.N; i++ {
				var ids []string
				for k, p := range profiles {
					rec, err := h.Coord.Submit(serve.SubmitRequest{
						Tenant: "bench", Profile: p, Engine: "dir",
						Accesses:  800,
						SuiteSeed: uint64(i*100 + k + 1),
					})
					if err != nil {
						b.Fatalf("submit: %v", err)
					}
					ids = append(ids, rec.ID)
				}
				for _, id := range ids {
					if rec, err := h.Coord.Wait(ctx, id); err != nil || rec.State != serve.StateDone {
						b.Fatalf("job %s: %v %s", id, err, rec.Error)
					}
				}
				jobs += len(profiles)
			}
			b.ReportMetric(float64(jobs)/time.Since(start).Seconds(), "jobs/sec")
		})
	}
}
