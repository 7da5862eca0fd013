package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	innetexec "innetcc/internal/exec"
	"innetcc/internal/serve"
	"innetcc/internal/trace"
)

const (
	// serveWorkers is the server's simulation slot count (-serve-workers).
	serveWorkers = 2

	// openRate is the serve_open arrival rate in jobs per second. Half the
	// arrivals repeat an earlier spec, so the cold rate is half of it. That
	// kept the two workers about a quarter busy on the 2-CPU host the
	// benchmark was written on (serve.worker_busy_share): enough for warm
	// hits to queue behind cold runs, and less queueing and lock waiting to
	// amplify host slowdowns into the latency figures than at 30/s or 48/s.
	// 22/s over the configured 20 s also gives the 220 cold and 220 warm
	// samples a p95 needs.
	openRate    = 22.0
	repeatShare = 0.5
	accessLo    = 50  // accesses per node of a fresh serve_open spec,
	accessHi    = 150 // drawn uniformly from [accessLo, accessHi]

	// ontimeLimit is the serve_open latency limit: a job is on time when
	// its result is in hand within this long of its due time.
	ontimeLimit = 500 * time.Millisecond

	// pollGap is how long the serve_open follower sleeps after a sweep over
	// the outstanding jobs in which none had finished.
	pollGap = time.Millisecond

	// bigmeshJobs 256-node tree jobs of bigmeshAccesses accesses per node
	// make one bigmesh batch.
	bigmeshJobs     = 16
	bigmeshAccesses = 20
	bigmeshTopology = "mesh:16x16"
)

// api is an HTTP client for the job service that uses one connection.
type api struct {
	base string
	hc   *http.Client
}

func newAPI(base string) *api {
	return &api{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do sends one request and returns the status and the whole body.
func (a *api) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, a.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path and decodes a 200 response into out.
func (a *api) getJSON(path string, out any) error {
	code, b, err := a.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, b)
	}
	return json.Unmarshal(b, out)
}

// waitTerminal follows the job's event stream until the server closes it
// after the terminal state event.
func (a *api) waitTerminal(id string) error {
	resp, err := a.hc.Get(a.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	terminal := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		if ev.Record != nil && ev.Record.Terminal() {
			terminal = true
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !terminal {
		return fmt.Errorf("events %s: stream ended before the job finished", id)
	}
	return nil
}

// server is one running `innetcc -serve` process.
type server struct {
	p   *proc
	api *api
}

// startServer launches the job server on a free loopback port with a
// fresh data directory and returns once /healthz answers, with the time
// that took since launch.
func startServer(e env, traced bool) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	data, err := os.MkdirTemp(e.work, "serve-data-")
	if err != nil {
		return nil, 0, err
	}
	p, err := startProc(e.bin, []string{
		"-serve", addr, "-serve-data", data, "-serve-workers", fmt.Sprint(serveWorkers),
	}, e.work, traced, io.Discard)
	if err != nil {
		return nil, 0, err
	}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := p.start.Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		resp, err := probe.Get("http://" + addr + "/healthz")
		if err != nil {
			select {
			case <-p.exited:
				_, _, _, werr := p.wait(0)
				return nil, 0, fmt.Errorf("innetcc -serve exited during start-up: %v", werr)
			default:
			}
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			ready := time.Since(p.start)
			return &server{p: p, api: newAPI("http://" + addr)}, ready, nil
		}
	}
	p.kill()
	return nil, 0, fmt.Errorf("innetcc -serve did not answer /healthz within 30s")
}

// setupServer starts the server setupRepeats times, stopping all but the
// last, and returns the last one with the median set-up time.
func setupServer(e env) (*server, time.Duration, error) {
	var times []float64
	for i := 0; ; i++ {
		s, d, err := startServer(e, false)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, float64(d))
		if i == setupRepeats-1 {
			return s, time.Duration(median(times)), nil
		}
		if _, _, err := s.p.stop(); err != nil {
			return nil, 0, fmt.Errorf("stopping innetcc -serve: %w", err)
		}
	}
}

// serveJob is one submission and what the benchmark observed of it.
type serveJob struct {
	req serve.SubmitRequest
	due time.Duration // open loop: offset of the due time from the schedule start

	start    time.Time // due time (open loop) or submit time (closed loop)
	sent     time.Time // POST issued
	accepted time.Time // POST answered
	id       string
	err      string    // refusal or transport failure; the job counts as failed
	done     time.Time // result bytes in hand
	fetch    time.Duration
	body     []byte
	rec      serve.JobRecord
}

func (j *serveJob) latency() time.Duration { return j.done.Sub(j.start) }

// submit posts the job and records its ID or why it was refused.
func (j *serveJob) submit(a *api) {
	b, err := json.Marshal(j.req)
	if err != nil {
		j.err = err.Error()
		return
	}
	j.sent = time.Now()
	code, resp, err := a.do(http.MethodPost, "/v1/jobs", b)
	j.accepted = time.Now()
	switch {
	case err != nil:
		j.err = err.Error()
	case code != http.StatusAccepted:
		j.err = fmt.Sprintf("submit refused with status %d: %s", code, bytes.TrimSpace(resp))
	default:
		var rec serve.JobRecord
		if err := json.Unmarshal(resp, &rec); err != nil {
			j.err = err.Error()
		} else {
			j.id = rec.ID
		}
	}
}

// fetchResult asks for the job's result once; it reports whether the job
// is settled (result in hand, or a definitive error).
func (j *serveJob) fetchResult(a *api) bool {
	t := time.Now()
	code, b, err := a.do(http.MethodGet, "/v1/jobs/"+j.id+"/result", nil)
	switch {
	case err != nil:
		j.err = err.Error()
	case code == http.StatusConflict:
		return false // not finished yet
	case code != http.StatusOK:
		j.err = fmt.Sprintf("result fetch status %d: %s", code, bytes.TrimSpace(b))
	default:
		j.done = time.Now()
		j.fetch = j.done.Sub(t)
		j.body = b
	}
	return true
}

// openSchedule draws the serve_open arrivals. The counts are fixed so every
// seed offers the same load: openRate × seconds arrivals at Poisson times
// (uniform points over the window, as a Poisson process with that count
// has), exactly repeatShare of them repeating an earlier fresh spec, and
// fresh specs spread evenly over profiles, engines and access counts in a
// seeded order. Each arrival comes from one of two tenants at random.
func openSchedule(seed uint64, seconds int) []*serveJob {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	n := int(openRate * float64(seconds))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * float64(seconds)
	}
	sort.Float64s(times)

	repeat := make([]bool, n)
	for i := 0; i < int(repeatShare*float64(n)); i++ {
		repeat[i] = true
	}
	rng.Shuffle(n, func(i, j int) { repeat[i], repeat[j] = repeat[j], repeat[i] })
	for i := range repeat { // the first arrival has nothing to repeat
		if !repeat[i] {
			repeat[0], repeat[i] = repeat[i], repeat[0]
			break
		}
	}

	benches := trace.Benchmarks()
	nFresh := 0
	for _, r := range repeat {
		if !r {
			nFresh++
		}
	}
	fresh := make([]serve.SubmitRequest, nFresh)
	perm := rng.Perm(nFresh) // decorrelates the access count from profile and engine
	for i := range fresh {
		fresh[i] = serve.SubmitRequest{
			Profile:   benches[i%len(benches)].Name,
			Engine:    []string{"dir", "tree"}[i/len(benches)%2],
			Accesses:  accessLo + perm[i]*(accessHi-accessLo)/max(nFresh-1, 1),
			SuiteSeed: rng.Uint64() | 1,
		}
	}
	rng.Shuffle(nFresh, func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })

	jobs := make([]*serveJob, n)
	used := 0
	for i := range jobs {
		var req serve.SubmitRequest
		if repeat[i] {
			req = fresh[rng.IntN(used)]
		} else {
			req = fresh[used]
			used++
		}
		req.Tenant = []string{"alice", "bob"}[rng.IntN(2)]
		jobs[i] = &serveJob{req: req, due: time.Duration(times[i] * float64(time.Second))}
	}
	return jobs
}

// openLoop submits every job at its due time on one connection while a
// second connection polls the outstanding jobs for their results. It
// returns once every job is settled.
func openLoop(s *server, jobs []*serveJob) error {
	sub := newAPI(s.api.base)
	follow := newAPI(s.api.base)
	submitted := make(chan *serveJob, len(jobs)) // sized to every send, so the submitter never waits on the follower
	stop := make(chan struct{})
	begin := time.Now()
	go func() {
		defer close(submitted)
		for _, j := range jobs {
			j.start = begin.Add(j.due)
			select {
			case <-time.After(time.Until(j.start)):
			case <-stop:
				return
			}
			j.submit(sub)
			submitted <- j
		}
	}()
	defer func() { // on an early return, stop the submitter and wait for it
		close(stop)
		for range submitted {
		}
	}()

	deadline := begin.Add(time.Duration(len(jobs))*time.Second/openRate + 60*time.Second)
	var outstanding []*serveJob
	open := true
	for open || len(outstanding) > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d jobs still unfinished at the deadline", len(outstanding))
		}
		if len(outstanding) == 0 {
			j, ok := <-submitted
			if !ok {
				break
			}
			outstanding = append(outstanding, j)
		}
	drain:
		for {
			select {
			case j, ok := <-submitted:
				if !ok {
					open = false
					break drain
				}
				outstanding = append(outstanding, j)
			default:
				break drain
			}
		}
		kept := outstanding[:0]
		for _, j := range outstanding {
			if j.err == "" && !j.fetchResult(follow) {
				kept = append(kept, j)
			}
		}
		if len(kept) == len(outstanding) {
			time.Sleep(pollGap)
		}
		outstanding = kept
	}
	return nil
}

// servePass is one pass of a serve workload against one server process.
type servePass struct {
	jobs     []*serveJob
	setup    time.Duration
	wall     time.Duration
	rssMB    float64
	gc       gcTotals
	stats    serve.Stats
	statsDur time.Duration
}

// runPass starts a server (setting it up setupRepeats times when untraced),
// drives it with load, reads the records and stats, and stops it.
func runPass(e env, traced bool, jobs []*serveJob, load func(*server, []*serveJob) error) (servePass, error) {
	var s *server
	var err error
	pass := servePass{jobs: jobs}
	if traced {
		s, pass.setup, err = startServer(e, true)
	} else {
		s, pass.setup, err = setupServer(e)
	}
	if err != nil {
		return pass, err
	}
	defer s.p.kill()
	if err := load(s, jobs); err != nil {
		return pass, err
	}
	var first, last time.Time
	for _, j := range jobs {
		if first.IsZero() || j.start.Before(first) {
			first = j.start
		}
		if j.done.After(last) {
			last = j.done
		}
	}
	pass.wall = last.Sub(first)

	t := time.Now()
	if err := s.api.getJSON("/v1/stats", &pass.stats); err != nil {
		return pass, err
	}
	pass.statsDur = time.Since(t)
	for _, j := range jobs {
		if j.id != "" {
			if err := s.api.getJSON("/v1/jobs/"+j.id, &j.rec); err != nil {
				return pass, err
			}
		}
	}
	pass.rssMB, pass.gc, err = s.p.stop()
	if err != nil {
		return pass, fmt.Errorf("stopping innetcc -serve: %w", err)
	}
	return pass, nil
}

// classify sorts a pass's jobs into cold (simulated), warm (served from the
// result cache) and failed, checks each record against the submitted
// spec, and checks that every job of one spec got the same result.
func (p servePass) classify(rep *report) (cold, warm, failed []*serveJob, byHash map[string]*serveJob) {
	byHash = make(map[string]*serveJob)
	for _, j := range p.jobs {
		if j.err != "" || j.rec.State != serve.StateDone {
			failed = append(failed, j)
		}
		if j.err != "" {
			continue
		}
		job, err := j.req.BuildJob()
		if err != nil {
			rep.problem("job %s: %v", j.id, err)
			continue
		}
		if j.rec.Hash != job.Hash() {
			rep.problem("job %s: server hash %s, spec hash %s", j.id, j.rec.Hash, job.Hash())
		}
		if j.rec.State == serve.StateDone {
			if j.rec.Cached {
				warm = append(warm, j)
			} else {
				cold = append(cold, j)
			}
		}
		if orig, ok := byHash[j.rec.Hash]; !ok || (orig.rec.Cached && !j.rec.Cached) {
			byHash[j.rec.Hash] = j
		}
	}
	for _, j := range p.jobs {
		if j.err != "" {
			continue
		}
		orig := byHash[j.rec.Hash]
		a, errA := canonical(j.body)
		b, errB := canonical(orig.body)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			rep.problem("job %s: result differs from job %s of the same spec", j.id, orig.id)
		}
	}
	return cold, warm, failed, byHash
}

// verify checks one result per distinct spec against a direct exec.RunJob.
func verify(rep *report, byHash map[string]*serveJob, workers int) {
	var jobs []innetexec.Job
	var bodies [][]byte
	for _, j := range byHash {
		job, err := j.req.BuildJob()
		if err != nil {
			continue // reported by classify
		}
		jobs = append(jobs, job)
		bodies = append(bodies, j.body)
	}
	checkDirect(rep, jobs, bodies, workers)
}

// noteFailed names every failed or refused job in the report.
func noteFailed(rep *report, failed []*serveJob) {
	for _, j := range failed {
		why := j.err
		if why == "" {
			why = j.rec.State + ": " + j.rec.Error
		}
		rep.notef("job %s failed (%s %s, %d accesses/node, %s, suite seed %d): %s",
			j.id, j.req.Profile, j.req.Engine, j.req.Accesses, j.req.Topology, j.req.SuiteSeed, why)
	}
}

func latenciesMs(js []*serveJob) []float64 {
	out := make([]float64, len(js))
	for i, j := range js {
		out[i] = ms(j.latency())
	}
	return out
}

// traceServePass records each job's span tree: the benchmark's HTTP calls,
// the queue and run intervals from the job record, and, for every job that
// simulated, a layer-by-layer replay of its spec.
func traceServePass(e env, rep *report, tr *tracer, p servePass, cold []*serveJob, l *layers) error {
	roots := make(map[*serveJob]int)
	for _, j := range p.jobs {
		if j.err != "" {
			continue
		}
		root := tr.add(j.id, "loadgen", "job", 0, j.start, j.done)
		roots[j] = root
		tr.add(j.id, "serve.http", "POST /v1/jobs", root, j.sent, j.accepted)
		tr.add(j.id, "serve.queue", "queued", root, time.UnixMilli(j.rec.SubmittedAt), time.UnixMilli(j.rec.StartedAt))
		tr.add(j.id, "serve.run", "running", root, time.UnixMilli(j.rec.StartedAt), time.UnixMilli(j.rec.FinishedAt))
		tr.add(j.id, "serve.http", "GET /v1/jobs/{id}/result", root, j.done.Add(-j.fetch), j.done)
	}
	cache, err := innetexec.OpenCache(filepath.Join(e.work, "replay-cache"))
	if err != nil {
		return err
	}
	for _, j := range cold {
		job, err := j.req.BuildJob()
		if err != nil {
			continue // reported by classify
		}
		var want innetexec.Result
		if err := json.Unmarshal(j.body, &want); err != nil {
			rep.problem("job %s: %v", j.id, err)
			continue
		}
		if err := l.replay(job, want, cache, tr, j.id, roots[j]); err != nil {
			rep.problem("%v", err)
		}
	}
	return nil
}

// serveLayers reports the serve- and runtime-layer metrics of a traced
// pass.
func serveLayers(rep *report, p servePass, lateMs []float64) {
	var submit, fetch, queue []float64
	for _, j := range p.jobs {
		if j.err != "" {
			continue
		}
		submit = append(submit, ms(j.accepted.Sub(j.sent)))
		fetch = append(fetch, ms(j.fetch))
		queue = append(queue, float64(j.rec.StartedAt-j.rec.SubmittedAt))
	}
	rep.set("serve.submit_p50_ms", median(submit), "ms", len(submit))
	rep.set("serve.submit_p99_ms", quantile(submit, 0.99), "ms", len(submit))
	rep.set("serve.queue_wait_p50_ms", median(queue), "ms", len(queue))
	rep.set("serve.queue_wait_p95_ms", quantile(queue, 0.95), "ms", len(queue))
	rep.set("serve.result_fetch_p50_ms", median(fetch), "ms", len(fetch))
	rep.set("serve.stats_ms", ms(p.statsDur), "ms", 1)
	var busy float64
	for _, j := range p.jobs {
		if j.rec.FinishedAt > 0 {
			busy += float64(j.rec.FinishedAt - j.rec.StartedAt)
		}
	}
	rep.set("serve.worker_busy_share", share(busy, serveWorkers*ms(p.wall)), "ratio", len(p.jobs))
	hits, misses := float64(p.stats.CacheHits), float64(p.stats.CacheMisses)
	rep.set("exec.cache_hit_ratio", share(hits, hits+misses), "ratio", int(hits+misses))
	if lateMs != nil { // an open loop; a closed loop has no schedule to be late against
		rep.set("loadgen.late_p99_ms", quantile(lateMs, 0.99), "ms", len(lateMs))
	}
	rep.set("runtime.gc_cycles", float64(p.gc.cycles), "count", 1)
	rep.set("runtime.gc_cpu_ms", p.gc.cpuMs, "ms", 1)
}

// runServeOpen is the serve_open workload: an open loop of seeded Poisson
// arrivals from two tenants against `innetcc -serve` with two workers.
func runServeOpen(e env) (*report, error) {
	rep := newReport()
	p, err := runPass(e, false, openSchedule(e.seed, e.seconds), openLoop)
	if err != nil {
		return nil, err
	}
	cold, warm, failed, byHash := p.classify(rep)
	verify(rep, byHash, serveWorkers)
	rep.attempted, rep.failed = len(p.jobs), len(failed)
	noteFailed(rep, failed)
	coldMs, warmMs := latenciesMs(cold), latenciesMs(warm)
	ontime := 0
	for _, l := range slices.Concat(coldMs, warmMs) {
		if l <= ms(ontimeLimit) {
			ontime++
		}
	}
	rep.set("setup_s", p.setup.Seconds(), "s", setupRepeats)
	rep.set("wall_s", p.wall.Seconds(), "s", 1)
	rep.set("peak_rss_mb", p.rssMB, "MB", 1)
	rep.set("cold_p50_ms", median(coldMs), "ms", len(coldMs))
	rep.set("cold_p95_ms", quantile(coldMs, 0.95), "ms", len(coldMs))
	var queued, service []float64
	for _, j := range cold {
		queued = append(queued, float64(j.rec.StartedAt-j.rec.SubmittedAt))
		service = append(service, float64(j.rec.FinishedAt-j.rec.StartedAt))
	}
	rep.set("cold_queue_p50_ms", median(queued), "ms", len(queued))
	rep.set("cold_service_p50_ms", median(service), "ms", len(service))
	rep.set("warm_p50_ms", median(warmMs), "ms", len(warmMs))
	rep.set("warm_p95_ms", quantile(warmMs, 0.95), "ms", len(warmMs))
	rep.setNote("ontime_share", share(float64(ontime), float64(len(p.jobs))), "ratio", len(p.jobs),
		fmt.Sprintf("limit=%s", ontimeLimit))
	rep.set("failed_share", share(float64(len(failed)), float64(len(p.jobs))), "ratio", len(p.jobs))
	if len(coldMs) < 200 || len(warmMs) < 200 {
		rep.notef("fewer than 200 cold or warm samples (%d cold, %d warm): the p95 figures are thin", len(coldMs), len(warmMs))
	}
	rep.notef("%d jobs offered at %.0f/s over %ds, %d distinct specs", len(p.jobs), openRate, e.seconds, len(byHash))
	if !e.traced {
		return rep, nil
	}

	tr := newTracer(true)
	tp, err := runPass(e, true, openSchedule(e.seed, e.seconds), openLoop)
	if err != nil {
		return nil, err
	}
	tcold, _, _, _ := tp.classify(rep)
	var late []float64
	for _, j := range tp.jobs {
		late = append(late, ms(j.sent.Sub(j.start)))
	}
	tcoldMs := latenciesMs(tcold)
	rep.set("trace.overhead_share", share(median(tcoldMs)-median(coldMs), median(coldMs)), "ratio", len(tcoldMs))
	serveLayers(rep, tp, late)
	var l layers
	if err := traceServePass(e, rep, tr, tp, tcold, &l); err != nil {
		return nil, err
	}
	l.report(rep)
	rep.unreached = append(rep.unreached, "experiments.")
	return rep, finishTrace(e, rep, tr, "serve_open")
}

// bigmeshSchedule lists rounds bigmesh batches: 256-node tree jobs cycling
// through the profiles, each with its own suite seed, so none repeats.
func bigmeshSchedule(seed uint64, rounds int) []*serveJob {
	rng := rand.New(rand.NewPCG(seed, 0xb16))
	benches := trace.Benchmarks()
	jobs := make([]*serveJob, rounds*bigmeshJobs)
	for i := range jobs {
		jobs[i] = &serveJob{req: serve.SubmitRequest{
			Tenant:    "carol",
			Profile:   benches[i%len(benches)].Name,
			Engine:    "tree",
			Accesses:  bigmeshAccesses,
			Topology:  bigmeshTopology,
			SuiteSeed: rng.Uint64() | 1,
		}}
	}
	return jobs
}

// closedLoop submits each job once the previous one's result is in hand,
// following each job's event stream to its end.
func closedLoop(s *server, jobs []*serveJob) error {
	for _, j := range jobs {
		j.start = time.Now()
		j.submit(s.api)
		if j.err != "" {
			continue
		}
		if err := s.api.waitTerminal(j.id); err != nil {
			return err
		}
		if !j.fetchResult(s.api) {
			return fmt.Errorf("job %s: finished but its result is not servable", j.id)
		}
	}
	return nil
}

// runBigmesh is the bigmesh workload: one client runs cold 256-node jobs
// one after another against the same server.
func runBigmesh(e env) (*report, error) {
	rep := newReport()
	// One batch per 10 s of --seconds, at least one; wall_s is the median
	// batch.
	rounds := max(1, e.seconds/10)
	p, err := runPass(e, false, bigmeshSchedule(e.seed, rounds), closedLoop)
	if err != nil {
		return nil, err
	}
	cold, warm, failed, byHash := p.classify(rep)
	if len(warm) > 0 {
		rep.problem("%d bigmesh jobs were served from the cache; every spec should be new", len(warm))
	}
	verify(rep, byHash, 1) // one 256-node machine at a time keeps the benchmark near 1.5 GB; two barely run faster
	probeDirectoryDefect(e, rep)
	rep.attempted, rep.failed = len(p.jobs), len(failed)
	noteFailed(rep, failed)
	coldMs := latenciesMs(cold)
	var accesses float64
	for _, j := range cold {
		var res innetexec.Result
		if json.Unmarshal(j.body, &res) == nil {
			accesses += float64(res.Read.N + res.Write.N + res.LocalHits)
		}
	}
	wall := median(batchWalls(p.jobs))
	rep.set("setup_s", p.setup.Seconds(), "s", setupRepeats)
	rep.set("wall_s", wall, "s", rounds)
	rep.set("peak_rss_mb", p.rssMB, "MB", 1)
	rep.set("cold_p50_ms", median(coldMs), "ms", len(coldMs))
	rep.set("sim_accesses_per_s", accesses/p.wall.Seconds(), "accesses/s", len(cold))
	rep.set("failed_share", share(float64(len(failed)), float64(len(p.jobs))), "ratio", len(p.jobs))
	if !e.traced {
		return rep, nil
	}

	tr := newTracer(true)
	tp, err := runPass(e, true, bigmeshSchedule(e.seed, rounds), closedLoop)
	if err != nil {
		return nil, err
	}
	tcold, _, _, _ := tp.classify(rep)
	rep.set("trace.overhead_share", share(median(batchWalls(tp.jobs))-wall, wall), "ratio", rounds)
	serveLayers(rep, tp, nil)
	var l layers
	if err := traceServePass(e, rep, tr, tp, tcold, &l); err != nil {
		return nil, err
	}
	l.report(rep)
	rep.unreached = append(rep.unreached, "experiments.", "loadgen.")
	return rep, finishTrace(e, rep, tr, "bigmesh")
}

// batchWalls splits a closed-loop pass into its bigmeshJobs-job batches
// and returns each batch's wall time in seconds: first submit to last
// result in hand.
func batchWalls(jobs []*serveJob) []float64 {
	var out []float64
	for i := 0; i+bigmeshJobs <= len(jobs); i += bigmeshJobs {
		out = append(out, jobs[i+bigmeshJobs-1].done.Sub(jobs[i].start).Seconds())
	}
	return out
}

// probeDirectoryDefect runs one 256-node directory job directly. The
// directory engine keeps sharers in a 64-bit mask, so above 64 nodes its
// runs end in verification violations; bigmesh measures tree jobs only
// until that is fixed, and this probe keeps the defect on the record.
func probeDirectoryDefect(e env, rep *report) {
	req := serve.SubmitRequest{Profile: "fft", Engine: "dir", Accesses: bigmeshAccesses,
		Topology: bigmeshTopology, SuiteSeed: e.seed | 1}
	job, err := req.BuildJob()
	if err != nil {
		rep.problem("directory probe: %v", err)
		return
	}
	job.Shards = 1
	if res := innetexec.RunJob(job, innetexec.RunOptions{}); res.Failed() {
		rep.notef("known defect still present: a 256-node directory job fails (%.90s...)", res.Err)
	} else {
		rep.notef("a 256-node directory job now completes: the directory defect is fixed, add directory jobs back to bigmesh")
	}
}
