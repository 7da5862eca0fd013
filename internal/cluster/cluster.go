// Package cluster is the fault-tolerant multi-host fan-out layer: a
// coordinator that dispatches simulation jobs to a fleet of serve.Server
// workers over the existing HTTP/JSON API and keeps every accepted job
// moving to a correct terminal result while workers crash, restart and
// partition underneath it.
//
// The design leans entirely on the repository's determinism guarantees.
// A simulation result is a pure function of its job spec, so the
// coordinator never needs distributed consensus about partial state: any
// worker (or the coordinator itself, in local-fallback mode) can run or
// re-run a job and arrive at the byte-identical result, and the
// content-hash result cache makes duplicated work cheap. Fault tolerance
// therefore reduces to three mechanisms:
//
//   - Leases. Workers register and heartbeat; a worker whose lease
//     expires is presumed dead and its in-flight jobs are requeued. The
//     lease — not any individual failed call — is the authoritative
//     death signal, so a slow or momentarily partitioned worker is given
//     its full lease to recover before work is moved.
//
//   - Checkpoint migration. While a job runs remotely the coordinator
//     periodically pulls its latest checkpoint (an exec.Snapshot: spec,
//     replay-target cycle, state digest — host-independent by
//     construction). When the job is reassigned, the snapshot rides
//     along in the new submission and the receiving worker resumes by
//     digest-verified replay instead of starting over.
//
//   - Spurious-reassignment safety. A lease can expire for a worker
//     that is merely slow; the old worker may finish the job anyway.
//     That is harmless: both executions compute the same bytes, and the
//     per-worker result caches absorb the duplicate.
//
// Dispatch calls are wrapped in retry-with-backoff (serve.Client's
// transport retries) plus a per-worker circuit breaker, so a dead host
// is not hammered while its lease runs out. With zero live workers the
// coordinator applies bounded backpressure (429 + Retry-After once the
// queue bound is hit) and, when enabled, falls back to running jobs
// locally so the service degrades to a single-host serve instead of
// stalling.
//
// The job lifecycle itself — job table, event streams with Last-Event-ID
// replay, the /v1/jobs handlers and the record store — is serve's
// (serve.Table, serve.JobMux, serve.Store), so clients cannot tell a
// cluster from one server. This package adds only what differs: the
// backlog bound, the worker registry with leases and breakers, remote
// dispatch with checkpoint migration, and local fallback.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"innetcc/internal/exec"
	"innetcc/internal/serve"
)

// Options configures a Coordinator. The zero value is usable: memory-only
// (no persistence), defaults tuned for LAN-scale heartbeats.
type Options struct {
	// DataDir, when non-empty, is the persistence root: job records,
	// migrated checkpoints and the result cache live under it, and a
	// drained coordinator resumes its queue on restart. Empty keeps all
	// state in memory.
	DataDir string

	// Lease is how long a worker stays live without a heartbeat
	// (default 3s). Agents are told to heartbeat every Lease/3.
	Lease time.Duration

	// PollEvery is the status/checkpoint polling interval for dispatched
	// jobs (default 100ms).
	PollEvery time.Duration

	// MaxQueued bounds jobs in the queued state; submissions beyond it
	// are rejected with ErrBacklogFull (HTTP 429 + Retry-After). <= 0
	// means 256.
	MaxQueued int

	// MaxRedispatch bounds how many times one job may be reassigned
	// after worker failures before the coordinator gives up and fails it
	// (default 10). Redispatches caused by coordinator drain do not
	// count.
	MaxRedispatch int

	// LocalFallback lets the coordinator run jobs in-process when no
	// live worker exists, so a cluster degrades to a single host instead
	// of stalling. LocalSlots bounds concurrent local runs (default 1).
	LocalFallback bool
	LocalSlots    int

	// SegmentCycles and CheckpointEvery configure local-fallback runs
	// (same meaning as serve.Options).
	SegmentCycles   int64
	CheckpointEvery int64

	// BreakerThreshold consecutive call failures open a worker's circuit
	// breaker for BreakerCooldown; while open the worker receives no new
	// dispatches (defaults 3 and 2s). The breaker half-opens after the
	// cooldown: one dispatch probes the worker and its outcome closes or
	// re-opens the circuit.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// CallTimeout bounds each individual HTTP attempt against a worker
	// (default 2s); CallRetries is the per-call transport retry budget
	// (default 1 — the lease mechanism, not call retries, owns liveness).
	CallTimeout time.Duration
	CallRetries int
}

func (o *Options) lease() time.Duration {
	if o.Lease <= 0 {
		return 3 * time.Second
	}
	return o.Lease
}

func (o *Options) pollEvery() time.Duration {
	if o.PollEvery <= 0 {
		return 100 * time.Millisecond
	}
	return o.PollEvery
}

func (o *Options) maxQueued() int {
	if o.MaxQueued <= 0 {
		return 256
	}
	return o.MaxQueued
}

func (o *Options) maxRedispatch() int {
	if o.MaxRedispatch <= 0 {
		return 10
	}
	return o.MaxRedispatch
}

func (o *Options) localSlots() int {
	if o.LocalSlots <= 0 {
		return 1
	}
	return o.LocalSlots
}

func (o *Options) breakerThreshold() int {
	if o.BreakerThreshold <= 0 {
		return 3
	}
	return o.BreakerThreshold
}

func (o *Options) breakerCooldown() time.Duration {
	if o.BreakerCooldown <= 0 {
		return 2 * time.Second
	}
	return o.BreakerCooldown
}

func (o *Options) callTimeout() time.Duration {
	if o.CallTimeout <= 0 {
		return 2 * time.Second
	}
	return o.CallTimeout
}

func (o *Options) callRetries() int {
	if o.CallRetries < 0 {
		return 0
	}
	if o.CallRetries == 0 {
		return 1
	}
	return o.CallRetries
}

// ErrBacklogFull rejects a submission once the queue bound is reached;
// the HTTP layer maps it to 429 with a Retry-After header.
var ErrBacklogFull = errors.New("cluster: backlog full")

// ErrUnknownWorker is returned for a heartbeat from a worker the
// coordinator has no registration for (it answers HTTP 404, which tells
// the agent to re-register — the coordinator may have restarted).
var ErrUnknownWorker = errors.New("cluster: unknown worker")

// localWorker is the worker-ID jobs carry while running in-process under
// local fallback (or during coordinator drain hand-off).
const localWorker = "(local)"

// cjob is one job's coordinator-side state: the shared lifecycle
// (record, result, event ring), the original submission (re-shipped on
// every dispatch), the latest pulled checkpoint, and dispatch
// bookkeeping.
type cjob struct {
	serve.Entry
	req serve.SubmitRequest

	// snapshot is the latest checkpoint known for the job — pulled from
	// the running worker, written by a local run, or carried in by the
	// submitter. It rides along on the next dispatch.
	snapshot []byte

	workerID string // current worker ("" while queued, localWorker for in-process)
	remoteID string // job ID on the current worker

	redispatches int // failure-driven reassignments so far
	resumes      int // dispatches that carried a snapshot

	userCanceled bool
	cancelLocal  context.CancelFunc // set while running locally
}

// persistedJob is the durable form of one coordinator job: the
// client-visible record, the original submission (needed to re-dispatch
// after a restart), and the redispatch count so the give-up bound
// survives restarts too.
type persistedJob struct {
	Rec          serve.JobRecord     `json:"rec"`
	Req          serve.SubmitRequest `json:"req"`
	Redispatches int                 `json:"redispatches,omitempty"`
}

// Coordinator owns the worker registry with its leases and breakers and
// the dispatch loops; the job table, event streams and record store are
// serve's (serve.Table, serve.Store). HTTP handling lives in http.go
// over the same methods the tests call directly.
type Coordinator struct {
	opt   Options
	store *serve.Store // nil when memory-only
	cache *exec.Cache  // nil when memory-only

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    *serve.Table[*cjob]
	workers map[string]*worker
	closed  bool

	localActive int

	// Counters for Stats: failure-driven reassignments, dispatches that
	// resumed from a migrated snapshot, local-fallback runs, and
	// submissions that never reached their worker.
	nReassigns     int64
	nResumes       int64
	nLocal         int64
	nDispatchFails int64
}

// New starts a coordinator. With Options.DataDir set, previously
// persisted jobs are reloaded: terminal ones stay queryable, interrupted
// ones are requeued together with their last migrated checkpoint.
func New(opt Options) (*Coordinator, error) {
	c := &Coordinator{opt: opt, workers: make(map[string]*worker)}
	c.cond = sync.NewCond(&c.mu)
	if opt.DataDir != "" {
		st, err := serve.OpenStore(opt.DataDir, "snap")
		if err != nil {
			return nil, err
		}
		if c.cache, err = exec.OpenCache(st.CacheDir()); err != nil {
			return nil, err
		}
		c.store = st
	}
	c.jobs = serve.NewTable(&c.mu, "c-", c.store, func(j *cjob) any {
		return persistedJob{Rec: j.Rec, Req: j.req, Redispatches: j.redispatches}
	}, c.cache)
	if c.store != nil {
		pjs, err := serve.LoadJobs(c.store, func(pj *persistedJob) string { return pj.Rec.ID })
		if err != nil {
			return nil, err
		}
		for _, pj := range pjs {
			j := &cjob{Entry: serve.Entry{Rec: pj.Rec}, req: pj.Req, redispatches: pj.Redispatches}
			if err := c.jobs.Restore(j); err != nil {
				return nil, err
			}
			if b, err := c.store.SnapshotBytes(j.Rec.ID); err == nil && !j.Rec.Terminal() {
				if _, err := exec.HandoffSnapshot(b, j.Rec.Job); err == nil {
					j.snapshot = b
				}
			}
		}
	}

	c.baseCtx, c.baseCancel = context.WithCancel(context.Background())
	c.wg.Add(2)
	go c.scheduler()
	go c.leaseMonitor()
	return c, nil
}

// Submit validates the request, applies the backlog bound, persists and
// enqueues the job. A submission carrying a hand-off snapshot has it
// verified against the spec and staged for the first dispatch.
func (c *Coordinator) Submit(req serve.SubmitRequest) (serve.JobRecord, error) {
	job, err := req.Prepare()
	if err != nil {
		return serve.JobRecord{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return serve.JobRecord{}, fmt.Errorf("cluster: coordinator is draining")
	}
	queued := 0
	for _, j := range c.jobs.ByID {
		if j.Rec.State == serve.StateQueued {
			queued++
		}
	}
	if queued >= c.opt.maxQueued() {
		return serve.JobRecord{}, fmt.Errorf("%w: %d jobs queued (max %d)",
			ErrBacklogFull, queued, c.opt.maxQueued())
	}
	j := &cjob{req: req, snapshot: req.Snapshot}
	j.req.Snapshot = nil // the live snapshot field is authoritative from here
	if err := c.jobs.Add(j, req, job); err != nil {
		return serve.JobRecord{}, err
	}
	c.cond.Broadcast()
	return j.Rec, nil
}

// Job returns a snapshot of the record.
func (c *Coordinator) Job(id string) (serve.JobRecord, error) { return c.jobs.Job(id) }

// Jobs lists record snapshots, optionally filtered by tenant, in
// submission order.
func (c *Coordinator) Jobs(tenant string) []serve.JobRecord { return c.jobs.Jobs(tenant) }

// Result returns a terminal job's result: from memory when this process
// saw it finish, from the persistent result cache otherwise.
func (c *Coordinator) Result(id string) (exec.Result, error) { return c.jobs.Result(id) }

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns the final record.
func (c *Coordinator) Wait(ctx context.Context, id string) (serve.JobRecord, error) {
	return c.jobs.Wait(ctx, id)
}

// SubscribeAfter attaches an event listener to a job. Events are
// synthesized coordinator-side — state transitions as jobs are claimed,
// reassigned and finished, progress mirrored from worker polls or the
// local runner — so a watcher sees a mid-run migration as running ->
// queued -> running on one stream (serve.Table.SubscribeAfter).
func (c *Coordinator) SubscribeAfter(id string, after int64) (<-chan serve.Event, func(), error) {
	return c.jobs.SubscribeAfter(id, after)
}

// Cancel stops a queued or dispatched job. Queued jobs cancel
// immediately; dispatched ones have the cancellation forwarded to their
// worker and reach canceled when the worker confirms (or the worker
// dies, whichever comes first).
func (c *Coordinator) Cancel(id string) error {
	c.mu.Lock()
	j := c.jobs.ByID[id]
	if j == nil {
		c.mu.Unlock()
		return serve.ErrUnknownJob
	}
	if j.Rec.Terminal() {
		c.mu.Unlock()
		return nil
	}
	j.userCanceled = true
	if j.Rec.State == serve.StateQueued {
		c.finishLocked(j, serve.StateCanceled, "canceled while queued", nil)
		c.mu.Unlock()
		return nil
	}
	cancel := j.cancelLocal
	c.mu.Unlock()
	if cancel != nil {
		cancel() // local run: stop at the next segment boundary
	}
	// Remote runs: the dispatch loop forwards the cancel on its next poll.
	return nil
}

// finishLocked makes a job terminal (serve.Table.Finish); res may be nil
// (canceled / gave-up paths). Callers hold c.mu.
func (c *Coordinator) finishLocked(j *cjob, state, errMsg string, res *exec.Result) {
	j.workerID = ""
	j.remoteID = ""
	j.snapshot = nil
	c.jobs.Finish(j, state, errMsg, res)
	c.cond.Broadcast()
}

// queueLocked returns a job to the queued state, persisted and announced.
// Callers hold c.mu.
func (c *Coordinator) queueLocked(j *cjob) {
	j.Rec.State = serve.StateQueued
	j.Rec.StartedAt = 0
	j.workerID = ""
	j.remoteID = ""
	c.jobs.Save(j)
	j.PublishState()
	c.cond.Broadcast()
}

// Drain gracefully shuts the coordinator down: no new submissions, every
// dispatch loop pulls a final checkpoint from its worker (or checkpoints
// its local run) and parks the job as queued on disk, so a restarted
// coordinator resumes the batch. Drain blocks until all loops exit.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.baseCancel()
	c.wg.Wait()
}
