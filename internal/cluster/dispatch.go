package cluster

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"innetcc/internal/exec"
	"innetcc/internal/serve"
)

// scheduler matches queued jobs to dispatch targets until the
// coordinator drains. One dispatch loop (runOn / runLocal) is spawned
// per claimed job; the scheduler itself never blocks on the network.
func (c *Coordinator) scheduler() {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		var j *cjob
		var w *worker
		local := false
		for !c.closed {
			j, w, local = c.pickLocked()
			if j != nil {
				break
			}
			c.cond.Wait()
		}
		if c.closed {
			c.mu.Unlock()
			return
		}
		j.Rec.State = serve.StateRunning
		j.Rec.StartedAt = time.Now().UnixMilli()
		j.Rec.StartSeq = c.jobs.NextSeq()
		var runCtx context.Context
		if local {
			j.workerID = localWorker
			c.localActive++
			runCtx, j.cancelLocal = context.WithCancel(c.baseCtx)
		} else {
			j.workerID = w.id
			w.inflight++
			w.dispatched++
		}
		c.jobs.Save(j)
		j.PublishState()
		c.wg.Add(1)
		c.mu.Unlock()
		if local {
			go c.runLocal(j, runCtx)
		} else {
			go c.runOn(j, w)
		}
	}
}

// pickLocked selects the best queued job and a target for it: the
// least-loaded live worker with a free slot and a closed breaker, or
// local execution when no live worker exists at all and fallback is on.
// Callers hold c.mu.
func (c *Coordinator) pickLocked() (*cjob, *worker, bool) {
	var best *cjob
	for _, j := range c.jobs.ByID {
		if j.Rec.State != serve.StateQueued || j.userCanceled {
			continue
		}
		if best == nil || betterPick(j, best) {
			best = j
		}
	}
	if best == nil {
		return nil, nil, false
	}
	now := time.Now()
	anyAlive := false
	var pick *worker
	for _, w := range c.workers {
		if !w.alive {
			continue
		}
		anyAlive = true
		if w.inflight >= w.slots || w.breakerOpenLocked(c.opt.breakerThreshold(), now) {
			continue
		}
		if pick == nil || w.inflight < pick.inflight ||
			(w.inflight == pick.inflight && w.id < pick.id) {
			pick = w
		}
	}
	if pick != nil {
		return best, pick, false
	}
	if !anyAlive && c.opt.LocalFallback && c.localActive < c.opt.localSlots() {
		return best, nil, true
	}
	return nil, nil, false
}

func betterPick(a, b *cjob) bool {
	if a.Rec.Priority != b.Rec.Priority {
		return a.Rec.Priority > b.Rec.Priority
	}
	return a.Rec.Seq < b.Rec.Seq
}

// runOn drives one job on one worker: submit (with the latest snapshot
// riding along), then poll status, forward cancellation, pull fresh
// checkpoints, and converge on a terminal result — or requeue the job
// the moment the worker's lease expires or it demonstrably lost the
// work.
func (c *Coordinator) runOn(j *cjob, w *worker) {
	defer c.wg.Done()
	ctx := c.baseCtx

	c.mu.Lock()
	req := j.req
	req.Snapshot = j.snapshot
	resumed := len(req.Snapshot) > 0
	cl := w.client
	c.mu.Unlock()

	rec, err := cl.Submit(ctx, req)
	c.callResult(w, err)
	if err != nil {
		if ctx.Err() != nil {
			c.parkForShutdown(j, w)
			return
		}
		if st := serve.StatusOf(err); st >= 400 && st < 500 && st != http.StatusTooManyRequests {
			// The worker understood the submission and rejected it: the
			// job spec itself is bad, and no other worker will disagree.
			c.mu.Lock()
			c.releaseLocked(j, w)
			c.finishLocked(j, serve.StateFailed, "worker rejected job: "+err.Error(), nil)
			c.mu.Unlock()
			return
		}
		if serve.Unreachable(err) {
			// The submission never reached the worker: nothing ran, nothing
			// was lost, so the redispatch budget — a guard against jobs that
			// repeatedly take workers down — is not charged. A worker that
			// heartbeats but cannot be dispatched to (bad advertised URL,
			// asymmetric partition) leaves the job queued behind its breaker
			// instead of failing it, visible as a climbing dispatchFails.
			c.requeueUncharged(j, w)
			return
		}
		c.requeue(j, w, "dispatch failed: "+err.Error())
		return
	}
	c.mu.Lock()
	j.remoteID = rec.ID
	if resumed {
		j.resumes++
		c.nResumes++
	}
	c.mu.Unlock()

	tick := time.NewTicker(c.opt.pollEvery())
	defer tick.Stop()
	cancelSent := false
	resultFailures := 0
	for {
		select {
		case <-ctx.Done():
			c.parkForShutdown(j, w)
			return
		case <-tick.C:
		}
		c.mu.Lock()
		alive := w.alive
		cl = w.client
		wantCancel := j.userCanceled
		remoteID := j.remoteID
		c.mu.Unlock()
		if !alive {
			c.requeue(j, w, "worker lease expired")
			return
		}
		if wantCancel && !cancelSent {
			if err := cl.Cancel(ctx, remoteID); err == nil {
				cancelSent = true
			}
		}

		r, err := cl.Job(ctx, remoteID)
		c.callResult(w, err)
		if err != nil {
			if ctx.Err() != nil {
				c.parkForShutdown(j, w)
				return
			}
			if serve.StatusOf(err) == http.StatusNotFound {
				// The worker is reachable but has no record of the job: it
				// restarted with amnesia (lost its data directory). Move on.
				c.requeue(j, w, "worker lost the job")
				return
			}
			// Transport failure or transient server error: the lease, not
			// this call, decides whether the worker is dead. Keep polling.
			continue
		}

		c.mu.Lock()
		if r.Cycle != j.Rec.Cycle || r.Attempt != j.Rec.Attempt {
			j.Rec.Cycle = r.Cycle
			j.Rec.Attempt = r.Attempt
			j.Publish(serve.Event{Type: "progress",
				Progress: &exec.Progress{Cycle: r.Cycle, Attempt: r.Attempt}})
		}
		c.mu.Unlock()

		if r.Terminal() {
			if r.State == serve.StateCanceled {
				if wantCancel {
					c.mu.Lock()
					c.releaseLocked(j, w)
					c.finishLocked(j, serve.StateCanceled, r.Error, nil)
					c.mu.Unlock()
					return
				}
				// Canceled on the worker without us asking (operator action
				// on the worker directly): the job is still owed a result.
				c.requeue(j, w, "job canceled on worker")
				return
			}
			res, err := cl.Result(ctx, remoteID)
			c.callResult(w, err)
			if err != nil {
				if resultFailures++; resultFailures <= 5 {
					continue // transient: retry on the next tick
				}
				c.requeue(j, w, "result fetch failed: "+err.Error())
				return
			}
			c.finishRun(j, w, res)
			return
		}
		if r.State == serve.StateRunning {
			// Pull the latest checkpoint so a reassignment after worker
			// death resumes instead of restarting. Errors are fine: no
			// checkpoint yet, or a blip the lease machinery owns.
			if b, err := cl.SnapshotBytes(ctx, remoteID); err == nil {
				c.stashSnapshot(j, b)
			}
		}
	}
}

// runLocal executes one job in-process (local fallback, with checkpoint
// resume when a migrated snapshot exists).
func (c *Coordinator) runLocal(j *cjob, runCtx context.Context) {
	defer c.wg.Done()
	c.mu.Lock()
	job := j.Rec.Job
	hash := j.Rec.Hash
	var resume *exec.Snapshot
	if len(j.snapshot) > 0 {
		if snap, err := exec.HandoffSnapshot(j.snapshot, job); err == nil {
			resume = snap
		}
	}
	c.mu.Unlock()

	if c.cache != nil {
		if r, ok := c.cache.Get(hash); ok {
			r.Key = job.Key
			r.Cached = true
			c.mu.Lock()
			c.nLocal++
			c.mu.Unlock()
			c.finishRun(j, nil, r)
			return
		}
	}
	if resume != nil {
		c.mu.Lock()
		j.resumes++
		c.nResumes++
		c.mu.Unlock()
	}
	res := exec.RunJob(job, exec.RunOptions{
		Ctx:           runCtx,
		SegmentCycles: c.opt.SegmentCycles,
		Progress: func(p exec.Progress) {
			c.mu.Lock()
			j.Rec.Cycle = p.Cycle
			j.Rec.Attempt = p.Attempt
			j.Publish(serve.Event{Type: "progress", Progress: &p})
			c.mu.Unlock()
		},
		CheckpointEvery: c.opt.CheckpointEvery,
		Checkpoint: func(snap exec.Snapshot) {
			if b, err := snap.Encode(); err == nil {
				c.stashSnapshot(j, b)
			}
		},
		Resume: resume,
	})
	if res.Canceled {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.releaseLocked(j, nil)
		if j.userCanceled {
			c.finishLocked(j, serve.StateCanceled, res.Err, nil)
			return
		}
		// Coordinator drain: the runner just checkpointed (stashed above);
		// park the job queued on disk for the next process.
		c.queueLocked(j)
		return
	}
	c.mu.Lock()
	c.nLocal++
	c.mu.Unlock()
	c.finishRun(j, nil, res)
}

// finishRun completes a dispatched job that produced a result, feeding
// the coordinator's own result cache so restarts keep results servable.
func (c *Coordinator) finishRun(j *cjob, w *worker, res exec.Result) {
	if c.cache != nil {
		if _, ok := c.cache.Get(j.Rec.Hash); !ok {
			put := res
			put.Cached = false
			c.cache.Put(j.Rec.Hash, put)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(j, w)
	state := serve.StateDone
	if res.Failed() {
		state = serve.StateFailed
	}
	c.finishLocked(j, state, res.Err, &res)
}

// releaseLocked returns a dispatched job's slot (worker or local).
// Callers hold c.mu.
func (c *Coordinator) releaseLocked(j *cjob, w *worker) {
	if w != nil {
		w.inflight--
	} else if j.workerID == localWorker {
		c.localActive--
		j.cancelLocal = nil
	}
	c.cond.Broadcast()
}

// requeue returns a job to the queue after a failed dispatch or a dead
// worker, counting the reassignment against the job's redispatch budget
// so a poisoned job cannot ping-pong forever.
func (c *Coordinator) requeue(j *cjob, w *worker, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(j, w)
	if j.userCanceled {
		c.finishLocked(j, serve.StateCanceled, "canceled", nil)
		return
	}
	j.redispatches++
	c.nReassigns++
	if j.redispatches > c.opt.maxRedispatch() {
		c.finishLocked(j, serve.StateFailed,
			fmt.Sprintf("gave up after %d dispatch attempts (last: %s)", j.redispatches, why), nil)
		return
	}
	c.queueLocked(j)
}

// requeueUncharged returns a job whose dispatch never reached its worker:
// the transport failed before the submission landed, so the job goes back
// to the queue with the failure counted only in the dispatch-failure
// statistic, not against its redispatch budget.
func (c *Coordinator) requeueUncharged(j *cjob, w *worker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(j, w)
	c.nDispatchFails++
	if j.userCanceled {
		c.finishLocked(j, serve.StateCanceled, "canceled", nil)
		return
	}
	c.queueLocked(j)
}

// parkForShutdown is the drain path for a dispatched job: pull one final
// checkpoint (best effort, on a fresh short-lived context — the base
// context is already canceled) and park the job queued on disk without
// charging its redispatch budget. The remote run is left alone: the
// worker will finish it and cache the result, so a restarted
// coordinator's re-dispatch is a cache hit.
func (c *Coordinator) parkForShutdown(j *cjob, w *worker) {
	c.mu.Lock()
	cl := w.client
	alive := w.alive
	remoteID := j.remoteID
	c.mu.Unlock()
	if alive && remoteID != "" {
		ctx, cancel := context.WithTimeout(context.Background(), c.opt.callTimeout())
		if b, err := cl.SnapshotBytes(ctx, remoteID); err == nil {
			c.stashSnapshot(j, b)
		}
		cancel()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.releaseLocked(j, w)
	c.queueLocked(j)
}

// stashSnapshot verifies and retains checkpoint bytes as the job's
// latest migration point, persisting them when the coordinator is
// durable.
func (c *Coordinator) stashSnapshot(j *cjob, b []byte) {
	c.mu.Lock()
	job := j.Rec.Job
	c.mu.Unlock()
	if _, err := exec.HandoffSnapshot(b, job); err != nil {
		return
	}
	c.mu.Lock()
	j.snapshot = b
	c.mu.Unlock()
	if c.store != nil {
		c.store.PutSnapshot(j.Rec.ID, b)
	}
}
