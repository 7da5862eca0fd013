package cluster

import (
	"context"
	"fmt"
	"strings"
	"time"

	"innetcc/internal/serve"
)

// worker is one registered worker's coordinator-side state: the lease
// that decides liveness, the serve client used to talk to it, slot
// accounting, and the circuit breaker that gates new dispatches.
type worker struct {
	id    string
	url   string
	slots int

	// client is replaced on (re)registration — a restarted worker comes
	// back on a new port — so dispatch loops must re-read it under c.mu
	// (Coordinator.clientOf) instead of caching it across calls.
	client *serve.Client

	leaseUntil time.Time
	alive      bool
	inflight   int

	// Circuit breaker: fails counts consecutive failed calls; reaching
	// the threshold opens the breaker until openUntil. After the
	// cooldown the breaker is naturally half-open — the next dispatch
	// probes the worker, and its outcome resets or re-opens the circuit.
	fails     int
	openUntil time.Time

	registrations int64 // times this ID (re)registered
	dispatched    int64 // jobs ever dispatched here
}

// breakerOpenLocked reports whether the breaker currently blocks new
// dispatches to the worker. Callers hold c.mu.
func (w *worker) breakerOpenLocked(threshold int, now time.Time) bool {
	return w.fails >= threshold && now.Before(w.openUntil)
}

// callResult feeds one call outcome into the worker's breaker. Definitive
// server answers — even errors — prove the host is reachable and reset
// the streak; only transport-level failures count against it.
func (c *Coordinator) callResult(w *worker, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil || !serve.Unreachable(err) {
		w.fails = 0
		return
	}
	w.fails++
	if w.fails >= c.opt.breakerThreshold() {
		w.openUntil = time.Now().Add(c.opt.breakerCooldown())
	}
}

// RegisterRequest is the payload of POST /v1/cluster/register: a worker
// announcing itself (or re-announcing after a restart — same ID, possibly
// a new URL).
type RegisterRequest struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Slots int    `json:"slots,omitempty"`
}

// RegisterResponse tells the agent its lease terms.
type RegisterResponse struct {
	LeaseMillis     int64 `json:"leaseMillis"`
	HeartbeatMillis int64 `json:"heartbeatMillis"`
}

// Register adds or refreshes a worker registration. Re-registering an
// existing ID updates its URL in place (restarted workers come back on a
// new port) and revives the lease, so dispatch loops polling the old
// address recover as soon as they re-read the client. The advertised URL
// is health-probed before the registration is accepted: a worker whose
// heartbeats flow but whose advertised address is wrong would otherwise
// look alive forever while every dispatch to it fails.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.ID == "" || strings.TrimSpace(req.URL) == "" {
		return RegisterResponse{}, fmt.Errorf("cluster: register needs id and url")
	}
	if !strings.HasPrefix(req.URL, "http://") && !strings.HasPrefix(req.URL, "https://") {
		return RegisterResponse{}, fmt.Errorf("cluster: register url %q is not http(s)", req.URL)
	}
	probeCtx, cancel := context.WithTimeout(c.baseCtx, c.opt.callTimeout())
	defer cancel()
	probe := &serve.Client{Base: req.URL, Timeout: c.opt.callTimeout()}
	if err := probe.Health(probeCtx); err != nil {
		return RegisterResponse{}, fmt.Errorf("cluster: register %s: advertised url %s failed its health probe: %w",
			req.ID, req.URL, err)
	}
	slots := req.Slots
	if slots <= 0 {
		slots = 1
	}
	lease := c.opt.lease()

	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.ID]
	if w == nil {
		w = &worker{id: req.ID}
		c.workers[req.ID] = w
	}
	w.url = req.URL
	w.slots = slots
	w.client = &serve.Client{
		Base:      req.URL,
		Timeout:   c.opt.callTimeout(),
		Retries:   c.opt.callRetries(),
		RetryBase: 25 * time.Millisecond,
	}
	w.alive = true
	w.leaseUntil = time.Now().Add(lease)
	w.fails = 0
	w.openUntil = time.Time{}
	w.registrations++
	c.cond.Broadcast()
	return RegisterResponse{
		LeaseMillis:     lease.Milliseconds(),
		HeartbeatMillis: (lease / 3).Milliseconds(),
	}, nil
}

// Heartbeat renews a worker's lease. An unknown ID gets ErrUnknownWorker
// (HTTP 404), which the agent answers by re-registering — the normal
// recovery after a coordinator restart. A heartbeat from a worker whose
// lease already expired revives it: the partition healed.
func (c *Coordinator) Heartbeat(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return ErrUnknownWorker
	}
	w.leaseUntil = time.Now().Add(c.opt.lease())
	if !w.alive {
		w.alive = true
		c.cond.Broadcast()
	}
	return nil
}

// clientOf returns the worker's current client (re-read under the lock
// because registration replaces it when a worker restarts elsewhere).
func (c *Coordinator) clientOf(w *worker) *serve.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return w.client
}

// workerAlive reports the worker's lease-derived liveness.
func (c *Coordinator) workerAlive(w *worker) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return w.alive
}

// leaseMonitor expires worker leases. Expiry only flips the liveness
// bit; the dispatch loops observe it on their next poll and requeue
// their jobs, so death handling is centralized in one code path.
func (c *Coordinator) leaseMonitor() {
	defer c.wg.Done()
	interval := c.opt.lease() / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
		}
		now := time.Now()
		c.mu.Lock()
		for _, w := range c.workers {
			if w.alive && now.After(w.leaseUntil) {
				w.alive = false
			}
		}
		// Unconditional wake: lease expiry may enable local fallback, and a
		// breaker cooldown elapsing makes a worker schedulable again without
		// any event the scheduler would otherwise hear about.
		c.cond.Broadcast()
		c.mu.Unlock()
	}
}

// WorkerInfo is one worker's public accounting snapshot.
type WorkerInfo struct {
	ID            string `json:"id"`
	URL           string `json:"url"`
	Alive         bool   `json:"alive"`
	Slots         int    `json:"slots"`
	Inflight      int    `json:"inflight"`
	BreakerOpen   bool   `json:"breakerOpen"`
	LeaseMillis   int64  `json:"leaseMillis"` // remaining lease (<= 0 once expired)
	Registrations int64  `json:"registrations"`
	Dispatched    int64  `json:"dispatched"`
}

// Stats is the GET /v1/stats payload of the coordinator.
type Stats struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`

	Workers     []WorkerInfo `json:"workers"`
	LiveWorkers int          `json:"liveWorkers"`

	Reassigns     int64 `json:"reassigns"`     // failure-driven job reassignments
	Resumes       int64 `json:"resumes"`       // dispatches resumed from a migrated snapshot
	LocalRuns     int64 `json:"localRuns"`     // jobs completed by local fallback
	DispatchFails int64 `json:"dispatchFails"` // submissions that never reached their worker
}

// Stats snapshots the coordinator accounting.
func (c *Coordinator) Stats() Stats {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{Reassigns: c.nReassigns, Resumes: c.nResumes, LocalRuns: c.nLocal, DispatchFails: c.nDispatchFails}
	for _, j := range c.jobs.ByID {
		switch j.Rec.State {
		case serve.StateQueued:
			st.Queued++
		case serve.StateRunning:
			st.Running++
		case serve.StateDone:
			st.Done++
		case serve.StateFailed:
			st.Failed++
		case serve.StateCanceled:
			st.Canceled++
		}
	}
	for _, w := range c.workers {
		if w.alive {
			st.LiveWorkers++
		}
		st.Workers = append(st.Workers, WorkerInfo{
			ID:            w.id,
			URL:           w.url,
			Alive:         w.alive,
			Slots:         w.slots,
			Inflight:      w.inflight,
			BreakerOpen:   w.breakerOpenLocked(c.opt.breakerThreshold(), now),
			LeaseMillis:   time.Until(w.leaseUntil).Milliseconds(),
			Registrations: w.registrations,
			Dispatched:    w.dispatched,
		})
	}
	// Stable order for humans and tests.
	for i := 1; i < len(st.Workers); i++ {
		for j := i; j > 0 && st.Workers[j].ID < st.Workers[j-1].ID; j-- {
			st.Workers[j], st.Workers[j-1] = st.Workers[j-1], st.Workers[j]
		}
	}
	return st
}
