package serve

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"
	"time"

	"innetcc/internal/exec"
)

// Entry is one job's lifecycle state, shared by both job front ends: a
// Server's and the cluster coordinator's per-job types embed it. It holds
// the persistent record, the result of a run that finished in this
// process, the done channel waiters block on, and the event ring SSE
// subscribers replay from. Everything in it is guarded by the owning
// Table's mutex.
type Entry struct {
	Rec JobRecord

	result *exec.Result  // set in done/failed when this process saw the run finish
	done   chan struct{} // closed on terminal state
	lastEv int64         // last assigned event ID (job-local, monotonic)
	hist   []Event       // retained ring for Last-Event-ID replay
	subs   []chan Event
}

func (e *Entry) entry() *Entry { return e }

// Tracked is the element constraint of a Table: a pointer to a type that
// embeds Entry.
type Tracked interface{ entry() *Entry }

// Table is the job table both front ends share: jobs by ID, ID and
// sequence generation, admission, terminal transitions and the read side
// of the job API. It runs under its owner's mutex, so the owner's
// scheduling state and the table change together: Job, Jobs, Wait,
// Result and SubscribeAfter take the lock themselves; every other method,
// and ByID, is used with it held.
type Table[J Tracked] struct {
	// ByID maps job IDs to jobs. Owners read and iterate it; only Add and
	// Restore insert.
	ByID map[string]J

	mu     *sync.Mutex
	prefix string
	store  *Store      // nil: memory-only
	record func(J) any // the persisted form of a job
	cache  *exec.Cache // nil: results live in memory only
	seq    int64
}

// NewTable returns an empty table guarded by mu. IDs are prefix plus a
// random part plus the first bytes of the content hash. With a store,
// record gives the form each job is persisted in; without one (and
// without a cache) the table is memory-only.
func NewTable[J Tracked](mu *sync.Mutex, prefix string, store *Store, record func(J) any, cache *exec.Cache) *Table[J] {
	return &Table[J]{ByID: make(map[string]J), mu: mu, prefix: prefix, store: store, record: record, cache: cache}
}

// NextSeq returns and advances the table's sequence: submission order
// (JobRecord.Seq) and start order (StartSeq) share one counter.
func (t *Table[J]) NextSeq() int64 {
	t.seq++
	return t.seq - 1
}

// persist writes the job's current record to the store, if any.
func (t *Table[J]) persist(j J) error {
	if t.store == nil {
		return nil
	}
	return t.store.PutJob(j.entry().Rec.ID, t.record(j))
}

// Save persists a state transition of an admitted job. A failed write is
// tolerated: the record on disk stays one transition behind, and a
// restart requeues the job, whose rerun the checkpoints and the result
// cache make cheap.
func (t *Table[J]) Save(j J) { _ = t.persist(j) }

// Add records a job its owner has admitted: j gets a fresh ID and the
// queued record of the resolved job, req's hand-off snapshot (when one
// rides along) is staged as the job's checkpoint, the record is
// persisted, and only then is the job inserted and its queued state
// event published. On any error nothing is recorded.
func (t *Table[J]) Add(j J, req SubmitRequest, job exec.Job) error {
	e := j.entry()
	hash := job.Hash()
	e.Rec = JobRecord{
		ID:          t.newID(hash),
		Tenant:      req.Tenant,
		Priority:    req.Priority,
		State:       StateQueued,
		Hash:        hash,
		SubmittedAt: time.Now().UnixMilli(),
		Seq:         t.seq,
		Job:         job,
	}
	if len(req.Snapshot) > 0 && t.store != nil {
		if err := t.store.PutSnapshot(e.Rec.ID, req.Snapshot); err != nil {
			return err
		}
	}
	if err := t.persist(j); err != nil {
		if len(req.Snapshot) > 0 && t.store != nil {
			t.store.DropSnapshot(e.Rec.ID)
		}
		return err
	}
	t.seq++
	e.done = make(chan struct{})
	t.ByID[e.Rec.ID] = j
	e.PublishState()
	return nil
}

// newID generates a unique job ID.
func (t *Table[J]) newID(hash string) string {
	for {
		var b [6]byte
		rand.Read(b[:])
		id := t.prefix + hex.EncodeToString(b[:]) + "-" + hash[:8]
		if _, taken := t.ByID[id]; !taken {
			return id
		}
	}
}

// Restore inserts a job reloaded from the store. A terminal job stays
// queryable; a pending one — the previous process died or drained with
// it queued or running — is requeued, and the requeue persisted.
func (t *Table[J]) Restore(j J) error {
	e := j.entry()
	e.done = make(chan struct{})
	if e.Rec.Terminal() {
		close(e.done)
	} else {
		e.Rec.State = StateQueued
		e.Rec.StartedAt = 0
		if err := t.persist(j); err != nil {
			return err
		}
	}
	t.ByID[e.Rec.ID] = j
	if e.Rec.Seq >= t.seq {
		t.seq = e.Rec.Seq + 1
	}
	return nil
}

// Finish moves j to a terminal state: res (nil on the cancel and give-up
// paths) becomes its result, its checkpoint is dropped, the record is
// persisted, the terminal state event published, subscribers closed and
// waiters woken.
func (t *Table[J]) Finish(j J, state, errMsg string, res *exec.Result) {
	e := j.entry()
	e.Rec.State = state
	e.Rec.Error = errMsg
	e.Rec.FinishedAt = time.Now().UnixMilli()
	if res != nil {
		e.result = res
		e.Rec.Cycle = res.Cycles
		e.Rec.Attempt = res.Attempts
		e.Rec.Cached = res.Cached
	}
	if t.store != nil {
		t.store.DropSnapshot(e.Rec.ID)
	}
	t.Save(j)
	e.PublishState()
	for _, ch := range e.subs {
		close(ch)
	}
	e.subs = nil
	close(e.done)
}

// Job returns a snapshot of the record.
func (t *Table[J]) Job(id string) (JobRecord, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.ByID[id]
	if !ok {
		return JobRecord{}, ErrUnknownJob
	}
	return j.entry().Rec, nil
}

// Jobs lists record snapshots, optionally filtered by tenant, in
// submission order.
func (t *Table[J]) Jobs(tenant string) []JobRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]JobRecord, 0, len(t.ByID))
	for _, j := range t.ByID {
		if rec := j.entry().Rec; tenant == "" || rec.Tenant == tenant {
			out = append(out, rec)
		}
	}
	slices.SortFunc(out, func(a, b JobRecord) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns the final record.
func (t *Table[J]) Wait(ctx context.Context, id string) (JobRecord, error) {
	t.mu.Lock()
	j, ok := t.ByID[id]
	t.mu.Unlock()
	if !ok {
		return JobRecord{}, ErrUnknownJob
	}
	select {
	case <-j.entry().done:
		return t.Job(id)
	case <-ctx.Done():
		return JobRecord{}, ctx.Err()
	}
}

// Result returns the job's result. Only terminal done/failed jobs have
// one; it is served from memory when the run finished in this process,
// from the result cache otherwise.
func (t *Table[J]) Result(id string) (exec.Result, error) {
	t.mu.Lock()
	j, ok := t.ByID[id]
	var rec JobRecord
	var res *exec.Result
	if ok {
		rec, res = j.entry().Rec, j.entry().result
	}
	t.mu.Unlock()
	switch {
	case !ok:
		return exec.Result{}, ErrUnknownJob
	case !rec.Terminal():
		return exec.Result{}, fmt.Errorf("serve: job %s is %s, no result yet", id, rec.State)
	case rec.State == StateCanceled:
		return exec.Result{}, fmt.Errorf("serve: job %s was canceled", id)
	case res != nil:
		return *res, nil
	}
	if t.cache != nil {
		if r, ok := t.cache.Get(rec.Hash); ok {
			r.Key = rec.Job.Key
			r.Cached = true
			return r, nil
		}
	}
	return exec.Result{}, fmt.Errorf("serve: job %s finished but its result left the cache", id)
}
