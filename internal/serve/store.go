package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"innetcc/internal/exec"
)

// Job lifecycle states. A job is terminal in StateDone, StateFailed or
// StateCanceled; queued and running jobs survive a server restart (running
// ones are requeued and, when a checkpoint exists, resumed from it).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobRecord is the persistent lifecycle record of one submitted job. It is
// what the status endpoints return and what the store writes to disk; the
// result payload itself lives in the content-hash result cache under
// Hash.
type JobRecord struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	State    string `json:"state"`

	// Hash is the job's content hash: the result-cache key, shared with
	// direct internal/exec runs of the same spec.
	Hash string `json:"hash"`

	SubmittedAt int64 `json:"submittedAt"` // unix milliseconds
	StartedAt   int64 `json:"startedAt,omitempty"`
	FinishedAt  int64 `json:"finishedAt,omitempty"`

	// Seq is the submission sequence number scheduling ties break on;
	// StartSeq is the scheduler sequence at which the job last started
	// running (0 while never started), making the actual dispatch order
	// observable.
	Seq      int64 `json:"seq"`
	StartSeq int64 `json:"startSeq,omitempty"`

	// Cycle and Attempt mirror the latest streamed progress.
	Cycle   int64 `json:"cycle,omitempty"`
	Attempt int   `json:"attempt,omitempty"`

	// Error is set in StateFailed (and carries the cancellation cause in
	// StateCanceled). Cached reports the result came from the cache
	// without simulating.
	Error  string `json:"error,omitempty"`
	Cached bool   `json:"cached,omitempty"`

	Job exec.Job `json:"job"`
}

// Terminal reports whether the record's state is final.
func (r *JobRecord) Terminal() bool {
	return r.State == StateDone || r.State == StateFailed || r.State == StateCanceled
}

// Store is the on-disk layout both job front ends persist under — a
// serve.Server and the cluster coordinator differ only in what a job
// record holds and in the name of the snapshot directory:
//
//	<dir>/jobs/<id>.json         one record per job, written atomically
//	<dir>/<snap>/<id>.<snap>     latest checkpoint of a pending job
//	<dir>/cache/                 the exec result cache (opened by the owner)
//
// A Server uses snap "ckpt"; the coordinator "snap" (its migrated
// snapshots).
type Store struct {
	dir, snap string
}

// OpenStore creates (if needed) the layout under dir.
func OpenStore(dir, snap string) (*Store, error) {
	for _, sub := range []string{"jobs", snap, "cache"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: store: %w", err)
		}
	}
	return &Store{dir: dir, snap: snap}, nil
}

// CacheDir is the result-cache directory.
func (s *Store) CacheDir() string { return filepath.Join(s.dir, "cache") }

// SnapshotPath is where the job's checkpoint lives.
func (s *Store) SnapshotPath(id string) string {
	return filepath.Join(s.dir, s.snap, id+"."+s.snap)
}

// PutJob writes the job's record (any JSON-encodable form) atomically, so
// a crash leaves the previous version, never a torn one.
func (s *Store) PutJob(id string, v any) error {
	b, err := json.Marshal(v)
	if err == nil {
		err = exec.WriteFileAtomic(filepath.Join(s.dir, "jobs", id+".json"), b)
	}
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	return nil
}

// LoadJobs reads every decodable record of type T whose id is non-empty.
// Undecodable files (torn by a crash predating the atomic writer, or
// hand-damaged) are skipped, not fatal: losing one record must not take
// the whole front end down.
func LoadJobs[T any](s *Store, id func(*T) string) ([]*T, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	var out []*T
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.dir, "jobs", e.Name()))
		if err != nil {
			continue
		}
		v := new(T)
		if json.Unmarshal(b, v) != nil || id(v) == "" {
			continue
		}
		out = append(out, v)
	}
	return out, nil
}

// loadSnapshot returns the job's checkpoint if one exists, decodes, and
// actually belongs to the job's spec. Any failure reads as "no
// checkpoint": a checkpoint is an optimization, never a correctness
// dependency.
func (s *Store) loadSnapshot(rec *JobRecord) *exec.Snapshot {
	snap, err := exec.ReadSnapshot(s.SnapshotPath(rec.ID))
	if err != nil || snap.Job.Hash() != rec.Hash {
		return nil
	}
	return &snap
}

// DropSnapshot deletes the job's checkpoint, if any.
func (s *Store) DropSnapshot(id string) { os.Remove(s.SnapshotPath(id)) }

// SnapshotBytes reads the job's raw checkpoint file (ErrNoSnapshot when
// there is none).
func (s *Store) SnapshotBytes(id string) ([]byte, error) {
	b, err := os.ReadFile(s.SnapshotPath(id))
	if err != nil {
		return nil, ErrNoSnapshot
	}
	return b, nil
}

// PutSnapshot stages externally supplied checkpoint bytes (a hand-off or
// migrated snapshot from another host) as the job's own checkpoint,
// atomically.
func (s *Store) PutSnapshot(id string, b []byte) error {
	if err := exec.WriteFileAtomic(s.SnapshotPath(id), b); err != nil {
		return fmt.Errorf("serve: store: snapshot %w", err)
	}
	return nil
}
