// Package serve is the persistent simulation-as-a-service layer: an
// HTTP/JSON job API in front of internal/exec with a priority queue,
// per-tenant quotas and fair scheduling, streaming progress, and
// checkpoint/restore so a killed server resumes interrupted jobs on
// restart. Results are stored in the same content-hash cache the batch
// pool uses, so server runs and direct runs share one result store.
//
// The job lifecycle lives here once for both job front ends, this Server
// and the cluster coordinator: the job table and its admission and
// terminal transitions (Table, Entry), the per-job event ring with
// Last-Event-ID replay, the /v1/jobs HTTP handlers with SSE framing
// (JobMux), and the record store (Store).
package serve

import (
	"fmt"
	"strconv"
	"strings"
)

// Quota bounds one tenant's use of the server.
type Quota struct {
	// MaxRunning is the tenant's concurrent-simulation cap (values <= 0
	// mean 1).
	MaxRunning int `json:"maxRunning"`

	// MaxQueued caps the tenant's non-terminal jobs (queued + running);
	// submissions beyond it are rejected with 429. Values <= 0 mean
	// unlimited.
	MaxQueued int `json:"maxQueued"`
}

func (q Quota) maxRunning() int {
	if q.MaxRunning <= 0 {
		return 1
	}
	return q.MaxRunning
}

// ParseTenants parses the CLI tenant-quota syntax:
// "name=maxRunning[:maxQueued],name2=...". Example: "alice=2:8,bob=1".
func ParseTenants(s string) (map[string]Quota, error) {
	out := make(map[string]Quota)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("serve: bad tenant %q (want name=maxRunning[:maxQueued])", part)
		}
		runS, quS, hasQ := strings.Cut(spec, ":")
		var q Quota
		var err error
		if q.MaxRunning, err = strconv.Atoi(runS); err != nil {
			return nil, fmt.Errorf("serve: tenant %s: bad maxRunning %q", name, runS)
		}
		if hasQ {
			if q.MaxQueued, err = strconv.Atoi(quS); err != nil {
				return nil, fmt.Errorf("serve: tenant %s: bad maxQueued %q", name, quS)
			}
		}
		out[name] = q
	}
	return out, nil
}
