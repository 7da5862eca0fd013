package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"innetcc/internal/serve"
)

// Handler returns the coordinator's HTTP API. The job surface mirrors a
// single serve.Server's, so serve.Client (and every existing tool built
// on it) works unmodified against a coordinator; the /v1/cluster/*
// endpoints are the worker-facing registration plane.
//
//	POST /v1/jobs                   submit (serve.SubmitRequest -> JobRecord)
//	GET  /v1/jobs                   list records (?tenant= filters)
//	GET  /v1/jobs/{id}              one record
//	GET  /v1/jobs/{id}/result       terminal result payload
//	GET  /v1/jobs/{id}/events       SSE progress/state stream (Last-Event-ID resume)
//	POST /v1/jobs/{id}/cancel       cancel queued/dispatched job
//	GET  /v1/stats                  cluster accounting (Stats)
//	GET  /healthz                   liveness
//	POST /v1/cluster/register       worker registration / re-registration
//	POST /v1/cluster/heartbeat      lease renewal ({"id": ...})
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Jobs(r.URL.Query().Get("tenant")))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec, err := c.Job(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := c.Cancel(r.PathValue("id")); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/cluster/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !serve.DecodeRequest(w, r, &req) {
			return
		}
		resp, err := c.Register(req)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID string `json:"id"`
		}
		if !serve.DecodeRequest(w, r, &req) {
			return
		}
		if err := c.Heartbeat(req.ID); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, serve.ErrUnknownJob), errors.Is(err, ErrUnknownWorker):
		code = http.StatusNotFound
	case errors.Is(err, ErrBacklogFull):
		code = http.StatusTooManyRequests
		// Backpressure is transient by design: the queue drains as workers
		// return (or local fallback chews through it). Well-behaved clients
		// back off instead of hammering.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req serve.SubmitRequest
	if !serve.DecodeRequest(w, r, &req) {
		return
	}
	rec, err := c.Submit(req)
	if err != nil {
		if errors.Is(err, ErrBacklogFull) {
			writeErr(w, err)
		} else {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := c.Result(r.PathValue("id"))
	if err != nil {
		if errors.Is(err, serve.ErrUnknownJob) {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// Client talks to a coordinator. The embedded serve.Client covers the
// whole job surface (submit/job/result/cancel/wait-by-poll); the
// additions are the cluster-only endpoints.
type Client struct {
	serve.Client
}

// ClusterStats fetches the coordinator accounting snapshot.
func (c *Client) ClusterStats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.Do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// RegisterWorker announces a worker to the coordinator.
func (c *Client) RegisterWorker(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.Do(ctx, http.MethodPost, "/v1/cluster/register", req, &resp)
	return resp, err
}

// HeartbeatWorker renews a worker lease.
func (c *Client) HeartbeatWorker(ctx context.Context, id string) error {
	return c.Do(ctx, http.MethodPost, "/v1/cluster/heartbeat", map[string]string{"id": id}, nil)
}
