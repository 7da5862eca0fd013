package cluster

import (
	"context"
	"net/http"

	"innetcc/internal/serve"
)

// Handler returns the coordinator's HTTP API: serve's job API
// (serve.JobMux, with ErrBacklogFull as the 429 admission error), so
// serve.Client — and every tool built on it — works unmodified against a
// coordinator, plus the worker-facing registration plane:
//
//	POST /v1/cluster/register       worker registration / re-registration
//	POST /v1/cluster/heartbeat      lease renewal ({"id": ...})
func (c *Coordinator) Handler() http.Handler {
	mux := serve.JobMux(c, ErrBacklogFull, func() any { return c.Stats() })
	mux.HandleFunc("POST /v1/cluster/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !serve.DecodeRequest(w, r, &req) {
			return
		}
		resp, err := c.Register(req)
		if err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		serve.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /v1/cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			ID string `json:"id"`
		}
		if !serve.DecodeRequest(w, r, &req) {
			return
		}
		if err := c.Heartbeat(req.ID); err != nil {
			// The only refusal is ErrUnknownWorker: 404 tells the agent to
			// re-register.
			serve.WriteJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
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
