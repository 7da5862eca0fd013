package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs                 submit (SubmitRequest -> JobRecord)
//	GET  /v1/jobs                 list records (?tenant= filters)
//	GET  /v1/jobs/{id}            one record
//	GET  /v1/jobs/{id}/result     terminal result payload
//	POST /v1/jobs/{id}/cancel     cancel queued/running job
//	GET  /v1/jobs/{id}/events     server-sent events progress stream
//	GET  /v1/jobs/{id}/snapshot   latest checkpoint bytes (hand-off export)
//	GET  /v1/stats                queue/tenant/cache accounting
//	GET  /healthz                 liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// MaxRequestBytes caps every JSON request body the job API decodes, here
// and in the cluster coordinator. A submission carrying a hand-off
// snapshot is about 1 KB, so 1 MiB leaves ample room while keeping a
// request from holding unbounded memory.
const MaxRequestBytes = 1 << 20

// DecodeRequest decodes r's JSON body into v, reading at most
// MaxRequestBytes. On failure it answers the request itself — 413 for an
// oversized body, 400 for a malformed one — and returns false.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, map[string]string{"error": "bad request body: " + err.Error()})
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownJob), errors.Is(err, ErrNoSnapshot):
		code = http.StatusNotFound
	case errors.Is(err, ErrQuotaExceeded):
		code = http.StatusTooManyRequests
		// Quota pressure is transient: tell well-behaved clients when to
		// come back instead of letting them hammer the endpoint.
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	rec, err := s.Submit(req)
	if err != nil {
		if errors.Is(err, ErrQuotaExceeded) {
			writeErr(w, err)
		} else {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs(r.URL.Query().Get("tenant")))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rec, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := s.Result(id)
	if err != nil {
		if errors.Is(err, ErrUnknownJob) {
			writeErr(w, err)
			return
		}
		// Known job without a servable result: not ready or canceled.
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
}

// handleEvents streams the job's Event feed as server-sent events until the
// job reaches a terminal state or the client disconnects. A reconnecting
// client sends the standard Last-Event-ID header and the stream resumes
// after that event (replayed from the server's retained ring) instead of
// restarting or silently missing the terminal transition.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	after := int64(-1)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			after = n
		}
	}
	ch, unsub, err := s.SubscribeAfter(r.PathValue("id"), after)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer unsub()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, b); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleSnapshot exports the job's latest checkpoint bytes for hand-off to
// another worker. 404 when the job is unknown or has no usable snapshot.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	b, err := s.SnapshotBytes(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}
