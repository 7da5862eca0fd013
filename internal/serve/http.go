package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"innetcc/internal/exec"
)

// Frontend is the job API both front ends — a Server and the cluster
// coordinator — serve over HTTP through JobMux.
type Frontend interface {
	Submit(SubmitRequest) (JobRecord, error)
	Job(id string) (JobRecord, error)
	Jobs(tenant string) []JobRecord
	Result(id string) (exec.Result, error)
	Cancel(id string) error
	SubscribeAfter(id string, after int64) (<-chan Event, func(), error)
}

// JobMux returns a mux serving the job API both front ends share:
//
//	POST /v1/jobs                 submit (SubmitRequest -> JobRecord)
//	GET  /v1/jobs                 list records (?tenant= filters)
//	GET  /v1/jobs/{id}            one record
//	GET  /v1/jobs/{id}/result     terminal result payload
//	POST /v1/jobs/{id}/cancel     cancel queued/running job
//	GET  /v1/jobs/{id}/events     server-sent events (Last-Event-ID resume)
//	GET  /v1/stats                stats()
//	GET  /healthz                 liveness
//
// busy is the admission error a submission is refused with when the front
// end is full; it is answered 429 with a Retry-After header.
func JobMux(f Frontend, busy error, stats func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !DecodeRequest(w, r, &req) {
			return
		}
		rec, err := f.Submit(req)
		switch {
		case err == nil:
			WriteJSON(w, http.StatusAccepted, rec)
		case errors.Is(err, busy):
			writeErr(w, err, busy)
		default:
			WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		}
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, f.Jobs(r.URL.Query().Get("tenant")))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec, err := f.Job(r.PathValue("id"))
		if err != nil {
			writeErr(w, err, busy)
			return
		}
		WriteJSON(w, http.StatusOK, rec)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, err := f.Result(r.PathValue("id"))
		switch {
		case errors.Is(err, ErrUnknownJob):
			writeErr(w, err, busy)
		case err != nil:
			// Known job without a servable result: not ready or canceled.
			WriteJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		default:
			WriteJSON(w, http.StatusOK, res)
		}
	})
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		if err := f.Cancel(r.PathValue("id")); err != nil {
			writeErr(w, err, busy)
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		serveEvents(f, w, r)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// Handler returns the server's HTTP API: the shared job API (JobMux) plus
//
//	GET  /v1/jobs/{id}/snapshot   latest checkpoint bytes (hand-off export)
func (s *Server) Handler() http.Handler {
	mux := JobMux(s, ErrQuotaExceeded, func() any { return s.Stats() })
	mux.HandleFunc("GET /v1/jobs/{id}/snapshot", s.handleSnapshot)
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
	WriteJSON(w, code, map[string]string{"error": "bad request body: " + err.Error()})
	return false
}

// WriteJSON answers the request with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeErr answers err with its status: 404 for an unknown job or missing
// snapshot, 429 + Retry-After for the busy admission error, 500 otherwise.
func writeErr(w http.ResponseWriter, err, busy error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownJob), errors.Is(err, ErrNoSnapshot):
		code = http.StatusNotFound
	case busy != nil && errors.Is(err, busy):
		code = http.StatusTooManyRequests
		// Admission pressure is transient: tell well-behaved clients when
		// to come back instead of letting them hammer the endpoint.
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// handleSnapshot exports the job's latest checkpoint bytes for hand-off to
// another worker. 404 when the job is unknown or has no usable snapshot.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	b, err := s.SnapshotBytes(r.PathValue("id"))
	if err != nil {
		writeErr(w, err, nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}
