package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"innetcc/internal/serve"
)

// frontEnd is the surface both job front ends — serve.Server and
// Coordinator — offer: the shared HTTP job API and its Go twin.
type frontEnd interface {
	serve.Frontend
	Wait(ctx context.Context, id string) (serve.JobRecord, error)
	Handler() http.Handler
}

// wireFrontEnd is one front end under the wire-contract table.
type wireFrontEnd struct {
	fe  frontEnd
	url string
	// busy is submitted with fresh seeds until admission refuses it:
	// a capped tenant on serve, the backlog bound on the coordinator.
	busy serve.SubmitRequest
	// jsonPosts are the endpoints that decode a JSON body.
	jsonPosts []string
}

// serveWire is a one-worker serve.Server whose tenant "capped" may hold
// one pending job.
func serveWire(t *testing.T) wireFrontEnd {
	srv, err := serve.New(serve.Options{
		DataDir:       t.TempDir(),
		Workers:       1,
		Tenants:       map[string]serve.Quota{"capped": {MaxQueued: 1}},
		SegmentCycles: 128,
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	t.Cleanup(srv.Drain)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return wireFrontEnd{
		fe:        srv,
		url:       ts.URL,
		busy:      serve.SubmitRequest{Tenant: "capped", Profile: "lu", Engine: "tree", Accesses: 200000},
		jsonPosts: []string{"/v1/jobs"},
	}
}

// coordWire is a memory-only coordinator, backlog bound 1, with one
// in-process worker registered.
func coordWire(t *testing.T) wireFrontEnd {
	srv, err := serve.New(serve.Options{DataDir: t.TempDir(), Workers: 1, SegmentCycles: 128})
	if err != nil {
		t.Fatalf("new worker: %v", err)
	}
	t.Cleanup(srv.Drain)
	ws := httptest.NewServer(srv.Handler())
	t.Cleanup(ws.Close)

	c, err := New(Options{MaxQueued: 1, PollEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	t.Cleanup(c.Drain)
	if _, err := c.Register(RegisterRequest{ID: "w0", URL: ws.URL, Slots: 1}); err != nil {
		t.Fatalf("register worker: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return wireFrontEnd{
		fe:        c,
		url:       ts.URL,
		busy:      serve.SubmitRequest{Tenant: "t", Profile: "lu", Engine: "tree", Accesses: 200000},
		jsonPosts: []string{"/v1/jobs", "/v1/cluster/register", "/v1/cluster/heartbeat"},
	}
}

// call issues one request and returns the response with its body read.
func call(t *testing.T, method, url, body string, hdr ...string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	return resp, b.String()
}

// streamEvents reads an SSE body to its end.
func streamEvents(t *testing.T, body string) []serve.Event {
	t.Helper()
	var evs []serve.Event
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", data, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// wireContract is the HTTP contract clients rely on, identical on both
// front ends.
var wireContract = []struct {
	name  string
	check func(t *testing.T, w wireFrontEnd)
}{
	{"400 for a spec BuildJob refuses", func(t *testing.T, w wireFrontEnd) {
		before := len(w.fe.Jobs(""))
		for _, body := range []string{
			`{"tenant":"t","profile":"fft","engine":"tree","accesses":40,"config":{}}`,
			`{"tenant":"t","profile":"fft","engine":"tree","accesses":40,"faults":"bogus=1"}`,
		} {
			if resp, _ := call(t, "POST", w.url+"/v1/jobs", body); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: HTTP %d, want 400", body, resp.StatusCode)
			}
		}
		if n := len(w.fe.Jobs("")) - before; n != 0 {
			t.Errorf("%d rejected jobs were recorded", n)
		}
	}},
	{"413 for a body over MaxRequestBytes", func(t *testing.T, w wireFrontEnd) {
		pad := strings.Repeat("x", serve.MaxRequestBytes)
		for _, path := range w.jsonPosts {
			if resp, _ := call(t, "POST", w.url+path, `{"id":"`+pad+`"}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s: oversized body got HTTP %d, want 413", path, resp.StatusCode)
			}
		}
	}},
	{"unknown fields are ignored", func(t *testing.T, w wireFrontEnd) {
		// Old clients that still send the removed "shards" field keep working.
		body := `{"tenant":"t","profile":"fft","engine":"tree","accesses":40,"shards":2}`
		if resp, _ := call(t, "POST", w.url+"/v1/jobs", body); resp.StatusCode != http.StatusAccepted {
			t.Errorf("request with a legacy shards field: HTTP %d, want 202", resp.StatusCode)
		}
	}},
	{"404 for an unknown ID", func(t *testing.T, w wireFrontEnd) {
		for _, r := range [][2]string{
			{"GET", "/v1/jobs/nope"},
			{"GET", "/v1/jobs/nope/result"},
			{"POST", "/v1/jobs/nope/cancel"},
			{"GET", "/v1/jobs/nope/events"},
		} {
			if resp, _ := call(t, r[0], w.url+r[1], ""); resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: HTTP %d, want 404", r[0], r[1], resp.StatusCode)
			}
		}
	}},
	{"409 for a result that is not ready", func(t *testing.T, w wireFrontEnd) {
		rec, err := w.fe.Submit(serve.SubmitRequest{Tenant: "t", Profile: "lu", Engine: "tree", Accesses: 200000})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if resp, _ := call(t, "GET", w.url+"/v1/jobs/"+rec.ID+"/result", ""); resp.StatusCode != http.StatusConflict {
			t.Errorf("pending job's result: HTTP %d, want 409", resp.StatusCode)
		}
		if resp, _ := call(t, "POST", w.url+"/v1/jobs/"+rec.ID+"/cancel", ""); resp.StatusCode != http.StatusOK {
			t.Errorf("cancel: HTTP %d, want 200", resp.StatusCode)
		}
		if final, err := w.fe.Wait(testCtx(t), rec.ID); err != nil || final.State != serve.StateCanceled {
			t.Fatalf("canceled job ended %s (%v)", final.State, err)
		}
		if resp, _ := call(t, "GET", w.url+"/v1/jobs/"+rec.ID+"/result", ""); resp.StatusCode != http.StatusConflict {
			t.Errorf("canceled job's result: HTTP %d, want 409", resp.StatusCode)
		}
	}},
	{"SSE replay from Last-Event-ID ends in the terminal state", func(t *testing.T, w wireFrontEnd) {
		rec, err := w.fe.Submit(serve.SubmitRequest{Tenant: "t", Profile: "fft", Engine: "dir", Accesses: 200})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if _, err := w.fe.Wait(testCtx(t), rec.ID); err != nil {
			t.Fatalf("wait: %v", err)
		}
		// From ID 0 the ring replays the job's whole life: event 1 is the
		// queued state published at submission, the last the terminal one.
		resp, body := call(t, "GET", w.url+"/v1/jobs/"+rec.ID+"/events", "", "Last-Event-ID", "0")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events: HTTP %d", resp.StatusCode)
		}
		evs := streamEvents(t, body)
		if len(evs) < 3 {
			t.Fatalf("replay has %d events, want queued, running and done at least", len(evs))
		}
		for i, ev := range evs {
			if ev.ID != int64(i+1) {
				t.Fatalf("event %d has ID %d, want %d", i, ev.ID, i+1)
			}
		}
		if first := evs[0]; first.Type != "state" || first.Record == nil || first.Record.State != serve.StateQueued {
			t.Errorf("first event = %+v, want the queued state", first)
		}
		last := evs[len(evs)-1]
		if last.Type != "state" || last.Record == nil || last.Record.State != serve.StateDone {
			t.Fatalf("last event = %+v, want the done state", last)
		}
		// A reconnect one event short of the end gets exactly the terminal
		// event.
		after := strconv.FormatInt(last.ID-1, 10)
		_, body = call(t, "GET", w.url+"/v1/jobs/"+rec.ID+"/events", "", "Last-Event-ID", after)
		if tail := streamEvents(t, body); len(tail) != 1 || tail[0].ID != last.ID || tail[0].Record.State != serve.StateDone {
			t.Errorf("reconnect after %s replayed %+v, want the terminal event alone", after, tail)
		}
	}},
	{"429 with Retry-After under admission pressure", func(t *testing.T, w wireFrontEnd) {
		var admitted []string
		defer func() {
			for _, id := range admitted {
				w.fe.Cancel(id)
			}
		}()
		req := w.busy
		for seed := uint64(1); seed <= 4; seed++ {
			req.SuiteSeed = seed
			b, _ := json.Marshal(req)
			resp, body := call(t, "POST", w.url+"/v1/jobs", string(b))
			switch resp.StatusCode {
			case http.StatusAccepted:
				var rec serve.JobRecord
				json.Unmarshal([]byte(body), &rec)
				admitted = append(admitted, rec.ID)
				continue
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("429 without a Retry-After header")
				}
				return
			}
			t.Fatalf("submission %d: HTTP %d, want 202 or 429", seed, resp.StatusCode)
		}
		t.Fatalf("%d submissions admitted, none refused", len(admitted))
	}},
}

// TestWireContract runs the wire-contract table against serve.Server's
// handler and against a coordinator's with one in-process worker: the
// two front ends answer every case with the same status.
func TestWireContract(t *testing.T) {
	for name, open := range map[string]func(*testing.T) wireFrontEnd{"serve": serveWire, "coordinator": coordWire} {
		t.Run(name, func(t *testing.T) {
			w := open(t)
			for _, tc := range wireContract {
				t.Run(tc.name, func(t *testing.T) { tc.check(t, w) })
			}
		})
	}
}

// TestCoordinatorBoundsRequestBodies checks a memory-only coordinator
// with no workers registered: every JSON endpoint answers a body over
// serve.MaxRequestBytes with 413, and a submission BuildJob refuses is a
// 400 before it is queued.
func TestCoordinatorBoundsRequestBodies(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Drain()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	pad := strings.Repeat("x", serve.MaxRequestBytes)
	for _, path := range []string{"/v1/jobs", "/v1/cluster/register", "/v1/cluster/heartbeat"} {
		if resp, _ := call(t, "POST", ts.URL+path, `{"id":"`+pad+`"}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body got HTTP %d, want 413", path, resp.StatusCode)
		}
	}
	bad := `{"tenant":"t","profile":"fft","engine":"tree","accesses":40,"faults":"bogus=1"}`
	if resp, _ := call(t, "POST", ts.URL+"/v1/jobs", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad fault spec got HTTP %d, want 400", resp.StatusCode)
	}
	if n := len(c.Jobs("")); n != 0 {
		t.Errorf("%d rejected jobs were recorded", n)
	}
}

// TestSubmitPersistFailureRecordsNothing pins the submit path both front
// ends share: a job whose record cannot be written is refused, and
// nothing is recorded — a 202 for it would be a job a restart loses.
func TestSubmitPersistFailureRecordsNothing(t *testing.T) {
	open := map[string]func(dir string) (frontEnd, func(), error){
		"serve": func(dir string) (frontEnd, func(), error) {
			s, err := serve.New(serve.Options{DataDir: dir, Workers: 1})
			if err != nil {
				return nil, nil, err
			}
			return s, s.Drain, nil
		},
		"coordinator": func(dir string) (frontEnd, func(), error) {
			c, err := New(Options{DataDir: dir})
			if err != nil {
				return nil, nil, err
			}
			return c, c.Drain, nil
		},
	}
	for name, newFE := range open {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fe, stop, err := newFE(dir)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer stop()
			// Make jobs/ unwritable. Permission bits do not bind root, so
			// the directory is replaced by a plain file: no record can be
			// created under it by anyone.
			jobs := filepath.Join(dir, "jobs")
			if err := os.RemoveAll(jobs); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(jobs, nil, 0o444); err != nil {
				t.Fatal(err)
			}
			if _, err := fe.Submit(serve.SubmitRequest{Tenant: "t", Profile: "fft", Engine: "tree", Accesses: 40}); err == nil {
				t.Fatalf("submit succeeded with an unwritable jobs directory")
			}
			if recs := fe.Jobs(""); len(recs) != 0 {
				t.Fatalf("refused submission left %d records: %+v", len(recs), recs)
			}
		})
	}
}
