package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// sseServer builds a one-worker server with fine-grained segments (so
// cancellation and progress ticks land quickly) behind an httptest server.
func sseServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{
		DataDir:       t.TempDir(),
		Workers:       1,
		DefaultQuota:  Quota{MaxRunning: 1, MaxQueued: 8},
		SegmentCycles: 128,
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	t.Cleanup(srv.Drain)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// subCount reads the job's live subscriber count through the server lock.
func subCount(srv *Server, id string) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if js := srv.jobs.ByID[id]; js != nil {
		return len(js.subs)
	}
	return 0
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sseEvents decodes one server-sent-events stream, invoking fn per event,
// until the stream ends.
func sseEvents(t *testing.T, body *bufio.Scanner, fn func(Event) bool) {
	t.Helper()
	for body.Scan() {
		line := body.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		if !fn(ev) {
			return
		}
	}
}

// TestSSEClientDisconnectUnsubscribes pins the disconnect path of the
// events handler: a client that walks away mid-stream must be removed from
// the job's subscriber list (and its handler goroutine must exit) while
// the job keeps running to completion undisturbed.
func TestSSEClientDisconnectUnsubscribes(t *testing.T) {
	srv, ts := sseServer(t)
	ctx := testCtx(t)

	rec, err := srv.Submit(SubmitRequest{Tenant: "t", Profile: "fft", Engine: "tree", Accesses: 2000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	streamCtx, cancelStream := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(streamCtx, "GET", ts.URL+"/v1/jobs/"+rec.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	defer resp.Body.Close()
	// The synthetic first state event proves the subscription is live.
	sc := bufio.NewScanner(resp.Body)
	got := false
	sseEvents(t, sc, func(ev Event) bool {
		if ev.Type != "state" || ev.Record == nil || ev.Record.ID != rec.ID {
			t.Errorf("first event = %+v, want state event for %s", ev, rec.ID)
		}
		got = true
		return false
	})
	if !got {
		t.Fatal("no first state event")
	}
	waitFor(t, "subscriber registered", func() bool { return subCount(srv, rec.ID) == 1 })

	// Disconnect mid-stream: the handler must unsubscribe.
	cancelStream()
	waitFor(t, "subscriber removed after disconnect", func() bool { return subCount(srv, rec.ID) == 0 })

	// The job is unaffected by the vanished watcher.
	waitFor(t, "job completion", func() bool {
		r, err := srv.Job(rec.ID)
		return err == nil && r.State == StateDone
	})
}

// TestSSECancelMidStreamDeliversTerminalEvent pins the cancel path: a
// watcher attached to a running job that gets canceled receives a terminal
// state event carrying the canceled record, then a clean stream end, and
// the server drops the subscription.
func TestSSECancelMidStreamDeliversTerminalEvent(t *testing.T) {
	srv, ts := sseServer(t)
	ctx := testCtx(t)

	// Large enough that the job cannot finish before the cancel below lands
	// (the run never completes — it is canceled — so size costs nothing).
	rec, err := srv.Submit(SubmitRequest{Tenant: "t", Profile: "lu", Engine: "tree", Accesses: 200000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, "job running", func() bool {
		r, err := srv.Job(rec.ID)
		return err == nil && r.State == StateRunning
	})

	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+rec.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	defer resp.Body.Close()

	if err := srv.Cancel(rec.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}

	// Drain the stream to its end: the last event must be the terminal
	// canceled record (progress/state events may precede it).
	var last Event
	sseEvents(t, bufio.NewScanner(resp.Body), func(ev Event) bool {
		last = ev
		return true
	})
	if last.Type != "state" || last.Record == nil {
		t.Fatalf("final event = %+v, want terminal state event", last)
	}
	if last.Record.State != StateCanceled || !last.Record.Terminal() {
		t.Fatalf("final record state = %s, want %s", last.Record.State, StateCanceled)
	}
	waitFor(t, "subscriber removed after close", func() bool { return subCount(srv, rec.ID) == 0 })
}

// TestSSENoGoroutineLeak runs a watch-disconnect / watch-cancel cycle and
// requires the goroutine count to settle back to its baseline: neither the
// events handler nor the subscription machinery may strand goroutines.
func TestSSENoGoroutineLeak(t *testing.T) {
	srv, ts := sseServer(t)
	ctx := testCtx(t)
	base := runtime.NumGoroutine()

	for i := 0; i < 4; i++ {
		rec, err := srv.Submit(SubmitRequest{Tenant: "t", Profile: "fft", Engine: "dir", Accesses: 300})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		streamCtx, cancelStream := context.WithCancel(ctx)
		req, _ := http.NewRequestWithContext(streamCtx, "GET", ts.URL+"/v1/jobs/"+rec.ID+"/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("open stream: %v", err)
		}
		if i%2 == 0 {
			// Half the cycles abandon the stream mid-run...
			cancelStream()
		} else {
			// ...the other half cancel the job and read to stream end.
			if err := srv.Cancel(rec.ID); err != nil {
				t.Fatalf("cancel: %v", err)
			}
			sseEvents(t, bufio.NewScanner(resp.Body), func(Event) bool { return true })
			cancelStream()
		}
		resp.Body.Close()
		waitFor(t, "job terminal", func() bool {
			r, err := srv.Job(rec.ID)
			return err == nil && r.Terminal()
		})
	}

	// Goroutine accounting: allow scheduler noise to drain, then require
	// the count back at (or below) baseline plus idle-connection slack.
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		http.DefaultClient.CloseIdleConnections()
		return runtime.NumGoroutine() <= base+2
	})
}
