package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"innetcc/internal/exec"
)

// Event is one entry of a job's progress stream (GET /v1/jobs/{id}/events,
// server-sent events). State transitions carry the full record; progress
// ticks carry the runner's Progress observation. ID is the job-local event
// sequence number (1-based, monotonic): SSE clients echo the last ID they
// saw in the Last-Event-ID header on reconnect and the server replays what
// they missed from its retained ring. Event 1 of a job is its queued state
// at submission, so a reconnect from ID 0 replays its whole life in this
// process.
type Event struct {
	ID       int64          `json:"id,omitempty"`
	Type     string         `json:"type"` // "state" | "progress"
	Record   *JobRecord     `json:"record,omitempty"`
	Progress *exec.Progress `json:"progress,omitempty"`
}

// maxEventHistory bounds the per-job retained event ring Last-Event-ID
// reconnects replay from. A reconnect that fell further behind than the
// ring (or predates it) gets a synthetic state event with the current
// record instead — progress ticks are telemetry, but the current state
// subsumes everything a stream exists to deliver, including the terminal
// transition.
const maxEventHistory = 256

// SubscribeAfter attaches a listener that resumes a dropped stream: events
// with IDs greater than after are replayed from the retained ring before
// live delivery begins. after < 0 requests a fresh subscription (synthetic
// current-state event first); an after older than the ring's tail falls
// back to the same synthetic snapshot, so a lagging client always
// converges on the current record. The channel is closed when the job
// reaches a terminal state (the closing state event is delivered first);
// the unsubscribe function is idempotent and safe after close.
func (t *Table[J]) SubscribeAfter(id string, after int64) (<-chan Event, func(), error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.ByID[id]
	if !ok {
		return nil, nil, ErrUnknownJob
	}
	e := j.entry()
	replay := e.replay(after)
	// Buffered so a stalled consumer drops events instead of blocking the
	// simulation worker; 64 comfortably covers state transitions plus a
	// burst of progress ticks, and the replay backlog rides on top.
	ch := make(chan Event, len(replay)+64)
	for _, ev := range replay {
		ch <- ev
	}
	if e.Rec.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	e.subs = append(e.subs, ch)
	unsub := func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		for i, c := range e.subs {
			if c == ch {
				e.subs = append(e.subs[:i], e.subs[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return ch, unsub, nil
}

// replay computes the catch-up backlog for a subscriber that last saw
// event ID after.
func (e *Entry) replay(after int64) []Event {
	if after >= e.lastEv {
		// Fully caught up (or claiming to be from the future): nothing to
		// replay; a fresh terminal job still needs its closing event, which
		// the synthetic snapshot below covers only when after < lastEv.
		if after > e.lastEv {
			after = -1 // bogus ID from another job's stream: resync
		} else {
			return nil
		}
	}
	if after >= 0 && len(e.hist) > 0 && e.hist[0].ID <= after+1 {
		// The ring still holds everything after the cursor: exact replay.
		out := make([]Event, 0, len(e.hist))
		for _, ev := range e.hist {
			if ev.ID > after {
				out = append(out, ev)
			}
		}
		return out
	}
	// Fresh subscription, or the cursor fell off the ring: one synthetic
	// state event carrying the current record (stamped with the latest ID
	// so a further reconnect resumes exactly).
	rec := e.Rec
	return []Event{{ID: e.lastEv, Type: "state", Record: &rec}}
}

// PublishState publishes a state event carrying the current record.
func (e *Entry) PublishState() {
	rec := e.Rec
	e.Publish(Event{Type: "state", Record: &rec})
}

// Publish assigns the event its job-local sequence ID, retains it in the
// replay ring and fans it out to the job's subscribers. Slow subscribers
// lose events (non-blocking send): progress is a telemetry stream, not a
// transactional log. The exception is a terminal state event — a
// subscription promises it precedes the channel close — so a full buffer
// has its oldest queued telemetry evicted to make room. Eviction is safe:
// senders serialize on the table's mutex, so after freeing a slot the
// send cannot find the buffer full again.
func (e *Entry) Publish(ev Event) {
	e.lastEv++
	ev.ID = e.lastEv
	e.hist = append(e.hist, ev)
	if len(e.hist) > maxEventHistory {
		e.hist = e.hist[len(e.hist)-maxEventHistory:]
	}
	terminal := ev.Type == "state" && ev.Record != nil && ev.Record.Terminal()
	for _, ch := range e.subs {
		select {
		case ch <- ev:
		default:
			if terminal {
				select {
				case <-ch:
				default:
				}
				select {
				case ch <- ev:
				default:
				}
			}
		}
	}
}

// serveEvents streams the job's Event feed as server-sent events until the
// job reaches a terminal state or the client disconnects. A reconnecting
// client sends the standard Last-Event-ID header and the stream resumes
// after that event (replayed from the retained ring) instead of
// restarting or silently missing the terminal transition.
func serveEvents(f Frontend, w http.ResponseWriter, r *http.Request) {
	after := int64(-1)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
			after = n
		}
	}
	ch, unsub, err := f.SubscribeAfter(r.PathValue("id"), after)
	if err != nil {
		writeErr(w, err, nil)
		return
	}
	defer unsub()
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": "streaming unsupported"})
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
