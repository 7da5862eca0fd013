package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"innetcc/internal/serve"
)

// TestCoordinatorBoundsRequestBodies checks the coordinator's front door:
// every JSON endpoint answers a body over serve.MaxRequestBytes with 413,
// and a submission BuildJob refuses is a 400 before it is queued.
func TestCoordinatorBoundsRequestBodies(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	defer c.Drain()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("post %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	pad := strings.Repeat("x", serve.MaxRequestBytes)
	for _, path := range []string{"/v1/jobs", "/v1/cluster/register", "/v1/cluster/heartbeat"} {
		if code := post(path, `{"id":"`+pad+`"}`); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body got HTTP %d, want 413", path, code)
		}
	}
	bad := `{"tenant":"t","profile":"fft","engine":"tree","accesses":40,"faults":"bogus=1"}`
	if code := post("/v1/jobs", bad); code != http.StatusBadRequest {
		t.Errorf("bad fault spec got HTTP %d, want 400", code)
	}
	if n := len(c.Jobs("")); n != 0 {
		t.Errorf("%d rejected jobs were recorded", n)
	}
}
