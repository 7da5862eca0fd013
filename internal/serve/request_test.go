package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"innetcc/internal/protocol"
)

// TestBuildJobRejectsBadSpecs pins submit-time validation: a request whose
// resolved configuration or fault spec cannot run is refused by BuildJob,
// which both the server and the cluster coordinator submit through.
func TestBuildJobRejectsBadSpecs(t *testing.T) {
	badCfg := protocol.DefaultConfig()
	badCfg.L2Ways = 3 // 65536 entries do not split into 3 ways
	base := SubmitRequest{Tenant: "t", Profile: "fft", Engine: "tree", Accesses: 40}
	with := func(f func(*SubmitRequest)) SubmitRequest {
		r := base
		f(&r)
		return r
	}
	cases := []struct {
		name    string
		req     SubmitRequest
		wantErr string // empty: must be accepted
	}{
		{"default", base, ""},
		{"faults", with(func(r *SubmitRequest) { r.Faults = "drop=2000,timeout=200000,retries=6" }), ""},
		{"topology", with(func(r *SubmitRequest) { r.Topology = "torus:4x4"; r.Multicast = true }), ""},
		{"empty config", with(func(r *SubmitRequest) { r.Config = &protocol.Config{} }), "topology"},
		{"bad cache shape", with(func(r *SubmitRequest) { r.Config = &badCfg }), "bad L2"},
		{"unknown fault key", with(func(r *SubmitRequest) { r.Faults = "bogus=1" }), "bogus"},
		{"malformed fault spec", with(func(r *SubmitRequest) { r.Faults = "drop" }), "fault"},
		{"bad topology", with(func(r *SubmitRequest) { r.Topology = "cube:3" }), "topology"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.req.BuildJob()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("valid request rejected: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("invalid request accepted")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// postJobs posts body to the server's submit endpoint and returns the
// status code.
func postJobs(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestSubmitRejectsBadSpecAndOversizedBody checks the HTTP front door: a
// spec BuildJob refuses is a 400 at submit (and never reaches a worker),
// and a body over MaxRequestBytes is a 413.
func TestSubmitRejectsBadSpecAndOversizedBody(t *testing.T) {
	srv, err := New(Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"tenant":"t","profile":"fft","engine":"tree","accesses":40,"config":{}}`,
		`{"tenant":"t","profile":"fft","engine":"tree","accesses":40,"faults":"bogus=1"}`,
	} {
		if code := postJobs(t, ts.URL, []byte(body)); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", body, code)
		}
	}
	if n := len(srv.Jobs("")); n != 0 {
		t.Errorf("%d rejected jobs were recorded", n)
	}

	big, err := json.Marshal(SubmitRequest{Tenant: "t", Profile: "fft", Engine: "tree", Accesses: 40,
		Key: strings.Repeat("k", MaxRequestBytes)})
	if err != nil {
		t.Fatal(err)
	}
	if code := postJobs(t, ts.URL, big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: HTTP %d, want 413", code)
	}
	// Unknown fields are ignored, so old clients that still send the
	// removed "shards" field keep working.
	ok := `{"tenant":"t","profile":"fft","engine":"tree","accesses":40,"shards":2}`
	if code := postJobs(t, ts.URL, []byte(ok)); code != http.StatusAccepted {
		t.Errorf("request with a legacy shards field: HTTP %d, want 202", code)
	}
}
