package serve

import (
	"encoding/json"
	"testing"
)

// FuzzSubmitRequest fuzzes the front door both job front ends submit
// through: JSON decoded into a SubmitRequest and resolved by BuildJob must
// never panic, and an accepted request must survive a JSON round trip
// unchanged — re-encoding and decoding it resolves to the same content
// hash, so a request relayed by the coordinator to a worker names the
// same job. The committed corpus (testdata/fuzz/FuzzSubmitRequest) holds
// the TestBuildJobRejectsBadSpecs cases.
func FuzzSubmitRequest(f *testing.F) {
	for _, tc := range buildJobCases() {
		b, err := json.Marshal(tc.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		job, err := req.BuildJob()
		if err != nil {
			return // refused at the front door: nothing else to hold
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		var back SubmitRequest
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", b, err)
		}
		job2, err := back.BuildJob()
		if err != nil {
			t.Fatalf("round-tripped request %s refused: %v", b, err)
		}
		if h1, h2 := job.Hash(), job2.Hash(); h1 != h2 {
			t.Fatalf("round trip changed the job hash: %s -> %s (request %s)", h1, h2, b)
		}
	})
}
