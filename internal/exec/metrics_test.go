package exec

import (
	"encoding/json"
	"reflect"
	"testing"

	"innetcc/internal/protocol"
)

// TestMetricsDoNotPerturbResults is the observational-purity guarantee:
// a job run with the observability layer attached computes exactly the
// same simulation result as the same job without it — only the Metrics
// payload differs.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	for _, base := range testBatch() {
		plain := RunJob(base, RunOptions{})
		instr := base
		instr.Metrics = MetricsSpec{Enabled: true, FlightDump: true}
		traced := RunJob(instr, RunOptions{})

		if traced.Metrics == nil {
			t.Fatalf("%s: no metrics payload on instrumented run", base.Key)
		}
		got := traced
		got.Metrics = nil
		plain.Metrics = nil
		if !reflect.DeepEqual(plain, got) {
			t.Errorf("%s: instrumented run diverged from plain run\nplain: %+v\ninstr: %+v", base.Key, plain, got)
		}
	}
}

// TestMetricsIdenticalAcrossParallelism checks that metrics-enabled
// batches — payloads included — are byte-identical at every worker count.
func TestMetricsIdenticalAcrossParallelism(t *testing.T) {
	jobs := testBatch()
	for i := range jobs {
		jobs[i].Metrics = MetricsSpec{Enabled: true, FlightDump: true}
	}
	marshal := func(workers int) []byte {
		p := &Pool{Workers: workers}
		b, err := json.Marshal(p.Run(jobs))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := marshal(1)
	for _, workers := range []int{2, 4} {
		if par := marshal(workers); string(par) != string(serial) {
			t.Fatalf("metrics output differs between 1 and %d workers", workers)
		}
	}
}

// TestBreakdownSumsToReportedLatency ties the latency decomposition to the
// headline numbers: for each access class, the breakdown's component sum
// equals its Total, its Total equals the reported latency-distribution sum,
// and the sample counts match.
func TestBreakdownSumsToReportedLatency(t *testing.T) {
	for _, job := range testBatch() {
		job.Metrics = MetricsSpec{Enabled: true}
		res := RunJob(job, RunOptions{})
		if res.Failed() {
			t.Fatalf("%s: %s", job.Key, res.Err)
		}
		m := res.Metrics
		for _, cl := range []struct {
			name  string
			b     interface{ Sum() int64 }
			n     int64
			total int64
			dist  Dist
		}{
			{"read", m.Read, m.Read.N, m.Read.Total, res.Read},
			{"write", m.Write, m.Write.N, m.Write.Total, res.Write},
		} {
			if cl.b.Sum() != cl.total {
				t.Errorf("%s %s: components sum to %d, total is %d", job.Key, cl.name, cl.b.Sum(), cl.total)
			}
			if cl.total != int64(cl.dist.Sum) {
				t.Errorf("%s %s: breakdown total %d != reported latency sum %.0f", job.Key, cl.name, cl.total, cl.dist.Sum)
			}
			if cl.n != cl.dist.N {
				t.Errorf("%s %s: breakdown counted %d accesses, distribution %d", job.Key, cl.name, cl.n, cl.dist.N)
			}
		}
	}
}

// TestMetricsSpecChangesCacheIdentity: a metrics-enabled job must not be
// served a cached metrics-free result (and vice versa), since the payloads
// differ.
func TestMetricsSpecChangesCacheIdentity(t *testing.T) {
	a := testJob("fft", protocol.KindTree, 60)
	b := a
	b.Metrics = MetricsSpec{Enabled: true}
	if a.Hash() == b.Hash() {
		t.Fatal("metrics spec does not enter the job hash")
	}
	c := b
	c.Metrics.FlightDump = true
	if b.Hash() == c.Hash() {
		t.Fatal("flight-dump flag does not enter the job hash")
	}
}
