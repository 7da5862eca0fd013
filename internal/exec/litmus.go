package exec

import (
	"context"

	"innetcc/internal/litmus"
)

// LitmusResult is one litmus run's outcome in a batch: the spec that ran,
// the oracle failures it tripped (empty = passed), and Err for specs that
// could not run at all (malformed program, bad fault string).
type LitmusResult struct {
	Spec     litmus.RunSpec   `json:"spec"`
	Failures []litmus.Failure `json:"failures,omitempty"`
	Err      string           `json:"err,omitempty"`
}

// Failed reports whether the run found anything.
func (r LitmusResult) Failed() bool { return r.Err != "" || len(r.Failures) > 0 }

// RunLitmusBatch fans a litmus campaign across worker goroutines with
// forEach, as Pool.Run does: results come back in submission order
// regardless of parallelism, so campaign output is identical at every
// worker count. workers <= 0 means GOMAXPROCS. A canceled context marks the
// remaining specs with Err and returns without running them; litmus runs
// are short, so in-flight ones simply finish.
func RunLitmusBatch(ctx context.Context, workers int, specs []litmus.RunSpec) []LitmusResult {
	results := make([]LitmusResult, len(specs))
	forEach(workers, len(specs), func(i int) {
		results[i].Spec = specs[i]
		if err := ctx.Err(); err != nil {
			results[i].Err = "exec: canceled: " + err.Error()
			return
		}
		fails, err := litmus.Run(specs[i])
		if err != nil {
			results[i].Err = err.Error()
			return
		}
		results[i].Failures = fails
	})
	return results
}
