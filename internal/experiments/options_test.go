package experiments

import (
	"strings"
	"testing"
)

func TestOptionsWithDefaults(t *testing.T) {
	got := Options{}.WithDefaults()
	if got.AccessesPerNode != 400 || got.AccessesPerNode64 != 120 || got.Seed != 42 {
		t.Fatalf("zero options default to %d/%d seed %d, want 400/120 seed 42",
			got.AccessesPerNode, got.AccessesPerNode64, got.Seed)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	set := Options{AccessesPerNode: 7, AccessesPerNode64: 3, Seed: 9}.WithDefaults()
	if set.AccessesPerNode != 7 || set.AccessesPerNode64 != 3 || set.Seed != 9 {
		t.Fatalf("set fields overwritten: %+v", set)
	}
	if neg := (Options{AccessesPerNode: -1}).WithDefaults(); neg.AccessesPerNode != -1 {
		t.Fatalf("negative AccessesPerNode defaulted to %d; Validate must see it", neg.AccessesPerNode)
	}
}

func TestOptionsValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"negative accesses", Options{AccessesPerNode: -1}.WithDefaults(),
			"AccessesPerNode must be positive, got -1"},
		{"negative 64-node accesses", Options{AccessesPerNode64: -5}.WithDefaults(),
			"AccessesPerNode64 must be positive, got -5"},
		{"zero seed", Options{AccessesPerNode: 1, AccessesPerNode64: 1},
			"Seed must be non-zero"},
		{"flight dump without metrics", Options{FlightDump: true}.WithDefaults(),
			"FlightDump requires Metrics"},
		{"negative watchdog", Options{Watchdog: -1}.WithDefaults(),
			"Watchdog must be non-negative, got -1"},
		{"negative retries", Options{Retries: -2}.WithDefaults(),
			"Retries must be non-negative, got -2"},
		{"malformed faults", Options{Faults: "drop=lots"}.WithDefaults(),
			"experiments: fault: bad drop"},
		{"malformed topology", Options{Topology: "hypercube:4"}.WithDefaults(),
			`experiments: network: unknown topology kind "hypercube"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if err == nil {
				t.Fatalf("accepted %+v", tc.opts)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
