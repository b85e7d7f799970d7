package multicore

import (
	"context"
	"testing"

	"mcbench/internal/cache"
)

// executedUops runs w exactly from reset under spec through the
// production driver and returns the µops its cores committed in all:
// the measured quotas plus the work every crossed thread keeps doing,
// restarted, until the last thread crosses.
func executedUops(t *testing.T, w Workload, spec Spec) uint64 {
	t.Helper()
	ctx := context.Background()
	cores, _, quota, err := build(ctx, w, spec, traces(t), models(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := measure(ctx, w, spec.Policy, cores, quota, drive); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, c := range cores {
		sum += c.Committed()
	}
	return sum
}

// TestExecutedWorkPinned pins the µops each engine executes over one
// exact four-core run. Every simulated cycle and every restarted thread
// counts, not only the measured quotas, so a kernel change that skips
// or repeats work changes these counts even where the IPCs happen to
// agree.
func TestExecutedWorkPinned(t *testing.T) {
	w := Workload{"mcf", "soplex", "gcc", "povray"}
	for _, tc := range []struct {
		engine Engine
		want   uint64
	}{
		{Detailed, 2841291},
		{BADCO, 3300486},
	} {
		if got := executedUops(t, w, Spec{Engine: tc.engine, Policy: cache.LRU}); got != tc.want {
			t.Errorf("%s %s: executed %d µops, want %d", tc.engine, w, got, tc.want)
		}
	}
}
