package multicore

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mcbench/internal/cache"
)

// TestDetailedCancelMidRun proves a single long simulation aborts
// promptly on cancellation instead of running to its quota, under every
// protocol phase it can be cancelled in: an exact run, the warmup stage
// and the measurement stage of a warmed run — for both engines, on the
// solo path (one core) and the batched multi-core path — and the
// fast-forward of a sampled run's single long unit (detailed only).
func TestDetailedCancelMidRun(t *testing.T) {
	trs, mods := traces(t), models(t)
	// A quota far beyond the trace length: uncancelled, a run would
	// re-run the trace thousands of times.
	const long = uint64(testLen) * 5000
	for _, engine := range []Engine{Detailed, BADCO} {
		for _, w := range []Workload{{"mcf"}, {"mcf", "soplex"}} {
			for _, phase := range []struct {
				name string
				spec Spec
			}{
				{"exact", Spec{Quota: long}},
				{"warm", Spec{Warmup: long, Quota: long}},
				{"measure", Spec{Warmup: 1000, Quota: long}},
				{"sampled", Spec{Quota: long, Sampling: SamplingSpec{Unit: long, Window: 1000, Warmup: 1000}}},
			} {
				spec := phase.spec
				if engine == BADCO && spec.Sampling.Enabled() {
					continue
				}
				spec.Engine, spec.Policy = engine, cache.LRU
				name := fmt.Sprintf("%s/%s/%s", engine, w, phase.name)
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(30*time.Millisecond, cancel)
				start := time.Now()
				_, err := Run(ctx, w, spec, trs, mods)
				elapsed := time.Since(start)
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: error = %v, want context.Canceled", name, err)
				}
				if elapsed > time.Second {
					t.Errorf("%s: cancellation took %v", name, elapsed)
				}
			}
		}
	}
}

// TestSweepDetailedCancel: cancelling mid-sweep returns promptly, stops
// dispatching, and leaks no goroutines.
func TestSweepDetailedCancel(t *testing.T) {
	trs := traces(t)
	var ws []Workload
	for i := 0; i < 64; i++ {
		ws = append(ws, Workload{"mcf", "soplex"})
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if _, err := Sweep(ctx, ws, Spec{Engine: Detailed, Policy: cache.LRU}, trs, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > baseline+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline+2 {
		t.Errorf("goroutines did not drain: %d, baseline %d", g, baseline)
	}
}

// TestRunBoundedPreCancelled: a dead context dispatches nothing.
func TestRunBoundedPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := RunBounded(ctx, 8, func(int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v", err)
	}
	if ran {
		t.Error("fn ran under a pre-cancelled context")
	}
}
