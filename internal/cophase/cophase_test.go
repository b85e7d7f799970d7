package cophase

import (
	"context"
	"testing"

	"mcbench/internal/cache"
	"mcbench/internal/multicore"
	"mcbench/internal/trace"
)

// tinySuite builds two small but behaviourally distinct benchmarks.
func tinySuite(n int) map[string]*trace.Trace {
	mk := func(name string, seed int64, patterns []trace.PatternSpec) *trace.Trace {
		return trace.MustGenerate(trace.Params{
			Name:        name,
			LoadFrac:    0.3,
			StoreFrac:   0.1,
			BranchFrac:  0.1,
			FPFrac:      0.05,
			DepMean:     8,
			LoadDepFrac: 0.4,
			BranchBias:  0.92,
			CodeBytes:   8 << 10,
			Patterns:    patterns,
			Seed:        seed,
		}, n)
	}
	return map[string]*trace.Trace{
		"cachey": mk("cachey", 11, []trace.PatternSpec{
			{Kind: trace.HotSet, Bytes: 24 << 10, Weight: 1},
		}),
		"streamy": mk("streamy", 12, []trace.PatternSpec{
			{Kind: trace.Stream, Weight: 1},
			{Kind: trace.HotSet, Bytes: 8 << 10, Weight: 0.3},
		}),
	}
}

func TestNewValidation(t *testing.T) {
	traces := tinySuite(4000)
	if _, err := New(nil, traces, DefaultConfig(cache.LRU)); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := New([]string{"missing"}, traces, DefaultConfig(cache.LRU)); err == nil {
		t.Error("unknown benchmark accepted")
	}
	cfg := DefaultConfig(cache.LRU)
	cfg.Phases = 0
	if _, err := New([]string{"cachey"}, traces, cfg); err == nil {
		t.Error("zero phases accepted")
	}
	cfg = DefaultConfig(cache.LRU)
	cfg.SampleOps = 0
	if _, err := New([]string{"cachey"}, traces, cfg); err == nil {
		t.Error("zero sample budget accepted")
	}
}

func TestRunCompletesAndReusesMatrix(t *testing.T) {
	traces := tinySuite(8000)
	cfg := Config{Phases: 8, SampleOps: 250, Policy: cache.LRU}
	s, err := New([]string{"cachey", "streamy"}, traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	quota := uint64(traces["cachey"].Len())
	res, err := s.Run(quota)
	if err != nil {
		t.Fatal(err)
	}
	for k, ipc := range res.IPC {
		if ipc <= 0 || ipc > 4 {
			t.Fatalf("core %d IPC %.3f out of range", k, ipc)
		}
		if res.Cycles[k] == 0 {
			t.Fatalf("core %d quota cycle zero", k)
		}
	}
	// The matrix must stay within the phase-combination space.
	if res.MatrixEntries == 0 {
		t.Fatal("no matrix entries measured")
	}
	if res.MatrixEntries > cfg.Phases*cfg.Phases {
		t.Fatalf("matrix has %d entries, more than the %d-entry space", res.MatrixEntries, cfg.Phases*cfg.Phases)
	}

	// A longer run revisits co-phases: entries must be reused (the count
	// stays within the space) and the amortised detailed-simulation cost
	// must fall well below simulating everything outright.
	res2, err := s.Run(quota * 4)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MatrixEntries > cfg.Phases*cfg.Phases {
		t.Fatalf("matrix did not bound: %d entries", res2.MatrixEntries)
	}
	direct := (quota + quota*4) * 2 // both runs, both threads
	if res2.SimulatedOps >= direct/2 {
		t.Fatalf("co-phase cost %d ops not clearly below direct cost %d", res2.SimulatedOps, direct)
	}
}

// The co-phase prediction must agree qualitatively with a direct detailed
// simulation: per-thread IPCs within a modest relative error.
func TestCophaseTracksDetailedSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed reference simulation")
	}
	traces := tinySuite(12000)
	w := multicore.Workload{"cachey", "streamy"}
	quota := uint64(12000)

	ref, err := multicore.Run(context.Background(), w, multicore.Spec{Engine: multicore.Detailed, Policy: cache.LRU, Quota: quota}, multicore.TraceMap(traces), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New([]string(w), traces, Config{Phases: 10, SampleOps: 600, WarmOps: 2400, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := s.Run(quota)
	if err != nil {
		t.Fatal(err)
	}
	for k := range ref.IPC {
		relErr := (pred.IPC[k] - ref.IPC[k]) / ref.IPC[k]
		if relErr < 0 {
			relErr = -relErr
		}
		// Two opposing biases bound the band: the matrix entries are
		// measured warm (estimating steady state) while the one-pass
		// detailed reference pays its cold start across the whole quota.
		if relErr > 0.30 {
			t.Errorf("core %d: co-phase IPC %.3f vs detailed %.3f (err %.1f%%)",
				k, pred.IPC[k], ref.IPC[k], relErr*100)
		}
	}
	// And the ranking of the two threads must match.
	if (pred.IPC[0] > pred.IPC[1]) != (ref.IPC[0] > ref.IPC[1]) {
		t.Errorf("co-phase inverted the thread ranking: pred %v vs ref %v", pred.IPC, ref.IPC)
	}
}

func TestRunZeroQuota(t *testing.T) {
	traces := tinySuite(4000)
	s, err := New([]string{"cachey"}, traces, Config{Phases: 4, SampleOps: 200, Policy: cache.LRU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err == nil {
		t.Error("zero quota accepted")
	}
}

func TestSingleThreadDegenerate(t *testing.T) {
	traces := tinySuite(6000)
	s, err := New([]string{"cachey"}, traces, Config{Phases: 6, SampleOps: 400, Policy: cache.DRRIP})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(6000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 1 || res.IPC[0] <= 0 {
		t.Fatalf("bad single-thread result: %+v", res)
	}
	// Single thread: at most Phases distinct co-phases exist.
	if res.MatrixEntries > 6 {
		t.Errorf("matrix %d entries for 6 phases", res.MatrixEntries)
	}
}
