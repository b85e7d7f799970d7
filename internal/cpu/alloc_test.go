package cpu

import (
	"testing"

	"mcbench/internal/trace"
	"mcbench/internal/uncore"
)

// TestStepAllocationFree pins the core's per-µop hot path at zero
// steady-state allocations (recorder detached): the MSHR file is a fixed
// array, so the only allocations happen at construction and during
// warm-up growth of the shadow call stack.
func TestStepAllocationFree(t *testing.T) {
	traces := trace.GenerateSuite(5000)
	for _, bench := range []string{"mcf", "povray", "gcc"} {
		tr := traces[bench]
		unc := uncore.MustNew(uncore.ConfigFor(1, "LRU"))
		c := MustNew(0, DefaultConfig(), tr, unc)
		// Warm up: one full trace iteration grows the shadow RAS to
		// steady state.
		c.Run(tr.Len())
		if avg := testing.AllocsPerRun(2000, func() { c.Step() }); avg != 0 {
			t.Errorf("%s: steady-state Step allocates %.2f times per µop, want 0", bench, avg)
		}
	}
}

// TestFastForwardAllocationFree pins the functional-warming path at zero
// steady-state allocations: sampled simulation fast-forwards billions of
// µops through it, so it must be as clean as Step.
func TestFastForwardAllocationFree(t *testing.T) {
	traces := trace.GenerateSuite(5000)
	for _, bench := range []string{"mcf", "povray", "gcc"} {
		tr := traces[bench]
		unc := uncore.MustNew(uncore.ConfigFor(1, "LRU"))
		c := MustNew(0, DefaultConfig(), tr, unc)
		// One full iteration grows the shadow RAS to steady state.
		c.FastForward(uint64(tr.Len()))
		if avg := testing.AllocsPerRun(2000, func() { c.FastForward(1) }); avg != 0 {
			t.Errorf("%s: steady-state FastForward allocates %.2f times per µop, want 0", bench, avg)
		}
	}
}
