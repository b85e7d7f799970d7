package multicore

import (
	"context"
	"math"
	"testing"

	"mcbench/internal/cache"
)

// The golden determinism tests prove the batched drivers' central claim:
// dispatching the minimum-clock core in batches (StepUntil up to the
// runner-up's clock) produces the exact schedule of the per-step
// reference drivers, so every simulation result is bit-identical.

// reference is the per-step executable specification of the schedule.
var reference = schedule{runToBoundaryReference, runInterleavedReference}

// runInterleavedReference is the per-step measurement driver: pick the
// core with the smallest local clock, step it one µop, record target
// crossings, repeat. Cores that crossed keep running (restarted) until
// all have, as in the paper, so they stay in the pick set. It ignores
// the context.
func runInterleavedReference(_ context.Context, cores []stepper, targets []uint64) ([]uint64, error) {
	n := len(cores)
	cross := make([]uint64, n)
	reached := make([]bool, n)
	for remaining := n; remaining > 0; {
		min := 0
		for i := 1; i < n; i++ {
			if cores[i].Now() < cores[min].Now() {
				min = i
			}
		}
		c := cores[min]
		c.Step()
		if !reached[min] && c.Committed() >= targets[min] {
			reached[min] = true
			cross[min] = c.Now()
			remaining--
		}
	}
	return cross, nil
}

// runToBoundaryReference is the per-step warmup driver: step the
// smallest-clock core that has not yet committed boundary µops.
func runToBoundaryReference(_ context.Context, cores []stepper, boundary uint64) error {
	for {
		m := -1
		for i, c := range cores {
			if c.Committed() >= boundary {
				continue
			}
			if m < 0 || c.Now() < cores[m].Now() {
				m = i
			}
		}
		if m < 0 {
			return nil
		}
		cores[m].Step()
	}
}

// assertBitIdentical fails unless the two results match bit for bit.
func assertBitIdentical(t *testing.T, name string, batched, reference Result) {
	t.Helper()
	if len(batched.IPC) != len(reference.IPC) || len(batched.Cycles) != len(reference.Cycles) {
		t.Fatalf("%s: shape mismatch: %d/%d IPCs, %d/%d cycles", name,
			len(batched.IPC), len(reference.IPC), len(batched.Cycles), len(reference.Cycles))
	}
	if batched.Instructions != reference.Instructions {
		t.Errorf("%s: quota %d, reference %d", name, batched.Instructions, reference.Instructions)
	}
	for i := range batched.IPC {
		if batched.Cycles[i] != reference.Cycles[i] {
			t.Errorf("%s: core %d quota cycle %d, reference %d", name, i, batched.Cycles[i], reference.Cycles[i])
		}
		if math.Float64bits(batched.IPC[i]) != math.Float64bits(reference.IPC[i]) {
			t.Errorf("%s: core %d IPC %v (bits %x), reference %v (bits %x)", name, i,
				batched.IPC[i], math.Float64bits(batched.IPC[i]),
				reference.IPC[i], math.Float64bits(reference.IPC[i]))
		}
	}
}

// assertMatchesReference runs the spec under the batched and the
// reference schedule and demands the same bits.
func assertMatchesReference(t *testing.T, w Workload, spec Spec) {
	t.Helper()
	trs, mods := traces(t), models(t)
	batched, err := Run(context.Background(), w, spec, trs, mods)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := run(context.Background(), w, spec, trs, mods, reference)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, spec.Engine.String()+" "+string(spec.Policy)+" "+w.String(), batched, ref)
}

func TestGoldenDetailedMatchesReference(t *testing.T) {
	for _, w := range []Workload{
		{"mcf", "povray"},
		{"mcf", "soplex", "gcc", "libquantum"},
	} {
		assertMatchesReference(t, w, Spec{Engine: Detailed, Policy: cache.LRU})
	}
}

// TestGoldenApproximateMatchesReference covers BADCO from reset and after
// a warmup (a BADCO machine halts at its first node boundary at or
// beyond it, and the measurement starts from there).
func TestGoldenApproximateMatchesReference(t *testing.T) {
	for _, w := range []Workload{
		{"mcf", "povray"},
		{"mcf", "soplex", "gcc", "libquantum"},
	} {
		assertMatchesReference(t, w, Spec{Engine: BADCO, Policy: cache.LRU})
		assertMatchesReference(t, w, Spec{Engine: BADCO, Policy: cache.DRRIP, Warmup: 3000})
	}
}

// TestGoldenAcrossPolicies widens the equivalence check to a policy with
// random replacement (seeded) and a non-trivial quota, exercising the
// quota-capped batch path.
func TestGoldenAcrossPolicies(t *testing.T) {
	for _, pol := range []cache.PolicyName{cache.DRRIP, cache.Random} {
		assertMatchesReference(t, Workload{"soplex", "hmmer"}, Spec{Engine: Detailed, Policy: pol, Quota: 7500})
	}
}

// TestGoldenSingleCore pins the solo path of the batched driver to the
// reference schedule.
func TestGoldenSingleCore(t *testing.T) {
	assertMatchesReference(t, Workload{"hmmer"}, Spec{Engine: Detailed, Policy: cache.LRU, Quota: 5000})
	assertMatchesReference(t, Workload{"hmmer"}, Spec{Engine: Detailed, Policy: cache.LRU, Quota: 5000, Warmup: 2000})
}
