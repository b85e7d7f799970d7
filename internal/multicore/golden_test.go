package multicore

import (
	"context"
	"math"
	"testing"

	"mcbench/internal/cache"
)

// The golden determinism tests prove the batched driver's central claim:
// dispatching the minimum-clock core in batches (StepUntil up to the
// runner-up's clock) produces the exact schedule of the per-step
// reference driver, so every simulation result is bit-identical.

// driveReference is the per-step executable specification of the
// schedule: among the cores that have not reached their cap, Step the
// one with the smallest local clock (the lowest index on ties) once,
// record target crossings, and repeat until every core has crossed.
// A crossed core keeps running until its cap (with cap = never it is
// restarted, as in the paper). It ignores the context.
func driveReference(_ context.Context, cores []stepper, target, cap, cross []uint64) error {
	reached := make([]bool, len(cores))
	for {
		m, remaining := -1, false
		for i, c := range cores {
			if !reached[i] && c.Committed() >= target[i] {
				reached[i] = true
				cross[i] = c.Now()
			}
			remaining = remaining || !reached[i]
			if c.Committed() < cap[i] && (m < 0 || c.Now() < cores[m].Now()) {
				m = i
			}
		}
		if !remaining {
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
// reference driver and demands the same bits.
func assertMatchesReference(t *testing.T, w Workload, spec Spec) {
	t.Helper()
	trs, mods := traces(t), models(t)
	batched, err := Run(context.Background(), w, spec, trs, mods)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := run(context.Background(), w, spec, trs, mods, driveReference)
	if err != nil {
		t.Fatal(err)
	}
	name := spec.Engine.String() + " " + string(spec.Policy) + " " + w.String()
	assertBitIdentical(t, name, batched, ref)
	if !spec.Sampling.Enabled() {
		return
	}
	if got, want := formatSampled(batched, spec.Sampling), formatSampled(ref, spec.Sampling); got != want {
		t.Errorf("%s %s: sampled run diverged from the reference:\n--- batched ---\n%s--- reference ---\n%s", name, spec.Sampling, got, want)
	}
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

// TestGoldenWarmupMatchesReferenceSchedule pins the batched two-stage
// run to a fully per-step one: per-step warmup boundary, per-step
// measurement.
func TestGoldenWarmupMatchesReferenceSchedule(t *testing.T) {
	assertMatchesReference(t, Workload{"mcf", "gcc"}, Spec{Engine: Detailed, Policy: cache.LRU, Warmup: 2500, Quota: 4000})
}

// TestGoldenSampledMatchesReference pins the sampled protocol — the
// calibration prologue, the per-window warmup boundaries and the
// overshooting measured windows — to the per-step reference, on the solo
// path, a pair and a four-core mix, with the whole gap warmed and with a
// bounded warming stretch.
func TestGoldenSampledMatchesReference(t *testing.T) {
	for _, w := range []Workload{
		{"hmmer"},
		{"mcf", "povray"},
		{"mcf", "soplex", "gcc", "libquantum"},
	} {
		for _, s := range []SamplingSpec{
			{Unit: 4000, Window: 1000, Warmup: 500},
			{Unit: 5000, Window: 1000, Warmup: 1000, Warm: 1500},
		} {
			assertMatchesReference(t, w, Spec{Engine: Detailed, Policy: cache.LRU, Sampling: s})
		}
	}
}
