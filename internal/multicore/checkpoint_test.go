package multicore

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"mcbench/internal/cache"
)

// The checkpoint golden tests prove the clone protocol's central claim:
// a clone of a warmup checkpoint measures bit-identically to the live
// two-stage run, however the checkpoint's other clones are used, and a
// shared-warmup policy fan-out — sequential or concurrent — reproduces
// exactly the sequential warm-then-swap reference.

// warmed is the live two-stage detailed run the checkpoints must match.
func warmed(t *testing.T, w Workload, pol cache.PolicyName, warmup, quota uint64) Result {
	t.Helper()
	r, err := Run(context.Background(), w, Spec{Engine: Detailed, Policy: pol, Warmup: warmup, Quota: quota}, traces(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// resume takes a warmup checkpoint and measures from it under pol.
func resume(t *testing.T, w Workload, warmPol, pol cache.PolicyName, warmup, quota uint64) Result {
	t.Helper()
	ctx := context.Background()
	cp, err := DetailedWarmup(ctx, w, traces(t), warmPol, warmup)
	if err != nil {
		t.Fatal(err)
	}
	r, err := DetailedFrom(ctx, cp, pol, quota)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGoldenCheckpointResumeDetailed takes warmup checkpoints at
// randomized boundaries and measures a clone of each.
func TestGoldenCheckpointResumeDetailed(t *testing.T) {
	w := Workload{"mcf", "soplex"}
	const quota = 6000
	rng := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 3; trial++ {
		warmup := uint64(400 + rng.Intn(quota-400))
		assertBitIdentical(t, "resumed", resume(t, w, cache.DRRIP, cache.DRRIP, warmup, quota), warmed(t, w, cache.DRRIP, warmup, quota))
	}
}

// TestGoldenCheckpointResumeSingleCore pins the solo path of the
// measurement driver behind a clone.
func TestGoldenCheckpointResumeSingleCore(t *testing.T) {
	w := Workload{"hmmer"}
	for _, warmup := range []uint64{700, 5500} {
		assertBitIdentical(t, "solo resumed", resume(t, w, cache.LRU, cache.LRU, warmup, 6000), warmed(t, w, cache.LRU, warmup, 6000))
	}
}

// TestGoldenCheckpointRestoreModes measures clones of a warmup
// checkpoint two ways — by the batched driver, after another clone of
// the same checkpoint has been advanced to an unrelated point, and
// through a checkpoint taken and measured by the per-step reference
// driver — and demands the same bits from all of them.
func TestGoldenCheckpointRestoreModes(t *testing.T) {
	trs := traces(t)
	ctx := context.Background()
	w := Workload{"mcf", "povray"}
	const warmup, quota = 3000, 5000
	want := warmed(t, w, cache.LRU, warmup, quota)
	cp, err := DetailedWarmup(ctx, w, trs, cache.LRU, warmup)
	if err != nil {
		t.Fatal(err)
	}

	// A second clone advanced by unrelated progress leaves the
	// checkpoint, and so the measured clone, untouched.
	_, cores := cp.clone()
	if err := warm(ctx, drive, asSteppers(cores), warmup+1234); err != nil {
		t.Fatal(err)
	}
	batched, err := DetailedFrom(ctx, cp, cache.LRU, quota)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "clone", batched, want)

	// The whole cloned protocol under the per-step reference.
	refCP, err := detailedWarmup(ctx, w, trs, cache.LRU, warmup, driveReference)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := detailedFrom(ctx, refCP, cache.LRU, quota, driveReference)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "reference clone", ref, want)
}

// TestGoldenCheckpointConcurrentFanOut has several goroutines measure
// every case-study policy from one checkpoint at once; each result must
// match the sequential fan-out bit for bit. Under the race detector it
// also proves that cloning only reads the checkpoint.
func TestGoldenCheckpointConcurrentFanOut(t *testing.T) {
	ctx := context.Background()
	w := Workload{"soplex", "povray"}
	const warmup, quota, rounds = 2000, 3000, 2
	cp, err := DetailedWarmup(ctx, w, traces(t), cache.LRU, warmup)
	if err != nil {
		t.Fatal(err)
	}
	pols := cache.PaperPolicies()
	want := make([]Result, len(pols))
	for i, pol := range pols {
		if want[i], err = DetailedFrom(ctx, cp, pol, quota); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]Result, rounds*len(pols))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = DetailedFrom(ctx, cp, pols[i%len(pols)], quota)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertBitIdentical(t, "concurrent "+string(pols[i%len(pols)]), got[i], want[i%len(pols)])
	}
}

// TestGoldenWarmupClone pins warmup + clone + measure to the live
// two-stage run across policies with RNG-bearing replacement state.
func TestGoldenWarmupClone(t *testing.T) {
	w := Workload{"soplex", "hmmer"}
	const warmup, quota = 3000, 5000
	for _, pol := range []cache.PolicyName{cache.LRU, cache.DRRIP, cache.Random, cache.DIP} {
		assertBitIdentical(t, "detailed warmup "+string(pol), resume(t, w, pol, pol, warmup, quota), warmed(t, w, pol, warmup, quota))
	}
}

// TestGoldenWarmupMatchesReferenceSchedule pins the batched two-stage
// run to a fully per-step one: per-step warmup boundary, per-step
// measurement.
func TestGoldenWarmupMatchesReferenceSchedule(t *testing.T) {
	assertMatchesReference(t, Workload{"mcf", "gcc"}, Spec{Engine: Detailed, Policy: cache.LRU, Warmup: 2500, Quota: 4000})
}

// TestGoldenSharedWarmupPolicySweep pins the lab's shared-warmup fan-out
// — one DetailedWarmup under the base policy, then DetailedFrom per
// policy — to a sequential reference that warms live machines under the
// base policy and swaps the LLC policy in place, with no clone.
func TestGoldenSharedWarmupPolicySweep(t *testing.T) {
	trs := traces(t)
	ctx := context.Background()
	w := Workload{"mcf", "soplex"}
	const warmup, quota = 3000, 4000
	policies := cache.PaperPolicies()

	cp, err := DetailedWarmup(ctx, w, trs, policies[0], warmup)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range policies {
		swept, err := DetailedFrom(ctx, cp, pol, quota)
		if err != nil {
			t.Fatal(err)
		}
		unc, cores, _, err := buildDetailed(ctx, w, trs, policies[0], quota)
		if err != nil {
			t.Fatal(err)
		}
		steppers := asSteppers(cores)
		if err := warm(ctx, drive, steppers, warmup); err != nil {
			t.Fatal(err)
		}
		if pol != policies[0] {
			if err := unc.SetPolicy(pol, unc.Config().PolicySeed); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := measure(ctx, w, pol, steppers, quota, drive)
		if err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, "shared sweep "+string(pol), swept, ref)
	}
}
