package multicore

import (
	"context"
	"math/rand"
	"testing"

	"mcbench/internal/cache"
)

// The checkpoint golden tests prove the snapshot layer's central claim:
// a warmup checkpoint restored — into fresh machines or over dirty ones —
// measures bit-identically to the live two-stage run, and a
// shared-warmup policy fan-out reproduces exactly the sequential
// warm-then-swap reference.

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
	r, err := DetailedFrom(ctx, cp, traces(t), pol, quota)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGoldenCheckpointResumeDetailed takes warmup checkpoints at
// randomized boundaries and resumes each into fresh machines.
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
// measurement driver behind a restore.
func TestGoldenCheckpointResumeSingleCore(t *testing.T) {
	w := Workload{"hmmer"}
	for _, warmup := range []uint64{700, 5500} {
		assertBitIdentical(t, "solo resumed", resume(t, w, cache.LRU, cache.LRU, warmup, 6000), warmed(t, w, cache.LRU, warmup, 6000))
	}
}

// TestGoldenCheckpointRestoreModes restores warmup checkpoints three
// ways — into fresh machines measured by the batched driver, through a
// checkpoint taken and measured by the per-step reference driver, and
// over machines dirtied by unrelated progress — and demands the same bits
// from all of them.
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

	// Fresh machines, batched continuation (the DetailedFrom path).
	fresh, err := DetailedFrom(ctx, cp, trs, cache.LRU, quota)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "fresh restore", fresh, want)

	// The whole restored protocol under the per-step reference.
	refCP, err := detailedWarmup(ctx, w, trs, cache.LRU, warmup, driveReference)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := detailedFrom(ctx, refCP, trs, cache.LRU, quota, driveReference)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "reference restore", ref, want)

	// Restore over machines advanced to an unrelated point first.
	unc, cores, _, err := buildDetailed(ctx, w, trs, cache.LRU, quota)
	if err != nil {
		t.Fatal(err)
	}
	if err := warm(ctx, drive, asSteppers(cores), 1234); err != nil {
		t.Fatal(err)
	}
	if err := cp.restore(unc, cores, cache.LRU); err != nil {
		t.Fatal(err)
	}
	dirty, err := measure(ctx, w, cache.LRU, asSteppers(cores), quota, drive)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, "dirty restore", dirty, want)
}

// TestGoldenWarmupSnapshotRestore pins warmup + restore + measure to the
// live two-stage run across policies with RNG-bearing replacement state.
func TestGoldenWarmupSnapshotRestore(t *testing.T) {
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
// base policy and swaps the LLC policy in place, with no snapshot and no
// restore.
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
		swept, err := DetailedFrom(ctx, cp, trs, pol, quota)
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
