package sampling

import (
	"math"
	"math/rand"
	"testing"

	"mcbench/internal/workload"
)

// twoFamilies builds feature vectors for b benchmarks split into two
// clearly distinct behavioural families.
func twoFamilies(b int) [][]float64 {
	feats := make([][]float64, b)
	for i := range feats {
		if i < b/2 {
			feats[i] = []float64{0.1, 1.0, 0.0} // cache-friendly family
		} else {
			feats[i] = []float64{0.9, 0.1, 5.0} // memory-intensive family
		}
		// Small per-benchmark wiggle keeps points distinct.
		feats[i][0] += float64(i) * 1e-3
	}
	return feats
}

func TestBenchmarkClassesRecoverFamilies(t *testing.T) {
	const b = 8
	classes, err := BenchmarkClasses(rand.New(rand.NewSource(1)), twoFamilies(b), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != b {
		t.Fatalf("classes len %d", len(classes))
	}
	for i := 1; i < b/2; i++ {
		if classes[i] != classes[0] {
			t.Errorf("benchmark %d not with its family: %v", i, classes)
		}
	}
	for i := b/2 + 1; i < b; i++ {
		if classes[i] != classes[b/2] {
			t.Errorf("benchmark %d not with its family: %v", i, classes)
		}
	}
	if classes[0] == classes[b-1] {
		t.Errorf("families merged: %v", classes)
	}
}

func TestClusterBenchStrataSamplerValid(t *testing.T) {
	const b, k = 8, 2
	pop := workload.Enumerate(b, k)
	s, classes, err := NewClusterBenchStrata(rand.New(rand.NewSource(2)), pop, twoFamilies(b), 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "cluster-strata" {
		t.Errorf("Name = %q", s.Name())
	}
	if len(classes) != b {
		t.Fatalf("classes %v", classes)
	}
	// With 2 classes and 2 cores there are 3 strata (AA, AB, BB).
	if n := NumStrata(s); n != 3 {
		t.Errorf("strata = %d, want 3", n)
	}
	rng := rand.New(rand.NewSource(3))
	idx, weights := s.Draw(rng, 30, nil, nil)
	if len(idx) != len(weights) {
		t.Fatal("length mismatch")
	}
	sum := 0.0
	for i, w := range weights {
		if idx[i] < 0 || idx[i] >= pop.Size() {
			t.Fatalf("index %d out of population", idx[i])
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g", sum)
	}
}

func TestWorkloadFeaturesShape(t *testing.T) {
	const b, k = 6, 3
	pop := workload.Enumerate(b, k)
	feats := twoFamilies(b)
	wf, err := WorkloadFeatures(pop, feats)
	if err != nil {
		t.Fatal(err)
	}
	if len(wf) != pop.Size() {
		t.Fatalf("rows %d, want %d", len(wf), pop.Size())
	}
	dim := len(feats[0])
	for w, v := range wf {
		if len(v) != 2*dim {
			t.Fatalf("workload %d feature dim %d, want %d", w, len(v), 2*dim)
		}
		// Mean part must lie within [min, max] of member features; max
		// part must equal the member max.
		wl := pop.Workloads[w]
		for j := 0; j < dim; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, bench := range wl {
				x := feats[bench][j]
				lo = math.Min(lo, x)
				hi = math.Max(hi, x)
			}
			if v[j] < lo-1e-9 || v[j] > hi+1e-9 {
				t.Fatalf("workload %d mean feature %d = %g outside [%g,%g]", w, j, v[j], lo, hi)
			}
			if math.Abs(v[dim+j]-hi) > 1e-9 {
				t.Fatalf("workload %d max feature %d = %g, want %g", w, j, v[dim+j], hi)
			}
		}
	}
	// Order invariance is implied by the population being multisets, but
	// identical multisets must produce identical vectors.
	if pop.Size() > 1 {
		wf2, _ := WorkloadFeatures(pop, feats)
		for w := range wf {
			for j := range wf[w] {
				if wf[w][j] != wf2[w][j] {
					t.Fatal("WorkloadFeatures not deterministic")
				}
			}
		}
	}
}

func TestRepresentativeDraw(t *testing.T) {
	const b, k = 6, 2
	pop := workload.Enumerate(b, k)
	wf, err := WorkloadFeatures(pop, twoFamilies(b))
	if err != nil {
		t.Fatal(err)
	}
	s := NewRepresentative(wf, 30)
	if s.Name() != "workload-cluster" {
		t.Errorf("Name = %q", s.Name())
	}
	rng := rand.New(rand.NewSource(4))
	for _, w := range []int{1, 3, 5, 10} {
		idx, weights := s.Draw(rng, w, nil, nil)
		if len(idx) != w || len(weights) != w {
			t.Fatalf("Draw(%d) returned %d/%d", w, len(idx), len(weights))
		}
		sum := 0.0
		seen := map[int]bool{}
		for i, ix := range idx {
			if ix < 0 || ix >= pop.Size() {
				t.Fatalf("medoid index %d out of range", ix)
			}
			if seen[ix] {
				t.Errorf("Draw(%d): duplicate medoid %d", w, ix)
			}
			seen[ix] = true
			if weights[i] <= 0 {
				t.Errorf("medoid weight %g not positive", weights[i])
			}
			sum += weights[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("Draw(%d) weights sum %g", w, sum)
		}
	}
	// Requesting more representatives than workloads clips to the
	// population size.
	idx, _ := s.Draw(rng, pop.Size()+5, nil, nil)
	if len(idx) != pop.Size() {
		t.Errorf("oversized draw returned %d medoids", len(idx))
	}
}

// The representative estimator must be far more accurate than a single
// random workload when the population mean is dominated by cluster
// structure: estimate the mean of a value that depends only on the
// workload's family composition.
func TestRepresentativeEstimatesStructuredMean(t *testing.T) {
	const b, k = 8, 2
	pop := workload.Enumerate(b, k)
	feats := twoFamilies(b)
	wf, err := WorkloadFeatures(pop, feats)
	if err != nil {
		t.Fatal(err)
	}
	// Value of a workload: number of memory-intensive members (family 2).
	values := make([]float64, pop.Size())
	var popMean float64
	for w, wl := range pop.Workloads {
		for _, bench := range wl {
			if bench >= b/2 {
				values[w]++
			}
		}
		popMean += values[w]
	}
	popMean /= float64(pop.Size())

	s := NewRepresentative(wf, 30)
	rng := rand.New(rand.NewSource(5))
	idx, weights := s.Draw(rng, 3, nil, nil)
	est := 0.0
	for i, ix := range idx {
		est += weights[i] * values[ix]
	}
	if math.Abs(est-popMean) > 0.15 {
		t.Errorf("representative estimate %.3f vs population mean %.3f", est, popMean)
	}
}

func TestClusterAPIMisuse(t *testing.T) {
	pop := workload.Enumerate(4, 2)
	rng := rand.New(rand.NewSource(6))
	if _, err := BenchmarkClasses(rng, twoFamilies(4), 9); err == nil {
		t.Error("k > benchmarks accepted")
	}
	if _, _, err := NewClusterBenchStrata(rng, pop, twoFamilies(6), 2); err == nil {
		t.Error("feature/benchmark mismatch accepted")
	}
	if _, err := WorkloadFeatures(pop, twoFamilies(6)); err == nil {
		t.Error("feature/benchmark mismatch accepted")
	}
}
