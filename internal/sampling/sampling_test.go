package sampling

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mcbench/internal/stats"
	"mcbench/internal/workload"
)

// synthPopulation builds a synthetic d(w) vector over the full (B,K)
// population where d depends on workload composition: benchmarks below
// split have positive contributions, others negative, plus deterministic
// jitter. This mimics the heterogeneous policy-difference landscape.
func synthPopulation(b, k, split int, scale float64) (*workload.Population, []float64) {
	pop := workload.Enumerate(b, k)
	d := make([]float64, pop.Size())
	rng := rand.New(rand.NewSource(99))
	for i, w := range pop.Workloads {
		v := 0.0
		for _, bench := range w {
			if bench < split {
				v += scale
			} else {
				v -= scale / 4
			}
		}
		d[i] = v + rng.NormFloat64()*scale/10
	}
	return pop, d
}

func weightsSumToOne(t *testing.T, weights []float64) {
	t.Helper()
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %g, want 1", sum)
	}
}

func TestSimpleRandomDraw(t *testing.T) {
	s := NewSimpleRandom(100)
	rng := rand.New(rand.NewSource(1))
	idx, w := s.Draw(rng, 30, nil, nil)
	if len(idx) != 30 || len(w) != 30 {
		t.Fatalf("draw sizes %d/%d", len(idx), len(w))
	}
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
	}
	weightsSumToOne(t, w)
	if s.Name() != "random" {
		t.Errorf("name %q", s.Name())
	}
}

func TestBalancedRandomEqualOccurrences(t *testing.T) {
	pop := workload.Enumerate(8, 2)
	s := NewBalancedRandom(pop)
	rng := rand.New(rand.NewSource(2))
	// 8 benchmarks, K=2: a sample of 12 workloads has 24 slots -> every
	// benchmark must occur exactly 3 times.
	idx, w := s.Draw(rng, 12, nil, nil)
	weightsSumToOne(t, w)
	var ws []workload.Workload
	for _, i := range idx {
		ws = append(ws, pop.Workloads[i])
	}
	occ := workload.Occurrences(ws, 8)
	for bench, c := range occ {
		if c != 3 {
			t.Errorf("benchmark %d occurs %d times, want 3", bench, c)
		}
	}
}

func TestBalancedRandomUnevenSlots(t *testing.T) {
	pop := workload.Enumerate(5, 2)
	s := NewBalancedRandom(pop)
	rng := rand.New(rand.NewSource(3))
	// 7 workloads x 2 slots = 14 slots over 5 benchmarks: occurrences
	// must be 2 or 3 (as equal as possible).
	idx, _ := s.Draw(rng, 7, nil, nil)
	var ws []workload.Workload
	for _, i := range idx {
		ws = append(ws, pop.Workloads[i])
	}
	for bench, c := range workload.Occurrences(ws, 5) {
		if c < 2 || c > 3 {
			t.Errorf("benchmark %d occurs %d times, want 2 or 3", bench, c)
		}
	}
}

func TestBenchmarkStrataGrouping(t *testing.T) {
	pop := workload.Enumerate(4, 2)
	// Classes: benchmarks 0,1 -> class 0; 2,3 -> class 1.
	class := []int{0, 0, 1, 1}
	s := NewBenchmarkStrata(pop, class, 2)
	// Class-count signatures for K=2 over 2 classes: (2,0), (1,1), (0,2)
	// -> 3 strata.
	if got := NumStrata(s); got != 3 {
		t.Errorf("strata %d, want 3", got)
	}
	rng := rand.New(rand.NewSource(4))
	idx, w := s.Draw(rng, 9, nil, nil)
	if len(idx) != 9 {
		t.Fatalf("drew %d", len(idx))
	}
	weightsSumToOne(t, w)
}

func TestBenchmarkStrataCountMatchesPaperFormula(t *testing.T) {
	// For M=3 classes and K=4 cores the paper counts L = C(M+K-1,K) = 15
	// strata (assuming all signatures realisable, which holds for the
	// suite: every class has >= 4 benchmarks... classes need >= count).
	pop := workload.Enumerate(22, 4)
	// Table IV sizes: 11 low, 5 medium, 6 high.
	class := make([]int, 22)
	for i := range class {
		switch {
		case i < 11:
			class[i] = 0
		case i < 16:
			class[i] = 1
		default:
			class[i] = 2
		}
	}
	s := NewBenchmarkStrata(pop, class, 3)
	if got := NumStrata(s); got != 15 {
		t.Errorf("strata %d, want 15", got)
	}
}

func TestWorkloadStrataRespectsConfig(t *testing.T) {
	_, d := synthPopulation(10, 3, 5, 0.1)
	cfg := WorkloadStrataConfig{MinSize: 20, MaxStdDev: 0.01}
	s := NewWorkloadStrata(d, cfg)
	ns := NumStrata(s)
	if ns < 2 {
		t.Fatalf("only %d strata", ns)
	}
	if ns > len(d)/cfg.MinSize+1 {
		t.Fatalf("%d strata violates minimum size %d over %d workloads", ns, cfg.MinSize, len(d))
	}
}

func TestWorkloadStrataSingleStratumWhenHomogeneous(t *testing.T) {
	d := make([]float64, 500)
	for i := range d {
		d[i] = 1.0 // zero variance
	}
	s := NewWorkloadStrata(d, WorkloadStrataConfig{MinSize: 50, MaxStdDev: 0.001})
	if got := NumStrata(s); got != 1 {
		t.Errorf("homogeneous population split into %d strata", got)
	}
}

func TestStratifiedEstimatorUnbiased(t *testing.T) {
	// The weighted estimate must average to the population mean.
	_, d := synthPopulation(8, 2, 4, 0.2)
	popMean := stats.Mean(d)
	s := NewWorkloadStrata(d, WorkloadStrataConfig{MinSize: 5, MaxStdDev: 0.01})
	rng := rand.New(rand.NewSource(7))
	const trials = 4000
	sum := 0.0
	for i := 0; i < trials; i++ {
		idx, w := s.Draw(rng, 12, nil, nil)
		weightsSumToOne(t, w)
		for j, k := range idx {
			sum += w[j] * d[k]
		}
	}
	got := sum / trials
	if math.Abs(got-popMean) > math.Abs(popMean)*0.05+1e-6 {
		t.Errorf("stratified estimator mean %g, population mean %g", got, popMean)
	}
}

func TestEmpiricalConfidenceExtremes(t *testing.T) {
	pos := []float64{1, 2, 3, 4}
	neg := []float64{-1, -2, -3}
	rng := rand.New(rand.NewSource(8))
	if got := EmpiricalConfidence(rng, pos, NewSimpleRandom(len(pos)), 5, 200); got != 1 {
		t.Errorf("all-positive confidence %g, want 1", got)
	}
	if got := EmpiricalConfidence(rng, neg, NewSimpleRandom(len(neg)), 5, 200); got != 0 {
		t.Errorf("all-negative confidence %g, want 0", got)
	}
}

func TestEmpiricalMatchesModelForRandom(t *testing.T) {
	// On a large synthetic population, the empirical confidence of simple
	// random sampling must track the analytical model (Figure 3's match).
	_, d := synthPopulation(12, 3, 4, 0.05)
	rng := rand.New(rand.NewSource(9))
	s := NewSimpleRandom(len(d))
	for _, w := range []int{5, 10, 20, 40} {
		emp := EmpiricalConfidence(rng, d, s, w, 4000)
		model := ModelConfidence(d, w)
		if math.Abs(emp-model) > 0.05 {
			t.Errorf("W=%d: empirical %g vs model %g", w, emp, model)
		}
	}
}

func TestWorkloadStrataBeatsRandom(t *testing.T) {
	// The paper's headline result: at small sample sizes, workload
	// stratification reaches much higher confidence than simple random
	// sampling when the policy difference is subtle.
	_, d := synthPopulation(12, 3, 6, 0.02)
	// Make the mean small relative to spread so random sampling struggles.
	m := stats.Mean(d)
	for i := range d {
		d[i] -= m * 0.92
	}
	rng := rand.New(rand.NewSource(10))
	random := EmpiricalConfidence(rng, d, NewSimpleRandom(len(d)), 10, 3000)
	strata := EmpiricalConfidence(rng, d,
		NewWorkloadStrata(d, WorkloadStrataConfig{MinSize: 30, MaxStdDev: 0.001}), 10, 3000)
	if strata <= random {
		t.Errorf("workload stratification (%.3f) not above random (%.3f) at W=10", strata, random)
	}
	if strata < 0.9 {
		t.Errorf("workload stratification confidence %.3f, want >= 0.9", strata)
	}
}

func TestBalancedAtLeastAsGoodOnBalancedMetric(t *testing.T) {
	// Balanced sampling reduces variance when d depends on benchmark
	// occurrences, which is exactly how synthPopulation builds d.
	pop, d := synthPopulation(8, 2, 4, 0.05)
	m := stats.Mean(d)
	for i := range d {
		d[i] -= m * 0.9
	}
	rng := rand.New(rand.NewSource(11))
	random := EmpiricalConfidence(rng, d, NewSimpleRandom(len(d)), 8, 4000)
	balanced := EmpiricalConfidence(rng, d, NewBalancedRandom(pop), 8, 4000)
	if balanced < random-0.02 {
		t.Errorf("balanced (%.3f) clearly worse than random (%.3f)", balanced, random)
	}
}

func TestClassify(t *testing.T) {
	th := PaperThresholds()
	cases := []struct {
		mpki float64
		want Class
	}{
		{0, LowMPKI}, {0.99, LowMPKI}, {1, MediumMPKI}, {4.9, MediumMPKI},
		{5, HighMPKI}, {50, HighMPKI},
	}
	for _, c := range cases {
		if got := th.Classify(c.mpki); got != c.want {
			t.Errorf("Classify(%g) = %v, want %v", c.mpki, got, c.want)
		}
	}
	all := th.ClassifyAll([]float64{0.5, 2, 10})
	if all[0] != 0 || all[1] != 1 || all[2] != 2 {
		t.Errorf("ClassifyAll = %v", all)
	}
	if LowMPKI.String() != "Low" || MediumMPKI.String() != "Medium" || HighMPKI.String() != "High" {
		t.Error("class labels wrong")
	}
}

func TestModelConfidenceAndRequiredSize(t *testing.T) {
	d := []float64{1, 1.2, 0.8, 1.1, 0.9}
	cv := stats.CoefVar(d)
	if got, want := ModelConfidence(d, 10), stats.Confidence(cv, 10); got != want {
		t.Errorf("ModelConfidence = %g, want %g", got, want)
	}
	if got, want := RequiredSampleSize(d), stats.RequiredSampleSize(cv); got != want {
		t.Errorf("RequiredSampleSize = %d, want %d", got, want)
	}
}

// Property: every sampler returns indices in range and weights summing to
// one, for arbitrary sample sizes.
func TestSamplerContractsProperty(t *testing.T) {
	pop, d := synthPopulation(6, 2, 3, 0.1)
	class := []int{0, 0, 1, 1, 2, 2}
	samplers := []Sampler{
		NewSimpleRandom(pop.Size()),
		NewBalancedRandom(pop),
		NewBenchmarkStrata(pop, class, 3),
		NewWorkloadStrata(d, WorkloadStrataConfig{MinSize: 3, MaxStdDev: 0.01}),
	}
	f := func(seed int64, rawW uint8) bool {
		w := int(rawW)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		for _, s := range samplers {
			idx, weights := s.Draw(rng, w, nil, nil)
			if len(idx) != len(weights) || len(idx) == 0 {
				return false
			}
			sum := 0.0
			for i, j := range idx {
				if j < 0 || j >= pop.Size() {
					return false
				}
				sum += weights[i]
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
