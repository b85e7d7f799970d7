package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPopulationSizeMatchesPaper(t *testing.T) {
	// The paper's counts for 22 benchmarks: 253 workloads for 2 cores,
	// 12650 for 4 cores.
	if got, ok := PopulationSize(22, 2); got != 253 || !ok {
		t.Errorf("PopulationSize(22,2) = %d,%v, want 253", got, ok)
	}
	if got, ok := PopulationSize(22, 4); got != 12650 || !ok {
		t.Errorf("PopulationSize(22,4) = %d,%v, want 12650", got, ok)
	}
	// 8 cores: C(29,8) = 4292145 (too large to simulate, hence sampling).
	if got, ok := PopulationSize(22, 8); got != 4292145 || !ok {
		t.Errorf("PopulationSize(22,8) = %d,%v, want 4292145", got, ok)
	}
	if got, ok := PopulationSize(0, 2); got != 0 || !ok {
		t.Errorf("PopulationSize(0,2) = %d,%v", got, ok)
	}
	if got, ok := PopulationSize(5, 1); got != 5 || !ok {
		t.Errorf("PopulationSize(5,1) = %d,%v", got, ok)
	}
}

func TestEnumerateSmall(t *testing.T) {
	p := Enumerate(3, 2)
	want := []string{"0,0", "0,1", "0,2", "1,1", "1,2", "2,2"}
	if p.Size() != len(want) {
		t.Fatalf("size %d, want %d", p.Size(), len(want))
	}
	for i, w := range p.Workloads {
		if w.Key() != want[i] {
			t.Errorf("workload %d = %s, want %s", i, w.Key(), want[i])
		}
	}
}

func TestEnumerateMatchesPopulationSize(t *testing.T) {
	for _, c := range []struct{ b, k int }{{22, 2}, {10, 3}, {5, 4}, {22, 4}} {
		p := Enumerate(c.b, c.k)
		if size, ok := PopulationSize(c.b, c.k); uint64(p.Size()) != size || !ok {
			t.Errorf("Enumerate(%d,%d) size %d != %d (ok=%v)", c.b, c.k, p.Size(), size, ok)
		}
	}
}

func TestWorkloadsSortedAndUnique(t *testing.T) {
	p := Enumerate(6, 3)
	seen := map[string]bool{}
	for _, w := range p.Workloads {
		for i := 1; i < len(w); i++ {
			if w[i] < w[i-1] {
				t.Fatalf("workload %v not sorted", w)
			}
		}
		if seen[w.Key()] {
			t.Fatalf("duplicate workload %v", w)
		}
		seen[w.Key()] = true
	}
}

func TestIndexOf(t *testing.T) {
	p := Enumerate(5, 3)
	for i, w := range p.Workloads {
		if got := p.IndexOf(w); got != i {
			t.Fatalf("IndexOf(%v) = %d, want %d", w, got, i)
		}
	}
	// Unsorted query must still resolve.
	if got := p.IndexOf(Workload{3, 1, 2}); got < 0 {
		t.Error("IndexOf failed on unsorted workload")
	}
	if got := p.IndexOf(Workload{0, 0, 9}); got != -1 {
		t.Errorf("IndexOf(out of range) = %d, want -1", got)
	}
}

func TestRankUnrankRoundTrip(t *testing.T) {
	const b, k = 22, 4
	p := Enumerate(b, k)
	r := newRanker(b, k)
	for i, w := range p.Workloads {
		if got := r.index(w); got != i {
			t.Fatalf("rank of %v = %d, want %d", w, got, i)
		}
	}
	for _, rank := range []uint64{0, 1, 100, 12649} {
		w := Unrank(rank, b, k)
		if got := p.IndexOf(w); uint64(got) != rank {
			t.Fatalf("Unrank(%d) = %v which has index %d", rank, w, got)
		}
	}
}

func TestRandomIsUniform(t *testing.T) {
	// Chi-squared-ish check on a small population: all 15 workloads of
	// (4 benchmarks, 2 cores) should appear with similar frequency.
	rng := rand.New(rand.NewSource(11))
	p := Enumerate(4, 2)
	counts := make([]int, p.Size())
	const draws = 15000
	for i := 0; i < draws; i++ {
		w := Random(rng, 4, 2)
		counts[p.IndexOf(w)]++
	}
	want := draws / p.Size()
	for i, c := range counts {
		if c < want*7/10 || c > want*13/10 {
			t.Errorf("workload %d drawn %d times, want about %d", i, c, want)
		}
	}
}

func TestSampleUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := SampleUniform(rng, 22, 8, 1000)
	if p.Size() != 1000 {
		t.Fatalf("sample size %d", p.Size())
	}
	seen := map[string]bool{}
	for _, w := range p.Workloads {
		if len(w) != 8 {
			t.Fatalf("workload %v has wrong K", w)
		}
		if seen[w.Key()] {
			t.Fatalf("duplicate %v in uniform sample", w)
		}
		seen[w.Key()] = true
	}
}

func TestOccurrences(t *testing.T) {
	ws := []Workload{{0, 1}, {1, 1}, {0, 2}}
	got := Occurrences(ws, 3)
	want := []int{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("occurrences[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestClassCounts(t *testing.T) {
	// Benchmarks 0,1 in class 0; 2 in class 1; 3 in class 2.
	class := []int{0, 0, 1, 2}
	got := ClassCounts(Workload{0, 1, 2, 2}, class, 3)
	want := []int{2, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("class count %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestKeyAndNames(t *testing.T) {
	w := Workload{0, 2}
	if w.Key() != "0,2" {
		t.Errorf("Key = %q", w.Key())
	}
	names := w.Names([]string{"a", "b", "c"})
	if names[0] != "a" || names[1] != "c" {
		t.Errorf("Names = %v", names)
	}
}

// Property: rank/unrank are inverse for random ranks across geometries.
func TestRankUnrankProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 2 + rng.Intn(21)
		k := 1 + rng.Intn(6)
		total, _ := PopulationSize(b, k)
		rank := uint64(rng.Int63n(int64(total)))
		w := Unrank(rank, b, k)
		return newRanker(b, k).index(w) == int(rank) && len(w) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Boundary behaviour of the saturating PopulationSize: the counts a
// ScaledSource can reach (up to B=512 at K=8) stay exact, and anything
// beyond uint64 saturates with ok=false instead of panicking.
func TestPopulationSizeSaturation(t *testing.T) {
	// C(519, 8): the largest configuration the source layer supports.
	got, ok := PopulationSize(512, 8)
	const want = 123672890985095232 // C(519,8)
	if !ok || got != want {
		t.Errorf("PopulationSize(512,8) = %d,%v, want %d,true", got, ok, want)
	}
	// PopulationSize(65, 64) = C(128, 64) ≈ 2.4e37, far past uint64.
	if got, ok := PopulationSize(65, 64); ok || got != Saturated {
		t.Errorf("PopulationSize(65,64) = %d,%v, want Saturated,false", got, ok)
	}
	if got, ok := PopulationSize(512, 64); ok || got != Saturated {
		t.Errorf("PopulationSize(512,64) = %d,%v, want Saturated,false", got, ok)
	}
	// The largest K at B=512 that still fits must stay exact: walk up
	// until the first saturation and check monotonic consistency.
	sawSaturated := false
	var prev uint64
	for k := 1; k <= 64; k++ {
		size, ok := PopulationSize(512, k)
		if sawSaturated && ok {
			t.Fatalf("PopulationSize(512,%d) un-saturated after a saturated smaller K", k)
		}
		if !ok {
			sawSaturated = true
			if size != Saturated {
				t.Fatalf("PopulationSize(512,%d) = %d with ok=false", k, size)
			}
			continue
		}
		if size <= prev {
			t.Fatalf("PopulationSize(512,%d) = %d not increasing (prev %d)", k, size, prev)
		}
		prev = size
	}
	if !sawSaturated {
		t.Error("PopulationSize(512,64) never saturated")
	}
}

// SampleUniform must keep working when the universe saturates: the
// sample bound check is skipped (the universe is astronomically larger
// than any sample) and draws switch to the rank-free multiset sampler.
func TestSampleUniformSaturatedUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const b, k, n = 512, 16, 25 // C(527,16) overflows uint64
	if _, ok := PopulationSize(b, k); ok {
		t.Fatalf("PopulationSize(%d,%d) unexpectedly fits uint64", b, k)
	}
	p := SampleUniform(rng, b, k, n)
	if p.Size() != n {
		t.Fatalf("sampled %d workloads, want %d", p.Size(), n)
	}
	seen := map[string]bool{}
	for _, w := range p.Workloads {
		if len(w) != k {
			t.Fatalf("workload %v has size %d, want %d", w, len(w), k)
		}
		for i, v := range w {
			if v < 0 || v >= b || (i > 0 && v < w[i-1]) {
				t.Fatalf("workload %v not a sorted multiset over [0,%d)", w, b)
			}
		}
		if seen[w.Key()] {
			t.Fatalf("duplicate draw %v survived rejection", w)
		}
		seen[w.Key()] = true
	}
}

// Property: the rank-free sampler agrees with Unrank territory — every
// draw is a valid sorted multiset, and over many draws on a small
// geometry the distribution covers the whole population.
func TestRandomMultisetCoversSmallPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const b, k = 4, 3 // population C(6,3) = 20
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		w := randomMultiset(rng, b, k)
		counts[w.Key()]++
	}
	if len(counts) != 20 {
		t.Fatalf("saw %d distinct multisets, want all 20", len(counts))
	}
	for key, c := range counts {
		// Uniform mean is 200 draws; allow a generous band.
		if c < 120 || c > 300 {
			t.Errorf("multiset %s drawn %d times, implausible for uniform", key, c)
		}
	}
}

func TestExactBinomialAgainstBigComputation(t *testing.T) {
	// Cross-check binomial against Pascal-triangle addition in a range
	// that exercises the 128-bit multiply path.
	for n := uint64(60); n <= 66; n++ {
		for k := uint64(2); k < n; k++ {
			a, aok := binomial(n-1, k-1)
			b, bok := binomial(n-1, k)
			c, cok := binomial(n, k)
			if !aok || !bok {
				continue
			}
			sum, carry := a+b, a+b < a
			if carry {
				if cok {
					t.Fatalf("C(%d,%d) claimed exact but Pascal sum overflows", n, k)
				}
				continue
			}
			if cok && c != sum {
				t.Fatalf("C(%d,%d) = %d, Pascal sum %d", n, k, c, sum)
			}
			if !cok && sum != 0 {
				// Saturated result must only happen when the true value
				// exceeds uint64; the Pascal sum fitting contradicts that.
				t.Fatalf("C(%d,%d) saturated but Pascal sum %d fits", n, k, sum)
			}
		}
	}
}
