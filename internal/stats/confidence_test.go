package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestConfidenceBasics(t *testing.T) {
	// W = 0 carries no information.
	if got := Confidence(1, 0); got != 0.5 {
		t.Errorf("Confidence(1,0) = %g, want 0.5", got)
	}
	// cv = +Inf (zero mean) is a coin flip.
	if got := Confidence(math.Inf(1), 100); got != 0.5 {
		t.Errorf("Confidence(inf,100) = %g, want 0.5", got)
	}
	// Zero variance, positive mean: certain.
	if got := Confidence(0, 1); got != 1 {
		t.Errorf("Confidence(0,1) = %g, want 1", got)
	}
	// Positive cv: confidence above 0.5 and increasing in W.
	prev := 0.5
	for _, w := range []int{1, 2, 4, 8, 16, 64, 256} {
		c := Confidence(1, w)
		if c <= prev {
			t.Errorf("Confidence(1,%d) = %g not increasing (prev %g)", w, c, prev)
		}
		prev = c
	}
	// Negative cv mirrors around 0.5.
	for _, w := range []int{1, 10, 100} {
		cp := Confidence(0.7, w)
		cn := Confidence(-0.7, w)
		if !almostEqual(cp+cn, 1, 1e-12) {
			t.Errorf("Confidence symmetry broken at W=%d: %g + %g != 1", w, cp, cn)
		}
	}
}

func TestConfidenceAtPaperOperatingPoint(t *testing.T) {
	// At W = 8*cv^2 the reduced variable is 2 and confidence = (1+erf(2))/2.
	cv := 1.3
	w := RequiredSampleSize(cv)
	want := 0.5 * (1 + math.Erf(2))
	got := Confidence(cv, w)
	// w is rounded up so got >= want.
	if got < want-1e-9 {
		t.Errorf("Confidence at required size = %g, want >= %g", got, want)
	}
	if got > 0.9999 {
		t.Errorf("Confidence at required size suspiciously close to 1: %g", got)
	}
}

func TestRequiredSampleSize(t *testing.T) {
	cases := []struct {
		cv   float64
		want int
	}{
		{1, 8},
		{2, 32},
		{0.5, 2},
		{10, 800},
	}
	for _, c := range cases {
		if got := RequiredSampleSize(c.cv); got != c.want {
			t.Errorf("RequiredSampleSize(%g) = %d, want %d", c.cv, got, c.want)
		}
	}
	if got := RequiredSampleSize(math.Inf(1)); got != math.MaxInt32 {
		t.Errorf("RequiredSampleSize(inf) = %d", got)
	}
	// Sign does not matter: W depends on cv^2.
	if RequiredSampleSize(-2) != RequiredSampleSize(2) {
		t.Error("RequiredSampleSize should be symmetric in sign")
	}
}

func TestConfidenceCurveShape(t *testing.T) {
	xs, ys := ConfidenceCurve(-2, 2, 80)
	if len(xs) != 81 || len(ys) != 81 {
		t.Fatalf("curve lengths %d,%d", len(xs), len(ys))
	}
	// Monotone nondecreasing, anchored at ~0 and ~1, 0.5 at x=0.
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
	if ys[0] > 0.01 || ys[len(ys)-1] < 0.99 {
		t.Errorf("curve endpoints %g, %g", ys[0], ys[len(ys)-1])
	}
	mid := ys[40]
	if !almostEqual(mid, 0.5, 1e-12) {
		t.Errorf("curve at 0 = %g, want 0.5", mid)
	}
}

// Monte-Carlo validation of equation (5): draw W normal observations with
// mean mu and sd sigma; the fraction of trials whose sample mean is >= 0
// should match Confidence(sigma/mu, W).
func TestConfidenceMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		mu, sigma float64
		w         int
	}{
		{0.5, 1, 4},
		{0.2, 1, 16},
		{-0.3, 1, 9},
		{1, 2, 8},
	} {
		const trials = 20000
		hits := 0
		for i := 0; i < trials; i++ {
			sum := 0.0
			for j := 0; j < tc.w; j++ {
				sum += tc.mu + tc.sigma*rng.NormFloat64()
			}
			if sum >= 0 {
				hits++
			}
		}
		emp := float64(hits) / trials
		model := Confidence(tc.sigma/tc.mu, tc.w)
		if math.Abs(emp-model) > 0.015 {
			t.Errorf("mu=%g sigma=%g W=%d: empirical %g vs model %g",
				tc.mu, tc.sigma, tc.w, emp, model)
		}
	}
}
