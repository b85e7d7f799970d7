package stats

import (
	"math/rand"
	"testing"
)

func TestKSNormalOnNormalData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 3 + 2*rng.NormFloat64()
	}
	if d := KSNormal(xs); d > 0.03 {
		t.Errorf("KS = %.4f on genuinely normal data; want small", d)
	}
}

func TestKSNormalOnSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() // strongly right-skewed
	}
	if d := KSNormal(xs); d < 0.05 {
		t.Errorf("KS = %.4f on exponential data; want clearly nonzero", d)
	}
}

// The CLT in action: means of W-sized samples of a skewed distribution
// become more normal as W grows — the premise of the paper's equation (5).
func TestKSCLTConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := make([]float64, 4000)
	for i := range base {
		base[i] = rng.ExpFloat64()
	}
	ksAt := func(w int) float64 {
		means := make([]float64, 1500)
		for i := range means {
			sum := 0.0
			for j := 0; j < w; j++ {
				sum += base[rng.Intn(len(base))]
			}
			means[i] = sum / float64(w)
		}
		return KSNormal(means)
	}
	k1, k8, k64 := ksAt(1), ksAt(8), ksAt(64)
	if !(k64 < k8 && k8 < k1) {
		t.Errorf("KS not decreasing with sample size: W=1:%.3f W=8:%.3f W=64:%.3f", k1, k8, k64)
	}
}

func TestKSNormalDegenerate(t *testing.T) {
	if d := KSNormal([]float64{5, 5, 5}); d != 1 {
		t.Errorf("point mass KS = %g, want 1", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("empty input did not panic")
		}
	}()
	KSNormal(nil)
}
