package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
		{[]float64{2.5, 2.5, 2.5, 2.5}, 2.5},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestMeanErrEmpty(t *testing.T) {
	if _, err := MeanErr(nil); err != ErrEmpty {
		t.Fatalf("MeanErr(nil) error = %v, want ErrEmpty", err)
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mean(nil) did not panic")
		}
	}()
	Mean(nil)
}

func TestHarmonicMean(t *testing.T) {
	// H(1,2,4) = 3 / (1 + 1/2 + 1/4) = 12/7.
	if got, want := HarmonicMean([]float64{1, 2, 4}), 12.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("HarmonicMean = %g, want %g", got, want)
	}
}

func TestHarmonicMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive value")
		}
	}()
	HarmonicMean([]float64{1, 0, 2})
}

func TestGeometricMean(t *testing.T) {
	if got, want := GeometricMean([]float64{1, 4}), 2.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("GeometricMean = %g, want %g", got, want)
	}
	if got, want := GeometricMean([]float64{2, 2, 2}), 2.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("GeometricMean = %g, want %g", got, want)
	}
}

func TestWeightedMean(t *testing.T) {
	xs := []float64{1, 2, 3}
	ws := []float64{1, 0, 1}
	if got, want := WeightedMean(xs, ws), 2.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("WeightedMean = %g, want %g", got, want)
	}
	// Equal weights reduce to the arithmetic mean.
	eq := []float64{3, 3, 3}
	if got, want := WeightedMean(xs, eq), Mean(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("WeightedMean equal weights = %g, want %g", got, want)
	}
}

func TestWeightedHarmonicMean(t *testing.T) {
	xs := []float64{1, 2, 4}
	eq := []float64{1, 1, 1}
	if got, want := WeightedHarmonicMean(xs, eq), HarmonicMean(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("WeightedHarmonicMean equal weights = %g, want %g", got, want)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got, want := Variance(xs), 4.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, want)
	}
	if got, want := StdDev(xs), 2.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("StdDev = %g, want %g", got, want)
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got, want := SampleVariance(xs), 1.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("SampleVariance = %g, want %g", got, want)
	}
}

func TestCoefVarSign(t *testing.T) {
	pos := []float64{1, 2, 3}
	neg := []float64{-1, -2, -3}
	if CoefVar(pos) < 0 {
		t.Error("CoefVar of positive-mean data should be positive")
	}
	if CoefVar(neg) > 0 {
		t.Error("CoefVar of negative-mean data should be negative")
	}
	if got := InvCoefVar(pos); got <= 0 {
		t.Errorf("InvCoefVar positive-mean = %g, want > 0", got)
	}
	if got := InvCoefVar(neg); got >= 0 {
		t.Errorf("InvCoefVar negative-mean = %g, want < 0", got)
	}
}

func TestInvCoefVarDegenerate(t *testing.T) {
	if got := InvCoefVar([]float64{5, 5, 5}); !math.IsInf(got, 1) {
		t.Errorf("InvCoefVar(constant positive) = %g, want +Inf", got)
	}
	if got := InvCoefVar([]float64{-5, -5}); !math.IsInf(got, -1) {
		t.Errorf("InvCoefVar(constant negative) = %g, want -Inf", got)
	}
	if got := InvCoefVar([]float64{0, 0}); got != 0 {
		t.Errorf("InvCoefVar(zeros) = %g, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("Quantile 0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("Quantile 1 = %g", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("Quantile 0.5 = %g", got)
	}
	if got := Quantile(xs, 0.25); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Quantile 0.25 = %g, want 2", got)
	}
	// Unsorted input must give the same answer.
	shuffled := []float64{4, 1, 5, 3, 2}
	if got := Quantile(shuffled, 0.5); got != 3 {
		t.Errorf("Quantile(shuffled, 0.5) = %g", got)
	}
}

func TestNormalCDF(t *testing.T) {
	if got := NormalCDF(0); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("NormalCDF(0) = %g", got)
	}
	if got := NormalCDF(1.96); !almostEqual(got, 0.975, 1e-3) {
		t.Errorf("NormalCDF(1.96) = %g, want ~0.975", got)
	}
	if got := NormalCDF(-1.96); !almostEqual(got, 0.025, 1e-3) {
		t.Errorf("NormalCDF(-1.96) = %g, want ~0.025", got)
	}
}

func TestMeanAbsErrorAndMax(t *testing.T) {
	ref := []float64{1, 2, 4}
	approx := []float64{1.1, 1.8, 4}
	// errors: 0.1, 0.1, 0 -> mean 0.0666..., max 0.1
	if got := MeanAbsError(approx, ref); !almostEqual(got, 0.2/3, 1e-9) {
		t.Errorf("MeanAbsError = %g", got)
	}
	if got := MaxAbsError(approx, ref); !almostEqual(got, 0.1, 1e-9) {
		t.Errorf("MaxAbsError = %g", got)
	}
}

// Property: mean lies within [min, max], harmonic <= geometric <= arithmetic
// for positive data.
func TestMeanInequalitiesProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Map arbitrary floats into a positive, well-conditioned range.
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, 0.5+math.Abs(math.Mod(x, 100)))
		}
		if len(xs) == 0 {
			return true
		}
		h := HarmonicMean(xs)
		g := GeometricMean(xs)
		a := Mean(xs)
		min, max := slices.Min(xs), slices.Max(xs)
		const tol = 1e-9
		return h <= g+tol && g <= a+tol && a >= min-tol && a <= max+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		scaled := make([]float64, n)
		shift := rng.NormFloat64() * 10
		scale := 1 + rng.Float64()*3
		for i := range xs {
			xs[i] = rng.NormFloat64()
			shifted[i] = xs[i] + shift
			scaled[i] = xs[i] * scale
		}
		v := Variance(xs)
		if !almostEqual(Variance(shifted), v, 1e-9*(1+v)) {
			t.Fatalf("variance not translation invariant: %g vs %g", Variance(shifted), v)
		}
		if !almostEqual(Variance(scaled), v*scale*scale, 1e-9*(1+v*scale*scale)) {
			t.Fatalf("variance not scale quadratic")
		}
	}
}
