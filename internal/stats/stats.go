// Package stats provides the statistical primitives used throughout the
// reproduction: descriptive statistics (arithmetic, harmonic, geometric and
// weighted means, variance, coefficient of variation), the normal
// distribution, and the confidence model of Velásquez et al. (ISPASS 2013,
// Section III).
//
// All functions are deterministic; randomized helpers take an explicit
// *rand.Rand so that callers control seeding.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty data sets.
var ErrEmpty = errors.New("stats: empty data set")

// Mean returns the arithmetic mean of xs. It panics on an empty slice;
// use MeanErr when the input may be empty.
func Mean(xs []float64) float64 {
	m, err := MeanErr(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// MeanErr returns the arithmetic mean of xs, or ErrEmpty.
func MeanErr(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// HarmonicMean returns the harmonic mean of xs. All values must be
// strictly positive.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: harmonic mean requires positive values, got %g", x))
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// GeometricMean returns the geometric mean of xs. All values must be
// strictly positive.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geometric mean requires positive values, got %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// WeightedMean returns sum(w_i*x_i)/sum(w_i). Weights must be non-negative
// and not all zero.
func WeightedMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedMean length mismatch")
	}
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	var sw, swx float64
	for i, x := range xs {
		if ws[i] < 0 {
			panic("stats: negative weight")
		}
		sw += ws[i]
		swx += ws[i] * x
	}
	if sw == 0 {
		panic("stats: all weights zero")
	}
	return swx / sw
}

// WeightedHarmonicMean returns sum(w_i)/sum(w_i/x_i). Values must be
// strictly positive and weights non-negative, not all zero.
func WeightedHarmonicMean(xs, ws []float64) float64 {
	if len(xs) != len(ws) {
		panic("stats: WeightedHarmonicMean length mismatch")
	}
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	var sw, swinv float64
	for i, x := range xs {
		if x <= 0 {
			panic("stats: harmonic mean requires positive values")
		}
		if ws[i] < 0 {
			panic("stats: negative weight")
		}
		sw += ws[i]
		swinv += ws[i] / x
	}
	if sw == 0 {
		panic("stats: all weights zero")
	}
	return sw / swinv
}

// Variance returns the population variance of xs (divides by n, not n-1).
// The paper's coefficient of variation is defined over the full workload
// population, so the population form is the natural default.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// SampleVariance returns the unbiased sample variance of xs (divides by
// n-1). It panics if len(xs) < 2.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		panic("stats: SampleVariance requires at least two values")
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoefVar returns the coefficient of variation cv = sigma/mu of xs, using
// the population standard deviation. The sign of the result follows the
// sign of the mean: the paper plots 1/cv, whose sign indicates which
// microarchitecture of a pair wins.
func CoefVar(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return StdDev(xs) / m
}

// InvCoefVar returns 1/cv = mu/sigma, the quantity plotted in Figures 4
// and 5 of the paper. A zero standard deviation with nonzero mean yields
// +/-Inf; a zero mean yields 0.
func InvCoefVar(xs []float64) float64 {
	m := Mean(xs)
	s := StdDev(xs)
	if s == 0 {
		if m == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), m)
	}
	return m / s
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %g out of [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NormalCDF returns the cumulative distribution function of the standard
// normal distribution at x.
func NormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// MeanAbsError returns the mean of |a_i - b_i| / |b_i| expressed as a
// fraction (not percent). It is used for the CPI and speedup error
// comparisons of Figure 2.
func MeanAbsError(approx, ref []float64) float64 {
	if len(approx) != len(ref) {
		panic("stats: MeanAbsError length mismatch")
	}
	if len(approx) == 0 {
		panic(ErrEmpty)
	}
	sum := 0.0
	for i := range approx {
		sum += math.Abs(approx[i]-ref[i]) / math.Abs(ref[i])
	}
	return sum / float64(len(approx))
}

// MaxAbsError returns the maximum of |a_i - b_i| / |b_i| as a fraction.
func MaxAbsError(approx, ref []float64) float64 {
	if len(approx) != len(ref) {
		panic("stats: MaxAbsError length mismatch")
	}
	if len(approx) == 0 {
		panic(ErrEmpty)
	}
	max := 0.0
	for i := range approx {
		e := math.Abs(approx[i]-ref[i]) / math.Abs(ref[i])
		if e > max {
			max = e
		}
	}
	return max
}
