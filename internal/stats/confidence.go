package stats

import "math"

// Confidence implements equation (5) of the paper: the degree of confidence
// that microarchitecture Y outperforms X when throughput differences d(w)
// have coefficient of variation cv and W workloads are drawn at random:
//
//	Pr(D >= 0) = 1/2 * (1 + erf((1/cv) * sqrt(W/2)))
//
// The sign of cv carries the direction: a negative cv (negative mean
// difference) drives the confidence toward zero, meaning Y is very likely
// NOT better than X.
func Confidence(cv float64, w int) float64 {
	if w <= 0 {
		return 0.5
	}
	if cv == 0 {
		// Zero variance with nonzero mean: the conclusion is certain.
		return 1
	}
	if math.IsInf(cv, 0) {
		// Zero mean: coin flip regardless of sample size.
		return 0.5
	}
	return 0.5 * (1 + math.Erf((1/cv)*math.Sqrt(float64(w)/2)))
}

// RequiredSampleSize implements equation (8): W = 8*cv^2, the random-sample
// size at which |(1/cv)*sqrt(W/2)| = 2, i.e. the confidence is within
// erf(2) ≈ 0.9953 of certain. The result is rounded up and is at least 1.
func RequiredSampleSize(cv float64) int {
	if math.IsInf(cv, 0) || math.IsNaN(cv) {
		return math.MaxInt32
	}
	w := 8 * cv * cv
	n := int(math.Ceil(w))
	if n < 1 {
		n = 1
	}
	return n
}

// ConfidenceCurve evaluates equation (5) over a range of the reduced
// variable x = (1/cv)*sqrt(W/2), reproducing Figure 1. It returns the
// curve sampled at n+1 evenly spaced points in [lo, hi].
func ConfidenceCurve(lo, hi float64, n int) (xs, ys []float64) {
	if n < 1 {
		panic("stats: ConfidenceCurve needs n >= 1")
	}
	xs = make([]float64, n+1)
	ys = make([]float64, n+1)
	for i := 0; i <= n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n)
		xs[i] = x
		ys[i] = 0.5 * (1 + math.Erf(x))
	}
	return xs, ys
}
