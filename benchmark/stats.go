package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p < 1) of xs, interpolating at
// rank p·(n+1) and clamping to the sample range. For three or more values
// its quartiles equal those of Python's statistics.quantiles(xs, n=4), so
// spreads printed here match the ones computed from the same values
// elsewhere; internal/stats.Quantile interpolates at another rank, and the
// benchmark does not depend on the code it measures for its statistics.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	h := p * float64(len(s)+1)
	j := int(math.Floor(h))
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func quartiles(xs []float64) (q1, q2, q3 float64) {
	return percentile(xs, 0.25), percentile(xs, 0.5), percentile(xs, 0.75)
}
