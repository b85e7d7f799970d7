package stats

import (
	"math"
	"sort"
)

// KSNormal returns the Kolmogorov–Smirnov statistic of xs against the
// normal distribution with the sample's own mean and standard deviation:
// the maximum absolute difference between the empirical CDF and the
// fitted normal CDF. It quantifies how close to normal a distribution is
// (0 = identical), which is how the reproduction checks the Central Limit
// Theorem premise behind the paper's equation (5).
func KSNormal(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	mu := Mean(xs)
	sigma := StdDev(xs)
	if sigma == 0 {
		return 1 // a point mass is maximally non-normal
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	maxD := 0.0
	for i, x := range sorted {
		f := NormalCDF((x - mu) / sigma)
		lo := float64(i) / n
		hi := float64(i+1) / n
		if d := math.Abs(f - lo); d > maxD {
			maxD = d
		}
		if d := math.Abs(f - hi); d > maxD {
			maxD = d
		}
	}
	return maxD
}
