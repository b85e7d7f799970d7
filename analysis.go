package mcbench

import (
	"mcbench/internal/metrics"
	"mcbench/internal/stats"
)

// Metric selects a throughput metric over a workload's per-thread IPCs.
type Metric = metrics.Metric

// The paper's three throughput metrics plus the geometric-mean
// extension. IPCT is the arithmetic mean of raw IPCs; WSU/HSU/GMSU are
// the arithmetic/harmonic/geometric means of per-thread speedups against
// the benchmark-alone reference.
const (
	IPCT = metrics.IPCT
	WSU  = metrics.WSU
	HSU  = metrics.HSU
	GMSU = metrics.GMSU
)

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 { return stats.Mean(xs) }

// CoefVar returns the coefficient of variation sigma/mu of the values —
// the paper's central statistic over the per-workload differences d(w).
func CoefVar(xs []float64) float64 { return stats.CoefVar(xs) }

// Confidence returns the analytic degree of confidence (equation 5) that
// the mean difference has the sign of its expectation, for a random
// sample of w workloads whose d(w) has the given cv.
func Confidence(cv float64, w int) float64 { return stats.Confidence(cv, w) }

// RequiredSampleSize returns the paper's W = 8*cv^2 rule: the random
// sample size needed for ~97.7% confidence.
func RequiredSampleSize(cv float64) int { return stats.RequiredSampleSize(cv) }
