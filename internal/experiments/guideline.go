package experiments

import (
	"context"
	"fmt"
	"math"

	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/sampling"
	"mcbench/internal/stats"
)

func init() {
	Register(Experiment{
		Name:     "guideline",
		Synopsis: "Sec. VII decision procedure applied to every pair",
		Group:    GroupExtension,
		Requests: func(l *Lab, p Params) []Request { return l.GuidelineRequests(p.cores()) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.GuidelineTable(ctx, p.cores(), metrics.WSU)
		},
	})
}

// Recommendation is the outcome of the paper's Section VII decision
// procedure for one pair of microarchitectures and one metric.
type Recommendation struct {
	Pair   [2]cache.PolicyName
	Metric metrics.Metric
	CV     float64
	// Strategy is one of "equivalent", "random", "stratify".
	Strategy string
	// SampleSize is the recommended detailed-simulation sample size:
	// W = 8cv^2 for random sampling, the number of strata (minimum
	// feasible stratified sample) for stratification, 0 for equivalent.
	SampleSize int
	// Strata is the stratum count when Strategy is "stratify".
	Strata int
}

// Guideline implements the paper's Section VII practical guideline as an
// executable procedure:
//
//  1. simulate a large workload sample with the fast simulator for both
//     microarchitectures (the lab's population sweep);
//  2. estimate the coefficient of variation cv of d(w);
//  3. if |cv| > 10: declare the machines equivalent on average;
//     if |cv| < 2: random sampling with W = 8cv² suffices (use balanced
//     random for small samples);
//     otherwise (cv in [2, 10]): use workload stratification, whose
//     sample can be as small as the stratum count.
func (l *Lab) Guideline(ctx context.Context, cores int, m metrics.Metric, x, y cache.PolicyName) (Recommendation, error) {
	d, err := l.Diffs(ctx, cores, m, x, y)
	if err != nil {
		return Recommendation{}, err
	}
	cv := stats.CoefVar(d)
	rec := Recommendation{Pair: [2]cache.PolicyName{x, y}, Metric: m, CV: cv}
	switch abs := math.Abs(cv); {
	case abs > 10:
		rec.Strategy = "equivalent"
	case abs < 2:
		rec.Strategy = "random"
		rec.SampleSize = stats.RequiredSampleSize(cv)
	default:
		rec.Strategy = "stratify"
		s := sampling.NewWorkloadStrata(d, sampling.DefaultWorkloadStrataConfig())
		rec.Strata = sampling.NumStrata(s)
		rec.SampleSize = rec.Strata
	}
	return rec, nil
}

// GuidelineRequests declares the guideline's inputs over every policy
// pair: all case-study BADCO tables plus the reference IPCs.
func (l *Lab) GuidelineRequests(cores int) []Request {
	return append(badcoSet(cores, Policies()), Request{Sim: SimRef, Cores: cores})
}

// GuidelineTable applies the guideline to every policy pair.
func (l *Lab) GuidelineTable(ctx context.Context, cores int, m metrics.Metric) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Section VII guideline applied to every pair (%s, %d cores)", m, cores),
		Columns: []string{"pair (X,Y)", "cv", "strategy", "recommended W", "strata"},
		Notes: []string{
			"|cv| > 10: equivalent on average; |cv| < 2: random sampling with W = 8cv^2;",
			"cv in [2,10]: workload stratification (sample >= stratum count)",
		},
	}
	for _, pair := range PolicyPairs() {
		r, err := l.Guideline(ctx, cores, m, pair[0], pair[1])
		if err != nil {
			return nil, err
		}
		strata := "-"
		if r.Strata > 0 {
			strata = fmt.Sprint(r.Strata)
		}
		w := "-"
		if r.SampleSize > 0 {
			w = fmt.Sprint(r.SampleSize)
		}
		t.AddRow(fmt.Sprintf("%s,%s", pair[0], pair[1]), f2(r.CV), r.Strategy, w, strata)
	}
	return t, nil
}
