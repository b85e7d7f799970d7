package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/sampling"
)

func init() {
	Register(Experiment{
		Name:     "fig3",
		Synopsis: "confidence vs sample size: experiment vs model (DRRIP>DIP, WSU)",
		Group:    GroupPaper,
		Requests: func(l *Lab, p Params) []Request { return l.Fig3Requests(p.CoreCounts) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.fig3Table(ctx, p.CoreCounts)
		},
		Chart: func(ctx context.Context, l *Lab, p Params) (string, error) {
			return l.Fig3Chart(ctx, p.CoreCounts)
		},
	})
}

// Fig3Point is one sample size of one core count's confidence curve.
type Fig3Point struct {
	Cores      int
	SampleSize int
	Empirical  float64
	Model      float64
}

// Fig3SampleSizes is the logarithmic sweep of Figure 3.
var Fig3SampleSizes = []int{10, 16, 25, 40, 63, 100, 158, 251, 398, 631, 1000}

// fig3CoreCounts resolves the figure's core-count sweep.
func fig3CoreCounts(coreCounts []int) []int {
	if len(coreCounts) == 0 {
		return []int{2, 4, 8}
	}
	return coreCounts
}

// Fig3 reproduces Figure 3: the degree of confidence that DRRIP
// outperforms DIP (WSU metric) as a function of the random sample size,
// measured by Monte-Carlo (cfg.Fig3Trials random samples per point) and
// predicted by the analytical model (equation 5), for 2, 4 and 8 cores.
func (l *Lab) Fig3(ctx context.Context, coreCounts []int) ([]Fig3Point, error) {
	var out []Fig3Point
	for _, cores := range fig3CoreCounts(coreCounts) {
		d, err := l.Diffs(ctx, cores, metrics.WSU, cache.DIP, cache.DRRIP)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(l.cfg.Seed + 300 + int64(cores)))
		s := sampling.NewSimpleRandom(len(d))
		for _, w := range Fig3SampleSizes {
			if w > len(d) {
				break
			}
			out = append(out, Fig3Point{
				Cores:      cores,
				SampleSize: w,
				Empirical:  sampling.EmpiricalConfidence(rng, d, s, w, l.cfg.Fig3Trials),
				Model:      sampling.ModelConfidence(d, w),
			})
		}
	}
	return out, nil
}

// Fig3Requests declares the tables Fig3 reads: the DIP and DRRIP BADCO
// tables plus the reference IPCs (WSU metric) at each core count.
func (l *Lab) Fig3Requests(coreCounts []int) []Request {
	var plan []Request
	for _, cores := range fig3CoreCounts(coreCounts) {
		plan = append(plan, badcoSet(cores, []cache.PolicyName{cache.DIP, cache.DRRIP})...)
		plan = append(plan, Request{Sim: SimRef, Cores: cores})
	}
	return plan
}

// fig3Table renders Figure 3 as a table of confidence points.
func (l *Lab) fig3Table(ctx context.Context, coreCounts []int) (*Table, error) {
	t := &Table{
		Title:   "Figure 3: confidence that DRRIP > DIP (WSU) vs sample size — experiment vs model",
		Columns: []string{"cores", "W", "empirical", "model", "|diff|"},
		Notes: []string{
			"paper: model curve matches the experimental points quite well, even for small samples",
		},
	}
	points, err := l.Fig3(ctx, coreCounts)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		diff := p.Empirical - p.Model
		if diff < 0 {
			diff = -diff
		}
		t.AddRow(fmt.Sprint(p.Cores), fmt.Sprint(p.SampleSize), f3(p.Empirical), f3(p.Model), f3(diff))
	}
	return t, nil
}
