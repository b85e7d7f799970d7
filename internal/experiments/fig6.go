package experiments

import (
	"context"
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/metrics"
)

func init() {
	Register(Experiment{
		Name:     "fig6",
		Synopsis: "confidence for 4 sampling methods (IPCT)",
		Group:    GroupPaper,
		Requests: func(l *Lab, p Params) []Request { return l.Fig6Requests(p.cores()) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.fig6Table(ctx, p.cores())
		},
		Chart: func(ctx context.Context, l *Lab, p Params) (string, error) {
			return l.Fig6Chart(ctx, p.cores())
		},
	})
}

// Fig6Pairs are the four policy pairs of Figure 6 (as (X, Y), labelled
// "Y > X" in the figure).
func Fig6Pairs() [][2]cache.PolicyName {
	return [][2]cache.PolicyName{
		{cache.LRU, cache.DIP},     // DIP > LRU
		{cache.LRU, cache.DRRIP},   // DRRIP > LRU
		{cache.DIP, cache.DRRIP},   // DRRIP > DIP
		{cache.Random, cache.FIFO}, // FIFO > RND
	}
}

// Fig6SampleSizes is the figure's sample-size sweep.
var Fig6SampleSizes = []int{10, 20, 30, 40, 50, 60, 80, 100, 120, 140, 160, 180, 200, 300, 400, 500, 600, 700, 800}

// Fig6 reproduces Figure 6: the experimental degree of confidence
// (cfg.Fig6Trials stratified/random samples per point, BADCO throughput,
// IPCT metric, 4 cores) for the four sampling methods on four policy
// pairs. Balanced random sampling requires the full population; when the
// lab runs on a subsampled population it is skipped.
func (l *Lab) Fig6(ctx context.Context, cores int) ([]MethodPoint, error) {
	var out []MethodPoint
	for pi := range Fig6Pairs() {
		points, err := l.fig6Curve(ctx, cores, pi)
		if err != nil {
			return nil, err
		}
		out = append(out, points...)
	}
	return out, nil
}

// fig6Curve measures the confidence curves of Fig6Pairs()[pi].
func (l *Lab) fig6Curve(ctx context.Context, cores, pi int) ([]MethodPoint, error) {
	pop := l.Population(cores)
	classes, err := l.Classes(ctx)
	if err != nil {
		return nil, err
	}
	pair := Fig6Pairs()[pi]
	d, err := l.Diffs(ctx, cores, metrics.IPCT, pair[0], pair[1])
	if err != nil {
		return nil, err
	}
	samplers := paperMethods(pop, l.isFullPopulation(pop.Size(), cores), classes, d)
	return methodSweep(MethodPoint{Pair: pair, Cores: cores, Trials: l.cfg.Fig6Trials}, d, samplers,
		l.cfg.Seed+600+int64(pi*10), Fig6SampleSizes), nil
}

// Fig6Requests declares the tables Fig6 reads: the BADCO tables of its
// four policy pairs, the reference IPCs, and the MPKI classification
// backing benchmark stratification.
func (l *Lab) Fig6Requests(cores int) []Request {
	plan := badcoSet(cores, pairPolicies(Fig6Pairs()))
	return append(plan,
		Request{Sim: SimRef, Cores: cores},
		Request{Sim: SimMPKI})
}

// fig6Table renders Figure 6 with one row per (pair, sample size) and one
// column per method.
func (l *Lab) fig6Table(ctx context.Context, cores int) (*Table, error) {
	points, err := l.Fig6(ctx, cores)
	if err != nil {
		return nil, err
	}
	return methodTable(&Table{
		Title: fmt.Sprintf("Figure 6: confidence vs sample size, 4 sampling methods (IPCT, %d cores)", cores),
		Notes: []string{
			"paper: workload-strata ~100% at W=10 for FIFO>RND (random needs ~80); DIP>LRU needs 50 vs 800;",
			"bal-random second best on average; bench-strata only slightly better than random",
		},
	}, points, "pair (Y>X)", func(c *methodCurve) string {
		return fmt.Sprintf("%s>%s", c.pair[1], c.pair[0])
	}), nil
}
