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

// Fig6Point is one (pair, method, sample size) confidence measurement.
type Fig6Point struct {
	Pair       [2]cache.PolicyName
	Method     string
	SampleSize int
	Confidence float64
}

// Fig6 reproduces Figure 6: the experimental degree of confidence
// (cfg.Fig6Trials stratified/random samples per point, BADCO throughput,
// IPCT metric, 4 cores) for the four sampling methods on four policy
// pairs. Workload stratification uses the paper's parameters
// (TSD = 0.001, WT = 50). Balanced random sampling requires the full
// population; when the lab runs on a subsampled population it is skipped.
func (l *Lab) Fig6(ctx context.Context, cores int) ([]Fig6Point, error) {
	pop := l.Population(cores)
	classes, err := l.Classes(ctx)
	if err != nil {
		return nil, err
	}
	full := l.isFullPopulation(pop.Size(), cores)

	var out []Fig6Point
	for pi, pair := range Fig6Pairs() {
		d, err := l.Diffs(ctx, cores, metrics.IPCT, pair[0], pair[1])
		if err != nil {
			return nil, err
		}

		samplers := []sampling.Sampler{sampling.NewSimpleRandom(len(d))}
		if full {
			samplers = append(samplers, sampling.NewBalancedRandom(pop))
		}
		samplers = append(samplers,
			sampling.NewBenchmarkStrata(pop, classes, sampling.NumClasses),
			sampling.NewWorkloadStrata(d, sampling.DefaultWorkloadStrataConfig()),
		)

		for si, s := range samplers {
			rng := rand.New(rand.NewSource(l.cfg.Seed + 600 + int64(pi*10+si)))
			for _, w := range Fig6SampleSizes {
				if w > len(d) {
					break
				}
				out = append(out, Fig6Point{
					Pair:       pair,
					Method:     s.Name(),
					SampleSize: w,
					Confidence: sampling.EmpiricalConfidence(rng, d, s, w, l.cfg.Fig6Trials),
				})
			}
		}
	}
	return out, nil
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
	methods := []string{"random", "bal-random", "bench-strata", "workload-strata"}
	t := &Table{
		Title:   fmt.Sprintf("Figure 6: confidence vs sample size, 4 sampling methods (IPCT, %d cores)", cores),
		Columns: append([]string{"pair (Y>X)", "W"}, methods...),
		Notes: []string{
			"paper: workload-strata ~100% at W=10 for FIFO>RND (random needs ~80); DIP>LRU needs 50 vs 800;",
			"bal-random second best on average; bench-strata only slightly better than random",
		},
	}
	type key struct {
		pair string
		w    int
	}
	cell := map[key]map[string]float64{}
	var order []key
	for _, p := range points {
		k := key{fmt.Sprintf("%s>%s", p.Pair[1], p.Pair[0]), p.SampleSize}
		if cell[k] == nil {
			cell[k] = map[string]float64{}
			order = append(order, k)
		}
		cell[k][p.Method] = p.Confidence
	}
	for _, k := range order {
		row := []string{k.pair, fmt.Sprint(k.w)}
		for _, m := range methods {
			if v, ok := cell[k][m]; ok {
				row = append(row, f3(v))
			} else {
				row = append(row, "n/a")
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}
