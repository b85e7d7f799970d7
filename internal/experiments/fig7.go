package experiments

import (
	"context"
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/workload"
)

func init() {
	Register(Experiment{
		Name:     "fig7",
		Synopsis: "actual (detailed-simulator) confidence for DIP>LRU",
		Group:    GroupPaper,
		Requests: func(l *Lab, p Params) []Request { return l.Fig7Requests(p.CoreCounts) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.fig7Table(ctx, p.CoreCounts)
		},
	})
}

// Fig7SampleSizes is the figure's small-sample sweep.
var Fig7SampleSizes = []int{10, 20, 30, 40, 50}

// fig7Pair is the policy pair of Figure 7: is DIP better than LRU?
var fig7Pair = [2]cache.PolicyName{cache.LRU, cache.DIP}

// fig7CoreCounts resolves the figure's core-count sweep.
func fig7CoreCounts(coreCounts []int) []int {
	if len(coreCounts) == 0 {
		return []int{2, 4}
	}
	return coreCounts
}

// Fig7 reproduces Figure 7: the *actual* degree of confidence that DIP
// outperforms LRU (IPCT), measured with the detailed simulator's
// throughputs, while the strata are defined with BADCO — so the figure
// includes the approximate simulator's error, unlike Figure 6. For 2
// cores the full 253-workload population is simulated in detail; for 4
// (and 8) cores only the detailed sample is available, and sampling is
// performed within it. Balanced random sampling is only applicable when
// the sampled set is the full population (2 cores), as in the paper.
func (l *Lab) Fig7(ctx context.Context, coreCounts []int) ([]MethodPoint, error) {
	var out []MethodPoint
	for _, cores := range fig7CoreCounts(coreCounts) {
		pop := l.Population(cores)
		sample := l.DetSample(cores)

		// Detailed-simulator differences over the sample: the values the
		// confidence is measured on.
		dDet, err := l.DetailedDiffs(ctx, cores, metrics.IPCT, fig7Pair[0], fig7Pair[1])
		if err != nil {
			return nil, err
		}
		// BADCO differences over the same workloads: what the strata are
		// built from.
		dBadco, err := l.BadcoDiffsAt(ctx, cores, metrics.IPCT, fig7Pair[0], fig7Pair[1], sample)
		if err != nil {
			return nil, err
		}
		classes, err := l.Classes(ctx)
		if err != nil {
			return nil, err
		}

		// The sampled workloads, as their own population for the
		// class-based and balanced methods.
		ws := make([]workload.Workload, len(sample))
		for i, wi := range sample {
			ws[i] = pop.Workloads[wi]
		}
		subPop := workload.FromWorkloads(pop.B, pop.K, ws)

		samplers := paperMethods(subPop, l.isFullPopulation(len(sample), cores), classes, dBadco)
		out = append(out, methodSweep(MethodPoint{Pair: fig7Pair, Cores: cores, Trials: l.cfg.Fig7Trials}, dDet, samplers,
			l.cfg.Seed+700+int64(cores*10), Fig7SampleSizes)...)
	}
	return out, nil
}

// Fig7Requests declares the tables Fig7 reads: LRU and DIP with both
// simulators, the reference IPCs and the MPKI classification, at each
// core count.
func (l *Lab) Fig7Requests(coreCounts []int) []Request {
	pols := fig7Pair[:]
	plan := []Request{{Sim: SimMPKI}}
	for _, cores := range fig7CoreCounts(coreCounts) {
		plan = append(plan, badcoSet(cores, pols)...)
		plan = append(plan, detailedSet(cores, pols)...)
		plan = append(plan, Request{Sim: SimRef, Cores: cores})
	}
	return plan
}

// fig7Table renders Figure 7.
func (l *Lab) fig7Table(ctx context.Context, coreCounts []int) (*Table, error) {
	points, err := l.Fig7(ctx, coreCounts)
	if err != nil {
		return nil, err
	}
	return methodTable(&Table{
		Title: "Figure 7: actual confidence that DIP > LRU (IPCT), measured with the detailed simulator",
		Notes: []string{
			"paper: workload stratification still dominates, though its detailed-sim confidence can be",
			"below the BADCO-estimated one (the approximate simulator is itself a source of error)",
		},
	}, points, "cores", func(c *methodCurve) string { return fmt.Sprint(c.cores) }), nil
}
