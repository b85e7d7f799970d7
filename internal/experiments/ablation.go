package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/sampling"
)

// Ablations of three design choices the selection methods rest on: the
// workload-stratification parameters (WT, TSD), the choice of
// classification for benchmark stratification, and the throughput
// metric. These go beyond the paper's figures but use the same
// machinery.

// ablationSampleSize is the fixed sample size of the two sampling
// ablations (the regime where detailed-simulation budgets live).
const ablationSampleSize = 20

// nearTiePair is this reproduction's near-tie policy pair, DRRIP vs DIP
// (the analogue of the paper's hardest Figure 6 case), which the strata
// ablation and the methods extension measure; classesPair is the
// classification ablation's pair.
var (
	nearTiePair = [2]cache.PolicyName{cache.DIP, cache.DRRIP}
	classesPair = [2]cache.PolicyName{cache.LRU, cache.DRRIP}
)

func init() {
	Register(Experiment{
		Name:     "ablation-strata",
		Synopsis: "WT/TSD sensitivity of workload stratification",
		Group:    GroupExtension,
		Requests: func(l *Lab, p Params) []Request { return l.AblationStrataRequests(p.cores()) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.AblationStrataParams(ctx, p.cores(), ablationSampleSize)
		},
	})
	Register(Experiment{
		Name:     "ablation-classes",
		Synopsis: "value of the MPKI classes for benchmark stratification",
		Group:    GroupExtension,
		Requests: func(l *Lab, p Params) []Request { return l.AblationClassesRequests(p.cores()) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.AblationClassification(ctx, p.cores(), ablationSampleSize)
		},
	})
	Register(Experiment{
		Name:     "ablation-metrics",
		Synopsis: "required sample size per throughput metric (incl. GMSU)",
		Group:    GroupExtension,
		Requests: func(l *Lab, p Params) []Request { return l.AblationMetricsRequests(p.cores()) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.AblationMetricChoice(ctx, p.cores())
		},
	})
}

// AblationStrataRequests declares what AblationStrataParams reads: the
// near-tie pair's BADCO tables and the reference IPCs.
func (l *Lab) AblationStrataRequests(cores int) []Request {
	return append(badcoSet(cores, nearTiePair[:]),
		Request{Sim: SimRef, Cores: cores})
}

// AblationClassesRequests declares what AblationClassification reads:
// its pair's BADCO tables, the reference IPCs and the MPKI classes.
func (l *Lab) AblationClassesRequests(cores int) []Request {
	return append(badcoSet(cores, classesPair[:]),
		Request{Sim: SimRef, Cores: cores},
		Request{Sim: SimMPKI})
}

// AblationMetricsRequests declares what AblationMetricChoice reads:
// every policy's BADCO table (it sweeps all pairs) and the reference
// IPCs.
func (l *Lab) AblationMetricsRequests(cores int) []Request {
	return append(badcoSet(cores, Policies()), Request{Sim: SimRef, Cores: cores})
}

// AblationStrataParams measures, for the near-tie policy pair at a small
// sample size, how the workload-stratification parameters trade stratum
// count against confidence. The paper fixes WT=50, TSD=0.001; this table
// shows the neighbourhood.
func (l *Lab) AblationStrataParams(ctx context.Context, cores, sampleSize int) (*Table, error) {
	d, err := l.Diffs(ctx, cores, metrics.IPCT, nearTiePair[0], nearTiePair[1])
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Ablation: workload-stratification parameters (DRRIP vs DIP, IPCT, %d cores, W=%d)",
			cores, sampleSize),
		Columns: []string{"WT", "TSD", "strata", "confidence", "vs random"},
		Notes: []string{
			"paper's operating point: WT=50, TSD=0.001",
			"too-large TSD collapses to one stratum (= random); too-small WT wastes draws on tiny strata",
		},
	}
	rng := rand.New(rand.NewSource(l.cfg.Seed + 900))
	random := sampling.EmpiricalConfidence(rng, d,
		sampling.NewSimpleRandom(len(d)), sampleSize, l.cfg.Fig6Trials)
	for _, wt := range []int{10, 25, 50, 100} {
		for _, tsd := range []float64{0.0002, 0.001, 0.005, 0.05} {
			s := sampling.NewWorkloadStrata(d, sampling.WorkloadStrataConfig{MinSize: wt, MaxStdDev: tsd})
			conf := sampling.EmpiricalConfidence(rng, d, s, sampleSize, l.cfg.Fig6Trials)
			t.AddRow(fmt.Sprint(wt), fmt.Sprint(tsd), fmt.Sprint(sampling.NumStrata(s)),
				f3(conf), f3(conf-random))
		}
	}
	return t, nil
}

// AblationClassification compares benchmark stratification built from the
// measured MPKI classes against (a) a random class assignment and (b) no
// classes at all (plain random sampling), quantifying how much the
// "authors' intuition" the paper discusses is worth.
func (l *Lab) AblationClassification(ctx context.Context, cores, sampleSize int) (*Table, error) {
	pop := l.Population(cores)
	d, err := l.Diffs(ctx, cores, metrics.IPCT, classesPair[0], classesPair[1])
	if err != nil {
		return nil, err
	}
	classes, err := l.Classes(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Ablation: class definitions for benchmark stratification (DRRIP vs LRU, IPCT, %d cores, W=%d)",
			cores, sampleSize),
		Columns: []string{"classes", "strata", "confidence"},
		Notes: []string{
			"the paper: benchmark stratification helps only to the extent the classes predict behaviour",
		},
	}
	rng := rand.New(rand.NewSource(l.cfg.Seed + 901))
	trials := l.cfg.Fig6Trials

	random := sampling.NewSimpleRandom(len(d))
	t.AddRow("none (random)", "1", f3(sampling.EmpiricalConfidence(rng, d, random, sampleSize, trials)))

	mpki := sampling.NewBenchmarkStrata(pop, classes, sampling.NumClasses)
	t.AddRow("measured MPKI", fmt.Sprint(sampling.NumStrata(mpki)),
		f3(sampling.EmpiricalConfidence(rng, d, mpki, sampleSize, trials)))

	shuffled := append([]int(nil), classes...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	scrambled := sampling.NewBenchmarkStrata(pop, shuffled, sampling.NumClasses)
	t.AddRow("shuffled classes", fmt.Sprint(sampling.NumStrata(scrambled)),
		f3(sampling.EmpiricalConfidence(rng, d, scrambled, sampleSize, trials)))

	return t, nil
}

// AblationMetricChoice shows the paper's Section V-C point numerically:
// the same policy pair needs different random-sample sizes under
// different metrics.
func (l *Lab) AblationMetricChoice(ctx context.Context, cores int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Ablation: required random-sample size per metric (W = 8*cv^2, %d cores)", cores),
		Columns: []string{"pair (X>Y)", "IPCT", "WSU", "HSU", "GMSU"},
		Notes: []string{
			"paper (Sec. V-C): a fixed random sample must be sized for the most demanding metric in use",
		},
	}
	for _, pair := range PolicyPairs() {
		row := []string{fmt.Sprintf("%s>%s", pair[0], pair[1])}
		for _, m := range []metrics.Metric{metrics.IPCT, metrics.WSU, metrics.HSU, metrics.GMSU} {
			d, err := l.Diffs(ctx, cores, m, pair[0], pair[1])
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprint(sampling.RequiredSampleSize(d)))
		}
		t.AddRow(row...)
	}
	return t, nil
}
