package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/stats"
)

// The paper closes with an open problem: "the problem of defining
// workload samples that provide accurate speedups with high probability
// is still open" (Section VIII). This extension measures it directly:
// instead of asking whether a sample ranks two microarchitectures
// correctly (a sign question), it asks how accurately the sample
// estimates the throughput ratio T_Y / T_X (a magnitude question), for
// each sampling method.

func init() {
	Register(Experiment{
		Name:     "speedup",
		Synopsis: "accuracy of sample speedup estimates (paper's open problem)",
		Group:    GroupExtension,
		Requests: func(l *Lab, p Params) []Request { return l.SpeedupRequests(p.cores()) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.speedupAccuracyTable(ctx, p.cores())
		},
	})
}

// SpeedupAccuracyPoint is one (method, sample size) accuracy measurement.
type SpeedupAccuracyPoint struct {
	Method     string
	SampleSize int
	// MeanAbsErr is the mean |Ŝ - S| / S over the Monte-Carlo trials,
	// where S is the population speedup and Ŝ the sample estimate.
	MeanAbsErr float64
	// P95AbsErr is the 95th percentile of the same error.
	P95AbsErr float64
}

// SpeedupAccuracy measures, for a policy pair and metric, the relative
// error of the sample speedup estimate under each sampling method.
// Strata for the workload-stratification method are built from the d(w)
// differences, as in Figure 6 — which is exactly what makes this an open
// problem: strata optimised for the *sign* of D are not necessarily
// optimal for the *magnitude* of the ratio.
func (l *Lab) SpeedupAccuracy(ctx context.Context, cores int, m metrics.Metric, x, y cache.PolicyName, sizes []int, trials int) ([]SpeedupAccuracyPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{10, 30, 100}
	}
	if trials <= 0 {
		trials = l.cfg.Fig6Trials
	}
	pop := l.Population(cores)
	ref, err := l.RefTable(ctx, cores)
	if err != nil {
		return nil, err
	}
	ipcX, err := l.BadcoIPC(ctx, cores, x)
	if err != nil {
		return nil, err
	}
	ipcY, err := l.BadcoIPC(ctx, cores, y)
	if err != nil {
		return nil, err
	}
	classes, err := l.Classes(ctx)
	if err != nil {
		return nil, err
	}
	tX := m.Throughputs(ipcX, ref)
	tY := m.Throughputs(ipcY, ref)
	d := m.Diffs(tX, tY)

	popSpeedup := m.Sample(tY) / m.Sample(tX)

	samplers := paperMethods(pop, l.isFullPopulation(pop.Size(), cores), classes, d)

	var out []SpeedupAccuracyPoint
	var idx []int
	var weights, sx, sy []float64
	for si, s := range samplers {
		rng := rand.New(rand.NewSource(l.cfg.Seed + 1000 + int64(si)))
		for _, w := range sizes {
			if w > len(d) {
				break
			}
			errs := make([]float64, trials)
			for tr := 0; tr < trials; tr++ {
				idx, weights = s.Draw(rng, w, idx[:0], weights[:0])
				sx, sy = sx[:0], sy[:0]
				for _, j := range idx {
					sx = append(sx, tX[j])
					sy = append(sy, tY[j])
				}
				est := m.WeightedSample(sy, weights) / m.WeightedSample(sx, weights)
				errs[tr] = math.Abs(est-popSpeedup) / popSpeedup
			}
			out = append(out, SpeedupAccuracyPoint{
				Method:     s.Name(),
				SampleSize: w,
				MeanAbsErr: stats.Mean(errs),
				P95AbsErr:  percentile95(errs),
			})
		}
	}
	return out, nil
}

func percentile95(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	idx := int(float64(len(cp)-1) * 0.95)
	return cp[idx]
}

// SpeedupRequests declares the tables SpeedupAccuracy reads: the BADCO
// tables of its two pairs, the reference IPCs (WSU) and the MPKI
// classification behind benchmark stratification.
func (l *Lab) SpeedupRequests(cores int) []Request {
	pols := []cache.PolicyName{cache.DIP, cache.DRRIP, cache.LRU, cache.FIFO}
	return append(badcoSet(cores, pols),
		Request{Sim: SimRef, Cores: cores},
		Request{Sim: SimMPKI})
}

// speedupAccuracyTable renders the extension for the near-tie pair (DRRIP
// vs DIP) and a decisive pair (DRRIP vs LRU) under the WSU metric.
func (l *Lab) speedupAccuracyTable(ctx context.Context, cores int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Extension (paper Sec. VIII open problem): speedup-estimate accuracy (WSU, %d cores)", cores),
		Columns: []string{"pair (X,Y)", "method", "W", "mean |err| %", "p95 |err| %"},
		Notes: []string{
			"the paper's stratification targets the SIGN of the difference; this measures the MAGNITUDE",
			"of the estimated speedup T_Y/T_X against the population value",
		},
	}
	for _, pair := range [][2]cache.PolicyName{
		{cache.DIP, cache.DRRIP},
		{cache.LRU, cache.FIFO},
	} {
		pts, err := l.SpeedupAccuracy(ctx, cores, metrics.WSU, pair[0], pair[1], []int{10, 30, 100}, 0)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			t.AddRow(fmt.Sprintf("%s,%s", pair[0], pair[1]), p.Method,
				fmt.Sprint(p.SampleSize), f2(p.MeanAbsErr*100), f2(p.P95AbsErr*100))
		}
	}
	return t, nil
}
