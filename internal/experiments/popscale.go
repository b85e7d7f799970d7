package experiments

// The population-scaling study: the experiment the hard-wired suite made
// impossible. The paper's machinery (sample from C(B+K-1, K) workload
// combinations, estimate mean policy differences under the CLT) never
// depends on B being 22 — this experiment sweeps B across scaled
// synthetic populations and measures how the difference distribution
// d(w), its coefficient of variation, the W = 8cv² sampling guideline
// and the fixed-budget estimator error respond.
//
// Every point builds its own scaled:B source (derived from the campaign
// seed), runs a child Lab over it — so products memoize and persist per
// source identity, never colliding with the main campaign — and resolves
// traces lazily: each benchmark's trace exists only while its BADCO
// model builds, which is what lets B=128 run on a small host.

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/stats"
	"mcbench/internal/workload"
)

func init() {
	Register(Experiment{
		Name:     "population-scaling",
		Synopsis: "estimator error vs benchmark-population size B (scaled sources)",
		Group:    GroupExtension,
		// No Requests: each point runs in its own child Lab over its own
		// scaled source, so the products are not expressible as this
		// lab's warm plan; the child labs memoize (and persist) their
		// own sweeps keyed by source identity.
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.popScalingTable(ctx, p.cores())
		},
	})
}

// popScaleSampleN is the fixed detailed-budget sample size whose
// estimator error the study tracks across B (the "30 workloads is a
// practical budget" regime of the paper's Section V).
const popScaleSampleN = 30

// PopScalePoint is one B of the population-scaling sweep.
type PopScalePoint struct {
	B          int
	Population uint64 // C(B+K-1, K), saturating
	Exact      bool   // false when Population saturated uint64
	Sampled    int    // workloads actually swept
	MeanD      float64
	CV         float64 // coefficient of variation of d(w)
	W          int     // recommended sample size 8cv² (equation 8)
	Err95      float64 // p95 relative error of the N=30 estimator
	Resident   int     // traces still resident after the point completed
}

// PopScaling sweeps the configured PopScaleBs. For each B it derives a
// scaled:B source from the campaign seed, samples PopScaleSample
// workloads of the given core count, sweeps them with BADCO under LRU
// and DRRIP, and reduces the IPCT difference distribution. When the
// lab's own source is itself scaled, the sweep is capped at its B (so
// `-suite scaled:64 population-scaling` studies sizes up to 64).
func (l *Lab) PopScaling(ctx context.Context, cores int) ([]PopScalePoint, error) {
	bs := l.cfg.PopScaleBs
	if len(bs) == 0 {
		bs = DefaultConfig().PopScaleBs
	}
	maxB := 0
	if sc, ok := l.src.(*bench.ScaledSource); ok {
		maxB = sc.B()
	}
	if maxB > 0 {
		capped := bs[:0:0]
		for _, b := range bs {
			if b <= maxB {
				capped = append(capped, b)
			}
		}
		if len(capped) == 0 {
			// Every configured point exceeds the source: study the
			// source's own size rather than printing an empty table.
			capped = []int{maxB}
		}
		bs = capped
	}
	var out []PopScalePoint
	for _, b := range bs {
		pt, err := l.popScalePoint(ctx, b, cores)
		if err != nil {
			return nil, fmt.Errorf("experiments: population-scaling B=%d: %w", b, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// popScalePoint measures one B.
func (l *Lab) popScalePoint(ctx context.Context, b, cores int) (PopScalePoint, error) {
	src, err := bench.NewScaled(b, l.cfg.Seed)
	if err != nil {
		return PopScalePoint{}, err
	}
	sub := l.cfg
	sub.Source = src
	sub.PopLimit = l.cfg.PopScaleSample
	if sub.PopLimit <= 0 {
		sub.PopLimit = DefaultConfig().PopScaleSample
	}
	// The core-count-specific population knobs take precedence over
	// PopLimit; zero them so every point samples exactly PopScaleSample
	// workloads whatever the core count.
	sub.Pop4Limit = 0
	sub.Pop8Size = 0
	// The child lab shares the persistent cache directory (tables are
	// keyed by source identity, so nothing collides) but nothing else.
	child := NewLab(sub)

	x, err := child.BadcoIPC(ctx, cores, cache.LRU)
	if err != nil {
		return PopScalePoint{}, err
	}
	y, err := child.BadcoIPC(ctx, cores, cache.DRRIP)
	if err != nil {
		return PopScalePoint{}, err
	}
	m := metrics.IPCT
	d := m.Diffs(m.Throughputs(x, nil), m.Throughputs(y, nil))

	mean := stats.Mean(d)
	cv := stats.CoefVar(d)

	// Monte-Carlo: the p95 relative error of the mean-difference
	// estimate from popScaleSampleN workloads drawn with replacement.
	rng := rand.New(rand.NewSource(l.cfg.Seed + 31000 + int64(b)))
	trials := l.cfg.Fig3Trials
	if trials <= 0 {
		trials = 300
	}
	errs := make([]float64, trials)
	for t := range errs {
		var s float64
		for j := 0; j < popScaleSampleN; j++ {
			s += d[rng.Intn(len(d))]
		}
		errs[t] = math.Abs(s/popScaleSampleN - mean)
	}
	err95 := stats.Quantile(errs, 0.95)
	if mean != 0 {
		err95 /= math.Abs(mean)
	} else {
		err95 = math.Inf(1)
	}

	size, exact := workload.PopulationSize(b, cores)
	return PopScalePoint{
		B:          b,
		Population: size,
		Exact:      exact,
		Sampled:    len(d),
		MeanD:      mean,
		CV:         cv,
		W:          stats.RequiredSampleSize(cv),
		Err95:      err95,
		Resident:   bench.Resident(src),
	}, nil
}

// popScalingTable renders the sweep.
func (l *Lab) popScalingTable(ctx context.Context, cores int) (*Table, error) {
	points, err := l.PopScaling(ctx, cores)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Extension: estimator error vs benchmark-population size B (LRU vs DRRIP, IPCT, %d cores)", cores),
		Columns: []string{"B", "population", "sampled", "mean d", "cv",
			"W=8cv^2", fmt.Sprintf("p95 err@%d", popScaleSampleN), "resident"},
		Notes: []string{
			"each B is an independent scaled:B source derived from the campaign seed;",
			"traces resolve lazily and are released after BADCO model building,",
			"so the resident column stays at 0 instead of B",
		},
	}
	for _, p := range points {
		pop := fmt.Sprint(p.Population)
		if !p.Exact {
			pop = ">1.8e19"
		}
		t.AddRow(fmt.Sprint(p.B), pop, fmt.Sprint(p.Sampled),
			f4(p.MeanD), f2(p.CV), fmt.Sprint(p.W), f3(p.Err95),
			fmt.Sprintf("%d/%d", p.Resident, p.B))
	}
	return t, nil
}
