package experiments

import (
	"context"
	"fmt"

	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/stats"
)

func init() {
	Register(Experiment{
		Name:     "fig4",
		Synopsis: "1/cv per policy pair x metric: samples vs population (4 cores)",
		Group:    GroupPaper,
		Requests: func(l *Lab, p Params) []Request { return l.Fig4Requests(p.cores()) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.fig4Table(ctx, p.cores())
		},
	})
	Register(Experiment{
		Name:     "fig5",
		Synopsis: "1/cv on the full population per metric",
		Group:    GroupPaper,
		Requests: func(l *Lab, p Params) []Request { return l.Fig5Requests(p.cores()) },
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.fig5Table(ctx, p.cores())
		},
		Chart: func(ctx context.Context, l *Lab, p Params) (string, error) {
			return l.Fig5Chart(ctx, p.cores())
		},
	})
}

// Fig4Row is one policy pair's 1/cv triple for one metric.
type Fig4Row struct {
	Pair     [2]cache.PolicyName
	Metric   metrics.Metric
	DetS     float64 // detailed simulator, workload sample
	BadcoS   float64 // BADCO, same sample
	BadcoPop float64 // BADCO, full population
}

// Fig4 reproduces Figure 4 (4 cores): for each of the 10 policy pairs and
// each metric, the inverse coefficient of variation 1/cv of d(w) measured
// three ways — with the detailed simulator on the workload sample, with
// BADCO on the same sample, and with BADCO on the full population. The
// sign says which policy wins; |1/cv| says how decisively.
func (l *Lab) Fig4(ctx context.Context, cores int) ([]Fig4Row, error) {
	sample := l.DetSample(cores)
	var rows []Fig4Row
	for _, m := range metrics.All() {
		for _, pair := range PolicyPairs() {
			det, err := l.DetailedDiffs(ctx, cores, m, pair[0], pair[1])
			if err != nil {
				return nil, err
			}
			badcoS, err := l.BadcoDiffsAt(ctx, cores, m, pair[0], pair[1], sample)
			if err != nil {
				return nil, err
			}
			badcoPop, err := l.Diffs(ctx, cores, m, pair[0], pair[1])
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig4Row{
				Pair:     pair,
				Metric:   m,
				DetS:     stats.InvCoefVar(det),
				BadcoS:   stats.InvCoefVar(badcoS),
				BadcoPop: stats.InvCoefVar(badcoPop),
			})
		}
	}
	return rows, nil
}

// Fig4Requests declares the tables Fig4 reads: every policy with both
// simulators plus the reference IPCs.
func (l *Lab) Fig4Requests(cores int) []Request {
	plan := badcoSet(cores, Policies())
	plan = append(plan, detailedSet(cores, Policies())...)
	return append(plan, Request{Sim: SimRef, Cores: cores})
}

// fig4Table renders Figure 4.
func (l *Lab) fig4Table(ctx context.Context, cores int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Figure 4: 1/cv per policy pair and metric (%d cores) — detailed sample vs BADCO sample vs BADCO population", cores),
		Columns: []string{"metric", "pair (X>Y)", "1/cv det-sample", "1/cv BADCO-sample", "1/cv BADCO-pop"},
		Notes: []string{
			"positive: Y wins; negative: X wins (d = tY - tX)",
			"paper: LRU >> FIFO/RND (|1/cv| ~ 1); LRU vs DIP nearly tied (|1/cv| << 1); sample and population estimates agree in sign",
		},
	}
	rows, err := l.Fig4(ctx, cores)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.AddRow(r.Metric.String(), fmt.Sprintf("%s>%s", r.Pair[0], r.Pair[1]),
			f3(r.DetS), f3(r.BadcoS), f3(r.BadcoPop))
	}
	return t, nil
}

// Fig5Row is one policy pair's population 1/cv per metric.
type Fig5Row struct {
	Pair [2]cache.PolicyName
	Inv  map[metrics.Metric]float64
}

// Fig5 reproduces Figure 5: 1/cv on the full population (4 cores) for the
// three throughput metrics.
func (l *Lab) Fig5(ctx context.Context, cores int) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, pair := range PolicyPairs() {
		inv := make(map[metrics.Metric]float64, 3)
		for _, m := range metrics.All() {
			d, err := l.Diffs(ctx, cores, m, pair[0], pair[1])
			if err != nil {
				return nil, err
			}
			inv[m] = stats.InvCoefVar(d)
		}
		rows = append(rows, Fig5Row{Pair: pair, Inv: inv})
	}
	return rows, nil
}

// Fig5Requests declares the tables Fig5 reads: every policy's BADCO
// table plus the reference IPCs.
func (l *Lab) Fig5Requests(cores int) []Request {
	return append(badcoSet(cores, Policies()), Request{Sim: SimRef, Cores: cores})
}

// fig5Table renders Figure 5.
func (l *Lab) fig5Table(ctx context.Context, cores int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Figure 5: 1/cv on the full population (%d cores), per metric", cores),
		Columns: []string{"pair (X>Y)", "IPCT", "WSU", "HSU", "same sign"},
		Notes: []string{
			"paper: all 3 metrics rank policies identically (signs agree) but |1/cv| differs across metrics,",
			"so different metrics may require different sample sizes (e.g. RND vs FIFO: ~0.4 IPCT vs ~0.5 HSU)",
		},
	}
	rows, err := l.Fig5(ctx, cores)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		same := "yes"
		if !sameSign(r.Inv[metrics.IPCT], r.Inv[metrics.WSU], r.Inv[metrics.HSU]) {
			same = "NO"
		}
		t.AddRow(fmt.Sprintf("%s>%s", r.Pair[0], r.Pair[1]),
			f3(r.Inv[metrics.IPCT]), f3(r.Inv[metrics.WSU]), f3(r.Inv[metrics.HSU]), same)
	}
	return t, nil
}

func sameSign(vs ...float64) bool {
	pos, neg := 0, 0
	for _, v := range vs {
		if v > 0 {
			pos++
		}
		if v < 0 {
			neg++
		}
	}
	return pos == len(vs) || neg == len(vs)
}
