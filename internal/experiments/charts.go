package experiments

// Text-chart renderings of the paper's figures (package plot), so
// `mcbench -plot figN` shows the same curves the PDF does. Tables remain
// the precise record; charts give the shape at a glance. Charts are
// wired to their experiments through the registry's Chart hook.

import (
	"context"
	"fmt"
	"math"

	"mcbench/internal/metrics"
	"mcbench/internal/plot"
	"mcbench/internal/stats"
)

func init() {
	Register(Experiment{
		Name:     "profiles",
		Synopsis: "microarchitecture-independent benchmark profiles",
		Group:    GroupExtension,
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return l.ProfileTable(ctx)
		},
	})
}

// metricsAll aliases metrics.All for the chart code.
func metricsAll() []metrics.Metric { return metrics.All() }

// Fig1Chart renders the analytic confidence curve of Figure 1.
func Fig1Chart() string {
	xs, ys := stats.ConfidenceCurve(-2, 2, 40)
	s := plot.Series{Name: "conf", X: xs, Y: ys}
	return plot.Line(plot.Config{
		Title:  "Figure 1: degree of confidence vs (1/cv)·sqrt(W/2)",
		XLabel: "(1/cv)sqrt(W/2)",
		YLabel: "confidence",
		FixedY: true, YMin: 0, YMax: 1,
	}, s)
}

// Fig2Chart renders the CPI scatter of Figure 2 (detailed vs BADCO, all
// core counts pooled; the bisector is perfect agreement).
func (l *Lab) Fig2Chart(ctx context.Context, coreCounts []int) (string, error) {
	results, err := l.Fig2(ctx, coreCounts)
	if err != nil {
		return "", err
	}
	var series []plot.Series
	for _, r := range results {
		s := plot.Series{Name: fmt.Sprintf("%d cores", r.Cores)}
		for _, p := range r.Points {
			s.X = append(s.X, p.BadcoCPI)
			s.Y = append(s.Y, p.DetailCPI)
		}
		series = append(series, s)
	}
	return plot.Scatter(plot.Config{
		Title:  "Figure 2: detailed CPI vs BADCO CPI (diagonal = perfect)",
		XLabel: "BADCO CPI",
		YLabel: "detailed CPI",
		Height: 20,
	}, true, series...), nil
}

// Fig3Chart renders the model-vs-experiment confidence curves.
func (l *Lab) Fig3Chart(ctx context.Context, coreCounts []int) (string, error) {
	points, err := l.Fig3(ctx, coreCounts)
	if err != nil {
		return "", err
	}
	bySeries := map[string]*plot.Series{}
	var order []string
	add := func(name string, w int, y float64) {
		s, ok := bySeries[name]
		if !ok {
			s = &plot.Series{Name: name}
			bySeries[name] = s
			order = append(order, name)
		}
		s.X = append(s.X, float64(w))
		s.Y = append(s.Y, y)
	}
	for _, p := range points {
		add(fmt.Sprintf("%dc-exp", p.Cores), p.SampleSize, p.Empirical)
		add(fmt.Sprintf("%dc-model", p.Cores), p.SampleSize, p.Model)
	}
	series := make([]plot.Series, 0, len(order))
	for _, name := range order {
		series = append(series, plot.SortSeriesByX(*bySeries[name]))
	}
	return plot.Line(plot.Config{
		Title:  "Figure 3: confidence DRRIP>DIP (WSU) vs sample size — experiment vs model",
		XLabel: "sample size (log)",
		YLabel: "confidence",
		LogX:   true,
		FixedY: true, YMin: 0.5, YMax: 1,
		Height: 20,
	}, series...), nil
}

// Fig5Chart renders the grouped 1/cv bars of Figure 5 (population
// column).
func (l *Lab) Fig5Chart(ctx context.Context, cores int) (string, error) {
	rows, err := l.Fig5(ctx, cores)
	if err != nil {
		return "", err
	}
	names := []string{"IPCT", "WSU", "HSU"}
	out := make([]plot.BarGroup, 0, len(rows))
	for _, r := range rows {
		g := plot.BarGroup{Label: fmt.Sprintf("%s>%s", r.Pair[0], r.Pair[1])}
		for _, m := range metricsAll() {
			g.Values = append(g.Values, r.Inv[m])
		}
		out = append(out, g)
	}
	return plot.Bars(plot.Config{
		Title: fmt.Sprintf("Figure 5: 1/cv per policy pair and metric (%d cores, full population)", cores),
		Width: 48,
	}, names, out), nil
}

// Fig6Chart renders the per-pair confidence curves of Figure 6.
func (l *Lab) Fig6Chart(ctx context.Context, cores int) (string, error) {
	points, err := l.Fig6(ctx, cores)
	if err != nil {
		return "", err
	}
	out := ""
	for _, c := range methodCurves(points) {
		var series []plot.Series
		for m, name := range paperMethodNames {
			s := plot.Series{Name: name}
			for j, w := range c.sizes {
				if v := c.conf[j][m]; !math.IsNaN(v) {
					s.X = append(s.X, float64(w))
					s.Y = append(s.Y, v)
				}
			}
			if len(s.X) > 0 {
				series = append(series, s)
			}
		}
		out += plot.Line(plot.Config{
			Title:  fmt.Sprintf("Figure 6 (%s > %s): confidence vs sample size, IPCT, %d cores", c.pair[1], c.pair[0], cores),
			XLabel: "sample size (log)",
			YLabel: "confidence",
			LogX:   true,
			FixedY: true, YMin: 0.5, YMax: 1,
		}, series...)
		out += "\n"
	}
	return out, nil
}

// ProfileTable renders the per-benchmark microarchitecture-independent
// profiles (an extension table backing the clustering methods).
func (l *Lab) ProfileTable(ctx context.Context) (*Table, error) {
	profs, err := l.Profiles(ctx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Extension: microarchitecture-independent benchmark profiles",
		Columns: []string{"benchmark", "load", "store", "branch", "taken",
			"code lines", "data lines", "seq", "log-reuse", "miss@256k"},
		Notes: []string{"features feed the cluster-based selection methods (see `mcbench methods`)"},
	}
	for _, p := range profs {
		t.AddRow(p.Name, f3(p.LoadFrac), f3(p.StoreFrac), f3(p.BranchFrac),
			f3(p.TakenRate), fmt.Sprint(p.CodeLines), fmt.Sprint(p.DataLines),
			f3(p.SeqFrac), f2(p.MeanLogDist), f3(p.MissRatio(1<<12)))
	}
	return t, nil
}
