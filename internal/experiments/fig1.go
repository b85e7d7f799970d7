package experiments

import (
	"context"

	"mcbench/internal/stats"
)

func init() {
	Register(Experiment{
		Name:     "fig1",
		Synopsis: "confidence vs (1/cv)sqrt(W/2), the analytic model curve",
		Group:    GroupPaper,
		Run: func(ctx context.Context, l *Lab, p Params) (*Table, error) {
			return Fig1(), nil
		},
		Chart: func(ctx context.Context, l *Lab, p Params) (string, error) {
			return Fig1Chart(), nil
		},
	})
}

// Fig1 reproduces Figure 1: the analytic degree of confidence as a
// function of the reduced variable x = (1/cv)·sqrt(W/2) (equation 5).
func Fig1() *Table {
	xs, ys := stats.ConfidenceCurve(-2, 2, 16)
	t := &Table{
		Title:   "Figure 1: confidence vs (1/cv)*sqrt(W/2)  [equation 5]",
		Columns: []string{"x", "confidence"},
		Notes: []string{
			"paper: sigmoid through (0, 0.5), saturating at |x| ~ 2 (erf curve)",
		},
	}
	for i := range xs {
		t.AddRow(f2(xs[i]), f4(ys[i]))
	}
	return t
}
