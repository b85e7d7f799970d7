package plot

import (
	"math"
	"strings"
	"testing"
)

func confidenceCurve() Series {
	s := Series{Name: "model"}
	for w := 10; w <= 800; w *= 2 {
		s.X = append(s.X, float64(w))
		s.Y = append(s.Y, 1-math.Exp(-float64(w)/100))
	}
	return s
}

func TestLineBasicStructure(t *testing.T) {
	out := Line(Config{Title: "confidence", XLabel: "sample size", YLabel: "conf", LogX: true},
		confidenceCurve())
	if !strings.Contains(out, "confidence") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "sample size") || !strings.Contains(out, "conf") {
		t.Error("axis labels missing")
	}
	if !strings.Contains(out, "legend: * model") {
		t.Error("legend missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + height rows + axis + xlabels + ylabel + legend
	if len(lines) != 1+16+1+1+1+1 {
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "*") {
		t.Error("no data markers plotted")
	}
}

func TestLineMultiSeriesMarkers(t *testing.T) {
	a := confidenceCurve()
	b := confidenceCurve()
	b.Name = "experiment"
	for i := range b.Y {
		b.Y[i] *= 0.9
	}
	out := Line(Config{}, a, b)
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("series markers missing")
	}
	if !strings.Contains(out, "* model") || !strings.Contains(out, "o experiment") {
		t.Errorf("legend incomplete:\n%s", out)
	}
}

func TestLineEmpty(t *testing.T) {
	if out := Line(Config{}); !strings.Contains(out, "empty") {
		t.Errorf("empty plot output: %q", out)
	}
}

func TestLineFixedYRange(t *testing.T) {
	s := Series{Name: "s", X: []float64{1, 2}, Y: []float64{0.5, 0.6}}
	out := Line(Config{FixedY: true, YMin: 0, YMax: 1, Height: 10}, s)
	if !strings.Contains(out, "1") || !strings.Contains(out, "0") {
		t.Errorf("fixed axis bounds not rendered:\n%s", out)
	}
}

func TestScatterBisector(t *testing.T) {
	s := Series{Name: "cpi", X: []float64{1, 2, 3, 4}, Y: []float64{1.1, 1.9, 3.2, 4.0}}
	out := Scatter(Config{Title: "fig2"}, true, s)
	if !strings.Contains(out, "\\") {
		t.Error("bisector missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("points missing")
	}
}

func TestBarsNegativeAndPositive(t *testing.T) {
	out := Bars(Config{Title: "1/cv"}, []string{"IPCT", "WSU"}, []BarGroup{
		{Label: "LRU>RND", Values: []float64{0.8, 0.9}},
		{Label: "LRU>DIP", Values: []float64{-0.2, -0.1}},
	})
	if !strings.Contains(out, "LRU>RND") || !strings.Contains(out, "LRU>DIP") {
		t.Error("group labels missing")
	}
	if !strings.Contains(out, "IPCT") || !strings.Contains(out, "WSU") {
		t.Error("series names missing")
	}
	if !strings.Contains(out, "0.800") || !strings.Contains(out, "-0.200") {
		t.Errorf("values missing:\n%s", out)
	}
	// Zero axis marker present on every bar row.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "IPCT") && !strings.Contains(line, "|") {
			t.Errorf("bar row without zero axis: %q", line)
		}
	}
}

func TestSortSeriesByX(t *testing.T) {
	s := Series{Name: "s", X: []float64{3, 1, 2}, Y: []float64{30, 10, 20}}
	got := SortSeriesByX(s)
	for i, wantX := range []float64{1, 2, 3} {
		if got.X[i] != wantX || got.Y[i] != wantX*10 {
			t.Fatalf("sorted = %v/%v", got.X, got.Y)
		}
	}
	// Original untouched.
	if s.X[0] != 3 {
		t.Error("SortSeriesByX mutated input")
	}
}

func TestScaleClamps(t *testing.T) {
	if scale(-5, 0, 10, 63) != 0 {
		t.Error("below-range not clamped to 0")
	}
	if scale(50, 0, 10, 63) != 63 {
		t.Error("above-range not clamped to max")
	}
	if scale(5, 0, 10, 10) != 5 {
		t.Error("midpoint wrong")
	}
}

func TestLogXHandlesNonPositive(t *testing.T) {
	s := Series{Name: "s", X: []float64{0, 10, 100}, Y: []float64{1, 2, 3}}
	out := Line(Config{LogX: true}, s)
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("log axis produced NaN/Inf:\n%s", out)
	}
}
