// Package plot renders the paper's figures as monospace text charts.
// The experiments (package experiments) compute the data; this
// package makes `mcbench figN` output directly comparable to the figures
// in the PDF: line charts for the confidence curves (Figures 1, 3, 6, 7),
// a scatter for the CPI correlation (Figure 2) and grouped bars for the
// 1/cv comparisons (Figures 4 and 5).
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one named line of (X, Y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Config controls chart geometry.
type Config struct {
	Width  int // plot area columns (default 64)
	Height int // plot area rows (default 16)
	Title  string
	XLabel string
	YLabel string
	LogX   bool // logarithmic x axis (sample-size axes in the paper)
	YMin   float64
	YMax   float64
	FixedY bool // use YMin/YMax instead of data range
}

func (c *Config) defaults() {
	if c.Width <= 0 {
		c.Width = 64
	}
	if c.Height <= 0 {
		c.Height = 16
	}
}

// markers cycles per series.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Line renders a multi-series line chart.
func Line(cfg Config, series ...Series) string {
	cfg.defaults()
	var xs, ys []float64
	for _, s := range series {
		for i := range s.X {
			xs = append(xs, txX(cfg, s.X[i]))
			ys = append(ys, s.Y[i])
		}
	}
	if len(xs) == 0 {
		return "(empty plot)\n"
	}
	xmin, xmax := minMax(xs)
	ymin, ymax := minMax(ys)
	if cfg.FixedY {
		ymin, ymax = cfg.YMin, cfg.YMax
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := newGrid(cfg.Width, cfg.Height)
	for si, s := range series {
		m := markers[si%len(markers)]
		var prevC, prevR int
		havePrev := false
		for i := range s.X {
			c := scale(txX(cfg, s.X[i]), xmin, xmax, cfg.Width-1)
			r := cfg.Height - 1 - scale(s.Y[i], ymin, ymax, cfg.Height-1)
			if r < 0 || r >= cfg.Height {
				havePrev = false
				continue
			}
			if havePrev {
				grid.segment(prevC, prevR, c, r, '.')
			}
			grid.set(c, r, m)
			prevC, prevR, havePrev = c, r, true
		}
	}
	return render(cfg, grid, xmin, xmax, ymin, ymax, legend(series))
}

// Scatter renders an (X, Y) point cloud; when bisector is set, the y=x
// diagonal is drawn (Figure 2 compares simulator CPIs against it).
func Scatter(cfg Config, bisector bool, series ...Series) string {
	cfg.defaults()
	var all []float64
	for _, s := range series {
		all = append(all, s.X...)
		all = append(all, s.Y...)
	}
	if len(all) == 0 {
		return "(empty plot)\n"
	}
	lo, hi := minMax(all)
	if hi == lo {
		hi = lo + 1
	}
	grid := newGrid(cfg.Width, cfg.Height)
	if bisector {
		for c := 0; c < cfg.Width; c++ {
			v := lo + (hi-lo)*float64(c)/float64(cfg.Width-1)
			r := cfg.Height - 1 - scale(v, lo, hi, cfg.Height-1)
			grid.set(c, r, '\\')
		}
	}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			c := scale(s.X[i], lo, hi, cfg.Width-1)
			r := cfg.Height - 1 - scale(s.Y[i], lo, hi, cfg.Height-1)
			grid.set(c, r, m)
		}
	}
	return render(cfg, grid, lo, hi, lo, hi, legend(series))
}

// BarGroup is one labelled group of bars (e.g. one policy pair), with one
// value per series (e.g. one per metric).
type BarGroup struct {
	Label  string
	Values []float64
}

// Bars renders horizontally labelled grouped bars, with negative values
// extending left of the zero axis — the shape of Figures 4 and 5.
func Bars(cfg Config, seriesNames []string, groups []BarGroup) string {
	cfg.defaults()
	var all []float64
	for _, g := range groups {
		all = append(all, g.Values...)
	}
	if len(all) == 0 {
		return "(empty plot)\n"
	}
	lo, hi := minMax(all)
	if lo > 0 {
		lo = 0
	}
	if hi < 0 {
		hi = 0
	}
	if hi == lo {
		hi = lo + 1
	}
	span := hi - lo
	zero := scale(0, lo, hi, cfg.Width-1)

	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	labelW := 0
	for _, g := range groups {
		if len(g.Label) > labelW {
			labelW = len(g.Label)
		}
	}
	for _, g := range groups {
		for si, v := range g.Values {
			label := ""
			if si == 0 {
				label = g.Label
			}
			row := make([]byte, cfg.Width)
			for i := range row {
				row[i] = ' '
			}
			row[zero] = '|'
			pos := scale(v, lo, hi, cfg.Width-1)
			m := markers[si%len(markers)]
			if pos >= zero {
				for c := zero + 1; c <= pos; c++ {
					row[c] = m
				}
			} else {
				for c := pos; c < zero; c++ {
					row[c] = m
				}
			}
			fmt.Fprintf(&b, "%-*s %s %8.3f %s\n", labelW, label, string(row), v, seriesNames[si%len(seriesNames)])
		}
	}
	fmt.Fprintf(&b, "%-*s %s\n", labelW, "", axisLine(lo, hi, cfg.Width))
	fmt.Fprintf(&b, "scale: %.3g .. %.3g (span %.3g)\n", lo, hi, span)
	return b.String()
}

// ---------------------------------------------------------------------------

type charGrid struct {
	w, h  int
	cells []byte
}

func newGrid(w, h int) *charGrid {
	g := &charGrid{w: w, h: h, cells: make([]byte, w*h)}
	for i := range g.cells {
		g.cells[i] = ' '
	}
	return g
}

func (g *charGrid) set(c, r int, m byte) {
	if c < 0 || c >= g.w || r < 0 || r >= g.h {
		return
	}
	g.cells[r*g.w+c] = m
}

// segment draws a shallow connector between consecutive points so lines
// read as lines; data markers overwrite it.
func (g *charGrid) segment(c0, r0, c1, r1 int, m byte) {
	steps := abs(c1-c0) + abs(r1-r0)
	if steps == 0 {
		return
	}
	for s := 1; s < steps; s++ {
		c := c0 + (c1-c0)*s/steps
		r := r0 + (r1-r0)*s/steps
		if g.cells[r*g.w+c] == ' ' {
			g.set(c, r, m)
		}
	}
}

func (g *charGrid) row(r int) string { return string(g.cells[r*g.w : (r+1)*g.w]) }

func render(cfg Config, g *charGrid, xmin, xmax, ymin, ymax float64, legend string) string {
	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	ylab := cfg.YLabel
	for r := 0; r < g.h; r++ {
		yv := ymax - (ymax-ymin)*float64(r)/float64(g.h-1)
		tag := ""
		if r == 0 || r == g.h-1 || r == g.h/2 {
			tag = fmt.Sprintf("%8.3g", yv)
		}
		fmt.Fprintf(&b, "%8s |%s\n", tag, g.row(r))
	}
	fmt.Fprintf(&b, "%8s +%s\n", "", strings.Repeat("-", g.w))
	lo, hi := xmin, xmax
	if cfg.LogX {
		lo, hi = math.Exp(xmin), math.Exp(xmax)
	}
	fmt.Fprintf(&b, "%8s  %-*.4g%*.4g  %s\n", "", g.w/2, lo, g.w/2, hi, cfg.XLabel)
	if ylab != "" {
		fmt.Fprintf(&b, "y: %s\n", ylab)
	}
	if legend != "" {
		fmt.Fprintf(&b, "%s\n", legend)
	}
	return b.String()
}

func legend(series []Series) string {
	if len(series) == 0 {
		return ""
	}
	parts := make([]string, len(series))
	for i, s := range series {
		parts[i] = fmt.Sprintf("%c %s", markers[i%len(markers)], s.Name)
	}
	return "legend: " + strings.Join(parts, "   ")
}

func axisLine(lo, hi float64, width int) string {
	row := make([]byte, width)
	for i := range row {
		row[i] = '-'
	}
	row[scale(0, lo, hi, width-1)] = '+'
	return string(row)
}

func txX(cfg Config, x float64) float64 {
	if cfg.LogX {
		if x <= 0 {
			return math.Log(1e-9)
		}
		return math.Log(x)
	}
	return x
}

func scale(v, lo, hi float64, max int) int {
	p := int(math.Round((v - lo) / (hi - lo) * float64(max)))
	if p < 0 {
		p = 0
	}
	if p > max {
		p = max
	}
	return p
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// SortSeriesByX returns a copy of s with points sorted by X (line charts
// assume ascending X).
func SortSeriesByX(s Series) Series {
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	out := Series{Name: s.Name, X: make([]float64, len(s.X)), Y: make([]float64, len(s.Y))}
	for i, j := range idx {
		out.X[i], out.Y[i] = s.X[j], s.Y[j]
	}
	return out
}
