package experiments

// The selection-method study of the paper's Section VI: four ways to
// choose a workload sample — simple random, balanced random, benchmark
// stratification and workload stratification — each measured by its
// empirical degree of confidence at a range of sample sizes. Figures 6
// and 7 and the methods and speedup extensions build their methods with
// paperMethods, and all but speedup measure them with methodSweep; both
// figure tables and the Figure 6 chart render through methodCurves.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"mcbench/internal/cache"
	"mcbench/internal/sampling"
	"mcbench/internal/workload"
)

// paperMethodNames are the paper's four selection methods, in the order
// the figures draw them: the names of paperMethods' samplers.
var paperMethodNames = []string{"random", "bal-random", "bench-strata", "workload-strata"}

// MethodPoint is one confidence measurement of a selection-method study:
// the share of Trials Monte-Carlo draws of SampleSize workloads, chosen
// by Method, whose sample says Pair[1] beats Pair[0] at Cores cores.
type MethodPoint struct {
	Pair       [2]cache.PolicyName
	Cores      int
	Method     string
	SampleSize int
	Confidence float64
	Trials     int
}

// paperMethods builds the paper's four selection methods over pop, in
// paperMethodNames order: simple random, balanced random (only when pop
// is the full population), benchmark stratification over the benchmark
// classes, and workload stratification with the paper's parameters
// (TSD = 0.001, WT = 50) over d, the per-workload differences of pop the
// strata are built from.
func paperMethods(pop *workload.Population, full bool, classes []int, d []float64) []sampling.Sampler {
	out := []sampling.Sampler{sampling.NewSimpleRandom(len(d))}
	if full {
		out = append(out, sampling.NewBalancedRandom(pop))
	}
	return append(out,
		sampling.NewBenchmarkStrata(pop, classes, sampling.NumClasses),
		sampling.NewWorkloadStrata(d, sampling.DefaultWorkloadStrataConfig()))
}

// methodSweep measures each sampler's empirical confidence on d at every
// sample size up to len(d), over curve.Trials draws per point; curve
// also names the pair and core count the points carry. Sampler i draws
// from its own rng, seeded seedBase+i, so each study keeps its seeds.
func methodSweep(curve MethodPoint, d []float64, samplers []sampling.Sampler, seedBase int64, sizes []int) []MethodPoint {
	var out []MethodPoint
	for si, s := range samplers {
		rng := rand.New(rand.NewSource(seedBase + int64(si)))
		for _, w := range sizes {
			if w > len(d) {
				break
			}
			p := curve
			p.Method, p.SampleSize = s.Name(), w
			p.Confidence = sampling.EmpiricalConfidence(rng, d, s, w, curve.Trials)
			out = append(out, p)
		}
	}
	return out
}

// methodCurve is one curve of a study, pivoted for rendering: the
// confidence of each paper method (conf[size][method], methods in
// paperMethodNames order, NaN where the method did not run) at each
// sample size, for one policy pair at one core count.
type methodCurve struct {
	pair  [2]cache.PolicyName
	cores int
	sizes []int
	conf  [][]float64
}

// methodCurves pivots a study's points into its curves, in order of
// first appearance, and each curve's sample sizes likewise.
func methodCurves(points []MethodPoint) []*methodCurve {
	var curves []*methodCurve
	for _, p := range points {
		i := slices.IndexFunc(curves, func(c *methodCurve) bool { return c.pair == p.Pair && c.cores == p.Cores })
		if i < 0 {
			i = len(curves)
			curves = append(curves, &methodCurve{pair: p.Pair, cores: p.Cores})
		}
		c := curves[i]
		j := slices.Index(c.sizes, p.SampleSize)
		if j < 0 {
			j = len(c.sizes)
			c.sizes = append(c.sizes, p.SampleSize)
			row := make([]float64, len(paperMethodNames))
			for m := range row {
				row[m] = math.NaN()
			}
			c.conf = append(c.conf, row)
		}
		if m := slices.Index(paperMethodNames, p.Method); m >= 0 {
			c.conf[j][m] = p.Confidence
		}
	}
	return curves
}

// methodTable fills t with a study's curves: columns curveCol, "W" and
// the paper methods, and one row per (curve, sample size), its first
// cell the curve's name and "n/a" where a method did not run.
func methodTable(t *Table, points []MethodPoint, curveCol string, name func(*methodCurve) string) *Table {
	t.Columns = append([]string{curveCol, "W"}, paperMethodNames...)
	for _, c := range methodCurves(points) {
		for j, w := range c.sizes {
			row := []string{name(c), fmt.Sprint(w)}
			for _, v := range c.conf[j] {
				if math.IsNaN(v) {
					row = append(row, "n/a")
				} else {
					row = append(row, f3(v))
				}
			}
			t.AddRow(row...)
		}
	}
	return t
}
