package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5.5, 1.25, 9, 2, 7.75}, [3]float64{1.625, 5.5, 8.375}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		if m := median(c.xs); m != c.want[1] {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.want[1])
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.25, 25}, {0.01, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	throughput := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	runs := func(base float64, jitter ...float64) []float64 {
		out := make([]float64, len(jitter))
		for i, j := range jitter {
			out[i] = base * (1 + j)
		}
		return out
	}
	steady := []float64{0, 0.01, -0.01, 0.005, -0.005, 0.008, -0.008, 0.002, -0.002, 0.004}
	reversed := slices.Clone(steady)
	slices.Reverse(reversed)
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"gain", runs(100, steady...), runs(106, steady...), "gain"},
		{"too few pairs", runs(100, steady...), runs(100, steady[1:]...), "too few pairs"},
		{"no change", runs(100, steady...), runs(100.5, reversed...), "no change"},
		{"regression", runs(100, steady...), runs(85, steady...), "regression"},
		{"unresolved", runs(100, 0, 0.2, -0.2, 0.1, -0.1, 0.15, -0.15, 0.05, -0.05, 0.12), runs(100, steady...), "unresolved"},
		{"dominant despite spread", runs(100, 0, 0.2, -0.2, 0.1, -0.1, 0.15, -0.15, 0.05, -0.05, 0.12), runs(200, steady...), "gain"},
	} {
		if got := verdict(throughput, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
	latency := metricDef{Name: "op_latency_p50_ms", Better: "lower", Bound: 0.1}
	if got := verdict(latency, runs(100, steady...), runs(120, steady...)); got != "regression" {
		t.Errorf("latency up 20%%: verdict = %q, want regression", got)
	}
}

func TestLayerSharesFixture(t *testing.T) {
	top, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	shares, err := layerShares(string(top))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"badco": 0.25, "cache": 0.25, "uncore": 0.10, "mem": 0.05, "experiments": 0.05,
		"analysis": 0.04, "api": 0.03, "net": 0.07, "serve": 0.02, "results": 0.02,
		"telemetry": 0.02, "runtime": 0.04, "other": 0.03, "trace": 0.02, "cpu": 0.01,
	}
	sum := 0.0
	for _, l := range layers {
		if math.Abs(shares[l.name]-want[l.name]) > 1e-9 {
			t.Errorf("%s share = %v, want %v", l.name, shares[l.name], want[l.name])
		}
		sum += shares[l.name]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mcbench/internal/cache.(*Cache).Probe (inline)": "mcbench/internal/cache",
		"mcbench.(*Client).do":                           "mcbench",
		"runtime.mallocgc":                               "runtime",
		"memeqbody":                                      "runtime",
		"net/http.(*conn).serve":                         "net/http",
		"mcbench/internal/experiments.(*flightGroup[go.shape.int,go.shape.[]int]).do.func1":  "mcbench/internal/experiments",
		"mcbench/internal/experiments.observeRun[go.shape.map[string]*mcbench/internal/x.M]": "mcbench/internal/experiments",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := layerOf("mcbench/internal/newpkg"); got != "other" {
		t.Errorf("an unlisted mcbench package maps to %q, want other", got)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// describes what this program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program measures %d by default", b.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(names, listed) {
		t.Errorf("workloads %v, the program runs %v", listed, names)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v\nthe program prints %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer %+v\nthe program prints %+v", b.PerLayer, perLayer)
	}
}
