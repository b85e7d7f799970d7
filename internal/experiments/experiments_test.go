package experiments

import (
	"context"
	"flag"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"mcbench/internal/cache"
	"mcbench/internal/metrics"
	"mcbench/internal/sampling"
	"mcbench/internal/stats"
)

// tctx is the background context of tests that do not exercise
// cancellation.
var tctx = context.Background()

// must unwraps a (value, error) pair in tests; an error fails the test
// via panic (which the testing runner reports with a stack).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// sharedLab caches one quick lab across tests (population sweeps are the
// expensive part; the lab memoizes them). It persists its products to
// sharedCacheDir, so the fresh labs of runFresh load them instead of
// sweeping again.
var (
	labOnce        sync.Once
	sharedLab      *Lab
	sharedCacheDir string
)

func TestMain(m *testing.M) {
	code := m.Run()
	if sharedCacheDir != "" {
		os.RemoveAll(sharedCacheDir)
	}
	os.Exit(code)
}

// testPlan is every memoized product the test suite reads: the paper
// experiments at 2 cores plus the extension experiments at 4. Warming it
// up front builds distinct tables concurrently (bounded by GOMAXPROCS),
// so the package's wall-clock approaches the cost of its slowest single
// table instead of the sum of all of them.
func testPlan(l *Lab) []Request {
	var plan []Request
	plan = append(plan, l.Fig2Requests([]int{2})...)
	plan = append(plan, l.Fig3Requests([]int{2})...)
	plan = append(plan, l.Fig4Requests(2)...)
	plan = append(plan, l.Fig5Requests(2)...)
	plan = append(plan, l.Fig6Requests(2)...)
	plan = append(plan, l.Fig7Requests([]int{2})...)
	plan = append(plan, l.TableIIIRequests()...)
	plan = append(plan, l.TableIVRequests()...)
	plan = append(plan, l.OverheadRequests(2)...)
	plan = append(plan, l.AblationStrataRequests(2)...)
	plan = append(plan, l.AblationClassesRequests(2)...)
	plan = append(plan, l.AblationMetricsRequests(2)...)
	plan = append(plan, l.SpeedupRequests(2)...)
	plan = append(plan, l.GuidelineRequests(2)...)
	plan = append(plan, l.ExtPoliciesRequests(2)...)
	plan = append(plan, l.ExtMethodsRequests(4)...)
	plan = append(plan, l.NormalityRequests(4)...)
	return plan
}

func quickLab(t *testing.T) *Lab {
	t.Helper()
	if testing.Short() {
		t.Skip("experiments need population sweeps; skipped with -short")
	}
	labOnce.Do(func() {
		dir, err := os.MkdirTemp("", "experiments-test-")
		if err != nil {
			panic(err)
		}
		sharedCacheDir = dir
		cfg := QuickConfig()
		cfg.CacheDir = dir
		sharedLab = NewLab(cfg)
		// Warm the whole plan only for full-suite runs; a targeted
		// `go test -run X` should pay just for the tables X reads
		// (which the lab then builds lazily).
		if f := flag.Lookup("test.run"); f == nil || f.Value.String() == "" {
			if _, err := sharedLab.Warm(tctx, testPlan(sharedLab), 0); err != nil {
				panic(err)
			}
		}
	})
	return sharedLab
}

func TestFig1CurveShape(t *testing.T) {
	tab := Fig1()
	if len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	// First ~0, middle 0.5, last ~1.
	first := tab.Rows[0][1]
	mid := tab.Rows[len(tab.Rows)/2][1]
	last := tab.Rows[len(tab.Rows)-1][1]
	if first != "0.0023" || mid != "0.5000" || last != "0.9977" {
		t.Errorf("curve anchors %s/%s/%s", first, mid, last)
	}
}

func TestPolicyPairsCount(t *testing.T) {
	pairs := PolicyPairs()
	if len(pairs) != 10 {
		t.Fatalf("%d pairs, want 10 (paper)", len(pairs))
	}
	seen := map[string]bool{}
	for _, p := range pairs {
		key := string(p[0]) + ">" + string(p[1])
		if seen[key] {
			t.Errorf("duplicate pair %s", key)
		}
		seen[key] = true
	}
}

func TestLabBasics(t *testing.T) {
	l := quickLab(t)
	if got := len(l.Names()); got != 22 {
		t.Fatalf("%d benchmarks", got)
	}
	if got := l.Population(2).Size(); got != 253 {
		t.Fatalf("2-core population %d, want 253", got)
	}
	p4 := l.Population(4)
	if p4.Size() != l.Config().Pop4Limit {
		t.Fatalf("4-core population %d, want %d", p4.Size(), l.Config().Pop4Limit)
	}
	if got := l.Population(8).Size(); got != l.Config().Pop8Size {
		t.Fatalf("8-core population %d", got)
	}
}

func TestRefIPCPositive(t *testing.T) {
	l := quickLab(t)
	for _, cores := range []int{2, 4} {
		ref := must(l.RefIPC(tctx, cores))
		for i, v := range ref {
			if v <= 0 || v > 4 {
				t.Errorf("cores=%d: ref IPC of %s = %g implausible", cores, l.Names()[i], v)
			}
		}
	}
}

func TestBadcoIPCTableShape(t *testing.T) {
	l := quickLab(t)
	tab := must(l.BadcoIPC(tctx, 2, cache.LRU))
	if len(tab) != 253 {
		t.Fatalf("table rows %d", len(tab))
	}
	for i, row := range tab {
		if len(row) != 2 {
			t.Fatalf("row %d has %d cores", i, len(row))
		}
		for k, v := range row {
			if v <= 0 || v > 4 {
				t.Fatalf("IPC[%d][%d] = %g", i, k, v)
			}
		}
	}
	// Memoized: second call returns identical slice.
	tab2 := must(l.BadcoIPC(tctx, 2, cache.LRU))
	if &tab[0] != &tab2[0] {
		t.Error("BadcoIPC not memoized")
	}
}

func TestDiffsConsistentAcrossMetrics(t *testing.T) {
	l := quickLab(t)
	// LRU vs FIFO is decisive: every metric must agree LRU wins
	// (negative mean with our d = tY - tX and (X=LRU, Y=FIFO)).
	for _, m := range metrics.All() {
		d := must(l.Diffs(tctx, 2, m, cache.LRU, cache.FIFO))
		if mean := stats.Mean(d); mean >= 0 {
			t.Errorf("%v: mean d(LRU->FIFO) = %g, want < 0 (LRU clearly better)", m, mean)
		}
	}
}

func TestFig3ModelMatchesExperiment(t *testing.T) {
	l := quickLab(t)
	points := must(l.Fig3(tctx, []int{2}))
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		if math.Abs(p.Empirical-p.Model) > 0.12 {
			t.Errorf("W=%d: empirical %.3f vs model %.3f", p.SampleSize, p.Empirical, p.Model)
		}
	}
}

func TestFig4SampleTracksPopulation(t *testing.T) {
	l := quickLab(t)
	rows := must(l.Fig4(tctx, 2))
	if len(rows) != 30 { // 10 pairs x 3 metrics
		t.Fatalf("%d rows", len(rows))
	}
	agree := 0
	for _, r := range rows {
		if (r.BadcoS > 0) == (r.BadcoPop > 0) {
			agree++
		}
	}
	// BADCO sample and population must agree in sign for the vast
	// majority of (pair, metric) combinations.
	if agree < len(rows)*8/10 {
		t.Errorf("sample/population sign agreement only %d/%d", agree, len(rows))
	}
}

func TestFig5SignsConsistent(t *testing.T) {
	l := quickLab(t)
	rows := must(l.Fig5(tctx, 2))
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	consistent := 0
	for _, r := range rows {
		if sameSign(r.Inv[metrics.IPCT], r.Inv[metrics.WSU], r.Inv[metrics.HSU]) {
			consistent++
		}
	}
	// The paper: all three metrics rank policies identically. Allow one
	// near-tie exception at quick scale.
	if consistent < 9 {
		t.Errorf("only %d/10 pairs have metric-consistent signs", consistent)
	}
	// LRU >> FIFO decisively: |1/cv| large.
	for _, r := range rows {
		if r.Pair[0] == cache.LRU && r.Pair[1] == cache.FIFO {
			if v := math.Abs(r.Inv[metrics.IPCT]); v < 0.5 {
				t.Errorf("LRU vs FIFO |1/cv| = %.3f, want >= 0.5 (decisive)", v)
			}
		}
	}
}

// fig6At2 is the shared lab's Figure 6 at 2 cores (the full population,
// so all four methods are present), computed once for the tests that
// read it.
var fig6At2 = sync.OnceValues(func() ([]MethodPoint, error) { return sharedLab.Fig6(tctx, 2) })

func TestFig6StratificationWins(t *testing.T) {
	quickLab(t)
	points := must(fig6At2())
	if len(points) == 0 {
		t.Fatal("no points")
	}
	byKey := map[string]map[string]float64{}
	for _, p := range points {
		k := string(p.Pair[0]) + ">" + string(p.Pair[1])
		if p.SampleSize != 10 {
			continue
		}
		if byKey[k] == nil {
			byKey[k] = map[string]float64{}
		}
		byKey[k][p.Method] = p.Confidence
	}
	// At W=10, workload stratification must dominate simple random
	// sampling on every pair (confidence further from 0.5 in the same
	// direction, i.e. more decisive).
	for pair, conf := range byKey {
		r, okR := conf["random"]
		s, okS := conf["workload-strata"]
		if !okR || !okS {
			t.Fatalf("%s: missing methods %v", pair, conf)
		}
		if decisive(s) < decisive(r)-0.02 {
			t.Errorf("%s at W=10: workload-strata %.3f less decisive than random %.3f", pair, s, r)
		}
	}
}

// decisive maps a confidence to how far it is from a coin flip.
func decisive(c float64) float64 { return math.Abs(c - 0.5) }

func TestFig7DetailedConfidence(t *testing.T) {
	l := quickLab(t)
	points := must(l.Fig7(tctx, []int{2}))
	if len(points) == 0 {
		t.Fatal("no points")
	}
	methods := map[string]bool{}
	for _, p := range points {
		methods[p.Method] = true
		if p.Confidence < 0 || p.Confidence > 1 {
			t.Fatalf("confidence %g out of range", p.Confidence)
		}
	}
	// 2 cores simulates the full population in detail, so all four
	// methods (including balanced) must be present.
	for _, m := range []string{"random", "bal-random", "bench-strata", "workload-strata"} {
		if !methods[m] {
			t.Errorf("method %s missing from Fig7", m)
		}
	}
}

func TestTableIVClassesSeparate(t *testing.T) {
	l := quickLab(t)
	tab := must(l.TableIV(tctx))
	if len(tab.Rows) != 22 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// At quick scale the absolute classes shift (touched footprints
	// shrink with the trace), so only check the table renders and the
	// MPKI column parses.
	for _, row := range tab.Rows {
		if len(row) != 5 {
			t.Fatalf("row %v", row)
		}
	}
}

func TestTableIIIBadcoFaster(t *testing.T) {
	l := quickLab(t)
	rows := must(l.TableIII(tctx, 2))
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.BadcoMIPS <= r.DetMIPS {
			t.Errorf("cores=%d: BADCO %.3f MIPS not above detailed %.3f", r.Cores, r.BadcoMIPS, r.DetMIPS)
		}
		if r.Speedup < 1.2 {
			t.Errorf("cores=%d: speedup %.2f implausibly low", r.Cores, r.Speedup)
		}
	}
}

func TestFig2AccuracyWithinBounds(t *testing.T) {
	l := quickLab(t)
	res := must(l.Fig2(tctx, []int{2}))
	if len(res) != 1 {
		t.Fatalf("%d results", len(res))
	}
	r := res[0]
	if r.AvgCPIErr > 0.20 {
		t.Errorf("avg CPI error %.1f%%, want <= 20%% (paper: ~4.6%%)", r.AvgCPIErr*100)
	}
	if r.AvgSpeedupErr > r.AvgCPIErr {
		t.Errorf("speedup error %.1f%% above CPI error %.1f%% — paper has the opposite",
			r.AvgSpeedupErr*100, r.AvgCPIErr*100)
	}
	if len(r.Points) == 0 {
		t.Fatal("no scatter points")
	}
}

func TestOverheadStory(t *testing.T) {
	l := quickLab(t)
	r := must(l.Overhead(tctx, 2))
	if r.DetMIPS <= 0 || r.BadcoMIPS <= r.DetMIPS {
		t.Fatalf("speeds %.3f/%.3f", r.DetMIPS, r.BadcoMIPS)
	}
	if r.StrataWorkloads <= 0 {
		t.Fatal("no stratified sample size")
	}
	if len(r.Random) != 3 {
		t.Fatalf("%d random lines", len(r.Random))
	}

	// The deterministic columns follow from Figure 6's DIP > LRU curves:
	// each random line's W is the smallest size whose balanced-random
	// confidence reaches its target, and the strata row is the smallest
	// size whose workload-strata confidence reaches 0.99 (else the
	// smallest size), with that confidence.
	curve := map[string]map[int]float64{}
	for _, p := range must(fig6At2()) {
		if p.Pair != [2]cache.PolicyName{cache.LRU, cache.DIP} {
			continue
		}
		if curve[p.Method] == nil {
			curve[p.Method] = map[int]float64{}
		}
		curve[p.Method][p.SampleSize] = p.Confidence
	}
	smallest := func(method string, target float64) int {
		for _, w := range Fig6SampleSizes {
			if c, ok := curve[method][w]; ok && c >= target {
				return w
			}
		}
		return -1
	}
	for _, line := range r.Random {
		if want := smallest("bal-random", line.Target); line.W != want {
			t.Errorf("random line at %.2f: W = %d, Figure 6's bal-random curve gives %d", line.Target, line.W, want)
		}
	}
	wantW := smallest("workload-strata", 0.99)
	if wantW < 0 {
		wantW = Fig6SampleSizes[0]
	}
	if r.StrataWorkloads != wantW || r.StrataConfidence != curve["workload-strata"][wantW] {
		t.Errorf("strata row W=%d confidence %v, Figure 6's workload-strata curve gives W=%d confidence %v",
			r.StrataWorkloads, r.StrataConfidence, wantW, curve["workload-strata"][wantW])
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Columns: []string{"a", "bb"},
		Notes:   []string{"n"},
	}
	tab.AddRow("1", "2")
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "note: n", "1"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestPaperClassTable(t *testing.T) {
	if PaperClass("mcf") != sampling.HighMPKI {
		t.Error("mcf should be High")
	}
	if PaperClass("povray") != sampling.LowMPKI {
		t.Error("povray should be Low")
	}
	if len(paperClasses) != 22 {
		t.Errorf("%d paper classes", len(paperClasses))
	}
}

func TestAblationTables(t *testing.T) {
	l := quickLab(t)
	strata := must(l.AblationStrataParams(tctx, 2, 20))
	if len(strata.Rows) != 16 {
		t.Errorf("strata ablation rows %d, want 16", len(strata.Rows))
	}
	classes := must(l.AblationClassification(tctx, 2, 20))
	if len(classes.Rows) != 3 {
		t.Errorf("classification ablation rows %d, want 3", len(classes.Rows))
	}
	met := must(l.AblationMetricChoice(tctx, 2))
	if len(met.Rows) != 10 {
		t.Errorf("metric ablation rows %d, want 10", len(met.Rows))
	}
}

func TestSpeedupAccuracyShrinksWithW(t *testing.T) {
	l := quickLab(t)
	pts := must(l.SpeedupAccuracy(tctx, 2, metrics.WSU, cache.LRU, cache.FIFO, []int{10, 100}, 300))
	byMethod := map[string]map[int]float64{}
	for _, p := range pts {
		if byMethod[p.Method] == nil {
			byMethod[p.Method] = map[int]float64{}
		}
		byMethod[p.Method][p.SampleSize] = p.MeanAbsErr
		if p.MeanAbsErr < 0 || p.P95AbsErr < p.MeanAbsErr/2 {
			t.Errorf("%s W=%d: implausible errors mean=%g p95=%g",
				p.Method, p.SampleSize, p.MeanAbsErr, p.P95AbsErr)
		}
	}
	// Larger samples must shrink the speedup error for every method.
	for m, errs := range byMethod {
		if errs[100] >= errs[10] {
			t.Errorf("%s: error at W=100 (%g) not below W=10 (%g)", m, errs[100], errs[10])
		}
	}
}

func TestLabCachePersistsSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	cfg := QuickConfig()
	cfg.TraceLen = 4000 // tiny: this test runs its own lab
	cfg.CacheDir = t.TempDir()
	l1 := NewLab(cfg)
	a := must(l1.BadcoIPC(tctx, 2, cache.FIFO))
	// A fresh lab with the same config must load the persisted table
	// (bitwise identical) without resimulating.
	l2 := NewLab(cfg)
	b := must(l2.BadcoIPC(tctx, 2, cache.FIFO))
	if len(a) != len(b) {
		t.Fatalf("row counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("cached table differs at [%d][%d]", i, k)
			}
		}
	}
}

// TestLabCachePersistsVectors: a fresh lab over the same cache directory
// serves the reference IPCs and the MPKI bit for bit from the store,
// with one cached "done" event each, and never builds a BADCO model.
func TestLabCachePersistsVectors(t *testing.T) {
	if testing.Short() {
		t.Skip("alone runs")
	}
	cfg := QuickConfig()
	cfg.TraceLen = 4000 // tiny: this test runs its own lab
	cfg.CacheDir = t.TempDir()
	vectors := func(l *Lab) map[Request][]float64 {
		return map[Request][]float64{
			{Sim: SimRef, Cores: 2}: must(l.RefIPC(tctx, 2)),
			{Sim: SimRef, Cores: 4}: must(l.RefIPC(tctx, 4)),
			{Sim: SimMPKI}:          must(l.MPKI(tctx)),
		}
	}
	cold := vectors(NewLab(cfg))

	var mu sync.Mutex
	var events []ProductEvent
	cfg.Observer = func(ev ProductEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	warm := vectors(NewLab(cfg))
	for r, want := range cold {
		got := warm[r]
		if len(got) != len(want) || len(want) != 22 {
			t.Fatalf("%+v: %d values warm, %d cold", r, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%+v: benchmark %d reads %v warm, %v cold", r, i, got[i], want[i])
			}
		}
	}
	if len(events) != len(cold) {
		t.Errorf("warm lab emitted %d events, want %d: %+v", len(events), len(cold), events)
	}
	for _, ev := range events {
		if _, ok := cold[ev.Request]; !ok || ev.Phase != "done" || !ev.Cached || ev.Rows != 22 {
			t.Errorf("warm lab event %+v, want one cached done per vector", ev)
		}
	}
}

func TestGuidelineRecommendations(t *testing.T) {
	l := quickLab(t)
	// The decisive pair must be "random" with a small W.
	r := must(l.Guideline(tctx, 2, metrics.WSU, cache.LRU, cache.FIFO))
	if r.Strategy != "random" {
		t.Errorf("LRU/FIFO strategy %q, want random (decisive pair)", r.Strategy)
	}
	if r.Strategy == "random" && (r.SampleSize < 1 || r.SampleSize > 200) {
		t.Errorf("LRU/FIFO recommended W=%d implausible", r.SampleSize)
	}
	// Every pair must yield a well-formed recommendation.
	tab := must(l.GuidelineTable(tctx, 2, metrics.WSU))
	if len(tab.Rows) != 10 {
		t.Fatalf("%d guideline rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		switch row[2] {
		case "equivalent", "random", "stratify":
		default:
			t.Errorf("unknown strategy %q", row[2])
		}
	}
}
