package mcbench_test

import (
	"context"
	"errors"
	"flag"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mcbench"
	"mcbench/internal/experiments"
)

// apiCtx is the background context of the API tests.
var apiCtx = context.Background()

// tinyConfig keeps the public-API tests fast: 4k-µop traces.
func tinyConfig() mcbench.Config {
	cfg := mcbench.QuickConfig()
	cfg.TraceLen = 4000
	return cfg
}

func TestSimulateBothEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	workload := []string{"mcf", "povray"}
	det, err := mcbench.Simulate(apiCtx, workload,
		mcbench.WithPolicy(mcbench.LRU),
		mcbench.WithTraceLen(4000))
	if err != nil {
		t.Fatal(err)
	}
	app, err := mcbench.Simulate(apiCtx, workload,
		mcbench.WithPolicy(mcbench.LRU),
		mcbench.WithSimulator(mcbench.BADCO),
		mcbench.WithTraceLen(4000))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*mcbench.Result{det, app} {
		if len(r.IPC) != 2 || len(r.Cycles) != 2 {
			t.Fatalf("%v: shape %d/%d", r.Engine, len(r.IPC), len(r.Cycles))
		}
		if r.Instructions != 4000 {
			t.Errorf("%v: quota %d", r.Engine, r.Instructions)
		}
		for i, v := range r.IPC {
			if v <= 0 || v > 4 {
				t.Errorf("%v: IPC[%d] = %g implausible", r.Engine, i, v)
			}
		}
	}
	// BADCO approximates the detailed result (generous bound at this
	// tiny trace scale).
	for i := range det.IPC {
		rel := (app.IPC[i] - det.IPC[i]) / det.IPC[i]
		if rel < -0.5 || rel > 0.5 {
			t.Errorf("thread %d: BADCO %.3f vs detailed %.3f", i, app.IPC[i], det.IPC[i])
		}
	}
}

func TestSimulateWithCoresReplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	r, err := mcbench.Simulate(apiCtx, []string{"gcc"},
		mcbench.WithCores(2),
		mcbench.WithTraceLen(4000))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.IPC) != 2 || r.Workload[0] != "gcc" || r.Workload[1] != "gcc" {
		t.Fatalf("replicated workload %v, IPCs %v", r.Workload, r.IPC)
	}
}

func TestSimulateValidation(t *testing.T) {
	cases := []struct {
		name     string
		workload []string
		traceLen int
		opts     []mcbench.Option
	}{
		{"empty workload", nil, 0, nil},
		{"unknown benchmark", []string{"nosuch"}, 0, nil},
		{"cores mismatch", []string{"mcf", "gcc"}, 0, []mcbench.Option{mcbench.WithCores(4)}},
		{"negative cores", []string{"mcf"}, 0, []mcbench.Option{mcbench.WithCores(-1)}},
		{"cores beyond the limit", []string{"mcf"}, 0, []mcbench.Option{mcbench.WithCores(1 << 40)}},
		{"bad policy", []string{"mcf"}, 0, []mcbench.Option{mcbench.WithPolicy("NOPE")}},
		{"bad trace length", []string{"mcf"}, -1, nil},
		{"warmup beyond default quota", []string{"mcf"}, 4000, []mcbench.Option{
			mcbench.WithWarmup(4001)}},
		{"warmup beyond explicit quota", []string{"mcf"}, 0, []mcbench.Option{
			mcbench.WithQuota(2000), mcbench.WithWarmup(3000)}},
	}
	for _, c := range cases {
		rejectBoth(t, c.name, c.workload, c.traceLen, c.opts)
	}
}

// rejectBoth asserts that the package-level Simulate (with
// WithTraceLen(traceLen) when traceLen is non-zero) and Lab.Simulate on
// a lab of that trace length both reject the case.
func rejectBoth(t *testing.T, name string, workload []string, traceLen int, opts []mcbench.Option) {
	t.Helper()
	cfg, simOpts := tinyConfig(), opts
	if traceLen != 0 {
		cfg.TraceLen = traceLen
		simOpts = append([]mcbench.Option{mcbench.WithTraceLen(traceLen)}, opts...)
	}
	if _, err := mcbench.Simulate(apiCtx, workload, simOpts...); err == nil {
		t.Errorf("%s: Simulate accepted", name)
	}
	if _, err := mcbench.NewLab(cfg).Simulate(apiCtx, workload, opts...); err == nil {
		t.Errorf("%s: Lab.Simulate accepted", name)
	}
}

// TestSimulateWithWarmup exercises the public warmup option on both
// engines: the measurement covers quota µops beyond the warmed prefix,
// and Sweep's warmed path agrees bit-for-bit with per-workload Simulate.
func TestSimulateWithWarmup(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	workload := []string{"mcf", "soplex"}
	opts := func(more ...mcbench.Option) []mcbench.Option {
		return append([]mcbench.Option{
			mcbench.WithTraceLen(4000),
			mcbench.WithQuota(2500),
			mcbench.WithWarmup(1500),
			mcbench.WithPolicy(mcbench.DRRIP),
		}, more...)
	}
	for _, engine := range []mcbench.Engine{mcbench.Detailed, mcbench.BADCO} {
		warmed, err := mcbench.Simulate(apiCtx, workload, opts(mcbench.WithSimulator(engine))...)
		if err != nil {
			t.Fatal(err)
		}
		if warmed.Instructions != 2500 {
			t.Errorf("%v: measured quota %d, want 2500", engine, warmed.Instructions)
		}
		cold, err := mcbench.Simulate(apiCtx, workload,
			mcbench.WithTraceLen(4000), mcbench.WithQuota(2500),
			mcbench.WithPolicy(mcbench.DRRIP), mcbench.WithSimulator(engine))
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range warmed.IPC {
			if warmed.IPC[i] != cold.IPC[i] {
				same = false
			}
		}
		if same {
			t.Errorf("%v: warmup had no effect on the measurement window", engine)
		}

		swept, err := mcbench.Sweep(apiCtx, [][]string{workload, {"gcc", "hmmer"}},
			opts(mcbench.WithSimulator(engine))...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range swept[0].IPC {
			if swept[0].IPC[i] != warmed.IPC[i] {
				t.Errorf("%v: sweep IPC[%d] = %v, Simulate %v", engine, i, swept[0].IPC[i], warmed.IPC[i])
			}
		}
	}
}

func TestSimulateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := mcbench.Simulate(ctx, []string{"mcf", "povray"}, mcbench.WithTraceLen(20000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled Simulate took %v", elapsed)
	}
}

func TestLabRunRegistryExperiment(t *testing.T) {
	l := mcbench.NewLab(tinyConfig())
	// fig1 and config are simulation-free: instant even in -short runs.
	for _, name := range []string{"fig1", "config"} {
		tab, err := l.Run(apiCtx, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", name)
		}
		if !strings.Contains(tab.String(), "==") {
			t.Errorf("%s: unrenderable table", name)
		}
	}
	// Unknown names suggest the nearest registered experiment — in Run
	// and in Warm alike (a typo must not silently warm nothing).
	_, err := l.Run(apiCtx, "fig12", 0)
	if err == nil || !strings.Contains(err.Error(), `"fig1"`) {
		t.Errorf("unknown-name error %v lacks suggestion", err)
	}
	if _, err := l.Warm(apiCtx, []string{"fgi1"}, 0); err == nil {
		t.Error("Warm accepted an unknown experiment name")
	}
	// fig1 declares no expensive products, so warming it is instant and
	// must succeed.
	if _, err := l.Warm(apiCtx, []string{"fig1"}, 0); err != nil {
		t.Errorf("Warm rejected a valid name: %v", err)
	}
}

// TestCoresPlansAgree pins the one meaning of a cores argument. The CLI
// hands its -cores to Lab.Warm and Lab.Run, and the server plans an
// experiment job through experiments.ParamsFor; all three plan the same
// products. For fig2, fig3 and fig7 a positive count pins the core-count
// sweep, so every product is an N-core one, while 0 keeps the paper's
// sweep over several core counts.
func TestCoresPlansAgree(t *testing.T) {
	cfg := tinyConfig()
	l := mcbench.NewLab(cfg)
	served := experiments.NewLab(cfg)
	for _, name := range []string{"fig2", "fig3", "fig7"} {
		for _, cores := range []int{0, 2, 8} {
			got, err := mcbench.WarmPlan(l, []string{name}, cores)
			if err != nil {
				t.Fatal(err)
			}
			want := experiments.Distinct(served.CampaignPlan([]string{name}, experiments.ParamsFor(cores)))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s with cores %d: Lab plans %v, the server %v", name, cores, got, want)
			}
			counts := map[int]bool{}
			for _, r := range got {
				if r.Cores > 0 {
					counts[r.Cores] = true
				}
			}
			if cores > 0 && (len(counts) != 1 || !counts[cores]) {
				t.Errorf("%s with cores %d plans core counts %v, want %d only", name, cores, counts, cores)
			}
			if cores == 0 && len(counts) < 2 {
				t.Errorf("%s with cores 0 plans core counts %v, want the paper's sweep", name, counts)
			}
		}
	}
	// The default, 0, plans the whole campaign the CLI planned when its
	// -cores defaulted to 4 and set the single-count experiments only.
	got, err := mcbench.WarmPlan(l, []string{"all"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := experiments.Distinct(served.CampaignPlan([]string{"all"}, experiments.Params{Cores: 4})); !reflect.DeepEqual(got, want) {
		t.Errorf("all with cores 0 plans %v, want %v", got, want)
	}
}

// TestLabBoundsCores pins the cores bound of Run, Chart and Warm: the
// experiments size their machines and populations by it, so a count
// beyond the largest machine (64 cores) is refused before any work.
func TestLabBoundsCores(t *testing.T) {
	l := mcbench.NewLab(tinyConfig())
	for _, cores := range []int{-1, 65, 100000} {
		if _, err := l.Run(apiCtx, "fig4", cores); err == nil {
			t.Errorf("Run accepted %d cores", cores)
		}
		if _, _, err := l.Chart(apiCtx, "fig1", cores); err == nil {
			t.Errorf("Chart accepted %d cores", cores)
		}
		if _, err := l.Warm(apiCtx, []string{"fig4"}, cores); err == nil {
			t.Errorf("Warm accepted %d cores", cores)
		}
	}
	// The bound is inclusive; fig1 is simulation-free.
	if _, err := l.Run(apiCtx, "fig1", 64); err != nil {
		t.Errorf("Run rejected 64 cores: %v", err)
	}
}

func TestLabSimulateSharesState(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	l := mcbench.NewLab(tinyConfig())
	a, err := l.Simulate(apiCtx, []string{"mcf", "povray"}, mcbench.WithSimulator(mcbench.BADCO))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.IPC) != 2 {
		t.Fatalf("shape %v", a.IPC)
	}
	// WithTraceLen conflicts with the lab's configured length.
	if _, err := l.Simulate(apiCtx, []string{"mcf"}, mcbench.WithTraceLen(100)); err == nil {
		t.Error("Lab.Simulate accepted WithTraceLen")
	}
}

// TestLabSimulateBuildsEveryModelOnce pins the contract in Lab.Simulate's
// doc: the first BADCO call builds the model of every benchmark of the
// lab, reported as one "models" product event with a row per benchmark,
// and a later call builds nothing and emits no models event.
func TestLabSimulateBuildsEveryModelOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	var mu sync.Mutex
	var models []mcbench.ProductEvent
	cfg := tinyConfig()
	cfg.Observer = func(ev mcbench.ProductEvent) {
		if ev.Sim == "models" {
			mu.Lock()
			models = append(models, ev)
			mu.Unlock()
		}
	}
	l := mcbench.NewLab(cfg)
	simulate := func(workload ...string) []mcbench.ProductEvent {
		t.Helper()
		mu.Lock()
		models = nil
		mu.Unlock()
		if _, err := l.Simulate(apiCtx, workload, mcbench.WithSimulator(mcbench.BADCO)); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return models
	}
	var done []mcbench.ProductEvent
	for _, ev := range simulate("mcf", "povray") {
		if ev.Phase == "done" {
			done = append(done, ev)
		}
	}
	if len(done) != 1 || done[0].Rows != len(l.Benchmarks()) {
		t.Errorf("first BADCO Lab.Simulate: models done events %+v, want one with %d rows", done, len(l.Benchmarks()))
	}
	if again := simulate("gcc", "soplex"); len(again) != 0 {
		t.Errorf("second BADCO Lab.Simulate emitted models events %+v, want none", again)
	}
}

func TestExperimentsCatalogue(t *testing.T) {
	infos := mcbench.Experiments()
	if len(infos) < 20 {
		t.Fatalf("%d experiments, want >= 20", len(infos))
	}
	byName := map[string]mcbench.ExperimentInfo{}
	for _, e := range infos {
		byName[e.Name] = e
		if e.Synopsis == "" {
			t.Errorf("%s: empty synopsis", e.Name)
		}
	}
	for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"table3", "table4", "overhead", "config", "speedup", "guideline", "methods",
		"cophase", "predictors", "normality", "profiles", "policies",
		"ablation-strata", "ablation-classes", "ablation-metrics"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("catalogue missing %s", want)
		}
	}
	// Paper experiments first.
	if infos[0].Group != "paper" {
		t.Errorf("catalogue starts with group %q", infos[0].Group)
	}
}

func TestBenchmarksAndTraces(t *testing.T) {
	names := mcbench.Benchmarks()
	if len(names) != 22 {
		t.Fatalf("%d benchmarks", len(names))
	}
	tr, err := mcbench.GenerateTrace("mcf", 1000)
	if err != nil || tr.Len() != 1000 {
		t.Fatalf("GenerateTrace: %v, len %d", err, tr.Len())
	}
	if _, err := mcbench.GenerateTrace("nosuch", 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := mcbench.GenerateTrace("mcf", -1); err == nil {
		t.Error("negative length accepted")
	}
}

func TestPopulationHelpers(t *testing.T) {
	pop := mcbench.EnumerateWorkloads(2)
	if pop.Size() != 253 {
		t.Fatalf("2-core population %d", pop.Size())
	}
	ws := mcbench.WorkloadNames(pop)
	if len(ws) != 253 || len(ws[0]) != 2 {
		t.Fatalf("workload names shape %d/%d", len(ws), len(ws[0]))
	}
}

// TestExamplesUsePublicAPIOnly enforces the library boundary: the
// runnable examples must compile against the public package alone,
// never internal/.
func TestExamplesUsePublicAPIOnly(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) < 9 {
		t.Fatalf("found %d examples (err %v), want 9", len(mains), err)
	}
	fset := token.NewFileSet()
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "internal/") {
				t.Errorf("%s imports %s — examples must use the public API", path, imp.Path.Value)
			}
		}
	}
}

// updateAPI regenerates the API-surface golden.
var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.txt from go doc -all")

// TestAPISurfaceGolden pins the public API surface (go doc -all output)
// to a golden file, so any change to the exported API or its
// documentation shows up explicitly in review. Regenerate intentionally
// with: go test -run TestAPISurfaceGolden -update-api .
func TestAPISurfaceGolden(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not in PATH")
	}
	out, err := exec.Command(goBin, "doc", "-all", ".").Output()
	if err != nil {
		t.Fatalf("go doc -all: %v", err)
	}
	path := filepath.Join("testdata", "api.txt")
	if *updateAPI {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing API golden (regenerate with -update-api): %v", err)
	}
	if string(out) != string(want) {
		t.Errorf("public API surface changed; review the diff and regenerate with -update-api\n(go doc -all . is %d bytes, golden %d bytes)", len(out), len(want))
	}
}

func TestSuiteRegistryShares(t *testing.T) {
	a, err := mcbench.Suite("scaled:16:3")
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent specs resolve to the same shared instance.
	b, err := mcbench.Suite("scaled:16:3")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equal specs returned distinct sources")
	}
	if got := len(a.Names()); got != 16 {
		t.Fatalf("scaled:16 has %d names", got)
	}
	found := false
	for _, n := range mcbench.Suites() {
		found = found || n == "scaled:16:3"
	}
	if !found {
		t.Errorf("Suites() = %v missing scaled:16:3", mcbench.Suites())
	}
	if _, err := mcbench.Suite("scaled:9999"); err == nil {
		t.Error("out-of-range scaled spec accepted")
	}
}

func TestSimulateWithSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	src, err := mcbench.Suite("scaled:12:5")
	if err != nil {
		t.Fatal(err)
	}
	names := src.Names()
	r, err := mcbench.Simulate(apiCtx, []string{names[0], names[2]},
		mcbench.WithSuite(src), mcbench.WithTraceLen(4000))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.IPC) != 2 || r.Instructions != 4000 {
		t.Fatalf("shape %v quota %d", r.IPC, r.Instructions)
	}
	// Suite benchmarks are not visible through a scaled source.
	if _, err := mcbench.Simulate(apiCtx, []string{"mcf"},
		mcbench.WithSuite(src), mcbench.WithTraceLen(4000)); err == nil {
		t.Error("suite benchmark accepted by a scaled source")
	}
}

func TestLabOverScaledSource(t *testing.T) {
	cfg := tinyConfig()
	src, err := mcbench.Suite("scaled:12:5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Source = src
	cfg.PopLimit = 30
	l := mcbench.NewLab(cfg)
	if got := len(l.Benchmarks()); got != 12 {
		t.Fatalf("%d benchmarks", got)
	}
	if l.Suite() != src {
		t.Error("Lab.Suite() is not the configured source")
	}
	if got := l.Population(2).Size(); got != 30 {
		t.Fatalf("population %d, want PopLimit 30", got)
	}
	// A lab's source is fixed by its config; WithSuite is rejected.
	if _, err := l.Simulate(apiCtx, []string{l.Benchmarks()[0]},
		mcbench.WithSuite(src)); err == nil {
		t.Error("Lab.Simulate accepted WithSuite")
	}
}

func TestSimulateSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	workload := []string{"mcf", "povray"}
	r, err := mcbench.Simulate(apiCtx, workload,
		mcbench.WithSampling(4000, 1000, 500),
		mcbench.WithTraceLen(20000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Windows != 5 {
		t.Errorf("windows = %d, want 5 (20000/4000)", r.Windows)
	}
	if len(r.CIHalf) != 2 || len(r.CV) != 2 {
		t.Fatalf("CI/CV shape %d/%d, want 2/2", len(r.CIHalf), len(r.CV))
	}
	for i := range r.IPC {
		if r.IPC[i] <= 0 || r.IPC[i] > 4 {
			t.Errorf("IPC[%d] = %g implausible", i, r.IPC[i])
		}
		if r.CIHalf[i] <= 0 || r.CV[i] <= 0 {
			t.Errorf("core %d: CI %g cv %g, want positive", i, r.CIHalf[i], r.CV[i])
		}
	}
	// An exact run reports no interval.
	exact, err := mcbench.Simulate(apiCtx, workload, mcbench.WithTraceLen(4000))
	if err != nil {
		t.Fatal(err)
	}
	if exact.CIHalf != nil || exact.CV != nil || exact.Windows != 0 {
		t.Error("exact run carries sampling fields")
	}
	// Sweep agrees with Simulate on the same spec.
	swept, err := mcbench.Sweep(apiCtx, [][]string{workload},
		mcbench.WithSampling(4000, 1000, 500),
		mcbench.WithTraceLen(20000))
	if err != nil {
		t.Fatal(err)
	}
	for i := range swept[0].IPC {
		if swept[0].IPC[i] != r.IPC[i] || swept[0].CIHalf[i] != r.CIHalf[i] {
			t.Errorf("sweep core %d: %g±%g, Simulate %g±%g",
				i, swept[0].IPC[i], swept[0].CIHalf[i], r.IPC[i], r.CIHalf[i])
		}
	}
	// The bounded-warming dial changes the estimate but keeps the shape.
	warm, err := mcbench.Simulate(apiCtx, workload,
		mcbench.WithSampling(4000, 1000, 500),
		mcbench.WithSamplingWarm(1000),
		mcbench.WithTraceLen(20000))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Windows != r.Windows {
		t.Errorf("bounded warming changed the window count: %d vs %d", warm.Windows, r.Windows)
	}
}

func TestSimulateSampledValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []mcbench.Option
	}{
		{"badco engine", []mcbench.Option{
			mcbench.WithSampling(4000, 1000, 500),
			mcbench.WithSimulator(mcbench.BADCO)}},
		{"with warmup", []mcbench.Option{
			mcbench.WithSampling(4000, 1000, 500),
			mcbench.WithWarmup(100)}},
		{"overfull unit", []mcbench.Option{
			mcbench.WithSampling(1000, 800, 300)}},
		{"warm alone", []mcbench.Option{
			mcbench.WithSamplingWarm(1000)}},
		{"warm beyond gap", []mcbench.Option{
			mcbench.WithSampling(4000, 1000, 500),
			mcbench.WithSamplingWarm(2501)}},
	}
	for _, c := range cases {
		rejectBoth(t, c.name, []string{"mcf"}, 0, c.opts)
	}
}

func TestLabSimulateSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	cfg := tinyConfig()
	cfg.TraceLen = 20000
	lab := mcbench.NewLab(cfg)
	r, err := lab.Simulate(apiCtx, []string{"gcc", "soplex"},
		mcbench.WithSampling(5000, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Windows != 4 || len(r.CIHalf) != 2 {
		t.Fatalf("windows %d CI len %d", r.Windows, len(r.CIHalf))
	}
	// The lab route and the package route agree on identical inputs.
	pkg, err := mcbench.Simulate(apiCtx, []string{"gcc", "soplex"},
		mcbench.WithSampling(5000, 1000, 1000),
		mcbench.WithTraceLen(20000))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.IPC {
		if r.IPC[i] != pkg.IPC[i] {
			t.Errorf("core %d: lab %g pkg %g", i, r.IPC[i], pkg.IPC[i])
		}
	}
}
