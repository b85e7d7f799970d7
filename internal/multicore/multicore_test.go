package multicore

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"mcbench/internal/badco"
	"mcbench/internal/cache"
	"mcbench/internal/trace"
)

const testLen = 20000

var (
	testTraces TraceMap
	testModels map[string]*badco.Model
)

func traces(t *testing.T) TraceMap {
	t.Helper()
	if testTraces == nil {
		testTraces = trace.GenerateSuite(testLen)
	}
	return testTraces
}

func models(t *testing.T) map[string]*badco.Model {
	t.Helper()
	if testModels == nil {
		trs := traces(t)
		names := []string{"mcf", "povray", "gcc", "libquantum", "hmmer", "soplex", "astar", "bzip2"}
		testModels = buildModels(t, trs, names)
	}
	return testModels
}

// buildModels builds the named benchmarks' BADCO models in parallel on
// the simulation budget, one BuildModel per name, as the lab's model
// memo does.
func buildModels(t testing.TB, traces TraceSource, names []string) map[string]*badco.Model {
	t.Helper()
	got := make([]*badco.Model, len(names))
	errs := make([]error, len(names))
	if err := RunBounded(context.Background(), len(names), func(i int) {
		got[i], errs[i] = BuildModel(context.Background(), traces, names[i], badco.DefaultBuildConfig())
	}); err != nil {
		t.Fatal(err)
	}
	models := make(map[string]*badco.Model, len(names))
	for i, name := range names {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		models[name] = got[i]
	}
	return models
}

func TestDetailedSingleVsPair(t *testing.T) {
	trs := traces(t)
	solo, err := Run(context.Background(), Workload{"mcf"}, Spec{Engine: Detailed, Policy: cache.LRU}, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := Run(context.Background(), Workload{"mcf", "soplex"}, Spec{Engine: Detailed, Policy: cache.LRU}, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.IPC) != 1 || len(pair.IPC) != 2 {
		t.Fatalf("IPC lengths %d/%d", len(solo.IPC), len(pair.IPC))
	}
	// Two memory-hungry co-runners must hurt each other: mcf's IPC with a
	// co-runner cannot exceed its solo IPC.
	if pair.IPC[0] > solo.IPC[0]*1.02 {
		t.Errorf("mcf IPC with co-runner %.4f above solo %.4f", pair.IPC[0], solo.IPC[0])
	}
}

func TestDetailedErrors(t *testing.T) {
	trs := traces(t)
	if _, err := Run(context.Background(), Workload{}, Spec{Engine: Detailed, Policy: cache.LRU}, trs, nil); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := Run(context.Background(), Workload{"nosuch"}, Spec{Engine: Detailed, Policy: cache.LRU}, trs, nil); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(context.Background(), Workload{"mcf"}, Spec{Engine: Detailed, Policy: "NOPOL"}, trs, nil); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestDetailedDeterminism(t *testing.T) {
	trs := traces(t)
	a, err := Run(context.Background(), Workload{"gcc", "mcf"}, Spec{Engine: Detailed, Policy: cache.DIP}, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), Workload{"gcc", "mcf"}, Spec{Engine: Detailed, Policy: cache.DIP}, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("nondeterministic IPC on core %d: %g vs %g", i, a.IPC[i], b.IPC[i])
		}
	}
}

func TestDuplicateBenchmarksGetDistinctPages(t *testing.T) {
	trs := traces(t)
	r, err := Run(context.Background(), Workload{"bzip2", "bzip2"}, Spec{Engine: Detailed, Policy: cache.LRU}, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Identical threads on symmetric cores should have similar IPC.
	if r.IPC[0] <= 0 || r.IPC[1] <= 0 {
		t.Fatal("zero IPC")
	}
	ratio := r.IPC[0] / r.IPC[1]
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("replicated benchmark IPCs diverge: %.3f vs %.3f", r.IPC[0], r.IPC[1])
	}
}

func TestApproximateMatchesDetailedRanking(t *testing.T) {
	trs := traces(t)
	mods := models(t)
	w := Workload{"mcf", "povray"}
	det, err := Run(context.Background(), w, Spec{Engine: Detailed, Policy: cache.LRU}, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	app, err := Run(context.Background(), w, Spec{Engine: BADCO, Policy: cache.LRU}, nil, mods)
	if err != nil {
		t.Fatal(err)
	}
	// povray (compute-bound) must be the faster thread in both simulators.
	if (det.IPC[1] > det.IPC[0]) != (app.IPC[1] > app.IPC[0]) {
		t.Errorf("simulators disagree on thread ranking: det %v, approx %v", det.IPC, app.IPC)
	}
	// And per-thread CPI should be in the same ballpark.
	for i := range w {
		relErr := math.Abs(app.IPC[i]-det.IPC[i]) / det.IPC[i]
		if relErr > 0.4 {
			t.Errorf("core %d (%s): approx IPC %.3f vs detailed %.3f (%.0f%% off)",
				i, w[i], app.IPC[i], det.IPC[i], relErr*100)
		}
	}
}

func TestApproximateErrors(t *testing.T) {
	mods := models(t)
	if _, err := Run(context.Background(), Workload{}, Spec{Engine: BADCO, Policy: cache.LRU}, nil, mods); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := Run(context.Background(), Workload{"nosuch"}, Spec{Engine: BADCO, Policy: cache.LRU}, nil, mods); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSweepApproximate(t *testing.T) {
	mods := models(t)
	ws := []Workload{
		{"mcf", "povray"},
		{"gcc", "gcc"},
		{"libquantum", "hmmer"},
		{"soplex", "astar"},
	}
	rs, err := Sweep(context.Background(), ws, Spec{Engine: BADCO, Policy: cache.DRRIP}, nil, mods)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(ws) {
		t.Fatalf("%d results for %d workloads", len(rs), len(ws))
	}
	for i, r := range rs {
		if r.Workload.String() != ws[i].String() {
			t.Errorf("result %d is for %v, want %v", i, r.Workload, ws[i])
		}
		for c, ipc := range r.IPC {
			if ipc <= 0 || ipc > 4 {
				t.Errorf("workload %d core %d IPC %g implausible", i, c, ipc)
			}
		}
	}
	// Sweep must be deterministic despite parallelism.
	rs2, err := Sweep(context.Background(), ws, Spec{Engine: BADCO, Policy: cache.DRRIP}, nil, mods)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		for c := range rs[i].IPC {
			if rs[i].IPC[c] != rs2[i].IPC[c] {
				t.Fatalf("sweep nondeterministic at workload %d core %d", i, c)
			}
		}
	}
}

func TestSweepDetailed(t *testing.T) {
	trs := traces(t)
	ws := []Workload{{"hmmer", "povray"}, {"mcf", "mcf"}}
	rs, err := Sweep(context.Background(), ws, Spec{Engine: Detailed, Policy: cache.FIFO}, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results", len(rs))
	}
	// hmmer+povray (cache friendly) should beat mcf+mcf throughput-wise.
	sum0 := rs[0].IPC[0] + rs[0].IPC[1]
	sum1 := rs[1].IPC[0] + rs[1].IPC[1]
	if sum0 <= sum1 {
		t.Errorf("friendly pair IPC %.3f not above thrashing pair %.3f", sum0, sum1)
	}
}

func TestPolicyAffectsThroughput(t *testing.T) {
	// LRU vs RND on a cache-friendly pair: policies must make a
	// measurable difference somewhere in the matrix (not all equal).
	mods := models(t)
	w := Workload{"soplex", "bzip2"}
	var ipcs []float64
	for _, pol := range cache.PaperPolicies() {
		r, err := Run(context.Background(), w, Spec{Engine: BADCO, Policy: pol}, nil, mods)
		if err != nil {
			t.Fatal(err)
		}
		ipcs = append(ipcs, r.IPC[0]+r.IPC[1])
	}
	allEqual := true
	for _, v := range ipcs[1:] {
		if math.Abs(v-ipcs[0]) > 1e-9 {
			allEqual = false
		}
	}
	if allEqual {
		t.Errorf("all five policies produced identical throughput %v", ipcs)
	}
}

func TestWorkloadString(t *testing.T) {
	w := Workload{"a", "b", "b"}
	if got := w.String(); got != "a+b+b" {
		t.Errorf("String = %q", got)
	}
}

func TestResultCPI(t *testing.T) {
	r := Result{IPC: []float64{2, 0}}
	if got := r.CPI(0); got != 0.5 {
		t.Errorf("CPI = %g", got)
	}
	// Zero IPC means the core never committed an instruction: its CPI is
	// infinite, consistently with the 1/IPC identity, rather than 0
	// (which would read as "infinitely fast").
	if got := r.CPI(1); !math.IsInf(got, 1) {
		t.Errorf("CPI of zero IPC = %g, want +Inf", got)
	}
}

func TestQuotaHonored(t *testing.T) {
	trs := traces(t)
	r, err := Run(context.Background(), Workload{"hmmer"}, Spec{Engine: Detailed, Policy: cache.LRU, Quota: 5000}, trs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 5000 {
		t.Errorf("quota %d, want 5000", r.Instructions)
	}
	full, _ := Run(context.Background(), Workload{"hmmer"}, Spec{Engine: Detailed, Policy: cache.LRU}, trs, nil)
	if r.Cycles[0] >= full.Cycles[0] {
		t.Errorf("5000-op quota took %d cycles, full trace %d", r.Cycles[0], full.Cycles[0])
	}
}

func TestRunBoundedLimitsConcurrency(t *testing.T) {
	const n = 200
	bound := int64(maxParallel())
	var live, peak, calls atomic.Int64
	RunBounded(context.Background(), n, func(i int) {
		calls.Add(1)
		cur := live.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		live.Add(-1)
	})
	if calls.Load() != n {
		t.Fatalf("ran %d of %d tasks", calls.Load(), n)
	}
	if p := peak.Load(); p > bound {
		t.Errorf("peak concurrency %d above bound %d", p, bound)
	}
}

func TestRunBoundedEmpty(t *testing.T) {
	ran := false
	RunBounded(context.Background(), 0, func(int) { ran = true })
	if ran {
		t.Error("fn invoked for n=0")
	}
}
