package multicore

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mcbench/internal/bench"
	"mcbench/internal/cache"
	"mcbench/internal/trace"
)

// equivWorkloads is a small mixed-intensity workload set exercising 1-,
// 2- and 4-core construction paths.
func equivWorkloads() []Workload {
	return []Workload{
		{"mcf"},
		{"mcf", "povray"},
		{"gcc", "libquantum"},
		{"mcf", "gcc", "povray", "soplex"},
	}
}

// TestSuiteSourceBitIdenticalToLegacySuite pins the tentpole refactor's
// zero-drift guarantee: resolving traces through a SuiteSource produces
// byte-identical sweep Results — detailed and BADCO alike — to the
// legacy eagerly-built trace.GenerateSuite map.
func TestSuiteSourceBitIdenticalToLegacySuite(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const n = 8000
	ctx := context.Background()
	legacy := trace.GenerateSuite(n)
	legacySrc := TraceMap(legacy)
	prov := bench.At(bench.NewSuite(), n)
	ws := equivWorkloads()

	for _, pol := range []cache.PolicyName{cache.LRU, cache.DRRIP} {
		want, err := Sweep(ctx, ws, Spec{Engine: Detailed, Policy: pol}, legacySrc, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Sweep(ctx, ws, Spec{Engine: Detailed, Policy: pol}, prov, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("detailed sweep under %s diverges between SuiteSource and trace.GenerateSuite", pol)
		}
	}

	names := []string{"mcf", "povray", "gcc", "libquantum", "soplex"}
	wantModels := buildModels(t, legacySrc, names)
	gotModels := buildModels(t, prov, names)
	if !reflect.DeepEqual(gotModels, wantModels) {
		t.Fatal("BADCO models diverge between SuiteSource and trace.GenerateSuite")
	}
	for _, pol := range []cache.PolicyName{cache.LRU, cache.DRRIP} {
		want, err := Sweep(ctx, ws, Spec{Engine: BADCO, Policy: pol}, nil, wantModels)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Sweep(ctx, ws, Spec{Engine: BADCO, Policy: pol}, nil, gotModels)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("BADCO sweep under %s diverges between SuiteSource and trace.GenerateSuite", pol)
		}
	}
}

// TestDirSourceIdenticalResults closes the round trip: write the suite
// traces to disk through the trace/io codec, load them back through a
// DirSource, and check the sweep Results are identical to the in-memory
// suite's.
func TestDirSourceIdenticalResults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	const n = 8000
	ctx := context.Background()
	dir := t.TempDir()
	names := []string{"mcf", "povray", "gcc", "soplex"}
	mem := TraceMap{}
	for _, name := range names {
		p, _ := trace.ByName(name)
		tr, err := trace.Generate(p, n)
		if err != nil {
			t.Fatal(err)
		}
		mem[name] = tr
		if err := tr.SaveFile(filepath.Join(dir, name+bench.TraceExt)); err != nil {
			t.Fatal(err)
		}
	}
	src, err := bench.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	prov := bench.At(src, n)
	ws := []Workload{{"mcf", "povray"}, {"gcc", "soplex"}, {"mcf", "gcc", "povray", "soplex"}}
	want, err := Sweep(ctx, ws, Spec{Engine: Detailed, Policy: cache.LRU}, mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Sweep(ctx, ws, Spec{Engine: Detailed, Policy: cache.LRU}, prov, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("DirSource sweep diverges from in-memory traces")
	}
}

// countingSource wraps a bench source and tracks the high-water mark of
// outstanding (acquired but unreleased) traces.
type countingSource struct {
	bench.Provider
	mu       sync.Mutex
	live     map[string]bool
	maxLive  int
	maxResid int
}

func newCountingSource(p bench.Provider) *countingSource {
	return &countingSource{Provider: p, live: map[string]bool{}}
}

func (c *countingSource) Trace(ctx context.Context, name string) (*trace.Trace, error) {
	tr, err := c.Provider.Trace(ctx, name)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.live[name] = true
	if len(c.live) > c.maxLive {
		c.maxLive = len(c.live)
	}
	if r := bench.Resident(c.Provider.Source()); r > c.maxResid {
		c.maxResid = r
	}
	c.mu.Unlock()
	return tr, nil
}

func (c *countingSource) Release(name string) {
	c.mu.Lock()
	delete(c.live, name)
	c.mu.Unlock()
	c.Provider.Release(name)
}

// TestBuildModelsWorkingSet pins the memory contract of the lazy source
// layer: building BADCO models for a large scaled population, one
// BuildModel per benchmark on the simulation budget, keeps no more
// traces resident than the in-flight working set (the bounded build
// parallelism), never the whole population.
func TestBuildModelsWorkingSet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	src, err := bench.NewScaled(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	cs := newCountingSource(bench.At(src, 2000))
	models := buildModels(t, cs, src.Names())
	if len(models) != 16 {
		t.Fatalf("%d models, want 16", len(models))
	}
	bound := runtime.GOMAXPROCS(0)
	if cs.maxLive > bound {
		t.Errorf("outstanding traces peaked at %d, above the parallelism bound %d", cs.maxLive, bound)
	}
	if cs.maxResid > bound {
		t.Errorf("source residency peaked at %d, above the parallelism bound %d", cs.maxResid, bound)
	}
	if got := bench.Resident(src); got != 0 {
		t.Errorf("%d traces still resident after the model builds", got)
	}
}

// TestCheck pins the ad-hoc run rules every front end shares: workload
// resolution against cores, name checks, the spec's rules at the
// provider's trace length, and the distinct-name model-build list.
func TestCheck(t *testing.T) {
	prov := bench.At(bench.NewSuite(), 4000)
	lru := Spec{Policy: cache.LRU}
	ws, names, err := Check(prov, lru, [][]string{{"mcf"}, {"gcc", "mcf"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Workload{{"mcf", "mcf"}, {"gcc", "mcf"}}; !reflect.DeepEqual(ws, want) {
		t.Errorf("workloads %v, want %v", ws, want)
	}
	if want := []string{"mcf", "gcc"}; !reflect.DeepEqual(names, want) {
		t.Errorf("distinct names %v, want %v", names, want)
	}
	if ws, _, err := Check(prov, lru, [][]string{{"mcf", "gcc", "povray"}}, 0); err != nil || len(ws[0]) != 3 {
		t.Errorf("cores 0: %v, %v", ws, err)
	}
	for _, c := range []struct {
		name      string
		prov      bench.Provider
		spec      Spec
		workloads [][]string
		cores     int
		is        error
	}{
		{"empty workload", prov, lru, [][]string{{}}, 0, nil},
		{"negative cores", prov, lru, [][]string{{"mcf"}}, -1, nil},
		{"width mismatch", prov, lru, [][]string{{"mcf", "gcc"}}, 4, nil},
		{"replication beyond MaxCores", prov, lru, [][]string{{"mcf"}}, 1 << 40, nil},
		{"workload beyond MaxCores", prov, lru, [][]string{slices.Repeat([]string{"mcf"}, MaxCores+1)}, 0, nil},
		{"unknown benchmark", prov, lru, [][]string{{"mcf"}, {"nosuch"}}, 0, ErrUnknownBenchmark},
		{"unknown policy", prov, Spec{Policy: "NOPE"}, [][]string{{"mcf"}}, 0, nil},
		{"unknown engine", prov, Spec{Policy: cache.LRU, Engine: 7}, [][]string{{"mcf"}}, 0, nil},
		{"warmup over default quota", prov, Spec{Policy: cache.LRU, Warmup: 4001}, [][]string{{"mcf"}}, 0, ErrWarmupOverQuota},
		{"warmup over quota", prov, Spec{Policy: cache.LRU, Quota: 100, Warmup: 101}, [][]string{{"mcf"}}, 0, ErrWarmupOverQuota},
		{"bad sampling", prov, Spec{Policy: cache.LRU, Sampling: SamplingSpec{Unit: 100, Window: 101}}, [][]string{{"mcf"}}, 0, nil},
		{"non-positive trace length", bench.At(bench.NewSuite(), 0), lru, [][]string{{"mcf"}}, 0, nil},
	} {
		_, _, err := Check(c.prov, c.spec, c.workloads, c.cores)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if c.is != nil && !errors.Is(err, c.is) {
			t.Errorf("%s: %v is not %v", c.name, err, c.is)
		}
	}
}
