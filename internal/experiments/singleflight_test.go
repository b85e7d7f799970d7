package experiments

import (
	"sync"
	"testing"

	"mcbench/internal/cache"
)

// tinyLab returns a lab small enough that a population sweep takes well
// under a second; single-flight tests run their own lab so the shared
// test lab's memoization cannot mask duplicated work.
func tinyLab() *Lab {
	cfg := QuickConfig()
	cfg.TraceLen = 2000
	return NewLab(cfg)
}

// TestBadcoIPCSingleFlight is the regression test for the duplicate-work
// race the coarse-mutex Lab had: the lock was dropped before the sweep,
// so N concurrent callers for one (cores, policy) key each ran the full
// population sweep. With per-key single-flight memoization the sweep must
// run exactly once, and every caller must get the same table.
func TestBadcoIPCSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweep")
	}
	l := tinyLab()
	const callers = 8
	tables := make([][][]float64, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start // maximise overlap: all callers ask at once
			tables[i] = must(l.BadcoIPC(tctx, 2, cache.LRU))
		}(i)
	}
	close(start)
	wg.Wait()
	if got := l.badcoSweeps.Load(); got != 1 {
		t.Fatalf("%d sweeps for one key under %d concurrent callers, want exactly 1", got, callers)
	}
	for i := 1; i < callers; i++ {
		if len(tables[i]) == 0 || &tables[i][0] != &tables[0][0] {
			t.Fatal("concurrent callers received different tables")
		}
	}
}

// TestDetailedIPCSingleFlight is the same guarantee for the detailed
// tables.
func TestDetailedIPCSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweep")
	}
	l := tinyLab()
	const callers = 6
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			must(l.DetailedIPC(tctx, 2, cache.FIFO))
		}()
	}
	close(start)
	wg.Wait()
	if got := l.detSweeps.Load(); got != 1 {
		t.Fatalf("%d detailed sweeps for one key, want exactly 1", got)
	}
}

// TestWarmDeduplicatesPlan checks the campaign runner end to end: a plan
// repeating the same requests warms each product once, a second Warm is
// free, and the warmed tables are the ones later reads return.
func TestWarmDeduplicatesPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("population sweep")
	}
	l := tinyLab()
	plan := []Request{
		{Sim: SimBadco, Cores: 2, Policy: cache.LRU},
		{Sim: SimBadco, Cores: 2, Policy: cache.FIFO},
		{Sim: SimBadco, Cores: 2, Policy: cache.LRU}, // duplicate
		{Sim: SimRef, Cores: 2},
		{Sim: SimRef, Cores: 2, Policy: cache.LRU}, // same as above once normalized
	}
	if n := must(l.Warm(tctx, plan, 2)); n != 3 {
		t.Fatalf("Warm fulfilled %d unique requests, want 3", n)
	}
	if got := l.badcoSweeps.Load(); got != 2 {
		t.Fatalf("%d sweeps after Warm, want 2 (LRU, FIFO)", got)
	}
	warmed := must(l.BadcoIPC(tctx, 2, cache.LRU))
	if must(l.Warm(tctx, plan, 0)) != 3 {
		t.Fatal("re-warming changed the plan size")
	}
	if got := l.badcoSweeps.Load(); got != 2 {
		t.Fatalf("re-warming re-ran sweeps: %d", got)
	}
	if again := must(l.BadcoIPC(tctx, 2, cache.LRU)); &again[0] != &warmed[0] {
		t.Fatal("table rebuilt after warm")
	}
}

// TestRequestNormalize pins the deduplication identity of requests whose
// simulator ignores some fields.
func TestRequestNormalize(t *testing.T) {
	a := Request{Sim: SimMPKI, Cores: 4, Policy: cache.DIP}.Normalized()
	if a != (Request{Sim: SimMPKI}) {
		t.Errorf("MPKI request kept irrelevant fields: %+v", a)
	}
	r := Request{Sim: SimRef, Cores: 4, Policy: cache.DIP}.Normalized()
	if r != (Request{Sim: SimRef, Cores: 4}) {
		t.Errorf("ref request normalized wrong: %+v", r)
	}
	b := Request{Sim: SimBadco, Cores: 4, Policy: cache.DIP}.Normalized()
	if b != (Request{Sim: SimBadco, Cores: 4, Policy: cache.DIP}) {
		t.Errorf("badco request must keep all fields: %+v", b)
	}
}

// TestCampaignPlanCoversExperiments spot-checks that the aggregated plan
// of the full paper campaign names every product family.
func TestCampaignPlanCoversExperiments(t *testing.T) {
	l := tinyLab()
	plan := l.CampaignPlan([]string{"all"}, Params{Cores: 4})
	kinds := map[Simulator]bool{}
	for _, r := range plan {
		kinds[r.Sim] = true
	}
	for _, sim := range []Simulator{SimBadco, SimDetailed, SimRef, SimMPKI, SimModels} {
		if !kinds[sim] {
			t.Errorf("campaign plan missing %s requests", sim)
		}
	}
	if len(plan) == 0 {
		t.Fatal("empty campaign plan")
	}
	// Unknown names contribute nothing rather than failing the warm-up.
	if p := l.CampaignPlan([]string{"nonsense"}, Params{Cores: 4}); len(p) != 0 {
		t.Errorf("unknown experiment produced %d requests", len(p))
	}
}
