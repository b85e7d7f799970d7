package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"mcbench/internal/badco"
	"mcbench/internal/bench"
	"mcbench/internal/trace"
)

// TestModelsForSharesBuilds pins the lab's per-benchmark model memo:
// concurrent ModelsFor calls over overlapping names build each model
// once and hand every caller the same pointer, and a later Models call
// (the whole population) reuses those pointers.
func TestModelsForSharesBuilds(t *testing.T) {
	l := tinyLab()
	names := l.Names()
	const callers = 6
	got := make([]map[string]*badco.Model, callers)
	built := make([]int, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], built[i], errs[i] = l.ModelsFor(tctx, names[i:i+4])
		}(i)
	}
	close(start)
	wg.Wait()
	total := 0
	first := map[string]*badco.Model{}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(got[i]) != 4 {
			t.Fatalf("caller %d got %d models, want 4", i, len(got[i]))
		}
		total += built[i]
		for name, m := range got[i] {
			if m == nil {
				t.Fatalf("caller %d: nil model for %s", i, name)
			}
			if prev, ok := first[name]; ok && prev != m {
				t.Errorf("%s: callers received different models", name)
			}
			first[name] = m
		}
	}
	if distinct := callers + 3; total != distinct || len(first) != distinct {
		t.Errorf("%d builds for %d distinct benchmarks (%d seen), want one each", total, distinct, len(first))
	}
	all, err := l.Models(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(names) {
		t.Fatalf("Models returned %d models, want %d", len(all), len(names))
	}
	for name, m := range first {
		if all[name] != m {
			t.Errorf("Models rebuilt %s", name)
		}
	}
	if _, n, err := l.ModelsFor(tctx, names); err != nil || n != 0 {
		t.Errorf("ModelsFor after Models built %d models (err %v), want 0", n, err)
	}
}

// gatedSource blocks the first Trace call for one benchmark until its
// caller's context ends, so a test can cancel a model build mid-flight.
type gatedSource struct {
	bench.Source
	gate    string
	entered chan struct{}
	once    sync.Once
}

func (g *gatedSource) Trace(ctx context.Context, name string, n int) (*trace.Trace, error) {
	if name == g.gate {
		first := false
		g.once.Do(func() { first = true })
		if first {
			close(g.entered)
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}
	return g.Source.Trace(ctx, name, n)
}

// TestModelsForCancelledBuildNotMemoized cancels a model build while its
// trace loads: the cancelled caller gets the cancellation, a live caller
// waiting on the same build retries and builds the model itself, and the
// memo never holds the failure.
func TestModelsForCancelledBuildNotMemoized(t *testing.T) {
	src := &gatedSource{Source: bench.NewSuite(), gate: "mcf", entered: make(chan struct{})}
	cfg := QuickConfig()
	cfg.TraceLen = 2000
	cfg.Source = src
	l := NewLab(cfg)

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, _, err := l.ModelsFor(ctx, []string{"mcf"})
		cancelled <- err
	}()
	<-src.entered
	type outcome struct {
		m     map[string]*badco.Model
		built int
		err   error
	}
	live := make(chan outcome, 1)
	go func() {
		m, n, err := l.ModelsFor(context.Background(), []string{"mcf"})
		live <- outcome{m, n, err}
	}()
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
	o := <-live
	if o.err != nil || o.m["mcf"] == nil {
		t.Fatalf("live caller: %v, %v", o.m, o.err)
	}
	if o.built != 1 {
		t.Errorf("live caller built %d models, want 1 (the cancelled build must not count)", o.built)
	}
	m, n, err := l.ModelsFor(context.Background(), []string{"mcf"})
	if err != nil || n != 0 || m["mcf"] != o.m["mcf"] {
		t.Errorf("third call: built %d, same model %v, err %v; want the memoized model", n, m["mcf"] == o.m["mcf"], err)
	}
}
