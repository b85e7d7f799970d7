package bench

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mcbench/internal/memo"
	"mcbench/internal/trace"
)

var bctx = context.Background()

func TestSuiteSourceMatchesLegacySuite(t *testing.T) {
	src := NewSuite()
	if src.Name() != "suite" {
		t.Errorf("name %q", src.Name())
	}
	if got, want := src.Names(), trace.SuiteNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("names %v != suite names %v", got, want)
	}
	const n = 4000
	legacy := trace.GenerateSuite(n)
	for _, name := range src.Names() {
		tr, err := src.Trace(bctx, name, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(tr.Ops, legacy[name].Ops) {
			t.Fatalf("%s: source trace diverges from trace.GenerateSuite", name)
		}
	}
	if got := Resident(src); got != 22 {
		t.Errorf("resident %d after full generation, want 22", got)
	}
}

func TestSourceMemoizesAndReleases(t *testing.T) {
	src := NewSuite()
	a, err := src.Trace(bctx, "mcf", 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Trace(bctx, "mcf", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Trace call rebuilt instead of returning the memo")
	}
	if got := Resident(src); got != 1 {
		t.Errorf("resident %d, want 1", got)
	}
	src.Release("mcf")
	if got := Resident(src); got != 0 {
		t.Errorf("resident %d after release, want 0", got)
	}
	c, err := src.Trace(bctx, "mcf", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("released trace not rebuilt")
	}
	if !reflect.DeepEqual(c.Ops, a.Ops) {
		t.Error("rebuild after release is not deterministic")
	}
	// The old pointer stays valid after release and rebuild.
	if a.Len() != 2000 || a.Name != "mcf" {
		t.Error("released trace corrupted")
	}
	// Releasing unknown or unbuilt names is a no-op.
	src.Release("mcf")
	src.Release("nosuch")
}

func TestSourceSingleFlight(t *testing.T) {
	var builds atomic.Int64
	var m memo.Group[string, *trace.Trace]
	build := func() (*trace.Trace, error) {
		builds.Add(1)
		p, _ := trace.ByName("gcc")
		return trace.Generate(p, 3000)
	}
	const callers = 8
	var wg sync.WaitGroup
	got := make([]*trace.Trace, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := m.Do(bctx, "gcc", build)
			if err != nil {
				panic(err)
			}
			got[i] = tr
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("%d builds for %d concurrent callers, want 1", builds.Load(), callers)
	}
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different trace pointer", i)
		}
	}
}

func TestSourceLengthMismatchReplaces(t *testing.T) {
	src := NewSuite()
	a, err := src.Trace(bctx, "gcc", 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := src.Trace(bctx, "gcc", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 1000 || b.Len() != 2000 {
		t.Fatalf("lengths %d/%d", a.Len(), b.Len())
	}
	if got := Resident(src); got != 1 {
		t.Errorf("resident %d after replacement, want 1", got)
	}
	// The longer build replaced the shorter; a repeat at 2000 is a hit.
	c, err := src.Trace(bctx, "gcc", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if c != b {
		t.Error("replacement entry not memoized")
	}
}

func TestSourceErrorsNotMemoized(t *testing.T) {
	fail := errors.New("boom")
	calls := 0
	var m memo.Group[string, *trace.Trace]
	build := func() (*trace.Trace, error) {
		calls++
		if calls == 1 {
			return nil, fail
		}
		p, _ := trace.ByName("mcf")
		return trace.Generate(p, 1000)
	}
	if _, err := m.Do(bctx, "mcf", build); !errors.Is(err, fail) {
		t.Fatalf("first call error %v", err)
	}
	if m.Len() != 0 {
		t.Fatal("failed build left an entry behind")
	}
	if _, err := m.Do(bctx, "mcf", build); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
}

func TestSourceCancellation(t *testing.T) {
	src := NewSuite()
	ctx, cancel := context.WithCancel(bctx)
	cancel()
	if _, err := src.Trace(ctx, "mcf", 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	if got := Resident(src); got != 0 {
		t.Errorf("resident %d after cancelled build", got)
	}
}

func TestSourceUnknownBenchmark(t *testing.T) {
	src := NewSuite()
	if _, err := src.Trace(bctx, "nosuch", 1000); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestProviderBindsLength(t *testing.T) {
	src := NewSuite()
	prov := At(src, 1500)
	tr, err := prov.Trace(bctx, "povray")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1500 {
		t.Fatalf("length %d, want 1500", tr.Len())
	}
	if prov.Source() != Source(src) || prov.Len() != 1500 {
		t.Error("provider accessors broken")
	}
	if !reflect.DeepEqual(prov.Names(), src.Names()) {
		t.Error("provider names diverge from source")
	}
	prov.Release("povray")
	if got := Resident(src); got != 0 {
		t.Errorf("resident %d after provider release", got)
	}
}

func TestParseSpecs(t *testing.T) {
	for _, tc := range []struct {
		spec string
		name string
	}{
		{"", "suite"},
		{"suite", "suite"},
		{"scaled:64", "scaled:64:1"},
		{"scaled:64:7", "scaled:64:7"},
	} {
		src, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		if src.Name() != tc.name {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.spec, src.Name(), tc.name)
		}
	}
	for _, spec := range []string{"nosuch", "scaled:x", "scaled:64:y", "scaled:4", "scaled:1000", "dir:/nonexistent-dir-xyz"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}
