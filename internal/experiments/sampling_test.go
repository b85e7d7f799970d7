package experiments

import (
	"strings"
	"testing"

	"mcbench/internal/cache"
	"mcbench/internal/multicore"
)

func TestSamplingExperimentRegistered(t *testing.T) {
	e, ok := Lookup("sampling-accuracy")
	if !ok {
		t.Fatal("sampling-accuracy not registered")
	}
	if e.Group != GroupExtension {
		t.Errorf("group = %q, want extension", e.Group)
	}
	if e.Synopsis == "" {
		t.Error("empty synopsis")
	}
}

// TestSamplingLabSweep drives the sampled route of the detailed
// population sweep end to end: a Lab configured with a SamplingSpec must
// produce estimate tables, persist them with CI/cv columns under
// spec-distinct keys, and reload them bitwise from a fresh Lab.
func TestSamplingLabSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	cfg := QuickConfig()
	cfg.TraceLen = 8000
	cfg.DetailedCount = 6
	cfg.CacheDir = t.TempDir()
	cfg.Sampling = multicore.SamplingSpec{Unit: 2000, Window: 500, Warmup: 500}
	l1 := NewLab(cfg)
	a, err := l1.DetailedIPC(tctx, 2, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty sampled table")
	}
	// A fresh lab with the same sampling config loads the persisted
	// estimate bitwise.
	l2 := NewLab(cfg)
	b, err := l2.DetailedIPC(tctx, 2, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatalf("cached sampled table differs at [%d][%d]", i, k)
			}
		}
	}
	if _, det := l2.SweepCounts(); det != 0 {
		t.Errorf("fresh lab resimulated %d detailed sweeps instead of loading the cache", det)
	}
	// An exact lab over the same cache dir must NOT see the estimate:
	// the spec is part of the table identity.
	exactCfg := cfg
	exactCfg.Sampling = multicore.SamplingSpec{}
	l3 := NewLab(exactCfg)
	c, err := l3.DetailedIPC(tctx, 2, cache.LRU)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		for k := range a[i] {
			same = same && a[i][k] == c[i][k]
		}
	}
	if same {
		t.Error("exact sweep returned the sampled estimate: cache keys collide")
	}
}

// TestSamplingWarmupMutuallyExclusive: a Lab with both Warmup and
// Sampling set must refuse the detailed sweep instead of guessing.
func TestSamplingWarmupMutuallyExclusive(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	cfg := QuickConfig()
	cfg.TraceLen = 4000
	cfg.DetailedCount = 4
	cfg.Warmup = 1000
	cfg.Sampling = multicore.SamplingSpec{Unit: 1000, Window: 200, Warmup: 200}
	l := NewLab(cfg)
	_, err := l.DetailedIPC(tctx, 2, cache.LRU)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want mutual-exclusion error", err)
	}
}

// TestSamplingAccuracyTable runs the registered experiment on a scaled-
// down lab and sanity-checks the table shape and the invariants that do
// not depend on machine speed (wall-clock speedup is reported but not
// asserted here; the experiment itself reports it at full scale).
func TestSamplingAccuracyTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation ensemble")
	}
	cfg := QuickConfig()
	cfg.TraceLen = 10000 // study stretches 10×: 100k-µop traces
	l := NewLab(cfg)
	points, err := l.SamplingAccuracy(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(samplingSpecs) {
		t.Fatalf("%d points, want %d", len(points), len(samplingSpecs))
	}
	for _, p := range points {
		if p.Total != samplingEnsembleSize {
			t.Errorf("%s: %d runs, want %d", p.Spec, p.Total, samplingEnsembleSize)
		}
		if p.Windows <= 0 {
			t.Errorf("%s: no windows", p.Spec)
		}
		if p.DetFrac <= 0 || p.DetFrac > 1 {
			t.Errorf("%s: detailed fraction %f", p.Spec, p.DetFrac)
		}
		if p.MeanErr < 0 || p.MeanErr > 0.5 {
			t.Errorf("%s: mean error %f out of sane range", p.Spec, p.MeanErr)
		}
		if p.Speedup <= 0 {
			t.Errorf("%s: speedup %f", p.Spec, p.Speedup)
		}
	}
	tab, err := l.samplingAccuracyTable(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(samplingSpecs) {
		t.Fatalf("table rows %d, want %d", len(tab.Rows), len(samplingSpecs))
	}
	if tab.Columns[0] != "spec" || tab.Columns[len(tab.Columns)-1] != "speedup" {
		t.Errorf("unexpected columns %v", tab.Columns)
	}
}
