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

// TestSamplingWarmupMutuallyExclusive: a lab must refuse a run that
// sets both a warmup and a sampling spec instead of guessing, before it
// simulates anything.
func TestSamplingWarmupMutuallyExclusive(t *testing.T) {
	cfg := QuickConfig()
	cfg.TraceLen = 4000
	l := NewLab(cfg)
	spec := multicore.Spec{Engine: multicore.Detailed, Policy: cache.LRU, Warmup: 1000,
		Sampling: multicore.SamplingSpec{Unit: 1000, Window: 200, Warmup: 200}}
	res, names, _, err := l.Simulate(tctx, spec, [][]string{{"mcf", "povray"}}, 0)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("err = %v, want mutual-exclusion error", err)
	}
	if res != nil || names != nil {
		t.Errorf("refused run returned results %v, names %v", res, names)
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
